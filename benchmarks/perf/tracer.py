"""In-memory span tracer that wraps the program's layer entry points.

The benchmark measures layers from the outside: :class:`Tracer` replaces
each public callable named in :data:`TARGETS` with a timing wrapper for
as long as it is installed, and puts every original back on
:meth:`Tracer.restore`.  Nothing under ``src/`` changes, and an untraced
run executes the original functions only.

- Methods are wrapped on their class; ``staticmethod`` descriptors stay
  ``staticmethod``.
- Module functions are rebound in *every* module that holds a reference
  to them (``from x import f`` makes a private copy of the name, e.g.
  ``repro.faults.fault_sim.limited_shift``).  Modules imported while the
  tracer is installed may pick up a wrapper; ``restore`` rebinds those
  too.

Each call records a :class:`Span` -- name, start, end, the index of the
enclosing span and the harness's current *unit* label (one operation or
one setup repetition; the spans of one unit share it).  A span's self
time is its duration minus the time its direct children cover; spans
are properly nested because all traced code runs on the calling thread.

Code running in other processes (persistent-pool workers, ``repro
serve`` job children) is invisible: forked workers inherit the wrappers
but their spans die with them.
"""

from __future__ import annotations

import functools
import importlib
import sys
import time
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, Hashable, List, NamedTuple, Optional, Tuple

#: A probe extracts one number from a call: ``probe(args, result)``.
Probe = Callable[[tuple, Any], float]


def _vals_nbytes(args: tuple, result: Any) -> float:
    return float(args[1].nbytes)  # CompiledModel.eval(self, vals, ...)


def _n_specs(args: tuple, result: Any) -> float:
    return float(len(args[1]))  # CandidateEvaluator.evaluate_specs(self, specs, ...)


def _is_fallback(args: tuple, result: Any) -> float:
    return 1.0 if result is None else 0.0  # simulate_candidates -> None


@dataclass(frozen=True)
class Target:
    """One traced callable: span name and ``module:qualname``."""

    span: str
    path: str
    probe: Optional[Probe] = None


#: Every layer boundary the benchmark traces; a span name starts with
#: its layer (the repository module).  Several callables may feed one
#: span name: the serve workload loads its circuit with ``parse_bench``,
#: the catalog with ``load_circuit`` -- which itself re-parses large
#: circuits, so per-name *self* times never double count.
TARGETS: Tuple[Target, ...] = (
    Target("circuit.load", "repro.bench_circuits.catalog:load_circuit"),
    Target("circuit.load", "repro.circuit.bench_parser:parse_bench"),
    Target("circuit.compile", "repro.faults.model:FaultGraph.__init__"),
    Target("faults.collapse", "repro.faults.collapse:collapse_faults"),
    Target("analysis.lint", "repro.analysis.lint:lint_structural"),
    Target("core.procedure2", "repro.core.procedure2:run_procedure2"),
    Target("core.ts0", "repro.core.test_set:generate_ts0"),
    Target("core.ts_build", "repro.core.limited_scan:build_limited_scan_test_set"),
    Target(
        "simulation.eval", "repro.simulation.compiled:CompiledModel.eval", _vals_nbytes
    ),
    Target("simulation.inject_build", "repro.simulation.compiled:Injections.build"),
    Target("simulation.shift", "repro.simulation.scan:limited_shift"),
    Target(
        "faults.grouped", "repro.faults.fault_sim:FaultSimulator.simulate_grouped"
    ),
    Target(
        "faults.candidates",
        "repro.faults.fault_sim:FaultSimulator.simulate_candidates",
        _is_fallback,
    ),
    Target(
        "pool.evaluate", "repro.faults.pool:CandidateEvaluator.evaluate_specs", _n_specs
    ),
    Target("pool.reconstruct", "repro.faults.pool:ReconTable.hits_for"),
    Target("pool.lazy_hits", "repro.faults.pool:LazyTable.hits_for"),
    Target("pool.submit", "repro.faults.pool:PersistentWorkerPool.submit"),
    Target(
        "checkpoint.commit",
        "repro.robustness.checkpoint:CheckpointWriter.commit_iteration",
    ),
)

#: The span every Procedure 2 operation runs under; its *self* time is
#: the greedy loop's own bookkeeping.
ROOT_SPAN = "core.procedure2"


class Span(NamedTuple):
    name: str
    start: float
    end: float
    parent: int  # index into the span list, -1 for a top-level span
    unit: Hashable
    probe: Optional[float]


def _module_bindings() -> List[Tuple[Any, str, Any]]:
    """``(module, name, value)`` for every global of every loaded module."""
    out = []
    for module in list(sys.modules.values()):
        namespace = getattr(module, "__dict__", None)
        if namespace is not None:
            out.extend((module, name, value) for name, value in list(namespace.items()))
    return out


def resolve(path: str) -> Tuple[Any, str, Any]:
    """``(owner, attribute, raw value)`` for a ``module:qualname`` path.

    ``owner`` is the module or class holding the attribute; the raw value
    is read from ``__dict__`` so descriptors come back unbound.
    """
    module_name, qualname = path.split(":")
    owner: Any = importlib.import_module(module_name)
    *outer, attr = qualname.split(".")
    for name in outer:
        owner = getattr(owner, name)
    return owner, attr, owner.__dict__[attr]


class Tracer:
    """Wraps :data:`TARGETS` while installed and keeps spans in memory."""

    def __init__(self, targets: Tuple[Target, ...] = TARGETS) -> None:
        self.targets = targets
        self.spans: List[Span] = []
        #: Label stamped on every span recorded from now on.
        self.unit: Hashable = None
        self._stack: List[int] = []
        # (owner, attribute, original raw value, replacement raw value)
        self._patches: List[Tuple[Any, str, Any, Any]] = []
        # id(wrapper) -> (wrapper, original), for module rebinding
        self._originals: Dict[int, Tuple[Any, Any]] = {}

    def _wrap(self, name: str, fn: Callable, probe: Optional[Probe]) -> Callable:
        spans, stack, clock = self.spans, self._stack, time.perf_counter
        missing = object()

        @functools.wraps(fn)
        def wrapper(*args: Any, **kwargs: Any) -> Any:
            parent = stack[-1] if stack else -1
            unit = self.unit
            index = len(spans)
            spans.append(None)  # type: ignore[arg-type] - filled below
            stack.append(index)
            result = missing
            start = clock()
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                end = clock()
                stack.pop()
                value = (
                    probe(args, result)
                    if probe is not None and result is not missing
                    else None
                )
                spans[index] = Span(name, start, end, parent, unit, value)

        return wrapper

    def install(self) -> None:
        if self._patches:
            raise RuntimeError("tracer already installed")
        functions: Dict[int, Tuple[Any, Any]] = {}  # id(original) -> (original, wrapper)
        for target in self.targets:
            owner, attr, raw = resolve(target.path)
            if not isinstance(owner, type):
                wrapper = self._wrap(target.span, raw, target.probe)
                functions[id(raw)] = (raw, wrapper)
                self._originals[id(wrapper)] = (wrapper, raw)
                continue
            if isinstance(raw, staticmethod):
                replacement: Any = staticmethod(
                    self._wrap(target.span, raw.__func__, target.probe)
                )
            else:
                replacement = self._wrap(target.span, raw, target.probe)
            setattr(owner, attr, replacement)
            self._patches.append((owner, attr, raw, replacement))
        for module, name, value in _module_bindings():
            entry = functions.get(id(value))
            if entry is not None and entry[0] is value:
                setattr(module, name, entry[1])
                self._patches.append((module, name, value, entry[1]))

    def restore(self) -> None:
        """Put every original back, including copies made while installed."""
        for owner, attr, raw, _replacement in reversed(self._patches):
            setattr(owner, attr, raw)
        self._patches.clear()
        if self._originals:
            for module, name, value in _module_bindings():
                entry = self._originals.get(id(value))
                if entry is not None and entry[0] is value:
                    setattr(module, name, entry[1])
        self._originals.clear()
        self._stack.clear()

    def __enter__(self) -> "Tracer":
        self.install()
        return self

    def __exit__(self, *exc: Any) -> None:
        self.restore()


@dataclass
class SpanStats:
    """Aggregate of every span with one name inside one unit."""

    calls: int = 0
    total_s: float = 0.0
    self_s: float = 0.0
    probe_sum: float = 0.0
    durations: List[float] = field(default_factory=list)


def self_times(spans: List[Span]) -> List[float]:
    """Each span's duration minus the time its direct children cover."""
    child = [0.0] * len(spans)
    for span in spans:
        if span.parent >= 0:
            child[span.parent] += span.end - span.start
    return [span.end - span.start - child[i] for i, span in enumerate(spans)]


def summarize(spans: List[Span]) -> Dict[Hashable, Dict[str, SpanStats]]:
    """Per unit, per span name: calls, inclusive and self seconds, probes."""
    out: Dict[Hashable, Dict[str, SpanStats]] = {}
    for span, own in zip(spans, self_times(spans)):
        stats = out.setdefault(span.unit, {}).setdefault(span.name, SpanStats())
        duration = span.end - span.start
        stats.calls += 1
        stats.total_s += duration
        stats.self_s += own
        stats.durations.append(duration)
        if span.probe is not None:
            stats.probe_sum += span.probe
    return out
