"""The benchmark's four workloads and the measurements taken on them.

Every workload runs *operations* back to back for the requested number
of seconds and reports the same end-to-end metrics:

- a Procedure 2 operation is one complete :func:`run_procedure2` call
  on the workload's circuit and configuration (closed loop, one client);
- a serve operation is one s27 job submitted to a ``repro serve``
  subprocess (open loop at a fixed rate, then a back-to-back burst).

Inputs come from ``--seed`` only: Procedure 2 workloads use
``base_seed = 20010618 + seed``; the serve job stream is drawn from
``numpy.random.default_rng(seed)``.  Every result is checked: Procedure 2
digests against ``golden.json`` (or, for a seed without a golden entry,
against a run of an independent engine path made after the timed
phase), served results against in-process
:class:`~repro.core.session.LimitedScanBist` runs of the same
submissions.
"""

from __future__ import annotations

import ctypes
import gc
import hashlib
import json
import multiprocessing
import os
import resource
import signal
import statistics
import subprocess
import sys
import threading
import time
import traceback
from dataclasses import dataclass, field
from pathlib import Path
from multiprocessing import resource_tracker
from typing import Any, Dict, Hashable, List, Optional, Tuple

import numpy as np

from repro.bench_circuits import catalog
from repro.circuit import bench_parser
from repro.core import procedure2, session
from repro.core.config import BistConfig
from repro.experiments.serialize import result_to_dict
from repro.faults import collapse
from repro.faults.fault_sim import FaultSimulator
from repro.faults.model import FaultGraph
from repro.faults.sharding import available_cpu_count
from repro.serve.client import ServeClient
from repro.serve.errors import ServeError
from repro.serve.models import TERMINAL_STATES

from tracer import ROOT_SPAN, SpanStats, Tracer, summarize

ROOT = Path(__file__).resolve().parents[2]
SRC = ROOT / "src"
BASE_SEED = 20010618
#: Environment the program must not see (``bench.py`` removes it): a
#: compile cache or a netlist directory would change what set-up
#: measures, and downloads are never allowed.
SCRUBBED_ENV = ("REPRO_CACHE_DIR", "REPRO_BENCH_DIR", "REPRO_BENCH_DOWNLOAD")
PAGE_BYTES = os.sysconf("SC_PAGE_SIZE")
CLOCK_TICKS = os.sysconf("SC_CLK_TCK")
CHILD_REAP_TIMEOUT_S = 10.0
PR_SET_CHILD_SUBREAPER = 36  # from <linux/prctl.h>


# ----------------------------------------------------------------------
# Workload definitions.
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class P2Workload:
    """A Procedure 2 workload: circuit, configuration, engine knobs.

    ``family`` names the golden-digest table: workloads of one family
    differ only in execution knobs and must produce identical results.
    ``reference`` holds the execution knobs of the independent engine
    path that recorded the family's golden digests.
    """

    circuit: str
    config: Dict[str, Any]
    family: str
    reference: Dict[str, Any]
    checkpoint: bool = False


#: s1423, collapsed targets (2294 faults).  ``n_same_fc`` equals
#: ``max_iterations`` so every seed runs exactly three iterations: the
#: work per operation does not depend on where the greedy search would
#: have stopped, which keeps seed-to-seed spread at host-noise level.
S1423_SEARCH = dict(la=8, lb=16, n=32, n_same_fc=3, max_iterations=3)
#: s13207, collapsed targets (27145 faults): one test per length, so
#: every batch is one test by ~425 fault words -- the wide path.
S13207_SEARCH = dict(
    la=4, lb=8, n=1, n_same_fc=1, max_iterations=1, d1_values=(1, 2, 3)
)

P2_WORKLOADS: Dict[str, P2Workload] = {
    "p2_s1423_batched": P2Workload(
        circuit="s1423",
        config=dict(S1423_SEARCH, candidate_batch=10, n_jobs=1),
        family="s1423",
        reference=dict(candidate_batch=1, n_jobs=1),
    ),
    "p2_s1423_pool2_ckpt": P2Workload(
        circuit="s1423",
        config=dict(S1423_SEARCH, candidate_batch=10, n_jobs=2, pool="persistent"),
        family="s1423",
        reference=dict(candidate_batch=1, n_jobs=1),
        checkpoint=True,
    ),
    "p2_s13207_wide": P2Workload(
        circuit="s13207",
        config=dict(S13207_SEARCH, candidate_batch=1, n_jobs=1),
        family="s13207",
        reference=dict(candidate_batch=3, n_jobs=1),
    ),
}

SERVE_WORKLOAD = "serve_s27_mixed"
SERVE_RATE_PER_S = 12.0
SERVE_OPEN_FRACTION = 0.6  # of --seconds spent in the open loop
SERVE_RESUBMIT_SLOTS = (3, 6, 9)  # 30% of the open-loop jobs
SERVE_WARMUP_JOBS = 4
SERVE_SETUP_REPS = 15  # server starts (~0.4 s each) behind one setup_s median
SERVE_REFERENCE_PAIRS = 24  # untraced/traced reference pairs for the overhead
SERVE_ARGS = (
    "--workers", "2",
    # Raised so that no job is shed: the defaults (64 deep, 2/s, burst
    # 10) would refuse most of this traffic with Q-codes.
    "--max-queue", "100000", "--rate-per-s", "100000", "--burst", "100000",
)

WORKLOADS = (*P2_WORKLOADS, SERVE_WORKLOAD)


# ----------------------------------------------------------------------
# Small helpers.
# ----------------------------------------------------------------------
def result_digest(result: Any) -> Dict[str, Any]:
    """The golden-digest record of a Procedure 2 result."""
    doc = result_to_dict(result)
    return {
        "sha256": hashlib.sha256(
            json.dumps(doc, sort_keys=True).encode("utf-8")
        ).hexdigest(),
        "det_total": result.det_total,
        "app": result.app,
        "ncyc_total": result.ncyc_total,
        "iterations_run": result.iterations_run,
    }


def metric(value: float, unit: str) -> Dict[str, Any]:
    return {"value": float(value), "unit": unit}


def reap_children(timeout_s: float = CHILD_REAP_TIMEOUT_S) -> None:
    """Wait until every ``multiprocessing`` child has exited and is reaped.

    Pool workers are terminated when a Procedure 2 run closes its pool;
    their CPU time reaches ``RUSAGE_CHILDREN`` only once reaped.
    """
    deadline = time.monotonic() + timeout_s
    while multiprocessing.active_children():
        if time.monotonic() > deadline:
            raise RuntimeError("pool workers did not exit")
        time.sleep(0.002)


def become_subreaper() -> None:
    """Adopt orphaned descendants, so :func:`stop_descendants` finds them."""
    libc = ctypes.CDLL(None, use_errno=True)
    if libc.prctl(PR_SET_CHILD_SUBREAPER, 1, 0, 0, 0) != 0:
        raise OSError(ctypes.get_errno(), "prctl(PR_SET_CHILD_SUBREAPER)")


def _reap_exited() -> None:
    while True:
        try:
            pid, _status = os.waitpid(-1, os.WNOHANG)
        except ChildProcessError:
            return
        if pid == 0:
            return


def stop_descendants(timeout_s: float = CHILD_REAP_TIMEOUT_S) -> None:
    """Stop every process this one started, directly or not, and reap it.

    The shared-memory resource tracker that a persistent pool starts is
    built to outlive its parent and ignores SIGTERM: it is stopped last,
    by closing its pipe, once no other descendant holds that pipe open.
    Everything else gets SIGTERM, then SIGKILL after ``timeout_s``.
    """
    tracker = resource_tracker._resource_tracker
    me = os.getpid()
    deadline = time.monotonic() + timeout_s
    while True:
        _reap_exited()
        stats = _proc_stats()
        left = [p for p in _tree(stats, me) if p not in (me, tracker._pid)]
        if not left:
            break
        sig = signal.SIGTERM if time.monotonic() < deadline else signal.SIGKILL
        for pid in left:
            if stats[pid][1][0] != "Z":
                try:
                    os.kill(pid, sig)
                except ProcessLookupError:
                    pass
        time.sleep(0.01)
    try:
        tracker._stop()
    except ChildProcessError:
        pass  # already reaped above
    _reap_exited()


def children_cpu_s() -> float:
    usage = resource.getrusage(resource.RUSAGE_CHILDREN)
    return usage.ru_utime + usage.ru_stime


def _proc_stats() -> Dict[int, Tuple[int, List[str]]]:
    """pid -> (ppid, fields after the command name) for every process."""
    out: Dict[int, Tuple[int, List[str]]] = {}
    for entry in os.listdir("/proc"):
        if not entry.isdigit():
            continue
        try:
            with open(f"/proc/{entry}/stat", "rb") as fh:
                text = fh.read().decode("ascii", "replace")
        except OSError:
            continue  # exited between listdir and open
        rest = text[text.rindex(")") + 2 :].split()
        out[int(entry)] = (int(rest[1]), rest)
    return out


def _tree(stats: Dict[int, Tuple[int, List[str]]], root: int) -> List[int]:
    children: Dict[int, List[int]] = {}
    for pid, (ppid, _rest) in stats.items():
        children.setdefault(ppid, []).append(pid)
    tree, todo = [], [root]
    while todo:
        pid = todo.pop()
        if pid in stats:
            tree.append(pid)
            todo.extend(children.get(pid, ()))
    return tree


def _peak_rss_bytes(pid: int, stat_rest: List[str]) -> int:
    """The process's resident-set high-water mark (``VmHWM``)."""
    try:
        with open(f"/proc/{pid}/status", "rb") as fh:
            for line in fh:
                if line.startswith(b"VmHWM:"):
                    return int(line.split()[1]) * 1024
    except OSError:
        pass
    # Field 24 of /proc/<pid>/stat (current rss, in pages) is index 21.
    return int(stat_rest[21]) * PAGE_BYTES


def tree_peak_rss_bytes(root: int) -> int:
    """Summed RSS high-water marks of ``root`` and its live descendants."""
    stats = _proc_stats()
    return sum(_peak_rss_bytes(pid, stats[pid][1]) for pid in _tree(stats, root))


def tree_cpu_s(root: int) -> float:
    """CPU seconds of ``root`` (with its reaped children) plus live descendants."""
    stats = _proc_stats()
    if root not in stats:
        raise RuntimeError(f"process {root} is gone")
    ticks = 0
    for pid in _tree(stats, root):
        rest = stats[pid][1]
        ticks += int(rest[11]) + int(rest[12])  # utime, stime
        if pid == root:
            ticks += int(rest[13]) + int(rest[14])  # cutime, cstime
    return ticks / CLOCK_TICKS


class RssSampler:
    """Peak of the summed RSS high-water marks of one process tree.

    A high-water mark never falls, so a long-lived process's allocation
    spike counts even between samples; the sampling only has to see
    each child process once near its end (pool workers live for a whole
    operation, serve job children for tens of milliseconds, hence the
    per-workload interval).  Runs on one background thread -- the
    benchmark's only other thread -- and publishes its own CPU time so
    per-operation CPU can exclude it.
    """

    def __init__(self, root: int, interval_s: float) -> None:
        self.root = root
        self.interval_s = interval_s
        self.peak_bytes = 0
        self.thread_cpu_s = 0.0
        self._stop = threading.Event()
        self._thread = threading.Thread(
            target=self._run, name="rss-sampler", daemon=True
        )

    def _sample(self) -> None:
        try:
            self.peak_bytes = max(self.peak_bytes, tree_peak_rss_bytes(self.root))
        except (OSError, ValueError, IndexError, KeyError):
            pass  # a process vanished mid-read; the next sample retries

    def _run(self) -> None:
        while not self._stop.wait(self.interval_s):
            self._sample()
            self.thread_cpu_s = time.thread_time()

    def __enter__(self) -> "RssSampler":
        self._thread.start()
        return self

    def __exit__(self, *exc: Any) -> None:
        self._stop.set()
        self._thread.join(timeout=5.0)
        self._sample()


@dataclass
class RunOutcome:
    """What one benchmark run reports."""

    attempted: int = 0
    failed: int = 0
    metrics: Dict[str, Dict[str, Any]] = field(default_factory=dict)
    notes: List[str] = field(default_factory=list)

    @property
    def correct(self) -> bool:
        return self.failed == 0 and self.attempted > 0


def end_to_end(
    latencies_ms: List[float],
    capacity: float,
    cpu_s: float,
    peak_rss_bytes: int,
    setup_s: List[float],
) -> Dict[str, Dict[str, Any]]:
    return {
        "latency_p50_ms": metric(statistics.median(latencies_ms), "ms"),
        "capacity_ops_per_s": metric(capacity, "1/s"),
        "cpu_s": metric(cpu_s, "s"),
        "peak_rss_mb": metric(peak_rss_bytes / 1e6, "MB"),
        "setup_s": metric(statistics.median(setup_s), "s"),
    }


# ----------------------------------------------------------------------
# Per-layer metrics from spans.
# ----------------------------------------------------------------------
def layer_metrics(
    tracer: Tracer,
    op_units: List[Hashable],
    op_walls: List[float],
    setup_units: List[Hashable],
    untraced_walls: List[float],
    import_s: float,
    extra: Dict[str, Dict[str, Any]],
) -> Dict[str, Dict[str, Any]]:
    """Per-operation layer figures of the traced operations.

    Counts and seconds are means per traced operation; set-up layers
    (load, compile, collapse) are medians over the traced set-up
    repetitions when the workload has any, else per-operation means.
    """
    by_unit = summarize(tracer.spans)
    empty = SpanStats()
    ops = [by_unit.get(unit, {}) for unit in op_units]
    setups = [by_unit.get(unit, {}) for unit in setup_units]
    n = max(1, len(ops))

    def total(name: str, attr: str) -> float:
        return sum(getattr(o.get(name, empty), attr) for o in ops)

    def per_op(name: str, attr: str) -> float:
        return total(name, attr) / n

    def setup_layer(name: str) -> float:
        if setups:
            return statistics.median(s.get(name, empty).self_s for s in setups)
        return per_op(name, "self_s")

    eval_calls = total("simulation.eval", "calls")
    scored = total("pool.evaluate", "probe_sum") - len(ops)  # minus TS0
    used = (
        total("pool.reconstruct", "calls")
        + total("pool.lazy_hits", "calls")
        - len(ops)  # minus TS0's table
    )
    commits = [
        d for o in ops for d in o.get("checkpoint.commit", empty).durations
    ]
    covered = sum(
        stats.self_s
        for o in ops
        for name, stats in o.items()
        if name != ROOT_SPAN
    )
    out = {
        "circuit.load_s": metric(setup_layer("circuit.load"), "s"),
        "circuit.compile_s": metric(setup_layer("circuit.compile"), "s"),
        "faults.collapse_s": metric(setup_layer("faults.collapse"), "s"),
        "analysis.lint_s": metric(per_op("analysis.lint", "self_s"), "s"),
        "core.loop_self_s": metric(per_op(ROOT_SPAN, "self_s"), "s"),
        "core.ts0_s": metric(per_op("core.ts0", "self_s"), "s"),
        "core.ts_build_calls": metric(per_op("core.ts_build", "calls"), "count"),
        "core.ts_build_s": metric(per_op("core.ts_build", "self_s"), "s"),
        "simulation.eval_calls": metric(eval_calls / n, "count"),
        "simulation.eval_self_s": metric(per_op("simulation.eval", "self_s"), "s"),
        "simulation.eval_us_per_call": metric(
            1e6 * total("simulation.eval", "self_s") / eval_calls
            if eval_calls else 0.0,
            "us",
        ),
        "simulation.eval_mb_per_call": metric(
            total("simulation.eval", "probe_sum") / eval_calls / 1e6
            if eval_calls else 0.0,
            "MB",
        ),
        "simulation.inject_builds": metric(
            per_op("simulation.inject_build", "calls"), "count"
        ),
        "simulation.inject_build_s": metric(
            per_op("simulation.inject_build", "self_s"), "s"
        ),
        "simulation.shift_calls": metric(per_op("simulation.shift", "calls"), "count"),
        "simulation.shift_s": metric(per_op("simulation.shift", "self_s"), "s"),
        "faults.grouped_calls": metric(per_op("faults.grouped", "calls"), "count"),
        "faults.grouped_self_s": metric(per_op("faults.grouped", "self_s"), "s"),
        "faults.candidates_calls": metric(
            per_op("faults.candidates", "calls"), "count"
        ),
        "faults.candidates_self_s": metric(
            per_op("faults.candidates", "self_s"), "s"
        ),
        "faults.candidates_fallbacks": metric(
            per_op("faults.candidates", "probe_sum"), "count"
        ),
        "pool.evaluate_calls": metric(per_op("pool.evaluate", "calls"), "count"),
        "pool.evaluate_s": metric(per_op("pool.evaluate", "total_s"), "s"),
        "pool.evaluate_self_s": metric(per_op("pool.evaluate", "self_s"), "s"),
        "pool.reconstruct_s": metric(per_op("pool.reconstruct", "self_s"), "s"),
        "pool.candidates_scored": metric(scored / n, "count"),
        "pool.candidates_used": metric(used / n, "count"),
        "pool.speculation_yield": metric(used / scored if scored else 0.0, "ratio"),
        "pool.submits": metric(per_op("pool.submit", "calls"), "count"),
        "checkpoint.commits": metric(per_op("checkpoint.commit", "calls"), "count"),
        "checkpoint.commit_s": metric(per_op("checkpoint.commit", "self_s"), "s"),
        "checkpoint.commit_ms_p50": metric(
            1e3 * statistics.median(commits) if commits else 0.0, "ms"
        ),
        "process.import_s": metric(import_s, "s"),
        "trace.ops": metric(len(ops), "count"),
        "trace.coverage_frac": metric(
            covered / sum(op_walls) if op_walls else 0.0, "ratio"
        ),
        # Traced and untraced runs of the same input alternate, so the
        # overhead is the median of the paired ratios.
        "trace_overhead_frac": metric(
            statistics.median(t / u for t, u in zip(op_walls, untraced_walls)) - 1.0
            if op_walls and untraced_walls else 0.0,
            "ratio",
        ),
    }
    out.update(extra)
    return out


#: Per-layer metrics only the serve workload measures; zero elsewhere.
SERVE_LAYER_UNITS = {
    "serve.latency_p90_ms": "ms",
    "serve.submit_ms_p50": "ms",
    "serve.status_ms_p50": "ms",
    "serve.fresh_latency_ms_p50": "ms",
    "serve.cached_latency_ms_p50": "ms",
    "serve.generator_lag_ms_max": "ms",
    "serve.cache_hit_ratio": "ratio",
    "serve.jobs_simulated": "count",
    "serve.queue_depth_max": "count",
    "serve.journal_records": "count",
}


# ----------------------------------------------------------------------
# Procedure 2 workloads.
# ----------------------------------------------------------------------
def _p2_config(workload: P2Workload, seed: int, **knobs: Any) -> BistConfig:
    return BistConfig(
        base_seed=BASE_SEED + seed, **{**workload.config, **knobs}
    )


def reference_digest(workload: P2Workload, seed: int) -> Dict[str, Any]:
    """Digest of the family's independent engine path (golden source)."""
    circuit = catalog.load_circuit(workload.circuit)
    targets = collapse.collapse_faults(circuit)
    config = _p2_config(workload, seed, **workload.reference)
    return result_digest(procedure2.run_procedure2(circuit, config, targets))


def golden_family_header(workload: P2Workload) -> Dict[str, Any]:
    """What a ``golden.json`` family records besides its per-seed digests."""
    config = _p2_config(workload, 0).to_dict()
    config.pop("base_seed")
    return {
        "circuit": workload.circuit,
        "config": config,
        "reference": workload.reference,
        "seeds": {},
    }


def _golden_for(
    golden: Dict[str, Any], workload: P2Workload, seed: int
) -> Optional[Dict[str, Any]]:
    family = golden.get("families", {}).get(workload.family)
    if family is None:
        return None
    header = golden_family_header(workload)
    if any(family.get(key) != header[key] for key in ("circuit", "config", "reference")):
        raise RuntimeError(
            f"golden.json family {workload.family!r} was recorded for another "
            "configuration; re-record it with --record-golden"
        )
    return family["seeds"].get(str(seed))


def run_p2(
    workload: P2Workload,
    seed: int,
    seconds: float,
    trace: bool,
    golden: Dict[str, Any],
    work_dir: Path,
    import_s: float,
    smoke: bool,
) -> RunOutcome:
    outcome = RunOutcome()
    config = _p2_config(workload, seed)
    expected = _golden_for(golden, workload, seed)
    tracer = Tracer()
    journal = work_dir / "checkpoint.jsonl"

    degraded_events = 0
    first_digest: Optional[Dict[str, Any]] = None

    def setup() -> Tuple[Tuple[Any, Any, Any], float]:
        """Load, compile, collapse: what every fresh run pays first."""
        gc.collect()  # every repetition starts from the same heap state
        start = time.perf_counter()
        circuit = catalog.load_circuit(workload.circuit)
        graph = FaultGraph(circuit)
        targets = collapse.collapse_faults(circuit)
        return (circuit, graph, targets), time.perf_counter() - start

    def operation(inputs: Tuple[Any, Any, Any], sampler: RssSampler) -> Tuple[float, float]:
        """One Procedure 2 run: (wall seconds, process-tree CPU seconds)."""
        nonlocal degraded_events, first_digest
        circuit, graph, targets = inputs
        outcome.attempted += 1
        gc.collect()
        cpu0 = time.process_time() - sampler.thread_cpu_s + children_cpu_s()
        start = time.perf_counter()
        try:
            result = procedure2.run_procedure2(
                circuit,
                config,
                targets,
                simulator=FaultSimulator(graph),
                checkpoint=str(journal) if workload.checkpoint else None,
            )
        except Exception:
            outcome.failed += 1
            traceback.print_exc()
            return time.perf_counter() - start, 0.0
        wall = time.perf_counter() - start
        reap_children()
        cpu = time.process_time() - sampler.thread_cpu_s + children_cpu_s() - cpu0
        if result.degradation is not None:
            degraded_events += len(result.degradation.events)
        digest = result_digest(result)
        if first_digest is None:
            first_digest = digest
        if digest != (expected or first_digest):
            outcome.failed += 1
        return wall, cpu

    # Every operation gets its own set-up, so set-up samples spread over
    # the whole run like the operations do.
    setup_s: List[float] = []
    walls: List[float] = []
    cpus: List[float] = []
    untraced: List[float] = []
    setup_units: List[Hashable] = []
    op_units: List[Hashable] = []
    with RssSampler(os.getpid(), interval_s=0.25) as sampler:
        if not smoke:
            operation(setup()[0], sampler)  # warm-up: lazy imports, allocator growth
        begin = time.perf_counter()
        while not walls or time.perf_counter() - begin < seconds:
            if trace:
                untraced.append(operation(setup()[0], sampler)[0])
                with tracer:
                    tracer.unit = ("setup", len(setup_units))
                    setup_units.append(tracer.unit)
                    inputs, _elapsed = setup()
                    tracer.unit = ("op", len(op_units))
                    op_units.append(tracer.unit)
                    wall, cpu = operation(inputs, sampler)
            else:
                inputs, elapsed = setup()
                setup_s.append(elapsed)
                wall, cpu = operation(inputs, sampler)
            walls.append(wall)
            cpus.append(cpu)

    if expected is None and first_digest is not None:
        # No golden entry for this seed: check against the family's
        # independent engine path, outside the timed phase.
        outcome.notes.append(
            f"seed {seed} has no golden digest; checked against the "
            f"{workload.reference} reference path"
        )
        if reference_digest(workload, seed) != first_digest:
            outcome.failed += outcome.attempted
    if trace:
        if workload.config.get("n_jobs", 1) > 1:
            outcome.notes.append(
                "pool workers run in other processes: their spans are "
                "invisible here, so parent-side simulation layers read 0 "
                "and pool.evaluate_self_s holds the wait for workers"
            )
        outcome.metrics = layer_metrics(
            tracer, op_units, walls, setup_units, untraced, import_s,
            {
                "pool.degraded_events": metric(
                    degraded_events / outcome.attempted, "count"
                ),
                **{name: metric(0.0, unit) for name, unit in SERVE_LAYER_UNITS.items()},
            },
        )
    else:
        outcome.metrics = end_to_end(
            [1e3 * w for w in walls],
            len(walls) / sum(walls),
            statistics.median(cpus),
            sampler.peak_bytes,
            setup_s,
        )
    return outcome


# ----------------------------------------------------------------------
# The serve workload.
# ----------------------------------------------------------------------
#: Every fresh job has the same size; only its Procedure 2 base seed is
#: drawn, so the per-job cost barely depends on ``--seed``.
SERVE_JOB = dict(la=4, lb=8, n=4, max_iterations=3)


class JobStream:
    """Deterministic job configs: fresh ones, and resubmissions of them.

    Exactly three jobs in every ten of the mixed stream resubmit an
    earlier config (drawn uniformly), so the cache-hit share does not
    vary with the seed either.
    """

    def __init__(self, seed: int) -> None:
        self.rng = np.random.default_rng(seed)
        self.fresh: List[Dict[str, Any]] = []
        self.mixed = 0

    def next_fresh(self) -> Dict[str, Any]:
        config = dict(SERVE_JOB, base_seed=int(self.rng.integers(1, 2**31)))
        self.fresh.append(config)
        return config

    def next_mixed(self) -> Dict[str, Any]:
        self.mixed += 1
        if self.fresh and self.mixed % 10 in SERVE_RESUBMIT_SLOTS:
            return self.fresh[int(self.rng.integers(len(self.fresh)))]
        return self.next_fresh()


class Server:
    """One ``repro serve`` subprocess on a fresh data directory."""

    def __init__(self, data_dir: Path, work_dir: Path) -> None:
        self.data_dir = data_dir
        data_dir.mkdir(parents=True)
        start = time.perf_counter()
        self.log = open(data_dir.parent / f"{data_dir.name}.log", "wb")
        self.proc = subprocess.Popen(
            [
                sys.executable, "-m", "repro", "serve",
                "--data-dir", str(data_dir), "--port", "0", *SERVE_ARGS,
            ],
            env=dict(os.environ, PYTHONPATH=str(SRC), TMPDIR=str(work_dir)),
            stdout=self.log,
            stderr=subprocess.STDOUT,
        )
        try:
            self.client = self._wait_ready(timeout_s=60.0)
        except BaseException:
            self.stop()
            raise
        self.ready_s = time.perf_counter() - start

    def _wait_ready(self, timeout_s: float) -> ServeClient:
        port_file = self.data_dir / "serve.port"
        deadline = time.monotonic() + timeout_s
        while time.monotonic() < deadline:
            if self.proc.poll() is not None:
                raise RuntimeError(f"serve exited {self.proc.returncode}")
            try:
                text = port_file.read_text("utf-8").strip()
            except FileNotFoundError:
                text = ""
            if text:
                client = ServeClient(port=int(text), timeout_s=30.0)
                try:
                    if client.healthz()["status"] == "ok":
                        return client
                except (OSError, ServeError):
                    pass
            time.sleep(0.002)
        raise RuntimeError("serve did not become healthy")

    def stop(self) -> None:
        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGTERM)
            try:
                self.proc.wait(timeout=30)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.wait(timeout=30)
        self.log.close()


def _wait_terminal(
    client: ServeClient,
    job_ids: List[str],
    poll_s: float,
    health: Optional[List[Dict[str, Any]]] = None,
) -> Dict[str, Dict[str, Any]]:
    """Poll until every job is terminal; with ``health``, sample ``/healthz`` per poll."""
    deadline = time.monotonic() + 120.0
    wanted = set(job_ids)
    while True:
        if health is not None:
            health.append(client.healthz())
        jobs = {j["job_id"]: j for j in client.jobs() if j["job_id"] in wanted}
        if all(jobs[i]["state"] in TERMINAL_STATES for i in job_ids):
            return jobs
        if time.monotonic() > deadline:
            raise RuntimeError("served jobs did not finish")
        time.sleep(poll_s)


def _reference_result(circuit_bench: str, config: Dict[str, Any]) -> str:
    """The in-process result a served job must reproduce, canonical JSON."""
    circuit = bench_parser.parse_bench(circuit_bench, name="s27")
    bist = session.LimitedScanBist(
        circuit,
        config=BistConfig.from_dict({**BistConfig().to_dict(), **config}),
        target_faults=collapse.collapse_faults(circuit),
    )
    return json.dumps(result_to_dict(bist.run()), sort_keys=True)


def run_serve(
    seed: int,
    seconds: float,
    trace: bool,
    work_dir: Path,
    import_s: float,
    smoke: bool,
) -> RunOutcome:
    outcome = RunOutcome()
    bench = bench_parser.write_bench(catalog.load_circuit("s27"))
    stream = JobStream(seed)
    # (job id or None if refused, config, scheduled wall time or None)
    submitted: List[Tuple[Optional[str], Dict[str, Any], Optional[float]]] = []
    submit_ms: List[float] = []

    def submit(client: ServeClient, config: Dict[str, Any], due: Optional[float]) -> None:
        outcome.attempted += 1
        start = time.perf_counter()
        try:
            job = client.submit(bench, name="s27", config=config)
        except ServeError as exc:
            print(f"submission refused: {exc}", file=sys.stderr)
            submitted.append((None, config, due))
            return
        submit_ms.append(1e3 * (time.perf_counter() - start))
        submitted.append((job["job_id"], config, due))

    setup_s: List[float] = []

    def start_stop(count: int) -> None:
        for _ in range(count):
            probe = Server(work_dir / f"serve-setup-{len(setup_s)}", work_dir)
            setup_s.append(probe.ready_s)
            probe.stop()

    # Set-up samples come from either side of the traffic, so one slow
    # moment of the host cannot decide their median.
    extra = 0 if smoke else SERVE_SETUP_REPS // 2
    start_stop(extra)
    server = Server(work_dir / "serve", work_dir)
    setup_s.append(server.ready_s)
    try:
        client = server.client

        for _ in range(SERVE_WARMUP_JOBS):
            submit(client, stream.next_fresh(), None)
        _wait_terminal(client, [s[0] for s in submitted if s[0]], poll_s=0.05)
        warm = len(submitted)

        n_open = max(1, round(SERVE_RATE_PER_S * SERVE_OPEN_FRACTION * seconds))
        n_burst = 2 * n_open
        health: List[Dict[str, Any]] = []
        status_ms: List[float] = []
        lag_ms: List[float] = []
        with RssSampler(server.proc.pid, interval_s=0.05) as sampler:
            cpu0 = tree_cpu_s(server.proc.pid)
            wall0, mono0 = time.time(), time.monotonic()
            last_probe = mono0
            for i in range(n_open):
                due = mono0 + i / SERVE_RATE_PER_S
                now = time.monotonic()
                if trace and now - last_probe >= 1.0 and due - now > 0.02:
                    # 1 Hz gauges, taken only in slack before a send.
                    last_probe = now
                    health.append(client.healthz())
                    latest = next((s[0] for s in reversed(submitted) if s[0]), None)
                    if latest is not None:
                        start = time.perf_counter()
                        client.status(latest)
                        status_ms.append(1e3 * (time.perf_counter() - start))
                    now = time.monotonic()
                if due > now:
                    time.sleep(due - now)
                lag_ms.append(1e3 * max(0.0, time.monotonic() - due))
                submit(client, stream.next_mixed(), wall0 + i / SERVE_RATE_PER_S)
            open_ids = [s[0] for s in submitted[warm:] if s[0]]
            jobs = _wait_terminal(client, open_ids, poll_s=0.25)

            burst_start = time.time()
            first_burst = len(submitted)
            for _ in range(n_burst):
                submit(client, stream.next_fresh(), None)
            burst_ids = [s[0] for s in submitted[first_burst:] if s[0]]
            # The burst is where the queue fills: its gauges are sampled
            # at every poll.
            jobs.update(_wait_terminal(
                client, burst_ids, poll_s=0.2, health=health if trace else None
            ))
            cpu = tree_cpu_s(server.proc.pid) - cpu0
        if trace:
            health.append(client.healthz())
        served: Dict[str, str] = {}
        for job_id, _config, _due in submitted:
            if job_id is not None:
                served[job_id] = json.dumps(
                    client.result(job_id).get("result"), sort_keys=True
                )
        states = {j["job_id"]: j for j in client.jobs()}
    finally:
        server.stop()
    start_stop(extra)

    # Correctness, outside the timed phase: every job must be done and
    # equal to an in-process run of its submission.
    tracer = Tracer()
    references: Dict[str, str] = {}
    op_units: List[Hashable] = []
    op_walls: List[float] = []
    untraced: List[float] = []
    for job_id, config, _due in submitted:
        key = json.dumps(config, sort_keys=True)
        if key not in references:
            if trace and len(untraced) < SERVE_REFERENCE_PAIRS:
                start = time.perf_counter()
                _reference_result(bench, config)
                untraced.append(time.perf_counter() - start)
            if trace:
                tracer.unit = ("op", len(op_units))
                op_units.append(tracer.unit)
                tracer.install()
            start = time.perf_counter()
            try:
                references[key] = _reference_result(bench, config)
            finally:
                if trace:
                    op_walls.append(time.perf_counter() - start)
                    tracer.restore()
        if (
            job_id is None
            or states[job_id]["state"] != "done"
            or served[job_id] != references[key]
        ):
            outcome.failed += 1

    open_jobs = [
        (jobs[job_id], due) for job_id, _c, due in submitted[warm:first_burst]
        if job_id is not None
    ]
    latencies = [1e3 * (job["finished_at"] - due) for job, due in open_jobs]
    if not latencies:
        latencies = [0.0]
    burst_done = [jobs[i]["finished_at"] for i in burst_ids]
    capacity = (
        len(burst_done) / (max(burst_done) - burst_start) if burst_done else 0.0
    )
    measured_jobs = max(1, len(open_jobs) + len(burst_done))
    if trace:
        fresh = [lat for (job, _d), lat in zip(open_jobs, latencies) if not job["cached"]]
        cached = [lat for (job, _d), lat in zip(open_jobs, latencies) if job["cached"]]
        final = health[-1]
        hits = final["result_cache"]["hits"]
        lookups = hits + final["result_cache"]["misses"]
        serve_layer = {
            "serve.latency_p90_ms": (
                statistics.quantiles(latencies, n=10, method="inclusive")[-1]
                if len(latencies) > 1 else latencies[0]
            ),
            "serve.submit_ms_p50": statistics.median(submit_ms),
            "serve.status_ms_p50": statistics.median(status_ms) if status_ms else 0.0,
            "serve.fresh_latency_ms_p50": statistics.median(fresh) if fresh else 0.0,
            "serve.cached_latency_ms_p50": statistics.median(cached) if cached else 0.0,
            "serve.generator_lag_ms_max": max(lag_ms),
            "serve.cache_hit_ratio": hits / lookups if lookups else 0.0,
            "serve.jobs_simulated": final["jobs_simulated"],
            "serve.queue_depth_max": max(h["queue"]["depth"] for h in health),
            "serve.journal_records": final["journal"]["records"],
        }
        outcome.metrics = layer_metrics(
            tracer, op_units, op_walls, [], untraced, import_s,
            {
                "pool.degraded_events": metric(0.0, "count"),
                **{
                    name: metric(serve_layer[name], unit)
                    for name, unit in SERVE_LAYER_UNITS.items()
                },
            },
        )
        outcome.notes.append(
            "serve: engine layers are traced on the in-process reference "
            "runs after the timed phase; job children run in other processes"
        )
    else:
        outcome.metrics = end_to_end(
            latencies, capacity, cpu / measured_jobs, sampler.peak_bytes, setup_s
        )
    return outcome


def run_workload(
    name: str,
    seed: int,
    seconds: float,
    trace: bool,
    golden: Dict[str, Any],
    work_dir: Path,
    import_s: float,
    smoke: bool = False,
) -> RunOutcome:
    if name == SERVE_WORKLOAD:
        return run_serve(seed, seconds, trace, work_dir, import_s, smoke)
    return run_p2(
        P2_WORKLOADS[name], seed, seconds, trace, golden, work_dir, import_s, smoke
    )


def provenance(seed: int, seconds: float) -> Dict[str, Any]:
    """Host and code identity recorded with every run."""
    return {
        "available_cpu_count": available_cpu_count(),
        "nproc": len(os.sched_getaffinity(0)),
        "os_cpu_count": os.cpu_count(),
        "python": ".".join(map(str, sys.version_info[:3])),
        "numpy": np.__version__,
        "git_revision": git_revision(),
        "seed": seed,
        "seconds": seconds,
    }


def git_revision() -> str:
    """HEAD of the checkout, read from ``.git`` (``unknown`` outside git)."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text("utf-8").strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text("utf-8").strip()
        for line in (git / "packed-refs").read_text("utf-8").splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"
