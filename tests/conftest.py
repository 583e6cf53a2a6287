"""Shared fixtures for the test suite."""

from __future__ import annotations

import functools
import multiprocessing
import time
import types
from concurrent.futures import process as futures_process

import pytest

from repro.bench_circuits.s27 import s27_circuit
from repro.bench_circuits.synthetic import SyntheticSpec, synthesize
from repro.circuit.library import GateType
from repro.circuit.netlist import Circuit
from repro.core import procedure2
from repro.faults.model import FaultGraph
from repro.faults.pool import CandidateEvaluator, PersistentWorkerPool

#: Seconds a test's terminated pool workers get to exit: ``close()``
#: does not wait for them.
WORKER_EXIT_TIMEOUT_S = 10.0


def _pool_workers() -> set:
    """Pids of this process's live executor workers (the pool's).

    Other children -- the job processes of a ``repro serve`` fixture, for
    one -- run a different target and do not count.
    """
    return {
        proc.pid
        for proc in multiprocessing.active_children()
        if getattr(proc, "_target", None) is futures_process._process_worker
    }


@pytest.fixture(autouse=True)
def no_leaked_pool_workers():
    """Every test must stop the worker processes it started.

    A pool worker that outlives its test means a missing ``close()`` on
    some path (including crash recovery), which would leak processes
    across Procedure 2 sessions.  Workers that already existed before
    the test are tolerated, but new ones are not.
    """
    before = _pool_workers()
    yield
    deadline = time.monotonic() + WORKER_EXIT_TIMEOUT_S
    leaked = _pool_workers() - before
    while leaked and time.monotonic() < deadline:
        time.sleep(0.02)
        leaked = _pool_workers() - before
    assert not leaked, f"leaked worker-pool processes: {sorted(leaked)}"


@pytest.fixture
def pool_submits(monkeypatch):
    """Counts shard submissions to pool workers (``.count``).

    A pool test asserts a count above zero, so that it cannot pass by
    scoring everything in the parent.
    """
    counter = types.SimpleNamespace(count=0)
    submit = PersistentWorkerPool.submit

    def counting(self, *args, **kwargs):
        counter.count += 1
        return submit(self, *args, **kwargs)

    monkeypatch.setattr(PersistentWorkerPool, "submit", counting)
    return counter


@pytest.fixture
def two_shards(monkeypatch):
    """Procedure 2 splits every dispatch it can into two pool shards.

    Without it a small test circuit's dispatches are too small to pay
    for a worker round trip, and they run in the parent.
    """
    monkeypatch.setattr(
        procedure2,
        "CandidateEvaluator",
        functools.partial(CandidateEvaluator, shards=2),
    )


@pytest.fixture
def s27():
    return s27_circuit()


@pytest.fixture
def s27_graph(s27):
    return FaultGraph(s27)


@pytest.fixture
def tiny_synth():
    """A small deterministic synthetic circuit (fast in every test)."""
    return synthesize(
        SyntheticSpec(name="tiny", n_pi=4, n_po=2, n_ff=3, n_gates=24, seed=11)
    )


@pytest.fixture
def medium_synth():
    """s208-shaped synthetic circuit."""
    return synthesize(
        SyntheticSpec(name="mini208", n_pi=10, n_po=1, n_ff=8, n_gates=96, seed=5)
    )


def build_mux_circuit() -> Circuit:
    """A hand-built 2:1 mux with a flop: known truth table for oracles.

    out = (a AND sel) OR (b AND NOT sel); flop captures out.
    """
    c = Circuit("mux")
    for name in ("a", "b", "sel"):
        c.add_input(name)
    c.add_output("out")
    c.add_gate("nsel", GateType.NOT, ["sel"])
    c.add_gate("t1", GateType.AND, ["a", "sel"])
    c.add_gate("t2", GateType.AND, ["b", "nsel"])
    c.add_gate("out", GateType.OR, ["t1", "t2"])
    c.add_flop("q0", "out")
    return c


@pytest.fixture
def mux_circuit():
    return build_mux_circuit()
