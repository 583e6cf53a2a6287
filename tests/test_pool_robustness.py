"""Chaos injection against the persistent worker pool.

The persistent pool must survive every failure mode of a worker --
crash, hang, corrupted payload, task error, retry exhaustion, an
unusable pool -- with shard-granular
recovery and a final result identical to the serial run.  On top of
that its worker processes must end with the evaluator, and respawn
with the session after every one of them is SIGKILLed.

All tests are marked ``chaos`` (run with ``-m chaos``).
"""

from __future__ import annotations

import os
import signal
import time

import pytest

from repro.bench_circuits.synthetic import SyntheticSpec, synthesize
from repro.core.config import BistConfig
from repro.core.limited_scan import build_limited_scan_test_set
from repro.core.test_set import generate_ts0
from repro.faults.collapse import collapse_faults
from repro.faults.fault_sim import FaultSimulator
from repro.faults.pool import CandidateEvaluator
from repro.faults.sharding import RecoveryPolicy
from repro.robustness.chaos import ChaosPlan

pytestmark = pytest.mark.chaos

#: No backoff sleeps and no timeout: chaos tests should be fast.
FAST = dict(shard_timeout=None, max_retries=2, backoff_base=0.0)


@pytest.fixture(scope="module")
def rig():
    """Circuit with > 128 faults (real multi-shard dispatches)."""
    circuit = synthesize(
        SyntheticSpec(name="mini208", n_pi=10, n_po=1, n_ff=8, n_gates=96,
                      seed=5)
    )
    cfg = BistConfig(la=4, lb=8, n=4, candidate_batch=4, n_jobs=2)
    sim = FaultSimulator(circuit)
    faults = collapse_faults(circuit)
    assert len(faults) > 128  # >= 3 words: at least 3 real shards
    ts0 = generate_ts0(circuit, cfg)
    n_sv = circuit.num_state_vars
    specs = [(1, d1) for d1 in cfg.d1_values[:4]]
    serial = {}
    for spec in specs:
        tests = build_limited_scan_test_set(ts0, spec[0], spec[1], cfg, n_sv)
        serial[spec] = list(sim.simulate_grouped(tests, faults).items())
    return circuit, cfg, sim, ts0, faults, specs, serial


def make_evaluator(rig, chaos=None, recovery=None, shards=3):
    circuit, cfg, sim, ts0, faults, _specs, _serial = rig
    return CandidateEvaluator(
        sim, ts0, cfg, circuit.num_state_vars, None,
        n_jobs=2, targets=faults,
        recovery=recovery or RecoveryPolicy(**FAST),
        chaos=chaos, shards=shards,
    )


def assert_identical(rig, evaluator):
    """Evaluate all specs through ``evaluator``; compare against serial."""
    _c, _cfg, _sim, _ts0, faults, specs, serial = rig
    tables = evaluator.evaluate_specs(specs, faults)
    for spec, table in zip(specs, tables):
        assert list(table.hits_for(faults).items()) == serial[spec], (
            f"spec {spec} diverged from the serial result"
        )


class TestShardRecovery:
    def test_worker_crash_recovers(self, rig):
        with make_evaluator(rig, chaos=ChaosPlan(crash_shards=(0,))) as ev:
            assert_identical(rig, ev)
            kinds = {e.kind for e in ev.degradation.events}
            assert "crash" in kinds
            assert ev.degradation.pool_respawns >= 1
            # The retried shard succeeded in the pool; nothing went serial.
            assert all(e.action == "retry" for e in ev.degradation.events)

    def test_hung_worker_times_out_and_recovers(self, rig):
        recovery = RecoveryPolicy(
            shard_timeout=1.5, max_retries=2, backoff_base=0.0
        )
        chaos = ChaosPlan(hang_shards=(1,), hang_seconds=60.0)
        with make_evaluator(rig, chaos=chaos, recovery=recovery) as ev:
            assert_identical(rig, ev)
            assert "timeout" in {e.kind for e in ev.degradation.events}
            assert ev.degradation.pool_respawns >= 1

    def test_corrupted_payload_is_rejected_and_retried(self, rig):
        with make_evaluator(rig, chaos=ChaosPlan(corrupt_shards=(1,))) as ev:
            assert_identical(rig, ev)
            assert "invalid-result" in {e.kind for e in ev.degradation.events}

    def test_task_error_is_retried(self, rig):
        with make_evaluator(rig, chaos=ChaosPlan(error_shards=(0, 2))) as ev:
            assert_identical(rig, ev)
            assert "error" in {e.kind for e in ev.degradation.events}

    def test_retry_exhaustion_falls_back_to_serial_shard(self, rig):
        chaos = ChaosPlan(error_shards=(1,), fire_attempts=99)
        with make_evaluator(rig, chaos=chaos) as ev:
            assert_identical(rig, ev)
            assert ev.degradation.degraded
            rescued = [
                e for e in ev.degradation.events if e.action == "serial"
            ]
            assert rescued and all(e.shard == 1 for e in rescued)

    def test_pool_unavailable_rescues_everything(self, rig, monkeypatch):
        ev = make_evaluator(rig)
        monkeypatch.setattr(
            ev, "_make_pool",
            lambda: (_ for _ in ()).throw(OSError("no forks today")),
        )
        with ev:
            assert_identical(rig, ev)
            assert ev._pool_unavailable
            assert ev.degradation.degraded
            assert {e.kind for e in ev.degradation.events} == {
                "pool-unavailable"
            }
            # Later windows stay in-process: no further pool attempts,
            # results still serial-identical.
            assert_identical(rig, ev)


def worker_processes(evaluator):
    """The live worker processes of ``evaluator``'s pool."""
    return list(evaluator._pool._executor._processes.values())


class TestWorkerLifecycle:
    def test_workers_gone_after_close(self, rig, pool_submits):
        ev = make_evaluator(rig)
        assert_identical(rig, ev)
        assert pool_submits.count > 0
        procs = worker_processes(ev)
        assert procs, "pool should have live workers after a dispatch"
        ev.close()
        assert ev._pool is None
        for proc in procs:
            proc.join(timeout=10)
            # The executor's own thread joins these workers too.  One it
            # has just reaped reads as alive until that thread records
            # the exit status, so give it a moment before judging.
            deadline = time.monotonic() + 1.0
            while proc.is_alive() and time.monotonic() < deadline:
                time.sleep(0.01)
            assert not proc.is_alive()

    def test_respawn_after_sigkilled_workers_is_exact(self, rig):
        """SIGKILL on every worker: the respawned workers are exact."""
        ev = make_evaluator(rig)
        assert_identical(rig, ev)
        killed = {proc.pid for proc in worker_processes(ev)}
        assert killed, "pool should have live workers after a dispatch"
        for pid in killed:
            os.kill(pid, signal.SIGKILL)
        # The evaluator recovers: fresh workers fork and inherit the
        # session again, and the result is still exact.
        assert_identical(rig, ev)
        assert ev.degradation.pool_respawns >= 1
        fresh = {proc.pid for proc in worker_processes(ev)}
        assert fresh and fresh.isdisjoint(killed)
        ev.close()

    def test_kill_then_dispatch_respawns(self, rig):
        ev = make_evaluator(rig)
        assert_identical(rig, ev)
        first = {proc.pid for proc in worker_processes(ev)}
        ev._pool.kill()
        assert ev._pool._executor is None
        assert_identical(rig, ev)
        second = {proc.pid for proc in worker_processes(ev)}
        assert second and second.isdisjoint(first)
        ev.close()


class TestChaosDeterminism:
    def test_chaos_run_is_reproducible(self, rig):
        chaos = ChaosPlan(corrupt_shards=(0,), error_shards=(2,))
        reports = []
        for _ in range(2):
            with make_evaluator(rig, chaos=chaos) as ev:
                assert_identical(rig, ev)
                reports.append(
                    [(e.dispatch, e.shard, e.attempt, e.kind, e.action)
                     for e in ev.degradation.events]
                )
        assert reports[0] == reports[1]
