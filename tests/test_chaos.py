"""Deterministic fault injection through a whole Procedure 2 run.

Every recovery path of the persistent worker pool -- worker crash, hung
worker, corrupted shard payload, ordinary task exception, retry
exhaustion -- is forced on demand with a :class:`ChaosPlan` in the middle
of a pooled ``run_procedure2``, which must still end in a result
byte-identical to the clean serial run plus a structured
:class:`DegradationReport` describing what happened.  Evaluator-level
injection lives in ``tests/test_pool_robustness.py``.

All tests here are marked ``chaos`` (run with ``-m chaos``); they fork
real worker processes and some deliberately kill them.
"""

import dataclasses
import functools
import json

import pytest

from repro.bench_circuits.synthetic import SyntheticSpec, synthesize
from repro.core import procedure2
from repro.core.config import BistConfig
from repro.core.procedure2 import run_procedure2
from repro.experiments.serialize import result_to_dict
from repro.faults.collapse import collapse_faults
from repro.faults.pool import CandidateEvaluator, _valid_rows
from repro.robustness.chaos import ChaosError, ChaosPlan, execute_injected
from repro.robustness.degradation import DegradationReport, ShardEvent

pytestmark = pytest.mark.chaos

#: Forces several iterations on mini208 while staying sub-second serial.
CONFIG = BistConfig(la=2, lb=4, n=2, n_same_fc=2, max_iterations=3)


@pytest.fixture(scope="module")
def rig():
    """Circuit with > 128 faults (real multi-shard runs), plus the clean
    serial result blob."""
    circuit = synthesize(
        SyntheticSpec(name="mini208", n_pi=10, n_po=1, n_ff=8, n_gates=96,
                      seed=5)
    )
    faults = collapse_faults(circuit)
    assert len(faults) > 128  # >= 3 words: at least 3 real shards
    clean = run_procedure2(circuit, CONFIG, faults)
    assert clean.degradation is None
    return circuit, faults, json.dumps(result_to_dict(clean))


def chaos_run(rig, monkeypatch, chaos, **knobs):
    """Pooled Procedure 2 under ``chaos``; returns (blob, degradation).

    Dispatches are forced to three shards regardless of host cores.
    ``knobs`` are execution knobs of the config (``shard_timeout``,
    ``shard_retries``).
    """
    circuit, faults, _clean = rig
    monkeypatch.setattr(
        procedure2,
        "CandidateEvaluator",
        functools.partial(CandidateEvaluator, chaos=chaos, shards=3),
    )
    config = dataclasses.replace(CONFIG, n_jobs=2, **knobs)
    result = run_procedure2(circuit, config, faults)
    assert "degradation" not in result_to_dict(result)
    return json.dumps(result_to_dict(result)), result.degradation


class TestChaosPlan:
    def test_action_precedence_and_gating(self):
        plan = ChaosPlan(
            crash_shards=(0,), hang_shards=(0, 1), corrupt_shards=(1, 2),
            error_shards=(3,), dispatches=(0, 2), fire_attempts=2,
        )
        assert plan.action(0, 0, 0) == "crash"   # crash beats hang
        assert plan.action(0, 1, 0) == "hang"    # hang beats corrupt
        assert plan.action(0, 2, 0) == "corrupt"
        assert plan.action(0, 3, 0) == "error"
        assert plan.action(0, 4, 0) is None      # un-named shard
        assert plan.action(1, 0, 0) is None      # dispatch not in plan
        assert plan.action(2, 0, 1) == "crash"   # attempt 1 < fire_attempts
        assert plan.action(2, 0, 2) is None      # attempts exhausted

    def test_default_plan_is_every_dispatch_once(self):
        plan = ChaosPlan(error_shards=(1,))
        assert plan.action(7, 1, 0) == "error"
        assert plan.action(7, 1, 1) is None

    def test_execute_injected_error_and_corrupt(self):
        with pytest.raises(ChaosError):
            execute_injected("error", 0.0, lambda: [[]])
        real = [[(0, 0, 1, 2, "po")], [(1, 0, 0, 3, "scan-out")]]
        corrupted = execute_injected("corrupt", 0.0, lambda: real)
        # The real rows survive; one more names fault position -1.
        assert corrupted == [real[0] + [(-1, 0, 0, 0, "po")], real[1]]
        assert _valid_rows(real, 2, 2)
        assert not _valid_rows(corrupted, 2, 2)
        assert execute_injected(None, 0.0, lambda: real) is real


#: A well-formed shard payload: two candidates against a 3-fault shard.
GOOD_ROWS = [[(0, 0, 1, 2, "po"), (2, 1, 0, 3, "scan-out")], []]


class TestValidRows:
    """The parent's check of a worker's rows, one defect at a time."""

    def test_accepts_well_formed(self):
        assert _valid_rows(GOOD_ROWS, 2, 3)

    @pytest.mark.parametrize(
        "payload",
        [
            pytest.param([GOOD_ROWS[0]], id="candidate-count"),
            pytest.param([GOOD_ROWS[0], ()], id="non-list-candidate"),
            pytest.param([[(0, 0, 1, 2)], []], id="four-tuple-row"),
            pytest.param([[(-1, 0, 1, 2, "po")], []], id="position-minus-one"),
            pytest.param([[(3, 0, 1, 2, "po")], []], id="position-shard-size"),
            pytest.param([[(0, 0.0, 1, 2, "po")], []], id="non-int-rank"),
            pytest.param([[(0, 0, "1", 2, "po")], []], id="non-int-test"),
            pytest.param([[(0, 0, 1, None, "po")], []], id="non-int-time"),
            pytest.param([[(0, 0, 1, 2, "chaos")], []], id="unknown-where"),
        ],
    )
    def test_rejects(self, payload):
        assert not _valid_rows(payload, 2, 3)


class TestShardRecovery:
    def test_worker_crash_recovers(self, rig, monkeypatch):
        chaos = ChaosPlan(crash_shards=(0,), dispatches=(1,))
        blob, report = chaos_run(rig, monkeypatch, chaos)
        assert blob == rig[2]
        assert any(e.kind == "crash" for e in report.events)
        assert report.pool_respawns >= 1
        # The retried shard succeeded in the pool; nothing went serial.
        assert all(e.action == "retry" for e in report.events)

    def test_hung_worker_times_out_and_recovers(self, rig, monkeypatch):
        chaos = ChaosPlan(hang_shards=(1,), hang_seconds=60.0, dispatches=(1,))
        blob, report = chaos_run(rig, monkeypatch, chaos, shard_timeout=1.0)
        assert blob == rig[2]
        assert any(e.kind == "timeout" for e in report.events)
        assert report.pool_respawns >= 1

    def test_corrupted_shard_is_rejected_and_retried(self, rig, monkeypatch):
        chaos = ChaosPlan(corrupt_shards=(1,), dispatches=(2,))
        blob, report = chaos_run(rig, monkeypatch, chaos)
        assert blob == rig[2]
        # Corruption never kills the pool: exactly one clean retry event.
        assert [(e.kind, e.action) for e in report.events] == [
            ("invalid-result", "retry")
        ]
        assert report.pool_respawns == 0

    def test_task_error_is_retried(self, rig, monkeypatch):
        chaos = ChaosPlan(error_shards=(0, 2), dispatches=(3,))
        blob, report = chaos_run(rig, monkeypatch, chaos)
        assert blob == rig[2]
        assert sorted((e.shard, e.kind, e.action) for e in report.events) == [
            (0, "error", "retry"),
            (2, "error", "retry"),
        ]

    def test_retry_exhaustion_falls_back_to_serial_shard(
        self, rig, monkeypatch
    ):
        # Fires on every attempt; one parallel retry allowed, then the
        # shard must be rescued serially in the parent.
        chaos = ChaosPlan(error_shards=(1,), dispatches=(0,), fire_attempts=99)
        blob, report = chaos_run(rig, monkeypatch, chaos, shard_retries=1)
        assert blob == rig[2]
        assert [(e.attempt, e.kind, e.action) for e in report.events] == [
            (0, "error", "retry"),
            (1, "error", "serial"),
        ]

    def test_chaos_run_is_reproducible(self, rig, monkeypatch):
        chaos = ChaosPlan(corrupt_shards=(0,), error_shards=(2,),
                          dispatches=(0, 4))
        first = chaos_run(rig, monkeypatch, chaos)
        second = chaos_run(rig, monkeypatch, chaos)
        assert first[0] == second[0] == rig[2]
        assert first[1].to_dict() == second[1].to_dict()


class TestProcedure2UnderChaos:
    def test_result_byte_identical_and_degradation_attached(
        self, rig, monkeypatch
    ):
        # Every dispatch of the run loses a shard once.
        chaos = ChaosPlan(error_shards=(0,))
        blob, report = chaos_run(rig, monkeypatch, chaos)
        assert report is not None and report.degraded
        # The serialized result is execution-independent: no degradation
        # key, and byte-identical to the clean serial run.
        assert blob == rig[2]


class TestDegradationReport:
    def test_report_structure(self):
        report = DegradationReport()
        assert not report.degraded
        assert report.summary() == "no degradation"
        report.record(0, 1, 0, "crash", "retry", "boom")
        report.record(0, 1, 1, "crash", "serial")
        report.pool_respawns = 2
        assert report.degraded
        assert report.counts() == {
            ("crash", "retry"): 1, ("crash", "serial"): 1
        }
        data = report.to_dict()
        assert data["degraded"] and data["pool_respawns"] == 2
        assert data["events"][0] == {
            "dispatch": 0, "shard": 1, "attempt": 0,
            "kind": "crash", "action": "retry", "detail": "boom",
        }
        assert "crash -> serial" in report.render()
        assert "2 pool respawn(s)" in report.summary()

    def test_events_are_immutable(self):
        event = ShardEvent(0, 0, 0, "timeout", "retry")
        with pytest.raises(AttributeError):
            event.kind = "crash"
