"""The persistent pool's fault-sharded dispatch.

Covers the sharding helpers, bit-exact equivalence of multi-shard pool
dispatches with serial ``simulate_grouped`` (and of sharded PPSFP with
serial PPSFP), graceful degradation to
in-process evaluation, the publish-once discipline, and the
n_jobs=1-vs-4 determinism regression on Procedure 2 (byte-identical
serialized results).
"""

import dataclasses
import json
import pickle
import warnings

import numpy as np
import pytest

from repro.bench_circuits.synthetic import SyntheticSpec, synthesize
from repro.core.config import BistConfig
from repro.core.limited_scan import build_limited_scan_test_set
from repro.core.procedure2 import run_procedure2
from repro.core.test_set import generate_ts0
from repro.experiments.serialize import result_to_dict
from repro.faults import pool as pool_mod
from repro.faults.collapse import collapse_faults
from repro.faults.fault_sim import FaultSimulator, ObservationPolicy
from repro.faults.model import FaultGraph
from repro.faults.pool import CandidateEvaluator
from repro.faults.ppsfp import CombinationalFaultSimulator, pack_patterns
from repro.faults.sharding import resolve_n_jobs, shard_faults
from repro.rpg.prng import make_source
from repro.simulation.compiled import shard_word_ranges

#: Small TS0 shape shared by the pool cases below.
CFG = BistConfig(la=4, lb=8, n=4)


def make_evaluator(circuit, faults, policy=None, n_jobs=2, shards=3):
    """A pool evaluator forced to multi-shard dispatches on any host."""
    ts0 = generate_ts0(circuit, CFG)
    return CandidateEvaluator(
        FaultSimulator(circuit), ts0, CFG, circuit.num_state_vars, policy,
        n_jobs=n_jobs, targets=faults, circuit_name=circuit.name,
        shards=shards,
    )


def serial_hits(circuit, spec, faults, policy=None):
    """The serial ``simulate_grouped`` result for one candidate spec."""
    ts0 = generate_ts0(circuit, CFG)
    tests = (
        ts0 if spec[1] is None
        else build_limited_scan_test_set(
            ts0, spec[0], spec[1], CFG, circuit.num_state_vars
        )
    )
    return FaultSimulator(circuit).simulate_grouped(tests, faults, policy)


SPECS = [(0, None), (1, 1), (1, 2)]


class TestShardHelpers:
    def test_word_ranges_cover_and_balance(self):
        ranges = shard_word_ranges(10, 3)
        assert ranges == [(0, 4), (4, 7), (7, 10)]
        assert shard_word_ranges(2, 5) == [(0, 1), (1, 2)]
        assert shard_word_ranges(0, 4) == []
        assert shard_word_ranges(7, 1) == [(0, 7)]

    def test_word_ranges_validate(self):
        with pytest.raises(ValueError):
            shard_word_ranges(-1, 2)
        with pytest.raises(ValueError):
            shard_word_ranges(4, 0)

    def test_shard_faults_word_aligned(self, s27):
        faults = collapse_faults(s27) * 5  # 160 faults -> 3 words
        shards = shard_faults(faults, 2)
        assert [f for s in shards for f in s] == list(faults)
        assert all(len(s) % 64 == 0 for s in shards[:-1])

    def test_shard_faults_fewer_than_requested(self, s27):
        faults = collapse_faults(s27)  # 32 faults = one word
        assert len(shard_faults(faults, 8)) == 1

    def test_resolve_n_jobs(self):
        assert resolve_n_jobs(None) == 1
        assert resolve_n_jobs(1) == 1
        assert resolve_n_jobs(3) == 3
        assert resolve_n_jobs(-1) >= 1
        with pytest.raises(ValueError):
            resolve_n_jobs(0)
        with pytest.raises(ValueError):
            resolve_n_jobs(-2)

    def test_config_validates_n_jobs(self):
        assert BistConfig(n_jobs=4).n_jobs == 4
        assert BistConfig(n_jobs=-1).n_jobs == -1
        with pytest.raises(ValueError):
            BistConfig(n_jobs=0)

    def test_with_lengths_keeps_n_jobs(self):
        cfg = BistConfig(n_jobs=4).with_lengths(8, 32, 16)
        assert cfg.n_jobs == 4


class TestShardedEquivalence:
    def test_simulate_records_identical(self, medium_synth):
        faults = collapse_faults(medium_synth)
        assert len(faults) > 128  # three real shards
        with make_evaluator(medium_synth, faults) as ev:
            tables = ev.evaluate_specs(SPECS, faults)
        for spec, table in zip(SPECS, tables):
            serial = serial_hits(medium_synth, spec, faults)
            hits = table.hits_for(faults)
            # Content, insertion order and aliasing all match.
            assert list(hits.items()) == list(serial.items())
            assert pickle.dumps(hits) == pickle.dumps(serial)

    def test_simulate_grouped_sets_identical(self, medium_synth):
        # A table scored against the dispatch-time list answers for any
        # later, smaller remaining list exactly like a fresh serial call.
        faults = collapse_faults(medium_synth)
        shrunk = faults[::3]
        with make_evaluator(medium_synth, faults) as ev:
            tables = ev.evaluate_specs(SPECS, faults)
        for spec, table in zip(SPECS, tables):
            assert list(table.hits_for(shrunk).items()) == list(
                serial_hits(medium_synth, spec, shrunk).items()
            )

    def test_restricted_policy(self, medium_synth):
        faults = collapse_faults(medium_synth)
        for policy in (
            ObservationPolicy(limited_scan_out=False),
            ObservationPolicy(primary_outputs=False, state_taps=[0, 7]),
        ):
            with make_evaluator(medium_synth, faults, policy) as ev:
                tables = ev.evaluate_specs(SPECS, faults)
            for spec, table in zip(SPECS, tables):
                assert table.hits_for(faults) == serial_hits(
                    medium_synth, spec, faults, policy
                )

    def test_n_jobs_1_bypasses_pool(self, medium_synth):
        faults = collapse_faults(medium_synth)
        with make_evaluator(medium_synth, faults, n_jobs=1) as ev:
            tables = ev.evaluate_specs(SPECS, faults)
            assert ev._pool is None
        for spec, table in zip(SPECS, tables):
            assert table.hits_for(faults) == serial_hits(
                medium_synth, spec, faults
            )

    def test_detected_by_universe_order(self, s27):
        # The pooled TS0 table detects exactly what the per-test path
        # does; in universe order the two lists are equal.
        faults = collapse_faults(s27)
        with make_evaluator(s27, faults, shards=1) as ev:
            hits = ev.evaluate_ts0(faults).hits_for(faults)
        pooled = [f for f in faults if f in hits]
        assert pooled == FaultSimulator(s27).detected_by(
            generate_ts0(s27, CFG), faults
        )


class TestGracefulDegradation:
    def test_pool_failure_falls_back_to_serial(self, medium_synth, monkeypatch):
        faults = collapse_faults(medium_synth)
        ev = make_evaluator(medium_synth, faults)
        monkeypatch.setattr(
            ev, "_make_pool",
            lambda: (_ for _ in ()).throw(OSError("fork failed")),
        )
        with ev:
            with warnings.catch_warnings():
                warnings.simplefilter("error")  # structured, not a warning
                tables = ev.evaluate_specs(SPECS, faults)
            for spec, table in zip(SPECS, tables):
                assert table.hits_for(faults) == serial_hits(
                    medium_synth, spec, faults
                )
            # One pool-unavailable event per pending shard, resolved
            # serially.
            events = ev.degradation.events
            assert {(e.kind, e.action) for e in events} == {
                ("pool-unavailable", "serial")
            }
            assert len(events) == 3
            # After a pool-level failure the evaluator stays in-process,
            # without growing the report further.
            ev.evaluate_specs(SPECS, faults)
            assert len(ev.degradation.events) == 3


class TestPpsfpSharded:
    def test_same_hits_same_order(self, s27):
        # Faults are independent in the parallel-fault model: PPSFP over
        # word-aligned shards, concatenated, is the serial result.
        graph = FaultGraph(s27)
        csim = CombinationalFaultSimulator(graph)
        faults = collapse_faults(s27) * 3  # 96 faults -> two words
        src = make_source(9)
        patterns = np.array(
            [src.bits(csim.num_inputs) for _ in range(64)], dtype=np.uint8
        )
        words = pack_patterns(patterns)
        serial = csim.detected(words, faults)
        shards = shard_faults(faults, 2)
        assert len(shards) == 2
        merged = [f for shard in shards for f in csim.detected(words, shard)]
        assert merged == serial


class TestProcedure2Determinism:
    """Same seed => byte-identical serialized results for n_jobs 1 vs 4."""

    CFG = BistConfig(la=4, lb=8, n=16, n_same_fc=2, max_iterations=6)

    def _serialized(self, circuit, cfg):
        result = run_procedure2(circuit, cfg, collapse_faults(circuit))
        return json.dumps(result_to_dict(result), sort_keys=True)

    def test_s27_byte_identical(self, s27):
        serial = self._serialized(s27, self.CFG)
        parallel = self._serialized(
            s27, dataclasses.replace(self.CFG, n_jobs=4)
        )
        assert parallel == serial

    def test_synthetic_byte_identical(self):
        circuit = synthesize(
            SyntheticSpec(name="det", n_pi=5, n_po=2, n_ff=5, n_gates=40, seed=23)
        )
        serial = self._serialized(circuit, self.CFG)
        parallel = self._serialized(
            circuit, dataclasses.replace(self.CFG, n_jobs=4)
        )
        assert parallel == serial

    def test_explicit_n_jobs_argument_wins(self, s27):
        # The n_jobs parameter overrides config.n_jobs; forcing the
        # config-parallel run serial still matches the baseline byte for
        # byte (n_jobs is not serialized).
        cfg = dataclasses.replace(self.CFG, n_jobs=4)
        faults = collapse_faults(s27)
        forced_serial = run_procedure2(s27, cfg, faults, n_jobs=1)
        baseline = run_procedure2(s27, self.CFG, faults)
        assert json.dumps(result_to_dict(forced_serial)) == json.dumps(
            result_to_dict(baseline)
        )


class TestTs0Parallel:
    def test_ts0_detection_counts_match(self, s27):
        faults = collapse_faults(s27)
        with make_evaluator(s27, faults, n_jobs=4) as ev:
            hits = ev.evaluate_ts0(faults).hits_for(faults)
        assert hits == serial_hits(s27, (0, None), faults)


class TestPicklingDiscipline:
    """The session state is serialized exactly once per evaluator.

    The persistent pool publishes the simulator, ``TS0`` and the target
    list into one shared-memory segment; dispatches, respawns and serial
    rescues must never serialize it again.
    """

    @staticmethod
    def _count_publications(monkeypatch):
        counts = {"n": 0}
        real_dumps = pool_mod.pickle.dumps

        def counting_dumps(obj, *a, **k):
            if isinstance(obj, dict) and "simulator" in obj:
                counts["n"] += 1
            return real_dumps(obj, *a, **k)

        monkeypatch.setattr(pool_mod.pickle, "dumps", counting_dumps)
        return counts

    def test_pickled_once_across_dispatches_and_respawn(
        self, medium_synth, monkeypatch
    ):
        faults = collapse_faults(medium_synth)
        counts = self._count_publications(monkeypatch)
        with make_evaluator(medium_synth, faults) as ev:
            ev.evaluate_specs(SPECS, faults)
            ev.evaluate_specs(SPECS, faults)
            assert counts["n"] == 1
            ev._pool.kill()  # respawn on the next dispatch
            ev.evaluate_specs(SPECS, faults)
            assert counts["n"] == 1

    def test_unused_pool_never_pickles(self, s27, monkeypatch):
        counts = self._count_publications(monkeypatch)
        with make_evaluator(s27, collapse_faults(s27)) as ev:
            assert ev._pool is None
        assert counts["n"] == 0

    def test_persistent_pool_publishes_once(self, s27, monkeypatch):
        """The pool evaluator's session state is serialized exactly once
        (at segment publication), regardless of dispatch count."""
        cfg = BistConfig(la=4, lb=8, n=8, n_jobs=2, candidate_batch=4)
        faults = collapse_faults(s27)
        ev = CandidateEvaluator(
            FaultSimulator(s27), generate_ts0(s27, cfg), cfg,
            s27.num_state_vars, None,
            n_jobs=2, targets=faults, circuit_name=s27.name,
        )
        counts = self._count_publications(monkeypatch)
        with ev:
            ev.evaluate_specs([(1, d1) for d1 in cfg.d1_values[:4]], faults)
            ev.evaluate_specs([(2, d1) for d1 in cfg.d1_values[:4]], faults)
        assert counts["n"] <= 1
