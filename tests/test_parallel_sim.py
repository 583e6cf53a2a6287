"""The persistent pool's fault-sharded dispatch.

Covers the sharding helpers, bit-exact equivalence of multi-shard pool
dispatches with serial ``simulate_grouped``, graceful degradation to
in-process evaluation, workers inheriting the session without
serializing it, and the n_jobs=1-vs-4 determinism regression on
Procedure 2 (byte-identical serialized results).
"""

import dataclasses
import json
import multiprocessing
import os
import pickle
import warnings

import pytest

from repro.bench_circuits.catalog import load_circuit
from repro.bench_circuits.synthetic import SyntheticSpec, synthesize
from repro.core import procedure2
from repro.core.config import BistConfig
from repro.core.limited_scan import build_limited_scan_test_set
from repro.core.procedure2 import run_procedure2
from repro.core.test_set import generate_ts0
from repro.experiments.serialize import result_to_dict
from repro.faults import pool as pool_mod
from repro.faults.collapse import collapse_faults
from repro.faults.fault_sim import FaultSimulator, ObservationPolicy
from repro.faults.pool import CandidateEvaluator
from repro.faults.sharding import resolve_n_jobs, shard_faults
from repro.simulation.compiled import shard_word_ranges

#: Small TS0 shape shared by the pool cases below.
CFG = BistConfig(la=4, lb=8, n=4)


def make_evaluator(circuit, faults, policy=None, n_jobs=2, shards=3):
    """A pool evaluator forced to multi-shard dispatches on any host."""
    ts0 = generate_ts0(circuit, CFG)
    return CandidateEvaluator(
        FaultSimulator(circuit), ts0, CFG, circuit.num_state_vars, policy,
        n_jobs=n_jobs, targets=faults, shards=shards,
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

    def test_detected_by_universe_order(self, medium_synth, pool_submits):
        # The pooled TS0 table detects exactly what the per-test path
        # does; in universe order the two lists are equal.
        faults = collapse_faults(medium_synth)
        with make_evaluator(medium_synth, faults, shards=2) as ev:
            hits = ev.evaluate_ts0(faults).hits_for(faults)
        assert pool_submits.count > 0 and not ev.degradation.degraded
        pooled = [f for f in faults if f in hits]
        assert pooled == FaultSimulator(medium_synth).detected_by(
            generate_ts0(medium_synth, CFG), faults
        )


class TestSmallDispatchRule:
    """A dispatch is split only into shards that pay for a round trip.

    Each shard must evaluate ``_MIN_SHARD_CELLS`` value-matrix cells per
    time unit: ``n_signals`` x one column per candidate, test and fault
    word, plus the reference slot.  Two cores are assumed, whatever the
    host has.
    """

    @staticmethod
    def _evaluator(name, cfg, monkeypatch, n_jobs=2):
        monkeypatch.setattr(pool_mod, "available_cpu_count", lambda: 2)
        circuit = load_circuit(name)
        return CandidateEvaluator(
            FaultSimulator(circuit), generate_ts0(circuit, cfg), cfg,
            circuit.num_state_vars, None, n_jobs=n_jobs,
            targets=collapse_faults(circuit),
        )

    def test_small_circuit_stays_in_parent(self, monkeypatch):
        # s298, 8 candidates x 8 tests: 346 signals x 8 x 8 x 3 columns
        # per two-word shard is far below the bound.
        ev = self._evaluator("s298", BistConfig(la=4, lb=8, n=8), monkeypatch)
        assert ev._shard_count(8, 4 * 64) == 1
        ev.shards = 2  # the test hook bypasses the rule
        assert ev._shard_count(8, 4 * 64) == 2

    def test_wide_dispatch_splits(self, monkeypatch):
        cfg = BistConfig(la=8, lb=16, n=32)
        ev = self._evaluator("s1423", cfg, monkeypatch)
        # 1977 signals x 10 candidates x 32 tests x 2 columns per
        # one-word shard: 1.27M cells.
        assert ev._shard_count(10, 2 * 64) == 2
        # One candidate on the same two words: 127k cells.
        assert ev._shard_count(1, 2 * 64) == 1
        # TS0 against all 36 words: 1977 x 32 x 19 columns per shard.
        assert ev._shard_count(1, 36 * 64) == 2
        serial = self._evaluator("s1423", cfg, monkeypatch, n_jobs=1)
        assert serial._shard_count(10, 36 * 64) == 1


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


class TestProcedure2Determinism:
    """Same seed => byte-identical serialized results for n_jobs 1 vs 4.

    The parallel runs split every dispatch into two pool shards.
    """

    CFG = BistConfig(la=4, lb=8, n=16, n_same_fc=2, max_iterations=6)

    def _serialized(self, circuit, cfg):
        result = run_procedure2(circuit, cfg, collapse_faults(circuit))
        assert result.degradation is None  # no shard needed a rescue
        return json.dumps(result_to_dict(result), sort_keys=True)

    def test_medium_synth_byte_identical(
        self, medium_synth, two_shards, pool_submits
    ):
        serial = self._serialized(medium_synth, self.CFG)
        parallel = self._serialized(
            medium_synth, dataclasses.replace(self.CFG, n_jobs=4)
        )
        assert pool_submits.count > 0
        assert parallel == serial

    def test_synthetic_byte_identical(self, two_shards, pool_submits):
        circuit = synthesize(
            SyntheticSpec(name="det", n_pi=5, n_po=2, n_ff=5, n_gates=40, seed=23)
        )
        serial = self._serialized(circuit, self.CFG)
        parallel = self._serialized(
            circuit, dataclasses.replace(self.CFG, n_jobs=4)
        )
        assert pool_submits.count > 0
        assert parallel == serial

    def test_explicit_n_jobs_argument_wins(self, s27, monkeypatch):
        # The config passed in is where the evaluator's n_jobs comes
        # from: forcing a parallel config serial runs serially, and both
        # match byte for byte (n_jobs is not serialized).
        seen = []

        def recording(*args, **kwargs):
            seen.append(kwargs["n_jobs"])
            return CandidateEvaluator(*args, **kwargs)

        monkeypatch.setattr(procedure2, "CandidateEvaluator", recording)
        cfg = dataclasses.replace(self.CFG, n_jobs=4)
        faults = collapse_faults(s27)
        forced_serial = run_procedure2(
            s27, dataclasses.replace(cfg, n_jobs=1), faults
        )
        parallel = run_procedure2(s27, cfg, faults)
        assert seen == [1, 4]
        assert json.dumps(result_to_dict(forced_serial)) == json.dumps(
            result_to_dict(parallel)
        )


class TestTs0Parallel:
    def test_ts0_detection_counts_match(self, medium_synth, pool_submits):
        faults = collapse_faults(medium_synth)
        with make_evaluator(medium_synth, faults, n_jobs=4) as ev:
            hits = ev.evaluate_ts0(faults).hits_for(faults)
        assert pool_submits.count > 0 and not ev.degradation.degraded
        assert hits == serial_hits(medium_synth, (0, None), faults)


class TestForkInheritance:
    """Pool workers inherit the session; nothing serializes it.

    The pool hands the session (simulator, ``TS0``, targets) to its
    workers through the executor's initializer.  Under ``fork`` they
    inherit it, across dispatches and after a respawn alike: counting
    ``__getstate__`` calls on the session class catches any
    serialization.
    """

    @pytest.mark.skipif(
        multiprocessing.get_start_method() != "fork",
        reason="only forked workers inherit the session unserialized",
    )
    def test_session_never_serialized_under_fork(
        self, medium_synth, monkeypatch, pool_submits
    ):
        counts = {"n": 0}
        getstate = getattr(
            pool_mod._Session, "__getstate__", lambda self: self.__dict__
        )

        def counting(self):
            counts["n"] += 1
            return getstate(self)

        monkeypatch.setattr(pool_mod._Session, "__getstate__", counting)
        faults = collapse_faults(medium_synth)
        with make_evaluator(medium_synth, faults) as ev:
            ev.evaluate_specs(SPECS, faults)
            ev.evaluate_specs(SPECS, faults)
            ev._pool.kill()  # respawn on the next dispatch
            ev.evaluate_specs(SPECS, faults)
        assert pool_submits.count > 0
        assert counts["n"] == 0

    def test_unused_pool_never_forks(self, s27, monkeypatch):
        """s27's one fault word cannot be split: no worker is started."""
        forks = []

        def no_fork():
            # The pool would treat a failed fork as an unavailable pool
            # and rescue in the parent, so record the attempt as well.
            forks.append(1)
            raise OSError("an unused pool forked a worker")

        monkeypatch.setattr(os, "fork", no_fork)
        cfg = BistConfig(la=4, lb=8, n=8, n_jobs=2, candidate_batch=4)
        faults = collapse_faults(s27)
        specs = [(1, d1) for d1 in cfg.d1_values[:4]]
        with CandidateEvaluator(
            FaultSimulator(s27), generate_ts0(s27, cfg), cfg,
            s27.num_state_vars, None, n_jobs=2, targets=faults,
        ) as ev:
            tables = ev.evaluate_specs(specs, faults)
            assert ev._pool is None and not ev.degradation.degraded
        assert not forks
        tests = generate_ts0(s27, cfg)
        for spec, table in zip(specs, tables):
            built = build_limited_scan_test_set(
                tests, spec[0], spec[1], cfg, s27.num_state_vars
            )
            assert table.hits_for(faults) == FaultSimulator(
                s27
            ).simulate_grouped(built, faults)
