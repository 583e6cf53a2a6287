"""Tests for Procedure 2 and its result accounting."""

import dataclasses
import re

import pytest

from repro.atpg.classify import classify_faults
from repro.core import procedure2
from repro.core.config import BistConfig, D1_DECREASING
from repro.core.cost import ncyc0
from repro.core.procedure2 import resume_procedure2, run_procedure2
from repro.faults.collapse import collapse_faults
from repro.faults.fault_sim import FaultSimulator
from repro.robustness.checkpoint import CheckpointWriter


@pytest.fixture(scope="module")
def s27_setup():
    from repro.bench_circuits.s27 import s27_circuit

    circuit = s27_circuit()
    return circuit, FaultSimulator(circuit), collapse_faults(circuit)


class TestRunProcedure2:
    def test_s27_reaches_complete_coverage(self, s27_setup):
        circuit, sim, faults = s27_setup
        cfg = BistConfig(la=4, lb=8, n=8)
        res = run_procedure2(circuit, cfg, faults, simulator=sim)
        assert res.complete
        assert res.det_total == len(faults)
        assert res.fault_coverage == 1.0
        assert not res.remaining_faults

    def test_pairs_all_contribute(self, s27_setup):
        circuit, sim, faults = s27_setup
        cfg = BistConfig(la=4, lb=8, n=2)  # small TS0 -> needs pairs
        res = run_procedure2(circuit, cfg, faults, simulator=sim)
        for pair in res.pairs:
            assert pair.newly_detected > 0
            assert pair.d1 in cfg.d1_values
            assert pair.iteration >= 1

    def test_detection_counts_consistent(self, s27_setup):
        circuit, sim, faults = s27_setup
        cfg = BistConfig(la=4, lb=8, n=2)
        res = run_procedure2(circuit, cfg, faults, simulator=sim)
        assert res.det_total == res.ts0_detected + sum(
            p.newly_detected for p in res.pairs
        )
        assert res.det_total == len(res.detections)
        assert res.det_total + len(res.remaining_faults) == len(faults)

    def test_cycle_accounting(self, s27_setup):
        circuit, sim, faults = s27_setup
        cfg = BistConfig(la=4, lb=8, n=4)
        res = run_procedure2(circuit, cfg, faults, simulator=sim)
        base = ncyc0(3, 4, 8, 4)
        assert res.ncyc0 == base
        expect = base + sum(base + p.nsh for p in res.pairs)
        assert res.ncyc_total == expect

    def test_ls_average_range(self, s27_setup):
        circuit, sim, faults = s27_setup
        cfg = BistConfig(la=4, lb=8, n=2)
        res = run_procedure2(circuit, cfg, faults, simulator=sim)
        if res.pairs:
            assert 0.0 < res.ls_average <= 1.0
        else:
            assert res.ls_average is None

    def test_no_pairs_when_ts0_complete(self, s27_setup):
        circuit, sim, faults = s27_setup
        cfg = BistConfig(la=8, lb=64, n=64)  # plenty of random tests
        res = run_procedure2(circuit, cfg, faults, simulator=sim)
        if res.ts0_detected == len(faults):
            assert res.app == 0
            assert res.ncyc_total == res.ncyc0

    def test_gives_up_after_n_same_fc(self, s27_setup):
        """With an impossible target the loop stops via N_SAME_FC."""
        circuit, sim, faults = s27_setup
        from repro.faults.model import Fault

        impossible = [Fault(site="G17", value=0), Fault(site="G17", value=1)]
        # G17 faults ARE detectable; use a truly undetectable marker by
        # targeting a fault in a redundant circuit instead:
        from repro.circuit.library import GateType
        from repro.circuit.netlist import Circuit

        c = Circuit("red")
        c.add_input("a")
        c.add_input("b")
        c.add_output("z")
        c.add_gate("t", GateType.AND, ["a", "b"])
        c.add_gate("z", GateType.OR, ["a", "t"])
        c.add_flop("q", "z")
        target = [Fault(site="t", value=0)]  # undetectable (z == a)
        cfg = BistConfig(la=2, lb=4, n=2, n_same_fc=2, max_iterations=10)
        res = run_procedure2(c, cfg, target)
        assert not res.complete
        assert res.remaining_faults == target
        assert res.iterations_run <= 10

    def test_decreasing_d1_order(self, s27_setup):
        circuit, sim, faults = s27_setup
        cfg = BistConfig(la=4, lb=8, n=2, d1_values=D1_DECREASING)
        res = run_procedure2(circuit, cfg, faults, simulator=sim)
        for pair in res.pairs:
            assert pair.d1 in range(1, 11)

    def test_deterministic(self, s27_setup):
        circuit, sim, faults = s27_setup
        cfg = BistConfig(la=4, lb=8, n=2)
        a = run_procedure2(circuit, cfg, faults, simulator=sim)
        b = run_procedure2(circuit, cfg, faults, simulator=sim)
        assert [(p.iteration, p.d1, p.newly_detected) for p in a.pairs] == [
            (p.iteration, p.d1, p.newly_detected) for p in b.pairs
        ]
        assert a.ncyc_total == b.ncyc_total

    def test_summary_mentions_completeness(self, s27_setup):
        circuit, sim, faults = s27_setup
        cfg = BistConfig(la=4, lb=8, n=8)
        res = run_procedure2(circuit, cfg, faults, simulator=sim)
        assert "complete" in res.summary()


class TestDistinctTargets:
    """Procedure 2 names each fault by its position in the target list,
    so a repeated target is an error rather than a smaller count."""

    CFG = BistConfig(la=4, lb=8, n=4, max_iterations=3)

    def test_repeated_target_raises_before_any_journal(
        self, s27_setup, tmp_path
    ):
        circuit, sim, faults = s27_setup
        repeated = faults + [faults[5]]
        path = tmp_path / "j.jsonl"
        with pytest.raises(
            ValueError, match=re.escape(f"{faults[5]} is repeated")
        ):
            run_procedure2(
                circuit, self.CFG, repeated, simulator=sim,
                checkpoint=str(path),
            )
        assert not path.exists()
        with pytest.raises(ValueError, match="must be distinct"):
            run_procedure2(circuit, self.CFG, repeated, simulator=sim)

    def test_resume_leaves_the_journal_untouched(self, s27_setup, tmp_path):
        # Only a journal written without the check can match a repeated
        # target list; resume must neither heal its torn tail nor append.
        circuit, sim, faults = s27_setup
        repeated = faults + [faults[5]]
        path = tmp_path / "j.jsonl"
        CheckpointWriter(
            path,
            header=procedure2._journal_header(
                circuit, self.CFG, sim.chain_length, repeated
            ),
        )
        with path.open("ab") as fh:
            fh.write(b'{"kind": "ts0", "detec')
        before = path.read_bytes()
        with pytest.raises(ValueError, match="is repeated"):
            resume_procedure2(
                circuit, self.CFG, repeated, str(path), simulator=sim
            )
        assert path.read_bytes() == before


class TestCandidateBias:
    def test_invalid_bias_rejected(self):
        with pytest.raises(ValueError):
            BistConfig(candidate_bias="greedy")

    def test_excluded_from_serialized_config(self):
        # The search order is provenance, not part of the result identity:
        # journal headers and serialized configs must not change with it,
        # so uniform runs stay byte-identical across releases.
        assert (
            BistConfig(candidate_bias="testability").to_dict()
            == BistConfig().to_dict()
        )
        assert "candidate_bias" not in BistConfig().to_dict()

    def test_result_records_bias(self, s27_setup):
        circuit, sim, faults = s27_setup
        for bias in ("uniform", "testability"):
            cfg = BistConfig(la=4, lb=8, n=8, candidate_bias=bias)
            res = run_procedure2(circuit, cfg, faults, simulator=sim)
            assert res.candidate_bias == bias
            assert res.complete

    def test_uniform_results_unchanged_by_flag(self, s27_setup):
        circuit, sim, faults = s27_setup
        implicit = run_procedure2(
            circuit, BistConfig(la=4, lb=8, n=2), faults, simulator=sim
        )
        explicit = run_procedure2(
            circuit,
            BistConfig(la=4, lb=8, n=2, candidate_bias="uniform"),
            faults,
            simulator=sim,
        )
        assert [(p.iteration, p.d1, p.newly_detected) for p in implicit.pairs] == [
            (p.iteration, p.d1, p.newly_detected) for p in explicit.pairs
        ]
        assert implicit.ncyc_total == explicit.ncyc_total

    def test_journal_bytes_identical_across_bias_flag(
        self, s27_setup, tmp_path
    ):
        # Same search outcome (s27's biased order coincides or completes
        # identically is NOT assumed here -- uniform vs uniform only):
        # an explicit "uniform" flag must not leave any trace in the
        # checkpoint journal.
        circuit, sim, faults = s27_setup
        paths = []
        for label, bias in (("a", None), ("b", "uniform")):
            cfg = (
                BistConfig(la=4, lb=8, n=8)
                if bias is None
                else BistConfig(la=4, lb=8, n=8, candidate_bias=bias)
            )
            path = tmp_path / f"{label}.journal"
            run_procedure2(
                circuit, cfg, faults, simulator=sim, checkpoint=str(path)
            )
            paths.append(path)
        assert paths[0].read_bytes() == paths[1].read_bytes()
        assert b"candidate_bias" not in paths[0].read_bytes()

    def test_testability_bias_resumes_identically(self, s27_setup, tmp_path):
        # The biased order is re-derived from the circuit on resume, so a
        # replayed journal must reproduce the run exactly.
        circuit, sim, faults = s27_setup
        cfg = BistConfig(la=4, lb=8, n=8, candidate_bias="testability")
        path = str(tmp_path / "bias.journal")
        first = run_procedure2(
            circuit, cfg, faults, simulator=sim, checkpoint=path
        )
        resumed = resume_procedure2(
            circuit, cfg, faults, checkpoint=path, simulator=sim
        )
        assert [(p.iteration, p.d1, p.newly_detected) for p in first.pairs] == [
            (p.iteration, p.d1, p.newly_detected) for p in resumed.pairs
        ]
        assert resumed.candidate_bias == "testability"
