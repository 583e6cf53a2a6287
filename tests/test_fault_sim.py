"""Tests for the parallel-fault sequential fault simulator.

The key oracle: per-fault single-machine simulation (whole-word
injections through the scalar `simulate_test` path) must agree with the
packed parallel-fault simulator on every detection decision.
"""

import numpy as np
import pytest

from repro.faults.collapse import collapse_faults
from repro.faults.fault_sim import (
    FaultSimulator,
    ObservationPolicy,
    ScanTest,
)
from repro.faults.model import Fault, FaultGraph, generate_faults
from repro.rpg.prng import make_source
from repro.simulation.compiled import Injections
from repro.simulation.sequential import simulate_test


def brute_force_detects(graph, test: ScanTest, fault: Fault) -> bool:
    """Oracle: simulate fault-free and single-fault machines, compare."""
    model = graph.model
    inj = Injections.build_whole_word(
        [(graph.signal_of(fault), 0, fault.value)], model.level_of_signal
    )
    good = simulate_test(model, test.si, test.vectors, schedule=test.schedule)
    bad = simulate_test(
        model, test.si, test.vectors, schedule=test.schedule, injections=inj
    )
    if good.outputs != bad.outputs:
        return True
    if good.scanout != bad.scanout:
        return True
    return good.states[good.length] != bad.states[bad.length]


def random_tests(circuit, n_tests, length, seed, with_schedule=False):
    src = make_source(seed)
    tests = []
    for _ in range(n_tests):
        si = src.bits(circuit.num_state_vars)
        vectors = [src.bits(circuit.num_inputs) for _ in range(length)]
        schedule = None
        if with_schedule:
            schedule = [(0, ())]
            for _u in range(1, length):
                if src.mod_draw(3) == 0:
                    k = src.mod_draw(circuit.num_state_vars + 1)
                    schedule.append((k, tuple(src.bits(k))))
                else:
                    schedule.append((0, ()))
        tests.append(ScanTest(si=si, vectors=vectors, schedule=schedule))
    return tests


class TestAgainstBruteForce:
    @pytest.mark.parametrize("with_schedule", [False, True])
    def test_matches_oracle_on_s27(self, s27, with_schedule):
        graph = FaultGraph(s27)
        sim = FaultSimulator(graph)
        faults = generate_faults(s27)
        tests = random_tests(s27, 3, 6, seed=99, with_schedule=with_schedule)
        packed = sim.simulate(tests, faults)
        for fault in faults:
            expect = any(brute_force_detects(graph, t, fault) for t in tests)
            assert (fault in packed) == expect, str(fault)

    def test_matches_oracle_on_tiny_synth(self, tiny_synth):
        graph = FaultGraph(tiny_synth)
        sim = FaultSimulator(graph)
        faults = collapse_faults(tiny_synth)
        tests = random_tests(tiny_synth, 2, 5, seed=3, with_schedule=True)
        packed = sim.simulate(tests, faults)
        for fault in faults:
            expect = any(brute_force_detects(graph, t, fault) for t in tests)
            assert (fault in packed) == expect, str(fault)


class TestDetectionRecords:
    def test_records_have_valid_fields(self, s27):
        sim = FaultSimulator(s27)
        faults = collapse_faults(s27)
        tests = random_tests(s27, 4, 5, seed=1, with_schedule=True)
        for fault, rec in sim.simulate(tests, faults).items():
            assert rec.fault == fault
            assert 0 <= rec.test_index < 4
            assert 0 <= rec.time_unit <= 5
            assert rec.where in ("po", "limited-scan", "scan-out")

    def test_first_test_wins(self, s27):
        sim = FaultSimulator(s27)
        faults = collapse_faults(s27)
        tests = random_tests(s27, 4, 5, seed=1)
        records = sim.simulate(tests, faults)
        # Re-simulating only the first test must mark its detections
        # with test_index 0 in the multi-test run too.
        first_only = sim.simulate(tests[:1], faults)
        for fault in first_only:
            assert records[fault].test_index == 0


class TestDetectionCounts:
    """``measure_detection_counts``, the one pattern-parallel routine,
    against single-vector tests on the fault-parallel path."""

    @pytest.mark.parametrize("n_patterns", [10, 64, 100])
    def test_counts_match_single_vector_detection(self, tiny_synth, n_patterns):
        sim = FaultSimulator(tiny_synth)
        model = sim.model
        faults = collapse_faults(tiny_synth)
        counts = sim.measure_detection_counts(faults, n_patterns, seed=7)

        # The routine's draw: one random word per PI and flop row per 64
        # patterns, pattern p at bit p % 64 of word p // 64.
        n_pi = len(model.pi_idx)
        rng = np.random.Generator(np.random.PCG64(7))
        words = rng.integers(
            0, 2**64, size=(n_pi + len(model.q_idx), (n_patterns + 63) // 64),
            dtype=np.uint64,
        )
        tests = []
        for p in range(n_patterns):
            bits = (words[:, p // 64] >> np.uint64(p % 64)) & np.uint64(1)
            bits = bits.astype(int).tolist()
            tests.append(ScanTest(si=bits[n_pi:], vectors=[bits[:n_pi]]))

        detected = sim.simulate(tests, faults)
        per_pattern = [sim.simulate([test], faults) for test in tests]
        assert 0 < len(detected) < len(faults)
        for fault, count in zip(faults, counts):
            assert 0 <= count <= n_patterns
            assert (count > 0) == (fault in detected)
            assert count == sum(fault in hits for hits in per_pattern)


class TestObservationPolicy:
    def test_scan_out_detection_exists(self, s27):
        """Some faults are detectable only at the final scan-out."""
        sim = FaultSimulator(s27)
        faults = collapse_faults(s27)
        tests = random_tests(s27, 2, 4, seed=5)
        full = sim.simulate(tests, faults)
        no_final = sim.simulate(
            tests, faults, ObservationPolicy(final_scan_out=False)
        )
        assert set(no_final) < set(full)

    def test_limited_scan_out_adds_detections(self, medium_synth):
        sim = FaultSimulator(medium_synth)
        faults = collapse_faults(medium_synth)
        tests = random_tests(medium_synth, 6, 8, seed=7, with_schedule=True)
        full = sim.simulate(tests, faults)
        masked = sim.simulate(
            tests, faults, ObservationPolicy(limited_scan_out=False)
        )
        assert set(masked) <= set(full)

    def test_policy_restriction_never_adds(self, s27):
        sim = FaultSimulator(s27)
        faults = collapse_faults(s27)
        tests = random_tests(s27, 3, 5, seed=11, with_schedule=True)
        full = set(sim.simulate(tests, faults))
        for policy in (
            ObservationPolicy(primary_outputs=False),
            ObservationPolicy(limited_scan_out=False),
            ObservationPolicy(final_scan_out=False),
        ):
            assert set(sim.simulate(tests, faults, policy)) <= full


class TestSemantics:
    def test_q_fault_not_visible_in_scanned_state(self):
        """A stuck-at on a flop's output net corrupts the logic but not
        the latched value: with only scan-out observation and no logic
        path back to state, it must go undetected."""
        from repro.circuit.library import GateType
        from repro.circuit.netlist import Circuit

        c = Circuit("qtest")
        c.add_input("a")
        c.add_output("y")
        c.add_flop("q", "a")  # q: latch of a
        c.add_gate("y", GateType.BUF, ["q"])
        sim = FaultSimulator(c)
        test = ScanTest(si=[0], vectors=[[1], [1]])
        q_sa0 = Fault(site="q", value=0)
        # Detected at the PO (y follows q which reads as 0)...
        assert sim.simulate([test], [q_sa0])
        # ...but NOT via scan-out alone: the latched bits are healthy.
        res = sim.simulate(
            [test],
            [q_sa0],
            ObservationPolicy(primary_outputs=False, limited_scan_out=False),
        )
        assert not res

    def test_d_fault_visible_in_scanned_state(self):
        from repro.circuit.library import GateType
        from repro.circuit.netlist import Circuit

        c = Circuit("dtest")
        c.add_input("a")
        c.add_output("y")
        c.add_gate("d", GateType.BUF, ["a"])
        c.add_flop("q", "d")
        c.add_gate("y", GateType.BUF, ["q"])
        sim = FaultSimulator(c)
        test = ScanTest(si=[0], vectors=[[1]])
        d_sa0 = Fault(site="d", value=0)
        res = sim.simulate(
            [test],
            [d_sa0],
            ObservationPolicy(primary_outputs=False, limited_scan_out=False),
        )
        assert d_sa0 in res
        assert res[d_sa0].where == "scan-out"

    def test_fill_bits_shared_between_machines(self, s27):
        """Scan-in fill bits are identical in good/faulty machines, so a
        no-logic circuitless shift cannot create false detections."""
        sim = FaultSimulator(s27)
        faults = collapse_faults(s27)
        # One test whose only activity is a big shift: vectors all zero.
        test = ScanTest(
            si=[0, 0, 0],
            vectors=[[0, 0, 0, 0], [0, 0, 0, 0]],
            schedule=[(0, ()), (3, (1, 0, 1))],
        )
        res = sim.simulate([test], faults)
        for fault, rec in res.items():
            assert rec.where in ("po", "limited-scan", "scan-out")

    def test_input_validation(self, s27):
        sim = FaultSimulator(s27)
        with pytest.raises(ValueError):
            sim.simulate([ScanTest(si=[0], vectors=[[0, 0, 0, 0]])], [])
        with pytest.raises(ValueError):
            sim.simulate([ScanTest(si=[0, 0, 0], vectors=[[0]])], [])
        bad_sched = ScanTest(
            si=[0, 0, 0], vectors=[[0, 0, 0, 0]], schedule=[(0, ()), (0, ())]
        )
        with pytest.raises(ValueError):
            sim.simulate([bad_sched], [])

    def test_early_exit_when_all_detected(self, s27):
        sim = FaultSimulator(s27)
        faults = collapse_faults(s27)[:4]
        tests = random_tests(s27, 50, 6, seed=2)
        res = sim.simulate(tests, faults)
        assert len(res) <= 4
