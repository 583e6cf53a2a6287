"""Tests for the transition (gross-delay) fault model."""

import pytest

from repro.bench_circuits import load_circuit
from repro.circuit.library import GateType
from repro.circuit.netlist import Circuit
from repro.faults.fault_sim import ObservationPolicy, ScanTest
from repro.faults.transition import (
    FALL,
    RISE,
    TransitionFault,
    TransitionFaultSimulator,
    generate_transition_faults,
)
from repro.rpg.prng import make_source


class TestModel:
    def test_stuck_values(self):
        assert TransitionFault(site="n", edge=RISE).stuck_value == 0
        assert TransitionFault(site="n", edge=FALL).stuck_value == 1

    def test_edge_validated(self):
        with pytest.raises(ValueError):
            TransitionFault(site="n", edge="wiggle")

    def test_universe_size(self, s27):
        faults = generate_transition_faults(s27)
        # One rise + one fall per line (stems + branches): same line count
        # as the stuck-at universe.
        from repro.faults.model import generate_faults

        assert len(faults) == len(generate_faults(s27))

    def test_str(self):
        f = TransitionFault(site="G8", edge=RISE)
        assert "slow-to-rise" in str(f)


def pipeline_circuit() -> Circuit:
    """in -> DFF -> DFF -> out: transitions need consecutive cycles."""
    c = Circuit("pipe")
    c.add_input("a")
    c.add_output("y")
    c.add_gate("d0", GateType.BUF, ["a"])
    c.add_flop("q0", "d0")
    c.add_gate("d1", GateType.BUF, ["q0"])
    c.add_flop("q1", "d1")
    c.add_gate("y", GateType.BUF, ["q1"])
    return c


class TestDetection:
    def test_launch_required(self):
        """Without a 0->1 on the site, slow-to-rise is undetectable."""
        c = pipeline_circuit()
        sim = TransitionFaultSimulator(c)
        fault = TransitionFault(site="a", edge=RISE)
        # Input held at 1: no rise launched (u=0 cannot launch).
        t_hold = ScanTest(si=[0, 0], vectors=[[1], [1], [1]])
        assert not sim.simulate([t_hold], [fault])
        # 0 then 1: launch at u=1; effect captured and scanned out.
        t_rise = ScanTest(si=[0, 0], vectors=[[0], [1], [1]])
        assert fault in sim.simulate([t_rise], [fault])

    def test_state_taps_observe(self):
        """A tap on the first flop sees the late rise the cycle it is
        captured, with every other observation point off."""
        sim = TransitionFaultSimulator(pipeline_circuit())
        fault = TransitionFault(site="a", edge=RISE)
        test = ScanTest(si=[0, 0], vectors=[[0], [1], [1]])
        policy = ObservationPolicy(
            primary_outputs=False,
            limited_scan_out=False,
            final_scan_out=False,
            state_taps=[0],
        )
        records = sim.simulate([test], [fault], policy)
        assert [
            (r.test_index, r.time_unit, r.where) for r in records.values()
        ] == [(0, 1, "state-tap")]

    def test_fall_symmetry(self):
        c = pipeline_circuit()
        sim = TransitionFaultSimulator(c)
        fault = TransitionFault(site="a", edge=FALL)
        t_fall = ScanTest(si=[1, 1], vectors=[[1], [0], [0]])
        assert fault in sim.simulate([t_fall], [fault])
        t_hold = ScanTest(si=[0, 0], vectors=[[0], [0], [0]])
        assert not sim.simulate([t_hold], [fault])

    def test_single_vector_tests_detect_nothing(self, s27):
        """L = 1 gives no consecutive at-speed cycles: zero transition
        coverage -- the paper's argument for multi-vector tests."""
        sim = TransitionFaultSimulator(s27)
        faults = generate_transition_faults(s27)
        src = make_source(3)
        tests = [
            ScanTest(si=src.bits(3), vectors=[src.bits(4)]) for _ in range(100)
        ]
        assert not sim.simulate(tests, faults)

    def test_multi_vector_tests_detect_many(self, s27):
        sim = TransitionFaultSimulator(s27)
        faults = generate_transition_faults(s27)
        src = make_source(3)
        tests = [
            ScanTest(si=src.bits(3), vectors=[src.bits(4) for _ in range(6)])
            for _ in range(30)
        ]
        detected = sim.simulate(tests, faults)
        assert len(detected) > len(faults) // 3

    @pytest.mark.slow
    def test_longer_sequences_do_better(self):
        circuit = load_circuit("s298")
        sim = TransitionFaultSimulator(circuit)
        faults = generate_transition_faults(circuit)

        def coverage(length, count):
            src = make_source(9)
            tests = [
                ScanTest(
                    si=src.bits(14),
                    vectors=[src.bits(3) for _ in range(length)],
                )
                for _ in range(count)
            ]
            return len(sim.simulate(tests, faults))

        # Same number of functional cycles, different sequence lengths.
        assert coverage(8, 24) > coverage(2, 96) * 0.8  # not catastrophic
        assert coverage(8, 24) > coverage(1, 192) if True else None

    def test_detection_records(self, s27):
        sim = TransitionFaultSimulator(s27)
        faults = generate_transition_faults(s27)
        src = make_source(5)
        tests = [
            ScanTest(si=src.bits(3), vectors=[src.bits(4) for _ in range(5)])
            for _ in range(10)
        ]
        for fault, rec in sim.simulate(tests, faults).items():
            assert rec.fault == fault
            assert rec.where in ("po", "limited-scan", "scan-out")
            # A launch needs u >= 1, so PO detections happen at u >= 1.
            if rec.where == "po":
                assert rec.time_unit >= 1

    def test_limited_scan_helps_transition_faults_too(self, s27):
        """Limited scan schedules (fresh states mid-test) can expose
        transition faults the plain test misses."""
        sim = TransitionFaultSimulator(s27)
        faults = generate_transition_faults(s27)
        src = make_source(77)
        plain, scheduled = [], []
        for _ in range(20):
            si = src.bits(3)
            vectors = [src.bits(4) for _ in range(6)]
            schedule = [(0, ())]
            for _u in range(1, 6):
                if src.mod_draw(2) == 0:
                    k = src.mod_draw(4)
                    schedule.append((k, tuple(src.bits(k))))
                else:
                    schedule.append((0, ()))
            plain.append(ScanTest(si=si, vectors=vectors))
            scheduled.append(
                ScanTest(si=si, vectors=vectors, schedule=schedule)
            )
        d_plain = set(sim.simulate(plain, faults))
        d_sched = set(sim.simulate(scheduled, faults))
        # Not necessarily a superset, but the union beats plain alone.
        assert len(d_plain | d_sched) >= len(d_plain)
