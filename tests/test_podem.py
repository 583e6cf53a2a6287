"""Tests for PODEM and detectability classification."""

import hashlib
import json

import numpy as np
import pytest

from repro.atpg.classify import classify_faults
from repro.atpg.podem import Podem, PodemStatus, eval3, X
from repro.bench_circuits.catalog import load_circuit
from repro.bench_circuits.synthetic import SyntheticSpec, synthesize
from repro.circuit.library import GateType
from repro.circuit.netlist import Circuit
from repro.faults.collapse import collapse_faults
from repro.faults.fault_sim import FaultSimulator, ScanTest
from repro.faults.model import Fault, FaultGraph


class TestEval3:
    def test_and_with_x(self):
        assert eval3(GateType.AND, [0, X]) == 0
        assert eval3(GateType.AND, [1, X]) == X
        assert eval3(GateType.AND, [1, 1]) == 1

    def test_or_with_x(self):
        assert eval3(GateType.OR, [1, X]) == 1
        assert eval3(GateType.OR, [0, X]) == X

    def test_xor_with_x(self):
        assert eval3(GateType.XOR, [1, X]) == X
        assert eval3(GateType.XNOR, [0, 0]) == 1

    def test_not_with_x(self):
        assert eval3(GateType.NOT, [X]) == X
        assert eval3(GateType.NOT, [0]) == 1

    def test_consts(self):
        assert eval3(GateType.CONST0, []) == 0
        assert eval3(GateType.CONST1, []) == 1


def redundant_circuit() -> Circuit:
    """z = OR(a, AND(a, b)) == a: the AND output s-a-0 is undetectable."""
    c = Circuit("red")
    c.add_input("a")
    c.add_input("b")
    c.add_output("z")
    c.add_gate("t", GateType.AND, ["a", "b"])
    c.add_gate("z", GateType.OR, ["a", "t"])
    return c


class TestPodem:
    def test_s27_all_collapsed_faults_detectable(self, s27_graph):
        """The real s27 has no redundant faults -- a literature fact."""
        podem = Podem(s27_graph)
        for fault in collapse_faults(s27_graph.circuit):
            res = podem.run(fault)
            assert res.status is PodemStatus.DETECTED, str(fault)

    def test_found_tests_actually_detect(self, s27_graph):
        """Soundness: every PODEM test must detect its fault when
        fault-simulated as a full-scan single-vector test."""
        podem = Podem(s27_graph)
        sim = FaultSimulator(s27_graph)
        for fault in collapse_faults(s27_graph.circuit):
            res = podem.run(fault)
            test = ScanTest(si=res.si_bits, vectors=[res.pi_bits])
            assert fault in sim.simulate([test], [fault]), str(fault)

    def test_redundant_fault_proved_undetectable(self):
        graph = FaultGraph(redundant_circuit())
        podem = Podem(graph)
        res = podem.run(Fault(site="t", value=0))
        assert res.status is PodemStatus.UNDETECTABLE

    def test_detectable_fault_in_redundant_circuit(self):
        graph = FaultGraph(redundant_circuit())
        podem = Podem(graph)
        res = podem.run(Fault(site="z", value=1))
        assert res.status is PodemStatus.DETECTED

    def test_constant_gate_faults(self):
        c = Circuit("const")
        c.add_input("a")
        c.add_output("y")
        c.add_gate("k", GateType.CONST1, [])
        c.add_gate("y", GateType.AND, ["a", "k"])
        graph = FaultGraph(c)
        podem = Podem(graph)
        # k s-a-1 is undetectable (it IS 1); k s-a-0 is detectable.
        assert podem.run(Fault(site="k", value=1)).status is PodemStatus.UNDETECTABLE
        assert podem.run(Fault(site="k", value=0)).status is PodemStatus.DETECTED

    def test_backtrack_limit_aborts(self, medium_synth):
        graph = FaultGraph(medium_synth)
        podem = Podem(graph, backtrack_limit=0)
        statuses = set()
        for fault in collapse_faults(medium_synth)[:40]:
            statuses.add(podem.run(fault).status)
        # With zero backtracks allowed, hard faults abort.
        assert PodemStatus.DETECTED in statuses  # easy ones still work


class TestClassify:
    def test_s27_classification(self, s27):
        cls = classify_faults(s27)
        assert len(cls.detectable) == 32
        assert not cls.undetectable
        assert not cls.aborted

    def test_partition_is_disjoint_and_total(self, tiny_synth):
        faults = collapse_faults(tiny_synth)
        cls = classify_faults(tiny_synth, faults=faults)
        all_out = cls.detectable + cls.undetectable + cls.aborted
        assert sorted(map(str, all_out)) == sorted(map(str, faults))

    def test_undetectable_faults_never_detected(self, tiny_synth):
        """Soundness of redundancy proofs: massive random testing must
        not detect any fault PODEM called undetectable."""
        cls = classify_faults(tiny_synth)
        if not cls.undetectable:
            pytest.skip("this synthetic instance has no redundancy")
        from repro.rpg.prng import make_source

        sim = FaultSimulator(tiny_synth)
        src = make_source(5)
        tests = [
            ScanTest(
                si=src.bits(tiny_synth.num_state_vars),
                vectors=[
                    src.bits(tiny_synth.num_inputs) for _ in range(4)
                ],
            )
            for _ in range(200)
        ]
        hit = sim.simulate_grouped(tests, cls.undetectable)
        assert not hit

    def test_deterministic(self, tiny_synth):
        a = classify_faults(tiny_synth)
        b = classify_faults(tiny_synth)
        assert list(map(str, a.detectable)) == list(map(str, b.detectable))

    def test_zero_random_patterns(self, s27):
        cls = classify_faults(s27, random_patterns=0)
        assert len(cls.detectable) == 32

    def test_summary_format(self, s27):
        text = classify_faults(s27).summary()
        assert "32 detectable" in text


def classification_parts(cls):
    """The three lists in order, plus the PODEM tests, as plain data."""
    return [
        [str(f) for f in cls.detectable],
        [str(f) for f in cls.undetectable],
        [str(f) for f in cls.aborted],
        [[str(f), t["pi"], t["si"]] for f, t in cls.tests.items()],
    ]


#: sha256 of ``classification_parts`` under default arguments.  They
#: were recorded with a separate pattern-parallel simulator, so they pin
#: ``simulate_grouped``'s classification to an independent engine's.
CLASSIFICATION_SHA256 = {
    "s208": "dd89b8d0652f27f9e7d3ba566ea8698c2c7f0f1ea0612f7cc4748b98f5001a0b",
    "s298": "529d6ad88141fa8b987ea63d12e9dd4f6f86f0fbc4859d2b55b14e7404fa8c8e",
    "b01": "febd102f3b16d5cf55c9bd49669ef000f8816b816822ff57921a5a2a5c5dc208",
    "b02": "e083bd35bc41e5358d3b38901d44aee8f061351345ebda6004a7b8f8e898e7af",
}


class TestClassificationLock:
    """Any change to a partition, its order or a PODEM test shows here."""

    @pytest.mark.parametrize("name", list(CLASSIFICATION_SHA256))
    def test_digest(self, name):
        parts = classification_parts(classify_faults(load_circuit(name)))
        digest = hashlib.sha256(json.dumps(parts).encode()).hexdigest()
        assert digest == CLASSIFICATION_SHA256[name]


def reference_classification(circuit, random_patterns, backtrack_limit):
    """``classify_faults``' recipe on the per-test path.

    The same seeded patterns, as single-vector tests (PI bits, then
    flop bits as the scan-in state), and the same PODEM, but every
    fault simulation is :meth:`FaultSimulator.simulate`, one test at a
    time.
    """
    graph = FaultGraph(circuit)
    sim = FaultSimulator(graph)
    n_pi = circuit.num_inputs
    faults = collapse_faults(circuit)
    rng = np.random.Generator(np.random.PCG64(20010618))
    patterns = rng.integers(
        0, 2, size=(random_patterns, n_pi + circuit.num_state_vars), dtype=np.uint8
    ).tolist()
    easy = sim.simulate(
        [ScanTest(si=p[n_pi:], vectors=[p[:n_pi]]) for p in patterns], faults
    )
    detectable = [f for f in faults if f in easy]
    queue = [f for f in faults if f not in easy]
    undetectable, aborted, tests = [], [], []
    podem = Podem(graph, backtrack_limit=backtrack_limit)
    while queue:
        fault = queue.pop(0)
        res = podem.run(fault)
        if res.status is PodemStatus.DETECTED:
            detectable.append(fault)
            tests.append([str(fault), res.pi_bits, res.si_bits])
            also = sim.simulate(
                [ScanTest(si=res.si_bits, vectors=[res.pi_bits])], queue
            )
            detectable.extend(f for f in queue if f in also)
            queue = [f for f in queue if f not in also]
        elif res.status is PodemStatus.UNDETECTABLE:
            undetectable.append(fault)
        else:
            aborted.append(fault)
    return [
        [str(f) for f in detectable],
        [str(f) for f in undetectable],
        [str(f) for f in aborted],
        tests,
    ]


#: Two seeded synthetic circuits with redundancy: under a small
#: backtrack limit both leave faults aborted as well.
SYNTH_A = SyntheticSpec(name="ref-a", n_pi=6, n_po=3, n_ff=5, n_gates=60, seed=3)
SYNTH_B = SyntheticSpec(name="ref-b", n_pi=9, n_po=2, n_ff=8, n_gates=90, seed=17)


class TestClassifyAgainstReference:
    @pytest.mark.parametrize(
        "make, random_patterns, backtrack_limit",
        [
            pytest.param(lambda: load_circuit("s27"), 512, 5000, id="s27"),
            pytest.param(lambda: load_circuit("s27"), 8, 5000, id="s27-8pat"),
            pytest.param(lambda: synthesize(SYNTH_A), 512, 5000, id="synth-a"),
            pytest.param(
                lambda: synthesize(SYNTH_A), 24, 20, id="synth-a-24pat-bt20"
            ),
            pytest.param(
                lambda: synthesize(SYNTH_B), 24, 2, id="synth-b-24pat-bt2"
            ),
        ],
    )
    def test_matches_per_test_recipe(self, make, random_patterns, backtrack_limit):
        circuit = make()
        cls = classify_faults(
            circuit, random_patterns=random_patterns,
            backtrack_limit=backtrack_limit,
        )
        assert classification_parts(cls) == reference_classification(
            circuit, random_patterns, backtrack_limit
        )
