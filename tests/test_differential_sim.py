"""Differential testing of the three fault-simulation paths.

Seeded random circuits and random limited-scan schedules are simulated
through

1. the compiled per-test fault simulator (``simulate``, the serial
   reference),
2. grouped simulation (``simulate_grouped``), which runs on the batched
   candidate kernel shared with the worker pool, and
3. a scalar oracle built on the event-driven simulator, which shares no
   evaluation code with the compiled engine: each fault becomes a
   *mutated circuit* (the faulty net's driver replaced by a constant
   generator) or a forced input/state bit, and detection is any
   difference in the observation stream (PO values per time unit, bits
   leaving during limited scans, the final scan-out).

All three must report the identical detection set on every case.  The
oracle is the only check on the batched kernel that shares no code with
it.
"""

from __future__ import annotations

from typing import List, Optional, Tuple

import pytest

from repro.bench_circuits.synthetic import SyntheticSpec, synthesize
from repro.circuit.library import GateType
from repro.circuit.netlist import Circuit
from repro.faults.collapse import collapse_faults
from repro.faults.fault_sim import FaultSimulator, ScanTest
from repro.faults.model import Fault, FaultGraph
from repro.rpg.prng import make_source
from repro.simulation.event_sim import EventSimulator


class EventSimFaultOracle:
    """Scalar stuck-at fault simulation through the event-driven engine.

    Works on the fault graph's rewritten circuit (two-input gates,
    explicit fanout branches), where every fault is an output stuck-at on
    one net.  Faults on gate outputs are modelled structurally by
    replacing the driver with CONST0/CONST1; faults on primary inputs or
    flop outputs are modelled by forcing the driven bit (the flop's
    latched/scanned value stays uncorrupted, matching the compiled
    simulator's semantics).
    """

    def __init__(self, graph: FaultGraph) -> None:
        self.graph = graph
        self.circuit = graph.sim_circuit
        self.n_sv = self.circuit.num_state_vars

    def _mutated(self, net: str, value: int) -> Circuit:
        const = GateType.CONST1 if value else GateType.CONST0
        out = Circuit(self.circuit.name + "_mut")
        for pi in self.circuit.inputs:
            out.add_input(pi)
        for po in self.circuit.outputs:
            out.add_output(po)
        for gate in self.circuit.iter_gates():
            if gate.output == net:
                out.add_gate(net, const, ())
            else:
                out.add_gate(gate.output, gate.gtype, gate.inputs)
        for flop in self.circuit.flops:
            out.add_flop(flop.q, flop.d)
        return out

    def observations(
        self, test: ScanTest, fault: Optional[Fault] = None
    ) -> List[int]:
        """The flat observation stream of one (possibly faulty) machine."""
        circuit = self.circuit
        force_pi: Optional[Tuple[int, int]] = None
        force_q: Optional[Tuple[int, int]] = None
        if fault is not None:
            net = self.graph.net_of(fault)
            if circuit.gate_for(net) is not None:
                circuit = self._mutated(net, fault.value)
            elif circuit.is_input(net):
                force_pi = (circuit.inputs.index(net), fault.value)
            else:
                force_q = (circuit.state_vars.index(net), fault.value)

        sim = EventSimulator(circuit)
        state = list(test.si)  # true state; position 0 = scan-in end
        obs: List[int] = []
        first = True
        for u, vector in enumerate(test.vectors):
            k, fill = test.step(u)
            if k > 0:
                # Shift cycle j observes the bit that started at
                # position n_sv - 1 - j; fill enters on the left, first
                # bit travelling deepest.
                obs.extend(state[self.n_sv - 1 - j] for j in range(k))
                state = list(fill[::-1]) + state[: self.n_sv - k]
            drive_state = list(state)
            if force_q is not None:
                drive_state[force_q[0]] = force_q[1]
            bits = list(vector)
            if force_pi is not None:
                bits[force_pi[0]] = force_pi[1]
            if first:
                sim.initialize(bits, drive_state)
                first = False
            else:
                sim.set_inputs(
                    dict(
                        zip(
                            circuit.inputs + circuit.state_vars,
                            bits + drive_state,
                        )
                    )
                )
            obs.extend(sim.output_bits())
            state = sim.next_state_bits()
        obs.extend(state)  # final scan-out (full scan)
        return obs

    def detected(self, tests: List[ScanTest], faults: List[Fault]) -> set:
        references = [self.observations(t) for t in tests]
        hits = set()
        for fault in faults:
            for test, ref in zip(tests, references):
                if self.observations(test, fault) != ref:
                    hits.add(fault)
                    break
        return hits


def random_tests(circuit: Circuit, seed: int, n_tests: int = 3) -> List[ScanTest]:
    """Random tests with random limited-scan schedules (k = 0..N_SV)."""
    src = make_source(seed)
    n_sv = circuit.num_state_vars
    tests = []
    for _ in range(n_tests):
        length = 3 + src.mod_draw(3)
        schedule = [(0, ())]
        for _u in range(1, length):
            k = src.mod_draw(n_sv + 1)
            schedule.append((k, tuple(src.bits(k))))
        tests.append(
            ScanTest(
                si=src.bits(n_sv),
                vectors=[src.bits(circuit.num_inputs) for _ in range(length)],
                schedule=schedule,
            )
        )
    return tests


def random_case(seed: int) -> Tuple[Circuit, List[ScanTest]]:
    circuit = synthesize(
        SyntheticSpec(
            name=f"diff{seed}",
            n_pi=3 + seed % 3,
            n_po=2,
            n_ff=3 + seed % 2,
            n_gates=22 + seed % 7,
            seed=1000 + seed,
        )
    )
    return circuit, random_tests(circuit, seed=seed * 7 + 1)


@pytest.mark.parametrize("seed", range(20))
def test_three_way_detection_sets_identical(seed):
    """compiled per-test == grouped == event-sim oracle."""
    circuit, tests = random_case(seed)
    graph = FaultGraph(circuit)
    faults = collapse_faults(circuit)
    sim = FaultSimulator(graph)

    compiled = set(sim.simulate(tests, faults))
    oracle = EventSimFaultOracle(graph).detected(tests, faults)

    assert oracle == compiled
    assert set(sim.simulate_grouped(tests, faults)) == oracle


def test_oracle_catches_an_injected_discrepancy():
    """The harness is not vacuous: corrupting one schedule changes the
    oracle's observation stream."""
    circuit, tests = random_case(3)
    oracle = EventSimFaultOracle(FaultGraph(circuit))
    baseline = oracle.observations(tests[0])
    corrupted = ScanTest(
        si=list(tests[0].si),
        vectors=[list(v) for v in tests[0].vectors],
        schedule=[(0, ())] * tests[0].length,
    )
    # With every limited scan stripped, some case must differ; pick a
    # test whose schedule actually shifts.
    shifted = [t for t in tests if t.total_shift_cycles > 0]
    if shifted:
        t = shifted[0]
        stripped = ScanTest(
            si=list(t.si),
            vectors=[list(v) for v in t.vectors],
            schedule=[(0, ())] * t.length,
        )
        assert oracle.observations(stripped) != oracle.observations(t)
    else:  # pragma: no cover - seeds above guarantee shifts
        assert baseline == oracle.observations(corrupted)


# ----------------------------------------------------------------------
# Persistent-pool differential suite: the batched candidate evaluator
# (in-process and sharded across the worker pool) must reproduce the
# serial ``simulate_grouped`` result -- same detections, same insertion
# order -- on every seeded case.
# ----------------------------------------------------------------------
import dataclasses
import json

from repro.core.config import BistConfig
from repro.core.limited_scan import build_limited_scan_test_set
from repro.core.procedure2 import run_procedure2
from repro.core.test_set import generate_ts0
from repro.experiments.serialize import result_to_dict
from repro.faults.pool import CandidateEvaluator


def _pool_case(seed: int):
    circuit = synthesize(
        SyntheticSpec(
            name=f"pooldiff{seed}",
            n_pi=3 + seed % 3,
            n_po=2,
            n_ff=3 + seed % 2,
            n_gates=22 + seed % 7,
            seed=2000 + seed,
        )
    )
    cfg = BistConfig(la=4, lb=8, n=4)
    ts0 = generate_ts0(circuit, cfg)
    faults = collapse_faults(circuit)
    return circuit, cfg, ts0, faults


@pytest.mark.parametrize("seed", range(20))
def test_pool_vs_serial_vs_sharded_identical(seed, pool_submits):
    """Candidate tables from the fault-sharded pool evaluator == serial."""
    circuit, cfg, ts0, faults = _pool_case(seed)
    sim = FaultSimulator(circuit)
    n_sv = circuit.num_state_vars
    specs = [(0, None)] + [(1, d1) for d1 in cfg.d1_values[:3]]
    built = {
        spec: (
            ts0 if spec[1] is None
            else build_limited_scan_test_set(ts0, spec[0], spec[1], cfg, n_sv)
        )
        for spec in specs
    }

    serial = {
        spec: sim.simulate_grouped(tests, faults)
        for spec, tests in built.items()
    }

    pooled_cfg = dataclasses.replace(
        cfg, n_jobs=2, pool="persistent", candidate_batch=len(specs)
    )
    evaluator = CandidateEvaluator(
        sim, ts0, pooled_cfg, n_sv, None,
        n_jobs=2, targets=faults, shards=2,
    )
    try:
        every = list(range(len(faults)))
        tables = evaluator.evaluate_specs(specs, every)
        assert pool_submits.count > 0 and not evaluator.degradation.degraded
        for spec, table in zip(specs, tables):
            hits = table.hits_for(every)
            # Content AND insertion order must match the serial call,
            # with faults named by their position in the targets.
            assert [(faults[p], rec) for p, rec in hits.items()] == list(
                serial[spec].items()
            )
    finally:
        evaluator.close()


class TestProcedure2PoolByteIdentity:
    """Full Procedure 2 byte-identity across the n_jobs x batch grid.

    The pooled runs split every dispatch into two pool shards.
    """

    CFG = BistConfig(la=4, lb=8, n=16, n_same_fc=2, max_iterations=6)
    GRID = [(1, 1), (1, 8), (2, 1), (2, 8), (4, 1), (4, 8)]

    def _run(self, circuit, faults, cfg, checkpoint=None):
        result = run_procedure2(circuit, cfg, faults, checkpoint=checkpoint)
        assert result.degradation is None  # no shard needed a rescue
        return json.dumps(result_to_dict(result), sort_keys=True)

    def test_result_blob_identical_across_grid(
        self, medium_synth, two_shards, pool_submits
    ):
        faults = collapse_faults(medium_synth)
        baseline = self._run(medium_synth, faults, self.CFG)
        for jobs, batch in self.GRID:
            cfg = dataclasses.replace(
                self.CFG, n_jobs=jobs, pool="persistent",
                candidate_batch=batch,
            )
            submitted = pool_submits.count
            assert self._run(medium_synth, faults, cfg) == baseline, (
                f"n_jobs={jobs} candidate_batch={batch} diverged"
            )
            assert (pool_submits.count > submitted) == (jobs > 1)

    def test_journal_bytes_identical_across_grid(
        self, medium_synth, tmp_path, two_shards, pool_submits
    ):
        faults = collapse_faults(medium_synth)
        ref_path = tmp_path / "serial.jsonl"
        self._run(medium_synth, faults, self.CFG, checkpoint=str(ref_path))
        reference = ref_path.read_bytes()
        for jobs, batch in [(2, 8), (4, 1), (4, 8)]:
            path = tmp_path / f"pool_{jobs}_{batch}.jsonl"
            cfg = dataclasses.replace(
                self.CFG, n_jobs=jobs, pool="persistent",
                candidate_batch=batch,
            )
            submitted = pool_submits.count
            self._run(medium_synth, faults, cfg, checkpoint=str(path))
            assert pool_submits.count > submitted
            assert path.read_bytes() == reference, (
                f"journal diverged at n_jobs={jobs} batch={batch}"
            )

    def test_sharded_pool_is_rejected(self):
        # The per-dispatch sharded executor is gone; the persistent pool
        # is the only parallel back end.
        with pytest.raises(ValueError, match="persistent"):
            dataclasses.replace(self.CFG, n_jobs=2, pool="sharded")
