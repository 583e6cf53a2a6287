"""Microbenchmarks of the library's performance-critical components."""

import numpy as np

from repro.atpg.classify import CLASSIFY_MAX_COLS
from repro.bench_circuits import load_circuit
from repro.circuit.library import ALL_ONES
from repro.core.config import BistConfig
from repro.core.limited_scan import build_limited_scan_test_set
from repro.core.test_set import generate_ts0
from repro.faults.collapse import collapse_faults
from repro.faults.fault_sim import FaultSimulator, ScanTest
from repro.faults.model import FaultGraph, generate_faults
from repro.rpg.lfsr import Lfsr
from repro.simulation.compiled import CompiledModel, Injections


def test_compiled_eval_throughput(benchmark):
    """One combinational pass of the s953-shaped circuit, 64 words."""
    circuit = load_circuit("s953")
    model = CompiledModel(circuit)
    vals = model.alloc(64)
    rng = np.random.Generator(np.random.PCG64(1))
    vals[model.pi_idx, :] = rng.integers(
        0, 2**63, size=(len(model.pi_idx), 64), dtype=np.uint64
    )
    benchmark(model.eval, vals)


def _collapsed_entries(graph, faults, n_tests):
    """Injection rows of ``faults`` packed 64 per word, once per test."""
    n_groups = (len(faults) + 63) // 64
    one = np.array(
        [
            graph.injection_entry(f, pos // 64, pos % 64)
            for pos, f in enumerate(faults)
        ],
        dtype=np.intp,
    )
    return np.concatenate([one + [0, t * n_groups, 0, 0] for t in range(n_tests)])


def test_compiled_eval_s1423_wide_injected(benchmark):
    """One s1423 pass at 3552 columns -- the width a batched Procedure 2
    pass on s1423 runs -- with the collapsed fault list injected into
    every block of fault words."""
    circuit = load_circuit("s1423")
    graph = FaultGraph(circuit)
    model = graph.model
    faults = collapse_faults(circuit)
    n_cols = 3552
    n_tests = n_cols // ((len(faults) + 63) // 64)
    inj = Injections.build(
        _collapsed_entries(graph, faults, n_tests), model.level_of_signal
    )
    vals = model.alloc(n_cols)
    rng = np.random.Generator(np.random.PCG64(1))
    free = np.concatenate([model.pi_idx, model.q_idx])
    vals[free, :] = rng.integers(
        0, 2**64, size=(len(free), n_cols), dtype=np.uint64
    )
    benchmark(model.eval, vals, inj)


def test_injection_build_s13207(benchmark):
    """``Injections.build`` from the s13207 collapsed list at two tests."""
    circuit = load_circuit("s13207")
    graph = FaultGraph(circuit)
    entries = _collapsed_entries(graph, collapse_faults(circuit), 2)
    benchmark(Injections.build, entries, graph.model.level_of_signal)


def test_fault_graph_build(benchmark):
    circuit = load_circuit("s953")
    benchmark(FaultGraph, circuit)


def test_fault_collapse(benchmark):
    circuit = load_circuit("s953")
    benchmark(collapse_faults, circuit)


def test_grouped_fault_sim_ts0(benchmark):
    """Fault-simulate a whole TS0 against the collapsed fault list."""
    circuit = load_circuit("s298")
    sim = FaultSimulator(circuit)
    faults = collapse_faults(circuit)
    cfg = BistConfig(la=8, lb=16, n=64)
    ts0 = generate_ts0(circuit, cfg)
    benchmark.pedantic(
        lambda: sim.simulate_grouped(ts0, faults), rounds=2, iterations=1
    )


def test_grouped_fault_sim_with_schedules(benchmark):
    circuit = load_circuit("s298")
    sim = FaultSimulator(circuit)
    faults = collapse_faults(circuit)
    cfg = BistConfig(la=8, lb=16, n=64)
    ts0 = generate_ts0(circuit, cfg)
    ts = build_limited_scan_test_set(ts0, 1, 1, cfg, circuit.num_state_vars)
    benchmark.pedantic(
        lambda: sim.simulate_grouped(ts, faults), rounds=2, iterations=1
    )


def _single_vector_tests(circuit, n_patterns):
    """Random full-scan patterns as ``classify_faults`` simulates them:
    PI bits as the one vector, flop bits as the scan-in state."""
    n_pi = circuit.num_inputs
    rng = np.random.Generator(np.random.PCG64(3))
    patterns = rng.integers(
        0, 2, size=(n_patterns, n_pi + circuit.num_state_vars), dtype=np.uint8
    ).tolist()
    return [ScanTest(si=p[n_pi:], vectors=[p[:n_pi]]) for p in patterns]


def test_classify_random_phase_s298(benchmark):
    """``classify_faults``' random phase on s298: 512 single-vector tests
    against the collapsed list."""
    circuit = load_circuit("s298")
    sim = FaultSimulator(circuit)
    faults = collapse_faults(circuit)
    tests = _single_vector_tests(circuit, 512)
    benchmark.pedantic(
        lambda: sim.simulate_grouped(tests, faults, max_cols=CLASSIFY_MAX_COLS),
        rounds=2,
        iterations=1,
    )


def test_classify_cross_simulation_s1423(benchmark):
    """One single-vector test against s1423's collapsed list, as
    ``classify_faults`` cross-simulates each PODEM test."""
    circuit = load_circuit("s1423")
    sim = FaultSimulator(circuit)
    faults = collapse_faults(circuit)
    tests = _single_vector_tests(circuit, 1)
    benchmark.pedantic(
        lambda: sim.simulate_grouped(tests, faults, max_cols=CLASSIFY_MAX_COLS),
        rounds=2,
        iterations=1,
    )


def test_lfsr_bit_rate(benchmark):
    lfsr = Lfsr(32, seed=0xDEADBEEF)
    benchmark(lfsr.bits, 10_000)


def test_podem_s27_full_fault_list(benchmark):
    from repro.atpg.podem import Podem

    graph = FaultGraph(load_circuit("s27"))
    faults = collapse_faults(graph.circuit)

    def run_all():
        podem = Podem(graph)
        return [podem.run(f).status for f in faults]

    statuses = benchmark.pedantic(run_all, rounds=2, iterations=1)
    assert len(statuses) == 32
