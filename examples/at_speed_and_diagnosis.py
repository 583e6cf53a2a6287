"""At-speed transition-fault testing, MISR compaction, and diagnosis.

Three extensions layered on the paper's scheme, end to end:

1. **Transition faults** -- the reason the paper insists on multi-vector
   at-speed sequences: single-vector full-scan tests detect *zero*
   transition faults (no consecutive at-speed cycles to launch one),
   while the paper's multi-vector tests detect 281 of s298's 634.
2. **MISR signatures** -- a real BIST datapath compacts responses into a
   signature instead of comparing every output; we show the good/faulty
   signatures separating.
3. **Fault diagnosis** -- the same fault simulator builds a pass/fail
   dictionary, and a simulated defective device is diagnosed back to its
   injected fault.

Run:  python examples/at_speed_and_diagnosis.py [circuit-name]
"""

import sys

from repro import load_circuit
from repro.core.config import BistConfig
from repro.core.test_set import generate_ts0
from repro.faults import (
    FaultSimulator,
    TransitionFaultSimulator,
    build_dictionary,
    collapse_faults,
    diagnose,
    generate_transition_faults,
)
from repro.faults.dictionary import simulate_defect
from repro.faults.model import FaultGraph
from repro.rpg.misr import signature_of_trace
from repro.simulation.compiled import Injections
from repro.simulation.sequential import simulate_test


def transition_demo(circuit) -> None:
    print("== transition (at-speed) faults ==")
    sim = TransitionFaultSimulator(circuit)
    faults = generate_transition_faults(circuit)
    cfg = BistConfig(la=8, lb=16, n=32)
    multi = generate_ts0(circuit, cfg)
    # Same functional-cycle budget, single-vector tests.
    from repro.faults.fault_sim import ScanTest
    from repro.rpg.prng import make_source

    src = make_source(cfg.base_seed)
    total_cycles = sum(t.length for t in multi)
    single = [
        ScanTest(
            si=src.bits(circuit.num_state_vars),
            vectors=[src.bits(circuit.num_inputs)],
        )
        for _ in range(total_cycles)
    ]
    d_multi = sim.simulate(multi, faults)
    d_single = sim.simulate(single, faults)
    print(f"  {len(faults)} transition faults")
    print(f"  multi-vector (at-speed) tests: {len(d_multi)} detected")
    print(f"  single-vector tests (same cycle count): {len(d_single)} detected")


def misr_demo(circuit) -> None:
    print("\n== MISR signature compaction ==")
    graph = FaultGraph(circuit)
    cfg = BistConfig(la=8, lb=16, n=4)
    test = generate_ts0(circuit, cfg)[0]
    good = simulate_test(graph.model, test.si, test.vectors)
    good_sig = signature_of_trace(good)
    print(f"  fault-free signature: 0x{good_sig:08x}")
    shown = 0
    for fault in collapse_faults(circuit):
        inj = Injections.build_whole_word(
            [(graph.signal_of(fault), 0, fault.value)],
            graph.model.level_of_signal,
        )
        bad = simulate_test(
            graph.model, test.si, test.vectors, injections=inj
        )
        bad_sig = signature_of_trace(bad)
        if bad_sig != good_sig and shown < 3:
            print(f"  {str(fault):<24} signature 0x{bad_sig:08x}  (FAIL)")
            shown += 1
    print("  (any observable difference perturbs the signature; aliasing "
          "probability ~ 2^-32)")


def diagnosis_demo(circuit) -> None:
    print("\n== cause-effect diagnosis ==")
    faults = collapse_faults(circuit)
    cfg = BistConfig(la=6, lb=12, n=8)
    tests = generate_ts0(circuit, cfg)[:16]
    dictionary = build_dictionary(circuit, tests, faults)
    print(f"  dictionary: {len(faults)} faults x {dictionary.num_tests} tests, "
          f"diagnostic resolution {dictionary.diagnostic_resolution():.0%}")
    # Simulate a defective device with a known fault and diagnose it.
    defect = next(f for f in faults if any(dictionary.signatures[f]))
    observed = simulate_defect(dictionary, defect)
    ranked = diagnose(dictionary, observed, top_k=3)
    print(f"  injected defect: {defect}")
    for i, cand in enumerate(ranked, 1):
        mark = " <= correct" if cand.fault == defect else ""
        print(f"  rank {i}: {str(cand.fault):<24} "
              f"explains {cand.explained} failing tests{mark}")


def main() -> None:
    name = sys.argv[1] if len(sys.argv) > 1 else "s298"
    circuit = load_circuit(name)
    transition_demo(circuit)
    misr_demo(circuit)
    diagnosis_demo(circuit)


if __name__ == "__main__":
    main()
