"""Fault detectability classification.

Two phases, the standard recipe:

1. **Random phase** -- a batch of random full-scan patterns knocks out
   the easily detectable majority cheaply.
2. **Deterministic phase** -- PODEM targets each remaining fault and
   either produces a test (detectable), proves redundancy
   (undetectable), or gives up at the backtrack limit (aborted).

Both phases fault-simulate on the one stuck-at engine,
:meth:`~repro.faults.fault_sim.FaultSimulator.simulate_grouped`.  Under
full scan a combinational pattern is a single-vector
:class:`~repro.faults.fault_sim.ScanTest` -- the PI bits are its one
vector and the flop bits its scan-in state -- and that test observes
the POs and, at scan-out, every flop's D net: the combinational
expansion's observation points.

The paper's Procedure 2 terminates at "100% fault coverage", which for
every benchmark it reports means *all detectable faults*; this module
supplies that target set.  Aborted faults are conservatively treated as
detectable by callers that want a guaranteed-sound target (they may then
fail to reach 100%, which is reported, never hidden).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Union

import numpy as np

from repro.circuit.netlist import Circuit
from repro.faults.collapse import collapse_faults
from repro.faults.fault_sim import FaultSimulator, ScanTest
from repro.faults.model import Fault, FaultGraph
from repro.atpg.podem import Podem, PodemStatus

#: Column budget (``patterns x fault words``) of classification's
#: grouped passes: it bounds the value matrix, the pass's largest
#: allocation.  The random phase against the engine's default of 4096,
#: on a 2-vCPU host: as fast on s298, s1196, s1423 and s5378; on s13207
#: 11.1 s against 8.7 s (four times the chunks, the same evaluation
#: time).  Peak RSS 134 against 389 MB on s5378, 296 against 950 MB on
#: s13207.
CLASSIFY_MAX_COLS = 1024


@dataclass
class Classification:
    """Partition of a fault list by detectability."""

    detectable: List[Fault] = field(default_factory=list)
    undetectable: List[Fault] = field(default_factory=list)
    aborted: List[Fault] = field(default_factory=list)
    #: PODEM-found tests for deterministic-phase faults (debug/validation).
    tests: Dict[Fault, Dict[str, List[int]]] = field(default_factory=dict)

    @property
    def target_faults(self) -> List[Fault]:
        """The faults Procedure 2 must detect for "100% fault coverage"."""
        return list(self.detectable)

    @property
    def num_total(self) -> int:
        return len(self.detectable) + len(self.undetectable) + len(self.aborted)

    def summary(self) -> str:
        return (
            f"{self.num_total} faults: {len(self.detectable)} detectable, "
            f"{len(self.undetectable)} undetectable, {len(self.aborted)} aborted"
        )


def classify_faults(
    circuit_or_graph: Union[Circuit, FaultGraph],
    faults: Optional[Sequence[Fault]] = None,
    random_patterns: int = 512,
    seed: int = 20010618,
    backtrack_limit: int = 5000,
) -> Classification:
    """Classify ``faults`` (default: the collapsed universe).

    The random-phase pattern count and seed are part of the reproducible
    configuration: the same arguments always produce the same partition.
    """
    if isinstance(circuit_or_graph, FaultGraph):
        graph = circuit_or_graph
    else:
        graph = FaultGraph(circuit_or_graph)
    if faults is None:
        faults = collapse_faults(graph.circuit)

    sim = FaultSimulator(graph)
    n_pi = len(graph.model.pi_idx)
    result = Classification()
    remaining = list(faults)

    if random_patterns > 0 and remaining:
        rng = np.random.Generator(np.random.PCG64(seed))
        patterns = rng.integers(
            0, 2, size=(random_patterns, n_pi + sim.chain_length), dtype=np.uint8
        ).tolist()
        easy = sim.simulate_grouped(
            [ScanTest(si=p[n_pi:], vectors=[p[:n_pi]]) for p in patterns],
            remaining,
            max_cols=CLASSIFY_MAX_COLS,
        )
        result.detectable.extend(f for f in remaining if f in easy)
        remaining = [f for f in remaining if f not in easy]

    podem = Podem(graph, backtrack_limit=backtrack_limit)
    queue = list(remaining)
    while queue:
        fault = queue.pop(0)
        res = podem.run(fault)
        if res.status is PodemStatus.DETECTED:
            result.detectable.append(fault)
            result.tests[fault] = {"pi": res.pi_bits, "si": res.si_bits}
            if queue:
                # Cross-simulate the found test against the rest of the
                # queue: one PODEM test typically detects many faults,
                # which collapses the deterministic phase.
                also = sim.simulate_grouped(
                    [ScanTest(si=res.si_bits, vectors=[res.pi_bits])],
                    queue,
                    max_cols=CLASSIFY_MAX_COLS,
                )
                if also:
                    result.detectable.extend(f for f in queue if f in also)
                    queue = [f for f in queue if f not in also]
        elif res.status is PodemStatus.UNDETECTABLE:
            result.undetectable.append(fault)
        else:
            result.aborted.append(fault)
    return result
