"""Transition (gross-delay) fault simulation.

The whole point of the paper's multi-vector tests is *at-speed* testing:
vectors applied on consecutive functional clocks exercise delay defects
that single-vector full-scan tests cannot.  This module adds the standard
transition fault model on top of the stuck-at machinery:

- a **slow-to-rise** fault on net ``n`` makes ``n`` present the old value
  0 for one cycle whenever it should rise; **slow-to-fall** dually;
- a test detects the fault iff some functional cycle *launches* the
  transition (fault-free value flips into the faulty polarity's initial
  value at cycle ``u-1`` and flips away at ``u``) and the resulting
  one-cycle stuck value propagates to an observation point -- at the
  primary outputs of cycle ``u`` or, through the captured state, to any
  later observation (state taps, limited-scan-out bits, final scan-out).

Launch conditions are evaluated on the fault-free machine (the classical
two-frame approximation); once launched, the fault effect propagates
through the faulty machine's state like any stuck-at effect, so
*multi-cycle* tests genuinely detect more transition faults than
single-vector ones -- exactly the paper's motivation.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Union

import numpy as np

from repro.circuit.netlist import Circuit
from repro.faults.fault_sim import (
    DetectionRecord,
    FaultSimulator,
    ObservationPolicy,
    ScanTest,
)
from repro.faults.model import Fault, FaultGraph

RISE = "rise"
FALL = "fall"


@dataclass(frozen=True)
class TransitionFault:
    """A slow-to-rise or slow-to-fall fault on a net (stem or branch)."""

    site: str
    edge: str  # RISE or FALL
    consumer: Optional[str] = None
    pin: Optional[int] = None

    def __post_init__(self) -> None:
        if self.edge not in (RISE, FALL):
            raise ValueError(f"edge must be 'rise' or 'fall', got {self.edge}")

    @property
    def stuck_value(self) -> int:
        """The value the net is stuck at during the launch cycle."""
        return 0 if self.edge == RISE else 1

    def as_stuck_at(self) -> Fault:
        """The stuck-at fault injected while the transition is late."""
        return Fault(
            site=self.site,
            value=self.stuck_value,
            consumer=self.consumer,
            pin=self.pin,
        )

    def __str__(self) -> str:
        kind = "slow-to-rise" if self.edge == RISE else "slow-to-fall"
        if self.consumer is not None:
            return f"{self.site}->{self.consumer}.{self.pin} {kind}"
        return f"{self.site} {kind}"


def generate_transition_faults(circuit: Circuit) -> List[TransitionFault]:
    """Both transition faults on every stem (branch sites are included
    for nets with fanout, mirroring the stuck-at universe)."""
    from repro.faults.model import generate_faults

    faults: List[TransitionFault] = []
    seen = set()
    for f in generate_faults(circuit):
        key = (f.site, f.consumer, f.pin)
        if key in seen:
            continue
        seen.add(key)
        for edge in (RISE, FALL):
            faults.append(
                TransitionFault(
                    site=f.site, edge=edge, consumer=f.consumer, pin=f.pin
                )
            )
    return faults


class TransitionFaultSimulator:
    """Parallel transition-fault simulation for full-scan tests.

    Runs the stuck-at simulator's per-test loop, 64 faults per word.
    Per functional cycle, each fault's stuck value is injected only if
    the fault-free machine launches the transition at that cycle; the
    injected effect then propagates through the faulty machine's
    captured state to every observation point of the policy, state
    taps included.
    """

    def __init__(self, circuit_or_graph: Union[Circuit, FaultGraph]) -> None:
        # Held, not inherited: the stuck-at simulator's batched entry
        # points (simulate_grouped, simulate_candidates) inject at every
        # time unit and have no transition counterpart.
        self._engine = FaultSimulator(circuit_or_graph)
        self.graph = self._engine.graph
        self.model = self._engine.model

    def simulate(
        self,
        tests: Sequence[ScanTest],
        faults: Sequence[TransitionFault],
        policy: Optional[ObservationPolicy] = None,
    ) -> Dict[TransitionFault, DetectionRecord]:
        """Simulate ``tests`` in order with fault dropping; a record for
        every detected fault, as :meth:`FaultSimulator.simulate`."""
        faults = list(faults)
        signal_of = self.graph.signal_of
        sig = np.array([signal_of(f.as_stuck_at()) for f in faults], dtype=np.intp)
        value = np.array([f.stuck_value for f in faults], dtype=np.intp)
        return self._engine._simulate_tests(
            tests, faults, sig, value, policy, launch_only=True
        )
