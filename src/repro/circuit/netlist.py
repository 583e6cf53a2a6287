"""Netlist container for full-scan sequential circuits.

A :class:`Circuit` is a synchronous sequential circuit in the ISCAS-89
style: named nets, primary inputs/outputs, combinational gates, and D
flip-flops.  The flip-flop declaration order defines the scan-chain order
used throughout the library (index 0 is the scan-in / "left" end, the last
index is the scan-out / "right" end, matching the paper's right-shift
convention).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Iterable, Iterator, List, Optional, Tuple

import numpy as np

from repro.circuit.library import CODE_GATE, GATE_CODE, GateType


@dataclass(frozen=True)
class Gate:
    """A combinational gate: ``output = gtype(inputs...)``."""

    output: str
    gtype: GateType
    inputs: Tuple[str, ...]

    def __post_init__(self) -> None:
        n = len(self.inputs)
        if n < self.gtype.min_arity or n > self.gtype.max_arity:
            raise ValueError(
                f"gate {self.output}: {self.gtype.value} with {n} inputs"
            )


@dataclass(frozen=True)
class Flop:
    """A D flip-flop: state variable ``q`` latches net ``d`` each cycle."""

    q: str
    d: str


class Circuit:
    """A full-scan sequential circuit.

    Nets are identified by name.  Every net is driven by exactly one of:
    a primary input, a gate, or a flip-flop output (``q``).  The class
    enforces single drivers at construction time; deeper structural checks
    (undriven nets, combinational cycles) live in
    :mod:`repro.circuit.validate`.
    """

    def __init__(self, name: str = "circuit") -> None:
        self.name = name
        self._inputs: List[str] = []
        self._outputs: List[str] = []
        self._gates: Dict[str, Gate] = {}
        self._flops: List[Flop] = []
        self._flop_by_q: Dict[str, Flop] = {}

    # ------------------------------------------------------------------
    # Construction
    # ------------------------------------------------------------------
    def add_input(self, name: str) -> None:
        self._check_new_driver(name)
        self._inputs.append(name)

    def add_output(self, name: str) -> None:
        if name in self._outputs:
            raise ValueError(f"duplicate output declaration: {name}")
        self._outputs.append(name)

    def add_gate(self, output: str, gtype: GateType, inputs: Iterable[str]) -> Gate:
        gate = Gate(output=output, gtype=gtype, inputs=tuple(inputs))
        self._check_new_driver(output)
        self._gates[output] = gate
        return gate

    def add_flop(self, q: str, d: str) -> Flop:
        self._check_new_driver(q)
        flop = Flop(q=q, d=d)
        self._flops.append(flop)
        self._flop_by_q[q] = flop
        return flop

    def _check_new_driver(self, name: str) -> None:
        if name in self._gates or name in self._flop_by_q or name in self._inputs:
            raise ValueError(f"net {name} already has a driver")

    # ------------------------------------------------------------------
    # Accessors
    # ------------------------------------------------------------------
    @property
    def inputs(self) -> List[str]:
        """Primary input nets, in declaration order."""
        return list(self._inputs)

    @property
    def outputs(self) -> List[str]:
        """Primary output nets, in declaration order."""
        return list(self._outputs)

    @property
    def flops(self) -> List[Flop]:
        """Flip-flops in scan-chain order (index 0 = scan-in end)."""
        return list(self._flops)

    @property
    def gates(self) -> List[Gate]:
        """All combinational gates (insertion order)."""
        return list(self._gates.values())

    @property
    def num_inputs(self) -> int:
        return len(self._inputs)

    @property
    def num_outputs(self) -> int:
        return len(self._outputs)

    @property
    def num_state_vars(self) -> int:
        """The paper's ``N_SV``: number of scanned flip-flops."""
        return len(self._flops)

    @property
    def num_gates(self) -> int:
        return len(self._gates)

    @property
    def state_vars(self) -> List[str]:
        """Flip-flop output nets in scan-chain order."""
        return [f.q for f in self._flops]

    @property
    def next_state_nets(self) -> List[str]:
        """Flip-flop input (D) nets in scan-chain order."""
        return [f.d for f in self._flops]

    def gate_for(self, net: str) -> Optional[Gate]:
        """The gate driving ``net``, or None if it is a PI or flop output."""
        return self._gates.get(net)

    def flop_for(self, q: str) -> Optional[Flop]:
        return self._flop_by_q.get(q)

    def is_input(self, net: str) -> bool:
        return net in self._input_set()

    def is_state_var(self, net: str) -> bool:
        return net in self._flop_by_q

    def _input_set(self) -> set:
        # Small circuits dominate; recompute rather than cache+invalidate.
        return set(self._inputs)

    def signals(self) -> List[str]:
        """All driven nets: PIs, flop outputs, then gate outputs."""
        return self._inputs + [f.q for f in self._flops] + list(self._gates)

    def iter_gates(self) -> Iterator[Gate]:
        return iter(self._gates.values())

    def fanout_map(self) -> Dict[str, List[Tuple[str, int]]]:
        """Map each net to the (consumer, pin-index) pairs reading it.

        Flip-flop D connections are reported with the flop's ``q`` name as
        the consumer and pin index 0.  Primary outputs are not consumers.
        """
        fan: Dict[str, List[Tuple[str, int]]] = {s: [] for s in self.signals()}
        for gate in self._gates.values():
            for pin, src in enumerate(gate.inputs):
                fan.setdefault(src, []).append((gate.output, pin))
        for flop in self._flops:
            fan.setdefault(flop.d, []).append((flop.q, 0))
        return fan

    def copy(self, name: Optional[str] = None) -> "Circuit":
        """Structural deep copy (gates/flops are immutable, lists rebuilt)."""
        out = Circuit(name or self.name)
        out._inputs = list(self._inputs)
        out._outputs = list(self._outputs)
        out._gates = dict(self._gates)
        out._flops = list(self._flops)
        out._flop_by_q = dict(self._flop_by_q)
        return out

    def reorder_scan_chain(self, order: List[str]) -> "Circuit":
        """Return a copy with the scan chain reordered to ``order``.

        ``order`` must be a permutation of the current state variables.
        """
        if sorted(order) != sorted(self.state_vars):
            raise ValueError("scan order must be a permutation of state vars")
        out = self.copy()
        out._flops = [self._flop_by_q[q] for q in order]
        out._flop_by_q = {f.q: f for f in out._flops}
        return out

    def structurally_equal(self, other: "Circuit") -> bool:
        """True if both circuits have identical structure.

        Compares interface order (PIs, POs), scan-chain order (flops,
        including D connections), and the gate map (type + ordered
        inputs per output).  Names are compared exactly; the circuit
        ``name`` itself is ignored.  This is the round-trip oracle's
        definition of "the same circuit".
        """
        return (
            self._inputs == other._inputs
            and self._outputs == other._outputs
            and self._flops == other._flops
            and self._gates == other._gates
        )

    def to_arrays(self) -> "NetlistArrays":
        """Lower to the struct-of-arrays form (see :class:`NetlistArrays`).

        Raises ``KeyError`` if a gate fan-in, flop D pin, or primary
        output references an undriven net -- the array form indexes nets
        by driver, so every referenced net must have one.
        """
        names = self.signals()
        index = {name: i for i, name in enumerate(names)}
        n_gates = len(self._gates)
        gate_type = np.empty(n_gates, dtype=np.int32)
        fanin_offset = np.zeros(n_gates + 1, dtype=np.int32)
        fanin_flat: List[int] = []
        try:
            for i, gate in enumerate(self._gates.values()):
                gate_type[i] = GATE_CODE[gate.gtype]
                for src in gate.inputs:
                    fanin_flat.append(index[src])
                fanin_offset[i + 1] = len(fanin_flat)
            flop_d = np.array(
                [index[f.d] for f in self._flops], dtype=np.int32
            )
            po = np.array([index[o] for o in self._outputs], dtype=np.int32)
        except KeyError as exc:
            raise KeyError(f"undriven net referenced: {exc.args[0]}") from None
        return NetlistArrays(
            name=self.name,
            names=names,
            n_pi=len(self._inputs),
            n_ff=len(self._flops),
            gate_type=gate_type,
            fanin_offset=fanin_offset,
            fanin=np.array(fanin_flat, dtype=np.int32),
            flop_d=flop_d,
            po=po,
        )

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (
            f"Circuit({self.name!r}, pi={self.num_inputs}, po={self.num_outputs},"
            f" ff={self.num_state_vars}, gates={self.num_gates})"
        )


@dataclass
class NetlistArrays:
    """Struct-of-arrays netlist: the 100k-gate-capacity compiled form.

    Nets are indexed ``0 .. n_nets-1`` in :meth:`Circuit.signals` order:
    primary inputs, then flop outputs (scan order), then gate outputs in
    insertion order -- so gate ``i`` drives net ``n_pi + n_ff + i``.  All
    arrays are ``int32``: at 100k gates the whole structure is a few
    megabytes and ships through pickle as flat buffers with no per-gate
    object overhead.

    Attributes:
        name: circuit name (not part of structural identity).
        names: net index -> net name.
        n_pi: number of primary inputs.
        n_ff: number of flip-flops.
        gate_type: ``int32[n_gates]`` :data:`~repro.circuit.library.GATE_CODE`
            per gate.
        fanin_offset: ``int32[n_gates + 1]`` CSR offsets into ``fanin``.
        fanin: ``int32[sum(arity)]`` net index of each gate input pin.
        flop_d: ``int32[n_ff]`` net index of each flop's D pin, scan order.
        po: ``int32[n_po]`` net index of each primary output.
    """

    name: str
    names: List[str]
    n_pi: int
    n_ff: int
    gate_type: np.ndarray
    fanin_offset: np.ndarray
    fanin: np.ndarray
    flop_d: np.ndarray
    po: np.ndarray

    @property
    def n_nets(self) -> int:
        return len(self.names)

    @property
    def n_gates(self) -> int:
        return len(self.gate_type)

    @property
    def n_po(self) -> int:
        return len(self.po)

    @property
    def first_gate(self) -> int:
        """Net index of gate 0's output (``n_pi + n_ff``)."""
        return self.n_pi + self.n_ff

    def gate_fanin(self, i: int) -> np.ndarray:
        """Net indices of gate ``i``'s input pins."""
        return self.fanin[self.fanin_offset[i] : self.fanin_offset[i + 1]]

    def gather_fanin(
        self, gates: np.ndarray
    ) -> Tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        """Flattened fan-in segments for a subset of gates.

        The workhorse of the levelized analysis sweeps (COP, support
        bitsets): gathers the CSR rows of ``gates`` into one contiguous
        run so a whole level reduces with a single ``ufunc.reduceat``.

        Returns ``(edges, counts, seg_offset, edge_pos)``:

        - ``edges``: fan-in net index of every pin, segments concatenated
          in ``gates`` order;
        - ``counts``: pins per gate (``int64[len(gates)]``);
        - ``seg_offset``: exclusive prefix sum of ``counts``
          (``int64[len(gates) + 1]``) -- segment ``k`` of ``edges`` is
          ``edges[seg_offset[k]:seg_offset[k + 1]]``;
        - ``edge_pos``: position of each gathered pin in the global
          ``fanin`` array, for per-edge results aligned with ``fanin``.
        """
        gates = np.asarray(gates, dtype=np.int64)
        starts = self.fanin_offset[gates].astype(np.int64)
        counts = self.fanin_offset[gates + 1].astype(np.int64) - starts
        seg_offset = np.zeros(len(gates) + 1, dtype=np.int64)
        np.cumsum(counts, out=seg_offset[1:])
        edge_pos = np.arange(int(seg_offset[-1]), dtype=np.int64) + np.repeat(
            starts - seg_offset[:-1], counts
        )
        return self.fanin[edge_pos], counts, seg_offset, edge_pos


def circuit_from_arrays(arrays: NetlistArrays) -> Circuit:
    """Rebuild the object-form :class:`Circuit` from its array form.

    Inverse of :meth:`Circuit.to_arrays`: the result is
    ``structurally_equal`` to the original (and carries its name).
    """
    circuit = Circuit(arrays.name)
    names = arrays.names
    for i in range(arrays.n_pi):
        circuit.add_input(names[i])
    for o in arrays.po:
        circuit.add_output(names[o])
    for k in range(arrays.n_ff):
        circuit.add_flop(names[arrays.n_pi + k], names[arrays.flop_d[k]])
    first_gate = arrays.n_pi + arrays.n_ff
    for i in range(arrays.n_gates):
        circuit.add_gate(
            names[first_gate + i],
            CODE_GATE[arrays.gate_type[i]],
            (names[s] for s in arrays.gate_fanin(i)),
        )
    return circuit
