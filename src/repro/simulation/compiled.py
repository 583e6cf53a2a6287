"""Compiled bit-parallel circuit model.

A :class:`CompiledModel` turns a :class:`~repro.circuit.netlist.Circuit`
into flat numpy arrays so that one evaluation pass touches Python only
``O(levels * gate_types)`` times instead of ``O(gates)`` times.  Values
live in a ``(n_signals, n_words)`` ``uint64`` matrix; every bit of every
word is an independent machine copy (a fault machine for the parallel-fault
simulator, a pattern for the pattern-parallel simulator).

The model is built *from* the struct-of-arrays netlist form
(:meth:`Circuit.to_arrays`): kernel construction is vectorized over int32
gate-type/fanin arrays rather than per-gate Python objects, and the model
pickles as those flat arrays -- the object-form :class:`Circuit` and the
name-keyed ``signal_index`` are rebuilt lazily on first access, so
shipping a compiled model to worker processes never serializes a per-gate
object graph.

Fault injection is expressed as :class:`Injections`: per evaluation level,
``vals[sig, word] = (vals[sig, word] & and_mask) | or_mask`` applied with a
single fancy-indexed statement, so a stuck-at fault forces its bit both
when the signal is produced and before anything consumes it.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.circuit.levelize import levelize_arrays
from repro.circuit.library import ALL_ONES, GATE_CODE, GateType
from repro.circuit.netlist import Circuit, NetlistArrays, circuit_from_arrays
from repro.circuit.transform import decompose_to_two_input


def shard_word_ranges(n_words: int, n_shards: int) -> List[Tuple[int, int]]:
    """Split ``n_words`` word-columns into balanced contiguous ranges.

    Returns at most ``n_shards`` half-open ``(lo, hi)`` ranges covering
    ``[0, n_words)``; empty ranges are dropped, so fewer shards than
    requested come back when there is not enough work.  The persistent
    worker pool shards its fault list with this so that every shard
    boundary is word-aligned: a 64-fault word never straddles two
    workers.
    """
    if n_words < 0:
        raise ValueError(f"n_words must be non-negative, got {n_words}")
    if n_shards < 1:
        raise ValueError(f"n_shards must be positive, got {n_shards}")
    n_shards = min(n_shards, n_words) or (1 if n_words else 0)
    ranges: List[Tuple[int, int]] = []
    base, extra = divmod(n_words, max(n_shards, 1))
    lo = 0
    for i in range(n_shards):
        hi = lo + base + (1 if i < extra else 0)
        if hi > lo:
            ranges.append((lo, hi))
        lo = hi
    return ranges


@dataclass
class _OpGroup:
    """One fused kernel within a level.

    Three kernel kinds cover the whole gate library (De Morgan folds the
    OR family into AND with inversion masks):

    - ``and2``: ``dst = ((s1 ^ ia) & (s2 ^ ib)) ^ io``  (AND/NAND/OR/NOR)
    - ``xor2``: ``dst = (s1 ^ s2) ^ io``                 (XOR/XNOR)
    - ``unary``: ``dst = s1 ^ io``                       (BUF/NOT)
    - ``const``: ``dst = io``                            (CONST0/CONST1)

    Masks are per-gate uint64 columns (0 or all-ones).
    """

    kind: str
    dst: np.ndarray
    src1: Optional[np.ndarray] = None
    src2: Optional[np.ndarray] = None
    ia: Optional[np.ndarray] = None
    ib: Optional[np.ndarray] = None
    io: Optional[np.ndarray] = None


@dataclass
class Injections:
    """Stuck-value forcing, grouped by the level at which each signal is set.

    ``per_level[lvl]`` holds ``(sigs, words, and_masks, or_masks)`` arrays;
    level 0 covers primary inputs and flop outputs, level ``k`` covers
    signals produced by gate level ``k``.
    """

    per_level: Dict[int, Tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]] = field(
        default_factory=dict
    )

    @staticmethod
    def build(
        entries: Sequence[Tuple[int, int, int, int]],
        level_of_signal: Sequence[int],
    ) -> "Injections":
        """Build from ``(sig_index, word_index, bit_index, stuck_value)``.

        Entries hitting the same (signal, word) pair are merged into one
        mask so the fancy-indexed application never writes a location
        twice (numpy would keep only the last write).
        """
        merged: Dict[Tuple[int, int], Tuple[int, int]] = {}
        for sig, word, bit, value in entries:
            sig, word, bit = int(sig), int(word), int(bit)
            and_mask, or_mask = merged.get((sig, word), (int(ALL_ONES), 0))
            bitmask = 1 << bit
            and_mask &= ~bitmask & int(ALL_ONES)
            if value:
                or_mask |= bitmask
            merged[(sig, word)] = (and_mask, or_mask)

        by_level: Dict[int, List[Tuple[int, int, int, int]]] = {}
        for (sig, word), (and_mask, or_mask) in merged.items():
            lvl = level_of_signal[sig]
            by_level.setdefault(lvl, []).append((sig, word, and_mask, or_mask))

        inj = Injections()
        for lvl, rows in by_level.items():
            sigs = np.array([r[0] for r in rows], dtype=np.intp)
            words = np.array([r[1] for r in rows], dtype=np.intp)
            ands = np.array([r[2] for r in rows], dtype=np.uint64)
            ors = np.array([r[3] for r in rows], dtype=np.uint64)
            inj.per_level[lvl] = (sigs, words, ands, ors)
        return inj

    @staticmethod
    def build_whole_word(
        entries: Sequence[Tuple[int, int, int]],
        level_of_signal: Sequence[int],
    ) -> "Injections":
        """Build from ``(sig_index, word_index, stuck_value)``, forcing all
        64 bits of the word.  Used when a word models a single machine
        (e.g. the scalar faulty-machine simulation behind Table 1)."""
        by_level: Dict[int, List[Tuple[int, int, int, int]]] = {}
        for sig, word, value in entries:
            lvl = level_of_signal[sig]
            or_mask = int(ALL_ONES) if value else 0
            by_level.setdefault(lvl, []).append((sig, word, 0, or_mask))
        inj = Injections()
        for lvl, rows in by_level.items():
            sigs = np.array([r[0] for r in rows], dtype=np.intp)
            words = np.array([r[1] for r in rows], dtype=np.intp)
            ands = np.array([r[2] for r in rows], dtype=np.uint64)
            ors = np.array([r[3] for r in rows], dtype=np.uint64)
            inj.per_level[lvl] = (sigs, words, ands, ors)
        return inj

    def apply(self, vals: np.ndarray, level: int) -> None:
        group = self.per_level.get(level)
        if group is None:
            return
        sigs, words, ands, ors = group
        vals[sigs, words] = (vals[sigs, words] & ands) | ors

    @property
    def max_level(self) -> int:
        return max(self.per_level, default=-1)


# Gate-code partitions the fused kernels are built from.  Codes are the
# stable ints of :data:`repro.circuit.library.GATE_CODE`.
_CODE_AND = GATE_CODE[GateType.AND]
_CODE_NAND = GATE_CODE[GateType.NAND]
_CODE_OR = GATE_CODE[GateType.OR]
_CODE_NOR = GATE_CODE[GateType.NOR]
_CODE_XOR = GATE_CODE[GateType.XOR]
_CODE_XNOR = GATE_CODE[GateType.XNOR]
_CODE_NOT = GATE_CODE[GateType.NOT]
_CODE_BUF = GATE_CODE[GateType.BUF]
_CODE_CONST0 = GATE_CODE[GateType.CONST0]
_CODE_CONST1 = GATE_CODE[GateType.CONST1]


class CompiledModel:
    """A circuit compiled for bit-parallel evaluation.

    Signals are indexed ``0 .. n_signals-1``; the index arrays ``pi_idx``,
    ``q_idx``, ``d_idx`` and ``po_idx`` locate primary inputs, flop outputs
    (scan order), flop D nets (scan order) and primary outputs.

    Signal order is primary inputs, flop outputs (scan order), then gate
    outputs in topological order (levels ascending, circuit insertion
    order within a level) -- the historical order every downstream
    byte-identity guarantee is pinned to.
    """

    def __init__(self, circuit: Circuit, decompose: bool = True) -> None:
        pin_map = None
        if decompose and any(len(g.inputs) > 2 for g in circuit.iter_gates()):
            circuit, pin_map = decompose_to_two_input(circuit)
        self.pin_map = pin_map  # None means identity
        self._circuit: Optional[Circuit] = circuit
        self._signal_names: Optional[List[str]] = None
        self._signal_index: Optional[Dict[str, int]] = None
        self._build(circuit.to_arrays())

    def _build(self, arrays: NetlistArrays) -> None:
        self.arrays = arrays
        la = levelize_arrays(arrays)
        self.depth = la.depth
        first_gate = arrays.n_pi + arrays.n_ff
        n_nets = arrays.n_nets
        n_gates = arrays.n_gates
        self.n_signals = n_nets

        # Net index -> signal index: PIs and flop outputs are identity,
        # gate outputs are permuted into topological order.
        sig_of_net = np.empty(n_nets, dtype=np.intp)
        sig_of_net[:first_gate] = np.arange(first_gate, dtype=np.intp)
        sig_of_net[first_gate + la.order.astype(np.intp)] = np.arange(
            first_gate, n_nets, dtype=np.intp
        )
        self._order = la.order

        self.pi_idx = np.arange(arrays.n_pi, dtype=np.intp)
        self.q_idx = np.arange(arrays.n_pi, first_gate, dtype=np.intp)
        self.d_idx = sig_of_net[arrays.flop_d]
        self.po_idx = sig_of_net[arrays.po]

        #: level of each signal (0 for PIs and flop outputs).
        self.level_of_signal = np.zeros(n_nets, dtype=np.intp)
        self.level_of_signal[sig_of_net] = la.level_of.astype(np.intp)

        # First/second fan-in pin per gate (unused slots stay 0; arity is
        # <= 2 on this path -- wider gates were decomposed above, and the
        # historical kernels only ever read pins 0 and 1).
        starts = arrays.fanin_offset[:-1].astype(np.int64)
        arity = np.diff(arrays.fanin_offset)
        pin0 = np.zeros(n_gates, dtype=np.int64)
        pin1 = np.zeros(n_gates, dtype=np.int64)
        has0 = arity >= 1
        has1 = arity >= 2
        if len(arrays.fanin):
            pin0[has0] = arrays.fanin[starts[has0]]
            pin1[has1] = arrays.fanin[starts[has1] + 1]

        gt = arrays.gate_type
        ones, zero = ALL_ONES, np.uint64(0)
        self._levels: List[List[_OpGroup]] = []
        for lvl in range(la.depth):
            gidx = la.order[la.level_offset[lvl] : la.level_offset[lvl + 1]]
            codes = gt[gidx]
            ops: List[_OpGroup] = []

            m = codes <= _CODE_NOR  # AND/NAND/OR/NOR
            if m.any():
                g, c = gidx[m], codes[m]
                # De Morgan: OR(a,b) = ~(~a & ~b), so the OR family gets
                # input inversion and flipped output inversion.
                is_or = c >= _CODE_OR
                inverting = (c == _CODE_NAND) | (c == _CODE_NOR)
                ia = np.where(is_or, ones, zero)
                ops.append(
                    _OpGroup(
                        kind="and2",
                        dst=sig_of_net[first_gate + g],
                        src1=sig_of_net[pin0[g]],
                        src2=sig_of_net[pin1[g]],
                        ia=ia,
                        ib=ia.copy(),
                        io=np.where(is_or ^ inverting, ones, zero),
                    )
                )
            m = (codes == _CODE_XOR) | (codes == _CODE_XNOR)
            if m.any():
                g, c = gidx[m], codes[m]
                ops.append(
                    _OpGroup(
                        kind="xor2",
                        dst=sig_of_net[first_gate + g],
                        src1=sig_of_net[pin0[g]],
                        src2=sig_of_net[pin1[g]],
                        io=np.where(c == _CODE_XNOR, ones, zero),
                    )
                )
            m = (codes == _CODE_NOT) | (codes == _CODE_BUF)
            if m.any():
                g, c = gidx[m], codes[m]
                ops.append(
                    _OpGroup(
                        kind="unary",
                        dst=sig_of_net[first_gate + g],
                        src1=sig_of_net[pin0[g]],
                        io=np.where(c == _CODE_NOT, ones, zero),
                    )
                )
            m = codes >= _CODE_CONST0  # CONST0/CONST1
            if m.any():
                g, c = gidx[m], codes[m]
                ops.append(
                    _OpGroup(
                        kind="const",
                        dst=sig_of_net[first_gate + g],
                        io=np.where(c == _CODE_CONST1, ones, zero),
                    )
                )
            self._levels.append(ops)

    # ------------------------------------------------------------------
    # Lazily rebuilt object-form views (dropped from pickles).
    # ------------------------------------------------------------------
    @property
    def circuit(self) -> Circuit:
        """The compiled circuit in object form (rebuilt after unpickling)."""
        if self._circuit is None:
            self._circuit = circuit_from_arrays(self.arrays)
        return self._circuit

    @property
    def signal_names(self) -> List[str]:
        """Signal index -> net name."""
        if self._signal_names is None:
            names = self.arrays.names
            first_gate = self.arrays.n_pi + self.arrays.n_ff
            self._signal_names = list(names[:first_gate]) + [
                names[first_gate + g] for g in self._order
            ]
        return self._signal_names

    @property
    def signal_index(self) -> Dict[str, int]:
        """Net name -> signal index."""
        if self._signal_index is None:
            self._signal_index = {
                n: i for i, n in enumerate(self.signal_names)
            }
        return self._signal_index

    def __getstate__(self) -> Dict[str, Any]:
        # Ship only the flat arrays: the object-form circuit and the
        # name-keyed maps are derived views, rebuilt on demand.
        state = self.__dict__.copy()
        state["_circuit"] = None
        state["_signal_names"] = None
        state["_signal_index"] = None
        return state

    # ------------------------------------------------------------------
    def alloc(self, n_words: int) -> np.ndarray:
        """A zeroed value matrix for ``n_words`` simulation words."""
        return np.zeros((self.n_signals, n_words), dtype=np.uint64)

    def set_inputs_from_bits(self, vals: np.ndarray, bits: Sequence[int]) -> None:
        """Drive every PI with a scalar bit, replicated across all words."""
        if len(bits) != len(self.pi_idx):
            raise ValueError(
                f"expected {len(self.pi_idx)} input bits, got {len(bits)}"
            )
        column = np.where(
            np.asarray(bits, dtype=bool), ALL_ONES, np.uint64(0)
        ).astype(np.uint64)
        vals[self.pi_idx, :] = column[:, None]

    def eval(self, vals: np.ndarray, injections: Optional[Injections] = None) -> None:
        """One combinational evaluation pass, in place.

        The caller must have loaded PI and flop-output rows first.  With
        ``injections`` the stuck values are forced as each level is
        produced (level 0 = the loaded rows themselves).
        """
        if injections is not None:
            injections.apply(vals, 0)
        for lvl, ops in enumerate(self._levels, start=1):
            for op in ops:
                self._eval_group(vals, op)
            if injections is not None:
                injections.apply(vals, lvl)

    @staticmethod
    def _eval_group(vals: np.ndarray, op: _OpGroup) -> None:
        if op.kind == "and2":
            a = vals[op.src1]
            a ^= op.ia[:, None]
            b = vals[op.src2]
            b ^= op.ib[:, None]
            a &= b
            a ^= op.io[:, None]
            vals[op.dst] = a
        elif op.kind == "xor2":
            a = vals[op.src1]
            a ^= vals[op.src2]
            a ^= op.io[:, None]
            vals[op.dst] = a
        elif op.kind == "unary":
            a = vals[op.src1]
            a ^= op.io[:, None]
            vals[op.dst] = a
        else:  # const
            vals[op.dst, :] = op.io[:, None]

    # ------------------------------------------------------------------
    def map_pin(self, consumer: str, pin: int) -> Tuple[str, int]:
        """Translate an original-circuit pin through the decomposition map."""
        if self.pin_map is None:
            return (consumer, pin)
        return self.pin_map[(consumer, pin)]

    def index_of(self, name: str) -> int:
        return self.signal_index[name]
