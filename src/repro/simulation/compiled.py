"""Compiled bit-parallel circuit model.

A :class:`CompiledModel` turns a :class:`~repro.circuit.netlist.Circuit`
into a per-circuit evaluation plan over flat numpy arrays, so that one
evaluation pass touches Python only ``O(levels + steps)`` times instead
of ``O(gates)`` times.  Values live in a ``(n_signals, n_words)`` ``uint64``
matrix; every bit of every word is an independent machine copy (a fault
machine for the parallel-fault simulator, a pattern for the
pattern-parallel simulator).

The plan cuts every level into *steps*, one per ``(op, inverted)`` pair
(op: ``and``, ``or``, ``xor``, ``copy`` or ``const``).  A pass runs them
in *blocks* sized to two fixed-size scratch buffers: a block gathers its
two operand row sets into the scratch and combines them straight into
its output rows when those are one contiguous range, else in the scratch
followed by one scatter.  Small steps of a level share a block, large
ones are cut into row chunks.  The plan is built *from* the
struct-of-arrays netlist form (:meth:`Circuit.to_arrays`) with one stable
sort over int32 gate-type/fanin arrays rather than per-gate Python
objects, and the model pickles as those flat arrays -- the blocks, the
object-form :class:`Circuit` and the name-keyed ``signal_index`` are
rebuilt lazily on first access, so shipping a compiled model to worker
processes never serializes a per-gate object graph.

Fault injection is expressed as :class:`Injections`: per evaluation level,
``flat[i] = (flat[i] & and_mask) | or_mask`` over flat indices
``sig * n_words + word`` of the matrix, so a stuck-at fault forces its
bit both when the signal is produced and before anything consumes it.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Sequence, Tuple, Union

import numpy as np

from repro.circuit.levelize import levelize_arrays
from repro.circuit.library import ALL_ONES, CODE_GATE, GateType
from repro.circuit.netlist import Circuit, NetlistArrays, circuit_from_arrays
from repro.circuit.transform import decompose_to_two_input


@dataclass
class Injections:
    """Stuck-value forcing, grouped by the level at which each signal is set.

    ``per_level[lvl]`` holds ``(sigs, words, and_masks, or_masks)`` arrays
    with at most one row per ``(sig, word)`` pair; level 0 covers primary
    inputs and flop outputs, level ``k`` covers signals produced by gate
    level ``k``.
    """

    per_level: Dict[int, Tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]] = field(
        default_factory=dict
    )

    @staticmethod
    def build(
        entries: Union[np.ndarray, Sequence[Tuple[int, int, int, int]]],
        level_of_signal: Sequence[int],
    ) -> "Injections":
        """Build from ``(sig_index, word_index, bit_index, stuck_value)``
        rows, given as a sequence of tuples or an ``(n, 4)`` integer array.

        Entries hitting the same (signal, word) pair are merged into one
        mask -- a stable sort on the pair, then ``bitwise_or.reduceat``
        over each run -- so the flat-index application never writes a
        location twice (numpy would keep only the last write).  A bit
        forced to both values ends up 1, whatever the entry order.
        """
        rows = np.asarray(entries, dtype=np.intp).reshape(-1, 4)
        if not len(rows):
            return Injections()
        sig, word, bit, value = rows.T
        key = sig * (int(word.max()) + 1) + word
        order = np.argsort(key, kind="stable")
        first = np.flatnonzero(np.diff(key[order], prepend=-1))
        bits = np.left_shift(np.uint64(1), bit[order].astype(np.uint64))
        cleared = np.bitwise_or.reduceat(bits, first)
        bits[value[order] == 0] = 0
        forced = np.bitwise_or.reduceat(bits, first)
        pick = order[first]
        return Injections._by_level(
            sig[pick], word[pick], ~cleared, forced, level_of_signal
        )

    @staticmethod
    def build_whole_word(
        entries: Sequence[Tuple[int, int, int]],
        level_of_signal: Sequence[int],
    ) -> "Injections":
        """Build from ``(sig_index, word_index, stuck_value)``, forcing all
        64 bits of the word.  Used when a word models a single machine
        (e.g. the scalar faulty-machine simulation behind Table 1)."""
        rows = np.asarray(entries, dtype=np.intp).reshape(-1, 3)
        sig, word, value = rows.T
        ands = np.zeros(len(rows), dtype=np.uint64)
        ors = np.where(value != 0, ALL_ONES, np.uint64(0))
        return Injections._by_level(sig, word, ands, ors, level_of_signal)

    @staticmethod
    def _by_level(
        sigs: np.ndarray,
        words: np.ndarray,
        ands: np.ndarray,
        ors: np.ndarray,
        level_of_signal: Sequence[int],
    ) -> "Injections":
        """Split merged rows into ``per_level`` groups (stable order)."""
        levels = np.asarray(level_of_signal, dtype=np.intp)[sigs]
        order = np.argsort(levels, kind="stable")
        levels = levels[order]
        starts = np.flatnonzero(np.diff(levels, prepend=-1)).tolist()
        inj = Injections()
        for lo, hi in zip(starts, starts[1:] + [len(levels)]):
            idx = order[lo:hi]
            inj.per_level[int(levels[lo])] = (
                sigs[idx], words[idx], ands[idx], ors[idx]
            )
        return inj

    def apply(self, vals: np.ndarray, level: int) -> None:
        """Force this level's stuck bits into the C-contiguous ``vals``."""
        group = self.per_level.get(level)
        if group is None:
            return
        if not vals.flags.c_contiguous:
            # The flat view below would silently be a copy.
            raise ValueError("injections need a C-contiguous value matrix")
        sigs, words, ands, ors = group
        flat = sigs * vals.shape[1] + words
        flat_vals = vals.reshape(-1)
        forced = flat_vals.take(flat)
        forced &= ands
        forced |= ors
        flat_vals.put(flat, forced)

    @property
    def max_level(self) -> int:
        return max(self.per_level, default=-1)


#: Step ops of the evaluation plan; a step applies one op to many gates.
_AND, _OR, _XOR, _COPY, _CONST = range(5)
#: Two-operand combine of each op (``None``: not a two-operand op).
_COMBINE = (np.bitwise_and, np.bitwise_or, np.bitwise_xor, None, None)
#: (op, inverted) of every gate type.
_GATE_STEP = {
    GateType.AND: (_AND, False),
    GateType.NAND: (_AND, True),
    GateType.OR: (_OR, False),
    GateType.NOR: (_OR, True),
    GateType.XOR: (_XOR, False),
    GateType.XNOR: (_XOR, True),
    GateType.BUF: (_COPY, False),
    GateType.NOT: (_COPY, True),
    GateType.CONST0: (_CONST, False),
    GateType.CONST1: (_CONST, True),
}
#: ``_GATE_STEP`` as lookup tables indexed by gate code.
_OP_OF_CODE = np.array([_GATE_STEP[g][0] for g in CODE_GATE], dtype=np.int64)
_INV_OF_CODE = np.array([_GATE_STEP[g][1] for g in CODE_GATE], dtype=np.int64)

#: Byte budget of each of the two scratch operands of one evaluation
#: pass.  It sets how many rows a block holds (see
#: :meth:`CompiledModel._plan_blocks`), so the gathered operands of a
#: block stay cache-resident.
_SCRATCH_BYTES = 256 * 1024


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
        # plan only ever reads pins 0 and 1).
        starts = arrays.fanin_offset[:-1].astype(np.int64)
        arity = np.diff(arrays.fanin_offset)
        pin0 = np.zeros(n_gates, dtype=np.int64)
        pin1 = np.zeros(n_gates, dtype=np.int64)
        has0 = arity >= 1
        has1 = arity >= 2
        if len(arrays.fanin):
            pin0[has0] = arrays.fanin[starts[has0]]
            pin1[has1] = arrays.fanin[starts[has1] + 1]

        # The evaluation plan.  Position p of the topological order
        # produces signal first_gate + p; one stable sort on (level, op,
        # inverted) cuts every level into steps, each holding its gates in
        # ascending signal order.
        order = la.order.astype(np.intp)
        codes = arrays.gate_type[order]
        level = np.repeat(np.arange(1, la.depth + 1), np.diff(la.level_offset))
        op = _OP_OF_CODE[codes]
        inverted = _INV_OF_CODE[codes]
        key = (level * len(_COMBINE) + op) * 2 + inverted
        perm = np.argsort(key, kind="stable")
        start = np.flatnonzero(np.diff(key[perm], prepend=-1))
        stop = np.append(start, n_gates)[1:]
        # Distinct ascending rows form one range iff span == count.
        contiguous = perm[stop - 1] - perm[start] == stop - start - 1
        self._plan_dst = first_gate + perm
        self._plan_src1 = sig_of_net[pin0[order[perm]]]
        self._plan_src2 = sig_of_net[pin1[order[perm]]]
        #: One row per step: level, op, inverted, start, stop (into the
        #: ``_plan_*`` arrays) and the first dst row, or -1 when the dst
        #: rows are not one ascending range.
        self._plan_table = np.stack(
            [
                level[perm[start]],
                op[perm[start]],
                inverted[perm[start]],
                start,
                stop,
                np.where(contiguous, first_gate + perm[start], -1),
            ],
            axis=1,
        )
        self._max_level_rows = int(np.diff(la.level_offset).max(initial=1))
        #: Row budget -> per-level blocks (see :meth:`_plan_blocks`).
        self._blocks: Dict[int, List[List[tuple]]] = {}

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
        # Ship only the flat arrays: the object-form circuit, the
        # name-keyed maps and the blocks are derived views, rebuilt on
        # demand.
        state = self.__dict__.copy()
        state["_circuit"] = None
        state["_signal_names"] = None
        state["_signal_index"] = None
        state["_blocks"] = {}
        return state

    def pass_plan(self, injected: np.ndarray) -> "CompiledModel":
        """This model without the copy rows a pass injects nothing into.

        A non-inverted copy row (a BUF: every fanout branch of the fault
        graph is one) whose signal is not in ``injected`` holds its
        source's value in every column, so its consumers, ``po_idx`` and
        ``d_idx`` read the source instead (chains of copies resolved)
        and the row is not evaluated.  :meth:`eval` leaves the dropped
        signals' rows unwritten; nothing reads them.  Everything but the
        plan arrays is shared with this model.
        """
        table = self._plan_table
        lo, hi = table[:, 3], table[:, 4]
        is_copy = (table[:, 1] == _COPY) & (table[:, 2] == 0)
        injected_mask = np.zeros(self.n_signals, dtype=bool)
        injected_mask[injected] = True
        drop = np.repeat(is_copy, hi - lo) & ~injected_mask[self._plan_dst]
        alias = np.arange(self.n_signals)
        alias[self._plan_dst[drop]] = self._plan_src1[drop]
        while True:  # pointer jumping: a copy of a copy reads the first source
            resolved = alias[alias]
            if np.array_equal(resolved, alias):
                break
            alias = resolved
        keep = ~drop
        kept_before = np.concatenate(([0], np.cumsum(keep)))
        start, stop = kept_before[lo], kept_before[hi]
        dst = self._plan_dst[keep]
        steps = stop > start
        start, stop = start[steps], stop[steps]
        contiguous = dst[stop - 1] - dst[start] == stop - start - 1
        plan = object.__new__(CompiledModel)
        plan.__dict__.update(self.__dict__)
        plan._plan_dst = dst
        plan._plan_src1 = alias[self._plan_src1[keep]]
        plan._plan_src2 = alias[self._plan_src2[keep]]
        plan._plan_table = np.stack(
            [
                table[steps, 0],
                table[steps, 1],
                table[steps, 2],
                start,
                stop,
                np.where(contiguous, dst[start], -1),
            ],
            axis=1,
        )
        plan.po_idx = alias[self.po_idx]
        plan.d_idx = alias[self.d_idx]
        plan._blocks = {}
        return plan

    def _plan_blocks(self, rows: int) -> List[List[tuple]]:
        """Per level, the blocks of a pass whose scratch holds ``rows``.

        A block is either a run of consecutive whole steps of one level
        that fits the scratch, or a row chunk of one step too large for
        it.  Small steps thus share their gathers and their scatter,
        which is what counts on narrow matrices, where the number of
        numpy calls sets the cost; a one-step block whose dst rows are
        contiguous writes straight into them, which is what counts on
        wide ones, where memory traffic does.  Every row budget's blocks
        are kept: :meth:`eval` only asks for powers of two and the widest
        level, so a plan holds at most about 17 sets.
        """
        blocks = self._blocks.get(rows)
        if blocks is not None:
            return blocks
        blocks = [[] for _ in range(self.depth)]
        run: List[tuple] = []
        for step in self._plan_table.tolist():
            lvl, op, inverted, lo, hi, first = step
            if run and (run[0][0] != lvl or hi - run[0][3] > rows):
                blocks[run[0][0] - 1].append(self._block(run))
                run = []
            if hi - lo <= rows:
                run.append(step)
                continue
            for r in range(lo, hi, rows):
                chunk_first = first + r - lo if first >= 0 else -1
                chunk = (lvl, op, inverted, r, min(r + rows, hi), chunk_first)
                blocks[lvl - 1].append(self._block([chunk]))
        if run:
            blocks[run[0][0] - 1].append(self._block(run))
        self._blocks[rows] = blocks
        return blocks

    def _block(self, run: List[tuple]) -> tuple:
        """``(src1, src2, combos, const_from, inv, dst, first)`` of one
        block over the consecutive plan rows of ``run``'s steps.

        ``combos`` are ``(ufunc, i, j)`` over block rows, binary rows
        first (the sort put them there), so ``src2`` covers only those;
        CONST rows start at ``const_from``; ``inv`` is XORed into the
        result (all-ones for an inverted one-step block, a per-row mask
        column for a mixed run); ``first`` is the first dst row of a
        one-step block whose dst rows are contiguous, else -1.
        """
        lo, hi = run[0][3], run[-1][4]
        combos: List[tuple] = []
        const_from = None
        for _, op, _, s, e, _ in run:
            combine = _COMBINE[op]
            if combos and combos[-1][0] is combine:
                combos[-1] = (combine, combos[-1][1], e - lo)
            elif combine is not None:
                combos.append((combine, s - lo, e - lo))
            elif op == _CONST and const_from is None:
                const_from = s - lo
        n_binary = combos[-1][2] if combos else 0
        flags = [step[2] for step in run]
        if len(run) == 1:
            first = run[0][5]
            inv = ALL_ONES if flags[0] else None
        else:
            first = -1
            inv = None
            if any(flags):
                inv = np.repeat(
                    np.where(flags, ALL_ONES, np.uint64(0)),
                    [step[4] - step[3] for step in run],
                )[:, None]
        return (
            self._plan_src1[lo:hi],
            self._plan_src2[lo : lo + n_binary] if n_binary else None,
            combos,
            const_from,
            inv,
            self._plan_dst[lo:hi],
            first,
        )

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

        The caller must have loaded PI and flop-output rows of ``vals``, a
        C-contiguous ``uint64`` matrix with one row per signal (anything
        else raises ``ValueError``: the gathers below skip bounds checks
        and the injections write through a flat view).  With
        ``injections`` the stuck values are forced as each level is
        produced (level 0 = the loaded rows themselves).

        The pass runs the plan's steps in blocks (:meth:`_plan_blocks`)
        sized to two scratch operands of at most ``_SCRATCH_BYTES``
        each, their row count floored to a power of two: a block
        gathers its operands into the scratch and combines
        them straight into its dst rows when those are contiguous, else
        in the scratch followed by one scatter.
        """
        if (
            vals.dtype != np.uint64
            or vals.ndim != 2
            or vals.shape[0] != self.n_signals
            or not vals.flags.c_contiguous
        ):
            raise ValueError(
                f"eval needs a C-contiguous uint64 matrix of {self.n_signals} "
                f"rows, got {vals.dtype} {vals.shape}"
            )
        n_cols = vals.shape[1]
        # A power of two, so a pass whose width varies reuses a few sets.
        budget = _SCRATCH_BYTES // (8 * max(n_cols, 1))
        rows = min(self._max_level_rows, 1 << max(budget.bit_length() - 1, 0))
        blocks = self._plan_blocks(rows)
        a = np.empty((rows, n_cols), dtype=np.uint64)
        b = np.empty((rows, n_cols), dtype=np.uint64)
        take = vals.take
        if injections is not None:
            injections.apply(vals, 0)
        for lvl, level in enumerate(blocks, start=1):
            for src1, src2, combos, const_from, inv, dst, first in level:
                x = a[: len(src1)]
                take(src1, 0, x, "clip")
                out = x if first < 0 else vals[first : first + len(x)]
                # Results go straight to ``out`` unless an inversion follows.
                target = out if inv is None else x
                if src2 is not None:
                    y = b[: len(src2)]
                    take(src2, 0, y, "clip")
                    for combine, i, j in combos:
                        combine(x[i:j], y[i:j], target[i:j])
                if const_from is not None:
                    target[const_from:] = 0
                if inv is not None:
                    np.bitwise_xor(x, inv, out)
                elif first >= 0 and src2 is None and const_from is None:
                    out[...] = x  # a BUF step
                if first < 0:
                    vals[dst] = x
            if injections is not None:
                injections.apply(vals, lvl)

    # ------------------------------------------------------------------
    def map_pin(self, consumer: str, pin: int) -> Tuple[str, int]:
        """Translate an original-circuit pin through the decomposition map."""
        if self.pin_map is None:
            return (consumer, pin)
        return self.pin_map[(consumer, pin)]

    def index_of(self, name: str) -> int:
        return self.signal_index[name]
