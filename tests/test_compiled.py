"""Tests for the compiled bit-parallel model, including an oracle check
against the scalar gate library."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.bench_circuits import load_circuit
from repro.bench_circuits.synthetic import SyntheticSpec, synthesize
from repro.circuit.library import ALL_ONES, GATE_CODE, GateType, eval_gate_bits
from repro.circuit.levelize import levelize, levelize_arrays
from repro.circuit.netlist import Circuit
from repro.faults.model import FaultGraph
from repro.simulation.compiled import _COPY, _SCRATCH_BYTES, CompiledModel, Injections


def reference_eval(circuit: Circuit, input_bits, state_bits):
    """Slow scalar interpreter used as the oracle."""
    values = dict(zip(circuit.inputs, input_bits))
    values.update(zip(circuit.state_vars, state_bits))
    for gate in levelize(circuit).order:
        values[gate.output] = eval_gate_bits(
            gate.gtype, [values[s] for s in gate.inputs]
        )
    return values


class TestCompiledModel:
    def test_signal_indexing(self, s27):
        model = CompiledModel(s27)
        assert model.n_signals == 17
        assert len(model.pi_idx) == 4
        assert len(model.q_idx) == 3
        assert len(model.d_idx) == 3
        assert len(model.po_idx) == 1

    def test_eval_matches_reference_s27(self, s27):
        model = CompiledModel(s27)
        vals = model.alloc(1)
        for trial in range(16):
            pi = [(trial >> i) & 1 for i in range(4)]
            st_bits = [(trial >> i) & 1 for i in range(3)]
            model.set_inputs_from_bits(vals, pi)
            for i, q in enumerate(model.q_idx):
                vals[q, :] = ALL_ONES if st_bits[i] else np.uint64(0)
            model.eval(vals)
            ref = reference_eval(s27, pi, st_bits)
            for name, idx in model.signal_index.items():
                got = int(vals[idx, 0])
                assert got in (0, int(ALL_ONES)), name
                assert (got != 0) == bool(ref[name]), name

    def test_wide_gates_are_decomposed(self):
        c = Circuit()
        for n in "abcd":
            c.add_input(n)
        c.add_output("y")
        c.add_gate("y", GateType.AND, list("abcd"))
        model = CompiledModel(c)
        assert model.pin_map is not None
        assert model.n_signals > 5  # chain internals exist

    def test_set_inputs_wrong_arity(self, s27):
        model = CompiledModel(s27)
        vals = model.alloc(1)
        with pytest.raises(ValueError):
            model.set_inputs_from_bits(vals, [0, 1])

    def test_independent_bits(self, s27):
        """Different bits of a word are independent machine copies."""
        model = CompiledModel(s27)
        vals = model.alloc(1)
        # bit 0: all inputs 0; bit 1: all inputs 1.
        for i in model.pi_idx:
            vals[i, 0] = np.uint64(0b10)
        for q in model.q_idx:
            vals[q, 0] = np.uint64(0b10)
        model.eval(vals)
        ref0 = reference_eval(s27, [0] * 4, [0] * 3)
        ref1 = reference_eval(s27, [1] * 4, [1] * 3)
        for name, idx in model.signal_index.items():
            word = int(vals[idx, 0])
            assert (word & 1) == ref0[name], name
            assert ((word >> 1) & 1) == ref1[name], name


@settings(max_examples=25, deadline=None)
@given(
    seed=st.integers(min_value=0, max_value=99_999),
    pattern=st.integers(min_value=0, max_value=2**16 - 1),
)
def test_compiled_matches_reference_on_random_circuits(seed, pattern):
    """Property: compiled evaluation == scalar oracle on random circuits."""
    circuit = synthesize(
        SyntheticSpec(name="r", n_pi=6, n_po=2, n_ff=4, n_gates=40, seed=seed)
    )
    model = CompiledModel(circuit)
    pi = [(pattern >> i) & 1 for i in range(6)]
    st_bits = [(pattern >> (6 + i)) & 1 for i in range(4)]
    vals = model.alloc(1)
    model.set_inputs_from_bits(vals, pi)
    for i, q in enumerate(model.q_idx):
        vals[q, :] = ALL_ONES if st_bits[i] else np.uint64(0)
    model.eval(vals)
    ref = reference_eval(circuit, pi, st_bits)
    for name in circuit.signals():
        idx = model.signal_index[name]
        assert (int(vals[idx, 0]) != 0) == bool(ref[name]), name


class TestInjections:
    def test_build_merges_same_location(self):
        inj = Injections.build(
            [(5, 0, 3, 1), (5, 0, 7, 0)], level_of_signal=[0] * 10
        )
        sigs, words, ands, ors = inj.per_level[0]
        assert len(sigs) == 1
        assert int(ors[0]) == 1 << 3
        assert int(ands[0]) == int(ALL_ONES) & ~((1 << 3) | (1 << 7))

    def test_apply_forces_bits(self):
        inj = Injections.build([(0, 0, 2, 1), (1, 0, 2, 0)], [0, 0])
        vals = np.zeros((2, 1), dtype=np.uint64)
        vals[1, 0] = ALL_ONES
        inj.apply(vals, 0)
        assert int(vals[0, 0]) == 0b100
        assert int(vals[1, 0]) == int(ALL_ONES) & ~0b100

    def test_apply_only_at_its_level(self):
        inj = Injections.build([(0, 0, 0, 1)], [3])
        vals = np.zeros((1, 1), dtype=np.uint64)
        inj.apply(vals, 0)
        assert int(vals[0, 0]) == 0
        inj.apply(vals, 3)
        assert int(vals[0, 0]) == 1

    def test_whole_word_injection(self):
        inj = Injections.build_whole_word([(0, 0, 1)], [0])
        vals = np.zeros((1, 1), dtype=np.uint64)
        inj.apply(vals, 0)
        assert int(vals[0, 0]) == int(ALL_ONES)

    def test_injection_during_eval(self, s27):
        model = CompiledModel(s27)
        sig = model.index_of("G17")
        inj = Injections.build_whole_word(
            [(sig, 0, 1)], model.level_of_signal
        )
        vals = model.alloc(1)
        model.set_inputs_from_bits(vals, [0, 0, 0, 0])
        model.eval(vals, injections=inj)
        assert int(vals[sig, 0]) == int(ALL_ONES)

    def test_max_level(self):
        inj = Injections.build([(0, 0, 0, 1), (1, 0, 0, 1)], [2, 5])
        assert inj.max_level == 5
        assert Injections().max_level == -1


# ----------------------------------------------------------------------
# The evaluation plan and the array-native injection path, against the
# masked (level, kind) kernel and the dict merge they replaced.
# ----------------------------------------------------------------------


def masked_kernel_levels(model):
    """Per level, the ``(kind, dst, src1, src2, ia, io)`` groups of the
    masked kernel, built from the model's arrays.

    AND/NAND/OR/NOR share one ``and2`` group, ``((a ^ ia) & (b ^ ia)) ^ io``
    (De Morgan folds the OR family into AND); XOR/XNOR, BUF/NOT and
    CONST0/CONST1 get ``xor2``, ``unary`` and ``const`` groups.
    """
    arrays = model.arrays
    la = levelize_arrays(arrays)
    first_gate = arrays.n_pi + arrays.n_ff
    sig_of_net = np.arange(arrays.n_nets)
    sig_of_net[first_gate + la.order] = np.arange(first_gate, arrays.n_nets)
    starts = arrays.fanin_offset[:-1].astype(np.int64)
    arity = np.diff(arrays.fanin_offset)
    pin0 = np.zeros(arrays.n_gates, dtype=np.int64)
    pin1 = np.zeros(arrays.n_gates, dtype=np.int64)
    if len(arrays.fanin):
        pin0[arity >= 1] = arrays.fanin[starts[arity >= 1]]
        pin1[arity >= 2] = arrays.fanin[starts[arity >= 2] + 1]
    code = {gtype.name: GATE_CODE[gtype] for gtype in GateType}

    def mask(flags):
        return np.where(flags, ALL_ONES, np.uint64(0))

    levels = []
    for lvl in range(la.depth):
        gidx = la.order[la.level_offset[lvl] : la.level_offset[lvl + 1]]
        c = arrays.gate_type[gidx]
        groups = []
        for kind, m in (
            ("and2", c <= code["NOR"]),
            ("xor2", (c == code["XOR"]) | (c == code["XNOR"])),
            ("unary", (c == code["NOT"]) | (c == code["BUF"])),
            ("const", c >= code["CONST0"]),
        ):
            g, cm = gidx[m], c[m]
            is_or = cm >= code["OR"]
            io = {
                "and2": is_or ^ ((cm == code["NAND"]) | (cm == code["NOR"])),
                "xor2": cm == code["XNOR"],
                "unary": cm == code["NOT"],
                "const": cm == code["CONST1"],
            }[kind]
            groups.append(
                (
                    kind,
                    sig_of_net[first_gate + g],
                    sig_of_net[pin0[g]],
                    sig_of_net[pin1[g]],
                    mask(is_or),
                    mask(io),
                )
            )
        levels.append(groups)
    return levels


def masked_kernel_eval(model, vals, per_level=None):
    """Evaluate ``vals`` in place with the masked kernel; ``per_level``
    injections are applied with 2-D fancy indexing."""

    def inject(lvl):
        if per_level and lvl in per_level:
            sigs, words, ands, ors = per_level[lvl]
            vals[sigs, words] = (vals[sigs, words] & ands) | ors

    inject(0)
    for lvl, groups in enumerate(masked_kernel_levels(model), start=1):
        for kind, dst, src1, src2, ia, io in groups:
            if kind == "and2":
                a = vals[src1] ^ ia[:, None]
                b = vals[src2] ^ ia[:, None]
                vals[dst] = (a & b) ^ io[:, None]
            elif kind == "xor2":
                vals[dst] = vals[src1] ^ vals[src2] ^ io[:, None]
            elif kind == "unary":
                vals[dst] = vals[src1] ^ io[:, None]
            else:
                vals[dst, :] = io[:, None]
        inject(lvl)


def dict_merge_build(entries, level_of_signal):
    """The dict merge ``Injections.build`` replaced, as ``per_level``."""
    merged = {}
    for sig, word, bit, value in entries:
        sig, word, bit = int(sig), int(word), int(bit)
        and_mask, or_mask = merged.get((sig, word), (int(ALL_ONES), 0))
        and_mask &= ~(1 << bit) & int(ALL_ONES)
        if value:
            or_mask |= 1 << bit
        merged[(sig, word)] = (and_mask, or_mask)
    by_level = {}
    for (sig, word), (and_mask, or_mask) in merged.items():
        by_level.setdefault(int(level_of_signal[sig]), []).append(
            (sig, word, and_mask, or_mask)
        )
    return {
        lvl: tuple(
            np.array(col, dtype=dtype)
            for col, dtype in zip(
                zip(*rows), (np.intp, np.intp, np.uint64, np.uint64)
            )
        )
        for lvl, rows in by_level.items()
    }


def row_sets(per_level):
    return {
        lvl: set(zip(*(col.tolist() for col in group)))
        for lvl, group in per_level.items()
    }


def max_step_rows(model):
    table = model._plan_table
    return int((table[:, 4] - table[:, 3]).max())


def chunked_width(model):
    """A width at which the largest step runs in several row chunks."""
    return 2 * (_SCRATCH_BYTES // 8) // max_step_rows(model) + 1


def random_entries(model, n_cols, rng, n=400):
    """Injection rows with shared (sig, word) pairs, repeated bits and
    one bit forced to both values."""
    rows = np.stack(
        [
            rng.integers(0, model.n_signals, n),
            rng.integers(0, n_cols, n),
            rng.integers(0, 64, n),
            rng.integers(0, 2, n),
        ],
        axis=1,
    )
    same_pair = rows[: n // 4].copy()
    same_pair[:, 2] = rng.integers(0, 64, len(same_pair))
    both_values = rows[: n // 8].copy()
    both_values[:, 3] ^= 1
    return np.concatenate([rows, same_pair, both_values, rows[: n // 8]])


def assert_plan_matches_masked_kernel(model, n_cols, seed):
    rng = np.random.Generator(np.random.PCG64(seed))
    start = rng.integers(0, 2**64, size=(model.n_signals, n_cols), dtype=np.uint64)
    entries = random_entries(model, n_cols, rng)
    for inject in (False, True):
        want, got = start.copy(), start.copy()
        masked_kernel_eval(
            model,
            want,
            dict_merge_build(entries, model.level_of_signal) if inject else None,
        )
        model.eval(
            got,
            Injections.build(entries, model.level_of_signal) if inject else None,
        )
        assert np.array_equal(got, want), (n_cols, inject)


class TestPlanMatchesMaskedKernel:
    @pytest.mark.parametrize("width", [1, 63, 64, "chunked"])
    @pytest.mark.parametrize("name", ["s27", "s1423"])
    def test_catalog_circuits(self, name, width):
        model = CompiledModel(load_circuit(name))
        n_cols = chunked_width(model) if width == "chunked" else width
        if width == "chunked":
            assert _SCRATCH_BYTES // (8 * n_cols) < max_step_rows(model) / 2
        assert_plan_matches_masked_kernel(model, n_cols, seed=n_cols)

    def test_steps_are_keyed_by_op_and_inversion(self):
        model = CompiledModel(load_circuit("s1423"))
        table = model._plan_table
        keys = {tuple(row[:3]) for row in table.tolist()}
        assert len(keys) == len(table)  # one step per (level, op, inverted)
        for lvl, op, inv, lo, hi, first in table.tolist():
            dst = model._plan_dst[lo:hi]
            assert np.all(np.diff(dst) > 0)
            assert (first >= 0) == (dst[-1] - dst[0] == hi - lo - 1)
            assert np.all(model.level_of_signal[dst] == lvl)

    @pytest.mark.parametrize("width", [1, 64, "chunked"])
    def test_blocks_cover_each_level_once(self, width):
        model = CompiledModel(load_circuit("s1423"))
        n_cols = chunked_width(model) if width == "chunked" else width
        model.eval(model.alloc(n_cols))
        ((rows, levels),) = model._blocks.items()
        for lvl, blocks in enumerate(levels, start=1):
            dst = np.concatenate([block[5] for block in blocks])
            want = np.flatnonzero(model.level_of_signal == lvl)
            assert sorted(dst.tolist()) == want.tolist()
            for *_, block_dst, first in blocks:
                assert len(block_dst) <= rows
                if first >= 0:
                    assert block_dst.tolist() == list(
                        range(first, first + len(block_dst))
                    )
        if width == 1:  # every level fits the scratch: one block each
            assert all(len(blocks) == 1 for blocks in levels)
        if width == "chunked":
            assert rows < max_step_rows(model)


@st.composite
def mixed_circuits(draw):
    """Random circuits over the whole gate library, XOR/XNOR, BUF/NOT and
    CONST0/CONST1 included, with 3-input gates to decompose."""
    n_pi = draw(st.integers(1, 4))
    n_ff = draw(st.integers(0, 3))
    n_gates = draw(st.integers(1, 30))
    circuit = Circuit("mixed")
    nets = []
    for i in range(n_pi):
        circuit.add_input(f"i{i}")
        nets.append(f"i{i}")
    nets += [f"q{i}" for i in range(n_ff)]
    for g in range(n_gates):
        gtype = draw(st.sampled_from(list(GateType)))
        if gtype in (GateType.CONST0, GateType.CONST1):
            arity = 0
        elif gtype in (GateType.NOT, GateType.BUF):
            arity = 1
        else:
            arity = draw(st.integers(2, 3))
        inputs = [draw(st.sampled_from(nets)) for _ in range(arity)]
        circuit.add_gate(f"g{g}", gtype, inputs)
        nets.append(f"g{g}")
    gate_nets = nets[n_pi + n_ff :]
    for i in range(n_ff):
        circuit.add_flop(f"q{i}", draw(st.sampled_from(gate_nets)))
    circuit.add_output(gate_nets[-1])
    return circuit


@settings(max_examples=40, deadline=None)
@given(
    circuit=mixed_circuits(),
    width=st.sampled_from([1, 63, 64, "chunked"]),
    seed=st.integers(0, 2**16),
)
def test_plan_matches_masked_kernel_on_mixed_circuits(circuit, width, seed):
    model = CompiledModel(circuit)
    n_cols = chunked_width(model) if width == "chunked" else width
    assert_plan_matches_masked_kernel(model, n_cols, seed)


_LEVELS = [0, 0, 1, 2, 2, 5, 5, 7]


@settings(max_examples=60, deadline=None)
@given(
    entries=st.lists(
        st.tuples(
            st.integers(0, len(_LEVELS) - 1),
            st.integers(0, 3),
            st.one_of(st.integers(0, 3), st.integers(0, 63)),
            st.integers(0, 1),
        ),
        max_size=80,
    )
)
def test_build_matches_dict_merge(entries):
    want = row_sets(dict_merge_build(entries, _LEVELS))
    as_array = np.array(entries, dtype=np.int64).reshape(-1, 4)
    assert row_sets(Injections.build(entries, _LEVELS).per_level) == want
    assert row_sets(Injections.build(as_array, _LEVELS).per_level) == want


class TestEvalInputChecks:
    @pytest.mark.parametrize(
        "make",
        [
            lambda m: np.asfortranarray(m.alloc(4)),
            lambda m: m.alloc(8)[:, :4],
            lambda m: np.zeros((m.n_signals, 4), dtype=np.int64),
            lambda m: np.zeros((m.n_signals + 1, 4), dtype=np.uint64),
        ],
        ids=["fortran", "column-slice", "int64", "row-count"],
    )
    def test_rejects(self, s27, make):
        model = CompiledModel(s27)
        with pytest.raises(ValueError):
            model.eval(make(model))

    def test_injection_apply_rejects_a_column_slice(self):
        inj = Injections.build([(0, 0, 0, 1)], [0, 0])
        with pytest.raises(ValueError):
            inj.apply(np.zeros((2, 4), dtype=np.uint64)[:, :2], 0)


# ----------------------------------------------------------------------
# The pass plan: copy rows without injections cut out.
# ----------------------------------------------------------------------
@settings(max_examples=40, deadline=None)
@given(
    circuit=mixed_circuits(),
    branched=st.booleans(),
    width=st.sampled_from([1, 63, "chunked"]),
    seed=st.integers(0, 2**16),
    share=st.floats(0.0, 1.0),
)
def test_pass_plan_observes_what_the_full_plan_does(
    circuit, branched, width, seed, share
):
    """PO and D rows, and every injected row, of the pass plan equal the
    full plan's, for random injected signal sets (fanout branches made
    explicit or not)."""
    model = FaultGraph(circuit).model if branched else CompiledModel(circuit)
    n_cols = chunked_width(model) if width == "chunked" else width
    rng = np.random.Generator(np.random.PCG64(seed))
    injected = np.flatnonzero(rng.random(model.n_signals) < share)
    entries = random_entries(model, n_cols, rng)
    entries = entries[np.isin(entries[:, 0], injected)]
    inj = Injections.build(entries, model.level_of_signal)
    start = rng.integers(0, 2**64, size=(model.n_signals, n_cols), dtype=np.uint64)
    want, got = start.copy(), start.copy()
    model.eval(want, inj)
    plan = model.pass_plan(injected)
    plan.eval(got, inj)
    assert np.array_equal(got[plan.po_idx], want[model.po_idx])
    assert np.array_equal(got[plan.d_idx], want[model.d_idx])
    assert np.array_equal(got[injected], want[injected])
    kept = set(plan._plan_dst.tolist())
    for lvl, op, inv, lo, hi, first in model._plan_table.tolist():
        for dst in model._plan_dst[lo:hi].tolist():
            # Only non-inverted copies that carry no injection are cut.
            assert (dst in kept) == (op != _COPY or inv or dst in injected)


def test_pass_plan_resolves_copy_chains():
    c = Circuit()
    c.add_input("a")
    c.add_output("d")
    c.add_gate("b", GateType.BUF, ["a"])
    c.add_gate("c", GateType.BUF, ["b"])
    c.add_gate("d", GateType.NOT, ["c"])
    model = CompiledModel(c)
    plan = model.pass_plan(np.array([], dtype=np.intp))
    # Both buffers are cut; the inverter reads the input directly.
    assert plan._plan_dst.tolist() == [model.index_of("d")]
    assert plan._plan_src1.tolist() == [model.index_of("a")]
    # An injected buffer stays, and the chain resolves to it.
    kept = model.pass_plan(np.array([model.index_of("b")]))
    assert kept._plan_dst.tolist() == [model.index_of("b"), model.index_of("d")]
    assert kept._plan_src1.tolist() == [model.index_of("a"), model.index_of("b")]
