"""Property tests of the batched candidate pass.

:meth:`FaultSimulator.simulate_candidates` lays candidates out by node --
candidates in the same state share their columns until their limited-scan
steps differ -- and runs on the pass plan of its fault list, with every
uninjected copy row cut out.  Neither may change a row: each candidate's
rows must equal its own one-candidate pass, and
:func:`~repro.faults.pool.reconstruct_hits` of them must equal the serial
:meth:`~FaultSimulator.simulate_grouped` result (contents and insertion
order) for any ordered subset of the faults.
"""

from __future__ import annotations

import pickle

import numpy as np
from hypothesis import given, settings, strategies as st

from repro.bench_circuits.synthetic import SyntheticSpec, synthesize
from repro.core.config import BistConfig
from repro.core.limited_scan import build_limited_scan_test_set
from repro.core.test_set import generate_ts0
from repro.faults.collapse import collapse_faults
from repro.faults.fault_sim import FaultSimulator, ObservationPolicy, ScanTest
from repro.faults.pool import reconstruct_hits
from repro.simulation.compiled import _COPY, CompiledModel


def _partial(tests, n_chain):
    """``tests`` with each scan-in state cut to an ``n_chain``-bit chain."""
    return [
        ScanTest(si=list(t.si[:n_chain]), vectors=[list(v) for v in t.vectors])
        for t in tests
    ]


@st.composite
def windows(draw):
    """A small circuit, a chain, a policy, faults and a candidate window.

    The window mixes Procedure 1 candidates of two iterations (D1 values
    of one iteration share their draws, so they share schedule
    prefixes), exact duplicates, and candidates whose scan-in states or
    vectors differ from the rest (which share nothing).
    """
    seed = draw(st.integers(0, 2**16))
    n_ff = draw(st.integers(2, 5))
    circuit = synthesize(
        SyntheticSpec(
            name=f"cand{seed}",
            n_pi=draw(st.integers(1, 4)),
            n_po=draw(st.integers(1, 3)),
            n_ff=n_ff,
            n_gates=draw(st.integers(15, 45)),
            seed=seed,
        )
    )
    if draw(st.booleans()):
        chain = None
        n_chain = n_ff
    else:
        chain = draw(st.permutations(range(n_ff)))[: draw(st.integers(1, n_ff))]
        n_chain = len(chain)
    taps = draw(
        st.one_of(
            st.none(), st.lists(st.integers(0, n_ff - 1), min_size=1, max_size=2)
        )
    )
    policy = ObservationPolicy(
        primary_outputs=draw(st.booleans()),
        limited_scan_out=draw(st.booleans()),
        final_scan_out=draw(st.booleans()),
        state_taps=taps,
    )
    la = draw(st.integers(2, 5))
    cfg = BistConfig(
        la=la, lb=la + draw(st.integers(1, 5)), n=draw(st.integers(1, 3)),
        base_seed=seed,
    )
    ts0 = _partial(generate_ts0(circuit, cfg), n_chain)
    other = _partial(
        generate_ts0(circuit, BistConfig(la=cfg.la, lb=cfg.lb, n=cfg.n,
                                         base_seed=seed + 1)),
        n_chain,
    )
    sources = {"ts0": ts0, "other": other}
    if n_chain:
        flipped = _partial(ts0, n_chain)
        flipped[-1].si[0] ^= 1
        sources["flipped"] = flipped
    specs = draw(
        st.lists(
            st.tuples(
                st.sampled_from(sorted(sources)),
                st.integers(1, 2),
                st.integers(1, 4),
            ),
            min_size=1,
            max_size=6,
        )
    )
    if draw(st.booleans()):
        specs = specs + specs[:1]  # an exact duplicate
    window = [
        build_limited_scan_test_set(sources[src], i, d1, cfg, n_chain)
        for src, i, d1 in specs
    ]
    faults = collapse_faults(circuit)
    keep = draw(st.lists(st.booleans(), min_size=len(faults), max_size=len(faults)))
    remaining = [f for f, k in zip(faults, keep) if k]
    return circuit, chain, policy, window, faults, remaining


@settings(max_examples=60, deadline=None)
@given(case=windows())
def test_window_rows_match_one_candidate_passes(case):
    circuit, chain, policy, window, faults, remaining = case
    sim = FaultSimulator(circuit, chain=chain)
    rows = sim.simulate_candidates(window, faults, policy)
    assert rows is not None
    order = {f: i for i, f in enumerate(faults)}
    for tests, cand_rows in zip(window, rows):
        assert cand_rows == sim.simulate_candidates([tests], faults, policy)[0]
        named = [(faults[r[0]],) + r[1:] for r in cand_rows]
        for subset in (faults, remaining):
            want = sim.simulate_grouped(tests, subset, policy)
            got = reconstruct_hits(named, order, subset)
            assert list(got.items()) == list(want.items())


def _case(seed=7):
    circuit = synthesize(
        SyntheticSpec(name="nodes", n_pi=3, n_po=2, n_ff=4, n_gates=40, seed=seed)
    )
    cfg = BistConfig(la=4, lb=8, n=2)
    ts0 = generate_ts0(circuit, cfg)
    return circuit, cfg, ts0, collapse_faults(circuit)


def _eval_widths(monkeypatch):
    widths = []
    original = CompiledModel.eval

    def spy(self, vals, injections=None):
        widths.append(vals.shape[1])
        return original(self, vals, injections)

    monkeypatch.setattr(CompiledModel, "eval", spy)
    return widths


def test_identical_candidates_share_one_node(monkeypatch):
    circuit, cfg, ts0, faults = _case()
    sim = FaultSimulator(circuit)
    tests = build_limited_scan_test_set(ts0, 1, 2, cfg, 4)
    window = [tests, [ScanTest(list(t.si), [list(v) for v in t.vectors],
                                list(t.schedule)) for t in tests]] * 2
    widths = _eval_widths(monkeypatch)
    rows = sim.simulate_candidates(window, faults)
    assert all(r == rows[0] for r in rows)
    n_words = (len(faults) + 63) // 64
    # One node per time unit: the batch of n tests, never C copies.
    assert set(widths) == {cfg.n * (n_words + 1)}


def test_candidates_split_where_their_schedules_part(monkeypatch):
    circuit, cfg, ts0, faults = _case()
    sim = FaultSimulator(circuit)
    window = [build_limited_scan_test_set(ts0, 1, d1, cfg, 4) for d1 in (1, 2, 3)]
    widths = _eval_widths(monkeypatch)
    sim.simulate_candidates(window, faults)
    block = cfg.n * ((len(faults) + 63) // 64 + 1)
    # Time unit 0 never shifts: all three candidates start as one node.
    assert widths[0] == block and widths[cfg.la] == block
    assert max(widths) <= 3 * block


def test_pass_caches_never_ship():
    """Pass plans, injection masks and the kept value buffer are
    per-process working sets: a pickled simulator carries none."""
    circuit, cfg, ts0, faults = _case()
    sim = FaultSimulator(circuit)
    window = [build_limited_scan_test_set(ts0, 1, d1, cfg, 4) for d1 in (1, 2)]
    sim.simulate_candidates(window, faults)
    assert sim._fault_lists and any(
        entry.plan is not None for entry in sim._fault_lists.values()
    )
    assert sim._vals_buf is not None
    state = sim.__getstate__()
    for name in ("_fault_lists", "_sig_memo", "_vals_buf"):
        assert name not in state
    clone = pickle.loads(pickle.dumps(sim))
    assert not hasattr(clone, "_fault_lists") and not hasattr(clone, "_vals_buf")
    assert clone.simulate_candidates(window, faults) == sim.simulate_candidates(
        window, faults
    )


def test_pass_plan_drops_only_uninjected_copies():
    circuit, cfg, ts0, faults = _case()
    sim = FaultSimulator(circuit)
    model = sim.model
    entry = sim._fault_list(faults[: len(faults) // 3])
    plan = sim._pass_plan(entry)
    table = model._plan_table
    copy_rows = np.concatenate(
        [
            model._plan_dst[lo:hi]
            for _lvl, op, inv, lo, hi, _first in table.tolist()
            if op == _COPY and not inv
        ]
    )
    dropped = set(model._plan_dst.tolist()) - set(plan._plan_dst.tolist())
    assert dropped == set(copy_rows.tolist()) - set(entry.sig.tolist())
    assert dropped  # the fault graph's fanout branches are copies
