"""Capacity tests for real-silicon scale.

Covers the struct-of-arrays netlist form (``Circuit.to_arrays`` /
``circuit_from_arrays``), the O(V+E) levelizer on pathologically deep
circuits, the content-addressed compile cache, the circuit fingerprint
it is keyed by, and byte-identity of pooled evaluation on the largest
vendored circuit.
"""

from __future__ import annotations

import pickle
import time

import numpy as np
import pytest

from repro.bench_circuits.catalog import load_circuit
from repro.circuit.cache import CompileCache
from repro.circuit.levelize import levelize, levelize_arrays
from repro.circuit.library import GateType
from repro.circuit.netlist import Circuit, circuit_from_arrays
from repro.circuit.stats import circuit_stats
from repro.faults.fault_sim import FaultSimulator
from repro.faults.model import FaultGraph
from repro.robustness.checkpoint import circuit_fingerprint
from repro.simulation.compiled import Injections


def not_chain(depth: int, name: str = "chain") -> Circuit:
    """A single NOT chain of ``depth`` gates: worst-case logic depth."""
    c = Circuit(name)
    c.add_input("a")
    prev = "a"
    for i in range(depth):
        out = f"n{i}"
        c.add_gate(out, GateType.NOT, [prev])
        prev = out
    c.add_output(prev)
    return c


#: Fixed key for the concurrent-writer race: both workers hammer the
#: SAME cache entry, which is the collision atomic-replace must survive.
_RACE_FINGERPRINT = "f" * 64


def _cache_race_worker(root: str, tag: str, barrier) -> None:
    """Store/load the shared entry in a tight loop; exit 1 on any tear.

    Module-level (not a closure) so the spawn start method can pickle it.
    """
    cache = CompileCache(root)
    state = {"tag": tag, "payload": list(range(2000))}
    barrier.wait()
    for _ in range(50):
        cache.store(_RACE_FINGERPRINT, state)
        seen = cache.load(_RACE_FINGERPRINT)
        # A load during the race sees a complete payload from one of the
        # writers or (only if replace were non-atomic) a torn entry,
        # which CompileCache.load maps to None -- also a failure here
        # because the file certainly exists by now.
        if (
            seen is None
            or seen["tag"] not in ("a", "b")
            or seen["payload"] != state["payload"]
        ):
            raise SystemExit(1)
    raise SystemExit(0)


class TestDeepChainLevelize:
    """The levelizer must be iterative and near-linear in V+E.

    A 50k-deep chain is the adversarial case: one gate per level.  A
    recursive implementation blows the interpreter stack here, and the
    old frontier-rescan implementation was quadratic (minutes at this
    depth); both failure modes show up as a blown time budget.
    """

    DEPTH = 50_000
    BUDGET_S = 30.0  # ~0.2s measured; quadratic was projected ~10min

    def test_object_form(self):
        c = not_chain(self.DEPTH)
        start = time.perf_counter()
        lev = levelize(c)
        assert time.perf_counter() - start < self.BUDGET_S
        assert lev.depth == self.DEPTH
        assert len(lev.order) == self.DEPTH
        # Strictly one gate per level, in chain order.
        assert [g.output for g in lev.order] == [f"n{i}" for i in range(self.DEPTH)]

    def test_array_form(self):
        arrays = not_chain(self.DEPTH).to_arrays()
        start = time.perf_counter()
        la = levelize_arrays(arrays)
        assert time.perf_counter() - start < self.BUDGET_S
        assert la.depth == self.DEPTH
        # level_of over the chain nets is 1, 2, ..., DEPTH.
        gate_nets = np.arange(1, arrays.n_nets)
        assert np.array_equal(la.level_of[gate_nets], np.arange(1, self.DEPTH + 1))
        assert np.array_equal(la.order, np.arange(self.DEPTH))

    @pytest.mark.parametrize("name", ["s298", "s1423"])
    def test_agrees_with_object_levelize(self, name):
        c = load_circuit(name)
        lev = levelize(c)
        arrays = c.to_arrays()
        la = levelize_arrays(arrays)
        assert la.depth == lev.depth
        index = {n: i for i, n in enumerate(arrays.names)}
        for level_no, gates in enumerate(lev.levels, start=1):
            for gate in gates:
                assert la.level_of[index[gate.output]] == level_no


class TestNetlistArrays:
    @pytest.mark.parametrize("name", ["s27", "s298", "s1423"])
    def test_round_trip_structurally_equal(self, name):
        c = load_circuit(name)
        back = circuit_from_arrays(c.to_arrays())
        assert c.structurally_equal(back)
        assert back.name == c.name

    def test_net_index_order_invariant(self, s27):
        """PIs first, then flop Qs, then gate outputs in insertion
        order; gate ``i`` drives net ``n_pi + n_ff + i``.  The compiled
        model's signal order is derived from this layout, so it is
        pinned here explicitly."""
        arrays = s27.to_arrays()
        assert list(arrays.names[: arrays.n_pi]) == list(s27.inputs)
        assert list(arrays.names[arrays.n_pi : arrays.n_pi + arrays.n_ff]) == [
            f.q for f in s27.flops
        ]
        first_gate = arrays.n_pi + arrays.n_ff
        for i, gate in enumerate(s27.iter_gates()):
            assert arrays.names[first_gate + i] == gate.output
            assert tuple(arrays.gate_fanin(i)) == tuple(
                arrays.names.index(src) for src in gate.inputs
            )

    def test_undriven_net_raises(self):
        c = Circuit("bad")
        c.add_input("a")
        c.add_gate("g", GateType.AND, ["a", "ghost"])
        c.add_output("g")
        with pytest.raises(KeyError, match="undriven"):
            c.to_arrays()

    def test_round_trip_preserves_fingerprint(self, tiny_synth):
        back = circuit_from_arrays(tiny_synth.to_arrays())
        assert circuit_fingerprint(back) == circuit_fingerprint(tiny_synth)


class TestLeanPickle:
    """The compiled graph ships arrays, not object netlists."""

    def test_derived_views_dropped_from_state(self, s27_graph):
        state = s27_graph.model.__getstate__()
        assert state["_circuit"] is None
        assert state["_signal_names"] is None
        assert state["_signal_index"] is None
        assert state["_blocks"] == {}

    def test_unpickled_graph_byte_identical(self, s27):
        from repro.core.config import BistConfig
        from repro.core.test_set import generate_ts0
        from repro.faults.collapse import collapse_faults

        cfg = BistConfig(la=4, lb=8, n=8)
        ts0 = generate_ts0(s27, cfg)
        faults = collapse_faults(s27)
        sim = FaultSimulator(s27)
        clone = pickle.loads(
            pickle.dumps(sim.graph, protocol=pickle.HIGHEST_PROTOCOL)
        )
        sim2 = FaultSimulator(clone)
        a = sim.simulate_grouped(ts0, faults)
        b = sim2.simulate_grouped(ts0, faults)
        assert list(a.items()) == list(b.items())


class TestFingerprint:
    def test_name_independent(self, s27):
        renamed = circuit_from_arrays(s27.to_arrays())
        renamed.name = "something_else"
        assert circuit_fingerprint(renamed) == circuit_fingerprint(s27)

    def test_structure_sensitive(self):
        a = not_chain(4, name="x")
        b = not_chain(5, name="x")
        assert circuit_fingerprint(a) != circuit_fingerprint(b)

    def test_gate_type_sensitive(self):
        def one_gate(gtype):
            c = Circuit("g")
            c.add_input("a")
            c.add_input("b")
            c.add_gate("o", gtype, ["a", "b"])
            c.add_output("o")
            return c

        assert circuit_fingerprint(one_gate(GateType.AND)) != circuit_fingerprint(
            one_gate(GateType.NAND)
        )


class TestCompileCache:
    def test_cold_miss_then_warm_hit(self, tmp_path, s27):
        cache = CompileCache(tmp_path)
        g1 = FaultGraph(s27, cache=cache)
        assert not g1.cache_hit
        assert (cache.misses, cache.hits) == (1, 0)
        g2 = FaultGraph(s27, cache=cache)
        assert g2.cache_hit
        assert (cache.misses, cache.hits) == (1, 1)

    def test_cached_graph_byte_identical(self, tmp_path, s27):
        from repro.core.config import BistConfig
        from repro.core.test_set import generate_ts0
        from repro.faults.collapse import collapse_faults

        cfg = BistConfig(la=4, lb=8, n=8)
        ts0 = generate_ts0(s27, cfg)
        faults = collapse_faults(s27)
        cache = CompileCache(tmp_path)
        cold = FaultSimulator(FaultGraph(s27, cache=cache))
        warm = FaultSimulator(FaultGraph(s27, cache=cache))
        assert warm.graph.cache_hit
        assert list(cold.simulate_grouped(ts0, faults).items()) == list(
            warm.simulate_grouped(ts0, faults).items()
        )
        # A wide injected pass (steps split into row chunks) on the
        # unpickled evaluation plan.
        n_words = 10_000
        free_rows = np.concatenate([cold.model.pi_idx, cold.model.q_idx])
        rng = np.random.Generator(np.random.PCG64(7))
        free = rng.integers(
            0, 2**64, size=(len(free_rows), n_words), dtype=np.uint64
        )
        entries = [
            cold.graph.injection_entry(f, i % n_words, i % 64)
            for i, f in enumerate(faults * 40)
        ]
        passes = []
        for sim in (cold, warm):
            model = sim.model
            vals = model.alloc(n_words)
            vals[free_rows] = free
            model.eval(vals, Injections.build(entries, model.level_of_signal))
            passes.append(vals)
        assert np.array_equal(passes[0], passes[1])

    def test_corrupt_entry_is_a_miss_and_heals(self, tmp_path, s27):
        cache = CompileCache(tmp_path)
        FaultGraph(s27, cache=cache)
        path = cache.path_for(cache.fingerprint(s27))
        path.write_bytes(b"not a pickle")
        g = FaultGraph(s27, cache=cache)
        assert not g.cache_hit
        assert cache.misses == 2
        # The recompile overwrote the torn entry; next load hits.
        assert FaultGraph(s27, cache=cache).cache_hit

    def test_entry_path_carries_format_version(self, tmp_path, s27):
        cache = CompileCache(tmp_path)
        path = cache.path_for(cache.fingerprint(s27))
        assert path.name.endswith(f".v{CompileCache.FORMAT_VERSION}.pkl")

    def test_from_env(self, tmp_path, monkeypatch):
        monkeypatch.delenv("REPRO_CACHE_DIR", raising=False)
        assert CompileCache.from_env() is None
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))
        cache = CompileCache.from_env()
        assert cache is not None and cache.root == tmp_path

    def test_concurrent_writers_same_fingerprint(self, tmp_path):
        """Two processes racing the same entry both succeed, no torn reads.

        The cache is shared per machine (``REPRO_CACHE_DIR``), so two
        sessions compiling the same circuit concurrently is the normal
        cold-start case, not an edge case.  Atomic replace means every
        load observes either a miss or one writer's complete payload --
        never a mix -- and neither writer errors.
        """
        import multiprocessing

        ctx = multiprocessing.get_context("spawn")
        barrier = ctx.Barrier(2)
        procs = [
            ctx.Process(
                target=_cache_race_worker,
                args=(str(tmp_path), tag, barrier),
            )
            for tag in ("a", "b")
        ]
        for p in procs:
            p.start()
        for p in procs:
            p.join(timeout=120)
        assert [p.exitcode for p in procs] == [0, 0]
        # The surviving entry is whichever store landed last -- complete
        # and well-formed either way.
        state = CompileCache(tmp_path).load(_RACE_FINGERPRINT)
        assert state is not None
        assert state["tag"] in ("a", "b")
        assert state["payload"] == list(range(2000))


class TestWhereStringCanonicalization:
    def test_single_canonical_object_per_observation_point(self):
        """Every path that builds a ``DetectionRecord`` must end up with
        the interpreter-interned ``where`` object.  Hyphenated literals
        are not auto-interned, and rows that come back from pool workers
        carry fresh copies, so without a choke point the serial recorder
        and the pooled reconstruction each hold their own
        equal-but-distinct copy -- and a result mixing them pickles with
        a different memo structure than a serial result sharing one
        object (seen as a byte-identity failure on s13207, where TS0
        goes through the in-process path while winner pairs come back
        from pool workers).  ``DetectionRecord`` is that choke point:
        pooled rows reach a result only through ``reconstruct_hits``,
        which builds records."""
        import sys

        from repro.faults.fault_sim import DetectionRecord

        for where in ("po", "limited-scan", "scan-out"):
            fresh = "-".join(where.split("-"))  # equal, not interned
            rec = DetectionRecord(
                fault=None, test_index=0, time_unit=0, where=fresh
            )
            assert rec.where is sys.intern(where)


class TestStatsPOFanout:
    def test_po_tap_counts_toward_fanout(self):
        """Regression: a PO tap loads its net.  Here g1 feeds both g2
        and a PO (fanout 2); before the fix the PO tap was invisible and
        max_fanout reported 1."""
        c = Circuit("potap")
        c.add_input("a")
        c.add_gate("g1", GateType.NOT, ["a"])
        c.add_gate("g2", GateType.NOT, ["g1"])
        c.add_output("g1")
        c.add_output("g2")
        assert circuit_stats(c).max_fanout == 2


@pytest.mark.slow
class TestLargestCircuitPoolRoundTrip:
    """Pooled candidate evaluation on the largest vendored circuit.

    Pool workers inherit the compiled graph and score shards of it; at
    s38417 scale the graph is many megabytes, and the rows that come
    back cross a process boundary, which is exactly where a subtle
    serialization bug would corrupt results.  The pooled tables must
    match the serial simulator bit for bit, including insertion order.
    """

    def test_s38417_pool_matches_serial(self):
        import dataclasses

        from repro.core.config import BistConfig
        from repro.core.limited_scan import build_limited_scan_test_set
        from repro.core.test_set import generate_ts0
        from repro.faults.collapse import collapse_faults
        from repro.faults.pool import CandidateEvaluator

        circuit = load_circuit("s38417")
        cfg = BistConfig(la=8, lb=16, n=8)
        ts0 = generate_ts0(circuit, cfg)
        # A fault subset keeps this within smoke-test runtime while
        # still exercising the full-size compiled payload.
        faults = collapse_faults(circuit)[:512]
        sim = FaultSimulator(circuit)
        n_sv = circuit.num_state_vars
        specs = [(0, None), (1, cfg.d1_values[0])]
        serial = {
            spec: sim.simulate_grouped(
                ts0 if spec[1] is None
                else build_limited_scan_test_set(ts0, spec[0], spec[1], cfg, n_sv),
                faults,
            )
            for spec in specs
        }
        pooled_cfg = dataclasses.replace(
            cfg, n_jobs=2, pool="persistent", candidate_batch=len(specs)
        )
        evaluator = CandidateEvaluator(
            sim, ts0, pooled_cfg, n_sv, None,
            n_jobs=2, targets=faults,
        )
        try:
            every = list(range(len(faults)))
            tables = evaluator.evaluate_specs(specs, every)
            for spec, table in zip(specs, tables):
                # Faults come back by target position; name them by the
                # caller's objects to compare with the serial dict.
                hits = {faults[p]: rec for p, rec in table.hits_for(every).items()}
                assert list(hits.items()) == list(serial[spec].items())
                # Byte-identity, aliasing included: pooled records must
                # hold the caller's fault objects, not equal copies that
                # crossed the worker boundary (pickle bytes see the
                # difference even when every comparison passes).
                assert pickle.dumps(hits) == pickle.dumps(serial[spec])
        finally:
            evaluator.close()
