"""Parallel-fault sequential fault simulation.

Faults are packed 64 per ``uint64`` word; the whole remaining fault list
is simulated against one test in a single pass of the compiled model per
time unit.  The fault-free machine is simulated first (one word) and every
faulty machine is compared against it at the three observation points the
paper uses:

- primary outputs at every functional time unit,
- the bits shifted out during a limited scan operation,
- the complete state at the final scan-out.

Faults are dropped at test boundaries (the standard trade-off: within one
test a detected fault keeps simulating, which is harmless).
"""

from __future__ import annotations

import itertools
import sys
from dataclasses import dataclass, field
from typing import Any, Dict, Iterable, List, Optional, Sequence, Tuple, Union

import numpy as np

from repro.circuit.library import ALL_ONES
from repro.circuit.netlist import Circuit
from repro.faults.model import Fault, FaultGraph
from repro.simulation.compiled import CompiledModel, Injections
from repro.simulation.scan import bit_to_word, full_scan_state, limited_shift

#: One limited-scan step: (shift_amount, fill_bits).
ScheduleStep = Tuple[int, Sequence[int]]

#: Column budget of one batched pass (``n_tests * n_groups`` per
#: candidate).  Chunking decides first-detection attribution, so every
#: caller -- serial and pooled -- must use this one value.
MAX_COLS = 4096


def chunk_tests(n_faults: int, max_cols: int = MAX_COLS) -> int:
    """Tests in one :meth:`FaultSimulator.simulate_grouped` chunk
    against ``n_faults`` faults: ``max_cols`` over the fault words.

    This is the batched pass's exactness rule.  Candidates scored side
    by side (:meth:`FaultSimulator.simulate_candidates`) reproduce the
    serial path only if every batch of their shared partition fits one
    chunk at :data:`MAX_COLS`.  The bound only grows as faults drop, so
    a batch that fits against the dispatch-time list fits against every
    later, smaller remaining list.
    """
    return max(1, max_cols // max(1, (n_faults + 63) // 64))


@dataclass
class ScanTest:
    """One test ``tau = (SI, T)`` with an optional limited-scan schedule."""

    si: List[int]
    vectors: List[List[int]]
    schedule: Optional[List[ScheduleStep]] = None

    @property
    def length(self) -> int:
        """The paper's test length: number of primary input vectors."""
        return len(self.vectors)

    @property
    def total_shift_cycles(self) -> int:
        """Clock cycles contributed to ``N_SH`` by this test's schedule."""
        if self.schedule is None:
            return 0
        return sum(step[0] for step in self.schedule)

    @property
    def num_limited_scans(self) -> int:
        """Time units at which a limited scan occurs (``shift > 0``)."""
        if self.schedule is None:
            return 0
        return sum(1 for step in self.schedule if step[0] > 0)

    def step(self, u: int) -> ScheduleStep:
        if self.schedule is None:
            return (0, ())
        return self.schedule[u]


@dataclass
class DetectionRecord:
    """Where and when a fault was first detected."""

    fault: Fault
    test_index: int
    time_unit: int
    where: str  # 'po', 'limited-scan', or 'scan-out'

    def __post_init__(self) -> None:
        # One canonical object per observation-point name no matter
        # which path built the record (serial recorder, pool row
        # reconstruction, shard merge).  Hyphenated literals are not
        # auto-interned by CPython, and serialized results are compared
        # byte-for-byte: a result mixing equal-but-distinct ``where``
        # strings pickles with a different memo structure than one
        # sharing a single object.
        self.where = sys.intern(self.where)


@dataclass
class ObservationPolicy:
    """Which observation mechanisms are active (ablation knob).

    ``state_taps`` lists state positions observed at *every* functional
    cycle (after capture) -- the multi-chain schemes of the paper's
    references [5]/[6] observe the last flip-flop of every scan chain
    this way.  ``None`` (the paper's own scheme) observes no taps.
    """

    primary_outputs: bool = True
    limited_scan_out: bool = True
    final_scan_out: bool = True
    state_taps: Optional[Sequence[int]] = None

    def tap_rows(self) -> Optional[np.ndarray]:
        if self.state_taps is None or len(self.state_taps) == 0:
            return None
        return np.asarray(self.state_taps, dtype=np.intp)


@dataclass
class _FaultList:
    """What the batched kernel needs of one fault list, built on first
    use: signals, stuck values, one node's injection masks per test
    count, and the pass plan (see :meth:`FaultSimulator._fault_list`)."""

    faults: Sequence[Fault]  # pins the objects whose ids key the cache
    sig: np.ndarray
    value: np.ndarray
    injections: Dict[int, Injections] = field(default_factory=dict)
    plan: Optional[CompiledModel] = None


@dataclass
class _FaultFreeRef:
    po_words: List[np.ndarray]  # per u: (n_po,) replicated words
    scanout_words: List[np.ndarray]  # per u: (k,) replicated words
    final_state: np.ndarray  # (chain, 1)
    tap_words: List[np.ndarray]  # per u: (n_taps,) captured-state taps


class FaultSimulator:
    """Sequential stuck-at fault simulator for full-scan tests.

    Construct once per circuit (the compiled graph is reused across test
    sets), then call :meth:`simulate` with any iterable of
    :class:`ScanTest` and target faults.
    """

    def __init__(
        self,
        circuit_or_graph: Union[Circuit, FaultGraph],
        chain: Optional[Sequence[int]] = None,
    ) -> None:
        """``chain`` selects which state positions are on the scan chain
        (in scan order); ``None`` means full scan.  With partial scan the
        un-scanned flops reset to 0 at the start of every test and are not
        observed at scan-out -- the standard partial-scan test model."""
        if isinstance(circuit_or_graph, FaultGraph):
            self.graph = circuit_or_graph
        else:
            self.graph = FaultGraph(circuit_or_graph)
        self.model = self.graph.model
        self._n_sv = len(self.model.q_idx)
        self._n_pi = len(self.model.pi_idx)
        if chain is None:
            chain = list(range(self._n_sv))
        else:
            chain = list(chain)
            if sorted(set(chain)) != sorted(chain) or any(
                not 0 <= p < self._n_sv for p in chain
            ):
                raise ValueError("chain must be distinct positions in range")
        self.chain = np.array(chain, dtype=np.intp)

    def __getstate__(self) -> dict:
        # The fault-list cache (injections, pass plans), the signal memo
        # and the kept value buffer are per-process working sets; never
        # ship them through pickle (pool workers under the spawn start
        # method).
        state = self.__dict__.copy()
        for name in ("_fault_lists", "_sig_memo", "_vals_buf"):
            state.pop(name, None)
        return state

    @property
    def chain_length(self) -> int:
        """Scanned flip-flops (= N_SV under full scan)."""
        return len(self.chain)

    def _initial_state(self, si: Sequence[int], n_words: int) -> np.ndarray:
        state = np.zeros((self._n_sv, n_words), dtype=np.uint64)
        if len(self.chain):
            state[self.chain, :] = full_scan_state(
                len(self.chain), si, n_words
            )
        return state

    def _shift(
        self, state: np.ndarray, k: int, fill: Sequence[int]
    ) -> Tuple[np.ndarray, np.ndarray]:
        sub, out_words = limited_shift(state[self.chain], k, fill)
        new_state = state.copy()
        new_state[self.chain] = sub
        return new_state, out_words

    # ------------------------------------------------------------------
    def simulate(
        self,
        tests: Iterable[ScanTest],
        faults: Sequence[Fault],
        policy: Optional[ObservationPolicy] = None,
    ) -> Dict[Fault, DetectionRecord]:
        """Simulate ``tests`` in order with fault dropping.

        Returns a record for every detected fault.  Stops early once every
        target fault is detected.
        """
        policy = policy or ObservationPolicy()
        remaining: List[Fault] = list(faults)
        detected: Dict[Fault, DetectionRecord] = {}

        for t_idx, test in enumerate(tests):
            self._check_test(test)
            if not remaining:
                break
            ref = self._fault_free_reference(test, policy)
            groups = [remaining[i : i + 64] for i in range(0, len(remaining), 64)]
            hits = self._simulate_faulty(test, groups, ref, policy)
            if hits:
                for (word, bit), (u, where) in hits.items():
                    fault = groups[word][bit]
                    detected[fault] = DetectionRecord(
                        fault=fault, test_index=t_idx, time_unit=u, where=where
                    )
                hit_faults = set(detected)
                remaining = [f for f in remaining if f not in hit_faults]
        return detected

    def simulate_grouped(
        self,
        tests: Sequence[ScanTest],
        faults: Sequence[Fault],
        policy: Optional[ObservationPolicy] = None,
        max_cols: int = MAX_COLS,
    ) -> Dict[Fault, DetectionRecord]:
        """Fast path: batch tests with identical (length, schedule).

        Tests of the paper's test sets come in exactly two shapes (all
        ``L_A`` tests share one schedule, all ``L_B`` tests another,
        because Procedure 1 re-seeds per test), so whole batches are
        simulated in one pass with tests laid out along the word axis
        next to the fault groups.  The detected-fault *set* is identical
        to :meth:`simulate`; only the (test, time-unit) attribution of
        first detections may differ (earliest time unit instead of
        earliest test).  ``max_cols`` bounds memory: a batch is chunked
        into :func:`chunk_tests` tests per pass.

        Every chunk is a one-candidate pass of the batched kernel
        (:meth:`_simulate_candidate_batch`), with detected faults
        dropped between chunks.  The faults' signals are resolved at
        most once per call (:meth:`_fault_list`) and dropped along with
        the faults.  The pass runs on the full plan: the list changes
        from chunk to chunk, and a pass plan pays only when reused.
        """
        policy = policy or ObservationPolicy()
        tests = list(tests)
        remaining: List[Fault] = list(faults)
        fault_list = self._fault_list(remaining)
        detected: Dict[Fault, DetectionRecord] = {}
        rank = 0
        for idx_list in self.candidate_partition(tests):
            pos = 0
            while pos < len(idx_list) and remaining:
                chunk = idx_list[pos : pos + chunk_tests(len(remaining), max_cols)]
                pos += len(chunk)
                rows: List[List[tuple]] = [[]]
                self._simulate_candidate_batch(
                    [tests],
                    chunk,
                    len(remaining),
                    self._base_injections(fault_list, len(chunk)),
                    self.model,
                    policy,
                    rank,
                    rows,
                )
                rank += 1
                if rows[0]:
                    keep = [True] * len(remaining)
                    for fault_pos, _rank, test_index, time_unit, where in rows[0]:
                        fault = remaining[fault_pos]
                        detected[fault] = DetectionRecord(
                            fault=fault,
                            test_index=test_index,
                            time_unit=time_unit,
                            where=where,
                        )
                        keep[fault_pos] = False
                    remaining = list(itertools.compress(remaining, keep))
                    # Only this call sees the shrunk list: not cached.
                    mask = np.array(keep, dtype=bool)
                    fault_list = _FaultList(
                        remaining, fault_list.sig[mask], fault_list.value[mask]
                    )
        return detected

    # ------------------------------------------------------------------
    # Batched multi-candidate evaluation (the persistent-pool fast path).
    # ------------------------------------------------------------------
    def candidate_partition(
        self, tests: Sequence[ScanTest]
    ) -> List[List[int]]:
        """:meth:`simulate_grouped`'s batch partition as test indices.

        Tests sharing ``(length, schedule)`` form one batch, in first
        appearance order -- the exact grouping ``simulate_grouped`` uses.
        """
        batches: Dict[tuple, List[int]] = {}
        for i, test in enumerate(tests):
            self._check_test(test)
            sig = (
                test.length,
                tuple(
                    (k, tuple(fill))
                    for k, fill in (test.schedule or [(0, ())] * test.length)
                ),
            )
            batches.setdefault(sig, []).append(i)
        return list(batches.values())

    def candidates_compatible(
        self,
        test_sets: Sequence[Sequence[ScanTest]],
        n_faults: int,
    ) -> bool:
        """Whether :meth:`simulate_candidates` can reproduce the serial
        result exactly for these candidates against ``n_faults`` targets.

        Requires every candidate to induce the same batch partition and
        every batch to fit in a single ``simulate_grouped`` chunk
        (:func:`chunk_tests`), so the per-fault first-detection
        attribution is chunking-independent.
        """
        if not test_sets or n_faults <= 0:
            return False
        parts = [self.candidate_partition(ts) for ts in test_sets]
        if any(p != parts[0] for p in parts[1:]):
            return False
        for idx in parts[0]:
            lengths = {len(ts[idx[0]].vectors) for ts in test_sets}
            if len(lengths) != 1:
                return False
        return all(len(idx) <= chunk_tests(n_faults) for idx in parts[0])

    def simulate_candidates(
        self,
        test_sets: Sequence[Sequence[ScanTest]],
        faults: Sequence[Fault],
        policy: Optional[ObservationPolicy] = None,
    ) -> Optional[List[List[tuple]]]:
        """Score several candidate test sets against ``faults`` at once.

        The candidates share one pass of the compiled model per time
        unit, so the Python-level evaluation overhead (the dominant cost
        for s1423-class circuits) is paid once instead of once per
        candidate; candidates in the same state share their columns too
        (:meth:`_simulate_candidate_batch`), and the pass runs on the
        pass plan of the faults' signals (:meth:`CompiledModel.pass_plan`).

        Returns, per candidate, the raw first-detection rows
        ``(fault_pos, batch_rank, test_index, time_unit, where)`` against
        the *full* ``faults`` list.  Because per-fault detection records
        are independent of which other faults are simulated (the
        parallel-fault model), the exact serial
        ``simulate_grouped(ts, remaining)`` result -- dict contents *and*
        insertion order -- can be reconstructed from these rows for any
        ordered subset ``remaining`` of ``faults`` (see
        :func:`repro.faults.pool.reconstruct_hits`).

        Returns ``None`` when the exactness preconditions fail (see
        :meth:`candidates_compatible`); callers must then fall back to
        per-candidate :meth:`simulate_grouped`.
        """
        policy = policy or ObservationPolicy()
        faults = list(faults)
        test_sets = [list(ts) for ts in test_sets]
        if not test_sets:
            return []
        if not faults or not test_sets[0]:
            return [[] for _ in test_sets]
        if not self.candidates_compatible(test_sets, len(faults)):
            return None
        fault_list = self._fault_list(faults)
        plan = self._pass_plan(fault_list)
        n_groups = (len(faults) + 63) // 64
        rows: List[List[tuple]] = [[] for _ in test_sets]
        for batch_rank, idx_list in enumerate(
            self.candidate_partition(test_sets[0])
        ):
            base_inj = self._base_injections(fault_list, len(idx_list))
            # Chunk the candidate axis so the fanned-out pass keeps
            # roughly the serial column budget: each candidate is
            # independent in the combined layout, so chunking C never
            # changes any row, it only bounds the working set.  Small
            # remaining lists (the Procedure 2 tail, where per-pass
            # Python overhead dominates) fit the whole batch; large ones
            # degrade gracefully towards per-candidate passes.
            # One candidate occupies at most nT * (G + 1) columns
            # (faulty groups plus the riding reference slot).
            per_cand = max(1, len(idx_list) * (n_groups + 1))
            c_chunk = max(1, MAX_COLS // per_cand)
            for c0 in range(0, len(test_sets), c_chunk):
                self._simulate_candidate_batch(
                    test_sets[c0 : c0 + c_chunk],
                    idx_list,
                    len(faults),
                    base_inj,
                    plan,
                    policy,
                    batch_rank,
                    rows[c0 : c0 + c_chunk],
                    keep_buffer=True,
                )
        return rows

    def _fault_list(self, faults: Sequence[Fault]) -> "_FaultList":
        """The cached pass inputs of ``faults`` (:class:`_FaultList`).

        They depend only on the fault identities -- not on vectors or
        schedules -- so consecutive passes over an unchanged remaining
        list (Procedure 2's plateau) reuse one build.  Keys pin the
        fault objects, so an ``id`` can never be recycled while its
        entry lives; four lists are kept, and never pickled.
        """
        cache = self.__dict__.setdefault("_fault_lists", {})
        key = tuple(map(id, faults))
        entry = cache.get(key)
        if entry is None:
            while len(cache) >= 4:
                cache.pop(next(iter(cache)))
            entry = cache[key] = _FaultList(faults, *self._fault_signals(faults))
        return entry

    def _base_injections(self, fault_list: "_FaultList", nT: int) -> Injections:
        """One node's injection masks for ``fault_list`` x ``nT`` tests."""
        inj = fault_list.injections.get(nT)
        if inj is None:
            inj = fault_list.injections[nT] = Injections.build(
                self._injection_entries(fault_list.sig, fault_list.value, nT),
                self.model.level_of_signal,
            )
        return inj

    def _pass_plan(self, fault_list: "_FaultList") -> CompiledModel:
        """The model without the copy rows ``fault_list`` injects nothing
        into (:meth:`CompiledModel.pass_plan`)."""
        if fault_list.plan is None:
            fault_list.plan = self.model.pass_plan(fault_list.sig)
        return fault_list.plan

    @staticmethod
    def _injection_entries(
        sig: np.ndarray, value: np.ndarray, nT: int
    ) -> np.ndarray:
        """``Injections.build`` rows for faults ``sig``/``value`` x ``nT``
        tests.

        Fault ``i`` sits at bit ``i % 64`` of word ``t * G + i // 64``
        for every test ``t``, ``G`` being the fault words per test;
        returns an ``(n, 4)`` array.
        """
        n = len(sig)
        pos = np.arange(n)
        entries = np.empty((nT, n, 4), dtype=np.intp)
        entries[:, :, 0] = sig
        entries[:, :, 1] = np.arange(nT)[:, None] * ((n + 63) // 64) + pos // 64
        entries[:, :, 2] = pos % 64
        entries[:, :, 3] = value
        return entries.reshape(-1, 4)

    def _fault_signals(
        self, faults: Sequence[Fault]
    ) -> Tuple[np.ndarray, np.ndarray]:
        """Simulation signal and stuck value of each fault, as arrays.

        Each fault object is resolved once per simulator: ``signal_of``
        costs about 1.5 us a fault, 40 ms per build over s13207's
        collapsed list, and Procedure 2 rebuilds over the same objects as
        faults drop.  The memo is keyed by identity and pins the fault,
        so an ``id`` can never be recycled while its entry lives.  Every
        fault is a stuck value on one signal, so one fault universe has
        at most ``2 * n_signals`` members; a memo holding more than two
        universes' worth of objects holds lists that were dropped, and
        is cleared.  Never pickled.
        """
        memo = getattr(self, "_sig_memo", None)
        if memo is None or len(memo) > 4 * self.model.n_signals:
            memo = self._sig_memo = {}
        signal_of = self.graph.signal_of
        sigs = []
        for fault in faults:
            hit = memo.get(id(fault))
            if hit is None:
                hit = memo[id(fault)] = (fault, signal_of(fault))
            sigs.append(hit[1])
        values = [fault.value for fault in faults]
        return (
            np.array(sigs, dtype=np.intp),
            np.array(values, dtype=np.intp),
        )

    def _simulate_candidate_batch(
        self,
        test_sets: Sequence[Sequence[ScanTest]],
        idx_list: Sequence[int],
        n_faults: int,
        base_inj: Injections,
        model: CompiledModel,
        policy: ObservationPolicy,
        batch_rank: int,
        rows: List[List[tuple]],
        keep_buffer: bool = False,
    ) -> None:
        """One uniform batch of candidates, each distinct machine once.

        Columns are laid out by *node*: the candidates whose scan-in
        states, vectors and limited-scan steps have been identical so
        far form one node, whose machines stand for every member's.
        Node ``n`` holds columns ``(n * nT + t) * (G + 1) + g``, with the
        fault-free reference riding along as slot ``g == G``, so one
        ``model.eval`` per time unit serves every node's faulty machines
        *and* references.  A node splits at a time unit whose step
        differs between its members; each child starts from a copy of
        the parent's state and of the faults it has seen.  Each row a
        node records is appended to every member, so every candidate
        gets exactly the rows, in the order, of its own one-candidate
        pass (:meth:`simulate_grouped` is this kernel with ``C == 1``:
        one node, no bookkeeping).

        ``base_inj`` holds one node's masks (:meth:`_base_injections`);
        they are tiled block-major once for the pass's peak node count,
        and a time unit with ``N`` nodes takes the first ``N`` blocks of
        every level as views.  Masks never touch the reference slots, so
        every column carries bit-for-bit the value a separate reference
        pass and ``G``-stride faulty pass would give it.  The value
        matrix of ``N`` nodes is a prefix of one buffer sized for the
        peak, the simulator's kept one with ``keep_buffer``
        (:meth:`_value_buffer`).  ``model`` is the full plan or a pass
        plan of the injected signals (:meth:`CompiledModel.pass_plan`):
        both give every observed row the same value.
        """
        C = len(test_sets)
        nT = len(idx_list)
        G = (n_faults + 63) // 64
        W = G + 1  # faulty groups plus the reference slot
        B = nT * W  # columns of one node
        n_sv, n_sig = self._n_sv, model.n_signals
        cand_tests = [[ts[i] for i in idx_list] for ts in test_sets]
        length = cand_tests[0][0].length
        steps = [[ct[0].step(u) for u in range(length)] for ct in cand_tests]
        taps = policy.tap_rows()

        # The first nodes gather the candidates with identical inputs;
        # the schedules fix every later split up front.
        nodes: List[List[int]] = [[0]]
        if C > 1:
            inputs: Dict[tuple, int] = {}
            nodes = []
            for c, ct in enumerate(cand_tests):
                key = tuple((tuple(t.si), tuple(map(tuple, t.vectors))) for t in ct)
                i = inputs.setdefault(key, len(inputs))
                if i == len(nodes):
                    nodes.append([])
                nodes[i].append(c)
        si_words, pi_words = self._input_words(
            [cand_tests[members[0]] for members in nodes], length
        )
        node_input = np.arange(len(nodes))
        splits: Dict[int, Tuple[np.ndarray, List[List[int]]]] = {}
        tree = nodes
        for u in range(length):
            if len(tree) == C:
                break
            children: List[List[int]] = []
            src: List[int] = []
            for n, members in enumerate(tree):
                parts: Dict[Any, List[int]] = {}
                for c in members:
                    k, fill = steps[c][u]
                    parts.setdefault((k, tuple(fill)) if k else 0, []).append(c)
                children.extend(parts.values())
                src.extend([n] * len(parts))
            if len(children) > len(tree):
                splits[u] = (np.array(src, dtype=np.intp), children)
                tree = children
        peak = len(tree)

        # One node's masks restrided to the G + 1 stride (t*G + g ->
        # t*W + g), tiled once per node of the peak.
        offsets = np.arange(peak, dtype=np.intp)[:, None] * B
        tiled = {}
        for lvl, (sigs, words, ands, ors) in base_inj.per_level.items():
            words = words + words // G
            if peak > 1:
                sigs, ands, ors = (np.tile(a, peak) for a in (sigs, ands, ors))
                words = (words + offsets).reshape(-1)
            tiled[lvl] = (sigs, words, ands, ors)
        n_words = n_sig * peak * B
        buf = (
            self._value_buffer(n_words)
            if keep_buffer
            else np.empty(n_words, dtype=np.uint64)
        )

        def node_prefix(N: int) -> Tuple[np.ndarray, Injections]:
            """The value matrix and the injections of the first ``N`` nodes."""
            inj = Injections(
                tiled
                if N == peak
                else {
                    lvl: tuple(a[: len(a) // peak * N] for a in group)
                    for lvl, group in tiled.items()
                }
            )
            return buf[: n_sig * N * B].reshape(n_sig, N * B), inj

        N = len(nodes)
        vals, inj = node_prefix(N)
        state = np.zeros((n_sv, N * B), dtype=np.uint64)
        if len(self.chain):
            state[self.chain, :] = np.repeat(si_words, W, axis=2).reshape(
                len(self.chain), N * B
            )
        pi_words = np.repeat(pi_words, W, axis=3)  # (length, n_pi, inputs, B)
        seen = np.zeros((N, G), dtype=np.uint64)

        def record(
            n: int, diff_tg: np.ndarray, fresh: np.ndarray, u: int, where: str
        ) -> None:
            """Node ``n``'s first detections, the ``fresh`` bits of its
            ``(nT, G)`` differences, appended to every member's rows."""
            members = [rows[c] for c in nodes[n]]
            for g in np.flatnonzero(fresh):
                bits = int(fresh[g])
                mask_col = diff_tg[:, g]
                while bits:
                    low = bits & -bits
                    fault_pos = int(g) * 64 + low.bit_length() - 1
                    if fault_pos < n_faults:
                        t_loc = int(np.flatnonzero(mask_col & np.uint64(low))[0])
                        # Plain ints only: rows cross a process boundary
                        # and are schema-validated on the way back.
                        row = (fault_pos, batch_rank, idx_list[t_loc], u, where)
                        for out in members:
                            out.append(row)
                    bits ^= low
            seen[n] |= fresh

        def record_nodes(diff_ntg: np.ndarray, u: int, where: str) -> None:
            """Every node's first detections in ``(N, nT, G)`` differences."""
            fresh = np.bitwise_or.reduce(diff_ntg, axis=1) & ~seen
            if fresh.any():
                for n in range(len(fresh)):
                    if fresh[n].any():
                        record(n, diff_ntg[n], fresh[n], u, where)

        for u in range(length):
            split = splits.get(u)
            if split is not None:
                src, nodes = split
                state = state.reshape(n_sv, N, B)[:, src].reshape(n_sv, len(src) * B)
                seen = seen[src]
                node_input = node_input[src]
                N = len(nodes)
                vals, inj = node_prefix(N)
            for n, members in enumerate(nodes):
                k, fill = steps[members[0]][u]
                if k > 0:
                    cols = slice(n * B, (n + 1) * B)
                    blk, out_words = self._shift(state[:, cols], k, list(fill))
                    state[:, cols] = blk
                    if policy.limited_scan_out:
                        out = out_words.reshape(k, nT, W)
                        diff = np.bitwise_or.reduce(
                            out[:, :, :G] ^ out[:, :, G:], axis=0
                        )
                        fresh = np.bitwise_or.reduce(diff, axis=0) & ~seen[n]
                        if fresh.any():
                            record(n, diff, fresh, u, "limited-scan")
            vals[model.pi_idx, :] = pi_words[u][:, node_input].reshape(
                self._n_pi, N * B
            )
            vals[model.q_idx, :] = state
            model.eval(vals, injections=inj)
            if policy.primary_outputs and len(model.po_idx):
                po = vals[model.po_idx, :].reshape(len(model.po_idx), N, nT, W)
                record_nodes(
                    np.bitwise_or.reduce(po[..., :G] ^ po[..., G:], axis=0), u, "po"
                )
            state = vals[model.d_idx, :]
            if taps is not None:
                tp = state[taps, :].reshape(len(taps), N, nT, W)
                record_nodes(
                    np.bitwise_or.reduce(tp[..., :G] ^ tp[..., G:], axis=0),
                    u,
                    "state-tap",
                )

        if policy.final_scan_out and self.chain_length:
            fs = state[self.chain].reshape(self.chain_length, N, nT, W)
            record_nodes(
                np.bitwise_or.reduce(fs[..., :G] ^ fs[..., G:], axis=0),
                length,
                "scan-out",
            )

    def _value_buffer(self, n_words: int) -> np.ndarray:
        """At least ``n_words`` words for window passes' value matrices,
        kept across passes.

        A window pass's value matrix is its largest allocation.  Made
        afresh, every pass pays a page fault per 4 KiB page on first
        touch (about 15 ms per 25 MB on a 2-vCPU host), and, freed back
        into the malloc heap at a size that varies from pass to pass, it
        fragments the heap: peak RSS rose 16% on p2_s1423_batched.  So
        the simulator keeps one buffer, grown to its widest window pass,
        for as long as it lives.  One-candidate passes allocate their
        own: a pool's parent runs TS0's before it forks its workers,
        which would each inherit a kept buffer.  Never pickled.
        """
        buf = getattr(self, "_vals_buf", None)
        if buf is None or len(buf) < n_words:
            self._vals_buf = None  # free the old buffer before the new one
            buf = self._vals_buf = np.empty(n_words, dtype=np.uint64)
        return buf

    def _input_words(
        self, inputs: Sequence[Sequence[ScanTest]], length: int
    ) -> Tuple[np.ndarray, np.ndarray]:
        """Replicated-bit words of the scan-in states, ``(chain, inputs,
        n_tests)``, and of the vectors, ``(length, n_pi, inputs,
        n_tests)``, of equally long test lists."""
        shape = (len(inputs), len(inputs[0]))
        si = np.array([[t.si for t in tests] for tests in inputs], dtype=bool)
        pi = np.array([[t.vectors for t in tests] for tests in inputs], dtype=bool)
        si = si.reshape(*shape, self.chain_length).transpose(2, 0, 1)
        pi = pi.reshape(*shape, length, self._n_pi).transpose(2, 3, 0, 1)
        zero = np.uint64(0)
        return np.where(si, ALL_ONES, zero), np.where(pi, ALL_ONES, zero)

    def detected_by(
        self,
        tests: Sequence[ScanTest],
        faults: Sequence[Fault],
        policy: Optional[ObservationPolicy] = None,
    ) -> List[Fault]:
        """Convenience: just the detected faults, in universe order."""
        records = self.simulate(tests, faults, policy)
        return [f for f in faults if f in records]

    def measure_detection_counts(
        self,
        faults: Sequence[Fault],
        n_patterns: int = 10_000,
        seed: int = 0,
    ) -> np.ndarray:
        """Per-fault detection counts under single random patterns.

        The measurement the static COP estimates predict: each pattern
        assigns independent fair bits to every primary input and scan
        cell, runs one combinational evaluation, and observes the primary
        outputs plus every flop D pin (full-scan observability).  Pattern
        bits ride the word lanes (pattern-parallel); faults are injected
        one at a time as whole-word stuck values, so each fault costs one
        ``ceil(n_patterns / 64)``-word evaluation.

        Returns ``int64[len(faults)]``: patterns (out of ``n_patterns``)
        that detect each fault.  Deterministic in ``seed``.
        """
        model = self.model
        n_words = (n_patterns + 63) // 64
        rng = np.random.Generator(np.random.PCG64(seed))
        free_rows = np.concatenate([model.pi_idx, model.q_idx])
        obs_rows = np.concatenate([model.po_idx, model.d_idx])
        bits = rng.integers(
            0, 2**64, size=(len(free_rows), n_words), dtype=np.uint64
        )
        good = model.alloc(n_words)
        good[free_rows, :] = bits
        model.eval(good)
        good_obs = good[obs_rows, :]

        # Slack lanes of the last word carry extra random patterns; the
        # tail mask keeps them out of the counts.
        tail = n_patterns - (n_words - 1) * 64
        mask = np.full(n_words, ~np.uint64(0), dtype=np.uint64)
        if tail < 64:
            mask[-1] = np.uint64((1 << tail) - 1)

        counts = np.zeros(len(faults), dtype=np.int64)
        vals = model.alloc(n_words)
        for i, fault in enumerate(faults):
            sig = self.graph.signal_of(fault)
            inj = Injections.build_whole_word(
                [(sig, w, fault.value) for w in range(n_words)],
                model.level_of_signal,
            )
            vals[:] = 0
            vals[free_rows, :] = bits
            model.eval(vals, inj)
            diff = np.bitwise_or.reduce(
                (vals[obs_rows, :] ^ good_obs), axis=0
            )
            diff &= mask
            counts[i] = int(np.bitwise_count(diff).sum())
        return counts

    # ------------------------------------------------------------------
    def _check_test(self, test: ScanTest) -> None:
        if len(test.si) != self.chain_length:
            raise ValueError(
                f"test SI has {len(test.si)} bits, chain has {self.chain_length}"
            )
        for vec in test.vectors:
            if len(vec) != self._n_pi:
                raise ValueError(
                    f"vector has {len(vec)} bits, circuit has {self._n_pi} inputs"
                )
        if test.schedule is not None and len(test.schedule) != test.length:
            raise ValueError("schedule length must equal test length")

    def _fault_free_reference(
        self, test: ScanTest, policy: Optional[ObservationPolicy] = None
    ) -> _FaultFreeRef:
        model = self.model
        taps = (policy or ObservationPolicy()).tap_rows()
        state = self._initial_state(test.si, n_words=1)
        vals = model.alloc(n_words=1)
        po_words: List[np.ndarray] = []
        scanout_words: List[np.ndarray] = []
        tap_words: List[np.ndarray] = []
        for u, vector in enumerate(test.vectors):
            k, fill = test.step(u)
            if k > 0:
                state, out_words = self._shift(state, k, list(fill))
                scanout_words.append(out_words[:, 0].copy())
            else:
                scanout_words.append(np.zeros(0, dtype=np.uint64))
            model.set_inputs_from_bits(vals, vector)
            vals[model.q_idx, :] = state
            model.eval(vals)
            po_words.append(vals[model.po_idx, 0].copy())
            state = vals[model.d_idx, :].copy()
            if taps is not None:
                tap_words.append(state[taps, 0].copy())
        return _FaultFreeRef(
            po_words=po_words,
            scanout_words=scanout_words,
            final_state=state[self.chain].copy(),
            tap_words=tap_words,
        )

    def _simulate_faulty(
        self,
        test: ScanTest,
        groups: List[List[Fault]],
        ref: _FaultFreeRef,
        policy: ObservationPolicy,
    ) -> Dict[Tuple[int, int], Tuple[int, str]]:
        """Run all fault groups through one test.

        Returns ``{(word, bit): (time_unit, where)}`` for first detections;
        the final scan-out is reported with time unit ``test.length``.
        """
        model = self.model
        taps = policy.tap_rows()
        n_words = len(groups)
        sig, value = self._fault_signals([f for group in groups for f in group])
        injections = Injections.build(
            self._injection_entries(sig, value, 1), model.level_of_signal
        )

        state = self._initial_state(test.si, n_words)
        # A fault on a flop's Q net must corrupt what the combinational
        # logic sees, but not the latched/scanned value -- which is exactly
        # what injecting into `vals` (not `state`) does.
        vals = model.alloc(n_words)
        seen = np.zeros(n_words, dtype=np.uint64)
        hits: Dict[Tuple[int, int], Tuple[int, str]] = {}

        def record(diff_words: np.ndarray, u: int, where: str) -> None:
            nonlocal seen
            fresh = diff_words & ~seen
            if not fresh.any():
                return
            for word in np.flatnonzero(fresh):
                bits = int(fresh[word])
                while bits:
                    low = bits & -bits
                    bit = low.bit_length() - 1
                    if bit < len(groups[word]):
                        hits[(word, bit)] = (u, where)
                    bits ^= low
            seen |= fresh

        for u, vector in enumerate(test.vectors):
            k, fill = test.step(u)
            if k > 0:
                state, out_words = self._shift(state, k, list(fill))
                if policy.limited_scan_out:
                    diff = out_words ^ ref.scanout_words[u][:, None]
                    record(np.bitwise_or.reduce(diff, axis=0), u, "limited-scan")
            model.set_inputs_from_bits(vals, vector)
            vals[model.q_idx, :] = state
            model.eval(vals, injections=injections)
            if policy.primary_outputs and len(model.po_idx):
                diff = vals[model.po_idx, :] ^ ref.po_words[u][:, None]
                record(np.bitwise_or.reduce(diff, axis=0), u, "po")
            state = vals[model.d_idx, :].copy()
            if taps is not None:
                diff = state[taps, :] ^ ref.tap_words[u][:, None]
                record(np.bitwise_or.reduce(diff, axis=0), u, "state-tap")

        if policy.final_scan_out and self.chain_length:
            diff = state[self.chain] ^ ref.final_state
            record(
                np.bitwise_or.reduce(diff, axis=0), test.length, "scan-out"
            )
        return hits
