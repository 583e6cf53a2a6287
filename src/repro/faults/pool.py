"""Persistent worker pool with batched candidate evaluation.

Procedure 2 scores many candidate test sets ``TS(I, D1)`` against one
unchanging session: the compiled circuit (simulator), ``TS0``, the
config, the observation policy and the target-fault list.  This module
keeps that session in one :class:`_Session` object, and every dispatch
is scored by its :meth:`~_Session.rows`, in whichever process holds it:

- **Workers inherit the session.**  One pool lives for the whole
  :func:`~repro.core.procedure2.run_procedure2` session.  Its workers
  receive the session through the executor's initializer; under the
  ``fork`` start method they inherit it without serializing it, and a
  respawned worker inherits it again.  (Under ``spawn`` or
  ``forkserver`` the initializer arguments are serialized once per
  worker start; results are the same.)
- **Seed-only dispatch.**  A dispatch ships candidate specs
  (``(iteration, d1)`` pairs) plus the shard's fault *indices* into the
  session's target list -- a few hundred bytes.  Each process rebuilds
  every candidate ``TS(I, D1)`` deterministically from ``seed(I)``
  (Procedure 1 is pure), through one bounded cache per session.
- **Batched candidate evaluation.**  A whole batch of ``(I, D1)``
  candidates is scored in one fanned-out pass
  (:meth:`~repro.faults.fault_sim.FaultSimulator.simulate_candidates`),
  amortizing the Python-level per-time-unit evaluation overhead across
  the batch.  The pass returns raw first-detection rows against the
  dispatch-time remaining list; because per-fault records are
  independent of which other faults are simulated, the **exact** serial
  result -- dict contents and insertion order -- for each candidate
  against its *then-current* remaining list is reconstructed without
  re-simulation (:func:`reconstruct_hits`).  Speculation is therefore
  free of result drift: outputs are byte-identical to the serial loop
  for any ``candidate_batch`` and any ``n_jobs``.
- **Small dispatches stay in the parent.**  Every worker still runs
  each time unit's evaluation, so splitting a narrow fault list saves
  little and a worker round trip costs more than it saves.  A dispatch
  is split only into shards that each evaluate at least
  ``_MIN_SHARD_CELLS`` value-matrix cells per time unit; otherwise the
  parent scores it as one shard.

Failure recovery is shard-granular under a
:class:`~repro.faults.sharding.RecoveryPolicy`: per-shard timeout
watchdog, deterministic seeded backoff retries, pool respawn after a
crash or hang, serial rescue in the parent for a shard that keeps
failing, and a structured
:class:`~repro.robustness.degradation.DegradationReport` of every
action.  Workers die with their parent
(:func:`~repro.faults.sharding.arm_pdeathsig`), so a SIGKILLed run
leaves no orphans.
"""

from __future__ import annotations

import time
from concurrent.futures import CancelledError, Executor, Future, ProcessPoolExecutor
from concurrent.futures import TimeoutError as FuturesTimeoutError
from concurrent.futures.process import BrokenProcessPool
from typing import Any, Dict, List, Optional, Sequence, Tuple

from repro.faults.fault_sim import (
    MAX_COLS,
    DetectionRecord,
    ObservationPolicy,
    ScanTest,
    chunk_tests,
)
from repro.faults.model import Fault
from repro.faults.sharding import (
    WHERE_RANK,
    RecoveryPolicy,
    arm_pdeathsig,
    available_cpu_count,
    resolve_n_jobs,
    shard_faults,
)
from repro.robustness.chaos import ChaosPlan, execute_injected
from repro.robustness.degradation import DegradationReport

#: A raw first-detection row:
#: ``(fault, batch_rank, test_index, time_unit, where)``.
DetectionRow = Tuple[Fault, int, int, int, str]

#: One candidate test set by seed: ``(iteration, d1)``; ``d1 is None``
#: denotes ``TS0`` itself.  Procedure 2's candidate sequence is fully
#: deterministic -- ``I = 1..max_iterations`` crossed with the caller's
#: D1 preference order (``d1_values`` as configured, or the
#: testability-pivoted reordering under
#: ``candidate_bias == 'testability'``) -- so a dispatch may batch
#: specs across iteration boundaries.
CandidateSpec = Tuple[int, Optional[int]]

#: Cache bound on built ``TS(I, D1)`` test sets, per process.
_TS_CACHE_LIMIT = 64

#: Value-matrix cells per time unit, ``n_signals x columns``, that each
#: shard of a split dispatch must evaluate.  Below it a worker round
#: trip costs more than the split saves.  Per dispatch on a 2-vCPU
#: host: on s298 (346 signals, 8 candidates x 8 tests) two shards of a
#: 2-4-word dispatch took 1.4-1.7x as long as the parent alone, while
#: on s1423 (1977 signals, 10 candidates x 32 tests) two shards were
#: 6-30% faster at 2-6 words.
_MIN_SHARD_CELLS = 1 << 20


def reconstruct_hits(
    rows: Sequence[DetectionRow],
    order: Dict[Fault, int],
    remaining: Sequence[Fault],
) -> Dict[Fault, DetectionRecord]:
    """The exact serial ``simulate_grouped`` result from raw rows.

    ``rows`` are first detections of one candidate against the
    dispatch-time fault list; ``order`` maps every dispatch-time fault to
    its position in that list; ``remaining`` is the (ordered) subset the
    serial call would have been given.  Returns a dict equal to the
    serial result in both content and insertion order:

    - per fault, the governing row is the one with the smallest
      ``batch_rank`` (serial processes test-shape batches in first
      appearance order with fault dropping in between);
    - insertion order is batch rank ascending, then
      ``(time_unit, WHERE_RANK, position)`` -- the serial recorder's
      call order and its word/bit ascending scan.  Position in the
      dispatch-time list orders identically to position in any of its
      ordered subsets, so one ``order`` map serves every ``remaining``.

    Keys and ``DetectionRecord.fault`` are the *caller's* fault objects
    (those in ``remaining``), not merely equal ones: serial results
    alias each fault once (key and record share the object), and a
    byte-level serializer sees aliasing -- without interning, a pooled
    result serializes differently from a byte-identical serial one even
    though every comparison by value passes.
    """
    canon = {fault: fault for fault in remaining}
    best: Dict[Fault, DetectionRow] = {}
    for row in rows:
        fault = row[0]
        if fault in canon and (fault not in best or row[1] < best[fault][1]):
            best[fault] = row
    hits: Dict[Fault, DetectionRecord] = {}
    for rank in sorted({row[1] for row in best.values()}):
        batch = [row for row in best.values() if row[1] == rank]
        batch.sort(key=lambda r: (r[3], WHERE_RANK[r[4]], order[r[0]]))
        for fault, _rank, test_index, time_unit, where in batch:
            fault = canon[fault]
            hits[fault] = DetectionRecord(
                fault=fault,
                test_index=test_index,
                time_unit=time_unit,
                where=where,
            )
    return hits


class _Session:
    """One Procedure 2 session's unchanging inputs, and its scorer.

    The parent scores single-shard dispatches and serial rescues with
    it; pool workers receive it once through the executor's initializer
    (:func:`_init_worker`) and score every shard they are sent with it.
    """

    def __init__(
        self,
        simulator: Any,
        ts0: Sequence[ScanTest],
        config: Any,
        n_sv: int,
        policy: Optional[ObservationPolicy],
        targets: Sequence[Fault],
    ) -> None:
        self.simulator = simulator
        self.ts0 = list(ts0)
        self.config = config
        self.n_sv = n_sv
        self.policy = policy
        self.targets = list(targets)
        self._tests: Dict[CandidateSpec, List[ScanTest]] = {}

    def tests_for(self, spec: CandidateSpec) -> List[ScanTest]:
        """One candidate test set, rebuilt from its seed; bounded cache."""
        if spec not in self._tests:
            from repro.core.limited_scan import build_limited_scan_test_set

            if len(self._tests) >= _TS_CACHE_LIMIT:
                self._tests.pop(next(iter(self._tests)))
            iteration, d1 = spec
            self._tests[spec] = (
                self.ts0
                if d1 is None
                else build_limited_scan_test_set(
                    self.ts0, iteration, d1, self.config, self.n_sv
                )
            )
        return self._tests[spec]

    def rows(
        self, specs: Sequence[CandidateSpec], faults: Sequence[Fault]
    ) -> List[List[tuple]]:
        """Each spec's raw first-detection rows against ``faults``.

        Rows name a fault by its position in ``faults``; see
        :meth:`~repro.faults.fault_sim.FaultSimulator.simulate_candidates`.
        """
        rows = self.simulator.simulate_candidates(
            [self.tests_for(spec) for spec in specs], faults, self.policy
        )
        if rows is None:  # pragma: no cover - callers pre-check compatibility
            raise RuntimeError(
                "candidate preconditions failed after the dispatch-level "
                "compatibility check passed"
            )
        return rows


# ----------------------------------------------------------------------
# Worker-process side.
# ----------------------------------------------------------------------
#: The session this worker process scores against (:func:`_init_worker`).
_SESSION: Optional[_Session] = None


def _init_worker(session: _Session) -> None:
    """Executor initializer: die with the parent, keep the session."""
    global _SESSION
    arm_pdeathsig()
    _SESSION = session


def _worker_rows(
    specs: Tuple[CandidateSpec, ...],
    fault_indices: Tuple[int, ...],
    inject: Optional[str],
    hang_seconds: float,
) -> List[List[tuple]]:
    session = _SESSION
    faults = [session.targets[j] for j in fault_indices]
    return execute_injected(
        inject, hang_seconds, lambda: session.rows(specs, faults)
    )


# ----------------------------------------------------------------------
# Parent side.
# ----------------------------------------------------------------------
class PersistentWorkerPool:
    """The worker processes of one Procedure 2 session.

    Lifecycle: the first :meth:`submit` forks the workers, which inherit
    the session -> ``submit`` dispatches -> :meth:`kill` on failure (the
    next ``submit`` forks fresh workers, which inherit it again) ->
    ``kill`` once more when the session closes.
    """

    def __init__(self, session: _Session, n_jobs: int) -> None:
        self.session = session
        self.n_jobs = n_jobs
        self._executor: Optional[Executor] = None

    def _ensure_executor(self) -> Executor:
        if self._executor is None:
            # Never spawn more workers than cores: extra workers cannot
            # add parallelism, but round-robin dispatch across them makes
            # every per-worker cache (test-set, injection) run cold.
            workers = min(self.n_jobs, available_cpu_count())
            self._executor = ProcessPoolExecutor(
                max_workers=workers,
                initializer=_init_worker,
                initargs=(self.session,),
            )
        return self._executor

    def submit(
        self,
        specs: Tuple[CandidateSpec, ...],
        fault_indices: Tuple[int, ...],
        inject: Optional[str],
        hang_seconds: float,
    ) -> Future:
        return self._ensure_executor().submit(
            _worker_rows, specs, fault_indices, inject, hang_seconds
        )

    def kill(self) -> None:
        """Terminate the workers (hung ones too) without waiting.

        The next :meth:`submit` forks fresh workers.
        """
        if self._executor is not None:
            processes = list(getattr(self._executor, "_processes", {}).values())
            self._executor.shutdown(wait=False, cancel_futures=True)
            for proc in processes:
                if proc.is_alive():
                    proc.terminate()
            self._executor = None


def _valid_rows(payload: Any, n_candidates: int, shard_size: int) -> bool:
    """Sanity-check a worker's rows before trusting them in the merge."""
    if not isinstance(payload, list) or len(payload) != n_candidates:
        return False
    for cand_rows in payload:
        if not isinstance(cand_rows, list):
            return False
        for row in cand_rows:
            if not (isinstance(row, tuple) and len(row) == 5):
                return False
            fault_pos, batch_rank, test_index, time_unit, where = row
            if not (
                isinstance(fault_pos, int) and 0 <= fault_pos < shard_size
            ):
                return False
            if not (
                isinstance(batch_rank, int)
                and isinstance(test_index, int)
                and isinstance(time_unit, int)
            ):
                return False
            if where not in WHERE_RANK:
                return False
    return True


class _Table:
    """Candidate-result base: the candidate's test set on ``.tests``.

    A table holds the session and its candidate's spec.  The Procedure 2
    loop touches ``.tests`` only for the pair bookkeeping of a
    *selected* candidate, so when workers score a window the parent
    builds only those test sets -- not the vast majority of candidates,
    which detect nothing new.
    """

    def __init__(self, session: _Session, spec: CandidateSpec) -> None:
        self.session = session
        self.spec = spec

    @property
    def tests(self) -> List[ScanTest]:
        return self.session.tests_for(self.spec)


class LazyTable(_Table):
    """Per-candidate result that defers to ``simulate_grouped``.

    Used for a single candidate that runs in the parent and whenever the
    batched pass's exactness preconditions fail.  One :meth:`hits_for`
    call issues exactly one ``simulate_grouped`` call, so dispatch
    counts match the one-candidate-at-a-time loop precisely.
    """

    def hits_for(
        self, remaining: Sequence[Fault]
    ) -> Dict[Fault, DetectionRecord]:
        session = self.session
        return session.simulator.simulate_grouped(
            self.tests, list(remaining), session.policy
        )


class ReconTable(_Table):
    """Per-candidate raw rows plus the reconstruction order map.

    Holds one candidate's first-detection rows against the
    dispatch-time fault list; :meth:`hits_for` reconstructs the exact
    serial result for any later (smaller) remaining list without
    re-simulation.
    """

    def __init__(
        self,
        rows: List[DetectionRow],
        order: Dict[Fault, int],
        session: _Session,
        spec: CandidateSpec,
    ) -> None:
        super().__init__(session, spec)
        self.rows = rows
        self.order = order

    def hits_for(
        self, remaining: Sequence[Fault]
    ) -> Dict[Fault, DetectionRecord]:
        return reconstruct_hits(self.rows, self.order, remaining)


class CandidateEvaluator:
    """Procedure 2's fault-simulation engine, batching and pool included.

    One evaluator lives per Procedure 2 session.  The loop asks it to
    score candidate test sets (:meth:`evaluate_ts0`,
    :meth:`evaluate_specs`) and receives result *tables*; consuming a
    table against the then-current remaining list yields exactly what a
    serial ``simulate_grouped`` call would have -- whichever route
    produced it.  A dispatch splits its fault list into shards
    (:meth:`_shard_count`), then takes one of three routes:

    - one shard and one candidate, or a window that fails the exactness
      check: one lazy ``simulate_grouped`` table per candidate;
    - one shard: the session's batched pass, in the parent;
    - more than one shard: the :class:`PersistentWorkerPool`,
      shard-granular recovery included.

    ``shards`` overrides the pool's shard count (tests use it to force
    multi-shard dispatches regardless of host cores and dispatch size);
    by default a dispatch is split only into shards that pay for a
    worker round trip (``_MIN_SHARD_CELLS``).
    """

    def __init__(
        self,
        simulator: Any,
        ts0: List[ScanTest],
        config: Any,
        n_sv: int,
        policy: Optional[ObservationPolicy],
        n_jobs: int,
        targets: Sequence[Fault],
        recovery: Optional[RecoveryPolicy] = None,
        chaos: Optional[ChaosPlan] = None,
        shards: Optional[int] = None,
    ) -> None:
        self._session = _Session(simulator, ts0, config, n_sv, policy, targets)
        self.n_sv = n_sv
        self.n_jobs = resolve_n_jobs(n_jobs)
        self.recovery = recovery or RecoveryPolicy()
        self.chaos = chaos
        self.shards = shards
        self.degradation = DegradationReport()
        self._use_pool = self.n_jobs > 1
        self._pool: Optional[PersistentWorkerPool] = None
        self._pool_unavailable = False
        self._target_pos = {f: i for i, f in enumerate(self._session.targets)}
        self._dispatches = 0
        self._ts0_partition = simulator.candidate_partition(self._session.ts0)

    @property
    def batch(self) -> int:
        """Candidates the Procedure 2 loop should hand over per call."""
        return max(1, getattr(self._session.config, "candidate_batch", 1))

    # ------------------------------------------------------------------
    def _compatible(
        self, specs: Sequence[CandidateSpec], n_faults: int
    ) -> bool:
        """``candidates_compatible`` without building the test sets.

        Under ``reseed_per_test`` (the paper's Procedure 1) the schedule
        of a test depends only on ``(seed(I), length, d1, d2)``, so every
        candidate's batch partition is ``TS0``'s, which groups its
        indices by test length.  The remaining precondition is the
        single-chunk bound (:func:`~repro.faults.fault_sim.chunk_tests`),
        a pure arithmetic check.  The one-stream ablation falls back to
        building the candidates and asking the simulator.
        """
        if n_faults <= 0 or not specs:
            return False
        session = self._session
        if getattr(session.config, "reseed_per_test", False):
            limit = chunk_tests(n_faults)
            return all(len(idx) <= limit for idx in self._ts0_partition)
        test_sets = [session.tests_for(spec) for spec in specs]
        return session.simulator.candidates_compatible(test_sets, n_faults)

    # ------------------------------------------------------------------
    def evaluate_ts0(self, remaining: Sequence[Fault]) -> Any:
        """One table for the initial test set."""
        return self.evaluate_specs([(0, None)], remaining)[0]

    def evaluate_specs(
        self,
        specs: Sequence[CandidateSpec],
        remaining: Sequence[Fault],
    ) -> List[Any]:
        """One table per candidate spec, in ``specs`` order.

        Specs may span iteration boundaries: Procedure 2's candidate
        sequence is deterministic, so the loop streams it in
        ``self.batch``-sized windows and consumes the tables against
        whatever the remaining list has shrunk to by then --
        :func:`reconstruct_hits` keeps that exact.  Each table carries
        its candidate's test set on ``.tests`` (built on demand).
        """
        specs = [tuple(spec) for spec in specs]
        remaining = list(remaining)
        n_shards = self._shard_count(len(specs), len(remaining))
        if (n_shards == 1 and len(specs) == 1) or not self._compatible(
            specs, len(remaining)
        ):
            # A single candidate in the parent is the plain serial call:
            # the batched pass with C=1, minus overhead.
            return [LazyTable(self._session, spec) for spec in specs]
        shards = shard_faults(remaining, n_shards)
        if n_shards == 1:
            payloads = [self._session.rows(specs, remaining)]
        else:
            payloads = self._run_pool_dispatch(tuple(specs), shards)
        merged: List[List[DetectionRow]] = [[] for _ in specs]
        for shard, payload in zip(shards, payloads):
            for cand_rows, rows in zip(merged, payload):
                cand_rows.extend(
                    (shard[r[0]], r[1], r[2], r[3], r[4]) for r in rows
                )
        order = {f: i for i, f in enumerate(remaining)}
        return [
            ReconTable(rows, order, self._session, spec)
            for rows, spec in zip(merged, specs)
        ]

    # -- the hardened pool dispatch ------------------------------------
    def _shard_count(self, n_specs: int, n_faults: int) -> int:
        """Shards of one dispatch; one shard runs in the parent.

        The largest count up to ``min(n_jobs, cpu_count, n_words)``
        whose smallest shard evaluates at least ``_MIN_SHARD_CELLS``
        value-matrix cells per time unit: ``n_signals`` rows by one
        column per candidate, test and fault word plus the reference
        slot, capped at ``MAX_COLS``.
        """
        if not self._use_pool or self._pool_unavailable:
            return 1
        n_words = (n_faults + 63) // 64
        if self.shards is not None:
            return max(1, min(self.shards, n_words))
        n_signals = self._session.simulator.model.n_signals
        per_word = n_specs * len(self._session.ts0)
        most = min(self.n_jobs, available_cpu_count(), n_words)
        for k in range(most, 1, -1):
            cols = min(MAX_COLS, per_word * (n_words // k + 1))
            if n_signals * cols >= _MIN_SHARD_CELLS:
                return k
        return 1

    def _run_pool_dispatch(
        self,
        specs: Tuple[CandidateSpec, ...],
        shards: List[List[Fault]],
    ) -> List[List[List[tuple]]]:
        """Each shard's raw rows, scored by the pool workers.

        A shard the pool cannot deliver is rescued by the parent's own
        :meth:`_Session.rows`, exactly as a single-shard dispatch is
        scored.
        """
        dispatch = self._dispatches
        self._dispatches += 1
        recovery = self.recovery
        shard_indices = [
            tuple(self._target_pos[f] for f in shard) for shard in shards
        ]
        out: List[Optional[List[List[tuple]]]] = [None] * len(shards)
        attempts = [0] * len(shards)
        pending = list(range(len(shards)))

        while pending:
            submit_failure: Optional[BrokenProcessPool] = None
            futures: Dict[int, Future] = {}
            try:
                if self._pool is None:
                    self._pool = self._make_pool()
                pool = self._pool
                futures = {
                    i: pool.submit(
                        specs,
                        shard_indices[i],
                        self._chaos_action(dispatch, i, attempts[i]),
                        self.chaos.hang_seconds if self.chaos else 0.0,
                    )
                    for i in pending
                }
            except BrokenProcessPool as exc:
                # Every worker died between dispatches (e.g. OOM-killed
                # while idle): the executor flags itself broken at submit
                # time.  Recoverable exactly like an in-flight crash --
                # respawn below and retry the pending shards.
                submit_failure = exc
            except Exception as exc:
                # The pool cannot be built or fed (fork failure,
                # unpicklable state under spawn): rescue everything still
                # pending in the parent and stay there from now on.
                for i in pending:
                    self.degradation.record(
                        dispatch, i, attempts[i], "pool-unavailable",
                        "serial", repr(exc),
                    )
                    out[i] = self._session.rows(specs, shards[i])
                self._pool_unavailable = True
                self.close()
                break

            failed: List[Tuple[int, str, str]] = []
            pool_dead = False
            deadline = (
                None
                if recovery.shard_timeout is None
                else time.perf_counter() + recovery.shard_timeout
            )
            if submit_failure is not None:
                failed = [
                    (i, "crash", repr(submit_failure)) for i in pending
                ]
                pending = []
                pool_dead = True
            for i in pending:
                future = futures[i]
                try:
                    if pool_dead:
                        if not future.done():
                            failed.append(
                                (i, "pool-lost",
                                 "pool torn down after an earlier failure")
                            )
                            continue
                        payload = future.result(timeout=0)
                    elif deadline is None:
                        payload = future.result()
                    else:
                        budget = max(0.0, deadline - time.perf_counter())
                        payload = future.result(timeout=budget)
                except FuturesTimeoutError:
                    failed.append(
                        (i, "timeout",
                         f"no result within {recovery.shard_timeout}s")
                    )
                    pool_dead = True
                    continue
                except BrokenProcessPool as exc:
                    failed.append((i, "crash", repr(exc)))
                    pool_dead = True
                    continue
                except CancelledError:
                    failed.append((i, "pool-lost", "future cancelled"))
                    continue
                except Exception as exc:
                    failed.append((i, "error", repr(exc)))
                    continue
                if not _valid_rows(payload, len(specs), len(shards[i])):
                    failed.append(
                        (i, "invalid-result",
                         "shard returned malformed candidate rows")
                    )
                    continue
                out[i] = payload

            if pool_dead and self._pool is not None:
                # Respawn the workers: the next submit forks fresh ones,
                # which inherit the session again.
                self._pool.kill()
                self.degradation.pool_respawns += 1

            next_pending: List[int] = []
            for i, kind, detail in failed:
                if attempts[i] >= recovery.max_retries:
                    self.degradation.record(
                        dispatch, i, attempts[i], kind, "serial", detail
                    )
                    out[i] = self._session.rows(specs, shards[i])
                else:
                    self.degradation.record(
                        dispatch, i, attempts[i], kind, "retry", detail
                    )
                    delay = recovery.backoff_delay(dispatch, i, attempts[i])
                    if delay > 0:
                        time.sleep(delay)
                    attempts[i] += 1
                    next_pending.append(i)
            pending = next_pending

        return out

    def _make_pool(self) -> PersistentWorkerPool:
        return PersistentWorkerPool(self._session, self.n_jobs)

    def _chaos_action(
        self, dispatch: int, shard: int, attempt: int
    ) -> Optional[str]:
        if self.chaos is None:
            return None
        return self.chaos.action(dispatch, shard, attempt)

    # ------------------------------------------------------------------
    def close(self) -> None:
        """Stop the workers, if any, without waiting for them to exit."""
        if self._pool is not None:
            self._pool.kill()
            self._pool = None

    def __enter__(self) -> "CandidateEvaluator":
        return self

    def __exit__(self, *exc: Any) -> None:
        self.close()
