"""The job manager: ingestion, scheduling, execution, recovery.

Write-ahead discipline throughout: every decision is journaled
(fsynced) *before* it is acted on or acknowledged, so the journal plus
the per-job checkpoint journals are a complete reconstruction of the
service at any crash point:

- a job is enqueued only after its ``submit`` record and spooled
  netlist are durable;
- a worker child is forked only after the ``running`` record is
  durable;
- a result is acknowledged only after it is in the content-addressed
  cache and the terminal record is durable.

Recovery is therefore a pure replay: ``queued`` jobs are re-queued,
``running`` jobs are re-dispatched with ``resume=True`` (their
checkpoint journal carries the committed iterations; the resumed result
is byte-identical), terminal jobs serve from disk.

The manager is asyncio-native but does no simulation itself: job
children run via :func:`repro.serve.budgets.run_job_with_budget` inside
``asyncio.to_thread``, so the event loop stays responsive while minutes
of fault simulation happen in sandboxed processes.
"""

from __future__ import annotations

import asyncio
import json
import os
import time
from pathlib import Path
from typing import Any, Dict, List, Optional, Union

from repro import __version__
from repro.robustness.chaos import SERVER_CHAOS_EXIT, ServeChaosPlan
from repro.robustness.checkpoint import CheckpointError, load_checkpoint
from repro.serve import errors
from repro.serve.budgets import JobBudget, run_job_with_budget
from repro.serve.cache import ResultCache, submission_key
from repro.serve.errors import ServeError
from repro.serve.journal import JobJournal
from repro.serve.models import (
    DONE,
    FAILED,
    PARTIAL,
    QUEUED,
    RUNNING,
    TARGET_MODES,
    JobRecord,
    count_by_state,
)
from repro.serve.queue import MultiTenantQueue
from repro.serve.worker import partial_result_from_checkpoint

#: Fields of a submission body the service understands.
_KNOWN_FIELDS = {
    "bench", "name", "config", "tenant", "priority", "targets", "chaos",
}


class JobManager:
    """Owns the journal, queue, cache, and worker loop for one data dir."""

    def __init__(
        self,
        data_dir: Union[str, Path],
        queue: Optional[MultiTenantQueue] = None,
        budget: Optional[JobBudget] = None,
        compile_cache_dir: Optional[Union[str, Path]] = None,
        chaos: Optional[ServeChaosPlan] = None,
        allow_request_chaos: bool = False,
    ) -> None:
        self.data_dir = Path(data_dir)
        self.data_dir.mkdir(parents=True, exist_ok=True)
        self.journal = JobJournal(self.data_dir / "jobs.jsonl")
        self.queue = queue or MultiTenantQueue()
        self.budget = budget or JobBudget()
        self.cache = ResultCache(self.data_dir / "results")
        self.compile_cache_dir = (
            str(compile_cache_dir) if compile_cache_dir else None
        )
        self.chaos = chaos or ServeChaosPlan()
        self.allow_request_chaos = allow_request_chaos
        self.started_monotonic = time.monotonic()
        self.jobs_simulated = 0      # worker children that ran to a verdict
        self.submissions = 0
        self._wakeup = asyncio.Event()
        self._stopping = False
        self._recover()

    # ------------------------------------------------------------------
    # Ingestion: the trust boundary.
    # ------------------------------------------------------------------
    def submit(self, body: Dict[str, Any]) -> JobRecord:
        """Validate, journal, and enqueue one submission.

        Raises :class:`ServeError` with a stable code for every way a
        submission can be refused; on success the returned record is
        durable (a crash after return can never forget the job).
        """
        from repro.analysis import lint_structural
        from repro.circuit.bench_parser import (
            BenchParseError,
            parse_bench,
            write_bench,
        )
        from repro.core.config import BistConfig
        from repro.robustness.atomic import atomic_write_text
        from repro.robustness.checkpoint import circuit_fingerprint

        if not isinstance(body, dict):
            raise ServeError(
                errors.BAD_REQUEST, "body must be a JSON object", 400
            )
        unknown = sorted(set(body) - _KNOWN_FIELDS)
        if unknown:
            raise ServeError(
                errors.BAD_REQUEST,
                f"unknown field(s): {', '.join(unknown)}",
                400,
            )
        bench_text = body.get("bench")
        if not isinstance(bench_text, str) or not bench_text.strip():
            raise ServeError(
                errors.BAD_REQUEST, "'bench' must be netlist text", 400
            )
        name = body.get("name", "bench")
        if not isinstance(name, str) or not name:
            raise ServeError(errors.BAD_REQUEST, "'name' must be a string", 400)
        tenant = body.get("tenant", "anonymous")
        if not isinstance(tenant, str) or not tenant:
            raise ServeError(
                errors.BAD_REQUEST, "'tenant' must be a string", 400
            )
        priority = body.get("priority", "standard")
        targets = body.get("targets", "collapsed")
        if targets not in TARGET_MODES:
            raise ServeError(
                errors.BAD_REQUEST,
                f"'targets' must be one of {', '.join(TARGET_MODES)}",
                400,
            )
        chaos_req = body.get("chaos")
        if chaos_req and not self.allow_request_chaos:
            raise ServeError(
                errors.BAD_REQUEST,
                "per-request chaos requires the server's --enable-chaos",
                400,
            )

        # The parser is the trust boundary: every malformed netlist is
        # refused here with its full E-code diagnosis.
        try:
            circuit = parse_bench(bench_text, name=name)
        except BenchParseError as exc:
            raise errors.from_parse_error(exc) from exc
        # ... and the structural design-rule gate right behind it.
        report = lint_structural(circuit)
        if report.has_errors:
            raise errors.from_lint_report(report)

        config_dict = body.get("config") or {}
        if not isinstance(config_dict, dict):
            raise ServeError(
                errors.BAD_REQUEST, "'config' must be an object", 400
            )
        defaults = BistConfig().to_dict()
        # from_dict ignores keys it does not know; at a trust boundary a
        # typo'd parameter must be a refusal, not a silent default.
        bad_keys = sorted(set(config_dict) - set(defaults))
        if bad_keys:
            raise ServeError(
                errors.BAD_CONFIG,
                f"unknown config parameter(s): {', '.join(bad_keys)}",
                400,
                detail={"known": sorted(defaults)},
            )
        try:
            config = BistConfig.from_dict({**defaults, **config_dict})
        except (ValueError, TypeError, KeyError) as exc:
            raise ServeError(
                errors.BAD_CONFIG, f"invalid config: {exc}", 400
            ) from exc

        fingerprint = circuit_fingerprint(circuit)
        key = submission_key(name, fingerprint, config, targets)
        seq = self.journal.next_seq()
        job = JobRecord(
            job_id=f"j{seq:06d}-{key[:12]}",
            seq=seq,
            tenant=tenant,
            priority=priority,
            targets=targets,
            config=config.to_dict(),
            circuit_name=name,
            circuit_fingerprint=fingerprint,
            submission_key=key,
            bench_path=f"jobs/{seq:06d}/circuit.bench",
            submitted_at=time.time(),
            chaos=dict(chaos_req or {}),
        )

        cached = self.cache.load(key)
        if cached is not None:
            # Identical submission already answered: the job is born
            # terminal, costs no queue slot and no simulation.
            job.state = DONE
            job.cached = True
            job.result_key = key
            job.session_fingerprint = cached.get("session_fingerprint")
            job.finished_at = time.time()
            self.journal.record_submit(job)
            self.submissions += 1
            self._maybe_chaos_exit()
            return job

        # Admission control may shed *before* anything is journaled.
        self.queue.submit(job.job_id, tenant, priority)
        job_dir = self.data_dir / f"jobs/{seq:06d}"
        job_dir.mkdir(parents=True, exist_ok=True)
        # Spool the canonical serialization: the worker's view is then
        # guaranteed structurally identical to what was validated here.
        atomic_write_text(job_dir / "circuit.bench", write_bench(circuit))
        self.journal.record_submit(job)
        self.submissions += 1
        self._wakeup.set()
        self._maybe_chaos_exit()
        return job

    def _maybe_chaos_exit(self) -> None:
        if (
            self.chaos.exit_after_submits is not None
            and self.submissions >= self.chaos.exit_after_submits
        ):
            # Deterministic "crash right after durably admitting a
            # job": the harshest window the journal must cover.
            os._exit(SERVER_CHAOS_EXIT)

    # ------------------------------------------------------------------
    # Recovery.
    # ------------------------------------------------------------------
    def _recover(self) -> None:
        """Re-queue every non-terminal journaled job (crash restart)."""
        self.recovered_jobs = 0
        for job in self.journal.in_order():
            if job.state == RUNNING:
                # The previous server died mid-job; its checkpoint
                # journal holds the committed prefix.  Mark the resume
                # durably so a crash loop is visible in the journal.
                job.state = QUEUED
                self.journal.record_state(job, resumed=True)
                self.queue.requeue(job.job_id, job.priority)
                self.recovered_jobs += 1
            elif job.state == QUEUED:
                self.queue.requeue(job.job_id, job.priority)
                self.recovered_jobs += 1
        if self.recovered_jobs:
            self._wakeup.set()

    # ------------------------------------------------------------------
    # Execution.
    # ------------------------------------------------------------------
    def _job_dir(self, job: JobRecord) -> Path:
        return self.data_dir / f"jobs/{job.seq:06d}"

    def _checkpoint_path(self, job: JobRecord) -> Path:
        return self._job_dir(job) / "checkpoint.jsonl"

    def _payload(self, job: JobRecord, resume: bool) -> Dict[str, Any]:
        chaos = dict(self.chaos.to_dict())
        for key, value in (job.chaos or {}).items():
            if value is not None:
                chaos[key] = value
        return {
            "bench_path": str(self.data_dir / job.bench_path),
            "circuit_name": job.circuit_name,
            "config": job.config,
            "targets": job.targets,
            "checkpoint": str(self._checkpoint_path(job)),
            "resume": resume,
            "cache_dir": self.compile_cache_dir,
            "chaos": chaos,
        }

    async def execute_one(self, job_id: str) -> None:
        """Drive one job to a terminal state (runs in the event loop)."""
        job = self.journal.jobs[job_id]
        resume = self._checkpoint_path(job).exists()
        job.state = RUNNING
        self.journal.record_state(job, resume=resume)

        def on_attempt(attempt: int) -> None:
            job.attempts = job.attempts + 1

        run = await asyncio.to_thread(
            run_job_with_budget,
            self._payload(job, resume),
            self.budget,
            job.seq,
            on_attempt,
        )
        self.jobs_simulated += 1
        job.finished_at = time.time()
        if run.ok:
            payload = run.verdict.payload or {}
            self.cache.store(
                job.submission_key,
                payload.get("result", {}),
                session_fingerprint=payload.get("session_fingerprint"),
            )
            job.state = DONE
            job.result_key = job.submission_key
            job.session_fingerprint = payload.get("session_fingerprint")
            self.journal.record_state(job)
            return
        # Budget exhausted or the worker kept dying: degrade gracefully
        # to the committed checkpoint prefix if there is one.
        partial = partial_result_from_checkpoint(self._checkpoint_path(job))
        job.error = {
            "code": run.error_code,
            "message": run.verdict.detail or run.verdict.status,
            "attempts": run.attempts,
        }
        if partial is not None:
            from repro.robustness.atomic import atomic_write_text

            atomic_write_text(
                self._job_dir(job) / "partial.json",
                json.dumps(partial, sort_keys=True, indent=2) + "\n",
            )
            job.state = PARTIAL
        else:
            job.state = FAILED
        self.journal.record_state(job)

    async def run_worker(self) -> None:
        """One scheduling loop: pop best job, execute, repeat."""
        while not self._stopping:
            job_id = self.queue.pop()
            if job_id is None:
                self._wakeup.clear()
                try:
                    await asyncio.wait_for(self._wakeup.wait(), timeout=1.0)
                except asyncio.TimeoutError:
                    pass
                continue
            await self.execute_one(job_id)

    def stop(self) -> None:
        self._stopping = True
        self._wakeup.set()

    # ------------------------------------------------------------------
    # Queries.
    # ------------------------------------------------------------------
    def get(self, job_id: str) -> JobRecord:
        job = self.journal.jobs.get(job_id)
        if job is None:
            raise ServeError(
                errors.UNKNOWN_JOB, f"no job {job_id!r}", http_status=404
            )
        return job

    def result(self, job_id: str) -> Dict[str, Any]:
        """The job's result document (complete, cached, or partial)."""
        job = self.get(job_id)
        if job.state == DONE:
            payload = self.cache.load(job.result_key or job.submission_key)
            if payload is not None:
                return {
                    "job_id": job.job_id,
                    "state": job.state,
                    "cached": job.cached,
                    "partial": False,
                    "session_fingerprint": payload.get("session_fingerprint"),
                    "result": payload["result"],
                }
            # Cache entry lost (wiped directory): still answer honestly.
            raise ServeError(
                errors.RESULT_NOT_READY,
                f"result for {job_id} is no longer cached; resubmit",
                http_status=409,
            )
        if job.state == PARTIAL:
            partial_path = self._job_dir(job) / "partial.json"
            try:
                partial = json.loads(partial_path.read_text("utf-8"))
            except (OSError, json.JSONDecodeError):
                partial = None
            return {
                "job_id": job.job_id,
                "state": job.state,
                "cached": False,
                "partial": True,
                "error": job.error,
                "result": partial,
            }
        if job.state == FAILED:
            return {
                "job_id": job.job_id,
                "state": job.state,
                "cached": False,
                "partial": False,
                "error": job.error,
                "result": None,
            }
        raise ServeError(
            errors.RESULT_NOT_READY,
            f"job {job_id} is {job.state}",
            http_status=409,
            detail={"state": job.state},
        )

    def events(self, job_id: str, since: int = 0) -> List[Dict[str, Any]]:
        """Progress events, derived from the job's committed checkpoint
        state (:func:`~repro.robustness.checkpoint.load_checkpoint`, the
        same fold resume and partial results use).

        Deterministic and replayable: event ``seq`` numbers are stable
        across polls and across server restarts, so ``?since=N`` resumes
        a client's stream exactly.
        """
        job = self.get(job_id)
        events: List[Dict[str, Any]] = [
            {"kind": "submitted", "state": QUEUED, "cached": job.cached}
        ]
        try:
            state = load_checkpoint(self._checkpoint_path(job))
        except CheckpointError:
            pass  # no checkpoint journal yet
        else:
            if state.ts0 is not None:
                events.append(
                    {"kind": "ts0", "detected": len(state.ts0["detected"])}
                )
            progress = [
                {
                    "kind": "pair",
                    "iteration": pair["iteration"],
                    "d1": pair["d1"],
                    "newly_detected": pair["newly_detected"],
                }
                for pair in state.pairs
            ] + [
                {"kind": "iteration", "iteration": iteration}
                for iteration in range(1, state.cursor[0] + 1)
            ]
            # Journal order: iterations commit 1, 2, ..., each one's
            # pairs (a stable sort keeps their order) before its cursor.
            progress.sort(
                key=lambda e: (e["iteration"], e["kind"] == "iteration")
            )
            events.extend(progress)
        if job.terminal:
            events.append(
                {"kind": "finished", "state": job.state, "error": job.error}
            )
        for seq, event in enumerate(events):
            event["seq"] = seq
        return events[since:]

    def list_jobs(self) -> List[Dict[str, Any]]:
        return [job.public_dict() for job in self.journal.in_order()]

    def healthz(self) -> Dict[str, Any]:
        """Liveness + the operational gauges an operator actually wants."""
        payload: Dict[str, Any] = {
            "status": "ok",
            "version": __version__,
            "uptime_s": round(time.monotonic() - self.started_monotonic, 3),
            "queue": self.queue.stats(),
            "jobs": count_by_state(list(self.journal.jobs.values())),
            "journal": self.journal.stats(),
            "result_cache": self.cache.stats(),
            "jobs_simulated": self.jobs_simulated,
            "recovered_jobs": self.recovered_jobs,
        }
        if self.compile_cache_dir:
            from repro.circuit.cache import CompileCache

            payload["compile_cache"] = CompileCache(
                self.compile_cache_dir
            ).stats()
        return payload
