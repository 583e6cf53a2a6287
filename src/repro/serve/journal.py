"""Durable job journal: the service's single source of truth.

The same durable append-log as the Procedure 2 checkpoint journal
(:mod:`repro.robustness.journal`): an append-only JSONL file whose
first line is an atomically-written header, every append flushed and
fsynced, and a torn tail -- the expected outcome of a SIGKILL mid-write
-- treated as an uncommitted transaction.

Records:

- ``header`` -- version and service name, written once atomically.
- ``submit`` -- the full :class:`~repro.serve.models.JobRecord` of a
  new job.  Durable *before* the submission is acknowledged: an
  acknowledged job can never be forgotten by a crash.
- ``state`` -- one state transition (``running``/``done``/``partial``/
  ``failed``) with its attendant fields (attempt count, result key,
  error).  Durable *before* the transition is acted on.

Replay folds the records into the latest :class:`JobRecord` per job.
The server is the journal's single writer, so opening the journal also
*heals* it: the torn tail is cut back to the last committed record
before appending resumes, so one crash can never corrupt the next
record.
"""

from __future__ import annotations

from pathlib import Path
from typing import Any, Dict, List, Union

from repro.robustness import journal
from repro.serve.models import JobRecord

#: Bump when a record's schema changes incompatibly.
JOB_JOURNAL_VERSION = 1

#: The journal exists but is not a compatible job journal.
JobJournalError = journal.JournalError


class JobJournal:
    """Append-only, fsynced, torn-tail-healing job journal.

    Attributes:
        path: the JSONL file.
        jobs: job id -> latest :class:`JobRecord`, rebuilt on open.
        records: committed record count (header included).
        healed_bytes: torn-tail bytes dropped by the last open.
    """

    def __init__(self, path: Union[str, Path]) -> None:
        self.path = Path(path)
        self.jobs: Dict[str, JobRecord] = {}
        self.records = 0
        self.healed_bytes = 0
        self._order: List[str] = []  # submission order, for listing
        if self.path.exists():
            self._replay()
        else:
            journal.create(
                self.path,
                {
                    "kind": "header",
                    "version": JOB_JOURNAL_VERSION,
                    "service": "repro-serve",
                },
            )
            self.records = 1

    # -- replay ----------------------------------------------------------
    def _replay(self) -> None:
        records = journal.replay(self.path, JOB_JOURNAL_VERSION, "job journal")
        # Heal the torn tail so future appends start on a record
        # boundary.  The dropped suffix was never acknowledged.
        self.healed_bytes = journal.heal(self.path, records[-1][1])
        for record, _ in records[1:]:
            kind = record["kind"]
            if kind == "submit":
                job = JobRecord.from_dict(record["job"])
                if job.job_id not in self.jobs:
                    self._order.append(job.job_id)
                self.jobs[job.job_id] = job
            elif kind == "state":
                job = self.jobs.get(record.get("job_id", ""))
                if job is None:
                    continue  # state for an unknown job: skip, don't die
                job.state = record["state"]
                for key in (
                    "attempts",
                    "cached",
                    "result_key",
                    "session_fingerprint",
                    "error",
                    "finished_at",
                ):
                    if key in record:
                        setattr(job, key, record[key])
            # Unknown kinds skipped: forward-compatible within a version.
        self.records = len(records)

    # -- appends ---------------------------------------------------------
    def _append(self, record: Dict[str, Any]) -> None:
        journal.append(self.path, [record])
        self.records += 1

    def record_submit(self, job: JobRecord) -> None:
        """Durably admit a job (fsynced before the caller acknowledges)."""
        self._append({"kind": "submit", "job": job.to_dict()})
        if job.job_id not in self.jobs:
            self._order.append(job.job_id)
        self.jobs[job.job_id] = job

    def record_state(self, job: JobRecord, **extra: Any) -> None:
        """Durably record ``job``'s current state (plus ``extra`` fields)."""
        record = {
            "kind": "state",
            "job_id": job.job_id,
            "state": job.state,
            "attempts": job.attempts,
            **extra,
        }
        if job.terminal:
            record.update(
                cached=job.cached,
                result_key=job.result_key,
                session_fingerprint=job.session_fingerprint,
                error=job.error,
                finished_at=job.finished_at,
            )
        self._append(record)

    # -- queries ---------------------------------------------------------
    def in_order(self) -> List[JobRecord]:
        """Jobs in submission order."""
        return [self.jobs[job_id] for job_id in self._order]

    def next_seq(self) -> int:
        return 1 + max((j.seq for j in self.jobs.values()), default=0)

    def stats(self) -> Dict[str, Any]:
        try:
            size = self.path.stat().st_size
        except OSError:
            size = 0
        return {
            "records": self.records,
            "bytes": size,
            "healed_bytes": self.healed_bytes,
            # Every append is fsynced before it is acted on, so the
            # durable journal never trails the in-memory state.
            "lag_records": 0,
        }
