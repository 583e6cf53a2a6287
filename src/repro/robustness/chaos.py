"""Deterministic fault injection for the worker-pool recovery paths.

Testing crash recovery by luck -- run long enough and eventually a
worker dies -- is worthless; every recovery path of the persistent
worker pool (:class:`repro.faults.pool.CandidateEvaluator`) must be
exercisable from an ordinary pytest on demand.  A :class:`ChaosPlan`
names, purely as a function of ``(dispatch, shard, attempt)``, which
shard tasks should

- **crash** (the worker calls ``os._exit``, indistinguishable from a
  SIGKILL'd or OOM-killed worker),
- **hang** (the worker sleeps past any configured shard timeout),
- **corrupt** (the worker returns a payload that fails shard-result
  validation), or
- **error** (the task raises :class:`ChaosError`).

Because the plan is a pure function of indices, an injected run is as
reproducible as a clean one: the same plan against the same inputs
produces the same :class:`~repro.robustness.degradation.DegradationReport`
and -- since every path recovers -- the same simulation records.

The parent decides *whether* to inject (it knows the attempt number);
the worker merely executes the directive shipped with its task, so no
cross-process state is needed.

The job service (:mod:`repro.serve`) extends the same philosophy to
whole processes with :class:`ServeChaosPlan`: deterministic job-worker
death after exactly N checkpoint commits (:func:`install_commit_bomb`),
deterministic commit pacing so a test can reliably land a server
SIGKILL mid-job, a server that exits after exactly N submissions, and
journal-tail truncation (:func:`truncate_tail`) emulating a torn write.
"""

from __future__ import annotations

import os
import time
from dataclasses import dataclass
from typing import Any, Callable, Dict, List, Optional, Tuple

#: Injection directives, in precedence order when a shard is named in
#: several sets.
CHAOS_ACTIONS = ("crash", "hang", "corrupt", "error")


class ChaosError(RuntimeError):
    """The exception an ``error`` injection raises inside the worker."""


@dataclass(frozen=True)
class ChaosPlan:
    """Deterministic schedule of worker-pool failures.

    Attributes:
        crash_shards, hang_shards, corrupt_shards, error_shards: shard
            indices to hit (precedence: crash > hang > corrupt > error).
        dispatches: dispatch indices the plan applies to; ``None`` means
            every dispatch of the run.
        fire_attempts: inject only while ``attempt < fire_attempts``, so
            with the default of 1 a retried shard succeeds -- set it
            large to force retry exhaustion and the serial rescue path.
        hang_seconds: how long a hung worker sleeps.  Pick it well above
            the recovery policy's ``shard_timeout``; the parent kills the
            pool long before the sleep finishes.
    """

    crash_shards: Tuple[int, ...] = ()
    hang_shards: Tuple[int, ...] = ()
    corrupt_shards: Tuple[int, ...] = ()
    error_shards: Tuple[int, ...] = ()
    dispatches: Optional[Tuple[int, ...]] = None
    fire_attempts: int = 1
    hang_seconds: float = 30.0

    def action(
        self, dispatch: int, shard: int, attempt: int
    ) -> Optional[str]:
        """The directive for this task, or ``None`` for a clean run."""
        if self.dispatches is not None and dispatch not in self.dispatches:
            return None
        if attempt >= self.fire_attempts:
            return None
        if shard in self.crash_shards:
            return "crash"
        if shard in self.hang_shards:
            return "hang"
        if shard in self.corrupt_shards:
            return "corrupt"
        if shard in self.error_shards:
            return "error"
        return None


#: Exit status of a chaos-killed job worker (distinct from the shard
#: workers' 17 so triage can tell the two injection layers apart).
JOB_CHAOS_EXIT = 19

#: Exit status of a chaos-killed server (``exit_after_submits``).
SERVER_CHAOS_EXIT = 23


@dataclass(frozen=True)
class ServeChaosPlan:
    """Deterministic process-level failures for the job service.

    Attributes:
        die_after_commits: the job worker calls ``os._exit`` immediately
            after its Nth committed checkpoint iteration --
            indistinguishable from a SIGKILL'd or OOM-killed worker, but
            landing at an exact, reproducible journal state.
        commit_delay_s: sleep this long after every checkpoint commit.
            Results are unchanged (the delay is outside simulation);
            the pacing gives tests a wide, reliable window to SIGKILL
            the server strictly mid-job.
        exit_after_submits: the *server* calls ``os._exit`` right after
            durably journaling its Nth submission -- the crash window
            where a job is accepted but has never run.
        fire_attempts: like :attr:`ChaosPlan.fire_attempts` -- the
            worker bomb arms only while ``attempt < fire_attempts``, so
            with the default of 1 a retried job survives and recovery
            can be asserted to converge.
    """

    die_after_commits: Optional[int] = None
    commit_delay_s: float = 0.0
    exit_after_submits: Optional[int] = None
    fire_attempts: int = 1

    @property
    def active(self) -> bool:
        return (
            self.die_after_commits is not None
            or self.commit_delay_s > 0
            or self.exit_after_submits is not None
        )

    def to_dict(self) -> Dict[str, Any]:
        return {
            "die_after_commits": self.die_after_commits,
            "commit_delay_s": self.commit_delay_s,
            "exit_after_submits": self.exit_after_submits,
            "fire_attempts": self.fire_attempts,
        }

    @classmethod
    def from_dict(cls, data: Optional[Dict[str, Any]]) -> "ServeChaosPlan":
        data = data or {}
        return cls(
            die_after_commits=data.get("die_after_commits"),
            commit_delay_s=float(data.get("commit_delay_s", 0.0) or 0.0),
            exit_after_submits=data.get("exit_after_submits"),
            fire_attempts=int(data.get("fire_attempts", 1) or 1),
        )

    def for_attempt(self, attempt: int) -> Dict[str, Any]:
        """The plan shipped to a job child on its Nth attempt.

        The death bomb disarms once ``attempt >= fire_attempts``; the
        commit pacing stays (it never changes results, and a resumed
        job should remain killable mid-run by the same tests).
        """
        plan = self.to_dict()
        if attempt >= self.fire_attempts:
            plan["die_after_commits"] = None
        return plan


def install_commit_bomb(
    die_after_commits: Optional[int], commit_delay_s: float = 0.0
) -> None:
    """Arm this process's checkpoint writer with deterministic chaos.

    Wraps :meth:`repro.robustness.checkpoint.CheckpointWriter.commit_iteration`
    so the process dies (``os._exit``) *after* the Nth commit reached
    the journal -- the worst honest crash point: the state is durable
    but the caller never hears back.  Optionally sleeps
    ``commit_delay_s`` after every surviving commit.  Process-local and
    meant for short-lived job workers; there is deliberately no
    uninstaller.
    """
    if die_after_commits is None and commit_delay_s <= 0:
        return
    from repro.robustness.checkpoint import CheckpointWriter

    original = CheckpointWriter.commit_iteration
    counter = {"commits": 0}

    def bombed(self, iteration, n_same_fc, pair_records):  # type: ignore[no-untyped-def]
        original(self, iteration, n_same_fc, pair_records)
        counter["commits"] += 1
        if (
            die_after_commits is not None
            and counter["commits"] >= die_after_commits
        ):
            os._exit(JOB_CHAOS_EXIT)
        if commit_delay_s > 0:
            time.sleep(commit_delay_s)

    CheckpointWriter.commit_iteration = bombed  # type: ignore[method-assign]


def truncate_tail(path: Any, nbytes: int) -> int:
    """Chop ``nbytes`` off a file's tail, emulating a torn final write.

    Returns the resulting size.  Truncating to (or past) zero empties
    the file.  This is the injection half of every journal's torn-tail
    contract: readers must treat the missing suffix as an uncommitted
    transaction.
    """
    size = os.path.getsize(path)
    new_size = max(0, size - nbytes)
    with open(path, "rb+") as fh:
        fh.truncate(new_size)
        fh.flush()
        os.fsync(fh.fileno())
    return new_size


def execute_injected(
    action: Optional[str],
    hang_seconds: float,
    compute: Callable[[], List[List[tuple]]],
) -> List[List[tuple]]:
    """Run ``compute`` under an injection directive (worker side).

    ``compute`` returns a shard's rows, one list per candidate (see
    :meth:`repro.faults.fault_sim.FaultSimulator.simulate_candidates`).
    ``crash`` never returns; ``hang`` sleeps then completes normally
    (the parent has long since torn the pool down); ``corrupt`` returns
    the real rows plus one at fault position -1, outside every shard;
    ``error`` raises :class:`ChaosError`.
    """
    if action == "crash":
        os._exit(17)
    if action == "error":
        raise ChaosError("injected worker failure")
    if action == "hang":
        time.sleep(hang_seconds)
    rows = compute()
    if action == "corrupt":
        # Well-formed in every field but the fault position, so only
        # the parent's bounds check can reject it.
        first, *rest = rows
        return [first + [(-1, 0, 0, 0, "po")], *rest]
    return rows
