"""Fault-list sharding primitives shared by the parallel back ends.

The packed fault list (64 faults per ``uint64`` word) is split into
word-aligned contiguous shards.  Faults are independent of each other in
the parallel-fault model -- dropping a detected fault never changes
another fault's detection record -- so sharding by fault words is
embarrassingly parallel and a merged result is bit-exact with the serial
simulator.  The persistent worker pool (:mod:`repro.faults.pool`)
dispatches these shards; it and the job service (:mod:`repro.serve`)
share the :class:`RecoveryPolicy` that governs retries of a failing
shard or job, and :func:`arm_pdeathsig`, which ties a pool worker or a
job child to the life of its parent.
"""

from __future__ import annotations

import os
import random
from typing import Dict, List, Optional, Sequence

from repro.faults.model import Fault
from repro.simulation.compiled import shard_word_ranges

#: Faults per simulation word (bits of a uint64).
WORD_BITS = 64

#: Serial record order within one time unit: the limited-scan compare
#: runs before the gate eval, primary outputs and state taps after it,
#: and the final scan-out is a separate time unit.
WHERE_RANK: Dict[str, int] = {
    "limited-scan": 0,
    "po": 1,
    "state-tap": 2,
    "scan-out": 3,
}


def available_cpu_count() -> int:
    """CPUs actually available to this process (never 0).

    ``os.cpu_count()`` reports the machine's cores, which overcounts --
    and oversubscribes workers -- under cgroup or CPU-affinity limits
    (containers, CI runners, ``taskset``).  The scheduler-affinity mask
    reflects the real allowance, so prefer it where the platform has it.
    """
    try:
        return max(1, len(os.sched_getaffinity(0)))
    except (AttributeError, OSError):  # platforms without sched_getaffinity
        return max(1, os.cpu_count() or 1)  # detlint: ignore[DET004]


def arm_pdeathsig() -> None:
    """Die with the parent: Linux ``PR_SET_PDEATHSIG`` (best-effort).

    An orphaned child must not linger after its parent is SIGKILLed: a
    sandboxed job would keep appending to a checkpoint journal the
    restarted service resumes from, and an idle pool worker would keep
    its copy of the session alive for nothing.  On Linux the kernel
    delivers SIGKILL to the child the moment its parent (strictly: the
    forking thread) dies; elsewhere this is a no-op and callers fall
    back on wall-clock budgets.
    """
    try:
        import ctypes
        import signal

        libc = ctypes.CDLL(None, use_errno=True)
        libc.prctl(1, signal.SIGKILL, 0, 0, 0)  # PR_SET_PDEATHSIG
    except Exception:  # pragma: no cover - non-Linux / no libc
        return
    # The parent may have died between fork and prctl; a reparented
    # child never gets the signal, so check once explicitly.
    if os.getppid() == 1:  # pragma: no cover - microscopic race window
        os._exit(1)


def resolve_n_jobs(n_jobs: Optional[int]) -> int:
    """Normalize an ``n_jobs`` knob: ``None``/1 serial, -1 = all cores."""
    if n_jobs is None:
        return 1
    if n_jobs == -1:
        return available_cpu_count()
    if n_jobs < 1:
        raise ValueError(f"n_jobs must be >= 1 or -1, got {n_jobs}")
    return n_jobs


def shard_faults(faults: Sequence[Fault], n_shards: int) -> List[List[Fault]]:
    """Split ``faults`` into word-aligned contiguous shards.

    Shard boundaries are multiples of 64 faults so each worker packs its
    shard into full words exactly as the serial simulator would.
    """
    faults = list(faults)
    n_words = (len(faults) + WORD_BITS - 1) // WORD_BITS
    return [
        faults[lo * WORD_BITS : hi * WORD_BITS]
        for lo, hi in shard_word_ranges(n_words, n_shards)
    ]


class RecoveryPolicy:
    """How the worker pool reacts to a failing shard.

    Attributes:
        shard_timeout: seconds a dispatch waits for its shards before
            declaring the laggards hung and killing the pool.  ``None``
            (default) waits forever -- appropriate when workloads have no
            known bound.
        max_retries: attempts *after* the first before a shard is
            re-executed serially in the parent (0 = straight to serial).
        backoff_base: base of the exponential backoff slept between
            attempts; 0 disables sleeping.
        backoff_cap: upper bound on a single backoff sleep, seconds.
        seed: seed of the backoff jitter.  The jitter RNG is derived
            from ``(seed, dispatch, shard, attempt)`` alone, so recovery
            timing is as reproducible as everything else.
    """

    def __init__(
        self,
        shard_timeout: Optional[float] = None,
        max_retries: int = 2,
        backoff_base: float = 0.05,
        backoff_cap: float = 2.0,
        seed: int = 0,
    ) -> None:
        if shard_timeout is not None and shard_timeout <= 0:
            raise ValueError("shard_timeout must be positive (or None)")
        if max_retries < 0:
            raise ValueError("max_retries must be >= 0")
        self.shard_timeout = shard_timeout
        self.max_retries = max_retries
        self.backoff_base = backoff_base
        self.backoff_cap = backoff_cap
        self.seed = seed

    def backoff_delay(self, dispatch: int, shard: int, attempt: int) -> float:
        """Deterministic jittered exponential backoff for one retry."""
        if self.backoff_base <= 0:
            return 0.0
        rng = random.Random(
            self.seed * 1_000_003 + dispatch * 8_191 + shard * 131 + attempt
        )
        delay = self.backoff_base * (2.0**attempt) * (0.5 + rng.random())
        return min(self.backoff_cap, delay)
