"""Structured degradation reporting for the parallel simulation layer.

When a worker pool misbehaves -- a worker crashes, a shard times out, a
returned payload fails validation -- the persistent pool recovers and
still produces the bit-exact result, but the *fact* that it degraded is
operationally important: a run that silently re-executed half its shards
serially is a run whose hardware or sizing needs attention.  Instead of
a ``RuntimeWarning`` that scrolls away, every recovery action is recorded
as a :class:`ShardEvent` in a :class:`DegradationReport` that callers can
attach to their results, serialize, and alert on.

The report is execution metadata: it never appears in serialized
experiment results (which stay byte-identical across clean and degraded
runs), exactly like ``n_jobs`` itself.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, List, Tuple

#: Event kinds a shard failure can be classified as.
EVENT_KINDS = (
    "crash",            # worker process died (BrokenProcessPool)
    "timeout",          # no result within the per-shard timeout
    "invalid-result",   # shard returned a payload that failed validation
    "error",            # task raised an ordinary exception
    "pool-lost",        # shard's future lost when the pool was torn down
    "pool-unavailable", # the pool could not be created at all
)

#: Recovery actions taken in response to a failed shard.
ACTIONS = ("retry", "serial")


@dataclass(frozen=True)
class ShardEvent:
    """One recovery action taken for one shard of one dispatch."""

    dispatch: int   # 0-based index of the simulate call within the run
    shard: int      # 0-based shard index within the dispatch
    attempt: int    # 0-based attempt number that failed
    kind: str       # one of EVENT_KINDS
    action: str     # one of ACTIONS
    detail: str = ""

    def to_dict(self) -> Dict[str, Any]:
        return {
            "dispatch": self.dispatch,
            "shard": self.shard,
            "attempt": self.attempt,
            "kind": self.kind,
            "action": self.action,
            "detail": self.detail,
        }

    def render(self) -> str:
        return (
            f"dispatch {self.dispatch} shard {self.shard} "
            f"attempt {self.attempt}: {self.kind} -> {self.action}"
            + (f" ({self.detail})" if self.detail else "")
        )


@dataclass
class DegradationReport:
    """Every recovery action a pooled run had to take.

    An empty report means the run never degraded; ``events`` is in
    chronological order.  ``pool_respawns`` counts how many times the
    worker pool had to be killed and recreated (after a crash or a hung
    worker).
    """

    events: List[ShardEvent] = field(default_factory=list)
    pool_respawns: int = 0

    def record(
        self,
        dispatch: int,
        shard: int,
        attempt: int,
        kind: str,
        action: str,
        detail: str = "",
    ) -> ShardEvent:
        event = ShardEvent(dispatch, shard, attempt, kind, action, detail)
        self.events.append(event)
        return event

    @property
    def degraded(self) -> bool:
        return bool(self.events)

    def counts(self) -> Dict[Tuple[str, str], int]:
        """``(kind, action) -> number of events`` summary."""
        out: Dict[Tuple[str, str], int] = {}
        for e in self.events:
            key = (e.kind, e.action)
            out[key] = out.get(key, 0) + 1
        return out

    def to_dict(self) -> Dict[str, Any]:
        return {
            "degraded": self.degraded,
            "pool_respawns": self.pool_respawns,
            "events": [e.to_dict() for e in self.events],
        }

    def summary(self) -> str:
        if not self.degraded:
            return "no degradation"
        parts = [
            f"{n}x {kind}->{action}"
            for (kind, action), n in sorted(self.counts().items())
        ]
        return (
            f"{len(self.events)} recovery event(s), "
            f"{self.pool_respawns} pool respawn(s): " + ", ".join(parts)
        )

    def render(self) -> str:
        lines = [self.summary()]
        lines.extend("  " + e.render() for e in self.events)
        return "\n".join(lines)
