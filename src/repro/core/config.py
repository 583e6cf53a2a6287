"""Configuration for the random limited-scan BIST scheme.

Everything the paper's hardware would store -- and nothing more -- plus
the simulation-side knobs.  A :class:`BistConfig` together with a circuit
fully determines every generated test set: the scheme's storage cost is
``(L_A, L_B, N)``, the base seed, and the selected ``(I, D1)`` pairs.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass
from typing import Any, Dict, Optional, Tuple

#: The paper's default exploration order for D1 in Procedure 2.
D1_INCREASING: Tuple[int, ...] = tuple(range(1, 11))
#: The Table 7 variant: prefer fewer limited scans.
D1_DECREASING: Tuple[int, ...] = tuple(range(10, 0, -1))


@dataclass(frozen=True)
class BistConfig:
    """Parameters of the generation scheme.

    Attributes:
        la, lb: the two test lengths (``L_A < L_B`` as in the paper).
        n: number of tests of each length (``|TS0| = 2N``).
        base_seed: seed of the dedicated TS0 generator and ancestor of
            every ``seed(I)``.
        d1_values: the D1 values Procedure 2 tries, in preference order.
        n_same_fc: Procedure 2's ``N_SAME_FC`` -- consecutive iterations
            of ``I`` without improvement before giving up.
        max_iterations: hard cap on ``I`` (safety net; the paper relies
            on ``N_SAME_FC`` alone).
        d2: maximum-shift modulus; ``None`` means the paper's
            ``N_SV + 1``.
        reseed_per_test: Procedure 1 as literally written re-seeds the
            schedule RNG with ``seed(I)`` for every test; ``False`` uses
            one continuous stream per test set (ablation knob).
        rng_kind: ``'numpy'`` or ``'lfsr'`` (hardware-faithful).
        n_jobs: worker processes for fault simulation (1 = serial,
            -1 = all cores).  Purely an execution knob: it shards the
            fault list across processes and never changes any result,
            so it is excluded from serialized configurations.
        lint: what Procedure 2 does about structural lint errors in the
            circuit before simulating: ``'warn'`` (default) emits a
            ``RuntimeWarning``, ``'error'`` raises
            :class:`repro.analysis.LintError`, ``'off'`` skips the
            check.  Like ``n_jobs`` it never changes results on valid
            circuits and is excluded from serialized configurations.
        shard_timeout: seconds the persistent worker pool waits for a
            dispatch's worker shards before declaring the laggards hung
            and respawning the workers; ``None`` waits forever.
            Execution knob (recovery re-runs the same deterministic
            work).
        shard_retries: parallel re-attempts for a failed shard before it
            is re-executed serially in the parent.  Execution knob.
        pool: the parallel back end behind ``n_jobs > 1``; only
            ``'persistent'`` exists: one worker pool stays alive for the
            whole Procedure 2 run, its workers inheriting the circuit
            and fault list when they fork (see
            :mod:`repro.faults.pool`).  Execution knob.
        candidate_batch: how many ``(I, D1)`` candidate test sets
            Procedure 2 scores per fault-simulation dispatch.  1
            (default) evaluates candidates one by one; larger values
            amortize the per-pass evaluation overhead across the batch
            (speculative evaluation with exact reconstruction -- see
            :meth:`repro.faults.fault_sim.FaultSimulator.simulate_candidates`).
            Execution knob: results are byte-identical for any value.
        candidate_bias: Procedure 2's candidate search order.
            ``'uniform'`` (default) tries D1 values exactly in
            ``d1_values`` order -- byte-identical to every release
            before the knob existed.  ``'testability'`` reorders the D1
            stream around the COP scan-benefit pivot
            (:func:`repro.analysis.cop.testability_d1_order`) so depths
            likely to absorb RPR faults are tried first, typically
            storing fewer ``(I, D1)`` pairs.  Unlike the execution
            knobs this is a *search-strategy* knob -- it legitimately
            changes which pairs are selected -- but it is still
            excluded from :meth:`to_dict`: the chosen pairs themselves
            are the result, the bias is provenance (recorded as
            execution metadata on :class:`~repro.core.procedure2.Procedure2Result`
            and in experiment manifests), and a resumed run re-derives
            the same deterministic order from the circuit.
    """

    la: int = 8
    lb: int = 16
    n: int = 64
    base_seed: int = 20010618
    d1_values: Tuple[int, ...] = D1_INCREASING
    n_same_fc: int = 3
    max_iterations: int = 60
    d2: Optional[int] = None
    reseed_per_test: bool = True
    rng_kind: str = "numpy"
    n_jobs: int = 1
    lint: str = "warn"
    shard_timeout: Optional[float] = None
    shard_retries: int = 2
    pool: str = "persistent"
    candidate_batch: int = 1
    candidate_bias: str = "uniform"

    def __post_init__(self) -> None:
        if self.la < 1 or self.lb < 1:
            raise ValueError("test lengths must be positive")
        if self.la >= self.lb:
            raise ValueError(
                f"the paper requires L_A < L_B, got {self.la} >= {self.lb}"
            )
        if self.n < 1:
            raise ValueError("N must be positive")
        if not self.d1_values or any(d < 1 for d in self.d1_values):
            raise ValueError("D1 values must be positive")
        if self.n_same_fc < 1:
            raise ValueError("N_SAME_FC must be positive")
        if self.d2 is not None and self.d2 < 1:
            raise ValueError("D2 must be positive")
        if self.n_jobs < 1 and self.n_jobs != -1:
            raise ValueError("n_jobs must be >= 1, or -1 for all cores")
        if self.lint not in ("off", "warn", "error"):
            raise ValueError("lint must be 'off', 'warn', or 'error'")
        if self.shard_timeout is not None and self.shard_timeout <= 0:
            raise ValueError("shard_timeout must be positive, or None")
        if self.shard_retries < 0:
            raise ValueError("shard_retries must be >= 0")
        if self.pool != "persistent":
            raise ValueError("pool must be 'persistent'")
        if self.candidate_batch < 1:
            raise ValueError("candidate_batch must be >= 1")
        if self.candidate_bias not in ("uniform", "testability"):
            raise ValueError(
                "candidate_bias must be 'uniform' or 'testability'"
            )

    def with_lengths(self, la: int, lb: int, n: int) -> "BistConfig":
        """A copy with different ``(L_A, L_B, N)`` (everything else kept)."""
        return dataclasses.replace(self, la=la, lb=lb, n=n)

    def to_dict(self) -> Dict[str, Any]:
        """The result-affecting parameters as a JSON-compatible dict.

        Execution knobs (``n_jobs``, ``lint``, ``shard_timeout``,
        ``shard_retries``, ``pool``, ``candidate_batch``) are
        intentionally omitted: they never change results on valid
        circuits, so serialized outputs and checkpoint journals stay
        byte-identical across serial/parallel, lint-mode, pool-backend,
        batching, and recovery-policy variations.  ``candidate_bias``
        is also omitted -- see its attribute docs: the selected pairs
        are the result, the search order that found them is provenance,
        and a resume re-derives it deterministically from the circuit.
        """
        return {
            "la": self.la,
            "lb": self.lb,
            "n": self.n,
            "base_seed": self.base_seed,
            "d1_values": list(self.d1_values),
            "n_same_fc": self.n_same_fc,
            "max_iterations": self.max_iterations,
            "d2": self.d2,
            "reseed_per_test": self.reseed_per_test,
            "rng_kind": self.rng_kind,
        }

    @classmethod
    def from_dict(cls, data: Dict[str, Any]) -> "BistConfig":
        """Inverse of :meth:`to_dict` (execution knobs take defaults)."""
        return cls(
            la=data["la"],
            lb=data["lb"],
            n=data["n"],
            base_seed=data["base_seed"],
            d1_values=tuple(data["d1_values"]),
            n_same_fc=data["n_same_fc"],
            max_iterations=data["max_iterations"],
            d2=data.get("d2"),
            reseed_per_test=data["reseed_per_test"],
            rng_kind=data["rng_kind"],
        )

    def effective_d2(self, n_sv: int) -> int:
        """The paper's ``D2 = N_SV + 1`` unless overridden."""
        return self.d2 if self.d2 is not None else n_sv + 1

    def seed_for_iteration(self, iteration: int) -> int:
        """``seed(I)``: distinct, reproducible per-iteration seeds."""
        return (self.base_seed * 0x9E3779B1 + iteration * 0x85EBCA77 + 1) & (
            2**48 - 1
        )
