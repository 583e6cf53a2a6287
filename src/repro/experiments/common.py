"""Shared infrastructure for experiment drivers.

Fault-detectability classification is the expensive per-circuit step, so
sessions are cached per (circuit name, seed) for the lifetime of the
process -- Tables 3/4/6/7/8 all reuse the same targets.
"""

from __future__ import annotations

from typing import Dict, Tuple

from repro.bench_circuits import load_circuit
from repro.core.config import BistConfig
from repro.core.session import LimitedScanBist

_SESSIONS: Dict[Tuple[str, int, int, int, str], LimitedScanBist] = {}

#: Default fault-simulation parallelism for experiment sessions; set by
#: the runner's ``--jobs`` flag.  Results are identical for any value.
_DEFAULT_N_JOBS = 1

#: Candidate batching for experiment sessions; set by the runner's
#: ``--candidate-batch`` flag.  It changes only wall-clock time.
_DEFAULT_CANDIDATE_BATCH = 1

#: Candidate search order for experiment sessions; set by the runner's
#: ``--candidate-bias`` flag.  Unlike the knobs above this one *does*
#: change which pairs are selected (it is a search strategy, not an
#: execution detail), so the runner records it in ``manifest.json``.
_DEFAULT_CANDIDATE_BIAS = "uniform"


def set_default_n_jobs(n_jobs: int) -> None:
    """Set the ``n_jobs`` used by sessions created after this call."""
    global _DEFAULT_N_JOBS
    _DEFAULT_N_JOBS = n_jobs


def set_default_candidate_batch(batch: int) -> None:
    """Set the candidate batch for sessions created after this call."""
    global _DEFAULT_CANDIDATE_BATCH
    _DEFAULT_CANDIDATE_BATCH = batch


def set_default_candidate_bias(bias: str) -> None:
    """Set the candidate search order for sessions created after this."""
    global _DEFAULT_CANDIDATE_BIAS
    _DEFAULT_CANDIDATE_BIAS = bias


def default_candidate_bias() -> str:
    """The candidate search order new sessions will use."""
    return _DEFAULT_CANDIDATE_BIAS


def bist_for(name: str, base_seed: int = 20010618) -> LimitedScanBist:
    """A cached :class:`LimitedScanBist` session for a catalog circuit."""
    key = (
        name, base_seed, _DEFAULT_N_JOBS, _DEFAULT_CANDIDATE_BATCH,
        _DEFAULT_CANDIDATE_BIAS,
    )
    if key not in _SESSIONS:
        _SESSIONS[key] = LimitedScanBist(
            load_circuit(name),
            config=BistConfig(
                base_seed=base_seed,
                n_jobs=_DEFAULT_N_JOBS,
                candidate_batch=_DEFAULT_CANDIDATE_BATCH,
                candidate_bias=_DEFAULT_CANDIDATE_BIAS,
            ),
        )
    return _SESSIONS[key]


def clear_cache() -> None:
    _SESSIONS.clear()
