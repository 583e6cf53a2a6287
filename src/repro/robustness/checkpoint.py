"""Crash-safe journaling of Procedure 2 runs.

Procedure 2 is the hours-long path: a greedy loop whose only state is
the detected-fault set, the selected ``(I, D1)`` pairs, and the
``(iteration, n_same_fc)`` cursor.  Because the schedule RNG is seeded
by ``I`` (Procedure 1), every iteration is replayable from that state
alone -- so a small journal makes any interrupted run resumable, and
the resumed run is *byte-identical* to an uninterrupted one.

Journal format (version 1): a JSONL file, one record per line.

- ``header`` -- version, circuit name, the result-affecting config
  (:meth:`BistConfig.to_dict`), ``n_sv``, the target-fault count and a
  SHA-256 fingerprint of the target list.  Written once, atomically,
  when the journal is created.
- ``ts0`` -- the detection records of the initial test set, as
  ``[fault_index, test_index, time_unit, where]`` rows (fault indices
  point into the caller's target-fault list).
- ``pair`` -- one selected ``(I, D1)`` pair with its
  :class:`~repro.core.procedure2.PairResult` fields and detection rows.
- ``cursor`` -- the ``(iteration, n_same_fc)`` state after an
  iteration completed.
- ``final`` -- the run finished (``complete``, ``iterations_run``).

The file is a :mod:`repro.robustness.journal` append-log.  Crash
safety is transactional at iteration granularity: an iteration's
``pair`` lines and its ``cursor`` line are one journal transaction (a
single buffered write followed by ``fsync``), so a crash can only
truncate the tail of the file.  The reader treats a ``pair`` without a
following ``cursor`` (or any undecodable or newline-less tail) as an
uncommitted transaction and discards it; re-running that iteration from
the committed state reproduces it exactly.  Readers never modify the
file; before a resumed run appends, it heals the journal back to
:attr:`CheckpointState.committed_bytes`, so nothing it commits can land
behind a torn line where no reader would reach it.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Dict, Iterable, List, Optional, Sequence, Tuple, Union

from repro.faults.model import Fault, fault_key
from repro.robustness import journal

#: Bump when a record's schema changes incompatibly.
JOURNAL_VERSION = 1

#: The journal is missing, not a checkpoint journal, or of another version.
CheckpointError = journal.JournalError


class CheckpointMismatchError(CheckpointError):
    """The journal belongs to a different (circuit, config, targets)."""


def fingerprint_faults(faults: Iterable[Fault]) -> str:
    """Order-sensitive SHA-256 over a fault list.

    Resume replays detection records as *indices* into the target list,
    so the list's identity **and order** must match the original run.
    """
    digest = hashlib.sha256()
    for f in faults:
        digest.update(repr(fault_key(f)).encode("utf-8"))
    return digest.hexdigest()


def circuit_fingerprint(circuit: "Any") -> str:
    """Content-addressed SHA-256 identity of a circuit's structure.

    Hashes the canonical ``.bench`` serialization
    (:func:`repro.circuit.bench_parser.write_bench` is a byte-stable
    fixpoint) with the leading name comment stripped, so the fingerprint
    tracks structure -- interface order, scan-chain order, and the gate
    map -- but not what the circuit happens to be called.  Two circuits
    compare ``structurally_equal`` iff their fingerprints match, which is
    what lets the compile cache (:mod:`repro.circuit.cache`) share
    artifacts across sessions and machines.
    """
    from repro.circuit.bench_parser import write_bench

    text = write_bench(circuit)
    if text.startswith("#"):
        text = text[text.index("\n") + 1 :]
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def session_fingerprint(
    circuit_name: str, config: "Any", target_faults: Iterable[Fault]
) -> str:
    """SHA-256 identity of one Procedure 2 session's inputs.

    Hashes the circuit name, the result-affecting config
    (:meth:`BistConfig.to_dict` -- execution knobs excluded) and the
    ordered target-fault list.  The job service stores it in every job
    record and cached result as provenance; a resumed session maps to
    the same identity as the original run.
    """
    digest = hashlib.sha256()
    digest.update(circuit_name.encode("utf-8"))
    digest.update(
        json.dumps(config.to_dict(), sort_keys=True).encode("utf-8")
    )
    digest.update(fingerprint_faults(target_faults).encode("utf-8"))
    return digest.hexdigest()


@dataclass
class CheckpointState:
    """The committed content of a journal, ready for replay."""

    header: Dict[str, Any]
    ts0: Optional[Dict[str, Any]] = None
    pairs: List[Dict[str, Any]] = field(default_factory=list)
    cursor: Tuple[int, int] = (0, 0)  # (iteration, n_same_fc)
    final: Optional[Dict[str, Any]] = None
    #: Byte offset just past the last committed record (``header``,
    #: ``ts0``, ``cursor`` or ``final``); everything after it is an
    #: uncommitted or torn tail.
    committed_bytes: int = 0

    @property
    def detected_rows(self) -> List[List[Any]]:
        """All committed detection rows, in detection order."""
        rows: List[List[Any]] = []
        if self.ts0 is not None:
            rows.extend(self.ts0["detected"])
        for pair in self.pairs:
            rows.extend(pair["detected"])
        return rows


def load_checkpoint(path: Union[str, Path]) -> CheckpointState:
    """Fold a journal's committed transactions into its state.

    Read-only: the journal may belong to a run that is still appending.
    Raises :class:`CheckpointError` if the file is absent or its first
    record is not a compatible header.  A truncated or garbage tail
    (the expected outcome of a SIGKILL mid-write) is silently dropped
    at the last committed transaction boundary, reported as
    :attr:`CheckpointState.committed_bytes`.
    """
    records = journal.replay(path, JOURNAL_VERSION, "checkpoint journal")
    header, header_end = records[0]
    state = CheckpointState(header=header, committed_bytes=header_end)
    pending_pairs: List[Dict[str, Any]] = []
    for record, end in records[1:]:
        kind = record["kind"]
        if kind == "ts0":
            state.ts0 = record
            state.committed_bytes = end
        elif kind == "pair":
            pending_pairs.append(record)
        elif kind == "cursor":
            # Commit point: the buffered pairs belong to this iteration.
            # Iterations only ever move forward, so a commit at or below
            # the current cursor is a duplicated transaction (the
            # buffered writer of earlier versions could re-append an
            # interrupted flush, and their journals still resume), and
            # replaying its pairs again would corrupt the resumed state.
            state.committed_bytes = end
            if record["iteration"] <= state.cursor[0]:
                pending_pairs = []
                continue
            state.pairs.extend(pending_pairs)
            pending_pairs = []
            state.cursor = (record["iteration"], record["n_same_fc"])
        elif kind == "final":
            state.pairs.extend(pending_pairs)
            pending_pairs = []
            state.final = record
            state.committed_bytes = end
        # Unknown kinds are skipped: forward-compatible within a version.
    return state


class CheckpointWriter:
    """Append-only journal writer with transactional iteration commits.

    Created with a ``header`` for a fresh journal (the file is created
    atomically with the header as its first line), or without one to
    append to an existing, healed journal on resume.  Every method is
    one durable journal transaction.
    """

    def __init__(
        self, path: Union[str, Path], header: Optional[Dict[str, Any]] = None
    ) -> None:
        self.path = Path(path)
        if header is not None:
            journal.create(self.path, header)

    def write_ts0(self, detected_rows: Sequence[Sequence[Any]]) -> None:
        """Journal the TS0 detections."""
        journal.append(
            self.path,
            [{"kind": "ts0", "detected": [list(r) for r in detected_rows]}],
        )

    def commit_iteration(
        self,
        iteration: int,
        n_same_fc: int,
        pair_records: Sequence[Dict[str, Any]],
    ) -> None:
        """Commit one finished iteration: its pairs, then its cursor.

        ``n_same_fc`` is the *post-iteration* value -- exactly what the
        resumed loop needs to continue.
        """
        pairs = [dict(record, kind="pair") for record in pair_records]
        cursor = {
            "kind": "cursor", "iteration": iteration, "n_same_fc": n_same_fc,
        }
        journal.append(self.path, pairs + [cursor])

    def write_final(self, complete: bool, iterations_run: int) -> None:
        final = {
            "kind": "final",
            "complete": complete,
            "iterations_run": iterations_run,
        }
        journal.append(self.path, [final])
