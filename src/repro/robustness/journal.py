"""One durable append-log: the JSONL journal every crash-safe path uses.

Procedure 2's checkpoint journal (:mod:`repro.robustness.checkpoint`)
and the job service's job journal (:mod:`repro.serve.journal`) share
one file format and differ only in their records:

- the first line is a ``header`` record carrying the format's
  ``version``, written atomically when the journal is created;
- every later line is one JSON object with a ``"kind"``;
- a record is *committed* once its newline is on disk.  A transaction
  is appended as whole lines in one buffered write followed by
  ``fsync``, so a crash (SIGKILL, OOM kill, power loss) can only leave
  a torn tail: a last line without its newline.

Readers never modify a file: :func:`replay` stops at the first line
whose newline never landed, or that is not a JSON object with a
``"kind"``, and returns the records before it.  A journal has a single
writer, and only that writer calls :func:`heal`, before it appends:
a record appended behind a torn line would be unreachable to every
reader.
"""

from __future__ import annotations

import json
import os
from pathlib import Path
from typing import Any, Dict, Iterable, List, Tuple, Union

from repro.robustness.atomic import atomic_write_text


class JournalError(RuntimeError):
    """The journal is missing, is not the expected kind of journal, or
    has another format version."""


def _line(record: Dict[str, Any]) -> str:
    return json.dumps(record, sort_keys=True) + "\n"


def create(path: Union[str, Path], header: Dict[str, Any]) -> None:
    """Write a fresh journal whose only line is ``header``.

    Atomic: an existing file at ``path`` is replaced whole, never seen
    half-written.
    """
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    atomic_write_text(path, _line(header))


def append(
    path: Union[str, Path], records: Iterable[Dict[str, Any]]
) -> None:
    """Durably append one transaction: a single buffered write of whole
    lines, then ``fsync``."""
    text = "".join(_line(record) for record in records)
    with open(path, "a", encoding="utf-8") as fh:
        fh.write(text)
        fh.flush()
        os.fsync(fh.fileno())


def replay(
    path: Union[str, Path], version: int, what: str
) -> List[Tuple[Dict[str, Any], int]]:
    """The committed records of a journal, header first, each paired
    with the byte offset just past its newline.

    Read-only, so it is safe on a journal its writer is still
    appending to.  Blank lines are skipped.  Raises
    :class:`JournalError` if the file is absent, if its first record is
    not a ``header``, or if the header's version is not ``version``;
    ``what`` names the journal in the message.
    """
    try:
        with open(path, "rb") as fh:
            lines = fh.readlines()
    except FileNotFoundError:
        raise JournalError(f"no {what} at {path}") from None
    records: List[Tuple[Dict[str, Any], int]] = []
    end = 0
    for raw in lines:
        end += len(raw)
        if not raw.endswith(b"\n"):
            break  # torn tail: the record's newline never landed
        if not raw.strip():
            continue
        try:
            record = json.loads(raw.decode("utf-8"))
        except ValueError:  # undecodable bytes or torn JSON
            break
        if not isinstance(record, dict) or "kind" not in record:
            break
        records.append((record, end))
    if not records or records[0][0].get("kind") != "header":
        raise JournalError(f"{path} is not a {what}")
    found = records[0][0].get("version")
    if found != version:
        raise JournalError(
            f"{path} has journal version {found!r}, "
            f"this code reads version {version}"
        )
    return records


def heal(path: Union[str, Path], end: int) -> int:
    """Durably cut the journal back to ``end`` bytes; returns how many
    were dropped.

    ``end`` is a commit boundary from :func:`replay`.  Only the
    journal's single writer calls this, before it appends.
    """
    with open(path, "rb+") as fh:
        dropped = os.fstat(fh.fileno()).st_size - end
        if dropped:
            fh.truncate(end)
            os.fsync(fh.fileno())
    return dropped
