"""The durable append-log under both journals, checked at every byte.

Unit cases pin the primitive (:mod:`repro.robustness.journal`).  The
property cases cut a recorded checkpoint journal and a recorded job
journal at *every* byte offset and require each reader to see exactly
the committed prefix.  Resume from every commit boundary is
``test_resume_heals_torn_tail_at_every_line``; every offset maps onto
one boundary here, so together they cover resume at every offset.
"""

import bisect
import json

import pytest

from repro.bench_circuits.synthetic import SyntheticSpec, synthesize
from repro.core.config import BistConfig
from repro.core.procedure2 import run_procedure2
from repro.faults.collapse import collapse_faults
from repro.robustness import journal
from repro.robustness.checkpoint import CheckpointError, load_checkpoint
from repro.robustness.journal import JournalError
from repro.serve.journal import JobJournal, JobJournalError
from repro.serve.models import DONE, RUNNING, JobRecord

HEADER = {"kind": "header", "version": 3, "service": "test"}
HEADER_LINE = (json.dumps(HEADER, sort_keys=True) + "\n").encode()

#: The checkpoint rig of ``tests/test_checkpoint_resume.py``: mini208
#: under this config commits 8 iterations with 13 pairs.
RIG_CONFIG = BistConfig(la=2, lb=4, n=2, n_same_fc=2, max_iterations=8)


def line_ends(data: bytes):
    return [i + 1 for i, byte in enumerate(data) if byte == ord("\n")]


def kinds(path, version=3):
    return [r["kind"] for r, _ in journal.replay(path, version, "test log")]


class TestPrimitive:
    def test_create_append_replay_heal_roundtrip(self, tmp_path):
        path = tmp_path / "sub" / "log.jsonl"
        journal.create(path, HEADER)
        journal.append(path, [{"kind": "a", "n": 1}, {"kind": "b"}])
        journal.append(path, [{"kind": "c"}])
        records = journal.replay(path, 3, "test log")
        assert [r for r, _ in records] == [
            HEADER, {"kind": "a", "n": 1}, {"kind": "b"}, {"kind": "c"},
        ]
        assert [end for _, end in records] == line_ends(path.read_bytes())
        assert journal.heal(path, records[-1][1]) == 0

        clean = path.read_bytes()
        torn = b'{"kind": "d", "n": '
        with open(path, "ab") as fh:
            fh.write(torn)  # SIGKILL mid-append
        records = journal.replay(path, 3, "test log")
        assert len(records) == 4
        assert journal.heal(path, records[-1][1]) == len(torn)
        assert path.read_bytes() == clean
        journal.append(path, [{"kind": "e"}])
        assert kinds(path) == ["header", "a", "b", "c", "e"]

    def test_missing_newline_is_uncommitted(self, tmp_path):
        path = tmp_path / "log.jsonl"
        path.write_bytes(HEADER_LINE + b'{"kind": "a"}\n{"kind": "b"}')
        assert kinds(path) == ["header", "a"]

    @pytest.mark.parametrize(
        "line", [b"[1, 2]", b'"text"', b"7", b'{"no_kind": 1}', b"\xff{"]
    )
    def test_non_record_line_ends_replay(self, tmp_path, line):
        path = tmp_path / "log.jsonl"
        path.write_bytes(
            HEADER_LINE + b'{"kind": "a"}\n' + line + b'\n{"kind": "b"}\n'
        )
        assert kinds(path) == ["header", "a"]

    def test_blank_lines_are_skipped(self, tmp_path):
        path = tmp_path / "log.jsonl"
        path.write_bytes(HEADER_LINE + b'\n  \n{"kind": "a"}\n')
        assert kinds(path) == ["header", "a"]

    def test_version_gate(self, tmp_path):
        path = tmp_path / "log.jsonl"
        with pytest.raises(JournalError, match="no test log at"):
            journal.replay(path, 3, "test log")
        path.write_bytes(b'{"kind": "a"}\n')
        with pytest.raises(JournalError, match="is not a test log"):
            journal.replay(path, 3, "test log")
        journal.create(path, HEADER)
        with pytest.raises(JournalError, match="version 3.*version 4"):
            journal.replay(path, 4, "test log")

    def test_replay_leaves_the_file_unchanged(self, tmp_path):
        path = tmp_path / "log.jsonl"
        data = HEADER_LINE + b'{"kind": "a"}\n{"kind": "b", "x": [1,'
        path.write_bytes(data)
        before = path.stat()
        assert kinds(path) == ["header", "a"]
        after = path.stat()
        assert path.read_bytes() == data
        assert (after.st_size, after.st_mtime_ns) == (
            before.st_size, before.st_mtime_ns,
        )

    def test_journal_errors_are_one_class(self):
        assert CheckpointError is JournalError
        assert JobJournalError is JournalError


@pytest.fixture(scope="module")
def recorded_checkpoint(tmp_path_factory):
    circuit = synthesize(
        SyntheticSpec(name="mini208", n_pi=10, n_po=1, n_ff=8, n_gates=96,
                      seed=5)
    )
    path = tmp_path_factory.mktemp("rig") / "checkpoint.jsonl"
    run_procedure2(
        circuit, RIG_CONFIG, collapse_faults(circuit), checkpoint=str(path)
    )
    return path.read_bytes()


def commit_boundaries(data: bytes):
    """``(end offset, ts0, pairs, cursor, final)`` at every commit
    boundary of a clean checkpoint journal, folded independently of
    :func:`load_checkpoint`: pairs count once their cursor follows."""
    boundaries = []
    ts0, final, cursor = None, None, (0, 0)
    pairs, pending = [], []
    for record, end in zip(
        map(json.loads, data.splitlines()), line_ends(data)
    ):
        kind = record["kind"]
        if kind == "pair":
            pending.append(record)
            continue
        if kind == "ts0":
            ts0 = record
        elif kind == "cursor":
            pairs, pending = pairs + pending, []
            cursor = (record["iteration"], record["n_same_fc"])
        elif kind == "final":
            final = record
        boundaries.append((end, ts0, pairs, cursor, final))
    return boundaries


class TestCheckpointEveryOffset:
    def test_every_offset_reads_the_last_commit_boundary(
        self, recorded_checkpoint, tmp_path
    ):
        data = recorded_checkpoint
        boundaries = commit_boundaries(data)
        # header, ts0, 8 cursors, final; 13 pairs in between.
        assert len(boundaries) == 11
        assert len(boundaries[-1][2]) == 13
        ends = [b[0] for b in boundaries]
        path = tmp_path / "cut.jsonl"
        for offset in range(len(data) + 1):
            path.write_bytes(data[:offset])
            if offset < ends[0]:  # the header's newline never landed
                with pytest.raises(CheckpointError):
                    load_checkpoint(path)
                continue
            state = load_checkpoint(path)
            expected = boundaries[bisect.bisect_right(ends, offset) - 1]
            got = (state.committed_bytes, state.ts0, state.pairs,
                   state.cursor, state.final)
            assert got == expected, f"cut at byte {offset}"
            assert path.read_bytes() == data[:offset], "reader wrote"


def make_job(seq):
    return JobRecord(
        job_id=f"j{seq:06d}-abcdef",
        seq=seq,
        tenant="t",
        priority="standard",
        targets="collapsed",
        config={"n": 8},
        circuit_name="s27",
        circuit_fingerprint="f" * 64,
        submission_key="k" * 64,
        bench_path=f"jobs/{seq:06d}/circuit.bench",
    )


class TestJobJournalEveryOffset:
    def test_every_offset_replays_landed_records_and_heals(self, tmp_path):
        path = tmp_path / "jobs.jsonl"
        live = JobJournal(path)
        snapshots = [{}]  # the jobs after each committed record

        def snap():
            snapshots.append(
                {job_id: job.to_dict() for job_id, job in live.jobs.items()}
            )

        jobs = [make_job(seq) for seq in (1, 2, 3)]
        for job in jobs:
            live.record_submit(job)
            snap()
        jobs[0].state, jobs[0].attempts = RUNNING, 1
        live.record_state(jobs[0], resume=False)
        snap()
        jobs[0].state, jobs[0].result_key = DONE, "r" * 64
        jobs[0].finished_at = 5.0
        live.record_state(jobs[0])
        snap()

        data = path.read_bytes()
        ends = line_ends(data)
        assert len(ends) == len(snapshots) == 6
        cut = tmp_path / "cut.jsonl"
        for offset in range(len(data) + 1):
            cut.write_bytes(data[:offset])
            landed = bisect.bisect_right(ends, offset)
            if landed == 0:
                with pytest.raises(JobJournalError):
                    JobJournal(cut)
                continue
            replayed = JobJournal(cut)
            assert replayed.records == landed, f"cut at byte {offset}"
            assert {
                job_id: job.to_dict() for job_id, job in replayed.jobs.items()
            } == snapshots[landed - 1], f"cut at byte {offset}"
            assert replayed.healed_bytes == offset - ends[landed - 1]
            assert cut.read_bytes() == data[: ends[landed - 1]]
            replayed.record_submit(make_job(9))
            again = JobJournal(cut)
            assert again.healed_bytes == 0
            assert again.records == landed + 1
