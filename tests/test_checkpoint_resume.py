"""Checkpoint/resume of Procedure 2: journal format and crash recovery.

The contract under test: a run interrupted at *any* point -- in-process
``KeyboardInterrupt``, ``SIGINT``, or an un-catchable ``SIGKILL`` of a
child process -- resumes from its journal to a result **byte-identical**
(via :mod:`repro.experiments.serialize`) to an uninterrupted run, at any
``n_jobs``.

The rig circuit (``mini208``) is chosen so the config forces eight real
iterations with thirteen selected pairs; s27 at the paper's defaults
finishes at TS0 and would never exercise the loop.
"""

import dataclasses
import itertools
import json
import os
import signal
import subprocess
import sys
import time
from pathlib import Path

import pytest

import repro
from repro.bench_circuits.synthetic import SyntheticSpec, synthesize
from repro.core.config import BistConfig
from repro.core.procedure2 import resume_procedure2, run_procedure2
from repro.experiments.serialize import result_to_dict
from repro.faults.collapse import collapse_faults
from repro.faults.pool import CandidateEvaluator
from repro.robustness.checkpoint import (
    CheckpointError,
    CheckpointMismatchError,
    CheckpointState,
    CheckpointWriter,
    JOURNAL_VERSION,
    fingerprint_faults,
    load_checkpoint,
)

pytestmark = pytest.mark.chaos

#: Forces 8 iterations / 13 pairs on mini208 (complete=False) -- a real
#: mid-run state space for interrupt/resume, still ~0.5 s serial.
RIG_CONFIG = BistConfig(la=2, lb=4, n=2, n_same_fc=2, max_iterations=8)


@pytest.fixture(scope="module")
def rig():
    circuit = synthesize(
        SyntheticSpec(name="mini208", n_pi=10, n_po=1, n_ff=8, n_gates=96,
                      seed=5)
    )
    faults = collapse_faults(circuit)
    clean = run_procedure2(circuit, RIG_CONFIG, faults)
    assert clean.iterations_run == 8 and len(clean.pairs) == 13
    return circuit, faults, json.dumps(result_to_dict(clean))


def blob(result) -> str:
    return json.dumps(result_to_dict(result))


def interrupted_run(circuit, config, faults, path, at: int) -> None:
    """Run the rig checkpointed; KeyboardInterrupt at evaluation ``at``.

    Counts candidate evaluations (one per ``(I, D1)`` window), whichever
    back end ``config.n_jobs`` selects.
    """
    evaluate = CandidateEvaluator.evaluate_specs
    calls = itertools.count()

    def interrupting(self, specs, remaining):
        if next(calls) == at:
            raise KeyboardInterrupt
        return evaluate(self, specs, remaining)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(CandidateEvaluator, "evaluate_specs", interrupting)
        with pytest.raises(KeyboardInterrupt):
            run_procedure2(circuit, config, faults, checkpoint=str(path))


class TestJournalFormat:
    def header(self, n=3):
        return {
            "kind": "header", "version": JOURNAL_VERSION, "circuit": "x",
            "config": {}, "n_sv": 4, "num_targets": n, "targets_sha256": "",
        }

    def test_roundtrip(self, tmp_path):
        path = tmp_path / "j.jsonl"
        w = CheckpointWriter(path, self.header())
        w.write_ts0([[0, 1, 2, "po"]])
        w.commit_iteration(1, 0, [{"iteration": 1, "d1": 3,
                                   "newly_detected": 1, "nsh": 2,
                                   "ls_time_units": 5,
                                   "total_time_units": 9,
                                   "detected": [[1, 4, 0, "sv"]]}])
        w.commit_iteration(2, 1, [])
        state = load_checkpoint(path)
        assert state.header["n_sv"] == 4
        assert state.ts0["detected"] == [[0, 1, 2, "po"]]
        assert len(state.pairs) == 1 and state.pairs[0]["d1"] == 3
        assert state.cursor == (2, 1)
        assert state.final is None
        assert state.detected_rows == [[0, 1, 2, "po"], [1, 4, 0, "sv"]]

    def test_final_record(self, tmp_path):
        path = tmp_path / "j.jsonl"
        w = CheckpointWriter(path, self.header())
        w.write_ts0([])
        w.write_final(complete=True, iterations_run=0)
        state = load_checkpoint(path)
        assert state.final == {"kind": "final", "complete": True,
                               "iterations_run": 0}

    def test_uncommitted_pair_is_discarded(self, tmp_path):
        path = tmp_path / "j.jsonl"
        w = CheckpointWriter(path, self.header())
        w.write_ts0([])
        w.commit_iteration(1, 0, [{"iteration": 1, "detected": []}])
        # A pair line whose cursor never landed (crash mid-transaction).
        with open(path, "a") as fh:
            fh.write(json.dumps({"kind": "pair", "iteration": 2,
                                 "detected": []}) + "\n")
        state = load_checkpoint(path)
        assert len(state.pairs) == 1
        assert state.cursor == (1, 0)

    def test_torn_tail_is_discarded(self, tmp_path):
        path = tmp_path / "j.jsonl"
        w = CheckpointWriter(path, self.header())
        w.commit_iteration(1, 0, [])
        with open(path, "a") as fh:
            fh.write('{"kind": "curs')  # SIGKILL mid-write
        state = load_checkpoint(path)
        assert state.cursor == (1, 0)

    def test_duplicated_transaction_is_replayed_once(self, tmp_path):
        """A committed iteration appended twice must not replay twice.

        The buffered writer of earlier versions appended one when a
        signal interrupted its flush after the bytes landed (e.g. inside
        fsync) and its interrupt path flushed again; journals it wrote
        may carry it, so the reader skips any commit at or below the
        current cursor.
        """
        path = tmp_path / "j.jsonl"
        pair = {"iteration": 1, "d1": 3, "newly_detected": 1, "nsh": 2,
                "ls_time_units": 5, "total_time_units": 9,
                "detected": [[1, 4, 0, "po"]]}
        w = CheckpointWriter(path, self.header())
        w.write_ts0([])
        w.commit_iteration(1, 0, [pair])
        block = (
            json.dumps(dict(pair, kind="pair"), sort_keys=True) + "\n"
            + json.dumps({"kind": "cursor", "iteration": 1,
                          "n_same_fc": 0}, sort_keys=True) + "\n"
        )
        with open(path, "a") as fh:
            fh.write(block)  # the re-flushed duplicate
        state = load_checkpoint(path)
        assert len(state.pairs) == 1
        assert state.cursor == (1, 0)

    def test_interrupted_flush_never_duplicates(self, tmp_path, monkeypatch):
        """KeyboardInterrupt inside the durable append: the transaction
        must land at most once."""
        import repro.robustness.journal as journal_mod

        path = tmp_path / "j.jsonl"
        writer = CheckpointWriter(path, self.header())
        real_fsync = os.fsync
        fired = []

        def exploding_fsync(fd):
            real_fsync(fd)  # the bytes are already durable
            if not fired:
                fired.append(True)
                raise KeyboardInterrupt

        monkeypatch.setattr(journal_mod.os, "fsync", exploding_fsync)
        with pytest.raises(KeyboardInterrupt):
            writer.commit_iteration(1, 0, [{"iteration": 1, "detected": []}])
        state = load_checkpoint(path)
        assert len(state.pairs) == 1
        assert state.cursor == (1, 0)

    def test_missing_and_malformed(self, tmp_path):
        with pytest.raises(CheckpointError, match="no checkpoint"):
            load_checkpoint(tmp_path / "absent.jsonl")
        bad = tmp_path / "bad.jsonl"
        bad.write_text('{"kind": "cursor", "iteration": 1, "n_same_fc": 0}\n')
        with pytest.raises(CheckpointError, match="not a checkpoint"):
            load_checkpoint(bad)

    def test_version_mismatch(self, tmp_path):
        path = tmp_path / "j.jsonl"
        header = self.header()
        header["version"] = JOURNAL_VERSION + 1
        CheckpointWriter(path, header)
        with pytest.raises(CheckpointError, match="version"):
            load_checkpoint(path)


class TestMismatchDetection:
    def test_config_change_rejected(self, rig, tmp_path):
        circuit, faults, _ = rig
        path = tmp_path / "j.jsonl"
        config = BistConfig(la=2, lb=4, n=2, n_same_fc=2, max_iterations=2)
        run_procedure2(circuit, config, faults, checkpoint=str(path))
        other = BistConfig(la=3, lb=6, n=2, n_same_fc=2, max_iterations=2)
        with pytest.raises(CheckpointMismatchError, match="config differs"):
            resume_procedure2(circuit, other, faults, str(path))

    def test_execution_knobs_do_not_mismatch(self, rig, tmp_path):
        # n_jobs / shard_timeout / shard_retries are execution metadata:
        # changing them between run and resume is explicitly allowed.
        circuit, faults, _ = rig
        path = tmp_path / "j.jsonl"
        config = BistConfig(la=2, lb=4, n=2, n_same_fc=2, max_iterations=2)
        run_procedure2(circuit, config, faults, checkpoint=str(path))
        tweaked = BistConfig(la=2, lb=4, n=2, n_same_fc=2, max_iterations=2,
                             n_jobs=4, shard_timeout=9.0, shard_retries=0)
        resume_procedure2(circuit, tweaked, faults, str(path))

    def test_target_list_changes_rejected(self, rig, tmp_path):
        circuit, faults, _ = rig
        path = tmp_path / "j.jsonl"
        config = BistConfig(la=2, lb=4, n=2, n_same_fc=2, max_iterations=2)
        run_procedure2(circuit, config, faults, checkpoint=str(path))
        with pytest.raises(CheckpointMismatchError, match="target faults"):
            resume_procedure2(circuit, config, faults[:-1], str(path))
        reordered = list(reversed(faults))
        with pytest.raises(CheckpointMismatchError, match="fingerprint"):
            resume_procedure2(circuit, config, reordered, str(path))

    def test_fingerprint_is_order_sensitive(self, rig):
        _, faults, _ = rig
        assert fingerprint_faults(faults) != fingerprint_faults(
            list(reversed(faults))
        )


class TestResumeByteIdentity:
    def test_checkpointed_run_matches_clean(self, rig, tmp_path):
        circuit, faults, clean_blob = rig
        path = tmp_path / "j.jsonl"
        result = run_procedure2(circuit, RIG_CONFIG, faults,
                                checkpoint=str(path))
        assert blob(result) == clean_blob
        assert load_checkpoint(path).final is not None

    def test_resume_of_finished_journal_skips_simulation(self, rig, tmp_path):
        circuit, faults, clean_blob = rig
        path = tmp_path / "j.jsonl"
        run_procedure2(circuit, RIG_CONFIG, faults, checkpoint=str(path))
        # A finished journal is replayed without touching the simulator:
        # an unusable sentinel proves no simulation call is made.
        resumed = resume_procedure2(
            circuit, RIG_CONFIG, faults, str(path), simulator=object()
        )
        assert blob(resumed) == clean_blob

    @pytest.mark.parametrize("at", [0, 15, 40])
    def test_interrupt_anywhere_resumes_identically(self, rig, tmp_path, at):
        circuit, faults, clean_blob = rig
        path = tmp_path / f"j{at}.jsonl"
        interrupted_run(circuit, RIG_CONFIG, faults, path, at)
        resumed = resume_procedure2(circuit, RIG_CONFIG, faults, str(path))
        assert blob(resumed) == clean_blob

    def test_parallel_interrupt_parallel_resume(
        self, rig, tmp_path, two_shards, pool_submits
    ):
        circuit, faults, clean_blob = rig
        path = tmp_path / "j.jsonl"
        parallel = dataclasses.replace(RIG_CONFIG, n_jobs=4)
        interrupted_run(circuit, parallel, faults, path, 9)
        interrupted = pool_submits.count
        assert interrupted > 0
        resumed = resume_procedure2(circuit, parallel, faults, str(path))
        assert pool_submits.count > interrupted
        assert resumed.degradation is None
        assert blob(resumed) == clean_blob

    def test_double_resume_is_stable(self, rig, tmp_path):
        circuit, faults, clean_blob = rig
        path = tmp_path / "j.jsonl"
        interrupted_run(circuit, RIG_CONFIG, faults, path, 20)
        first = resume_procedure2(circuit, RIG_CONFIG, faults, str(path))
        again = resume_procedure2(
            circuit, RIG_CONFIG, faults, str(path), simulator=object()
        )
        assert blob(first) == blob(again) == clean_blob

    def test_resume_heals_torn_tail_at_every_line(self, rig, tmp_path):
        """A torn append, then resume: later commits stay readable.

        Tears the recorded journal at every line boundary after the
        header (complete lines, possibly an uncommitted ``pair`` tail),
        inside every such line (half of it reached the disk), and once
        just before the final record's newline.  Each resume must finish
        the run and leave a journal that replays to the clean cursor,
        all 13 pairs and a ``final`` record -- byte for byte the clean
        journal.
        """
        circuit, faults, clean_blob = rig
        clean_path = tmp_path / "clean.jsonl"
        run_procedure2(circuit, RIG_CONFIG, faults, checkpoint=str(clean_path))
        data = clean_path.read_bytes()
        clean = load_checkpoint(clean_path)
        ends = [i + 1 for i, byte in enumerate(data) if byte == ord("\n")]
        cuts = [end + (nxt - end) // 2 for end, nxt in zip(ends, ends[1:])]
        cuts += ends[1:-1]
        cuts.append(ends[-1] - 1)
        for cut in cuts:
            path = tmp_path / f"torn{cut}.jsonl"
            path.write_bytes(data[:cut])
            resumed = resume_procedure2(circuit, RIG_CONFIG, faults, str(path))
            assert blob(resumed) == clean_blob
            state = load_checkpoint(path)
            assert state.cursor == clean.cursor, f"tear at byte {cut}"
            assert len(state.pairs) == 13 and state.final is not None
            assert path.read_bytes() == data


#: Child process used by the signal tests: runs the rig checkpointed on
#: ``n_jobs`` workers, every dispatch split into two pool shards, with
#: every checkpoint commit paced so the parent can reliably land a
#: signal mid-run.
#: argv: <src-dir> <journal> <n_jobs> <commit-delay-seconds>.
CHILD_SCRIPT = """\
import functools
import sys

src, journal, n_jobs, delay = (
    sys.argv[1], sys.argv[2], int(sys.argv[3]), float(sys.argv[4])
)
sys.path.insert(0, src)

from repro.bench_circuits.synthetic import SyntheticSpec, synthesize
from repro.core import procedure2
from repro.core.config import BistConfig
from repro.core.procedure2 import run_procedure2
from repro.faults.collapse import collapse_faults
from repro.faults.pool import CandidateEvaluator
from repro.robustness.chaos import install_commit_bomb

procedure2.CandidateEvaluator = functools.partial(CandidateEvaluator, shards=2)
circuit = synthesize(SyntheticSpec(
    name="mini208", n_pi=10, n_po=1, n_ff=8, n_gates=96, seed=5))
config = BistConfig(la=2, lb=4, n=2, n_same_fc=2, max_iterations=8,
                    n_jobs=n_jobs)
install_commit_bomb(None, commit_delay_s=delay)
run_procedure2(circuit, config, collapse_faults(circuit), checkpoint=journal)
print("DONE", flush=True)
"""


def _children_of(pid):
    """Pids whose parent is ``pid``, read from ``/proc``."""
    children = []
    for stat in Path("/proc").glob("[0-9]*/stat"):
        try:
            fields = stat.read_text().rsplit(")", 1)[1].split()
        except OSError:
            continue  # exited while we looked
        if int(fields[1]) == pid:
            children.append(int(stat.parent.name))
    return children


def _running(pid):
    """Whether ``pid`` is alive and not a zombie awaiting its reaper."""
    try:
        stat = Path(f"/proc/{pid}/stat").read_text()
    except OSError:
        return False
    return stat.rsplit(")", 1)[1].split()[0] != "Z"


@pytest.mark.slow
class TestSignalResume:
    def _interrupt_child(self, tmp_path, n_jobs, sig, cursors=2):
        """Start the rig in a child, signal it mid-run, return journal.

        A pooled child must have had worker processes when it was
        signalled, and they must exit with it.
        """
        journal = tmp_path / "journal.jsonl"
        script = tmp_path / "child.py"
        script.write_text(CHILD_SCRIPT)
        src = str(Path(repro.__file__).resolve().parents[1])
        proc = subprocess.Popen(
            [sys.executable, str(script), src, str(journal),
             str(n_jobs), "0.3"],
            stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL,
        )
        try:
            deadline = time.perf_counter() + 120.0
            while time.perf_counter() < deadline:
                if proc.poll() is not None:
                    break
                if (
                    journal.exists()
                    and journal.read_text().count('"kind": "cursor"')
                    >= cursors
                ):
                    break
                time.sleep(0.02)
            assert proc.poll() is None, (
                "child finished (or died) before it could be interrupted"
            )
            workers = _children_of(proc.pid)
            os.kill(proc.pid, sig)
            proc.wait(timeout=60)
        finally:
            if proc.poll() is None:
                proc.kill()
                proc.wait()
        assert bool(workers) == (n_jobs > 1), workers
        # Workers die with their parent (PR_SET_PDEATHSIG on a SIGKILL,
        # the evaluator's close() on a SIGINT).
        deadline = time.perf_counter() + 30.0
        while (
            any(_running(pid) for pid in workers)
            and time.perf_counter() < deadline
        ):
            time.sleep(0.05)
        assert not any(_running(pid) for pid in workers), (
            "the signalled child's pool workers outlived it"
        )
        return journal

    @pytest.mark.parametrize("n_jobs", [1, 4])
    def test_sigkill_then_resume(self, rig, tmp_path, n_jobs):
        circuit, faults, clean_blob = rig
        journal = self._interrupt_child(tmp_path, n_jobs, signal.SIGKILL)
        state = load_checkpoint(journal)
        assert state.final is None, "journal already finished; no crash?"
        assert state.cursor[0] >= 1
        resumed = resume_procedure2(circuit, RIG_CONFIG, faults,
                                    str(journal))
        assert blob(resumed) == clean_blob

    @pytest.mark.parametrize("n_jobs", [1, 4])
    def test_sigint_then_resume(self, rig, tmp_path, n_jobs):
        circuit, faults, clean_blob = rig
        journal = self._interrupt_child(tmp_path, n_jobs, signal.SIGINT)
        state = load_checkpoint(journal)
        assert state.final is None
        resumed = resume_procedure2(circuit, RIG_CONFIG, faults,
                                    str(journal))
        assert blob(resumed) == clean_blob
