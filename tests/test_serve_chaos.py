"""Deterministic fault injection against the job service.

Every scenario here is seeded and replayable: chaos plans fire on
checkpoint-commit *counts*, not timers, so "the worker dies during
iteration 2" means exactly that on every run.  The invariant under
test is always the same one ``docs/serving.md`` promises -- nothing
acknowledged is ever lost, and recovery converges on the byte-identical
result an undisturbed run produces.
"""

import asyncio
import json
import os
import signal
import subprocess
import sys
import time
from pathlib import Path

import pytest

from repro.bench_circuits import load_circuit
from repro.circuit.bench_parser import write_bench
from repro.robustness.chaos import SERVER_CHAOS_EXIT, truncate_tail
from repro.serve.budgets import JobBudget
from repro.serve.jobs import JobManager
from repro.serve.models import DONE, PARTIAL, QUEUED
from repro.serve.queue import MultiTenantQueue

pytestmark = [pytest.mark.serve, pytest.mark.chaos]

#: Incomplete on purpose: Procedure 2 runs its full iteration budget
#: (6 committed iterations on s27), so mid-run deaths have a target.
SLOW = {"n": 1, "la": 2, "lb": 4, "max_iterations": 8}


@pytest.fixture(scope="module")
def s27_bench():
    return write_bench(load_circuit("s27"))


@pytest.fixture(scope="module")
def clean_job(s27_bench, tmp_path_factory):
    """The undisturbed reference: same submission, no chaos."""
    tmp_path = tmp_path_factory.mktemp("clean")
    manager = JobManager(
        tmp_path / "serve",
        queue=MultiTenantQueue(burst=1000),
        budget=JobBudget(wall_s=120, mem_mb=None),
    )
    job = manager.submit({"bench": s27_bench, "name": "s27", "config": SLOW})
    manager.queue.pop()
    asyncio.run(manager.execute_one(job.job_id))
    assert job.state == DONE
    return manager, job


@pytest.fixture(scope="module")
def clean_result(clean_job):
    manager, job = clean_job
    return manager.result(job.job_id)["result"]


def checkpoint_bytes(manager, job):
    path = manager.data_dir / f"jobs/{job.seq:06d}/checkpoint.jsonl"
    return path.read_bytes()


def make_manager(tmp_path, max_retries=2):
    return JobManager(
        tmp_path / "serve",
        queue=MultiTenantQueue(burst=1000),
        budget=JobBudget(wall_s=120, mem_mb=None, max_retries=max_retries),
        allow_request_chaos=True,
    )


class TestWorkerDeath:
    def test_death_mid_run_retries_and_resumes_byte_identical(
        self, tmp_path, s27_bench, clean_result
    ):
        manager = make_manager(tmp_path)
        job = manager.submit({
            "bench": s27_bench, "name": "s27", "config": SLOW,
            "chaos": {"die_after_commits": 2},
        })
        manager.queue.pop()
        asyncio.run(manager.execute_one(job.job_id))

        assert job.state == DONE
        assert job.attempts == 2  # died once, resumed once
        got = manager.result(job.job_id)["result"]
        assert json.dumps(got, sort_keys=True) == json.dumps(
            clean_result, sort_keys=True
        )

    def test_death_at_different_commit_points_converges(
        self, tmp_path, s27_bench, clean_result
    ):
        """Where the worker dies must not change what it computes."""
        for commits in (1, 4):
            manager = make_manager(tmp_path / f"at{commits}")
            job = manager.submit({
                "bench": s27_bench, "name": "s27", "config": SLOW,
                "chaos": {"die_after_commits": commits},
            })
            manager.queue.pop()
            asyncio.run(manager.execute_one(job.job_id))
            assert job.state == DONE
            got = manager.result(job.job_id)["result"]
            assert json.dumps(got, sort_keys=True) == json.dumps(
                clean_result, sort_keys=True
            )


    def test_every_retry_dies_once_then_converges(
        self, tmp_path, s27_bench, clean_job
    ):
        """The second (and third) crash as well as the first: each of
        three attempts dies right after its first commit, the fourth
        finishes, and result, journal and events match a clean job."""
        manager = make_manager(tmp_path, max_retries=3)
        job = manager.submit({
            "bench": s27_bench, "name": "s27", "config": SLOW,
            "chaos": {"die_after_commits": 1, "fire_attempts": 3},
        })
        manager.queue.pop()
        asyncio.run(manager.execute_one(job.job_id))

        assert job.state == DONE
        assert job.attempts == 4
        clean_manager, clean = clean_job
        got = manager.result(job.job_id)["result"]
        expected = clean_manager.result(clean.job_id)["result"]
        assert json.dumps(got, sort_keys=True) == json.dumps(
            expected, sort_keys=True
        )
        assert checkpoint_bytes(manager, job) == checkpoint_bytes(
            clean_manager, clean
        )
        assert manager.events(job.job_id) == clean_manager.events(
            clean.job_id
        )


class TestGracefulDegradation:
    def test_retries_exhausted_serves_partial_from_checkpoint(
        self, tmp_path, s27_bench
    ):
        # fire_attempts=99: the bomb re-arms on every retry, so no
        # attempt can ever finish.  max_retries=0 exhausts immediately.
        manager = make_manager(tmp_path, max_retries=0)
        job = manager.submit({
            "bench": s27_bench, "name": "s27", "config": SLOW,
            "chaos": {"die_after_commits": 2, "fire_attempts": 99},
        })
        manager.queue.pop()
        asyncio.run(manager.execute_one(job.job_id))

        assert job.state == PARTIAL
        assert job.error["code"] == "B003"
        result = manager.result(job.job_id)
        assert result["partial"] is True
        # The partial result reflects the committed prefix: ts0 plus the
        # iterations that reached their cursor before the death.
        assert result["result"]["complete"] is False
        assert result["result"]["iterations_run"] >= 1
        assert result["result"]["metrics"]["fault_coverage"] > 0
        assert result["error"]["code"] == "B003"

    def test_partial_is_deterministic(self, tmp_path, s27_bench):
        def run(sub):
            manager = make_manager(tmp_path / sub, max_retries=0)
            job = manager.submit({
                "bench": s27_bench, "name": "s27", "config": SLOW,
                "chaos": {"die_after_commits": 3, "fire_attempts": 99},
            })
            manager.queue.pop()
            asyncio.run(manager.execute_one(job.job_id))
            return manager.result(job.job_id)["result"]

        a, b = run("a"), run("b")
        assert json.dumps(a, sort_keys=True) == json.dumps(b, sort_keys=True)


class TestJournalTruncation:
    def test_torn_job_journal_tail_heals_on_restart(
        self, tmp_path, s27_bench
    ):
        manager = make_manager(tmp_path)
        kept = manager.submit(
            {"bench": s27_bench, "name": "s27", "config": SLOW}
        )
        torn = manager.submit({
            "bench": s27_bench, "name": "s27",
            "config": dict(SLOW, base_seed=9),
        })
        truncate_tail(manager.journal.path, 10)  # tear the second submit

        revived = make_manager(tmp_path)
        assert kept.job_id in revived.journal.jobs
        assert torn.job_id not in revived.journal.jobs
        assert revived.journal.healed_bytes > 0
        assert revived.queue.depth() == 1
        # The healed journal accepts new appends and serves the survivor.
        asyncio.run(revived.execute_one(kept.job_id))
        final = revived.result(kept.job_id)
        assert final["partial"] is False
        assert revived.journal.jobs[kept.job_id].state == DONE


def _serve_cmd(data_dir, extra=()):
    return [
        sys.executable, "-m", "repro", "serve",
        "--data-dir", str(data_dir),
        "--port", "0",
        "--enable-chaos",
        "--wall-budget", "120",
        "--retries", "2",
        *extra,
    ]


def _spawn(data_dir, extra=(), timeout_s=30.0):
    port_file = Path(data_dir) / "serve.port"
    if port_file.exists():
        port_file.unlink()
    env = dict(os.environ)
    env["PYTHONPATH"] = str(Path(__file__).resolve().parents[1] / "src")
    proc = subprocess.Popen(
        _serve_cmd(data_dir, extra),
        env=env,
        stdout=subprocess.DEVNULL,
        stderr=subprocess.PIPE,
    )
    deadline = time.monotonic() + timeout_s
    while time.monotonic() < deadline:
        if port_file.exists() and port_file.read_text().strip():
            return proc, int(port_file.read_text().strip())
        if proc.poll() is not None:
            raise RuntimeError(
                f"server exited {proc.returncode}: "
                f"{proc.stderr.read().decode()[-500:]}"
            )
        time.sleep(0.05)
    proc.kill()
    raise TimeoutError("server never bound")


class TestServerDeath:
    def test_chaos_exit_after_submit_then_recovery(
        self, tmp_path, s27_bench
    ):
        """The server drops dead the instant a submission is durable --
        before the HTTP response goes out.  The client sees a dropped
        connection; the journal has the job; the restart runs it."""
        import http.client as http_client

        from repro.serve.client import ServeClient

        data_dir = tmp_path / "serve"
        proc, port = _spawn(
            data_dir, extra=("--chaos-exit-after-submits", "1")
        )
        try:
            client = ServeClient(port=port, timeout_s=10.0)
            with pytest.raises(
                (http_client.RemoteDisconnected, ConnectionError)
            ):
                client.submit(s27_bench, name="s27", config=SLOW)
            proc.wait(timeout=30.0)
            assert proc.returncode == SERVER_CHAOS_EXIT
        finally:
            if proc.poll() is None:
                proc.kill()
                proc.wait()

        proc, port = _spawn(data_dir)
        try:
            client = ServeClient(port=port, timeout_s=10.0)
            assert client.healthz()["recovered_jobs"] == 1
            jobs = client.jobs()
            assert len(jobs) == 1  # the unacknowledged submit survived
            job_id = jobs[0]["job_id"]
            final = client.wait(job_id, timeout_s=120.0)
            assert final["state"] == "done"
            assert client.result(job_id)["partial"] is False
        finally:
            proc.send_signal(signal.SIGTERM)
            try:
                proc.wait(timeout=10.0)
            except subprocess.TimeoutExpired:
                proc.kill()
                proc.wait()

    def test_sigkill_mid_job_then_byte_identical_recovery(
        self, tmp_path, s27_bench, clean_result
    ):
        """SIGKILL -- no handler, no cleanup -- lands while Procedure 2
        is mid-flight; the restarted server resumes from the checkpoint
        journal and converges on the byte-identical clean result."""
        from repro.serve.client import ServeClient

        data_dir = tmp_path / "serve"
        proc, port = _spawn(data_dir)
        try:
            client = ServeClient(port=port, timeout_s=10.0)
            job = client.submit(
                s27_bench, name="s27", config=SLOW,
                chaos={"commit_delay_s": 0.5},
            )
            job_id = job["job_id"]
            # Wait until at least one iteration is durably committed.
            deadline = time.monotonic() + 60.0
            while time.monotonic() < deadline:
                kinds = [e["kind"] for e in client.events(job_id)]
                if "iteration" in kinds:
                    break
                time.sleep(0.1)
            else:
                pytest.fail("no committed iteration before deadline")
            proc.send_signal(signal.SIGKILL)
            proc.wait(timeout=10.0)
        finally:
            if proc.poll() is None:
                proc.kill()
                proc.wait()

        proc, port = _spawn(data_dir)
        try:
            client = ServeClient(port=port, timeout_s=10.0)
            assert client.healthz()["recovered_jobs"] >= 1
            final = client.wait(job_id, timeout_s=120.0)
            assert final["state"] == "done"
            got = client.result(job_id)["result"]
            assert json.dumps(got, sort_keys=True) == json.dumps(
                clean_result, sort_keys=True
            )
        finally:
            proc.send_signal(signal.SIGTERM)
            try:
                proc.wait(timeout=10.0)
            except subprocess.TimeoutExpired:
                proc.kill()
                proc.wait()
