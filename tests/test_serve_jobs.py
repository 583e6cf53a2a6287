"""The job manager end to end: submit, execute, cache, degrade, recover.

Real Procedure 2 runs on s27 with deliberately tiny configurations --
a few seconds of wall clock buys tests against the genuine simulation
stack rather than mocks.
"""

import asyncio
import json

import pytest

from repro.bench_circuits import load_circuit
from repro.circuit.bench_parser import write_bench
from repro.serve.budgets import JobBudget
from repro.serve.errors import ServeError
from repro.serve.jobs import JobManager
from repro.serve.models import DONE, FAILED, PARTIAL, QUEUED
from repro.serve.queue import MultiTenantQueue
from repro.serve.worker import partial_result_from_checkpoint

pytestmark = pytest.mark.serve

#: Converges in an iteration or two: the fast path.
QUICK = {"n": 8, "max_iterations": 6}
#: Runs its full iteration budget: iteration 1 selects no pair,
#: iteration 2 selects one.
SLOW = {"n": 1, "la": 2, "lb": 4, "max_iterations": 8}


@pytest.fixture(scope="module")
def s27_bench():
    return write_bench(load_circuit("s27"))


def make_manager(tmp_path, **kwargs):
    kwargs.setdefault("budget", JobBudget(wall_s=60, mem_mb=None))
    kwargs.setdefault("queue", MultiTenantQueue(burst=1000))
    return JobManager(tmp_path / "serve", **kwargs)


def run_to_done(manager, body):
    """Submit and drive like the worker loop would: pop, then execute."""
    job = manager.submit(body)
    if not job.terminal:
        popped = manager.queue.pop()
        assert popped == job.job_id
        asyncio.run(manager.execute_one(popped))
    return job


class TestLifecycle:
    def test_submit_execute_done(self, tmp_path, s27_bench):
        manager = make_manager(tmp_path)
        job = manager.submit(
            {"bench": s27_bench, "name": "s27", "config": QUICK}
        )
        assert job.state == QUEUED
        assert not job.cached
        # Everything is already durable: a fresh journal replay sees it.
        assert manager.journal.jobs[job.job_id].submission_key

        asyncio.run(manager.execute_one(job.job_id))
        assert job.state == DONE
        result = manager.result(job.job_id)
        assert result["result"]["complete"] is True
        assert result["partial"] is False
        assert result["session_fingerprint"]

    def test_events_are_replayable(self, tmp_path, s27_bench):
        manager = make_manager(tmp_path)
        job = run_to_done(
            manager, {"bench": s27_bench, "name": "s27", "config": QUICK}
        )
        events = manager.events(job.job_id)
        kinds = [e["kind"] for e in events]
        assert kinds[0] == "submitted"
        assert kinds[-1] == "finished"
        assert "ts0" in kinds and "iteration" in kinds
        assert [e["seq"] for e in events] == list(range(len(events)))
        # since=N resumes the stream exactly.
        assert manager.events(job.job_id, since=2) == events[2:]

    def test_events_hold_only_committed_iterations(self, tmp_path, s27_bench):
        """A pair whose cursor never landed is not an event.

        The checkpoint journal is cut inside iteration 2's ``cursor``
        line, leaving iteration 2's ``pair`` line whole.  The events,
        the partial result and resume must all treat iteration 1 as the
        last commit, and the resumed stream must keep every ``seq``.
        """
        manager = make_manager(tmp_path)
        job = run_to_done(
            manager, {"bench": s27_bench, "name": "s27", "config": SLOW}
        )
        full = manager.events(job.job_id)
        path = manager.data_dir / f"jobs/{job.seq:06d}/checkpoint.jsonl"
        data = path.read_bytes()
        lines = data.splitlines(keepends=True)
        records = [json.loads(line) for line in lines]
        at = next(
            i for i, r in enumerate(records)
            if r["kind"] == "cursor" and r["iteration"] == 2
        )
        assert records[at - 1]["kind"] == "pair"
        assert records[at - 1]["iteration"] == 2
        cut = len(b"".join(lines[:at])) + len(lines[at]) // 2
        path.write_bytes(data[:cut])

        torn = manager.events(job.job_id)
        partial = partial_result_from_checkpoint(path)
        assert partial["iterations_run"] == 1
        progress = [
            (e["kind"], e["iteration"])
            for e in torn
            if e["kind"] in ("pair", "iteration")
        ]
        assert progress == [
            ("pair", p["iteration"]) for p in partial["pairs"]
        ] + [("iteration", 1)]
        assert torn[:-1] == full[: len(torn) - 1]

        # Resume re-runs iteration 2 and reproduces the stream exactly.
        asyncio.run(manager.execute_one(job.job_id))
        assert path.read_bytes() == data
        assert manager.events(job.job_id) == full

    def test_result_before_done_is_409(self, tmp_path, s27_bench):
        manager = make_manager(tmp_path)
        job = manager.submit({"bench": s27_bench, "name": "s27"})
        with pytest.raises(ServeError) as exc:
            manager.result(job.job_id)
        assert exc.value.code == "J002"
        assert exc.value.http_status == 409

    def test_unknown_job_is_404(self, tmp_path):
        manager = make_manager(tmp_path)
        with pytest.raises(ServeError) as exc:
            manager.get("j999999-nope")
        assert exc.value.code == "J001"
        assert exc.value.http_status == 404


class TestResultCache:
    def test_identical_resubmission_is_a_pure_cache_hit(
        self, tmp_path, s27_bench
    ):
        manager = make_manager(tmp_path)
        first = run_to_done(
            manager, {"bench": s27_bench, "name": "s27", "config": QUICK}
        )
        sims = manager.jobs_simulated
        assert sims == 1

        again = manager.submit(
            {"bench": s27_bench, "name": "s27", "config": QUICK}
        )
        # Terminal at submission: no queue slot, no worker, no child.
        assert again.state == DONE
        assert again.cached
        assert manager.jobs_simulated == sims
        assert manager.queue.depth() == 0

        a = manager.result(first.job_id)["result"]
        b = manager.result(again.job_id)["result"]
        assert json.dumps(a, sort_keys=True) == json.dumps(b, sort_keys=True)

    def test_different_config_misses(self, tmp_path, s27_bench):
        manager = make_manager(tmp_path)
        run_to_done(
            manager, {"bench": s27_bench, "name": "s27", "config": QUICK}
        )
        other = manager.submit(
            {"bench": s27_bench, "name": "s27",
             "config": dict(QUICK, base_seed=7)}
        )
        assert other.state == QUEUED  # not served from cache

    def test_different_name_misses(self, tmp_path, s27_bench):
        """Served results embed the circuit name, so the key must too."""
        manager = make_manager(tmp_path)
        run_to_done(
            manager, {"bench": s27_bench, "name": "s27", "config": QUICK}
        )
        other = manager.submit(
            {"bench": s27_bench, "name": "renamed", "config": QUICK}
        )
        assert other.state == QUEUED

    def test_corrupt_cache_entry_is_a_miss(self, tmp_path, s27_bench):
        manager = make_manager(tmp_path)
        job = run_to_done(
            manager, {"bench": s27_bench, "name": "s27", "config": QUICK}
        )
        manager.cache.path_for(job.submission_key).write_text("{torn")
        again = manager.submit(
            {"bench": s27_bench, "name": "s27", "config": QUICK}
        )
        assert again.state == QUEUED  # honest miss, job re-runs


class TestIngestionBoundary:
    def test_parse_garbage_rejected_with_e_code(self, tmp_path):
        manager = make_manager(tmp_path)
        with pytest.raises(ServeError) as exc:
            manager.submit({"bench": "INPUT(g1)\ng2 = FROB(g1)\n"})
        assert exc.value.code.startswith("E")
        assert exc.value.http_status == 422
        assert exc.value.detail["issues"]
        # Nothing was journaled or enqueued for the refused submission.
        assert manager.journal.jobs == {}
        assert manager.queue.depth() == 0

    def test_lint_failure_rejected_with_s_code(
        self, tmp_path, s27_bench, monkeypatch
    ):
        # The hardened parser subsumes every structural ERROR for text
        # input (cycles are E008, redefinitions E006, ...), so the lint
        # gate behind it is defense in depth.  Prove the wiring: a
        # failing report -- however it arises -- refuses with its S code.
        import repro.analysis
        from repro.analysis.report import LintReport
        from repro.analysis.rules import LintIssue, Severity

        failing = LintReport(
            circuit_name="s27",
            issues=[
                LintIssue(
                    rule_id="S001",
                    severity=Severity.ERROR,
                    message="injected structural failure",
                )
            ],
        )
        monkeypatch.setattr(
            repro.analysis, "lint_structural", lambda circuit: failing
        )
        manager = make_manager(tmp_path)
        with pytest.raises(ServeError) as exc:
            manager.submit({"bench": s27_bench, "name": "s27"})
        assert exc.value.code == "S001"
        assert exc.value.http_status == 422
        assert manager.journal.jobs == {}

    def test_unknown_field_rejected(self, tmp_path, s27_bench):
        manager = make_manager(tmp_path)
        with pytest.raises(ServeError) as exc:
            manager.submit({"bench": s27_bench, "nmae": "typo"})
        assert exc.value.code == "C001"

    def test_unknown_config_key_rejected(self, tmp_path, s27_bench):
        manager = make_manager(tmp_path)
        with pytest.raises(ServeError) as exc:
            manager.submit(
                {"bench": s27_bench, "config": {"n_iterations": 5}}
            )
        assert exc.value.code == "C002"
        assert "n_iterations" in str(exc.value)

    def test_invalid_config_value_rejected(self, tmp_path, s27_bench):
        manager = make_manager(tmp_path)
        with pytest.raises(ServeError) as exc:
            manager.submit({"bench": s27_bench, "config": {"la": 99, "lb": 4}})
        assert exc.value.code == "C002"

    def test_bad_targets_rejected(self, tmp_path, s27_bench):
        manager = make_manager(tmp_path)
        with pytest.raises(ServeError) as exc:
            manager.submit({"bench": s27_bench, "targets": "all"})
        assert exc.value.code == "C001"

    def test_chaos_requires_opt_in(self, tmp_path, s27_bench):
        manager = make_manager(tmp_path)  # allow_request_chaos=False
        with pytest.raises(ServeError) as exc:
            manager.submit(
                {"bench": s27_bench, "chaos": {"die_after_commits": 1}}
            )
        assert exc.value.code == "C001"

    def test_queue_shedding_propagates(self, tmp_path, s27_bench):
        manager = make_manager(
            tmp_path, queue=MultiTenantQueue(max_depth=1, burst=1000)
        )
        manager.submit({"bench": s27_bench, "name": "s27", "config": QUICK})
        with pytest.raises(ServeError) as exc:
            manager.submit(
                {"bench": s27_bench, "name": "s27",
                 "config": dict(QUICK, base_seed=9)}
            )
        assert exc.value.code == "Q001"
        assert exc.value.http_status == 429


class TestDegradation:
    def test_worker_death_without_checkpoint_is_failed(
        self, tmp_path, s27_bench
    ):
        manager = make_manager(
            tmp_path, budget=JobBudget(wall_s=60, mem_mb=None, max_retries=0)
        )
        job = manager.submit(
            {"bench": s27_bench, "name": "s27", "config": QUICK}
        )
        # Sabotage the spooled netlist: the child dies before its first
        # checkpoint commit, so there is no partial result to serve.
        (manager.data_dir / job.bench_path).unlink()
        asyncio.run(manager.execute_one(job.job_id))
        assert job.state == FAILED
        assert job.error["code"] == "B003"
        result = manager.result(job.job_id)
        assert result["result"] is None
        assert result["error"]["code"] == "B003"


class TestRecovery:
    def test_queued_job_survives_restart(self, tmp_path, s27_bench):
        manager = make_manager(tmp_path)
        job = manager.submit(
            {"bench": s27_bench, "name": "s27", "config": QUICK}
        )
        job_id = job.job_id

        # A new manager over the same data dir: the journal replays and
        # the job is back in the queue.
        revived = make_manager(tmp_path)
        assert revived.recovered_jobs == 1
        recovered = revived.journal.jobs[job_id]
        assert recovered.state == QUEUED
        asyncio.run(revived.execute_one(job_id))
        assert revived.result(job_id)["result"]["complete"] is True

    def test_running_job_resumes_after_restart(self, tmp_path, s27_bench):
        manager = make_manager(tmp_path)
        job = manager.submit(
            {"bench": s27_bench, "name": "s27", "config": QUICK}
        )
        job.state = "running"
        manager.journal.record_state(job)

        revived = make_manager(tmp_path)
        assert revived.recovered_jobs == 1
        assert revived.journal.jobs[job.job_id].state == QUEUED
        assert revived.queue.depth() == 1

    def test_terminal_jobs_are_not_requeued(self, tmp_path, s27_bench):
        manager = make_manager(tmp_path)
        run_to_done(
            manager, {"bench": s27_bench, "name": "s27", "config": QUICK}
        )
        revived = make_manager(tmp_path)
        assert revived.recovered_jobs == 0
        assert revived.queue.depth() == 0
        # ... and the finished result is still served from disk.
        job_id = next(iter(revived.journal.jobs))
        assert revived.result(job_id)["result"]["complete"] is True


class TestHealthz:
    def test_healthz_shape(self, tmp_path, s27_bench):
        manager = make_manager(tmp_path)
        run_to_done(
            manager, {"bench": s27_bench, "name": "s27", "config": QUICK}
        )
        health = manager.healthz()
        assert health["status"] == "ok"
        assert health["version"]
        assert health["uptime_s"] >= 0
        assert health["jobs"]["done"] == 1
        assert health["jobs_simulated"] == 1
        assert health["queue"]["depth"] == 0
        assert health["result_cache"]["entries"] == 1
        assert health["journal"]["records"] >= 3
