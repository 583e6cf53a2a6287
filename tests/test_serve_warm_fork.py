"""A forked child imports nothing its parent has not loaded.

``repro serve`` forks one child per job (and ``repro fuzz`` one per
case).  A fork shares every module its parent has loaded; a module the
child has to import itself is paid for again by every job -- the
largest single per-job cost of a small served job before the server
loaded the whole job path at startup.

Each probe runs in a fresh interpreter that has imported only what the
command loads at startup, snapshots ``sys.modules``, then drives the
child entry point in-process through every kind of job the service
runs.  Any module a scenario adds is a module every forked child of a
real server would import again.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

pytestmark = pytest.mark.serve

SRC = Path(__file__).resolve().parent.parent / "src"

#: argv: <mode> <work-dir>.  Prints ``{scenario: [modules it added]}``.
#: The harness loads its own helpers before the snapshot; the
#: scenarios run in the order listed, and a module is charged to the
#: first scenario that loaded it.
PROBE_SCRIPT = """\
import json
import multiprocessing
import sys
from pathlib import Path

mode, work = sys.argv[1], Path(sys.argv[2])
import repro.cli

added = {}


def scenario(name, fn):
    before = set(sys.modules)
    fn()
    added[name] = sorted(set(sys.modules) - before)


if mode == "serve":
    import repro.serve.budgets
    import repro.serve.jobs
    import repro.serve.queue
    import repro.serve.server
    from repro.bench_circuits import load_circuit
    from repro.circuit.bench_parser import write_bench
    from repro.core.config import BistConfig
    from repro.fuzz.sandbox import _child_entry
    from repro.serve.budgets import JobBudget
    from repro.serve.jobs import JobManager
    from repro.serve.worker import job_child_main

    bench = work / "s27.bench"
    bench.write_text(write_bench(load_circuit("s27")), "utf-8")
    quick = BistConfig(n=8, max_iterations=6).to_dict()
    slow = BistConfig(n=1, la=2, lb=4, max_iterations=8).to_dict()
    manager = JobManager(work / "serve", budget=JobBudget(mem_mb=None))
    receiver, sender = multiprocessing.get_context("fork").Pipe(duplex=False)
    results = {}

    def payload(key, config, **extra):
        return {
            "bench_path": str(bench),
            "circuit_name": "s27",
            "config": config,
            "targets": "collapsed",
            "checkpoint": str(work / (key + ".jsonl")),
            "resume": False,
            **extra,
        }

    def job(key, config, **extra):
        task = payload(key, config, **extra)
        return lambda: results.setdefault(key, job_child_main(task))

    def child_entry():
        # What a forked child runs around the job: pdeathsig, the pipe.
        task = payload("entry", quick)
        _child_entry(sender, job_child_main, (task,), None, True)

    def half_committed():
        # The uninterrupted run's journal, cut after its first committed
        # iteration and half of the next line: a torn, partial journal.
        data = (work / "slow.jsonl").read_bytes()
        lines = data.splitlines(keepends=True)
        first = next(
            i for i, line in enumerate(lines) if b'"kind": "cursor"' in line
        )
        keep = b"".join(lines[: first + 1])
        torn = lines[first + 1][: len(lines[first + 1]) // 2]
        (work / "resume.jsonl").write_bytes(keep + torn)

    def submit():
        text = bench.read_text("utf-8")
        manager.submit({"bench": text, "name": "s27", "config": {"n": 4}})

    scenario("collapsed", job("collapsed", quick))
    scenario("child_entry", child_entry)
    assert receiver.recv() == {"status": "ok", "payload": results["collapsed"]}
    scenario("detectable", job("detectable", quick, targets="detectable"))
    scenario("checkpointed", job("slow", slow))
    half_committed()
    scenario("resume", job("resume", slow, resume=True))
    cache = str(work / "compile-cache")
    scenario("cache_cold", job("cold", quick, cache_dir=cache))
    scenario("cache_warm", job("warm", quick, cache_dir=cache))
    scenario("submit", submit)
    # Last: the commit bomb patches the checkpoint writer for good.
    scenario("chaos", job("chaos", slow, chaos={"commit_delay_s": 0.001}))
    assert results["resume"]["result"] == results["slow"]["result"]
    assert results["warm"]["result"] == results["cold"]["result"]
else:
    from repro.fuzz.runner import FuzzConfig, build_cases, execute_case_inline

    cases = build_cases(FuzzConfig(budget=40, seed=2001))

    def run_cases():
        for case in cases:
            execute_case_inline(case.text, case.seed, case.case_id)

    scenario("fuzz", run_cases)

print(json.dumps(added))
"""

SERVE_SCENARIOS = (
    "collapsed", "child_entry", "detectable", "checkpointed", "resume",
    "cache_cold", "cache_warm", "submit", "chaos",
)


def _probe(mode, work_dir):
    env = dict(os.environ, PYTHONPATH=str(SRC))
    proc = subprocess.run(
        [sys.executable, "-c", PROBE_SCRIPT, mode, str(work_dir)],
        env=env,
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout)


@pytest.fixture(scope="module")
def serve_probe(tmp_path_factory):
    return _probe("serve", tmp_path_factory.mktemp("warm-fork"))


@pytest.mark.parametrize("scenario", SERVE_SCENARIOS)
def test_job_path_is_loaded_at_server_startup(serve_probe, scenario):
    assert serve_probe[scenario] == [], (
        f"{scenario}: every forked job child would import "
        f"{serve_probe[scenario]} again"
    )


def test_fuzz_case_imports_nothing(tmp_path):
    added = _probe("fuzz", tmp_path)
    assert added["fuzz"] == []
