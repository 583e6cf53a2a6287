"""CI gate: the job service's whole crash-safety story, end to end.

Drives a real ``repro serve`` subprocess through the claims
``docs/serving.md`` makes, and fails loudly on the first one that does
not hold:

1. **liveness** -- the server comes up, writes its port file, answers
   ``/healthz``.
2. **correctness** -- an s27 characterization job runs to ``done`` and
   its result is byte-identical to an in-process
   :class:`~repro.core.session.LimitedScanBist` run of the same
   submission.
3. **cache** -- resubmitting the identical netlist + config is answered
   terminally at submission time (``cached: true``) with the server's
   ``jobs_simulated`` counter unchanged: zero fault-simulation
   dispatches.
4. **crash recovery** -- a chaos-paced job (``commit_delay_s`` stretches
   the run) is interrupted by SIGKILL -- no warning, no cleanup -- after
   its first committed iteration is visible in the events stream.  A new
   server on the same data dir recovers the job, resumes it from its
   checkpoint journal, and the final result is byte-identical to the
   clean in-process run.  The event stream polled just before the kill
   is a prefix of the recovered job's final stream: the same ``seq``
   numbers with the same content.
5. **warm fork** -- the claims 1-3 server runs under ``python -X
   importtime`` with its stderr in a log, which every forked job child
   inherits and shares.  Once one fresh job has finished (it may have
   triggered one-time imports in the server itself), two more fresh
   jobs with distinct ``base_seed`` add no ``import time:`` line: each
   job child runs on modules its server loaded at startup.  The line
   counts are recorded in the verdict.

Prints a JSON verdict either way.  Exit codes: 0 pass, 1 a claim
failed, 2 harness trouble (server never came up).

Usage::

    PYTHONPATH=src python tools/serve_smoke.py [--keep] [--timeout 180]
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import subprocess
import sys
import tempfile
import time
from pathlib import Path
from typing import Any, Dict, List, Optional, Sequence

#: The paced (slow) job's config: incomplete on purpose so Procedure 2
#: runs the full iteration budget, giving the kill a wide target.
SLOW_CONFIG = {"n": 1, "la": 2, "lb": 4, "max_iterations": 8}
#: The quick job's config: converges in one or two iterations.
QUICK_CONFIG = {"n": 8, "max_iterations": 6}


class SmokeFailure(AssertionError):
    """One of the service's published claims did not hold."""


def _serve_cmd(data_dir: Path, python_flags: Sequence[str] = ()) -> List[str]:
    return [
        sys.executable, *python_flags, "-m", "repro", "serve",
        "--data-dir", str(data_dir),
        "--port", "0",
        "--enable-chaos",
        "--wall-budget", "120",
        "--retries", "2",
    ]


def _start_server(
    data_dir: Path, timeout_s: float, import_log: Optional[Path] = None
) -> subprocess.Popen:
    """Start ``repro serve``; with ``import_log``, under ``-X importtime``."""
    port_file = data_dir / "serve.port"
    if port_file.exists():
        port_file.unlink()
    env = dict(os.environ)
    env["PYTHONPATH"] = str(Path(__file__).resolve().parent.parent / "src")
    flags = ("-X", "importtime") if import_log else ()
    with open(import_log or os.devnull, "ab") as stderr:
        proc = subprocess.Popen(
            _serve_cmd(data_dir, flags),
            env=env,
            stdout=subprocess.DEVNULL,
            stderr=stderr,
        )
    deadline = time.monotonic() + timeout_s
    while time.monotonic() < deadline:
        if port_file.exists() and port_file.read_text("utf-8").strip():
            return proc
        if proc.poll() is not None:
            raise SmokeFailure(
                f"server exited {proc.returncode} before binding"
            )
        time.sleep(0.05)
    proc.kill()
    raise SmokeFailure(f"server did not bind within {timeout_s:g}s")


def _client(data_dir: Path):
    from repro.serve.client import ServeClient

    port = int((data_dir / "serve.port").read_text("utf-8").strip())
    return ServeClient(port=port)


def _reference_result(bench: str, config: Dict[str, Any]) -> Dict[str, Any]:
    """The in-process ground truth the served results must match."""
    from repro.circuit.bench_parser import parse_bench
    from repro.core.config import BistConfig
    from repro.core.session import LimitedScanBist
    from repro.experiments.serialize import result_to_dict
    from repro.faults.collapse import collapse_faults

    circuit = parse_bench(bench, name="s27")
    full = {**BistConfig().to_dict(), **config}
    session = LimitedScanBist(
        circuit,
        config=BistConfig.from_dict(full),
        target_faults=collapse_faults(circuit),
    )
    return result_to_dict(session.run())


def _require(claim: bool, message: str) -> None:
    if not claim:
        raise SmokeFailure(message)


def _imports_logged(import_log: Path) -> List[str]:
    """The ``-X importtime`` lines the server and its children wrote."""
    text = import_log.read_text("utf-8", errors="replace")
    return [
        line for line in text.splitlines() if line.startswith("import time:")
    ]


def run_smoke(data_dir: Path, timeout_s: float) -> Dict[str, Any]:
    from repro.bench_circuits import load_circuit
    from repro.circuit.bench_parser import write_bench

    bench = write_bench(load_circuit("s27"))
    report: Dict[str, Any] = {}

    import_log = data_dir / "serve-importtime.log"
    server = _start_server(data_dir, timeout_s=30.0, import_log=import_log)
    try:
        client = _client(data_dir)
        health = client.healthz()
        _require(health["status"] == "ok", "healthz not ok")
        report["version"] = health["version"]

        # -- claim 2: a job runs and matches the in-process run --------
        job = client.submit(bench, name="s27", config=QUICK_CONFIG)
        final = client.wait(job["job_id"], timeout_s=timeout_s)
        _require(final["state"] == "done", f"job ended {final['state']}")
        served = client.result(job["job_id"])["result"]
        expected = _reference_result(bench, QUICK_CONFIG)
        _require(
            json.dumps(served, sort_keys=True)
            == json.dumps(expected, sort_keys=True),
            "served result differs from in-process run",
        )
        report["quick_job"] = job["job_id"]

        # -- claim 3: identical resubmission is a pure cache hit -------
        sims_before = client.healthz()["jobs_simulated"]
        rerun = client.submit(bench, name="s27", config=QUICK_CONFIG)
        _require(rerun["state"] == "done", "resubmission not terminal")
        _require(rerun["cached"], "resubmission not served from cache")
        _require(
            client.healthz()["jobs_simulated"] == sims_before,
            "cache hit still dispatched a simulation",
        )
        rerun_result = client.result(rerun["job_id"])["result"]
        _require(
            json.dumps(rerun_result, sort_keys=True)
            == json.dumps(expected, sort_keys=True),
            "cached result differs from in-process run",
        )
        report["cached_job"] = rerun["job_id"]

        # -- claim 5: fresh jobs fork from a warm server ---------------
        warm = len(_imports_logged(import_log))
        for seed in (1, 2):
            fresh = client.submit(
                bench, name="s27", config={**QUICK_CONFIG, "base_seed": seed}
            )
            _require(not fresh["cached"], "distinct base_seed hit the cache")
            done = client.wait(fresh["job_id"], timeout_s=timeout_s)
            _require(done["state"] == "done", f"job ended {done['state']}")
        added = _imports_logged(import_log)[warm:]
        report["import_lines"] = {
            "through_first_job": warm,
            "next_two_fresh_jobs": len(added),
        }
        _require(
            not added,
            f"{len(added)} import(s) in fresh jobs after the first: "
            + "; ".join(line.split("|")[-1].strip() for line in added[:5]),
        )

        # -- claim 4a: start a paced job and SIGKILL mid-run -----------
        slow = client.submit(
            bench,
            name="s27",
            config=SLOW_CONFIG,
            chaos={"commit_delay_s": 0.5},
        )
        slow_id = slow["job_id"]
        deadline = time.monotonic() + timeout_s
        while time.monotonic() < deadline:
            events = client.events(slow_id)
            if any(e["kind"] == "iteration" for e in events):
                break
            _require(
                client.status(slow_id)["state"] in ("queued", "running"),
                "paced job finished before it could be interrupted",
            )
            time.sleep(0.05)
        else:
            raise SmokeFailure("paced job never committed an iteration")
        events_before_kill = events
        server.send_signal(signal.SIGKILL)
        server.wait(timeout=30)
        report["killed_mid_job"] = slow_id
    finally:
        if server.poll() is None:
            server.kill()
            server.wait(timeout=30)

    # -- claim 4b: restart, recover, byte-identical final result -------
    server = _start_server(data_dir, timeout_s=30.0)
    try:
        client = _client(data_dir)
        health = client.healthz()
        _require(
            health["recovered_jobs"] >= 1, "restart recovered no jobs"
        )
        final = client.wait(slow_id, timeout_s=timeout_s)
        _require(
            final["state"] == "done", f"recovered job ended {final['state']}"
        )
        resumed = client.result(slow_id)["result"]
        expected_slow = _reference_result(bench, SLOW_CONFIG)
        _require(
            json.dumps(resumed, sort_keys=True)
            == json.dumps(expected_slow, sort_keys=True),
            "resumed result differs from uninterrupted run",
        )
        final_events = client.events(slow_id)
        _require(
            final_events[: len(events_before_kill)] == events_before_kill,
            "events seen before the crash are not a prefix of the "
            "recovered job's event stream",
        )
        report["events_before_kill"] = len(events_before_kill)
        report["events_final"] = len(final_events)
        report["recovered_jobs"] = health["recovered_jobs"]
        report["final_health"] = client.healthz()["jobs"]
    finally:
        server.terminate()
        try:
            server.wait(timeout=30)
        except subprocess.TimeoutExpired:
            server.kill()
            server.wait(timeout=30)
    return report


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--data-dir", default=None,
                        help="service data dir (default: fresh temp dir)")
    parser.add_argument("--keep", action="store_true",
                        help="keep the data dir for inspection")
    parser.add_argument("--timeout", type=float, default=180.0,
                        help="budget for each wait (default 180s)")
    args = parser.parse_args(argv)

    owned = args.data_dir is None
    data_dir = Path(args.data_dir or tempfile.mkdtemp(prefix="serve-smoke-"))
    data_dir.mkdir(parents=True, exist_ok=True)
    try:
        report = run_smoke(data_dir, timeout_s=args.timeout)
    except SmokeFailure as exc:
        print(json.dumps({"verdict": "FAIL", "reason": str(exc)}, indent=2))
        return 1
    except Exception as exc:  # noqa: BLE001 - harness trouble, not a claim
        print(json.dumps(
            {"verdict": "ERROR", "reason": f"{type(exc).__name__}: {exc}"},
            indent=2,
        ))
        return 2
    finally:
        if owned and not args.keep:
            shutil.rmtree(data_dir, ignore_errors=True)
    print(json.dumps({"verdict": "PASS", **report}, indent=2))
    return 0


if __name__ == "__main__":
    sys.exit(main())
