"""Golden-checked end-to-end and per-layer benchmark of Procedure 2 and ``repro serve``.

Four workloads, declared in ``BENCHMARK.json`` at the repository root
and described in ``README.md`` next to this file: ``p2_s1423_batched``,
``p2_s1423_pool2_ckpt``, ``p2_s13207_wide`` and ``serve_s27_mixed``.

One run of one workload::

    python3 benchmarks/perf/bench.py --workload p2_s1423_batched \\
        --seed 0 --seconds 15 --trace 0

runs operations for ``--seconds``, checks every result, and prints as
its last line ``{"correct", "attempted", "failed", "metrics"}``: the
end-to-end metrics with ``--trace 0``, the per-layer metrics (from a run
that wraps each layer's public callables, see ``tracer.py``) with
``--trace 1``.  Exit code 0 when every result is correct, 1 when one is
not, 2 when the harness cannot run (for instance without ``src/``).

A full set -- every workload, ``--repeats`` untraced runs plus one
traced run, each in a fresh child process -- prints a table and can
save the runs for ``--compare``::

    python3 benchmarks/perf/bench.py --seed 0 --out A.json
    python3 benchmarks/perf/bench.py --compare A.json B.json
    python3 benchmarks/perf/bench.py --smoke        # <= 60 s self-test

``--record-golden`` rewrites ``golden.json`` for :data:`GOLDEN_SEEDS`
from the independent reference engine path of each Procedure 2 family;
any other seed is checked against a run of that path after the timed
phase.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path
from typing import Any, Dict, List, Optional, Sequence

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
SRC = ROOT / "src"
GOLDEN = HERE / "golden.json"
SPEC = ROOT / "BENCHMARK.json"
WORK = ROOT / ".bench_work"
SCHEMA = "perf-bench/v1"
#: A child run is killed (with its process group) after this long.
CHILD_TIMEOUT_S = 180.0
SMOKE_SECONDS = 1.0
#: Seeds with a recorded golden digest: 0, and 1 held out.
GOLDEN_SEEDS = (0, 1)


def _spec() -> Dict[str, Any]:
    return json.loads(SPEC.read_text("utf-8"))


def _import_program() -> float:
    """Import the program from this checkout's ``src``; returns seconds.

    Refuses a ``repro`` found anywhere else, so a copy without ``src/``
    fails instead of measuring some installed version.
    """
    sys.path.insert(0, str(SRC))
    start = time.perf_counter()
    import repro
    import workloads  # imports the whole measured stack

    elapsed = time.perf_counter() - start
    origin = Path(repro.__file__).resolve()
    if SRC.resolve() not in origin.parents:
        raise ImportError(f"repro imported from {origin}, not from {SRC}")
    for name in workloads.SCRUBBED_ENV:  # inherited by serve subprocesses too
        os.environ.pop(name, None)
    return elapsed


def _quartiles(values: List[float]) -> List[float]:
    if len(values) < 2:
        return [values[0]] * 3
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return [q1, statistics.median(values), q3]


# ----------------------------------------------------------------------
# One run of one workload.
# ----------------------------------------------------------------------
def run_one(args: argparse.Namespace, import_s: float) -> int:
    import workloads

    if args.workload not in workloads.WORKLOADS:
        print(f"unknown workload {args.workload!r}", file=sys.stderr)
        return 2
    golden = json.loads(args.golden.read_text("utf-8")) if args.golden.exists() else {}
    WORK.mkdir(exist_ok=True)
    work_dir = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=WORK))
    tempfile.tempdir = str(work_dir)
    try:
        outcome = workloads.run_workload(
            args.workload, args.seed, args.seconds, bool(args.trace), golden,
            work_dir, import_s, smoke=args.smoke,
        )
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)
        try:
            WORK.rmdir()
        except OSError:
            pass  # another run is still using it
    print("# provenance " + json.dumps(workloads.provenance(args.seed, args.seconds)))
    for note in outcome.notes:
        print(f"# note: {note}")
    print(json.dumps({
        "correct": outcome.correct,
        "attempted": outcome.attempted,
        "failed": outcome.failed,
        "metrics": outcome.metrics,
    }))
    return 0 if outcome.correct else 1


# ----------------------------------------------------------------------
# A full set of runs, each in a fresh child.
# ----------------------------------------------------------------------
def _child(
    workload: str, seed: int, seconds: float, trace: int, golden: Path, smoke: bool
) -> Dict[str, Any]:
    import workloads

    cmd = [
        sys.executable, str(Path(__file__).resolve()),
        "--workload", workload, "--seed", str(seed),
        "--seconds", str(seconds), "--trace", str(trace),
        "--golden", str(golden),
    ] + (["--smoke"] if smoke else [])
    start = time.perf_counter()
    proc = subprocess.Popen(
        cmd, cwd=ROOT, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
        text=True, start_new_session=True,
    )
    try:
        out, err = proc.communicate(timeout=CHILD_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        out, err = proc.communicate()
    workloads.stop_descendants()  # stragglers must not load the next run
    run: Dict[str, Any] = {
        "workload": workload, "trace": trace, "exit": proc.returncode,
        "elapsed_s": time.perf_counter() - start,
        "notes": [line[8:] for line in out.splitlines() if line.startswith("# note: ")],
    }
    lines = out.strip().splitlines()
    try:
        run.update(json.loads(lines[-1]))
    except (IndexError, json.JSONDecodeError):
        run.update(correct=False, attempted=0, failed=0, metrics={})
        run["stderr"] = err[-2000:]
    if proc.returncode != 0 and err:
        sys.stderr.write(err[-2000:])
    return run


def run_set(args: argparse.Namespace) -> int:
    import workloads

    spec = _spec()
    names = [w["name"] for w in spec["workloads"]]
    seconds = SMOKE_SECONDS if args.smoke else args.seconds
    repeats = 1 if args.smoke else args.repeats
    payload: Dict[str, Any] = {
        "schema": SCHEMA,
        "provenance": {**workloads.provenance(args.seed, seconds), "repeats": repeats},
        "runs": [],
    }
    if args.out and args.out.exists():
        # A saved set grows by the new runs, so two sets can be run in
        # turns and the host's drift falls on both alike.
        saved = json.loads(args.out.read_text("utf-8"))
        for key in ("seed", "seconds", "git_revision"):
            if saved["provenance"][key] != payload["provenance"][key]:
                print(f"{args.out} was run with another {key}", file=sys.stderr)
                return 2
        payload["runs"] = saved["runs"]
        payload["provenance"]["repeats"] += saved["provenance"]["repeats"]
    plan = [(w, 0) for _ in range(repeats) for w in names] + [(w, 1) for w in names]
    for workload, trace in plan:
        run = _child(workload, args.seed, seconds, trace, args.golden, args.smoke)
        payload["runs"].append(run)
        print(
            f"{workload} trace={trace}: exit {run['exit']}, "
            f"{run['failed']}/{run['attempted']} failed, {run['elapsed_s']:.1f}s",
            flush=True,
        )
    print_set(payload, spec)
    if args.out:
        args.out.write_text(json.dumps(payload, indent=1, sort_keys=True) + "\n")
        print(f"wrote {args.out}")
    ok = all(r["exit"] == 0 and r["correct"] for r in payload["runs"])
    return 0 if ok else 1


def print_set(payload: Dict[str, Any], spec: Dict[str, Any]) -> None:
    prov = payload["provenance"]
    print("\nprovenance: " + json.dumps(prov, sort_keys=True))
    if prov["available_cpu_count"] <= 2:
        print(
            "note: at most 2 CPUs available -- p2_s1423_pool2_ckpt rows are "
            "not evidence of parallel speedup"
        )
    runs = payload["runs"]
    workloads = sorted({r["workload"] for r in runs})
    for workload in workloads:
        untraced = [r for r in runs if r["workload"] == workload and r["trace"] == 0]
        traced = [r for r in runs if r["workload"] == workload and r["trace"] == 1]
        failed = sum(r["failed"] for r in untraced + traced)
        attempted = sum(r["attempted"] for r in untraced + traced)
        print(f"\n{workload}  ({failed}/{attempted} operations failed)")
        for m in spec["end_to_end"]:
            values = [r["metrics"][m["name"]]["value"] for r in untraced
                      if m["name"] in r["metrics"]]
            if not values:
                continue
            q1, med, q3 = _quartiles(values)
            print(f"  {m['name']:<24} {med:>12.4f} {m['unit']:<6}"
                  f" [{q1:.4f} .. {q3:.4f}]  n={len(values)}")
        for run in traced[:1]:
            print("  per-layer (traced run):")
            for name, entry in run["metrics"].items():
                print(f"    {name:<34} {entry['value']:>14.6g} {entry['unit']}")
            for note in run.get("notes", []):
                print(f"  note: {note}")


# ----------------------------------------------------------------------
# Comparing two sets.
# ----------------------------------------------------------------------
def verdict(a: List[float], b: List[float], better: str, bound: float) -> str:
    """``ok``, ``worse`` or ``unresolved`` for set ``b`` against set ``a``."""
    sign = 1.0 if better == "lower" else -1.0
    if all(sign * x < sign * y for x in b for y in a):
        return "ok"  # every run of b reads better than every run of a
    qa, qb = _quartiles(a), _quartiles(b)
    spread = max(
        (q[2] - q[0]) / abs(q[1]) if q[1] else 0.0 for q in (qa, qb)
    )
    if spread > bound:
        return "unresolved"
    worse_by = sign * (qb[1] - qa[1]) / abs(qa[1]) if qa[1] else 0.0
    return "worse" if worse_by > bound else "ok"


def compare(path_a: Path, path_b: Path) -> int:
    spec = _spec()
    sets = [json.loads(p.read_text("utf-8")) for p in (path_a, path_b)]
    print(f"A = {path_a}\nB = {path_b}")
    print(f"{'workload':<22} {'metric':<20} {'A median [q1..q3]':<32}"
          f" {'B median [q1..q3]':<32} {'bound':>6}  verdict")
    verdicts: List[str] = []
    for workload in (w["name"] for w in spec["workloads"]):
        for m in spec["end_to_end"]:
            columns = []
            for data in sets:
                columns.append([
                    r["metrics"][m["name"]]["value"] for r in data["runs"]
                    if r["workload"] == workload and r["trace"] == 0
                    and m["name"] in r["metrics"]
                ])
            if not all(columns):
                continue
            v = verdict(columns[0], columns[1], m["better"], m["bound"])
            verdicts.append(v)
            cells = [
                "{1:.4g} [{0:.4g}..{2:.4g}]".format(*_quartiles(c)) for c in columns
            ]
            print(f"{workload:<22} {m['name']:<20} {cells[0]:<32} {cells[1]:<32}"
                  f" {m['bound']:>6.2f}  {v}")
    counts = {v: verdicts.count(v) for v in ("ok", "worse", "unresolved")}
    print(f"\n{counts['ok']} ok, {counts['worse']} worse, "
          f"{counts['unresolved']} unresolved")
    return 0 if verdicts and counts["ok"] == len(verdicts) else 1


# ----------------------------------------------------------------------
# Golden digests.
# ----------------------------------------------------------------------
def record_golden(args: argparse.Namespace) -> int:
    import workloads

    families: Dict[str, Any] = {}
    for workload in workloads.P2_WORKLOADS.values():
        if workload.family in families:
            continue
        family = families[workload.family] = workloads.golden_family_header(workload)
        for seed in GOLDEN_SEEDS:
            family["seeds"][str(seed)] = workloads.reference_digest(workload, seed)
            print(f"{workload.family} seed {seed}: "
                  f"{family['seeds'][str(seed)]['sha256'][:16]}", flush=True)
    doc = {
        "schema": "perf-golden/v1",
        "digest": "sha256 of json.dumps(result_to_dict(result), sort_keys=True)",
        "families": families,
    }
    args.golden.write_text(json.dumps(doc, indent=1, sort_keys=True) + "\n")
    print(f"wrote {args.golden}")
    return 0


# ----------------------------------------------------------------------
def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", help="run one workload once and print its result line")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=None,
                        help="measured seconds per run (default: BENCHMARK.json)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--repeats", type=int, default=3,
                        help="untraced runs per workload in a full set")
    parser.add_argument("--out", type=Path,
                        help="save the full set as JSON, adding to the file if it exists")
    parser.add_argument("--smoke", action="store_true",
                        help="1-second runs without warm-up: a <= 60 s self-test")
    parser.add_argument("--golden", type=Path, default=GOLDEN)
    parser.add_argument("--compare", nargs=2, type=Path, metavar=("A", "B"))
    parser.add_argument("--record-golden", action="store_true")
    args = parser.parse_args(argv)

    if args.compare:
        return compare(*args.compare)
    # Turn SIGTERM into SystemExit so cleanup (server stop,
    # work-dir removal) runs.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    try:
        import_s = _import_program()
    except ImportError as exc:
        print(f"cannot import the program from {SRC}: {exc}", file=sys.stderr)
        return 2
    if args.seconds is None:
        args.seconds = float(_spec()["run_seconds"]) if SPEC.exists() else 15.0
    import workloads

    # No process of the run may outlive it: pool workers, the pool's
    # resource tracker, serve subprocesses and their job children alike.
    workloads.become_subreaper()
    try:
        if args.record_golden:
            return record_golden(args)
        if args.workload:
            return run_one(args, import_s)
        return run_set(args)
    finally:
        workloads.stop_descendants()


if __name__ == "__main__":
    sys.exit(main())
