"""Self-tests of the perf benchmark (``PYTHONPATH=src pytest benchmarks/perf``)."""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
import types
from pathlib import Path

import pytest

import bench
import tracer
import workloads
from tracer import Span, Tracer, resolve, self_times, summarize

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
BENCH = HERE / "bench.py"
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text("utf-8"))


def _run(args, cwd=ROOT, timeout=170):
    return subprocess.run(
        [sys.executable, str(BENCH), *args],
        cwd=cwd, capture_output=True, text=True, timeout=timeout,
    )


@pytest.mark.slow
def test_smoke_prints_exactly_the_declared_metrics(tmp_path):
    out = tmp_path / "smoke.json"
    proc = _run(["--smoke", "--out", str(out)], timeout=300)
    assert proc.returncode == 0, proc.stdout + proc.stderr
    runs = json.loads(out.read_text("utf-8"))["runs"]
    end_to_end = {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
    per_layer = {m["name"]: m["unit"] for m in SPEC["per_layer"]}
    assert {r["workload"] for r in runs} == {w["name"] for w in SPEC["workloads"]}
    for run in runs:
        expected = per_layer if run["trace"] else end_to_end
        assert {k: v["unit"] for k, v in run["metrics"].items()} == expected
        assert run["correct"] and run["failed"] == 0 and run["attempted"] >= 1
        if not run["trace"]:
            assert all(v["value"] > 0 for v in run["metrics"].values()), run
    # A saved set only grows by runs of the same seed.
    saved = out.read_text("utf-8")
    assert _run(["--smoke", "--seed", "1", "--out", str(out)]).returncode == 2
    assert out.read_text("utf-8") == saved


def test_corrupted_golden_digest_fails_every_operation(tmp_path):
    golden = json.loads((HERE / "golden.json").read_text("utf-8"))
    golden["families"]["s1423"]["seeds"]["0"]["sha256"] = "0" * 64
    bad = tmp_path / "golden.json"
    bad.write_text(json.dumps(golden), "utf-8")
    proc = _run([
        "--workload", "p2_s1423_batched", "--seed", "0", "--seconds", "1",
        "--trace", "0", "--smoke", "--golden", str(bad),
    ])
    assert proc.returncode != 0
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert not result["correct"]
    assert result["failed"] == result["attempted"] >= 1  # failed_frac == 1


def test_seed_without_golden_digest_is_checked_against_the_reference_path():
    seed = max(bench.GOLDEN_SEEDS) + 1
    proc = _run([
        "--workload", "p2_s1423_batched", "--seed", str(seed), "--seconds", "1",
        "--trace", "0", "--smoke",
    ])
    assert proc.returncode == 0, proc.stdout + proc.stderr
    assert f"seed {seed} has no golden digest" in proc.stdout
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert result["correct"] and result["failed"] == 0


#: Runs its arguments as a child while adopting orphans, then prints the
#: child's exit code and how many processes it left behind.
ORPHAN_COUNTER = f"""
import ctypes, os, subprocess, sys
ctypes.CDLL(None).prctl({workloads.PR_SET_CHILD_SUBREAPER}, 1, 0, 0, 0)
code = subprocess.run(sys.argv[1:], stdout=subprocess.DEVNULL).returncode
me = str(os.getpid())
left = []
for pid in filter(str.isdigit, os.listdir("/proc")):
    try:
        stat = open(f"/proc/{{pid}}/stat").read()
    except OSError:
        continue
    if stat.rsplit(")", 1)[1].split()[1] == me:
        left.append(stat)
print(code, len(left), left)
"""


def test_pool_run_leaves_no_process_behind():
    # The pool's shared-memory resource tracker outlives its parent
    # unless the benchmark stops it.
    proc = subprocess.run(
        [sys.executable, "-c", ORPHAN_COUNTER, sys.executable, str(BENCH),
         "--workload", "p2_s1423_pool2_ckpt", "--seed", "0", "--seconds", "1",
         "--trace", "0", "--smoke"],
        cwd=ROOT, capture_output=True, text=True, timeout=170,
    )
    code, left, _stats = proc.stdout.split(" ", 2)
    assert (code, left) == ("0", "0"), proc.stdout + proc.stderr


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    for rel in SPEC["paths"]:
        shutil.copytree(ROOT / rel, tmp_path / rel)
    proc = subprocess.run(
        [sys.executable, *SPEC["command"][1:], "--workload", "p2_s1423_batched",
         "--seed", "0", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
        env={"PATH": "/usr/bin:/bin"},
    )
    assert proc.returncode != 0
    assert "correct" not in proc.stdout


def test_tracer_restores_every_patched_callable():
    import repro.faults.fault_sim as fault_sim
    import repro.simulation.scan as scan

    before = {t.path: resolve(t.path)[2] for t in tracer.TARGETS}
    original_shift = scan.limited_shift
    t = Tracer()
    t.install()
    try:
        for target in tracer.TARGETS:
            assert resolve(target.path)[2] is not before[target.path], target
        # Importers' private copies are rebound as well.
        assert fault_sim.limited_shift is scan.limited_shift is not original_shift
        # A module that copies a wrapper while the tracer is installed ...
        late = types.ModuleType("late_importer")
        late.limited_shift = scan.limited_shift
        sys.modules[late.__name__] = late
    finally:
        t.restore()
    try:
        for target in tracer.TARGETS:
            assert resolve(target.path)[2] is before[target.path], target
        assert fault_sim.limited_shift is original_shift
        assert late.limited_shift is original_shift  # ... is restored too.
    finally:
        del sys.modules[late.__name__]


def test_self_time_is_span_time_minus_children():
    spans = [
        Span("root", 0.0, 10.0, -1, "u", None),
        Span("a", 1.0, 3.0, 0, "u", None),
        Span("b", 4.0, 7.0, 0, "u", None),
        Span("c", 4.5, 5.0, 2, "u", None),
    ]
    assert self_times(spans) == pytest.approx([5.0, 2.0, 2.5, 0.5])


def test_self_time_never_exceeds_span_time_on_a_real_run():
    from repro.bench_circuits import load_circuit
    from repro.core.config import BistConfig
    from repro.core.session import LimitedScanBist

    t = Tracer()
    t.unit = "op"
    with t:
        LimitedScanBist(
            load_circuit("s27"), config=BistConfig(n=4, max_iterations=3)
        ).run()
    assert len(t.spans) > 10
    for span, own in zip(t.spans, self_times(t.spans)):
        assert -1e-9 <= own <= span.end - span.start + 1e-12, span
    for stats in summarize(t.spans)["op"].values():
        assert stats.self_s <= stats.total_s + 1e-12


@pytest.mark.parametrize(
    "a, b, better, expected",
    [
        ([10.0, 10.1, 9.9, 10.0], [10.2, 10.3, 10.1, 10.2], "lower", "ok"),
        ([10.0, 10.1, 9.9, 10.0], [12.0, 12.1, 11.9, 12.0], "lower", "worse"),
        ([10.0, 10.1, 9.9, 10.0], [8.0, 8.1, 7.9, 8.0], "higher", "worse"),
        ([5.0, 10.0, 15.0, 10.0], [11.0, 16.0, 6.0, 11.0], "lower", "unresolved"),
        ([5.0, 10.0, 15.0, 10.0], [1.0, 2.0, 3.0, 4.0], "lower", "ok"),
    ],
)
def test_compare_verdicts(a, b, better, expected):
    assert bench.verdict(a, b, better, bound=0.1) == expected
