"""Regression harness for ``benchmarks/bench_scale.py``.

Runs the benchmark in ``--smoke`` mode, validates the
``BENCH_scale.json`` schema, and gates the compile-cache contract: warm
compiles must hit the cache, be no slower than cold compiles, and
produce byte-identical simulation; consecutive Procedure 2 runs in one
process must not grow peak memory.  The committed full-set
``BENCH_scale.json`` at the repository root is also schema-checked.

Marked ``slow``: deselect with ``-m "not slow"`` for a fast inner loop.
"""

from __future__ import annotations

import importlib.util
import json
import sys
from pathlib import Path

import pytest

pytestmark = pytest.mark.slow

REPO_ROOT = Path(__file__).resolve().parent.parent
BENCH_PATH = REPO_ROOT / "benchmarks" / "bench_scale.py"
COMMITTED = REPO_ROOT / "BENCH_scale.json"

REQUIRED_COMPILE_KEYS = {
    "circuit", "gates", "load_seconds", "compile_cold_seconds",
    "compile_warm_seconds", "warm_hit", "identical_cold_vs_warm",
    "maxrss_mb",
}
REQUIRED_PROC_KEYS = {
    "circuit", "variant", "n_jobs", "cache_hit", "compile_seconds",
    "run_seconds", "fault_coverage", "identical_to_serial", "maxrss_mb",
}


def _load_bench_module():
    spec = importlib.util.spec_from_file_location("bench_scale", BENCH_PATH)
    module = importlib.util.module_from_spec(spec)
    sys.modules.setdefault("bench_scale", module)
    spec.loader.exec_module(module)
    return module


def _validate_schema(payload: dict) -> None:
    assert payload["schema"] == "bench-scale/v1"
    assert isinstance(payload["smoke"], bool)
    assert payload["host"]["cpu_count"] >= 1
    assert payload["compile"], "compile rows missing"
    for row in payload["compile"]:
        assert REQUIRED_COMPILE_KEYS <= set(row), row
        assert row["warm_hit"] is True
        assert row["identical_cold_vs_warm"] is True
        assert row["compile_warm_seconds"] <= row["compile_cold_seconds"]
    proc = payload["procedure2"]
    assert [r["variant"] for r in proc] == [
        "serial-cold", "serial-warm", "pool-warm"
    ]
    for row in proc:
        assert REQUIRED_PROC_KEYS <= set(row), row
        assert row["identical_to_serial"] is True
        assert 0.0 < row["fault_coverage"] <= 1.0
    assert proc[0]["cache_hit"] is False
    assert proc[1]["cache_hit"] is True


@pytest.fixture(scope="module")
def smoke_payload(tmp_path_factory):
    out = tmp_path_factory.mktemp("bench") / "BENCH_scale.json"
    module = _load_bench_module()
    rc = module.main(["--smoke", "--out", str(out)])
    assert rc == 0, "smoke benchmark failed the identity/cache-hit contract"
    return json.loads(out.read_text())


class TestSmokeBenchmark:
    def test_schema(self, smoke_payload):
        _validate_schema(smoke_payload)
        assert smoke_payload["smoke"] is True

    def test_consecutive_runs_do_not_grow_memory(self, smoke_payload):
        """The second serial run reuses the warmed process: if peak RSS
        grows more than noise, per-run state (an object netlist, a
        cached test set) is leaking."""
        cold, warm, _ = smoke_payload["procedure2"]
        assert warm["maxrss_mb"] <= cold["maxrss_mb"] * 1.10, (cold, warm)


class TestCommittedTrajectory:
    def test_committed_file_schema(self):
        payload = json.loads(COMMITTED.read_text())
        _validate_schema(payload)
        assert payload["smoke"] is False

    def test_committed_covers_full_large_tier(self):
        payload = json.loads(COMMITTED.read_text())
        names = {r["circuit"] for r in payload["compile"]}
        assert {"s9234", "s13207", "s15850", "s38417", "s38584"} <= names

    def test_committed_cache_speedup(self):
        """Warm compiles must stay several-fold faster than cold ones;
        this is the whole value of the compile cache."""
        payload = json.loads(COMMITTED.read_text())
        for row in payload["compile"]:
            speedup = row["compile_cold_seconds"] / max(
                row["compile_warm_seconds"], 1e-3
            )
            assert speedup >= 2.0, row
