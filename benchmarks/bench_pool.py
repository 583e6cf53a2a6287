"""Persistent worker pool vs. serial Procedure 2.

Measures wall-clock time of complete Procedure 2 runs on the serial
simulator and on the persistent worker pool across an
``n_jobs`` x ``candidate_batch`` grid, and verifies every parallel/batched result is byte-identical to
the serial run (config and execution metadata normalized out).  The
measured table is written as ``BENCH_pool.json`` so speedups are
tracked in-repo rather than anecdotal.  The committed file also holds
``sharded`` rows measured on the per-dispatch executor that has since
been removed; they stay as history.

Modes::

    python benchmarks/bench_pool.py             # full grid (s1423)
    python benchmarks/bench_pool.py --smoke     # seconds-scale (s298)

The committed ``BENCH_pool.json`` at the repository root is the full
grid.  ``--smoke`` is the CI/regression-test entry point: a small
circuit sized so each row runs for whole seconds and the *batched
evaluation* speedup is several-fold -- comfortably above timer noise.
Its dispatches are too small to pay for a worker round trip, so its
``n_jobs > 1`` rows run in the parent (the JSON records every row, the
regression test interprets them per host core count).  Smoke
rows are additionally timed as the minimum over ``SMOKE_REPEATS`` runs
so a scheduler hiccup on a loaded CI host cannot fake a regression.

On a single-core host the pool rows measure batching amortization only;
the host core count is recorded in the file so readers can interpret
the numbers.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import os
import pickle
import sys
import time
from pathlib import Path
from typing import Any, Dict, List, Optional, Sequence

from repro.bench_circuits import load_circuit
from repro.core.config import BistConfig
from repro.core.procedure2 import run_procedure2
from repro.faults.collapse import collapse_faults

#: Schema tag checked by the regression test; bump on layout changes.
SCHEMA = "bench-pool/v1"

#: (circuit, BistConfig kwargs) of the full benchmark grid.  The long
#: ``n_same_fc`` tail mirrors realistic Procedure 2 runs: most
#: iterations improve nothing, which is exactly where batched candidate
#: evaluation pays.
FULL_WORKLOADS = [
    ("s1423", dict(la=8, lb=16, n=32, n_same_fc=10, max_iterations=60)),
]

SMOKE_WORKLOADS = [
    ("s298", dict(la=4, lb=8, n=8, n_same_fc=4, max_iterations=20)),
]

#: Smoke rows report the *minimum* wall-clock over this many runs.  The
#: full grid runs each row once: at 15-120s per row, noise is irrelevant
#: and repeats would be expensive.
SMOKE_REPEATS = 2

#: (mode, n_jobs, candidate_batch) rows measured against each workload.
#: ``pool`` with ``n_jobs=1`` exercises the in-process batched pass.
FULL_GRID = [
    ("pool", 1, 10),
    ("pool", 2, 10),
    ("pool", 4, 10),
    ("pool", 4, 1),
]

SMOKE_GRID = [
    ("pool", 1, 8),
    ("pool", 2, 8),
]


def _canonical_blob(result: Any, reference_config: BistConfig) -> bytes:
    """The result's scientific payload, execution metadata removed.

    ``config`` differs across rows by construction (``n_jobs`` and
    ``candidate_batch`` are execution knobs) and ``degradation`` is
    explicitly execution metadata, so both are normalized before the
    byte comparison.
    """
    return pickle.dumps(
        dataclasses.replace(
            result, config=reference_config, degradation=None
        )
    )


def _timed_run(
    circuit: Any, config: BistConfig, faults: Sequence[Any], repeats: int = 1
):
    """Run Procedure 2 ``repeats`` times; report the minimum wall-clock.

    Every run computes the identical result (the whole point of the
    byte-identity contract), so the first result object stands for all
    of them and the minimum time is the least-noisy estimate.
    """
    result = None
    best = float("inf")
    for _ in range(max(1, repeats)):
        t0 = time.perf_counter()
        res = run_procedure2(circuit, config, faults)
        best = min(best, time.perf_counter() - t0)
        if result is None:
            result = res
    return result, best


def run_grid(smoke: bool) -> Dict[str, Any]:
    """Measure the grid and return the ``BENCH_pool.json`` payload."""
    workloads = SMOKE_WORKLOADS if smoke else FULL_WORKLOADS
    grid = SMOKE_GRID if smoke else FULL_GRID
    repeats = SMOKE_REPEATS if smoke else 1
    rows: List[Dict[str, Any]] = []
    for name, base in workloads:
        circuit = load_circuit(name)
        faults = collapse_faults(circuit)
        serial_cfg = BistConfig(**base)
        serial_res, serial_s = _timed_run(circuit, serial_cfg, faults, repeats)
        reference = _canonical_blob(serial_res, serial_cfg)
        rows.append(
            {
                "circuit": name,
                "mode": "serial",
                "n_jobs": 1,
                "candidate_batch": 1,
                "seconds": round(serial_s, 3),
                "speedup_vs_serial": 1.0,
                "identical_to_serial": True,
                "degraded": False,
            }
        )
        for mode, jobs, batch in grid:
            cfg = BistConfig(
                **base,
                n_jobs=jobs,
                candidate_batch=batch,
            )
            res, seconds = _timed_run(circuit, cfg, faults, repeats)
            degraded = bool(res.degradation and res.degradation.degraded)
            rows.append(
                {
                    "circuit": name,
                    "mode": mode,
                    "n_jobs": jobs,
                    "candidate_batch": batch,
                    "seconds": round(seconds, 3),
                    "speedup_vs_serial": round(serial_s / seconds, 3),
                    "identical_to_serial":
                        _canonical_blob(res, serial_cfg) == reference,
                    "degraded": degraded,
                }
            )
            print(
                f"{name} {mode} jobs={jobs} batch={batch}: "
                f"{seconds:.2f}s ({serial_s / seconds:.2f}x) "
                f"identical={rows[-1]['identical_to_serial']}",
                flush=True,
            )
    return {
        "schema": SCHEMA,
        "smoke": smoke,
        "host": {
            "cpu_count": os.cpu_count(),
            "python": ".".join(map(str, sys.version_info[:3])),
        },
        "workloads": {name: cfg for name, cfg in workloads},
        "results": rows,
    }


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--smoke", action="store_true",
        help="seconds-scale grid on a tiny circuit (CI entry point)",
    )
    parser.add_argument(
        "--out", type=Path, metavar="PATH",
        default=Path(__file__).resolve().parent.parent / "BENCH_pool.json",
        help="output JSON path (default: repo-root BENCH_pool.json)",
    )
    args = parser.parse_args(list(argv) if argv is not None else None)
    payload = run_grid(smoke=args.smoke)
    args.out.write_text(json.dumps(payload, indent=2) + "\n")
    print(f"wrote {args.out}")
    bad = [r for r in payload["results"] if not r["identical_to_serial"]]
    if bad:
        print(f"ERROR: {len(bad)} rows are not byte-identical to serial")
        return 1
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
