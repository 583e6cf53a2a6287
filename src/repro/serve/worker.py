"""The job worker: what actually runs inside the sandboxed child.

One job = one forked child (see :mod:`repro.fuzz.sandbox`) so a runaway
simulation can be killed, memory-capped, and retried without taking the
service down.  The child re-parses the spooled netlist through the
hardened parser (defense in depth -- the server already validated it),
builds the session, and drives Procedure 2 through
:meth:`~repro.core.session.LimitedScanBist.run_checkpointed`, so every
iteration is committed to the job's checkpoint journal before the next
begins.  A retried or resumed attempt passes ``resume=True`` and
continues from the committed state, byte-identical to an uninterrupted
run -- the property the whole serving layer's crash story rests on.

Everything the child runs is imported here, at module level, and the
server imports this module at startup (through
:mod:`repro.serve.budgets`).  A fork shares its parent's loaded
modules, so each job child starts with the whole job path already in
memory instead of importing it again: a module first loaded inside the
child is paid for once per job, not once per server.
``tests/test_serve_warm_fork.py`` holds the job path to that.

:func:`partial_result_from_checkpoint` is the degradation path: when a
job exhausts its budgets, the parent reconstructs the coverage achieved
so far purely from the journal's committed transactions -- no
simulation, no fault list -- and serves that as an honest partial
result instead of a bare failure.
"""

from __future__ import annotations

from pathlib import Path
from typing import Any, Dict, Optional

from repro.circuit.bench_parser import parse_bench
from repro.circuit.cache import CompileCache
from repro.core.config import BistConfig
from repro.core.session import LimitedScanBist
from repro.experiments.serialize import result_to_dict
from repro.faults.collapse import collapse_faults
from repro.robustness.chaos import ServeChaosPlan, install_commit_bomb
from repro.robustness.checkpoint import (
    CheckpointError,
    load_checkpoint,
    session_fingerprint,
)


def job_child_main(payload: Dict[str, Any]) -> Dict[str, Any]:
    """Run one characterization job; returns a plain-dict verdict.

    ``payload`` keys: ``bench_path`` (spooled canonical netlist),
    ``circuit_name``, ``config`` (result-affecting dict), ``targets``
    (``collapsed``/``detectable``), ``checkpoint`` (journal path),
    ``resume`` (bool), ``cache_dir`` (optional compile cache),
    ``chaos`` (optional :class:`ServeChaosPlan` dict).
    Runs in a forked child of the server, which has already loaded
    every module this function reaches.
    """
    chaos = ServeChaosPlan.from_dict(payload.get("chaos"))
    if chaos.active:
        install_commit_bomb(chaos.die_after_commits, chaos.commit_delay_s)

    circuit = parse_bench(
        Path(payload["bench_path"]).read_text("utf-8"),
        name=payload.get("circuit_name", "bench"),
    )
    config = BistConfig.from_dict(payload["config"])
    cache_dir = payload.get("cache_dir")
    cache = CompileCache(cache_dir) if cache_dir else None
    targets = (
        collapse_faults(circuit)
        if payload.get("targets", "collapsed") == "collapsed"
        else None
    )
    bist = LimitedScanBist(
        circuit, config=config, target_faults=targets, cache=cache
    )
    result = bist.run_checkpointed(
        payload["checkpoint"], resume=bool(payload.get("resume"))
    )
    return {
        "result": result_to_dict(result),
        "session_fingerprint": session_fingerprint(
            circuit.name, config, bist.target_faults
        ),
        "complete": result.complete,
    }


def partial_result_from_checkpoint(path: Any) -> Optional[Dict[str, Any]]:
    """Committed coverage of an unfinished job, from its journal alone.

    Returns a result-shaped dict with ``"partial": True`` (pairs,
    iteration cursor, detection counts -- everything the journal's
    committed transactions prove), or None when the journal is absent
    or empty, in which case the job has nothing honest to report.
    """
    try:
        state = load_checkpoint(path)
    except CheckpointError:
        return None
    header = state.header
    ts0_detected = (
        len(state.ts0["detected"]) if state.ts0 is not None else 0
    )
    detected_total = ts0_detected + sum(
        p["newly_detected"] for p in state.pairs
    )
    num_targets = header.get("num_targets", 0)
    return {
        "partial": True,
        "circuit": header.get("circuit"),
        "config": header.get("config"),
        "n_sv": header.get("n_sv"),
        "num_targets": num_targets,
        "ts0_detected": ts0_detected,
        "complete": False,
        "iterations_run": state.cursor[0],
        "pairs": [
            {
                "iteration": p["iteration"],
                "d1": p["d1"],
                "newly_detected": p["newly_detected"],
                "nsh": p["nsh"],
                "ls_time_units": p["ls_time_units"],
                "total_time_units": p["total_time_units"],
            }
            for p in state.pairs
        ],
        "metrics": {
            "det_total": detected_total,
            "fault_coverage": (
                detected_total / num_targets if num_targets else 1.0
            ),
        },
    }
