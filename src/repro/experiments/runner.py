"""Run every experiment and write the outputs to a results directory.

Usage::

    python -m repro.experiments.runner [--full] [--out results/]
                                       [--jobs N] [--resume]

``--full`` runs the paper-scale grids and circuit lists (minutes to
hours); the default finishes in a few minutes on a laptop.  ``--jobs N``
shards fault simulation across ``N`` persistent-pool worker processes
(``-1`` = all cores); every reported number is identical for any value.

The batch is crash-safe: every section's output is written atomically
as soon as it finishes, and per-section completion is recorded in
``manifest.json``.  ``--resume`` skips sections the manifest marks
complete (failed sections are always re-run), so a killed ``--full``
batch continues instead of recomputing finished tables.

Section failures never kill the batch; they are reported inline
(``FAILED: ...``), recorded as structured entries (exception type,
message, traceback, elapsed seconds) in a machine-readable
``failures.json``, and make the runner exit nonzero.

``SIGTERM`` and ``SIGINT`` are handled gracefully: the in-flight
section runs to completion and is recorded like any other, the
manifest and combined outputs are written atomically, and the runner
exits with :data:`EXIT_INTERRUPTED` (75) so a supervisor can tell "told
to stop, state consistent, safe to ``--resume``" apart from both
success (0) and section failures (1).  A second signal falls back to
the default disposition, so a wedged section can still be killed.

Every batch starts with a design-rule lint preflight over the circuits
it will simulate (see :mod:`repro.analysis`); a circuit with structural
errors aborts the run before any simulation time is spent.
"""

from __future__ import annotations

import argparse
import json
import signal
import sys
import time
import traceback
from pathlib import Path
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

from repro.experiments import ablations, table1, table3, table4, table5, table6, table7, table8
from repro.experiments.common import (
    set_default_candidate_batch,
    set_default_candidate_bias,
    set_default_n_jobs,
)
from repro.experiments.report import canonical_result_name
from repro.robustness.atomic import atomic_write_json, atomic_write_text

#: Schema version of ``manifest.json``.
MANIFEST_VERSION = 1

#: Exit status after a graceful SIGTERM/SIGINT stop (``EX_TEMPFAIL``:
#: nothing is corrupt, rerunning with ``--resume`` continues the batch).
EXIT_INTERRUPTED = 75


class _GracefulStop:
    """Defers SIGTERM/SIGINT to the next section boundary.

    The first signal only sets a flag -- the in-flight section finishes
    and its output is committed -- and restores the previous handler, so
    a second signal behaves normally (i.e. kills a wedged section).
    Installation is skipped outside the main thread, where CPython
    forbids ``signal.signal``.
    """

    def __init__(self) -> None:
        self.signum: Optional[int] = None
        self._previous: Dict[int, Any] = {}

    def _handle(self, signum: int, _frame: Any) -> None:
        self.signum = signum
        self.restore()

    def install(self) -> None:
        for signum in (signal.SIGTERM, signal.SIGINT):
            try:
                self._previous[signum] = signal.signal(signum, self._handle)
            except ValueError:  # not the main thread
                self._previous.pop(signum, None)
                return

    def restore(self) -> None:
        for signum, handler in self._previous.items():
            try:
                signal.signal(signum, handler)
            except ValueError:  # pragma: no cover - not the main thread
                pass
        self._previous = {}

    @property
    def stopped(self) -> bool:
        return self.signum is not None


def lint_preflight(circuit_names: Sequence[str]) -> str:
    """Design-rule gate over the circuits an experiment batch will use.

    Malformed or pathological inputs are rejected here, before any
    hours-long fault-simulation run: raises
    :class:`repro.analysis.LintError` on the first circuit with
    ERROR-severity findings.  Returns a per-circuit summary otherwise.
    """
    from repro.analysis import CATALOG_SUPPRESSIONS, LintError, LintOptions, lint_circuit
    from repro.bench_circuits import load_circuit

    lines = []
    for name in circuit_names:
        options = LintOptions(suppress=CATALOG_SUPPRESSIONS.get(name, ()))
        report = lint_circuit(load_circuit(name), options)
        if report.has_errors:
            raise LintError(report)
        status = "warn" if report.warnings else "ok"
        lines.append(f"{name:<8} {status:<5} {report.counts_line()}")
    return "\n".join(lines)


def _section_specs(
    full: bool, out_dir: Path
) -> List[Tuple[str, Callable[[], str]]]:
    """Every experiment section, in run order, as ``(name, thunk)``."""
    circuits6 = table6.PAPER_CIRCUITS if full else table6.DEFAULT_CIRCUITS

    def run_table6() -> str:
        result = table6.run(circuits6)
        # Machine-readable copy alongside the text table.
        from repro.experiments.serialize import save_reports

        save_reports(list(result.reports.values()), out_dir / "table6.json")
        return result.render()

    return [
        ("table1", lambda: table1.run().render()),
        ("table3", lambda: table3.run(full=full).render()),
        ("table4", lambda: table4.run(full=full).render()),
        ("table5", lambda: table5.run().render()),
        ("table6", run_table6),
        ("table7", lambda: table7.run(circuits6).render()),
        ("table8", lambda: table8.run().render()),
        (
            "ablation-observation",
            lambda: ablations.render_rows(
                ablations.observation_ablation(),
                "Observation-policy ablation (s208)",
            ),
        ),
        (
            "ablation-full-scan-cost",
            lambda: "\n".join(r.summary() for r in ablations.full_scan_cost()),
        ),
        (
            "baselines",
            lambda: "\n".join(
                r.summary() for r in ablations.baseline_comparison()
            ),
        ),
        (
            "ablation-reseed",
            lambda: "\n".join(
                f"{k}: {v.summary()}"
                for k, v in ablations.reseed_ablation().items()
            ),
        ),
        (
            "ablation-d2",
            lambda: "\n".join(
                f"{k}: {v.summary()}" for k, v in ablations.d2_sweep().items()
            ),
        ),
        ("partial-scan", lambda: ablations.partial_scan_experiment().summary()),
        ("compaction", ablations.compaction_experiment),
        ("transition-faults", ablations.transition_fault_experiment),
        ("misr-validation", ablations.misr_validation),
        ("run-lengths", ablations.run_length_report),
        ("tat-reduction", ablations.tat_reduction_experiment),
        ("alternatives", lambda: "\n".join(ablations.alternatives_comparison())),
    ]


def _load_manifest(path: Path, full: bool) -> Dict[str, Any]:
    """The completed-section map of a previous run, or ``{}``.

    A manifest from a different schema version or a different ``--full``
    setting (the section workloads differ) is ignored wholesale, as is
    an unreadable file -- resume is best-effort, never an error source.
    """
    if not path.exists():
        return {}
    try:
        manifest = json.loads(path.read_text())
    except (json.JSONDecodeError, OSError):
        return {}
    if (
        not isinstance(manifest, dict)
        or manifest.get("version") != MANIFEST_VERSION
        or manifest.get("full") != full
    ):
        return {}
    sections = manifest.get("sections")
    return sections if isinstance(sections, dict) else {}


def build_arg_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro.experiments.runner",
        description="Run every experiment and write results atomically.",
    )
    parser.add_argument(
        "--full", action="store_true",
        help="paper-scale grids and circuit lists (minutes to hours)",
    )
    parser.add_argument(
        "--out", type=Path, default=Path("results"), metavar="DIR",
        help="results directory (default: results/)",
    )
    parser.add_argument(
        "--jobs", type=int, default=1, metavar="N",
        help="fault-simulation worker processes (1 = serial, -1 = all "
             "cores); results are identical for any value",
    )
    parser.add_argument(
        "--candidate-batch", type=int, default=1, metavar="N",
        dest="candidate_batch",
        help="candidate test sets evaluated per simulation pass; "
             "results are identical for any value",
    )
    parser.add_argument(
        "--candidate-bias", choices=("uniform", "testability"),
        default="uniform", dest="candidate_bias",
        help="Procedure 2 candidate search order; 'testability' biases "
             "the D1 stream by COP scan benefit (changes which pairs "
             "are stored; recorded in the manifest)",
    )
    parser.add_argument(
        "--resume", action="store_true",
        help="skip sections already completed per DIR/manifest.json "
             "(failed sections are re-run)",
    )
    parser.add_argument(
        "--sections", default=None, metavar="NAMES",
        help="comma-separated section names to run (default: all); "
             "unknown names are an error",
    )
    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    args = build_arg_parser().parse_args(
        list(argv) if argv is not None else None
    )
    set_default_n_jobs(args.jobs)
    set_default_candidate_batch(args.candidate_batch)
    set_default_candidate_bias(args.candidate_bias)
    out_dir: Path = args.out
    out_dir.mkdir(parents=True, exist_ok=True)
    manifest_path = out_dir / "manifest.json"
    previous = _load_manifest(manifest_path, args.full) if args.resume else {}

    specs = _section_specs(args.full, out_dir)
    if args.sections is not None:
        wanted = [s for s in args.sections.split(",") if s]
        known = {name for name, _ in specs}
        unknown = [s for s in wanted if s not in known]
        if unknown:
            print(
                f"unknown section(s): {', '.join(unknown)}; "
                f"available: {', '.join(name for name, _ in specs)}",
                file=sys.stderr,
            )
            return 2
        specs = [(name, fn) for name, fn in specs if name in wanted]

    circuits = table6.PAPER_CIRCUITS if args.full else table6.DEFAULT_CIRCUITS
    print("=== lint preflight")
    print(lint_preflight(circuits))

    sections: List[Tuple[str, str]] = []
    failures: List[Dict[str, Any]] = []
    completed: Dict[str, Any] = {}
    stop = _GracefulStop()
    stop.install()

    def save_manifest() -> None:
        atomic_write_json(
            manifest_path,
            {
                "version": MANIFEST_VERSION,
                "full": args.full,
                # Provenance: which candidate search order produced these
                # results.  Not part of the resume-compatibility check --
                # sections themselves record complete results -- but a
                # reader of the manifest can tell biased runs apart.
                "candidate_bias": args.candidate_bias,
                "sections": completed,
            },
        )

    for name, fn in specs:
        if stop.stopped:
            break
        section_path = out_dir / f"{canonical_result_name(name)}.txt"
        cached = previous.get(name)
        if (
            cached
            and cached.get("status") == "ok"
            and section_path.exists()
        ):
            text = section_path.read_text().rstrip("\n")
            sections.append((name, text))
            completed[name] = cached
            save_manifest()
            print(f"=== {name} (resumed, previously "
                  f"{cached.get('elapsed', 0):.1f}s)")
            continue

        # perf_counter: monotonic, immune to wall-clock adjustments.
        t0 = time.perf_counter()
        status = "ok"
        try:
            text = fn()
        except Exception as exc:  # experiments must not kill the batch
            status = "failed"
            text = f"FAILED: {exc!r}"
            failures.append(
                {
                    "section": name,
                    "exception_type": type(exc).__name__,
                    "message": str(exc),
                    "traceback": traceback.format_exc(),
                    "elapsed": round(time.perf_counter() - t0, 3),
                }
            )
        elapsed = time.perf_counter() - t0
        text = text + f"\n[{elapsed:.1f}s]"
        atomic_write_text(section_path, text + "\n")
        sections.append((name, text))
        completed[name] = {"status": status, "elapsed": round(elapsed, 3)}
        save_manifest()
        print(f"=== {name} ({elapsed:.1f}s)"
              + (" FAILED" if status == "failed" else ""))

    stop.restore()
    combined = "\n\n".join(f"## {name}\n\n{text}" for name, text in sections)
    atomic_write_text(out_dir / "all_experiments.txt", combined + "\n")
    atomic_write_json(out_dir / "failures.json", failures)
    print(f"\nwrote {len(sections)} sections to {out_dir}/")
    if failures:
        names = ", ".join(f["section"] for f in failures)
        print(f"{len(failures)} section(s) failed: {names}", file=sys.stderr)
    if stop.stopped:
        # Interrupt wins over failure exits: the batch is incomplete by
        # request, every committed section is consistent, and --resume
        # will finish (and re-run any failed) sections.
        signame = signal.Signals(stop.signum).name
        print(
            f"stopped by {signame} after the in-flight section; "
            f"resume with --resume",
            file=sys.stderr,
        )
        return EXIT_INTERRUPTED
    return 1 if failures else 0


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main(sys.argv[1:]))
