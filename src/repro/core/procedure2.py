"""Procedure 2: greedy selection of ``(I, D1)`` pairs.

Starting from ``TS0``, iterate ``I = 1, 2, ...``; for each ``I`` try the
configured ``D1`` values in preference order, fault-simulate
``TS(I, D1)`` against the remaining target faults with dropping, and keep
the pair iff it detects something new.  Terminate at 100% coverage of the
target faults or after ``N_SAME_FC`` consecutive iterations of ``I``
without improvement (plus a hard ``max_iterations`` safety cap).

Long runs are crash-safe: pass a ``checkpoint`` journal path and every
iteration is journaled (selected pairs, detection records, the
``(iteration, n_same_fc)`` cursor); :func:`resume_procedure2` replays
the journal, re-derives ``TS(I, D1)`` deterministically, skips the
completed work, and produces a result byte-identical to an
uninterrupted run.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, field
from pathlib import Path
from typing import TYPE_CHECKING, Any, Dict, List, Optional, Sequence, Union

from repro.circuit.netlist import Circuit
from repro.core.config import BistConfig
from repro.core.cost import ncyc0 as ncyc0_formula
from repro.core.cost import total_cycles
from repro.core.test_set import generate_ts0, total_vectors
from repro.faults.fault_sim import (
    DetectionRecord,
    FaultSimulator,
    ObservationPolicy,
    ScanTest,
)
from repro.faults.model import Fault
from repro.faults.pool import CandidateEvaluator
from repro.faults.sharding import RecoveryPolicy

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.robustness.checkpoint import CheckpointWriter
    from repro.robustness.degradation import DegradationReport


@dataclass
class PairResult:
    """One selected ``(I, D1)`` pair and its contribution."""

    iteration: int
    d1: int
    newly_detected: int
    nsh: int  # limited-scan shift cycles of TS(I, D1)
    ls_time_units: int  # time units with shift > 0 (the n_ls numerator)
    total_time_units: int  # sum of test lengths (the n_ls denominator part)


@dataclass
class Procedure2Result:
    """Everything the paper reports per circuit, plus bookkeeping."""

    circuit_name: str
    config: BistConfig
    n_sv: int
    num_targets: int
    ts0_detected: int = 0
    pairs: List[PairResult] = field(default_factory=list)
    complete: bool = False
    iterations_run: int = 0
    remaining_faults: List[Fault] = field(default_factory=list)
    detections: Dict[Fault, DetectionRecord] = field(default_factory=dict)
    #: Worker-pool recovery actions of this run (execution metadata:
    #: populated only when a pooled run degraded, never serialized).
    degradation: Optional["DegradationReport"] = None
    #: Which candidate search order produced this run (``'uniform'`` or
    #: ``'testability'``).  Execution metadata like ``degradation``:
    #: recorded for provenance, excluded from serialized results and
    #: journal headers so uniform runs stay byte-identical across
    #: releases.
    candidate_bias: str = "uniform"

    # ---- the paper's reported metrics ---------------------------------
    @property
    def ncyc0(self) -> int:
        """Clock cycles for the initial test set (Table 6 'cycles')."""
        cfg = self.config
        return ncyc0_formula(self.n_sv, cfg.la, cfg.lb, cfg.n)

    @property
    def app(self) -> int:
        """Number of test sets applied with limited scan operations."""
        return len(self.pairs)

    @property
    def det_initial(self) -> int:
        return self.ts0_detected

    @property
    def det_total(self) -> int:
        return self.ts0_detected + sum(p.newly_detected for p in self.pairs)

    @property
    def ncyc_total(self) -> int:
        """Clock cycles for TS0 plus every selected ``TS(I, D1)``."""
        return total_cycles(self.ncyc0, [p.nsh for p in self.pairs])

    @property
    def ls_average(self) -> Optional[float]:
        """The paper's ``ls``: limited-scan time units per time unit,
        averaged over all selected test sets (``TS0`` excluded)."""
        denom = sum(p.total_time_units for p in self.pairs)
        if denom == 0:
            return None
        return sum(p.ls_time_units for p in self.pairs) / denom

    @property
    def fault_coverage(self) -> float:
        if self.num_targets == 0:
            return 1.0
        return self.det_total / self.num_targets

    def summary(self) -> str:
        ls = f"{self.ls_average:.2f}" if self.ls_average is not None else "-"
        return (
            f"{self.circuit_name}: initial {self.ts0_detected}/{self.num_targets}"
            f" ({self.ncyc0} cycles); +{self.app} limited-scan sets ->"
            f" {self.det_total}/{self.num_targets}"
            f" ({self.ncyc_total} cycles, ls={ls},"
            f" {'complete' if self.complete else 'INCOMPLETE'})"
        )


@dataclass
class _ResumeState:
    """Replayed journal state handed to the Procedure 2 loop."""

    result: Procedure2Result
    remaining: List[Fault]
    iteration: int
    n_same_fc: int
    ts0_done: bool


def _lint_gate(circuit: Circuit, config: BistConfig) -> None:
    if config.lint == "off":
        return
    from repro.analysis import LintError, lint_structural

    lint_report = lint_structural(circuit)
    if lint_report.has_errors:
        if config.lint == "error":
            raise LintError(lint_report)
        warnings.warn(
            f"circuit {circuit.name} has structural lint errors: "
            + "; ".join(i.message for i in lint_report.errors),
            RuntimeWarning,
            stacklevel=3,
        )


def _recovery_from_config(config: BistConfig) -> RecoveryPolicy:
    return RecoveryPolicy(
        shard_timeout=config.shard_timeout,
        max_retries=config.shard_retries,
        seed=config.base_seed,
    )


def _journal_header(
    circuit: Circuit,
    config: BistConfig,
    n_sv: int,
    target_faults: Sequence[Fault],
) -> Dict[str, Any]:
    from repro.robustness.checkpoint import JOURNAL_VERSION, fingerprint_faults

    return {
        "kind": "header",
        "version": JOURNAL_VERSION,
        "circuit": circuit.name,
        "config": config.to_dict(),
        "n_sv": n_sv,
        "num_targets": len(target_faults),
        "targets_sha256": fingerprint_faults(target_faults),
    }


def _detection_rows(
    hits: Dict[Fault, DetectionRecord], positions: Dict[Fault, int]
) -> List[List[Any]]:
    """Detection records as compact journal rows, in detection order."""
    return [
        [positions[f], rec.test_index, rec.time_unit, rec.where]
        for f, rec in hits.items()
    ]


def run_procedure2(
    circuit: Circuit,
    config: BistConfig,
    target_faults: Sequence[Fault],
    simulator: Optional[FaultSimulator] = None,
    policy: Optional[ObservationPolicy] = None,
    ts0: Optional[List[ScanTest]] = None,
    checkpoint: Optional[Union[str, Path]] = None,
) -> Procedure2Result:
    """Run Procedure 2 for ``circuit`` under ``config``.

    ``target_faults`` should be the *detectable* collapsed faults (from
    :func:`repro.atpg.classify_faults`); including undetectable faults
    simply makes 100% coverage unreachable, which is reported as an
    incomplete run, never an error.

    ``config.n_jobs`` shards the fault list across worker processes.
    With ``n_jobs > 1`` one :class:`~repro.faults.pool.PersistentWorkerPool`
    lives for the whole run: its workers inherit the compiled circuit and target faults when
    they fork, and each dispatch ships only shard indices plus pattern
    seeds.  A dispatch too small to pay for a worker round trip runs in
    the parent.  ``config.candidate_batch`` additionally scores that
    many candidate ``(I, D1)`` test sets per dispatch in one fanned-out
    pass.  Results are byte-identical to the serial run for any
    combination of these knobs; worker failures are recovered shard by
    shard and recorded on ``result.degradation``.

    ``config.candidate_bias == 'testability'`` reorders the D1 stream
    around the COP scan-benefit pivot before the loop starts (see
    :func:`repro.analysis.cop.testability_d1_order`); ``'uniform'``
    (default) walks ``d1_values`` as configured, byte-identical to
    releases without the knob.  The mode used is recorded on
    ``result.candidate_bias``.

    ``checkpoint`` (a journal path) journals every iteration so a
    killed run can be continued with :func:`resume_procedure2` --
    byte-identical to an uninterrupted run.  The journal at that path
    is overwritten.

    Per ``config.lint``, the circuit is design-rule checked before any
    simulation cycle is spent: a malformed netlist either raises
    :class:`repro.analysis.LintError` (``'error'``) or emits a
    ``RuntimeWarning`` and proceeds at your own risk (``'warn'``).
    """
    _lint_gate(circuit, config)
    target_faults = list(target_faults)
    simulator = simulator or FaultSimulator(circuit)
    writer = None
    if checkpoint is not None:
        from repro.robustness.checkpoint import CheckpointWriter

        writer = CheckpointWriter(
            checkpoint,
            header=_journal_header(
                circuit, config, simulator.chain_length, target_faults
            ),
        )
    return _run_procedure2_body(
        circuit, config, target_faults, simulator, policy, ts0, writer=writer
    )


def resume_procedure2(
    circuit: Circuit,
    config: BistConfig,
    target_faults: Sequence[Fault],
    checkpoint: Union[str, Path],
    simulator: Optional[FaultSimulator] = None,
    policy: Optional[ObservationPolicy] = None,
    ts0: Optional[List[ScanTest]] = None,
) -> Procedure2Result:
    """Continue a checkpointed Procedure 2 run from its journal.

    The journal's committed state (TS0 detections, selected pairs,
    cursor) is replayed without any simulation; the loop then continues
    exactly where the interrupted run left off, appending to the same
    journal.  The returned result -- including a finished journal, which
    returns immediately -- is byte-identical (via
    :mod:`repro.experiments.serialize`) to an uninterrupted run of the
    same ``(circuit, config, target_faults)``.

    Raises :class:`~repro.robustness.checkpoint.CheckpointError` if the
    journal is missing or unreadable, and
    :class:`~repro.robustness.checkpoint.CheckpointMismatchError` if it
    was written for a different circuit, config, or target-fault list.
    ``config.n_jobs`` is not part of the journal header, so it may
    freely differ from the original run.
    """
    from repro.robustness import journal
    from repro.robustness.checkpoint import (
        CheckpointMismatchError,
        CheckpointWriter,
        fingerprint_faults,
        load_checkpoint,
    )

    state = load_checkpoint(checkpoint)
    target_faults = list(target_faults)
    header = state.header
    mismatches = []
    if header.get("circuit") != circuit.name:
        mismatches.append(
            f"circuit {header.get('circuit')!r} != {circuit.name!r}"
        )
    if header.get("config") != config.to_dict():
        mismatches.append("config differs")
    if header.get("num_targets") != len(target_faults):
        mismatches.append(
            f"{header.get('num_targets')} target faults != {len(target_faults)}"
        )
    elif header.get("targets_sha256") != fingerprint_faults(target_faults):
        mismatches.append("target-fault fingerprint differs")
    if mismatches:
        raise CheckpointMismatchError(
            f"journal {checkpoint} does not match this run: "
            + "; ".join(mismatches)
        )

    # ---- replay the committed journal ---------------------------------
    result = Procedure2Result(
        circuit_name=circuit.name,
        config=config,
        n_sv=header["n_sv"],
        num_targets=len(target_faults),
        candidate_bias=config.candidate_bias,
    )
    detected: set = set()
    for idx, test_index, time_unit, where in state.detected_rows:
        fault = target_faults[idx]
        result.detections[fault] = DetectionRecord(
            fault=fault, test_index=test_index, time_unit=time_unit, where=where
        )
        detected.add(idx)
    if state.ts0 is not None:
        result.ts0_detected = len(state.ts0["detected"])
    result.pairs = [
        PairResult(
            iteration=p["iteration"],
            d1=p["d1"],
            newly_detected=p["newly_detected"],
            nsh=p["nsh"],
            ls_time_units=p["ls_time_units"],
            total_time_units=p["total_time_units"],
        )
        for p in state.pairs
    ]
    remaining = [
        f for i, f in enumerate(target_faults) if i not in detected
    ]
    iteration, n_same_fc = state.cursor

    if state.final is not None:
        result.complete = state.final["complete"]
        result.iterations_run = state.final["iterations_run"]
        result.remaining_faults = remaining
        return result

    # ---- continue the run ---------------------------------------------
    simulator = simulator or FaultSimulator(circuit)
    if simulator.chain_length != header["n_sv"]:
        raise CheckpointMismatchError(
            f"journal n_sv {header['n_sv']} != simulator chain length "
            f"{simulator.chain_length}"
        )
    start = _ResumeState(
        result=result,
        remaining=remaining,
        iteration=iteration,
        n_same_fc=n_same_fc,
        ts0_done=state.ts0 is not None,
    )
    # Appending behind a torn tail would strand every later commit,
    # final record included, where no reader can reach it.
    journal.heal(checkpoint, state.committed_bytes)
    return _run_procedure2_body(
        circuit,
        config,
        target_faults,
        simulator,
        policy,
        ts0,
        writer=CheckpointWriter(checkpoint),  # append to the healed journal
        start=start,
    )


def _run_procedure2_body(
    circuit: Circuit,
    config: BistConfig,
    target_faults: Sequence[Fault],
    simulator: FaultSimulator,
    policy: Optional[ObservationPolicy],
    ts0: Optional[List[ScanTest]],
    writer: Optional["CheckpointWriter"] = None,
    start: Optional[_ResumeState] = None,
) -> Procedure2Result:
    ts0 = ts0 if ts0 is not None else generate_ts0(circuit, config)
    d1_values = tuple(config.d1_values)
    if config.candidate_bias == "testability":
        from repro.analysis.cop import testability_d1_order

        # Deterministic function of (circuit, d1_values, targets), so a
        # resumed run re-derives the identical candidate order without
        # journaling it.
        d1_values = testability_d1_order(
            circuit, d1_values, target_faults=target_faults
        )
    # Under partial scan the chain length plays the role of N_SV in both
    # the cost model and Procedure 1's D2; under full scan they coincide.
    n_sv = simulator.chain_length
    positions = (
        {f: i for i, f in enumerate(target_faults)} if writer else None
    )
    evaluator = CandidateEvaluator(
        simulator,
        ts0,
        config,
        n_sv,
        policy,
        n_jobs=config.n_jobs,
        targets=target_faults,
        recovery=_recovery_from_config(config),
    )
    try:
        return _procedure2_loop(
            circuit, config, target_faults, evaluator, positions,
            writer=writer, start=start, d1_values=d1_values,
        )
    finally:
        evaluator.close()


def _procedure2_loop(
    circuit: Circuit,
    config: BistConfig,
    target_faults: Sequence[Fault],
    evaluator: CandidateEvaluator,
    positions: Optional[Dict[Fault, int]],
    writer: Optional["CheckpointWriter"] = None,
    start: Optional[_ResumeState] = None,
    d1_values: Optional[Sequence[int]] = None,
) -> Procedure2Result:
    # The D1 preference order for the candidate stream: config order for
    # uniform search, or the testability-pivoted reordering computed by
    # the body.  Selection semantics are order-agnostic -- every D1 that
    # detects something new is kept either way -- but trying effective
    # depths first absorbs faults early and stores fewer pairs.
    d1_values = tuple(d1_values if d1_values is not None else config.d1_values)
    def finish(res: Procedure2Result) -> Procedure2Result:
        if evaluator.degradation.degraded:
            res.degradation = evaluator.degradation
        return res

    if start is not None and start.ts0_done:
        result = start.result
        remaining = start.remaining
        iteration = start.iteration
        n_same_fc = start.n_same_fc
        if not remaining:
            # Journaled to 100% coverage but killed before the final
            # record: only the bookkeeping is left to redo.
            result.complete = True
            result.iterations_run = iteration
            if writer:
                writer.write_final(True, iteration)
            return finish(result)
    else:
        result = Procedure2Result(
            circuit_name=circuit.name,
            config=config,
            n_sv=evaluator.n_sv,
            num_targets=len(target_faults),
            candidate_bias=config.candidate_bias,
        )
        remaining = list(target_faults)
        ts0_hits = evaluator.evaluate_ts0(remaining).hits_for(remaining)
        result.detections.update(ts0_hits)
        result.ts0_detected = len(ts0_hits)
        remaining = [f for f in remaining if f not in ts0_hits]
        if writer:
            writer.write_ts0(_detection_rows(ts0_hits, positions))
        if not remaining:
            result.complete = True
            if writer:
                writer.write_final(True, 0)
            return finish(result)
        iteration = 0
        n_same_fc = 0

    # The candidate sequence (I = iteration+1.., each with every D1 in
    # preference order) is fully deterministic; only the stop point
    # depends on results.  The loop therefore streams it in windows of
    # up to evaluator.batch candidates, scoring each window against the
    # remaining list as of its dispatch.  Each candidate's exact hits
    # against its *then-current* remaining list (shrunk by earlier
    # candidates) are reconstructed from the dispatch rows, so any
    # window partition yields byte-identical results; at worst the tail
    # window past the stop point is wasted work.  Window sizing is
    # adaptive: while the run is still improving (n_same_fc == 0) the
    # remaining list shrinks fast, so windows stop at the iteration
    # boundary to avoid scoring future candidates against a stale,
    # larger fault list; once the run plateaus the list is static,
    # cross-iteration speculation is free, and windows widen to the
    # full batch.
    all_specs = [
        (it, d1)
        for it in range(iteration + 1, config.max_iterations + 1)
        for d1 in d1_values
    ]
    pos = 0  # next spec to dispatch; specs are consumed in list order
    n_d1 = len(d1_values)
    prefetched: Dict[Any, Any] = {}
    while n_same_fc < config.n_same_fc and iteration < config.max_iterations:
        iteration += 1
        improved = False
        journal_pairs: List[Dict[str, Any]] = []
        for k, d1 in enumerate(d1_values):
            table = prefetched.pop((iteration, d1), None)
            if table is None:
                # Everything before (iteration, d1) is consumed, so pos
                # points exactly at it.
                width = evaluator.batch
                if n_same_fc == 0:
                    width = min(width, n_d1 - k)
                specs = all_specs[pos : pos + width]
                pos += len(specs)
                tables = evaluator.evaluate_specs(specs, remaining)
                prefetched.update(zip(specs[1:], tables[1:]))
                table = tables[0]
            hits = table.hits_for(remaining)
            if hits:
                ts = table.tests
                result.detections.update(hits)
                pair = PairResult(
                    iteration=iteration,
                    d1=d1,
                    newly_detected=len(hits),
                    nsh=sum(t.total_shift_cycles for t in ts),
                    ls_time_units=sum(t.num_limited_scans for t in ts),
                    total_time_units=total_vectors(ts),
                )
                result.pairs.append(pair)
                if writer:
                    journal_pairs.append(
                        {
                            "iteration": pair.iteration,
                            "d1": pair.d1,
                            "newly_detected": pair.newly_detected,
                            "nsh": pair.nsh,
                            "ls_time_units": pair.ls_time_units,
                            "total_time_units": pair.total_time_units,
                            "detected": _detection_rows(hits, positions),
                        }
                    )
                remaining = [f for f in remaining if f not in hits]
                improved = True
            if not remaining:
                break
        n_same_fc_next = 0 if improved else n_same_fc + 1
        if writer:
            # One transaction per iteration: the pairs and the cursor land
            # in a single fsync'd append, so a crash can never journal a
            # half-iteration.
            writer.commit_iteration(iteration, n_same_fc_next, journal_pairs)
        if not remaining:
            break
        n_same_fc = n_same_fc_next

    result.iterations_run = iteration
    result.remaining_faults = remaining
    result.complete = not remaining
    if writer:
        writer.write_final(result.complete, iteration)
    return finish(result)
