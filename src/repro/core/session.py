"""High-level user API: run the full scheme on a circuit.

:class:`LimitedScanBist` owns the expensive per-circuit artifacts (fault
graph, collapsed fault list, detectability classification) and exposes:

- :meth:`run` -- Procedure 2 for one ``(L_A, L_B, N)``,
- :meth:`first_complete` -- the paper's Table 6 flow: try combinations in
  increasing ``Ncyc0`` order and report the first that achieves complete
  coverage of the detectable faults,
- :meth:`analyze` -- the static COP testability report (RPR faults,
  state-bit scan benefit) for the same circuit and cache.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, List, Optional, Sequence, Tuple

from repro.atpg.classify import Classification, classify_faults

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.circuit.cache import CompileCache
from repro.circuit.netlist import Circuit
from repro.core.config import BistConfig
from repro.core.metrics import format_optional, human_cycles
from repro.core.parameter_selection import ParameterCombo, enumerate_combinations
from repro.core.procedure2 import Procedure2Result, run_procedure2
from repro.faults.collapse import collapse_faults
from repro.faults.fault_sim import FaultSimulator, ObservationPolicy
from repro.faults.model import Fault, FaultGraph


@dataclass
class CircuitReport:
    """One row of the paper's Table 6 / Table 8."""

    circuit_name: str
    combo: ParameterCombo
    result: Procedure2Result
    combos_tried: int = 1

    def row(self) -> str:
        r = self.result
        ls = format_optional(r.ls_average)
        cycles_total = human_cycles(r.ncyc_total) if r.app else ""
        det_total = str(r.det_total) if r.app else ""
        return (
            f"{self.circuit_name:<8} {self.combo.label():<12} "
            f"{r.det_initial:<6} {human_cycles(r.ncyc0):<7} "
            f"{r.app:<4} {det_total:<6} {cycles_total:<7} {ls}"
        )


class LimitedScanBist:
    """Random limited-scan BIST for one circuit.

    The constructor is cheap; fault collapsing and detectability
    classification happen lazily and are cached for the session.
    """

    def __init__(
        self,
        circuit: Circuit,
        config: Optional[BistConfig] = None,
        target_faults: Optional[Sequence[Fault]] = None,
        classification_patterns: int = 2048,
        podem_backtrack_limit: int = 1000,
        cache: Optional["CompileCache"] = None,
    ) -> None:
        self.circuit = circuit
        self.config = config or BistConfig()
        self.cache = cache
        self.graph = FaultGraph(circuit, cache=cache)
        self.simulator = FaultSimulator(self.graph)
        self._explicit_targets = (
            list(target_faults) if target_faults is not None else None
        )
        self._classification: Optional[Classification] = None
        self._classification_patterns = classification_patterns
        self._podem_backtrack_limit = podem_backtrack_limit
        self._run_cache: dict = {}

    # ------------------------------------------------------------------
    @property
    def collapsed_faults(self) -> List[Fault]:
        return collapse_faults(self.circuit)

    @property
    def classification(self) -> Classification:
        if self._classification is None:
            self._classification = classify_faults(
                self.graph,
                random_patterns=self._classification_patterns,
                backtrack_limit=self._podem_backtrack_limit,
            )
        return self._classification

    @property
    def target_faults(self) -> List[Fault]:
        """The faults Procedure 2 must detect (detectable collapsed set)."""
        if self._explicit_targets is not None:
            return list(self._explicit_targets)
        return self.classification.target_faults

    def analyze(self, rpr_threshold: Optional[float] = None):
        """Static COP testability report for this session's circuit.

        Runs over the collapsed fault list and shares the session's
        compile cache, so repeated calls (and prior ``repro analyze``
        invocations with the same cache directory) hit the cached
        measures.  Returns a
        :class:`~repro.analysis.cop.TestabilityAnalysis`.
        """
        from repro.analysis.cop import DEFAULT_RPR_THRESHOLD, analyze_circuit

        return analyze_circuit(
            self.circuit,
            faults=self.collapsed_faults,
            rpr_threshold=(
                DEFAULT_RPR_THRESHOLD
                if rpr_threshold is None
                else rpr_threshold
            ),
            cache=self.cache,
        )

    # ------------------------------------------------------------------
    def run(
        self,
        la: Optional[int] = None,
        lb: Optional[int] = None,
        n: Optional[int] = None,
        config: Optional[BistConfig] = None,
        policy: Optional[ObservationPolicy] = None,
    ) -> Procedure2Result:
        """Procedure 2 for one parameter combination."""
        cfg = config or self.config
        if la is not None or lb is not None or n is not None:
            cfg = cfg.with_lengths(
                la if la is not None else cfg.la,
                lb if lb is not None else cfg.lb,
                n if n is not None else cfg.n,
            )
        # Procedure 2 is deterministic in (config, policy, targets); cache
        # results so Table 7/8 style experiments never recompute Table 6.
        key = (cfg, None if policy is None else repr(policy))
        if key not in self._run_cache:
            self._run_cache[key] = run_procedure2(
                self.circuit,
                cfg,
                self.target_faults,
                simulator=self.simulator,
                policy=policy,
            )
        return self._run_cache[key]

    def run_checkpointed(
        self,
        checkpoint,
        resume: bool = False,
        policy: Optional[ObservationPolicy] = None,
    ) -> Procedure2Result:
        """Procedure 2 with a crash-safe journal at ``checkpoint``.

        ``checkpoint`` is the journal's path.  With ``resume=True`` and
        an existing journal, the run continues from the journal's
        committed state and is byte-identical to an uninterrupted run;
        otherwise a fresh journal is written (an existing file is
        overwritten).  This is the session-level entry point the job
        service (:mod:`repro.serve`) drives, so every serving-side retry
        goes through exactly the code path the checkpoint test suite
        pins.
        """
        from pathlib import Path

        from repro.core.procedure2 import resume_procedure2, run_procedure2

        if resume and Path(checkpoint).exists():
            return resume_procedure2(
                self.circuit,
                self.config,
                self.target_faults,
                checkpoint,
                simulator=self.simulator,
                policy=policy,
            )
        return run_procedure2(
            self.circuit,
            self.config,
            self.target_faults,
            simulator=self.simulator,
            policy=policy,
            checkpoint=checkpoint,
        )

    def first_complete(
        self,
        combos: Optional[Sequence[ParameterCombo]] = None,
        max_combos: int = 10,
        policy: Optional[ObservationPolicy] = None,
    ) -> CircuitReport:
        """Table 6 flow: cheapest combination that reaches 100% coverage.

        If no tried combination is complete, the best-coverage result is
        returned with ``result.complete == False`` (never an exception:
        incompleteness is data, as in the paper's Tables 3/4 dashes).
        """
        if combos is None:
            combos = enumerate_combinations(self.circuit.num_state_vars)
        combos = list(combos)[:max_combos]
        if not combos:
            raise ValueError("no parameter combinations to try")
        best: Optional[Tuple[ParameterCombo, Procedure2Result]] = None
        for tried, combo in enumerate(combos, start=1):
            result = self.run(combo.la, combo.lb, combo.n, policy=policy)
            if result.complete:
                return CircuitReport(
                    circuit_name=self.circuit.name,
                    combo=combo,
                    result=result,
                    combos_tried=tried,
                )
            if best is None or result.det_total > best[1].det_total:
                best = (combo, result)
        combo, result = best
        return CircuitReport(
            circuit_name=self.circuit.name,
            combo=combo,
            result=result,
            combos_tried=len(combos),
        )
