"""Bit-parallel logic simulation with functional scan.

- :mod:`repro.simulation.compiled` -- a circuit compiled into an
  evaluation plan of per-level ``(op, inverted)`` steps, run as vectorized
  numpy gathers and ufuncs over ``uint64`` words (every bit of a word is
  an independent machine copy),
- :mod:`repro.simulation.scan` -- functional scan-chain operations,
  including the paper's *limited scan* shift,
- :mod:`repro.simulation.sequential` -- fault-free simulation of
  ``(SI, T)`` tests with limited-scan schedules,
- :mod:`repro.simulation.trace` -- Table 1 / Table 2 style trace records.
"""

from repro.simulation.compiled import CompiledModel, Injections
from repro.simulation.scan import (
    bit_to_word,
    full_scan_state,
    limited_shift,
    word_to_bit,
)
from repro.simulation.sequential import simulate_test
from repro.simulation.trace import TestTrace, TimingRow

__all__ = [
    "CompiledModel",
    "Injections",
    "limited_shift",
    "full_scan_state",
    "bit_to_word",
    "word_to_bit",
    "simulate_test",
    "TestTrace",
    "TimingRow",
]
