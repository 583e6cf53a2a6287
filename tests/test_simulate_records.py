"""Pinned records of the per-test loop, for both fault models.

:meth:`FaultSimulator.simulate` and :meth:`TransitionFaultSimulator.simulate`
run one per-test loop.  Their exact ordered records -- which faults, and
for each the test, time unit and observation point, in insertion order --
are pinned here as digests, together with the published transition-fault
results in ``results/``.
"""

from __future__ import annotations

import hashlib
from pathlib import Path

import pytest

from repro.bench_circuits import load_circuit
from repro.core.config import BistConfig
from repro.core.limited_scan import build_limited_scan_test_set
from repro.core.test_set import generate_ts0
from repro.faults.fault_sim import FaultSimulator, ObservationPolicy
from repro.faults.model import generate_faults
from repro.faults.transition import (
    TransitionFaultSimulator,
    generate_transition_faults,
)

RESULTS = Path(__file__).resolve().parent.parent / "results"

CONFIGS = {
    "s27": BistConfig(la=4, lb=8, n=8),
    "s208": BistConfig(la=8, lb=16, n=8),
}

POLICIES = {
    "default": ObservationPolicy(),
    "no-po": ObservationPolicy(primary_outputs=False),
    "no-scan-out": ObservationPolicy(limited_scan_out=False, final_scan_out=False),
}

#: ``records_digest`` of each case, keyed ``(circuit, test set, policy,
#: fault model)``; TS(2,3) is Procedure 1's test set for I = 2, D1 = 3.
DIGESTS = {
    ("s27", "TS0", "default", "stuck-at"): "00cdcd0d31382522",
    ("s27", "TS0", "default", "transition"): "9607d3f8109f92a4",
    ("s27", "TS0", "no-po", "stuck-at"): "bff579d53d189b73",
    ("s27", "TS0", "no-po", "transition"): "6786ed5d03f5838e",
    ("s27", "TS0", "no-scan-out", "stuck-at"): "713ecdfb4c477f97",
    ("s27", "TS0", "no-scan-out", "transition"): "fbab1ea2b9afa6bf",
    ("s27", "TS(2,3)", "default", "stuck-at"): "8a2eb7b625c5f5a9",
    ("s27", "TS(2,3)", "default", "transition"): "4fb9c27a78ca8cdb",
    ("s27", "TS(2,3)", "no-po", "stuck-at"): "c9a77c133e1f5b56",
    ("s27", "TS(2,3)", "no-po", "transition"): "06244a4a84814093",
    ("s27", "TS(2,3)", "no-scan-out", "stuck-at"): "713ecdfb4c477f97",
    ("s27", "TS(2,3)", "no-scan-out", "transition"): "fa7a72c213f6e377",
    ("s208", "TS0", "default", "stuck-at"): "f80cc9979f7dcaef",
    ("s208", "TS0", "default", "transition"): "94269b0a0e193499",
    ("s208", "TS0", "no-po", "stuck-at"): "c1653951fad900c0",
    ("s208", "TS0", "no-po", "transition"): "2246b49277c78563",
    ("s208", "TS0", "no-scan-out", "stuck-at"): "c36728489bd81d7b",
    ("s208", "TS0", "no-scan-out", "transition"): "2ed61d72866db54c",
    ("s208", "TS(2,3)", "default", "stuck-at"): "76a0568157f33d3e",
    ("s208", "TS(2,3)", "default", "transition"): "8f8afa5376f4d204",
    ("s208", "TS(2,3)", "no-po", "stuck-at"): "283bf73e3041e335",
    ("s208", "TS(2,3)", "no-po", "transition"): "b6d14a1d136fad8d",
    ("s208", "TS(2,3)", "no-scan-out", "stuck-at"): "fd1ec97cf3271e88",
    ("s208", "TS(2,3)", "no-scan-out", "transition"): "3b7dfb7acaf12c16",
}


def records_digest(records) -> str:
    """SHA-256 prefix of ``records`` in insertion order."""
    h = hashlib.sha256()
    for fault, rec in records.items():
        assert rec.fault is fault
        h.update(f"{fault}|{rec.test_index}|{rec.time_unit}|{rec.where}\n".encode())
    return h.hexdigest()[:16]


def case_records(name: str, test_set: str, policy: str, model: str):
    """The records of one :data:`DIGESTS` case."""
    circuit = load_circuit(name)
    cfg = CONFIGS[name]
    tests = generate_ts0(circuit, cfg)
    if test_set != "TS0":
        tests = build_limited_scan_test_set(
            tests, 2, 3, cfg, circuit.num_state_vars
        )
    if model == "stuck-at":
        sim = FaultSimulator(circuit)
        faults = generate_faults(circuit)
    else:
        sim = TransitionFaultSimulator(circuit)
        faults = generate_transition_faults(circuit)
    return sim.simulate(tests, faults, POLICIES[policy])


@pytest.mark.parametrize("case", sorted(DIGESTS), ids="-".join)
def test_records_pinned(case):
    assert records_digest(case_records(*case)) == DIGESTS[case]


@pytest.mark.slow
def test_published_transition_results():
    from repro.experiments import ablations

    published = (RESULTS / "transition_faults.txt").read_text().splitlines()
    assert ablations.transition_fault_experiment("s298") == published[0]

    circuit = load_circuit("s298")
    faults = generate_transition_faults(circuit)
    tests = generate_ts0(circuit, BistConfig(la=8, lb=16, n=16))
    detected = TransitionFaultSimulator(circuit).simulate(tests, faults)
    published = (RESULTS / "transition_s298.txt").read_text().splitlines()
    assert published[0] == (
        f"s298: {len(detected)}/{len(faults)} transition faults detected "
        "by TS0 (LA=8, LB=16, N=16)"
    )
