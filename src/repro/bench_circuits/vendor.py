"""Vendored real benchmark netlists.

The catalog's large tier names the full-size ISCAS-89 circuits.  When a
genuine ``.bench`` netlist is available it is used; otherwise the
deterministic synthetic stand-in is generated to the published interface
statistics.  Either way the netlist enters the system through the
hardened ``.bench`` parser (:mod:`repro.circuit.bench_parser`, the E001+
trust boundary): real files are parsed from disk, and synthetic
stand-ins are round-tripped through ``write_bench`` -> ``parse_bench``
so a 22k-gate catalog load exercises exactly the ingestion path a user
netlist would.

Search order for a real netlist named ``s13207``:

1. ``$REPRO_BENCH_DIR/s13207.bench`` -- a user- or CI-provisioned
   directory of benchmark files;
2. ``repro/bench_circuits/vendored/s13207.bench`` -- files committed to
   the package itself.

A real netlist is validated against the catalog's published PI/PO/FF
counts via :func:`repro.circuit.stats.circuit_stats` before it is
returned; a mismatch raises :class:`VendorError` rather than silently
simulating the wrong circuit.  Gate counts are *not* checked: published
tallies vary by netlist variant (buffer/inverter counting), while the
interface is exact.
"""

from __future__ import annotations

import os
from pathlib import Path
from typing import TYPE_CHECKING, List, Optional

from repro.circuit.bench_parser import parse_bench, parse_bench_file, write_bench
from repro.circuit.netlist import Circuit
from repro.circuit.stats import circuit_stats

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.bench_circuits.catalog import CatalogEntry

#: Directory of user-provided ``.bench`` files (searched first).
BENCH_DIR_ENV = "REPRO_BENCH_DIR"

#: Package-local vendored netlists.
VENDOR_DIR = Path(__file__).resolve().parent / "vendored"


class VendorError(ValueError):
    """A vendored netlist does not match its published interface."""


def search_dirs() -> List[Path]:
    """Directories consulted for real ``.bench`` files, in order."""
    dirs: List[Path] = []
    env = os.environ.get(BENCH_DIR_ENV, "").strip()
    if env:
        dirs.append(Path(env))
    dirs.append(VENDOR_DIR)
    return dirs


def vendored_path(name: str) -> Optional[Path]:
    """The on-disk ``.bench`` file for ``name``, or None if not present."""
    for directory in search_dirs():
        candidate = directory / f"{name}.bench"
        if candidate.is_file():
            return candidate
    return None


def validate_interface(circuit: Circuit, entry: "CatalogEntry") -> None:
    """Check a netlist against the catalog's published PI/PO/FF counts."""
    stats = circuit_stats(circuit)
    actual = (stats.num_inputs, stats.num_outputs, stats.num_flops)
    published = (entry.n_pi, entry.n_po, entry.n_ff)
    if actual != published:
        raise VendorError(
            f"{entry.name}: netlist interface (pi, po, ff) = {actual} does "
            f"not match published counts {published}"
        )


def load_vendored(entry: "CatalogEntry") -> Optional[Circuit]:
    """The real netlist for ``entry``, parsed and validated, or None."""
    path = vendored_path(entry.name)
    if path is None:
        return None
    circuit = parse_bench_file(path)
    circuit.name = entry.name
    validate_interface(circuit, entry)
    return circuit


def reingest(circuit: Circuit) -> Circuit:
    """Round a circuit through the hardened parser.

    ``write_bench`` -> ``parse_bench`` is a byte-stable fixpoint, so the
    result is structurally identical -- but it has passed every parser
    diagnostic and structural validation a user-supplied netlist would.
    """
    return parse_bench(write_bench(circuit), name=circuit.name)
