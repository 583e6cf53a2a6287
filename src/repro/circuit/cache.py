"""Content-addressed compile cache for levelization/compilation artifacts.

Compiling a 100k-gate circuit -- two-input decomposition, fanout-branch
insertion, levelization, kernel construction -- costs seconds and is a
pure function of circuit structure.  :class:`CompileCache` memoizes the
compiled state on disk, keyed by
:func:`repro.robustness.checkpoint.circuit_fingerprint` (SHA-256 of the
canonical ``.bench`` text, name excluded), so each circuit is compiled
once per machine no matter how many sessions, processes, or users touch
it.

Cache entries are pickle blobs written atomically
(:func:`repro.robustness.atomic.atomic_write_bytes`), so a crash mid-store
never leaves a torn entry.  The entry filename carries both the
fingerprint and :data:`CompileCache.FORMAT_VERSION`; bumping the version
(required whenever the pickled compiled-state layout or the
``GATE_CODE`` table changes) orphans old entries rather than
misinterpreting them.  A corrupt or unreadable entry is treated as a
miss and silently recompiled over.

The cache is opt-in: library code never consults it unless handed an
instance (tests stay hermetic), and the CLI enables it via
``--cache-dir`` or the ``REPRO_CACHE_DIR`` environment variable.
"""

from __future__ import annotations

import os
import pickle
from pathlib import Path
from typing import Any, Dict, Optional, Union

#: Environment variable the CLI reads to locate the cache directory.
CACHE_DIR_ENV = "REPRO_CACHE_DIR"


class CompileCache:
    """On-disk store of compiled-circuit state, keyed by fingerprint.

    Attributes:
        root: cache directory (created lazily on first store).
        hits / misses: per-instance counters, exposed for benchmarks and
            the CLI's cache reporting.
    """

    #: Bump when the stored state's layout changes incompatibly.
    FORMAT_VERSION = 2

    def __init__(self, root: Union[str, Path]) -> None:
        self.root = Path(root)
        self.hits = 0
        self.misses = 0

    @classmethod
    def from_env(cls) -> Optional["CompileCache"]:
        """A cache rooted at ``$REPRO_CACHE_DIR``, or None if unset/empty."""
        root = os.environ.get(CACHE_DIR_ENV, "").strip()
        return cls(root) if root else None

    @staticmethod
    def fingerprint(circuit: Any) -> str:
        from repro.robustness.checkpoint import circuit_fingerprint

        return circuit_fingerprint(circuit)

    def path_for(self, fingerprint: str) -> Path:
        return self.root / f"{fingerprint}.v{self.FORMAT_VERSION}.pkl"

    def load(self, fingerprint: str) -> Optional[Dict[str, Any]]:
        """The stored state for ``fingerprint``, or None on a miss.

        Anything short of a well-formed entry -- absent file, torn or
        corrupt pickle, wrong payload shape, stale format -- counts as a
        miss; the caller recompiles and overwrites.
        """
        try:
            with open(self.path_for(fingerprint), "rb") as fh:
                payload = pickle.load(fh)
        except FileNotFoundError:
            self.misses += 1
            return None
        except Exception:
            # A corrupt pickle can raise nearly anything while
            # reconstructing objects; every failure mode is a miss.
            self.misses += 1
            return None
        if (
            not isinstance(payload, dict)
            or payload.get("format") != self.FORMAT_VERSION
            or payload.get("fingerprint") != fingerprint
            or "state" not in payload
        ):
            self.misses += 1
            return None
        self.hits += 1
        return payload["state"]

    def stats(self) -> Dict[str, int]:
        """On-disk entry census plus this instance's hit/miss counters.

        ``entries``/``bytes`` count current-format entries only; stale
        format versions are invisible (they are misses by filename).
        Cheap enough for a health endpoint to call per request.
        """
        entries = (
            list(self.root.glob(f"*.v{self.FORMAT_VERSION}.pkl"))
            if self.root.is_dir()
            else []
        )
        return {
            "entries": len(entries),
            "bytes": sum(p.stat().st_size for p in entries),
            "hits": self.hits,
            "misses": self.misses,
        }

    def store(self, fingerprint: str, state: Dict[str, Any]) -> None:
        """Atomically persist ``state`` under ``fingerprint``."""
        from repro.robustness.atomic import atomic_write_bytes

        self.root.mkdir(parents=True, exist_ok=True)
        blob = pickle.dumps(
            {
                "format": self.FORMAT_VERSION,
                "fingerprint": fingerprint,
                "state": state,
            },
            protocol=pickle.HIGHEST_PROTOCOL,
        )
        atomic_write_bytes(self.path_for(fingerprint), blob)
