"""Reproducible random sources and the paper's modulo draws.

The generation procedures in the paper only need two primitives:

- a stream of uniform bits (scan-in states, test vectors, limited-scan
  fill bits), and
- draws ``r mod D`` where ``r`` is uniform on ``[0, R]`` with ``R >> D``
  (Procedure 1's ``r1 mod D1`` insertion test and ``r2 mod D2`` shift
  amount).

:class:`RandomSource` captures that contract.  Two implementations are
provided: :class:`LfsrSource` (hardware-faithful, an on-chip LFSR would
produce the identical sequence) and :class:`NumpySource` (PCG64-backed,
faster for large circuits).  Both are deterministic given their seed, which
is what makes the paper's scheme storable: re-applying a test set only
requires re-seeding.
"""

from __future__ import annotations

from typing import List, Protocol

from numpy.random import PCG64, Generator

from repro.rpg.lfsr import Lfsr

#: Width of the uniform draws backing ``mod_draw``; ``R = 2**16 - 1`` is
#: ``>> D`` for every D the procedures use (D1 <= 10, D2 = N_SV + 1).
DRAW_BITS = 16


class RandomSource(Protocol):
    """Deterministic stream of bits and small uniform integers."""

    def bit(self) -> int:
        """Next uniform bit (0 or 1)."""

    def bits(self, n: int) -> List[int]:
        """Next ``n`` uniform bits."""

    def draw(self) -> int:
        """Next uniform integer in ``[0, 2**DRAW_BITS - 1]``."""

    def mod_draw(self, d: int) -> int:
        """The paper's ``r mod D`` draw (approximately uniform on [0, d))."""

    def fork(self, salt: int) -> "RandomSource":
        """An independent source derived deterministically from this seed."""


class LfsrSource:
    """A :class:`RandomSource` backed by a 32-bit maximal-length LFSR."""

    def __init__(self, seed: int, width: int = 32) -> None:
        if seed <= 0:
            seed = -seed + 1 or 1
        self._seed = seed
        self._width = width
        self._lfsr = Lfsr(width, seed=(seed % ((1 << width) - 1)) or 1)

    def bit(self) -> int:
        return self._lfsr.step()

    def bits(self, n: int) -> List[int]:
        return self._lfsr.bits(n)

    def draw(self) -> int:
        return self._lfsr.word(DRAW_BITS)

    def mod_draw(self, d: int) -> int:
        if d < 1:
            raise ValueError(f"modulus must be >= 1, got {d}")
        return self.draw() % d

    def fork(self, salt: int) -> "LfsrSource":
        # Mix the salt into the seed with an odd multiplier so that
        # consecutive salts land far apart in the LFSR's state space.
        mixed = (self._seed * 0x9E3779B1 + salt * 0x85EBCA77 + 1) & 0x7FFFFFFF
        return LfsrSource(mixed or 1, width=self._width)


class NumpySource:
    """A :class:`RandomSource` backed by numpy's PCG64 generator."""

    def __init__(self, seed: int) -> None:
        self._seed = int(seed)
        self._rng = Generator(PCG64(self._seed))

    def bit(self) -> int:
        return int(self._rng.integers(0, 2))

    def bits(self, n: int) -> List[int]:
        return self._rng.integers(0, 2, size=n).tolist()

    def draw(self) -> int:
        return int(self._rng.integers(0, 1 << DRAW_BITS))

    def mod_draw(self, d: int) -> int:
        if d < 1:
            raise ValueError(f"modulus must be >= 1, got {d}")
        return self.draw() % d

    def fork(self, salt: int) -> "NumpySource":
        return NumpySource((self._seed * 0x9E3779B1 + salt * 0x85EBCA77 + 1) & 0x7FFFFFFFFFFF)


def make_source(seed: int, kind: str = "numpy") -> RandomSource:
    """Construct a :class:`RandomSource` of the requested kind.

    ``kind='lfsr'`` gives the hardware-faithful generator; ``kind='numpy'``
    (the default) is statistically stronger and faster, which matters for
    fault-simulation experiments.  Both are fully reproducible.
    """
    if kind == "lfsr":
        return LfsrSource(seed)
    if kind == "numpy":
        return NumpySource(seed)
    raise ValueError(f"unknown random source kind: {kind!r}")
