"""Interval containers: real intervals, complex rectangles, parameter boxes.

Interval and Rect hold the enclosures that expr.eval_interval returns; they
check that their bounds are finite and ordered and carry no arithmetic.
Bounds are computed by the batched kernels of realpoly and rigor, which widen
monomial products outward by INFLATION = 2^-40 of their magnitude and argue
every other rounding in writing (realpoly.power_tables, realpoly._eval_box_raw,
rigor._BoxBounds); INFLATION is recorded in certificates.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

INFLATION = 2.0 ** -40


@dataclass(frozen=True, slots=True)
class Interval:
    """Closed real interval [lo, hi]."""

    lo: float
    hi: float

    def __post_init__(self):
        if not (math.isfinite(self.lo) and math.isfinite(self.hi)):
            raise ValueError(f"interval bounds must be finite: [{self.lo}, {self.hi}]")
        if self.lo > self.hi:
            raise ValueError(f"empty interval: [{self.lo}, {self.hi}]")

    def contains(self, x: float) -> bool:
        return self.lo <= x <= self.hi


@dataclass(frozen=True, slots=True)
class Rect:
    """Complex rectangle enclosure: re + i*im with interval components."""

    re: Interval
    im: Interval

    def contains(self, z: complex) -> bool:
        return self.re.contains(z.real) and self.im.contains(z.imag)


class ParamBox:
    """Rectangular region in the real coordinates (Re z_1, Im z_1, ..., Re z_n, Im z_n).

    Immutable; `lo`/`hi` are tuples of length 2n.  A graph's w coordinates
    never enter a box: its bounds take them from omega's w discs.
    """

    __slots__ = ("n", "lo", "hi")

    def __init__(self, n: int, lo: Sequence[float], hi: Sequence[float]):
        lo = tuple(float(x) for x in lo)
        hi = tuple(float(x) for x in hi)
        if not len(lo) == len(hi) == 2 * n:
            raise ValueError(f"expected 2n={2*n} coordinates, got {len(lo)} and {len(hi)}")
        for a, b in zip(lo, hi):
            if not (math.isfinite(a) and math.isfinite(b)):
                raise ValueError("box bounds must be finite")
            if a > b:
                raise ValueError(f"box has lo > hi: {a} > {b}")
        self.n = n
        self.lo = lo
        self.hi = hi

    @classmethod
    def _new(cls, n: int, lo: tuple[float, ...], hi: tuple[float, ...]) -> "ParamBox":
        """Internal fast constructor: caller guarantees validity."""
        box = object.__new__(cls)
        box.n = n
        box.lo = lo
        box.hi = hi
        return box

    @property
    def dim(self) -> int:
        return len(self.lo)

    def split(self, coord: int) -> tuple[ParamBox, ParamBox]:
        """Bisect along `coord` at the midpoint 0.5 * (lo + hi), the bits
        rigor.subdivide writes into its level arrays."""
        mid = 0.5 * (self.lo[coord] + self.hi[coord])
        hi1 = self.hi[:coord] + (mid,) + self.hi[coord + 1:]
        lo2 = self.lo[:coord] + (mid,) + self.lo[coord + 1:]
        return (ParamBox._new(self.n, self.lo, hi1),
                ParamBox._new(self.n, lo2, self.hi))

    def sample_uniform(self, rng, count: int):
        """Uniform samples in the box as an (count, dim) array."""
        import numpy as np

        lo = np.asarray(self.lo)
        hi = np.asarray(self.hi)
        return lo + (hi - lo) * rng.random((count, len(lo)))

    def __repr__(self) -> str:
        parts = ", ".join(f"[{a:g},{b:g}]" for a, b in zip(self.lo, self.hi))
        return f"ParamBox(n={self.n}, {parts})"

    def __eq__(self, other) -> bool:
        return (isinstance(other, ParamBox) and self.n == other.n
                and self.lo == other.lo and self.hi == other.hi)

    def __hash__(self) -> int:
        return hash((self.n, self.lo, self.hi))
