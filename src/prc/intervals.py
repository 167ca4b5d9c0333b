"""Interval arithmetic primitives: real intervals, complex rectangles, parameter boxes.

Complex enclosures are axis-aligned rectangles (a real interval for the real
part times one for the imaginary part).  Every arithmetic operation applies an
outward epsilon-inflation of relative 2^-40 (plus an absolute underflow guard)
in lieu of directed rounding; this is the rigor model used by all bound
computations downstream and is recorded in certificates.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, Sequence

INFLATION = 2.0 ** -40
_TINY = 1e-300


def _inflate(lo: float, hi: float) -> tuple[float, float]:
    d = INFLATION * max(abs(lo), abs(hi)) + _TINY
    return lo - d, hi + d


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

    @staticmethod
    def point(x: float) -> Interval:
        return Interval(x, x)

    @property
    def width(self) -> float:
        return self.hi - self.lo

    @property
    def mid(self) -> float:
        return 0.5 * (self.lo + self.hi)

    def mag(self) -> float:
        """Upper bound of |x| over the interval."""
        return max(abs(self.lo), abs(self.hi))

    def mig(self) -> float:
        """Lower bound of |x| over the interval (0 if it straddles 0)."""
        if self.lo <= 0.0 <= self.hi:
            return 0.0
        return min(abs(self.lo), abs(self.hi))

    def contains(self, x: float) -> bool:
        return self.lo <= x <= self.hi

    def __add__(self, other: Interval | float) -> Interval:
        if isinstance(other, Interval):
            return Interval(*_inflate(self.lo + other.lo, self.hi + other.hi))
        return Interval(*_inflate(self.lo + other, self.hi + other))

    __radd__ = __add__

    def __neg__(self) -> Interval:
        return Interval(-self.hi, -self.lo)

    def __sub__(self, other: Interval | float) -> Interval:
        if isinstance(other, Interval):
            return Interval(*_inflate(self.lo - other.hi, self.hi - other.lo))
        return Interval(*_inflate(self.lo - other, self.hi - other))

    def __rsub__(self, other: float) -> Interval:
        return Interval(*_inflate(other - self.hi, other - self.lo))

    def __mul__(self, other: Interval | float) -> Interval:
        if isinstance(other, Interval):
            p = (self.lo * other.lo, self.lo * other.hi,
                 self.hi * other.lo, self.hi * other.hi)
            return Interval(*_inflate(min(p), max(p)))
        a, b = self.lo * other, self.hi * other
        if a > b:
            a, b = b, a
        return Interval(*_inflate(a, b))

    __rmul__ = __mul__

    def sqr(self) -> Interval:
        """Tight enclosure of x^2 (does not go negative when 0 is inside)."""
        m = self.mag()
        lo = self.mig()
        return Interval(*_inflate(lo * lo, m * m))

    def pow_int(self, k: int) -> Interval:
        if k < 0:
            raise ValueError("negative exponent")
        if k == 0:
            return Interval(1.0, 1.0)
        if k == 1:
            return self
        if k % 2 == 0:
            m = self.mag()
            lo = self.mig()
            return Interval(*_inflate(lo ** k, m ** k))
        return Interval(*_inflate(self.lo ** k, self.hi ** k))


@dataclass(frozen=True, slots=True)
class Rect:
    """Complex rectangle enclosure: re + i*im with interval components."""

    re: Interval
    im: Interval

    @staticmethod
    def point(z: complex) -> Rect:
        return Rect(Interval.point(z.real), Interval.point(z.imag))

    @staticmethod
    def zero() -> Rect:
        return Rect(Interval(0.0, 0.0), Interval(0.0, 0.0))

    def __add__(self, other: Rect) -> Rect:
        return Rect(self.re + other.re, self.im + other.im)

    def __sub__(self, other: Rect) -> Rect:
        return Rect(self.re - other.re, self.im - other.im)

    def __neg__(self) -> Rect:
        return Rect(-self.re, -self.im)

    def __mul__(self, other: Rect) -> Rect:
        # (a+ib)(c+id) = (ac - bd) + i(ad + bc)
        return Rect(self.re * other.re - self.im * other.im,
                    self.re * other.im + self.im * other.re)

    def conj(self) -> Rect:
        return Rect(self.re, -self.im)

    def scale(self, c: complex) -> Rect:
        return Rect(self.re * c.real - self.im * c.imag,
                    self.re * c.imag + self.im * c.real)

    def abs2(self) -> Interval:
        """Tight enclosure of |z|^2 = re^2 + im^2."""
        return self.re.sqr() + self.im.sqr()

    def mag(self) -> float:
        """Upper bound of |z| over the rectangle."""
        return math.hypot(self.re.mag(), self.im.mag()) * (1.0 + INFLATION)

    def mig(self) -> float:
        """Lower bound of |z| over the rectangle."""
        return math.hypot(self.re.mig(), self.im.mig()) * (1.0 - INFLATION)

    def contains(self, z: complex) -> bool:
        return self.re.contains(z.real) and self.im.contains(z.imag)

    @property
    def center(self) -> complex:
        return complex(self.re.mid, self.im.mid)

    def corners(self) -> tuple[complex, complex, complex, complex]:
        return (complex(self.re.lo, self.im.lo), complex(self.re.lo, self.im.hi),
                complex(self.re.hi, self.im.lo), complex(self.re.hi, self.im.hi))


class ParamBox:
    """Rectangular region in the real coordinates (Re z_1, Im z_1, ..., Re z_n, Im z_n).

    Graph problems may carry 2n further coordinates for w, in the same layout,
    for the bound_* functions; the tube check bisects z-boxes only.
    Immutable; `lo`/`hi` are tuples of length 2n or 4n.
    """

    __slots__ = ("n", "lo", "hi")

    def __init__(self, n: int, lo: Sequence[float], hi: Sequence[float]):
        lo = tuple(float(x) for x in lo)
        hi = tuple(float(x) for x in hi)
        if len(lo) != len(hi):
            raise ValueError("lo/hi length mismatch")
        if len(lo) not in (2 * n, 4 * n):
            raise ValueError(f"expected 2n={2*n} or 4n={4*n} coordinates, got {len(lo)}")
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
    def has_w(self) -> bool:
        return len(self.lo) == 4 * self.n

    @property
    def dim(self) -> int:
        return len(self.lo)

    @staticmethod
    def from_z(n: int, z_intervals: Iterable[tuple[float, float]],
               w_intervals: Iterable[tuple[float, float]] | None = None) -> ParamBox:
        pairs = list(z_intervals)
        if w_intervals is not None:
            pairs += list(w_intervals)
        return ParamBox(n, [p[0] for p in pairs], [p[1] for p in pairs])

    def z_rect(self, j: int) -> Rect:
        """Rectangle of the j-th complex z coordinate (0-based)."""
        return Rect(Interval(self.lo[2 * j], self.hi[2 * j]),
                    Interval(self.lo[2 * j + 1], self.hi[2 * j + 1]))

    def center(self) -> tuple[float, ...]:
        return tuple(0.5 * (a + b) for a, b in zip(self.lo, self.hi))

    def z_center(self) -> tuple[complex, ...]:
        c = self.center()
        return tuple(complex(c[2 * j], c[2 * j + 1]) for j in range(self.n))

    def widest_coord(self) -> int:
        widths = [b - a for a, b in zip(self.lo, self.hi)]
        return max(range(len(widths)), key=lambda i: (widths[i], -i))

    def split(self, coord: int | None = None) -> tuple[ParamBox, ParamBox]:
        """Bisect along `coord` (widest coordinate when omitted)."""
        i = self.widest_coord() if coord is None else coord
        mid = 0.5 * (self.lo[i] + self.hi[i])
        hi1 = self.hi[:i] + (mid,) + self.hi[i + 1:]
        lo2 = self.lo[:i] + (mid,) + self.lo[i + 1:]
        return (ParamBox._new(self.n, self.lo, hi1),
                ParamBox._new(self.n, lo2, self.hi))

    def contains_point(self, xs: Sequence[float]) -> bool:
        return all(a <= x <= b for a, x, b in zip(self.lo, xs, self.hi))

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
