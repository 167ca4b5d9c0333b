"""Canonical polynomials in the real coordinates (x_1, y_1, ..., x_n, y_n).

Every expression over z_j, conj(z_j) expands to a polynomial in the 2n real
coordinates with complex coefficients (z_j = x_j + i*y_j).  In this form the
correlated occurrences of z_j and conj(z_j) cancel exactly in coefficient
arithmetic, which is what makes the interval bounds downstream usable, and
conj / Re / Im become coefficient operations.
"""

from __future__ import annotations

import math
from typing import Sequence

import numpy as np

from . import expr as ex
from .intervals import INFLATION, Interval, ParamBox, Rect

_TINY = 1e-300
# most terms for which the rounding argument of _eval_box_raw holds
MAX_TERMS = 4095


class RealPoly:
    """Polynomial sum of coeff * prod(v_i^e_i) over the 2n real coordinates."""

    __slots__ = ("n", "terms", "_packed", "_fast")

    def __init__(self, n: int, terms: dict[tuple[int, ...], complex] | None = None):
        self.n = n
        self.terms: dict[tuple[int, ...], complex] = terms if terms is not None else {}
        self._packed = None
        self._fast = None

    # -- construction -------------------------------------------------------

    @staticmethod
    def zero(n: int) -> RealPoly:
        return RealPoly(n)

    @staticmethod
    def constant(n: int, c: complex) -> RealPoly:
        p = RealPoly(n)
        if c != 0:
            p.terms[(0,) * (2 * n)] = c
        return p

    @staticmethod
    def coordinate(n: int, real_index: int) -> RealPoly:
        e = [0] * (2 * n)
        e[real_index] = 1
        return RealPoly(n, {tuple(e): 1.0 + 0j})

    @staticmethod
    def variable(n: int, j: int, conjugated: bool) -> RealPoly:
        """z_j = x_j + i y_j or conj(z_j) = x_j - i y_j (j is 1-based)."""
        ex_ = [0] * (2 * n)
        ey = [0] * (2 * n)
        ex_[2 * (j - 1)] = 1
        ey[2 * (j - 1) + 1] = 1
        s = -1j if conjugated else 1j
        return RealPoly(n, {tuple(ex_): 1.0 + 0j, tuple(ey): s})

    @staticmethod
    def from_expr(e: ex.Expr, n: int) -> RealPoly:
        if isinstance(e, ex.Const):
            return RealPoly.constant(n, e.value)
        if isinstance(e, ex.Var):
            return RealPoly.variable(n, e.index, e.conjugated)
        if isinstance(e, ex.Neg):
            return -RealPoly.from_expr(e.operand, n)
        if isinstance(e, ex.Conj):
            return RealPoly.from_expr(e.operand, n).conj()
        if isinstance(e, ex.Re):
            return RealPoly.from_expr(e.operand, n).real_part()
        if isinstance(e, ex.Im):
            return RealPoly.from_expr(e.operand, n).imag_part()
        if isinstance(e, ex.Add):
            return RealPoly.from_expr(e.left, n) + RealPoly.from_expr(e.right, n)
        if isinstance(e, ex.Sub):
            return RealPoly.from_expr(e.left, n) - RealPoly.from_expr(e.right, n)
        if isinstance(e, ex.Mul):
            return RealPoly.from_expr(e.left, n) * RealPoly.from_expr(e.right, n)
        if isinstance(e, ex.Pow):
            return RealPoly.from_expr(e.base, n).pow(e.exponent)
        raise TypeError(f"not an Expr node: {e!r}")

    # -- algebra -------------------------------------------------------------

    def _set(self, key, val):
        if val == 0:
            self.terms.pop(key, None)
        else:
            self.terms[key] = val

    def __add__(self, other: RealPoly) -> RealPoly:
        out = RealPoly(self.n, dict(self.terms))
        for k, v in other.terms.items():
            out._set(k, out.terms.get(k, 0j) + v)
        return out

    def __sub__(self, other: RealPoly) -> RealPoly:
        out = RealPoly(self.n, dict(self.terms))
        for k, v in other.terms.items():
            out._set(k, out.terms.get(k, 0j) - v)
        return out

    def __neg__(self) -> RealPoly:
        return RealPoly(self.n, {k: -v for k, v in self.terms.items()})

    def __mul__(self, other: RealPoly) -> RealPoly:
        out = RealPoly(self.n)
        for k1, v1 in self.terms.items():
            for k2, v2 in other.terms.items():
                k = tuple(a + b for a, b in zip(k1, k2))
                out._set(k, out.terms.get(k, 0j) + v1 * v2)
        return out

    def scale(self, c: complex) -> RealPoly:
        if c == 0:
            return RealPoly(self.n)
        return RealPoly(self.n, {k: v * c for k, v in self.terms.items()})

    def pow(self, k: int) -> RealPoly:
        if k < 0:
            raise ValueError("negative exponent")
        result = RealPoly.constant(self.n, 1.0 + 0j)
        base = self
        while k:
            if k & 1:
                result = result * base
            base = base * base if k > 1 else base
            k >>= 1
        return result

    def conj(self) -> RealPoly:
        # variables are real, so conjugation acts on coefficients only
        return RealPoly(self.n, {k: v.conjugate() for k, v in self.terms.items()})

    def real_part(self) -> RealPoly:
        out = RealPoly(self.n)
        for k, v in self.terms.items():
            if v.real != 0.0:
                out.terms[k] = complex(v.real, 0.0)
        return out

    def imag_part(self) -> RealPoly:
        out = RealPoly(self.n)
        for k, v in self.terms.items():
            if v.imag != 0.0:
                out.terms[k] = complex(v.imag, 0.0)
        return out

    @property
    def is_zero(self) -> bool:
        return not self.terms

    def total_degree(self) -> int:
        return max((sum(k) for k in self.terms), default=0)

    def __eq__(self, other) -> bool:
        return isinstance(other, RealPoly) and self.n == other.n and self.terms == other.terms

    def __repr__(self) -> str:
        return f"RealPoly(n={self.n}, {len(self.terms)} terms, deg={self.total_degree()})"

    # -- evaluation ----------------------------------------------------------

    def packed(self):
        """(exponent_matrix, coeff_vector) cache for vectorized evaluation."""
        if self._packed is None:
            keys = sorted(self.terms)
            E = np.array(keys, dtype=np.int64).reshape(len(keys), 2 * self.n)
            c = np.array([self.terms[k] for k in keys], dtype=np.complex128)
            self._packed = (E, c)
        return self._packed

    def fast_terms(self):
        """[(nonzero (var, exp) pairs, coeff_re, coeff_im)] in sorted key order.

        Raises ValueError above MAX_TERMS terms, where the sums of
        _eval_box_raw would no longer be sound.
        """
        if self._fast is None:
            if len(self.terms) > MAX_TERMS:
                raise ValueError(f"{len(self.terms)} terms: interval evaluation is "
                                 f"sound for at most {MAX_TERMS}")
            self._fast = [
                (tuple((v, e) for v, e in enumerate(k) if e), self.terms[k].real,
                 self.terms[k].imag)
                for k in sorted(self.terms)
            ]
        return self._fast

    def eval_real(self, xs: Sequence[float]) -> complex:
        """Evaluate at a real-coordinate point (x_1, y_1, ..., x_n, y_n)."""
        total = 0j
        for k, v in self.terms.items():
            m = 1.0
            for x, e in zip(xs, k):
                if e:
                    m *= x ** e
            total += v * m
        return total

    def eval_point(self, z: Sequence[complex]) -> complex:
        xs = []
        for zz in z:
            zz = complex(zz)
            xs.append(zz.real)
            xs.append(zz.imag)
        return self.eval_real(xs)

    def eval_batch(self, xs: np.ndarray) -> np.ndarray:
        """Evaluate at many real-coordinate points; xs has shape (m, 2n)."""
        E, c = self.packed()
        if len(c) == 0:
            return np.zeros(xs.shape[0], dtype=np.complex128)
        # powers[i, t, v] = xs[i, v] ** E[t, v]
        powers = xs[:, None, :] ** E[None, :, :]
        return powers.prod(axis=2) @ c

    def eval_box(self, box: ParamBox) -> Rect:
        """Sound rectangle enclosure over the box (first 2n coordinates)."""
        rlo, rhi, ilo, ihi = _eval_box_raw(self, box.lo, box.hi)
        return Rect(Interval(rlo, rhi), Interval(ilo, ihi))


# ---------------------------------------------------------------------------
# Raw float-pair interval kernels (hot path for the rigor module)
# ---------------------------------------------------------------------------

def _pow_pair(lo: float, hi: float, k: int) -> tuple[float, float]:
    if k == 0:
        return 1.0, 1.0
    if k == 1:
        return lo, hi
    if k % 2 == 0:
        m = max(abs(lo), abs(hi))
        if lo <= 0.0 <= hi:
            mn = 0.0
        else:
            mn = min(abs(lo), abs(hi))
        a, b = mn ** k, m ** k
    else:
        a, b = lo ** k, hi ** k
    d = INFLATION * max(abs(a), abs(b)) + _TINY
    return a - d, b + d


def power_tables(lo: Sequence[float], hi: Sequence[float], max_deg: int):
    """tables[v][k] = interval enclosure of coordinate v to the power k."""
    return [[_pow_pair(lo[v], hi[v], k) for k in range(max_deg + 1)]
            for v in range(len(lo))]


def _eval_box_raw(p: RealPoly, lo: Sequence[float], hi: Sequence[float],
                  tables=None) -> tuple[float, float, float, float]:
    """Enclosure (re_lo, re_hi, im_lo, im_hi) of p over the box coordinates.

    Rounding (u = 2^-53, recursive summation bounds as in Higham, "Accuracy
    and Stability of Numerical Algorithms", ch. 4).  Monomial products are
    widened outward after every multiplication by INFLATION = 2^-40 of their
    magnitude; the sums over the k terms are not.  They are sound because of
    that slack:

    * a non-constant monomial with magnitude M keeps at least
      (2^-40 - 2u) M of slack after its own product and subtraction
      roundings, and the product with the coefficient v costs u |v| M more,
      so its term, of magnitude T = |v| M, brings (2^-40 - 3u) T;
    * summing k terms from 0.0 errs by at most gamma_{k-1} sum T_i, with
      gamma_{k-1} = (k-1)u / (1 - (k-1)u);
    * a constant term has no slack of its own (no multiplication widens it),
      but its magnitude enters that sum; since |c| <= |S| + sum of the other
      T_i, where S is the computed sum, the error is at most
      gamma_{k-1} (2 sum' T_i + |S|), sum' over the non-constant terms;
    * the slack (2^-40 - 3u) sum' T_i and the final widening
      (k + 1) 2^-40 |S| cover that when 2 gamma_{k-1} + 3u <= 2^-40, which
      holds for k <= MAX_TERMS = 4095: there the left side is
      8191u + O(u^2), and the one u to spare against 2^-40 = 8192u absorbs
      the second-order terms dropped above.

    RealPoly.fast_terms enforces that bound once per polynomial, so this
    loop carries no check.
    """
    fast = p.fast_terms()
    if not fast:
        return 0.0, 0.0, 0.0, 0.0
    if tables is None:
        tables = power_tables(lo, hi, p.total_degree())
    rlo = rhi = ilo = ihi = 0.0
    for exps, vr, vi in fast:
        mlo, mhi = 1.0, 1.0
        for var, e in exps:
            a, b = tables[var][e]
            p1, p2, p3, p4 = mlo * a, mlo * b, mhi * a, mhi * b
            mlo = p1 if p1 < p2 else p2
            if p3 < mlo:
                mlo = p3
            if p4 < mlo:
                mlo = p4
            mhi = p1 if p1 > p2 else p2
            if p3 > mhi:
                mhi = p3
            if p4 > mhi:
                mhi = p4
            d = INFLATION * max(-mlo, mhi, mlo, -mhi) + _TINY
            mlo -= d
            mhi += d
        if vr:
            a, b = mlo * vr, mhi * vr
            if a > b:
                a, b = b, a
            rlo += a
            rhi += b
        if vi:
            a, b = mlo * vi, mhi * vi
            if a > b:
                a, b = b, a
            ilo += a
            ihi += b
    d = INFLATION * (len(fast) + 1)
    rd = d * max(abs(rlo), abs(rhi)) + _TINY
    idd = d * max(abs(ilo), abs(ihi)) + _TINY
    return rlo - rd, rhi + rd, ilo - idd, ihi + idd


def mag_upper(bounds: tuple[float, float, float, float]) -> float:
    """Upper bound of |value| from a raw enclosure tuple."""
    rlo, rhi, ilo, ihi = bounds
    return math.hypot(max(abs(rlo), abs(rhi)), max(abs(ilo), abs(ihi))) * (1.0 + INFLATION)
