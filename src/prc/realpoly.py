"""Canonical polynomials in z_j, conj(z_j) and in the real coordinates.

A normalized expression (expr.normalize) is a polynomial in the 2n
independent variables z_j, conj(z_j) and expands as such into a ZPoly.  There
the Wirtinger derivatives d/dz_j and d/dconj(z_j) are partial derivatives:
each coefficient is multiplied by its exponent, and a term free of the
variable drops out, so d/dconj(z_j) of a function whose expansion is free of
conj(z_j) is exactly zero, however its coefficients were rounded.

For interval bounds a polynomial is expanded in the 2n real coordinates
(x_1, y_1, ..., x_n, y_n) with complex coefficients (z_j = x_j + i*y_j): a
RealPoly.  In this form the correlated occurrences of z_j and conj(z_j)
combine in coefficient arithmetic (rounded to nearest), before any interval
is formed, which is what makes the interval bounds downstream usable.  Point
values, of one polynomial or of many at many points, all come from PointPack,
in the plain numpy arithmetic of the interval kernels (product-chain powers,
left-to-right sums, each polynomial's terms in sorted key order), so they
depend neither on a point's batch nor on the order a polynomial's terms were
inserted in.
"""

from __future__ import annotations

import functools
from typing import Sequence

import numpy as np

from . import expr as ex
from .intervals import INFLATION, Interval, ParamBox, Rect

_TINY = 1e-300
# most terms per polynomial, and highest degree, for which the rounding
# arguments of _eval_box_raw and power_tables hold
MAX_TERMS = 4095
MAX_DEGREE = 4096
# most points PointPack.eval takes at once
_CHUNK = 4096


class _Poly:
    """Sparse polynomial in 2n variables: exponent tuple -> complex coefficient."""

    __slots__ = ("n", "terms")

    def __init__(self, n: int, terms: dict[tuple[int, ...], complex] | None = None):
        self.n = n
        self.terms: dict[tuple[int, ...], complex] = terms if terms is not None else {}

    @classmethod
    def constant(cls, n: int, c: complex):
        p = cls(n)
        if c != 0:
            p.terms[(0,) * (2 * n)] = c
        return p

    # -- algebra -------------------------------------------------------------

    def _set(self, key, val):
        if val == 0:
            self.terms.pop(key, None)
        else:
            self.terms[key] = val

    def __add__(self, other):
        out = type(self)(self.n, dict(self.terms))
        for k, v in other.terms.items():
            out._set(k, out.terms.get(k, 0j) + v)
        return out

    def __sub__(self, other):
        out = type(self)(self.n, dict(self.terms))
        for k, v in other.terms.items():
            out._set(k, out.terms.get(k, 0j) - v)
        return out

    def __neg__(self):
        return type(self)(self.n, {k: -v for k, v in self.terms.items()})

    def __mul__(self, other):
        out = type(self)(self.n)
        for k1, v1 in self.terms.items():
            for k2, v2 in other.terms.items():
                k = tuple(a + b for a, b in zip(k1, k2))
                out._set(k, out.terms.get(k, 0j) + v1 * v2)
        return out

    def pow(self, k: int):
        if k < 0:
            raise ValueError("negative exponent")
        result = type(self).constant(self.n, 1.0 + 0j)
        base = self
        while k:
            if k & 1:
                result = result * base
            base = base * base if k > 1 else base
            k >>= 1
        return result

    def diff(self, v: int):
        """Partial derivative in the v-th variable t (0-based).  A term
        c t^k becomes (k c) t^(k-1), one rounding per component of the
        coefficient; a term free of t drops out."""
        out = type(self)(self.n)
        for key, c in self.terms.items():
            k = key[v]
            if k:
                out.terms[key[:v] + (k - 1,) + key[v + 1:]] = complex(k * c.real, k * c.imag)
        return out

    @property
    def is_zero(self) -> bool:
        return not self.terms

    def total_degree(self) -> int:
        return max((sum(k) for k in self.terms), default=0)

    def __eq__(self, other) -> bool:
        return type(other) is type(self) and self.n == other.n and self.terms == other.terms

    def __repr__(self) -> str:
        return (f"{type(self).__name__}(n={self.n}, {len(self.terms)} terms, "
                f"deg={self.total_degree()})")


class ZPoly(_Poly):
    """Polynomial in the 2n independent variables (z_1, conj(z_1), ...,
    z_n, conj(z_n)): the exponents (a_1, b_1, ..., a_n, b_n) stand for
    prod z_j^a_j conj(z_j)^b_j."""

    __slots__ = ()

    @staticmethod
    def from_expr(e: ex.Expr, n: int) -> ZPoly:
        """Expansion of a normalized expression (conj on variables only, no
        Re or Im)."""
        if isinstance(e, ex.Const):
            return ZPoly.constant(n, e.value)
        if isinstance(e, ex.Var):
            key = [0] * (2 * n)
            key[2 * (e.index - 1) + e.conjugated] = 1
            return ZPoly(n, {tuple(key): 1.0 + 0j})
        if isinstance(e, ex.Neg):
            return -ZPoly.from_expr(e.operand, n)
        if isinstance(e, ex.Add):
            return ZPoly.from_expr(e.left, n) + ZPoly.from_expr(e.right, n)
        if isinstance(e, ex.Sub):
            return ZPoly.from_expr(e.left, n) - ZPoly.from_expr(e.right, n)
        if isinstance(e, ex.Mul):
            return ZPoly.from_expr(e.left, n) * ZPoly.from_expr(e.right, n)
        if isinstance(e, ex.Pow):
            return ZPoly.from_expr(e.base, n).pow(e.exponent)
        raise TypeError(f"not a normalized Expr node: {e!r}")

    def diff_z(self, j: int) -> ZPoly:
        """d/dz_j (j is 1-based)."""
        return self.diff(2 * (j - 1))

    def diff_zbar(self, j: int) -> ZPoly:
        """d/dconj(z_j) (j is 1-based)."""
        return self.diff(2 * j - 1)

    def derivatives(self) -> tuple[list[ZPoly], list[ZPoly], list[list[ZPoly]]]:
        """(dz, dzbar, levi) with dz[j] = d/dz_j, dzbar[k] = d/dconj(z_k) and
        levi[j][k] = d2/dz_j dconj(z_k) (0-based j, k).  A Levi coefficient,
        a_j (b_k c), carries at most two roundings per component."""
        n = self.n
        dzbar = [self.diff_zbar(k + 1) for k in range(n)]
        return ([self.diff_z(j + 1) for j in range(n)], dzbar,
                [[d.diff_z(j + 1) for d in dzbar] for j in range(n)])

    def eval_point(self, z: Sequence[complex]) -> complex:
        return self.to_real().eval_point(z)

    def to_real(self) -> RealPoly:
        """The same polynomial in the real coordinates (z_j = x_j + i y_j).

        Rounding (u = 2^-53): a monomial expands exactly, with integer or
        integer times i coefficients g (below total degree 53).  A real term
        that m monomials c z^a conj(z)^b contribute to is the sum of their
        products c g, each rounded once per component, so each component lies
        within gamma_m sum |c g| of the exact sum, gamma_m = m u / (1 - m u).
        """
        out = RealPoly(self.n)
        for key, c in self.terms.items():
            for k, g in _real_monomial(self.n, key):
                out._set(k, out.terms.get(k, 0j) + c * g)
        return out


@functools.lru_cache(maxsize=4096)
def _real_monomial(n: int, key: tuple[int, ...]) -> tuple[tuple[tuple[int, ...], complex], ...]:
    """The terms of prod z_j^a_j conj(z_j)^b_j in the real coordinates."""
    m = RealPoly.constant(n, 1.0 + 0j)
    for v, e in enumerate(key):
        if e:
            x, y = [0] * (2 * n), [0] * (2 * n)
            x[v - v % 2] = y[v - v % 2 + 1] = 1
            # z_j = x_j + i y_j or conj(z_j) = x_j - i y_j
            zv = RealPoly(n, {tuple(x): 1.0 + 0j, tuple(y): -1j if v % 2 else 1j})
            m = m * zv.pow(e)
    return tuple(m.terms.items())


class RealPoly(_Poly):
    """Polynomial sum of coeff * prod(v_i^e_i) over the 2n real coordinates."""

    __slots__ = ("_pack", "_point_pack")

    def __init__(self, n: int, terms: dict[tuple[int, ...], complex] | None = None):
        super().__init__(n, terms)
        self._pack = None
        self._point_pack = None

    @staticmethod
    def from_expr(e: ex.Expr, n: int) -> RealPoly:
        """Expansion of any expression, through ZPoly (rounding: ZPoly.to_real)."""
        return ZPoly.from_expr(ex.normalize(e), n).to_real()

    # -- evaluation ----------------------------------------------------------

    def pack(self) -> TermPack:
        """This polynomial alone, laid out for _eval_box_raw (cached).

        Raises ValueError above MAX_TERMS terms or MAX_DEGREE, where the
        sums of _eval_box_raw or the powers of power_tables would no longer
        be sound.
        """
        if self._pack is None:
            self._pack = TermPack((self,))
        return self._pack

    def point_pack(self) -> PointPack:
        """This polynomial alone, laid out for PointPack.eval (cached)."""
        if self._point_pack is None:
            self._point_pack = PointPack((self,))
        return self._point_pack

    def eval_point(self, z: Sequence[complex]) -> complex:
        return complex(self.point_pack().eval([real_coords(z)])[0, 0])

    def eval_batch(self, xs) -> np.ndarray:
        """Evaluate at many real-coordinate points; xs has shape (m, 2n)."""
        return self.point_pack().eval(xs)[:, 0]

    def eval_box(self, box: ParamBox) -> Rect:
        """Sound rectangle enclosure over the box."""
        rlo, rhi, ilo, ihi = _eval_box_raw(self.pack(), [box.lo], [box.hi])[0, 0].tolist()
        return Rect(Interval(rlo, rhi), Interval(ilo, ihi))


def real_coords(z: Sequence[complex]) -> list[float]:
    """(x_1, y_1, ..., x_n, y_n) of a point (z_1, ..., z_n) of C^n."""
    xs: list[float] = []
    for zz in z:
        zz = complex(zz)
        xs.append(zz.real)
        xs.append(zz.imag)
    return xs


# ---------------------------------------------------------------------------
# Batched kernels (hot path for the rigor module)
#
# Every interval kernel takes `lo`, `hi` arrays of shape (boxes, coordinates)
# and evaluates all boxes at once, in the operation order of a loop over one
# box, so each box's bounds are bit-identical however the boxes are batched.
# PointPack and the pointwise quantities of trgeom and rigor do the same over
# points, by the same rules:
#
# * sums run left to right (a loop over the terms, or np.add.accumulate along
#   the summed axis; never the pairwise np.sum);
# * powers are product chains, x^k = x^(k-1) * x, in plain numpy products,
#   which are correctly rounded wherever they run (numpy's ** and np.power are
#   not, and may depend on the CPU and on an element's place in the array);
# * magnitudes are np.hypot, the C library's hypot (the one abs(complex)
#   takes), called once per element whatever the batch;
# * np.minimum / np.maximum stand for comparisons whose ties only differ in
#   the sign of a zero, where no later step can see that sign (it is squared,
#   taken in absolute value, added to a sum that starts from +0.0, or followed
#   by subtracting a positive widening).
#
# The interval kernels run under np.errstate: a box far enough out that a
# power overflows gets infinite bounds, still sound, or NaN ones, which prove
# nothing, and no warning.  The pointwise ones raise OverflowError instead
# (finite_or_overflow): a probe value that left the doubles is no evidence.
# ---------------------------------------------------------------------------

def complex_array(re: np.ndarray, im: np.ndarray) -> np.ndarray:
    """The complex array with these parts, signed zeros and all (re + 1j * im
    would round through a complex product)."""
    out = np.empty(np.shape(re), dtype=np.complex128)
    out.real = re
    out.imag = im
    return out


def finite_or_overflow(x: np.ndarray, what: str) -> np.ndarray:
    """x, unless some element is infinite or NaN: then OverflowError."""
    if not np.isfinite(x).all():
        raise OverflowError(f"{what} is not finite at some point")
    return x


def _max(a, b):
    """Python's max(a, b) element by element: b only where b > a."""
    return np.where(b > a, b, a)


def _min(a, b):
    """Python's min(a, b) element by element: b only where b < a."""
    return np.where(b < a, b, a)


def sequential_sum(x: np.ndarray, axis: int) -> np.ndarray:
    """Left-to-right sum along `axis`, the order of a scalar accumulation."""
    return np.add.accumulate(x, axis=axis).take(-1, axis=axis)


def power_tables(lo: np.ndarray, hi: np.ndarray, max_deg: int) -> np.ndarray:
    """Enclosures of the powers of each coordinate over each box, shape
    (2, boxes, coordinates, max_deg + 1): coordinate v to the power k lies in
    [tables[0, :, v, k], tables[1, :, v, k]].

    Odd powers are [lo^k, hi^k]; even powers are [mig^k, mag^k], with mag the
    largest magnitude in [lo, hi] and mig the least (0 when the interval
    straddles 0).  Since lo <= hi, mig = max(lo, -hi, 0) and mag =
    max(-lo, hi).  Each end is a product chain x^k = x^(k-1) * x of its own
    base (never numpy's **), and from k = 2 on the pair is widened outward
    by d = INFLATION * M + _TINY, M = max(-lower end, upper end) the larger
    magnitude of its two ends (rounding is monotone, so the ends stay
    ordered).

    Rounding (u = 2^-53, INFLATION = 2^-40 = 8192u).  While the partial
    powers are normal numbers, the k - 1 products of a chain err by at most
    gamma_{k-1} = (k-1)u / (1 - (k-1)u) of the exact x^k, and the
    subtraction (addition) of d by u of its result; for k <= MAX_DEGREE =
    4096 that is under 4097u + O(u^2) of M, within the 8192u of d.  For
    |x| < 1 the partial powers decrease, so once one is subnormal each later
    product adds at most 2^-1075 absolute error and shrinks the earlier error
    by |x|: under (k-1) 2^-1075 in all, far below _TINY = 1e-300; for
    |x| >= 1 no partial power underflows.  A chain that overflows gives an
    infinite end, and the widening then gives infinite or NaN ends: an
    infinite end is still a sound bound, and a NaN end makes every bound
    computed from it NaN, which no comparison takes for a proof.  TermPack
    enforces the degree bound, so this carries no check.
    """
    lo = np.asarray(lo, dtype=float)
    hi = np.asarray(hi, dtype=float)
    tables = np.empty((2,) + lo.shape + (max_deg + 1,))
    tables[..., 0] = 1.0
    if max_deg >= 1:
        tables[0, ..., 1] = lo
        tables[1, ..., 1] = hi
    if max_deg >= 2:
        base = np.empty((4,) + lo.shape)  # lo, hi, mig, mag
        base[0] = lo
        base[1] = hi
        np.maximum(lo, -hi, out=base[2])
        np.maximum(base[2], 0.0, out=base[2])
        np.maximum(-lo, hi, out=base[3])
        power = base
        for k in range(2, max_deg + 1):
            power = power * base
            tables[..., k] = power[2:] if k % 2 == 0 else power[:2]
        ends = tables[..., 2:]
        d = np.maximum(-ends[0], ends[1])
        d *= INFLATION
        d += _TINY
        ends[0] -= d
        ends[1] += d
    return tables


def _layout(polys: Sequence[RealPoly], stride: int):
    """The terms of `polys`, polynomial by polynomial in sorted key order,
    reordered by their number of factors, most first, so that factor step s
    of the monomial products runs over a prefix of them.  Returns (steps,
    coeffs, rows): `steps[s]` holds that prefix's factor s, as the column
    v * stride + e of x_v^e in a flattened table of powers; `coeffs` the
    coefficients in that order; `rows[p]` the columns of polynomial p's terms
    in its sorted key order."""
    terms = [([(v, e) for v, e in enumerate(key) if e], p.terms[key], i)
             for i, p in enumerate(polys) for key in sorted(p.terms)]
    order = sorted(range(len(terms)), key=lambda t: -len(terms[t][0]))
    steps = [np.array([v * stride + e for v, e in (terms[t][0][s] for t in order
                                                   if len(terms[t][0]) > s)],
                      dtype=np.intp)
             for s in range(len(terms[order[0]][0]) if terms else 0)]
    coeffs = np.array([terms[t][1] for t in order], dtype=np.complex128)
    column = {t: col for col, t in enumerate(order)}
    rows = [[] for _ in polys]
    for t, (_, _, i) in enumerate(terms):
        rows[i].append(column[t])
    return steps, coeffs, rows


class TermPack:
    """The terms of a list of RealPolys, laid out for _eval_box_raw.

    `steps` and `coeffs` (rows re, im) are those of _layout, with the
    columns of the flattened power tables of a box (stride max_degree + 1).
    The term contributions of a box are laid out in four blocks of `size`
    columns and a zero (real lower, imaginary lower, real upper, imaginary
    upper bounds); `gather[s, p, c]` is the s-th column summed into
    component c = (re_lo, re_hi, im_lo, im_hi) of polynomial p, in p's
    sorted term order, padded with zeros.  A term with a zero real
    (imaginary) coefficient takes no part in the real (imaginary) sums.
    `empty` lists the polynomials without terms.
    """

    __slots__ = ("dims", "max_degree", "size", "steps", "coeffs", "gather",
                 "widen", "empty")

    def __init__(self, polys: Sequence[RealPoly]):
        for p in polys:
            if len(p.terms) > MAX_TERMS:
                raise ValueError(f"{len(p.terms)} terms: interval evaluation is "
                                 f"sound for at most {MAX_TERMS}")
            if p.total_degree() > MAX_DEGREE:
                raise ValueError(f"degree {p.total_degree()}: interval evaluation is "
                                 f"sound up to degree {MAX_DEGREE}")
        self.dims = 2 * polys[0].n
        self.max_degree = max(p.total_degree() for p in polys)
        self.steps, c, rows = _layout(polys, self.max_degree + 1)
        self.coeffs = np.array([c.real, c.imag])
        self.size = size = len(c)
        lists = [[block * (size + 1) + col for col in cols if self.coeffs[part - 1, col]]
                 for cols in rows for block, part in ((0, 1), (2, 1), (1, 2), (3, 2))]
        width = max(map(len, lists))
        gather = np.array([cols + [size] * (width - len(cols)) for cols in lists],
                          dtype=np.intp).reshape(len(polys), 4, width)
        self.gather = np.ascontiguousarray(gather.transpose(2, 0, 1))
        self.widen = INFLATION * (np.array([len(p.terms) for p in polys], dtype=float) + 1)
        self.empty = [i for i, p in enumerate(polys) if not p.terms]


class PointPack:
    """The terms of a list of RealPolys, laid out to evaluate them all at many
    points at once; every point evaluation of the package goes through it.

    Per point, in the arithmetic of the interval kernels: x_v^e is a product
    chain, a monomial is 1.0 times its factors in variable order, a term is
    the monomial times the real and the imaginary part of its coefficient,
    and each polynomial sums its terms left to right from 0.0, in sorted key
    order, as TermPack does, so two polynomials equal term for term evaluate
    to the same bits.  `steps` and `coeffs` (rows re, im) are those of
    _layout, with the columns of the flattened power table of a point
    (stride max_degree + 1).  Row p of `gather` lists the term columns
    of polynomial p, after and padded with column `size`, which holds 0.0: a
    sum that starts from +0.0 is never -0.0, so the padding adds nothing.
    """

    __slots__ = ("dims", "max_degree", "size", "steps", "coeffs", "gather")

    def __init__(self, polys: Sequence[RealPoly]):
        self.dims = 2 * polys[0].n
        self.max_degree = max(p.total_degree() for p in polys)
        self.steps, c, rows = _layout(polys, self.max_degree + 1)
        self.coeffs = np.array([c.real, c.imag])
        self.size = size = len(c)
        width = max(map(len, rows))
        self.gather = np.array([[size] + r + [size] * (width - len(r)) for r in rows],
                               dtype=np.intp)

    @np.errstate(all="ignore")
    def eval(self, xs) -> np.ndarray:
        """Values at the rows of xs (real coordinates), shape (points,
        polynomials); _CHUNK rows at a time, which bounds the temporaries.
        Raises OverflowError where a value is not finite."""
        xs = np.asarray(xs, dtype=float)
        if len(xs) > _CHUNK:
            return np.concatenate([self.eval(xs[s:s + _CHUNK])
                                   for s in range(0, len(xs), _CHUNK)])
        powers = np.ones((len(xs), self.dims, self.max_degree + 1))
        for k in range(1, self.max_degree + 1):
            powers[..., k] = powers[..., k - 1] * xs[:, :self.dims]
        powers = powers.reshape(len(xs), -1)
        m = np.ones((len(xs), self.size))
        for idx in self.steps:
            m[:, :len(idx)] *= powers[:, idx]
        parts = np.zeros((len(xs), 2, self.size + 1))
        np.multiply(self.coeffs, m[:, None, :], out=parts[:, :, :-1])
        sums = finite_or_overflow(sequential_sum(parts[:, :, self.gather], axis=-1),
                                  "a polynomial value")
        return complex_array(sums[:, 0], sums[:, 1])


@np.errstate(all="ignore")
def _eval_box_raw(pack: TermPack, lo, hi) -> np.ndarray:
    """Enclosures (re_lo, re_hi, im_lo, im_hi) of the pack's polynomials over
    each box, shape (boxes, polynomials, 4); the boxes are the rows of `lo`,
    `hi`, 2n coordinates each.

    Rounding (u = 2^-53, recursive summation bounds as in Higham, "Accuracy
    and Stability of Numerical Algorithms", ch. 4).  Monomial products are
    widened outward after every multiplication by INFLATION = 2^-40 of their
    magnitude; the sums over a polynomial's k terms are not.  They are sound
    because of that slack:

    * power_tables encloses every power (see its docstring), and a
      monomial is the product of its factors' enclosures;
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

    TermPack enforces that bound, and the degree bound of power_tables,
    once per polynomial, so this kernel carries no check.  A polynomial
    without terms encloses to exactly 0.  A box whose powers or products
    overflow gets inf or NaN ends (see power_tables), and no warning.

    The enclosure is of the polynomial as expanded: its coefficients count as
    exact, although from_expr and ZPoly.to_real rounded them to nearest.
    """
    boxes = len(lo)
    parts = _term_parts(pack, lo, hi)
    sums = np.zeros((boxes,) + pack.gather.shape[1:])
    for cols in pack.gather:
        sums += parts[:, cols]
    d = pack.widen[:, None] * np.maximum(-sums[..., 0::2], sums[..., 1::2]) + _TINY
    sums[..., 0::2] -= d
    sums[..., 1::2] += d
    if pack.empty:
        sums[:, pack.empty] = 0.0
    return sums


def _term_parts(pack: TermPack, lo, hi) -> np.ndarray:
    """The bounds of every term's real and imaginary part over each box, in
    the layout `TermPack.gather` indexes: shape (boxes, 4 (size + 1))."""
    boxes = len(lo)
    prods = _monomials(pack, lo, hi)[:, :, None, :] * pack.coeffs  # (2, boxes, 2, size)
    parts = np.zeros((boxes, 4, pack.size + 1))
    np.minimum(prods[0], prods[1], out=parts[:, :2, :-1])
    np.maximum(prods[0], prods[1], out=parts[:, 2:, :-1])
    return parts.reshape(boxes, 4 * (pack.size + 1))


def _monomials(pack: TermPack, lo, hi) -> np.ndarray:
    """Enclosures of every monomial over each box, shape (2, boxes, size):
    lower ends, then upper ends, widened after each factor like the powers
    (see power_tables); 1 for a constant term.  The first factor's ends are
    the monomial's (its product with 1.0 is exact); after that the ends are
    the least and greatest of the four end products."""
    lo = np.asarray(lo, dtype=float)
    hi = np.asarray(hi, dtype=float)
    boxes = len(lo)
    tables = power_tables(lo, hi, pack.max_degree).reshape(
        2, boxes, pack.dims * (pack.max_degree + 1))
    m = np.ones((2, boxes, pack.size))
    for step, idx in enumerate(pack.steps):
        k = len(idx)
        low, high = ends = tables[:, :, idx]
        if step:
            prods = (m[:, None, :, :k] * ends[None]).reshape(4, boxes, k)
            low, high = prods.min(axis=0), prods.max(axis=0)
        d = np.maximum(-low, high)
        d *= INFLATION
        d += _TINY
        np.subtract(low, d, out=m[0, :, :k])
        np.add(high, d, out=m[1, :, :k])
    return m


@np.errstate(all="ignore")
def dist_upper(enc: np.ndarray, cx=0.0, cy=0.0) -> np.ndarray:
    """np.hypot of the largest real and imaginary distances from enclosures
    (..., 4) to cx + i cy: |value - (cx + i cy)| up to the rounding of the
    subtractions and of hypot.  As lo <= hi, the largest distance of
    [lo, hi] from c is max(c - lo, hi - c), up to the sign of a zero."""
    return np.hypot(np.maximum(cx - enc[..., 0], enc[..., 1] - cx),
                    np.maximum(cy - enc[..., 2], enc[..., 3] - cy))


def mag_upper(enc: np.ndarray) -> np.ndarray:
    """Upper bounds of |value| from enclosures (..., 4)."""
    return dist_upper(enc) * (1.0 + INFLATION)
