"""Rigorous interval bounds of m, L and residual sums over boxes, with
adaptive bisection.

Bounds are computed from the canonical-polynomial derivative tables of a
ProblemSystem:

* m_lower: lower bound of lambda_min(B* B) over the interval enclosure of
  the dbar-matrix B: Gershgorin, and for n = 2 also the closed form of the
  2x2 eigenvalue, whichever is larger,
* L_upper: upper bound of the numerical radius of each Levi matrix
  enclosure: its Frobenius norm, and for n >= 2 also sqrt(||A||_1 ||A||_inf)
  (graphs) or the 2x2 Hermitian closed form (submersions, n = 2), whichever
  is smaller,
* residual_upper: upper bound of the residual sum.  For a graph, w ranges
  over omega's open disc D(c, r) in each coordinate and is eliminated in
  closed form: for z fixed, sup over w in D(c, r) of |w - f(z)| is
  |f(z) - c| + r.

All bounds are evaluated for many boxes at once (_BoxBounds, over the
batched kernels of realpoly), bit for bit as a loop over single boxes would.
Every subdivision tree is grown by one routine, subdivide: it keeps each level
as the rows of `lo`, `hi` arrays, clips them to an optional region (product
of per-coordinate discs, i.e. the omega polydisc), evaluates a check on the
whole level and bisects each undecided box at split_coords, all on arrays; a
check returns arrays too.  Only at the end does it aggregate the statuses
and give the root its leaves as arrays (Leaves), which verify_box's report,
certify and replay read; the root, the one VerifyNode it builds, is a view on
the level arrays whose `.children` are made on access.  verify_box establishes
the strict tube inclusion residual < m/(cL) with it; the comparison is division-free
(residual_upper * c * L_upper < m_lower * (1 - margin)) so an infinite
radius needs no special casing.  Every box holds the 2n real coordinates of
z only; for a graph the w discs come from the region.  The tube tree weighs
each width by how fast the residual can change along that coordinate
(split_scale), the smear rule of interval branch-and-bound (Ratz and
Csendes, J. Global Optim. 7 (1995) 183-207); any weights tile the box, so
they move no proof.
verify_totally_real proves m_lower > 0 with subdivide, and certify's
K-in-omega check uses it too; both keep unit weights.

Boxes a check leaves undecided are probed pointwise at probe_points: the
box's midpoint when it lies strictly inside the region, else the region's
centre clamped to the box.  A level's probe points are evaluated at once
(ProblemSystem.evaluate), and the pointwise quantities come from the
batched functions of trgeom (m_values, L_values, radii, totally_real), the
ones its one-point functions are views on, so a FAIL witness and any later
check of it read the same bits.  Probes only look for witnesses, which are
evidence checked in floating point with a 1e-9 guard, never part of a proof;
they are plain numpy arithmetic like the bounds, and raise OverflowError
rather than build a witness on a value that left the doubles.
"""

from __future__ import annotations

import logging
import math
import time
from dataclasses import dataclass, field

import numpy as np

from .intervals import INFLATION, ParamBox
from .realpoly import (_TINY, _eval_box_raw, _max, _min, dist_upper, finite_or_overflow,
                       mag_upper, sequential_sum)
from .trgeom import (GRAPH, L_values, ProblemSystem, m_values, radii, radius_factor,
                     totally_real)

log = logging.getLogger(__name__)

PROVED = "PROVED"
FAILED = "FAILED"
INCONCLUSIVE = "INCONCLUSIVE"

_VIOLATION_GUARD = 1e-9
_PRUNE_GUARD = 1.0 + 1e-12
# relative pull of an analytic witness off the boundary of omega, so that it
# lies strictly inside the open polydisc
_WITNESS_PULL = 1e-9


@dataclass(frozen=True)
class BoundReport:
    m_lower: float
    L_upper: float
    residual_upper: float
    radius_lower: float
    depth: int
    leaf_count: int


@dataclass(frozen=True)
class Region:
    """Product of per-complex-coordinate open discs (the omega polydisc).

    discs[j] = (center_re, center_im, radius) for the complex coordinates, z
    first, then w for graph problems.  Clipping and pruning use the discs
    that fit the box's length, so on a z-box the w discs are left to the
    residual bound.
    """

    discs: tuple[tuple[float, float, float], ...]
    # the discs as arrays, built once: (center_re, center_im, radius) in a
    # row per disc, the centres' coordinates in box order, and radius^2
    table: np.ndarray = field(init=False, repr=False, compare=False)
    centers: np.ndarray = field(init=False, repr=False, compare=False)
    rr: np.ndarray = field(init=False, repr=False, compare=False)

    @np.errstate(all="ignore")
    def __post_init__(self):
        table = np.array(self.discs, dtype=float).reshape(-1, 3)
        object.__setattr__(self, "table", table)
        object.__setattr__(self, "centers", table[:, :2].ravel())
        object.__setattr__(self, "rr", table[:, 2] * table[:, 2])

    @np.errstate(all="ignore")
    def clip(self, lo, hi):
        """(lo', hi', inside) for boxes given as rows of `lo`, `hi`.

        Row i of lo', hi' is the AABB of (box i intersect region) when
        inside[i]; otherwise box i provably misses the region in some
        coordinate and its row means nothing.  Sound: the clipped box
        contains every point of the box that lies in the region, and is
        contained in the box.  Comparisons keep the semantics of Python's
        max and min, so each row comes out as a loop over single boxes would
        clip it, signed zeros included.
        """
        lo = np.array(lo, dtype=float)
        hi = np.array(hi, dtype=float)
        nd = min(len(self.discs), lo.shape[1] // 2)
        if nd == 0:
            return lo, hi, np.ones(len(lo), dtype=bool)
        # x and y coordinates side by side, as in the box
        c, rr, zlo, zhi = self.centers[:2 * nd], self.rr[:nd], lo[:, :2 * nd], hi[:, :2 * nd]
        d = _max(_max(zlo - c, c - zhi), 0.0)
        d2 = d * d
        inside = ~(d2[:, 0::2] + d2[:, 1::2] >= rr * _PRUNE_GUARD).any(axis=1)
        # the half-chord along x at distance dy from the centre, and along y at dx
        s = np.empty_like(d)
        s[:, 0::2] = rr - d2[:, 1::2]
        s[:, 1::2] = rr - d2[:, 0::2]
        s = np.sqrt(_max(s, 0.0)) * _PRUNE_GUARD
        a = _max(zlo, c - s)
        b = _min(zhi, c + s)
        mid = 0.5 * (a + b)
        crossed = a > b
        zlo[...] = np.where(crossed, mid, a)
        zhi[...] = np.where(crossed, mid, b)
        return lo, hi, inside


@dataclass(frozen=True, eq=False)
class Leaves:
    """A tree's leaves, a row each, depth first: box (`lo`, `hi`), `depth`,
    `outside` (the box misses the region: PROVED, unclipped), status `codes`
    (see STATUSES) and the check's `values`, NaN for OUTSIDE (None if none)."""

    lo: np.ndarray
    hi: np.ndarray
    depth: np.ndarray
    outside: np.ndarray
    codes: np.ndarray
    values: np.ndarray | None

    def statuses(self) -> list[str]:
        """Each leaf's status, OUTSIDE for a box that misses the region."""
        return ["OUTSIDE" if out else STATUSES[code]
                for out, code in zip(self.outside.tolist(), self.codes.tolist())]


@dataclass(eq=False)
class VerifyNode:
    """One box of a subdivision tree: a view on row `row` of level `depth` of
    the level arrays of subdivide, which builds the root only.  `box` (the
    clipped box, unclipped when OUTSIDE), `status`, `outside` and `children`
    are read from them on each access.  Only the root carries the tree's
    Leaves, a FAILED tree's witness, and for a tube tree a report and the
    split scale its tree was bisected by."""

    levels: list = field(repr=False)  # (lo, hi, outside, codes, values, parents) per depth
    depth: int = 0
    row: int = 0
    witness: dict | None = None
    leaves: Leaves | None = None
    report: BoundReport | None = None
    split_scale: tuple[float, ...] | None = None

    @property
    def box(self) -> ParamBox:
        lo, hi = self.levels[self.depth][:2]
        return ParamBox._new(lo.shape[1] // 2, tuple(lo[self.row].tolist()),
                             tuple(hi[self.row].tolist()))

    @property
    def status(self) -> str:
        return STATUSES[self.levels[self.depth][3][self.row]]

    @property
    def outside(self) -> bool:
        return bool(self.levels[self.depth][2][self.row])

    @property
    def children(self) -> list[VerifyNode]:
        """The two halves of a bisected box, in split order, else []."""
        parents = self.levels[self.depth][5]
        i = int(np.searchsorted(parents, self.row))
        if i == len(parents) or parents[i] != self.row:
            return []
        return [VerifyNode(self.levels, self.depth + 1, 2 * i + k) for k in (0, 1)]


# ---------------------------------------------------------------------------
# Batched bound kernels
# ---------------------------------------------------------------------------

# most complex coordinates for which the rounding argument of _BoxBounds holds
MAX_N = 180


class _BoxBounds:
    """Bounds of m, L and the residual sum over many boxes at once.

    Each method takes `lo`, `hi` arrays of shape (boxes, 2n), z-boxes (a
    graph residual takes w from omega's discs), evaluates the system's
    polynomials over all boxes with one call of _eval_box_raw, and returns
    one bound per box, computed in the order of a loop over one box.  Every
    operation is a plain numpy one, applied to whole arrays: products, sums
    and square roots are correctly rounded, and magnitudes are np.hypot, the
    C library's hypot, which is within 1 ulp (the budget math.hypot was
    given before) and the same bits for an element wherever it sits in the
    batch.  Boxes whose enclosures overflow get infinite bounds, still
    sound, or NaN ones, which no comparison takes for a proof (see
    realpoly.power_tables), and no warning.

    Rounding (u = 2^-53, I = INFLATION = 2^-40 = 8192u, n <= MAX_N so that
    rows <= 2n <= 360).  The enclosures of _eval_box_raw contain the true
    ranges with room to spare: after the summation error is paid, their final
    widening leaves at least (k + 1/2) I >= 1.5 I of each component's
    magnitude on both sides (see its docstring).  Below, "hypot" is np.hypot
    and errs by at most 1 ulp, 2u of its result.

    * m_lower.  Each |B_rj|^2 is at least mig(re)^2 + mig(im)^2; three
      roundings compute that and a fourth the product with (1 - I), so the
      result stays below it by (I - 4u) of itself.  The diagonal sum over
      the rows errs by at most (rows - 1)u of it, and the final subtraction
      by u, both within that slack.
      In the off-diagonal sums H_ji = sum_r conj(B_rj) B_ri, a product end
      p* of two enclosures is rounded by at most u |p*|, and the extra 1.5 I
      of both factors moves it outward by at least 3 I |p*|; the subtraction
      (addition) of two ends and the sum over the rows, (rows + 1)u of the
      magnitudes, stay within that, so the computed real and imaginary
      ranges of H_ji contain the true ones.  The factor (1 + 4 I) then covers
      hypot (under 1 ulp), the sum over i (n - 2 roundings) and its own
      product, for n up to 32,765.
      For n = 2 the bound is also taken from the closed form
      lambda_min = (a + d)/2 - sqrt(((a - d)/2)^2 + |b|^2) of the Hermitian
      B* B = [[a, b], [conj b, d]], which grows with a and d and falls with
      |b|, so it is least at the diagonal lower bounds a, d >= 0 above and
      the bound b of |H01| (_eig2_min_lower).  It computes
      2 lambda = (a + d)(1 - I) - h with h = hypot(a - d, 2b).  The product
      is at most the exact a + d times (1 - I + 2u), as a, d >= 0.  a - d
      errs by u of itself, 2b is exact and b lacks at most 1 ulp, so h lacks
      at most 5u of the exact root; where the difference is positive, that
      root is below a + d, so this loss, and the u of a + d the subtraction
      errs by, are at most 6u of a + d.  The (1 - I) covers all of them.
      Where the result is at most _TINY = 1e-300 it is replaced by 0, so
      a + d is a normal number wherever the bound is used and an underflow
      of a - d or of hypot (exact, or 2^-1074 absolute) is covered too;
      halving is then exact.  The larger of the Gershgorin and the
      closed-form bound is kept, box by box (a NaN closed form leaves the
      Gershgorin bound).
    * L_upper.  Each Levi entry's magnitude is bounded by hypot times
      (1 + I); squaring, the sum of n^2 squares, sqrt and the final (1 + I)
      lose at most (n^2 + 9)u / 2 relative, within the 2 I of the two
      factors for n <= MAX_N.  For graphs with n >= 2 the bound is also
      taken from w(A) <= ||A||_2 <= sqrt(||A||_1 ||A||_inf), on the same
      magnitude bounds: two sums of n non-negative terms, two square roots,
      a product and the final (1 + I) lose at most (2n + 2)u relative.  For
      submersions with n = 2 it is also taken from w(A) <= rho(H) + ||K||_F
      with H = (A + A*)/2 and K = (A - A*)/2, which holds whether or not the
      tables of A are exactly conjugate (_levi2_upper).  Both eigenvalues
      of H grow with its diagonal, and lambda_max and -lambda_min with
      |H01|, so rho(H) is largest over the box at the bound of |H01| and at
      the upper ends of Re A00 and Re A11 or at their lower ends.  Its
      inputs are the enclosure ends, and the exact sum of two ends bounds
      the sum of two entries, as in interval addition.  Every quantity it
      computes is a sum, difference, magnitude or hypot of such numbers,
      each rounding errs by u (hypot by 2u) of its own result, and all of
      them enter the result with a positive sign; the longest chain (a sum,
      two hypot and three more sums and products) loses at most 8u
      relative, which the final (1 + I) covers.  The widening of _eval_box_raw makes every
      enclosure at least 2 _TINY wide, so the magnitudes that enter h01, the
      skew part and both norms are at least _TINY, normal numbers, and
      nothing in these two bounds underflows (the norms take their square
      roots before the product for that reason).  The smaller of Frobenius
      and the new bound is kept for each Levi matrix.
    * residual_upper.  Every term is a non-negative sum of correctly rounded
      operations (or within 1 ulp, for hypot), about rows + 4 of them,
      which the final (1 + I) covers.
    """

    __slots__ = ("sys", "packs", "conj_cols", "cols")

    def __init__(self, sys: ProblemSystem):
        if sys.n > MAX_N:
            raise ValueError(f"n = {sys.n}: box bounds are sound for n <= {MAX_N}")
        self.sys = sys
        self.packs = sys.packs
        # for each off-diagonal entry H[j, i] of B* B, i != j in order: the
        # columns of a dbar row's enclosures that give the ends of Re and Im
        # of conj(B[r, j]) (Im negated: (-ihi, -ilo)) and of B[r, i]
        j, i = np.array([(j, i) for j in range(sys.n) for i in range(sys.n) if i != j],
                        dtype=np.intp).reshape(-1, 2).T
        self.conj_cols = 4 * j[:, None] + np.array([0, 1, 3, 2])
        self.cols = 4 * i[:, None] + np.arange(4)

    def values(self, lo, hi) -> np.ndarray:
        """Enclosures of the defining functions, shape (boxes, rows, 4)."""
        return _eval_box_raw(self.packs["value"], lo, hi)

    @np.errstate(all="ignore")
    def m_lower(self, lo, hi) -> np.ndarray:
        """Lower bounds of lambda_min(B* B) over the boxes (see _m)."""
        return self._m(_eval_box_raw(self.packs["dzbar"], lo, hi))

    @np.errstate(all="ignore")
    def L_upper(self, lo, hi) -> np.ndarray:
        """Upper bounds of the numerical radius of every Levi matrix over the
        boxes (see _L)."""
        return self._L(_eval_box_raw(self.packs["levi"], lo, hi))

    @np.errstate(all="ignore")
    def residual_upper(self, lo, hi, w_discs=None) -> np.ndarray:
        """Upper bounds of the residual sum over the boxes; a graph needs
        `w_discs`, (c_re, c_im, r) per w coordinate (see _residual)."""
        return self._residual(self.values(lo, hi), w_discs)

    @np.errstate(all="ignore")
    def tube(self, lo, hi, w_discs):
        """(m_lower, L_upper, residual_upper) over the boxes, from one
        evaluation of all the system's polynomials."""
        enc = _eval_box_raw(self.packs["all"], lo, hi)
        rows = self.sys.rows
        dz = rows + rows * self.sys.n
        return (self._m(enc[:, rows:dz]), self._L(enc[:, dz:]),
                self._residual(enc[:, :rows], w_discs))

    def _m(self, ents: np.ndarray) -> np.ndarray:
        """Diagonal entries are enclosed tightly via |entry|^2 = re^2 + im^2;
        off-diagonal entries of B* B are accumulated as rectangle sums of
        rectangle products so that sign cancellation between rows survives.
        Gershgorin turns them into one bound; for n = 2 the closed form of
        the 2x2 eigenvalue is used where it is larger."""
        n, rows, boxes = self.sys.n, self.sys.rows, len(ents)
        ents = ents.reshape(boxes, rows, n, 4)
        # the least magnitudes of the real and imaginary parts, max(lo, -hi, 0)
        mig = np.maximum(np.maximum(ents[..., 0::2], -ents[..., 1::2]), 0.0)
        sq = mig * mig
        best = sequential_sum((sq[..., 0] + sq[..., 1]) * (1.0 - INFLATION), axis=1)
        if n > 1:
            # H[j,i] = sum_r conj(B[r,j]) * B[r,i]: with a + ib = conj(B[r,j])
            # and c + id = B[r,i], real part a*c - b*d, imaginary part a*d + b*c;
            # the four end products of each of a*c, a*d, b*c, b*d at once
            flat = ents.reshape(boxes, rows, 4 * n)
            pairs = len(self.cols)
            ab = flat[:, :, self.conj_cols] * _CONJ
            cd = flat[:, :, self.cols]
            prods = (ab.reshape(boxes, rows, pairs, 2, 1, 2, 1)
                     * cd.reshape(boxes, rows, pairs, 1, 2, 1, 2)).reshape(
                         boxes, rows, pairs, 2, 2, 4)
            plo, phi = prods.min(axis=-1), prods.max(axis=-1)
            h = np.empty((boxes, rows, pairs, 4))  # ends of Re, then of Im
            np.subtract(plo[..., 0, 0], phi[..., 1, 1], out=h[..., 0])
            np.subtract(phi[..., 0, 0], plo[..., 1, 1], out=h[..., 1])
            np.add(plo[..., 0, 1], plo[..., 1, 0], out=h[..., 2])
            np.add(phi[..., 0, 1], phi[..., 1, 0], out=h[..., 3])
            h = sequential_sum(h, axis=1)
            off = np.hypot(_mag(h[..., 0], h[..., 1]), _mag(h[..., 2], h[..., 3]))
            if n == 2:
                # H10 = conj(H01), and its enclosure is H01's mirrored (the
                # same endpoint products, summed in the same order), so the
                # two magnitude bounds are the same number
                closed = _eig2_min_lower(best[:, 0], best[:, 1], off[:, 0])
            off = sequential_sum(off.reshape(len(off), n, n - 1), axis=2)
            best = best - off * (1.0 + 4.0 * INFLATION)
        best = best.min(axis=1)
        if n == 2:
            best = _max(best, closed)
        return np.where(best > 0.0, best, 0.0)

    def _L(self, enc: np.ndarray) -> np.ndarray:
        """Frobenius norm of each Levi matrix's entry bounds; for n >= 2 the
        smaller of that and sqrt(||A||_1 ||A||_inf) (graphs), or of that and
        the 2x2 Hermitian closed form (submersions, n = 2)."""
        n = self.sys.n
        mag = mag_upper(enc).reshape(len(enc), self.sys.rows, n, n)
        fro2 = sequential_sum((mag * mag).reshape(len(enc), self.sys.rows, n * n), axis=2)
        L = np.sqrt(fro2) * (1.0 + INFLATION)
        if n > 1 and self.sys.kind == GRAPH:
            col = sequential_sum(mag, axis=2).max(axis=2)
            row = sequential_sum(mag, axis=3).max(axis=2)
            L = _min(L, np.sqrt(col) * np.sqrt(row) * (1.0 + INFLATION))
        elif n == 2:
            L = _min(L, _levi2_upper(enc.reshape(len(enc), self.sys.rows, 4, 4)))
        return L.max(axis=1)

    def _residual(self, vals: np.ndarray, w_discs) -> np.ndarray:
        """The residual sum from the value enclosures: sum_r |value_r| for a
        submersion, and for a graph sum_nu sup |f_nu - w_nu| over w_nu in
        the disc D(c_nu, r_nu), which is at most dist_upper(f_nu, c_nu) + r_nu."""
        if self.sys.kind != GRAPH:
            terms = mag_upper(vals)
        elif w_discs is None:
            raise ValueError("a graph residual bound needs omega's w discs")
        else:
            cx, cy, r = np.asarray(w_discs, dtype=float).T
            terms = dist_upper(vals, cx, cy) + r
        return sequential_sum(terms, axis=1) * (1.0 + INFLATION)


# signs that turn the ends (rlo, rhi, ihi, ilo) of an entry into those of its conjugate
_CONJ = np.array([1.0, 1.0, -1.0, -1.0])


def _mag(lo, hi):
    """max(-lo, hi), the largest magnitude in [lo, hi] (lo <= hi), up to the
    sign of a zero."""
    return np.maximum(-lo, hi)


def _eig2_min_lower(a, d, b):
    """Lower bounds of lambda_min of every Hermitian [[a', b'], [conj b', d']]
    with a' >= a >= 0, d' >= d >= 0 and |b'| <= b (rounding: see _BoxBounds)."""
    twice = (a + d) * (1.0 - INFLATION) - np.hypot(a - d, 2.0 * b)
    return np.where(twice > _TINY, 0.5 * twice, 0.0)


def _levi2_upper(e: np.ndarray) -> np.ndarray:
    """Upper bounds of the numerical radius of 2x2 matrices A from the
    enclosures e[..., k, :] of A00, A01, A10, A11 (rounding: see _BoxBounds).

    w(A) <= rho(H) + ||K||_F for H = (A + A*)/2 and K = (A - A*)/2, and
    2 rho(H) = |a + d| + hypot(a - d, 2|H01|) for a = H00, d = H11.
    """
    rlo, rhi, ilo, ihi = e[..., 0], e[..., 1], e[..., 2], e[..., 3]
    # 2 H01 = A01 + conj(A10), 2 K01 = A01 - conj(A10)
    h01 = np.hypot(_mag(rlo[..., 1] + rlo[..., 2], rhi[..., 1] + rhi[..., 2]),
                   _mag(ilo[..., 1] - ihi[..., 2], ihi[..., 1] - ilo[..., 2]))
    k01 = np.hypot(_mag(rlo[..., 1] - rhi[..., 2], rhi[..., 1] - rlo[..., 2]),
                   _mag(ilo[..., 1] + ilo[..., 2], ihi[..., 1] + ihi[..., 2]))
    # both eigenvalues grow with a and d, so the largest |eigenvalue| over
    # the box is taken with a, d both at their upper or both at their lower ends
    rho = np.maximum(
        np.abs(rhi[..., 0] + rhi[..., 3]) + np.hypot(rhi[..., 0] - rhi[..., 3], h01),
        np.abs(rlo[..., 0] + rlo[..., 3]) + np.hypot(rlo[..., 0] - rlo[..., 3], h01))
    skew = np.hypot(np.hypot(_mag(ilo[..., 0], ihi[..., 0]), _mag(ilo[..., 3], ihi[..., 3])),
                    k01)
    return (0.5 * rho + skew) * (1.0 + INFLATION)


@np.errstate(all="ignore")
def _tube_holds(m_lo, L_up, r_up, c: float, margin: float):
    """The strict, division-free tube test r_up < m_lo (1 - margin) / (c L_up),
    box by box."""
    return (m_lo > 0.0) & (r_up * (c * L_up) < m_lo * (1.0 - margin))


def _w_discs(sys: ProblemSystem, dim: int, region: Region | None):
    """The omega discs of the w coordinates for a graph tube check on z-boxes
    of `dim` coordinates (None for a submersion, which has no w)."""
    if sys.kind != GRAPH:
        return None
    if dim != 2 * sys.n or region is None or len(region.discs) != 2 * sys.n:
        raise ValueError("graph tube checks take a z-box and a region with "
                         f"{sys.n} z discs and {sys.n} w discs")
    return region.table[sys.n:]


# -- public one-shot bound API ------------------------------------------------

def bound_m_below(sys: ProblemSystem, box: ParamBox) -> float:
    """Sound lower bound of m_value over the box (0 when vacuous)."""
    return float(_BoxBounds(sys).m_lower([box.lo], [box.hi])[0])


def bound_L_above(sys: ProblemSystem, box: ParamBox) -> float:
    """Sound upper bound of big_l_value over the box (see _BoxBounds._L)."""
    return float(_BoxBounds(sys).L_upper([box.lo], [box.hi])[0])


def bound_residual_above(sys: ProblemSystem, box: ParamBox,
                         region: Region | None = None) -> float:
    """Sound upper bound of the residual sum over the z-box.

    A graph needs a region of 2n discs, whose last n are the w discs the
    residual is bounded over (its z discs are not used here).
    """
    w_discs = _w_discs(sys, box.dim, region)
    return float(_BoxBounds(sys).residual_upper([box.lo], [box.hi], w_discs)[0])


def split_scale(sys: ProblemSystem, box: ParamBox) -> tuple[float, ...]:
    """Weights of the z coordinates for bisecting a tube tree over `box`.

    s_v is the sum over rows of an upper bound of |d value_r / dx_v| over
    the box, from one enclosure of every partial derivative of the value
    tables, so that width_v * s_v bounds how far the residual can move along
    coordinate v.  A zero weight takes the smallest positive one; when none
    is positive, or one is not finite, every weight is 1.  The weights only
    choose where boxes are cut, so no proof depends on them.
    """
    dims = 2 * sys.n
    enc = _eval_box_raw(sys.grad_pack, [box.lo], [box.hi])[0]
    s = sequential_sum(mag_upper(enc).reshape(dims, sys.rows), axis=1).tolist()
    positive = [x for x in s if x > 0.0]
    if not positive or not all(map(math.isfinite, s)):
        return (1.0,) * dims
    return tuple(x if x > 0.0 else min(positive) for x in s)


# ---------------------------------------------------------------------------
# Pointwise probes
# ---------------------------------------------------------------------------

def probe_points(lo, hi, region: Region | None) -> np.ndarray:
    """One point of each box, the rows of `lo`, `hi`: its midpoint, unless
    that misses the region.  The midpoint is kept when it lies strictly
    inside every region disc that fits the box's length, by
    np.hypot(x - cx, y - cy) < r (1 - _WITNESS_PULL), the test a graph
    witness must pass.  Otherwise, in the coordinates of those discs, the
    point is their centres clamped to the box (Python's min(max(c, lo), hi)),
    the point of the box nearest each centre, and in all other coordinates
    the midpoint.  Each row depends on its own box only."""
    lo = np.asarray(lo, dtype=float)
    hi = np.asarray(hi, dtype=float)
    pts = 0.5 * (lo + hi)
    nd = 0 if region is None else min(len(region.discs), lo.shape[1] // 2)
    if nd:
        cx, cy, r = region.table[:nd].T
        inside = (np.hypot(pts[:, 0:2 * nd:2] - cx, pts[:, 1:2 * nd:2] - cy)
                  < r * (1.0 - _WITNESS_PULL)).all(axis=1)
        out = ~inside
        c = np.column_stack([cx, cy]).ravel()
        pts[out, :2 * nd] = _min(_max(c, lo[out, :2 * nd]), hi[out, :2 * nd])
    return pts


@np.errstate(all="ignore")
def _probe_quantities(sys: ProblemSystem, pts: np.ndarray, table: np.ndarray,
                      violations_only: bool = False) -> tuple[np.ndarray, np.ndarray]:
    """(residual, tube radius) at each point, the rows of `pts` (z, then w
    for a graph), from `table`, the values of sys.evaluate("all") there: the
    residual sum of np.hypot magnitudes, left to right, and m_values,
    L_values and radii of trgeom.  The radius is 0 where m = 0 and inf where
    L = 0; a residual that is not finite raises OverflowError.

    With `violations_only`, numerical radii are computed only where the
    residual could reach the radius.  Since w(A) <= ||A||_2 <= ||A||_F, the
    radius is at least m / (c max_r ||A_r||_F); where the residual is below
    that by a relative 1e-6, far more than the rounding of either side, that
    lower bound is returned as the radius, and the residual stays under it.
    Elsewhere the radius is the same bits as without the option."""
    n = sys.n
    vals, B, lev = sys.split(table)
    re, im = vals.real, vals.imag
    if sys.kind == GRAPH:
        re, im = re - pts[:, 2 * n::2], im - pts[:, 2 * n + 1::2]
    residual = finite_or_overflow(sequential_sum(np.hypot(re, im), axis=1), "residual")
    m = m_values(sys, B)
    radius = np.zeros(len(pts))
    live = np.nonzero(m != 0.0)[0]
    lev = lev[live]
    if violations_only and n > 1 and (sys.kind == GRAPH or n > 2):  # numerical radii
        frob = np.sqrt(np.max(np.sum(np.abs(lev) ** 2, axis=(2, 3)), axis=1))
        floor = m[live] / (radius_factor(sys.kind) * frob)  # frob = 0: L = 0, radius inf
        safe = residual[live] < floor * (1.0 - 1e-6)
        radius[live[safe]] = floor[safe]
        live, lev = live[~safe], lev[~safe]
    radius[live] = radii(sys.kind, m[live], L_values(sys, lev))
    return residual, radius


@np.errstate(all="ignore")
def _tube_probe(sys: ProblemSystem, lo, hi, region: Region | None):
    """Pointwise tube check of boxes the bounds left undecided: at the probe
    point of each box, does residual >= radius (1 + guard) hold?  Returns the
    mask of the boxes where it does, and the FAIL witness of the first one.

    For a graph the point is (z, w) with z the probe point of the z-box,
    required strictly inside omega (else the box is left to its children),
    and w_nu = c_nu + r_nu (1 - pull) (c_nu - f_nu(z)) / |c_nu - f_nu(z)| the
    point of the w disc farthest from F(z): its residual falls short of the
    sup |f_nu(z) - c_nu| + r_nu by the pull only.
    """
    n = sys.n
    pts = probe_points(lo, hi, region)
    lanes = np.arange(len(pts))
    if sys.kind == GRAPH:
        cx, cy, r = region.table[:n].T
        inside = ~(np.hypot(pts[:, 0:2 * n:2] - cx, pts[:, 1:2 * n:2] - cy)
                   >= r * (1.0 - _WITNESS_PULL)).any(axis=1)
        lanes = lanes[inside]
        pts = pts[inside]
    violated = np.zeros(len(lo), dtype=bool)
    if not len(pts):
        return violated, None
    table = sys.evaluate("all", pts[:, :2 * n])
    if sys.kind == GRAPH:
        ws = []
        for j, (cx, cy, r) in enumerate(region.discs[n:]):
            # unit = away / |away| (1 where away = 0), w = c + k unit, with
            # away = c - f_nu(z) and k = r (1 - pull)
            ar, ai = cx - table[:, j].real, cy - table[:, j].imag
            mag = np.hypot(ar, ai)
            k = r * (1.0 - _WITNESS_PULL)
            ws += [cx + k * np.where(mag == 0.0, 1.0, ar / mag),
                   cy + k * np.where(mag == 0.0, 0.0, ai / mag)]
        pts = np.column_stack([pts] + ws)
    residual, radius = _probe_quantities(sys, pts, table, violations_only=True)
    bad = ~np.isinf(radius) & (residual >= radius * (1.0 + _VIOLATION_GUARD))
    violated[lanes[bad]] = True
    if not bad.any():
        return violated, None
    i = int(np.argmax(bad))
    pt = pts[i].tolist()
    pairs = [pt[k:k + 2] for k in range(0, len(pt), 2)]  # (re, im) per coordinate
    return violated, {"z": pairs[:n], "w": pairs[n:] if sys.kind == GRAPH else None,
                      "residual": float(residual[i]), "radius": float(radius[i])}


# ---------------------------------------------------------------------------
# Bisection, and the two rigor checks built on it
# ---------------------------------------------------------------------------

def split_coords(lo, hi, scale: tuple[float, ...] | None = None) -> list[int]:
    """The coordinate each box, a row of `lo`, `hi`, is bisected along: the
    v of the largest (hi_v - lo_v) * scale[v] (unit weights when `scale` is
    None, the widest coordinate), ties going to the lowest v."""
    widths = np.asarray(hi) - np.asarray(lo)
    if scale is not None:
        widths = widths * np.array(scale)
    return np.argmax(widths, axis=1).tolist()


# a check's status codes, in the order a parent aggregates them: the largest
# code wins
STATUSES = (PROVED, INCONCLUSIVE, FAILED)
PROVED_CODE, INCONCLUSIVE_CODE, FAILED_CODE = range(3)


def subdivide(box: ParamBox, evaluate, max_depth: int, node_budget: int,
              region: Region | None = None, name: str = "subdivision",
              scale: tuple[float, ...] | None = None) -> VerifyNode:
    """Level-synchronous bisection shared by every subdivision tree.

    A level is the rows of two arrays `lo`, `hi`, one box per row.  They are
    first clipped to `region` (when given) in one Region.clip: a box that
    misses it becomes an OUTSIDE leaf (PROVED, no value) and keeps its
    unclipped box, any other shrinks to the bounding box of its intersection
    with the region, which is sound and cuts the overhang at the boundary.
    `evaluate(lo, hi)` then gets the level's other boxes, possibly none, and
    returns (codes, values, witness): int8 status codes (see STATUSES), a
    (boxes, k) float array or None, and its first FAILED box's witness or None.
    PROVED and FAILED boxes are leaves; an INCONCLUSIVE box is bisected at
    split_coords(scale) while it lies above `max_depth` and the tree stays
    within `node_budget` nodes (the first boxes of a level win; running out
    is logged once, naming the tree).  The next level repeats each parent's
    row twice and writes the midpoint of the split coordinate into the upper
    end of the first copy and the lower end of the second, the bits of
    ParamBox.split.  The first level with a FAILED box ends the search and
    the tree stays partial.

    From the last level up, statuses aggregate FAILED over INCONCLUSIVE over
    PROVED and subtree leaf counts add up; from the root down, the counts
    place each leaf in the root's Leaves.  A level's rows are in depth-first
    order and a FAILED level is the last, so a FAILED root takes that level's
    witness.  The root is the only VerifyNode built, a view on row 0 of the
    first level; its `.children` views are made when a walk asks for them.
    The root keeps `scale`.  When done it logs, at INFO, the tree's status,
    size, probe count, depth and wall time, and its split scale when one is
    given; every check probes each box it does not prove pointwise, so the
    probes are the nodes it left unproved.
    """
    if max_depth < 0:
        raise ValueError("max_depth must be >= 0")
    start = time.perf_counter()
    lo, hi = np.array([box.lo], dtype=float), np.array([box.hi], dtype=float)
    levels = []
    total_nodes = 1
    probes = 0
    depth = 0
    budget_logged = False
    while True:
        outside = np.zeros(len(lo), dtype=bool)
        if region is not None:
            clo, chi, inside = region.clip(lo, hi)
            outside = ~inside
            lo = np.where(outside[:, None], lo, clo)
            hi = np.where(outside[:, None], hi, chi)
        live = np.nonzero(~outside)[0]
        codes, values = np.zeros(len(lo), dtype=np.int8), None  # an OUTSIDE box is PROVED
        codes[live], live_values, witness = evaluate(lo[live], hi[live])
        if live_values is not None:
            values = np.full((len(lo), live_values.shape[1]), np.nan)
            values[live] = live_values
        probes += int(np.count_nonzero(codes))
        parents = np.nonzero(codes == INCONCLUSIVE_CODE)[0]
        if depth >= max_depth or (codes == FAILED_CODE).any():
            parents = parents[:0]  # a FAILED level ends the search: witnesses trump refinement
        room = max(0, (node_budget - total_nodes) // 2)
        if len(parents) > room and not budget_logged:
            log.warning("node budget %d exhausted in the %s tree", node_budget, name)
            budget_logged = True
        parents = parents[:room]
        levels.append((lo, hi, outside, codes, values, parents))
        if not len(parents):
            break
        coords = split_coords(lo[parents], hi[parents], scale)
        mid = 0.5 * (lo[parents, coords] + hi[parents, coords])
        lo = np.repeat(lo[parents], 2, axis=0)
        hi = np.repeat(hi[parents], 2, axis=0)
        first = 2 * np.arange(len(parents))
        hi[first, coords] = mid
        lo[first + 1, coords] = mid
        total_nodes += len(lo)
        depth += 1

    counts = [None] * len(levels)  # the number of leaves under each box of a level
    for d in range(depth, -1, -1):
        codes, parents = levels[d][3], levels[d][5]
        counts[d] = np.ones(len(codes), dtype=np.intp)
        if len(parents):
            codes[parents] = np.maximum(levels[d + 1][3][0::2], levels[d + 1][3][1::2])
            counts[d][parents] = counts[d + 1][0::2] + counts[d + 1][1::2]
    root = VerifyNode(levels, split_scale=scale)

    # from the root down, the row of each box's first leaf in depth-first order
    offsets = [np.zeros(1, dtype=np.intp)]
    for d in range(depth):
        offset = np.repeat(offsets[d][levels[d][5]], 2)
        offset[1::2] += counts[d + 1][0::2]
        offsets.append(offset)
    leaf = np.flatnonzero(np.concatenate(counts) == 1)  # a parent has two leaves or more
    take = leaf[np.argsort(np.concatenate(offsets)[leaf])]
    lo, hi, outside, codes, values, _ = zip(*levels)
    depths = [np.full(len(c), d) for d, c in enumerate(counts)]
    root.leaves = Leaves(*(None if column[0] is None else np.concatenate(column)[take]
                           for column in (lo, hi, depths, outside, codes, values)))
    if root.status == FAILED:
        root.witness = witness  # the last level's, the one with FAILED boxes
    log.info("%s tree: %s, %d nodes, %d leaves, %d probes, depth %d, %.3f s%s", name,
             root.status, total_nodes, len(take), probes, depth,
             time.perf_counter() - start, "" if scale is None else
             ", split scale (" + ", ".join(f"{s:.6g}" for s in scale) + ")")
    return root


def verify_box(sys: ProblemSystem, box: ParamBox, max_depth: int = 14,
               margin: float = 1e-6, region: Region | None = None,
               node_budget: int = 500_000) -> VerifyNode:
    """Prove residual < m/(cL) on the box (intersected with `region` if given).

    For a graph, `box` is a z-box and `region` is required: its first n discs
    clip and prune the z-box, and the residual is bounded over all w in its
    last n discs in closed form.

    PROVED: the strict inequality holds with the given relative margin at
    every point of the box (or the box misses the region entirely).
    FAILED: a point of omega violating the inequality is attached as witness.
    INCONCLUSIVE: bisection depth (or the node budget) was exhausted.

    A box's values are (m_lower, L_upper, residual_upper) over it; the
    root's report aggregates them over its Leaves.  Undecided boxes are
    bisected by the weights split_scale gives over `box`, which the root
    keeps as its split_scale.
    """
    w_discs = _w_discs(sys, box.dim, region)
    bb = _BoxBounds(sys)
    c_factor = float(radius_factor(sys.kind))

    def evaluate(lo, hi):
        m, L, r = bb.tube(lo, hi, w_discs)
        codes = np.where(_tube_holds(m, L, r, c_factor, margin), PROVED_CODE,
                         INCONCLUSIVE_CODE).astype(np.int8)
        probed = np.nonzero(codes)[0]
        violated, witness = _tube_probe(sys, lo[probed], hi[probed], region)
        codes[probed[violated]] = FAILED_CODE
        return codes, np.column_stack([m, L, r]), witness

    root = subdivide(box, evaluate, max_depth, node_budget, region, "tube",
                     split_scale(sys, box))
    leaves = root.leaves
    m, L, r = leaves.values[~leaves.outside].T.tolist()
    m_lo, L_up, r_up = min([math.inf] + m), max([0.0] + L), max([0.0] + r)
    radius = float(radii(sys.kind, np.array([m_lo]), np.array([L_up]))[0])
    root.report = BoundReport(m_lo, L_up, r_up, radius, int(leaves.depth.max()), len(leaves.depth))
    return root


def verify_totally_real(sys: ProblemSystem, box: ParamBox, max_depth: int = 14,
                        region: Region | None = None,
                        node_budget: int = 500_000) -> VerifyNode:
    """Prove sigma_min(B)^2 > 0 over the z-box via the m_lower bound of
    _BoxBounds, each box's one value.  The boxes a level leaves unproved are
    probed at their probe points with one trgeom.totally_real call; a point
    where the test fails is a FAILED leaf's witness."""
    bb = _BoxBounds(sys)

    def evaluate(lo, hi):
        m_lo = bb.m_lower(lo, hi)
        codes = np.where(m_lo > 0.0, PROVED_CODE, INCONCLUSIVE_CODE).astype(np.int8)
        probed = np.nonzero(codes)[0]
        witness = None
        if len(probed):
            pts = probe_points(lo[probed], hi[probed], region)
            res = totally_real(sys, pts)
            failed = ~res["totally_real"]
            codes[probed[failed]] = FAILED_CODE
            if failed.any():
                i = int(np.argmax(failed))
                witness = {"z": pts[i].reshape(-1, 2).tolist(),
                           "sigma_min": float(res["sigma_min"][i])}
        return codes, m_lo[:, None], witness

    return subdivide(box, evaluate, max_depth, node_budget, region, "totally-real")


def check_leaves(sys: ProblemSystem, lo, hi, margin: float,
                 region: Region | None = None) -> np.ndarray:
    """Recompute the bounds on recorded leaf boxes, the rows of `lo`, `hi`,
    and re-run the tube test on each; a box that misses `region` holds.

    Takes the same boxes and region as verify_box (z-boxes and omega's z and
    w discs for a graph).
    """
    lo = np.asarray(lo, dtype=float)
    hi = np.asarray(hi, dtype=float)
    w_discs = _w_discs(sys, lo.shape[1], region)
    held = np.ones(len(lo), dtype=bool)
    live = held.copy() if region is None else region.clip(lo, hi)[2]
    if live.any():
        held[live] = _tube_holds(*_BoxBounds(sys).tube(lo[live], hi[live], w_discs),
                                 float(radius_factor(sys.kind)), margin)
    return held


def check_leaf(sys: ProblemSystem, box: ParamBox, margin: float,
               region: Region | None = None) -> bool:
    """check_leaves for one box."""
    return bool(check_leaves(sys, [box.lo], [box.hi], margin, region)[0])
