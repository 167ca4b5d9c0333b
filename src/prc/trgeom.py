"""Geometry of totally-real graphs and submersion level sets.

For a graph system (n complex-valued defining functions over C^n) or a
submersion system (2n-k real-valued functions), this module computes:

* the dbar-matrix B(z) with entries d(function_r)/d(conj z_j),
* m(z) = sigma_min(B)^2, the squared distance from a complex tangent,
* L(z) = the largest sup over unit directions of |Levi form| among the
  defining functions (numerical radius for complex-valued functions),
* the pointwise tube radius m/(2L) (graph) or m/L (submersion), and
* the two-sided Levi expansions of u = sum of squared residuals that make
  u strictly plurisubharmonic inside the tube.

Each pointwise quantity has one implementation, batched over many points:
m_values, L_values, radii and totally_real, on tables that
ProblemSystem.evaluate gives.  They are plain numpy arithmetic (squares
as products, magnitudes from np.hypot, sums left to right), each point's bits
independent of its batch, and they raise OverflowError where a value leaves
the doubles.  The one-point functions (m_value, big_l_value, tube_radius,
tube_profile, is_totally_real_*, bbar_matrix) are views on them, so they read
the same bits as the probes of rigor.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import Literal, Sequence

import numpy as np

from . import expr as ex
from .realpoly import (RealPoly, TermPack, ZPoly, _max, complex_array, finite_or_overflow,
                       point_values, real_coords, sequential_sum)

GRAPH = "graph"
SUBMERSION = "submersion"

_REAL_CHECK_SAMPLES = 64


class DegenerateSystemError(ValueError):
    """A defining function violates a system invariant (e.g. zero differential)."""


@dataclass(frozen=True)
class TubePoint:
    z: tuple[complex, ...]
    m: float
    L: float
    radius: float


@dataclass(frozen=True)
class TubeProfile:
    """Samples of (z, m, L, radius) along a user-chosen path."""

    kind: str
    points: tuple[TubePoint, ...]


class _FnTable:
    """Canonical-polynomial derivative table of one defining function:
    its value, dz[j] = d/dz_j, dzbar[k] = d/dconj(z_k) and
    levi[j][k] = d2/dz_j dconj(z_k), all as RealPoly.  All come from one
    expansion in z and conj(z) (realpoly.ZPoly), so a function holomorphic in
    z_k, however it is written, has dzbar[k] = 0 exactly."""

    __slots__ = ("value", "dz", "dzbar", "levi")

    def __init__(self, e: ex.NormalExpr, n: int):
        p = ZPoly.from_expr(e, n)
        dz, dzbar, levi = p.derivatives()
        self.value = p.to_real()
        self.dz = [d.to_real() for d in dz]
        self.dzbar = [d.to_real() for d in dzbar]
        self.levi = [[d.to_real() for d in row] for row in levi]


class ProblemSystem:
    """A graph or submersion system with precomputed derivative tables.

    Immutable after construction, and shared: `graph` and `submersion` given
    function texts return one instance per (kind, n, k, texts) from a bounded
    memo, so no caller may mutate one.  `pack` lays out each list of
    `polys` once, on first use, for both point values and box bounds; those
    packs are caches of the same bits.
    """

    def __init__(self, kind: Literal["graph", "submersion"], n: int,
                 exprs: Sequence[ex.Expr], k: int | None = None):
        if kind not in (GRAPH, SUBMERSION):
            raise ValueError(f"unknown system kind: {kind}")
        if n < 1:
            raise ValueError("n must be >= 1")
        exprs = tuple(exprs)
        for e in exprs:
            if ex.max_var_index(e) > n:
                raise ValueError(
                    f"expression uses z{ex.max_var_index(e)} but n={n}")
        if kind == GRAPH:
            if k is not None:
                raise ValueError("graph systems take no k")
            if len(exprs) != n:
                raise ValueError(f"graph system needs exactly n={n} functions, "
                                 f"got {len(exprs)}")
        else:
            if k is None or not (1 <= k <= n):
                raise ValueError(f"submersion needs 1 <= k <= n, got k={k}")
            if len(exprs) != 2 * n - k:
                raise ValueError(f"submersion needs 2n-k={2*n-k} functions, "
                                 f"got {len(exprs)}")
        self.kind = kind
        self.n = n
        self.k = k
        self.exprs = tuple(ex.normalize(e) for e in exprs)
        self.tables = tuple(_FnTable(e, n) for e in self.exprs)
        self._packs: dict[str, TermPack] = {}
        for idx, t in enumerate(self.tables):
            for name, polys in (("value", [t.value]), ("dz", t.dz), ("dzbar", t.dzbar),
                                ("Levi", [q for row in t.levi for q in row])):
                if not all(math.isfinite(c.real) and math.isfinite(c.imag)
                           for p in polys for c in p.terms.values()):
                    raise ValueError(f"function #{idx + 1} has a non-finite coefficient "
                                     f"in its {name} table")
        if kind == SUBMERSION:
            self._check_real_valued()

    # -- constructors --------------------------------------------------------

    @staticmethod
    def graph(exprs: Sequence[ex.Expr | str], n: int) -> ProblemSystem:
        return _build(GRAPH, n, None, tuple(exprs))

    @staticmethod
    def submersion(exprs: Sequence[ex.Expr | str], n: int, k: int) -> ProblemSystem:
        return _build(SUBMERSION, n, k, tuple(exprs))

    @property
    def rows(self) -> int:
        return len(self.exprs)

    @functools.cached_property
    def polys(self) -> dict[str, list[RealPoly]]:
        """The tables as flat lists: "value" (one polynomial per row), "dz"
        and "dzbar" (rows x n, row-major), "levi" (rows x n x n, row-major),
        "all" ("value", "dzbar" and "levi" in that order) and "grad" (d
        value_r / dx_v for each real coordinate v, then each row r)."""
        value = [t.value for t in self.tables]
        dzbar = [p for t in self.tables for p in t.dzbar]
        levi = [q for t in self.tables for row in t.levi for q in row]
        return {"value": value, "dz": [p for t in self.tables for p in t.dz],
                "dzbar": dzbar, "levi": levi, "all": value + dzbar + levi,
                "grad": [t.value.diff(v) for v in range(2 * self.n) for t in self.tables]}

    def pack(self, part: str) -> TermPack:
        """polys[part] laid out as one realpoly.TermPack, built on first use
        and kept (a system that replay rebuilds lays out only what it reads)."""
        pack = self._packs.get(part)
        if pack is None:
            pack = self._packs[part] = TermPack(self.polys[part])
        return pack

    @functools.cached_property
    def u_levi(self) -> TermPack:
        """Levi matrix (2n x 2n, row-major) of u(z, w) = sum |w_nu -
        f_nu(z)|^2 over the 2n coordinates (z, w) of a graph system, as one
        pack."""
        n = self.n
        u: ex.Expr = ex.Const(0j)
        for nu, f in enumerate(self.exprs):
            resid = ex.Sub(ex.Var(n + nu + 1), f)
            u = ex.Add(u, ex.Mul(resid, ex.Conj(resid)))
        levi = ZPoly.from_expr(ex.normalize(u), 2 * n).derivatives()[2]
        return TermPack([d.to_real() for row in levi for d in row])

    def _check_real_valued(self):
        rng = np.random.default_rng(20240901)
        vals = self.evaluate("value", rng.standard_normal((_REAL_CHECK_SAMPLES, 2 * self.n)))
        for idx, col in enumerate(vals.T):
            bad = np.abs(col.imag) > 1e-9 * (1.0 + np.abs(col))
            if bad.any():
                i = int(np.argmax(bad))
                raise DegenerateSystemError(
                    f"submersion function #{idx + 1} is not real-valued "
                    f"(Im = {col.imag[i]:.3e} at a sample point)")

    # -- point evaluation -----------------------------------------------------

    def evaluate(self, part: str, xs) -> np.ndarray:
        """The polynomials of polys[part] at the rows of xs (real
        coordinates), shape (points, polynomials), from pack(part), with the
        bits of eval_batch polynomial by polynomial.  `split` takes the
        values of "all" apart."""
        return point_values(self.pack(part), xs)

    def split(self, table: np.ndarray):
        """(values, dbar-matrices, Levi matrices) from `table`, the values of
        evaluate("all") at some points: shapes (points, rows), (points,
        rows, n) and (points, rows, n, n)."""
        n, rows = self.n, self.rows
        return (table[:, :rows], table[:, rows:rows + rows * n].reshape(-1, rows, n),
                table[:, rows + rows * n:].reshape(-1, rows, n, n))

    def tables_at(self, zs: Sequence[Sequence[complex]]):
        """split of the tables at the points zs of C^n."""
        xs = np.array([real_coords(z) for z in zs], dtype=float).reshape(len(zs), 2 * self.n)
        return self.split(self.evaluate("all", xs))

    def values_at(self, z: Sequence[complex]) -> np.ndarray:
        return self.evaluate("value", [real_coords(z)])[0]

    def dz_matrix(self, z: Sequence[complex]) -> np.ndarray:
        """rows x n matrix of d(function_r)/dz_j at z."""
        return self.evaluate("dz", [real_coords(z)])[0].reshape(self.rows, self.n)

    def levi_matrix(self, r: int, z: Sequence[complex]) -> np.ndarray:
        return self.tables_at([z])[2][0, r]

    def __repr__(self) -> str:
        return f"ProblemSystem({self.kind}, n={self.n}, k={self.k}, rows={self.rows})"


def _build(kind: str, n: int, k: int | None, exprs: tuple) -> ProblemSystem:
    """The system of `exprs`, strings parsed over z1..zn.  All-string input
    with integer n and k comes from the memo, keyed on the texts: parsed
    expressions would not do, as Const(0.0) == Const(-0.0)."""
    memo = (all(type(e) is str for e in exprs) and type(n) is int
            and (k is None or type(k) is int))
    return (_built_system if memo else _parsed_system)(kind, n, k, exprs)


def _parsed_system(kind: str, n: int, k: int | None, exprs: tuple) -> ProblemSystem:
    parsed = [ex.parse(e, n) if isinstance(e, str) else e for e in exprs]
    return ProblemSystem(kind, n, parsed, k=k)


# the memo of _build; a build that raises is not cached
_built_system = functools.lru_cache(maxsize=64)(_parsed_system)


# ---------------------------------------------------------------------------
# m, L and the tube radius at many points
#
# In the arithmetic of realpoly's batched kernels: sums run left to right,
# squares are products, magnitudes np.hypot, and Python's max is
# realpoly._max.  Each point's bits depend on that point only, and the
# one-point functions are views on the same code, so they read the bits a
# FAIL witness records.  A value that leaves the doubles raises OverflowError.
# ---------------------------------------------------------------------------

@np.errstate(all="ignore")
def m_values(sys: ProblemSystem, B: np.ndarray) -> np.ndarray:
    """sigma_min(B_i)^2 for each dbar-matrix of a stack B of shape (points,
    rows, n): the infimum over unit v of the squared dbar-residual sum.

    Conjugating v leaves singular values unchanged, so the graph-case infimum
    over ||B conj(v)||^2 equals the submersion-case infimum over ||B v||^2.
    For n <= 2 it is taken in closed form from the Hermitian B* B.
    """
    n = sys.n
    if n <= 2:
        mag = np.hypot(B.real, B.imag)
        sq = sequential_sum(mag * mag, axis=1)  # sum over rows of |B_rj|^2
    if n == 1:
        # a column has a single singular value, its norm
        m = sq[:, 0]
    elif n == 2:
        # |h01|, h01 = sum over rows of conj(B[r, 0]) * B[r, 1]
        ar, ai = B[:, :, 0].real, -B[:, :, 0].imag
        br, bi = B[:, :, 1].real, B[:, :, 1].imag
        h01 = np.hypot(sequential_sum(ar * br - ai * bi, axis=1),
                       sequential_sum(ar * bi + ai * br, axis=1))
        h00, h11 = sq[:, 0], sq[:, 1]
        d = (h00 - h11) / 2
        m = _max((h00 + h11) / 2 - np.sqrt(d * d + h01 * h01), 0.0)
    else:
        s = np.linalg.svd(B, compute_uv=False)[:, -1]
        m = s * s
    return finite_or_overflow(m, "m")


@np.errstate(all="ignore")
def L_values(sys: ProblemSystem, lev: np.ndarray) -> np.ndarray:
    """The largest numerical radius among the Levi matrices of the rows at
    each point, lev of shape (points, rows, n, n).  Closed forms for n = 1
    and for 2x2 submersion (Hermitian) matrices; numerical_radii otherwise."""
    n = sys.n
    if n == 1:
        w = np.hypot(lev[..., 0, 0].real, lev[..., 0, 0].imag)
    elif sys.kind != GRAPH and n == 2:
        # Hermitian 2x2 closed form, |b| for b = 0.5 * (A01 + conj(A10))
        a, d = lev[..., 0, 0].real, lev[..., 1, 1].real
        b = np.hypot(0.5 * (lev[..., 0, 1].real + lev[..., 1, 0].real),
                     0.5 * (lev[..., 0, 1].imag - lev[..., 1, 0].imag))
        h = (a - d) / 2
        half = np.sqrt(h * h + b * b)
        w = _max(np.abs((a + d) / 2 + half), np.abs((a + d) / 2 - half))
    else:
        w = numerical_radii(lev.reshape(-1, n, n)).reshape(len(lev), sys.rows)
    L = np.zeros(len(lev))
    for r in range(sys.rows):
        L = _max(L, w[:, r])
    return finite_or_overflow(L, "L")


def radius_factor(kind: str) -> int:
    """Denominator factor c in radius = m/(c*L): 2 for graphs, 1 for submersions."""
    return 2 if kind == GRAPH else 1


def radii(kind: str, m: np.ndarray, L: np.ndarray) -> np.ndarray:
    """The tube radius m/(cL) point by point (c = radius_factor(kind)): 0
    where m = 0, else inf where L = 0."""
    with np.errstate(divide="ignore", invalid="ignore"):
        r = m / (radius_factor(kind) * L)
    return np.where(m == 0.0, 0.0, np.where(L == 0.0, np.inf, r))


def tube_profile(sys: ProblemSystem, zs: Sequence[Sequence[complex]]) -> TubeProfile:
    """(z, m, L, radius) at each point of zs."""
    zs = [tuple(complex(c) for c in z) for z in zs]
    _, B, lev = sys.tables_at(zs)
    m, L = m_values(sys, B), L_values(sys, lev)
    rows = zip(zs, m.tolist(), L.tolist(), radii(sys.kind, m, L).tolist())
    return TubeProfile(sys.kind, tuple(TubePoint(*row) for row in rows))


def m_value(sys: ProblemSystem, z: Sequence[complex]) -> float:
    """m_values at one point."""
    return float(m_values(sys, sys.tables_at([z])[1])[0])


def big_l_value(sys: ProblemSystem, z: Sequence[complex]) -> float:
    """L_values at one point: max over defining functions of sup over unit v
    of |Levi form at z in direction v|."""
    return float(L_values(sys, sys.tables_at([z])[2])[0])


def tube_radius(sys: ProblemSystem, z: Sequence[complex]) -> float:
    """m/(2L) for graphs, m/L for submersions; +inf when L=0 < m; 0 when m=0."""
    return tube_profile(sys, [z]).points[0].radius


def bbar_matrix(sys: ProblemSystem, z: Sequence[complex]) -> np.ndarray:
    """Matrix of d(function_r)/d(conj z_j) at z; shape (rows, n)."""
    return sys.tables_at([z])[1][0]


# ---------------------------------------------------------------------------
# Numerical radius
# ---------------------------------------------------------------------------

def numerical_radius(M: np.ndarray) -> float:
    """w(M) = sup over unit v of |v* M v| (see numerical_radii).

    Satisfies ||M||_2 / 2 <= w(M) <= ||M||_2.
    """
    M = np.asarray(M, dtype=np.complex128)
    if M.ndim != 2 or M.shape[0] != M.shape[1]:
        raise ValueError("numerical_radius needs a square matrix")
    return float(numerical_radii(M[None])[0])


_GRID = 512
_INVPHI = (math.sqrt(5.0) - 1.0) / 2.0
# lanes whose 512 grid matrices are formed at once
_GRID_CHUNK = 64
# width of the angle bracket at which golden-section refinement stops
_STOP = 1e-8


def numerical_radii(M: np.ndarray) -> np.ndarray:
    """w(M_i) for each matrix of a stack M of shape (count, d, d).

    Computed as max over theta of lambda_max((e^{i theta} M + e^{-i theta} M*)/2)
    on a 512-angle grid with golden-section refinement around the best (at
    most five) local grid maxima; a Hermitian matrix gives its spectral
    radius, exactly.  Each matrix is a lane: the refinement runs all lanes
    at once, each under its own mask, and every lane comes out bit for bit
    as it would alone (stacked eigvalsh calls LAPACK once per matrix).
    """
    M = np.ascontiguousarray(M, dtype=np.complex128)
    if M.ndim != 3 or M.shape[1] != M.shape[2]:
        raise ValueError("numerical_radii needs a stack of square matrices")
    if not np.all(np.isfinite(M.real)) or not np.all(np.isfinite(M.imag)):
        raise ValueError("matrix has non-finite entries")
    if M.shape[1] == 1:
        return np.hypot(M[:, 0, 0].real, M[:, 0, 0].imag)
    out = np.zeros(len(M))
    if len(M) == 0:
        return out
    Mh = M.conj().swapaxes(1, 2)
    scale = np.linalg.norm(M, 2, axis=(1, 2))
    herm = np.abs(M - Mh).max(axis=(1, 2)) <= 1e-14 * scale
    lanes = (scale != 0.0) & herm
    if lanes.any():
        ev = np.linalg.eigvalsh((M[lanes] + Mh[lanes]) / 2)
        out[lanes] = _max(np.abs(ev[:, 0]), np.abs(ev[:, -1]))
    lanes = (scale != 0.0) & ~herm
    if lanes.any():
        out[lanes] = _refined_radii(M[lanes], Mh[lanes], scale[lanes])
    return out


def _phase(theta: np.ndarray) -> np.ndarray:
    """e^{i theta} from math.cos and math.sin, shaped (len(theta), 1, 1)."""
    return complex_array(np.fromiter(map(math.cos, theta.tolist()), float, len(theta)),
                         np.fromiter(map(math.sin, theta.tolist()), float, len(theta))
                         )[:, None, None]


def _lambda_max(M, Mh, ph) -> np.ndarray:
    """lambda_max((ph M + conj(ph) M*)/2), the phases ph broadcast against
    the matrices."""
    return np.linalg.eigvalsh((ph * M + np.conj(ph) * Mh) / 2)[..., -1]


def _refined_radii(M, Mh, scale) -> np.ndarray:
    count = len(M)
    step = 2 * math.pi / _GRID
    thetas = 2 * math.pi * np.arange(_GRID) / _GRID
    grid = _phase(thetas)
    vals = np.empty((count, _GRID))
    for s in range(0, count, _GRID_CHUNK):
        vals[s:s + _GRID_CHUNK] = _lambda_max(M[s:s + _GRID_CHUNK, None],
                                              Mh[s:s + _GRID_CHUNK, None], grid)
    best = vals.max(axis=1)

    # refine every strict local grid maximum near the top, the best first
    top = ((vals >= np.roll(vals, 1, axis=1)) & (vals >= np.roll(vals, -1, axis=1))
           & (vals >= (best - 0.05 * scale)[:, None]))
    order = np.argsort(np.where(top, -vals, np.inf), axis=1, kind="stable")[:, :5]
    for slot in range(order.shape[1]):
        lanes = np.nonzero(top[np.arange(count), order[:, slot]])[0]
        if not len(lanes):
            break
        a = thetas[order[lanes, slot]] - step
        b = thetas[order[lanes, slot]] + step
        c = b - _INVPHI * (b - a)
        d = a + _INVPHI * (b - a)
        m, mh = M[lanes], Mh[lanes]
        fc = _lambda_max(m, mh, _phase(c))
        fd = _lambda_max(m, mh, _phase(d))
        live = np.nonzero(b - a > _STOP)[0]
        while len(live):
            left = fc[live] > fd[live]
            lo_, hi_ = live[left], live[~left]
            # a maximum left of d: drop (d, b]; else drop [a, c)
            b[lo_], d[lo_], fd[lo_] = d[lo_], c[lo_], fc[lo_]
            c[lo_] = b[lo_] - _INVPHI * (b[lo_] - a[lo_])
            a[hi_], c[hi_], fc[hi_] = c[hi_], d[hi_], fd[hi_]
            d[hi_] = a[hi_] + _INVPHI * (b[hi_] - a[hi_])
            f = _lambda_max(m[live], mh[live], _phase(np.where(left, c[live], d[live])))
            fc[lo_] = f[left]
            fd[hi_] = f[~left]
            live = live[b[live] - a[live] > _STOP]
        best[lanes] = _max(_max(best[lanes], fc), fd)
    return best


# ---------------------------------------------------------------------------
# Total reality
# ---------------------------------------------------------------------------

def totally_real(sys: ProblemSystem, xs) -> dict:
    """Total-reality test at each point, the rows of xs (real coordinates),
    with the tolerance t = 1e-8 (1 + sigma_max) of the point's dbar-matrix B.

    A graph is totally real where sigma_min(B) > t; "witness_v" holds, per
    point, the conjugate of a unit right-singular vector for sigma_min, the
    complex-tangent direction where the test fails.  A submersion is where B
    has rank n, counting the singular values above t ("rank"); a vanishing
    row of B raises DegenerateSystemError, since for real-valued rho it means
    d(rho) = 0.  Graphs take a full SVD and submersions singular values only,
    stacked over the points; the two variants differ in the last bit.
    Returns arrays over the points: "totally_real", "sigma_min", and
    "witness_v" or "rank".
    """
    xs = np.asarray(xs, dtype=float)
    B = sys.evaluate("dzbar", xs).reshape(len(xs), sys.rows, sys.n)
    if sys.kind == GRAPH:
        _, s, Vh = np.linalg.svd(B)
        return {"totally_real": s[:, -1] > 1e-8 * (1.0 + s[:, 0]), "sigma_min": s[:, -1],
                "witness_v": np.conj(Vh[:, -1])}
    dead = np.argwhere(np.linalg.norm(B, axis=2) <= 1e-12)
    if len(dead):
        i, r = dead[0]
        z = [complex(xs[i, 2 * j], xs[i, 2 * j + 1]) for j in range(sys.n)]
        raise DegenerateSystemError(
            f"function #{r + 1} has zero differential at z={z}: not a submersion")
    s = np.linalg.svd(B, compute_uv=False)
    rank = np.sum(s > 1e-8 * (1.0 + s[:, :1]), axis=1)
    return {"totally_real": rank == sys.n, "rank": rank, "sigma_min": s[:, -1]}


def is_totally_real_graph(sys: ProblemSystem, z: Sequence[complex]) -> dict:
    """totally_real of a graph at one point; "witness_v" is None where it holds."""
    if sys.kind != GRAPH:
        raise ValueError("is_totally_real_graph needs a graph system")
    res = totally_real(sys, [real_coords(z)])
    ok = bool(res["totally_real"][0])
    return {"totally_real": ok, "sigma_min": float(res["sigma_min"][0]),
            "witness_v": None if ok else res["witness_v"][0]}


def is_totally_real_submersion(sys: ProblemSystem, z: Sequence[complex]) -> dict:
    """totally_real of a submersion at one point."""
    if sys.kind != SUBMERSION:
        raise ValueError("is_totally_real_submersion needs a submersion system")
    res = totally_real(sys, [real_coords(z)])
    return {"totally_real": bool(res["totally_real"][0]), "rank": int(res["rank"][0]),
            "sigma_min": float(res["sigma_min"][0])}


# ---------------------------------------------------------------------------
# Levi form of u = sum of squared residuals
# ---------------------------------------------------------------------------

def levi_u_graph(sys: ProblemSystem, z: Sequence[complex], w: Sequence[complex],
                 v: Sequence[complex], t: Sequence[complex]) -> dict:
    """Levi form of u = sum |w_nu - f_nu(z)|^2 at (z,w) in direction V = (v,t).

    Returns the direct value (from ProblemSystem.u_levi), the expanded second-derivative formula
    and its displayed lower bound; the contract is direct == expanded and
    direct >= lower_bound.
    """
    if sys.kind != GRAPH:
        raise ValueError("levi_u_graph needs a graph system")
    n = sys.n
    z = [complex(c) for c in z]
    w = [complex(c) for c in w]
    v = np.asarray(v, dtype=np.complex128)
    t = np.asarray(t, dtype=np.complex128)
    if len(z) != n or len(w) != n or v.shape != (n,) or t.shape != (n,):
        raise ValueError("dimension mismatch: z, w, v, t must all have length n")

    levi = point_values(sys.u_levi, [real_coords(z + w)])[0].reshape(2 * n, 2 * n)
    V = np.concatenate([v, t])
    direct = float((V @ levi @ np.conj(V)).real)

    fvals, Dzb, lev = (a[0] for a in sys.tables_at([z]))
    Dz = sys.dz_matrix(z)
    levi_forms = np.array([v @ lev[r] @ np.conj(v) for r in range(n)])

    first = 2.0 * float(np.sum((np.conj(fvals) - np.conj(w)) * levi_forms).real)
    middle = float(np.sum(np.abs(Dz @ v - t) ** 2))
    dbar_term = float(np.sum(np.abs(Dzb @ np.conj(v)) ** 2))
    expanded = first + middle + dbar_term

    residuals = np.abs(fvals - np.asarray(w))
    lower = dbar_term - 2.0 * float(np.sum(residuals * np.abs(levi_forms)))
    return {"direct": direct, "expanded": expanded, "lower_bound": lower}


def levi_u_submersion(sys: ProblemSystem, z: Sequence[complex],
                      v: Sequence[complex]) -> dict:
    """Levi form of u = sum rho_l^2 at z in direction v, with its expansion."""
    if sys.kind != SUBMERSION:
        raise ValueError("levi_u_submersion needs a submersion system")
    n = sys.n
    z = [complex(c) for c in z]
    v = np.asarray(v, dtype=np.complex128)
    if len(z) != n or v.shape != (n,):
        raise ValueError("dimension mismatch: z and v must have length n")

    rho_vals, A, lev = (a[0] for a in sys.tables_at([z]))
    # d2(rho_l^2)/dz_j dzbar_k = 2 rho_l levi_l[j, k] + 2 dz_l[j] dzbar_l[k]
    Dz = sys.dz_matrix(z)
    hess = 2.0 * (rho_vals[:, None, None] * lev + Dz[:, :, None] * A[:, None, :]).sum(axis=0)
    direct = float((v @ hess @ np.conj(v)).real)

    rho_vals = rho_vals.real
    levi_forms = np.array([(v @ lev[r] @ np.conj(v)).real for r in range(sys.rows)])
    # in the v_j conj(v_k) Levi convention used throughout, the dbar term of
    # the expansion is sum_l |sum_j (d rho_l / d conj(z_j)) conj(v_j)|^2
    dbar_term = 2.0 * float(np.sum(np.abs(A @ np.conj(v)) ** 2))
    expanded = 2.0 * float(np.sum(rho_vals * levi_forms)) + dbar_term
    lower = dbar_term - 2.0 * float(np.sum(np.abs(rho_vals) * np.abs(levi_forms)))
    return {"direct": direct, "expanded": expanded, "lower_bound": lower}


# ---------------------------------------------------------------------------
# Brute-force oracle for m (testing aid; independent of the SVD path)
# ---------------------------------------------------------------------------

def m_value_bruteforce(sys: ProblemSystem, z: Sequence[complex],
                       samples: int = 10_000, polish: bool = True) -> float:
    """min over quasi-uniform unit directions of the dbar residual sum.

    Sweeps a golden-lattice sample of the unit sphere of C^n and optionally
    polishes the best direction with derivative-free Nelder-Mead.  Every probed
    direction gives an upper bound, so the result is one-sided: it never falls
    below m_value by more than floating-point noise.
    """
    B = bbar_matrix(sys, z)
    d = 2 * sys.n  # real dimension of the direction space

    if d == 2:
        theta = 2 * math.pi * np.arange(samples) / samples
        pts = np.stack([np.cos(theta), np.sin(theta)], axis=1)
    else:
        # golden-lattice points in [0,1)^d mapped through the normal quantile
        from scipy.stats import norm as _norm

        idx = np.arange(1, samples + 1, dtype=np.float64)
        roots = _golden_alphas(d)
        u = np.remainder(np.outer(idx, roots) + 0.5, 1.0)
        u = np.clip(u, 1e-12, 1 - 1e-12)
        pts = _norm.ppf(u)
        norms = np.linalg.norm(pts, axis=1)
        norms[norms == 0] = 1.0
        pts = pts / norms[:, None]

    # m(v) uses conj(v); the sweep covers v and conj alike, but be explicit:
    vmat = pts[:, 0::2] + 1j * pts[:, 1::2]
    norms = np.linalg.norm(vmat, axis=1)
    vmat = vmat / norms[:, None]
    costs = np.sum(np.abs(np.conj(vmat) @ B.T) ** 2, axis=1)
    best_i = int(np.argmin(costs))
    best = float(costs[best_i])

    if polish and d > 2:
        from scipy.optimize import minimize

        def cost(u: np.ndarray) -> float:
            nrm = np.linalg.norm(u)
            if nrm == 0:
                return float("inf")
            vv = (u[0::2] + 1j * u[1::2]) / nrm
            return float(np.sum(np.abs(B @ np.conj(vv)) ** 2))

        res = minimize(cost, pts[best_i], method="Nelder-Mead",
                       options={"xatol": 1e-10, "fatol": 1e-14, "maxiter": 4000})
        best = min(best, float(res.fun))
    return best


def _golden_alphas(d: int) -> np.ndarray:
    """Irrational lattice generators (generalized golden ratio)."""
    # unique positive root of x^(d+1) = x + 1
    x = 1.5
    for _ in range(64):
        x = (1.0 + x) ** (1.0 / (d + 1))
    return np.array([x ** -(i + 1) for i in range(d)])
