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
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import Literal, Sequence

import numpy as np

from . import expr as ex
from .realpoly import (PointPack, RealPoly, TermPack, ZPoly, _max, cabs, complex_array,
                       real_coords)

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

    Immutable after construction.
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
        parsed = [ex.parse(e, n) if isinstance(e, str) else e for e in exprs]
        return ProblemSystem(GRAPH, n, parsed)

    @staticmethod
    def submersion(exprs: Sequence[ex.Expr | str], n: int, k: int) -> ProblemSystem:
        parsed = [ex.parse(e, n) if isinstance(e, str) else e for e in exprs]
        return ProblemSystem(SUBMERSION, n, parsed, k=k)

    @property
    def rows(self) -> int:
        return len(self.exprs)

    @functools.cached_property
    def packs(self) -> dict[str, TermPack]:
        """Term layouts for batched box bounds (realpoly.TermPack): "value"
        (one polynomial per row), "dzbar" (rows x n, row-major), "levi"
        (rows x n x n, row-major) and "all" (those three in that order)."""
        value = [t.value for t in self.tables]
        dzbar = [p for t in self.tables for p in t.dzbar]
        levi = [q for t in self.tables for row in t.levi for q in row]
        return {"value": TermPack(value), "dzbar": TermPack(dzbar),
                "levi": TermPack(levi), "all": TermPack(value + dzbar + levi)}

    @functools.cached_property
    def point_pack(self) -> PointPack:
        """The "all" polynomials of `packs` (values, dzbar, Levi), laid out to
        evaluate them at many points at once (realpoly.PointPack)."""
        return PointPack([t.value for t in self.tables]
                         + [p for t in self.tables for p in t.dzbar]
                         + [q for t in self.tables for row in t.levi for q in row])

    @functools.cached_property
    def u_levi(self) -> list[list[RealPoly]]:
        """Levi matrix (2n x 2n) of u(z, w) = sum |w_nu - f_nu(z)|^2 over the
        2n coordinates (z, w) of a graph system."""
        n = self.n
        u: ex.Expr = ex.Const(0j)
        for nu, f in enumerate(self.exprs):
            resid = ex.Sub(ex.Var(n + nu + 1), f)
            u = ex.Add(u, ex.Mul(resid, ex.Conj(resid)))
        levi = ZPoly.from_expr(ex.normalize(u), 2 * n).derivatives()[2]
        return [[d.to_real() for d in row] for row in levi]

    def _check_real_valued(self):
        rng = np.random.default_rng(20240901)
        pts = rng.standard_normal((_REAL_CHECK_SAMPLES, 2 * self.n))
        for idx, t in enumerate(self.tables):
            vals = t.value.eval_batch(pts)
            bad = np.abs(vals.imag) > 1e-9 * (1.0 + np.abs(vals))
            if bad.any():
                i = int(np.argmax(bad))
                raise DegenerateSystemError(
                    f"submersion function #{idx + 1} is not real-valued "
                    f"(Im = {vals.imag[i]:.3e} at a sample point)")

    # -- point evaluation -----------------------------------------------------

    def values_at(self, z: Sequence[complex]) -> np.ndarray:
        xs = real_coords(z)
        return np.array([t.value.eval_real(xs) for t in self.tables])

    def dz_matrix(self, z: Sequence[complex]) -> np.ndarray:
        """rows x n matrix of d(function_r)/dz_j at z."""
        xs = real_coords(z)
        return np.array([[t.dz[j].eval_real(xs) for j in range(self.n)]
                         for t in self.tables])

    def levi_matrix(self, r: int, z: Sequence[complex]) -> np.ndarray:
        xs = real_coords(z)
        t = self.tables[r]
        return np.array([[t.levi[j][k].eval_real(xs) for k in range(self.n)]
                         for j in range(self.n)])

    def __repr__(self) -> str:
        return f"ProblemSystem({self.kind}, n={self.n}, k={self.k}, rows={self.rows})"


# ---------------------------------------------------------------------------
# dbar-matrix, m, L
# ---------------------------------------------------------------------------

def bbar_matrix(sys: ProblemSystem, z: Sequence[complex]) -> np.ndarray:
    """Matrix of d(function_r)/d(conj z_j) at z; shape (rows, n)."""
    xs = real_coords(z)
    return np.array([[t.dzbar[j].eval_real(xs) for j in range(sys.n)]
                     for t in sys.tables])


def m_value(sys: ProblemSystem, z: Sequence[complex]) -> float:
    """sigma_min(B)^2, the infimum over unit v of the squared dbar-residual sum.

    Conjugating v leaves singular values unchanged, so the graph-case infimum
    over ||B conj(v)||^2 equals the submersion-case infimum over ||B v||^2.
    """
    B = bbar_matrix(sys, z)
    if min(B.shape) == 1:
        # a single row/column has exactly one singular value, its 2-norm
        smin = float(np.linalg.norm(B))
    else:
        s = np.linalg.svd(B, compute_uv=False)
        smin = float(s[-1])
    return smin * smin


def numerical_radius(M: np.ndarray, tol: float = 1e-8) -> float:
    """w(M) = sup over unit v of |v* M v| (see numerical_radii).

    Satisfies ||M||_2 / 2 <= w(M) <= ||M||_2.
    """
    M = np.asarray(M, dtype=np.complex128)
    if M.ndim != 2 or M.shape[0] != M.shape[1]:
        raise ValueError("numerical_radius needs a square matrix")
    return float(numerical_radii(M[None], tol)[0])


_GRID = 512
_INVPHI = (math.sqrt(5.0) - 1.0) / 2.0
# lanes whose 512 grid matrices are formed at once
_GRID_CHUNK = 64


def numerical_radii(M: np.ndarray, tol: float = 1e-8) -> np.ndarray:
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
        return cabs(M[:, 0, 0])
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
        out[lanes] = _refined_radii(M[lanes], Mh[lanes], scale[lanes], tol)
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


def _refined_radii(M, Mh, scale, tol) -> np.ndarray:
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
    stop = min(tol, 1e-8)
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
        live = np.nonzero(b - a > stop)[0]
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
            live = live[b[live] - a[live] > stop]
        best[lanes] = _max(_max(best[lanes], fc), fd)
    return best


def big_l_value(sys: ProblemSystem, z: Sequence[complex], tol: float = 1e-8) -> float:
    """max over defining functions of sup_{||v||=1} |Levi form at z in direction v|."""
    best = 0.0
    for r in range(sys.rows):
        M = sys.levi_matrix(r, z)
        if sys.kind == SUBMERSION:
            # real-valued functions have Hermitian Levi matrices
            H = (M + M.conj().T) / 2
            ev = np.linalg.eigvalsh(H)
            w = float(max(abs(ev[0]), abs(ev[-1]))) if len(ev) else 0.0
        else:
            w = numerical_radius(M, tol)
        best = max(best, w)
    return best


# ---------------------------------------------------------------------------
# Total reality
# ---------------------------------------------------------------------------

def _scaled_tol(tol: float | None, sigma_max: float) -> float:
    return 1e-8 * (1.0 + sigma_max) if tol is None else tol


def is_totally_real_graph(sys: ProblemSystem, z: Sequence[complex],
                          tol: float | None = None) -> dict:
    """Graph total-reality test at z.

    Totally real iff sigma_min of the dbar-matrix exceeds tol; otherwise the
    returned witness is a unit right-singular vector for sigma_min, i.e. the
    complex-tangent direction.
    """
    if sys.kind != GRAPH:
        raise ValueError("is_totally_real_graph needs a graph system")
    B = bbar_matrix(sys, z)
    U, s, Vh = np.linalg.svd(B)
    sigma_min = float(s[-1])
    t = _scaled_tol(tol, float(s[0]))
    ok = sigma_min > t
    return {
        "totally_real": bool(ok),
        "sigma_min": sigma_min,
        "witness_v": None if ok else np.conj(Vh[-1]),
    }


def is_totally_real_submersion(sys: ProblemSystem, z: Sequence[complex],
                               tol: float | None = None) -> dict:
    """Submersion total-reality test: rank of the dbar-matrix must equal n."""
    if sys.kind != SUBMERSION:
        raise ValueError("is_totally_real_submersion needs a submersion system")
    A = bbar_matrix(sys, z)
    row_norms = np.linalg.norm(A, axis=1)
    dead = np.nonzero(row_norms <= 1e-12)[0]
    if len(dead):
        # for real-valued rho a vanishing dbar-row means d(rho) = 0 there
        raise DegenerateSystemError(
            f"function #{int(dead[0]) + 1} has zero differential at z={list(z)}: "
            "not a submersion")
    s = np.linalg.svd(A, compute_uv=False)
    sigma_max = float(s[0])
    t = _scaled_tol(tol, sigma_max)
    rank = int(np.sum(s > t))
    return {
        "totally_real": rank == sys.n,
        "rank": rank,
        "sigma_min": float(s[-1]) if len(s) >= sys.n else 0.0,
    }


# ---------------------------------------------------------------------------
# Tube radius
# ---------------------------------------------------------------------------

def radius_factor(kind: str) -> int:
    """Denominator factor c in radius = m/(c*L): 2 for graphs, 1 for submersions."""
    return 2 if kind == GRAPH else 1


def tube_radius(sys: ProblemSystem, z: Sequence[complex]) -> float:
    """m/(2L) for graphs, m/L for submersions; +inf when L=0 < m; 0 when m=0."""
    m = m_value(sys, z)
    if m == 0.0:
        return 0.0
    L = big_l_value(sys, z)
    if L == 0.0:
        return math.inf
    return m / (radius_factor(sys.kind) * L)


def tube_profile(sys: ProblemSystem, zs: Sequence[Sequence[complex]]) -> TubeProfile:
    pts = []
    for z in zs:
        z = tuple(complex(c) for c in z)
        m = m_value(sys, z)
        L = big_l_value(sys, z)
        if m == 0.0:
            r = 0.0
        elif L == 0.0:
            r = math.inf
        else:
            r = m / (radius_factor(sys.kind) * L)
        pts.append(TubePoint(z, m, L, r))
    return TubeProfile(sys.kind, tuple(pts))


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

    levi_table = sys.u_levi
    xs = real_coords(list(z) + list(w))
    V = np.concatenate([v, t])
    direct = 0j
    for j in range(2 * n):
        for k in range(2 * n):
            ljk = levi_table[j][k].eval_real(xs)
            if ljk != 0:
                direct += ljk * V[j] * np.conj(V[k])
    direct = float(direct.real)

    fvals = sys.values_at(z)
    Dz = sys.dz_matrix(z)
    Dzb = bbar_matrix(sys, z)
    levi_forms = np.array([v @ sys.levi_matrix(r, z) @ np.conj(v)
                           for r in range(n)])

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

    xs = real_coords(z)
    direct = 0j
    for t in sys.tables:
        rho = t.value.eval_real(xs)
        for j in range(n):
            dzj = t.dz[j].eval_real(xs)
            for k in range(n):
                # d2(rho^2)/dz_j dzbar_k = 2 rho * levi_jk + 2 dz_j * dzbar_k
                ljk = 2.0 * rho * t.levi[j][k].eval_real(xs) \
                    + 2.0 * dzj * t.dzbar[k].eval_real(xs)
                direct += ljk * v[j] * np.conj(v[k])
    direct = float(direct.real)

    rho_vals = sys.values_at(z).real
    levi_forms = np.array([(v @ sys.levi_matrix(r, z) @ np.conj(v)).real
                           for r in range(sys.rows)])
    A = bbar_matrix(sys, z)
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
