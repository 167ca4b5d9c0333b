"""Heuristic hull-membership evidence via degree-bounded polynomial separation.

A query point q is *separated* from a sample cloud of K when some polynomial p
of total degree <= d satisfies |p(q)| > (1 + margin) * max over the cloud of
|p|.  Modulus constraints are relaxed to a regular g-gon (Re(e^{i phi} p) <= 1
for g uniformly spaced angles), which turns the search into a linear program
over the real and imaginary parts of the coefficients.

Everything here is EVIDENCE, never proof: hull membership is undecidable from
finite data.
"""

from __future__ import annotations

import itertools
import logging
import math
import numbers
import time
from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from .certify import BoxRegion, CompactSpec, DiscRegion
from .trgeom import GRAPH, SUBMERSION, ProblemSystem

log = logging.getLogger(__name__)


@dataclass(frozen=True)
class SampleCloud:
    """Points of the ambient space (C^{2n} for graphs, C^n for submersions)."""

    points: np.ndarray
    meta: dict = field(default_factory=dict)

    def __post_init__(self):
        if len(self.points) == 0:
            raise ValueError("empty sample cloud")

    @property
    def ambient_dim(self) -> int:
        return self.points.shape[1]


@dataclass
class SeparationResult:
    separated: bool
    degree: int
    coefficients: np.ndarray          # complex, aligned with `monomials`
    monomials: tuple[tuple[int, ...], ...]
    ratio: float
    angles: int
    margin: float
    objective: float
    rounds: int                       # LP solves
    active_rows: int                  # (point, angle) rows of the last LP
    fragile: bool | None = None


class ProjectionError(RuntimeError):
    """Newton projection onto the level set failed for most seeds."""


# ---------------------------------------------------------------------------
# Sampling
# ---------------------------------------------------------------------------

def sample_compact(sys: ProblemSystem, K: CompactSpec, density: int) -> SampleCloud:
    """Deterministic sample of K.

    Graph: a density-per-real-axis grid over the parameter region (pruned to
    discs), mapped through F; disc coordinates additionally contribute an
    8*density boundary ring.  Submersion: a seed lattice over the cap is
    Newton-projected onto rho = 0 and non-converged seeds are discarded.
    """
    if density < 2:
        raise ValueError("density must be >= 2 per real dimension")
    K.check_fits(sys)
    if sys.kind == GRAPH:
        return _sample_graph(sys, K, density)
    return _sample_submersion(sys, K, density)


def _coordinate_samples(reg: DiscRegion | BoxRegion, density: int) -> np.ndarray:
    if isinstance(reg, DiscRegion):
        if reg.radius == 0:
            return np.array([reg.center])
        ts = np.linspace(-reg.radius, reg.radius, density)
        xx, yy = np.meshgrid(ts, ts, indexing="ij")
        grid = xx.ravel() + 1j * yy.ravel()
        grid = grid[np.abs(grid) <= reg.radius] + reg.center
        theta = 2 * np.pi * np.arange(8 * density) / (8 * density)
        ring = reg.center + reg.radius * np.exp(1j * theta)
        return np.concatenate([grid, ring])
    xs = np.linspace(reg.re_lo, reg.re_hi, density) if reg.re_hi > reg.re_lo \
        else np.array([reg.re_lo])
    ys = np.linspace(reg.im_lo, reg.im_hi, density) if reg.im_hi > reg.im_lo \
        else np.array([reg.im_lo])
    xx, yy = np.meshgrid(xs, ys, indexing="ij")
    return (xx + 1j * yy).ravel()


def _sample_graph(sys: ProblemSystem, K: CompactSpec, density: int) -> SampleCloud:
    per_coord = [_coordinate_samples(reg, density) for reg in K.regions]
    if sys.n == 1:
        zs = per_coord[0][:, None]
    else:
        # stride the product lattice deterministically without materializing it
        budget = 20_000
        total = math.prod(len(p) for p in per_coord)
        stride = max(1, int(math.ceil(total / budget)))
        flat = np.arange(0, total, stride)
        idx = np.unravel_index(flat, tuple(len(p) for p in per_coord))
        zs = np.stack([per_coord[j][idx[j]] for j in range(sys.n)], axis=1)
    xs = np.empty((len(zs), 2 * sys.n))
    xs[:, 0::2] = zs.real
    xs[:, 1::2] = zs.imag
    fvals = sys.evaluate("value", xs)
    pts = np.concatenate([zs, fvals], axis=1)
    return SampleCloud(points=pts, meta={"density": density, "kind": GRAPH,
                                         "count": len(pts)})


def _sample_submersion(sys: ProblemSystem, K: CompactSpec,
                       density: int) -> SampleCloud:
    n = sys.n
    rows = sys.rows
    per_axis = max(2, min(density, int(round(65536 ** (1.0 / (2 * n))))))
    axes = []
    for reg in K.regions:
        c, r = reg.center, reg.radius
        axes.append(np.linspace(c.real - r, c.real + r, per_axis))
        axes.append(np.linspace(c.imag - r, c.imag + r, per_axis))
    mesh = np.stack([g.ravel() for g in np.meshgrid(*axes, indexing="ij")], axis=1)

    xs = mesh.copy()
    tables = sys.tables

    def residuals(pts: np.ndarray) -> np.ndarray:
        return sys.evaluate("value", pts).real

    def jacobian(pts: np.ndarray) -> np.ndarray:
        # real Jacobian rows: d rho_l / dx_j = 2 Re(d rho_l/dz_j),
        #                     d rho_l / dy_j = -2 Im(d rho_l/dz_j)
        J = np.empty((len(pts), rows, 2 * n))
        for l, t in enumerate(tables):
            for j in range(n):
                dz = t.dz[j].eval_batch(pts)
                J[:, l, 2 * j] = 2.0 * dz.real
                J[:, l, 2 * j + 1] = -2.0 * dz.imag
        return J

    res = residuals(xs)
    err = np.max(np.abs(res), axis=1)
    active = err > 1e-13
    for _ in range(60):
        if not active.any():
            break
        J = jacobian(xs[active])
        step = np.linalg.pinv(J) @ res[active][:, :, None]
        step = step[:, :, 0]
        # damped update: halve until the residual norm decreases
        cand = xs[active] - step
        new_res = residuals(cand)
        worse = np.max(np.abs(new_res), axis=1) > np.max(np.abs(res[active]), axis=1)
        damp = step.copy()
        for _ in range(20):
            if not worse.any():
                break
            damp[worse] *= 0.5
            cand[worse] = xs[active][worse] - damp[worse]
            new_res[worse] = residuals(cand[worse])
            worse = np.max(np.abs(new_res), axis=1) > np.max(np.abs(res[active]), axis=1)
        xs[active] = cand
        res[active] = new_res
        err = np.max(np.abs(res), axis=1)
        active = err > 1e-13

    converged = err <= 1e-12
    frac = float(np.mean(converged))
    if frac < 0.5:
        raise ProjectionError(
            f"Newton projection converged for only {frac:.0%} of seeds")
    pts = xs[converged]
    zs = pts[:, 0::2] + 1j * pts[:, 1::2]
    keep = np.ones(len(zs), dtype=bool)
    for j, reg in enumerate(K.regions):
        keep &= np.abs(zs[:, j] - reg.center) <= reg.radius + 1e-9
    zs = zs[keep]
    if len(zs) == 0:
        raise ProjectionError("no projected seed landed inside the cap")
    # seeds differing only along the normal directions collapse to the same
    # manifold point; deduplicate on a fixed grid, order-stable
    rounded = np.round(np.column_stack([zs.real, zs.imag]), 4)
    _, idx = np.unique(rounded, axis=0, return_index=True)
    zs = zs[np.sort(idx)]
    return SampleCloud(points=zs, meta={"density": density, "kind": SUBMERSION,
                                        "count": len(zs), "converged_fraction": frac})


# ---------------------------------------------------------------------------
# Separation probe
# ---------------------------------------------------------------------------

def monomial_basis(n_vars: int, degree: int) -> tuple[tuple[int, ...], ...]:
    """All exponent tuples with total degree <= degree, constant included."""
    out = [e for e in itertools.product(range(degree + 1), repeat=n_vars)
           if sum(e) <= degree]
    out.sort()
    return tuple(out)


def _monomial_values(points: np.ndarray, monos) -> np.ndarray:
    vals = np.ones((len(points), len(monos)), dtype=np.complex128)
    for t, e in enumerate(monos):
        for v, k in enumerate(e):
            if k:
                vals[:, t] *= points[:, v] ** k
    return vals


# Active-set constants.  The first two set the cost, not the answer: the loop
# stops only when every (point, angle) row holds, whatever they are.  4 nt
# start points at four angles each give the LP 16 nt rows, eight times its
# 2 nt unknowns, so the first round is seldom unbounded.
_START_PER_MONOMIAL = 4
# A basic optimum has 2 nt active rows; 4 nt rows a round bring them in
# within a few rounds while each round's LP stays small.  LP time tracks the
# matrix entries passed to the solver more than its simplex iterations.
_ADD_PER_MONOMIAL = 4
# A row outside the active set is added when its value exceeds 1 by more
# than this.  The objective then exceeds the full LP's by at most this
# relative amount beyond the solver's own tolerance, far below the margin.
_GAUGE_TOL = 1e-9


def probe(cloud: SampleCloud, q: Sequence[complex], degree: int,
          angles: int = 16, margin: float = 0.05) -> SeparationResult:
    """Search for a degree-bounded polynomial separating q from the cloud.

    Solves the LP

        max Re(p(q))
        s.t. Re(e^{i phi_a} p(s)) <= 1      for all cloud points s, all angles

    over the real/imag parts of the coefficients; the polygon relaxation means
    |p(s)| <= sec(pi/angles) on the cloud, and separation is declared when the
    optimum exceeds (1 + margin) * sec(pi/angles).  Multiplying the
    coefficients by e^{i phi_a} maps the feasible set onto itself, so the
    objectives Re(e^{i phi_a} p(q)) all share this one optimum.

    At an optimum only a few of the angles * |cloud| rows are active, so the
    LP is solved over an active set S of (point, angle) rows, row s * angles
    + a for point s at angle a (Kelley's cutting planes).  S starts with 4 nt
    points evenly strided through the cloud, nt the number of monomials, each
    at the four angles (j * angles) // 4, j = 0..3.  They are about a quarter
    turn apart, every gap under a half turn, so they bound p at every start
    point (|Re p| and |Im p| when 4 divides angles), and the start LP is
    bounded exactly when the LP over all angles of those points is.  Each
    round solves the LP over S, evaluates its solution on every row, and
    adds the rows outside S whose value exceeds 1 + 1e-9, at most 4 nt, the
    most violated first.  It stops when there are none.  That answer is the
    full LP's optimum: the LP over S has fewer rows, so its optimum is at
    least the full one, and its solution is feasible on every row, so it is
    at most the full one.  In the worst case S grows to every row, which is
    the full LP.  A round's LP time tracks the matrix entries passed to the
    solver, so growing S by rows rather than by whole points at every angle
    keeps each round's LP a fraction of the size.

    Each round is solved in dual form, min sum(y) s.t. A_S^T y = obj, y >= 0,
    with presolve off; the coefficients are the multipliers of its equality,
    passed as two inequality blocks.  The primal is degenerate (at q = 0 the
    optimum p = 1 makes every angle-0 row active) and the dual simplex takes
    far more iterations on it.  A dual that is infeasible means the primal
    is unbounded over S: S becomes every row, and if it is still unbounded
    there, some p vanishes on the cloud with p(q) != 0.  Then q is separated
    with objective inf, and the coefficients are the cloud's smallest right
    singular vector, scaled to p(q) = 1.

    `rounds` counts the LP solves and `active_rows` the rows of the last one;
    one INFO line on `prc.hullprobe` reports them with the wall time.
    """
    start = time.perf_counter()
    _check_integer("degree", degree, 1)
    _check_integer("angles", angles, 8)
    if not 0.0 <= margin < math.inf:
        raise ValueError(f"margin must be finite and >= 0, got {margin!r}")
    q = np.asarray(q, dtype=np.complex128)
    if q.shape != (cloud.ambient_dim,):
        raise ValueError(f"query point has dimension {q.shape}, "
                         f"cloud ambient is {cloud.ambient_dim}")

    monos = monomial_basis(cloud.ambient_dim, degree)
    qvals = _finite_monomial_values(q[None, :], monos,
                                    f"the query point q = {q.tolist()}")[0]  # (t,)
    mvals = _finite_monomial_values(cloud.points, monos, "the sample cloud")  # (s, t)
    nt = len(monos)
    count = len(mvals)
    rot = np.exp(2j * np.pi * np.arange(angles) / angles)  # (a,)
    obj = np.empty(2 * nt)
    obj[0::2] = qvals.real
    obj[1::2] = -qvals.imag

    k = min(count, _START_PER_MONOMIAL * nt)
    quarter_turns = np.arange(4) * angles // 4
    active = ((np.arange(k) * count // k * angles)[:, None] + quarter_turns).ravel()
    rounds = 0
    while True:
        rounds += 1
        coeffs, best_obj = _solve_dual(mvals[active // angles] * rot[active % angles, None], obj)
        if coeffs is None:
            if len(active) == count * angles:
                coeffs, best_obj = _null_polynomial(mvals, qvals), math.inf
                break
            active = np.arange(count * angles)
            continue
        values = (rot[None, :] * (mvals @ coeffs)[:, None]).real.ravel()  # (s a,)
        values[active] = -np.inf
        over = np.nonzero(values > 1.0 + _GAUGE_TOL)[0]
        if not len(over):
            break
        worst = over[np.argsort(-values[over], kind="stable")[:_ADD_PER_MONOMIAL * nt]]
        active = np.union1d(active, worst)

    ratio = _ratio(coeffs, mvals, qvals)
    separated = best_obj > (1.0 + margin) / math.cos(math.pi / angles)
    log.info("probe: degree %d, %d points x %d angles, %d rounds, %d active rows, "
             "objective %.6g, %.3f s", degree, count, angles, rounds, len(active),
             best_obj, time.perf_counter() - start)
    return SeparationResult(separated=bool(separated), degree=degree,
                            coefficients=coeffs, monomials=monos, ratio=ratio,
                            angles=angles, margin=margin, objective=float(best_obj),
                            rounds=rounds, active_rows=len(active))


def _check_integer(name: str, value, least: int) -> None:
    if isinstance(value, bool) or not isinstance(value, numbers.Integral) or value < least:
        raise ValueError(f"{name} must be an integer >= {least}, got {value!r}")


def _finite_monomial_values(points: np.ndarray, monos, what: str) -> np.ndarray:
    """`_monomial_values`, or ValueError naming `what` when one leaves the
    range of doubles."""
    with np.errstate(over="ignore", invalid="ignore"):
        vals = _monomial_values(points, monos)
    if not np.isfinite(vals).all():
        degree = max(map(sum, monos))
        raise ValueError(f"the degree-{degree} monomials of {what} "
                         f"leave the range of doubles")
    return vals


def linprog(*args, **kwargs):
    """`scipy.optimize.linprog`, with the same arguments and result.  scipy
    loads at the first LP solve, so importing this module, sampling a cloud
    and `fragility_check` do not load it."""
    from scipy.optimize import linprog as solve
    return solve(*args, **kwargs)


def _solve_dual(rows: np.ndarray, obj: np.ndarray):
    """The LP max obj.x s.t. Re(p_x . r) <= 1 for each row r of `rows` (the
    monomial values of one cloud point times e^{i phi_a} for one angle),
    solved as its dual; each row is one column of the dual's doubled
    `A_ub`.  Returns (coefficients, optimum), or (None, None) when the dual
    is infeasible, that is when the LP is unbounded."""
    nt = rows.shape[1]
    At = np.empty((2 * nt, len(rows)))
    At[0::2] = rows.real.T
    At[1::2] = -rows.imag.T
    res = linprog(np.ones(len(rows)), A_ub=np.vstack([At, -At]),
                  b_ub=np.concatenate([obj, -obj]), bounds=(0, None),
                  method="highs", options={"presolve": False})
    if res.status == 2:
        return None, None
    if res.status != 0:
        raise RuntimeError(f"LP solver failed with status {res.status}: "
                           f"{res.message}")
    m = res.ineqlin.marginals
    # d(optimum)/d(obj) is the primal solution; obj is the bound of the
    # first block and -obj that of the second
    x = m[:2 * nt] - m[2 * nt:]
    return x[0::2] + 1j * x[1::2], res.fun


def _null_polynomial(mvals: np.ndarray, qvals: np.ndarray) -> np.ndarray:
    """Coefficients of the polynomial that is smallest on the cloud relative
    to its coefficients (the last right singular vector of `mvals`), scaled
    so that its value at q is 1."""
    # full_matrices only when there are fewer points than monomials, so that
    # Vh is square and holds the null space
    v = np.linalg.svd(mvals, full_matrices=len(mvals) < mvals.shape[1])[2][-1].conj()
    return v / (qvals @ v)


def _ratio(coeffs: np.ndarray, mvals: np.ndarray, qvals: np.ndarray) -> float:
    cloud_max = float(np.max(np.abs(mvals @ coeffs)))
    at_q = float(np.abs(qvals @ coeffs))
    if cloud_max == 0.0:
        return math.inf if at_q > 0 else 0.0
    return at_q / cloud_max


def fragility_check(result: SeparationResult, q: Sequence[complex],
                    dense_cloud: SampleCloud) -> SeparationResult:
    """Re-evaluate a separation on a denser cloud; flags it fragile if the
    ratio drops to 1 or below."""
    if not result.separated:
        result.fragile = None
        return result
    q = np.asarray(q, dtype=np.complex128)
    mvals = _finite_monomial_values(dense_cloud.points, result.monomials,
                                    "the dense sample cloud")
    qvals = _monomial_values(q[None, :], result.monomials)[0]
    dense_ratio = _ratio(result.coefficients, mvals, qvals)
    result.fragile = bool(dense_ratio <= 1.0)
    return result
