"""Rigorous interval bounds of m, L and residual sums over boxes, with
adaptive bisection.

Bounds are computed from the canonical-polynomial derivative tables of a
ProblemSystem:

* m_lower: Gershgorin lower bound of lambda_min(B* B) over the interval
  enclosure of the dbar-matrix B,
* L_upper: Frobenius-norm upper bound of the numerical radius of each Levi
  matrix enclosure,
* residual_upper: upper bound of the residual sum.  For a graph the w part
  is either a rectangle per coordinate (4n-coordinate boxes) or an open disc
  D(c, r) per coordinate over a z-box, where w is eliminated in closed form:
  for z fixed, sup over w in D(c, r) of |w - f(z)| is |f(z) - c| + r.

Every subdivision tree is grown by one routine, subdivide: level by level it
clips each box to an optional region (product of per-coordinate discs, i.e.
the omega polydisc), evaluates a per-box check, bisects the widest
coordinate of undecided boxes, and aggregates the statuses.  verify_box
establishes the strict tube inclusion residual < m/(cL) with it; the
comparison is division-free (residual_upper * c * L_upper < m_lower *
(1 - margin)) so an infinite radius needs no special casing.  For a graph
the bisected box holds the z coordinates only and the w discs come from the
region, so the tree is 2n-dimensional instead of 4n-dimensional.
verify_totally_real proves m_lower > 0 with it, and certify's K-in-omega
check uses it too.
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass, field
from typing import Any, Iterator, Sequence

from .intervals import INFLATION, ParamBox
from .realpoly import _eval_box_raw, mag_upper, power_tables
from .trgeom import (GRAPH, ProblemSystem, is_totally_real_graph,
                     is_totally_real_submersion, radius_factor)

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

    def outside(self, lo: Sequence[float], hi: Sequence[float]) -> bool:
        """True when the box provably misses the region in some coordinate."""
        for j, (cx, cy, r) in enumerate(self.discs):
            if 2 * j + 1 >= len(lo):
                break
            dx = max(lo[2 * j] - cx, cx - hi[2 * j], 0.0)
            dy = max(lo[2 * j + 1] - cy, cy - hi[2 * j + 1], 0.0)
            if dx * dx + dy * dy >= (r * r) * _PRUNE_GUARD:
                return True
        return False

    def probe(self, lo: Sequence[float], hi: Sequence[float]) -> tuple[float, ...]:
        """A point of the box close to (normally inside) the region."""
        pt = []
        for j, (cx, cy, r) in enumerate(self.discs):
            if 2 * j + 1 >= len(lo):
                break
            pt.append(min(max(cx, lo[2 * j]), hi[2 * j]))
            pt.append(min(max(cy, lo[2 * j + 1]), hi[2 * j + 1]))
        for i in range(len(pt), len(lo)):
            pt.append(0.5 * (lo[i] + hi[i]))
        return tuple(pt)

    def clip(self, lo: Sequence[float], hi: Sequence[float]):
        """AABB of (box intersect region), or None when they are disjoint.

        Sound: the returned box contains every point of the box that lies in
        the region, and is contained in the input box.
        """
        lo = list(lo)
        hi = list(hi)
        for j, (cx, cy, r) in enumerate(self.discs):
            jx, jy = 2 * j, 2 * j + 1
            if jy >= len(lo):
                break
            dx = max(lo[jx] - cx, cx - hi[jx], 0.0)
            dy = max(lo[jy] - cy, cy - hi[jy], 0.0)
            if dx * dx + dy * dy >= (r * r) * _PRUNE_GUARD:
                return None
            sx = math.sqrt(max(r * r - dy * dy, 0.0)) * _PRUNE_GUARD
            sy = math.sqrt(max(r * r - dx * dx, 0.0)) * _PRUNE_GUARD
            lo[jx] = max(lo[jx], cx - sx)
            hi[jx] = min(hi[jx], cx + sx)
            lo[jy] = max(lo[jy], cy - sy)
            hi[jy] = min(hi[jy], cy + sy)
            if lo[jx] > hi[jx]:
                lo[jx] = hi[jx] = 0.5 * (lo[jx] + hi[jx])
            if lo[jy] > hi[jy]:
                lo[jy] = hi[jy] = 0.5 * (lo[jy] + hi[jy])
        return tuple(lo), tuple(hi)


@dataclass
class VerifyNode:
    """One node of a subdivision tree (see subdivide).

    `value` is what the check evaluated on the node's clipped box: the m
    lower bound in a totally-real tree, (m_lower, L_upper, residual_upper)
    in a tube tree, nothing for an OUTSIDE node.  Only the root of a tube
    tree carries a report.
    """

    box: ParamBox
    depth: int
    status: str = INCONCLUSIVE
    value: Any = None
    children: list["VerifyNode"] = field(default_factory=list)
    witness: dict | None = None
    outside: bool = False
    report: BoundReport | None = None

    def nodes(self) -> Iterator["VerifyNode"]:
        yield self
        for c in self.children:
            yield from c.nodes()

    def leaves(self) -> Iterator["VerifyNode"]:
        if not self.children:
            yield self
        else:
            for c in self.children:
                yield from c.leaves()

    def leaf_count(self) -> int:
        return sum(1 for _ in self.leaves())

    def max_depth_used(self) -> int:
        return max(leaf.depth for leaf in self.leaves())

    def min_m_lower(self) -> float:
        """Least value over the non-OUTSIDE leaves of a totally-real tree
        (+inf when there are none)."""
        vals = [leaf.value for leaf in self.leaves() if not leaf.outside]
        return min(vals) if vals else math.inf


# ---------------------------------------------------------------------------
# Raw bound kernels
# ---------------------------------------------------------------------------

class _BoxBounds:
    """Shared power-table evaluation of all system polynomials over one box."""

    __slots__ = ("sys", "maxdeg")

    def __init__(self, sys: ProblemSystem):
        self.sys = sys
        self.maxdeg = sys.max_degree

    def tables_for(self, lo: Sequence[float], hi: Sequence[float]):
        nz = 2 * self.sys.n
        return power_tables(lo[:nz], hi[:nz], self.maxdeg)

    def m_lower(self, lo, hi, tabs) -> float:
        """Gershgorin lower bound of lambda_min(B* B) over the box.

        Diagonal entries are enclosed tightly via |entry|^2 = re^2 + im^2;
        off-diagonal entries of B* B are accumulated as rectangle sums of
        rectangle products so that sign cancellation between rows survives.
        """
        sys = self.sys
        n = sys.n
        ents = [[_eval_box_raw(t.dzbar[j], lo, hi, tabs) for j in range(n)]
                for t in sys.tables]
        los2 = [[0.0] * n for _ in range(sys.rows)]
        for r in range(sys.rows):
            for j in range(n):
                rlo, rhi, ilo, ihi = ents[r][j]
                re_mig = 0.0 if rlo <= 0.0 <= rhi else min(abs(rlo), abs(rhi))
                im_mig = 0.0 if ilo <= 0.0 <= ihi else min(abs(ilo), abs(ihi))
                los2[r][j] = (re_mig * re_mig + im_mig * im_mig) * (1.0 - INFLATION)
        best = math.inf
        for j in range(n):
            diag = sum(los2[r][j] for r in range(sys.rows))
            off = 0.0
            for i in range(n):
                if i == j:
                    continue
                # H[j,i] = sum_r conj(B[r,j]) * B[r,i]
                hr_lo = hr_hi = hi_lo = hi_hi = 0.0
                for r in range(sys.rows):
                    alo, ahi, blo, bhi = ents[r][j]
                    blo, bhi = -bhi, -blo  # conjugate
                    clo, chi, dlo, dhi = ents[r][i]
                    # real: a*c - b*d; imag: a*d + b*c
                    p = (alo * clo, alo * chi, ahi * clo, ahi * chi)
                    q = (blo * dlo, blo * dhi, bhi * dlo, bhi * dhi)
                    hr_lo += min(p) - max(q)
                    hr_hi += max(p) - min(q)
                    p = (alo * dlo, alo * dhi, ahi * dlo, ahi * dhi)
                    q = (blo * clo, blo * chi, bhi * clo, bhi * chi)
                    hi_lo += min(p) + min(q)
                    hi_hi += max(p) + max(q)
                off += math.hypot(max(abs(hr_lo), abs(hr_hi)),
                                  max(abs(hi_lo), abs(hi_hi)))
            best = min(best, diag - off * (1.0 + 4.0 * INFLATION))
        return max(0.0, best)

    def L_upper(self, lo, hi, tabs) -> float:
        sys = self.sys
        n = sys.n
        best = 0.0
        for t in sys.tables:
            fro2 = 0.0
            for j in range(n):
                for k in range(n):
                    p = t.levi[j][k]
                    if p.is_zero:
                        continue
                    m = mag_upper(_eval_box_raw(p, lo, hi, tabs))
                    fro2 += m * m
            best = max(best, math.sqrt(fro2) * (1.0 + INFLATION))
        return best

    def residual_upper(self, lo, hi, tabs, w_discs=None) -> float:
        """Upper bound of the residual sum over the box.

        A graph takes w from `w_discs` ((c_re, c_im, r) per coordinate, the
        box being a z-box) or else from the w rectangles of a 4n box.  Every
        term is a non-negative sum of correctly rounded operations, so the
        final relative inflation covers their rounding.
        """
        sys = self.sys
        total = 0.0
        if sys.kind == GRAPH and w_discs is not None:
            for t, (cx, cy, r) in zip(sys.tables, w_discs):
                rlo, rhi, ilo, ihi = _eval_box_raw(t.value, lo, hi, tabs)
                total += math.hypot(max(abs(rlo - cx), abs(rhi - cx)),
                                    max(abs(ilo - cy), abs(ihi - cy))) + r
        elif sys.kind == GRAPH:
            if len(lo) != 4 * sys.n:
                raise ValueError("graph residual bound needs w intervals or w discs")
            off = 2 * sys.n
            for nu, t in enumerate(sys.tables):
                rlo, rhi, ilo, ihi = _eval_box_raw(t.value, lo, hi, tabs)
                wr_lo, wr_hi = lo[off + 2 * nu], hi[off + 2 * nu]
                wi_lo, wi_hi = lo[off + 2 * nu + 1], hi[off + 2 * nu + 1]
                dre = max(abs(rlo - wr_hi), abs(rhi - wr_lo))
                dim = max(abs(ilo - wi_hi), abs(ihi - wi_lo))
                total += math.hypot(dre, dim)
        else:
            for t in sys.tables:
                total += mag_upper(_eval_box_raw(t.value, lo, hi, tabs))
        return total * (1.0 + INFLATION)

    def tube(self, lo, hi, w_discs) -> tuple[float, float, float]:
        """(m_lower, L_upper, residual_upper) over the box."""
        tabs = self.tables_for(lo, hi)
        return (self.m_lower(lo, hi, tabs), self.L_upper(lo, hi, tabs),
                self.residual_upper(lo, hi, tabs, w_discs))


def _tube_holds(m_lo: float, L_up: float, r_up: float, c: float,
                margin: float) -> bool:
    """The strict, division-free tube test r_up < m_lo (1 - margin) / (c L_up)."""
    return m_lo > 0.0 and r_up * (c * L_up) < m_lo * (1.0 - margin)


def _w_discs(sys: ProblemSystem, box: ParamBox, region: Region | None):
    """The omega discs of the w coordinates for a graph tube check on a z-box
    (None for a submersion, which has no w)."""
    if sys.kind != GRAPH:
        return None
    if box.has_w or region is None or len(region.discs) != 2 * sys.n:
        raise ValueError("graph tube checks take a z-box and a region with "
                         f"{sys.n} z discs and {sys.n} w discs")
    return region.discs[sys.n:]


def _radius_from(m_lower: float, L_upper: float, kind: str) -> float:
    if m_lower <= 0.0:
        return 0.0
    if L_upper == 0.0:
        return math.inf
    return m_lower / (radius_factor(kind) * L_upper)


# -- public one-shot bound API ------------------------------------------------

def bound_m_below(sys: ProblemSystem, box: ParamBox) -> float:
    """Sound lower bound of m_value over the box (0 when vacuous)."""
    bb = _BoxBounds(sys)
    return bb.m_lower(box.lo, box.hi, bb.tables_for(box.lo, box.hi))


def bound_L_above(sys: ProblemSystem, box: ParamBox) -> float:
    """Sound upper bound of big_l_value over the box (w(M) <= Frobenius norm)."""
    bb = _BoxBounds(sys)
    return bb.L_upper(box.lo, box.hi, bb.tables_for(box.lo, box.hi))


def bound_residual_above(sys: ProblemSystem, box: ParamBox,
                         region: Region | None = None) -> float:
    """Sound upper bound of the residual sum over the box.

    A graph needs the w part: w intervals on a 4n box, or a z-box together
    with a region whose last n discs are the w discs.
    """
    bb = _BoxBounds(sys)
    w_discs = None if region is None else _w_discs(sys, box, region)
    return bb.residual_upper(box.lo, box.hi, bb.tables_for(box.lo, box.hi),
                             w_discs)


# ---------------------------------------------------------------------------
# Pointwise violation probe
# ---------------------------------------------------------------------------

def _probe_point(box: ParamBox, region: Region | None) -> tuple[float, ...]:
    if region is None:
        return box.center()
    return region.probe(box.lo, box.hi)


def _point_quantities(sys: ProblemSystem, pt: Sequence[float]) -> tuple[float, float]:
    """(residual, tube radius) at a real-coordinate point; low-overhead path."""
    n = sys.n
    xs = list(pt[:2 * n])
    vals = [t.value.eval_real(xs) for t in sys.tables]
    if sys.kind == GRAPH:
        off = 2 * n
        residual = sum(abs(vals[j] - complex(pt[off + 2 * j], pt[off + 2 * j + 1]))
                       for j in range(n))
    else:
        residual = sum(abs(v) for v in vals)

    B = [[t.dzbar[j].eval_real(xs) for j in range(n)] for t in sys.tables]
    if n == 1:
        # a column has a single singular value, its norm
        m = sum(abs(row[0]) ** 2 for row in B)
    elif n == 2:
        h00 = sum(abs(row[0]) ** 2 for row in B)
        h11 = sum(abs(row[1]) ** 2 for row in B)
        h01 = sum(row[0].conjugate() * row[1] for row in B)
        half = math.sqrt(((h00 - h11) / 2) ** 2 + abs(h01) ** 2)
        m = max((h00 + h11) / 2 - half, 0.0)
    else:
        import numpy as np

        s = np.linalg.svd(np.array(B), compute_uv=False)
        m = float(s[-1]) ** 2
    if m == 0.0:
        return residual, 0.0

    L = 0.0
    for t in sys.tables:
        lev = [[t.levi[j][k].eval_real(xs) for k in range(n)] for j in range(n)]
        if n == 1:
            w = abs(lev[0][0])
        elif sys.kind != GRAPH and n == 2:
            # Hermitian 2x2 closed form
            a = lev[0][0].real
            d = lev[1][1].real
            b = 0.5 * (lev[0][1] + lev[1][0].conjugate())
            half = math.sqrt(((a - d) / 2) ** 2 + abs(b) ** 2)
            w = max(abs((a + d) / 2 + half), abs((a + d) / 2 - half))
        else:
            import numpy as np

            from .trgeom import numerical_radius

            w = numerical_radius(np.array(lev))
        L = max(L, w)
    radius = math.inf if L == 0.0 else m / (radius_factor(sys.kind) * L)
    return residual, radius


def _tube_witness(sys: ProblemSystem, z_pt: Sequence[float],
                  region: Region) -> dict | None:
    """Graph FAIL witness at a z point: the w of omega farthest from F(z).

    w_nu = c_nu + r_nu (1 - pull) (c_nu - f_nu(z)) / |c_nu - f_nu(z)| lies
    strictly inside the w disc, and its residual falls short of the sup
    |f_nu(z) - c_nu| + r_nu by the pull only.  _point_violates re-checks it.
    """
    n = sys.n
    for j, (cx, cy, r) in enumerate(region.discs[:n]):
        if math.hypot(z_pt[2 * j] - cx, z_pt[2 * j + 1] - cy) >= r * (1.0 - _WITNESS_PULL):
            return None  # not strictly inside omega: leave it to the children
    pt = list(z_pt)
    for t, (cx, cy, r) in zip(sys.tables, region.discs[n:]):
        away = complex(cx, cy) - t.value.eval_real(z_pt)
        unit = away / abs(away) if away else 1.0
        w = complex(cx, cy) + r * (1.0 - _WITNESS_PULL) * unit
        pt += [w.real, w.imag]
    return _point_violates(sys, pt)


def _point_violates(sys: ProblemSystem, pt: Sequence[float]) -> dict | None:
    n = sys.n
    residual, radius = _point_quantities(sys, pt)
    if math.isinf(radius):
        return None
    if residual >= radius * (1.0 + _VIOLATION_GUARD):
        z = tuple(complex(pt[2 * j], pt[2 * j + 1]) for j in range(n))
        w = None
        if sys.kind == GRAPH:
            off = 2 * n
            w = tuple(complex(pt[off + 2 * j], pt[off + 2 * j + 1]) for j in range(n))
        return {
            "z": [[c.real, c.imag] for c in z],
            "w": None if w is None else [[c.real, c.imag] for c in w],
            "residual": residual,
            "radius": radius,
        }
    return None


# ---------------------------------------------------------------------------
# Bisection, and the two rigor checks built on it
# ---------------------------------------------------------------------------

def subdivide(box: ParamBox, evaluate, max_depth: int, node_budget: int,
              region: Region | None = None, name: str = "subdivision") -> VerifyNode:
    """Level-synchronous bisection shared by every subdivision tree.

    Each node's box is first clipped to `region` (when given): a box that
    misses it becomes an OUTSIDE leaf (PROVED, no value), any other shrinks to
    the bounding box of its intersection with the region, which is sound and
    cuts the overhang at the boundary.  `evaluate(box)` then returns
    (status, value, witness).  PROVED and FAILED nodes are leaves; an
    INCONCLUSIVE node is bisected by ParamBox.split while it lies above
    `max_depth` and the tree stays within `node_budget` nodes (the first
    nodes of a level win; running out is logged once, naming the tree).  The
    first level with a FAILED node ends the search and the tree stays partial.
    Statuses are then aggregated bottom-up, FAILED over INCONCLUSIVE over
    PROVED, and a FAILED node takes the witness of its first FAILED child.
    """
    if max_depth < 0:
        raise ValueError("max_depth must be >= 0")
    root = VerifyNode(box, 0)
    frontier = [root]
    total_nodes = 1
    budget_logged = False
    while frontier:
        undecided = []
        failed = False
        for node in frontier:
            if region is not None:
                clipped = region.clip(node.box.lo, node.box.hi)
                if clipped is None:
                    node.status = PROVED
                    node.outside = True
                    continue
                node.box = ParamBox._new(node.box.n, *clipped)
            node.status, node.value, node.witness = evaluate(node.box)
            if node.status == FAILED:
                failed = True
            elif node.status == INCONCLUSIVE:
                undecided.append(node)
        if failed:
            break  # witnesses trump further refinement
        splittable = [node for node in undecided if node.depth < max_depth]
        room = max(0, (node_budget - total_nodes) // 2)
        if len(splittable) > room and not budget_logged:
            log.warning("node budget %d exhausted in the %s tree", node_budget, name)
            budget_logged = True
        frontier = []
        for node in splittable[:room]:
            node.children = [VerifyNode(b, node.depth + 1) for b in node.box.split()]
            frontier += node.children
        total_nodes += len(frontier)
    _aggregate(root)
    return root


def _aggregate(node: VerifyNode) -> None:
    """Bottom-up statuses and witnesses; deterministic and order-independent."""
    if not node.children:
        return
    for c in node.children:
        _aggregate(c)
    statuses = [c.status for c in node.children]
    if FAILED in statuses:
        node.status = FAILED
        node.witness = next((c.witness for c in node.children
                             if c.status == FAILED and c.witness is not None), None)
    elif INCONCLUSIVE in statuses:
        node.status = INCONCLUSIVE
    else:
        node.status = PROVED


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

    A node's value is (m_lower, L_upper, residual_upper) over its box; the
    root's report aggregates them over the leaves.
    """
    w_discs = _w_discs(sys, box, region)
    bb = _BoxBounds(sys)
    c_factor = float(radius_factor(sys.kind))

    def evaluate(b: ParamBox):
        bounds = bb.tube(b.lo, b.hi, w_discs)
        if _tube_holds(*bounds, c_factor, margin):
            return PROVED, bounds, None
        if w_discs is None:
            wit = _point_violates(sys, _probe_point(b, region))
        else:
            wit = _tube_witness(sys, region.probe(b.lo, b.hi), region)
        return (INCONCLUSIVE if wit is None else FAILED), bounds, wit

    root = subdivide(box, evaluate, max_depth, node_budget, region, "tube")
    leaves = list(root.leaves())
    bounds = [leaf.value for leaf in leaves if not leaf.outside]
    m_lo = min([math.inf] + [b[0] for b in bounds])
    L_up = max([0.0] + [b[1] for b in bounds])
    r_up = max([0.0] + [b[2] for b in bounds])
    root.report = BoundReport(m_lo, L_up, r_up, _radius_from(m_lo, L_up, sys.kind),
                              max(leaf.depth for leaf in leaves), len(leaves))
    return root


def verify_totally_real(sys: ProblemSystem, box: ParamBox, max_depth: int = 14,
                        region: Region | None = None,
                        node_budget: int = 500_000) -> VerifyNode:
    """Prove sigma_min(B)^2 > 0 over the z-box via the Gershgorin lower bound,
    which is each node's value."""
    bb = _BoxBounds(sys)
    pointwise = is_totally_real_graph if sys.kind == GRAPH else is_totally_real_submersion

    def evaluate(b: ParamBox):
        m_lo = bb.m_lower(b.lo, b.hi, bb.tables_for(b.lo, b.hi))
        if m_lo > 0.0:
            return PROVED, m_lo, None
        pt = _probe_point(b, region)
        z = tuple(complex(pt[2 * j], pt[2 * j + 1]) for j in range(sys.n))
        res = pointwise(sys, z)
        if res["totally_real"]:
            return INCONCLUSIVE, m_lo, None
        return FAILED, m_lo, {"z": [[c.real, c.imag] for c in z],
                              "sigma_min": res["sigma_min"]}

    return subdivide(box, evaluate, max_depth, node_budget, region, "totally-real")


def check_leaf(sys: ProblemSystem, box: ParamBox, margin: float,
               region: Region | None = None) -> bool:
    """Recompute the bounds on a recorded leaf box and re-run the tube test.

    Takes the same box and region as verify_box (a z-box and omega's z and w
    discs for a graph).
    """
    w_discs = _w_discs(sys, box, region)
    if region is not None and region.outside(box.lo, box.hi):
        return True
    return _tube_holds(*_BoxBounds(sys).tube(box.lo, box.hi, w_discs),
                       float(radius_factor(sys.kind)), margin)
