import itertools
import logging
import math
import warnings
from fractions import Fraction
from types import SimpleNamespace

import numpy as np
import pytest

from conftest import chain, random_system, random_w_region, sample_disc, wermer_m_closed
from prc import ProblemSystem
from prc.intervals import INFLATION, ParamBox
from prc import realpoly
from prc.realpoly import (MAX_DEGREE, MAX_TERMS, RealPoly, TermPack, _eval_box_raw,
                          power_tables)
from prc.rigor import (FAILED, FAILED_CODE, INCONCLUSIVE, INCONCLUSIVE_CODE, MAX_N, PROVED,
                       PROVED_CODE, Region, _BoxBounds, _tube_holds,
                       _eig2_min_lower, _levi2_upper, bound_L_above, bound_m_below,
                       bound_residual_above, check_leaf, check_leaves, split_coords,
                       split_scale, subdivide, verify_box, verify_totally_real)
from prc.trgeom import GRAPH, bbar_matrix, big_l_value, m_value, numerical_radius


def _random_zbox(rng, n, width=1.0):
    lo = rng.uniform(-1.5, 1.0, size=2 * n)
    hi = lo + rng.uniform(0.05, width, size=2 * n)
    return ParamBox(n, lo, hi)


def _sample_m_L_res(sys_, box, rng, count):
    """m, L and the residual sum of a submersion at uniform samples of the box."""
    xs = box.sample_uniform(rng, count)
    n = sys_.n
    ms, Ls, rs = [], [], []
    for row in xs:
        z = tuple(complex(row[2 * j], row[2 * j + 1]) for j in range(n))
        ms.append(m_value(sys_, z))
        Ls.append(big_l_value(sys_, z))
        if sys_.kind != GRAPH:
            rs.append(float(sum(abs(v) for v in sys_.values_at(z))))
    return np.array(ms), np.array(Ls), np.array(rs)


# ---------------------------------------------------------------------------
# bound_m_below
# ---------------------------------------------------------------------------

def test_bound_m_wermer_small_box(wermer):
    box = ParamBox(1, [-0.05, -0.05], [0.05, 0.05])
    lb = bound_m_below(wermer, box)
    true_min = wermer_m_closed(0.05 * math.sqrt(2))
    assert 1.5 <= lb <= true_min


def test_bound_m_conjugate_graph():
    sys_ = ProblemSystem.graph(["conj(z1)"], 1)
    lb = bound_m_below(sys_, ParamBox(1, [-9, -9], [9, 9]))
    assert abs(lb - 1.0) <= 1e-9


def test_bound_m_holomorphic_zero():
    sys_ = ProblemSystem.graph(["z1"], 1)
    assert bound_m_below(sys_, ParamBox(1, [-1, -1], [1, 1])) == 0.0


def test_bound_m_example2_unit_box(example2):
    lb = bound_m_below(example2, ParamBox(2, [-1, -1, -1, -1], [1, 1, 1, 1]))
    assert lb >= 0.2


# ---------------------------------------------------------------------------
# bound_L_above
# ---------------------------------------------------------------------------

def test_bound_L_pluriharmonic_zero():
    sys_ = ProblemSystem.graph(["z1 + conj(z1)"], 1)
    assert bound_L_above(sys_, ParamBox(1, [-5, -5], [5, 5])) == 0.0


def test_bound_L_wermer_near_one(wermer):
    box = ParamBox(1, [1 - 1e-3, -1e-3], [1 + 1e-3, 1e-3])
    ub = bound_L_above(wermer, box)
    assert 2 * math.sqrt(10) <= ub <= 2 * math.sqrt(10) + 0.1


def test_bound_L_example2_unit_box(example2):
    ub = bound_L_above(example2, ParamBox(2, [-1, -1, -1, -1], [1, 1, 1, 1]))
    assert ub <= 0.2  # within 2x of the displayed bound 2*max(c,d) = 0.1


# ---------------------------------------------------------------------------
# bound_residual_above
# ---------------------------------------------------------------------------

def _point_box(z: complex) -> ParamBox:
    return ParamBox(1, [z.real, z.imag], [z.real, z.imag])


def test_residual_degenerate_graph_box(wermer):
    """At one z, over a w disc of radius 1e-12 around f(z)."""
    z = 0.17 + 0.05j
    w = complex(wermer.values_at((z,))[0])
    region = Region(((z.real, z.imag, 1.0), (w.real, w.imag, 1e-12)))
    assert bound_residual_above(wermer, _point_box(z), region) <= 1e-9


def test_residual_graph_needs_w(wermer):
    with pytest.raises(ValueError):
        bound_residual_above(wermer, ParamBox(1, [-1, -1], [1, 1]))
    with pytest.raises(ValueError):  # a box holds z only
        ParamBox(1, [0.0] * 4, [0.0] * 4)


def test_residual_wermer_on_circle(wermer):
    # f vanishes on |z| = 1, so the residual over a tiny w disc at 0 is 0 there
    region = Region(((0.0, 0.0, 2.0), (0.0, 0.0, 1e-12)))
    assert bound_residual_above(wermer, _point_box(1 + 0j), region) <= 1e-9


def test_residual_example2_shrinks_on_manifold(example2):
    rng = np.random.default_rng(21)
    for _ in range(20):
        x1, x2 = rng.uniform(-1, 1, 2)
        z = (complex(x1, 0.05 * (x1 ** 2 + x2 ** 3)),
             complex(x2, 0.05 * (x2 ** 2 + x1 ** 3)))
        w = 1e-4
        lo = [z[0].real - w, z[0].imag - w, z[1].real - w, z[1].imag - w]
        hi = [z[0].real + w, z[0].imag + w, z[1].real + w, z[1].imag + w]
        assert bound_residual_above(example2, ParamBox(2, lo, hi)) <= 1e-3


# ---------------------------------------------------------------------------
# soundness and monotonicity properties
# ---------------------------------------------------------------------------

def test_bounds_one_sided_random_suite():
    """m and L bounds on random z-boxes, and a submersion's residual bound;
    test_z_only_residual_bounds_sup_over_w_disc checks a graph's."""
    rng = np.random.default_rng(30)
    for _ in range(30):
        sys_ = random_system(rng)
        lo = rng.uniform(-1, 0.5, size=2 * sys_.n)
        hi = lo + rng.uniform(0.05, 0.8, size=2 * sys_.n)
        box = ParamBox(sys_.n, lo, hi)
        m_lo = bound_m_below(sys_, box)
        L_up = bound_L_above(sys_, box)
        ms, Ls, rs = _sample_m_L_res(sys_, box, rng, 200)
        assert np.all(ms >= m_lo - 1e-9 * (1 + np.abs(ms)))
        assert np.all(Ls <= L_up + 1e-9 * (1 + np.abs(Ls)))
        if sys_.kind != GRAPH:
            r_up = bound_residual_above(sys_, box)
            assert np.all(rs <= r_up + 1e-9 * (1 + np.abs(rs)))


def test_bounds_monotone_under_subdivision():
    rng = np.random.default_rng(31)
    for _ in range(100):
        sys_ = random_system(rng)
        box = _random_zbox(rng, sys_.n)
        m_parent = bound_m_below(sys_, box)
        L_parent = bound_L_above(sys_, box)
        for child in box.split(split_coords([box.lo], [box.hi])[0]):
            assert bound_m_below(sys_, child) >= m_parent - 1e-12 * (1 + m_parent)
            assert bound_L_above(sys_, child) <= L_parent + 1e-12 * (1 + L_parent)


# ---------------------------------------------------------------------------
# verify_box
# ---------------------------------------------------------------------------

def _wermer_region(wermer, width, pad):
    """z disc of radius `width` at 0, and a w disc around the enclosure of f
    over the z-box [-width, width]^2, `pad` wider than that enclosure."""
    zbox = ParamBox(1, [-width, -width], [width, width])
    fbox = RealPoly.from_expr(wermer.exprs[0], 1).eval_box(zbox)
    cx = 0.5 * (fbox.re.lo + fbox.re.hi)
    cy = 0.5 * (fbox.im.lo + fbox.im.hi)
    r = 0.5 * math.hypot(fbox.re.hi - fbox.re.lo, fbox.im.hi - fbox.im.lo)
    return zbox, Region(((0.0, 0.0, width), (cx, cy, r + pad)))


def test_verify_wermer_inflated_graph_box(wermer):
    box, region = _wermer_region(wermer, 0.2, 0.05)
    root = verify_box(wermer, box, max_depth=8, region=region)
    assert root.status == PROVED
    assert root.report.depth <= 8
    # every proved leaf replays against fresh bounds
    for lo, hi in zip(root.leaves.lo, root.leaves.hi):
        assert check_leaf(wermer, ParamBox(1, lo, hi), margin=1e-6, region=region)


def test_verify_holomorphic_fails_with_witness():
    sys_ = ProblemSystem.graph(["z1"], 1)
    box = ParamBox(1, [-1, -1], [1, 1])
    region = Region(((0.0, 0.0, 1.0), (0.0, 0.0, 1.0)))
    root = verify_box(sys_, box, max_depth=6, region=region)
    assert root.status == FAILED
    assert root.witness is not None
    assert root.witness["residual"] >= root.witness["radius"]
    # the witness is a point of omega
    for (x, y), (cx, cy, r) in zip(root.witness["z"] + root.witness["w"],
                                   region.discs):
        assert math.hypot(x - cx, y - cy) < r


def test_tube_holds_only_where_m_lower_is_positive():
    """certify proves m > 0 on omega by the tube tree alone: the tube test
    fails on every box whose m_lower is not positive, even with no residual
    and no Levi form (r_up = L_up = 0), and wherever a bound is NaN."""
    nan = math.nan
    # (m_lo, L_up, r_up, whether the test holds)
    rows = [*[(m, 0.0, 0.0, False) for m in (0.0, -0.0, -5e-324, -1.0, -math.inf, nan)],
            (0.0, nan, 0.0, False), (0.0, 0.0, nan, False), (0.0, math.inf, 0.0, False),
            (1.0, nan, 0.0, False), (1.0, 0.0, nan, False),
            (5e-324, 0.0, 0.0, True), (1.0, 0.5, 0.5, True)]
    m_lo, L_up, r_up, want = (np.array(col) for col in zip(*rows))
    rng = np.random.default_rng(17)
    m_neg = -rng.exponential(size=200) * rng.integers(0, 2, 200)  # half of them 0
    for c in (1.0, 2.0):
        for margin in (0.0, 1e-6):
            assert _tube_holds(m_lo, L_up, r_up, c, margin).tolist() == want.tolist()
            held = _tube_holds(m_neg, rng.exponential(size=200) * rng.integers(0, 2, 200),
                               rng.exponential(size=200) * rng.integers(0, 2, 200), c, margin)
            assert not held.any()


def test_verify_depth_zero_inconclusive(wermer):
    box = ParamBox(1, [-0.35, -0.35], [0.35, 0.35])
    region = Region(((0.0, 0.0, 0.35), (0.0, 0.0, 0.5)))
    root = verify_box(wermer, box, max_depth=0, region=region)
    assert root.status == INCONCLUSIVE


def test_verify_graph_box_needs_w(wermer):
    zbox = ParamBox(1, [-1, -1], [1, 1])
    with pytest.raises(ValueError):
        verify_box(wermer, zbox)
    with pytest.raises(ValueError):
        verify_box(wermer, zbox, region=Region(((0.0, 0.0, 1.0),)))
    with pytest.raises(ValueError):  # w is not bisected any more
        verify_box(wermer, ParamBox(1, [-1] * 4, [1] * 4),
                   region=Region(((0.0, 0.0, 1.0), (0.0, 0.0, 1.0))))


def test_verify_region_pruning(wermer):
    # an omega far outside the box region prunes everything
    box = ParamBox(1, [10, 10], [11, 11])
    region = Region(((0.0, 0.0, 0.5), (0.0, 0.0, 0.5)))
    root = verify_box(wermer, box, max_depth=3, region=region)
    assert root.status == PROVED
    assert root.outside


def test_verify_proved_leaves_hold_on_samples(wermer):
    """Monte Carlo: no sampled (z, w) of a proved leaf violates the tube."""
    rng = np.random.default_rng(33)
    box, region = _wermer_region(wermer, 0.15, 0.03)
    root = verify_box(wermer, box, max_depth=10, region=region)
    assert root.status == PROVED
    from prc.trgeom import tube_radius

    inside = ~root.leaves.outside
    leaves = [ParamBox(1, lo, hi) for lo, hi in zip(root.leaves.lo[inside],
                                                    root.leaves.hi[inside])]
    stride = max(1, len(leaves) // 10)
    for leaf in leaves[::stride]:
        xs = leaf.sample_uniform(rng, 1000)
        ws = sample_disc(rng, region.discs[1], 1000)
        for row, w in zip(xs, ws):
            z = (complex(row[0], row[1]),)
            resid = abs(complex(wermer.values_at(z)[0]) - w)
            assert resid < tube_radius(wermer, z)


def test_node_budget_exhaustion_logged_once_per_tree(wermer, caplog):
    # a PASS that needs 112 tube leaves (the wider z disc of radius 0.3 has a
    # FAIL witness that the probes find within 51 nodes)
    box, region = _wermer_region(wermer, 0.28, 0.05)
    with caplog.at_level(logging.WARNING, logger="prc.rigor"):
        root = verify_box(wermer, box, max_depth=30, region=region, node_budget=51)
    assert root.status == INCONCLUSIVE
    assert len(_walk(root)) <= 51
    assert [r.getMessage() for r in caplog.records] == [
        "node budget 51 exhausted in the tube tree"]
    caplog.clear()
    disc = Region(((0.0, 0.0, 0.75),))
    with caplog.at_level(logging.WARNING, logger="prc.rigor"):
        root = verify_totally_real(wermer, ParamBox(1, [-0.75] * 2, [0.75] * 2),
                                   max_depth=30, region=disc, node_budget=3)
    assert root.status == INCONCLUSIVE
    assert [r.getMessage() for r in caplog.records] == [
        "node budget 3 exhausted in the totally-real tree"]


def test_split_scale_bounds_the_slopes_of_the_residual():
    """s_v bounds sum_r |d rho_r / dx_v| over the box, a zero weight takes
    the smallest positive one, and constant functions give unit weights."""
    sys_ = ProblemSystem.submersion(["Im(z1) - 3*Re(z2)", "Im(z2) + 0.5*Re(z2)^2"], 2, 2)
    box = ParamBox(2, [-1.0, -1.0, -1.0, -1.0], [1.0, 1.0, 2.0, 1.0])
    sx1, sy1, sx2, sy2 = split_scale(sys_, box)
    # x1 enters neither function; |d/dx2| <= 3 + |x2| <= 5; y1 and y2 slope 1
    assert sx1 == min(sy1, sx2, sy2) == sy1
    assert 1.0 <= sy1 == sy2 < 1.0 + 1e-11 and 5.0 <= sx2 < 5.0 + 1e-10
    assert split_scale(ProblemSystem.graph(["2 + i"], 1), ParamBox(1, [0, 0], [1, 1])) \
        == (1.0, 1.0)


def test_split_coords_weigh_widths_and_break_ties_low():
    lo = np.zeros((3, 4))
    hi = np.array([[1.0, 1.0, 1.0, 1.0], [1.0, 2.0, 1.0, 2.0], [4.0, 1.0, 1.0, 1.0]])
    assert split_coords(lo, hi) == [0, 1, 0]
    assert split_coords(lo, hi, (1.0, 3.0, 1.0, 3.0)) == [1, 1, 0]
    assert split_coords(lo, hi, (1.0, 1.0, 1.0, 4.0)) == [3, 3, 0]


def _walk(root):
    """Every node of a VerifyNode tree, depth first, children in split order."""
    out, stack = [], [root]
    while stack:
        node = stack.pop()
        out.append(node)
        stack += reversed(node.children)
    return out


def _leaf_rows(leaves):
    """(status, depth, lo, hi) of each row of a Leaves."""
    return list(zip(leaves.statuses(), leaves.depth.tolist(), map(tuple, leaves.lo.tolist()),
                    map(tuple, leaves.hi.tolist())))


def test_subdivide_stops_at_first_failed_level():
    """A FAILED node ends the search once its level is done; the root takes
    the first failed leaf's witness.  The region clips the root to about
    [-1, 1]^2, and boxes left of x = -0.4 fail, first at depth 3."""
    evaluated = []

    def evaluate(lo, hi):
        evaluated.extend(lo.tolist())
        failed = hi[:, 0] < -0.4
        witness = {"lo": tuple(lo[np.argmax(failed)].tolist())} if failed.any() else None
        return np.where(failed, FAILED_CODE, INCONCLUSIVE_CODE), None, witness

    root = subdivide(ParamBox(1, [-1, -1], [3, 1]), evaluate, 10, 1000,
                     Region(((0.0, 0.0, 1.0),)))
    assert root.status == FAILED
    assert root.box.hi[0] < 1.01
    depths = [node.depth for node in _walk(root)]
    assert max(depths) == 3 and depths.count(3) == 8  # the whole level
    assert len(evaluated) == len(depths) == 1 + 2 + 4 + 8
    leaves = root.leaves
    assert leaves.values is None
    failed = np.nonzero(leaves.codes == FAILED_CODE)[0]
    assert len(failed) == 2 and leaves.statuses().count(FAILED) == 2
    assert root.witness == {"lo": tuple(leaves.lo[failed[0]].tolist())}
    assert leaves.hi[failed[0], 1] <= leaves.lo[failed[1], 1]  # the lower one first


# the order in which a parent takes its children's statuses, the last winning
_STATUS_ORDER = (PROVED, INCONCLUSIVE, FAILED)


def _random_status(seed, failed_share):
    """A check whose status is a seeded random function of the box's bits:
    FAILED with probability `failed_share`, else PROVED (never for a box
    wider than 1, likelier for a small one) or INCONCLUSIVE.  Its values are
    each box's lower corner, its witness the first FAILED box's, and it
    counts the boxes it is given in `evaluated`."""
    evaluated = []

    def status(lo, hi):
        u = np.random.default_rng([seed, *np.array(lo + hi).view(np.uint64)]).random()
        width = max(np.subtract(hi, lo))
        proved = 0.0 if width > 1.0 else 0.5 if width < 0.3 else 0.2
        return FAILED if u < failed_share else PROVED if u < proved else INCONCLUSIVE

    def evaluate(lo, hi):
        evaluated.append(len(lo))
        codes = np.array([_STATUS_ORDER.index(status(l, h))
                          for l, h in zip(map(tuple, lo.tolist()), map(tuple, hi.tolist()))],
                         dtype=np.int8)
        failed = np.nonzero(codes == FAILED_CODE)[0]
        witness = ({"lo": tuple(lo[failed[0]].tolist()), "status": FAILED}
                   if len(failed) else None)
        return codes, lo.copy(), witness
    return status, evaluate, evaluated


def _reference_leaves(status, lo, hi, depth, max_depth, region, scale):
    """Depth-first recursive bisection: (status, depth, lo, hi) of each leaf,
    OUTSIDE for a box that misses the region, each other box clipped first."""
    clo, chi, inside = region.clip([lo], [hi])
    if not inside[0]:
        return [("OUTSIDE", depth, lo, hi)]
    box = ParamBox(len(lo) // 2, clo[0], chi[0])
    st = status(box.lo, box.hi)
    if st != INCONCLUSIVE or depth == max_depth:
        return [(st, depth, box.lo, box.hi)]
    out = []
    for child in box.split(split_coords([box.lo], [box.hi], scale)[0]):
        out += _reference_leaves(status, child.lo, child.hi, depth + 1, max_depth, region, scale)
    return out


def _seeded_tree(seed):
    """The random check of `seed` subdivided, and its recursive reference:
    (root, reference leaves, status, boxes evaluated per level, scale)."""
    rng = np.random.default_rng(seed)
    n = 1 + seed % 2
    region = Region(tuple((rng.uniform(-0.3, 0.3) + 5.0 * (seed == 12),
                           rng.uniform(-0.3, 0.3), rng.uniform(0.5, 1.2)) for _ in range(n)))
    scale = None if seed % 3 == 0 else tuple(rng.uniform(0.5, 2.0, size=2 * n))
    status, evaluate, evaluated = _random_status(seed, 0.0 if seed < 6 else 0.01)
    lo, hi = (-1.0,) * (2 * n), (1.0,) * (2 * n)
    max_depth = 9 if n == 1 else 6
    ref = _reference_leaves(status, lo, hi, 0, max_depth, region, scale)
    failed = [leaf for leaf in ref if leaf[0] == FAILED]
    if failed:
        ref = _reference_leaves(status, lo, hi, 0, min(d for _, d, _, _ in failed),
                                region, scale)
    root = subdivide(ParamBox(n, lo, hi), evaluate, max_depth, 10**6, region, scale=scale)
    return root, ref, bool(failed), evaluated, scale


@pytest.mark.parametrize("seed", range(13))
def test_subdivide_matches_recursive_reference(seed):
    """Level-synchronous subdivide grows the tree a depth-first recursion
    would: the same leaves (status, depth, box, OUTSIDE) in the same order,
    unless a FAILED level ends it, which is the recursion stopped at the
    depth of its shallowest FAILED leaf.  The root takes the first FAILED
    leaf's witness, and its Leaves are the leaves of a `.children` walk.
    Seed 12's region misses the box: an OUTSIDE root."""
    root, ref, failed, evaluated, scale = _seeded_tree(seed)
    leaves = root.leaves
    assert _leaf_rows(leaves) == ref
    assert root.split_scale == scale
    first_failed = next((leaf for leaf in ref if leaf[0] == FAILED), None)
    if first_failed is None:
        assert root.status == (INCONCLUSIVE if any(leaf[0] == INCONCLUSIVE for leaf in ref)
                               else PROVED)
        assert root.witness is None
    else:
        assert root.status == FAILED
        assert root.witness == {"lo": first_failed[2], "status": FAILED}
    # each box evaluated once, and each leaf keeps the values of its own box
    nodes = _walk(root)
    assert sum(evaluated) == sum(not node.outside for node in nodes)
    inside = ~leaves.outside
    assert np.array_equal(leaves.values[inside], leaves.lo[inside])
    assert np.isnan(leaves.values[~inside]).all()
    for node in nodes:
        assert len(node.children) in (0, 2)
        if node.children:
            codes = [_STATUS_ORDER.index(c.status) for c in node.children]
            assert node.status == _STATUS_ORDER[max(codes)]
    # the root's Leaves are the leaves a walk of `.children` meets, in order
    walked = [node for node in nodes if not node.children]
    assert _leaf_rows(leaves) == [
        ("OUTSIDE" if node.outside else node.status, node.depth, node.box.lo, node.box.hi)
        for node in walked]
    assert leaves.outside.tolist() == [node.outside for node in walked]
    assert (leaves.codes[leaves.outside] == PROVED_CODE).all()  # OUTSIDE is PROVED
    assert leaves.depth.dtype.kind == "i" and leaves.codes.dtype == np.int8
    if seed < 12:
        assert len(ref) > 20 or failed  # a real tree, or one a FAILED level cut short
    else:  # the OUTSIDE root keeps its unclipped box
        assert ref == [("OUTSIDE", 0, (-1.0, -1.0), (1.0, 1.0))]


@pytest.mark.parametrize("budget", [1, 2, 3, 4, 7, 10, 25, 60])
def test_subdivide_never_exceeds_node_budget(budget, caplog):
    status, evaluate, _ = _random_status(3, 0.0)
    region = Region(((0.1, 0.0, 0.9),))
    with caplog.at_level(logging.WARNING, logger="prc.rigor"):
        root = subdivide(ParamBox(1, [-1, -1], [1, 1]), evaluate, 12, budget, region,
                         "budget")
    nodes = _walk(root)
    assert len(nodes) <= budget
    assert len(nodes) == 2 * len(root.leaves.depth) - 1
    full = _reference_leaves(status, (-1.0, -1.0), (1.0, 1.0), 0, 12, region, None)
    if 2 * len(full) - 1 > budget:
        assert "node budget %d exhausted in the budget tree" % budget in caplog.text
        assert root.status == INCONCLUSIVE


def test_subdivide_builds_one_node_and_children_view_the_levels(monkeypatch):
    """The Wermer r = 0.305 tube tree (1,232 leaves) constructs one
    VerifyNode, its root.  A `.children` walk then meets 2L - 1 views, each
    made once, whose leaves are the root's Leaves row for row."""
    from prc import rigor
    from prc.certify import WERMER_F, load_manifest, suggest_omega

    sys_, K, _, _ = load_manifest({"kind": "graph", "n": 1, "functions": [WERMER_F],
                                   "compact": {"region": [{"shape": "disc", "center": [0, 0],
                                                           "radius": 0.305}]}})
    omega = suggest_omega(sys_, K, 0.05)
    made = []
    init = rigor.VerifyNode.__init__

    def counted(self, *args, **kwargs):
        made.append(self)
        init(self, *args, **kwargs)

    monkeypatch.setattr(rigor.VerifyNode, "__init__", counted)
    root = verify_box(sys_, omega.z_box(1), max_depth=30, region=omega.region(),
                      node_budget=40_000)
    assert made == [root]
    leaves = root.leaves
    assert root.status == PROVED and len(leaves.depth) == 1232
    nodes = _walk(root)
    assert len(nodes) == len(made) == 2 * 1232 - 1
    walked = [node for node in nodes if not node.children]
    assert _leaf_rows(leaves) == [
        ("OUTSIDE" if node.outside else node.status, node.depth, node.box.lo, node.box.hi)
        for node in walked]
    assert walked[-1].children == []


def test_rounding_guard_caps_term_count():
    ok = RealPoly(1, {(e, 0): 1.0 + 0j for e in range(MAX_TERMS)})
    assert ok.pack().size == MAX_TERMS
    big = RealPoly(1, {(e, 0): 1.0 + 0j for e in range(MAX_TERMS + 1)})
    with pytest.raises(ValueError):
        big.pack()
    with pytest.raises(ValueError):
        big.eval_box(ParamBox(1, (0.0, 0.0), (0.5, 0.5)))


def test_rounding_guard_caps_degree():
    ok = RealPoly(1, {(MAX_DEGREE, 0): 1.0 + 0j, (0, 1): 1.0 + 0j})
    assert ok.pack().max_degree == MAX_DEGREE
    big = RealPoly(1, {(MAX_DEGREE - 1, 2): 1.0 + 0j})
    with pytest.raises(ValueError):
        big.pack()
    with pytest.raises(ValueError):
        TermPack([ok, big])


def _exact_power_range(lo, hi, k):
    """The exact range of x^k over [lo, hi], in rationals."""
    lo, hi = Fraction(lo), Fraction(hi)
    if k % 2:
        return lo ** k, hi ** k
    mig = 0 if lo <= 0 <= hi else min(abs(lo), abs(hi))
    return mig ** k, max(abs(lo), abs(hi)) ** k


def test_power_tables_enclose_exact_powers():
    """Every power up to degree 12 of dyadic intervals (straddling 0, of tiny
    and of large magnitude, degenerate) lies in its product-chain table
    entry, checked exactly in rationals."""
    rng = np.random.default_rng(47)
    count = 60
    scale = 2.0 ** rng.choice([-340, -90, -3, 0, 4, 60, 80], (count, 2))
    lo = rng.integers(-2 ** 20, 2 ** 20, (count, 2)) * scale / 2 ** 20
    hi = lo + rng.integers(0, 2 ** 20, (count, 2)) * scale / 2 ** 20
    hi[:10, 0] = lo[:10, 0]
    lo[10:20, 1], hi[10:20, 1] = -np.abs(lo[10:20, 1]), np.abs(hi[10:20, 1])
    tables = power_tables(lo, hi, 12)
    assert tables.shape == (2, count, 2, 13)
    assert (tables[:, :, :, 0] == 1.0).all()
    assert (tables[0, :, :, 1] == lo).all() and (tables[1, :, :, 1] == hi).all()
    for b, v in itertools.product(range(count), range(2)):
        for k in range(2, 13):
            want_lo, want_hi = _exact_power_range(lo[b, v], hi[b, v], k)
            assert Fraction(tables[0, b, v, k]) <= want_lo
            assert want_hi <= Fraction(tables[1, b, v, k])


def test_power_tables_are_product_chains():
    """Each end before its widening is x^(k-1) * x, one rounding per factor,
    whatever the batch: not numpy's ** or the C library's pow."""
    rng = np.random.default_rng(48)
    lo = rng.uniform(-3.0, 2.0, (300, 3))
    hi = lo + rng.uniform(0.0, 2.0, (300, 3))
    tables = power_tables(lo, hi, 9)
    for b, v in itertools.product(range(0, 300, 7), range(3)):
        a, c = lo[b, v], hi[b, v]
        mig = 0.0 if a <= 0.0 <= c else min(abs(a), abs(c))
        for k in range(2, 10):
            x, y = (mig, max(abs(a), abs(c))) if k % 2 == 0 else (a, c)
            x, y = chain(x, k), chain(y, k)
            d = INFLATION * max(abs(x), abs(y)) + 1e-300
            assert (tables[0, b, v, k], tables[1, b, v, k]) == (x - d, y + d)


def test_overflowing_boxes_never_prove_and_raise_nothing(wermer, graph_n2, example2):
    """Boxes so far out that their powers overflow get inf or NaN bounds:
    no kernel raises or warns, and the tube test proves none of them."""
    rng = np.random.default_rng(49)
    for sys_ in (wermer, graph_n2, example2):
        dims = 2 * sys_.n
        lo = rng.uniform(1.0, 9.0, (12, dims)) * 10.0 ** rng.integers(110, 150, (12, dims))
        lo *= rng.choice([-1.0, 1.0], (12, dims))
        hi = lo + np.abs(lo) * rng.uniform(0.0, 0.5, (12, dims))
        lo[:3], hi[:3] = -1e150, 1e150
        region = None
        if sys_.kind == GRAPH:
            region = Region(((0.0, 0.0, 1e300),) * sys_.n + ((0.0, 0.0, 1.0),) * sys_.n)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            bb = _BoxBounds(sys_)
            m, L, r = bb.tube(lo, hi, None if region is None else region.discs[sys_.n:])
            assert not np.isfinite(r).any()
            bb.values(lo, hi)
            bb.m_lower(lo, hi)
            bb.L_upper(lo, hi)
            assert region is None or region.clip(lo, hi)[2].all()
            assert not check_leaves(sys_, lo, hi, 1e-6, region).any()


def test_box_kernels_make_no_per_element_python_calls(monkeypatch, wermer, graph_n2,
                                                      example2):
    """The box bounds and the clip are plain numpy arithmetic: none of them
    maps a Python function over the elements of an array."""
    def refuse(*args, **kwargs):
        raise AssertionError("per-element Python arithmetic in a box kernel")

    monkeypatch.setattr(np, "fromiter", refuse)
    monkeypatch.setattr(math, "hypot", refuse)
    monkeypatch.setattr(realpoly, "pow", refuse, raising=False)
    rng = np.random.default_rng(50)
    systems = [wermer, graph_n2, example2, ProblemSystem.graph(["conj(z1) + z2*z3",
                                                                "conj(z2)", "conj(z3)^2"], 3)]
    for sys_ in systems:
        lo, hi = _random_boxes(rng, 2 * sys_.n, 20)
        bb = _BoxBounds(sys_)
        w_discs = ((0.1, 0.2, 0.5),) * sys_.n if sys_.kind == GRAPH else None
        bb.tube(lo, hi, w_discs)
        bb.values(lo, hi)
        bb.m_lower(lo, hi)
        Region(((0.0, 0.1, 0.8),) * (2 * sys_.n)).clip(lo, hi)


def test_box_bounds_refuse_systems_beyond_rounding_argument():
    with pytest.raises(ValueError):
        _BoxBounds(SimpleNamespace(n=MAX_N + 1))


# ---------------------------------------------------------------------------
# batched kernels: one-box reference, batching invariance, exact oracle
# ---------------------------------------------------------------------------

def _scalar_enclosure(p, lo, hi):
    """(re_lo, re_hi, im_lo, im_hi) of p over one box by a plain loop: the
    reference the batched _eval_box_raw must match bit for bit."""
    def power(a, b, k):
        if k == 1:
            return a, b
        if k % 2 == 0:
            mig = 0.0 if a <= 0.0 <= b else min(abs(a), abs(b))
            a, b = chain(mig, k), chain(max(abs(a), abs(b)), k)
        else:
            a, b = chain(a, k), chain(b, k)
        d = INFLATION * max(abs(a), abs(b)) + 1e-300
        return a - d, b + d

    if not p.terms:
        return 0.0, 0.0, 0.0, 0.0
    rlo = rhi = ilo = ihi = 0.0
    for key in sorted(p.terms):
        mlo = mhi = 1.0
        for var, e in enumerate(key):
            if not e:
                continue
            a, b = power(lo[var], hi[var], e)
            prods = (mlo * a, mlo * b, mhi * a, mhi * b)
            mlo, mhi = min(prods), max(prods)
            d = INFLATION * max(abs(mlo), abs(mhi)) + 1e-300
            mlo, mhi = mlo - d, mhi + d
        v = p.terms[key]
        if v.real:
            a, b = sorted((mlo * v.real, mhi * v.real))
            rlo, rhi = rlo + a, rhi + b
        if v.imag:
            a, b = sorted((mlo * v.imag, mhi * v.imag))
            ilo, ihi = ilo + a, ihi + b
    d = INFLATION * (len(p.terms) + 1)
    rd = d * max(abs(rlo), abs(rhi)) + 1e-300
    idd = d * max(abs(ilo), abs(ihi)) + 1e-300
    return rlo - rd, rhi + rd, ilo - idd, ihi + idd


def _all_polys(sys_):
    """The polynomials of sys_.packs["all"], in its order."""
    return ([t.value for t in sys_.tables] + [p for t in sys_.tables for p in t.dzbar]
            + [q for t in sys_.tables for row in t.levi for q in row])


def _random_boxes(rng, dims, count):
    """Boxes with some zero-width coordinates and some straddling 0."""
    lo = rng.uniform(-1.2, 1.0, (count, dims))
    width = rng.uniform(0.0, 0.5, (count, dims)) * (rng.random((count, dims)) < 0.85)
    return lo, lo + width


@pytest.fixture(scope="module")
def graph_n2():
    return ProblemSystem.graph(["conj(z1) + 0.1*z2*conj(z2) - 0.2*z1^2*conj(z2)",
                                "conj(z2) - 0.3*z1*conj(z1)^2 + 0.05*conj(z1)"], 2)


def test_batched_enclosures_match_one_box_reference():
    rng = np.random.default_rng(43)
    for _ in range(20):
        sys_ = random_system(rng)
        polys = _all_polys(sys_)
        lo, hi = _random_boxes(rng, 2 * sys_.n, 15)
        enc = _eval_box_raw(sys_.packs["all"], lo, hi)
        for b in range(len(lo)):
            for p, got in zip(polys, enc[b].tolist()):
                assert tuple(got) == _scalar_enclosure(p, lo[b].tolist(), hi[b].tolist())


def test_batched_bounds_independent_of_batching(wermer, graph_n2, example2):
    """m, L and residual bounds of a box are the same bits evaluated alone,
    in one batch and in a shuffled batch, so certificate bytes cannot depend
    on how a level is composed; the tube's single evaluation of all
    polynomials agrees with the three separate bounds."""
    rng = np.random.default_rng(44)
    for sys_ in (wermer, graph_n2, example2):
        n = sys_.n
        lo, hi = _random_boxes(rng, 2 * n, 40)
        w_discs = None
        if sys_.kind == GRAPH:
            w_discs = tuple((rng.uniform(-1, 1), rng.uniform(-1, 1), rng.uniform(0.1, 1))
                            for _ in range(n))
        bb = _BoxBounds(sys_)
        batch = np.stack(bb.tube(lo, hi, w_discs))
        alone = np.stack([np.stack(bb.tube(lo[i:i + 1], hi[i:i + 1], w_discs))[:, 0]
                          for i in range(len(lo))], axis=1)
        perm = rng.permutation(len(lo))
        shuffled = np.stack(bb.tube(lo[perm], hi[perm], w_discs))[:, np.argsort(perm)]
        separate = np.stack([bb.m_lower(lo, hi), bb.L_upper(lo, hi),
                             bb.residual_upper(lo, hi, w_discs)])
        assert batch.tobytes() == alone.tobytes() == shuffled.tobytes() == separate.tobytes()


def _exact_value(p, point):
    re = im = Fraction(0)
    for key, c in p.terms.items():
        mono = Fraction(1)
        for x, e in zip(point, key):
            mono *= x ** e
        re += Fraction(c.real) * mono
        im += Fraction(c.imag) * mono
    return re, im


def test_enclosures_contain_exact_values(wermer, graph_n2, example2):
    """Each value, dzbar and Levi polynomial, evaluated exactly in rationals
    at the corners and at seeded interior points of boxes with dyadic
    endpoints, lies in its batched enclosure."""
    rng = np.random.default_rng(45)
    for sys_ in (wermer, graph_n2, example2):
        polys = _all_polys(sys_)
        dims = 2 * sys_.n
        lo = rng.integers(-80, 48, (8, dims)) / 64
        hi = lo + rng.integers(0, 24, (8, dims)) / 64
        enc = _eval_box_raw(sys_.packs["all"], lo, hi)
        for b in range(len(lo)):
            box = [(Fraction(a), Fraction(c)) for a, c in zip(lo[b].tolist(), hi[b].tolist())]
            points = list(itertools.product(*box))
            points += [tuple(a + (c - a) * Fraction(int(rng.integers(1, 97)), 97)
                             for a, c in box) for _ in range(3)]
            for p, (rlo, rhi, ilo, ihi) in zip(polys, enc[b].tolist()):
                for point in points:
                    re, im = _exact_value(p, point)
                    assert Fraction(rlo) <= re <= Fraction(rhi)
                    assert Fraction(ilo) <= im <= Fraction(ihi)


def _scalar_clip(discs, lo, hi):
    """(lo, hi) of one clipped box, or None when it misses, by a plain loop:
    the reference the batched Region.clip must match bit for bit."""
    lo, hi = list(lo), list(hi)
    for j, (cx, cy, r) in enumerate(discs):
        jx, jy = 2 * j, 2 * j + 1
        if jy >= len(lo):
            break
        dx = max(lo[jx] - cx, cx - hi[jx], 0.0)
        dy = max(lo[jy] - cy, cy - hi[jy], 0.0)
        if dx * dx + dy * dy >= (r * r) * (1.0 + 1e-12):
            return None
        sx = math.sqrt(max(r * r - dy * dy, 0.0)) * (1.0 + 1e-12)
        sy = math.sqrt(max(r * r - dx * dx, 0.0)) * (1.0 + 1e-12)
        lo[jx], hi[jx] = max(lo[jx], cx - sx), min(hi[jx], cx + sx)
        lo[jy], hi[jy] = max(lo[jy], cy - sy), min(hi[jy], cy + sy)
        for i in (jx, jy):
            if lo[i] > hi[i]:
                lo[i] = hi[i] = 0.5 * (lo[i] + hi[i])
    return lo, hi


def test_batched_clip_matches_one_box_reference():
    rng = np.random.default_rng(46)
    for n in (1, 2, 3):
        discs = tuple((rng.uniform(-0.5, 0.5), rng.uniform(-0.5, 0.5), rng.uniform(0.2, 1.2))
                      for _ in range(n + 1))  # one disc more than a z-box uses
        lo, hi = _random_boxes(rng, 2 * n, 200)
        lo[:20, 0] = -0.0  # signed zeros pass through as in the scalar clip
        hi[:20, 0] = np.abs(hi[:20, 0])
        clo, chi, inside = Region(discs).clip(lo, hi)
        for b in range(len(lo)):
            want = _scalar_clip(discs, lo[b].tolist(), hi[b].tolist())
            assert inside[b] == (want is not None)
            if want is not None:
                assert np.array([clo[b], chi[b]]).tobytes() == np.array(want).tobytes()


def test_z_only_residual_bounds_sup_over_w_disc():
    """On random z-boxes and w discs the closed-form residual bound is at
    least sup over the w disc of the residual, sampled in z, and so at least
    the residual at points sampled in the z-box and the w discs."""
    for seed, width in ((34, 0.6), (30, 0.8)):
        _check_residual_over_w_discs(np.random.default_rng(seed), width)


def _check_residual_over_w_discs(rng, width):
    checked = 0
    while checked < 30:
        sys_ = random_system(rng)
        if sys_.kind != GRAPH:
            continue
        checked += 1
        n = sys_.n
        box = _random_zbox(rng, n, width=width)
        region = random_w_region(rng, n)
        wd = region.discs[n:]
        r_up = bound_residual_above(sys_, box, region)
        zs = box.sample_uniform(rng, 300)
        ws = np.stack([sample_disc(rng, d, len(zs)) for d in wd], axis=1)
        for row, w_in in zip(zs, ws):
            z = tuple(complex(row[2 * j], row[2 * j + 1]) for j in range(n))
            vals = sys_.values_at(z)
            sup_w = sum(abs(vals[j] - complex(cx, cy)) + r
                        for j, (cx, cy, r) in enumerate(wd))
            assert sup_w <= r_up * (1 + 1e-12)
            assert sum(abs(vals[j] - w_in[j]) for j in range(n)) <= r_up
            # and the sup is approached by points of the open w discs
            w = [complex(cx, cy) + r * (1 - 1e-9) * np.exp(1j * rng.uniform(0, 2 * np.pi))
                 for cx, cy, r in wd]
            assert sum(abs(vals[j] - w[j]) for j in range(n)) <= sup_w


# ---------------------------------------------------------------------------
# verify_totally_real
# ---------------------------------------------------------------------------

def test_verify_totally_real_wermer_disc(wermer):
    box = ParamBox(1, [-0.35, -0.35], [0.35, 0.35])
    region = Region(((0.0, 0.0, 0.35),))
    node = verify_totally_real(wermer, box, max_depth=10, region=region)
    assert node.status == PROVED
    assert node.leaves.values[~node.leaves.outside, 0].min() > 0


def test_verify_totally_real_fails_holomorphic():
    sys_ = ProblemSystem.graph(["z1^2"], 1)
    node = verify_totally_real(sys_, ParamBox(1, [-1, -1], [1, 1]), max_depth=5)
    assert node.status == FAILED
    assert node.witness is not None


G_ROUNDED = "0.1*z1^3*(z1+0.3)^4"


@pytest.mark.parametrize("f", [G_ROUNDED, f"Re({G_ROUNDED}) + i*Im({G_ROUNDED})",
                               f"{G_ROUNDED} + conj(z1) - conj(z1)"])
def test_holomorphic_graph_with_rounded_expansion_is_not_proved_totally_real(f):
    # the real-coordinate expansion of g has rounded coefficients and is not
    # exactly holomorphic; the derivative tables must be zero all the same,
    # however the holomorphic function is written
    sys_ = ProblemSystem.graph([f], 1)
    assert sys_.tables[0].dzbar[0].is_zero
    assert sys_.tables[0].levi[0][0].is_zero
    node = verify_totally_real(sys_, ParamBox(1, [0.45, 0.15], [0.55, 0.25]), max_depth=5)
    assert node.status == FAILED


def test_holomorphic_summand_adds_nothing_to_dbar_tables():
    mixed = ProblemSystem.graph([f"{G_ROUNDED} + 0.3*conj(z1)^2*z1"], 1).tables[0]
    alone = ProblemSystem.graph(["0.3*conj(z1)^2*z1"], 1).tables[0]
    assert mixed.dzbar == alone.dzbar
    assert mixed.levi == alone.levi


# ---------------------------------------------------------------------------
# 2x2 closed forms of m and L
# ---------------------------------------------------------------------------

def _gershgorin_frobenius(sys_, lo, hi):
    """(m_lower, L_upper) of one box from the Gershgorin bound of
    lambda_min(B* B) and the Frobenius norm of each Levi matrix, one scalar
    operation at a time in the order of the batched kernel: the bounds the
    kernel took before the 2x2 closed forms, bit for bit.  Magnitudes are
    abs(complex(x, y)), the C library's hypot, as np.hypot is."""
    n, I = sys_.n, INFLATION
    dz = _eval_box_raw(sys_.packs["dzbar"], [lo], [hi])[0].tolist()
    B = [dz[r * n:(r + 1) * n] for r in range(sys_.rows)]

    def mig(a, b):
        return 0.0 if a <= 0.0 <= b else min(abs(a), abs(b))

    def prod(a, b, c, d):
        ps = (a * c, a * d, b * c, b * d)
        return min(ps), max(ps)

    m = math.inf
    for j in range(n):
        diag = 0.0
        for row in B:
            x, y = mig(*row[j][:2]), mig(*row[j][2:])
            diag += (x * x + y * y) * (1.0 - I)
        off = 0.0
        for i in range(n):
            if i == j:
                continue
            hr_lo = hr_hi = hi_lo = hi_hi = 0.0
            for row in B:
                alo, ahi, ilo, ihi = row[j]
                blo, bhi = -ihi, -ilo  # conjugate
                clo, chi, dlo, dhi = row[i]
                p, q = prod(alo, ahi, clo, chi), prod(blo, bhi, dlo, dhi)
                hr_lo += p[0] - q[1]
                hr_hi += p[1] - q[0]
                p, q = prod(alo, ahi, dlo, dhi), prod(blo, bhi, clo, chi)
                hi_lo += p[0] + q[0]
                hi_hi += p[1] + q[1]
            off += abs(complex(max(abs(hr_lo), abs(hr_hi)), max(abs(hi_lo), abs(hi_hi))))
        m = min(m, diag - off * (1.0 + 4.0 * I) if n > 1 else diag)
    levi = _eval_box_raw(sys_.packs["levi"], [lo], [hi])[0].tolist()
    L = 0.0
    for r in range(sys_.rows):
        fro2 = 0.0
        for rlo, rhi, ilo, ihi in levi[r * n * n:(r + 1) * n * n]:
            mag = abs(complex(max(abs(rlo), abs(rhi)), max(abs(ilo), abs(ihi)))) * (1.0 + I)
            fro2 += mag * mag
        L = max(L, math.sqrt(fro2) * (1.0 + I))
    return (m if m > 0.0 else 0.0), L


def _dyadic_boxes(rng, dims, count, scale=64):
    lo = rng.integers(-80, 48, (count, dims)) / scale
    return lo, lo + rng.integers(1, 24, (count, dims)) / scale


def _systems_n2(rng, graph_n2, example2):
    systems = [graph_n2, example2]
    while len(systems) < 8:
        sys_ = random_system(rng)
        if sys_.n == 2:
            systems.append(sys_)
    return systems


def test_new_bounds_no_worse_than_gershgorin_and_frobenius(wermer, graph_n2, example2):
    """Every m_lower is at least the Gershgorin bound and every L_upper at
    most the Frobenius bound, bit for bit, so no box the old bounds proved
    can fail now; where no closed form applies (n = 1, submersions with
    n >= 3, m for n >= 3) the bounds are the old ones exactly."""
    rng = np.random.default_rng(46)
    systems = [wermer] + _systems_n2(rng, graph_n2, example2)
    while len(systems) < 24:
        systems.append(random_system(rng))
    gained = 0
    for sys_ in systems:
        lo, hi = _random_boxes(rng, 2 * sys_.n, 12)
        bb = _BoxBounds(sys_)
        for l, h, m, L in zip(lo.tolist(), hi.tolist(), bb.m_lower(lo, hi).tolist(),
                              bb.L_upper(lo, hi).tolist()):
            m_old, L_old = _gershgorin_frobenius(sys_, l, h)
            assert m >= m_old and L <= L_old
            if sys_.n != 2:
                assert m == m_old
            if sys_.n == 1 or (sys_.n >= 3 and sys_.kind != GRAPH):
                assert L == L_old
            gained += m > m_old or L < L_old
    assert gained > 0


def test_closed_form_bounds_hold_on_sampled_points(graph_n2, example2):
    """m_lower <= lambda_min(B* B) and L_upper >= the numerical radius of
    every Levi matrix at seeded interior points of random dyadic boxes."""
    rng = np.random.default_rng(47)
    for sys_ in _systems_n2(rng, graph_n2, example2):
        lo, hi = _dyadic_boxes(rng, 4, 6)
        bb = _BoxBounds(sys_)
        for l, h, m, L in zip(lo, hi, bb.m_lower(lo, hi), bb.L_upper(lo, hi)):
            for x in rng.uniform(l, h, (12, 4)):
                z = (complex(x[0], x[1]), complex(x[2], x[3]))
                B = bbar_matrix(sys_, z)
                assert m <= np.linalg.eigvalsh(B.conj().T @ B)[0] * (1 + 1e-12) + 1e-15
                for r in range(sys_.rows):
                    assert numerical_radius(sys_.levi_matrix(r, z)) <= L * (1 + 1e-12)


def _exact_eig2(a, d, b2):
    """((a + d)/2, ((a - d)/2)^2 + |b|^2) of the Hermitian [[a, b], [conj b, d]]:
    its eigenvalues are c -+ sqrt(s)."""
    return (a + d) / 2, ((a - d) / 2) ** 2 + b2


def _exact_gram(M):
    """Diagonal and squared off-diagonal magnitude of the 2x2 matrix M* M,
    for a matrix M of two columns and exact (re, im) entries."""
    def dot(j, i):  # sum_r conj(M[r][j]) M[r][i]
        re = sum(row[j][0] * row[i][0] + row[j][1] * row[i][1] for row in M)
        im = sum(row[j][0] * row[i][1] - row[j][1] * row[i][0] for row in M)
        return re, im
    re, im = dot(0, 1)
    return dot(0, 0)[0], dot(1, 1)[0], re * re + im * im


def test_closed_form_bounds_below_exact_corner_values(graph_n2, example2):
    """At the corners of small dyadic boxes, exact rational arithmetic shows
    lambda_min(B* B) >= m_lower and ||A||_2 >= w(A) stays <= L_upper for each
    Levi matrix A (both by squaring, without a square root)."""
    rng = np.random.default_rng(48)
    for sys_ in _systems_n2(rng, graph_n2, example2):
        lo, hi = _dyadic_boxes(rng, 4, 3, scale=1024)
        bb = _BoxBounds(sys_)
        for l, h, m, L in zip(lo.tolist(), hi.tolist(), bb.m_lower(lo, hi).tolist(),
                              bb.L_upper(lo, hi).tolist()):
            m, L = Fraction(m), Fraction(L)
            for corner in itertools.product(*[(Fraction(a), Fraction(c))
                                              for a, c in zip(l, h)]):
                B = [[_exact_value(t.dzbar[j], corner) for j in range(2)]
                     for t in sys_.tables]
                c, s = _exact_eig2(*_exact_gram(B))
                assert c - m >= 0 and (c - m) ** 2 >= s
                for t in sys_.tables:
                    A = [[_exact_value(t.levi[j][k], corner) for k in range(2)]
                         for j in range(2)]
                    c, s = _exact_eig2(*_exact_gram(A))
                    assert L * L - c >= 0 and (L * L - c) ** 2 >= s


def test_eig2_min_lower_below_exact_value():
    """The rounded closed form of lambda_min stays below the exact value of
    the same formula at its own float inputs, also where the root is far
    smaller than a + d and cannot absorb the rounding of a + d."""
    rng = np.random.default_rng(49)
    count = 4000
    a = rng.uniform(0.5, 2.0, count)
    near = rng.random(count) < 0.5
    d = np.where(near, a * (1.0 + rng.uniform(-1e-6, 1e-6, count)),
                 rng.uniform(0.5, 2.0, count))
    b = np.where(near, 1e-7, 0.4) * rng.uniform(0.0, 1.0, count) * (rng.random(count) < 0.9)
    got = _eig2_min_lower(a, d, b)
    assert (got > 0).mean() > 0.9
    for ai, di, bi, lam in zip(a.tolist(), d.tolist(), b.tolist(), got.tolist()):
        c, s = _exact_eig2(Fraction(ai), Fraction(di), Fraction(bi) ** 2)
        assert c - Fraction(lam) >= 0 and (c - Fraction(lam)) ** 2 >= s


def test_levi2_upper_above_exact_spectral_radius():
    """On exact (zero-width) enclosures of Hermitian 2x2 matrices, whose
    numerical radius is the spectral radius |c| + sqrt(s), the rounded bound
    is at least that radius."""
    rng = np.random.default_rng(50)
    count = 4000
    a, d = rng.uniform(-2.0, 2.0, (2, count))
    br, bi = rng.uniform(-1.0, 1.0, (2, count)) * (rng.random((2, count)) < 0.9)
    zero = np.zeros(count)
    entries = [(a, zero), (br, bi), (br, -bi), (d, zero)]
    e = np.stack([np.stack([re, re, im, im], axis=-1) for re, im in entries], axis=1)
    got = _levi2_upper(e)
    for ai, di, bri, bii, L in zip(a.tolist(), d.tolist(), br.tolist(), bi.tolist(),
                                   got.tolist()):
        c, s = _exact_eig2(Fraction(ai), Fraction(di), Fraction(bri) ** 2 + Fraction(bii) ** 2)
        t = Fraction(L) - abs(c)
        assert t >= 0 and t * t >= s


def test_levi2_upper_above_numerical_radius_of_any_matrix():
    """Tables that are not exactly conjugate give a Levi matrix with a skew
    part, which the bound must cover too: on exact enclosures of random
    complex 2x2 matrices it stays above their numerical radius."""
    rng = np.random.default_rng(51)
    A = rng.normal(size=(200, 2, 2)) + 1j * rng.normal(size=(200, 2, 2))
    A[:100] = (A[:100] + A[:100].conj().transpose(0, 2, 1)) / 2
    A[:50] *= 1j  # skew-Hermitian, then Hermitian, then general matrices
    flat = A.reshape(200, 4)
    e = np.stack([flat.real, flat.real, flat.imag, flat.imag], axis=-1)
    for M, L in zip(A, _levi2_upper(e).tolist()):
        assert numerical_radius(M) <= L * (1 + 1e-9)
