"""The batched pointwise code of rigor and trgeom against a scalar reference,
one point at a time in the same arithmetic (powers as product chains, sums
left to right, each polynomial's terms in sorted key order, magnitudes from
abs(complex), which is the C library's hypot, and complex-times-float as a
product of each part): every polynomial value, probe point, residual, radius,
total-reality test and witness must come out bit for bit the same."""

import math
import warnings

import numpy as np
import pytest

from conftest import cap_manifest, chain, random_graph_system, random_submersion_system
from prc import ProblemSystem
from prc import rigor, trgeom
from prc.certify import CompactSpec, DiscRegion, certify, load_manifest, wermer_compact
from prc.rigor import GRAPH, Region, probe_points
from prc.trgeom import (DegenerateSystemError, L_values, big_l_value, is_totally_real_graph,
                        is_totally_real_submersion, m_value, numerical_radii,
                        numerical_radius, radius_factor, totally_real, tube_profile,
                        tube_radius)


# ---------------------------------------------------------------------------
# scalar reference
# ---------------------------------------------------------------------------

def _eval_real(p, xs):
    """A RealPoly at a real-coordinate point (x_1, y_1, ..., x_n, y_n), one
    term at a time in sorted key order, from 0.0: the monomial is 1.0 times
    its factors in variable order, and the term's parts are the coefficient's
    parts times the monomial."""
    re = im = 0.0
    for k in sorted(p.terms):
        m = 1.0
        for x, e in zip(xs, k):
            if e:
                m *= chain(x, e)
        re += p.terms[k].real * m
        im += p.terms[k].imag * m
    return complex(re, im)


def _scalar_bbar(sys, xs):
    return np.array([[_eval_real(t.dzbar[j], xs) for j in range(sys.n)] for t in sys.tables])


def _scalar_totally_real_graph(sys, xs):
    U, s, Vh = np.linalg.svd(_scalar_bbar(sys, xs))
    sigma_min = float(s[-1])
    ok = sigma_min > 1e-8 * (1.0 + float(s[0]))
    return {"totally_real": bool(ok), "sigma_min": sigma_min,
            "witness_v": None if ok else np.conj(Vh[-1])}


def _scalar_totally_real_submersion(sys, xs):
    A = _scalar_bbar(sys, xs)
    dead = np.nonzero(np.linalg.norm(A, axis=1) <= 1e-12)[0]
    if len(dead):
        z = [complex(xs[2 * j], xs[2 * j + 1]) for j in range(sys.n)]
        raise DegenerateSystemError(
            f"function #{int(dead[0]) + 1} has zero differential at z={z}: "
            "not a submersion")
    s = np.linalg.svd(A, compute_uv=False)
    rank = int(np.sum(s > 1e-8 * (1.0 + float(s[0]))))
    return {"totally_real": rank == sys.n, "rank": rank,
            "sigma_min": float(s[-1]) if len(s) >= sys.n else 0.0}


def _scalar_probe(lo, hi, region):
    """The midpoint when it lies strictly inside every region disc that fits
    the box, else those discs' centres clamped to the box (and the midpoint
    in the remaining coordinates)."""
    mid = tuple(0.5 * (a + b) for a, b in zip(lo, hi))
    if region is None:
        return mid
    discs = region.discs[:len(lo) // 2]
    if all(abs(complex(mid[2 * j] - cx, mid[2 * j + 1] - cy)) < r * (1.0 - 1e-9)
           for j, (cx, cy, r) in enumerate(discs)):
        return mid
    pt = []
    for j, (cx, cy, r) in enumerate(discs):
        pt.append(min(max(cx, lo[2 * j]), hi[2 * j]))
        pt.append(min(max(cy, lo[2 * j + 1]), hi[2 * j + 1]))
    return tuple(pt) + mid[len(pt):]


def _scalar_numerical_radius(M, tol=1e-8):
    M = np.asarray(M, dtype=np.complex128)
    d = M.shape[0]
    if d == 1:
        return abs(complex(M[0, 0]))
    Mh = M.conj().T
    scale = np.linalg.norm(M, 2)
    if scale == 0.0:
        return 0.0
    if np.max(np.abs(M - Mh)) <= 1e-14 * scale:
        ev = np.linalg.eigvalsh((M + Mh) / 2)
        return float(max(abs(ev[0]), abs(ev[-1])))

    def g(theta):
        ph = complex(math.cos(theta), math.sin(theta))
        H = (ph * M + np.conj(ph) * Mh) / 2
        return float(np.linalg.eigvalsh(H)[-1])

    grid = 512
    thetas = [2 * math.pi * i / grid for i in range(grid)]
    vals = [g(t) for t in thetas]
    best = max(vals)
    candidates = [i for i in range(grid)
                  if vals[i] >= vals[(i - 1) % grid] and vals[i] >= vals[(i + 1) % grid]
                  and vals[i] >= best - 0.05 * scale]
    candidates.sort(key=lambda i: -vals[i])
    invphi = (math.sqrt(5.0) - 1.0) / 2.0
    for i in candidates[:5]:
        a = thetas[i] - 2 * math.pi / grid
        b = thetas[i] + 2 * math.pi / grid
        c = b - invphi * (b - a)
        dd = a + invphi * (b - a)
        fc, fd = g(c), g(dd)
        while b - a > min(tol, 1e-8):
            if fc > fd:
                b, dd, fd = dd, c, fc
                c = b - invphi * (b - a)
                fc = g(c)
            else:
                a, c, fc = c, dd, fd
                dd = a + invphi * (b - a)
                fd = g(dd)
        best = max(best, fc, fd)
    return best


def _point_quantities(sys, pt):
    """(residual, tube radius) at a real-coordinate point."""
    n = sys.n
    vals = [_eval_real(t.value, pt[:2 * n]) for t in sys.tables]
    if sys.kind == GRAPH:
        off = 2 * n
        residual = sum(abs(vals[j] - complex(pt[off + 2 * j], pt[off + 2 * j + 1]))
                       for j in range(n))
    else:
        residual = sum(abs(v) for v in vals)
    m, L = _point_m_L(sys, pt[:2 * n])
    if m == 0.0:
        return residual, 0.0
    radius = math.inf if L == 0.0 else m / (radius_factor(sys.kind) * L)
    return residual, radius


def _point_m_L(sys, xs):
    """(m, L) at a real-coordinate point."""
    n = sys.n
    B = [[_eval_real(t.dzbar[j], xs) for j in range(n)] for t in sys.tables]
    if n == 1:
        m = sum(abs(row[0]) * abs(row[0]) for row in B)
    elif n == 2:
        h00 = sum(abs(row[0]) * abs(row[0]) for row in B)
        h11 = sum(abs(row[1]) * abs(row[1]) for row in B)
        h01 = abs(sum(row[0].conjugate() * row[1] for row in B))
        d = (h00 - h11) / 2
        m = max((h00 + h11) / 2 - math.sqrt(d * d + h01 * h01), 0.0)
    else:
        s = float(np.linalg.svd(np.array(B), compute_uv=False)[-1])
        m = s * s

    L = 0.0
    for t in sys.tables:
        lev = [[_eval_real(t.levi[j][k], xs) for k in range(n)] for j in range(n)]
        if n == 1:
            w = abs(lev[0][0])
        elif sys.kind != GRAPH and n == 2:
            a = lev[0][0].real
            d = lev[1][1].real
            b = abs(complex(0.5 * (lev[0][1].real + lev[1][0].real),
                            0.5 * (lev[0][1].imag - lev[1][0].imag)))
            h = (a - d) / 2
            half = math.sqrt(h * h + b * b)
            w = max(abs((a + d) / 2 + half), abs((a + d) / 2 - half))
        else:
            w = _scalar_numerical_radius(np.array(lev))
        L = max(L, w)
    return m, L


def _point_violates(sys, pt):
    n = sys.n
    residual, radius = _point_quantities(sys, pt)
    if math.isinf(radius):
        return None
    if residual >= radius * (1.0 + 1e-9):
        z = tuple(complex(pt[2 * j], pt[2 * j + 1]) for j in range(n))
        w = None
        if sys.kind == GRAPH:
            off = 2 * n
            w = tuple(complex(pt[off + 2 * j], pt[off + 2 * j + 1]) for j in range(n))
        return {"z": [[c.real, c.imag] for c in z],
                "w": None if w is None else [[c.real, c.imag] for c in w],
                "residual": residual, "radius": radius}
    return None


def _tube_witness(sys, z_pt, region):
    n = sys.n
    for j, (cx, cy, r) in enumerate(region.discs[:n]):
        if abs(complex(z_pt[2 * j] - cx, z_pt[2 * j + 1] - cy)) >= r * (1.0 - 1e-9):
            return None
    pt = list(z_pt)
    for t, (cx, cy, r) in zip(sys.tables, region.discs[n:]):
        f = _eval_real(t.value, z_pt)
        ar, ai = cx - f.real, cy - f.imag
        mag = abs(complex(ar, ai))
        ur, ui = (ar / mag, ai / mag) if mag else (1.0, 0.0)
        k = r * (1.0 - 1e-9)
        pt += [cx + k * ur, cy + k * ui]
    return _point_violates(sys, pt)


def _scalar_tube_probe(sys, lo, hi, region):
    """The per-box witnesses of the scalar tube probe."""
    out = []
    for l, h in zip(np.asarray(lo).tolist(), np.asarray(hi).tolist()):
        if sys.kind == GRAPH:
            out.append(_tube_witness(sys, _scalar_probe(l, h, region), region))
        else:
            out.append(_point_violates(sys, _scalar_probe(l, h, region)))
    return out


def _bits(x):
    return np.asarray(x, dtype=float).view(np.int64)


def _assert_probe_matches(sys_, lo, hi, region):
    violated, witness = rigor._tube_probe(sys_, lo, hi, region)
    ref = _scalar_tube_probe(sys_, lo, hi, region)
    assert violated.tolist() == [w is not None for w in ref]
    first = next((w for w in ref if w is not None), None)
    assert repr(witness) == repr(first)  # repr tells -0.0 from 0.0
    return int(violated.sum())


# ---------------------------------------------------------------------------
# tests
# ---------------------------------------------------------------------------

def test_probe_points_match_scalar_probe():
    rng = np.random.default_rng(81)
    for n in (1, 2, 3):
        for extra in (0, 2 * n):  # z-boxes, and boxes with w coordinates too
            dims = 2 * n + extra
            lo = rng.uniform(-2, 1, (200, dims))
            hi = lo + rng.uniform(0, 1, (200, dims)) * (rng.random((200, dims)) < 0.8)
            lo[:5] = -0.0
            hi[:5] = 0.0
            lo[5:10], hi[5:10] = 0.0, -0.0
            discs = ((0.0, -0.0, 1.0),) + tuple(
                (float(rng.normal()), float(rng.normal()), 1.0)
                for _ in range(rng.integers(0, 2 * n)))
            for region in (None, Region(discs)):
                got = probe_points(lo, hi, region)
                want = [_scalar_probe(l, h, region)
                        for l, h in zip(lo.tolist(), hi.tolist())]
                assert (_bits(got) == _bits(want)).all()


def test_probe_point_is_the_midpoint_exactly_when_strictly_inside():
    """Every probe point lies in its box; it is the midpoint where that lies
    strictly inside every disc (by the witness pull), and else the centres
    clamped to the box."""
    rng = np.random.default_rng(87)
    for n in (1, 2):
        region = Region(tuple((float(rng.normal(scale=0.3)), float(rng.normal(scale=0.3)),
                               float(rng.uniform(0.5, 1.0))) for _ in range(n)))
        lo = rng.uniform(-1.5, 1.2, (400, 2 * n))
        hi = lo + rng.uniform(0.0, 0.8, (400, 2 * n))
        # boxes whose midpoint sits on the shrunken circle of the first disc
        cx, cy, r = region.discs[0]
        t = rng.uniform(0, 2 * math.pi, 20)
        edge = r * (1.0 - 1e-9)
        lo[:20, 0], lo[:20, 1] = cx + edge * np.cos(t) - 0.1, cy + edge * np.sin(t) - 0.1
        hi[:20, :2] = lo[:20, :2] + 0.2
        pts = probe_points(lo, hi, region)
        assert ((lo <= pts) & (pts <= hi)).all()
        mid = 0.5 * (lo + hi)
        inside = np.array([all(abs(complex(m[2 * j] - dx, m[2 * j + 1] - dy)) < dr * (1.0 - 1e-9)
                               for j, (dx, dy, dr) in enumerate(region.discs))
                           for m in mid.tolist()])
        centres = np.array([c for dx, dy, _ in region.discs for c in (dx, dy)])
        clamped = np.minimum(np.maximum(centres, lo), hi)
        assert 10 < inside.sum() < 390
        assert (pts[inside] == mid[inside]).all()
        assert (pts[~inside] == clamped[~inside]).all()


def test_graph_n2_fail_found_within_200_tube_leaves():
    """Over the 0.4-bidisc the graph_n2 system FAILs; probes at box midpoints
    find the witness in 64 tube leaves (1,412 when every box was probed at
    the point nearest omega's centre)."""
    sys_ = ProblemSystem.graph(["conj(z1) + 0.1*z2*conj(z2) - 0.2*z1^2*conj(z2)",
                                "conj(z2) - 0.3*z1*conj(z1)^2 + 0.05*conj(z1)"], 2)
    cert = certify(sys_, CompactSpec.graph_over([DiscRegion(0j, 0.4)] * 2),
                   max_depth=24, node_budget=400_000)
    assert cert.verdict == "FAIL"
    assert len(cert.checks["omega_in_tube"]["leaves"]) <= 200
    wit = cert.witness
    assert wit["check"] == "omega_in_tube"
    z = tuple(complex(*c) for c in wit["z"])
    w = tuple(complex(*c) for c in wit["w"])
    om = cert.omega
    assert all(abs(v - c) < r for v, c, r in zip(z, om.z_center, om.z_radii))
    assert all(abs(v - c) < r for v, c, r in zip(w, om.w_center, om.w_radii))
    assert sum(abs(a - f) for a, f in zip(w, sys_.values_at(z))) >= tube_radius(sys_, z)


def test_point_pack_matches_eval_real():
    """Every table of a system at once, real and imaginary parts and signs of
    zeros, as the scalar loop _eval_real gives them one point at a time; and
    so do RealPoly.eval_batch and eval_point, one polynomial at a time."""
    rng = np.random.default_rng(80)
    for sys_ in _systems(rng):
        polys = ([t.value for t in sys_.tables] + [p for t in sys_.tables for p in t.dzbar]
                 + [q for t in sys_.tables for row in t.levi for q in row])
        xs = rng.uniform(-1.5, 1.5, (30, 2 * sys_.n))
        xs[:3] = [[0.0], [-0.0], [1.0]]
        want = np.array([[_eval_real(p, row) for p in polys] for row in xs.tolist()])
        for got in (sys_.evaluate("all", xs),
                    np.stack([p.eval_batch(xs) for p in polys], axis=1)):
            assert (_bits(got.real) == _bits(want.real)).all()
            assert (_bits(got.imag) == _bits(want.imag)).all()
        z = [complex(*xs[5, k:k + 2]) for k in range(0, 2 * sys_.n, 2)]
        assert repr([p.eval_point(z) for p in polys]) == repr(want[5].tolist())


def _systems(rng):
    systems = [ProblemSystem.graph(["z1"], 1),  # m == 0: radius 0
               ProblemSystem.graph(["conj(z1)"], 1),  # L == 0: radius inf
               ProblemSystem.graph(["conj(z1) + z2", "conj(z2) + z1*z2"], 2),  # L == 0
               ProblemSystem.submersion(["Im(z1) - Re(z2)", "Im(z2)"], 2, 2),  # L == 0
               ProblemSystem.graph(["conj(z1)*conj(z2)", "conj(z2)*conj(z1)"], 2)]  # m == 0
    for n in (1, 2, 3):
        for _ in range(3):
            systems.append(random_graph_system(rng, n))
            systems.append(random_submersion_system(rng, n, int(rng.integers(1, n + 1))))
    return systems


def test_probe_quantities_match_scalar_reference():
    rng = np.random.default_rng(82)
    branches = set()
    for sys_ in _systems(rng):
        n = sys_.n
        dims = 4 * n if sys_.kind == GRAPH else 2 * n
        pts = rng.uniform(-1.2, 1.2, (40, dims))
        pts[0] = 0.0
        table = sys_.evaluate("all", pts[:, :2 * n])
        residual, radius = rigor._probe_quantities(sys_, pts, table)
        want = [_point_quantities(sys_, pt) for pt in pts.tolist()]
        assert (_bits(residual) == _bits([r for r, _ in want])).all()
        assert (_bits(radius) == _bits([r for _, r in want])).all()
        branches.update(radius[(radius == 0.0) | np.isinf(radius)].tolist())
    assert branches == {0.0, math.inf}


def test_one_point_functions_match_probe_quantities():
    """m_value, big_l_value, tube_radius and tube_profile read the bits the
    tube probe reads: m and L as the scalar reference gives them (which
    _probe_quantities matches), and the radius of _probe_quantities."""
    rng = np.random.default_rng(88)
    for sys_ in _systems(rng):
        n = sys_.n
        pts = rng.uniform(-1.2, 1.2, (25, 4 * n if sys_.kind == GRAPH else 2 * n))
        pts[0] = 0.0
        _, radius = rigor._probe_quantities(sys_, pts, sys_.evaluate("all", pts[:, :2 * n]))
        zs = [tuple(complex(*pt[k:k + 2]) for k in range(0, 2 * n, 2)) for pt in pts.tolist()]
        prof = tube_profile(sys_, zs)
        for z, xs, r, pt in zip(zs, pts.tolist(), radius.tolist(), prof.points):
            m, L = _point_m_L(sys_, xs[:2 * n])
            assert pt.z == z
            assert _bits([pt.m, m_value(sys_, z)]).tolist() == _bits([m, m]).tolist()
            assert _bits([pt.L, big_l_value(sys_, z)]).tolist() == _bits([L, L]).tolist()
            assert _bits([pt.radius, tube_radius(sys_, z)]).tolist() == _bits([r, r]).tolist()


@pytest.mark.parametrize("kind", ["graph", "submersion"])
def test_totally_real_matches_scalar_reference(kind):
    """The stacked total-reality test against the one-point scalar code:
    the verdict, sigma_min and rank or witness direction, bit for bit, and
    the one-point functions are views on it."""
    rng = np.random.default_rng(89 if kind == "graph" else 90)
    if kind == "graph":
        # a holomorphic row and a dbar-matrix of rank one; B = 0
        systems = [ProblemSystem.graph(["z1^2 + conj(z2)", "conj(z2)"], 2),
                   ProblemSystem.graph(["z1"], 1)]
        systems += [random_graph_system(rng, n) for n in (1, 2, 3) for _ in range(3)]
    else:
        # dbar rows parallel where Re(z2) = 0
        systems = [ProblemSystem.submersion(["Im(z1)", "2*Im(z1) + Re(z2)^2"], 2, 2)]
        systems += [random_submersion_system(rng, n, int(rng.integers(1, n + 1)))
                    for n in (1, 2, 3) for _ in range(3)]
    failed = 0
    for sys_ in systems:
        n = sys_.n
        xs = rng.uniform(-1.5, 1.5, (40, 2 * n))
        xs[:10, 2:3] = 0.0
        got = totally_real(sys_, xs)
        for i, row in enumerate(xs.tolist()):
            z = tuple(complex(*row[k:k + 2]) for k in range(0, 2 * n, 2))
            if kind == "graph":
                want = _scalar_totally_real_graph(sys_, row)
                view = is_totally_real_graph(sys_, z)
                assert repr(view["witness_v"]) == repr(want["witness_v"])
                if want["witness_v"] is not None:
                    assert repr(got["witness_v"][i]) == repr(want["witness_v"])
            else:
                want = _scalar_totally_real_submersion(sys_, row)
                view = is_totally_real_submersion(sys_, z)
                assert got["rank"][i] == want["rank"] == view["rank"]
            assert got["totally_real"][i] == want["totally_real"] == view["totally_real"]
            assert _bits([got["sigma_min"][i], view["sigma_min"]]).tolist() \
                == _bits([want["sigma_min"]] * 2).tolist()
            failed += not want["totally_real"]
    assert failed >= 10


def test_totally_real_names_the_first_zero_differential():
    """A vanishing dbar-row raises at the first such point of the batch, with
    the message the one-point test gives there."""
    sys_ = ProblemSystem.submersion(["Im(z1)^2"], 1, 1)
    xs = np.array([[0.3, 0.5], [-1.0, 0.0], [2.0, -0.0], [0.1, 0.2]])
    with pytest.raises(DegenerateSystemError) as ref:
        _scalar_totally_real_submersion(sys_, xs[1].tolist())
    with pytest.raises(DegenerateSystemError) as got:
        totally_real(sys_, xs)
    assert str(got.value) == str(ref.value) == \
        "function #1 has zero differential at z=[(-1+0j)]: not a submersion"
    assert totally_real(sys_, xs[[0, 3]])["totally_real"].tolist() == [True, True]


def test_violations_only_keeps_every_violation():
    """Skipping numerical radii where the residual is under the Frobenius
    lower bound of the radius leaves the violation mask as it was, and every
    radius it does compute the same bits."""
    rng = np.random.default_rng(87)
    graph_n2 = ProblemSystem.graph(["conj(z1) + 0.1*z2*conj(z2) - 0.2*z1^2*conj(z2)",
                                    "conj(z2) - 0.3*z1*conj(z1)^2 + 0.05*conj(z1)"], 2)
    guard = 1.0 + rigor._VIOLATION_GUARD
    skipped = computed = nbad = 0
    for sys_ in [graph_n2] + _systems(rng):
        n = sys_.n
        pts = rng.uniform(-1.2, 1.2, (60, 4 * n if sys_.kind == GRAPH else 2 * n))
        table = sys_.evaluate("all", pts[:, :2 * n])
        if sys_.kind == GRAPH:  # w near F(z), so small residuals occur too
            f = table[:30, :n]
            pts[:30, 2 * n::2] = f.real + rng.uniform(-1e-3, 1e-3, f.shape)
            pts[:30, 2 * n + 1::2] = f.imag + rng.uniform(-1e-3, 1e-3, f.shape)
        residual, radius = rigor._probe_quantities(sys_, pts, table)
        res2, rad2 = rigor._probe_quantities(sys_, pts, table, violations_only=True)
        assert (_bits(res2) == _bits(residual)).all()
        same = _bits(rad2) == _bits(radius)
        assert (residual[~same] < rad2[~same]).all()
        assert (rad2[~same] <= radius[~same] * (1 + 1e-12)).all()  # up to rounding
        bad = ~np.isinf(radius) & (residual >= radius * guard)
        nbad += int(bad.sum())
        assert (bad == (~np.isinf(rad2) & (residual >= rad2 * guard))).all()
        if n >= 2 and not (sys_.kind != GRAPH and n == 2):
            skipped += int((~same).sum())
            computed += int((same & (radius > 0) & ~np.isinf(radius)).sum())
    assert skipped > 0 and computed > 0 and nbad > 0


@pytest.mark.parametrize("kind", ["graph", "submersion"])
def test_tube_probe_matches_scalar_reference_on_random_boxes(kind):
    rng = np.random.default_rng(83 if kind == "graph" else 84)
    fails = 0
    for n in (1, 2, 3):
        for _ in range(2):
            if kind == "graph":
                sys_ = random_graph_system(rng, n)
                region = Region(((0.0, 0.0, 1.0),) * n
                                + tuple((float(rng.normal()), float(rng.normal()), 0.5)
                                        for _ in range(n)))
            else:
                sys_ = random_submersion_system(rng, n, int(rng.integers(1, n + 1)))
                region = None if rng.integers(0, 2) else Region(((0.0, 0.0, 0.8),) * n)
            lo = rng.uniform(-1.0, 0.8, (30, 2 * n))
            hi = lo + rng.uniform(0.0, 0.4, (30, 2 * n))
            fails += _assert_probe_matches(sys_, lo, hi, region)
    assert 0 < fails < 6 * 30


def test_numerical_radii_match_scalar_reference():
    rng = np.random.default_rng(85)
    for d in (1, 2, 3):
        M = rng.normal(size=(150, d, d)) + 1j * rng.normal(size=(150, d, d))
        M[0] = 0.0
        M[1] = M[1] + M[1].conj().T  # Hermitian
        M[2] = np.diag(rng.normal(size=d))
        M[3, 0, 0] = 1e-300
        got = numerical_radii(M)
        want = [_scalar_numerical_radius(m) for m in M]
        assert (_bits(got) == _bits(want)).all()
        assert numerical_radius(M[4]) == want[4]


def test_probe_quantities_match_scalar_reference_at_many_points():
    """Systems whose Levi matrices the scalar reference handles fast (n = 1, a
    2x2 submersion, an n = 3 graph with Hermitian Levi matrices), at enough
    points that a power, magnitude or sum taken otherwise than the reference
    takes it would differ somewhere in the last bit."""
    rng = np.random.default_rng(86)
    graph3 = ProblemSystem.graph([f"conj(z{j}) + 0.3*z{j}*conj(z{j}) + 0.1*z{k}*conj(z{k})"
                                  for j, k in ((1, 2), (2, 3), (3, 1))], 3)
    cap = load_manifest(cap_manifest(1.0))[0]
    for sys_ in (ProblemSystem.graph(["conj(z1) + 2*z1^2*conj(z1)"], 1), cap, graph3):
        n = sys_.n
        pts = rng.uniform(-1.5, 1.5, (1500, 4 * n if sys_.kind == GRAPH else 2 * n))
        table = sys_.evaluate("all", pts[:, :2 * n])
        residual, radius = rigor._probe_quantities(sys_, pts, table)
        want = [_point_quantities(sys_, pt) for pt in pts.tolist()]
        assert (_bits(residual) == _bits([r for r, _ in want])).all()
        assert (_bits(radius) == _bits([r for _, r in want])).all()


def _assert_witness_is_first_of_level(sys_, cert, calls):
    """The certificate's witness is the scalar probe's first violating box of
    the last (failing) level, which has several."""
    ref = _scalar_tube_probe(sys_, *calls[-1])
    assert sum(w is not None for w in ref) >= 2
    wit = dict(cert.witness)
    assert wit.pop("check") == "omega_in_tube"
    assert repr(wit) == repr(next(w for w in ref if w is not None))


def _recording_probe(monkeypatch):
    """Record the arguments of every _tube_probe call of a certify run."""
    calls = []
    probe = rigor._tube_probe

    def record(sys_, lo, hi, region):
        calls.append((np.array(lo), np.array(hi), region))
        return probe(sys_, lo, hi, region)

    monkeypatch.setattr(rigor, "_tube_probe", record)
    return calls


def _wermer_fail_probes_match_scalar_reference(wermer, monkeypatch, radius, probes):
    calls = _recording_probe(monkeypatch)
    cert = certify(wermer, wermer_compact(radius), max_depth=30, node_budget=150_000)
    monkeypatch.undo()
    assert cert.verdict == "FAIL"
    assert sum(len(lo) for lo, _, _ in calls) == probes
    fails = sum(_assert_probe_matches(wermer, lo, hi, region) for lo, hi, region in calls)
    assert fails >= 1
    _assert_witness_is_first_of_level(wermer, cert, calls)


def test_wermer_r033_fail_probes_match_scalar_reference(wermer, monkeypatch):
    """r = 0.33 FAILs after 27 probes (86 tube leaves before probes moved to
    box midpoints)."""
    _wermer_fail_probes_match_scalar_reference(wermer, monkeypatch, 0.33, 27)


def test_wermer_r03075_fail_probes_match_scalar_reference(wermer, monkeypatch):
    """Just above the largest certifiable radius the FAIL search still takes
    over a hundred probes."""
    _wermer_fail_probes_match_scalar_reference(wermer, monkeypatch, 0.3075, 203)


def test_cap_r135_fail_probes_match_scalar_reference(monkeypatch):
    sys_, K, omega, opts = load_manifest(cap_manifest(1.35, 100_000))
    calls = _recording_probe(monkeypatch)
    cert = certify(sys_, K, omega, **opts)
    monkeypatch.undo()
    assert cert.verdict == "FAIL"
    fails = sum(_assert_probe_matches(sys_, lo, hi, region) for lo, hi, region in calls)
    assert fails >= 1
    _assert_witness_is_first_of_level(sys_, cert, calls)


@pytest.mark.parametrize("x", [1e40, 1e100])
def test_tube_profile_raises_where_values_leave_the_doubles(wermer, x):
    """Wermer's m overflows at |z| = 1e40 and its tables at 1e100.  numpy
    gives inf there without raising, so the pointwise layer raises
    OverflowError itself, quietly, and returns no inf or 0 built on it."""
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(OverflowError):
            tube_profile(wermer, [(0j,), (complex(x, -x),)])


def test_tables_L_and_residual_raise_where_values_leave_the_doubles(wermer, example2):
    lev = np.zeros((1, 2, 2, 2), dtype=complex)
    lev[0, 0, 0, 0], lev[0, 0, 1, 1] = 1e200, -1e200  # ((a - d) / 2)^2 overflows
    pts = np.array([[0.1, 0.0, 1.7e308, 1.7e308]])  # |f(z) - w| overflows
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(OverflowError, match="polynomial value"):
            wermer.values_at((1e100 + 0j,))
        with pytest.raises(OverflowError, match="L"):
            L_values(example2, lev)
        with pytest.raises(OverflowError, match="residual"):
            rigor._probe_quantities(wermer, pts, wermer.evaluate("all", pts[:, :2]))


def test_point_probes_make_no_per_element_python_calls(monkeypatch, wermer, example2):
    """The pointwise layer is plain numpy arithmetic, apart from _phase, which
    maps math.cos and math.sin over the angles of numerical_radii (numpy's
    own loops for them can differ from CPU to CPU); here it is replaced."""
    def refuse(*args, **kwargs):
        raise AssertionError("per-element Python arithmetic in a pointwise probe")

    monkeypatch.setattr(trgeom, "_phase",
                        lambda t: (np.cos(t) + 1j * np.sin(t))[:, None, None])
    monkeypatch.setattr(np, "fromiter", refuse)
    monkeypatch.setattr(math, "hypot", refuse)
    graph_n2 = ProblemSystem.graph(["conj(z1) + 0.1*z2*conj(z2) - 0.2*z1^2*conj(z2)",
                                    "conj(z2) - 0.3*z1*conj(z1)^2 + 0.05*conj(z1)"], 2)
    rng = np.random.default_rng(91)
    for sys_ in (wermer, example2, graph_n2):
        n = sys_.n
        lo = rng.uniform(-0.5, 0.3, (40, 2 * n))
        hi = lo + rng.uniform(0.0, 0.2, (40, 2 * n))
        region = Region(((0.0, 0.0, 0.6),) * (2 * n if sys_.kind == GRAPH else n))
        rigor._tube_probe(sys_, lo, hi, region)
        tube_profile(sys_, [tuple(complex(*x[k:k + 2]) for k in range(0, 2 * n, 2))
                            for x in lo.tolist()])
        totally_real(sys_, lo)
    cert = certify(wermer, wermer_compact(0.33), max_depth=30, node_budget=150_000)
    assert cert.verdict == "FAIL"
