import json
import logging
import math
import warnings

import numpy as np
import pytest
from scipy.optimize import linprog

import prc.hullprobe
from prc.certify import BoxRegion, CompactSpec, wermer_compact
from prc.cli import main
from prc.hullprobe import (SampleCloud, _monomial_values, fragility_check,
                           monomial_basis, probe, sample_compact)


@pytest.fixture(scope="module")
def circle_cloud():
    theta = 2 * np.pi * np.arange(360) / 360
    return SampleCloud(points=np.exp(1j * theta)[:, None])


@pytest.fixture(scope="module")
def wermer_cloud(wermer):
    return sample_compact(wermer, wermer_compact(1.0), density=40)


# ---------------------------------------------------------------------------
# sampling
# ---------------------------------------------------------------------------

def test_sample_wermer_on_graph(wermer, wermer_cloud):
    pts = wermer_cloud.points
    assert pts.shape[1] == 2
    assert len(pts) >= 1000
    xs = np.column_stack([pts[:, 0].real, pts[:, 0].imag])
    fvals = wermer.tables[0].value.eval_batch(xs)
    assert np.max(np.abs(fvals - pts[:, 1])) <= 1e-9
    # the boundary ring is present: many points on |z| = 1
    assert np.sum(np.abs(np.abs(pts[:, 0]) - 1.0) < 1e-12) >= 8 * 40


def test_sample_example2_projects_onto_manifold(example2):
    K = CompactSpec.submersion_cap((0j, 0j), (1.0, 1.0))
    cloud = sample_compact(example2, K, density=40)
    pts = cloud.points
    assert pts.shape[1] == 2
    xs = np.column_stack([pts[:, 0].real, pts[:, 0].imag,
                          pts[:, 1].real, pts[:, 1].imag])
    for t in example2.tables:
        assert np.max(np.abs(t.value.eval_batch(xs))) <= 1e-9
    assert cloud.meta["converged_fraction"] >= 0.5


def test_sample_degenerate_point(wermer):
    K = CompactSpec.graph_over([BoxRegion(0.25, 0.25, -0.1, -0.1)])
    cloud = sample_compact(wermer, K, density=2)
    assert len(cloud.points) == 1
    z = cloud.points[0, 0]
    assert z == 0.25 - 0.1j


def test_sample_rejects_tiny_density(wermer):
    with pytest.raises(ValueError):
        sample_compact(wermer, wermer_compact(0.5), density=1)
    # a float or a bool density is refused by name, as probe's degree is
    for density in (3.0, True):
        with pytest.raises(ValueError, match="density must be an integer"):
            sample_compact(wermer, wermer_compact(0.5), density=density)


def test_sample_submersion_projection_failure():
    from prc import ProblemSystem
    from prc.hullprobe import ProjectionError

    # |z|^2 + 1 is real-valued but never vanishes: no seed can converge
    sys_ = ProblemSystem.submersion(["z1*conj(z1) + 1"], 1, 1)
    K = CompactSpec.submersion_cap((0j,), (1.0,))
    with pytest.raises(ProjectionError):
        sample_compact(sys_, K, density=8)


# ---------------------------------------------------------------------------
# probe basics
# ---------------------------------------------------------------------------

def test_monomial_basis_counts():
    assert len(monomial_basis(1, 6)) == 7
    assert len(monomial_basis(2, 6)) == 28  # C(8, 2)
    assert (0, 0) in monomial_basis(2, 3)


def test_circle_center_not_separated(circle_cloud):
    res = probe(circle_cloud, [0j], degree=6)
    assert not res.separated
    assert res.ratio <= 1.0 + 1e-9


def test_circle_outside_point_separated(circle_cloud):
    res = probe(circle_cloud, [1.5 + 0j], degree=1)
    assert res.separated
    assert abs(res.ratio - 1.5) <= 0.02


def test_probe_validates_arguments(circle_cloud):
    with pytest.raises(ValueError):
        probe(circle_cloud, [0j], degree=0)
    with pytest.raises(ValueError):
        probe(circle_cloud, [0j], degree=2, angles=4)
    with pytest.raises(ValueError):
        probe(circle_cloud, [0j, 0j], degree=2)
    # angles=8.5 once ran with 9 angles at 2 pi k / 8.5, which is no regular
    # polygon, and reported angles=8.5
    for name, value in (("angles", 8.5), ("angles", 16.0), ("angles", True),
                        ("degree", 2.5), ("degree", 2.0), ("degree", True)):
        with pytest.raises(ValueError, match=f"{name} must be an integer >= "):
            probe(circle_cloud, [0j], **{"degree": 2, name: value})
    assert probe(circle_cloud, [0j], degree=np.int64(2), angles=np.int64(8)).angles == 8


@pytest.mark.parametrize("q", [[1e200 + 0j], [1e160j], [math.inf + 0j], [complex(math.nan, 0)]])
def test_probe_overflowing_query_raises_without_warning(circle_cloud, q):
    """A query point whose monomials leave the doubles once leaked numpy's
    RuntimeWarning and then SciPy's refusal of a non-finite LP bound."""
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match="monomials of the query point q = "):
            probe(circle_cloud, q, degree=2)


def test_probe_overflowing_cloud_raises_without_warning(circle_cloud):
    """Cloud monomials that leave the doubles once leaked numpy's
    RuntimeWarning and then SciPy's refusal of a non-finite A_ub."""
    cloud = SampleCloud(points=np.array([[1e200 + 0j], [0j]]))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match="degree-2 monomials of the sample cloud "):
            probe(cloud, [1.0 + 0j], degree=2)
        res = probe(circle_cloud, [1.5 + 0j], degree=2)
        with pytest.raises(ValueError, match="degree-2 monomials of the dense sample cloud "):
            fragility_check(res, [1.5 + 0j], cloud)


def test_probe_never_separates_cloud_member(circle_cloud):
    for idx in (0, 90, 200):
        q = circle_cloud.points[idx]
        res = probe(circle_cloud, q, degree=4)
        assert not res.separated
        assert res.ratio <= 1.0 + 1e-9


def test_probe_monotone_in_degree(circle_cloud):
    objs = [probe(circle_cloud, [1.2 + 0.3j], degree=d).objective
            for d in (1, 2, 3, 4)]
    for a, b in zip(objs, objs[1:]):
        assert b >= a - 1e-7


def test_separation_ratio_reproducible(circle_cloud):
    res = probe(circle_cloud, [1.5 + 0j], degree=2)
    mvals = np.ones((len(circle_cloud.points), len(res.monomials)), dtype=complex)
    for t, e in enumerate(res.monomials):
        mvals[:, t] = circle_cloud.points[:, 0] ** e[0]
    cloud_max = np.max(np.abs(mvals @ res.coefficients))
    qv = np.array([(1.5 + 0j) ** e[0] for e in res.monomials])
    ratio = abs(qv @ res.coefficients) / cloud_max
    assert abs(ratio - res.ratio) <= 1e-9 * (1 + ratio)


def test_fragility_check_solid_separation(circle_cloud):
    res = probe(circle_cloud, [1.5 + 0j], degree=2)
    theta = 2 * np.pi * np.arange(3600) / 3600
    dense = SampleCloud(points=np.exp(1j * theta)[:, None])
    res = fragility_check(res, [1.5 + 0j], dense)
    assert res.fragile is False


# ---------------------------------------------------------------------------
# Wermer hull evidence
# ---------------------------------------------------------------------------

def test_wermer_origin_not_separated(wermer_cloud):
    res = probe(wermer_cloud, [0j, 0j], degree=3)
    assert not res.separated


def test_wermer_far_point_separated(wermer_cloud):
    res = probe(wermer_cloud, [0j, 2 + 0j], degree=2)
    assert res.separated
    assert res.ratio >= 1.5


def test_single_lp_matches_all_rotated_objectives(wermer):
    """The constraint polygon is invariant under rotating the coefficients by
    e^{2 pi i k/g}, so the one LP probe solves has the optimum of the best of
    the g rotated objectives."""
    cloud = sample_compact(wermer, wermer_compact(1.0), density=8)
    q = np.array([0.1j, 1.5 + 0.2j])
    angles = 16
    monos = monomial_basis(2, 2)
    mvals = _monomial_values(cloud.points, monos)
    qvals = _monomial_values(q[None, :], monos)[0]
    rot = np.exp(2j * np.pi * np.arange(angles) / angles)
    rotated = (rot[None, :, None] * mvals[:, None, :]).reshape(-1, len(monos))
    A = np.empty((len(rotated), 2 * len(monos)))
    A[:, 0::2] = rotated.real
    A[:, 1::2] = -rotated.imag
    best = -np.inf
    for phi0 in rot:
        c = np.empty(2 * len(monos))
        c[0::2] = (phi0 * qvals).real
        c[1::2] = -(phi0 * qvals).imag
        res = linprog(-c, A_ub=A, b_ub=np.ones(len(A)), bounds=(None, None),
                      method="highs")
        assert res.status == 0
        best = max(best, -res.fun)
    got = probe(cloud, q, degree=2, angles=angles).objective
    assert abs(got - best) <= 1e-9 * abs(best)


# ---------------------------------------------------------------------------
# the active-set LP against the single full LP
# ---------------------------------------------------------------------------

def _full_lp(cloud, q, degree, angles=16):
    """Reference oracle: the separation LP over every cloud point and angle
    in one primal solve.  Returns the optimum, inf when it is unbounded."""
    monos = monomial_basis(cloud.ambient_dim, degree)
    mvals = _monomial_values(cloud.points, monos)
    qvals = _monomial_values(np.asarray(q, dtype=complex)[None, :], monos)[0]
    rot = np.exp(2j * np.pi * np.arange(angles) / angles)
    rotated = (rot[None, :, None] * mvals[:, None, :]).reshape(-1, len(monos))
    A = np.empty((len(rotated), 2 * len(monos)))
    A[:, 0::2] = rotated.real
    A[:, 1::2] = -rotated.imag
    c = np.empty(2 * len(monos))
    c[0::2] = qvals.real
    c[1::2] = -qvals.imag
    res = linprog(-c, A_ub=A, b_ub=np.ones(len(A)), bounds=(None, None),
                  method="highs")
    if res.status == 3:
        return math.inf
    assert res.status == 0
    return -res.fun


def _gauge(res, cloud):
    """max over the angles of Re(e^{i phi_a} p(s)) at every cloud point."""
    rot = np.exp(2j * np.pi * np.arange(res.angles) / res.angles)
    p = _monomial_values(cloud.points, res.monomials) @ res.coefficients
    return np.max((rot[None, :] * p[:, None]).real, axis=1)


def _assert_matches_full_lp(cloud, q, degree, angles=16):
    res = probe(cloud, q, degree, angles=angles)
    best = _full_lp(cloud, q, degree, angles)
    bar = 1.05 / math.cos(math.pi / angles)
    assert res.separated == (best > bar)
    assert abs(res.objective - best) <= 1e-9 * abs(best)
    assert np.max(_gauge(res, cloud)) <= 1.0 + 1e-7
    # the coefficients attain the objective at q
    qvals = _monomial_values(np.asarray(q, dtype=complex)[None, :], res.monomials)[0]
    assert abs((qvals @ res.coefficients).real - best) <= 1e-7 * abs(best)


def _random_queries(rng, dim, count):
    return [rng.normal(size=dim) + 1j * rng.normal(size=dim) for _ in range(count)]


@pytest.mark.parametrize("density", [8, 12, 16])
@pytest.mark.parametrize("degree", [1, 2, 3, 4])
def test_active_set_matches_full_lp_wermer(wermer, density, degree):
    cloud = sample_compact(wermer, wermer_compact(1.0), density=density)
    rng = np.random.default_rng(100 * density + degree)
    queries = [np.array([0j, 0j]), np.array([0j, 2 + 0j])]
    for q in queries + _random_queries(rng, 2, 3):
        _assert_matches_full_lp(cloud, q, degree)


def test_active_set_matches_full_lp_circle(circle_cloud):
    rng = np.random.default_rng(7)
    for degree in (1, 3, 6):
        for q in [np.array([0j]), np.array([1.5 + 0j])] + _random_queries(rng, 1, 3):
            _assert_matches_full_lp(circle_cloud, q, degree)


@pytest.mark.parametrize("angles", [8, 9, 10])
def test_active_set_matches_full_lp_other_angles(wermer, circle_cloud, angles):
    """The four start angles (j * angles) // 4 are a quarter turn apart only
    when 4 divides angles; every gap stays under a half turn for angles >= 8."""
    cloud = sample_compact(wermer, wermer_compact(1.0), density=12)
    rng = np.random.default_rng(angles)
    for q in [np.array([0j, 0j]), np.array([0j, 2 + 0j])] + _random_queries(rng, 2, 2):
        _assert_matches_full_lp(cloud, q, 3, angles)
    for q in [np.array([0j]), np.array([1.5 + 0j])] + _random_queries(rng, 1, 2):
        _assert_matches_full_lp(circle_cloud, q, 3, angles)


def test_active_set_matches_full_lp_submersion_cap(example2):
    K = CompactSpec.submersion_cap((0j, 0j), (1.0, 1.0))
    cloud = sample_compact(example2, K, density=6)
    rng = np.random.default_rng(11)
    for degree in (1, 2, 3):
        for q in [cloud.points[0]] + _random_queries(rng, 2, 2):
            _assert_matches_full_lp(cloud, q, degree)


def test_active_set_grows_past_an_unbounded_start():
    """The strided start set lies on the line w = 0, where w vanishes, so its
    LP is unbounded; the one point off the line bounds the full LP."""
    t = np.linspace(-1.0, 1.0, 100)
    pts = np.concatenate([np.column_stack([t, np.zeros(100)]), [[0.0, 1.0]]])
    cloud = SampleCloud(points=pts.astype(complex))
    q = np.array([0j, 0.5 + 0j])
    _assert_matches_full_lp(cloud, q, 1)
    assert math.isfinite(probe(cloud, q, 1).objective)


def test_probe_repeats_byte_for_byte(wermer):
    cloud = sample_compact(wermer, wermer_compact(1.0), density=16)
    for q, degree in (([0j, 0j], 4), ([0j, 2 + 0j], 3)):
        a, b = probe(cloud, q, degree), probe(cloud, q, degree)
        assert a.coefficients.tobytes() == b.coefficients.tobytes()
        assert (a.objective, a.ratio, a.separated) == (b.objective, b.ratio, b.separated)


def test_every_lp_passes_a_2d_a_ub(wermer, monkeypatch):
    """Tracing hooks read the shape of the A_ub keyword of every solve."""
    shapes = []

    def spy(*args, **kwargs):
        assert kwargs["A_ub"].ndim == 2
        shapes.append(kwargs["A_ub"].shape)
        return linprog(*args, **kwargs)

    monkeypatch.setattr(prc.hullprobe, "linprog", spy)
    cloud = sample_compact(wermer, wermer_compact(1.0), density=16)
    for q, degree, nt in (([0j, 2 + 0j], 2, 6), ([0j, 0j], 3, 10)):
        shapes.clear()
        res = probe(cloud, q, degree=degree)
        assert len(shapes) == res.rounds >= 1
        # 4 nt start points at four angles each
        assert shapes[0][1] == 16 * nt
        # the dual form: one row per real unknown and sign, far fewer
        # columns than the 16 * |cloud| rows of the full LP
        assert all(rows == 4 * nt for rows, _ in shapes)
        assert all(cols < 16 * len(cloud.points) for _, cols in shapes)
        assert shapes[-1][1] == res.active_rows


@pytest.mark.parametrize("q, degree, pointwise_cols", [([0j, 0j], 6, 1792),
                                                     ([0j, 2 + 0j], 2, 5728)])
def test_lp_columns_summed_over_solves(wermer, monkeypatch, q, degree, pointwise_cols):
    """Growing the active set by (point, angle) rows rather than by whole
    points at all 16 angles passes the solver at most a third of the
    columns the point-wise active set did (pointwise_cols) on the benchmark's
    Wermer K_1 queries at density 24."""
    cols = []

    def spy(*args, **kwargs):
        cols.append(kwargs["A_ub"].shape[1])
        return linprog(*args, **kwargs)

    monkeypatch.setattr(prc.hullprobe, "linprog", spy)
    cloud = sample_compact(wermer, wermer_compact(1.0), density=24)
    probe(cloud, q, degree=degree)
    assert sum(cols) <= pointwise_cols / 3


def test_probe_logs_its_counts(circle_cloud, caplog):
    with caplog.at_level(logging.INFO, logger="prc.hullprobe"):
        res = probe(circle_cloud, [1.5 + 0j], degree=2)
    (record,) = caplog.records
    assert record.getMessage().startswith(
        f"probe: degree 2, 360 points x 16 angles, {res.rounds} rounds, "
        f"{res.active_rows} active rows, objective ")
    assert res.rounds >= 1 and res.active_rows >= 16 * 3


# ---------------------------------------------------------------------------
# an unbounded LP: a polynomial vanishes on the cloud but not at q
# ---------------------------------------------------------------------------

def _holomorphic_graph_manifest():
    return {"kind": "graph", "n": 1, "functions": ["z1"],
            "compact": {"region": [{"shape": "disc", "center": [0, 0], "radius": 1}]}}


def test_unbounded_lp_separates_with_infinite_objective(tmp_path):
    from prc.certify import load_manifest

    sys_, K, _, _ = load_manifest(_holomorphic_graph_manifest())
    cloud = sample_compact(sys_, K, density=8)
    q = [0j, 1 + 0j]
    assert _full_lp(cloud, q, 1) == math.inf
    res = probe(cloud, q, degree=1)
    assert res.separated
    assert res.objective == math.inf
    # the coefficients are those of w - z1, scaled to p(q) = 1
    qvals = _monomial_values(np.array([q]), res.monomials)[0]
    assert abs(qvals @ res.coefficients - 1) <= 1e-12
    mvals = _monomial_values(cloud.points, res.monomials)
    assert np.max(np.abs(mvals @ res.coefficients)) <= 1e-12
    assert res.ratio > 1e9


def test_unbounded_lp_cli_exit_0(tmp_path):
    path = tmp_path / "holo.json"
    path.write_text(json.dumps(_holomorphic_graph_manifest()))
    out = tmp_path / "probe.json"
    code = main(["hull-probe", str(path), "--q", "0,0,1,0", "--degree", "1",
                 "--density", "8", "--out", str(out)])
    assert code == 0
    rep = json.loads(out.read_text())["hull_probe"]
    assert rep["separated"] is True
    assert rep["objective"] == "inf"
    assert rep["fragile"] is False
    # the start LP is unbounded, and so is the one over every row
    assert rep["rounds"] == 2
    assert rep["active_rows"] == 16 * rep["cloud_size"]


def test_overflowing_cloud_cli_exit_2(tmp_path, capsys):
    path = tmp_path / "huge.json"
    path.write_text(json.dumps(
        {"kind": "graph", "n": 1, "functions": ["z1^2"],
         "compact": {"region": [{"shape": "disc", "center": [0, 0], "radius": 1e60}]}}))
    out = tmp_path / "probe.json"
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code = main(["hull-probe", str(path), "--q", "0,0,0,0", "--degree", "3",
                     "--density", "8", "--out", str(out)])
    assert code == 2
    err = capsys.readouterr().err
    assert err == "error: the degree-3 monomials of the sample cloud leave the range of doubles\n"
    assert not out.exists()
