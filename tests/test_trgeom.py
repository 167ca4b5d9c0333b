import math
from fractions import Fraction

import numpy as np
import pytest

from conftest import random_system, wermer_L_closed, wermer_m_closed
from prc import ProblemSystem, trgeom
from prc.certify import WERMER_F, ManifestError, certify, load_manifest, wermer_compact
from prc.expr import Const, Mul, parse
from prc.trgeom import (DegenerateSystemError, bbar_matrix, big_l_value,
                        is_totally_real_graph, is_totally_real_submersion,
                        levi_u_graph, levi_u_submersion, m_value,
                        m_value_bruteforce, numerical_radius, tube_profile,
                        tube_radius)


# ---------------------------------------------------------------------------
# system construction
# ---------------------------------------------------------------------------

def test_graph_needs_n_functions():
    with pytest.raises(ValueError):
        ProblemSystem.graph(["z1", "z2"], 1)


def test_submersion_counts():
    ProblemSystem.submersion(["Im(z1)", "Im(z2)"], 2, 2)
    with pytest.raises(ValueError):
        ProblemSystem.submersion(["Im(z1)"], 2, 2)
    with pytest.raises(ValueError):
        ProblemSystem.submersion(["Im(z1)"] * 3, 2, 4)


def test_submersion_rejects_complex_valued():
    with pytest.raises(DegenerateSystemError):
        ProblemSystem.submersion(["z1"], 1, 1)


def test_build_memo_shares_one_system_per_texts():
    f = "conj(z1) + 0.5*z1*conj(z1)^2"
    a = ProblemSystem.graph([f], 1)
    assert ProblemSystem.graph((f,), 1) is a
    assert ProblemSystem.graph([f + " "], 1) is not a  # keyed on the text as given
    # constants that compare equal, Const(0.0) == Const(-0.0), but distinct texts
    assert Const(0.0) == Const(-0.0)
    assert ProblemSystem.graph(["conj(z1) + -0.0*z1"], 1) is not \
        ProblemSystem.graph(["conj(z1) + 0.0*z1"], 1)
    # the kind, n and k are part of the key
    g = ProblemSystem.graph(["Im(z1)"], 1)
    s1 = ProblemSystem.submersion(["Im(z1)"], 1, 1)
    assert (g.kind, s1.kind, s1.k) == ("graph", "submersion", 1) and g is not s1
    two = ["Im(z1)", "Im(z2)"]
    assert ProblemSystem.submersion(two, 2, 2).n == 2
    with pytest.raises(ValueError, match="needs 2n-k=3 functions"):
        ProblemSystem.submersion(two, 2, 1)
    with pytest.raises(ValueError, match="needs exactly n=2 functions"):
        ProblemSystem.graph(["Im(z1)"], 2)


def test_build_memo_skips_failed_builds_and_parsed_input():
    bad = {"kind": "graph", "n": 1, "functions": ["conj(z1) +"],
           "compact": {"region": [{"shape": "disc", "center": [0, 0], "radius": 0.3}]}}
    before = trgeom._built_system.cache_info().currsize
    messages = []
    for _ in range(2):
        with pytest.raises(ManifestError, match="bad system definition") as info:
            load_manifest(bad)
        messages.append(str(info.value))
    assert messages[0] == messages[1]
    assert trgeom._built_system.cache_info().currsize == before
    e = parse("conj(z1)", 1)
    hits = trgeom._built_system.cache_info().hits
    assert ProblemSystem.graph([e], 1) is not ProblemSystem.graph([e], 1)
    assert trgeom._built_system.cache_info().hits == hits


# ---------------------------------------------------------------------------
# bbar matrix
# ---------------------------------------------------------------------------

def test_bbar_example2_origin(example2):
    B = bbar_matrix(example2, (0j, 0j))
    want = np.array([[0.5j, 0], [0, 0.5j]])
    assert np.max(np.abs(B - want)) < 1e-14


def test_bbar_wermer_origin(wermer):
    B = bbar_matrix(wermer, (0j,))
    assert abs(B[0, 0] - (-(1 + 1j))) < 1e-14


def test_bbar_holomorphic_graph():
    sys_ = ProblemSystem.graph(["z1"], 1)
    assert bbar_matrix(sys_, (0.3 + 0.4j,))[0, 0] == 0


# ---------------------------------------------------------------------------
# m and L
# ---------------------------------------------------------------------------

def test_m_wermer_closed_form(wermer):
    rng = np.random.default_rng(0)
    for _ in range(100):
        z = complex(rng.uniform(-1, 1), rng.uniform(-1, 1))
        want = wermer_m_closed(abs(z))
        got = m_value(wermer, (z,))
        assert abs(got - want) <= 1e-10 * (1 + abs(want))


def test_m_wermer_at_paper_radius_exact_fraction(wermer):
    want = Fraction(9, 81) - Fraction(2, 9) - Fraction(4, 3) + 2
    assert want == Fraction(5, 9)
    got = m_value(wermer, (1 / math.sqrt(3) + 0j,))
    assert abs(got - float(want)) <= 1e-12


def test_m_holomorphic_graph_is_zero():
    sys_ = ProblemSystem.graph(["z1"], 1)
    assert m_value(sys_, (0.5 + 0.5j,)) == 0.0


def test_L_wermer_closed_form(wermer):
    rng = np.random.default_rng(1)
    for _ in range(100):
        z = complex(rng.uniform(-1, 1), rng.uniform(-1, 1))
        want = wermer_L_closed(abs(z))
        got = big_l_value(wermer, (z,))
        assert abs(got - want) <= 1e-10 * (1 + abs(want))


def test_L_example2_bounded_by_paper(example2):
    rng = np.random.default_rng(2)
    for _ in range(50):
        z = tuple(complex(rng.uniform(-1, 1), rng.uniform(-1, 1)) for _ in range(2))
        assert big_l_value(example2, z) <= 2 * 0.05 + 1e-12


def test_L_pluriharmonic_vanishes():
    sys_ = ProblemSystem.graph(["z1 + conj(z1)"], 1)
    assert big_l_value(sys_, (0.7 - 0.3j,)) == 0.0


# ---------------------------------------------------------------------------
# numerical radius
# ---------------------------------------------------------------------------

def test_numerical_radius_shift():
    M = np.array([[0, 1], [0, 0]], dtype=complex)
    w = numerical_radius(M)
    # theta-grid oracle (independent dense sweep)
    thetas = np.linspace(0, 2 * np.pi, 10_000, endpoint=False)
    grid = max(np.linalg.eigvalsh((np.exp(1j * t) * M + np.exp(-1j * t) * M.conj().T) / 2)[-1]
               for t in thetas)
    assert abs(w - 0.5) <= 1e-9
    assert abs(w - grid) <= 1e-9


def test_numerical_radius_hermitian():
    assert abs(numerical_radius(np.diag([3., -1.]).astype(complex)) - 3.0) <= 1e-8


def test_numerical_radius_scalar():
    c = 0.3 - 1.2j
    assert abs(numerical_radius(np.array([[c]])) - abs(c)) <= 1e-12


def test_numerical_radius_bounds_random():
    rng = np.random.default_rng(3)
    for _ in range(100):
        d = int(rng.integers(1, 5))
        M = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
        w = numerical_radius(M)
        nrm = np.linalg.norm(M, 2)
        assert nrm / 2 - 1e-8 * (1 + nrm) <= w <= nrm * (1 + 1e-8)


def test_numerical_radius_rejects_nonfinite():
    with pytest.raises(ValueError):
        numerical_radius(np.array([[np.inf, 0], [0, 0]], dtype=complex))


# ---------------------------------------------------------------------------
# total reality
# ---------------------------------------------------------------------------

_GRAPH_N2 = ["conj(z1) + 0.1*z2*conj(z2) - 0.2*z1^2*conj(z2)",
             "conj(z2) - 0.3*z1*conj(z1)^2 + 0.05*conj(z1)"]


@pytest.mark.parametrize("system", ["wermer", "graph_n2", "holomorphic"])
def test_evaluate_matches_stacked_eval_batch(wermer, system):
    """One TermPack per part, sys_.pack(part), gives the point values of one
    pack per polynomial, bit for bit, for every part ("dz" and "grad" too)."""
    sys_ = {"wermer": wermer, "graph_n2": ProblemSystem.graph(_GRAPH_N2, 2),
            "holomorphic": ProblemSystem.graph(["z1^2", "z1*z2"], 2)}[system]
    rng = np.random.default_rng(17)
    xs = rng.uniform(-1.5, 1.5, (21, 2 * sys_.n))
    xs[::4] = 0.0  # zero coordinates, where a -0.0 could show
    xs[1::4, 0] = -0.0
    assert set(sys_.polys) == {"value", "dz", "dzbar", "levi", "all", "grad"}
    for part, polys in sys_.polys.items():
        got = sys_.evaluate(part, xs)
        want = np.stack([p.eval_batch(xs) for p in polys], axis=1)
        assert got.shape == want.shape == (len(xs), len(polys))
        assert got.tobytes() == want.tobytes(), part


def test_each_part_is_laid_out_once_and_only_when_read():
    """A system keeps one pack per part, and a Wermer r = 0.3 certify lays
    out only the parts it reads: the values (K in omega), all tables (the
    tube) and the value gradients (its split scale)."""
    sys_ = ProblemSystem(trgeom.GRAPH, 1, [parse(WERMER_F, 1)])
    assert sys_.pack("all") is sys_.pack("all")
    sys_ = ProblemSystem(trgeom.GRAPH, 1, [parse(WERMER_F, 1)])
    assert certify(sys_, wermer_compact(0.3), max_depth=30,
                   node_budget=400_000).verdict == "PASS"
    assert sorted(sys_._packs) == ["all", "grad", "value"]


def test_totally_real_wermer(wermer):
    res = is_totally_real_graph(wermer, (0.25 + 0.1j,))
    assert res["totally_real"]
    assert res["witness_v"] is None


def test_totally_real_fails_holomorphic():
    sys_ = ProblemSystem.graph(["z1^2"], 1)
    res = is_totally_real_graph(sys_, (0j,))
    assert not res["totally_real"]
    assert abs(abs(res["witness_v"][0]) - 1.0) < 1e-12


def test_totally_real_conjugate_graph():
    sys_ = ProblemSystem.graph(["conj(z1)"], 1)
    res = is_totally_real_graph(sys_, (1 + 2j,))
    assert res["totally_real"]
    assert abs(res["sigma_min"] - 1.0) < 1e-12


def test_totally_real_consistent_with_m(wermer):
    rng = np.random.default_rng(5)
    for _ in range(50):
        z = (complex(rng.uniform(-1, 1), rng.uniform(-1, 1)),)
        res = is_totally_real_graph(wermer, z)
        tol = 1e-8 * (1 + res["sigma_min"])
        assert res["totally_real"] == (m_value(wermer, z) > tol ** 2)


def test_totally_real_submersion_example2(example2):
    res = is_totally_real_submersion(example2, (0j, 0j))
    assert res["totally_real"]
    assert res["rank"] == 2


def test_totally_real_submersion_standard_r2():
    sys_ = ProblemSystem.submersion(["Im(z1)", "Im(z2)"], 2, 2)
    res = is_totally_real_submersion(sys_, (0.3 + 0j, -0.2 + 0j))
    assert res["totally_real"]
    assert res["rank"] == 2


def test_totally_real_submersion_degenerate_row_errors():
    # rho = Im(z1)^2 has vanishing differential on Im(z1) = 0
    sys_ = ProblemSystem.submersion(["Im(z1)^2"], 1, 1)
    with pytest.raises(DegenerateSystemError):
        is_totally_real_submersion(sys_, (0.5 + 0j,))


@pytest.mark.parametrize("f", ["conj(z2) + 10^400*z1^2 - 10^400*z1^2",
                               "conj(z2) + 10^200*10^200*z1*conj(z1)^2"])
def test_non_finite_coefficient_rejected(f):
    """inf - inf leaves a NaN coefficient, 10^200*10^200 an infinite one."""
    with pytest.raises(ValueError, match="function #2 has a non-finite coefficient"):
        ProblemSystem.graph(["conj(z1)", f], 2)


# ---------------------------------------------------------------------------
# tube radius / profile
# ---------------------------------------------------------------------------

def test_tube_radius_pluriharmonic_infinite():
    sys_ = ProblemSystem.graph(["conj(z1)"], 1)
    assert tube_radius(sys_, (5 + 3j,)) == math.inf


def test_tube_radius_wermer_origin(wermer):
    assert tube_radius(wermer, (0j,)) == math.inf


def test_tube_radius_wermer_unit(wermer):
    want = 5 / (4 * math.sqrt(10))
    assert abs(tube_radius(wermer, (1 + 0j,)) - want) <= 1e-10


def test_tube_radius_zero_when_m_zero():
    sys_ = ProblemSystem.graph(["z1"], 1)
    assert tube_radius(sys_, (0.2 + 0j,)) == 0.0


def test_tube_radius_scaling_property():
    rng = np.random.default_rng(7)
    for _ in range(20):
        sys_ = random_system(rng)
        c = float(rng.uniform(0.5, 3.0))
        scaled_exprs = [Mul(Const(complex(c, 0)), e) for e in sys_.exprs]
        if sys_.kind == "graph":
            sys2 = ProblemSystem.graph(scaled_exprs, sys_.n)
        else:
            sys2 = ProblemSystem.submersion(scaled_exprs, sys_.n, sys_.k)
        z = tuple(0.5 * (rng.standard_normal() + 1j * rng.standard_normal())
                  for _ in range(sys_.n))
        m1, m2 = m_value(sys_, z), m_value(sys2, z)
        L1, L2 = big_l_value(sys_, z), big_l_value(sys2, z)
        assert abs(m2 - c * c * m1) <= 1e-9 * (1 + m1)
        assert abs(L2 - c * L1) <= 1e-9 * (1 + L1)
        r1, r2 = tube_radius(sys_, z), tube_radius(sys2, z)
        if math.isfinite(r1) and r1 > 0:
            assert abs(r2 - c * r1) <= 1e-7 * (1 + r1)


def test_tube_profile_records(wermer):
    prof = tube_profile(wermer, [(0j,), (1 + 0j,)])
    assert prof.points[0].radius == math.inf
    assert abs(prof.points[1].m - 5.0) <= 1e-10
    assert abs(prof.points[1].radius - 5 / (4 * math.sqrt(10))) <= 1e-10


# ---------------------------------------------------------------------------
# m brute-force oracle
# ---------------------------------------------------------------------------

def test_m_oracle_small_suite():
    rng = np.random.default_rng(11)
    for _ in range(10):
        sys_ = random_system(rng)
        z = tuple(0.4 * (rng.standard_normal() + 1j * rng.standard_normal())
                  for _ in range(sys_.n))
        m = m_value(sys_, z)
        oracle = m_value_bruteforce(sys_, z, samples=10_000)
        assert oracle >= m - 1e-9
        assert abs(oracle - m) <= 1e-3 * m + 1e-9


# ---------------------------------------------------------------------------
# Levi form of u
# ---------------------------------------------------------------------------

def test_levi_u_graph_on_graph_nonnegative(wermer):
    rng = np.random.default_rng(13)
    for _ in range(50):
        z = complex(rng.uniform(-1, 1), rng.uniform(-1, 1))
        w = complex(np.real(wermer.values_at((z,))[0]), np.imag(wermer.values_at((z,))[0]))
        v = rng.standard_normal() + 1j * rng.standard_normal()
        t = rng.standard_normal() + 1j * rng.standard_normal()
        out = levi_u_graph(wermer, [z], [w], [v], [t])
        dzb = bbar_matrix(wermer, (z,)) @ np.conj([v])
        assert abs(out["expanded"] - out["direct"]) <= 1e-8 * (1 + abs(out["direct"]))
        assert out["direct"] >= float(np.sum(np.abs(dzb) ** 2)) - 1e-8


def test_levi_u_graph_identity_random(wermer):
    rng = np.random.default_rng(14)
    for _ in range(300):
        z = rng.standard_normal() + 1j * rng.standard_normal()
        w = rng.standard_normal() + 1j * rng.standard_normal()
        v = rng.standard_normal() + 1j * rng.standard_normal()
        t = rng.standard_normal() + 1j * rng.standard_normal()
        out = levi_u_graph(wermer, [z], [w], [v], [t])
        assert abs(out["direct"] - out["expanded"]) <= 1e-8 * (1 + abs(out["direct"]))
        assert out["direct"] >= out["lower_bound"] - 1e-9


def test_levi_u_graph_holomorphic():
    sys_ = ProblemSystem.graph(["z1"], 1)
    out = levi_u_graph(sys_, [0.5 + 0.25j], [2 - 1j], [1 + 1j], [0.5 - 0.5j])
    want = abs((1 + 1j) - (0.5 - 0.5j)) ** 2
    assert abs(out["direct"] - want) <= 1e-10
    assert abs(out["lower_bound"]) <= 1e-12


def test_levi_u_graph_dimension_mismatch(wermer):
    with pytest.raises(ValueError):
        levi_u_graph(wermer, [0j], [0j], [1 + 0j, 0j], [0j])


def test_levi_u_submersion_identity_random(example2):
    rng = np.random.default_rng(15)
    for _ in range(300):
        z = rng.standard_normal(2) + 1j * rng.standard_normal(2)
        v = rng.standard_normal(2) + 1j * rng.standard_normal(2)
        out = levi_u_submersion(example2, z, v)
        assert abs(out["direct"] - out["expanded"]) <= 1e-8 * (1 + abs(out["direct"]))
        assert out["direct"] >= out["lower_bound"] - 1e-9


def test_levi_u_submersion_on_manifold(example2):
    rng = np.random.default_rng(16)
    for _ in range(40):
        x1, x2 = rng.uniform(-1, 1, 2)
        z = (complex(x1, 0.05 * (x1 ** 2 + x2 ** 3)),
             complex(x2, 0.05 * (x2 ** 2 + x1 ** 3)))
        v = rng.standard_normal(2) + 1j * rng.standard_normal(2)
        v = v / np.linalg.norm(v)
        out = levi_u_submersion(example2, z, v)
        assert out["direct"] >= 2 * m_value(example2, z) - 1e-8


def test_levi_u_submersion_im_z1_constant():
    sys_ = ProblemSystem.submersion(["Im(z1)"], 1, 1)
    rng = np.random.default_rng(17)
    for _ in range(10):
        z = rng.standard_normal() + 1j * rng.standard_normal()
        v = rng.standard_normal() + 1j * rng.standard_normal()
        out = levi_u_submersion(sys_, [z], [v])
        assert abs(out["direct"] - abs(v) ** 2 / 2) <= 1e-12 * (1 + abs(v) ** 2)


def test_levi_u_positive_inside_tube(wermer):
    """Strict plurisubharmonicity of u inside the tube, with optimal t."""
    rng = np.random.default_rng(18)
    checked = 0
    while checked < 50:
        z = complex(rng.uniform(-0.9, 0.9), rng.uniform(-0.9, 0.9))
        radius = tube_radius(wermer, (z,))
        if not math.isfinite(radius) or radius <= 0:
            continue
        fval = complex(wermer.values_at((z,))[0])
        delta = 0.5 * radius * rng.uniform(0, 1)
        w = fval + delta * np.exp(1j * rng.uniform(0, 2 * np.pi))
        v = np.exp(1j * rng.uniform(0, 2 * np.pi))
        t = complex((wermer.dz_matrix((z,)) @ [v])[0])
        out = levi_u_graph(wermer, [z], [w], [v], [t])
        assert out["direct"] > 0
        checked += 1
