"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with `pytest tests/test_acceptance.py -v -s`.  The heavyweight artifacts
(certificates, reproduction reports) are computed once in module fixtures and
shared between criteria.
"""

import json
import math
import time

import numpy as np
import pytest

from conftest import (random_expr, random_system, random_w_region, sample_disc,
                      wermer_L_closed, wermer_m_closed)
from prc.certify import (CompactSpec, certify, reproduce_example,
                         replay_certificate, wermer_compact, wermer_system)
from prc.expr import normalize
from prc.hullprobe import SampleCloud, probe, sample_compact
from prc.intervals import ParamBox
from prc.realpoly import RealPoly
from prc.rigor import (bound_L_above, bound_m_below, bound_residual_above)
from prc.trgeom import (GRAPH, bbar_matrix, big_l_value, levi_u_graph,
                        levi_u_submersion, m_value, m_value_bruteforce,
                        numerical_radius)
from prc.wirtinger import fd_frame, frame


def _report(num: int, ok: bool, desc: str):
    print(f"ACCEPTANCE {num}: {'PASS' if ok else 'FAIL'} - {desc}")
    assert ok, f"criterion {num} failed: {desc}"


@pytest.fixture(scope="module")
def wermer():
    return wermer_system()


@pytest.fixture(scope="module")
def example2():
    from prc.certify import graph_over_r2_system

    return graph_over_r2_system()


@pytest.fixture(scope="module")
def wermer_cert_03(wermer):
    t0 = time.perf_counter()
    cert = certify(wermer, wermer_compact(0.3), max_depth=30, node_budget=400_000)
    return cert, time.perf_counter() - t0


@pytest.fixture(scope="module")
def wermer_cert_10(wermer):
    return certify(wermer, wermer_compact(1.0), max_depth=30, node_budget=400_000)


@pytest.fixture(scope="module")
def example2_cert(example2):
    t0 = time.perf_counter()
    K = CompactSpec.submersion_cap((0j, 0j), (1.0, 1.0))
    cert = certify(example2, K, inflation=0.04, max_depth=30, node_budget=400_000)
    return cert, time.perf_counter() - t0


@pytest.fixture(scope="module")
def wermer_reproductions():
    rep1 = reproduce_example("wermer")
    rep2 = reproduce_example("wermer")
    return rep1, rep2


# ---------------------------------------------------------------------------
# 1. derivative engine vs finite differences
# ---------------------------------------------------------------------------

def test_criterion_1_derivative_engine():
    rng = np.random.default_rng(1001)
    t0 = time.perf_counter()
    checked = 0
    worst = 0.0
    while checked < 200:
        n = int(rng.integers(1, 4))
        e = normalize(random_expr(rng, n))
        if RealPoly.from_expr(e, n).total_degree() > 5:
            continue
        z = 0.5 * (rng.standard_normal(n) + 1j * rng.standard_normal(n))
        sym = frame(e, z)
        fd = fd_frame(e, z, 1e-4)
        scale = 1 + max(np.max(np.abs(sym.grad_z)), np.max(np.abs(sym.grad_zbar)),
                        np.max(np.abs(sym.levi)))
        err = max(np.max(np.abs(sym.grad_z - fd.grad_z)),
                  np.max(np.abs(sym.grad_zbar - fd.grad_zbar)),
                  np.max(np.abs(sym.levi - fd.levi))) / scale
        worst = max(worst, err)
        checked += 1
    elapsed = time.perf_counter() - t0
    _report(1, worst <= 1e-6 and elapsed <= 10.0,
            f"200 random frames vs finite differences: worst rel err "
            f"{worst:.2e} (<= 1e-6), runtime {elapsed:.1f}s (<= 10s)")


# ---------------------------------------------------------------------------
# 2. Example 1 closed forms
# ---------------------------------------------------------------------------

def test_criterion_2_wermer_closed_forms(wermer):
    rng = np.random.default_rng(1002)
    worst = 0.0
    for _ in range(1000):
        r = math.sqrt(rng.uniform(0, 1))
        theta = rng.uniform(0, 2 * math.pi)
        z = r * complex(math.cos(theta), math.sin(theta))
        a = abs(z)
        df = complex(bbar_matrix(wermer, (z,))[0, 0])
        df_want = -(1 + 1j) + 2j * a ** 2 + 3 * a ** 4
        lv = complex(wermer.levi_matrix(0, (z,))[0, 0])
        lv_want = 2 * np.conj(z) * (1j + 3 * a ** 2)
        m = m_value(wermer, (z,))
        m_want = wermer_m_closed(a)
        L = big_l_value(wermer, (z,))
        L_want = wermer_L_closed(a)
        for got, want in ((df, df_want), (lv, lv_want), (m, m_want), (L, L_want)):
            denom = max(abs(want), 1e-300)
            worst = max(worst, abs(got - want) / denom)
    _report(2, worst <= 1e-10,
            f"1000 random z: dbar f, Levi coefficient, m, L vs closed forms, "
            f"worst rel err {worst:.2e} (<= 1e-10)")


# ---------------------------------------------------------------------------
# 3. Levi-of-u identities
# ---------------------------------------------------------------------------

def test_criterion_3_levi_u_identities(wermer, example2):
    rng = np.random.default_rng(1003)
    worst_id = 0.0
    ok_lower = True
    for _ in range(1000):
        z = rng.standard_normal() + 1j * rng.standard_normal()
        w = rng.standard_normal() + 1j * rng.standard_normal()
        v = rng.standard_normal() + 1j * rng.standard_normal()
        t = rng.standard_normal() + 1j * rng.standard_normal()
        out = levi_u_graph(wermer, [z], [w], [v], [t])
        worst_id = max(worst_id, abs(out["direct"] - out["expanded"])
                       / (1 + abs(out["direct"])))
        ok_lower = ok_lower and out["direct"] >= out["lower_bound"] - 1e-9
    for _ in range(1000):
        z = rng.standard_normal(2) + 1j * rng.standard_normal(2)
        v = rng.standard_normal(2) + 1j * rng.standard_normal(2)
        out = levi_u_submersion(example2, z, v)
        worst_id = max(worst_id, abs(out["direct"] - out["expanded"])
                       / (1 + abs(out["direct"])))
        ok_lower = ok_lower and out["direct"] >= out["lower_bound"] - 1e-9
    _report(3, worst_id <= 1e-8 and ok_lower,
            f"2x1000 Levi-of-u cases: |direct - expanded| worst "
            f"{worst_id:.2e} (<= 1e-8), lower bound dominated: {ok_lower}")


# ---------------------------------------------------------------------------
# 4. m oracle equivalence
# ---------------------------------------------------------------------------

def test_criterion_4_m_oracle():
    rng = np.random.default_rng(1004)
    worst = 0.0
    one_sided = True
    for _ in range(50):
        sys_ = random_system(rng)
        z = tuple(0.4 * (rng.standard_normal() + 1j * rng.standard_normal())
                  for _ in range(sys_.n))
        m = m_value(sys_, z)
        oracle = m_value_bruteforce(sys_, z, samples=10_000)
        one_sided = one_sided and oracle >= m - 1e-9
        worst = max(worst, abs(oracle - m) / (m + 1e-12))
    _report(4, worst <= 1e-3 and one_sided,
            f"50 random systems: sigma_min^2 vs 1e4-direction brute force, "
            f"worst rel err {worst:.2e} (<= 1e-3), one-sided: {one_sided}")


# ---------------------------------------------------------------------------
# 5. numerical radius
# ---------------------------------------------------------------------------

def test_criterion_5_numerical_radius():
    shift = numerical_radius(np.array([[0, 1], [0, 0]], dtype=complex))
    ok = abs(shift - 0.5) <= 1e-9
    rng = np.random.default_rng(1005)
    for _ in range(50):
        d = int(rng.integers(1, 5))
        H = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
        H = (H + H.conj().T) / 2
        ev = np.linalg.eigvalsh(H)
        want = max(abs(ev[0]), abs(ev[-1]))
        ok = ok and abs(numerical_radius(H) - want) <= 1e-8 * (1 + want)
    bounds_ok = True
    for _ in range(100):
        d = int(rng.integers(1, 5))
        M = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
        w = numerical_radius(M)
        nrm = np.linalg.norm(M, 2)
        bounds_ok = bounds_ok and (nrm / 2 - 1e-8 * (1 + nrm) <= w <= nrm * (1 + 1e-8))
    _report(5, ok and bounds_ok,
            f"w([[0,1],[0,0]]) = {shift:.12f} (0.5 +- 1e-9); Hermitian = max|eig|; "
            f"norm/2 <= w <= norm on 100 random matrices: {bounds_ok}")


# ---------------------------------------------------------------------------
# 6. Wermer certification family
# ---------------------------------------------------------------------------

def test_criterion_6_wermer_certification(wermer_cert_03, wermer_cert_10,
                                          wermer_reproductions):
    cert03, elapsed = wermer_cert_03
    cert10 = wermer_cert_10
    rep1, rep2 = wermer_reproductions
    ok = cert03.verdict == "PASS" and elapsed <= 60.0
    ok = ok and cert10.verdict == "FAIL" and cert10.witness is not None
    inf_m = rep1["recomputed"]["inf_m"]
    sup_L = rep1["recomputed"]["sup_L"]
    ok = ok and abs(inf_m - 5.0 / 9.0) <= 1e-6
    ok = ok and abs(sup_L - 2 * math.sqrt(2) / math.sqrt(3)) <= 1e-6
    ok = ok and not rep1["discrepancy"]["inf_m_matches_stated"]
    ok = ok and not rep1["discrepancy"]["sup_L_matches_stated"]
    max_r1 = rep1["max_certifiable_r"]
    max_r2 = rep2["max_certifiable_r"]
    ok = ok and max_r1 == max_r2 and max_r1 >= 0.3
    # the search ends between a PASS and a witnessed FAIL, not on a budget
    bracket = rep1["search_bracket"]
    ok = ok and bracket["pass_r"] == max_r1 and bracket["upper_verdict"] == "FAIL"
    ok = ok and bracket["upper_r"] - max_r1 <= rep1["params"]["resolution"]
    print(f"  [6] r=0.3 verdict {cert03.verdict} in {elapsed:.1f}s; "
          f"r=1.0 {cert10.verdict} witness at z={cert10.witness['z']}")
    print(f"  [6] recomputed inf m = {inf_m:.9f} (stated: "
          f"{rep1['stated']['inf_m']}), sup L = {sup_L:.9f} (stated: "
          f"{rep1['stated']['sup_L']:.9f}) -> discrepancy flagged")
    print(f"  [6] max certifiable r = {max_r1} (stable across reruns, >= 0.3); "
          f"{bracket['upper_verdict']} at r = {bracket['upper_r']}")
    _report(6, ok,
            f"r=0.3 PASS in {elapsed:.1f}s (<= 60s), r=1.0 FAIL with witness, "
            f"discrepancy flagged, max r = {max_r1} >= 0.3 and rerun-stable")


# ---------------------------------------------------------------------------
# 7. Example 2 certification
# ---------------------------------------------------------------------------

def test_criterion_7_example2_certification(example2, example2_cert):
    cert, elapsed = example2_cert
    unit_box = ParamBox(2, [-1, -1, -1, -1], [1, 1, 1, 1])
    L_up = bound_L_above(example2, unit_box)
    m_lo = bound_m_below(example2, unit_box)
    ok = (cert.verdict == "PASS" and L_up <= 0.2 and m_lo >= 0.2
          and elapsed <= 120.0)
    _report(7, ok,
            f"c=d=1/20 cap 1 eps 0.04: verdict {cert.verdict} in {elapsed:.1f}s "
            f"(<= 120s); unit box L_upper {L_up:.4f} <= 0.2, "
            f"m_lower {m_lo:.4f} >= 0.2")


# ---------------------------------------------------------------------------
# 8. hull probe
# ---------------------------------------------------------------------------

def test_criterion_8_hull_probe(wermer):
    cloud = sample_compact(wermer, wermer_compact(1.0), density=40)
    ok = len(cloud.points) >= 1000
    origin = probe(cloud, [0j, 0j], degree=6)
    ok = ok and not origin.separated
    far = probe(cloud, [0j, 2 + 0j], degree=2)
    ok = ok and far.separated and far.ratio >= 1.5
    theta = 2 * np.pi * np.arange(360) / 360
    circle = SampleCloud(points=np.exp(1j * theta)[:, None])
    control_ok = True
    for d in range(1, 9):
        control_ok = control_ok and not probe(circle, [0j], degree=d).separated
    _report(8, ok and control_ok,
            f"Wermer cloud ({len(cloud.points)} pts): q=(0,0) not separated at "
            f"degree 6; q=(0,2) separated at degree 2 with ratio "
            f"{far.ratio:.2f} >= 1.5; circle/q=0 control clean through degree 8: "
            f"{control_ok}")


# ---------------------------------------------------------------------------
# 9. rigor soundness
# ---------------------------------------------------------------------------

def _batched_samples_obey_bounds(sys_, box, region, rng, count=10_000):
    """Samples z of the z-box, and for a graph w of the region's w discs."""
    n = sys_.n
    zxs = box.sample_uniform(rng, count)
    m_lo = bound_m_below(sys_, box)
    L_up = bound_L_above(sys_, box)
    r_up = bound_residual_above(sys_, box, region)

    B = np.stack([np.stack([t.dzbar[j].eval_batch(zxs) for j in range(n)], axis=1)
                  for t in sys_.tables], axis=1)  # (count, rows, n)
    smin = np.linalg.svd(B, compute_uv=False)[:, -1]
    if np.any(smin ** 2 < m_lo - 1e-9 * (1 + smin ** 2)):
        return False

    vals = np.stack([t.value.eval_batch(zxs) for t in sys_.tables], axis=1)
    if sys_.kind == GRAPH:
        w = np.stack([sample_disc(rng, d, count) for d in region.discs[n:]], axis=1)
        resid = np.abs(vals - w).sum(axis=1)
    else:
        resid = np.abs(vals).sum(axis=1)
    if np.any(resid > r_up + 1e-9 * (1 + resid)):
        return False

    # L sampled from below by random directions: |v* M v| <= L(z) <= L_upper
    vs = rng.standard_normal((8, n)) + 1j * rng.standard_normal((8, n))
    vs /= np.linalg.norm(vs, axis=1)[:, None]
    for t in sys_.tables:
        M = np.stack([np.stack([t.levi[j][k].eval_batch(zxs) for k in range(n)],
                                axis=1) for j in range(n)], axis=1)  # (count,n,n)
        for v in vs:
            quad = np.abs(np.einsum("j,sjk,k->s", v, M, np.conj(v)))
            if np.any(quad > L_up + 1e-9 * (1 + quad)):
                return False
    return True


def test_criterion_9_rigor_soundness(wermer_cert_03, example2_cert):
    rng = np.random.default_rng(1009)
    sound = True
    for _ in range(100):
        sys_ = random_system(rng)
        lo = list(rng.uniform(-1, 0.5, size=2 * sys_.n))
        hi = [a + rng.uniform(0.05, 0.8) for a in lo]
        box = ParamBox(sys_.n, lo, hi)
        region = random_w_region(rng, sys_.n) if sys_.kind == GRAPH else None
        sound = sound and _batched_samples_obey_bounds(sys_, box, region, rng)
    replay03 = replay_certificate(wermer_cert_03[0])
    replay2 = replay_certificate(example2_cert[0])
    _report(9, sound and replay03 and replay2,
            f"100 random (system, z-box, w discs) x 1e4 Monte Carlo samples never "
            f"violate m_lower/L_upper/residual_upper: {sound}; PASS "
            f"certificates replay to PROVED: {replay03 and replay2}")


# ---------------------------------------------------------------------------
# 10. determinism
# ---------------------------------------------------------------------------

def test_criterion_10_determinism(wermer_reproductions):
    rep1, rep2 = wermer_reproductions
    s1 = json.dumps(rep1, indent=2, sort_keys=True)
    s2 = json.dumps(rep2, indent=2, sort_keys=True)
    _report(10, s1 == s2,
            f"two `reproduce wermer` runs serialize to byte-identical JSON "
            f"({len(s1)} bytes)")
