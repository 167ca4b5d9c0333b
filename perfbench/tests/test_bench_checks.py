"""Self-tests of the benchmark's output checks: each bad output must count as
a failed operation, and the matching good output must not."""

import json
import sys
from pathlib import Path
from types import SimpleNamespace

BENCH = Path(__file__).resolve().parents[1]
sys.path[:0] = [str(BENCH), str(BENCH.parent / "src")]

import checks  # noqa: E402
import run  # noqa: E402
from inputs import SWEEP_RADII, SWEEP_SIZE, cap_manifest, sweep_radii, wermer_manifest  # noqa: E402
from prc.certify import (Certificate, OmegaSpec, certificate_from_dict,  # noqa: E402
                         certificate_to_dict, certify, load_manifest,
                         replay_certificate)
from prc.trgeom import tube_radius  # noqa: E402


def failed(problems: list[str]) -> int:
    ledger = checks.Ledger()
    ledger.record("op", problems)
    assert ledger.attempted == 1
    return ledger.failed


def fail_certificate(w: complex, z: complex) -> Certificate:
    omega = OmegaSpec(z_center=(0j,), z_radii=(0.4,), w_center=(0j,), w_radii=(3.0,))
    return Certificate(verdict="FAIL", problem_hash="", problem={}, omega=omega,
                       checks={}, options={}, tolerances={},
                       witness={"check": "omega_in_tube", "z": [[z.real, z.imag]],
                                "w": [[w.real, w.imag]]})


def test_fail_witness_moved_inside_the_tube_fails():
    sys_, K, _, _ = load_manifest(wermer_manifest(0.33, 150_000))
    z = 0.3 + 0.1j
    f = complex(sys_.values_at([z])[0])
    radius = tube_radius(sys_, [z])
    outside_tube = fail_certificate(f + 1.5 * radius, z)
    inside_tube = fail_certificate(f + 0.5 * radius, z)
    assert failed(checks.certificate(outside_tube, sys_, K, "FAIL")) == 0
    assert failed(checks.certificate(inside_tube, sys_, K, "FAIL")) == 1
    outside_omega = fail_certificate(f + 1.5 * radius, 0.45 + 0j)
    assert failed(checks.certificate(outside_omega, sys_, K, "FAIL")) == 1


def pass_certificate_dict():
    sys_, K, omega, _ = load_manifest(cap_manifest(1.1))
    cert = certify(sys_, K, omega, max_depth=30, inflation=0.04, node_budget=400_000)
    assert cert.verdict == "PASS"
    return sys_, K, json.loads(json.dumps(certificate_to_dict(cert)))


def test_certificate_that_replays_false_fails():
    sys_, K, data = pass_certificate_dict()
    good = certificate_from_dict(data)
    assert failed(checks.certificate(good, sys_, K, "PASS", replay_certificate(good))) == 0

    data["checks"]["omega_in_tube"]["leaves"][0]["box"] = [[-5.0, 5.0]] * 4
    tampered = certificate_from_dict(data)
    replayed = replay_certificate(tampered)
    assert replayed is False
    assert failed(checks.certificate(tampered, sys_, K, "PASS", replayed)) == 1


def test_certificate_for_another_problem_fails():
    sys_, K, data = pass_certificate_dict()
    cert = certificate_from_dict(data)
    other_sys, other_K, _, _ = load_manifest(cap_manifest(1.2))
    assert failed(checks.certificate(cert, other_sys, other_K, "PASS", True)) == 1


def test_wrong_verdict_fails():
    sys_, K, data = pass_certificate_dict()
    data["verdict"] = "INCONCLUSIVE"
    cert = certificate_from_dict(data)
    assert failed(checks.certificate(cert, sys_, K, "PASS")) == 1
    assert failed(checks.certificate(cert, sys_, K, None)) == 0


def test_wrong_exit_code_fails():
    assert failed(checks.exit_code("PASS", 0)) == 0
    assert failed(checks.exit_code("FAIL", 3)) == 0
    assert failed(checks.exit_code("INCONCLUSIVE", 4)) == 0
    assert failed(checks.exit_code("PASS", 3)) == 1
    assert failed(checks.exit_code("INCONCLUSIVE", 0)) == 1


def test_hull_probe_reporting_the_origin_separated_fails():
    origin = SimpleNamespace(separated=True, ratio=2.0, fragile=None)
    assert failed(checks.separation(origin, want_separated=False)) == 1
    origin.separated = False
    assert failed(checks.separation(origin, want_separated=False)) == 0

    far = SimpleNamespace(separated=True, ratio=1.2, fragile=False)
    assert failed(checks.separation(far, True, min_ratio=1.5)) == 1
    far.ratio = 9.7
    assert failed(checks.separation(far, True, min_ratio=1.5)) == 0
    assert failed(checks.not_fragile(far)) == 0
    far.fragile = True
    assert failed(checks.not_fragile(far)) == 1


def test_sweep_radii_antithetic_pairs_and_reproducible():
    radii = sweep_radii(7)
    assert radii == sweep_radii(7) != sweep_radii(8)
    lo, hi = SWEEP_RADII
    step = (hi - lo) / (SWEEP_SIZE // 2)
    assert len(radii) == SWEEP_SIZE == len(set(radii))
    for i in range(SWEEP_SIZE // 2):
        a, b = radii[2 * i], radii[2 * i + 1]
        assert lo + (i + 0.25) * step - 1e-6 <= min(a, b)
        assert max(a, b) <= lo + (i + 0.75) * step + 1e-6 <= hi
        # u and 1 - u: the pair is symmetric about the stratum's midpoint
        assert abs(a + b - 2 * lo - (2 * i + 1) * step) < 2e-6


def test_metric_tables_match_benchmark_json():
    spec = json.loads((BENCH.parent / "BENCHMARK.json").read_text())
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.PER_LAYER
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOADS)
