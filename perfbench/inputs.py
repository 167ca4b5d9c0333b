"""Workload inputs: problem manifests made from the seed.

Only the standard library is used here, so the launcher can write the
manifests before any process imports `prc`.  The manifests are the only input
the program receives.  The Wermer and hull-probe instances are fixed because
their verdicts are known at fixed radii; the seed draws the cap radii of the
submersion sweep.
"""

from __future__ import annotations

import random

WORKLOADS = ("wermer_pass", "wermer_edge", "submersion_sweep", "hull_probe")

WERMER_F = "-(1+i)*conj(z1) + i*z1*conj(z1)^2 + z1^2*conj(z1)^3"
SUBMERSION_F = ["Im(z1) - 0.05*(Re(z1)^2 + Re(z2)^3)",
                "Im(z2) - 0.05*(Re(z2)^2 + Re(z1)^3)"]

SWEEP_SIZE = 32
SWEEP_RADII = (1.0, 1.285)   # every cap radius in this range is a known PASS

PROBE_DENSITY = 24           # the CLI default of 64 costs 100-137 s per query
FRAGILITY_FACTOR = 3         # the CLI re-samples at 3x density to check fragility


def wermer_manifest(r: float, node_budget: int) -> dict:
    return {"kind": "graph", "n": 1, "functions": [WERMER_F],
            "compact": {"region": [{"shape": "disc", "center": [0.0, 0.0],
                                    "radius": r}]},
            "options": {"max_depth": 30, "margin": 1e-6, "inflation": 0.05,
                        "node_budget": node_budget}}


def cap_manifest(radius: float) -> dict:
    return {"kind": "submersion", "n": 2, "k": 2, "functions": list(SUBMERSION_F),
            "compact": {"cap": {"center": [[0.0, 0.0], [0.0, 0.0]],
                                "radii": [radius, radius]}},
            "options": {"max_depth": 30, "margin": 1e-6, "inflation": 0.04,
                        "node_budget": 400_000}}


def sweep_radii(seed: int) -> list[float]:
    """SWEEP_SIZE radii in antithetic pairs, one pair in each of SWEEP_SIZE / 2
    equal strata.

    Certify cost grows steeply towards the top of the range, so independent
    uniform draws, or even one draw per stratum, make the work of a run depend
    on the seed by several per cent.  Each stratum gets one draw u from the
    middle half of [0, 1] and caps at u and 1 - u, whose costs nearly add up to
    the same total whatever u is; every seed still gets its own radii.
    """
    rng = random.Random(seed)
    lo, hi = SWEEP_RADII
    step = (hi - lo) / (SWEEP_SIZE // 2)
    radii = []
    for i in range(SWEEP_SIZE // 2):
        u = 0.25 + 0.5 * rng.random()
        radii += [round(lo + (i + u) * step, 6), round(lo + (i + 1 - u) * step, 6)]
    return radii


def plan(workload: str, seed: int) -> list[dict]:
    """The operations of one cycle of the workload, in order.

    `expect` is the known verdict, or None where any verdict is accepted as
    long as a PASS replays and a FAIL carries a witness that re-verifies.
    """
    if workload == "wermer_pass":
        return [{"name": "wermer_r0.3", "manifest": wermer_manifest(0.3, 150_000),
                 "expect": "PASS"}]
    if workload == "wermer_edge":
        return [{"name": "wermer_r0.33", "manifest": wermer_manifest(0.33, 150_000),
                 "expect": "FAIL"},
                {"name": "wermer_r0.305", "manifest": wermer_manifest(0.305, 40_000),
                 "expect": None}]
    if workload == "submersion_sweep":
        return [{"name": f"cap{i:02d}_r{r}", "manifest": cap_manifest(r), "expect": "PASS"}
                for i, r in enumerate(sweep_radii(seed))]
    if workload == "hull_probe":
        return [{"name": "wermer_K1", "manifest": wermer_manifest(1.0, 150_000),
                 "queries": [{"q": [[0.0, 0.0], [0.0, 0.0]], "degree": 6,
                              "separated": False},
                             {"q": [[0.0, 0.0], [2.0, 0.0]], "degree": 2,
                              "separated": True, "min_ratio": 1.5}]}]
    raise ValueError(f"unknown workload {workload!r}")
