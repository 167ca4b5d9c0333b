import cmath
import copy
import json
import logging
import math
import re
import sys
import warnings
from dataclasses import replace
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

from conftest import cap_manifest
from prc.certify import (CompactSpec, DiscRegion, BoxRegion, ManifestError,
                         OmegaSpec, certificate_from_dict, certificate_to_dict,
                         certify, dumps_json, load_manifest, manifest_hash,
                         problem_manifest, replay_certificate,
                         reproduce_example, sanitize_json, suggest_omega,
                         wermer_compact, wermer_system, WERMER_F)
from prc.hullprobe import sample_compact
from prc.rigor import Region, verify_box
from prc.trgeom import tube_radius


# ---------------------------------------------------------------------------
# suggest_omega
# ---------------------------------------------------------------------------

def test_suggest_omega_wermer(wermer):
    om = suggest_omega(wermer, wermer_compact(0.3), 0.05)
    assert abs(om.z_radii[0] - 0.35) < 1e-12
    assert om.z_center[0] == 0j
    # w radius dominates max |f| over the disc, plus the inflation
    rs = np.linspace(0, 0.3, 200)
    fmax = max(abs(r * math.sqrt((1 - r ** 4) ** 2 + (1 - r ** 2) ** 2)) for r in rs)
    assert om.w_radii[0] >= fmax + 0.05
    assert om.w_radii[0] <= fmax + 0.15  # enclosure stays reasonably tight


def test_suggest_omega_example2(example2):
    K = CompactSpec.submersion_cap((0j, 0j), (1.0, 1.0))
    om = suggest_omega(example2, K, 0.04)
    assert om.z_radii == (1.04, 1.04)
    assert om.w_center is None


def test_suggest_omega_degenerate_point(wermer):
    K = CompactSpec.graph_over([BoxRegion(0.1, 0.1, 0.2, 0.2)])
    om = suggest_omega(wermer, K, 0.07)
    assert abs(om.z_radii[0] - 0.07) < 1e-12
    assert om.z_center[0] == 0.1 + 0.2j


def test_suggest_omega_rejects_nonpositive_inflation(wermer):
    with pytest.raises(ValueError):
        suggest_omega(wermer, wermer_compact(0.3), 0.0)


# ---------------------------------------------------------------------------
# certify
# ---------------------------------------------------------------------------

@pytest.fixture(scope="module")
def wermer_pass_cert():
    return certify(wermer_system(), wermer_compact(0.3), max_depth=30,
                   node_budget=400_000)


def _tube_leaves(sys_, cert):
    """The rigor.Leaves of the certificate's tube tree, grown again from its
    omega and options as certify and replay grow it; their statuses and
    depths are the ones the certificate records."""
    opts = cert.options
    leaves = verify_box(sys_, cert.omega.z_box(sys_.n), max_depth=opts["max_depth"],
                        margin=opts["margin"], region=cert.omega.region(),
                        node_budget=opts["node_budget"]).leaves
    recorded = cert.checks["omega_in_tube"]["leaves"]
    assert leaves.statuses() == [leaf["status"] for leaf in recorded]
    assert leaves.depth.tolist() == [leaf["depth"] for leaf in recorded]
    return leaves


def _derived_boxes(data):
    """Each tube leaf's box as replay derives it for the certificate `data`:
    2n [lo, hi] pairs, the layout of a /2-/4 leaf's "box"."""
    cert = certificate_from_dict(data)
    sys_, _, _, _ = load_manifest(dict(cert.problem, options=None))
    leaves = _tube_leaves(sys_, cert)
    return np.stack([leaves.lo, leaves.hi], axis=-1).tolist()


def test_certify_wermer_03_passes(wermer_pass_cert):
    cert = wermer_pass_cert
    assert cert.verdict == "PASS"
    assert set(cert.checks) == {"k_in_omega", "omega_in_tube"}
    assert cert.checks["k_in_omega"]["status"] == "PROVED"
    assert cert.checks["omega_in_tube"]["status"] == "PROVED"
    assert cert.witness is None


def test_certify_wermer_unit_disc_fails(wermer):
    cert = certify(wermer, wermer_compact(1.0), max_depth=30)
    assert cert.verdict == "FAIL"
    assert cert.witness is not None
    wit = cert.witness
    assert wit["residual"] >= wit["radius"]
    # the witness lies inside omega
    z = complex(*wit["z"][0])
    w = complex(*wit["w"][0])
    assert abs(z - cert.omega.z_center[0]) <= cert.omega.z_radii[0] * (1 + 1e-9)
    assert abs(w - cert.omega.w_center[0]) <= cert.omega.w_radii[0] * (1 + 1e-9)


def test_certify_kind_mismatch(wermer):
    K = CompactSpec.submersion_cap((0j,), (1.0,))
    with pytest.raises(ManifestError):
        certify(wermer, K)


def test_k_needs_one_region_per_coordinate(wermer, example2):
    """A one-disc cap of the n = 2 cap problem was certified PASS (and
    replayed False); a second disc for Wermer's n = 1 made suggest_omega's
    image grid 64^4 cells."""
    cap = CompactSpec.submersion_cap((0j,), (1.0,))
    with pytest.raises(ManifestError, match=re.escape("coordinate (2), got 1")):
        certify(example2, cap, OmegaSpec((0j, 0j), (1.04, 1.04)))
    two = CompactSpec.graph_over([DiscRegion(0j, 0.3), DiscRegion(0j, 5.0)])
    for call in (lambda: certify(wermer, two), lambda: suggest_omega(wermer, two, 0.05),
                 lambda: sample_compact(wermer, two, 8)):
        with pytest.raises(ManifestError, match=re.escape("coordinate (1), got 2")):
            call()


def test_certify_monotone_in_K(wermer, wermer_pass_cert):
    """A PASS for D extends to any sub-region with the same omega."""
    om = wermer_pass_cert.omega
    for r in (0.2, 0.1):
        cert = certify(wermer, wermer_compact(r), omega=om, max_depth=30,
                       node_budget=400_000)
        assert cert.verdict == "PASS"


def test_certify_example2_passes(example2):
    K = CompactSpec.submersion_cap((0j, 0j), (1.0, 1.0))
    cert = certify(example2, K, inflation=0.04, max_depth=30)
    assert cert.verdict == "PASS"
    rep = cert.checks["omega_in_tube"]["report"]
    assert rep["L_upper"] <= 0.2
    assert rep["m_lower"] >= 0.2


def test_certificate_json_roundtrip(wermer_pass_cert):
    d1 = certificate_to_dict(wermer_pass_cert)
    s1 = json.dumps(d1, sort_keys=True)
    cert2 = certificate_from_dict(json.loads(s1))
    s2 = json.dumps(certificate_to_dict(cert2), sort_keys=True)
    assert s1 == s2


def test_non_finite_leaf_bounds_written_as_strings_and_read_back(wermer_pass_cert):
    """A /5 leaf keeps no bounds; the tube report aggregates them over the
    leaves, and its m_lower is inf when every leaf is OUTSIDE."""
    checks = copy.deepcopy(wermer_pass_cert.checks)
    bounds = [math.inf, -math.inf, math.nan]
    report = checks["omega_in_tube"]["report"]
    report["m_lower"], report["L_upper"], report["residual_upper"] = bounds
    text = dumps_json(certificate_to_dict(replace(wermer_pass_cert, checks=checks)))
    written = json.loads(text)["checks"]["omega_in_tube"]
    assert [written["report"][k] for k in ("m_lower", "L_upper", "residual_upper")] == \
        ["inf", "-inf", "nan"]
    back = certificate_from_dict(json.loads(text)).checks["omega_in_tube"]
    assert back["report"]["m_lower"] == math.inf and back["report"]["L_upper"] == -math.inf
    assert math.isnan(back["report"]["residual_upper"])
    assert back["leaves"] == checks["omega_in_tube"]["leaves"]


def test_sanitize_json_walks_tuples_and_numpy_floats():
    got = sanitize_json({"a": (1.5, np.float64(np.inf), [np.float64(-np.inf), (np.nan,)]),
                         "b": np.float64(0.25), "c": ("s", 3, None, True)})
    assert got == {"a": [1.5, "inf", ["-inf", ["nan"]]], "b": 0.25,
                   "c": ["s", 3, None, True]}


def test_certificate_replays(wermer_pass_cert):
    cert2 = certificate_from_dict(
        json.loads(json.dumps(certificate_to_dict(wermer_pass_cert))))
    assert replay_certificate(cert2)


def test_replay_rejects_non_pass(wermer):
    cert = certify(wermer, wermer_compact(1.0), max_depth=10)
    with pytest.raises(ValueError):
        replay_certificate(cert)


def test_wermer_03_tube_leaf_count(wermer, wermer_pass_cert):
    """The z-only tube tree stays small: w is not bisected."""
    leaves = wermer_pass_cert.checks["omega_in_tube"]["leaves"]
    assert len(leaves) <= 1000
    assert all(set(leaf) == {"status", "depth"} for leaf in leaves)
    assert _tube_leaves(wermer, wermer_pass_cert).lo.shape == (len(leaves), 2)  # z only


def test_proved_z_leaves_hold_on_samples(wermer, wermer_pass_cert):
    """Monte Carlo: every 10th proved z-leaf, z sampled in the leaf and w in
    the open w disc of omega, satisfies the strict tube inclusion."""
    rng = np.random.default_rng(41)
    om = wermer_pass_cert.omega
    wc, wr = om.w_center[0], om.w_radii[0]
    leaves = _tube_leaves(wermer, wermer_pass_cert)
    proved = np.flatnonzero(~leaves.outside)
    for i in proved[::10]:
        (xlo, ylo), (xhi, yhi) = leaves.lo[i], leaves.hi[i]
        for _ in range(200):
            z = complex(rng.uniform(xlo, xhi), rng.uniform(ylo, yhi))
            w = wc + cmath.rect(wr * math.sqrt(rng.random()) * (1 - 1e-12),
                                rng.uniform(0, 2 * math.pi))
            resid = abs(complex(wermer.values_at((z,))[0]) - w)
            assert resid < tube_radius(wermer, (z,))


def test_wermer_033_fails_with_analytic_witness(wermer):
    cert = certify(wermer, wermer_compact(0.33), max_depth=30, node_budget=150_000)
    assert cert.verdict == "FAIL"
    wit = cert.witness
    assert wit["check"] == "omega_in_tube"
    z = complex(*wit["z"][0])
    w = complex(*wit["w"][0])
    om = cert.omega
    assert abs(z - om.z_center[0]) < om.z_radii[0]
    assert abs(w - om.w_center[0]) < om.w_radii[0]
    # re-verify independently of certify
    resid = abs(complex(wermer.values_at((z,))[0]) - w)
    assert resid >= tube_radius(wermer, (z,))


def _wermer_sup_abs_f(r):
    """sup |F| over |z| <= r: F(t e^{is}) = e^{-is} (t^5 - t + i (t^3 - t)),
    whose modulus increases in t on [0, 0.3]."""
    return abs(complex(r ** 5 - r, r ** 3 - r))


def test_certify_graph_k_outside_omega_w_fails_with_witness(wermer):
    K = wermer_compact(0.3)
    om = suggest_omega(wermer, K, 0.05)
    omega = OmegaSpec(om.z_center, om.z_radii, om.w_center, (0.3,))
    assert _wermer_sup_abs_f(0.3) > 0.3 + abs(om.w_center[0])
    cert = certify(wermer, K, omega, max_depth=30)
    assert cert.verdict == "FAIL"
    wit = cert.witness
    assert wit["check"] == "k_in_omega"
    z = complex(*wit["z"][0])
    assert abs(z) <= 0.3
    f = complex(wermer.values_at((z,))[0])
    assert abs(f - omega.w_center[0]) >= 0.3 * (1 - 1e-12)


def test_k_in_omega_obeys_node_budget(wermer, caplog):
    """F(D) fits in omega_w with a relative margin of 1e-5 only, which takes
    well over a million cells to prove; the node budget stops the K tree."""
    K = wermer_compact(0.3)
    om = suggest_omega(wermer, K, 0.05)
    omega = OmegaSpec(om.z_center, om.z_radii, (0j,),
                      (1.00001 * _wermer_sup_abs_f(0.3),))
    with caplog.at_level(logging.WARNING, logger="prc.rigor"):
        cert = certify(wermer, K, omega, max_depth=30, node_budget=2000)
    k_check = cert.checks["k_in_omega"]
    assert k_check["status"] == "INCONCLUSIVE"
    assert k_check["cells_checked"] <= 2000
    assert cert.verdict == "INCONCLUSIVE"
    messages = [r.getMessage() for r in caplog.records]
    assert messages.count("node budget 2000 exhausted in the K in omega tree") == 1


def test_certify_logs_each_tree_at_info(wermer, caplog):
    """At INFO each subdivision tree reports its status, size, probe count,
    depth and wall time once, and the tube tree its split scale; the sizes
    and the scale agree with the certificate."""
    with caplog.at_level(logging.INFO, logger="prc.rigor"):
        cert = certify(wermer, wermer_compact(0.3))
    trees, scales = {}, {}
    for record in caplog.records:
        m = re.fullmatch(r"(.+) tree: (\w+), (\d+) nodes, (\d+) leaves, (\d+) probes, "
                         r"depth (\d+), \d+\.\d{3} s(?:, split scale \((.+)\))?",
                         record.getMessage())
        assert m, record.getMessage()
        assert m[1] not in trees
        trees[m[1]] = (m[2], int(m[3]), int(m[4]), int(m[5]), int(m[6]))
        scales[m[1]] = m[7]
    assert set(trees) == {"tube", "K in omega"}
    assert scales["K in omega"] is None
    assert scales["tube"] == ", ".join(
        f"{s:.6g}" for s in cert.checks["omega_in_tube"]["split_scale"])
    for status, nodes, leaves, probes, _ in trees.values():
        assert status == "PROVED"
        assert nodes == 2 * leaves - 1  # bisection: every inner node has two children
        assert probes == nodes - leaves  # a PROVED tree probed exactly its inner nodes
    assert trees["tube"][1:] == (659, 330, 329, 12)
    checks = cert.checks
    report = checks["omega_in_tube"]["report"]
    _, _, leaves, _, depth = trees["tube"]
    assert (leaves, depth) == (report["leaf_count"], report["depth"])
    assert trees["K in omega"][1] >= checks["k_in_omega"]["cells_checked"]


@pytest.mark.parametrize("bad", [{"margin": float("nan")}, {"margin": 1.0},
                                 {"max_depth": -1}, {"node_budget": 0},
                                 {"inflation": 0.0}])
def test_certify_validates_options(wermer, bad):
    with pytest.raises(ManifestError):
        certify(wermer, wermer_compact(0.3), **bad)


def _pass_dict(cert):
    return json.loads(json.dumps(certificate_to_dict(cert)))


def test_replay_rejects_deleted_tube_leaves(wermer_pass_cert):
    data = _pass_dict(wermer_pass_cert)
    data["checks"]["omega_in_tube"]["leaves"] = \
        data["checks"]["omega_in_tube"]["leaves"][:1]
    assert replay_certificate(certificate_from_dict(data)) is False


def test_replay_rejects_duplicated_tube_leaf(wermer_pass_cert):
    data = _pass_dict(wermer_pass_cert)
    leaves = data["checks"]["omega_in_tube"]["leaves"]
    leaves.append(leaves[-1])
    assert replay_certificate(certificate_from_dict(data)) is False


def _swap_leaves(data):
    leaves = data["checks"]["omega_in_tube"]["leaves"]
    leaves[0], leaves[2] = leaves[2], leaves[0]  # depths 9 and 10


def _raise_leaf(data):
    data["checks"]["omega_in_tube"]["leaves"][0]["depth"] -= 1


def _text_depth(data):
    leaf = data["checks"]["omega_in_tube"]["leaves"][0]
    leaf["depth"] = str(leaf["depth"])


def _move_leaf_box(data):
    # a /5 leaf records no box; one it is given must be the derived one
    box = _derived_boxes(data)[5]
    box[0][0] += 1e-9
    data["checks"]["omega_in_tube"]["leaves"][5]["box"] = box


def _widen_w_disc(data):
    # K stays inside omega and the tree keeps its shape, but the recomputed
    # tube bounds no longer hold
    data["omega"]["w"]["radii"] = [10 * r for r in data["omega"]["w"]["radii"]]


def _tube_as_list(data):
    data["checks"]["omega_in_tube"] = data["checks"]["omega_in_tube"]["leaves"]


@pytest.mark.parametrize("tamper", [_swap_leaves, _raise_leaf, _text_depth,
                                    _move_leaf_box, _widen_w_disc, _tube_as_list])
def test_replay_rejects_tampered_tube_tree(wermer_pass_cert, tamper):
    data = _pass_dict(wermer_pass_cert)
    assert [leaf["depth"] for leaf in data["checks"]["omega_in_tube"]["leaves"][:3]] == [9, 9, 10]
    tamper(data)
    assert replay_certificate(certificate_from_dict(data)) is False


def test_replay_rejects_k_outside_omega(wermer_pass_cert):
    data = _pass_dict(wermer_pass_cert)
    data["omega"]["w"]["radii"] = [0.001]
    assert replay_certificate(certificate_from_dict(data)) is False


def test_replay_rejects_edited_function(wermer_pass_cert):
    data = _pass_dict(wermer_pass_cert)
    data["problem"]["functions"] = [WERMER_F.replace("z1^2", "2*z1^2")]
    assert replay_certificate(certificate_from_dict(data)) is False


def test_replay_rejects_negative_margin(wermer_pass_cert):
    data = _pass_dict(wermer_pass_cert)
    data["options"]["margin"] = -1.0
    assert replay_certificate(certificate_from_dict(data)) is False


def test_replay_rejects_float_depth(wermer_pass_cert):
    """9.0 == 9, but a recorded depth must be an integer."""
    data = _pass_dict(wermer_pass_cert)
    leaf = data["checks"]["omega_in_tube"]["leaves"][0]
    assert leaf["depth"] == 9
    leaf["depth"] = 9.0
    assert replay_certificate(certificate_from_dict(data)) is False


def _replayed_trees(caplog, data):
    """Replay `data`; its result and, from the INFO lines of the trees replay
    re-derived, each one's (status, nodes, leaves) by name."""
    with caplog.at_level(logging.INFO, logger="prc.rigor"):
        ok = replay_certificate(certificate_from_dict(data))
    trees = {}
    for record in caplog.records:
        m = re.match(r"replayed (.+) tree: (\w+), (\d+) nodes, (\d+) leaves",
                     record.getMessage())
        if m:
            trees[m[1]] = (m[2], int(m[3]), int(m[4]))
    return ok, trees


def test_replay_rederives_the_recorded_trees(wermer_pass_cert, caplog):
    data = _pass_dict(wermer_pass_cert)
    ok, trees = _replayed_trees(caplog, data)
    assert ok
    assert trees == {"tube": ("PROVED", 659, 330)}


def test_replay_grows_no_more_nodes_than_recorded(wermer_pass_cert, caplog):
    """A tube tree cut to one leaf, under a node budget of 10^9: its depths
    are no tree's, so replay grows no node at all."""
    data = _pass_dict(wermer_pass_cert)
    data["options"]["node_budget"] = 10 ** 9
    tube = data["checks"]["omega_in_tube"]
    tube["leaves"] = tube["leaves"][:1]
    ok, trees = _replayed_trees(caplog, data)
    assert ok is False
    assert trees == {}


def _drop_first(data):
    del data["checks"]["omega_in_tube"]["leaves"][0]


def _drop_middle(data):
    leaves = data["checks"]["omega_in_tube"]["leaves"]
    del leaves[len(leaves) // 2]


def _duplicate_last(data):
    leaves = data["checks"]["omega_in_tube"]["leaves"]
    leaves.append(dict(leaves[-1]))


def _duplicate_first(data):
    leaves = data["checks"]["omega_in_tube"]["leaves"]
    leaves.insert(0, dict(leaves[0]))


def _lower_leaf(data):
    data["checks"]["omega_in_tube"]["leaves"][0]["depth"] += 1


def _float_depth(data):
    data["checks"]["omega_in_tube"]["leaves"][0]["depth"] = 9.0


def _deepest_leaf_below_max_depth(data):
    # the tree is 12 deep
    data["options"]["max_depth"] = 11


@pytest.mark.parametrize("tamper", [
    _drop_first, _drop_middle, _duplicate_last, _duplicate_first, _swap_leaves, _raise_leaf,
    _lower_leaf, _float_depth, _text_depth, _deepest_leaf_below_max_depth])
def test_replay_grows_no_node_from_depths_that_are_no_tree(wermer_pass_cert, caplog, tamper):
    """The depths are decoded into the tree's shape before any node grows: a
    list that is no full binary tree's, or a depth that is no integer in
    [0, max_depth], replays False with no replayed tree."""
    data = _pass_dict(wermer_pass_cert)
    depths = [leaf["depth"] for leaf in data["checks"]["omega_in_tube"]["leaves"]]
    assert depths[:3] == [9, 9, 10] and max(depths) == 12
    tamper(data)
    ok, trees = _replayed_trees(caplog, data)
    assert ok is False
    assert trees == {}


def _sibling_pairs(leaves):
    """The indices i whose leaves i and i + 1 are the two halves of one box:
    equal depths, the first at the start of its parent."""
    pairs, start = [], Fraction(0)  # each leaf's place in [0, 1), depth first
    for i, leaf in enumerate(leaves):
        width = Fraction(1, 2 ** leaf["depth"])
        if (i + 1 < len(leaves) and leaves[i + 1]["depth"] == leaf["depth"] > 0
                and start % (2 * width) == 0):
            pairs.append(i)
        start += width
    return pairs


def test_replay_rejects_two_proved_halves_merged_into_their_parent(wermer_pass_cert, caplog):
    """The merged list is a tree's, and replay grows it, but the parent box
    is one certify split because it did not prove: rigor.check_leaves fails
    on it."""
    data = _pass_dict(wermer_pass_cert)
    leaves = data["checks"]["omega_in_tube"]["leaves"]
    pairs = _sibling_pairs(leaves)
    assert pairs[0] == 0 and len(pairs) > 10
    for i in (pairs[0], pairs[len(pairs) // 2]):
        merged = copy.deepcopy(data)
        tube = merged["checks"]["omega_in_tube"]
        assert tube["leaves"][i]["status"] == tube["leaves"][i + 1]["status"] == "PROVED"
        tube["leaves"][i:i + 2] = [{"status": "PROVED", "depth": leaves[i]["depth"] - 1}]
        caplog.clear()
        ok, trees = _replayed_trees(caplog, merged)
        assert ok is False
        assert trees == {"tube": ("PROVED", 657, 329)}


@pytest.mark.parametrize("status", ["OUTSIDE", "INCONCLUSIVE", "FAILED", "proved", None])
def test_replay_rejects_a_proved_leaf_relabelled(wermer_pass_cert, status):
    """A PROVED leaf marked OUTSIDE leaves its level one row short of the
    rows the clip keeps; a PASS has no leaf of any other status."""
    data = _pass_dict(wermer_pass_cert)
    data["checks"]["omega_in_tube"]["leaves"][7]["status"] = status
    assert _replays(data) is False


def test_replay_checks_outside_leaves_against_the_clip(wermer, monkeypatch):
    """Under a clip that empties the boxes with Re z >= 0.2 (the real clip
    never empties a half of a clipped box), certify records OUTSIDE leaves,
    and replay rejects any of them marked PROVED, any PROVED one marked
    OUTSIDE, or the two swapped."""
    clip = Region.clip

    def clip_right(self, lo, hi):
        clo, chi, inside = clip(self, lo, hi)
        return clo, chi, inside & ~(np.asarray(lo)[:, 0] >= 0.2)

    monkeypatch.setattr(Region, "clip", clip_right)
    data = _pass_dict(certify(wermer, wermer_compact(0.3), max_depth=30))
    leaves = data["checks"]["omega_in_tube"]["leaves"]
    statuses = [leaf["status"] for leaf in leaves]
    assert 0 < statuses.count("OUTSIDE") < len(leaves)
    assert _replays(data)
    for old, new in (("OUTSIDE", "PROVED"), ("PROVED", "OUTSIDE")):
        flipped = copy.deepcopy(data)
        flipped["checks"]["omega_in_tube"]["leaves"][statuses.index(old)]["status"] = new
        assert _replays(flipped) is False
    # consecutive OUTSIDE and PROVED leaves of one depth, neighbours in their
    # level too, trade statuses: replay grows the true tree, so only the
    # derived statuses tell
    i = next(i for i in range(len(leaves) - 1) if leaves[i]["depth"] == leaves[i + 1]["depth"]
             and {statuses[i], statuses[i + 1]} == {"OUTSIDE", "PROVED"})
    leaves[i]["status"], leaves[i + 1]["status"] = statuses[i + 1], statuses[i]
    assert _replays(data) is False


def test_a_format_5_leaf_may_carry_its_derived_box_and_no_other(wermer_pass_cert):
    data = _pass_dict(wermer_pass_cert)
    boxes = _derived_boxes(data)
    for leaf, box in zip(data["checks"]["omega_in_tube"]["leaves"], boxes):
        leaf["box"] = box
    assert _replays(data)
    data["checks"]["omega_in_tube"]["leaves"][0]["box"] = [[-5.0, 5.0]] * 2
    assert _replays(data) is False
    for i in (0, 100, -1):
        for wrong in (np.nextafter(boxes[i][1][1], math.inf), "0.1", None):
            box = copy.deepcopy(boxes[i])
            box[1][1] = wrong
            for box in (box, boxes[i][:1]):
                tampered = _pass_dict(wermer_pass_cert)
                tampered["checks"]["omega_in_tube"]["leaves"][i]["box"] = box
                assert _replays(tampered) is False


def test_replay_rejects_inconclusive_leaf_at_max_depth(wermer_pass_cert):
    """At max_depth replay does not bisect a box it is not told is PROVED,
    so a leaf recorded INCONCLUSIVE there matches the derived one; the tree
    it derives is then not PROVED."""
    data = _pass_dict(wermer_pass_cert)
    leaves = data["checks"]["omega_in_tube"]["leaves"]
    data["options"]["max_depth"] = max(leaf["depth"] for leaf in leaves)
    assert replay_certificate(certificate_from_dict(data))
    next(leaf for leaf in leaves
         if leaf["depth"] == data["options"]["max_depth"])["status"] = "INCONCLUSIVE"
    assert replay_certificate(certificate_from_dict(data)) is False


def test_certificate_format_1_rejected(wermer_pass_cert):
    data = _pass_dict(wermer_pass_cert)
    assert data["format"] == "prc-certificate/5"
    data["format"] = "prc-certificate/1"
    with pytest.raises(ValueError):
        certificate_from_dict(data)


def test_certificate_format_6_rejected(wermer_pass_cert):
    data = _pass_dict(wermer_pass_cert)
    data["format"] = "prc-certificate/6"
    with pytest.raises(ValueError, match="prc-certificate/6"):
        certificate_from_dict(data)


def _without(data, key):
    return {k: v for k, v in data.items() if k != key}


@pytest.mark.parametrize("tamper, message", [
    (lambda d: _without(d, "problem"), "certificate has no 'problem' field"),
    (lambda d: _without(d, "tolerances"), "certificate has no 'tolerances' field"),
    (lambda d: {**d, "problem": ["graph"]}, "'problem' must be a JSON object, got list"),
    (lambda d: {**d, "verdict": 1}, "'verdict' must be a JSON string, got int"),
    (lambda d: {**d, "problem": _without(d["problem"], "kind")},
     "certificate has no 'problem.kind' field"),
    (lambda d: {**d, "problem": _without(d["problem"], "n")}, "problem.n must be an integer"),
    (lambda d: [d], "a certificate must be a JSON object, got list"),
])
def test_certificate_from_dict_names_missing_or_mistyped_field(wermer_pass_cert, tamper,
                                                                 message):
    with pytest.raises(ValueError, match=re.escape(message)):
        certificate_from_dict(tamper(_pass_dict(wermer_pass_cert)))


# ---------------------------------------------------------------------------
# manifests
# ---------------------------------------------------------------------------

def _wermer_manifest(r=0.3):
    return {
        "kind": "graph",
        "n": 1,
        "functions": [WERMER_F],
        "compact": {"region": [{"shape": "disc", "center": [0, 0], "radius": r}]},
    }


def test_load_manifest_roundtrip():
    sys_, K, omega, opts = load_manifest(_wermer_manifest())
    assert sys_.kind == "graph"
    assert K.regions[0] == DiscRegion(0j, 0.3)
    assert omega is None
    assert opts == {}


def test_load_manifest_rejects_unknown_keys():
    m = _wermer_manifest()
    m["extra"] = 1
    with pytest.raises(ManifestError):
        load_manifest(m)


def test_load_manifest_rejects_unknown_options():
    m = _wermer_manifest()
    m["options"] = {"max_depth": 5, "frobnicate": True}
    with pytest.raises(ManifestError):
        load_manifest(m)


def test_load_manifest_rejects_non_polydisc_omega():
    m = _wermer_manifest()
    m["omega"] = {"union": []}
    with pytest.raises(ManifestError):
        load_manifest(m)


def test_load_manifest_submersion():
    m = {
        "kind": "submersion", "n": 2, "k": 2,
        "functions": ["Im(z1) - 0.05*(Re(z1)^2 + Re(z2)^3)",
                      "Im(z2) - 0.05*(Re(z2)^2 + Re(z1)^3)"],
        "compact": {"cap": {"center": [[0, 0], [0, 0]], "radii": [1, 1]}},
    }
    sys_, K, _, _ = load_manifest(m)
    assert sys_.kind == "submersion"
    assert K.regions == (DiscRegion(0j, 1.0), DiscRegion(0j, 1.0))


_NAN, _INF = math.nan, math.inf


@pytest.mark.parametrize("make,field", [
    # each of these constructed, and certify failed later or not at all
    (lambda: DiscRegion(0j, _NAN), "DiscRegion.radius"),
    (lambda: DiscRegion(0j, _INF), "DiscRegion.radius"),
    (lambda: DiscRegion(0j, 0.0), "DiscRegion.radius"),
    (lambda: DiscRegion(complex(_NAN, 0.0), 1.0), "DiscRegion.center"),
    (lambda: DiscRegion(complex(0.0, _INF), 1.0), "DiscRegion.center"),
    (lambda: BoxRegion(_NAN, 1, 0, 1), "BoxRegion.re"),
    (lambda: BoxRegion(0, 1, -_INF, 1), "BoxRegion.im"),
    (lambda: BoxRegion(1, 0, 0, 1), "BoxRegion.re"),
    (lambda: BoxRegion(0, 1, 1, 0), "BoxRegion.im"),
    (lambda: CompactSpec.submersion_cap((0j, 0j), (1.0, _NAN)), "DiscRegion.radius"),
    (lambda: OmegaSpec((0j, 0j), (0.35,)), "OmegaSpec.z_center has 2 entries"),
    (lambda: OmegaSpec((0j,), (0.35,), (0j,), (_NAN,)), "OmegaSpec.w_radii[0]"),
    (lambda: OmegaSpec((0j,), (_INF,)), "OmegaSpec.z_radii[0]"),
    (lambda: OmegaSpec((0j,), (-1.0,)), "OmegaSpec.z_radii[0]"),
    (lambda: OmegaSpec((0j, complex(0.0, _NAN)), (0.3, 0.3)), "OmegaSpec.z_center[1]"),
    (lambda: OmegaSpec((0j,), (0.35,), (0j,), (1.0, 1.0)), "OmegaSpec.w_center has 1 entries"),
    (lambda: OmegaSpec((0j,), (0.35,), (0j,)), "OmegaSpec.w_center and w_radii"),
    (lambda: OmegaSpec((0j,), (0.35,), None, (1.0,)), "OmegaSpec.w_center and w_radii"),
])
def test_regions_and_omega_refuse_bad_values(make, field):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match=re.escape(field)):
            make()


def test_cap_needs_a_radius_per_center():
    with pytest.raises(ValueError):
        CompactSpec.submersion_cap((0j, 0j), (1.0,))


def _omega(w_center, w_radii):
    return {"z": {"center": [[0, 0]], "radii": [0.35]},
            "w": {"center": w_center, "radii": w_radii}}


@pytest.mark.parametrize("base,path,value,field", [
    # the third number was ignored, and the certificate said PASS
    (_wermer_manifest, ("compact", "region", 0, "center"), [0, 0, 5],
     "compact.region[0].center"),
    (lambda: cap_manifest(1.0), ("compact", "cap", "center", 0), [0, 0, 5],
     "compact.cap.center[0]"),
    # ended in "box bounds must be finite"
    (_wermer_manifest, ("compact", "region", 0, "radius"), math.nan,
     "compact.region[0].radius"),
    (_wermer_manifest, ("compact", "region", 0, "radius"), math.inf,
     "compact.region[0].radius"),
    # ended in "complex() can't take second arg if first is a string"
    (_wermer_manifest, ("compact", "region", 0, "center"), ["nan", 0],
     "compact.region[0].center"),
    # ended in a floating-point overflow
    (_wermer_manifest, ("omega",), _omega([[0, 0]], [math.nan]), "omega.w.radii[0]"),
    (_wermer_manifest, ("omega",), _omega([[0, 0]], [math.inf]), "omega.w.radii[0]"),
    # ended in "graph tube checks take a z-box ..."
    (_wermer_manifest, ("omega",), _omega([[0, 0], [0, 0]], [1.0, 1.0]), "omega.w needs 1"),
])
def test_load_manifest_names_a_bad_point_or_radius(base, path, value, field):
    m = base()
    target = m
    for key in path[:-1]:
        target = target[key]
    target[path[-1]] = value
    with pytest.raises(ManifestError, match=re.escape(field)):
        load_manifest(m)


def test_certificate_with_a_third_center_number_replays_false(wermer_pass_cert):
    """The problem, its hash recomputed, with a center of three numbers: it
    replayed True, the third number ignored."""
    data = _pass_dict(wermer_pass_cert)
    data["problem"]["compact"]["region"][0]["center"] = [0.0, 0.0, 5.0]
    data["problem_hash"] = manifest_hash(data["problem"])
    assert replay_certificate(certificate_from_dict(data)) is False


@pytest.mark.parametrize("radius", ["nan", "inf"])
def test_certificate_with_non_finite_omega_radius_is_refused(wermer_pass_cert, radius):
    data = _pass_dict(wermer_pass_cert)
    data["omega"]["w"]["radii"] = [radius]  # as sanitize_json writes them
    with pytest.raises(ManifestError, match=re.escape("omega.w.radii[0]")):
        certificate_from_dict(data)


@pytest.mark.parametrize("system,omega,field", [
    ("wermer", OmegaSpec((0j, 0j), (0.35, 0.35), (0j,), (2.0,)), "omega.z"),
    ("wermer", OmegaSpec((0j,), (0.35,), (0j, 0j), (2.0, 2.0)), "omega.w"),
    ("wermer", OmegaSpec((0j,), (0.35,)), "omega.w"),
    ("example2", OmegaSpec((0j, 0j), (1.04, 1.04), (0j, 0j), (1.0, 1.0)), "omega.w"),
])
def test_omega_of_the_wrong_disc_count_is_refused_before_any_tree(
        request, monkeypatch, wermer_pass_cert, system, omega, field):
    """certify names the omega part that does not fit the system before it
    grows a tree (it grew the K tree, then raised an unrelated ValueError),
    and replay of a certificate with such an omega is False."""
    sys_ = request.getfixturevalue(system)
    K = (wermer_compact(0.3) if system == "wermer"
         else CompactSpec.submersion_cap((0j, 0j), (1.0, 1.0)))
    with pytest.raises(ManifestError, match=re.escape(field)):
        omega.check_fits(sys_)
    with monkeypatch.context() as patch:
        patch.setattr(sys.modules["prc.certify"], "_check_k_in_omega",
                      lambda *a: pytest.fail("grew the K tree"))
        with pytest.raises(ManifestError, match=re.escape(field)):
            certify(sys_, K, omega)
    if system == "wermer":
        assert replay_certificate(replace(wermer_pass_cert, omega=omega)) is False


def test_manifest_hash_stable(wermer):
    p = problem_manifest(wermer, wermer_compact(0.3))
    assert manifest_hash(p) == manifest_hash(json.loads(json.dumps(p)))


# ---------------------------------------------------------------------------
# reproductions (fast spot checks; the full runs live in the acceptance suite)
# ---------------------------------------------------------------------------

def test_reproduce_unknown_example():
    with pytest.raises(ValueError):
        reproduce_example("nonesuch")


def test_reproduce_graph_over_r2():
    rep = reproduce_example("graph_over_r2")
    assert rep["certification"]["verdict"] == "PASS"
    assert rep["rigorous_unit_box_bounds"]["L_upper"] <= 0.2
    assert rep["rigorous_unit_box_bounds"]["m_lower"] >= 0.2
    assert rep["stated"]["tube_lower_bound"] == 2.5
    B = rep["bbar_at_origin"]
    assert B[0][0] == [0.0, 0.5] and B[1][1] == [0.0, 0.5]
    assert B[0][1] == [0.0, 0.0] and B[1][0] == [0.0, 0.0]


def test_reproduce_rejects_unknown_params():
    with pytest.raises(ValueError):
        reproduce_example("graph_over_r2", {"bogus": 1})


# ---------------------------------------------------------------------------
# submersion caps at the edge of the 2x2 closed-form bounds
# ---------------------------------------------------------------------------

def _cap_certificate(radius, node_budget=400_000):
    sys_, K, omega, opts = load_manifest(cap_manifest(radius, node_budget))
    return sys_, certify(sys_, K, omega, **opts)


@pytest.mark.parametrize("radius", [1.30, 1.32])
def test_cap_edge_passes_and_replays(radius):
    """Gershgorin and Frobenius left these caps INCONCLUSIVE at depth 30."""
    _, cert = _cap_certificate(radius)
    assert cert.verdict == "PASS"
    assert replay_certificate(certificate_from_dict(_pass_dict(cert)))


def test_cap_r135_fails_with_tube_witness():
    sys_, cert = _cap_certificate(1.35, node_budget=100_000)
    assert cert.verdict == "FAIL"
    wit = cert.witness
    assert wit["check"] == "omega_in_tube" and wit["w"] is None
    z = tuple(complex(*c) for c in wit["z"])
    om = cert.omega
    assert all(abs(v - c) < r for v, c, r in zip(z, om.z_center, om.z_radii))
    # re-verify independently of certify
    assert sum(abs(v) for v in sys_.values_at(z)) >= tube_radius(sys_, z)
    # the witness the scalar per-box probe finds, to the last bit, at the
    # midpoint of a box of the scaled-split tree
    assert json.dumps(wit) == json.dumps({
        "z": [[-0.14365602821810391, -1.3749763916954398],
              [1.262575836469551, -0.553828125]],
        "w": None, "residual": 2.110026489249495, "radius": 2.1063547529322144,
        "check": "omega_in_tube"})


# ---------------------------------------------------------------------------
# the split scale of the tube tree
# ---------------------------------------------------------------------------

@pytest.fixture(scope="module")
def cap_pass_dict():
    """cap r=1.25: a PASS whose tube tree the split scale shapes."""
    _, cert = _cap_certificate(1.25)
    assert cert.verdict == "PASS"
    return _pass_dict(cert)


def _replays(data):
    return replay_certificate(certificate_from_dict(data))


def test_cap_certificate_records_its_split_scale(cap_pass_dict):
    data = json.loads(json.dumps(cap_pass_dict))
    assert data["format"] == "prc-certificate/5"
    sx1, sy1, sx2, sy2 = data["checks"]["omega_in_tube"]["split_scale"]
    # Im z_l enters rho_l with slope 1, Re z with slope 0.05 * (2x + 3x^2)
    assert sy1 == sy2 and 1.0 <= sy1 < 1.0 + 1e-11 and sx1 == sx2 < 0.5
    assert _replays(data)
    # only where boxes are cut depends on the scale: doubling it, which
    # changes no comparison, still replays
    data["checks"]["omega_in_tube"]["split_scale"] = [2.0 * s for s in (sx1, sy1, sx2, sy2)]
    assert _replays(data)


@pytest.mark.parametrize("scale", [
    "swapped", [1.0, 1.0, 1.0], [1.0] * 5, [0.0, 1.0, 0.3, 1.0], [-0.3, 1.0, 0.3, 1.0],
    ["nan", 1.0, 0.3, 1.0], [float("nan"), 1.0, 0.3, 1.0], ["inf", 1.0, 0.3, 1.0],
    [0.3, 1.0, 0.3, float("inf")], "1.0", ["0.3", "1.0", "0.3", "1.0"], 1.0, None,
    [0.3, 1, 0.3, 1], [True, 1.0, 0.3, 1.0]])
def test_replay_rejects_bad_split_scale(cap_pass_dict, scale):
    data = json.loads(json.dumps(cap_pass_dict))
    tube = data["checks"]["omega_in_tube"]
    if scale == "swapped":
        sx1, sy1, sx2, sy2 = tube["split_scale"]
        scale = [sy1, sx1, sy2, sx2]
    tube["split_scale"] = scale
    assert _replays(data) is False


def test_replay_rejects_deleted_split_scale(cap_pass_dict):
    """Without its scale a /3 tube tree is re-derived by unit weights, which
    cut the boxes elsewhere."""
    data = json.loads(json.dumps(cap_pass_dict))
    del data["checks"]["omega_in_tube"]["split_scale"]
    assert _replays(data) is False


def test_certificate_written_before_closed_forms_replays():
    """A prc-certificate/2 file of cap r=1.1 written with the Gershgorin and
    Frobenius bounds (86 tube leaves): the bounds only improved since, so
    every recorded leaf still proves."""
    path = Path(__file__).parent / "data" / "cap_r1.1.cert.json"
    data = json.loads(path.read_text())
    assert data["format"] == "prc-certificate/2"
    assert len(data["checks"]["omega_in_tube"]["leaves"]) == 86
    assert replay_certificate(certificate_from_dict(data))


def test_certificate_in_indented_layout_replays():
    """Files written before certificates became one line of JSON had an
    indent of 2; they read the same and still replay."""
    path = Path(__file__).parent / "data" / "wermer_r0.3.cert.json"
    text = json.dumps(json.loads(path.read_text()), indent=2, sort_keys=True) + "\n"
    assert text.count("\n") > 1000
    cert = certificate_from_dict(json.loads(text))
    assert cert.verdict == "PASS"
    assert replay_certificate(cert)


def test_certificate_written_before_product_chain_powers_replays():
    """A prc-certificate/3 file of Wermer r=0.3 written while the box kernels
    took powers from float ** int and magnitudes from math.hypot: the tree
    is today's, some leaf bounds differ in their last bits, and every
    recorded leaf still proves."""
    path = Path(__file__).parent / "data" / "wermer_r0.3.cert.json"
    data = json.loads(path.read_text())
    assert data["format"] == "prc-certificate/3"
    leaves = data["checks"]["omega_in_tube"]["leaves"]
    assert len(leaves) == 330
    assert replay_certificate(certificate_from_dict(data))
    sys_, K, _, _ = load_manifest(dict(data["problem"], options=None))
    fresh = certify(sys_, K, max_depth=30, node_budget=150_000)
    assert [(leaf["status"], leaf["depth"]) for leaf in _pass_dict(fresh)["checks"][
        "omega_in_tube"]["leaves"]] == [(leaf["status"], leaf["depth"]) for leaf in leaves]
    derived = _tube_leaves(sys_, fresh)
    assert np.stack([derived.lo, derived.hi], axis=-1).tolist() == \
        [leaf["box"] for leaf in leaves]
    recorded = [[leaf[k] for k in ("m_lower", "L_upper", "residual_upper")] for leaf in leaves]
    assert derived.values.tolist() != recorded


FORMAT_4_FILE = Path(__file__).parent / "data" / "cap_r1.2.cert.json"


def test_format_4_certificate_replays():
    """A prc-certificate/4 file of cap r=1.2 (inputs.cap_manifest(1.2)),
    written by `prc certify` before leaves lost their boxes and bounds: its
    tree is today's, and each recorded box is checked against the derived
    one."""
    data = json.loads(FORMAT_4_FILE.read_text())
    assert data["format"] == "prc-certificate/4"
    leaves = data["checks"]["omega_in_tube"]["leaves"]
    assert len(leaves) == 71 and all("box" in leaf and "m_lower" in leaf for leaf in leaves)
    assert _replays(data)
    sys_, K, omega, opts = load_manifest(dict(data["problem"], options=data["options"]))
    fresh = _pass_dict(certify(sys_, K, omega, **opts))
    assert fresh["checks"]["omega_in_tube"]["leaves"] == \
        [{"status": leaf["status"], "depth": leaf["depth"]} for leaf in leaves]


@pytest.mark.parametrize("leaf, side", [(0, 0), (35, 3), (70, 1)])
def test_format_4_leaf_box_moved_by_1e_9_replays_false(leaf, side):
    data = json.loads(FORMAT_4_FILE.read_text())
    data["checks"]["omega_in_tube"]["leaves"][leaf]["box"][side][1] += 1e-9
    assert _replays(data) is False


def test_format_2_and_3_leaves_stripped_to_status_and_depth_replay():
    """Replay needs only each leaf's status and depth: the committed /2 and
    /3 files with every box and bound taken out still replay."""
    for name in ("cap_r1.1", "wermer_r0.3"):
        data = json.loads((Path(__file__).parent / "data" / f"{name}.cert.json").read_text())
        tube = data["checks"]["omega_in_tube"]
        tube["leaves"] = [{"status": leaf["status"], "depth": leaf["depth"]}
                          for leaf in tube["leaves"]]
        assert _replays(data), name


def _format_3_dict():
    """The prc-certificate/3 file of Wermer r=0.3, with its totally_real section."""
    data = json.loads((Path(__file__).parent / "data" / "wermer_r0.3.cert.json").read_text())
    assert data["format"] == "prc-certificate/3" and "totally_real" in data["checks"]
    return data


@pytest.mark.parametrize("tamper", [
    lambda tr: tr.clear(),
    lambda tr: tr["leaves"][0].update(box=[[-5.0, 5.0]] * 2, m_lower=-1.0),
    lambda tr: tr.update(status="FAILED", leaves=[])], ids=["emptied", "box", "failed"])
def test_format_3_replay_ignores_its_totally_real_section(tamper):
    """Replay re-derives only the tube tree, whose PROVED leaves have
    m_lower > 0, so a /3 file's totally-real tree decides nothing: deleted or
    tampered, the file still replays."""
    data = _format_3_dict()
    tamper(data["checks"]["totally_real"])
    assert replay_certificate(certificate_from_dict(data))
    del data["checks"]["totally_real"]
    assert replay_certificate(certificate_from_dict(data))


def test_format_3_replay_rejects_a_tampered_tube_leaf():
    data = _format_3_dict()
    data["checks"]["omega_in_tube"]["leaves"][0]["box"][0][0] -= 1e-3
    assert replay_certificate(certificate_from_dict(data)) is False
