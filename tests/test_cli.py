import argparse
import csv
import hashlib
import json
import logging
import math
import os
import re
import subprocess
import sys
import warnings
from pathlib import Path

import pytest

from conftest import cap_manifest
from prc.certify import (WERMER_F, CompactSpec, certificate_to_dict, certify,
                         dumps_json, load_manifest)
from prc.cli import build_parser, main
from prc.trgeom import m_value


def _write(tmp_path, name, obj):
    p = tmp_path / name
    p.write_text(json.dumps(obj))
    return str(p)


def _wermer_manifest(r=0.3, options=None):
    m = {
        "kind": "graph",
        "n": 1,
        "functions": [WERMER_F],
        "compact": {"region": [{"shape": "disc", "center": [0, 0], "radius": r}]},
    }
    if options:
        m["options"] = options
    return m


def _pluriharmonic_manifest():
    return {
        "kind": "graph",
        "n": 1,
        "functions": ["z1 + conj(z1)"],
        "compact": {"region": [{"shape": "disc", "center": [0, 0], "radius": 1.0}]},
    }


def _holomorphic_manifest():
    return {
        "kind": "graph",
        "n": 1,
        "functions": ["z1^2"],
        "compact": {"region": [{"shape": "box", "re": [-1, 1], "im": [-1, 1]}]},
    }


# ---------------------------------------------------------------------------
# totally-real
# ---------------------------------------------------------------------------

def test_totally_real_wermer_grid(tmp_path, capsys):
    path = _write(tmp_path, "w.json", _wermer_manifest(1.0))
    out = tmp_path / "report.json"
    code = main(["totally-real", path, "--grid", "41", "--out", str(out)])
    assert code == 0
    rep = json.loads(out.read_text())
    assert rep["all_totally_real"] is True
    assert rep["points"] == 41 * 41


def test_totally_real_holomorphic_fails(tmp_path):
    path = _write(tmp_path, "h.json", _holomorphic_manifest())
    out = tmp_path / "report.json"
    code = main(["totally-real", path, "--grid", "5", "--out", str(out)])
    assert code == 3
    rep = json.loads(out.read_text())
    assert rep["all_totally_real"] is False
    assert "witness" in rep


def test_totally_real_malformed_json(tmp_path):
    p = tmp_path / "bad.json"
    p.write_text("{not json")
    assert main(["totally-real", str(p)]) == 2


def test_directory_as_manifest_exit_2(tmp_path, capsys):
    assert main(["certify", str(tmp_path)]) == 2
    assert capsys.readouterr().err.startswith("error: ")


def test_directory_as_out_exit_2(tmp_path, capsys):
    path = _write(tmp_path, "w.json", _wermer_manifest())
    assert main(["certify", path, "--out", str(tmp_path)]) == 2
    assert capsys.readouterr().err.startswith("error: ")


@pytest.mark.parametrize("f", ["conj(z1) + 10^400*z1^2 - 10^400*z1^2",
                               "conj(z1) + 10^200*10^200*z1*conj(z1)^2"])
def test_non_finite_coefficient_exit_2(tmp_path, capsys, f):
    m = _wermer_manifest()
    m["functions"] = [f]
    path = _write(tmp_path, "w.json", m)
    assert main(["certify", path]) == 2
    assert "function #1 has a non-finite coefficient" in capsys.readouterr().err


@pytest.mark.parametrize("radius", [1e100, 1e40])
def test_overflowing_disc_exit_2(tmp_path, capsys, radius):
    """Wermer over a disc so large that its powers leave the doubles: the box
    bounds give inf or NaN, which proves nothing, and the pointwise probe's
    float ** int overflows, which the CLI reports as an input error."""
    path = _write(tmp_path, "w.json", _wermer_manifest(radius))
    assert main(["certify", path, "--out", str(tmp_path / "c.json")]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: floating-point overflow")
    assert "Traceback" not in err


def test_unknown_manifest_key_exit_2(tmp_path):
    m = _wermer_manifest()
    m["surprise"] = 1
    path = _write(tmp_path, "w.json", m)
    assert main(["certify", path, "--threads", "1"]) == 2


# ---------------------------------------------------------------------------
# tube-profile
# ---------------------------------------------------------------------------

def test_tube_profile_wermer(tmp_path):
    path = _write(tmp_path, "w.json", _wermer_manifest(1.0))
    out = tmp_path / "profile.csv"
    code = main(["tube-profile", path, "--ray-from", "0,0", "--ray-to", "1,0",
                 "--steps", "101", "--out", str(out)])
    assert code == 0
    rows = list(csv.DictReader(out.read_text().splitlines()))
    assert len(rows) == 101
    last = rows[-1]
    assert abs(float(last["m"]) - 5.0) <= 1e-9
    assert abs(float(last["L"]) - 2 * math.sqrt(10)) <= 1e-9
    assert abs(float(last["radius"]) - 5 / (4 * math.sqrt(10))) <= 1e-9
    assert rows[0]["radius"] == "inf"  # L(0) = 0


def test_tube_profile_pluriharmonic_all_inf(tmp_path):
    path = _write(tmp_path, "p.json", _pluriharmonic_manifest())
    out = tmp_path / "profile.csv"
    assert main(["tube-profile", path, "--ray-from", "0,0", "--ray-to", "1,1",
                 "--steps", "11", "--out", str(out)]) == 0
    rows = list(csv.DictReader(out.read_text().splitlines()))
    assert all(r["radius"] == "inf" for r in rows)


def test_tube_profile_bad_ray(tmp_path):
    path = _write(tmp_path, "w.json", _wermer_manifest())
    assert main(["tube-profile", path, "--ray-from", "0", "--ray-to", "1,0"]) == 2


# argv of a command that takes a point, with {v} the value of one coordinate
_POINT_ARGV = {
    "--ray-from": ["tube-profile", "{m}", "--ray-from={v},0", "--ray-to=1,0"],
    "--ray-to": ["tube-profile", "{m}", "--ray-from=0,0", "--ray-to={v},0"],
    "--q": ["hull-probe", "{m}", "--q=0,0,{v},0"],
}


@pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
@pytest.mark.parametrize("flag", list(_POINT_ARGV))
def test_non_finite_point_exit_2(tmp_path, capsys, flag, value):
    """A NaN ray end was reported as a floating-point overflow, and an infinite
    query point leaked numpy's RuntimeWarning and then SciPy's input error."""
    path = _write(tmp_path, "w.json", _wermer_manifest(1.0))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert main([a.format(m=path, v=value) for a in _POINT_ARGV[flag]]) == 2
    assert f"error: {flag} must have finite coordinates" in capsys.readouterr().err


@pytest.mark.parametrize("flag", list(_POINT_ARGV))
def test_non_numeric_point_names_its_flag(tmp_path, capsys, flag):
    """float()'s own message, which names no flag, used to reach the user."""
    path = _write(tmp_path, "w.json", _wermer_manifest(1.0))
    assert main([a.format(m=path, v="abc") for a in _POINT_ARGV[flag]]) == 2
    assert f"error: {flag} needs " in capsys.readouterr().err


@pytest.mark.parametrize("value", [1.5, True, "1"])
def test_certify_non_integer_n_exit_2(tmp_path, capsys, value):
    """Each of these certified Wermer as n = 1 and exited 0."""
    path = _write(tmp_path, "w.json", dict(_wermer_manifest(), n=value))
    assert main(["certify", path]) == 2
    assert f"error: n must be an integer >= 1, got {value!r}" in capsys.readouterr().err


def test_certify_non_integer_k_exit_2(tmp_path, capsys):
    """k = 1.5 became k = 1, reported as a wrong number of functions."""
    path = _write(tmp_path, "c.json", dict(cap_manifest(1.0), k=1.5))
    assert main(["certify", path]) == 2
    assert "error: k must be an integer >= 1, got 1.5" in capsys.readouterr().err


# ---------------------------------------------------------------------------
# certify
# ---------------------------------------------------------------------------

def test_certify_wermer_03_exit_0(tmp_path):
    path = _write(tmp_path, "w.json",
                  _wermer_manifest(0.3, options={"max_depth": 30}))
    out = tmp_path / "cert.json"
    code = main(["certify", path, "--out", str(out), "--threads", "1"])
    assert code == 0
    cert = json.loads(out.read_text())
    assert cert["verdict"] == "PASS"
    assert cert["problem_hash"]
    assert cert["options"]["max_depth"] == 30


def test_certify_wermer_10_exit_3(tmp_path):
    path = _write(tmp_path, "w.json",
                  _wermer_manifest(1.0, options={"max_depth": 30}))
    out = tmp_path / "cert.json"
    code = main(["certify", path, "--out", str(out), "--threads", "1"])
    assert code == 3
    cert = json.loads(out.read_text())
    assert cert["verdict"] == "FAIL"
    assert cert["witness"] is not None


def _disc_margin(center, radius, oc, orad):
    return orad - (abs(center - oc) + radius)


def _box_margin(re, im, oc, orad):
    return orad - max(abs(complex(x, y) - oc) for x in re for y in im)


_GRAPH_N2 = ["conj(z1) + 0.1*z2*conj(z2) - 0.2*z1^2*conj(z2)",
             "conj(z2) - 0.3*z1*conj(z1)^2 + 0.05*conj(z1)"]

# (manifest, margins key, margins, witness coordinate, witness z): K sticks
# out of omega's z polydisc at one coordinate
_K_OUTSIDE_OMEGA_Z = {
    "cap": (dict(cap_manifest(0.5), omega={"z": {"center": [[0, 0], [0, 0]],
                                                 "radii": [0.45, 0.55]}}),
            "margins", [_disc_margin(0j, 0.5, 0j, 0.45), _disc_margin(0j, 0.5, 0j, 0.55)],
            0, [[0.5, 0.0], [0.0, 0.0]]),
    "graph_disc": (dict(_wermer_manifest(0.3, options={"max_depth": 12}),
                        compact={"region": [{"shape": "disc", "center": [0.1, 0],
                                             "radius": 0.3}]},
                        omega={"z": {"center": [[0, 0]], "radii": [0.35]},
                               "w": {"center": [[0, 0]], "radii": [1.0]}}),
                   "z_margins", [_disc_margin(0.1, 0.3, 0j, 0.35)], 0, [[0.1 + 0.3, 0.0]]),
    # the disc's point c + r, 0.3 + 0.1i, would lie inside omega
    "graph_disc_off_centre": (
        dict(_wermer_manifest(0.3, options={"max_depth": 12}),
             compact={"region": [{"shape": "disc", "center": [0, 0.1], "radius": 0.3}]},
             omega={"z": {"center": [[0, 0]], "radii": [0.35]},
                    "w": {"center": [[0, 0]], "radii": [1.0]}}),
        "z_margins", [_disc_margin(0.1j, 0.3, 0j, 0.35)], 0, [[0.0, 0.1 + 0.3]]),
    "graph_box": ({"kind": "graph", "n": 2, "functions": _GRAPH_N2,
                   "compact": {"region": [
                       {"shape": "disc", "center": [0, 0], "radius": 0.2},
                       {"shape": "box", "re": [-0.1, 0.3], "im": [-0.1, 0.1]}]},
                   "omega": {"z": {"center": [[0, 0], [0, 0]], "radii": [0.3, 0.25]},
                             "w": {"center": [[0, 0], [0, 0]], "radii": [1.0, 1.0]}},
                   "options": {"max_depth": 8}},
                  "z_margins", [_disc_margin(0j, 0.2, 0j, 0.3),
                                _box_margin((-0.1, 0.3), (-0.1, 0.1), 0j, 0.25)],
                  1, [[0.0, 0.0], [0.3, -0.1]]),
}


def _in_region(point, region) -> bool:
    """Whether the (re, im) pair lies in a manifest region, up to rounding."""
    x, y = point
    if region.get("shape", "disc") == "disc":
        (cx, cy), r = region["center"], region["radius"]
        return math.hypot(x - cx, y - cy) <= r * (1.0 + 1e-12)
    return region["re"][0] <= x <= region["re"][1] and region["im"][0] <= y <= region["im"][1]


@pytest.mark.parametrize("name", sorted(_K_OUTSIDE_OMEGA_Z))
def test_certify_k_outside_omega_z_exit_3(tmp_path, name):
    """A region of K that is not inside its omega z disc is a FAIL whose
    witness z is a point of the regions' product outside omega: the point of
    the worst region farthest from omega's centre, and the other regions'
    centres."""
    manifest, key, margins, coordinate, z = _K_OUTSIDE_OMEGA_Z[name]
    out = tmp_path / "cert.json"
    assert main(["certify", _write(tmp_path, "m.json", manifest), "--out", str(out)]) == 3
    cert = json.loads(out.read_text())
    assert cert["verdict"] == "FAIL"
    k_check = cert["checks"]["k_in_omega"]
    assert k_check["status"] == "FAILED"
    assert k_check[key] == margins
    assert margins[coordinate] == min(margins) < 0
    assert cert["witness"] == {"check": "k_in_omega", "coordinate": coordinate, "z": z}
    compact = manifest["compact"]
    regions = compact.get("region") or [{"center": c, "radius": r} for c, r in
                                        zip(compact["cap"]["center"], compact["cap"]["radii"])]
    assert len(z) == len(regions) == manifest["n"]
    assert all(_in_region(p, reg) for p, reg in zip(z, regions))
    (ox, oy), orad = (manifest["omega"]["z"]["center"][coordinate],
                      manifest["omega"]["z"]["radii"][coordinate])
    assert math.hypot(z[coordinate][0] - ox, z[coordinate][1] - oy) >= orad


def test_certify_depth_zero_inconclusive_exit_4(tmp_path):
    path = _write(tmp_path, "w.json", _wermer_manifest(0.3))
    code = main(["certify", path, "--max-depth", "0", "--out",
                 str(tmp_path / "c.json"), "--threads", "1"])
    assert code == 4


def test_certify_example2_exit_0(tmp_path):
    m = {
        "kind": "submersion", "n": 2, "k": 2,
        "functions": ["Im(z1) - 0.05*(Re(z1)^2 + Re(z2)^3)",
                      "Im(z2) - 0.05*(Re(z2)^2 + Re(z1)^3)"],
        "compact": {"cap": {"center": [[0, 0], [0, 0]], "radii": [1, 1]}},
        "options": {"max_depth": 30, "inflation": 0.04},
    }
    path = _write(tmp_path, "e2.json", m)
    out = tmp_path / "cert.json"
    assert main(["certify", path, "--out", str(out), "--threads", "1"]) == 0
    cert = json.loads(out.read_text())
    assert cert["verdict"] == "PASS"


# ---------------------------------------------------------------------------
# hull-probe
# ---------------------------------------------------------------------------

def test_hull_probe_circle_not_separated(tmp_path):
    m = {
        "kind": "submersion", "n": 1, "k": 1,
        "functions": ["z1*conj(z1) - 1"],
        "compact": {"cap": {"center": [[0, 0]], "radii": [1.2]}},
    }
    path = _write(tmp_path, "circ.json", m)
    out = tmp_path / "probe.json"
    code = main(["hull-probe", path, "--q", "0,0", "--degree", "4",
                 "--density", "24", "--out", str(out)])
    assert code == 0
    rep = json.loads(out.read_text())["hull_probe"]
    assert rep["separated"] is False
    assert rep["evidence_only"] is True


def test_hull_probe_wermer_far_point(tmp_path):
    path = _write(tmp_path, "w.json", _wermer_manifest(1.0))
    out = tmp_path / "probe.json"
    code = main(["hull-probe", path, "--q", "0,0,0,2", "--degree", "2",
                 "--density", "24", "--out", str(out)])
    assert code == 0
    rep = json.loads(out.read_text())["hull_probe"]
    assert rep["separated"] is True
    assert rep["ratio"] >= 1.5
    assert rep["fragile"] is False


@pytest.mark.parametrize("margin", ["nan", "-0.5", "inf"])
def test_hull_probe_bad_margin_exit_2(tmp_path, capsys, margin):
    """A NaN margin reported every query not separated, and a negative one
    the origin of Wermer K_1 (ratio 1.0) separated, both with exit 0."""
    path = _write(tmp_path, "w.json", _wermer_manifest(1.0))
    assert main(["hull-probe", path, "--q", "0,0,0,2", "--degree", "2",
                 "--density", "24", f"--margin={margin}"]) == 2
    assert "margin must be finite and >= 0" in capsys.readouterr().err


# ---------------------------------------------------------------------------
# reproduce
# ---------------------------------------------------------------------------

def test_reproduce_graph_over_r2_cli(tmp_path):
    out = tmp_path / "rep.json"
    code = main(["reproduce", "graph_over_r2", "--out", str(out)])
    assert code == 0
    rep = json.loads(out.read_text())
    assert rep["certification"]["verdict"] == "PASS"


def test_reproduce_graph_over_r2_takes_inflation_as_eps(tmp_path):
    out = tmp_path / "rep.json"
    assert main(["reproduce", "graph_over_r2", "--inflation", "0.03",
                 "--out", str(out)]) == 0
    assert json.loads(out.read_text())["params"]["eps"] == 0.03


def test_stdout_default(tmp_path, capsys):
    path = _write(tmp_path, "w.json", _wermer_manifest(1.0))
    code = main(["tube-profile", path, "--ray-from", "0,0", "--ray-to", "0.5,0",
                 "--steps", "3"])
    assert code == 0
    captured = capsys.readouterr()
    assert captured.out.startswith("re_z1,im_z1,m,L,radius")


def test_certify_output_independent_of_threads(tmp_path):
    m = {
        "kind": "submersion", "n": 2, "k": 2,
        "functions": ["Im(z1) - 0.05*(Re(z1)^2 + Re(z2)^3)",
                      "Im(z2) - 0.05*(Re(z2)^2 + Re(z1)^3)"],
        "compact": {"cap": {"center": [[0, 0], [0, 0]], "radii": [1, 1]}},
        "options": {"max_depth": 30, "inflation": 0.04},
    }
    path = _write(tmp_path, "e2.json", m)
    out1, out4 = tmp_path / "c1.json", tmp_path / "c4.json"
    assert main(["certify", path, "--out", str(out1), "--threads", "1"]) == 0
    assert main(["certify", path, "--out", str(out4), "--threads", "4"]) == 0
    assert out1.read_bytes() == out4.read_bytes()


def test_certify_byte_identical_reruns(tmp_path):
    path = _write(tmp_path, "w.json", _wermer_manifest(1.0))
    out1, out2 = tmp_path / "c1.json", tmp_path / "c2.json"
    assert main(["certify", path, "--out", str(out1), "--threads", "1"]) == 3
    assert main(["certify", path, "--out", str(out2), "--threads", "1"]) == 3
    assert out1.read_bytes() == out2.read_bytes()


def test_prc_log_env(tmp_path, monkeypatch):
    monkeypatch.setenv("PRC_LOG", "debug")
    path = _write(tmp_path, "w.json", _wermer_manifest(1.0))
    assert main(["tube-profile", path, "--ray-from", "0,0", "--ray-to", "1,0",
                 "--steps", "2", "--out", str(tmp_path / "p.csv")]) == 0


# ---------------------------------------------------------------------------
# numeric options: exit 2 with a message, never a vacuous result
# ---------------------------------------------------------------------------

def test_totally_real_grid_zero_exit_2(tmp_path, capsys):
    path = _write(tmp_path, "w.json", _wermer_manifest())
    out = tmp_path / "report.json"
    assert main(["totally-real", path, "--grid", "0", "--out", str(out)]) == 2
    assert "--grid" in capsys.readouterr().err
    assert not out.exists()


def test_totally_real_oversized_mesh_exit_2(tmp_path, capsys):
    """--grid 41 on an n = 2 manifest is 41^4 = 2,825,761 points, refused
    before any of them is evaluated."""
    path = _write(tmp_path, "cap.json", cap_manifest(1.285))
    out = tmp_path / "report.json"
    assert main(["totally-real", path, "--grid", "41", "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert "grid^(2n)" in err and "2825761" in err
    assert not out.exists()
    assert main(["totally-real", path, "--grid", "5", "--out", str(out)]) == 0
    assert json.loads(out.read_text())["points"] == 5 ** 4


def test_totally_real_default_grid_fits_the_mesh_limit(tmp_path):
    """Without --grid an n = 2 manifest gets the largest grid <= 41 with
    grid^4 <= 100,000 points: 17^4 = 83,521."""
    path = _write(tmp_path, "cap.json", cap_manifest(1.2))
    out = tmp_path / "report.json"
    assert main(["totally-real", path, "--out", str(out)]) == 0
    report = json.loads(out.read_text())
    assert report["grid"] == 17 and report["points"] == 83_521 == len(report["results"])
    assert report["all_totally_real"]


def test_input_error_prints_one_line(tmp_path):
    """An input error is reported once on stderr, at the default PRC_LOG."""
    path = _write(tmp_path, "g.json", {"kind": "graph"})
    env = {k: v for k, v in os.environ.items() if k != "PRC_LOG"}
    env["PYTHONPATH"] = os.pathsep.join(
        [str(Path(__file__).resolve().parent.parent / "src"), env.get("PYTHONPATH", "")])
    proc = subprocess.run([sys.executable, "-m", "prc.cli", "certify", path],
                          capture_output=True, text=True, env=env)
    assert proc.returncode == 2
    assert proc.stderr == "error: manifest missing key: 'n'\n"


def test_certify_margin_nan_exit_2(tmp_path, capsys):
    path = _write(tmp_path, "w.json", _wermer_manifest())
    assert main(["certify", path, "--margin", "nan"]) == 2
    assert "margin" in capsys.readouterr().err


def test_certify_bad_margins_exit_2(tmp_path):
    path = _write(tmp_path, "w.json", _wermer_manifest())
    for bad in ("inf", "-inf", "-1e-6", "1", "1.5"):
        assert main(["certify", path, f"--margin={bad}"]) == 2, bad
    # the manifest's options go through the same check
    path = _write(tmp_path, "m.json", _wermer_manifest(options={"margin": -0.5}))
    assert main(["certify", path]) == 2


def test_certify_bad_inflation_exit_2(tmp_path):
    path = _write(tmp_path, "w.json", _wermer_manifest())
    for bad in ("0", "-0.05", "nan", "inf"):
        assert main(["certify", path, f"--inflation={bad}"]) == 2, bad
    assert main(["reproduce", "wermer", "--inflation", "0"]) == 2


def test_certify_negative_max_depth_exit_2(tmp_path, capsys):
    path = _write(tmp_path, "w.json", _wermer_manifest())
    assert main(["certify", path, "--max-depth", "-1"]) == 2
    assert "max_depth" in capsys.readouterr().err
    path = _write(tmp_path, "m.json", _wermer_manifest(options={"max_depth": 2.5}))
    assert main(["certify", path]) == 2


def test_threads_default_is_one():
    args = build_parser().parse_args(["certify", "m.json"])
    assert args.threads == 1
    assert build_parser().parse_args(["certify", "m.json", "--threads", "1"]).threads == 1
    assert main(["certify", "m.json", "--threads", "0"]) == 2


# ---------------------------------------------------------------------------
# the flags of each subcommand
# ---------------------------------------------------------------------------

# each subcommand takes exactly the flags it reads
_SUBCOMMAND_FLAGS = {
    "totally-real": {"--out", "--grid"},
    "tube-profile": {"--out", "--ray-from", "--ray-to", "--steps"},
    "certify": {"--out", "--max-depth", "--margin", "--inflation", "--threads"},
    "hull-probe": {"--out", "--q", "--degree", "--density", "--margin"},
    "reproduce": {"--out", "--max-depth", "--margin", "--inflation"},
}


def _parser_flags():
    """The option strings build_parser declares on each subcommand, less --help."""
    sub = next(a for a in build_parser()._actions
               if isinstance(a, argparse._SubParsersAction))
    return {name: {s for a in sp._actions for s in a.option_strings} - {"-h", "--help"}
            for name, sp in sub.choices.items()}


def test_each_subcommand_declares_the_flags_it_reads():
    assert _parser_flags() == _SUBCOMMAND_FLAGS
    assert sum(map(len, _SUBCOMMAND_FLAGS.values())) == 20
    # the hull probe's own margin keeps its default
    assert build_parser().parse_args(["hull-probe", "m.json", "--q", "0,0"]).margin == 0.05


@pytest.mark.parametrize("argv", [
    ["totally-real", "m.json", "--max-depth", "3"],
    ["certify", "m.json", "--degree", "3"],
    ["certify", "m.json", "--seed", "7"],
    ["hull-probe", "m.json", "--q", "0,0", "--inflation", "0.1"],
    ["reproduce", "wermer", "--threads", "2"],
])
def test_flag_the_subcommand_does_not_read_exit_2(capsys, argv):
    """Each of these exited 0 with the flag ignored."""
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert err.startswith(f"usage: prc {argv[0]} ")
    assert f"unrecognized arguments: {' '.join(argv[-2:])}" in err


def test_readme_cli_synopsis_matches_parser():
    """Each subcommand's line in the README's CLI synopsis names its flags."""
    readme = (Path(__file__).resolve().parent.parent / "README.md").read_text()
    block = readme.split("\n## CLI\n", 1)[1].split("```", 2)[1]
    synopsis = {line.split()[1]: set(re.findall(r"--[a-z-]+", line))
                for line in block.splitlines() if line.startswith("prc ")}
    assert synopsis == _parser_flags()


# ---------------------------------------------------------------------------
# certificate bytes
# ---------------------------------------------------------------------------

def _wermer_bench_manifest(r, node_budget):
    return _wermer_manifest(r, {"max_depth": 30, "margin": 1e-6, "inflation": 0.05,
                                "node_budget": node_budget})


# sha256 of the certificate files `prc certify --out` writes, recorded with
# the earlier one-box-at-a-time kernels: every bound in a certificate, and
# every tree, must come out bit for bit the same however boxes are batched.
# The two caps were re-recorded when m and L took the 2x2 closed forms for
# n = 2, which changed their bounds and trees.  All five were re-recorded
# when certificates became prc-certificate/3 with the tube tree's split
# scale; of them only the trees of wermer_r0.33 (a FAIL, found sooner by
# midpoint probes) and cap_r1.285 (bisected by the scale) changed.
# wermer_r0.3, wermer_r0.305 and cap_r1.285, and the /2 digests of the two
# Wermer problems, were re-recorded when the box kernels moved to product-chain
# powers and the C library's hypot: some leaf bounds changed in their last
# bits, with the same trees, verdicts and omega.  wermer_r0.33 was
# re-recorded when the pointwise probe took the same arithmetic: its witness
# moved in the last bits, with the same tree and leaf boxes.  All five, the
# /2 digests and the totally-real digests below were re-recorded when every
# output became one line of JSON (dumps_json): only whitespace changed.  All
# five and the /2 digests were re-recorded for prc-certificate/4, which drops
# the totally_real check and the totally_real_tol tolerance: the bytes are
# those of the /3 files with that check, that tolerance and the format string
# taken out, so the K and tube sections did not change.
GOLDEN_CERTIFICATES = [
    ("wermer_r0.3", _wermer_bench_manifest(0.3, 150_000), 0,
     "2b629d26b2f65a66391c4b795c251ecbb5fdaf572fa78a9f9b9e28f2ddf91c21"),
    ("wermer_r0.33", _wermer_bench_manifest(0.33, 150_000), 3,
     "ec5e7555df9d7f9f682100396b714283614d11210a6110d6078e1ad613352956"),
    ("wermer_r0.305", _wermer_bench_manifest(0.305, 40_000), 0,
     "4b6a07ccdf9d3227b24ccc2b86b7a9264928f51a96629d48982ac7b38ac10379"),
    ("cap_r1.0", cap_manifest(1.0), 0,
     "eb4385dc6a1220060f8da406adbff61e6157520be55cd0a1428f143845a6f922"),
    ("cap_r1.285", cap_manifest(1.285), 0,
     "5ec91dce1390f42dcbf714c96f2e0bc737898f633d0e73de282e0b2ac7fe2e40"),
]

# The prc-certificate/2 digests of the problems whose trees the split scale
# leaves alone: the Wermer scales are equal in x and y, and cap 1.0 proves at
# its root.
FORMAT_2_DIGESTS = {
    "wermer_r0.3": "f48c6f2d5a937073d24414408223187b1ac9df09b2115ddf13f2bcdd590a6dba",
    "wermer_r0.305": "bce5d4d23038ee3825ea5ae6afb3e696c10b43c1f2bc42cf6dfb804e967ce293",
    "cap_r1.0": "3de72751bbbf20e4a559b4d8a696fb0b7dbc9ee6f4d8e2b6217517435204e615",
}


def test_certificate_bytes_match_golden_digests(tmp_path):
    for name, manifest, exit_code, digest in GOLDEN_CERTIFICATES:
        out = tmp_path / f"{name}.cert.json"
        assert main(["certify", _write(tmp_path, f"{name}.json", manifest),
                     "--out", str(out)]) == exit_code, name
        assert hashlib.sha256(out.read_bytes()).hexdigest() == digest, name
        if name in FORMAT_2_DIGESTS:
            data = json.loads(out.read_text())
            data["format"] = "prc-certificate/2"
            del data["checks"]["omega_in_tube"]["split_scale"]
            text = dumps_json(data)
            assert hashlib.sha256(text.encode()).hexdigest() == FORMAT_2_DIGESTS[name]


# sha256 of `prc totally-real` reports and of a certificate for a graph that
# is not totally real at z = 0, recorded while each point was tested one at a
# time: the stacked test must give every verdict and sigma_min bit for bit.
# The wermer_r0.3 report was re-recorded when point values took product-chain
# powers and sorted-order sums: 88 of its 1,681 sigma_min moved in the last
# bit.  The certificate was re-recorded for prc-certificate/4: with no
# totally-real tree its witness is the tube tree's, at the same point.
_TR_FAIL_GRAPH = {
    "kind": "graph", "n": 2,
    "functions": ["conj(z1) + z1*conj(z1)", "conj(z2) + 0.3*z1*conj(z2)"],
    "compact": {"region": [{"shape": "box", "re": [-1.5, 0.5], "im": [-1, 1]},
                           {"shape": "disc", "center": [0, 0], "radius": 0.5}]}}
_TR_FAIL_CERT = {
    "kind": "graph", "n": 2,
    "functions": ["conj(z1)^2 + z1 + 0.1*z2*conj(z2)", "conj(z2) + 0.2*z1^2"],
    "compact": {"region": [{"shape": "disc", "center": [0, 0], "radius": 0.5}] * 2}}


_TR_GOLDEN = [
    ("wermer_r0.3", ["totally-real"], _wermer_manifest(0.3), 0,
     "d48d5087d4ccf1d700f59c429a0ed4a22c558b2266c054766cb831f66366ef18"),
    ("graph_not_totally_real", ["totally-real", "--grid", "9"], _TR_FAIL_GRAPH, 3,
     "44067484f0f2e63afb14147723d3d087a39480894dd906e4662f488d253591ac"),
    ("certify_totally_real_fail", ["certify"], _TR_FAIL_CERT, 3,
     "c36ed8f10184e1a73e6ea13aeabfae6ef754564c98e8c2f3d00a0f70acc8dd4b"),
]


# the ids are the names, so a re-recorded digest leaves them alone
@pytest.mark.parametrize("name, argv, manifest, exit_code, digest", _TR_GOLDEN,
                         ids=[case[0] for case in _TR_GOLDEN])
def test_totally_real_outputs_match_golden_digests(tmp_path, name, argv, manifest,
                                                   exit_code, digest):
    out = tmp_path / "out.json"
    assert main([argv[0], _write(tmp_path, "m.json", manifest), *argv[1:],
                 "--out", str(out)]) == exit_code
    assert hashlib.sha256(out.read_bytes()).hexdigest() == digest, name
    if argv == ["certify"]:
        # the tube tree FAILs exactly where M is not totally real: m is 0 there
        witness = json.loads(out.read_text())["witness"]
        assert witness["check"] == "omega_in_tube" and witness["radius"] == 0.0
        sys_, _, _, _ = load_manifest(manifest)
        assert m_value(sys_, [complex(*xy) for xy in witness["z"]]) == 0.0


def test_totally_real_zero_differential_exit_2(tmp_path, capsys):
    """The first grid point where Im(z1)^2 has a zero differential is named."""
    m = {"kind": "submersion", "n": 1, "k": 1, "functions": ["Im(z1)^2"],
         "compact": {"cap": {"center": [[0.0, 0.0]], "radii": [1.0]}}}
    assert main(["totally-real", _write(tmp_path, "m.json", m), "--grid", "5"]) == 2
    assert capsys.readouterr().err.endswith(
        "error: function #1 has zero differential at z=[(-1+0j)]: not a submersion\n")


def test_example2_certificate_matches_golden_digest(example2):
    """The example-2 certificate of the library is the cap 1.0 problem, so its
    bytes are those of the CLI's cap 1.0 certificate."""
    cert = certify(example2, CompactSpec.submersion_cap((0j, 0j), (1.0, 1.0)),
                   inflation=0.04, max_depth=30, node_budget=400_000)
    text = dumps_json(certificate_to_dict(cert))
    assert hashlib.sha256(text.encode()).hexdigest() == GOLDEN_CERTIFICATES[3][3]


# ---------------------------------------------------------------------------
# the JSON writer
# ---------------------------------------------------------------------------

# one output of each JSON command: argv after the command name, with {m} the
# manifest's path, and the exit code.  The pluriharmonic PASS certificate
# holds an infinite radius_lower.
_JSON_OUTPUTS = {
    "certify_pass": (["certify", "{m}"], _pluriharmonic_manifest(), 0),
    "certify_fail": (["certify", "{m}"], _wermer_manifest(1.0), 3),
    "certify_inconclusive": (["certify", "{m}", "--max-depth", "0"], _wermer_manifest(), 4),
    "totally_real": (["totally-real", "{m}", "--grid", "5"], _wermer_manifest(), 0),
    "hull_probe": (["hull-probe", "{m}", "--q", "0,0,0,2", "--degree", "2",
                    "--density", "24"], _wermer_manifest(1.0), 0),
    "reproduce": (["reproduce", "graph_over_r2"], None, 0),
}


@pytest.fixture(scope="module")
def json_outputs(tmp_path_factory):
    """The text of every output in _JSON_OUTPUTS."""
    tmp = tmp_path_factory.mktemp("json_outputs")
    texts = {}
    for name, (argv, manifest, exit_code) in _JSON_OUTPUTS.items():
        if manifest is not None:
            argv = [a.format(m=_write(tmp, f"{name}.json", manifest)) for a in argv]
        out = tmp / f"{name}.out.json"
        assert main([*argv, "--out", str(out)]) == exit_code, name
        texts[name] = out.read_text()
    return texts


@pytest.mark.parametrize("name", list(_JSON_OUTPUTS))
def test_json_outputs_are_one_canonical_line(json_outputs, name):
    text = json_outputs[name]
    assert text.endswith("\n") and text.count("\n") == 1
    assert text == dumps_json(json.loads(text))


@pytest.mark.parametrize("name", list(_JSON_OUTPUTS))
def test_json_outputs_hold_no_non_finite_constant(json_outputs, name):
    def refuse(constant):
        raise AssertionError(f"{name} holds {constant}")

    json.loads(json_outputs[name], parse_constant=refuse)


def test_non_finite_certificate_output_is_written_as_strings(json_outputs):
    """An output holds a non-finite bound, so the test above is not vacuous."""
    report = json.loads(json_outputs["certify_pass"])["checks"]["omega_in_tube"]["report"]
    assert report["radius_lower"] == "inf"


def test_dumps_json_refuses_unsanitized_non_finite_floats():
    for x in (math.inf, -math.inf, math.nan):
        with pytest.raises(ValueError):
            dumps_json({"bound": x})


def test_json_write_logged_at_info(tmp_path, monkeypatch, caplog):
    """One INFO line per output with its byte count and write time; the time
    goes to the log only, so two runs still write the same bytes."""
    monkeypatch.setenv("PRC_LOG", "info")
    path = _write(tmp_path, "w.json", _wermer_manifest())
    outs = [tmp_path / "c1.json", tmp_path / "c2.json"]
    with caplog.at_level(logging.INFO, logger="prc"):
        for out in outs:
            assert main(["certify", path, "--out", str(out)]) == 0
    lines = [r.getMessage() for r in caplog.records if r.name == "prc"]
    assert len(lines) == 2
    for line, out in zip(lines, outs):
        m = re.fullmatch(r"wrote (\d+) bytes of JSON to (.+) in \d+\.\d{4} s", line)
        assert m, line
        assert (int(m[1]), m[2]) == (out.stat().st_size, str(out))
    assert outs[0].read_bytes() == outs[1].read_bytes()


# ---------------------------------------------------------------------------
# import hygiene
# ---------------------------------------------------------------------------

_COLD_START = """
import sys
import prc
import prc.cli
code = prc.cli.main(["certify", sys.argv[1], "--out", sys.argv[2]])
assert code == 0, code
assert "scipy" not in sys.modules, "import prc or prc certify loaded scipy"
try:
    prc.nope
except AttributeError:
    pass
else:
    raise AssertionError("prc.nope resolved")
from prc import SampleCloud
import prc.hullprobe
assert prc.probe is prc.hullprobe.probe
assert SampleCloud is prc.hullprobe.SampleCloud
assert callable(prc.hullprobe.linprog)
namespace = {}
exec("from prc import *", namespace)
missing = [name for name in prc.__all__ if name not in namespace]
assert not missing, missing
cloud = prc.sample_compact(prc.wermer_system(), prc.wermer_compact(1.0), density=8)
assert "scipy.optimize" not in sys.modules, "the hull probe loaded scipy before an LP"
prc.probe(cloud, [0j, 0j], degree=2)
assert "scipy.optimize" in sys.modules
"""


def test_certify_process_does_not_load_scipy(tmp_path):
    """scipy serves only the hull probe's LP: importing prc and certifying
    in a fresh interpreter must not load it, while the hull-probe names of
    the package still resolve on first use.  Importing `prc.hullprobe` and
    sampling a cloud do not load it either; the first probe does."""
    src = Path(__file__).resolve().parent.parent / "src"
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(src)] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    proc = subprocess.run(
        [sys.executable, "-c", _COLD_START, _write(tmp_path, "w.json", _wermer_manifest()),
         str(tmp_path / "w.cert.json")],
        env=env, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
