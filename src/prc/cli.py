"""Command-line front end: manifests in, certificates/reports/CSV profiles out.

Exit codes: 0 success (certify: PASS), 2 input error, 3 FAIL / not totally
real, 4 INCONCLUSIVE.  Set PRC_LOG to error|warn|info|debug for logging.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import logging
import math
import os
import sys as _sys
import time

import numpy as np

from . import trgeom
from .certify import (DEFAULT_OPTIONS, ManifestError,
                      _region_bbox, certificate_to_dict, certify as run_certify,
                      dumps_json, load_manifest,
                      reproduce_example, sanitize_json, validate_options)
from .trgeom import GRAPH

log = logging.getLogger("prc")

EXIT_OK = 0
EXIT_INPUT = 2
EXIT_FAIL = 3
EXIT_INCONCLUSIVE = 4

_ANGLES = 16
# least admissible value of the integer flags that no library call checks
_FLAG_MINIMA = {"threads": 1, "grid": 1, "steps": 2}
# most points of a totally-real mesh: each one is kept and written as JSON
_MAX_GRID_POINTS = 100_000
# the most points per real coordinate of a default mesh
_DEFAULT_GRID = 41


def _setup_logging():
    level = os.environ.get("PRC_LOG", "warn").lower()
    levels = {"error": logging.ERROR, "warn": logging.WARNING,
              "info": logging.INFO, "debug": logging.DEBUG}
    logging.basicConfig(level=levels.get(level, logging.WARNING),
                        format="%(levelname)s %(name)s: %(message)s")


def _dump_json(obj, out_path: str | None) -> None:
    """Write `obj`, already passed through sanitize_json, with dumps_json;
    log its size and the time the write took (the time never enters a file)."""
    start = time.perf_counter()
    text = dumps_json(obj)
    if out_path:
        with open(out_path, "w") as f:
            f.write(text)
    else:
        _sys.stdout.write(text)
    # dumps_json escapes every non-ASCII character, so characters are bytes
    log.info("wrote %d bytes of JSON to %s in %.4f s", len(text),
             out_path or "stdout", time.perf_counter() - start)


def _load_manifest_file(path: str):
    with open(path) as f:
        data = json.load(f)
    return load_manifest(data)


def _check_flags(args) -> None:
    for name, least in _FLAG_MINIMA.items():
        value = getattr(args, name, None)
        if value is not None and value < least:
            raise ManifestError(f"--{name} must be >= {least}, got {value}")


def _flag_options(args) -> dict:
    """The certify options given as --max-depth, --margin and --inflation."""
    return {key: getattr(args, key) for key in ("max_depth", "margin", "inflation")
            if getattr(args, key) is not None}


# ---------------------------------------------------------------------------
# Subcommands
# ---------------------------------------------------------------------------

def cmd_totally_real(args) -> int:
    sys_, K, _, _ = _load_manifest_file(args.manifest)
    lo, hi = _region_bbox(K.regions)
    g = args.grid
    if g is None:  # the finest mesh of at most _DEFAULT_GRID points per axis that fits
        g = max(k for k in range(1, _DEFAULT_GRID + 1) if k ** len(lo) <= _MAX_GRID_POINTS)
    if g ** len(lo) > _MAX_GRID_POINTS:
        raise ManifestError(
            f"--grid {g} asks for grid^(2n) = {g}^{len(lo)} = {g ** len(lo)} points; "
            f"at most {_MAX_GRID_POINTS} are evaluated, so pass a smaller --grid")
    axes = [np.linspace(lo[i], hi[i], g) if hi[i] > lo[i] else np.array([lo[i]])
            for i in range(len(lo))]
    mesh = np.stack([a.ravel() for a in np.meshgrid(*axes, indexing="ij")], axis=1)
    res = trgeom.totally_real(sys_, mesh)
    # built already sanitized: the mesh is finite, or the test above raised
    results = [{"z": [row[k:k + 2] for k in range(0, len(row), 2)], "sigma_min": s,
                "totally_real": ok}
               for row, s, ok in zip(mesh.tolist(), sanitize_json(res["sigma_min"].tolist()),
                                     res["totally_real"].tolist())]
    all_ok = all(entry["totally_real"] for entry in results)
    report = {"grid": g, "points": len(results), "all_totally_real": all_ok,
              "results": results}
    if not all_ok:
        report["witness"] = next(e for e in results if not e["totally_real"])
    _dump_json(report, args.out)
    return EXIT_OK if all_ok else EXIT_FAIL


def cmd_tube_profile(args) -> int:
    sys_, K, _, _ = _load_manifest_file(args.manifest)
    start = _parse_point(args.ray_from, sys_.n, "--ray-from")
    end = _parse_point(args.ray_to, sys_.n, "--ray-to")
    steps = args.steps
    zs = [tuple(s + (e - s) * t / (steps - 1) for s, e in zip(start, end))
          for t in range(steps)]
    profile = trgeom.tube_profile(sys_, zs)
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    header = []
    for j in range(sys_.n):
        header += [f"re_z{j+1}", f"im_z{j+1}"]
    header += ["m", "L", "radius"]
    writer.writerow(header)
    for pt in profile.points:
        row = []
        for c in pt.z:
            row += [repr(c.real), repr(c.imag)]
        radius = "inf" if math.isinf(pt.radius) else repr(pt.radius)
        row += [repr(pt.m), repr(pt.L), radius]
        writer.writerow(row)
    text = buf.getvalue()
    if args.out:
        with open(args.out, "w") as f:
            f.write(text)
    else:
        _sys.stdout.write(text)
    return EXIT_OK


def _parse_point(text: str, n: int, flag: str) -> tuple[complex, ...]:
    parts = [p for p in text.replace(";", ",").split(",") if p.strip()]
    try:
        vals = [float(p) for p in parts]
    except ValueError:  # a part that is not a number
        vals = None
    if vals is None or len(vals) != 2 * n:
        raise ManifestError(
            f"{flag} needs {2*n} comma-separated reals (re,im per coordinate), "
            f"got {text!r}")
    if not all(map(math.isfinite, vals)):
        raise ManifestError(f"{flag} must have finite coordinates, got {text!r}")
    return tuple(complex(vals[2 * j], vals[2 * j + 1]) for j in range(n))


def cmd_certify(args) -> int:
    sys_, K, omega, manifest_opts = _load_manifest_file(args.manifest)
    # defaults, then the manifest, then the flags, all checked before any work
    opts = validate_options({**DEFAULT_OPTIONS, **manifest_opts, **_flag_options(args)})
    cert = run_certify(sys_, K, omega, max_depth=opts["max_depth"],
                       margin=opts["margin"], inflation=opts["inflation"],
                       node_budget=opts["node_budget"])
    _dump_json(certificate_to_dict(cert), args.out)
    return {"PASS": EXIT_OK, "FAIL": EXIT_FAIL,
            "INCONCLUSIVE": EXIT_INCONCLUSIVE}[cert.verdict]


def cmd_hull_probe(args) -> int:
    from . import hullprobe  # only this command; scipy loads at its first LP

    sys_, K, _, _ = _load_manifest_file(args.manifest)
    ambient = 2 * sys_.n if sys_.kind == GRAPH else sys_.n
    q = _parse_point(args.q, ambient, "--q")
    cloud = hullprobe.sample_compact(sys_, K, density=args.density)
    result = hullprobe.probe(cloud, q, degree=args.degree, angles=_ANGLES,
                             margin=args.margin)
    if result.separated:
        dense = hullprobe.sample_compact(sys_, K, density=args.density * 3)
        result = hullprobe.fragility_check(result, q, dense)
    report = {
        "hull_probe": {
            "evidence_only": True,
            "q": [[c.real, c.imag] for c in q],
            "degree": result.degree,
            "angles": result.angles,
            "margin": result.margin,
            "cloud_size": int(cloud.points.shape[0]),
            "separated": result.separated,
            "ratio": result.ratio,
            "objective": result.objective,
            "fragile": result.fragile,
            "rounds": result.rounds,
            "active_rows": result.active_rows,
            "coefficients": [[c.real, c.imag] for c in result.coefficients],
        }
    }
    _dump_json(sanitize_json(report), args.out)
    return EXIT_OK


def cmd_reproduce(args) -> int:
    params = _flag_options(args)
    validate_options({**DEFAULT_OPTIONS, **params})  # a bad flag exits 2 before any work
    if "inflation" in params and args.name == "graph_over_r2":  # which calls it eps
        params["eps"] = params.pop("inflation")
    report = reproduce_example(args.name, params)
    _dump_json(report, args.out)
    return EXIT_OK


# ---------------------------------------------------------------------------
# Entry point
# ---------------------------------------------------------------------------

def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="prc",
        description="Polynomial-convexity certification toolkit")
    sub = p.add_subparsers(dest="command", required=True)

    def common(sp, manifest=True):
        if manifest:
            sp.add_argument("manifest", help="problem manifest (JSON)")
        sp.add_argument("--out", default=None, help="output path (default stdout)")
        sp.set_defaults(parser=sp)  # main reports unknown flags with its usage

    def certify_options(sp):
        # unset flags leave the manifest's options and DEFAULT_OPTIONS in force
        sp.add_argument("--max-depth", type=int, default=None)
        sp.add_argument("--margin", type=float, default=None)
        sp.add_argument("--inflation", type=float, default=None)

    sp = sub.add_parser("totally-real", help="grid total-reality check")
    common(sp)
    sp.add_argument("--grid", type=int, default=None,
                    help=f"points per real axis (default: the most up to {_DEFAULT_GRID} that fit)")
    sp.set_defaults(fn=cmd_totally_real)

    sp = sub.add_parser("tube-profile", help="CSV of m, L, radius along a ray")
    common(sp)
    sp.add_argument("--ray-from", required=True,
                    help="start point: re,im per coordinate")
    sp.add_argument("--ray-to", required=True, help="end point: re,im per coordinate")
    sp.add_argument("--steps", type=int, default=101)
    sp.set_defaults(fn=cmd_tube_profile)

    sp = sub.add_parser("certify", help="emit a certification certificate")
    common(sp)
    certify_options(sp)
    sp.add_argument("--threads", type=int, default=1,
                    help="accepted for compatibility and ignored: every "
                         "check runs in one thread")
    sp.set_defaults(fn=cmd_certify)

    sp = sub.add_parser("hull-probe", help="polynomial separation probe")
    common(sp)
    sp.add_argument("--q", required=True,
                    help="query point: re,im per ambient coordinate")
    sp.add_argument("--degree", type=int, default=6)
    sp.add_argument("--density", type=int, default=64)
    sp.add_argument("--margin", type=float, default=0.05,
                    help="separated when |p(q)| > (1 + margin) max |p| on the sample of K")
    sp.set_defaults(fn=cmd_hull_probe)

    sp = sub.add_parser("reproduce", help="reproduce a worked example")
    common(sp, manifest=False)
    certify_options(sp)
    sp.add_argument("name", choices=["wermer", "graph_over_r2"])
    sp.set_defaults(fn=cmd_reproduce)
    return p


def main(argv=None) -> int:
    _setup_logging()
    parser = build_parser()
    args, extra = parser.parse_known_args(argv)
    if extra:  # named with the usage of the subcommand that was given them
        args.parser.error(f"unrecognized arguments: {' '.join(extra)}")
    try:
        _check_flags(args)
        return args.fn(args)
    except (ManifestError, OSError, json.JSONDecodeError, ValueError, OverflowError) as exc:
        if isinstance(exc, OverflowError):
            exc = "floating-point overflow: the problem's values leave the range of doubles"
        _sys.stderr.write(f"error: {exc}\n")
        return EXIT_INPUT


if __name__ == "__main__":
    raise SystemExit(main())
