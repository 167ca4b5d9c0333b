"""End-to-end certificates: K in omega and omega in the tube.

A PASS certificate witnesses the containment chain

    K  subset  omega  subset  { residual sum < m/(cL) }

with omega an open polydisc (the only omega shape admitted in v1; the
sub-level function Psi is never materialized).  FAIL carries a concrete
witness point; INCONCLUSIVE arises only from subdivision-depth or node-budget
exhaustion.

The tube tree of a certificate lives on the z-box of omega; for a graph the
w polydisc enters the tube bound in closed form.  A box is PROVED only where
its lower bound of m is positive, so a PROVED tube tree also proves M totally
real on omega.  replay_certificate re-derives the tube tree from that root,
so it checks coverage as well as every leaf.
"""

from __future__ import annotations

import cmath
import hashlib
import json
import math
from dataclasses import asdict, dataclass
from fractions import Fraction
from typing import Sequence

import numpy as np

from . import rigor
from .intervals import INFLATION, ParamBox
from .realpoly import dist_upper, finite_or_overflow
# unused verify_totally_real: the benchmark's traced run wraps it; ROADMAP item 9 removes it
from .rigor import (FAILED, FAILED_CODE, INCONCLUSIVE_CODE, PROVED, PROVED_CODE, Leaves,
                    Region, _BoxBounds, verify_box, verify_totally_real)
from .trgeom import GRAPH, SUBMERSION, ProblemSystem, bbar_matrix, tube_profile


class ManifestError(ValueError):
    """Malformed problem manifest or unknown option keys."""


# ---------------------------------------------------------------------------
# Compact sets and omega polydiscs
# ---------------------------------------------------------------------------

def _check_disc(center, radius, center_name: str, radius_name: str) -> None:
    if not cmath.isfinite(center):
        raise ValueError(f"{center_name} must be finite, got {center!r}")
    if not (math.isfinite(radius) and radius > 0):
        raise ValueError(f"{radius_name} must be a finite number > 0, got {radius!r}")


@dataclass(frozen=True)
class DiscRegion:
    """Closed disc |z - center| <= radius in one complex coordinate."""

    center: complex
    radius: float

    def __post_init__(self):
        _check_disc(self.center, self.radius, "DiscRegion.center", "DiscRegion.radius")


@dataclass(frozen=True)
class BoxRegion:
    """Closed rectangle [re_lo, re_hi] x [im_lo, im_hi] in one complex coordinate."""

    re_lo: float
    re_hi: float
    im_lo: float
    im_hi: float

    def __post_init__(self):
        for side, lo, hi in (("re", self.re_lo, self.re_hi), ("im", self.im_lo, self.im_hi)):
            if not (math.isfinite(lo) and math.isfinite(hi) and lo <= hi):
                raise ValueError(f"BoxRegion.{side} must be finite with lo <= hi, "
                                 f"got [{lo!r}, {hi!r}]")


@dataclass(frozen=True)
class CompactSpec:
    """K, cut out of M by one region per complex coordinate z_j: for a graph
    system, the graph of F over their product D; for a submersion system, M
    within the closed polydisc cap, whose regions are discs."""

    kind: str
    regions: tuple[DiscRegion | BoxRegion, ...]

    @staticmethod
    def graph_over(regions: Sequence[DiscRegion | BoxRegion]) -> CompactSpec:
        return CompactSpec(GRAPH, tuple(regions))

    @staticmethod
    def submersion_cap(center: Sequence[complex], radii: Sequence[float]) -> CompactSpec:
        return CompactSpec(SUBMERSION, tuple(DiscRegion(complex(c), float(r))
                                             for c, r in zip(center, radii, strict=True)))

    def check_fits(self, sys: ProblemSystem) -> None:
        """Raise ManifestError unless K is of the system's kind, with one
        region per z coordinate."""
        if self.kind != sys.kind:
            raise ManifestError(
                f"compact kind {self.kind!r} does not match system kind {sys.kind!r}")
        if len(self.regions) != sys.n:
            raise ManifestError(f"K needs one region per z coordinate ({sys.n}), "
                                f"got {len(self.regions)}")


@dataclass(frozen=True)
class OmegaSpec:
    """Open polydisc: per-coordinate centers and radii (z part, plus w part
    for graph problems)."""

    z_center: tuple[complex, ...]
    z_radii: tuple[float, ...]
    w_center: tuple[complex, ...] | None = None
    w_radii: tuple[float, ...] | None = None

    def __post_init__(self):
        if (self.w_center is None) != (self.w_radii is None):
            raise ValueError("OmegaSpec.w_center and w_radii must be given together")
        for part, centers, radii in (("z", self.z_center, self.z_radii),
                                     ("w", self.w_center or (), self.w_radii or ())):
            if len(centers) != len(radii):
                raise ValueError(f"OmegaSpec.{part}_center has {len(centers)} entries "
                                 f"and {part}_radii {len(radii)}")
            for j, (c, r) in enumerate(zip(centers, radii)):
                _check_disc(c, r, f"OmegaSpec.{part}_center[{j}]", f"OmegaSpec.{part}_radii[{j}]")

    def region(self) -> Region:
        discs = [(c.real, c.imag, r) for c, r in zip(self.z_center, self.z_radii)]
        if self.w_center is not None:
            discs += [(c.real, c.imag, r) for c, r in zip(self.w_center, self.w_radii)]
        return Region(tuple(discs))

    def z_box(self, n: int) -> ParamBox:
        """Bounding box of the z polydisc: the root of both subdivisions."""
        return ParamBox(n, *_region_bbox(list(map(DiscRegion, self.z_center, self.z_radii))))


@dataclass
class Certificate:
    verdict: str
    problem_hash: str
    problem: dict
    omega: OmegaSpec
    checks: dict
    options: dict
    tolerances: dict
    witness: dict | None = None


# ---------------------------------------------------------------------------
# Region helpers
# ---------------------------------------------------------------------------

def _region_bbox(regions: Sequence[DiscRegion | BoxRegion]) -> tuple[list[float], list[float]]:
    lo, hi = [], []
    for reg in regions:
        if isinstance(reg, DiscRegion):
            lo += [reg.center.real - reg.radius, reg.center.imag - reg.radius]
            hi += [reg.center.real + reg.radius, reg.center.imag + reg.radius]
        else:
            lo += [reg.re_lo, reg.im_lo]
            hi += [reg.re_hi, reg.im_hi]
    return lo, hi


def _region_discs(regions: Sequence[DiscRegion | BoxRegion]) -> Region | None:
    """Pruning region for the parameter set D (None when D is all boxes, which
    are exact); a box enters as its enclosing disc, which never prunes more
    than the box itself."""
    if not any(isinstance(reg, DiscRegion) for reg in regions):
        return None
    return Region(tuple((c.real, c.imag, max(r, 1e-300))
                        for c, r in map(_enclosing_disc, regions)))


def _enclosing_disc(reg: DiscRegion | BoxRegion) -> tuple[complex, float]:
    if isinstance(reg, DiscRegion):
        return reg.center, reg.radius
    c = complex(0.5 * (reg.re_lo + reg.re_hi), 0.5 * (reg.im_lo + reg.im_hi))
    return c, math.hypot(reg.re_hi - reg.re_lo, reg.im_hi - reg.im_lo) / 2


def _farthest_point(reg: DiscRegion | BoxRegion, center: complex) -> complex:
    """The point of the region farthest from `center`: the first such corner
    of a box, and centre + radius * (centre - center) / |centre - center| of
    a disc (centre + radius when the two centres agree)."""
    if isinstance(reg, DiscRegion):
        away = reg.center - center
        return reg.center + reg.radius * (away / abs(away) if away else 1.0)
    corners = [complex(reg.re_lo, reg.im_lo), complex(reg.re_lo, reg.im_hi),
               complex(reg.re_hi, reg.im_lo), complex(reg.re_hi, reg.im_hi)]
    return max(corners, key=lambda c: abs(c - center))


def _grid_cells(lo: Sequence[float], hi: Sequence[float], per_axis: int,
                prune: Region | None):
    """Uniform grid cells over the box, as (cells, dims) arrays of their lower
    and upper corners, without the cells that miss the region."""
    lo = np.asarray(lo, dtype=float)
    hi = np.asarray(hi, dtype=float)
    steps = np.where(hi > lo, (hi - lo) / per_axis, 0.0)
    flat = steps == 0.0
    idx = np.indices([1 if f else per_axis for f in flat]).reshape(len(lo), -1).T
    cl = np.where(flat, lo, lo + idx * steps)
    ch = np.where(flat, hi, lo + (idx + 1) * steps)
    if prune is not None:
        inside = prune.clip(cl, ch)[2]
        cl, ch = cl[inside], ch[inside]
    return cl, ch


def _image_grid(n: int) -> int:
    # fine enough that the enclosure slack is small against the inflation
    return {1: 64, 2: 12}.get(n, 4)


# ---------------------------------------------------------------------------
# suggest_omega
# ---------------------------------------------------------------------------

def suggest_omega(sys: ProblemSystem, K: CompactSpec, inflation: float) -> OmegaSpec:
    """Inflate K into a candidate omega polydisc.

    The z-polydisc encloses each region of K with `inflation` slack.  A graph
    also gets a w-polydisc that encloses a subdivided interval enclosure of F
    over D (region-pruned cells, so the enclosure tracks F(D) rather than the
    bounding-box image) with the same slack.
    """
    if inflation <= 0:
        raise ValueError("inflation must be positive")
    K.check_fits(sys)
    z_center, z_radii = [], []
    for reg in K.regions:
        c, r = _enclosing_disc(reg)
        z_center.append(c)
        z_radii.append(r + inflation)
    if sys.kind == SUBMERSION:
        return OmegaSpec(tuple(z_center), tuple(z_radii))

    lo, hi = _region_bbox(K.regions)
    cl, ch = _grid_cells(lo, hi, _image_grid(sys.n), _region_discs(K.regions))
    # an enclosure that left the doubles can give omega no finite w disc
    vals = finite_or_overflow(_BoxBounds(sys).values(cl, ch), "the enclosure of F over D")
    w_center, w_radii = [], []
    for nu in range(sys.rows):
        rlo, rhi, ilo, ihi = vals[:, nu].T
        c = complex(0.5 * (rlo.min() + rhi.max()), 0.5 * (ilo.min() + ihi.max()))
        w_center.append(c)
        w_radii.append(float(dist_upper(vals[:, nu], c.real, c.imag).max()) + inflation)
    return OmegaSpec(tuple(z_center), tuple(z_radii), tuple(w_center), tuple(w_radii))


# ---------------------------------------------------------------------------
# K in omega
# ---------------------------------------------------------------------------

def _check_k_in_omega(sys: ProblemSystem, K: CompactSpec, omega: OmegaSpec,
                      max_depth: int, node_budget: int) -> dict:
    # each region of K inside its omega z disc (a submersion's K lies in the
    # cap, so that is all it needs) ...
    z_margins = []
    for reg, oc, orad in zip(K.regions, omega.z_center, omega.z_radii):
        if isinstance(reg, DiscRegion):
            z_margins.append(orad - (abs(reg.center - oc) + reg.radius))
        else:
            z_margins.append(orad - abs(_farthest_point(reg, oc) - oc))
    key = "margins" if sys.kind == SUBMERSION else "z_margins"  # as certificates have it
    if not all(m > 0 for m in z_margins):
        # a point of the regions' product outside omega: region centres, but
        # in the worst coordinate the point of its region farthest from omega
        j = z_margins.index(min(z_margins))
        z = [_enclosing_disc(reg)[0] for reg in K.regions]
        z[j] = _farthest_point(K.regions[j], omega.z_center[j])
        return {"status": FAILED, key: z_margins,
                "witness": {"z": [[p.real, p.imag] for p in z], "coordinate": j}}
    if sys.kind == SUBMERSION:
        return {"status": PROVED, key: z_margins}

    # ... and, for a graph, F(D) inside omega_w, by adaptive enclosure refinement
    prune = _region_discs(K.regions)
    bb = _BoxBounds(sys)
    centers = np.array(omega.w_center)
    radii = np.array(omega.w_radii)

    def evaluate(lo, hi):
        far = dist_upper(bb.values(lo, hi), centers.real, centers.imag) >= radii
        codes = np.zeros(len(lo), dtype=np.int8)
        missed = np.nonzero(far.any(axis=1))[0]
        if not len(missed):
            return codes, None, None
        # pointwise check before splitting: a graph point (over a parameter
        # inside D) outside omega_w is a definite failure
        pts = rigor.probe_points(lo[missed], hi[missed], prune)
        fv = sys.evaluate("value", pts)
        off = np.hypot(fv.real - centers.real, fv.imag - centers.imag) >= radii * (1.0 - 1e-12)
        bad = off.any(axis=1)
        codes[missed] = np.where(bad, FAILED_CODE, INCONCLUSIVE_CODE)
        if not bad.any():
            return codes, None, None
        i = int(np.argmax(bad))
        return codes, None, {"z": pts[i].reshape(-1, 2).tolist(),
                             "w": [[v.real, v.imag] for v in fv[i].tolist()],
                             "coordinate": int(np.argmax(off[i]))}

    lo, hi = _region_bbox(K.regions)
    root = rigor.subdivide(ParamBox(sys.n, lo, hi), evaluate, max_depth,
                           node_budget, prune, "K in omega")
    # every node but an OUTSIDE leaf was checked, and a tree of L leaves has 2L - 1 nodes
    out = {"status": root.status, "z_margins": z_margins,
           "cells_checked": 2 * len(root.leaves.depth) - 1 - int(root.leaves.outside.sum())}
    if root.witness is not None:
        out["witness"] = root.witness
    return out


# ---------------------------------------------------------------------------
# certify
# ---------------------------------------------------------------------------

DEFAULT_OPTIONS = {"max_depth": 14, "margin": 1e-6, "inflation": 0.05,
                   "node_budget": 500_000}


def validate_options(opts: dict) -> dict:
    """Check certify options and return them with canonical types.

    max_depth >= 0 and node_budget >= 1 are integers; margin lies in [0, 1)
    and inflation is positive, both finite.  Raises ManifestError naming the
    first bad option.
    """
    out = dict(opts)
    for key, least in (("max_depth", 0), ("node_budget", 1)):
        v = out[key]
        if (isinstance(v, bool) or not isinstance(v, (int, float))
                or not math.isfinite(v) or v != int(v) or v < least):
            raise ManifestError(f"{key} must be an integer >= {least}, got {v!r}")
        out[key] = int(v)
    for key in ("margin", "inflation"):
        v = out[key]
        if isinstance(v, bool) or not isinstance(v, (int, float)):
            raise ManifestError(f"{key} must be a number, got {v!r}")
        out[key] = float(v)
    if not 0.0 <= out["margin"] < 1.0:
        raise ManifestError(f"margin must lie in [0, 1), got {out['margin']!r}")
    if not 0.0 < out["inflation"] < math.inf:
        raise ManifestError(
            f"inflation must be positive and finite, got {out['inflation']!r}")
    return out


def certify(sys: ProblemSystem, K: CompactSpec, omega: OmegaSpec | None = None,
            *, max_depth: int = 14, margin: float = 1e-6, inflation: float = 0.05,
            threads: int = 1, node_budget: int = 500_000) -> Certificate:
    """Run the two checks of the certification chain and assemble a certificate.

    PASS requires (a) K inside omega by enclosure and (b) the tube inclusion
    PROVED over omega.  A box of (b) is PROVED only where its rigorous lower
    bound of m is positive, so (b) also proves M totally real over the
    z-projection of omega.  FAIL carries a witness point; INCONCLUSIVE
    arises only from depth/budget exhaustion.  The options are checked by
    validate_options.  `threads` is accepted and ignored: every check runs
    in the calling thread, and the output never depended on it.
    """
    opts = validate_options({"max_depth": max_depth, "margin": margin,
                             "inflation": inflation, "node_budget": node_budget})
    max_depth, node_budget = opts["max_depth"], opts["node_budget"]
    K.check_fits(sys)
    if omega is None:
        omega = suggest_omega(sys, K, opts["inflation"])
    if sys.kind == GRAPH and omega.w_center is None:
        raise ManifestError("graph omega needs a w polydisc")
    if sys.kind == SUBMERSION and omega.w_center is not None:
        raise ManifestError("submersion omega has no w polydisc")

    k_check = _check_k_in_omega(sys, K, omega, max_depth, node_budget)

    tube_root = verify_box(sys, omega.z_box(sys.n), max_depth=max_depth,
                           margin=opts["margin"], region=omega.region(),
                           node_budget=node_budget)
    tube_check = {
        "status": tube_root.status,
        "report": asdict(tube_root.report),
        "split_scale": list(tube_root.split_scale),
        "leaves": _leaf_dicts(tube_root.leaves),
    }
    if tube_root.witness is not None:
        tube_check["witness"] = tube_root.witness

    checks = {"k_in_omega": k_check, "omega_in_tube": tube_check}
    statuses = [k_check["status"], tube_check["status"]]
    witness = None
    if all(s == PROVED for s in statuses):
        verdict = "PASS"
    elif FAILED in statuses:
        verdict = "FAIL"
        for name in ("k_in_omega", "omega_in_tube"):
            w = checks[name].get("witness")
            if checks[name]["status"] == FAILED and w is not None:
                witness = dict(w)
                witness["check"] = name
                break
    else:
        verdict = "INCONCLUSIVE"

    problem = problem_manifest(sys, K)
    tolerances = {
        "epsilon_inflation_per_op": INFLATION,
        "violation_guard": 1e-9,
    }
    return Certificate(verdict=verdict, problem_hash=manifest_hash(problem),
                       problem=problem, omega=omega, checks=checks,
                       options=opts, tolerances=tolerances, witness=witness)


def _leaf_dicts(leaves: Leaves) -> list[dict]:
    """Each tube leaf as a certificate lists it: box, status and depth, and
    its bounds unless it is an OUTSIDE leaf."""
    keys = ("m_lower", "L_upper", "residual_upper")
    return [{"box": box, "status": status, "depth": depth,
             **({} if status == "OUTSIDE" else dict(zip(keys, values)))}
            for box, status, depth, values in zip(
                np.stack([leaves.lo, leaves.hi], axis=-1).tolist(), leaves.statuses(),
                leaves.depth.tolist(), leaves.values.tolist())]


# ---------------------------------------------------------------------------
# Manifests, hashing, JSON
# ---------------------------------------------------------------------------

def problem_manifest(sys: ProblemSystem, K: CompactSpec) -> dict:
    from .expr import format_expr

    m = {"kind": sys.kind, "n": sys.n,
         "functions": [format_expr(e) for e in sys.exprs]}
    if sys.kind == SUBMERSION:
        m["k"] = sys.k
        m["compact"] = {"cap": {
            "center": [[reg.center.real, reg.center.imag] for reg in K.regions],
            "radii": [reg.radius for reg in K.regions]}}
    else:
        m["compact"] = {"region": [_region_to_json(r) for r in K.regions]}
    return m


def _region_to_json(reg: DiscRegion | BoxRegion) -> dict:
    if isinstance(reg, DiscRegion):
        return {"shape": "disc", "center": [reg.center.real, reg.center.imag],
                "radius": reg.radius}
    return {"shape": "box", "re": [reg.re_lo, reg.re_hi], "im": [reg.im_lo, reg.im_hi]}


def manifest_hash(problem: dict) -> str:
    payload = json.dumps(sanitize_json(problem), sort_keys=True,
                         separators=(",", ":"))
    return hashlib.sha256(payload.encode()).hexdigest()


def sanitize_json(obj):
    """A copy of `obj` for JSON: dicts walked, tuples written as lists, and
    each non-finite float (np.float64 too) replaced by the string "inf",
    "-inf" or "nan".  One pass that dispatches on the exact type; the finite
    floats, most of a certificate, are kept without a call (x - x is 0.0
    for a finite float and NaN for inf and NaN)."""
    t = type(obj)
    if t is dict:
        return {k: v if type(v) is float and v - v == 0.0 else sanitize_json(v)
                for k, v in obj.items()}
    if t is list or t is tuple:
        return [v if type(v) is float and v - v == 0.0 else sanitize_json(v)
                for v in obj]
    if t is str or not isinstance(obj, float):
        return obj
    if math.isinf(obj):
        return "inf" if obj > 0 else "-inf"
    if math.isnan(obj):
        return "nan"
    return obj


# the strings sanitize_json writes for the non-finite floats
_NON_FINITE = {"inf": math.inf, "-inf": -math.inf, "nan": math.nan}


def _unsanitize(obj):
    """The inverse of sanitize_json on parsed JSON, in one pass."""
    t = type(obj)
    if t is dict:
        return {k: _unsanitize(v) for k, v in obj.items()}
    if t is list:
        return [v if type(v) is float else _unsanitize(v) for v in obj]
    if t is str:
        return _NON_FINITE.get(obj, obj)
    return obj


def dumps_json(obj) -> str:
    """`obj`, already passed through sanitize_json, as one line of JSON with
    sorted keys and a final newline: the format of every JSON file prc
    writes.  CPython's C encoder writes it (it serves no `indent`).  Raises
    ValueError on a non-finite float, which sanitize_json would have named."""
    return json.dumps(obj, sort_keys=True, separators=(",", ":"), allow_nan=False) + "\n"


def _positive_int(value, name: str) -> int:
    """A JSON integer >= 1 (not a bool)."""
    if type(value) is not int or value < 1:
        raise ManifestError(f"{name} must be an integer >= 1, got {value!r}")
    return value


def _is_real(x) -> bool:
    return isinstance(x, (int, float)) and not isinstance(x, bool) and math.isfinite(x)


def _pair(value, name: str) -> tuple[float, float]:
    """Exactly two finite JSON numbers: a center's re and im, or a box side."""
    if not (isinstance(value, (list, tuple)) and len(value) == 2
            and all(map(_is_real, value))):
        raise ManifestError(f"{name} must be two finite numbers, got {value!r}")
    return float(value[0]), float(value[1])


def _radius(value, name: str) -> float:
    if not (_is_real(value) and value > 0):
        raise ManifestError(f"{name} must be a finite number > 0, got {value!r}")
    return float(value)


def _discs(data, name: str, count: int) -> tuple[tuple[complex, ...], tuple[float, ...]]:
    """`count` centers and radii from {"center": [...], "radii": [...]}."""
    centers, radii = data["center"], data["radii"]
    if not (isinstance(centers, list) and isinstance(radii, list)
            and len(centers) == len(radii) == count):
        raise ManifestError(f"{name} needs {count} centers and radii")
    return (tuple(complex(*_pair(c, f"{name}.center[{j}]")) for j, c in enumerate(centers)),
            tuple(_radius(r, f"{name}.radii[{j}]") for j, r in enumerate(radii)))


def load_manifest(data: dict) -> tuple[ProblemSystem, CompactSpec, OmegaSpec | None, dict]:
    """Validate and decode a problem manifest dictionary."""
    if not isinstance(data, dict):
        raise ManifestError("manifest must be a JSON object")
    allowed = {"kind", "n", "k", "functions", "compact", "omega", "options"}
    unknown = set(data) - allowed
    if unknown:
        raise ManifestError(f"unknown manifest keys: {sorted(unknown)}")
    try:
        kind = data["kind"]
        n = _positive_int(data["n"], "n")
        functions = list(data["functions"])
    except KeyError as exc:
        raise ManifestError(f"manifest missing key: {exc}") from exc
    if kind not in (GRAPH, SUBMERSION):
        raise ManifestError(f"unknown kind {kind!r}")
    try:
        if kind == GRAPH:
            if "k" in data:
                raise ManifestError("graph manifests take no 'k'")
            sys_ = ProblemSystem.graph(functions, n)
        else:
            if "k" not in data:
                raise ManifestError("submersion manifests need 'k'")
            sys_ = ProblemSystem.submersion(functions, n, _positive_int(data["k"], "k"))
    except ManifestError:
        raise
    except Exception as exc:
        raise ManifestError(f"bad system definition: {exc}") from exc

    compact = data.get("compact")
    if not isinstance(compact, dict):
        raise ManifestError("manifest needs a 'compact' object")
    try:
        if kind == GRAPH:
            regions = []
            for j, rj in enumerate(compact["region"]):
                name = f"compact.region[{j}]"
                if rj.get("shape") == "disc":
                    regions.append(DiscRegion(complex(*_pair(rj["center"], f"{name}.center")),
                                              _radius(rj["radius"], f"{name}.radius")))
                elif rj.get("shape") == "box":
                    regions.append(BoxRegion(*_pair(rj["re"], f"{name}.re"),
                                             *_pair(rj["im"], f"{name}.im")))
                else:
                    raise ManifestError(f"unknown region shape {rj.get('shape')!r}")
            if len(regions) != n:
                raise ManifestError(f"graph compact needs {n} region entries")
            K = CompactSpec.graph_over(regions)
        else:
            K = CompactSpec.submersion_cap(*_discs(compact["cap"], "compact.cap", n))
    except ManifestError:
        raise
    except Exception as exc:
        raise ManifestError(f"bad compact spec: {exc}") from exc

    omega = None
    if "omega" in data and data["omega"] is not None:
        omega = omega_from_json(data["omega"], kind, n)

    options = dict(data.get("options") or {})
    unknown = set(options) - set(DEFAULT_OPTIONS)
    if unknown:
        raise ManifestError(f"unknown option keys: {sorted(unknown)}")
    return sys_, K, omega, options


def omega_to_json(omega: OmegaSpec) -> dict:
    out = {"z": {"center": [[c.real, c.imag] for c in omega.z_center],
                 "radii": list(omega.z_radii)}}
    if omega.w_center is not None:
        out["w"] = {"center": [[c.real, c.imag] for c in omega.w_center],
                    "radii": list(omega.w_radii)}
    return out


def omega_from_json(data: dict, kind: str, n: int) -> OmegaSpec:
    """An omega polydisc of n z discs, and n w discs for a graph."""
    try:
        unknown = set(data) - {"z", "w"}
        if unknown:
            raise ManifestError(f"unknown omega keys: {sorted(unknown)} "
                                "(v1 admits polydisc omegas only)")
        zc, zr = _discs(data["z"], "omega.z", n)
        wc = wr = None
        if kind == GRAPH:
            wc, wr = _discs(data["w"], "omega.w", n)
        elif "w" in data:
            raise ManifestError("submersion omega has no w polydisc")
        return OmegaSpec(zc, zr, wc, wr)
    except ManifestError:
        raise
    except Exception as exc:
        raise ManifestError(f"bad omega spec: {exc}") from exc


# /2: z-only tube leaves; /3: adds the tube tree's split scale; /4: drops the
# totally-real check
CERTIFICATE_FORMAT = "prc-certificate/4"
# formats certificate_from_dict reads: a /2 tube tree was bisected by unit weights
READABLE_FORMATS = ("prc-certificate/2", "prc-certificate/3", CERTIFICATE_FORMAT)


def certificate_to_dict(cert: Certificate) -> dict:
    """The certificate as JSON-ready data, built already sanitized."""
    return {
        "format": CERTIFICATE_FORMAT,
        "verdict": cert.verdict,
        "problem_hash": cert.problem_hash,
        "problem": sanitize_json(cert.problem),
        "omega": sanitize_json(omega_to_json(cert.omega)),
        "checks": sanitize_json(cert.checks),
        "options": sanitize_json(cert.options),
        "tolerances": sanitize_json(cert.tolerances),
        "witness": sanitize_json(cert.witness),
    }


# the fields certificate_from_dict requires, with their JSON types
_CERTIFICATE_FIELDS = {"verdict": str, "problem_hash": str, "problem": dict, "omega": dict,
                       "checks": dict, "options": dict, "tolerances": dict}
_JSON_TYPE_NAMES = {str: "string", dict: "object"}


def certificate_from_dict(data: dict) -> Certificate:
    """A Certificate from parsed JSON.  Raises ValueError on input that is
    not a JSON object, an unreadable format, or a missing or mistyped field,
    which it names."""
    if not isinstance(data, dict):
        raise ValueError(f"a certificate must be a JSON object, got {type(data).__name__}")
    if data.get("format") not in READABLE_FORMATS:
        raise ValueError(f"certificate format {data.get('format')!r} is not one of "
                         f"{', '.join(READABLE_FORMATS)}; re-run certify")
    for key, t in _CERTIFICATE_FIELDS.items():
        if key not in data:
            raise ValueError(f"certificate has no {key!r} field")
        if not isinstance(data[key], t):
            raise ValueError(f"certificate field {key!r} must be a JSON {_JSON_TYPE_NAMES[t]}, "
                             f"got {type(data[key]).__name__}")
    if "kind" not in data["problem"]:
        raise ValueError("certificate has no 'problem.kind' field")
    data = _unsanitize(data)
    kind, n = data["problem"]["kind"], _positive_int(data["problem"].get("n"), "problem.n")
    return Certificate(
        verdict=data["verdict"],
        problem_hash=data["problem_hash"],
        problem=data["problem"],
        omega=omega_from_json(data["omega"], kind, n),
        checks=data["checks"],
        options=data["options"],
        tolerances=data["tolerances"],
        witness=data.get("witness"),
    )


def replay_certificate(cert: Certificate) -> bool:
    """Check a PASS certificate independently of the run that produced it.

    Recomputes the problem hash, re-runs K in omega, and re-derives the tube
    tree from the z-box of omega with rigor.subdivide (see _replay_tree): the
    derived leaves must be the recorded ones, in order, none deeper than
    max_depth, and each PROVED leaf's bounds are recomputed.  The tube tree is
    bisected by its recorded split_scale (unit weights when there is none, as
    in a /2 file), which must be 2n finite positive floats; it only decides
    where boxes are cut, so it needs no check of its own.  The totally_real
    section of a /2 or /3 file is ignored: each PROVED tube leaf has a
    positive lower bound of m, so the tube tree proves M totally real on
    omega.  Malformed content replays False.
    """
    if cert.verdict != "PASS":
        raise ValueError("only PASS certificates replay")
    try:
        return _replay(cert)
    except (KeyError, TypeError, ValueError):
        return False


def _replay(cert: Certificate) -> bool:
    if manifest_hash(cert.problem) != cert.problem_hash:
        return False
    sys_, K, _, _ = load_manifest(dict(cert.problem, options=None))
    opts = validate_options(cert.options)
    omega = cert.omega
    n = sys_.n
    if len(omega.z_radii) != n or (sys_.kind == GRAPH and len(omega.w_radii) != n):
        return False
    if _check_k_in_omega(sys_, K, omega, opts["max_depth"],
                         opts["node_budget"])["status"] != PROVED:
        return False
    tube = cert.checks["omega_in_tube"]
    if not isinstance(tube, dict):
        return False
    scale = tube.get("split_scale", [1.0] * (2 * n))
    if not (isinstance(scale, list) and len(scale) == 2 * n
            and all(type(s) is float and 0.0 < s < math.inf for s in scale)):
        return False
    return _replay_tree(sys_, tube["leaves"], omega, opts, tuple(scale))


def _replay_tree(sys: ProblemSystem, leaves: list[dict], omega: OmegaSpec, opts: dict,
                 scale: tuple[float, ...]) -> bool:
    """Re-derive the tube tree with rigor.subdivide and match the recorded leaves.

    The tree is grown from the z-box of omega as certify grew it, with the
    same clip, split coordinates and child order, but its check computes
    nothing: a box is PROVED when a recorded PROVED leaf has it and
    INCONCLUSIVE, so bisected, otherwise.  The node budget is 2L - 1, the node count of a
    binary tree with L leaves, so a tampered list grows no more nodes than it
    records.  The derived Leaves must equal the recorded ones in order:
    status (OUTSIDE or PROVED), integer depth and the box's numbers, compared
    as arrays.  rigor.check_leaves then re-runs the tube test on all the
    PROVED boxes in one batch.
    """
    root, region = omega.z_box(sys.n), omega.region()
    status = [leaf["status"] for leaf in leaves]
    depth = [leaf["depth"] for leaf in leaves]
    # each box is 2n [lo, hi] pairs of numbers, as np.stack([lo, hi], axis=-1) gives
    boxes = np.array([leaf["box"] for leaf in leaves])
    if (not all(type(d) is int for d in depth) or boxes.dtype.kind not in "biuf"
            or boxes.shape != (len(leaves), root.dim, 2)):
        return False
    proved = {tuple(box) for s, box in zip(status, boxes.reshape(len(leaves), -1).tolist())
              if s == PROVED}

    def evaluate(lo, hi):
        found = [tuple(box) in proved
                 for box in np.stack([lo, hi], axis=-1).reshape(len(lo), -1).tolist()]
        return np.where(found, PROVED_CODE, INCONCLUSIVE_CODE).astype(np.int8), None, None

    tree = rigor.subdivide(root, evaluate, opts["max_depth"], 2 * len(leaves) - 1, region,
                           "replayed tube", scale)
    derived = tree.leaves
    if (tree.status != PROVED or status != derived.statuses()
            or not np.array_equal(depth, derived.depth)
            or not np.array_equal(boxes, np.stack([derived.lo, derived.hi], axis=-1))):
        return False
    inside = ~derived.outside
    return bool(rigor.check_leaves(sys, derived.lo[inside], derived.hi[inside],
                                   opts["margin"], region).all())


# ---------------------------------------------------------------------------
# Example reproductions
# ---------------------------------------------------------------------------

WERMER_F = "-(1+i)*conj(z1) + i*z1*conj(z1)^2 + z1^2*conj(z1)^3"


def wermer_system() -> ProblemSystem:
    return ProblemSystem.graph([WERMER_F], 1)


def wermer_compact(r: float) -> CompactSpec:
    return CompactSpec.graph_over([DiscRegion(0j, r)])


def graph_over_r2_system(c: float = 0.05, d: float = 0.05) -> ProblemSystem:
    rho1 = f"Im(z1) - {c!r}*(Re(z1)^2 + Re(z2)^3)"
    rho2 = f"Im(z2) - {d!r}*(Re(z2)^2 + Re(z1)^3)"
    return ProblemSystem.submersion([rho1, rho2], n=2, k=2)


def _wermer_m_closed(r: float) -> float:
    return 9 * r ** 8 - 2 * r ** 4 - 4 * r ** 2 + 2


def _wermer_L_closed(r: float) -> float:
    return 2 * r * math.sqrt(1 + 9 * r ** 4)


def _cert_summary(cert: Certificate) -> dict:
    rep = cert.checks["omega_in_tube"].get("report") or {}
    return {
        "verdict": cert.verdict,
        "m_lower": rep.get("m_lower"),
        "L_upper": rep.get("L_upper"),
        "residual_upper": rep.get("residual_upper"),
        "radius_lower": rep.get("radius_lower"),
        "leaf_count": rep.get("leaf_count"),
        "depth": rep.get("depth"),
        "omega": omega_to_json(cert.omega),
        "witness": cert.witness,
    }


def reproduce_example(name: str, params: dict | None = None) -> dict:
    """Reproduce a worked example end to end and report discrepancies."""
    params = dict(params or {})
    if name == "wermer":
        return _reproduce_wermer(params)
    if name == "graph_over_r2":
        return _reproduce_graph_over_r2(params)
    raise ValueError(f"unknown example {name!r}; choose 'wermer' or 'graph_over_r2'")


def _reproduce_wermer(params: dict) -> dict:
    inflation = float(params.pop("inflation", 0.05))
    max_depth = int(params.pop("max_depth", 30))
    margin = float(params.pop("margin", 1e-6))
    # a cap on the cost of one search probe; near the edge the z-only tube
    # tree ends in a proof or a witness after a few thousand nodes
    node_budget = int(params.pop("node_budget", 150_000))
    resolution = float(params.pop("resolution", 1e-3))
    if params:
        raise ValueError(f"unknown wermer params: {sorted(params)}")

    sys_ = wermer_system()
    r_max_stated = 1.0 / math.sqrt(3.0)

    spot = []
    for r in (0.1, 0.3, r_max_stated, 1.0):
        z = (complex(r, 0.0),)
        pt = tube_profile(sys_, [z]).points[0]
        dfdzbar = complex(bbar_matrix(sys_, z)[0, 0])
        closed_df = -(1 + 1j) + 2j * r * r + 3 * r ** 4
        spot.append({
            "r": r,
            "m": pt.m, "m_closed_form": _wermer_m_closed(r),
            "L": pt.L, "L_closed_form": _wermer_L_closed(r),
            "dfdzbar": [dfdzbar.real, dfdzbar.imag],
            "dfdzbar_closed_form": [closed_df.real, closed_df.imag],
            "radius": pt.radius,
        })

    # recompute inf m / sup L over |z| <= 1/sqrt(3); both are radial
    scan = tube_profile(sys_, [(complex(r, 0),) for r in np.linspace(0.0, r_max_stated, 2001)])
    inf_m = min(pt.m for pt in scan.points)
    sup_L = max(pt.L for pt in scan.points)
    exact_inf_m = Fraction(9, 81) - Fraction(2, 9) - Fraction(4, 3) + 2
    exact_sup_L = 2 * math.sqrt(2) / math.sqrt(3)
    stated_inf_m = 1.0
    stated_sup_L = 4.0 / (3.0 * 3.0 ** 0.25)

    certs = {}
    for r in (0.3, 1.0):
        cert = certify(sys_, wermer_compact(r), max_depth=max_depth, margin=margin,
                       inflation=inflation, node_budget=node_budget)
        certs[f"r={r!r}"] = _cert_summary(cert)

    # binary search for the largest certifiable r at the configured depth; the
    # report keeps the final bracket and the verdict at its upper end
    def verdict(r: float) -> str:
        return certify(sys_, wermer_compact(r), max_depth=max_depth, margin=margin,
                       inflation=inflation, node_budget=node_budget).verdict

    hi_r = lo_r = r_max_stated
    hi_verdict = verdict(hi_r)
    if hi_verdict != "PASS":
        if certs["r=0.3"]["verdict"] == "PASS":
            lo_r = 0.3
        else:
            lo_r = 0.05 if verdict(0.05) == "PASS" else 0.0
        while hi_r - lo_r > resolution:
            mid = 0.5 * (lo_r + hi_r)
            v = verdict(mid)
            if v == "PASS":
                lo_r = mid
            else:
                hi_r, hi_verdict = mid, v
    max_r = lo_r

    return sanitize_json({
        "example": "wermer",
        "function": WERMER_F,
        "params": {"inflation": inflation, "max_depth": max_depth,
                   "margin": margin, "resolution": resolution,
                   "node_budget": node_budget},
        "closed_form_spot_checks": spot,
        "stated": {"inf_m": stated_inf_m, "sup_L": stated_sup_L,
                   "certified_r_range": [0.0, r_max_stated]},
        "recomputed": {"inf_m": inf_m, "sup_L": sup_L,
                       "inf_m_from_closed_form_at_r_max": float(exact_inf_m),
                       "inf_m_exact_fraction": f"{exact_inf_m.numerator}/{exact_inf_m.denominator}",
                       "sup_L_closed_form": exact_sup_L},
        "discrepancy": {
            "inf_m_matches_stated": abs(inf_m - stated_inf_m) <= 1e-6 * (1 + stated_inf_m),
            "sup_L_matches_stated": abs(sup_L - stated_sup_L) <= 1e-6 * (1 + stated_sup_L),
            "note": ("recomputed inf m and sup L over |z| <= 1/sqrt(3) disagree with "
                     "the stated values; this report carries the recomputed numbers "
                     "and the certified range below is derived from them"),
        },
        "certifications": certs,
        "max_certifiable_r": max_r,
        "search_bracket": {"pass_r": lo_r, "upper_r": hi_r,
                           "upper_verdict": hi_verdict},
    })


def _reproduce_graph_over_r2(params: dict) -> dict:
    c = float(params.pop("c", 0.05))
    d = float(params.pop("d", 0.05))
    cap_radius = float(params.pop("cap_radius", 1.0))
    eps = float(params.pop("eps", 0.04))
    max_depth = int(params.pop("max_depth", 30))
    margin = float(params.pop("margin", 1e-6))
    node_budget = int(params.pop("node_budget", 400_000))
    if params:
        raise ValueError(f"unknown graph_over_r2 params: {sorted(params)}")
    if not (0 <= c <= 0.05 and 0 <= d <= 0.05 and max(c, d) > 0):
        raise ValueError("c, d must lie in [0, 1/20] with max(c, d) > 0")

    sys_ = graph_over_r2_system(c, d)
    B0 = bbar_matrix(sys_, (0j, 0j))
    unit_box = ParamBox(2, [-1.0, -1.0, -1.0, -1.0], [1.0, 1.0, 1.0, 1.0])
    L_up = rigor.bound_L_above(sys_, unit_box)
    m_lo = rigor.bound_m_below(sys_, unit_box)

    K = CompactSpec.submersion_cap((0j, 0j), (cap_radius, cap_radius))
    cert = certify(sys_, K, max_depth=max_depth, margin=margin, inflation=eps,
                   node_budget=node_budget)

    return sanitize_json({
        "example": "graph_over_r2",
        "params": {"c": c, "d": d, "cap_radius": cap_radius, "eps": eps,
                   "max_depth": max_depth, "margin": margin,
                   "node_budget": node_budget},
        "bbar_at_origin": [[[x.real, x.imag] for x in row] for row in B0.tolist()],
        "stated": {"L_bound": 2 * max(c, d), "m_bound": 0.25,
                   "tube_lower_bound": 1.0 / (8.0 * max(c, d))},
        "rigorous_unit_box_bounds": {"L_upper": L_up, "m_lower": m_lo},
        "certification": _cert_summary(cert),
    })
