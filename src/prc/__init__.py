"""prc: certification toolkit for polynomial convexity of compact subsets of
totally-real graphs and level-set submanifolds of C^n."""

from .certify import (BoxRegion, Certificate, CompactSpec, DiscRegion,
                      ManifestError, OmegaSpec, certificate_from_dict,
                      certificate_to_dict, certify, dumps_json,
                      graph_over_r2_system, load_manifest,
                      replay_certificate, reproduce_example, suggest_omega,
                      wermer_compact, wermer_system)
from .expr import (Expr, NormalExpr, ParseError, diff_z, diff_zbar, eval_interval,
                   eval_point, format_expr, normalize, parse)
from .intervals import Interval, ParamBox, Rect
from .rigor import (BoundReport, Region, VerifyNode, bound_L_above,
                    bound_m_below, bound_residual_above, verify_box,
                    verify_totally_real)
from .trgeom import (DegenerateSystemError, ProblemSystem, TubeProfile,
                     bbar_matrix, big_l_value, is_totally_real_graph,
                     is_totally_real_submersion, levi_u_graph,
                     levi_u_submersion, m_value, m_value_bruteforce,
                     numerical_radius, tube_profile, tube_radius)
from .wirtinger import WirtingerFrame, fd_frame, frame, levi_form

__version__ = "0.1.0"

# The hull probe's names are resolved on first use (PEP 562), which keeps
# its module off every `import prc`; scipy itself loads only at its first LP.
_HULLPROBE = ("SampleCloud", "SeparationResult", "fragility_check", "probe",
              "sample_compact")

__all__ = [
    "BoundReport", "BoxRegion", "Certificate", "CompactSpec",
    "DegenerateSystemError", "DiscRegion", "Expr", "Interval", "ManifestError",
    "NormalExpr", "OmegaSpec", "ParamBox", "ParseError", "ProblemSystem",
    "Rect", "Region", "SampleCloud", "SeparationResult", "TubeProfile",
    "VerifyNode", "WirtingerFrame", "bbar_matrix", "big_l_value",
    "bound_L_above", "bound_m_below", "bound_residual_above",
    "certificate_from_dict", "certificate_to_dict", "certify", "diff_z",
    "diff_zbar", "dumps_json", "eval_interval", "eval_point", "fd_frame",
    "format_expr", "fragility_check", "frame", "graph_over_r2_system",
    "is_totally_real_graph", "is_totally_real_submersion", "levi_form",
    "levi_u_graph", "levi_u_submersion", "load_manifest", "m_value",
    "m_value_bruteforce", "normalize", "numerical_radius", "parse", "probe",
    "replay_certificate", "reproduce_example", "sample_compact",
    "suggest_omega", "tube_profile", "tube_radius", "verify_box",
    "verify_totally_real", "wermer_compact", "wermer_system",
]


def __getattr__(name):
    if name in _HULLPROBE:
        from . import hullprobe
        return getattr(hullprobe, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
