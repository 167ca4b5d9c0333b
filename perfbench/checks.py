"""Output checks.  Each returns a list of problems; an empty list means the
output is correct.  Every operation of a run goes through `Ledger.record`, and
an operation with any problem (or one that raised) counts as failed.
"""

from __future__ import annotations

from prc.certify import Certificate, CompactSpec, manifest_hash, problem_manifest
from prc.trgeom import GRAPH, ProblemSystem, tube_radius

EXIT_CODES = {"PASS": 0, "FAIL": 3, "INCONCLUSIVE": 4}


class Ledger:
    """Attempted and failed operations of one run, with the reasons."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.reasons: list[str] = []

    def record(self, op: str, problems: list[str]) -> None:
        self.attempted += 1
        if problems:
            self.failed += 1
            self.reasons.append(f"{op}: {'; '.join(problems)}")


def exit_code(verdict: str, rc: int) -> list[str]:
    want = EXIT_CODES.get(verdict)
    if rc != want:
        return [f"exit code {rc} for verdict {verdict} (want {want})"]
    return []


def certificate(cert: Certificate, sys_: ProblemSystem, K: CompactSpec,
                expect: str | None, replayed: bool | None = None) -> list[str]:
    """Judge a certificate read back from its file, against the problem
    (`sys_`, `K`) built from the manifest the program received.

    `expect` is the known verdict, or None when any verdict is acceptable.
    A PASS must carry the problem's hash and must have replayed True
    (`replayed` is the value `replay_certificate` returned); a FAIL must carry
    a witness that re-verifies.
    """
    if expect is not None and cert.verdict != expect:
        return [f"verdict {cert.verdict}, known verdict {expect}"]
    if cert.verdict == "PASS":
        return pass_certificate(cert, sys_, K, replayed)
    if cert.verdict == "FAIL":
        return fail_witness(cert, sys_)
    if cert.verdict != "INCONCLUSIVE":
        return [f"unknown verdict {cert.verdict!r}"]
    return []


def pass_certificate(cert: Certificate, sys_: ProblemSystem, K: CompactSpec,
                     replayed: bool | None) -> list[str]:
    problems = []
    want = manifest_hash(problem_manifest(sys_, K))
    if cert.problem_hash != want:
        problems.append("problem_hash does not match the manifest")
    if manifest_hash(cert.problem) != cert.problem_hash:
        problems.append("problem_hash does not match the certificate's problem")
    if replayed is not True:
        problems.append(f"replay_certificate returned {replayed!r}")
    return problems


def fail_witness(cert: Certificate, sys_: ProblemSystem) -> list[str]:
    """The witness (z, w) must lie in omega and violate the tube inclusion:
    sum |w - F(z)| >= m/(2L) at z, recomputed from the problem."""
    wit = cert.witness or {}
    if sys_.kind != GRAPH or wit.get("check") != "omega_in_tube" or not wit.get("w"):
        return [f"FAIL witness {sorted(wit)} from check {wit.get('check')!r} "
                "cannot be re-verified"]
    z = [complex(a, b) for a, b in wit["z"]]
    w = [complex(a, b) for a, b in wit["w"]]
    om = cert.omega
    if len(z) != sys_.n or len(w) != sys_.n:
        return ["witness has the wrong number of coordinates"]
    problems = []
    inside = (all(abs(v - c) < r for v, c, r in zip(z, om.z_center, om.z_radii))
              and all(abs(v - c) < r for v, c, r in zip(w, om.w_center, om.w_radii)))
    if not inside:
        problems.append("witness lies outside omega")
    residual = sum(abs(wv - fv) for wv, fv in zip(w, sys_.values_at(z)))
    radius = tube_radius(sys_, z)
    if not residual >= radius:
        problems.append(f"witness residual {residual:.6g} < tube radius {radius:.6g}")
    return problems


def separation(result, want_separated: bool, min_ratio: float = 0.0) -> list[str]:
    if result.separated != want_separated:
        return [f"separated={result.separated}, want {want_separated}"]
    if want_separated and not result.ratio >= min_ratio:
        return [f"separation ratio {result.ratio:.6g} < {min_ratio}"]
    return []


def not_fragile(result) -> list[str]:
    if result.fragile is not False:
        return [f"fragile={result.fragile}, want False"]
    return []
