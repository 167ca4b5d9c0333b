"""One workload process: set-up, timed cycles, output checks, optional tracing.

Started by run.py in a fresh interpreter with `src` on PYTHONPATH and BLAS
thread counts capped.  It drives `prc` only through its public functions and
`prc.cli.main`.  Load is a closed loop: one caller issues each operation after
the previous one returns.  The last line of standard output is one JSON object.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import importlib
import json
import platform
import resource
import statistics
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import spans  # noqa: E402
from inputs import FRAGILITY_FACTOR, PROBE_DENSITY  # noqa: E402

now = time.perf_counter


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__)
    p.add_argument("--plan", required=True)
    p.add_argument("--t0", type=float, required=True,
                   help="launcher's perf_counter just before starting this process")
    p.add_argument("--setup-only", action="store_true")
    p.add_argument("--seconds", type=float, default=1.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--threads", type=int, default=1)
    args = p.parse_args(argv)

    t = now()
    import prc  # pulls in numpy, and scipy through prc.hullprobe
    import_s = now() - t
    src = HERE.parent / "src"
    if not Path(prc.__file__).resolve().is_relative_to(src):
        raise SystemExit(f"prc imported from {prc.__file__}, not from {src}")
    # prc/__init__ re-exports the function `certify`; fetch the module itself
    C = importlib.import_module("prc.certify")
    plan = json.loads(Path(args.plan).read_text())
    t = now()
    C.load_manifest(json.loads(Path(plan["items"][0]["path"]).read_bytes()))
    built = now()
    setup = {"setup_s": built - args.t0, "import_s": import_s,
             "load_manifest_s": built - t}
    if args.setup_only:
        print(json.dumps({"setup": setup}))
        return 0

    run = Run(plan, args.threads)
    layers = None
    if args.trace:
        run.cycle()
        untraced_wall = run.cycles.pop()["wall_s"]
        run.tracer = spans.Tracer()
        install_tracing(run.tracer)
        try:
            run.cycles_for(args.seconds - untraced_wall)
        finally:
            run.tracer.restore()
        layers = layer_metrics(run, untraced_wall)
        Path(plan["spans_path"]).write_text(json.dumps(
            {"fields": ["name", "start", "end", "parent"], "spans": run.tracer.spans}))
    else:
        run.cycles_for(args.seconds)

    import numpy
    import scipy
    print(json.dumps({
        "setup": setup,
        "cycles": run.cycles,
        "attempted": run.ledger.attempted,
        "failed": run.ledger.failed,
        "reasons": run.ledger.reasons,
        "digests": run.digests,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "layers": layers,
        "env": {"python": platform.python_version(), "numpy": numpy.__version__,
                "scipy": scipy.__version__, "prc": prc.__version__},
    }))
    return 0


class Run:
    """The operations of one workload and what they produced."""

    def __init__(self, plan: dict, threads: int):
        self.workload = plan["workload"]
        self.items = plan["items"]
        self.threads = threads
        self.C = importlib.import_module("prc.certify")
        self.cli = importlib.import_module("prc.cli")
        self.hp = importlib.import_module("prc.hullprobe")
        # imports prc, so it is loaded only after the timed `import prc`
        self.checks = importlib.import_module("checks")
        self.ledger = self.checks.Ledger()
        # the problems as the checks see them, built once and before tracing
        # starts, so checking adds no spans
        self.problems = {
            item["name"]: self.C.load_manifest(json.loads(Path(item["path"]).read_bytes()))[:2]
            for item in self.items}
        self.digests: dict[str, str] = {}
        self.cycles: list[dict] = []
        self.tracer: spans.Tracer | None = None
        self.op = {"wermer_pass": self.certify_library,
                   "submersion_sweep": self.certify_library,
                   "wermer_edge": self.certify_cli,
                   "hull_probe": self.hull_probe}[self.workload]

    def span(self, name: str):
        return self.tracer.span(name) if self.tracer else contextlib.nullcontext()

    def cycles_for(self, seconds: float) -> None:
        """Whole cycles, at least one, while the next one is expected to end
        within `seconds`."""
        start = now()
        while True:
            self.cycle()
            walls = [c["wall_s"] for c in self.cycles]
            if now() - start + statistics.median(walls) > seconds:
                return

    def cycle(self) -> None:
        stats = dict.fromkeys(("certify_s", "replay_s", "probe_s", "cert_bytes",
                               "certify_calls", "replays", "probe_calls",
                               "inconclusive"), 0)
        t = now()
        for item in self.items:
            try:
                self.op(item, stats)
            except Exception as exc:  # a raising operation is a failed one
                self.ledger.record(f"{self.workload} {item['name']}",
                                   [f"raised {type(exc).__name__}: {exc}"])
        stats["wall_s"] = now() - t
        self.cycles.append(stats)

    def same_output(self, key: str, data: bytes) -> list[str]:
        digest = hashlib.sha256(data).hexdigest()
        if self.digests.setdefault(key, digest) != digest:
            return ["output bytes differ from an earlier cycle"]
        return []

    # -- certify workloads --------------------------------------------------

    def certify_library(self, item: dict, stats: dict) -> None:
        C = self.C
        mpath = Path(item["path"])
        manifest = json.loads(mpath.read_bytes())
        sys_, K, omega, opts = C.load_manifest(manifest)
        o = dict(C.DEFAULT_OPTIONS, **opts)
        t = now()
        cert = C.certify(sys_, K, omega, max_depth=int(o["max_depth"]),
                         margin=float(o["margin"]), inflation=float(o["inflation"]),
                         threads=1, node_budget=int(o["node_budget"]))
        stats["certify_s"] += now() - t
        cpath = mpath.with_suffix(".cert.json")
        with self.span("certify.serialize"):
            # the CLI's on-disk format
            text = json.dumps(C.sanitize_json(C.certificate_to_dict(cert)),
                              indent=2, sort_keys=True) + "\n"
            cpath.write_text(text)
        self.judge(item, cpath, stats, rc=None)

    def certify_cli(self, item: dict, stats: dict) -> None:
        mpath = Path(item["path"])
        cpath = mpath.with_suffix(".cert.json")
        t = now()
        try:
            rc = self.cli.main(["certify", str(mpath), "--out", str(cpath),
                                "--threads", str(self.threads)])
        except SystemExit as exc:
            rc = exc.code
        stats["certify_s"] += now() - t
        self.judge(item, cpath, stats, rc)

    def judge(self, item: dict, cpath: Path, stats: dict, rc: int | None) -> None:
        C = self.C
        raw = cpath.read_bytes()
        cpath.unlink()
        stats["cert_bytes"] += len(raw)
        stats["certify_calls"] += 1
        t = now()
        with self.span("certify.parse"):
            cert = C.certificate_from_dict(json.loads(raw))
        replayed = None
        if cert.verdict == "PASS":
            replayed = C.replay_certificate(cert)
            stats["replay_s"] += now() - t
            stats["replays"] += 1
        stats["inconclusive"] += cert.verdict == "INCONCLUSIVE"
        checks = self.checks
        problems = [] if rc is None else checks.exit_code(cert.verdict, rc)
        problems += checks.certificate(cert, *self.problems[item["name"]],
                                       item["expect"], replayed)
        problems += self.same_output(item["name"], raw)
        self.ledger.record(f"{self.workload} {item['name']} {cert.verdict}", problems)

    # -- hull probe ---------------------------------------------------------

    def hull_probe(self, item: dict, stats: dict) -> None:
        """Each query as `prc hull-probe` runs it: sample, probe, and when
        separated re-check on a denser cloud."""
        hp = self.hp
        sys_, K, _, _ = self.C.load_manifest(json.loads(Path(item["path"]).read_bytes()))
        for query in item["queries"]:
            q = [complex(a, b) for a, b in query["q"]]
            t = now()
            cloud = hp.sample_compact(sys_, K, density=PROBE_DENSITY)
            res = hp.probe(cloud, q, degree=query["degree"])
            if res.separated:
                dense = hp.sample_compact(sys_, K, density=PROBE_DENSITY * FRAGILITY_FACTOR)
                res = hp.fragility_check(res, q, dense)
            stats["probe_s"] += now() - t
            stats["probe_calls"] += 1
            label = f"probe q={query['q']} degree={query['degree']}"
            out = json.dumps([res.separated, res.ratio, res.objective, res.fragile,
                              [[c.real, c.imag] for c in res.coefficients]])
            self.ledger.record(label, self.checks.separation(
                res, query["separated"], query.get("min_ratio", 0.0))
                + self.same_output(label, out.encode()))
            if query["separated"]:
                self.ledger.record(f"fragility_check q={query['q']}",
                                   self.checks.not_fragile(res))


# ---------------------------------------------------------------------------
# Tracing: spans around the calls into each module, at the names callers use
# ---------------------------------------------------------------------------

def _on_check_leaf(counts, result, args, kwargs):
    counts["rigor.check_leaf_calls"] += 1


def _set_max(counts, key: str, value: float) -> None:
    counts[key] = max(counts.get(key, 0.0), value)


def _on_build(counts, result, args, kwargs):
    counts["trgeom.build_calls"] += 1
    polys = []
    for t in args[0].tables:
        polys += [t.value, *t.dz, *t.dzbar, *(p for row in t.levi for p in row)]
    _set_max(counts, "trgeom.table_terms", sum(len(p.terms) for p in polys))


def _tree(root):
    stack = [root]
    while stack:
        node = stack.pop()
        yield node
        stack.extend(node.children)


def _on_tube(counts, root, args, kwargs):
    depth = 0
    for node in _tree(root):
        counts["rigor.tube_nodes"] += 1
        depth = max(depth, node.depth)
        if not node.children:
            counts["rigor.tube_leaves"] += 1
            if node.outside:
                counts["rigor.tube_outside_leaves"] += 1
            elif node.status == "PROVED":
                counts["rigor.tube_proved_leaves"] += 1
    _set_max(counts, "rigor.tube_max_depth", depth)


def _on_tr(counts, root, args, kwargs):
    counts["rigor.tr_nodes"] += sum(1 for _ in _tree(root))


def _on_certify(counts, cert, args, kwargs):
    counts["certify.k_cells"] += cert.checks["k_in_omega"].get("cells_checked", 0)


def _on_linprog(counts, result, args, kwargs):
    counts["hullprobe.lp_calls"] += 1
    rows, cols = kwargs["A_ub"].shape
    _set_max(counts, "hullprobe.lp_rows", rows)
    _set_max(counts, "hullprobe.lp_cols", cols)


def _on_sample(counts, cloud, args, kwargs):
    counts["hullprobe.cloud_points"] += len(cloud.points)


def install_tracing(tr: spans.Tracer) -> None:
    C = importlib.import_module("prc.certify")
    cli = importlib.import_module("prc.cli")
    hp = importlib.import_module("prc.hullprobe")
    rigor = importlib.import_module("prc.rigor")
    trgeom = importlib.import_module("prc.trgeom")
    tr.wrap(trgeom.ProblemSystem, "__init__", "trgeom.build", _on_build)
    tr.wrap(C, "load_manifest", "certify.load_manifest")
    tr.wrap(cli, "load_manifest", "certify.load_manifest")
    tr.wrap(C, "suggest_omega", "certify.suggest_omega")
    tr.wrap(C, "verify_totally_real", "rigor.verify_totally_real", _on_tr)
    tr.wrap(C, "verify_box", "rigor.verify_box", _on_tube)
    tr.wrap(C, "certify", "certify.certify", _on_certify)
    tr.wrap(cli, "run_certify", "certify.certify", _on_certify)
    tr.wrap(cli, "main", "cli.main")
    tr.wrap(C, "replay_certificate", "certify.replay_certificate")
    tr.wrap(rigor, "check_leaf", "rigor.check_leaf", _on_check_leaf)
    tr.wrap(hp, "sample_compact", "hullprobe.sample_compact", _on_sample)
    tr.wrap(hp, "probe", "hullprobe.probe")
    tr.wrap(hp, "linprog", "hullprobe.linprog", _on_linprog)
    tr.wrap(hp, "fragility_check", "hullprobe.fragility_check")


def layer_metrics(run: Run, untraced_wall: float) -> dict[str, float]:
    """Per-layer numbers per traced cycle (maxima for depth and LP shape)."""
    total, own = run.tracer.totals()
    counts = run.tracer.counts
    n = len(run.cycles)

    def per(x: float) -> float:
        return x / n

    tube_s = per(total["rigor.verify_box"])
    certify_s = per(total["certify.certify"])
    lp_s = per(total["hullprobe.linprog"])
    probe_query_s = per(sum(c["probe_s"] for c in run.cycles))
    nodes = counts["rigor.tube_nodes"]
    resolved = counts["rigor.tube_proved_leaves"] + counts["rigor.tube_outside_leaves"]
    return {
        "trgeom.build_s": per(total["trgeom.build"]),
        "trgeom.build_calls": per(counts["trgeom.build_calls"]),
        "trgeom.table_terms": counts["trgeom.table_terms"],
        "certify.load_manifest_s": per(total["certify.load_manifest"]),
        "certify.suggest_omega_s": per(total["certify.suggest_omega"]),
        "rigor.tr_s": per(total["rigor.verify_totally_real"]),
        "rigor.tr_nodes": per(counts["rigor.tr_nodes"]),
        "rigor.tube_s": tube_s,
        "rigor.tube_nodes": per(nodes),
        "rigor.tube_leaves": per(counts["rigor.tube_leaves"]),
        "rigor.tube_outside_leaves": per(counts["rigor.tube_outside_leaves"]),
        "rigor.tube_max_depth": counts["rigor.tube_max_depth"],
        "rigor.tube_nodes_per_s": per(nodes) / tube_s if tube_s else 0.0,
        "rigor.tube_resolved_share": resolved / nodes if nodes else 0.0,
        "rigor.tube_share_of_certify": tube_s / certify_s if certify_s else 0.0,
        "certify.certify_s": certify_s,
        "certify.self_s": per(own["certify.certify"]),
        "certify.k_cells": per(counts["certify.k_cells"]),
        "certify.serialize_s": per(total["certify.serialize"]),
        "cli.self_s": per(own["cli.main"]),
        "certify.parse_s": per(total["certify.parse"]),
        "certify.replay_self_s": per(own["certify.replay_certificate"]),
        "rigor.check_leaf_s": per(total["rigor.check_leaf"]),
        "rigor.check_leaf_calls": per(counts["rigor.check_leaf_calls"]),
        "hullprobe.sample_s": per(total["hullprobe.sample_compact"]),
        "hullprobe.cloud_points": per(counts["hullprobe.cloud_points"]),
        "hullprobe.probe_s": per(total["hullprobe.probe"]),
        "hullprobe.lp_s": lp_s,
        "hullprobe.lp_calls": per(counts["hullprobe.lp_calls"]),
        "hullprobe.lp_rows": counts["hullprobe.lp_rows"],
        "hullprobe.lp_cols": counts["hullprobe.lp_cols"],
        "hullprobe.lp_share_of_probe": lp_s / probe_query_s if probe_query_s else 0.0,
        "hullprobe.fragility_s": per(total["hullprobe.fragility_check"]),
        "trace.overhead_s": statistics.median(c["wall_s"] for c in run.cycles) - untraced_wall,
    }


if __name__ == "__main__":
    raise SystemExit(main())
