"""prc benchmark.  Run from the root of a checkout:

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Workloads: wermer_pass, wermer_edge, submersion_sweep, hull_probe (see
perfbench/README.md for why each exists).  The launcher writes the seed's
manifests, measures set-up in fresh processes, then runs the workload in one
worker process for about `--seconds` (whole cycles, at least one).  With
`--trace 1` the worker first runs one untraced cycle, then traced cycles, and
the per-layer metrics replace the end-to-end ones.

Human-readable lines come first; the last line of standard output is one JSON
object {"correct", "attempted", "failed", "metrics"}.  A full record goes to
.bench_out/.  Exit code 2 when the checkout holds no prc sources, 1 when the
worker fails or runs past its deadline.
"""

from __future__ import annotations

import argparse
import compileall
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

from inputs import WORKLOADS, plan  # noqa: E402

SETUP_PROBES = 3          # set-up processes besides the worker's own set-up
DEADLINE_S = 170.0        # a run must end within 180 s
BLAS_THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
                    "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS",
                    "NUMEXPR_NUM_THREADS")

END_TO_END = {"wall_s": "s", "setup_s": "s", "peak_rss_mb": "MB"}

PER_LAYER = {
    "prc.import_s": "s",
    "trgeom.build_s": "s",
    "trgeom.build_calls": "count",
    "trgeom.table_terms": "count",
    "certify.load_manifest_s": "s",
    "certify.suggest_omega_s": "s",
    "rigor.tr_s": "s",
    "rigor.tr_nodes": "count",
    "rigor.tube_s": "s",
    "rigor.tube_nodes": "count",
    "rigor.tube_leaves": "count",
    "rigor.tube_outside_leaves": "count",
    "rigor.tube_max_depth": "count",
    "rigor.tube_nodes_per_s": "1/s",
    "rigor.tube_resolved_share": "ratio",
    "rigor.tube_share_of_certify": "ratio",
    "certify.certify_s": "s",
    "certify.self_s": "s",
    "certify.k_cells": "count",
    "certify.serialize_s": "s",
    "cli.self_s": "s",
    "certify.parse_s": "s",
    "certify.replay_self_s": "s",
    "rigor.check_leaf_s": "s",
    "rigor.check_leaf_calls": "count",
    "hullprobe.sample_s": "s",
    "hullprobe.cloud_points": "count",
    "hullprobe.probe_s": "s",
    "hullprobe.lp_s": "s",
    "hullprobe.lp_calls": "count",
    "hullprobe.lp_rows": "count",
    "hullprobe.lp_cols": "count",
    "hullprobe.lp_share_of_probe": "ratio",
    "hullprobe.fragility_s": "s",
    "trace.overhead_s": "s",
}


class BenchError(RuntimeError):
    pass


def git_sha(root: Path) -> str | None:
    """HEAD of a git checkout, read from files inside it (no git process)."""
    head = root / ".git" / "HEAD"
    if not head.is_file():
        return None
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    ref = ref[5:]
    loose = root / ".git" / ref
    if loose.is_file():
        return loose.read_text().strip()
    packed = root / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    return None


def spawn(plan_path: Path, extra: list[str], env: dict, deadline: float) -> dict:
    """Run the worker to completion and return its last output line."""
    timeout = deadline - time.perf_counter()
    if timeout <= 0:
        raise BenchError("deadline passed before the worker started")
    t0 = time.perf_counter()
    try:
        proc = subprocess.run(
            [sys.executable, str(HERE / "worker.py"), "--plan", str(plan_path),
             "--t0", repr(t0), *extra],
            env=env, cwd=ROOT, stdout=subprocess.PIPE, text=True, timeout=timeout)
    except subprocess.TimeoutExpired as exc:  # run() has killed and reaped it
        raise BenchError(f"worker ran past the deadline ({exc.timeout:.0f} s)") from exc
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise BenchError(f"worker exited with code {proc.returncode}")
    return json.loads(lines[-1])


def main(argv=None) -> int:
    started = time.perf_counter()
    p = argparse.ArgumentParser(description="prc benchmark")
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=int, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    if args.seconds < 1:
        p.error("--seconds must be >= 1")
    if not (ROOT / "src" / "prc" / "__init__.py").is_file():
        print(f"error: no prc sources under {ROOT / 'src'}", file=sys.stderr)
        return 2

    cores = len(os.sched_getaffinity(0))
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src")] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    env.update({k: str(cores) for k in BLAS_THREAD_VARS})
    # byte-compile before timing, so the first run of a checkout sets up like
    # every later one
    compileall.compile_dir(str(ROOT / "src" / "prc"), quiet=1)

    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    out_dir = ROOT / ".bench_out"
    work = ROOT / ".bench_work" / f"{tag}-{os.getpid()}"
    work.mkdir(parents=True)
    out_dir.mkdir(exist_ok=True)
    items = plan(args.workload, args.seed)
    for item in items:
        path = work / f"{item['name']}.json"
        path.write_text(json.dumps(item.pop("manifest"), indent=2))
        item["path"] = str(path)
    plan_path = work / "plan.json"
    plan_path.write_text(json.dumps({
        "workload": args.workload, "items": items,
        "spans_path": str(out_dir / f"spans-{tag}.json")}))

    deadline = started + DEADLINE_S
    try:
        samples = [spawn(plan_path, ["--setup-only"], env, deadline)["setup"]
                   for _ in range(SETUP_PROBES)]
        res = spawn(plan_path, ["--seconds", str(args.seconds), "--trace",
                                str(args.trace), "--threads", str(cores)],
                    env, deadline)
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(work, ignore_errors=True)
    samples.append(res["setup"])

    record = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "git_sha": git_sha(ROOT), "cores": cores,
        "threads": cores, **res["env"],
        "setup_samples": samples, "cycles": res["cycles"],
        "attempted": res["attempted"], "failed": res["failed"],
        "reasons": res["reasons"], "digests": res["digests"],
        "peak_rss_mb": res["peak_rss_mb"], "layers": res["layers"],
    }
    (out_dir / f"result-{tag}.json").write_text(json.dumps(record, indent=2) + "\n")

    if args.trace:
        values = dict(res["layers"])
        values["prc.import_s"] = statistics.median(s["import_s"] for s in samples)
        units = PER_LAYER
    else:
        # the mean over all cycles covers the whole measured window; the CPU
        # speed of a shared host drifts in regimes of seconds, so a median of
        # short cycles would sample one regime
        values = {"wall_s": statistics.fmean(c["wall_s"] for c in res["cycles"]),
                  "setup_s": statistics.median(s["setup_s"] for s in samples),
                  "peak_rss_mb": res["peak_rss_mb"]}
        units = END_TO_END

    print(f"# prc benchmark: {tag}, seconds={args.seconds}, cycles={len(res['cycles'])}")
    print("# env: " + ", ".join(f"{k}={record[k]}" for k in
                                ("git_sha", "cores", "threads", "python", "numpy",
                                 "scipy", "seed")))
    for name in units:
        print(f"{name:32s} {values[name]:.6g} {units[name]}")
    if not args.trace:
        for name, value, unit in report_only(res["cycles"], res):
            print(f"{name:32s} {value:.6g} {unit}")
    for key, digest in sorted(res["digests"].items()):
        print(f"# sha256 {digest} {key}")
    for reason in res["reasons"]:
        print(f"# FAILED {reason}")
    print(json.dumps({
        "correct": res["failed"] == 0,
        "attempted": res["attempted"],
        "failed": res["failed"],
        "metrics": {k: {"value": values[k], "unit": units[k]} for k in units},
    }))
    return 0


def report_only(cycles: list[dict], res: dict):
    """End-to-end metrics printed on the workloads where they apply.

    They are not in the final JSON line, which must carry the same metrics on
    every workload.  Values are means per cycle, except probe_s (per query).
    """
    def mean(key):
        return statistics.fmean(c[key] for c in cycles)

    calls = sum(c["certify_calls"] for c in cycles)
    if calls:
        yield "certify_s", mean("certify_s"), "s"
    if any(c["replays"] for c in cycles):
        yield "replay_s", mean("replay_s"), "s"
    if any(c["probe_calls"] for c in cycles):
        yield "probe_s", sum(c["probe_s"] for c in cycles) / sum(
            c["probe_calls"] for c in cycles), "s"
    if calls:
        yield "cert_bytes", mean("cert_bytes"), "bytes"
    yield "error_share", res["failed"] / max(res["attempted"], 1), "ratio"
    if calls:
        yield "inconclusive_share", sum(c["inconclusive"] for c in cycles) / calls, "ratio"


if __name__ == "__main__":
    raise SystemExit(main())
