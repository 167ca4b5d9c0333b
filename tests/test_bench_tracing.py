"""The benchmark's traced run (`perfbench/run.py --trace 1`) wraps `prc`
functions named as strings and reads attributes of what they return; a
rename under `src/` breaks only that run, so it is exercised here."""

import importlib
import importlib.util
from pathlib import Path

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def _worker():
    spec = importlib.util.spec_from_file_location("perfbench_worker",
                                                  PERFBENCH / "worker.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)  # puts perfbench/ on sys.path for its imports
    return module


def test_tracing_wraps_certify_and_restores_every_name():
    worker = _worker()
    import inputs
    import spans

    C = importlib.import_module("prc.certify")  # prc.certify is also a function
    # an earlier test may have built the Wermer system; a memo hit builds nothing
    importlib.import_module("prc.trgeom")._built_system.cache_clear()

    tr = spans.Tracer()
    worker.install_tracing(tr)
    wrapped = list(tr._restore)
    try:
        assert all(getattr(owner, attr) is not fn for owner, attr, fn in wrapped)
        sys_, K, omega, opts = C.load_manifest(inputs.wermer_manifest(0.3, 150_000))
        cert = C.certify(sys_, K, omega, **opts)
    finally:
        tr.restore()
    assert cert.verdict == "PASS"
    assert tr.counts["trgeom.build_calls"] > 0
    assert tr.counts["rigor.tube_nodes"] > 0
    assert tr.counts["rigor.tr_nodes"] > 0
    assert all(getattr(owner, attr) is fn for owner, attr, fn in wrapped)


def test_tracing_walks_pass_and_partial_fail_trees():
    """The traced run walks `.children` of the trees subdivide builds: its
    leaf count is the report's, for a PASS cap and for the tube tree a FAIL
    level cut short (Wermer r = 0.33)."""
    worker = _worker()
    import inputs
    import spans

    C = importlib.import_module("prc.certify")
    tr = spans.Tracer()
    worker.install_tracing(tr)
    try:
        for manifest, verdict in ((inputs.cap_manifest(1.2), "PASS"),
                                  (inputs.wermer_manifest(0.33, 150_000), "FAIL")):
            leaves, nodes = tr.counts["rigor.tube_leaves"], tr.counts["rigor.tube_nodes"]
            sys_, K, omega, opts = C.load_manifest(manifest)
            cert = C.certify(sys_, K, omega, **opts)
            assert cert.verdict == verdict
            tube = cert.checks["omega_in_tube"]
            leaves = tr.counts["rigor.tube_leaves"] - leaves
            assert leaves == tube["report"]["leaf_count"] == len(tube["leaves"])
            assert tr.counts["rigor.tube_nodes"] - nodes == 2 * leaves - 1
    finally:
        tr.restore()
    assert cert.witness["check"] == "omega_in_tube" and tube["status"] == "FAILED"


def test_tracing_counts_every_lp_of_a_probe_and_restores_linprog():
    """The traced `hull_probe` run counts LPs through the module attribute
    `prc.hullprobe.linprog`, whose `A_ub` keyword it reads; after `restore`
    the attribute is the original function again."""
    worker = _worker()
    import spans

    C = importlib.import_module("prc.certify")
    hp = importlib.import_module("prc.hullprobe")
    original = hp.linprog
    tr = spans.Tracer()
    worker.install_tracing(tr)
    try:
        assert hp.linprog is not original
        cloud = hp.sample_compact(C.wermer_system(), C.wermer_compact(1.0), density=8)
        res = hp.probe(cloud, [0j, 2 + 0j], degree=2)
    finally:
        tr.restore()
    assert res.rounds >= 1
    assert tr.counts["hullprobe.lp_calls"] == res.rounds
    assert tr.counts["hullprobe.lp_cols"] > 0
    assert tr.counts["hullprobe.cloud_points"] == len(cloud.points)
    assert hp.linprog is original
