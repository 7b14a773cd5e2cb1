"""Tests of the benchmark's own machinery: tracer, generator and checks."""
import json
import os
import shutil
import sys
import threading

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))
sys.path.insert(0, HERE)

import checks  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402
from shiftdet import cli  # noqa: E402

# small inputs: the near-cut verify (n = 64) and the pooled trivial sweep
SMALL = ("verify-standard-x25", "sweep-trivial")
K = 6  # factor 1.0


def _run(inputs, out_root, tracer=None):
    codes = {}
    for name, argv in inputs:
        if name in SMALL:
            full = [*argv, "--out", os.path.join(out_root, name)]
            main = tracer.timed("cli.main", cli.main) if tracer else cli.main
            codes[name] = main(full)
    return codes


@pytest.fixture(scope="module")
def runs(tmp_path_factory):
    base = tmp_path_factory.mktemp("bench")
    inputs = workloads.write_inputs("shipped-suite", K, str(base / "inputs"))
    plain = _run(inputs, str(base / "plain"))
    tracer = spans.Tracer()
    with tracer.install():
        with tracer.span("trace.pass"):
            traced = _run(inputs, str(base / "traced"), tracer)
    return base, inputs, plain, traced, tracer


def test_traced_and_untraced_reports_are_byte_identical(runs):
    base, _, plain, traced, _ = runs
    assert plain == traced == {name: 0 for name in SMALL}
    for name in SMALL:
        for report in os.listdir(base / "plain" / name):
            if report == "run_manifest.json":  # holds the wall clock
                continue
            assert ((base / "plain" / name / report).read_bytes()
                    == (base / "traced" / name / report).read_bytes()), report


def test_install_restores_every_patched_name():
    import numpy as np
    from shiftdet import experiments, quadrature, rhp
    names = [(experiments, "gauss_legendre_rule"), (quadrature, "gauss_legendre_rule"),
             (experiments, "ThreadPoolExecutor"), (rhp.ChiSolution, "chi_at"),
             (np.linalg, "det")]
    before = [getattr(owner, name) for owner, name in names]
    with spans.Tracer().install():
        assert all(getattr(o, n) is not b for (o, n), b in zip(names, before))
    assert all(getattr(o, n) is b for (o, n), b in zip(names, before))


def test_main_thread_self_times_sum_to_traced_wall(runs):
    tracer = runs[-1]
    root = next(s for s in tracer.spans if s.name == "trace.pass")
    main = [s for s in tracer.spans if s.thread == root.thread]
    selfs = spans.self_times(tracer.spans)
    assert sum(selfs[s.id] for s in main) == pytest.approx(root.duration, rel=1e-9)
    assert all(v >= -1e-9 for v in selfs.values())


def test_pool_jobs_nest_under_the_pool_span(runs):
    tracer = runs[-1]
    by_id = {s.id: s for s in tracer.spans}
    jobs = [s for s in tracer.spans if s.name == "experiments.pool_job"]
    assert len(jobs) == len(workloads.SWEEP_XS)
    for job in jobs:
        pool = by_id[job.parent]
        assert pool.name == "experiments.pool"
        assert pool.thread == threading.get_ident() != job.thread
        assert pool.start <= job.start <= job.end <= pool.end
    layers = spans.summarize(tracer)
    assert layers["experiments.pool_busy_s"] > 0
    assert layers["rhp.cauchy_near_points"] > 0          # the x = 25 verify
    assert layers["rhp.solve_factorizations"] == 3 * layers["rhp.solve_n"]
    assert layers["quadrature.gl_calls"] >= layers["quadrature.gl_distinct"] > 0


def test_generator_is_deterministic(tmp_path):
    assert workloads.factor_index(7) == workloads.factor_index(7)
    factors = {workloads.scaled(1.0, workloads.factor_index(s)) for s in range(200)}
    assert len(factors) == workloads.FACTOR_STEPS
    assert min(factors) == 0.97 and max(factors) == 1.03
    k = workloads.factor_index(7)
    a = workloads.write_inputs("shipped-suite", k, str(tmp_path / "a"))
    b = workloads.write_inputs("shipped-suite", k, str(tmp_path / "b"))
    assert [argv[2:] for _, argv in a] == [argv[2:] for _, argv in b]
    for (_, pa), (_, pb) in zip(a, b):
        assert open(pa[1], "rb").read() == open(pb[1], "rb").read()
    m_vs_m0 = dict(a)["m-vs-m0-standard"]
    xs = [float(v) for v in m_vs_m0[3].split(",")]
    assert all(xs[i + 1] == 2 * xs[i] for i in range(len(xs) - 1))


def test_injected_wrong_value_fails_the_operation(runs, tmp_path):
    base = runs[0]
    out = tmp_path / "verify"
    shutil.copytree(base / "plain" / "verify-standard-x25", out)
    got = checks.extract("verify", str(out))
    ref = {"values": got["values"], "sha256": got["sha256"]}
    assert checks.check("verify", 0, str(out), ref) == {"failures": [], "identical": True}
    assert checks.check("verify", 1, str(out), ref)["failures"]

    report = json.loads((out / "identity_report.json").read_text())
    report["determinants"]["V"]["value_re"] *= 1 + 1e-6
    (out / "identity_report.json").write_text(json.dumps(report))
    res = checks.check("verify", 0, str(out), ref)
    assert not res["identical"]
    assert [f.split(":")[0] for f in res["failures"]] == ["det.V"]


def test_undecreasing_sweep_errors_fail_the_operation(tmp_path):
    out = tmp_path / "sweep"
    out.mkdir()
    (out / "sweep.csv").write_text("x,ratio_re,ratio_im,limit_re,limit_im,err,conv_delta\n")
    (out / "sweep_summary.json").write_text(json.dumps({
        "ok": True, "slope_skipped": False, "slope": -1.0,
        "err_strictly_decreasing": False}))
    got = checks.extract("sweep", str(out))
    res = checks.check("sweep", 0, str(out), {"values": got["values"],
                                             "sha256": got["sha256"]})
    assert res["failures"] == ["gate err_strictly_decreasing is false"]


def test_benchmark_json_lists_every_printed_metric(runs):
    import run
    with open(os.path.join(os.path.dirname(HERE), "BENCHMARK.json")) as fh:
        bench = json.load(fh)
    printed = {**spans.summarize(runs[-1]), "cli.report_bytes": 0, "trace.overhead_s": 0}
    assert {m["name"]: m["unit"] for m in bench["per_layer"]} == {
        name: run.unit_of(name) for name in printed}
    assert [w["name"] for w in bench["workloads"]] == list(workloads.WORKLOADS)


def test_pool_spans_survive_thread_switches():
    tracer = spans.Tracer()
    pool_cls = tracer._pool_class()

    def job(i):
        with tracer.span("rhp.outer"):
            with tracer.span("quadrature.inner", i=i):
                return i

    old = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        with tracer.span("trace.pass"):
            with pool_cls(max_workers=8) as pool:
                futures = [pool.submit(job, i) for i in range(400)]
                assert [f.result(timeout=60) for f in futures] == list(range(400))
    finally:
        sys.setswitchinterval(old)
    assert len(tracer.spans) == 2 + 3 * 400
    assert len({s.id for s in tracer.spans}) == len(tracer.spans)
    by_id = {s.id: s for s in tracer.spans}
    inner = [s for s in tracer.spans if s.name == "quadrature.inner"]
    assert sorted(s.attrs["i"] for s in inner) == list(range(400))
    for s in inner:
        outer = by_id[s.parent]
        job_span = by_id[outer.parent]
        assert outer.name == "rhp.outer" and job_span.name == "experiments.pool_job"
        assert s.thread == outer.thread == job_span.thread
        assert by_id[job_span.parent].name == "experiments.pool"
