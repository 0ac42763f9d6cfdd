"""The benchmark harness in perfbench/ still runs against this package: every
workload's smoke jobs, under the span tracer, pass their output checks.

The harness files are loaded from their paths as they are; a full
``python3 perfbench/run.py --smoke`` also starts worker processes and times
the frozen reference copy, which this test leaves out."""

import importlib.util
import sys
from pathlib import Path

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def load(name):
    spec = importlib.util.spec_from_file_location(f"perfbench_{name}", PERFBENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module
    spec.loader.exec_module(module)
    return module


jobs = load("jobs")
tracing = load("tracing")


def test_smoke_jobs_pass_under_tracer(tmp_path):
    tracer = tracing.Tracer()
    tracer.install(0)
    try:
        for workload in jobs.BUILDERS:
            for job in jobs.build_jobs(workload, 0, 0, tmp_path, smoke=True):
                assert job.check(job.run()).problems == [], job.name
    finally:
        tracer.uninstall()
    # the tracer reads len(args[0].values) of every pow4 call
    assert tracer.pass_metrics(0)["discrete_core.pow4.support_max"] > 0
