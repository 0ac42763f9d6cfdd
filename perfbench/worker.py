"""One fresh interpreter of the benchmark: imports one package and runs the
jobs run.py asks for, one at a time.

    python3 worker.py '<json configuration>'

The package is ``energylab``, the program under test, or ``energylab_ref``,
the frozen reference copy that calibrates it (see run.py).  The worker
prints one JSON line when it has imported the package, then answers each
JSON line on stdin with one JSON line on stdout:

- ``{"cmd": "job", "pass": k, "job": i, "traced": t}`` runs job i of pass k
  and answers with its seconds.  The inputs of pass k depend only on
  (seed, k), so both packages run the same inputs.  In a traced pass the
  tracer is installed from the pass's first job to its last.
- ``{"cmd": "finish"}`` checks every output (only in a worker with
  ``check`` set), writes the spans of a traced worker, answers with the
  outcome of every job, its peak RSS and the environment, and exits.

The peak RSS is read when the worker's first pass ends: the import and one
whole cold pass, which is what a one-shot CLI process reaches.  With mode
"import" the worker only times the import and exits.
"""

import importlib
import json
import os
import resource
import shutil
import sys
import time
import traceback
from pathlib import Path


def import_package(name: str, where: Path) -> float:
    """Seconds to import the package and its cli; refuses any copy of the
    package other than the one under `where`."""
    t0 = time.perf_counter()
    pkg = importlib.import_module(name)
    importlib.import_module(f"{name}.cli")
    elapsed = time.perf_counter() - t0
    if Path(pkg.__file__).resolve().parent != (where / name).resolve():
        raise SystemExit(f"imported {name} from {pkg.__file__}, not from {where}")
    return elapsed


def check_pass(jobs, results, roundtrip: bool) -> list:
    """Per job: name, problems, err/lhs of its certificates, q_hat."""
    import jobs as workloads

    out = []
    for job, (result, error) in zip(jobs, results):
        if error is not None:
            outcome = workloads.Outcome(problems=[f"raised: {error.strip()[-300:]}"])
        else:
            try:
                outcome = job.check(result)
                if roundtrip:
                    outcome.problems += roundtrip_problems(outcome.certs)
            except Exception:
                outcome = workloads.Outcome(problems=[f"check raised: {traceback.format_exc()[-300:]}"])
        out.append({"name": job.name, "problems": outcome.problems,
                    "rel_errs": [c["err"] / c["lhs"] for c in outcome.certs],
                    "q_hat": outcome.q_hat})
    return out


def roundtrip_problems(certs) -> list:
    """certificate_from_dict -> revalidate_certificate must keep the verdict."""
    import energylab

    problems = []
    for doc in certs:
        again = energylab.revalidate_certificate(energylab.certificate_from_dict(doc))
        if again.valid != doc["valid"]:
            problems.append(f"revalidated verdict {again.valid} != stored {doc['valid']}")
    return problems


def serve(cfg: dict, send) -> None:
    import mpmath
    import numpy

    import jobs as workloads
    from tracing import Tracer

    tmp = Path(cfg["tmp"])
    tmp.mkdir(parents=True, exist_ok=True)
    tracer = Tracer() if cfg["trace"] else None
    passes = {}  # index -> {"jobs", "results", "traced"}
    rss_mb = None
    try:
        for line in sys.stdin:
            msg = json.loads(line)
            if msg["cmd"] == "finish":
                break
            k, i = msg["pass"], msg["job"]
            if k not in passes:
                passes[k] = {"traced": msg["traced"], "results": [],
                             "jobs": workloads.build_jobs(cfg["workload"], cfg["seed"], k, tmp,
                                                          cfg["smoke"], cfg["package"])}
            p = passes[k]
            if p["traced"] and i == 0:
                tracer.install(k)
            t0 = time.perf_counter()
            try:
                result, error = p["jobs"][i].run(), None
            except Exception:
                result, error = None, traceback.format_exc()
            seconds = time.perf_counter() - t0
            last = i == len(p["jobs"]) - 1
            if p["traced"] and last:
                tracer.uninstall()
            if last and rss_mb is None:
                rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
            p["results"].append((result, error))
            send({"seconds": seconds, "jobs": len(p["jobs"]), "error": error})
        out = []
        for k, p in passes.items():
            checked = (check_pass(p["jobs"], p["results"], cfg["roundtrip"] and not out)
                       if cfg["check"] else [])
            out.append({"index": k, "jobs": checked,
                        "layers": tracer.pass_metrics(k) if p["traced"] else None})
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
    if tracer is not None:
        tracer.write(cfg["spans_path"])
    pkg = importlib.import_module(cfg["package"])
    send({"rss_mb": rss_mb, "passes": out,
          "absent_entry_points": tracer.absent if tracer else [],
          "environment": {"energylab": pkg.__version__, "numpy": numpy.__version__,
                          "mpmath": mpmath.__version__, "mpmath_backend": mpmath.libmp.BACKEND,
                          "python": sys.version.split()[0],
                          "blas_threads": os.environ.get("OPENBLAS_NUM_THREADS"),
                          "ENERGY_LAB_THREADS": os.environ.get("ENERGY_LAB_THREADS")}})


def main(cfg: dict) -> None:
    # Replies go to the original stdout; anything else printed goes to stderr.
    channel = os.fdopen(os.dup(1), "w")
    sys.stdout = sys.stderr

    def send(doc):
        channel.write(json.dumps(doc) + "\n")
        channel.flush()

    where = Path(cfg["src"] if cfg["package"] == "energylab" else cfg["reference"])
    send({"setup_s": import_package(cfg["package"], where)})
    if cfg["mode"] == "serve":
        serve(cfg, send)


if __name__ == "__main__":
    main(json.loads(sys.argv[1]))
