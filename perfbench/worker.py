"""The workload process of the benchmark.

It imports ``diracwalk`` from the checkout's ``src``, prepares one workload,
prints ``ready`` and, unless it only measures set-up, runs operations in a
closed loop (one at a time, the next only after the previous one and its
check are done) for the given number of seconds.  Its last stdout line is
one JSON object with a record per operation, its peak RSS and the run
environment.  ``run.py`` starts it; it is not meant to be run by hand.

With ``--trace`` every second operation runs with span-recording wrappers
installed.
"""

import argparse
import contextlib
import io
import json
import os
import platform
import resource
import subprocess
import sys
import time
import traceback

import numpy
import scipy

import spans

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")


def _import_package():
    sys.path.insert(0, SRC)
    import diracwalk
    if not os.path.abspath(diracwalk.__file__).startswith(SRC + os.sep):
        raise SystemExit(f"diracwalk imported from {diracwalk.__file__}, "
                         f"not from {SRC}")


def _config_version(module, dep):
    try:
        return module.show_config(mode="dicts")["Build Dependencies"][dep][
            "version"]
    except (AttributeError, KeyError, TypeError):
        return "unknown"


def run_environment() -> dict:
    pins = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
    try:
        l3 = int(subprocess.run(["getconf", "LEVEL3_CACHE_SIZE"],
                                capture_output=True, check=True, timeout=10,
                                text=True).stdout)
    except (OSError, ValueError, subprocess.SubprocessError):
        l3 = None
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "numpy_blas": _config_version(numpy, "blas"),
        "scipy_blas": _config_version(scipy, "blas"),
        "threads": {k: os.environ.get(k) for k in pins},
        "l3_bytes": l3,
    }


def run_op(workload, tracer, sink) -> dict:
    """One timed operation and its (untimed) output check.

    A non-zero exit status, an exception or a failed check makes the
    operation fail; none of them ends the run."""
    err = io.StringIO()
    facts, problems, root = {}, [], None
    with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(err):
        span = tracer.span("op") if tracer else contextlib.nullcontext()
        wall, cpu = time.perf_counter(), time.process_time()
        try:
            with span as root:
                facts = workload.run()
        except Exception:  # a crashing operation is a failed operation
            problems.append(traceback.format_exc(limit=4))
        wall, cpu = time.perf_counter() - wall, time.process_time() - cpu
    record = {"wall": wall, "cpu": cpu, "traced": tracer is not None}
    if tracer is not None:
        record["layers"] = spans.layer_values(tracer, root["id"])
        record["layers"]["asymptotic.cdf_max_err"] = facts.get(
            "cdf_max_err", 0.0)
        facts.update(record["layers"])
    if not problems:
        try:
            problems = workload.check(facts)
        except Exception:  # e.g. an output file that is missing or garbled
            problems.append("check failed: " + traceback.format_exc(limit=4))
    if problems and err.getvalue():
        problems.append(err.getvalue()[-400:])
    record["problems"] = problems
    return record


def run_loop(workload, seconds, tracer=None, api=None) -> list[dict]:
    """Operations until ``seconds`` have passed.  With a tracer, untraced
    and traced operations alternate, so that both medians see the same
    machine and their difference is the tracing overhead."""
    records = []
    with open(os.devnull, "w") as sink:
        deadline = time.perf_counter() + seconds
        while len(records) < (2 if tracer else 1) \
                or time.perf_counter() < deadline:
            if tracer is not None and len(records) % 2:
                with tracer.installed(api):
                    records.append(run_op(workload, tracer, sink))
            else:
                records.append(run_op(workload, None, sink))
    return records


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--mode", choices=("setup", "run"), required=True)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=1.0)
    parser.add_argument("--trace", metavar="SPANS_JSON",
                        help="trace the run and write its spans here")
    parser.add_argument("--tiny", action="store_true")
    parser.add_argument("--out-dir", required=True)
    args = parser.parse_args(argv)

    _import_package()
    import workloads

    api = workloads.public_api()
    make = workloads.WORKLOADS[args.workload]
    tracer = spans.Tracer() if args.trace else None
    if tracer is None:
        workload = make(args.seed, args.tiny, args.out_dir, api)
    else:
        with tracer.installed(api), tracer.span("setup") as setup:
            workload = make(args.seed, args.tiny, args.out_dir, api)
    print("ready", flush=True)
    if args.mode == "setup":
        return 0

    records = run_loop(workload, args.seconds, tracer, api)
    result = {
        "records": records,
        "peak_rss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        "env": run_environment(),
    }
    if tracer is not None:
        result["setup_layers"] = spans.layer_values(tracer, setup["id"])
        with open(args.trace, "w", encoding="ascii") as fh:
            json.dump(tracer.spans, fh)
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
