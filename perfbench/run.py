"""Benchmark of the diracwalk pipeline, end to end and per layer.

    python3 perfbench/run.py --workload weak_limit --seed 1 --trace 0
    python3 perfbench/run.py                       # every workload, 20 s each

Run it from anywhere inside a checkout that has ``src/diracwalk``; the
package is imported from that ``src``, never from an installed copy.  The
workloads, metric names and units are declared in ``BENCHMARK.json`` at the
checkout's root; ``workloads.py`` says why each workload exists.

Each workload runs closed-loop with one client in its own process
(``worker.py``), one workload after another, with BLAS/OpenMP pinned to
``THREADS`` threads.  With ``--trace 0`` the run reports the end-to-end
metrics:

- ``setup_s``: median over ``SETUP_SAMPLES`` fresh interpreters of the time
  from start until ``diracwalk`` is imported and the inputs are prepared;
- ``solve_s`` / ``cpu_s``: median wall / process-CPU seconds per operation;
- ``peak_rss_mb``: peak resident memory of the workload process.

With ``--trace 1`` it reports the per-layer metrics of a traced run (see
``spans.py``), plus ``trace.overhead_s``: the traced median ``solve_s``
minus the untraced median measured in the same process.  The spans go to
``.perfbench/spans_<workload>_seed<seed>.json``.

The last stdout line is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``.  An operation fails on a non-zero exit status,
an exception or a failed output check; the error rate (failed / attempted)
is printed on the summary line.  Without ``src/diracwalk`` the benchmark
prints no result and exits 2; if a workload process dies or overruns its
time, 3.
"""

import argparse
import json
import os
import select
import shutil
import statistics
import subprocess
import sys
import tempfile
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
WORKER = os.path.join(ROOT, "perfbench", "worker.py")
SCRATCH = os.path.join(ROOT, ".perfbench")

THREADS = 1  # BLAS/OpenMP threads per workload process; at most nproc
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
SETUP_SAMPLES = 3
RUN_LIMIT_S = 170.0  # per workload, set-up included


class RunError(Exception):
    pass


def _child_env() -> dict:
    env = dict(os.environ, PYTHONHASHSEED="0")
    # set-up is measured with the bytecode cache a user's repeated runs have
    env.pop("PYTHONDONTWRITEBYTECODE", None)
    for var in THREAD_VARS:
        env[var] = str(min(THREADS, os.cpu_count() or 1))
    return env


def _start(cmd, deadline):
    """Start a workload process; return it, the seconds until it printed
    ``ready`` and whatever it printed after that line."""
    started = time.perf_counter()
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, env=_child_env(),
                            cwd=ROOT)
    buf = b""
    try:
        while b"\n" not in buf:
            left = deadline - time.perf_counter()
            if left <= 0 or not select.select([proc.stdout], [], [], left)[0]:
                raise RunError("workload process did not get ready in time")
            chunk = os.read(proc.stdout.fileno(), 65536)
            if not chunk:
                raise RunError(f"workload process exited with status "
                               f"{proc.wait()} before it was ready")
            buf += chunk
        ready = time.perf_counter() - started
        line, _, rest = buf.partition(b"\n")
        if line != b"ready":
            raise RunError(f"unexpected output from workload process: "
                           f"{line!r}")
    except BaseException:
        proc.kill()
        proc.wait()
        raise
    return proc, ready, rest


def _finish(proc, rest, deadline) -> bytes:
    try:
        out, _ = proc.communicate(timeout=max(deadline - time.perf_counter(),
                                              0.0))
    except BaseException as exc:
        proc.kill()
        proc.wait()
        if isinstance(exc, subprocess.TimeoutExpired):
            raise RunError("workload process overran its time") from None
        raise
    if proc.returncode != 0:
        raise RunError(f"workload process exited with status "
                       f"{proc.returncode}")
    return rest + out


def run_workload(name, seed, seconds, trace, tiny) -> dict:
    """Start the set-up samples and the workload process; return the
    worker's result with the set-up times added."""
    deadline = time.perf_counter() + RUN_LIMIT_S
    os.makedirs(SCRATCH, exist_ok=True)
    out_dir = tempfile.mkdtemp(prefix=f"{name}_", dir=SCRATCH)
    cmd = [sys.executable, WORKER, "--workload", name, "--seed", str(seed),
           "--out-dir", out_dir] + (["--tiny"] if tiny else [])
    try:
        setup = []
        if not trace:
            for _ in range(SETUP_SAMPLES - 1):
                proc, ready, rest = _start(cmd + ["--mode", "setup"], deadline)
                _finish(proc, rest, deadline)
                setup.append(ready)
        run = cmd + ["--mode", "run", "--seconds", str(seconds)]
        spans_path = None
        if trace:
            spans_path = os.path.join(SCRATCH, f"spans_{name}_seed{seed}.json")
            run += ["--trace", spans_path]
        proc, ready, rest = _start(run, deadline)
        setup.append(ready)
        out = _finish(proc, rest, deadline)
    finally:
        shutil.rmtree(out_dir, ignore_errors=True)
    result = json.loads(out.decode().strip().splitlines()[-1])
    result["setup_s"] = setup
    result["spans_path"] = spans_path
    return result


def _percentile_line(walls) -> str:
    """The highest percentile of solve_s with at least ten samples beyond."""
    n = len(walls)
    if n < 11:
        return f"  (no solve_s percentile: {n} samples, need 11)"
    value = sorted(walls)[n - 11]
    return (f"  solve_s p{100.0 * (n - 10) / n:.1f} = {value:.6g} s "
            f"(10 of {n} samples beyond)")


def end_to_end(result) -> dict:
    records = result["records"]
    return {
        "setup_s": statistics.median(result["setup_s"]),
        "solve_s": statistics.median(r["wall"] for r in records),
        "cpu_s": statistics.median(r["cpu"] for r in records),
        "peak_rss_mb": result["peak_rss_kb"] / 1024.0,
    }


def per_layer(result, names) -> dict:
    """Medians over the traced operations.  A figure that is zero in every
    operation but not in the traced set-up comes from the set-up
    (limit_law builds its state there)."""
    traced = [r for r in result["records"] if r["traced"]]
    plain = [r for r in result["records"] if not r["traced"]]
    values = {"trace.overhead_s":
              statistics.median(r["wall"] for r in traced)
              - statistics.median(r["wall"] for r in plain)}
    for name in names:
        if name in values:
            continue
        ops = [r["layers"][name] for r in traced]
        from_setup = result["setup_layers"].get(name, 0)
        values[name] = from_setup if not any(ops) and from_setup \
            else statistics.median(ops)
    return values


def report(name, seed, trace, result, spec) -> dict:
    """Print the human-readable summary; return the JSON result object."""
    kind = "per_layer" if trace else "end_to_end"
    units = {m["name"]: m["unit"] for m in spec[kind]}
    values = per_layer(result, units) if trace else end_to_end(result)
    records = result["records"]
    failed = [r for r in records if r["problems"]]
    print(f"{name}: seed {seed}, trace {trace}, {len(records)} operations, "
          f"{len(failed)} failed, error_rate = "
          f"{len(failed) / len(records):.4g}")
    for metric, unit in units.items():
        print(f"  {metric} = {values[metric]:.6g} {unit}")
    if not trace:
        print(_percentile_line([r["wall"] for r in records]))
    for r in failed[:3]:
        print("  failed: " + " | ".join(r["problems"])[:600])
    print("  env: " + json.dumps(result["env"], sort_keys=True))
    if result["spans_path"]:
        print(f"  spans: {os.path.relpath(result['spans_path'], ROOT)}")
    return {"correct": not failed, "attempted": len(records),
            "failed": len(failed),
            "metrics": {m: {"value": values[m], "unit": u}
                        for m, u in units.items()}}


def main(argv=None) -> int:
    spec_path = os.path.join(ROOT, "BENCHMARK.json")
    with open(spec_path, encoding="utf-8") as fh:
        spec = json.load(fh)
    names = [w["name"] for w in spec["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=names + ["all"], default="all")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float,
                        default=float(spec["run_seconds"]))
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true",
                        help="tiny inputs, for the smoke check")
    args = parser.parse_args(argv)
    if not args.seconds > 0:
        parser.error("--seconds must be positive")
    if not os.path.isfile(os.path.join(ROOT, "src", "diracwalk", "cli.py")):
        print(f"no diracwalk sources under {ROOT}/src; run the benchmark "
              "from a checkout of the repository", file=sys.stderr)
        return 2

    outcomes = {}
    for name in names if args.workload == "all" else [args.workload]:
        try:
            result = run_workload(name, args.seed, args.seconds, args.trace,
                                  args.tiny)
        except RunError as exc:
            print(f"{name}: {exc}", file=sys.stderr)
            return 3
        outcomes[name] = report(name, args.seed, args.trace, result, spec)
        print(json.dumps(outcomes[name]))
    if len(outcomes) == 1:
        return 0
    print(json.dumps({
        "correct": all(o["correct"] for o in outcomes.values()),
        "attempted": sum(o["attempted"] for o in outcomes.values()),
        "failed": sum(o["failed"] for o in outcomes.values()),
        "metrics": {f"{w}.{m}": v for w, o in outcomes.items()
                    for m, v in o["metrics"].items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
