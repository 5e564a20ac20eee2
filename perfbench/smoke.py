"""Smoke check of the benchmark itself.

    python3 perfbench/smoke.py

Runs every workload at tiny sizes through ``run.py``, untraced and traced,
and checks that each run is correct and reports exactly the metrics that
``BENCHMARK.json`` declares; that the recorded spans nest inside their
parents and that self plus child times add up to every span's duration;
that failing operations are counted instead of ending the run; and that the
benchmark refuses to run where there are no diracwalk sources.  Prints one
line per problem and exits 1 if there is any, else prints ``smoke ok``.
"""

import json
import os
import shutil
import subprocess
import sys
import tempfile

import spans
import worker

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SEED = 7


def _run(root, *args):
    return subprocess.run(
        [sys.executable, os.path.join(root, "perfbench", "run.py"), *args],
        capture_output=True, text=True, timeout=170, cwd=root)


def check_workload(name, trace, spec) -> list[str]:
    proc = _run(ROOT, "--workload", name, "--seed", str(SEED), "--seconds",
                "1", "--trace", str(trace), "--tiny")
    where = f"{name} trace {trace}"
    if proc.returncode != 0:
        return [f"{where}: exit status {proc.returncode}: "
                f"{proc.stderr[-400:]}"]
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    problems = []
    if not result["correct"] or result["failed"]:
        problems.append(f"{where}: failed operations\n{proc.stdout}")
    want = {m["name"] for m in spec["per_layer" if trace else "end_to_end"]}
    if set(result["metrics"]) != want:
        problems.append(f"{where}: metrics {sorted(result['metrics'])}")
    if trace:
        path = os.path.join(ROOT, ".perfbench",
                            f"spans_{name}_seed{SEED}.json")
        with open(path, encoding="ascii") as fh:
            recorded = json.load(fh)
        problems += [f"{where}: {p}" for p in spans.check_tree(recorded)]
        names = {s["name"] for s in recorded}
        if not {"op", "cli.main", "table.write_csv"} <= names:
            problems.append(f"{where}: spans recorded only {sorted(names)}")
    return problems


def check_failure_accounting() -> list[str]:
    """A non-zero exit status, a crash and a failed check each mark the
    operation failed and leave the run going."""
    worker._import_package()
    import workloads

    out_dir = tempfile.mkdtemp(dir=os.path.join(ROOT, ".perfbench"))
    try:
        wl = workloads.WeakLimit(SEED, True, out_dir, workloads.public_api())
        good = list(wl.argv)
        cases = {
            "usage error": (good[:2] + ["-1"] + good[3:], None),
            "missing output": (good[:-2], None),
            "crash": (good, RuntimeError("injected")),
        }
        problems = []
        with open(os.devnull, "w") as sink:
            for what, (argv, crash) in cases.items():
                wl.argv = argv
                if crash is not None:
                    def raise_it(crash=crash):
                        raise crash
                    wl.run = raise_it
                record = worker.run_op(wl, None, sink)
                if not record["problems"]:
                    problems.append(f"{what}: operation not counted as failed")
        return problems
    finally:
        shutil.rmtree(out_dir, ignore_errors=True)


def check_refuses_without_sources() -> list[str]:
    bare = tempfile.mkdtemp(dir=os.path.join(ROOT, ".perfbench"))
    try:
        shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
        shutil.copytree(HERE, os.path.join(bare, "perfbench"),
                        ignore=shutil.ignore_patterns("__pycache__"))
        proc = _run(bare, "--workload", "limit_law", "--seconds", "1")
        if proc.returncode == 0 or proc.stdout.strip():
            return ["benchmark ran without diracwalk sources"]
        return []
    finally:
        shutil.rmtree(bare, ignore_errors=True)


def main() -> int:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    os.makedirs(os.path.join(ROOT, ".perfbench"), exist_ok=True)
    problems = []
    for w in spec["workloads"]:
        for trace in (0, 1):
            problems += check_workload(w["name"], trace, spec)
    problems += check_failure_accounting()
    problems += check_refuses_without_sources()
    for p in problems:
        print(p)
    print("smoke ok" if not problems else f"smoke: {len(problems)} problems")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
