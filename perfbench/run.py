"""cavsqueeze benchmark: time to solution on four workloads, end to end and
layer by layer.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --workload all [--seed N] [--seconds S] [--trace 0|1]

Run from the repository root.  Every op runs in a fresh Python process
(perfbench/worker.py), one process at a time.  With ``--trace 0`` the run
starts one process per op until S seconds have passed (and at least the
workload's min_ops have run), tops the set-up times up to SETUP_SAMPLES with
set-up-only processes, and reports the end-to-end metrics.  With
``--trace 1`` it runs op 0 once untraced and once traced, each in its own
process, and reports the per-layer metrics.  Metric names and units come from
BENCHMARK.json.  The last line of stdout is the JSON result; a record with the
raw per-op times and the run metadata goes to .perfbench_out/.
"""

import argparse
import json
import os
import signal
import statistics
import subprocess
import sys
import time

from workloads import WORKLOADS

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUT_DIR = os.path.join(ROOT, ".perfbench_out")
WORKER = os.path.join(HERE, "worker.py")
PACKAGE = os.path.join(ROOT, "src", "cavsqueeze", "__init__.py")

SETUP_SAMPLES = 5
RUN_BUDGET_S = 170.0


class BenchError(Exception):
    pass


def spawn(workload, args: list, deadline: float) -> dict:
    """Run one worker process to completion; its set-up time is measured
    from just before the process is started."""
    args = ["--workload", workload.name, *args]
    started = time.monotonic()
    proc = subprocess.Popen([sys.executable, WORKER, *args], stdout=subprocess.PIPE, cwd=ROOT, text=True)
    try:
        out, _ = proc.communicate(timeout=max(1.0, deadline - started))
    except subprocess.TimeoutExpired:
        raise BenchError(f"worker {' '.join(args)} exceeded the run budget")
    finally:
        # also on SIGTERM (raised as SystemExit in main): no worker outlives us
        if proc.poll() is None:
            proc.kill()
            proc.communicate()
    if proc.returncode != 0:
        raise BenchError(f"worker {' '.join(args)} exited {proc.returncode}")
    lines = [line for line in out.splitlines() if line.strip()]
    result = json.loads(lines[-1])
    result["setup_s"] = result["ready"] - started
    return result


def benchmark_spec() -> dict:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        return json.load(fh)


def assemble(values: dict, section: str) -> dict:
    """The metrics BENCHMARK.json declares in section, each with its unit."""
    declared = benchmark_spec()[section]
    names = [m["name"] for m in declared]
    if set(names) != set(values):
        raise BenchError(
            f"{section}: missing {sorted(set(names) - set(values))}, "
            f"undeclared {sorted(set(values) - set(names))}"
        )
    return {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in declared}


def git_commit():
    """HEAD of the checkout when it is a git work tree, read without git."""
    git = os.path.join(ROOT, ".git")
    try:
        with open(os.path.join(git, "HEAD")) as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        ref_path = os.path.join(git, ref)
        if os.path.exists(ref_path):
            with open(ref_path) as fh:
                return fh.read().strip()
        with open(os.path.join(git, "packed-refs")) as fh:
            for line in fh:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return None


def measure(workload, seed: int, seconds: float, deadline: float) -> tuple:
    """Ops in fresh processes, one op each, until S seconds have passed and
    at least the workload's min_ops have run; then set-up-only processes
    until there are SETUP_SAMPLES set-up times."""
    common = ["--seed", str(seed)]
    begin = time.monotonic()
    runs = []
    while len(runs) < workload.min_ops or time.monotonic() - begin < seconds:
        runs.append(spawn(workload, common + ["--mode", "once", "--op", str(len(runs))], deadline))
    setups = [run["setup_s"] for run in runs]
    while len(setups) < SETUP_SAMPLES:
        setups.append(spawn(workload, common + ["--mode", "setup"], deadline)["setup_s"])
    ops = [run["op"] for run in runs]
    values = {
        "setup_s": statistics.median(setups),
        # the fastest process: on a shared host whole processes, and spells
        # of tens of seconds, run up to twice as slow (see BASELINE.md)
        "solve_s": min(op["wall_s"] for op in ops),
        "peak_rss_mb": statistics.median(run["peak_rss_mb"] for run in runs),
    }
    record = {"setup_samples_s": setups, "ops": ops, "meta": runs[0]["meta"]}
    return assemble(values, "end_to_end"), ops, record


def trace(workload, seed: int, deadline: float) -> tuple:
    common = ["--seed", str(seed)]
    plain = spawn(workload, common + ["--mode", "once"], deadline)
    spans_path = os.path.join(OUT_DIR, f"spans-{workload.name}-seed{seed}.json")
    traced = spawn(workload, common + ["--mode", "trace", "--spans", spans_path], deadline)
    plain_op, traced_op = plain["op"], traced["op"]
    values = dict(traced["layers"])
    values["process.cpu_per_wall"] = plain_op["cpu_s"] / plain_op["wall_s"]
    values["trace.solve_s"] = traced_op["wall_s"]
    values["trace.overhead_ratio"] = traced_op["wall_s"] / plain_op["wall_s"]
    record = {
        "ops": [plain_op, traced_op],
        "self_seconds": traced["self_seconds"],
        "spans": os.path.relpath(spans_path, ROOT),
        "meta": traced["meta"],
    }
    return assemble(values, "per_layer"), [plain_op, traced_op], record


def run_one(name: str, seed: int, seconds: float, traced: bool, deadline: float) -> dict:
    workload = WORKLOADS[name]
    if traced:
        metrics, ops, record = trace(workload, seed, deadline)
    else:
        metrics, ops, record = measure(workload, seed, seconds, deadline)
    failed = sum(1 for op in ops if op["failures"])
    result = {"correct": failed == 0, "attempted": len(ops), "failed": failed, "metrics": metrics}

    record.update(workload=name, seed=seed, seconds=seconds, trace=int(traced), result=result)
    record["meta"]["git_commit"] = git_commit()
    tag = f"{name}-seed{seed}-trace{int(traced)}"
    with open(os.path.join(OUT_DIR, f"result-{tag}.json"), "w") as fh:
        json.dump(record, fh, indent=1)

    print(f"== {name}  seed {seed}  trace {int(traced)}")
    for op in ops:
        status = "ok" if not op["failures"] else "FAILED: " + "; ".join(op["failures"])
        print(f"   op {op['wall_s']:9.3f} s wall  {op['cpu_s']:9.3f} s cpu  {status}")
    print(f"   fail_ratio {failed}/{len(ops)} = {failed / len(ops):g}  ({len(ops)} ops)")
    for metric, m in metrics.items():
        print(f"   {metric:40s} {m['value']:>14.6g} {m['unit']}")
    if traced:
        for span, sec in sorted(record["self_seconds"].items(), key=lambda kv: -kv[1]):
            print(f"   self {span:35s} {sec:10.4f} s")
    print("   meta " + json.dumps(record["meta"], sort_keys=True))
    return result


def main() -> int:
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=tuple(WORKLOADS) + ("all",))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=None,
                        help="measuring time per run (default: run_seconds of BENCHMARK.json)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    if args.seed < 0:
        print("error: --seed must be nonnegative", file=sys.stderr)
        return 2
    if not os.path.isfile(PACKAGE):
        print(f"error: {os.path.relpath(PACKAGE, ROOT)} not found; run from a cavsqueeze checkout",
              file=sys.stderr)
        return 2
    seconds = args.seconds if args.seconds is not None else float(benchmark_spec()["run_seconds"])
    os.makedirs(OUT_DIR, exist_ok=True)
    names = tuple(WORKLOADS) if args.workload == "all" else (args.workload,)
    results = {}
    try:
        for name in names:
            deadline = time.monotonic() + RUN_BUDGET_S
            results[name] = run_one(name, args.seed, seconds, bool(args.trace), deadline)
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    print(json.dumps(results if args.workload == "all" else results[args.workload]))
    return 0


if __name__ == "__main__":
    sys.exit(main())
