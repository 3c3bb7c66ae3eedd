"""Self-test of the benchmark's correctness checks and declared metrics.

    python3 perfbench/selftest.py

Runs one real op of every workload and requires its check to pass, then
corrupts that output in ways a broken program could (fidelity lowered, a
sweep row missing, n_b1 moved by 10 standard errors, ...) and requires each
corruption to be counted as a failure.  Finally it validates BENCHMARK.json
and runs one workload untraced and traced, requiring every declared
metric, with its unit, in each result.  Exits 1 on any miss.  Takes about a
minute.
"""

import json
import os
import re
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))

import numpy as np  # noqa: E402
import scipy.linalg  # noqa: E402

import workloads as wl  # noqa: E402
from cavsqueeze import model  # noqa: E402

NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")

problems = []


def expect(ok: bool, what: str) -> None:
    print(f"{'PASS' if ok else 'FAIL'}  {what}")
    if not ok:
        problems.append(what)


def expect_caught(workload, inputs, out, what: str) -> None:
    failures = workload.check(inputs, out)
    expect(bool(failures), f"{workload.name}: {what} counts as a failure ({'; '.join(failures) or 'passed'})")


def rewrite_csv(src: str, dst: str, edit) -> None:
    with open(src) as fh:
        lines = fh.readlines()
    with open(dst, "w") as fh:
        fh.writelines(edit(lines))


def check_fock(workdir):
    w = wl.FockPump
    inputs = w.setup(0, workdir)
    out = w.op(inputs, 0)
    expect(w.check(inputs, out) == [], "fock-pump: real op passes its check")
    expect_caught(w, inputs, dict(out, fidelity=out["fidelity"] - 0.02), "fidelity lowered by 0.02")
    expect_caught(w, inputs, dict(out, truncation_leak=2e-3), "truncation leak 2e-3")
    expect_caught(w, inputs, dict(out, duan_sum=out["duan_sum"] + 2e-3), "duan_sum moved by 2e-3")
    expect_caught(w, inputs, dict(out, samples=out["samples"] - 1), "a missing sample")


def check_collision(workdir):
    w = wl.CollisionEnsemble
    inputs = w.setup(0, workdir)
    out = w.op(inputs, 0)
    expect(w.check(inputs, out) == [], "collision-ensemble: real op passes its check")
    se = w.reference(inputs)["standard_error"]
    for sign in (1, -1):
        moved = dict(out, n_b1_final=out["n_b1_final"] + sign * 10 * se)
        expect_caught(w, inputs, moved, f"n_b1 moved by {sign * 10:+d} SE")
    expect_caught(w, inputs, dict(out, max_truncation_leak=2e-3), "trajectory leak 2e-3")


def check_sweep(workdir):
    w = wl.GaussianSweep
    inputs = w.setup(0, workdir)
    out = w.op(inputs, 0)
    good = os.path.join(workdir, "good.csv")
    shutil.copy(out["csv"], good)
    expect(w.check(inputs, out) == [], "gaussian-sweep: real op passes its check")

    def variant(edit, what):
        path = os.path.join(workdir, "bad.csv")
        rewrite_csv(good, path, edit)
        expect_caught(w, inputs, {"exit_code": 0, "csv": path}, what)

    variant(lambda lines: lines[:-1], "a missing sweep row")
    variant(lambda lines: lines[:1] + lines[2:] + lines[1:2], "rows out of grid order")

    def bump(column, delta):
        def edit(lines):
            header = lines[0].strip().split(",")
            row = [float(v) for v in lines[7].split(",")]
            row[header.index(column)] += delta
            return lines[:7] + [",".join(repr(v) for v in row) + "\n"] + lines[8:]
        return edit

    variant(bump("n1_mean", 1e-3), "n1_mean moved by 1e-3 on one row")
    variant(bump("duan_sum", 1.0), "duan_sum pushed above 1 on one row")
    expect_caught(w, inputs, {"exit_code": 2, "csv": good}, "exit code 2")


def check_three_level(workdir):
    w = wl.ThreeLevel
    inputs = w.setup(0, workdir)
    out = w.op(inputs, 0)
    expect(w.check(inputs, out) == [], "three-level: real op passes its check")
    expect_caught(w, inputs, {"psi": inputs["psi0"]}, "the unevolved state")
    h_eff = model.build_effective_hamiltonian(inputs["params"], inputs["space"]).matrix
    longer = scipy.linalg.expm(-1.5j * inputs["t_end"] * h_eff) @ inputs["psi0"]
    expect_caught(w, inputs, {"psi": longer}, "the dispersive state at 1.5 t")
    psi = out["psi"].copy()
    psi[inputs["space"].index("h", 4, 4)] = 0.1
    expect_caught(w, inputs, {"psi": psi / np.linalg.norm(psi)}, "population at the Fock boundary")


def check_spec():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    expect(set(spec) == {"command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"},
           "BENCHMARK.json has exactly the required keys")
    expect({w["name"] for w in spec["workloads"]} <= set(wl.WORKLOADS), "declared workloads exist in workloads.py")
    metrics = spec["end_to_end"] + spec["per_layer"]
    names = [m["name"] for m in metrics + spec["workloads"]]
    expect(all(NAME.match(n) for n in names) and len(set(names)) == len(names), "names are valid and unique")
    expect(all(UNIT.match(m["unit"]) for m in metrics), "units are valid")
    expect(all(0 < m["bound"] <= 0.25 for m in spec["end_to_end"]), "bounds lie in (0, 0.25]")
    setup = [m for m in spec["end_to_end"] if m["name"] == "setup_s"]
    expect(bool(setup) and setup[0]["bound"] == max(m["bound"] for m in spec["end_to_end"]),
           "setup_s is declared with the largest bound")
    return spec


def check_emitted(spec):
    for trace, section in ((0, "end_to_end"), (1, "per_layer")):
        proc = subprocess.run(
            [sys.executable, os.path.join(HERE, "run.py"), "--workload", "collision-ensemble",
             "--seed", "0", "--seconds", "1", "--trace", str(trace)],
            cwd=ROOT, stdout=subprocess.PIPE, text=True, check=False,
        )
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        declared = {m["name"]: m["unit"] for m in spec[section]}
        emitted = {k: m["unit"] for k, m in result["metrics"].items()}
        expect(proc.returncode == 0 and set(result) == {"correct", "attempted", "failed", "metrics"},
               f"trace {trace}: result has exactly the required keys")
        expect(emitted == declared, f"trace {trace}: every {section} metric emitted with its unit")
        expect(result["correct"] and result["failed"] == 0, f"trace {trace}: run is correct")


def main() -> int:
    workdir = os.path.join(ROOT, ".perfbench_out", f"selftest-{os.getpid()}")
    os.makedirs(workdir)
    try:
        for check in (check_fock, check_collision, check_sweep, check_three_level):
            check(workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    check_emitted(check_spec())
    print(f"{len(problems)} problem(s)")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
