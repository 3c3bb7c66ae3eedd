"""One benchmark process: set a workload up, run one op, print a JSON result.

run.py starts this script once per phase, one process at a time:

    python3 perfbench/worker.py --workload NAME --seed N --mode MODE
        [--op J] [--spans PATH]

MODE is ``setup`` (import the package, build the inputs, stop), ``once``
(then run op J, default 0, and check it) or ``trace`` (as ``once``, with the
layer wrappers installed and recording during the op).
The moment set-up finished is reported on ``time.monotonic()``, the clock the
parent read when it started this process.  The last line of stdout is the
result.
"""

import argparse
import json
import os
import resource
import shutil
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUT_DIR = os.path.join(ROOT, ".perfbench_out")
THREAD_ENV = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS", "CAVSQUEEZE_WORKERS")


def metadata() -> dict:
    import numpy as np
    import scipy
    from cavsqueeze import dynamics

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "python": sys.version.split()[0],
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "thread_env": {key: os.environ.get(key) for key in THREAD_ENV},
        "ensemble_workers": dynamics._worker_count(None),
    }


def peak_rss_mb() -> float:
    # ru_maxrss is in KiB on Linux
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, children) / 1024.0


def run_op(workload, inputs, j: int, tracer) -> dict:
    if tracer is not None:
        tracer.recording = True
    cpu0, t0 = time.process_time(), time.perf_counter()
    try:
        out = workload.op(inputs, j)
        error = None
    except Exception as exc:  # a failed op is counted, not fatal
        error = f"op raised {type(exc).__name__}: {exc}"
    t1, cpu1 = time.perf_counter(), time.process_time()
    if tracer is not None:
        tracer.recording = False
    if error is None:
        try:
            failures = workload.check(inputs, out)
        except Exception as exc:
            failures = [f"check raised {type(exc).__name__}: {exc}"]
    else:
        failures = [error]
    return {"wall_s": t1 - t0, "cpu_s": cpu1 - cpu0, "failures": failures}


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--mode", choices=("setup", "once", "trace"), required=True)
    parser.add_argument("--op", type=int, default=0)
    parser.add_argument("--spans")
    args = parser.parse_args()

    sys.path.insert(0, os.path.join(ROOT, "src"))
    from workloads import WORKLOADS

    workload = WORKLOADS[args.workload]
    os.makedirs(OUT_DIR, exist_ok=True)
    workdir = os.path.join(OUT_DIR, f"work-{os.getpid()}")
    os.makedirs(workdir)
    try:
        inputs = workload.setup(args.seed, workdir)
        result = {"ready": time.monotonic()}
        if args.mode != "setup":
            tracer = None
            if args.mode == "trace":
                from tracing import Tracer

                tracer = Tracer()
                tracer.install()
                if "h_of_t" in inputs:
                    inputs["h_of_t"] = tracer.counted("dynamics.h_evals", inputs["h_of_t"])
            op = run_op(workload, inputs, args.op, tracer)
            result.update(op=op, peak_rss_mb=peak_rss_mb(), meta=metadata())
            if tracer is not None:
                result["layers"] = tracer.layer_metrics()
                result["self_seconds"] = tracer.self_seconds()
                tracer.write(args.spans)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
