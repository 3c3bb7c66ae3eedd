"""Outside-in tracing of the package's layers.

The tracer replaces each traced callable at every module binding in the
package that refers to it (so ``protocol.run_protocol`` and
``cli.run_protocol`` are both wrapped), wraps ``scipy.linalg.expm``, the
validating ``__post_init__`` of ``DensityMatrix`` and ``GaussianState``, and
every recorder callable that ``recorder_from_matrices`` returns.  Each wrapped
call records one span (id, name, start, end, parent, thread) while recording
is on.  Spans are kept in memory per thread and written out once, at exit.

Work submitted to the package's thread pools is parented to the span that
submitted it, so a span's self time is its duration minus the union of its
children's intervals, whichever thread they ran on.  Private code (damping
passes, Kraus applications, frame rotations) has no span of its own and shows
up as the self time of its public caller.
"""

from __future__ import annotations

import collections
import functools
import importlib
import itertools
import json
import sys
import threading
import time
from concurrent.futures import ThreadPoolExecutor

MODULES = ("hilbert", "model", "analysis", "dynamics", "gaussian", "protocol", "cli")

# public functions wrapped at every binding, named module.attribute
FUNCTIONS = (
    ("hilbert", "expectation"),
    ("model", "build_squeeze_operator"),
    ("model", "b_mode_annihilation"),
    ("model", "build_selective_hamiltonian"),
    ("model", "build_full_hamiltonian"),
    ("analysis", "observable_matrices"),
    ("analysis", "squeezing_report"),
    ("analysis", "truncation_leak"),
    ("protocol", "run_protocol"),
    ("dynamics", "run_collision_model"),
    ("dynamics", "run_collision_ensemble"),
    ("dynamics", "propagate_state"),
    ("gaussian", "gaussian_lindblad_evolve"),
    ("cli", "main"),
)
# classes whose construction (validation in __post_init__) is a span
VALIDATED = (("hilbert", "DensityMatrix"), ("gaussian", "GaussianState"))

# spans reported as <name>.calls and <name>.self_s, in report order
LAYERS = (
    "hilbert.DensityMatrix",
    "hilbert.expectation",
    "linalg.expm",
    "model.build_squeeze_operator",
    "model.b_mode_annihilation",
    "model.build_selective_hamiltonian",
    "model.build_full_hamiltonian",
    "analysis.recorder",
    "analysis.observable_matrices",
    "analysis.squeezing_report",
    "analysis.truncation_leak",
    "protocol.run_protocol",
    "dynamics.run_collision_model",
    "dynamics.propagate_state",
    "gaussian.gaussian_lindblad_evolve",
    "gaussian.GaussianState",
    "cli.main",
)

SPAN_FIELDS = ("id", "name", "start", "end", "parent", "thread")


def _covered(intervals, lo: float, hi: float) -> float:
    """Length of the union of intervals, clipped to [lo, hi]."""
    total = 0.0
    cur_lo = cur_hi = None
    for a, b in sorted(intervals):
        a, b = max(a, lo), min(b, hi)
        if b <= a:
            continue
        if cur_hi is None or a > cur_hi:
            if cur_hi is not None:
                total += cur_hi - cur_lo
            cur_lo, cur_hi = a, b
        else:
            cur_hi = max(cur_hi, b)
    if cur_hi is not None:
        total += cur_hi - cur_lo
    return total


def self_times(spans) -> dict:
    """Span id -> duration minus the part of it covered by child spans."""
    children = collections.defaultdict(list)
    for sid, _, start, end, parent, _ in spans:
        if parent is not None:
            children[parent].append((start, end))
    return {
        sid: (end - start) - _covered(children.get(sid, ()), start, end)
        for sid, _, start, end, _, _ in spans
    }


class Tracer:
    def __init__(self):
        self.recording = False
        self._local = threading.local()
        self._lock = threading.Lock()
        self._ids = itertools.count(1)
        self._buffers = []
        self.counters = collections.Counter()
        self.pool_workers = {}
        self.epoch = time.perf_counter()

    # -- span bookkeeping -------------------------------------------------

    def _state(self):
        state = getattr(self._local, "state", None)
        if state is None:
            state = self._local.state = ([], [])
            with self._lock:
                self._buffers.append(state[1])
        return state

    def current(self):
        stack = self._state()[0]
        return stack[-1] if stack else None

    def _run_under(self, parent, fn, *args, **kwargs):
        stack = self._state()[0]
        depth = len(stack)
        stack.append(parent)
        try:
            return fn(*args, **kwargs)
        finally:
            del stack[depth:]

    def wrap(self, name: str, fn, on_call=None):
        """fn with a span around each call while recording; on_call(args,
        result) runs after a recorded call."""

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not self.recording:
                return fn(*args, **kwargs)
            stack, spans = self._state()
            sid = next(self._ids)
            parent = stack[-1] if stack else None
            stack.append(sid)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                stack.pop()
                spans.append((sid, name, start, end, parent, threading.get_ident()))
            if on_call is not None:
                on_call(args, result)
            return result

        return traced

    def counted(self, name: str, fn):
        """fn with a call counter (no span) while recording."""

        @functools.wraps(fn)
        def counting(*args, **kwargs):
            if self.recording:
                self.add(name, 1)
            return fn(*args, **kwargs)

        return counting

    def add(self, name: str, value):
        with self._lock:
            self.counters[name] += value

    def spans(self) -> list:
        with self._lock:
            return sorted(itertools.chain.from_iterable(self._buffers), key=lambda sp: sp[2])

    # -- installation -----------------------------------------------------

    def install(self) -> None:
        """Wrap the package's layers; call after the package is imported."""
        import scipy.linalg

        modules = [importlib.import_module(f"cavsqueeze.{m}") for m in MODULES]
        modules.append(sys.modules["cavsqueeze"])
        mod = {m.__name__.rsplit(".", 1)[-1]: m for m in modules}

        def rebind(original, replacement):
            for m in modules:
                for key, value in list(vars(m).items()):
                    if value is original:
                        setattr(m, key, replacement)

        hooks = {"dynamics.run_collision_model": self._on_collision_run}
        for module, attr in FUNCTIONS:
            name = f"{module}.{attr}"
            original = getattr(mod[module], attr)
            rebind(original, self.wrap(name, original, hooks.get(name)))

        scipy.linalg.expm = self.wrap("linalg.expm", scipy.linalg.expm, self._on_expm)

        for module, cls_name in VALIDATED:
            cls = getattr(mod[module], cls_name)
            cls.__post_init__ = self.wrap(f"{module}.{cls_name}", cls.__post_init__)

        factory = mod["analysis"].recorder_from_matrices

        @functools.wraps(factory)
        def traced_factory(*args, **kwargs):
            return self.wrap("analysis.recorder", factory(*args, **kwargs))

        rebind(factory, traced_factory)
        rebind(ThreadPoolExecutor, self._executor_class())

    def _executor_class(self):
        tracer = self

        class TracedExecutor(ThreadPoolExecutor):
            """Parents submitted work to the submitting span and records the
            pool size against it."""

            def __init__(self, *args, **kwargs):
                super().__init__(*args, **kwargs)
                if tracer.recording:
                    with tracer._lock:
                        tracer.pool_workers[tracer.current()] = self._max_workers

            def submit(self, fn, /, *args, **kwargs):
                return super().submit(tracer._run_under, tracer.current(), fn, *args, **kwargs)

        return TracedExecutor

    def _on_expm(self, args, result):
        dim = int(args[0].shape[0])
        with self._lock:
            self.counters["linalg.expm.dim3_sum"] += dim**3
            self.counters["linalg.expm.max_dim"] = max(self.counters["linalg.expm.max_dim"], dim)

    def _on_collision_run(self, args, traj):
        with self._lock:
            self.counters["dynamics.kraus_applications"] += traj.diagnostics["accepted_arrivals"]
            self.counters["dynamics.arrivals.dropped"] += traj.diagnostics["dropped_arrivals"]

    # -- results ----------------------------------------------------------

    def layer_metrics(self) -> dict:
        """Per-layer values over the recorded ops."""
        spans = self.spans()
        by_id = {sp[0]: sp for sp in spans}
        calls = collections.Counter(sp[1] for sp in spans)
        self_sum = self.self_seconds(spans)

        out = {}
        for name in LAYERS:
            out[f"{name}.calls"] = calls[name]
            out[f"{name}.self_s"] = self_sum.get(name, 0.0)
        c = self.counters
        out["linalg.expm.max_dim"] = c["linalg.expm.max_dim"]
        out["linalg.expm.dim3_sum"] = c["linalg.expm.dim3_sum"]
        out["dynamics.h_evals"] = c["dynamics.h_evals"]
        accepted = c["dynamics.kraus_applications"]
        offered = accepted + c["dynamics.arrivals.dropped"]
        out["dynamics.kraus_applications"] = accepted
        out["dynamics.arrivals.accept_ratio"] = accepted / offered if offered else 0.0

        def parent_name(sp):
            return by_id[sp[4]][1] if sp[4] in by_id else None

        # pool idle: workers x ensemble wall - summed trajectory wall
        capacity = busy = 0.0
        sweep_points = 0
        for sp in spans:
            if sp[1] == "dynamics.run_collision_ensemble":
                capacity += self.pool_workers.get(sp[0], 1) * (sp[3] - sp[2])
            elif sp[1] == "dynamics.run_collision_model" and parent_name(sp) == "dynamics.run_collision_ensemble":
                busy += sp[3] - sp[2]
            elif sp[1] == "protocol.run_protocol" and parent_name(sp) == "cli.main":
                sweep_points += 1
        out["dynamics.ensemble.pool_idle_s"] = capacity - busy
        out["cli.sweep.points"] = sweep_points
        return out

    def self_seconds(self, spans=None) -> dict:
        """Summed self time per span name, in seconds."""
        spans = self.spans() if spans is None else spans
        own = self_times(spans)
        out = collections.defaultdict(float)
        for sp in spans:
            out[sp[1]] += own[sp[0]]
        return dict(out)

    def write(self, path: str) -> None:
        threads = {}
        rows = []
        for sid, name, start, end, parent, thread in self.spans():
            rows.append([sid, name, round(start - self.epoch, 9), round(end - self.epoch, 9),
                         parent, threads.setdefault(thread, len(threads))])
        with open(path, "w") as fh:
            json.dump({"fields": list(SPAN_FIELDS), "spans": rows, "counters": dict(self.counters)},
                      fh, separators=(",", ":"))
