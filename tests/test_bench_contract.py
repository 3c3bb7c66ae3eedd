"""The package names the benchmark under perfbench/ relies on.

perfbench/tracing.py wraps the callables it lists in FUNCTIONS and VALIDATED,
and the recorder factory, at every module binding; worker.py and
workloads.py call package functions as module attributes.  A deleted or
renamed name would otherwise surface only inside a benchmark run, so each
one is resolved here, and the positional and keyword arguments of each call
must bind to the callee's signature.
"""

import ast
import importlib
import importlib.util
import inspect
import math
import pathlib

import numpy as np
import pytest

PERFBENCH = pathlib.Path(__file__).resolve().parent.parent / "perfbench"
SCRIPTS = ("tracing.py", "worker.py", "workloads.py")


def load_tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", PERFBENCH / "tracing.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def package_references(path):
    """{dotted name: calls} for every package attribute the script reads.

    Names come from ``from cavsqueeze import m`` bindings (``m.f.g``) and from
    the tracer's ``mod["m"].f`` lookups; calls holds (positional count,
    keywords) of each call whose callee is such a name and which unpacks no
    ``*args`` or ``**kwargs``.
    """
    tree = ast.parse(path.read_text())
    aliases = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "cavsqueeze":
            for name in node.names:
                aliases[name.asname or name.name] = name.name

    def dotted(node):
        if isinstance(node, ast.Attribute):
            base = dotted(node.value)
            return None if base is None else f"{base}.{node.attr}"
        if isinstance(node, ast.Name) and node.id in aliases:
            return aliases[node.id]
        if (isinstance(node, ast.Subscript) and isinstance(node.value, ast.Name)
                and node.value.id == "mod" and isinstance(node.slice, ast.Constant)):
            return node.slice.value
        return None

    refs = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute) and dotted(node) is not None:
            refs.setdefault(dotted(node), [])
    for node in ast.walk(tree):
        if isinstance(node, ast.Call) and dotted(node.func) is not None:
            unpacked = any(isinstance(arg, ast.Starred) for arg in node.args)
            if not unpacked and all(kw.arg for kw in node.keywords):
                refs[dotted(node.func)].append((len(node.args), [kw.arg for kw in node.keywords]))
    return refs


def resolve(name):
    module, *attrs = name.split(".")
    obj = importlib.import_module(f"cavsqueeze.{module}")
    for attr in attrs:
        obj = getattr(obj, attr)
    return obj


def unbound_calls(script):
    """The package calls in script whose arguments do not bind to the callee."""
    failures = []
    for name, calls in sorted(package_references(PERFBENCH / script).items()):
        obj = resolve(name)
        for positional, keywords in calls:
            try:
                inspect.signature(obj).bind(*[None] * positional, **dict.fromkeys(keywords))
            except TypeError as exc:
                failures.append(f"{script}: {name} with {positional} positional and {keywords}: {exc}")
    return failures


@pytest.mark.parametrize("script", SCRIPTS)
def test_script_references_resolve(script):
    assert package_references(PERFBENCH / script), f"no package references found in {script}"
    assert unbound_calls(script) == []


def test_arity_check_catches_changed_signatures(monkeypatch):
    from cavsqueeze import dynamics

    # worker.py passes _worker_count one positional argument
    monkeypatch.setattr(dynamics, "_worker_count", lambda: 1)
    assert any("_worker_count" in f for f in unbound_calls("worker.py"))

    # workloads.py passes five positionals and sample_times by keyword
    def reordered(rho0, params, duration, sample_times, n_trajectories, master_seed):
        pass

    monkeypatch.setattr(dynamics, "run_collision_ensemble", reordered)
    assert any("run_collision_ensemble" in f for f in unbound_calls("workloads.py"))


def test_traced_layers_resolve():
    tracing = load_tracing()
    for module in tracing.MODULES:
        importlib.import_module(f"cavsqueeze.{module}")
    for module, attr in tracing.FUNCTIONS:
        assert callable(resolve(f"{module}.{attr}")), f"{module}.{attr}"
    for module, cls_name in tracing.VALIDATED:
        assert hasattr(resolve(f"{module}.{cls_name}"), "__post_init__"), cls_name
    # the recorder factory is wrapped where the engines bind it
    assert callable(resolve("analysis.recorder_from_matrices"))


def test_collision_diagnostics_the_tracer_reads():
    from cavsqueeze.dynamics import ArrivalProcess, run_collision_model
    from cavsqueeze.hilbert import DensityMatrix, SpaceDescriptor, basis_state
    from cavsqueeze.model import PhysicalParams

    p = PhysicalParams(omega1=1.0, omega2=math.sqrt(0.3), g1=1.0, g2=math.sqrt(0.3),
                       delta1=-1.0, delta2=1.0, r_a=0.5, tau=0.1)
    space = SpaceDescriptor(1, 5, 5)
    rho = DensityMatrix.from_state_vector(space, basis_state(space, 0, 0, 0))
    traj = run_collision_model(rho, p, 20.0, ArrivalProcess(rate=p.r_a, seed=1),
                               sample_times=np.linspace(0.0, 20.0, 3))
    for key in ("accepted_arrivals", "dropped_arrivals", "max_truncation_leak"):
        assert key in traj.diagnostics
