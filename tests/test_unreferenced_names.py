"""Top-level names and methods in src/cavsqueeze that no package module uses.

A function, class or non-dunder method is referenced when some module of
the package other than __init__.py names it (as a name or an attribute)
outside its own definition; import statements are not references.  A
method is listed as Class.method.  A name that only tests, the benchmark
or a library hook call is either a deliberate reference kept in the
package or dead code, so the list of such names must equal ALLOWED, and
each entry says why it stays.

The same holds for the defaulted parameters of top-level functions: one that
no call in the package passes, by position or by keyword, is an option with
one value in use, so the list of such parameters, as module.function(param),
must equal ALLOWED_DEFAULTS.
"""

import ast
import pathlib

SRC = pathlib.Path(__file__).resolve().parent.parent / "src" / "cavsqueeze"

ALLOWED = {
    "_worker_count":
        "returns 1, the worker count of every command (none runs a thread pool); perfbench/worker.py "
        "records it in its run metadata and test_bench_contract pins its arity, so it leaves with the "
        "next benchmark change",
    "build_effective_hamiltonian":
        "dispersive model the three-level acceptance check and workload compare against",
    "build_full_hamiltonian":
        "three-level model of the acceptance check and the three-level benchmark workload",
    "build_selective_hamiltonian":
        "dense reference of the closed-form collision Kraus pair (TestTransitKrausPair)",
    "propagate_state":
        "RK4 propagator of the three-level acceptance check and benchmark workload",
    "run_collision_ensemble":
        "ensemble average of the collision acceptance check and benchmark workload",
    "run_collision_model":
        "single collision run the ensemble orbit is tested against; perfbench's tracer hooks it",
    "observable_matrices":
        "dense truncated-space reference the moment records are tested against",
    "recorder_from_matrices":
        "dense truncated-space reference the moment records are tested against",
    "squeezing_report":
        "public report of a bare-mode Fock state (the engines read theirs in the squeezed frame); "
        "perfbench's tracer wraps it",
    "ChargeBlocks.dense":
        "the dense rho_b of a run's final state, README's way back to the bare modes",
    "DensityMatrix.from_state_vector":
        "the public pure-state constructor (the engines enter the vacuum as its basis vector)",
    "_Parser.error":
        "argparse's hook for a bad flag, which it calls itself",
}

ALLOWED_DEFAULTS = {
    "analysis.squeezing_report(space)":
        "the space of a bare state vector, read off a DensityMatrix when omitted; tests pass it",
    "cli.main(argv)":
        "the console entry point reads sys.argv; tests pass their own",
    "dynamics.run_collision_model(sample_times)":
        "a caller's sample clock in place of sample_clock's 101 points; tests pass it",
    "dynamics.run_collision_ensemble(sample_times)":
        "a caller's sample clock; perfbench's collision-ensemble workload passes it",
    "protocol.run_protocol(initial)":
        "a caller's initial state in place of the vacuum; perfbench's fock-pump workload passes it",
}


def _definitions(tree):
    """(qualified name, bare name) of each top-level function and class and of each non-dunder
    method of a top-level class."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            yield node.name, node.name
        if isinstance(node, ast.ClassDef):
            for method in node.body:
                if isinstance(method, ast.FunctionDef) and not method.name.startswith("__"):
                    yield f"{node.name}.{method.name}", method.name


def _names(node, own=()):
    """Each name or attribute used in node, except a definition's own name inside it."""
    if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
        own = (*own, node.name)
    name = node.id if isinstance(node, ast.Name) else node.attr if isinstance(node, ast.Attribute) else None
    if name is not None and name not in own:
        yield name
    for child in ast.iter_child_nodes(node):
        yield from _names(child, own)


def unreferenced_names():
    trees = [ast.parse(p.read_text()) for p in sorted(SRC.glob("*.py")) if p.name != "__init__.py"]
    used = {name for tree in trees for name in _names(tree)}
    return sorted(qualified for tree in trees for qualified, name in _definitions(tree) if name not in used)


def test_unreferenced_names_are_the_allowed_references():
    assert unreferenced_names() == sorted(ALLOWED)


def _defaulted(function):
    """(position or None for keyword-only, name) of each defaulted parameter of function."""
    args = [*function.args.posonlyargs, *function.args.args]
    first = len(args) - len(function.args.defaults)
    yield from ((i, arg.arg) for i, arg in enumerate(args) if i >= first)
    yield from ((None, arg.arg) for arg, default in zip(function.args.kwonlyargs, function.args.kw_defaults)
                if default is not None)


def _passes(call, position, name):
    """Whether call passes the parameter at position (None for keyword-only) or named name; a *args
    reaches every position and a **kwargs every name."""
    by_position = position is not None and (len(call.args) > position
                                            or any(isinstance(arg, ast.Starred) for arg in call.args))
    return by_position or any(keyword.arg in (name, None) for keyword in call.keywords)


def unpassed_defaults():
    modules = {p.stem: ast.parse(p.read_text()) for p in sorted(SRC.glob("*.py"))}
    calls = {}
    for tree in modules.values():
        for call in (node for node in ast.walk(tree) if isinstance(node, ast.Call)):
            callee = call.func.id if isinstance(call.func, ast.Name) else getattr(call.func, "attr", None)
            calls.setdefault(callee, []).append(call)
    return sorted(f"{module}.{node.name}({name})" for module, tree in modules.items() for node in tree.body
                  if isinstance(node, ast.FunctionDef) for position, name in _defaulted(node)
                  if not any(_passes(call, position, name) for call in calls.get(node.name, ())))


def test_unpassed_defaults_are_the_allowed_options():
    assert unpassed_defaults() == sorted(ALLOWED_DEFAULTS)
