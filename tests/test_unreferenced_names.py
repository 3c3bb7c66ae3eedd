"""Top-level names in src/cavsqueeze that no package module uses.

A function or class is referenced when some module of the package other
than __init__.py names it (as a name or an attribute) outside its own
definition; import statements are not references.  A name that only tests
or the benchmark call is either a deliberate reference kept in the package
or dead code, so the list of such names must equal ALLOWED, and each entry
says why it stays.
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
}


def unreferenced_names():
    trees = [ast.parse(p.read_text()) for p in sorted(SRC.glob("*.py")) if p.name != "__init__.py"]
    defined, used = set(), set()
    for tree in trees:
        for node in tree.body:
            own = None
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                defined.add(node.name)
                own = node.name
            for sub in ast.walk(node):
                if isinstance(sub, ast.Name):
                    name = sub.id
                elif isinstance(sub, ast.Attribute):
                    name = sub.attr
                else:
                    continue
                if name != own:
                    used.add(name)
    return sorted(defined - used)


def test_unreferenced_names_are_the_allowed_references():
    assert unreferenced_names() == sorted(ALLOWED)
