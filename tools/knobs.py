"""Which defaulted parameters of the controller stack does any caller set?  Stdlib only.

    python tools/knobs.py

For each entry point in ``ENTRY_POINTS`` (``file:Qualname``, or
``file:Qualname:param`` for one parameter that has no default), prints each
defaulted parameter (a class's ``__init__`` arguments, or its annotated fields
when it is a dataclass), its default, and the distinct values that calls in
``src/``, ``bench/``, ``benchmarks/``, ``examples/``, ``tests/`` and ``tools/``
pass it.  Calls match on the callee's last name; ``(pos)`` marks a positional
value, and a call that forwards ``*args`` / ``**kwargs`` is counted per entry
point, since the tool cannot see what it sets.  So is a call through a
parameter: ``drive(ShardedNetwork, ...)`` counts when ``drive``'s body calls
that parameter (``cls(**build)``).  When any call forwards ``**mapping``, a
parameter that no call names reads ``(set through a splat)``; a parameter no
call sets to anything but its default, and that no splat reaches, is a
constant.  The last line totals the parameters.
"""
import ast
import os
import pathlib

ROOT = os.path.dirname(os.path.dirname(os.path.realpath(__file__)))
CALLER_DIRS = ("src", "bench", "benchmarks", "examples", "tests", "tools")
ENTRY_POINTS = [
    "src/repro/facade.py:GriphonNetwork",
    "src/repro/facade.py:GriphonNetwork.enable_pipeline",
    "src/repro/facade.py:GriphonNetwork.enable_slo",
    "src/repro/facade.py:build_griphon_testbed",
    "src/repro/facade.py:build_griphon_backbone",
    "src/repro/core/controller.py:GriphonController",
    "src/repro/core/rwa.py:RwaEngine",
    "src/repro/core/regrooming.py:RegroomingEngine",
    "src/repro/ems/latency.py:LatencyModel",
    "src/repro/slo/monitor.py:SlaMonitor",
    "src/repro/slo/inject.py:DegradationInjector",
    "src/repro/slo/engine.py:RemediationEngine",
    "src/repro/shard/network.py:ShardedNetwork",
    "src/repro/shard/network.py:build_sharded_network",
    "src/repro/shard/workers.py:UnitRecipe",
    "src/repro/topo/hierarchy.py:build_hierarchy",
    "src/repro/topo/hierarchy.py:build_region_graph",
    "src/repro/topo/hierarchy.py:Hierarchy:params",
    "src/repro/optimize/runtime.py:Reoptimizer",
    "src/repro/optimize/executor.py:MigrationExecutor",
    "src/repro/optimize/bench.py:run_optimize_trial",
    "src/repro/sweep/studies.py:build_waxman_network",
]


def _find(tree, qualname):
    """The def (or class) named by a dotted qualname in a module."""
    node = tree
    for name in qualname.split("."):
        node = next(n for n in node.body if getattr(n, "name", None) == name)
    return node


def parameters(node):
    """``[(name, default source or None)]`` in call order, ``self`` dropped."""
    if isinstance(node, ast.ClassDef):
        init = next((n for n in node.body if getattr(n, "name", "") == "__init__"), None)
        if init is None:  # a dataclass: its annotated fields, in order
            return [(n.target.id, n.value and ast.unparse(n.value))
                    for n in node.body if isinstance(n, ast.AnnAssign)]
        node = init
    args = node.args
    positional = args.posonlyargs + args.args
    defaults = [None] * (len(positional) - len(args.defaults)) + args.defaults
    out = [(a.arg, d and ast.unparse(d)) for a, d in zip(positional, defaults)]
    out += [(a.arg, d and ast.unparse(d)) for a, d in zip(args.kwonlyargs, args.kw_defaults)]
    return out[1:] if out and out[0][0] in ("self", "cls") else out


def _last_name(node):
    return getattr(node, "id", None) or getattr(node, "attr", None)


def _forwards(call):
    return any(isinstance(a, ast.Starred) for a in call.args) or any(
        k.arg is None for k in call.keywords)


def calls_by_callee():
    """Every call in the caller trees, keyed by its function's last name.

    A call that hands a name to a def which calls that parameter with
    ``*`` / ``**`` (``drive(ShardedNetwork, ...)`` where ``drive`` runs
    ``cls(**build)``) is also filed under the name, as that inner call."""
    trees = [ast.parse(path.read_text()) for folder in CALLER_DIRS
             for path in sorted(pathlib.Path(ROOT, folder).rglob("*.py"))]
    found, through = {}, {}  # through: def name -> {param position or name: call}
    for tree in trees:
        for node in ast.walk(tree):
            if isinstance(node, ast.Call):
                found.setdefault(_last_name(node.func), []).append(node)
            elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                params = [a.arg for a in node.args.posonlyargs + node.args.args]
                for call in ast.walk(node):
                    if (isinstance(call, ast.Call) and isinstance(call.func, ast.Name)
                            and call.func.id in params and _forwards(call)):
                        slots = through.setdefault(node.name, {})
                        slots[params.index(call.func.id)] = slots[call.func.id] = call
    for name, slots in through.items():
        for outer in list(found.get(name, ())):
            handed = list(enumerate(outer.args)) + [(k.arg, k.value) for k in outer.keywords]
            for slot, value in handed:
                if slot in slots and _last_name(value):
                    found.setdefault(_last_name(value), []).append(slots[slot])
    return found


def main():
    total = set_by_caller = 0
    every_call = calls_by_callee()
    for entry in ENTRY_POINTS:
        path, qualname, *only = entry.split(":")
        tree = ast.parse(pathlib.Path(ROOT, path).read_text())
        try:
            params = parameters(_find(tree, qualname))
        except StopIteration:
            params = []
        names = [name for name, _ in params]
        passed = {name: set() for name in names}
        forwarded = splat = 0
        for call in every_call.get(qualname.split(".")[-1], ()):
            forwarded += _forwards(call)
            splat = splat or any(k.arg is None for k in call.keywords)
            for name, arg in zip(names, call.args):
                if not isinstance(arg, ast.Starred):
                    passed[name].add(ast.unparse(arg)[:40] + " (pos)")
            for k in call.keywords:
                if k.arg in passed:
                    passed[k.arg].add(ast.unparse(k.value)[:40])
        shown = [(n, d) for n, d in params if (n in only if only else d is not None)]
        print(f"{entry}  ({forwarded} forwarding call(s))" if forwarded else entry)
        for name, default in shown:
            others = sorted(v for v in passed[name] if v.replace(" (pos)", "") != default)
            set_by_caller += bool(others)
            unset = "(set through a splat)" if splat else "(default only)"
            print(f"  {name} = {default or '(required)'}: {', '.join(others) or unset}")
        if only and not shown:
            print(f"  {', '.join(only)}: (gone)")
        total += len(shown)
    print(f"total: {total} parameters on {len(ENTRY_POINTS)} entry points, "
          f"{set_by_caller} set to a non-default value by some caller")


if __name__ == "__main__":
    main()
