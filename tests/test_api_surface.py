"""The public API surface: everything exported exists and is documented."""

import ast
import importlib
import inspect
import os
import pathlib
import pkgutil
import subprocess
import sys

import pytest

import repro

#: Every module of the package: packages re-export nothing, so the
#: modules that define the names are the public surface.
PUBLIC_MODULES = ["repro"] + sorted(
    info.name
    for info in pkgutil.walk_packages(repro.__path__, "repro.")
    if not any(part.startswith("_") for part in info.name.split("."))
)


@pytest.mark.parametrize("module_name", PUBLIC_MODULES)
def test_module_imports_and_has_docstring(module_name):
    module = importlib.import_module(module_name)
    assert module.__doc__, f"{module_name} needs a module docstring"


@pytest.mark.parametrize(
    "module_name",
    [m for m in PUBLIC_MODULES if "." in m or m == "repro"],
)
def test_all_exports_resolve(module_name):
    module = importlib.import_module(module_name)
    for name in getattr(module, "__all__", []):
        assert hasattr(module, name), f"{module_name}.{name} missing"


@pytest.mark.parametrize("module_name", PUBLIC_MODULES)
def test_public_classes_and_functions_documented(module_name):
    module = importlib.import_module(module_name)
    exported = getattr(module, "__all__", None)
    names = exported if exported is not None else [
        n for n in dir(module) if not n.startswith("_")
    ]
    for name in names:
        obj = getattr(module, name, None)
        if obj is None or not (
            inspect.isclass(obj) or inspect.isfunction(obj)
        ):
            continue
        if getattr(obj, "__module__", "").startswith("repro"):
            assert obj.__doc__, f"{module_name}.{name} needs a docstring"


def test_error_hierarchy_rooted():
    from repro import errors

    exception_types = [
        obj
        for name, obj in vars(errors).items()
        if inspect.isclass(obj) and issubclass(obj, Exception)
    ]
    assert len(exception_types) >= 10
    for exc_type in exception_types:
        assert issubclass(exc_type, errors.GriphonError) or (
            exc_type is errors.GriphonError
        )


def test_version_matches_package_metadata():
    assert repro.__version__.count(".") == 2


def test_core_controller_does_not_import_the_shard_layer():
    """The shard layer is built on the controller, never under it: a
    fresh interpreter importing the controller loads no ``repro.shard``
    module."""
    probe = (
        "import sys, repro.core.controller; "
        "print(sorted(m for m in sys.modules if m.startswith('repro.shard')))"
    )
    assert _fresh_python(probe).strip() == "[]"


#: Modules of features the benchmark's order path never runs: §4
#: re-grooming, planning and reclamation, advance reservations, the
#: sweep engine, the workload generators and the scenario runner; and
#: stdlib modules no run calls.
COLD_FOR_BENCH = [
    "repro.core.calendar",
    "repro.core.planning",
    "repro.core.reclamation",
    "repro.core.regrooming",
    "repro.core.service",
    "repro.frontend.aio",
    "repro.frontend.clients",
    "repro.metrics.availability",
    "repro.metrics.textchart",
    "repro.obs.windows",
    "repro.scenario",
    "repro.sweep.engine",
    "repro.topo.backbone",
    "repro.workload",
    "repro.workload.arrivals",
    "repro.workload.bulk",
    "repro.workload.failures",
    "repro.workload.interactive",
    "repro.workload.tenants",
    "concurrent.futures",
    "logging",
    "statistics",
    # The records on the order path are NamedTuples or slotted classes:
    # ``dataclasses`` would load ``inspect`` and, through it, the rest.
    "dataclasses",
    "inspect",
    "ast",
    "dis",
    "tokenize",
]


def _fresh_python(probe):
    """Run ``probe`` in a fresh interpreter with ``src`` and the repo root
    on its path, as ``python -m bench`` runs a child; its stdout."""
    src = os.path.dirname(os.path.dirname(repro.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.path.dirname(src)]))
    return subprocess.run(
        [sys.executable, "-c", probe],
        capture_output=True, text=True, check=True, env=env,
    ).stdout


def test_bench_chain_loads_no_cold_module():
    """Every benchmark repeat is a fresh process: importing its child
    loads none of the modules its order path never runs."""
    loaded = _fresh_python(
        "import sys, bench.child; print('\\n'.join(sys.modules))"
    ).split()
    assert [name for name in COLD_FOR_BENCH if name in loaded] == []


def test_cli_loads_the_sweep_pool_only_for_sweep():
    """Every ``griphon`` command is a fresh process; only ``sweep``
    needs the process pool, so importing the CLI does not load it."""
    loaded = _fresh_python(
        "import sys, repro.cli; print('\\n'.join(sys.modules))"
    ).split()
    pool = ["concurrent.futures", "logging", "repro.sweep.engine"]
    assert [name for name in pool if name in loaded] == []


@pytest.mark.parametrize(
    "workload", ["sharded-inproc", "sharded-pool", "edge-overload", "mono-churn"]
)
def test_bench_run_imports_nothing_after_the_bench_chain(workload):
    """Building, loading and running a workload imports no module the
    bench chain did not, so no import lands inside ``setup_s`` or the
    timed run (a forked worker's start needs ``popen_fork``)."""
    probe = (
        "import sys, bench.child\n"
        "from bench.driver import Driver\n"
        "from bench.workloads import BUILDERS\n"
        "before = set(sys.modules)\n"
        f"world = BUILDERS[{workload!r}](11, 0.02, None)\n"
        "driver = Driver(world)\n"
        "driver.load()\n"
        "driver.run()\n"
        "world.close()\n"
        "print('\\n'.join(sorted(set(sys.modules) - before)))\n"
    )
    assert set(_fresh_python(probe).split()) <= {"multiprocessing.popen_fork"}


def _controller_private_names(tree):
    """Underscore methods and ``self._x`` attributes of GriphonController."""
    cls = next(
        node for node in tree.body
        if isinstance(node, ast.ClassDef) and node.name == "GriphonController"
    )
    names = set()
    for node in ast.walk(cls):
        if isinstance(node, ast.FunctionDef):
            names.add(node.name)
        elif (
            isinstance(node, ast.Attribute)
            and isinstance(node.value, ast.Name)
            and node.value.id == "self"
        ):
            names.add(node.attr)
    return {n for n in names if n.startswith("_") and not n.startswith("__")}


def test_only_the_controller_names_its_private_attributes():
    """Every other module drives a controller through its public
    methods: no ``<controller>._name`` outside ``core/controller.py``,
    where ``<controller>`` is any expression naming a controller."""
    root = pathlib.Path(repro.__file__).parent
    home = root / "core" / "controller.py"
    private = _controller_private_names(ast.parse(home.read_text()))
    offenders = []
    for path in sorted(root.rglob("*.py")):
        if path == home:
            continue
        for node in ast.walk(ast.parse(path.read_text())):
            if (
                isinstance(node, ast.Attribute)
                and node.attr in private
                and "controller" in ast.unparse(node.value).lower()
            ):
                offenders.append(
                    f"{path.relative_to(root)}:{node.lineno} "
                    f"{ast.unparse(node)}"
                )
    assert offenders == []
