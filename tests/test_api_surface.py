"""The public API surface: everything exported exists and is documented."""

import ast
import importlib
import inspect
import os
import pathlib
import subprocess
import sys

import pytest

PUBLIC_MODULES = [
    "repro",
    "repro.api",
    "repro.baselines",
    "repro.cli",
    "repro.core",
    "repro.core.calendar",
    "repro.core.gui",
    "repro.core.maintenance",
    "repro.core.planning",
    "repro.core.provisioning",
    "repro.core.reclamation",
    "repro.core.regrooming",
    "repro.ems",
    "repro.errors",
    "repro.facade",
    "repro.frontend",
    "repro.iplayer",
    "repro.legacy",
    "repro.metrics",
    "repro.obs",
    "repro.optical",
    "repro.optical.osnr",
    "repro.otn",
    "repro.pipeline",
    "repro.shard",
    "repro.sim",
    "repro.topo",
    "repro.units",
    "repro.workload",
]


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
    import repro

    assert repro.__version__.count(".") == 2


def test_core_controller_does_not_import_the_shard_layer():
    """The shard layer is built on the controller, never under it: a
    fresh interpreter importing the controller loads no ``repro.shard``
    module."""
    import repro

    src = os.path.dirname(os.path.dirname(repro.__file__))
    probe = (
        "import sys, repro.core.controller; "
        "print(sorted(m for m in sys.modules if m.startswith('repro.shard')))"
    )
    env = dict(os.environ, PYTHONPATH=src)
    out = subprocess.run(
        [sys.executable, "-c", probe],
        capture_output=True, text=True, check=True, env=env,
    )
    assert out.stdout.strip() == "[]"


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
    import repro

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
