"""The public API surface: everything exported exists and is documented."""

import importlib
import inspect
import os
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
