"""The stdlib analysis tools under ``tools/``: what they report, and when
they refuse to report."""

import importlib.util
import os
import pathlib
import shutil
import subprocess
import sys

ROOT = pathlib.Path(__file__).resolve().parent.parent


def test_reach_report_refuses_dumps_of_changed_source(tmp_path):
    """A dump lists ``file:line`` keys of the source it ran; once a listed
    file changes (here only a docstring, which shifts no ``def``),
    ``report`` names it and exits 1 instead of mapping stale lines."""
    (tmp_path / "tools").mkdir()
    shutil.copy(ROOT / "tools" / "reach.py", tmp_path / "tools" / "reach.py")
    package = tmp_path / "src" / "repro"
    package.mkdir(parents=True)
    (package / "__init__.py").write_text('"""A package."""\n')
    module = package / "mod.py"
    module.write_text('"""A module."""\n\n\ndef reached():\n    return 1\n')
    tool = [sys.executable, str(tmp_path / "tools" / "reach.py")]
    env = dict(os.environ, PYTHONPATH=str(tmp_path / "src"))
    out = tmp_path / "out"
    subprocess.run(
        tool + ["run", str(out), "--", sys.executable, "-c",
                "import repro.mod; repro.mod.reached()"],
        check=True, env=env,
    )
    fresh = subprocess.run(tool + ["report", str(out)], capture_output=True, text=True)
    assert fresh.returncode == 0, fresh.stderr
    assert fresh.stdout.splitlines()[-1].startswith("total 1 functions: 1 product")

    module.write_text('"""A module, edited."""\n\n\ndef reached():\n    return 1\n')
    stale = subprocess.run(tool + ["report", str(out)], capture_output=True, text=True)
    assert stale.returncode == 1
    assert os.path.join("src", "repro", "mod.py") in stale.stderr
    assert "__init__.py" not in stale.stderr



def test_reach_report_accepts_a_file_still_unreadable_since_its_dump(tmp_path):
    """A file that could not be read when the dump was written is dumped
    as ``sha256 None``; while it stays unreadable it has not changed."""
    missing = tmp_path / "gone.py"
    out = tmp_path / "out"
    out.mkdir()
    (out / "1.txt").write_text(f"{missing}:4\nsha256 None {missing}\n")
    report = subprocess.run(
        [sys.executable, str(ROOT / "tools" / "reach.py"), "report", str(out)],
        capture_output=True, text=True,
    )
    assert report.returncode == 0, report.stderr


def test_knobs_reads_a_splat_through_a_parameter_as_set():
    """``tests/test_shard_round_differential.py`` sets ``ShardedNetwork``'s
    ``grid_size`` and ``k_paths`` through ``drive(ShardedNetwork, ...)``,
    whose body calls ``cls(**build)``: neither is a constant, and the
    count of parameters does not grow."""
    out = subprocess.run(
        [sys.executable, str(ROOT / "tools" / "knobs.py")],
        capture_output=True, text=True, check=True,
    ).stdout.splitlines()
    start = out.index(next(
        line for line in out
        if line.startswith("src/repro/shard/network.py:ShardedNetwork ")
    ))
    block = out[start + 1:]
    block = block[:next(i for i, line in enumerate(block) if not line.startswith("  "))]
    assert "  grid_size = 80: (set through a splat)" in block
    assert "  k_paths = 4: (set through a splat)" in block
    assert int(out[-1].split()[1]) <= 91


def _tool(name):
    """``tools/<name>.py`` imported as a module."""
    spec = importlib.util.spec_from_file_location(name, ROOT / "tools" / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_footprint_names_the_types_a_build_keeps():
    """The build line lists, beside the top files, the object types by
    the bytes reachable from the built world; the walk counts each
    object once and enters no class, module or function."""
    footprint = _tool("footprint")
    shared = ("a", "b")
    world = {"adjacency": [shared, shared, ("c", "d")], "group": frozenset({1}),
             "hook": test_footprint_names_the_types_a_build_keeps}
    sizes = footprint.reached([world, world])
    assert sizes["tuple"] == 2 * sys.getsizeof(shared)
    assert sizes["frozenset"] == sys.getsizeof(world["group"])
    assert "function" not in sizes and "module" not in sizes

    side = {"orders": 10, "kept": 1000, "by_file": {"x.py": 1000}, "pool": None}
    build = {"by_file": {"graph.py": 3_000_000, "roadm.py": 1_000_000},
             "by_type": {"dict": 2_500_000, "set": 500_000, "tuple": 250_000}}
    text = list(footprint.lines("w", [0.15, 0.5], side, {**side, "orders": 20}, build))
    assert text[-4] == "    build at 0.15:   4.00 MB kept"
    assert text[-1] == (
        "    reached from the built world, by type: "
        "dict 2.50 MB, set 0.50 MB, tuple 0.25 MB"
    )
