"""Golden of the ``griphon`` commands' output: stdout, ``--json``, exit code.

A checked-in JSON golden (``tests/golden/cli_outputs.json``) pins down,
for each numeric command at fixed arguments, exactly what it prints,
the ``--json`` file it writes (as text, byte for byte) and its exit
code.  The ``--json`` path differs per run, so stdout carries ``PATH``
in its place.  ``sweep`` is left to its own tests: it prints a
wall-clock line.

The comparison is exact.  After an *intentional* change to a command's
output, regenerate the golden and review the diff::

    PYTHONPATH=src python -c \
        "from tests.test_cli_golden import regenerate; regenerate()"
"""

import contextlib
import io
import json
import tempfile
from pathlib import Path

import pytest

from repro.cli import main

GOLDEN_PATH = Path(__file__).parent / "golden" / "cli_outputs.json"

#: Command name -> (argv, whether it takes ``--json``).
COMMANDS = {
    "quickstart": (["quickstart"], False),
    "restore": (["restore"], False),
    "operator": (["operator"], False),
    "table2": (["table2", "--iterations", "2"], False),
    "trace": (["trace", "--iterations", "1"], True),
    "chaos": (["--seed", "11", "chaos", "--orders", "9", "--rate", "0.3"], True),
    "pipeline": (["pipeline"], True),
    "pipeline-backbone": (["pipeline", "--topology", "backbone"], True),
    "shard": (
        ["--seed", "3", "shard", "--regions", "2", "--pops", "6",
         "--orders", "3", "--mode", "both"],
        True,
    ),
    "serve": (["serve", "--duration", "10"], True),
    "slo": (["slo"], True),
    "optimize": (
        ["--seed", "7", "optimize", "--nodes", "24", "--warm-orders", "60",
         "--load-orders", "12"],
        True,
    ),
}


def run_command(name):
    """``{"argv", "exit", "stdout", "json"}`` for one golden command."""
    argv, takes_json = COMMANDS[name]
    with tempfile.TemporaryDirectory() as tmp:
        path = str(Path(tmp) / "out.json")
        full = argv + (["--json", path] if takes_json else [])
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            code = main(full)
        payload = Path(path).read_text() if takes_json else None
    return {
        "argv": argv,
        "exit": code,
        "stdout": out.getvalue().replace(path, "PATH"),
        "json": payload,
    }


def build_payload():
    return {name: run_command(name) for name in COMMANDS}


def regenerate():
    """Rewrite the golden file from the current implementation."""
    GOLDEN_PATH.parent.mkdir(exist_ok=True)
    GOLDEN_PATH.write_text(
        json.dumps(build_payload(), indent=2, sort_keys=True) + "\n"
    )
    print(f"wrote {GOLDEN_PATH}")


@pytest.fixture(scope="module")
def golden():
    return json.loads(GOLDEN_PATH.read_text())


@pytest.mark.parametrize("name", sorted(COMMANDS))
def test_command_output_matches_golden(golden, name):
    assert run_command(name) == golden[name]
