"""Which ``src/repro`` functions does a command reach?  Stdlib only.

    python tools/reach.py run OUT -- python -m repro sweep x9 --jobs 2
    python tools/reach.py product OUT      # every line of tools/product/commands.txt
    python tools/reach.py report OUT [OUT2 ...] [--tests TESTS_OUT ...]

``run`` links this file as ``sitecustomize`` on PYTHONPATH: every interpreter
under the command (``bench.child``, pytest, forked workers) dumps ``(file, first
line)`` of each ``repro`` code object it called to ``OUT/<pid>.txt`` on the way
out, with the sha256 of every file it lists; ``product`` runs each command of the
checked-in product list that way; ``report`` sorts this checkout's ``def``s into
reached by the OUT dumps (the product), only by the ``--tests`` dumps, or by
nothing.  It exits 1 and names the files instead when any listed file changed
since its dump, whose line numbers then point into other code.  pytest-benchmark
turns the profiler off in its fixture: give ``benchmarks/`` ``--benchmark-disable``.
"""
import ast
import atexit
import hashlib
import os
import pathlib
import shlex
import subprocess
import sys
import tempfile
import threading

ROOT = os.path.dirname(os.path.dirname(os.path.realpath(__file__)))


def sha256(path):
    """The file's sha256 hex digest, or ``None`` when it cannot be read."""
    try:
        return hashlib.sha256(pathlib.Path(path).read_bytes()).hexdigest()
    except OSError:
        return None


def install(out_dir):
    seen = set()

    def profile(frame, event, arg):
        if event == "call" and "/repro/" in frame.f_code.co_filename:
            seen.add((frame.f_code.co_filename, frame.f_code.co_firstlineno))

    def dump():
        with open(os.path.join(out_dir, f"{os.getpid()}.txt"), "w") as out:
            out.writelines(f"{os.path.realpath(f)}:{n}\n" for f, n in sorted(seen))
            files = sorted({os.path.realpath(f) for f, _ in seen})
            out.writelines(f"sha256 {sha256(f)} {f}\n" for f in files)

    def leave(code, _exit=os._exit):
        dump()  # forked pool workers leave through os._exit: no atexit there
        _exit(code)

    os._exit = leave
    atexit.register(dump)
    threading.setprofile(profile)
    sys.setprofile(profile)


def run(out_dir, command):
    os.makedirs(out_dir, exist_ok=True)
    with tempfile.TemporaryDirectory() as hook:
        os.symlink(os.path.realpath(__file__), os.path.join(hook, "sitecustomize.py"))
        path = os.pathsep.join(filter(None, [hook, os.environ.get("PYTHONPATH")]))
        env = dict(os.environ, REACH_OUT=os.path.abspath(out_dir), PYTHONPATH=path)
        return subprocess.call(command, env=env)


def product(out_dir):
    """Run every line of ``tools/product/commands.txt`` under ``run``; the first failing
    command's exit code, else 0."""
    os.environ["PYTHONPATH"] = os.pathsep.join(
        filter(None, ["src", ".", os.environ.get("PYTHONPATH")]))
    os.chdir(ROOT)
    failed = 0
    with tempfile.TemporaryDirectory() as scratch:
        for line in pathlib.Path(ROOT, "tools", "product", "commands.txt").read_text().splitlines():
            if line.strip() and not line.startswith("#"):
                print("+", line, flush=True)
                code = run(out_dir, shlex.split(line.replace("{out}", scratch)))
                failed = failed or code
    return failed


def _dumped(out_dirs, digests):
    """The ``file:line`` keys the dumps list; adds their ``(file, sha256)`` to ``digests``."""
    reached = set()
    for out_dir in out_dirs:
        for dump in pathlib.Path(out_dir).iterdir():
            for line in dump.read_text().splitlines():
                if line.startswith("sha256 "):
                    _, digest, path = line.split(" ", 2)
                    digests.add((path, digest))
                else:
                    reached.add(line)
    return reached


def report(args):
    """Per module and in total: defs the product reached, only --tests reached, nothing reached."""
    split = args.index("--tests") if "--tests" in args else len(args)
    digests = set()
    product, tests = _dumped(args[:split], digests), _dumped(args[split + 1:], digests)
    changed = sorted({path for path, digest in digests if str(sha256(path)) != digest})
    if changed:
        print("changed since the run, so the dumps' lines no longer match them:",
              *(os.path.relpath(path, ROOT) for path in changed), sep="\n  ", file=sys.stderr)
        return 1
    totals = [[0, 0], [0, 0], [0, 0]]  # [functions, lines] per class
    for folder, _, files in sorted(os.walk(os.path.join(ROOT, "src", "repro"))):
        for path in sorted(os.path.join(folder, f) for f in files if f.endswith(".py")):
            classes = [[], [], []]
            for n in ast.walk(ast.parse(pathlib.Path(path).read_text())):
                if isinstance(n, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    # A decorated function's code object starts at its first decorator.
                    key = "%s:%d" % (path, min([n.lineno] + [d.lineno for d in n.decorator_list]))
                    classes[0 if key in product else 1 if key in tests else 2].append(n)
            for total, nodes in zip(totals, classes):
                total[0] += len(nodes)
                total[1] += sum(n.end_lineno - n.lineno + 1 for n in nodes)
            if classes[1] or classes[2]:
                print("%s: %d product, %d tests-only, %d nothing"
                      % (os.path.relpath(path, ROOT), *map(len, classes)))
                tagged = ((classes[1], ""), (classes[2], "  (nothing)"))
                print(*sorted(f"{n.lineno:7}: {n.name}{tag}" for nodes, tag in tagged
                              for n in nodes), sep="\n")
    print("total %d functions: %d product, %d tests-only (%d lines), %d nothing (%d lines)"
          % (sum(t[0] for t in totals), totals[0][0], *totals[1], *totals[2]))


if __name__ == "sitecustomize" and os.environ.get("REACH_OUT"):
    install(os.environ["REACH_OUT"])
elif __name__ == "__main__":
    if sys.argv[1:2] == ["run"] and sys.argv[3:4] == ["--"] and sys.argv[4:]:
        sys.exit(run(sys.argv[2], sys.argv[4:]))
    if sys.argv[1:2] == ["product"] and len(sys.argv) == 3:
        sys.exit(product(os.path.abspath(sys.argv[2])))
    sys.exit(report(sys.argv[2:]) if sys.argv[1:2] == ["report"] and sys.argv[2:] else __doc__)
