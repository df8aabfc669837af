"""Which ``src/repro`` functions does a command reach?  Stdlib only.

    python tools/reach.py run OUT -- python -m repro sweep x9 --jobs 2
    python tools/reach.py report OUT [OUT2 ...]

``run`` links this file as ``sitecustomize`` on PYTHONPATH: every interpreter
under the command (``bench.child``, pytest, forked workers) dumps ``(file, first
line)`` of each ``repro`` code object it called to ``OUT/<pid>.txt`` on the way
out; ``report`` lists this checkout's ``def``s that no dump names.  pytest-benchmark
turns the profiler off in its fixture: give ``benchmarks/`` ``--benchmark-disable``.
"""
import ast
import atexit
import os
import pathlib
import subprocess
import sys
import tempfile
import threading

ROOT = os.path.dirname(os.path.dirname(os.path.realpath(__file__)))


def install(out_dir):
    seen = set()

    def profile(frame, event, arg):
        if event == "call" and "/repro/" in frame.f_code.co_filename:
            seen.add((frame.f_code.co_filename, frame.f_code.co_firstlineno))

    def dump():
        with open(os.path.join(out_dir, f"{os.getpid()}.txt"), "w") as out:
            out.writelines(f"{os.path.realpath(f)}:{n}\n" for f, n in sorted(seen))

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


def report(out_dirs):
    reached = set()
    for out_dir in out_dirs:
        for dump in pathlib.Path(out_dir).iterdir():
            reached.update(dump.read_text().split())
    total = missed = lines = 0
    for folder, _, files in sorted(os.walk(os.path.join(ROOT, "src", "repro"))):
        for path in sorted(os.path.join(folder, f) for f in files if f.endswith(".py")):
            defs = [node for node in ast.walk(ast.parse(pathlib.Path(path).read_text()))
                    if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))]
            # A decorated function's code object starts at its first decorator.
            unreached = [n for n in defs if "%s:%d" % (path, min(
                [n.lineno] + [d.lineno for d in n.decorator_list])) not in reached]
            total, missed = total + len(defs), missed + len(unreached)
            lines += sum(n.end_lineno - n.lineno + 1 for n in unreached)
            if unreached:
                print(f"{os.path.relpath(path, ROOT)}: {len(unreached)} of {len(defs)}")
                print(*sorted(f"{n.lineno:7}: {n.name}" for n in unreached), sep="\n")
    print(f"reached {total - missed} of {total} functions; {missed} unreached ({lines} lines)")


if __name__ == "sitecustomize" and os.environ.get("REACH_OUT"):
    install(os.environ["REACH_OUT"])
elif __name__ == "__main__":
    if sys.argv[1:2] == ["run"] and sys.argv[3:4] == ["--"] and sys.argv[4:]:
        sys.exit(run(sys.argv[2], sys.argv[4:]))
    sys.exit(report(sys.argv[2:]) if sys.argv[1:2] == ["report"] and sys.argv[2:] else __doc__)
