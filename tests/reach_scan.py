"""List the functions in src/credmask that no test of the CLI and no bench run starts.

    python tests/reach_scan.py            # print every function that never ran
    python tests/reach_scan.py --check    # also exit 1 if one is not allowed below,
                                          # or if an allowed one is gone or now runs

The scan copies the checkout into a temporary directory and writes a
``sitecustomize`` module into the copy's ``src/``. Every Python process that
puts that ``src/`` on its path, the children the tests and the bench start
included, then records with ``sys.setprofile`` each function that starts and
writes the list when it exits. The runs are ``tests/test_cli.py`` under
pytest and ``bench/run.py --workload all --seed 1 --seconds 2`` with
``--trace 0`` and with ``--trace 1``. A function that never ran in any of
them, dunder methods aside, is printed as ``module.qualname``.
"""

from __future__ import annotations

import ast
import os
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "credmask"
RUNS = (
    ("-m", "pytest", "-q", "-p", "no:cacheprovider", "tests/test_cli.py"),
    ("bench/run.py", "--workload", "all", "--seed", "1", "--seconds", "2", "--trace", "0"),
    ("bench/run.py", "--workload", "all", "--seed", "1", "--seconds", "2", "--trace", "1"),
)

# Functions that commands can reach but these runs do not, each with the reason
# it is kept; they want tests, not deletion.
ALLOWED: dict[str, str] = {}

SITECUSTOMIZE = '''\
import atexit, os, sys, threading

_seen = {}


def _record(frame, event, arg):
    if event == "call":
        _seen[id(frame.f_code)] = frame.f_code


def _write():
    sys.setprofile(None)
    lines = [f"{code.co_filename}\\t{code.co_firstlineno}\\n" for code in _seen.values()
             if code.co_filename.startswith(%(package)r)]
    with open(os.path.join(%(out)r, f"{os.getpid()}.txt"), "w") as fh:
        fh.writelines(lines)


atexit.register(_write)
sys.setprofile(_record)
threading.setprofile(_record)
'''


def defined_functions(package: Path) -> dict[tuple[str, int], str]:
    """(module file name, first line) -> module.qualname of every non-dunder
    function; the first line is that of the first decorator, as in co_firstlineno."""
    found = {}

    def walk(node, file_name, prefix):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.ClassDef):
                walk(child, file_name, f"{prefix}{child.name}.")
            elif isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                name = child.name
                if not (name.startswith("__") and name.endswith("__")):
                    first = min([d.lineno for d in child.decorator_list] + [child.lineno])
                    found[(file_name, first)] = f"{prefix}{name}"
                walk(child, file_name, f"{prefix}{name}.<locals>.")
            else:
                walk(child, file_name, prefix)

    for path in sorted(package.glob("*.py")):
        walk(ast.parse(path.read_text(encoding="utf-8")), path.name, f"{path.stem}.")
    return found


def started_functions(out: Path) -> set[tuple[str, int]]:
    started = set()
    for record in out.glob("*.txt"):
        for line in record.read_text(encoding="utf-8").splitlines():
            file_name, _, first = line.rpartition("\t")
            started.add((Path(file_name).name, int(first)))
    return started


def scan() -> list[str]:
    """Run every run in a copy of the checkout; the qualnames that never started."""
    with tempfile.TemporaryDirectory(prefix="reach-scan-") as tmp:
        copy, out = Path(tmp) / "checkout", Path(tmp) / "out"
        shutil.copytree(ROOT, copy, ignore=shutil.ignore_patterns(
            ".git", "__pycache__", ".pytest_cache", ".bench_*", ".benchmarks"))
        out.mkdir()
        package = str(copy / "src" / "credmask") + os.sep
        (copy / "src" / "sitecustomize.py").write_text(
            SITECUSTOMIZE % {"package": package, "out": str(out)}, encoding="utf-8")
        env = dict(os.environ, PYTHONPATH=str(copy / "src"))
        for run in RUNS:
            proc = subprocess.run([sys.executable, *run], cwd=copy, env=env,
                                  capture_output=True, text=True)
            if proc.returncode != 0:
                sys.stderr.write(proc.stdout[-4000:] + proc.stderr[-4000:])
                raise SystemExit(f"error: {' '.join(run)} exited {proc.returncode}")
        started = started_functions(out)
    return sorted(name for key, name in defined_functions(PACKAGE).items()
                  if key not in started)


def main(argv: list[str]) -> int:
    check = argv == ["--check"]
    if argv and not check:
        raise SystemExit(__doc__)
    unrun = scan()
    for name in unrun:
        reason = ALLOWED.get(name)
        print(f"{name}  (allowed: {reason})" if reason else name)
    refused = [name for name in unrun if name not in ALLOWED]
    defined = set(defined_functions(PACKAGE).values())
    stale = sorted(name for name in ALLOWED if name not in defined or name not in unrun)
    if not check:
        return 0
    if refused:
        print(f"never ran and not allowed: {', '.join(refused)}", file=sys.stderr)
    if stale:
        print(f"allowed but gone or now run: {', '.join(stale)}", file=sys.stderr)
    return 1 if refused or stale else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
