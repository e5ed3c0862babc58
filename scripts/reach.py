#!/usr/bin/env python3
"""List the functions of src/dflab that no pipeline reaches.

Usage:
    python scripts/reach.py

Runs the command lines in ``RUNS`` one after another in this process,
with ``dflab.cli.main`` and this checkout's sources, under
``sys.setprofile``.  It then prints, as ``file:line name``, every
function or method defined in ``src/dflab`` (nested ones included,
lambdas not) that none of the runs entered.  Reports go to a temporary
directory; each run's exit code is printed to stderr.  The profile hook
slows every Python call down: the survey took 16 s on a 2-vCPU VM with
Python 3.11.7.
"""

from __future__ import annotations

import ast
import contextlib
import io
import os
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "dflab"

RUNS = [
    ["all"],
    ["all", "--rationals"],
    ["all", "--prime", "2"],
    ["gk", "--engine", "both", "--route", "both"],
    ["check", "koszul", "--vars", "x,y,z", "--seq", "x,y,z"],
    ["predict", "--d", "3"],
    ["gk", "--format", "markdown"],
    ["tor-powers", "--seq", "x,y^2-x^2"],
    ["gk", "--seq", "x^2,-y"],
    ["gk", "--nmax", "3"],
]


def defined_functions() -> dict:
    """(file, first line of its code object) -> qualified name, for every
    def in the package; a decorated function's code starts at its first
    decorator."""
    found = {}

    def visit(node, path, prefix):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                first = min([child.lineno] + [d.lineno for d in child.decorator_list])
                found[str(path), first] = prefix + child.name
                visit(child, path, f"{prefix}{child.name}.")
            elif isinstance(child, ast.ClassDef):
                visit(child, path, f"{prefix}{child.name}.")
            else:
                visit(child, path, prefix)

    for path in sorted(PACKAGE.glob("*.py")):
        visit(ast.parse(path.read_text()), path, "")
    return found


def entered_during(runs) -> set:
    """(file, first line) of every code object entered while the runs go."""
    seen = set()

    def hook(frame, event, arg):
        if event == "call":
            code = frame.f_code
            seen.add((code.co_filename, code.co_firstlineno))

    sys.path.insert(0, str(PACKAGE.parent))
    sys.setprofile(hook)
    try:
        from dflab.cli import main

        with tempfile.TemporaryDirectory() as tmp:
            for k, argv in enumerate(runs):
                with contextlib.redirect_stderr(io.StringIO()):
                    code = main([*argv, "--out", os.path.join(tmp, f"{k}.out")])
                print(f"exit {code}: dflab {' '.join(argv)}", file=sys.stderr)
    finally:
        sys.setprofile(None)
    return {(os.path.realpath(f), line) for f, line in seen}


def main() -> int:
    defined = defined_functions()
    entered = entered_during(RUNS)
    for (path, line), name in sorted(defined.items()):
        if (os.path.realpath(path), line) not in entered:
            print(f"{Path(path).relative_to(ROOT)}:{line} {name}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
