"""Run Tier-1 under a line tracer and fail if a `raise` line of src/cfc
never ran.

    python tests/untested_raises.py

Exits with pytest's status if a test fails, else 1 if a raise line never
ran, else 0. The tracer sees the pytest process alone, not the
`python -m cfc.cli` children some tests start, so every raise needs a test
that reaches it in process.

The tracer records the lines of src/cfc only, in every thread. The standard
library's trace module would count them too, but it caches its ignore
decision by module base name: once numpy's records.py is ignored, so is
cfc's.
"""

import ast
import os
import sys
import threading

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
PKG = os.path.join(ROOT, "src", "cfc")


def raise_lines() -> dict[str, str]:
    """FILE:LINE -> source line, for the first line of every raise statement."""
    found = {}
    for name in sorted(os.listdir(PKG)):
        if not name.endswith(".py"):
            continue
        with open(os.path.join(PKG, name), encoding="utf-8") as fh:
            source = fh.read()
        lines = source.splitlines()
        for node in ast.walk(ast.parse(source, name)):
            if isinstance(node, ast.Raise):
                found[f"{name}:{node.lineno}"] = lines[node.lineno - 1].strip()
    return found


def traced_tier1() -> tuple[int, set[str]]:
    """pytest's exit status over tests/, and the FILE:LINE of every line of
    src/cfc that ran."""
    pkg = os.path.realpath(PKG)
    in_pkg: dict[str, bool] = {}
    ran: set[tuple[str, int]] = set()

    def line(frame, event, arg):
        if event == "line":
            ran.add((frame.f_code.co_filename, frame.f_lineno))
        return line

    def call(frame, event, arg):
        path = frame.f_code.co_filename
        if path not in in_pkg:
            in_pkg[path] = os.path.dirname(os.path.realpath(path)) == pkg
        return line if in_pkg[path] else None

    threading.settrace(call)
    sys.settrace(call)
    try:
        status = pytest.main(["-q", os.path.join(ROOT, "tests")])
    finally:
        sys.settrace(None)
        threading.settrace(None)
    return int(status), {f"{os.path.basename(path)}:{lineno}" for path, lineno in ran}


def main() -> int:
    raises = raise_lines()
    status, ran = traced_tier1()
    if status != 0:
        return status
    missing = [key for key in raises if key not in ran]
    for key in missing:
        print(f"src/cfc/{key}: no test runs `{raises[key]}`", file=sys.stderr)
    print(f"{len(raises)} raise lines in src/cfc: {len(missing)} never run")
    return 1 if missing else 0


if __name__ == "__main__":
    sys.exit(main())
