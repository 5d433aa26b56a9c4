"""Raise audit: run tier-1 under a line tracer limited to ``src/eotypes`` and
list every ``raise`` statement that no test reached.

    PYTHONPATH=src python tests/raise_audit.py

Runs the whole of tier-1, as a subset would show the raises that only the
tests left out reach. Exits 0 when every test passes and every raise in the
package fires in some test; otherwise 1, listing one ``path:line`` per
unreached raise. The file is not named ``test_*``, so tier-1 does not
collect it. Only the test process is traced: a raise reached only inside a
subprocess does not count.
"""

from __future__ import annotations

import ast
import os
import sys

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
PACKAGE = os.path.join(ROOT, "src", "eotypes")


def raise_lines() -> dict:
    """{path: sorted line numbers of the raise statements in it}."""
    out = {}
    for name in sorted(os.listdir(PACKAGE)):
        if name.endswith(".py"):
            path = os.path.join(PACKAGE, name)
            with open(path, encoding="utf-8") as fh:
                tree = ast.parse(fh.read(), path)
            out[path] = sorted(node.lineno for node in ast.walk(tree)
                               if isinstance(node, ast.Raise))
    return out


def run_traced() -> tuple:
    """(pytest exit code, {path: set of executed lines}) for one tier-1 run."""
    seen, inside = {}, {}  # by code file name as the interpreter gives it

    def local(frame, event, arg):
        if event == "line":
            seen[frame.f_code.co_filename].add(frame.f_lineno)
        return local

    def tracer(frame, event, arg):
        name = frame.f_code.co_filename
        if name not in inside:
            inside[name] = os.path.abspath(name).startswith(PACKAGE + os.sep)
        if not inside[name]:
            return None
        seen.setdefault(name, set()).add(frame.f_lineno)
        return local

    sys.settrace(tracer)
    try:
        code = pytest.main(["-q", "--continue-on-collection-errors", "-p", "no:cacheprovider",
                            os.path.join(ROOT, "tests")])
    finally:
        sys.settrace(None)
    lines = {}
    for name, executed in seen.items():
        lines.setdefault(os.path.abspath(name), set()).update(executed)
    return int(code), lines


def main() -> int:
    code, seen = run_traced()
    if code != 0:
        print(f"raise audit: tier-1 failed (pytest exit code {code})", file=sys.stderr)
        return 1
    raises = raise_lines()
    missed = [(path, line) for path, lines in raises.items() for line in lines
              if line not in seen.get(path, ())]
    total = sum(len(lines) for lines in raises.values())
    for path, line in missed:
        print(f"{os.path.relpath(path, ROOT)}:{line}")
    print(f"raise audit: {len(missed)} of {total} raise statements in src/eotypes "
          "reached by no test")
    return 1 if missed else 0


if __name__ == "__main__":
    sys.exit(main())
