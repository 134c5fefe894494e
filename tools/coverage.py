"""Statement coverage of src/uwocnet by tier-1, traced with sys.settrace.

Tier-1 runs in this process under sys.settrace, and every statement of
src/uwocnet that has bytecode but that no test ran is printed as
path:line and its first line of text.  A statement ran if any of its own
lines did: a compound statement's own lines end where its body starts.

Statements that only a child process can run are out of this process's
sight; ALLOWED names each by file and text.  The exit status is 1 if
tier-1 fails, or if a printed statement is not on ALLOWED.

Usage (standard library and pytest; slower than tier-1 by ~5x):

    python tools/coverage.py
"""

from __future__ import annotations

import ast
import os
import sys
import types
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "uwocnet"

ALLOWED = {
    # the __main__ guard's body: only `python -m uwocnet.cli` runs it
    ("cli.py", "raise SystemExit(main())"),
}


def statements(path: Path):
    """(first line, own lines) of each statement of path with bytecode."""
    source = path.read_text()
    with_code, todo = set(), [compile(source, str(path), "exec")]
    while todo:
        code = todo.pop()
        with_code.update(line for *_, line in code.co_lines() if line)
        todo.extend(c for c in code.co_consts if isinstance(c, types.CodeType))
    for node in ast.walk(ast.parse(source)):
        if not isinstance(node, ast.stmt):
            continue
        decorators = getattr(node, "decorator_list", [])
        first = min([node.lineno] + [d.lineno for d in decorators])
        body = getattr(node, "body", None)
        last = max(body[0].lineno - 1, first) if body else node.end_lineno
        own = set(range(first, last + 1))
        if own & with_code:
            yield first, own


def main() -> int:
    files = {str(p): p for p in sorted(PACKAGE.glob("*.py"))}
    ran = {name: set() for name in files}

    def trace(frame, event, arg):
        lines = ran.get(frame.f_code.co_filename)
        if lines is None:
            return None  # no line events outside the package
        lines.add(frame.f_lineno)
        return trace

    os.chdir(ROOT)
    # src/ in place of this script's directory, where `coverage` is this file
    sys.path[0] = str(ROOT / "src")
    sys.settrace(trace)
    try:
        status = pytest.main(
            ["-q", "-p", "no:cacheprovider", "--continue-on-collection-errors"]
        )
    finally:
        sys.settrace(None)
    imported = getattr(sys.modules.get("uwocnet"), "__file__", None)
    if imported not in files:
        sys.exit(f"tier-1 imported uwocnet from {imported}, not {PACKAGE}")

    missed = sorted(
        (path, first)
        for name, path in files.items()
        for first, own in statements(path)
        if not own & ran[name]
    )
    unexpected = 0
    print(f"statements of {PACKAGE.relative_to(ROOT)} that no tier-1 test ran:")
    for path, first in missed:
        text = path.read_text().splitlines()[first - 1].strip()
        allowed = (path.name, text) in ALLOWED
        unexpected += not allowed
        mark = "  (allowed)" if allowed else ""
        print(f"{path.relative_to(ROOT)}:{first}  {text}{mark}")
    print(f"{len(missed)} not run, {unexpected} of them not on the allow-list")
    if status != 0:
        print(f"tier-1 failed (pytest exit status {int(status)})")
    return 1 if status != 0 or unexpected else 0


if __name__ == "__main__":
    sys.exit(main())
