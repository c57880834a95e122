#!/usr/bin/env python3
"""List the statements of ``src/credence`` that no tier-1 test runs.

Runs the tier-1 suite (``tests/``) in this process under a
``sys.settrace`` line tracer, then prints each ``src/credence`` statement
that never ran, as ``path:line: text``, and their count.  A statement ran
when any line of its own ran: any line of a simple statement, the
header lines of a compound one (decorators and signature included), or,
for a ``try``, its first body statement's.  Docstrings and
``global`` and ``nonlocal`` declarations compile to no code, so they
are no statements here.

Some statements stay unreached in-process by design; they are listed
apart, each with its reason:

- imports under ``if TYPE_CHECKING:``, which only a type checker runs;
- the ``if __name__ == "__main__":`` call, run by ``python -m``;
- code that only the fresh interpreters of ``tests/test_imports.py``
  run, so this tracer never sees it (``SUBPROCESS_ONLY``);
- the CLI error boundary's bare ``raise``, which only a ``ValueError``
  that no command catches would reach.

Every other unreached statement is listed under ``unreached`` and makes
the exit status 1.  A failing suite exits with pytest's status.
Tracing makes the suite several times slower, so it is no tier-1 test.
Run it from any directory; extra arguments go to pytest:

    python scripts/unreached.py
    python scripts/unreached.py -x
"""

from __future__ import annotations

import ast
import os
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "credence"

# (module file, enclosing function) pairs run only in a fresh interpreter
SUBPROCESS_ONLY = {
    ("__init__.py", "__dir__"),
}


def _is_docstring(node: ast.stmt) -> bool:
    return (
        isinstance(node, ast.Expr)
        and isinstance(node.value, ast.Constant)
        and isinstance(node.value.value, str)
    )


def _residue_of_block(node: ast.stmt) -> str | None:
    """The reason the body of an ``if`` never runs in-process, if any."""
    if not isinstance(node, ast.If):
        return None
    test = node.test
    if isinstance(test, ast.Name) and test.id == "TYPE_CHECKING":
        return "TYPE_CHECKING import"
    if (
        isinstance(test, ast.Compare)
        and isinstance(test.left, ast.Name)
        and test.left.id == "__name__"
    ):
        return "the __main__ call"
    return None


def statements(path: Path, source: str) -> list[tuple[int, set[int], str | None]]:
    """Each statement of a module: its first line, the lines any of
    which runs it, and the reason it is expected to stay unreached
    (None when it is not)."""
    out = []

    def visit(body, scope: str, residue: str | None, has_docstring: bool):
        for i, node in enumerate(body):
            if i == 0 and has_docstring and _is_docstring(node):
                continue
            if isinstance(node, (ast.Global, ast.Nonlocal)):
                continue
            reason = residue
            if reason is None and (path.name, scope) in SUBPROCESS_ONLY:
                reason = "run only in a test subprocess"
            if reason is None and path.name == "cli.py" and isinstance(node, ast.Raise) \
                    and node.exc is None:
                reason = "the CLI's re-raise"
            inner = getattr(node, "body", None)
            if isinstance(node, (ast.Try, getattr(ast, "TryStar", ast.Try))):
                first = node.body[0]
                lines = set(range(node.lineno, first.lineno + 1))
            elif isinstance(inner, list) and inner:
                start = min([node.lineno] + [d.lineno for d in getattr(node, "decorator_list", [])])
                lines = set(range(start, max(inner[0].lineno, start + 1)))
            else:
                lines = set(range(node.lineno, node.end_lineno + 1))
            out.append((node.lineno, lines, reason))
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                name = node.name if scope == "" else f"{scope}.{node.name}"
                visit(node.body, name, reason, True)
                continue
            block = _residue_of_block(node)
            for field in ("body", "orelse", "finalbody"):
                visit(getattr(node, field, []), scope, reason or (block if field == "body" else None), False)
            for handler in getattr(node, "handlers", []):
                out.append((handler.lineno, {handler.lineno}, reason))
                visit(handler.body, scope, reason, False)

    visit(ast.parse(source).body, "", None, True)
    return out


def traced_suite(pytest_args: list[str]) -> tuple[int, set[tuple[str, int]]]:
    """Run the tier-1 suite with every line of the package recorded."""
    import pytest
    from hypothesis import settings

    # tracing slows every example; no deadline should fail on that alone
    settings.register_profile("traced", deadline=None)
    settings.load_profile("traced")
    prefix = str(PACKAGE) + os.sep
    hits: set[tuple[str, int]] = set()
    add = hits.add

    def local(frame, event, arg):
        if event == "line":
            add((frame.f_code.co_filename, frame.f_lineno))
        return local

    def call(frame, event, arg):
        if frame.f_code.co_filename.startswith(prefix):
            return local
        return None

    sys.path.insert(0, str(ROOT / "src"))
    os.chdir(ROOT)
    sys.settrace(call)
    try:
        status = pytest.main(["-q", "-p", "no:cacheprovider", *pytest_args, "tests"])
    finally:
        sys.settrace(None)
    return int(status), hits


def main(argv: list[str]) -> int:
    # the sources as the suite imports them, read before it runs
    sources = {path: path.read_text() for path in sorted(PACKAGE.glob("*.py"))}
    status, hits = traced_suite(argv)
    expected, unexpected = [], []
    for path, source in sources.items():
        ran = {line for name, line in hits if name == str(path)}
        text = source.splitlines()
        for line, lines, reason in statements(path, source):
            if lines & ran:
                continue
            entry = f"src/credence/{path.name}:{line}: {text[line - 1].strip()}"
            (expected if reason else unexpected).append(
                f"{entry}  [{reason}]" if reason else entry
            )
    print(f"\nexpected residue: {len(expected)} statements")
    for entry in expected:
        print(f"  {entry}")
    print(f"unreached: {len(unexpected)} statements")
    for entry in unexpected:
        print(f"  {entry}")
    if status:
        return status
    return 1 if unexpected else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
