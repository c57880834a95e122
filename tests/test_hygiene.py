"""Source hygiene of the ``credence`` package, read from its syntax trees:
no ``assert`` (stripped under ``python -O``, so it cannot guard anything),
no bare or blanket ``except`` (it would turn a programming error into a
verdict), no big-M constant (exact LPs need none, and a big-M penalty
is only correct while every other number stays below it), and no float
literal or ``float(...)`` call (every value is an exact rational, and the
integer fast paths rely on it)."""

import ast
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "credence"
BIG_M = 10**6
BLANKET = {"Exception", "BaseException"}


def _number(node) -> bool:
    return isinstance(node, ast.Constant) and type(node.value) in (int, float)


def _is_big_m(node) -> bool:
    """A numeric literal, or a power of two numeric literals such as
    ``10 ** 12``, whose absolute value is at least ``BIG_M``."""
    if _number(node):
        return abs(node.value) >= BIG_M
    if isinstance(node, ast.BinOp) and isinstance(node.op, ast.Pow):
        if _number(node.left) and _number(node.right):
            return abs(node.left.value) ** min(node.right.value, 64) >= BIG_M
    return False


def _is_blanket(handler: ast.ExceptHandler) -> bool:
    caught = handler.type
    if caught is None:
        return True
    names = caught.elts if isinstance(caught, ast.Tuple) else [caught]
    return any(isinstance(n, ast.Name) and n.id in BLANKET for n in names)


def _float_use(node) -> str | None:
    if isinstance(node, ast.Constant) and type(node.value) is float:
        return f"float literal {node.value!r}"
    if isinstance(node, ast.Call) and isinstance(node.func, ast.Name) and node.func.id == "float":
        return "float call"
    return None


def offences(source: str, name: str = "<source>") -> list[str]:
    """Every assert, bare or blanket except, big-M constant, float literal
    and float call in the source, as ``name:line: what``."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Assert):
            found.append(f"{name}:{node.lineno}: assert")
        elif isinstance(node, ast.ExceptHandler) and _is_blanket(node):
            found.append(f"{name}:{node.lineno}: bare or blanket except")
        elif _is_big_m(node):
            found.append(f"{name}:{node.lineno}: big-M constant {ast.unparse(node)}")
        elif what := _float_use(node):
            found.append(f"{name}:{node.lineno}: {what}")
    return found


MODULES = sorted(PACKAGE.glob("*.py"))


def test_the_package_is_found():
    assert PACKAGE / "_simplex.py" in MODULES


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_module_is_clean(path):
    assert offences(path.read_text(), path.name) == []


@pytest.mark.parametrize(
    "snippet, what",
    [
        ("assert x > 0", "assert"),
        ("try:\n    f()\nexcept:\n    pass", "bare or blanket except"),
        ("try:\n    f()\nexcept Exception:\n    pass", "bare or blanket except"),
        ("try:\n    f()\nexcept (ValueError, BaseException):\n    pass", "bare or blanket except"),
        ("m = Fraction(-10**12)", "big-M constant 10 ** 12"),
        ("m = 1e9", "big-M constant 1000000000.0"),
        ("m = 2_000_000", "big-M constant 2000000"),
        ("half = 0.5", "float literal 0.5"),
        ("tol = 1e-9", "float literal 1e-09"),
        ("x = float(v)", "float call"),
    ],
)
def test_offences_are_found(snippet, what):
    assert [o.split(": ", 1)[1] for o in offences(snippet)] == [what]


@pytest.mark.parametrize(
    "snippet",
    [
        "try:\n    f()\nexcept ValueError:\n    pass",
        "cap = 4096",
        "n = 2 ** 16",
        "eps = 10 ** -9",
        "flag = True",
        "half = Fraction(1, 2)",
        '"""Floats such as 0.5 are rejected."""',
        "isinstance(v, float)",
    ],
)
def test_ordinary_code_passes(snippet):
    assert offences(snippet) == []
