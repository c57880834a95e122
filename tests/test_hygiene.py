"""Source hygiene of the ``credence`` package, read from its syntax trees:
no ``assert`` (stripped under ``python -O``, so it cannot guard anything),
no bare or blanket ``except`` (it would turn a programming error into a
verdict), no big-M constant (exact LPs need none, and a big-M penalty
is only correct while every other number stays below it), and no float
literal or ``float(...)`` call (every value is an exact rational, and the
integer fast paths rely on it).  The LP core's ``pivot`` and
``_run_simplex`` must also stay fraction-free: no true division and no
``Fraction``, so every pivot stays integer arithmetic over one
denominator.  Only ``_exact`` takes an lcm: it owns the one exact-rational
format, int numerators over one common denominator.  Every
``ValueError`` the package defines must have its exit code: an input
error, which subclasses ``errors.InputError`` (exit 2), or the one
verdict, ``construct.BuildError``.  A table indexed by k bits is bounded by one
rule, ``logic.check_table``: k at most ``logic.MAX_ATOMS``, the width of
the widest language's valuation table.  So the only module-level
``MAX_*`` names are ``logic.MAX_ATOMS``, ``logic.MAX_DEPTH`` (the
recursion bound) and one cap that waits for an algorithm to replace
it, ``identify.MAX_TRANSVERSALS``."""

import ast
import importlib
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "credence"
BIG_M = 10**6
BLANKET = {"Exception", "BaseException"}
FRACTION_FREE = ("pivot", "_run_simplex")
CAPS = [
    "identify.MAX_TRANSVERSALS",
    "logic.MAX_ATOMS",
    "logic.MAX_DEPTH",
]


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


def _is_fraction(node) -> bool:
    return (isinstance(node, ast.Name) and node.id == "Fraction") or (
        isinstance(node, ast.Attribute) and node.attr == "Fraction"
    )


def fraction_uses(source: str, functions=FRACTION_FREE) -> list[str]:
    """Every true division and every use of ``Fraction`` inside the named
    functions, as ``function:line: what``."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if not (isinstance(node, ast.FunctionDef) and node.name in functions):
            continue
        for inner in ast.walk(node):
            if isinstance(inner, (ast.BinOp, ast.AugAssign)) and isinstance(inner.op, ast.Div):
                found.append(f"{node.name}:{inner.lineno}: true division")
            elif _is_fraction(inner):
                found.append(f"{node.name}:{inner.lineno}: Fraction")
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


def test_lp_core_is_fraction_free():
    source = (PACKAGE / "_simplex.py").read_text()
    defined = {
        node.name for node in ast.walk(ast.parse(source)) if isinstance(node, ast.FunctionDef)
    }
    assert set(FRACTION_FREE) <= defined
    assert fraction_uses(source) == []


@pytest.mark.parametrize(
    "snippet, what",
    [
        ("def pivot(tab, d, r, c):\n    return tab[r][c] / d", "true division"),
        ("def _run_simplex(tab):\n    tab[0][0] /= 2", "true division"),
        ("def pivot(tab, d, r, c):\n    return Fraction(tab[r][c], d)", "Fraction"),
        ("def _run_simplex(tab):\n    return fractions.Fraction(tab[0][0])", "Fraction"),
    ],
)
def test_fraction_uses_are_found(snippet, what):
    assert [o.split(": ", 1)[1] for o in fraction_uses(snippet)] == [what]


@pytest.mark.parametrize(
    "snippet",
    [
        "def pivot(tab, d, r, c):\n    return tab[r][c] // d",
        "def maximize(c):\n    return Fraction(c[0]) / 2",
        "def _run_simplex(tab):\n    return tab  # not Fraction / d",
        '"""pivot on ints, never Fraction / d"""',
    ],
)
def test_fraction_free_code_passes(snippet):
    assert fraction_uses(snippet) == []


def lcm_uses(source: str) -> list[str]:
    """Every ``math.lcm`` call and every import of ``lcm``, as
    ``line: what``."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Attribute) and node.attr == "lcm":
            found.append(f"{node.lineno}: {ast.unparse(node)}")
        elif isinstance(node, ast.ImportFrom) and any(a.name == "lcm" for a in node.names):
            found.append(f"{node.lineno}: lcm import")
    return found


def test_only_exact_takes_an_lcm():
    offenders = {p.name: lcm_uses(p.read_text()) for p in MODULES if p.name != "_exact.py"}
    assert {name: found for name, found in offenders.items() if found} == {}
    assert lcm_uses((PACKAGE / "_exact.py").read_text())


@pytest.mark.parametrize(
    "snippet, what",
    [
        ("den = math.lcm(*dens)", "math.lcm"),
        ("from math import gcd, lcm", "lcm import"),
    ],
)
def test_lcm_uses_are_found(snippet, what):
    assert [o.split(": ", 1)[1] for o in lcm_uses(snippet)] == [what]


@pytest.mark.parametrize(
    "snippet",
    [
        "den, nums = over_one_denominator(values)",
        "g = math.gcd(num, den)",
        '"""the lcm of the denominators"""',
    ],
)
def test_code_without_an_lcm_passes(snippet):
    assert lcm_uses(snippet) == []


def defined_classes(base) -> list[type]:
    """Every subclass of ``base`` that a module of the package defines."""
    found = []
    for path in MODULES:
        name = "credence" if path.stem == "__init__" else f"credence.{path.stem}"
        module = importlib.import_module(name)
        found += [
            value for value in vars(module).values()
            if isinstance(value, type) and issubclass(value, base)
            and value.__module__ == module.__name__
        ]
    return found


def test_every_value_error_has_an_exit_code():
    from credence import construct, files
    from credence.errors import InputError, InternalError

    errors = defined_classes(ValueError)
    assert construct.BuildError in errors and files.FileFormatError in errors
    uncovered = [
        f"{e.__module__}.{e.__qualname__}" for e in errors
        if not issubclass(e, InputError) and e is not construct.BuildError
    ]
    assert uncovered == []
    assert not issubclass(InternalError, InputError)
    assert not issubclass(construct.BuildError, InputError)


def caps(source: str, module: str) -> list[str]:
    """Every name ``MAX_*`` bound at the module level of the source, as
    ``module.NAME``."""
    found = []
    for node in ast.parse(source).body:
        if isinstance(node, ast.Assign):
            targets = node.targets
        elif isinstance(node, (ast.AnnAssign, ast.AugAssign)):
            targets = [node.target]
        else:
            continue
        found += [
            f"{module}.{t.id}" for t in targets
            if isinstance(t, ast.Name) and t.id.startswith("MAX_")
        ]
    return found


def test_caps_follow_one_rule():
    found = sorted(cap for path in MODULES for cap in caps(path.read_text(), path.stem))
    assert found == CAPS


@pytest.mark.parametrize(
    "snippet, found",
    [
        ("MAX_FIELD_ATOMS = 12", ["m.MAX_FIELD_ATOMS"]),
        ("MAX_LIFT: int = 12", ["m.MAX_LIFT"]),
        ("MAX_A = MAX_B = 3", ["m.MAX_A", "m.MAX_B"]),
        ("def f():\n    MAX_LOCAL = 3", []),
        ("n = MAX_ATOMS + 1", []),
    ],
)
def test_caps_are_found(snippet, found):
    assert caps(snippet, "m") == found
