"""What importing the package loads, each check in a fresh interpreter:
``import credence`` loads no submodule, grading a session loads only
the layers it runs, even when the session names models, a session's
model and strategies load their layers only when they are read, the
command line loads no ``click``, and every name the package exports,
resolved on first use, is its home module's object."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import credence

SRC = Path(credence.__file__).resolve().parent.parent
FIXTURES = Path(__file__).resolve().parent.parent / "fixtures"

# what `check` needs to grade an assessment, and nothing more
GRADE_MODULES = [
    "credence", "credence._exact", "credence.assessment", "credence.cli",
    "credence.errors", "credence.files", "credence.logic",
]


def fresh(code: str):
    """The JSON value that ``code`` prints, run in a fresh interpreter
    with ``json`` and ``sys`` imported."""
    env = {**os.environ, "PYTHONPATH": str(SRC)}
    proc = subprocess.run([sys.executable, "-c", "import json, sys\n" + code],
                          capture_output=True, text=True, env=env)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout)


def loaded_after(code: str) -> list[str]:
    """The ``credence`` modules loaded in a fresh interpreter after ``code``."""
    return fresh(code + "\nprint(json.dumps(sorted("
                 "m for m in sys.modules if m.split('.')[0] == 'credence')))")


def test_importing_the_package_loads_no_submodule():
    assert loaded_after("import credence") == ["credence"]


@pytest.mark.parametrize("name", ["voting", "linda"])  # linda's session names two models
def test_grading_loads_only_the_grading_layers(name):
    session = FIXTURES / name / "session.json"
    code = (f"import credence.cli\ns = credence.cli.files.load_session({str(session)!r})\n"
            "s.assessment, s.theory")
    assert loaded_after(code) == GRADE_MODULES


def test_the_command_line_loads_no_click():
    session = FIXTURES / "linda" / "session.json"
    code = (
        "import contextlib, io\n"
        "import credence.cli\n"
        "def click():\n"
        "    return sorted(m for m in sys.modules if m.split('.')[0] == 'click')\n"
        "imported = click()\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        "    try:\n"
        f"        credence.cli.main(['check', {str(session)!r}])\n"
        "    except SystemExit as e:\n"
        "        code = e.code\n"
        "print(json.dumps([imported, code, click()]))"
    )
    assert fresh(code) == [[], 1, []]


def test_loading_a_session_reads_no_model_or_strategy():
    session = FIXTURES / "strategies" / "session-rationalize.json"
    code = f"import credence.files\ncredence.files.load_session({str(session)!r})"
    loaded = loaded_after(code)
    assert "credence.model" not in loaded and "credence.games" not in loaded


def test_reading_a_model_or_strategy_loads_its_layer():
    session = FIXTURES / "strategies" / "session-rationalize.json"
    code = (f"import credence.files\ns = credence.files.load_session({str(session)!r})\n"
            "s.model(None), s.strategies")
    loaded = loaded_after(code)
    assert "credence.model" in loaded and "credence.games" in loaded
    assert "credence.construct" not in loaded and "credence.identify" not in loaded


def test_every_export_is_its_home_modules_object():
    code = (
        "import importlib, credence\n"
        "homes = {}\n"
        "for name in credence.__all__:\n"
        "    value = getattr(credence, name)\n"
        "    home = importlib.import_module(value.__module__)\n"
        "    assert getattr(home, name) is value, name\n"
        "    homes[name] = home.__name__\n"
        "assert set(credence.__all__) <= set(dir(credence))\n"
        "print(json.dumps(homes))"
    )
    homes = fresh(code)
    assert sorted(homes) == sorted(credence.__all__)
    assert len(set(credence.__all__)) == len(credence.__all__)
    assert all(home.startswith("credence.") for home in homes.values())


def test_an_unknown_name_is_an_attribute_error():
    with pytest.raises(AttributeError, match="no_such_name"):
        credence.no_such_name


def test_star_import_gives_every_export():
    namespace = {}
    exec("from credence import *", namespace)
    assert set(credence.__all__) <= set(namespace)
    assert namespace["Language"] is credence.logic.Language
