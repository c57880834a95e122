"""Smoke tests of the benchmark itself: every workload at a tiny size,
traced and untraced, plus generator determinism and independence.

    python3 -m pytest perfbench -q
"""

import filecmp
import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import gen  # noqa: E402

WORKLOADS = sorted(gen.GENERATORS)
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def run_bench(*args, cwd=ROOT):
    return subprocess.run(
        [sys.executable, "perfbench/run.py", *args],
        cwd=cwd, capture_output=True, text=True, timeout=170,
    )


def test_benchmark_names_its_workloads():
    assert sorted(w["name"] for w in SPEC["workloads"]) == WORKLOADS


@pytest.mark.parametrize("workload", WORKLOADS)
@pytest.mark.parametrize("trace", [0, 1])
def test_tiny_run_reports_every_metric(workload, trace):
    proc = run_bench("--workload", workload, "--seed", "3", "--seconds", "1",
                     "--trace", str(trace), "--tiny")
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0
    assert result["attempted"] >= 1
    wanted = SPEC["per_layer" if trace else "end_to_end"]
    assert set(result["metrics"]) == {m["name"] for m in wanted}
    for m in wanted:
        assert result["metrics"][m["name"]]["unit"] == m["unit"]


def generate_in_process(workload, seed, out, tiny, hash_seed):
    """Generate in a fresh interpreter with the given string hash seed."""
    code = ("import sys; sys.path.insert(0, sys.argv[1]); import gen; "
            "gen.generate(sys.argv[2], int(sys.argv[3]), sys.argv[4], tiny=sys.argv[5] == '1')")
    env = dict(os.environ, PYTHONHASHSEED=str(hash_seed))
    subprocess.run([sys.executable, "-c", code, str(HERE), workload, str(seed), str(out),
                    "1" if tiny else "0"], check=True, env=env, timeout=120)


@pytest.mark.parametrize("workload", WORKLOADS)
@pytest.mark.parametrize("tiny", [True, False])
def test_generator_is_deterministic(workload, tiny, tmp_path):
    generate_in_process(workload, 11, tmp_path / "a", tiny, hash_seed=1)
    generate_in_process(workload, 11, tmp_path / "b", tiny, hash_seed=2)
    names = sorted(p.name for p in (tmp_path / "a").iterdir())
    assert names == sorted(p.name for p in (tmp_path / "b").iterdir())
    _, mismatch, errors = filecmp.cmpfiles(tmp_path / "a", tmp_path / "b", names, shallow=False)
    assert not mismatch and not errors
    generate_in_process(workload, 12, tmp_path / "c", tiny, hash_seed=1)
    assert not filecmp.cmp(tmp_path / "a" / "plan.json", tmp_path / "c" / "plan.json",
                           shallow=False)


def test_generator_does_not_import_credence(tmp_path):
    code = (
        "import sys; sys.path.insert(0, sys.argv[1]); import gen\n"
        "for w in gen.GENERATORS: gen.generate(w, 0, sys.argv[2] + '/' + w, tiny=True)\n"
        "assert not [m for m in sys.modules if m.split('.')[0] == 'credence'], 'credence imported'\n"
    )
    proc = subprocess.run([sys.executable, "-c", code, str(HERE), str(tmp_path)],
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    source = (HERE / "gen.py").read_text()
    assert "import credence" not in source and "from credence" not in source


def test_fails_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = run_bench("--workload", "grade", "--seed", "0", "--seconds", "1", "--trace", "0",
                     cwd=tmp_path)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
