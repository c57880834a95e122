#!/usr/bin/env python3
"""Time the axiom IE checker and the CLI's JSON report writer in-process,
on seeded 3-atom universes of 64 and 128 of the 256 equivalence classes
with random values, and write the figures to a JSON file.

For each universe it records ``check_ie``'s best wall time of five runs
(``n_max`` 3) with its violation and untestable counts, and the best of
five for writing that IE report with ``credence.cli``'s writer and with
``json.dumps(indent=2, sort_keys=True)``, whose bytes the writer must
reproduce.  Times are raw wall seconds on the host that ran the script;
its Python version and machine are recorded beside them.

Usage: python3 scripts/bench.py OUT.json
"""

import json
import platform
import random
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))
sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "tests"))

from credence import Assessment, Language, check_ie  # noqa: E402
from credence.cli import _json_text  # noqa: E402
from helpers import full_closure_classes, json_text_oracle, random_fraction  # noqa: E402

SIZES = (64, 128)  # classes picked; the seed of each universe is its size
REPEATS = 5


def best_of(fn) -> tuple[float, object]:
    """The shortest of ``REPEATS`` timed calls, and the last result."""
    times = []
    for _ in range(REPEATS):
        result = None  # the last run's output is freed before the next
        start = time.perf_counter()
        result = fn()
        times.append(time.perf_counter() - start)
    return min(times), result


def universe(classes: int) -> Assessment:
    rng = random.Random(classes)
    lang = Language(["p", "q", "r"])
    picked = rng.sample(full_closure_classes(lang), classes)
    return Assessment(lang, {f: random_fraction(rng, 12) for _, f in picked})


def bench_universe(classes: int) -> dict:
    a = universe(classes)
    ie_s, report = best_of(lambda: check_ie(a))
    payload = {"command": "check", "reports": [report.to_dict()]}
    writer_s, text = best_of(lambda: _json_text(payload))
    size, written = len(text), hash(text)
    del text  # one report text at a time: at 128 classes each is about 110 MB
    dumps_s, oracle = best_of(lambda: json_text_oracle(payload))
    # equal lengths and hashes: the two texts are never held at once
    identical = size == len(oracle) and written == hash(oracle)
    return {
        "classes": classes,
        "statements": len(a.statements),
        "check_ie": {
            "n_max": 3,
            "best_s": ie_s,
            "violations": len(report.violations),
            "untestable": len(report.untestable),
        },
        "report_writer": {
            "bytes": size,
            "writer_best_s": writer_s,
            "json_dumps_indent_best_s": dumps_s,
            "identical": identical,
        },
    }


def main(out: Path):
    results = {
        "python": platform.python_version(),
        "machine": platform.machine(),
        "repeats": REPEATS,
        "universes": [bench_universe(k) for k in SIZES],
    }
    out.write_text(json.dumps(results, indent=2) + "\n")
    print(json.dumps(results, indent=2))


if __name__ == "__main__":
    if len(sys.argv) != 2:
        sys.exit(__doc__.split("Usage: ")[1])
    main(Path(sys.argv[1]))
