#!/usr/bin/env python3
"""Time the axiom IE checker, the CLI's JSON report writer and the
formula-heavy cliffs in-process, and write the figures to a JSON file.

The IE checker and the writer run on seeded 3-atom universes of 64 and
128 of the 256 equivalence classes with random values.
For each universe it records ``check_ie``'s best wall time of five runs
(``n_max`` 3) with its violation and untestable counts, and the best of
five for writing that IE report with ``credence.cli``'s writer and with
``json.dumps(indent=2, sort_keys=True)``, whose bytes the writer must
reproduce.

The formula cliffs are ``largest_subtheory`` on 5 and 6 atoms with
1,024 minimal transversals, each rendered as a candidate theory whose
extra generator is a minterm disjunction, and ``Language`` over 16
atoms: building it, then parsing and taking ``sat`` of a disjunction of
256 seeded minterms.  Each is the best of five runs, each run on a new
``Language``, so no run reads the ``sat`` cache of the one before.

Times are raw wall seconds on the host that ran the script; its Python
version and machine are recorded beside them.  To compare two commits,
run the script in a checkout of each and hand the first run's file to
the second as BEFORE.json: OUT.json then holds ``{"before": ...,
"after": ...}``.

Usage: python3 scripts/bench.py OUT.json [BEFORE.json]
"""

import json
import platform
import random
import sys
import time
from fractions import Fraction
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))
sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "tests"))

from credence import (  # noqa: E402
    Assessment,
    Language,
    Theory,
    check_ie,
    largest_subtheory,
    unparse,
)
from credence.cli import _json_text  # noqa: E402
from helpers import (  # noqa: E402
    disjoint_gap_tables,
    full_closure_classes,
    json_text_oracle,
    random_fraction,
)

SIZES = (64, 128)  # classes picked; the seed of each universe is its size
REPEATS = 5
SUBTHEORY_ATOMS = (5, 6)
SUBTHEORY_GAPS = 10  # disjoint residual gaps: 2^10 minimal transversals
DNF_ATOMS = 16
DNF_MINTERMS = 256


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


def bench_subtheory(atoms: int) -> dict:
    names = [f"a{j}" for j in range(atoms)]
    pi, gens = disjoint_gap_tables(Language(names), SUBTHEORY_GAPS)

    def search():
        lang = Language(names)  # an empty sat cache every run
        a = Assessment(lang, {lang.parse(t): Fraction(v) for t, v in pi.items()})
        return largest_subtheory(a, Theory.from_texts(lang, gens))

    best_s, sub = best_of(search)
    return {
        "atoms": atoms,
        "candidates": len(sub.candidates),
        "rendered_chars": sum(len(t) for c in sub.candidates for t in c),
        "best_s": best_s,
    }


def bench_dnf() -> dict:
    rng = random.Random(DNF_ATOMS)
    build_s, lang = best_of(lambda: Language([f"a{j}" for j in range(DNF_ATOMS)]))
    picked = rng.sample(range(lang.n_valuations), DNF_MINTERMS)
    text = unparse(lang.minterm(picked[0]))
    for i in picked[1:]:
        text = f"({text} | {unparse(lang.minterm(i))})"

    def parse_and_sat():
        fresh = Language(lang.atoms)  # an empty sat cache every run
        return fresh.sat(fresh.parse(text))

    best_s, bits = best_of(parse_and_sat)
    return {
        "atoms": DNF_ATOMS,
        "minterms": DNF_MINTERMS,
        "chars": len(text),
        "language_best_s": build_s,
        "parse_and_sat_best_s": best_s,
        "sat_matches": bits == sum(1 << i for i in picked),
    }


def main(out: Path, before: Path | None):
    results = {
        "python": platform.python_version(),
        "machine": platform.machine(),
        "repeats": REPEATS,
        "universes": [bench_universe(k) for k in SIZES],
        "largest_subtheory": [bench_subtheory(n) for n in SUBTHEORY_ATOMS],
        "minterm_dnf": bench_dnf(),
    }
    if before is not None:
        results = {"before": json.loads(before.read_text()), "after": results}
    out.write_text(json.dumps(results, indent=2) + "\n")
    print(json.dumps(results, indent=2))


if __name__ == "__main__":
    if len(sys.argv) not in (2, 3):
        sys.exit(__doc__.split("Usage: ")[1])
    main(Path(sys.argv[1]), Path(sys.argv[2]) if len(sys.argv) == 3 else None)
