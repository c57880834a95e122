#!/usr/bin/env python3
"""Time the axiom IE checker, the CLI's JSON report writer, the
formula-heavy cliffs, model file I/O, formula parsing, the
rationalizability decision and the additive-sound build in-process, and
write the figures to a JSON file.

The IE checker and the writer run on seeded 3-atom universes of 64 and
128 of the 256 equivalence classes with random values.
For each universe it records ``check_ie``'s best wall time of five runs
(families of up to three statements, recorded as ``n_max`` 3) with its
violation and untestable counts, and the best of
five for writing that IE report with ``credence.cli``'s writer and with
``json.dumps(indent=2, sort_keys=True)``, whose bytes the writer must
reproduce.  It also times a whole ``check`` report on the universe:
``credence.cli.main`` run in-process on a session of the universe's
assessment and a one-generator theory, in JSON, so all six checkers run
and the report is written to a stdout that keeps it.  That is the best
of five runs, reading the session's files included, with the report's
length and a SHA-256 digest, which must match between two commits.

The formula cliffs are ``largest_subtheory`` on 5 and 6 atoms with
1,024 minimal transversals, each rendered as a candidate theory whose
extra generator is a minterm disjunction, and ``Language`` over 16
atoms: building it, then parsing and taking ``sat`` of a disjunction of
256 seeded minterms.  Each is the best of five runs, each run on a new
``Language``, so no run reads the ``sat`` cache of the one before.

The model I/O timings are ``files.load_model`` on seeded capacities of
8 states (256 events) and 12 states (4,096 events), each valued on
every event; on the benchmark workloads' model files at seed 0 (the
``rationalize`` capacity, 256 events, loaded ``WORKLOAD_LOADS`` times
a run, and the 24 ``audit`` models, 16 to 64 events, each loaded once
a run), each the best of five runs with a SHA-256 digest of the loaded
models; and the rendering of models: ``files.model_to_dict``
alone, and the whole report text ``credence.cli._json_text`` of it,
each the best of five runs.  The models rendered are 24 seeded
canonical-sound models (8 states, 256 events) and the 24 product models
(up to 4,096 states) of the same 3-atom assessments, and the 24
canonical-sound models of the 4-atom ``audit`` benchmark workload at
seed 0 (16 states, 1,024 to 2,048 events).  Each records a SHA-256
digest of the models' ``credence.cli`` JSON texts, which must match
between two commits.  A
12-state capacity whose values have seeded, unrelated denominators
below 10^6 times ``load_model``, ``mobius`` and ``choquet`` where one
common denominator is at its largest.

The formula renderer ``Language.formula_from_valuations`` is timed per
call over 300 seeded include sets at 3 and at 4 atoms, half of them
with don't-cares, with the length and a SHA-256 digest of the rendered
texts; and on one seeded set of 1,000 valuations over 10 atoms and one
of 5,000 over 16, rendering and taking ``sat`` on a new ``Language``,
with the formula's depth and text length.  A renderer that fails there
(a ``RecursionError``) is recorded by name instead of its figures.

Formula parsing is timed on every formula text of the ``grade``,
``audit`` and ``rationalize`` benchmark workloads' sessions at seed 0:
assessment keys, theory generators, model ``t`` keys and strategy
payoff keys, each text as often as its sessions hold it.  Each run
parses them all with ``Language.parse`` on a new ``Language`` per atom
set; each workload records the best of five runs, the text counts and
a SHA-256 digest of every result's ``unparse``, which must match
between two commits.

The rationalizability decision ``games.rationalizable`` is timed on the
128 pools of the ``rationalize`` benchmark workload at seed 0
(``perfbench/gen.py``; 4-6 strategies, k = 6-11 coordinate events, one
8-state capacity), each pool's chosen strategy decided in all four
modes: general and additive-only, each strict and weak.  Each decision
is the best of five runs; each mode records the sum and the median of
its decisions, its rationalizable count and a SHA-256 digest of every
verdict's ``credence.cli`` JSON text, which must match between two
commits.  The general weak decisions, which no benchmark workload runs,
are also given per k.

The additive-sound build ``construct.build_additive_sound`` is timed on
seeded universes of 20 assessed statements (22 rows with T and F) at
11, 13 and 16 atoms, each statement a clause of two or three seeded
literals valued by seeded weights on the valuations, so the system is
consistent and its elimination, not an axiom, decides.  Each records the best of five
builds, and the length and a SHA-256 digest of the outcome: the
refusal's message, or the certificate's ``credence.cli`` JSON text.

Start-up is timed in fresh interpreters, each on its own copy of the
package sources, so no run reads another's bytecode cache unless the
section means it to.  Each of ``STARTUP_RUNS`` rounds runs every case
once per checkout: ``import`` times ``import credence.cli`` alone;
``setup_grade``, ``setup_audit`` and ``setup_rationalize`` time that
import plus ``files.load_session`` of every seed-0 session of the
workload and a read of every file the session names through its
``assessment``, ``theory``, ``models`` and ``strategies`` attributes,
so a session reader that reads files on first use does the same work
as one that reads them at once; ``check_linda`` times a
whole ``credence check fixtures/linda/session.json`` process from
outside, interpreter start-up included, and checks its exit code 1.
Each case runs on a copy whose ``__pycache__`` an untimed run of every
case filled (``cached``) and on a copy that never gets one, with
``PYTHONDONTWRITEBYTECODE`` set, so every run compiles the package
(``compiled``).  With ``--against ROOT`` the checkout at ROOT is timed
too, each round alternating which checkout runs first; each side
records every sample with its median and quartiles.

Times are raw wall seconds on the host that ran the script; its Python
version and machine are recorded beside them, and so is, next to each
figure, the median of reference loops (``perfbench/child.py``'s
``fraction_loop``) timed just before and just after it, so figures taken
on a host running at another speed can be told apart.  To compare two
commits, run the script in a checkout of each and hand the first run's
file to the second as BEFORE.json: OUT.json then holds
``{"before": ..., "after": ...}``.

Usage: python3 scripts/bench.py OUT.json [BEFORE.json] [--against ROOT]
"""

import argparse
import contextlib
import hashlib
import importlib.util
import json
import os
import platform
import random
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from fractions import Fraction
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(ROOT / "tests"))

from credence import (  # noqa: E402
    Assessment,
    Language,
    Theory,
    check_ie,
    largest_subtheory,
    unparse,
)
from credence import cli  # noqa: E402
from credence.cli import _json_text  # noqa: E402
from credence.construct import (  # noqa: E402
    BuildError,
    build_additive_sound,
    build_canonical_sound,
    build_product_model,
)
from credence.files import load_model, load_session, model_to_dict  # noqa: E402
from credence.games import rationalizable  # noqa: E402
from credence.model import choquet, mobius  # noqa: E402
from helpers import (  # noqa: E402
    disjoint_gap_tables,
    formula_depth,
    full_closure_classes,
    json_text_oracle,
    random_capacity,
    random_fraction,
    random_monotone_assessment,
)

SIZES = (64, 128)  # classes picked; the seed of each universe is its size
UNIVERSE_THEORY = "(p | q)"  # the generator of each universe's s-i theory
REPEATS = 5
SUBTHEORY_ATOMS = (5, 6)
SUBTHEORY_GAPS = 10  # disjoint residual gaps: 2^10 minimal transversals
DNF_ATOMS = 16
DNF_MINTERMS = 256
CAPACITY_STATES = (8, 12)  # the seed of each capacity is its state count
LOAD_WORKLOADS = ("rationalize", "audit")  # generated at seed 0
WORKLOAD_LOADS = {"rationalize": 20, "audit": 1}  # loads of each model a run
UNSHARED_STATES = 12
UNSHARED_DEN_MAX = 10**6
BUILT_MODELS = 24  # seeds 0-23
BUILT_CLASSES = 12  # statements assessed, of the 256 3-atom classes
RENDER_ATOMS = (3, 4)  # the seed of each batch of sets is its atom count
RENDER_SETS = 300
RENDER_LARGE = ((10, 1000), (16, 5000))  # (atoms, valuations), seeded by atoms
AUDIT_SEED = 0
PARSE_WORKLOADS = ("grade", "audit", "rationalize")  # generated at seed 0
RATIONALIZE_SEED = 0
# (additive_only, weak) of each mode
RATIONALIZE_MODES = {
    "general": (False, False),
    "general-weak": (False, True),
    "additive": (True, False),
    "additive-weak": (True, True),
}
ADDITIVE_ATOMS = (11, 13, 16)  # the seed of each universe is its atom count
ADDITIVE_STATEMENTS = 20
REFERENCES = 5  # reference loops timed before and again after each figure
STARTUP_RUNS = 12  # rounds of fresh interpreters per checkout, case and cache state
STARTUP_WORKLOADS = ("grade", "audit", "rationalize")  # generated at seed 0
STARTUP_CHECK = ROOT / "fixtures" / "linda" / "session.json"
# run in a fresh interpreter as ``python -c IMPORT_SESSIONS SRC SESSION...``
IMPORT_SESSIONS = """\
import sys, time
sys.path.insert(0, sys.argv[1])
start = time.perf_counter()
import credence.cli
for path in sys.argv[2:]:
    s = credence.cli.files.load_session(path)
    s.assessment, s.theory, s.models, s.strategies
print(repr(time.perf_counter() - start))
"""


def _perfbench(name: str):
    spec = importlib.util.spec_from_file_location(
        f"perfbench_{name}", Path(__file__).resolve().parent.parent / "perfbench" / f"{name}.py"
    )
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


child = _perfbench("child")
gen = _perfbench("gen")


def best_of(fn) -> tuple[float, object]:
    """The shortest of ``REPEATS`` timed calls, and the last result."""
    times = []
    for _ in range(REPEATS):
        result = None  # the last run's output is freed before the next
        start = time.perf_counter()
        result = fn()
        times.append(time.perf_counter() - start)
    return min(times), result


def referenced(bench, *args) -> dict:
    """``bench(*args)``'s figure, with the median seconds of the reference
    loops timed around it as ``reference_s``."""
    loops = [child.fraction_loop(child.REFERENCE_ITER) for _ in range(REFERENCES)]
    figure = bench(*args)
    loops += [child.fraction_loop(child.REFERENCE_ITER) for _ in range(REFERENCES)]
    return {**figure, "reference_s": statistics.median(loops)}


def universe(classes: int) -> Assessment:
    rng = random.Random(classes)
    lang = Language(["p", "q", "r"])
    picked = rng.sample(full_closure_classes(lang), classes)
    return Assessment(lang, {f: random_fraction(rng, 12) for _, f in picked})


class _Kept:
    """A stdout that keeps each text written to it, by reference."""

    def __init__(self):
        self.texts = []

    def write(self, text: str) -> int:
        self.texts.append(text)
        return len(text)

    def flush(self):
        pass


def check_report(session: Path) -> tuple[int, _Kept]:
    """``credence --format json check SESSION`` in-process: its exit code
    and what it wrote to stdout."""
    out = _Kept()
    with contextlib.redirect_stdout(out):
        try:
            cli.main(["--format", "json", "check", str(session)], prog_name="credence")
        except SystemExit as e:
            return e.code, out
    raise SystemExit("the check command returned without exiting")


def bench_check_report(a: Assessment) -> dict:
    """A whole ``check`` report on the assessment and ``UNIVERSE_THEORY``."""
    with tempfile.TemporaryDirectory() as tmp:
        tmp = Path(tmp)
        pi = {text: str(a.value(f)) for f, text in zip(a.statements, a.texts)}
        atoms = list(a.language.atoms)
        (tmp / "assessment.json").write_text(json.dumps({"atoms": atoms, "pi": pi}))
        (tmp / "theory.json").write_text(json.dumps({"generators": [UNIVERSE_THEORY]}))
        session = tmp / "session.json"
        session.write_text(json.dumps({"atoms": atoms, "assessment": "assessment.json",
                                       "theory": "theory.json"}))
        best_s, (code, out) = best_of(lambda: check_report(session))
    written = hashlib.sha256()
    for text in out.texts:
        written.update(text.encode())
    return {
        "best_s": best_s,
        "exit": code,
        "bytes": sum(map(len, out.texts)),
        "digest": written.hexdigest(),
    }


def bench_universe(classes: int) -> dict:
    a = universe(classes)
    check_figures = bench_check_report(a)
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
        "check_report": check_figures,
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


def bench_render(atoms: int) -> dict:
    rng = random.Random(atoms)
    lang = Language([f"a{j}" for j in range(atoms)])
    sets = []
    for k in range(RENDER_SETS):
        include = rng.getrandbits(lang.n_valuations)
        exclude = rng.getrandbits(lang.n_valuations) & ~include if k % 2 else None
        sets.append((include, exclude))
    best_s, formulas = best_of(lambda: [lang.formula_from_valuations(*s) for s in sets])
    texts = "\n".join(map(unparse, formulas))
    return {
        "atoms": atoms,
        "sets": len(sets),
        "per_call_us": best_s / len(sets) * 1e6,
        "chars": len(texts),
        "digest": hashlib.sha256(texts.encode()).hexdigest(),
    }


def bench_render_large(atoms: int, count: int) -> dict:
    names = [f"a{j}" for j in range(atoms)]
    valuations = random.Random(atoms).sample(range(1 << atoms), count)
    include = sum(1 << i for i in valuations)

    def render_and_sat():
        lang = Language(names)  # an empty sat cache every run
        f = lang.formula_from_valuations(include)
        return f, lang.sat(f)

    out = {"atoms": atoms, "valuations": count}
    try:
        best_s, (f, bits) = best_of(render_and_sat)
        text = unparse(f)
    except RecursionError:
        return {**out, "error": "RecursionError"}
    return {
        **out,
        "render_and_sat_best_s": best_s,
        "depth": formula_depth(f),
        "chars": len(text),
        "sat_matches": bits == include,
    }


def digest(models) -> str:
    """SHA-256 of the models' JSON texts, one after another."""
    h = hashlib.sha256()
    for m in models:
        h.update(_json_text(model_to_dict(m)).encode())
    return h.hexdigest()


def bench_load_model(n: int) -> dict:
    states = [f"s{i}" for i in range(n)]
    lam = random_capacity(random.Random(n), states)
    data = {
        "states": states,
        "t": {},
        "lambda": {"|".join(s for s in states if s in ev): str(v) for ev, v in lam.items()},
    }
    lang = Language([])
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "model.json"
        path.write_text(json.dumps(data))
        best_s, model = best_of(lambda: load_model(path, lang))
    return {
        "states": n,
        "events": len(data["lambda"]),
        "best_s": best_s,
        "digest": digest([model]),
    }


def bench_load_workload(workload: str) -> dict:
    """``load_model`` on the model files of a benchmark workload at seed 0,
    each with its sessions' language."""
    with tempfile.TemporaryDirectory() as tmp:
        plan = gen.generate(workload, 0, tmp)
        atoms = {}
        for name in plan["sessions"]:
            session = json.loads((Path(tmp) / name).read_text())
            for rel in session["models"].values():
                atoms[Path(tmp) / rel] = session["atoms"]
        model_files = [(path, Language(names)) for path, names in atoms.items()]
        loads = WORKLOAD_LOADS[workload]
        best_s, models = best_of(
            lambda: [load_model(path, lang) for path, lang in model_files for _ in range(loads)]
        )
    models = models[::loads]
    return {
        "workload": workload,
        "models": len(models),
        "lambda_events": sum(len(m.lam_numerators) for m in models),
        "loads_per_model": loads,
        "per_load_best_s": best_s / len(models) / loads,
        "best_s": best_s,
        "digest": digest(models),
    }


def bench_unshared_denominators() -> dict:
    """A capacity with lam(S) = (|S| + a/b) / (n + 1), b random below
    ``UNSHARED_DEN_MAX``: monotone, and no two values share much of a
    denominator."""
    n = UNSHARED_STATES
    rng = random.Random(n)
    states = [f"s{i}" for i in range(n)]
    lam = {"|".join(states): "1"}
    for ev in range(1, (1 << n) - 1):
        b = rng.randrange(2, UNSHARED_DEN_MAX)
        value = (ev.bit_count() + Fraction(rng.randrange(b), b)) / (n + 1)
        lam["|".join(s for i, s in enumerate(states) if ev >> i & 1)] = str(value)
    payoff = [Fraction(rng.randrange(50), rng.randrange(1, 9)) for _ in states]
    lang = Language([])
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "model.json"
        path.write_text(json.dumps({"states": states, "t": {}, "lambda": lam}))
        load_s, model = best_of(lambda: load_model(path, lang))
    mobius_s, masses = best_of(lambda: mobius(model))
    choquet_s, value = best_of(lambda: choquet(model, payoff))
    return {
        "states": n,
        "events": len(lam),
        "load_best_s": load_s,
        "mobius_best_s": mobius_s,
        "choquet_best_s": choquet_s,
        "digest": digest([model]),
        # in hex: the masses' decimal digits pass int's str limit
        "mobius_digest": hashlib.sha256(";".join(
            f"{ev}:{m.numerator:x}/{m.denominator:x}" for ev, m in sorted(masses.items())
        ).encode()).hexdigest(),
        "choquet": str(value),
    }


def bench_model_to_dict() -> dict:
    lang = Language(["p", "q", "r"])
    classes = full_closure_classes(lang)
    assessments = []
    for seed in range(BUILT_MODELS):
        rng = random.Random(seed)
        assessments.append(
            random_monotone_assessment(rng, lang, rng.sample(classes, BUILT_CLASSES))
        )
    with tempfile.TemporaryDirectory() as tmp:
        plan = gen.generate("audit", AUDIT_SEED, tmp)
        audit = [load_session(Path(tmp) / name).assessment for name in plan["sessions"]]
    out = {}
    for name, build, sources in (("canonical_sound", build_canonical_sound, assessments),
                                 ("product", build_product_model, assessments),
                                 ("canonical_sound_4_atoms", build_canonical_sound, audit)):
        models = [build(a).model for a in sources]
        best_s, _ = best_of(lambda: [model_to_dict(m) for m in models])
        render_s, _ = best_of(lambda: [_json_text(model_to_dict(m)) for m in models])
        out[name] = {
            "models": len(models),
            "lambda_events": sum(len(m.lam_numerators) for m in models),
            "states": sum(len(m.states) for m in models),
            "best_s": best_s,
            "render_best_s": render_s,
            "digest": digest(models),
        }
    return out


def workload_texts(workload: str) -> list[tuple[tuple[str, ...], list[str]]]:
    """Each seed-0 session's atoms and the formula texts its files hold."""
    out = []
    with tempfile.TemporaryDirectory() as tmp:
        plan = gen.generate(workload, 0, tmp)

        def read(rel: str) -> dict:
            return json.loads((Path(tmp) / rel).read_text())

        for name in plan["sessions"]:
            session = read(name)
            texts = []
            if "assessment" in session:
                texts += read(session["assessment"])["pi"]
            if "theory" in session:
                texts += read(session["theory"])["generators"]
            for rel in session.get("models", {}).values():
                texts += read(rel)["t"]
            if "strategies" in session:
                for strategy in read(session["strategies"]).values():
                    texts += strategy["payoffs"]
            out.append((tuple(session["atoms"]), texts))
    return out


def bench_parse(workload: str) -> dict:
    sessions = workload_texts(workload)
    atom_sets = {atoms for atoms, _ in sessions}

    def run():
        language = {atoms: Language(atoms) for atoms in atom_sets}
        return [language[atoms].parse(text) for atoms, texts in sessions for text in texts]

    best_s, formulas = best_of(run)
    return {
        "workload": workload,
        "texts": len(formulas),
        "distinct_texts": len({text for _, texts in sessions for text in texts}),
        "best_s": best_s,
        "per_text_best_us": best_s / len(formulas) * 1e6,
        "digest": hashlib.sha256("\n".join(map(unparse, formulas)).encode()).hexdigest(),
    }


def bench_rationalize() -> dict:
    with tempfile.TemporaryDirectory() as tmp:
        plan = gen.generate("rationalize", RATIONALIZE_SEED, tmp)
        pools = []  # (choice, pool, model), read while the files exist
        for name in plan["sessions"]:
            session = load_session(Path(tmp) / name)
            pools.append((session.strategy(None), session.strategies, session.model(None)))
    coordinates = {op["session"]: op["coordinates"] for op in plan["ops"]}
    ks = [coordinates[name] for name in plan["sessions"]]
    out = {"seed": RATIONALIZE_SEED, "pools": len(pools), "modes": {}}
    weak_by_k = {}
    for mode, (additive_only, weak) in RATIONALIZE_MODES.items():
        times, texts, verdicts = [], [], 0
        for chosen, pool, model in pools:
            best_s, result = best_of(lambda: rationalizable(
                chosen, pool, model, additive_only=additive_only, weak=weak
            ))
            times.append(best_s)
            texts.append(_json_text(result.to_dict()))
            verdicts += result.rationalizable
        out["modes"][mode] = {
            "decisions": len(times),
            "rationalizable": verdicts,
            "total_best_s": sum(times),
            "median_ms": statistics.median(times) * 1e3,
            "digest": hashlib.sha256("".join(texts).encode()).hexdigest(),
        }
        if mode == "general-weak":
            for k, t in zip(ks, times):
                weak_by_k.setdefault(k, []).append(t)
    out["general_weak_by_k"] = {
        str(k): {"pools": len(ts), "median_ms": statistics.median(ts) * 1e3,
                 "max_ms": max(ts) * 1e3}
        for k, ts in sorted(weak_by_k.items())
    }
    return out


def additive_universe(atoms: int) -> Assessment:
    rng = random.Random(atoms)
    lang = Language([f"a{j}" for j in range(atoms)])
    weights = [rng.randint(1, 9) for _ in range(lang.n_valuations)]
    pi = {}
    while len(pi) < ADDITIVE_STATEMENTS:
        literals = [rng.choice(["", "!"]) + x for x in rng.sample(lang.atoms, rng.randint(2, 3))]
        text = literals[0]
        for literal in literals[1:]:
            text = f"({text} {rng.choice('&|')} {literal})"
        f = lang.parse(text)
        bits = lang.sat(f)
        pi[f] = Fraction(sum(w for v, w in enumerate(weights) if bits >> v & 1), sum(weights))
    return Assessment(lang, pi)


def bench_additive_sound(atoms: int) -> dict:
    a = additive_universe(atoms)

    def build() -> str:
        try:
            return _json_text(build_additive_sound(a).to_dict())
        except BuildError as e:
            return f"refused: {e}"

    best_s, text = best_of(build)
    return {
        "atoms": atoms,
        "statements": len(a.statements),
        "best_s": best_s,
        "refused": text.startswith("refused: "),
        "chars": len(text),
        "digest": hashlib.sha256(text.encode()).hexdigest(),
    }


def _spread(samples: list[float]) -> dict:
    q1, median, q3 = statistics.quantiles(samples, n=4)
    return {"median_s": median, "q1_s": q1, "q3_s": q3, "samples_s": samples}


def _fresh_seconds(src: Path, case: str, sessions: list[str], compiled: bool) -> float:
    """One fresh interpreter's seconds for ``case`` on the package at ``src``."""
    env = {k: v for k, v in os.environ.items()
           if k not in ("PYTHONPATH", "PYTHONDONTWRITEBYTECODE")}
    if compiled:
        env["PYTHONDONTWRITEBYTECODE"] = "1"
    if case == "check_linda":
        env["PYTHONPATH"] = str(src)
        argv = ["-c", "from credence.cli import main; main()", "check", str(STARTUP_CHECK)]
        start = time.perf_counter()
        proc = subprocess.run([sys.executable, *argv], capture_output=True, env=env)
        seconds = time.perf_counter() - start
        if proc.returncode != 1:
            raise SystemExit(f"check on the linda fixture exited {proc.returncode}")
        return seconds
    proc = subprocess.run([sys.executable, "-c", IMPORT_SESSIONS, str(src), *sessions],
                          capture_output=True, text=True, env=env, check=True)
    return float(proc.stdout)


def bench_startup(roots: list[Path]) -> dict:
    """Start-up seconds of each case, for the checkout at each root in
    turn, alternating which runs first from round to round."""
    with tempfile.TemporaryDirectory() as tmp:
        tmp = Path(tmp)
        cases = {"import": [], "check_linda": []}
        for workload in STARTUP_WORKLOADS:
            plan = gen.generate(workload, 0, tmp / workload)
            cases[f"setup_{workload}"] = [str(tmp / workload / s) for s in plan["sessions"]]
        copies = {}  # (side, compiled) -> a copy of that side's sources
        for side, root in enumerate(roots):
            for compiled in (False, True):
                src = tmp / f"side{side}-{'compiled' if compiled else 'cached'}"
                shutil.copytree(root / "src" / "credence", src / "credence",
                                ignore=shutil.ignore_patterns("__pycache__"))
                copies[side, compiled] = src
            for case, sessions in cases.items():  # fill the cache
                _fresh_seconds(copies[side, False], case, sessions, False)
        samples = {}
        for run in range(STARTUP_RUNS):
            sides = range(len(roots)) if run % 2 == 0 else reversed(range(len(roots)))
            for side in sides:
                for case, sessions in cases.items():
                    for compiled in (False, True):
                        seconds = _fresh_seconds(copies[side, compiled], case, sessions, compiled)
                        samples.setdefault((case, compiled, side), []).append(seconds)
    names = ["this", "against"]
    return {
        "runs": STARTUP_RUNS,
        "sessions": {case: len(sessions) for case, sessions in cases.items()},
        "cases": {
            case: {
                "compiled" if compiled else "cached": {
                    names[side]: _spread(samples[case, compiled, side])
                    for side in range(len(roots))
                }
                for compiled in (False, True)
            }
            for case in cases
        },
    }


def main(out: Path, before: Path | None, against: Path | None):
    results = {
        "python": platform.python_version(),
        "machine": platform.machine(),
        "repeats": REPEATS,
        "universes": [referenced(bench_universe, k) for k in SIZES],
        "largest_subtheory": [referenced(bench_subtheory, n) for n in SUBTHEORY_ATOMS],
        "minterm_dnf": referenced(bench_dnf),
        "render": [referenced(bench_render, n) for n in RENDER_ATOMS],
        "render_large": [referenced(bench_render_large, *size) for size in RENDER_LARGE],
        "load_model": [referenced(bench_load_model, n) for n in CAPACITY_STATES],
        "load_workload": [referenced(bench_load_workload, w) for w in LOAD_WORKLOADS],
        "unshared_denominators": referenced(bench_unshared_denominators),
        "model_to_dict": referenced(bench_model_to_dict),
        "parse": [referenced(bench_parse, w) for w in PARSE_WORKLOADS],
        "rationalize": referenced(bench_rationalize),
        "additive_sound": [referenced(bench_additive_sound, n) for n in ADDITIVE_ATOMS],
        "startup": referenced(bench_startup, [ROOT] + ([against] if against else [])),
    }
    if before is not None:
        results = {"before": json.loads(before.read_text()), "after": results}
    out.write_text(json.dumps(results, indent=2) + "\n")
    print(json.dumps(results, indent=2))


if __name__ == "__main__":
    parser = argparse.ArgumentParser(usage=__doc__.split("Usage: ")[1])
    parser.add_argument("out", type=Path)
    parser.add_argument("before", type=Path, nargs="?")
    parser.add_argument("--against", type=Path, metavar="ROOT",
                        help="another checkout whose start-up is timed alternately with this one")
    args = parser.parse_args()
    main(args.out, args.before, args.against)
