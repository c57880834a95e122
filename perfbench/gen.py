"""Seeded input generator for the benchmark.

It never imports credence: formulas are built and rendered here, their
valuation sets come from this module's own bitset evaluator, and values
come from this module's own capacities.  A later change to credence's
parser or formula recovery therefore cannot change the inputs.

A valuation ``i`` makes atom ``j`` true iff bit ``j`` of ``i`` is set; a
formula's valuation set has bit ``i`` set iff it holds under valuation
``i``.  Formulas are nested tuples: ``("atom", name)``, ``("const",
True/False)``, ``("not", f)``, ``("and", f, g)``, ``("or", f, g)``.

``generate(workload, seed, out_dir, tiny=False)`` writes the session
files and returns a plan: the ordered op list and, per op, the facts
the generator knows by construction (expected verdicts, family counts,
coordinate counts).
The same seed gives byte-identical files.
"""

from __future__ import annotations

import itertools
import json
import math
import random
from fractions import Fraction
from pathlib import Path

TRUE = ("const", True)
FALSE = ("const", False)

GRADE_ATOMS = ("p", "q", "r")
AUDIT_ATOMS = ("p", "q", "r", "s")
RATIONALIZE_ATOMS = ("p", "q", "r")

# Each workload's sessions follow a fixed block of shapes, so every seed
# has the same mix of op sizes and any prefix of the op list keeps it.
# The median of a run's latencies falls inside the most common shape's
# cluster and the tail percentile inside the largest shape's cluster,
# not in a gap between clusters.

# grade: (cluster, universe size); the generator redraws a session until
# its IE family count lies in the cluster's window, since check_ie's cost
# follows the family count.
GRADE_BLOCK = (
    ("regular", 14), ("regular", 15), ("large", 19), ("regular", 16),
    ("regular", 14), ("regular", 15), ("large", 20), ("regular", 16),
)
GRADE_FAMILIES = {"regular": (1150, 1350), "large": (3800, 4200), "tiny": (0, 10**9)}
GRADE_SESSIONS = 56
GRADE_BLOCK_TINY = (("tiny", 10), ("tiny", 12))
# Planted defects and the share of the concave (IE-breaking) capacity,
# cycled independently of the block.
GRADE_PLANS = ("clean", "reverse_i", "break_e")
GRADE_CONCAVE = (Fraction(0), Fraction(1, 8), Fraction(1, 4))

# audit: (universe size, free valuations of the theory, blocks of the
# partition of the valuations by the statements, every superset of the
# theory must pass).  The sub-theory search sweeps the statement pairs
# once per passing superset, so the full 2^9 searches form the tail
# cluster; with six of them per block, 18 in all, the tail percentile
# (the 11th largest op) falls inside that cluster rather than at its
# edge.  The canonical build materializes a field of 2^blocks events;
# 10 or 11 blocks keep it below that cluster.
AUDIT_BLOCK = ((9, 6, 10, False), (12, 9, 10, True), (12, 9, 11, True), (12, 9, 10, True),
               (11, 8, 10, False), (12, 9, 11, True), (12, 9, 10, True), (12, 9, 11, True))
AUDIT_SESSIONS = 24
AUDIT_BLOCK_TINY = ((6, 4, None, False),)

# rationalize: (pool size, coordinate events k, extra decisions besides
# the general one, choice planted as dominated); an extra decision is
# under additive priors only, by strict (``"additive"``) or weak
# (``"weak"``) dominance.  The general weak decision is left out: its LP
# has a row per maximal-model state and took 1 s at k = 6 and over 40 s
# at k = 8.  Seven small general pools form the median cluster, one
# k = 11 pool the tail.
A, W = ("additive",), ("weak",)
RATIONALIZE_BLOCK = (
    (4, 6, A, False), (5, 7, (), False), (6, 8, (), True),
    (4, 7, A, False), (5, 8, W, False), (5, 6, A, True),
    (6, 7, A, False), (6, 11, (), False),
    (4, 6, A, False), (5, 7, (), False), (6, 8, W, True),
    (4, 7, A, False), (5, 8, (), False), (5, 6, (), True),
    (6, 7, A, False), (6, 11, (), True),
)
RATIONALIZE_SESSIONS = 128
RATIONALIZE_BLOCK_TINY = ((3, 4, A, False), (3, 5, A + W, True))
RATIONALIZE_FLAGS = {"additive": ["--additive-only"], "weak": ["--additive-only", "--weak"]}


# -- formulas ------------------------------------------------------------


def render(f) -> str:
    """Text in credence's input grammar, fully parenthesized."""
    kind = f[0]
    if kind == "const":
        return "T" if f[1] else "F"
    if kind == "atom":
        return f[1]
    if kind == "not":
        return "!" + render(f[1])
    op = "&" if kind == "and" else "|"
    return f"({render(f[1])} {op} {render(f[2])})"


def atom_masks(n_atoms: int) -> list[int]:
    nv = 1 << n_atoms
    return [sum(1 << i for i in range(nv) if (i >> j) & 1) for j in range(n_atoms)]


class Evaluator:
    """Valuation bitsets of formulas over an ordered atom tuple."""

    def __init__(self, atoms):
        self.atoms = tuple(atoms)
        self.index = {a: j for j, a in enumerate(self.atoms)}
        self.n_valuations = 1 << len(self.atoms)
        self.full = (1 << self.n_valuations) - 1
        self.masks = atom_masks(len(self.atoms))

    def sat(self, f) -> int:
        kind = f[0]
        if kind == "const":
            return self.full if f[1] else 0
        if kind == "atom":
            return self.masks[self.index[f[1]]]
        if kind == "not":
            return self.full & ~self.sat(f[1])
        if kind == "and":
            return self.sat(f[1]) & self.sat(f[2])
        return self.sat(f[1]) | self.sat(f[2])

    def minterm(self, i: int):
        out = None
        for j, a in enumerate(self.atoms):
            lit = ("atom", a) if (i >> j) & 1 else ("not", ("atom", a))
            out = lit if out is None else ("and", out, lit)
        return out

    def dnf(self, bits: int):
        """A disjunction of minterms with exactly the valuation set ``bits``."""
        out = None
        for i in range(self.n_valuations):
            if (bits >> i) & 1:
                term = self.minterm(i)
                out = term if out is None else ("or", out, term)
        return out if out is not None else FALSE


def random_formula(rng: random.Random, atoms, depth: int):
    if depth == 0 or rng.random() < 0.25:
        lit = ("atom", rng.choice(atoms))
        return ("not", lit) if rng.random() < 0.4 else lit
    kind = rng.choice(("and", "or", "and", "or", "not"))
    if kind == "not":
        return ("not", random_formula(rng, atoms, depth - 1))
    return (kind, random_formula(rng, atoms, depth - 1), random_formula(rng, atoms, depth - 1))


def variants(f):
    """Syntactic variants with the same valuation set as ``f``."""
    return [
        ("not", ("not", f)),
        ("and", f, TRUE),
        ("and", TRUE, f),
        ("or", f, FALSE),
        ("or", FALSE, f),
        ("and", f, f),
        ("or", f, f),
        ("not", ("not", ("and", f, TRUE))),
    ]


def rational(x: Fraction) -> str:
    return str(x)


# -- capacities ----------------------------------------------------------


def distorted_capacity(rng: random.Random, n_valuations: int, concave_weight: Fraction):
    """A monotone capacity on valuation sets: a mixture of a random
    probability p, its square (totally monotone) and 2p - p^2 (concave,
    so it breaks inclusion/exclusion).  Returns a function of a bitset."""
    weights = [rng.randrange(1, 10) for _ in range(n_valuations)]
    total = sum(weights)
    convex_weight = Fraction(rng.randrange(1, 5), 8)
    linear_weight = 1 - convex_weight - concave_weight

    def nu(bits: int) -> Fraction:
        p = Fraction(sum(w for i, w in enumerate(weights) if (bits >> i) & 1), total)
        return linear_weight * p + convex_weight * p * p + concave_weight * (2 * p - p * p)

    return nu


def belief_masses(rng: random.Random, n_states: int, n_focal: int) -> dict[int, Fraction]:
    """Mobius masses on ``n_focal`` distinct nonempty state subsets (bitmasks)."""
    full = (1 << n_states) - 1
    focal = {full}
    while len(focal) < n_focal:
        focal.add(rng.randrange(1, full + 1))
    raw = {ev: rng.randrange(1, 7) for ev in sorted(focal)}
    total = sum(raw.values())
    return {ev: Fraction(v, total) for ev, v in raw.items()}


def belief(masses: dict[int, Fraction], event: int) -> Fraction:
    return sum((m for ev, m in masses.items() if ev & ~event == 0), Fraction(0))


def choquet(values: list[Fraction], capacity) -> Fraction:
    """Finite Choquet integral of a nonnegative vector indexed by state
    position, under ``capacity`` (a function of a state bitmask)."""
    levels = sorted(set(values), reverse=True)
    total = Fraction(0)
    for i, a in enumerate(levels):
        nxt = levels[i + 1] if i + 1 < len(levels) else Fraction(0)
        if a == nxt:
            continue
        upper = sum(1 << s for s, v in enumerate(values) if v >= a)
        total += (a - nxt) * capacity(upper)
    return total


# -- axiom facts -----------------------------------------------------------


def ie_family_count(sats: list[int], n_max: int = 3) -> int:
    """Families of 1..n_max statements below a common consequent, counted
    the way the IE check enumerates them (statements are distinct
    universe members, the consequent ranges over the universe)."""
    total = 0
    for psi in sats:
        ants = sum(1 for f in sats if f & ~psi == 0)
        total += sum(math.comb(ants, k) for k in range(1, n_max + 1))
    return total


def subtheory_facts(sats: list[int], values: list[Fraction], theory: int,
                    n_valuations: int) -> tuple[int, bool]:
    """The number of valuation supersets of ``theory`` on which no value
    reverses a relative entailment, and whether the least of them passes
    too (the largest understood sub-theory is then unique)."""
    reversed_pairs = [
        (sf, sg) for (sf, vf), (sg, vg) in itertools.permutations(zip(sats, values), 2)
        if vf > vg
    ]
    free = [i for i in range(n_valuations) if not (theory >> i) & 1]
    passing = []
    for pick in range(1 << len(free)):
        v = theory
        for j, i in enumerate(free):
            if (pick >> j) & 1:
                v |= 1 << i
        if all(sf & v & ~sg for sf, sg in reversed_pairs):
            passing.append(v)
    meet = (1 << n_valuations) - 1
    for v in passing:
        meet &= v
    return len(passing), meet in passing


def axiom_facts(texts: list[str], sats: list[int], values: list[Fraction], theory: int | None):
    """Whether NT (T valued 1, F valued 0, every value in [0, 1]), E, I
    and, given a theory's valuation set, S-I hold."""
    value = dict(zip(texts, values))
    nt = value["T"] == 1 and value["F"] == 0 and all(0 <= v <= 1 for v in values)
    e = True
    i = True
    s_i = True
    for (sf, vf), (sg, vg) in itertools.permutations(zip(sats, values), 2):
        if sf == sg and vf != vg:
            e = False
        if sf & ~sg == 0 and vg < vf:
            i = False
        if theory is not None and sf & theory & ~sg == 0 and vg < vf:
            s_i = False
    facts = {"nt": nt, "e": e, "i": i}
    if theory is not None:
        facts["s-i"] = s_i
    return facts


# -- workloads -------------------------------------------------------------


def _write_json(path: Path, data):
    path.write_text(json.dumps(data, indent=2, sort_keys=True) + "\n")


def _grade_universe(rng, ev: Evaluator, size: int):
    """Four base statements, their pairwise conjunctions, and syntactic
    variants of both up to ``size`` statements (T and F included)."""
    universe = {render(TRUE): TRUE, render(FALSE): FALSE}
    seen_sats = set()
    bases = []
    while len(bases) < 4:
        f = random_formula(rng, ev.atoms, 2)
        s = ev.sat(f)
        if s in (0, ev.full) or s in seen_sats:
            continue
        seen_sats.add(s)
        bases.append(f)
        universe[render(f)] = f
    pool = list(bases) + [("and", f, g) for f, g in itertools.combinations(bases, 2)]
    for f in pool[4:]:
        universe.setdefault(render(f), f)
    while len(universe) < size:
        for v in variants(rng.choice(pool)):
            text = render(v)
            if text not in universe:
                universe[text] = v
                break
    texts = sorted(universe)
    return texts, [ev.sat(universe[t]) for t in texts], render(bases[0])


def _grade_session(rng, ev: Evaluator, size: int, window, plan: str, concave: Fraction):
    while True:
        texts, sats, theory_text = _grade_universe(rng, ev, size)
        families = ie_family_count(sats)
        if window[0] <= families <= window[1]:
            break
    nu = distorted_capacity(rng, ev.n_valuations, concave)
    values = [nu(s) for s in sats]
    proper = [j for j, s in enumerate(sats) if s not in (0, ev.full)]
    classes = {}
    for j in proper:
        classes.setdefault(sats[j], []).append(j)
    shared = [members for members in classes.values() if len(members) > 1]
    if plan == "reverse_i":
        # lift one class strictly above a proper class that contains it
        pairs = [
            (x, y) for x in proper for y in proper
            if sats[x] != sats[y] and sats[x] & ~sats[y] == 0
        ]
        x, y = rng.choice(pairs)
        for j in classes[sats[x]]:
            values[j] = (values[y] + 1) / 2
    elif plan == "break_e" and shared:
        j = rng.choice(rng.choice(shared))
        values[j] = values[j] / 2 if values[j] > 0 else Fraction(1, 32)
    theory_bits = sats[texts.index(theory_text)]
    facts = axiom_facts(texts, sats, values, theory_bits)
    assessment = {"atoms": list(ev.atoms), "pi": {t: rational(v) for t, v in zip(texts, values)}}
    theory = {"generators": [theory_text]}
    return assessment, theory, facts, families


def generate_grade(rng, out_dir: Path, tiny: bool):
    ev = Evaluator(GRADE_ATOMS)
    block = GRADE_BLOCK_TINY if tiny else GRADE_BLOCK
    count = len(block) if tiny else GRADE_SESSIONS
    ops = []
    sessions = []
    for n in range(count):
        cluster, size = block[n % len(block)]
        plan = GRADE_PLANS[n % len(GRADE_PLANS)]
        concave = GRADE_CONCAVE[(n // len(GRADE_PLANS)) % len(GRADE_CONCAVE)]
        assessment, theory, facts, families = _grade_session(
            rng, ev, size, GRADE_FAMILIES[cluster], plan, concave)
        name = f"g{n:03d}"
        _write_json(out_dir / f"{name}-assessment.json", assessment)
        _write_json(out_dir / f"{name}-theory.json", theory)
        session = f"{name}-session.json"
        _write_json(out_dir / session, {
            "atoms": list(GRADE_ATOMS),
            "assessment": f"{name}-assessment.json",
            "theory": f"{name}-theory.json",
            "format": "json",
        })
        sessions.append(session)
        ops.append({
            "session": session,
            "args": ["check", session],
            "kind": f"check:{cluster}",
            "universe_size": len(assessment["pi"]),
            "ie_families": families,
            "expect": {"axioms": facts},
        })
    return sessions, ops


def _audit_session(rng, ev: Evaluator, size: int, free: int):
    atoms = ev.atoms
    n_states = rng.choice((4, 5, 6))
    state_vals = rng.sample(range(ev.n_valuations), n_states)
    masses = belief_masses(rng, n_states, rng.randrange(3, 7))

    def state_event(bits: int) -> int:
        return sum(1 << s for s, v in enumerate(state_vals) if (bits >> v) & 1)

    universe = {render(TRUE): TRUE, render(FALSE): FALSE}
    while len(universe) < size:
        f = random_formula(rng, atoms, 2)
        universe.setdefault(render(f), f)
    texts = sorted(universe)
    sats = [ev.sat(universe[t]) for t in texts]
    values = [belief(masses, state_event(s)) for s in sats]
    # the theory leaves ``free`` valuations open; the sub-theory search
    # enumerates every superset of the rest
    theory_bits = 0
    for v in rng.sample(range(ev.n_valuations), ev.n_valuations - free):
        theory_bits |= 1 << v
    labels = [f"w{s + 1}" for s in range(n_states)]

    def label_event(mask: int) -> list[str]:
        return [labels[s] for s in range(n_states) if (mask >> s) & 1]

    truth = {render(("atom", a)): label_event(state_event(ev.masks[j])) for j, a in enumerate(atoms)}
    for t, s in zip(texts, sats):
        if universe[t][0] != "const":
            truth[t] = label_event(state_event(s))
    lam = {
        "|".join(sorted(label_event(e))): rational(belief(masses, e))
        for e in range(1 << n_states)
    }
    model = {"states": labels, "t": truth, "lambda": lam}
    act_values = [Fraction(rng.randrange(0, 12), rng.choice((1, 2, 3))) for _ in range(n_states)]
    act = {labels[s]: rational(v) for s, v in enumerate(act_values)}
    expect = {
        "choquet": rational(choquet(act_values, lambda e: belief(masses, e))),
        "mobius": {
            "|".join(sorted(label_event(e))): rational(m) for e, m in masses.items()
        },
    }
    expect["field_blocks"] = len({tuple((s >> v) & 1 for s in sats)
                                  for v in range(ev.n_valuations)})
    expect["passing"], expect["unique"] = subtheory_facts(
        sats, values, theory_bits, ev.n_valuations)
    assessment = {"atoms": list(atoms), "pi": {t: rational(v) for t, v in zip(texts, values)}}
    theory = {"generators": [render(ev.dnf(theory_bits))]}
    return assessment, theory, model, act, expect


AUDIT_BUILDS = ("product", "canonical-sound", "interval-additive", "additive-sound", "belief-lift")


def generate_audit(rng, out_dir: Path, tiny: bool):
    ev = Evaluator(AUDIT_ATOMS)
    block = AUDIT_BLOCK_TINY if tiny else AUDIT_BLOCK
    count = len(block) if tiny else AUDIT_SESSIONS
    sessions = []
    ops = []
    for n in range(count):
        size, free, blocks, all_pass = block[n % len(block)]
        while True:
            assessment, theory, model, act, expect = _audit_session(rng, ev, size, free)
            if blocks in (None, expect["field_blocks"]) and (
                    not all_pass or expect["passing"] == 1 << free):
                break
        name = f"a{n:03d}"
        for suffix, data in (("assessment", assessment), ("theory", theory),
                             ("model", model), ("act", act)):
            _write_json(out_dir / f"{name}-{suffix}.json", data)
        session = f"{name}-session.json"
        _write_json(out_dir / session, {
            "atoms": list(AUDIT_ATOMS),
            "assessment": f"{name}-assessment.json",
            "theory": f"{name}-theory.json",
            "models": {"belief": f"{name}-model.json"},
            "format": "json",
        })
        sessions.append(session)
        base = {"session": session, "universe_size": len(assessment["pi"])}
        # the values are a belief function of the statements' state
        # events, so NT, E, I and IE hold: every implication is
        # understood and neither sub-theory search refuses
        ops.append(dict(base, args=["identify", session], kind="identify",
                        supersets=1 << free, passing=expect["passing"],
                        expect={"exit": 0 if expect["unique"] else 1,
                                "unique": expect["unique"]}))
        for b in AUDIT_BUILDS:
            args = ["build", session, b] + (["--model", "belief"] if b == "belief-lift" else [])
            # sound models exist for a coherent belief-function assessment;
            # fewer statements than valuations never pin an additive
            # measure down, so additive-sound refuses
            ops.append(dict(base, args=args, kind=f"build:{b}",
                            states=len(model["states"]),
                            expect={"exit": 1 if b == "additive-sound" else 0}))
        ops.append(dict(base, args=["mobius", session, "--model", "belief"], kind="mobius",
                        expect={"exit": 0, "mobius": expect["mobius"]}))
        ops.append(dict(base, args=["choquet", session, "--model", "belief",
                                    "--act", f"{name}-act.json"], kind="choquet",
                        expect={"exit": 0, "choquet": expect["choquet"]}))
    return sessions, ops


def transported_events(vectors: list[list[Fraction]], full: int) -> set[int]:
    """Proper nonempty upper sets of the pool's state payoff vectors."""
    events = set()
    for x in vectors:
        for a in set(x):
            if a <= 0:
                continue
            upper = sum(1 << s for s, v in enumerate(x) if v >= a)
            if upper not in (0, full):
                events.add(upper)
    return events


def _strategy(rng, ev: Evaluator):
    """Payoffs on one to three distinct non-trivial statements."""
    size = rng.randrange(1, 4)
    payoffs = {}
    while len(payoffs) < size:
        f = random_formula(rng, ev.atoms, 1)
        if ev.sat(f) in (0, ev.full):
            continue
        payoffs[render(f)] = (f, Fraction(rng.randrange(1, 7), rng.choice((1, 2, 3))))
    return payoffs


def _state_vector(ev: Evaluator, payoffs) -> list[Fraction]:
    out = [Fraction(0)] * ev.n_valuations
    for f, v in payoffs.values():
        bits = ev.sat(f)
        for s in range(ev.n_valuations):
            if (bits >> s) & 1:
                out[s] += v
    return out


def _rationalize_pool(rng, ev: Evaluator, pool_size: int, k: int, dominated: bool):
    """Draw pools until the coordinate count is exactly ``k``."""
    for _ in range(200000):
        pool = [_strategy(rng, ev) for _ in range(pool_size - (1 if dominated else 0))]
        vectors = [_state_vector(ev, s) for s in pool]
        if dominated:
            # the last strategy pays the chosen one's payoffs plus a
            # constant, so the choice is strictly dominated
            bonus = Fraction(rng.randrange(1, 4), 4)
            better = dict(pool[0])
            old = better.get("T", (TRUE, Fraction(0)))[1]
            better["T"] = (TRUE, old + bonus)
            pool.append(better)
            vectors.append([v + bonus for v in vectors[0]])
        if len(transported_events(vectors, ev.full)) == k:
            return pool, vectors
    raise RuntimeError(f"no pool of {pool_size} strategies with {k} coordinates")


def generate_rationalize(rng, out_dir: Path, tiny: bool):
    ev = Evaluator(RATIONALIZE_ATOMS)
    block = RATIONALIZE_BLOCK_TINY if tiny else RATIONALIZE_BLOCK
    count = len(block) if tiny else RATIONALIZE_SESSIONS
    n_states = ev.n_valuations
    labels = [f"v{i}" for i in range(n_states)]
    masses = belief_masses(rng, n_states, 12)
    # a distorted probability mixed in keeps the capacity off the
    # additive priors, so the additive and general verdicts differ
    weights = [rng.randrange(1, 10) for _ in range(n_states)]

    def capacity(event: int) -> Fraction:
        p = Fraction(sum(w for s, w in enumerate(weights) if (event >> s) & 1), sum(weights))
        return (belief(masses, event) + p * p) / 2

    def label_event(mask: int) -> list[str]:
        return [labels[s] for s in range(n_states) if (mask >> s) & 1]

    model = {
        "states": labels,
        "t": {a: label_event(ev.masks[j]) for j, a in enumerate(ev.atoms)},
        "lambda": {"|".join(label_event(e)): rational(capacity(e)) for e in range(1 << n_states)},
    }
    _write_json(out_dir / "model.json", model)
    sessions = []
    ops = []
    for n in range(count):
        pool_size, k, extra, dominated = block[n % len(block)]
        pool, vectors = _rationalize_pool(rng, ev, pool_size, k, dominated)
        names = [f"s{j + 1}" for j in range(len(pool))]
        if dominated:
            choice = names[0]
        else:
            values = [choquet(x, capacity) for x in vectors]
            choice = names[max(range(len(pool)), key=lambda j: (values[j], -j))]
        name = f"r{n:03d}"
        _write_json(out_dir / f"{name}-strategies.json", {
            nm: {"payoffs": {t: rational(v) for t, (_, v) in sorted(s.items())}}
            for nm, s in zip(names, pool)
        })
        session = f"{name}-session.json"
        _write_json(out_dir / session, {
            "atoms": list(ev.atoms),
            "models": {"capacity": "model.json"},
            "strategies": f"{name}-strategies.json",
            "choice": choice,
            "format": "json",
        })
        sessions.append(session)
        base = {"session": session, "pool": pool_size, "coordinates": k}
        ops.append(dict(base, args=["rationalize", session], kind=f"general:k{k}",
                        expect={"rationalizable": not dominated}))
        for mode in extra:
            # a strictly dominated choice stays dominated under additive
            # priors and by weak dominance; an undominated one may not
            ops.append(dict(base, args=["rationalize", session, *RATIONALIZE_FLAGS[mode]],
                            kind=mode, expect={"rationalizable": False} if dominated else {}))
    return sessions, ops


GENERATORS = {
    "grade": generate_grade,
    "audit": generate_audit,
    "rationalize": generate_rationalize,
}


def generate(workload: str, seed: int, out_dir, tiny: bool = False) -> dict:
    """Write the workload's files into ``out_dir`` and return its plan."""
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    rng = random.Random(f"{workload}:{seed}")
    sessions, ops = GENERATORS[workload](rng, out_dir, tiny)
    plan = {"workload": workload, "seed": seed, "tiny": tiny, "sessions": sessions,
            "ops": ops}
    _write_json(out_dir / "plan.json", plan)
    return plan
