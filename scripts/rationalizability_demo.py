#!/usr/bin/env python3
"""Contrast additive and general rationalizability on the hedging
fixture: the constant strategy is strictly dominated by a coin flip over
the two bets, yet a non-additive likelihood appraisal makes it the best
response.  Prints the dominance certificates, each strategy's payoff in
the maximal model as an affine form in the coordinate bits, and the
verified witness.

Usage: python3 scripts/rationalizability_demo.py
"""

from pathlib import Path
import sys

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from credence import layer_decompose, rationalizable, t_circ, transported_vector  # noqa: E402
from credence.files import load_session  # noqa: E402
from credence.games import strategy_events  # noqa: E402

FIXTURE = (
    Path(__file__).resolve().parent.parent
    / "fixtures" / "strategies" / "session-rationalize.json"
)


def main():
    session = load_session(FIXTURE)
    model = session.models["objective"]
    pool = session.strategies
    chosen = next(s for s in pool if s.name == session.choice)

    print("base payoff vectors:")
    for s in pool:
        print(f"  {s.name}: { {k: str(v) for k, v in zip(model.states, t_circ(model, s))} }")

    additive = rationalizable(chosen, pool, model, additive_only=True)
    print(f"\nadditive priors only: rationalizable={additive.rationalizable}")
    if additive.dominating_mixture:
        mix = ", ".join(f"{n}={v}" for n, v in additive.dominating_mixture)
        print(f"  dominated by {{{mix}}} with margin {additive.epsilon}")

    layerings = [layer_decompose(t_circ(model, s), model) for s in pool]
    events = strategy_events(model, layerings)
    labels = [model.label(e) for e in events]
    print(f"\nmaximal model coordinates: {labels} (m[e] = 1 where event e holds)")
    for s, layers in zip(pool, layerings):
        constant, coefficients = transported_vector(model, events, layers)
        terms = "".join(f" + {c}*m[{lab}]" for c, lab in zip(coefficients, labels) if c)
        print(f"  {s.name}: y(m) = {constant}{terms}")

    general = rationalizable(chosen, pool, model)
    print(f"\ngeneral likelihood appraisals: rationalizable={general.rationalizable}")
    print(f"  witness ({general.witness_source}):")
    for label, v in model.labelled(general.witness_events):
        print(f"    lambda({label or 'empty'}) = {v}")
    print("  verified Choquet values:",
          ", ".join(f"{n}={v}" for n, v in general.choquet_values))


if __name__ == "__main__":
    main()
