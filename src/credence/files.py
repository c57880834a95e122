"""JSON file schemas: sessions, assessments, theories, models, strategies
and payoff vectors.  Floats are rejected to keep arithmetic exact.

A rational is read by ``parse_rational`` from a JSON integer (not a
boolean) or from a string of the forms ``fractions.Fraction`` accepts,
each with an optional ``+`` or ``-`` sign, optional surrounding
whitespace and single ``_`` between digits:

* an integer, as in ``"2"``, ``"-7"`` or ``"1_000"``;
* a ratio of integers with no space around the slash, as in ``"3/4"``,
  ``" -3/4 "`` or ``"007/14"``;
* an exact decimal with an optional exponent, as in ``"0.5"``, ``".25"``,
  ``"5."``, ``"1e2"`` or ``"1.5E-1"``.

Digits may be any Unicode decimal digits (an Arabic-Indic three reads
as 3), but not other numeric characters such as a superscript two.  A
zero denominator, ``"inf"``, ``"nan"``, floats and anything else are a
``FileFormatError``.  Plain ``n`` and ``n/d`` strings of ASCII digits,
with an optional leading ``-``, are read with ``int`` directly: the same
value, without ``Fraction``'s regular expression.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from fractions import Fraction
from pathlib import Path

from .assessment import Assessment
from .games import Strategy
from .logic import FALSE, TRUE, Language, Theory, unparse
from .model import ModelError, SubjectiveModel, check_states


class FileFormatError(ValueError):
    pass


def parse_rational(value) -> Fraction:
    if isinstance(value, int) and not isinstance(value, bool):
        return Fraction(value)
    if isinstance(value, str):
        num, slash, den = value.partition("/")
        digits = num[1:] if num[:1] == "-" else num
        if value.isascii() and digits.isdigit() and (den.isdigit() or not slash):
            den = int(den) if slash else 1
            if den:
                return Fraction(int(num), den)
        try:
            return Fraction(value)
        except (ValueError, ZeroDivisionError) as e:
            raise FileFormatError(f"bad rational {value!r}: {e}") from None
    raise FileFormatError(
        f"rationals must be strings like '3/4' or integers, got {value!r}"
    )


def format_rational(value: Fraction) -> str:
    return str(value)


def _read_json(path: Path) -> dict:
    try:
        with open(path) as fh:
            return json.load(fh)
    except FileNotFoundError:
        raise FileFormatError(f"file not found: {path}") from None
    except json.JSONDecodeError as e:
        raise FileFormatError(f"invalid JSON in {path}: {e}") from None


def _expect(data, key, path, kind=dict):
    if key not in data:
        raise FileFormatError(f"{path}: missing key {key!r}")
    if not isinstance(data[key], kind):
        raise FileFormatError(f"{path}: key {key!r} must be a {kind.__name__}")
    return data[key]


def load_assessment(path: Path, language: Language | None = None) -> Assessment:
    data = _read_json(path)
    atoms = _expect(data, "atoms", path, list)
    if language is None:
        language = Language(atoms)
    elif tuple(atoms) != language.atoms:
        raise FileFormatError(
            f"{path}: atom list {atoms} disagrees with the session's {list(language.atoms)}"
        )
    pi = []
    texts = {}
    for text, value in _expect(data, "pi", path).items():
        f = language.parse(text)
        pi.append((f, parse_rational(value)))
        texts[f] = text
    return Assessment(language, pi, texts=texts)


def load_theory(path: Path, language: Language) -> Theory:
    data = _read_json(path)
    texts = _expect(data, "generators", path, list)
    return Theory.from_texts(language, texts)


def _event_from_key(key: str, index: dict[str, int]) -> int:
    if key == "":
        return 0
    labels = key.split("|")
    mask = _mask(labels, index)
    if mask is None:
        unknown = [l for l in labels if l not in index]
        raise FileFormatError(f"unknown state labels in event {key!r}: {unknown}")
    return mask


def _mask(labels, index: dict[str, int]) -> int | None:
    """The event mask of the given state labels, or None when one of them
    is not a state."""
    mask = 0
    for s in labels:
        i = index.get(s)
        if i is None:
            return None
        mask |= 1 << i
    return mask


def load_model(path: Path, language: Language, name: str | None = None) -> SubjectiveModel:
    """A model file: events are lists of state labels (``t``) or labels
    joined by '|' (``lambda`` keys), and masses are keyed by label; the
    model holds them as bit masks and per-state masses."""
    data = _read_json(path)
    states = _expect(data, "states", path, list)
    index = {s: i for i, s in enumerate(states)}
    truth_labels = {
        language.parse(text): labels for text, labels in _expect(data, "t", path).items()
    }
    lam = None
    if "lambda" in data:
        lam, keys = {}, {}
        for k, v in data["lambda"].items():
            ev = _event_from_key(k, index)
            if ev in keys:
                raise FileFormatError(f"lambda keys {keys[ev]!r} and {k!r} name the same event")
            keys[ev] = k
            lam[ev] = parse_rational(v)
    mass = None
    if "mass" in data:
        mass = {s: parse_rational(v) for s, v in data["mass"].items()}
    check_states(states)
    truth = {}
    for f, labels in truth_labels.items():
        truth[f] = _mask(labels, index)
        if truth[f] is None:
            raise ModelError(f"truth event for {unparse(f)} mentions unknown states")
    if mass is not None:
        for s in mass:
            if s not in index:
                raise ModelError(f"mass assigned to unknown state {s!r}")
        mass = [mass.get(s, 0) for s in states]
    return SubjectiveModel(
        language,
        states,
        truth,
        lam=lam,
        mass=mass,
        name=name or data.get("name"),
        exact_lookup=bool(data.get("exact_lookup", False)),
    )


def model_to_dict(model: SubjectiveModel) -> dict:
    out = {
        "states": list(model.states),
        "t": {
            unparse(f): model.labels(ev)
            for f, ev in model.truth.items()
            if f not in (TRUE, FALSE)
        },
        "lambda": {model.label(ev): format_rational(v) for ev, v in model.lam.items()},
    }
    if model.mass is not None:
        out["mass"] = {s: format_rational(v) for s, v in zip(model.states, model.mass)}
    if model.exact_lookup:
        out["exact_lookup"] = True
    return out


def load_strategies(path: Path, language: Language) -> list[Strategy]:
    data = _read_json(path)
    out = []
    for name, body in data.items():
        payoffs = _expect(body, "payoffs", f"{path}:{name}")
        out.append(
            Strategy(
                {language.parse(t): parse_rational(v) for t, v in payoffs.items()},
                name=name,
            )
        )
    return out


def load_payoff_vector(path: Path, model: SubjectiveModel) -> list[Fraction]:
    """A payoff file keyed by state label, as one value per state in state
    order."""
    data = _read_json(path)
    vec = {s: parse_rational(v) for s, v in data.items()}
    if set(vec) != set(model.states):
        raise FileFormatError(
            f"{path}: payoff vector must value exactly the model's states"
        )
    return [vec[s] for s in model.states]


@dataclass
class Session:
    path: Path
    language: Language
    assessment: Assessment | None = None
    theory: Theory | None = None
    models: dict[str, SubjectiveModel] = field(default_factory=dict)
    strategies: list[Strategy] = field(default_factory=list)
    choice: str | None = None
    output_format: str = "text"

    def model(self, name: str | None) -> SubjectiveModel:
        if not self.models:
            raise FileFormatError("session declares no model files")
        if name is None:
            if len(self.models) == 1:
                return next(iter(self.models.values()))
            raise FileFormatError(
                "several models in session; pick one of: " + ", ".join(sorted(self.models))
            )
        if name not in self.models:
            raise FileFormatError(f"no model named {name!r} in session")
        return self.models[name]


def load_session(path) -> Session:
    path = Path(path)
    data = _read_json(path)
    base = path.parent
    atoms = _expect(data, "atoms", path, list)
    language = Language(atoms)
    session = Session(path=path, language=language)
    session.output_format = data.get("format", "text")
    if "assessment" in data:
        session.assessment = load_assessment(base / data["assessment"], language)
    if "theory" in data:
        session.theory = load_theory(base / data["theory"], language)
    for name, rel in data.get("models", {}).items():
        session.models[name] = load_model(base / rel, language, name)
    if "strategies" in data:
        session.strategies = load_strategies(base / data["strategies"], language)
    session.choice = data.get("choice")
    return session
