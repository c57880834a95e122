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
value, without ``Fraction``'s regular expression.  ``rational_pair``
reads a rational as an int numerator and positive denominator, as
written: ``"2/4"`` gives (2, 4).  A model file's appraisal values and
masses are read that way, each distinct ``lambda`` value once, and
``_exact`` reduces them all in one pass and puts them over one common
denominator, so loading a model builds no ``Fraction`` per value, and
``format_ratios`` writes them back.
"""

from __future__ import annotations

import json
import os
from fractions import Fraction
from functools import cached_property
from pathlib import Path
from typing import TYPE_CHECKING

from ._exact import format_ratios, ratios_over_one_denominator
from .assessment import Assessment
from .errors import InputError
from .logic import FALSE, TRUE, Language, Theory, unparse

if TYPE_CHECKING:  # loaded by the readers that build them
    from .games import Strategy
    from .model import SubjectiveModel


class FileFormatError(InputError):
    pass


def rational_pair(value) -> tuple[int, int]:
    """A rational read as ``parse_rational`` reads it, as an int
    numerator and a positive int denominator: a plain ``n/d`` as
    written, so ``"2/4"`` gives (2, 4), and any other form in lowest
    terms."""
    if isinstance(value, int) and not isinstance(value, bool):
        return value, 1
    if isinstance(value, str):
        num, slash, den = value.partition("/")
        digits = num[1:] if num[:1] == "-" else num
        try:  # int() past the digit limit raises ValueError too
            if value.isascii() and digits.isdigit() and (den.isdigit() or not slash):
                if not slash:
                    return int(num), 1
                num, den = int(num), int(den)
                if den:
                    return num, den
            q = Fraction(value)
        except (ValueError, ZeroDivisionError) as e:
            raise FileFormatError(f"bad rational {value!r}: {e}") from None
        return q.numerator, q.denominator
    raise FileFormatError(
        f"rationals must be strings like '3/4' or integers, got {value!r}"
    )


def parse_rational(value) -> Fraction:
    return Fraction(*rational_pair(value))


def _read_json(path: Path) -> dict:
    """A file's JSON object; every file this package reads holds one."""
    try:
        with open(path) as fh:
            data = json.load(fh)
    except FileNotFoundError:
        raise FileFormatError(f"file not found: {path}") from None
    except json.JSONDecodeError as e:
        raise FileFormatError(f"invalid JSON in {path}: {e}") from None
    # a directory, a NUL byte in the path, bytes that are not UTF-8, nesting too deep
    except (OSError, ValueError, RecursionError) as e:
        raise FileFormatError(f"cannot read {path}: {getattr(e, 'strerror', None) or e}") from None
    if not isinstance(data, dict):
        raise FileFormatError(f"{path}: the top level must be a JSON object")
    return data


def write_text(path, text: str) -> None:
    """Write ``text`` to the file at ``path``; a path that cannot be
    written is a FileFormatError."""
    try:
        with open(path, "w") as fh:
            fh.write(text)
    except (OSError, ValueError) as e:
        raise FileFormatError(f"cannot write {path}: {getattr(e, 'strerror', None) or e}") from None


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
    if not all(isinstance(t, str) for t in texts):
        raise FileFormatError(f"{path}: every generator must be a formula string")
    return Theory.from_texts(language, texts)


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


def _lambda_masks(keys: list[str], index: dict[str, int]) -> list[int]:
    """The event masks of ``lambda`` keys in file order, up to the first
    key that names an unknown state.  A key ``head|last`` whose ``head``
    is a key already read takes that key's mask and the bit of ``last``;
    any other key is split into its labels."""
    bit = {s: 1 << i for s, i in index.items()}
    masks, read = [], {}
    for k in keys:
        head, sep, last = k.rpartition("|")
        try:
            read[k] = ev = (read[head] if sep else 0) | bit[last]
        except KeyError:  # the empty key (no state is labelled ""), or a new head
            ev = _mask(k.split("|"), index) if k else 0
            if ev is None:
                break
        masks.append(ev)
    return masks


def _rational_pairs(values: list) -> list[tuple[int, int]]:
    """``rational_pair`` of each value in order, each distinct string read
    once; the first bad value in order is the one reported."""
    try:
        distinct = set(values)
    except TypeError:  # a list or an object: no rational, reported in order
        return list(map(rational_pair, values))
    read = {}
    for v in distinct:
        if type(v) is str:  # 1 and True are one set member; each is read below
            try:
                read[v] = rational_pair(v)
            except FileFormatError:
                pass  # read again below, in file order
    pairs = list(map(read.get, values))
    if len(read) < len(distinct):  # ints, and bad values
        pairs = [p or rational_pair(v) for p, v in zip(pairs, values)]
    return pairs


def _read_lambda(table: dict, index: dict) -> tuple[list[int], list[tuple[int, int]]]:
    """The event masks of a model file's ``lambda`` keys, and the values
    as ``rational_pair``s, in file order; the first bad key or value in
    the file is the one reported."""
    keys, values = list(table), list(table.values())
    masks = _lambda_masks(keys, index)
    bad = len(masks)  # the first bad key, or len(keys); the values before it go first
    if len(set(masks)) < bad:  # two keys name one event: find the later one
        named = {}
        for bad, (k, ev) in enumerate(zip(keys, masks)):
            if ev in named:
                error = f"lambda keys {named[ev]!r} and {k!r} name the same event"
                break
            named[ev] = k
    elif bad < len(keys):
        k = keys[bad]
        unknown = [l for l in k.split("|") if l not in index]
        error = f"unknown state labels in event {k!r}: {unknown}"
    pairs = _rational_pairs(values[:bad])
    if bad < len(keys):
        raise FileFormatError(error)
    return masks, pairs


def load_model(path: Path, language: Language) -> SubjectiveModel:
    """A model file: events are lists of state labels (``t``) or labels
    joined by '|' (``lambda`` keys), and masses are keyed by label; the
    model holds them as bit masks, and appraisal values and masses as
    int numerators over the common denominator of them all."""
    from .model import ModelError, SubjectiveModel, check_states

    data = _read_json(path)
    states = check_states(_expect(data, "states", path, list))
    index = {s: i for i, s in enumerate(states)}
    truth_labels = {
        language.parse(text): labels for text, labels in _expect(data, "t", path).items()
    }
    masks, pairs = (
        _read_lambda(_expect(data, "lambda", path), index) if "lambda" in data else ([], [])
    )
    mass = None
    if "mass" in data:
        mass = {s: len(pairs) + j for j, s in enumerate(_expect(data, "mass", path))}
        pairs += map(rational_pair, data["mass"].values())
    truth = {}
    for f, labels in truth_labels.items():
        if not isinstance(labels, list) or not all(isinstance(s, str) for s in labels):
            raise ModelError(f"truth event for {unparse(f)} must be a list of state labels")
        truth[f] = _mask(labels, index)
        if truth[f] is None:
            raise ModelError(f"truth event for {unparse(f)} mentions unknown states")
    if mass is not None:
        for s in mass:
            if s not in index:
                raise ModelError(f"mass assigned to unknown state {s!r}")
    exact_lookup = data.get("exact_lookup", False)
    if not isinstance(exact_lookup, bool):
        raise FileFormatError(f"{path}: key 'exact_lookup' must be a bool, got {exact_lookup!r}")
    den, nums = ratios_over_one_denominator(pairs)
    if mass is not None:
        mass = [nums[mass[s]] if s in mass else 0 for s in states]
    return SubjectiveModel(
        language,
        states,
        truth,
        lam=dict(zip(masks, nums)) if "lambda" in data else None,
        mass=mass,
        exact_lookup=exact_lookup,
        denominator=den,
    )


def model_to_dict(model: SubjectiveModel) -> dict:
    den = model.denominator
    out = {
        "states": list(model.states),
        "t": {
            unparse(f): model.labels(ev)
            for f, ev in model.truth.items()
            if f not in (TRUE, FALSE)
        },
        "lambda": dict(zip(
            model.label_events(model.lam_numerators),
            format_ratios(model.lam_numerators.values(), den),
        )),
    }
    if model.mass_numerators is not None:
        out["mass"] = dict(zip(model.states, format_ratios(model.mass_numerators, den)))
    if model.exact_lookup:
        out["exact_lookup"] = True
    return out


def load_strategies(path: Path, language: Language) -> list[Strategy]:
    from .games import Strategy

    data = _read_json(path)
    out = []
    for name in data:
        payoffs = _expect(_expect(data, name, path), "payoffs", f"{path}:{name}")
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


class _Pinned:
    """A path a session file names: printed as written (joined to the
    session file's directory), and opened as the absolute path it named
    when the session was loaded."""

    def __init__(self, shown: Path, opened: Path):
        self.shown = shown
        self.opened = opened

    def __fspath__(self) -> str:
        return os.fspath(self.opened)

    def __str__(self) -> str:
        return str(self.shown)


class Session:
    """A session: its atoms' language, its report format and its choice,
    read from the session file, and the files it names, each read the
    first time it is asked for and kept.  ``load_session`` checks the
    session file alone, so a command reports no error in a file it does
    not read.  ``assessment`` and ``theory`` are None when the session
    declares none, and ``strategies`` is empty; setting ``theory`` (as
    ``--theory`` does) replaces the session's own without reading it.
    ``model(name)`` reads that one model file, ``models`` every one.  A
    file is read when first asked for, so it must still be there then;
    its path is pinned when the session is loaded, so a later change of
    working directory does not change the file read."""

    def __init__(self, path: Path, language: Language):
        self.path = path
        self.language = language
        self.output_format = "text"
        self.choice: str | None = None
        self.assessment_path: _Pinned | None = None
        self.theory_path: _Pinned | None = None
        self.strategies_path: _Pinned | None = None
        self.model_paths: dict[str, _Pinned] = {}
        self._models: dict[str, SubjectiveModel] = {}

    @cached_property
    def assessment(self) -> Assessment | None:
        if self.assessment_path is None:
            return None
        return load_assessment(self.assessment_path, self.language)

    @cached_property
    def theory(self) -> Theory | None:
        if self.theory_path is None:
            return None
        return load_theory(self.theory_path, self.language)

    @cached_property
    def strategies(self) -> list[Strategy]:
        if self.strategies_path is None:
            return []
        return load_strategies(self.strategies_path, self.language)

    @property
    def models(self) -> dict[str, SubjectiveModel]:
        return {name: self.model(name) for name in self.model_paths}

    def model(self, name: str | None) -> SubjectiveModel:
        if not self.model_paths:
            raise FileFormatError("session declares no model files")
        if name is None:
            if len(self.model_paths) > 1:
                raise FileFormatError(
                    "several models in session; pick one of: "
                    + ", ".join(sorted(self.model_paths))
                )
            name = next(iter(self.model_paths))
        elif name not in self.model_paths:
            raise FileFormatError(f"no model named {name!r} in session")
        if name not in self._models:
            self._models[name] = load_model(self.model_paths[name], self.language)
        return self._models[name]

    def strategy(self, name: str | None) -> Strategy:
        """The strategy called ``name``, or the session's choice without one."""
        if not self.strategies:
            raise FileFormatError("session declares no strategies")
        name = name or self.choice
        if name is None:
            raise FileFormatError(
                "no strategy chosen; set 'choice' in the session or pass --choice"
            )
        for s in self.strategies:
            if s.name == name:
                return s
        raise FileFormatError(f"no strategy named {name!r}")


def load_session(path) -> Session:
    """The session file at ``path``, checked; the files it names are read
    on first use (``Session``), from where they were at this call."""
    path = Path(path)
    data = _read_json(path)
    base = path.parent
    root = base.absolute()
    session = Session(path, Language(_expect(data, "atoms", path, list)))
    session.output_format = data.get("format", "text")
    if session.output_format not in ("text", "json"):
        raise FileFormatError(
            f"{path}: key 'format' must be 'text' or 'json', got {session.output_format!r}"
        )

    def pinned(name: str) -> _Pinned:
        return _Pinned(base / name, root / name)

    def named(key):
        return pinned(_expect(data, key, path, str)) if key in data else None

    session.assessment_path = named("assessment")
    session.theory_path = named("theory")
    models = _expect(data, "models", path) if "models" in data else {}
    for name in models:
        session.model_paths[name] = pinned(_expect(models, name, f"{path}: models", str))
    session.strategies_path = named("strategies")
    if "choice" in data:
        session.choice = _expect(data, "choice", path, str)
    return session
