"""Command-line front end.

Commands operate on a session file that names the atom set and the
input files (assessment, theory, models, strategies).  A command reads
only the files it uses, each when it first uses it: ``check`` the
assessment, and the theory for ``s-i``; ``identify`` the assessment and
the theory; ``build`` the assessment, and the model for
``belief-lift``; ``rationalize`` the model and the strategies;
``mobius`` and ``choquet`` the model.  So it reports no error in a file
it does not read.  Exit codes:
0 = pass/success, 1 = substantive failure (axiom violation, strategy
not rationalizable, refused build or identification), 2 = input error,
3 = an internal invariant failed (a bug, never the input's fault).
Commands report only their verdicts; ``_Main.invoke`` maps every other
error to its exit code in one place: an ``errors.InputError`` (each
module's input error subclasses it) exits 2, an ``InternalError`` exits
3, and anything else is a bug and ends in a traceback.  Paths are taken
as plain strings, so a path that cannot be opened is the file readers'
input error.
Reports are deterministic: statements in text order, rationals reduced.
Each command imports the layers it runs when it runs, so a command
loads only the modules it needs.
"""

from __future__ import annotations

import sys
from json.encoder import encode_basestring_ascii
from pathlib import Path

import click

from . import assessment as axioms
from . import files
from .errors import InputError, InternalError

PASS, FAIL, BAD_INPUT, INTERNAL = 0, 1, 2, 3

AXIOM_ORDER = ["nt", "e", "i", "ie", "a", "s-i"]
AXIOM_TITLES = {
    "nt": "Non-Triviality (NT)",
    "e": "Equivalence (E)",
    "i": "Implication (I)",
    "ie": "Inclusion/Exclusion (IE)",
    "a": "Additivity (A)",
    "s-i": "Theory Implication (S-I)",
}


class _Ctx:
    def __init__(self):
        self.format = "text"


def _json_text(payload) -> str:
    """``json.dumps(payload, indent=2, sort_keys=True)``, byte for byte, for
    dicts with str keys, lists, tuples, str, int, bool and None.  Any other
    value (a Fraction, a float, a non-string key) is a bug in the report
    builder, so it is an InternalError."""
    chunks = []
    try:
        _write_json(payload, "\n", chunks.append)
    except TypeError as e:
        raise InternalError(f"report is not writable as JSON: {e}") from None
    return "".join(chunks)


def _write_json(value, indent: str, write) -> None:
    """Pass ``value``'s JSON text to ``write`` in pieces, each line inside
    it opened by ``indent``; an unsupported value raises TypeError.  A
    dict entry whose value is a string is one piece, and so is a whole
    list of strings."""
    if isinstance(value, str):
        write(encode_basestring_ascii(value))
    elif isinstance(value, dict):
        if not value:
            write("{}")
            return
        inner = indent + "  "
        sep = "{" + inner
        for key in sorted(value):
            item = value[key]
            if isinstance(item, str):  # most entries of a model's tables are
                write(sep + encode_basestring_ascii(key) + ": " + encode_basestring_ascii(item))
            else:
                write(sep + encode_basestring_ascii(key) + ": ")
                _write_json(item, inner, write)
            sep = "," + inner
        write(indent + "}")
    elif isinstance(value, (list, tuple)):
        if not value:
            write("[]")
            return
        inner = indent + "  "
        for item in value:
            if not isinstance(item, str):
                break
        else:
            write("[" + inner + ("," + inner).join(map(encode_basestring_ascii, value))
                  + indent + "]")
            return
        sep = "[" + inner
        for item in value:
            write(sep)
            _write_json(item, inner, write)
            sep = "," + inner
        write(indent + "]")
    elif value is None:
        write("null")
    elif value is True:
        write("true")
    elif value is False:
        write("false")
    else:
        write(int.__repr__(value))


def _emit(ctx: _Ctx, payload, text_lines):
    """Print the report in the requested format.  ``payload`` and
    ``text_lines`` are functions returning the JSON object and the text
    lines, so only the printed one is built."""
    if ctx.format == "json":
        click.echo(_json_text(payload()))
    else:
        for line in text_lines():
            click.echo(line)


def _fail_input(message: str):
    click.echo(f"error: {message}", err=True)
    sys.exit(BAD_INPUT)


def _session(ctx: _Ctx, path, theory_path=None, assessment=True) -> files.Session:
    """The session file at ``path``, with the theory file at
    ``theory_path`` in place of its own when one is given (the session's
    own is then never read); it sets the report format unless
    ``--format`` did.  With ``assessment``, a session that declares none
    is an input error, and the assessment is read first, before any
    other file the command reads."""
    session = files.load_session(path)
    if ctx.format is None:
        ctx.format = session.output_format
    if assessment:
        if session.assessment_path is None:
            _fail_input("session declares no assessment")
        session.assessment
    if theory_path:
        session.theory = files.load_theory(Path(theory_path), session.language)
    return session


class _Main(click.Group):
    def invoke(self, ctx):
        try:
            return super().invoke(ctx)
        except InputError as e:
            _fail_input(str(e))
        except InternalError as e:
            click.echo(f"error: {e}", err=True)
            sys.exit(INTERNAL)
        except ValueError as e:
            # str() of an int with more digits than Python converts, raised
            # wherever a report writes an exact value
            if not str(e).startswith("Exceeds the limit ("):
                raise
            _fail_input(
                f"an exact value has more than {sys.get_int_max_str_digits()} "
                "decimal digits, more than Python writes as text"
            )


@click.group(cls=_Main)
@click.option("--format", "output_format", type=click.Choice(["text", "json"]), default=None,
              help="Report format; defaults to the session's setting.")
@click.pass_context
def main(ctx, output_format):
    """Grade likelihood assessments, build state-space models, identify
    understood implications, and test rationalizability."""
    ctx.obj = _Ctx()
    ctx.obj.format = output_format


def _report_lines(report) -> list[str]:
    title = AXIOM_TITLES.get(report.axiom.lower(), report.axiom)
    lines = [f"{title}: {'pass' if report.passed else 'FAIL'}"]
    for v in report.violations:
        lines.append(
            f"  violated: {v.requirement}  [lhs={v.lhs}, rhs={v.rhs}]"
        )
    if report.untestable:
        lines.append(f"  untestable instances: {len(report.untestable)}")
        for u in report.untestable[:10]:
            lines.append(f"    - {u}")
        if len(report.untestable) > 10:
            lines.append(f"    ... and {len(report.untestable) - 10} more")
    return lines


@main.command()
@click.argument("session_file")
@click.argument("which", nargs=-1)
@click.option("--theory", "theory_path", metavar="PATH", default=None,
              help="Theory file overriding the session's for s-i.")
@click.pass_obj
def check(ctx, session_file, which, theory_path):
    """Check axioms (any of: nt e i ie a s-i; default all applicable)."""
    session = _session(ctx, session_file, theory_path)
    which = [w.lower() for w in which]
    for w in which:
        if w not in AXIOM_ORDER:
            _fail_input(f"unknown axiom {w!r}; choose from {' '.join(AXIOM_ORDER)}")
    if not which:
        which = [a for a in AXIOM_ORDER if a != "s-i" or session.theory is not None]
    if "s-i" in which and session.theory is None:
        _fail_input("the s-i check needs a theory file")

    reports = []
    for w in which:
        if w == "s-i":
            reports.append(axioms.check_s_i(session.assessment, session.theory))
        else:
            reports.append(axioms.CHECKERS[w](session.assessment))
    _emit(
        ctx,
        lambda: {"command": "check", "reports": [r.to_dict() for r in reports]},
        lambda: [line for r in reports for line in _report_lines(r)],
    )
    sys.exit(PASS if all(r.passed for r in reports) else FAIL)


@main.command()
@click.argument("session_file")
@click.argument("construction", type=click.Choice(
    ["product", "canonical-sound", "interval-additive", "additive-sound", "belief-lift"]
))
@click.option("--out", metavar="PATH", default=None, help="Write the model JSON here.")
@click.option("--model", "model_name", default=None,
              help="Source model for belief-lift.")
@click.pass_obj
def build(ctx, session_file, construction, out, model_name):
    """Build a representing model and print its certificate."""
    from . import construct

    lift = construction == "belief-lift"
    session = _session(ctx, session_file, assessment=not lift)
    try:
        if lift:
            assessment = session.assessment  # read before the model, if declared
            outcome = construct.build_belief_lift(session.model(model_name), assessment)
        else:
            outcome = construct.BUILDERS[construction](session.assessment)
    except construct.BuildError as e:
        click.echo(f"build failed: {e}", err=True)
        sys.exit(FAIL)
    if out:
        files.write_text(out, _json_text(files.model_to_dict(outcome.model)))

    def payload():
        body = {"command": "build", **outcome.to_dict()}
        if not out:
            body["model"] = files.model_to_dict(outcome.model)
        return body

    def lines():
        text_lines = [f"construction: {outcome.construction}"]
        for c in outcome.certificate:
            text_lines.append(f"  [{'ok' if c.ok else 'FAIL'}] {c.name}: {c.detail}")
        for n in outcome.notes:
            text_lines.append(f"  note: {n}")
        if out:
            text_lines.append(f"model written to {out}")
        return text_lines

    _emit(ctx, payload, lines)
    sys.exit(PASS if outcome.ok else FAIL)


@main.command(name="identify")
@click.argument("session_file")
@click.option("--theory", "theory_path", metavar="PATH", default=None)
@click.pass_obj
def identify_cmd(ctx, session_file, theory_path):
    """List which entailments the assessment respects; with a theory,
    identify the largest understood sub-theory."""
    from . import identify

    session = _session(ctx, session_file, theory_path)
    theory = session.theory
    try:
        verdicts = identify.understood_implications(session.assessment)
    except identify.IdentifyError as e:
        _emit(
            ctx,
            lambda: {"command": "identify", "refused": str(e)},
            lambda: [f"identification: refused ({e})"],
        )
        sys.exit(FAIL)
    misunderstood = [v for v in verdicts if not v.understood]
    lines = [f"implications within the universe: {len(verdicts)}"]
    for v in misunderstood:
        lines.append(
            f"  NOT understood: {v.antecedent} implies {v.consequent} "
            f"(margin {v.margin})"
        )
    if not misunderstood:
        lines.append("  all understood")
    payload = {
        "command": "identify",
        "verdicts": [v.to_dict() for v in verdicts],
    }
    substantive_failure = bool(misunderstood)

    if theory is not None:
        try:
            sub = identify.largest_subtheory(session.assessment, theory)
            lines.append(
                "largest understood sub-theory: {"
                + ", ".join(sub.generator_texts)
                + "}"
                + ("" if sub.unique else "  (not unique; see candidates)")
            )
            payload["largest_subtheory"] = sub.to_dict()
            if not sub.unique:
                substantive_failure = True
        except identify.IdentifyError as e:
            lines.append(f"largest sub-theory: refused ({e})")
            payload["largest_subtheory"] = {"refused": str(e)}
            substantive_failure = True
        try:
            cert = identify.subtheory_via_certainty(session.assessment, theory)
            lines.append(
                "certainty-based sub-theory: {" + ", ".join(cert.generator_texts) + "}"
            )
            payload["certainty_subtheory"] = cert.to_dict()
        except identify.IdentifyError as e:
            lines.append(f"certainty-based sub-theory: refused ({e})")
            payload["certainty_subtheory"] = {"refused": str(e)}
            substantive_failure = True
    _emit(ctx, lambda: payload, lambda: lines)
    sys.exit(FAIL if substantive_failure else PASS)


@main.command()
@click.argument("session_file")
@click.option("--choice", default=None, help="Strategy to test (default: session's).")
@click.option("--model", "model_name", default=None)
@click.option("--additive-only", is_flag=True, help="Allow only additive priors.")
@click.option("--weak", is_flag=True, help="Use weak instead of strict dominance.")
@click.pass_obj
def rationalize(ctx, session_file, choice, model_name, additive_only, weak):
    """Decide whether the chosen strategy is rationalizable."""
    from . import games

    session = _session(ctx, session_file, assessment=False)
    strategy = session.strategy(choice)
    result = games.rationalizable(
        strategy,
        session.strategies,
        session.model(model_name),
        additive_only=additive_only,
        weak=weak,
    )
    lines = [
        f"strategy {strategy.name}: "
        + ("rationalizable" if result.rationalizable else "NOT rationalizable")
        + f" ({result.mode})"
    ]
    if result.dominating_mixture is not None:
        mix = ", ".join(f"{n}: {v}" for n, v in result.dominating_mixture)
        lines.append(f"  dominated by mixture {{{mix}}} with margin {result.epsilon}")
    if result.choquet_values is not None:
        vals = ", ".join(f"{n}: {v}" for n, v in result.choquet_values)
        lines.append(f"  witness values  {vals}  (witness from {result.witness_source})")
    _emit(ctx, lambda: {"command": "rationalize", **result.to_dict()}, lambda: lines)
    sys.exit(PASS if result.rationalizable else FAIL)


@main.command(name="choquet")
@click.argument("session_file")
@click.option("--model", "model_name", default=None)
@click.option("--act", "act_path", metavar="PATH", required=True,
              help="JSON file mapping state labels to rationals.")
@click.pass_obj
def choquet_cmd(ctx, session_file, model_name, act_path):
    """Choquet integral of a state payoff vector under a model's appraisal."""
    from .model import choquet

    model = _session(ctx, session_file, assessment=False).model(model_name)
    value = choquet(model, files.load_payoff_vector(Path(act_path), model))
    _emit(ctx, lambda: {"command": "choquet", "value": str(value)},
          lambda: [f"choquet integral: {value}"])
    sys.exit(PASS)


@main.command(name="mobius")
@click.argument("session_file")
@click.option("--model", "model_name", default=None)
@click.option("--invert", is_flag=True,
              help="Rebuild the appraisal from the model's masses instead.")
@click.pass_obj
def mobius_cmd(ctx, session_file, model_name, invert):
    """Mobius masses of a model's appraisal (or the appraisal from masses)."""
    from .model import inverse_mobius, mobius

    model = _session(ctx, session_file, assessment=False).model(model_name)
    if invert:
        if model.mass is None:
            _fail_input("model carries no masses to invert")
        masses = {1 << i: v for i, v in enumerate(model.mass)}
        values = inverse_mobius(masses, len(model.states))
        title = "appraisal from masses"
    else:
        values = {ev: v for ev, v in mobius(model).items() if v != 0}
        title = "mobius masses (zeros omitted)"
    out = {label: str(v) for label, v in model.labelled(values)}
    lines = [f"{title}:"] + [f"  {k or '(empty)'}: {v}" for k, v in out.items()]
    _emit(ctx, lambda: {"command": "mobius", "values": out}, lambda: lines)
    sys.exit(PASS)


if __name__ == "__main__":
    main()
