"""Command-line front end: ``credence [--format text|json] COMMAND ...``.

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
3 = an internal invariant failed (a bug, never the input's fault),
130 = interrupted (Ctrl-C), 141 = the reader closed stdout before the
report was written (``... | head``), each silently, as a shell reports
a process that SIGINT or SIGPIPE ended.
Commands are plain functions that return their exit code and report
only their verdicts; ``main`` maps every other error to its exit code
in one place: an ``errors.InputError`` (each module's input error
subclasses it) exits 2, an ``InternalError`` exits 3, and anything else
is a bug and ends in a traceback.  A usage error (an unknown command or
option, a prefix of an option, a value outside its choices, a missing
argument) is the standard library's ``argparse``: a usage line and the
message on stderr, exit 2.  The parsers are built on a process's first
command and kept; a command's options may stand anywhere among its
arguments, as in ``check S i --theory T ie``, but an option's value that
begins with ``-`` is written ``--out=-m.json``, and a path that does is
written ``./-s.json``.  Paths are taken as
plain strings, so a path that cannot be opened is the file readers'
input error.
Reports are deterministic: statements in text order, rationals reduced.
They go to ``sys.stdout`` and errors to ``sys.stderr``, each looked up
when written, so a caller that redirects either captures it.
Each command imports the layers it runs when it runs, so a command
loads only the modules it needs.
"""

from __future__ import annotations

import argparse
import functools
import os
import sys
from json.encoder import encode_basestring_ascii
from pathlib import Path

from . import assessment as axioms
from . import files
from .errors import InputError, InternalError

PASS, FAIL, BAD_INPUT, INTERNAL = 0, 1, 2, 3
# the shell's codes for a process ended by SIGPIPE and by SIGINT (128 + signal)
PIPE_CLOSED, INTERRUPTED = 141, 130

AXIOM_ORDER = ["nt", "e", "i", "ie", "a", "s-i"]
AXIOM_TITLES = {
    "nt": "Non-Triviality (NT)",
    "e": "Equivalence (E)",
    "i": "Implication (I)",
    "ie": "Inclusion/Exclusion (IE)",
    "a": "Additivity (A)",
    "s-i": "Theory Implication (S-I)",
}

# command name -> (function, its arguments as ``_arg`` pairs), in help order
_COMMANDS: dict[str, tuple] = {}


def _command(name: str, *arguments):
    """Register the decorated function as the command ``name``, taking
    ``arguments``; the first line of its docstring is its summary."""

    def register(run):
        _COMMANDS[name] = (run, arguments)
        return run

    return register


def _arg(*flags, **keywords):
    """One ``add_argument`` call's arguments."""
    return flags, keywords


def main(args=None, prog_name=None, standalone_mode=True):
    """Run one command, ``args`` (``sys.argv[1:]`` by default), and exit
    with its code.  The signature is click's, so callers written for a
    click entry point run it the same way, as
    ``main.main(args=..., prog_name=..., standalone_mode=False)``;
    in either mode the command ends in SystemExit, a usage error too."""
    top, commands = _parsers(prog_name)
    front = top.parse_args(args)
    name, *rest = front.command
    opts = commands[name].parse_intermixed_args(rest)
    opts.format = front.output_format
    try:
        code = opts.run(opts)
        sys.stdout.flush()  # a closed pipe shows here, not at exit
    except InputError as e:
        code = _fail(BAD_INPUT, e)
    except InternalError as e:
        code = _fail(INTERNAL, e)
    except ValueError as e:
        # str() of an int with more digits than Python converts, raised
        # wherever a report writes an exact value
        if not str(e).startswith("Exceeds the limit ("):
            raise
        code = _fail(
            BAD_INPUT,
            f"an exact value has more than {sys.get_int_max_str_digits()} "
            "decimal digits, more than Python writes as text",
        )
    except BrokenPipeError:
        # the reader closed its end: what is left goes to devnull, so the
        # flush at exit raises nothing (the Python docs' note on SIGPIPE)
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        code = PIPE_CLOSED
    except KeyboardInterrupt:
        code = INTERRUPTED
    sys.exit(code)


main.main = main


@functools.cache
def _parsers(prog: str | None):
    """The front end's parser, and each command's by name, for the
    program name ``prog`` (by default ``sys.argv[0]``'s file name)."""
    summaries = ["commands:"]
    for name, (run, _) in _COMMANDS.items():
        summary = (run.__doc__ or "").partition("\n")[0]
        summaries.append(f"  {name:<12} {summary}")
    top = argparse.ArgumentParser(
        prog=prog,
        description="Grade likelihood assessments, build state-space models, identify\n"
        "understood implications, and test rationalizability.",
        epilog="\n".join(summaries),
        formatter_class=argparse.RawDescriptionHelpFormatter,
        allow_abbrev=False,
    )
    top.add_argument("--format", dest="output_format", choices=["text", "json"],
                     help="report format; defaults to the session's setting")
    top.add_argument("command", nargs=argparse.PARSER, choices=_COMMANDS, metavar="COMMAND",
                     help="the command, then its arguments ('COMMAND --help' lists them)")
    commands = {}
    for name, (run, arguments) in _COMMANDS.items():
        parser = argparse.ArgumentParser(prog=f"{top.prog} {name}", description=run.__doc__,
                                         allow_abbrev=False)
        for flags, keywords in arguments:
            parser.add_argument(*flags, **keywords)
        parser.set_defaults(run=run)
        # parse_intermixed_args formats the usage line on every call
        # unless the parser has one, so it is formatted once here
        parser.usage = parser.format_usage().removeprefix("usage: ")
        commands[name] = parser
    return top, commands


def _json_text(payload) -> str:
    """``json.dumps(payload, indent=2, sort_keys=True)``, byte for byte, for
    dicts with str keys, lists, tuples, str, int, bool and None.  A
    function stands for a value whose text it returns, given the indent
    of the lines inside it.  Any other value (a Fraction, a float, a
    non-string key) is a bug in the report builder, so it is an
    InternalError."""
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
    elif callable(value):
        write(value(indent))
    else:
        write(int.__repr__(value))


def _emit(opts, payload, text_lines):
    """Print the report in the requested format.  ``payload`` and
    ``text_lines`` are functions returning the JSON object and the text
    lines, so only the printed one is built."""
    if opts.format == "json":
        print(_json_text(payload()))
    else:
        for line in text_lines():
            print(line)


def _fail(code: int, message) -> int:
    print(f"error: {message}", file=sys.stderr)
    return code


def _session(opts, path, theory_path=None, assessment=True) -> files.Session:
    """The session file at ``path``, with the theory file at
    ``theory_path`` in place of its own when one is given (the session's
    own is then never read); it sets the report format unless
    ``--format`` did.  With ``assessment``, a session that declares none
    is an input error, and the assessment is read first, before any
    other file the command reads."""
    session = files.load_session(path)
    if opts.format is None:
        opts.format = session.output_format
    if assessment:
        if session.assessment_path is None:
            raise InputError("session declares no assessment")
        session.assessment
    if theory_path:
        session.theory = files.load_theory(Path(theory_path), session.language)
    return session


def _report_json(report) -> dict:
    """``report.to_dict()``, with its violations left to be written from
    its rows by ``_violations_json``."""
    return {
        "axiom": report.axiom,
        "passed": report.passed,
        "violations": functools.partial(_violations_json, report),
        "untestable": report.untestable,
        "meta": report.meta,
    }


def _quote(text: str) -> str:
    """``text`` JSON-escaped, without its quotes."""
    return encode_basestring_ascii(text)[1:-1]


def _violations_json(report, indent: str) -> str:
    """``_json_text`` of ``report.to_dict()["violations"]``, each line
    inside it opened by ``indent``, written from the report's entries: the
    texts come escaped, so each violation is one format of its strings."""
    entries = report.entries(_quote)
    if not entries:
        return "[]"
    inner = indent + "  "
    key = inner + "  "
    layout = (
        "{" + key + '"axiom": ' + encode_basestring_ascii(report.axiom)
        + "," + key + '"formulas": [' + key + '  "%s"' + key + "],"
        + key + '"lhs": "%s",' + key + '"requirement": "%s",' + key + '"rhs": "%s"'
        + inner + "}"
    )
    names = '",' + key + '  "'
    return ("[" + inner + ("," + inner).join(
        [layout % (names.join(formulas), lhs, requirement, rhs)
         for formulas, lhs, rhs, requirement in entries]) + indent + "]")


def _report_lines(report) -> list[str]:
    title = AXIOM_TITLES.get(report.axiom.lower(), report.axiom)
    lines = [f"{title}: {'pass' if report.passed else 'FAIL'}"]
    for formulas, lhs, rhs, requirement in report.entries():
        family = " for family {%s}" % ", ".join(formulas[1:]) if report.axiom == "IE" else ""
        lines.append(f"  violated: {requirement}{family}  [lhs={lhs}, rhs={rhs}]")
    if report.untestable:
        lines.append(f"  untestable instances: {len(report.untestable)}")
        for u in report.untestable[:10]:
            lines.append(f"    - {u}")
        if len(report.untestable) > 10:
            lines.append(f"    ... and {len(report.untestable) - 10} more")
    return lines


_SESSION_FILE = _arg("session_file", metavar="SESSION_FILE", help="the session file")
_MODEL = _arg("--model", dest="model_name", metavar="NAME",
             help="the session's model to use (needed when it names several)")


@_command(
    "check",
    _SESSION_FILE,
    _arg("which", nargs="*", default=(), metavar="AXIOM",
         help="any of: nt e i ie a s-i (default: all applicable)"),
    _arg("--theory", dest="theory_path", metavar="PATH",
         help="theory file overriding the session's for s-i"),
)
def check(opts) -> int:
    """Check axioms (any of: nt e i ie a s-i; default all applicable)."""
    session = _session(opts, opts.session_file, opts.theory_path)
    which = [w.lower() for w in opts.which]
    for w in which:
        if w not in AXIOM_ORDER:
            raise InputError(f"unknown axiom {w!r}; choose from {' '.join(AXIOM_ORDER)}")
    if not which:
        which = [a for a in AXIOM_ORDER if a != "s-i" or session.theory is not None]
    if "s-i" in which and session.theory is None:
        raise InputError("the s-i check needs a theory file")

    reports = []
    for w in which:
        if w == "s-i":
            reports.append(axioms.check_s_i(session.assessment, session.theory))
        else:
            reports.append(axioms.CHECKERS[w](session.assessment))
    _emit(
        opts,
        lambda: {"command": "check", "reports": list(map(_report_json, reports))},
        lambda: [line for r in reports for line in _report_lines(r)],
    )
    return PASS if all(r.passed for r in reports) else FAIL


@_command(
    "build",
    _SESSION_FILE,
    _arg("construction", metavar="CONSTRUCTION",
         choices=["product", "canonical-sound", "interval-additive", "additive-sound",
                  "belief-lift"],
         help="one of: %(choices)s"),
    _arg("--out", metavar="PATH", help="write the model JSON here"),
    _arg("--model", dest="model_name", metavar="NAME", help="source model for belief-lift"),
)
def build(opts) -> int:
    """Build a representing model and print its certificate."""
    from . import construct

    construction, out = opts.construction, opts.out
    lift = construction == "belief-lift"
    session = _session(opts, opts.session_file, assessment=not lift)
    try:
        if lift:
            assessment = session.assessment  # read before the model, if declared
            outcome = construct.build_belief_lift(session.model(opts.model_name), assessment)
        else:
            outcome = construct.BUILDERS[construction](session.assessment)
    except construct.BuildError as e:
        print(f"build failed: {e}", file=sys.stderr)
        return FAIL
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

    _emit(opts, payload, lines)
    return PASS if outcome.ok else FAIL


@_command(
    "identify",
    _SESSION_FILE,
    _arg("--theory", dest="theory_path", metavar="PATH",
         help="theory file overriding the session's"),
)
def identify_cmd(opts) -> int:
    """List which entailments the assessment respects.

    With a theory, also identify the largest understood sub-theory."""
    from . import identify

    session = _session(opts, opts.session_file, opts.theory_path)
    theory = session.theory
    try:
        verdicts = identify.understood_implications(session.assessment)
    except identify.IdentifyError as e:
        _emit(
            opts,
            lambda: {"command": "identify", "refused": str(e)},
            lambda: [f"identification: refused ({e})"],
        )
        return FAIL
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
    _emit(opts, lambda: payload, lambda: lines)
    return FAIL if substantive_failure else PASS


@_command(
    "rationalize",
    _SESSION_FILE,
    _arg("--choice", metavar="NAME", help="strategy to test (default: the session's)"),
    _MODEL,
    _arg("--additive-only", action="store_true", help="allow only additive priors"),
    _arg("--weak", action="store_true", help="use weak instead of strict dominance"),
)
def rationalize(opts) -> int:
    """Decide whether the chosen strategy is rationalizable."""
    from . import games

    session = _session(opts, opts.session_file, assessment=False)
    strategy = session.strategy(opts.choice)
    result = games.rationalizable(
        strategy,
        session.strategies,
        session.model(opts.model_name),
        additive_only=opts.additive_only,
        weak=opts.weak,
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
    _emit(opts, lambda: {"command": "rationalize", **result.to_dict()}, lambda: lines)
    return PASS if result.rationalizable else FAIL


@_command(
    "choquet",
    _SESSION_FILE,
    _MODEL,
    _arg("--act", dest="act_path", metavar="PATH", required=True,
         help="JSON file mapping state labels to rationals"),
)
def choquet_cmd(opts) -> int:
    """Choquet integral of a state payoff vector under a model's appraisal."""
    from .model import choquet

    model = _session(opts, opts.session_file, assessment=False).model(opts.model_name)
    value = choquet(model, files.load_payoff_vector(Path(opts.act_path), model))
    _emit(opts, lambda: {"command": "choquet", "value": str(value)},
          lambda: [f"choquet integral: {value}"])
    return PASS


@_command(
    "mobius",
    _SESSION_FILE,
    _MODEL,
    _arg("--invert", action="store_true",
         help="rebuild the appraisal from the model's masses instead"),
)
def mobius_cmd(opts) -> int:
    """Mobius masses of a model's appraisal (or the appraisal from masses)."""
    from .model import inverse_mobius, mobius

    model = _session(opts, opts.session_file, assessment=False).model(opts.model_name)
    if opts.invert:
        if model.mass is None:
            raise InputError("model carries no masses to invert")
        masses = {1 << i: v for i, v in enumerate(model.mass)}
        values = inverse_mobius(masses, len(model.states))
        title = "appraisal from masses"
    else:
        values = {ev: v for ev, v in mobius(model).items() if v != 0}
        title = "mobius masses (zeros omitted)"
    out = {label: str(v) for label, v in model.labelled(values)}
    lines = [f"{title}:"] + [f"  {k or '(empty)'}: {v}" for k, v in out.items()]
    _emit(opts, lambda: {"command": "mobius", "values": out}, lambda: lines)
    return PASS


if __name__ == "__main__":
    main()
