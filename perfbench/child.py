"""The benchmark's measured process: one closed-loop client driving
``credence.cli.main`` in-process, one command at a time.

    python3 perfbench/child.py setup WORK_DIR
    python3 perfbench/child.py run WORK_DIR --seconds S --trace 0|1 --out FILE

``setup`` times, in a fresh interpreter, the import of ``credence.cli``
plus one ``files.load_session`` of each generated session, and prints
the seconds and the median time of reference loops run just before and
after.  ``run`` first runs the fixture gate, then runs the plan's
ops in order (cycling) until ``S`` seconds of op time have passed.  It
saves each op's first output, and any repeat whose bytes differ, under
``FILE`` with suffix ``.outputs`` for ``verdicts.py`` to check, and
writes per-op timings, the peak resident memory after the first pass
over the plan and (traced) the layer aggregates to ``FILE``.  Untraced,
a fixed reference loop is timed after every command, so that ``run.py``
can tell how fast the host ran around each one.  With
``--trace 1`` every op runs twice in a row, untraced then traced, so the
tracing overhead is measured on the same ops.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import os
import resource
import statistics
import sys
import time
from fractions import Fraction
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
FIXTURES = ROOT / "fixtures"
HERE = Path(__file__).resolve().parent
# iterations of the reference loop timed after every command (about 1 ms)
REFERENCE_ITER = 400
# reference loops timed before and again after a set-up measurement
SETUP_REFERENCES = 5


def fraction_loop(n: int) -> float:
    """Seconds for a fixed pure-Python loop of exact-rational arithmetic
    and dict churn, the kind of work credence does."""
    start = time.perf_counter()
    table = {}
    for i in range(1, n):
        table[i % 997] = table.get(i % 991, Fraction(0)) + Fraction(i % 89, i % 97 + 1)
    return time.perf_counter() - start


def calibrate() -> float:
    """The calibration loop, timed in the measured process before and
    after its ops; recorded only."""
    return fraction_loop(30_000)


def import_cli():
    """Import ``credence.cli`` from this checkout's sources, never from
    an installed copy."""
    sys.path.insert(0, str(SRC))
    import credence
    import credence.cli

    origin = Path(credence.__file__).resolve()
    if SRC.resolve() not in origin.parents:
        raise SystemExit(f"credence imported from {origin}, not from {SRC}")
    return credence.cli


class Client:
    """Runs one CLI command at a time in-process and captures its output.

    The capture buffers are reused: click caches a text wrapper per
    output stream, so a fresh buffer per command would keep every
    command's output alive."""

    def __init__(self, main):
        self.main = main
        self.out = io.StringIO()
        self.err = io.StringIO()

    def __call__(self, args) -> tuple[int, str, str]:
        """(exit code, stdout, stderr); exceptions other than the
        command's own exit propagate."""
        for buf in (self.out, self.err):
            buf.seek(0)
            buf.truncate()
        code = 0
        with contextlib.redirect_stdout(self.out), contextlib.redirect_stderr(self.err):
            try:
                self.main.main(args=["--format", "json", *args], prog_name="credence",
                               standalone_mode=False)
            except SystemExit as e:
                code = e.code if isinstance(e.code, int) else 1
        return code, self.out.getvalue(), self.err.getvalue()


# -- fixture gate ---------------------------------------------------------------


def _has(*fragments):
    return lambda out, err: all(f in out + err for f in fragments)


def _json(check):
    return lambda out, err: check(json.loads(out))


def _reports(payload):
    return {r["axiom"]: r["passed"] for r in payload["reports"]}


GATE_ACT = {"w1": "3", "w2": "4", "w3": "2"}

# (args relative to the fixtures directory, expected exit, check of
# stdout/stderr).  Verdicts follow the README and the acceptance suite.
GATE = [
    (["check", "linda/session.json"], 1, _json(lambda p: _reports(p)["I"] is False)),
    (["check", "linda/session.json", "i"], 1, _has("(t & f)")),
    (["check", "linda/session.json", "nt"], 0, None),
    (["identify", "linda/session.json"], 1, _json(lambda p: any(
        v["antecedent"] == "(t & f)" and v["consequent"] == "t" and not v["understood"]
        and v["margin"] == "-1/4" for v in p["verdicts"]))),
    (["build", "linda/session.json", "product"], 0, None),
    (["build", "linda/session.json", "canonical-sound"], 0, None),
    (["build", "linda/session.json", "interval-additive"], 1, _has("axiom I")),
    (["build", "linda/session.json", "additive-sound"], 1, None),
    (["build", "linda/session.json", "belief-lift", "--model", "model2"], 1,
     _has("not a belief function")),
    (["mobius", "linda/session.json", "--model", "model1"], 0,
     _json(lambda p: p["values"] == {"w1": "1/2", "w2": "1/4", "w3": "1/4"})),
    (["check", "voting/session.json"], 1, _json(lambda p: _reports(p) == {
        "NT": True, "E": True, "I": True, "IE": True, "A": True, "S-I": False})),
    (["check", "voting/session.json", "s-i"], 1, None),
    (["identify", "voting/session.json"], 0, _json(lambda p: (
        p["largest_subtheory"]["generators"] == ["(r <-> !b)"]
        and p["largest_subtheory"]["unique"] is True
        and p["largest_subtheory"]["verified"] is True))),
    (["build", "voting/session.json", "product"], 0, None),
    (["build", "voting/session.json", "canonical-sound"], 0, None),
    (["build", "voting/session.json", "interval-additive"], 0, None),
    (["build", "voting/session.json", "additive-sound"], 1, None),
    (["check", "certainty/session.json", "i"], 0, None),
    (["check", "certainty/session.json", "ie"], 1, _json(lambda p: any(
        v["formulas"] == ["(p | q)", "p", "q"] for v in p["reports"][0]["violations"]))),
    (["identify", "certainty/session.json"], 1,
     _json(lambda p: "refused" in p["certainty_subtheory"])),
    (["build", "certainty/session.json", "product"], 0, None),
    (["build", "certainty/session.json", "interval-additive"], 0, None),
    (["build", "strategies/session-maps.json", "belief-lift", "--model", "capacity"], 0,
     _has("likelihoods preserved")),
    (["mobius", "strategies/session-maps.json", "--model", "capacity"], 0,
     _json(lambda p: p["values"]["w1|w2|w3"] == "1/3")),
    (["mobius", "strategies/session-maps.json", "--model", "exact", "--invert"], 0,
     _json(lambda p: p["values"]["w1|w2"] == "2/3")),
    (["choquet", "strategies/session-maps.json", "--model", "capacity", "--act", "{act}"], 0,
     _json(lambda p: p["value"] == "7/3")),
    (["rationalize", "strategies/session-rationalize.json"], 0, _json(lambda p: (
        p["rationalizable"] and p["verified"]
        and p["choquet_values"] == {"s1": "1/4", "s2": "1/4", "s3": "1/3"}))),
    (["rationalize", "strategies/session-rationalize.json", "--additive-only"], 1,
     _json(lambda p: p["epsilon"] == "1/6" and p["dominating_mixture"] == {
         "s1": "1/2", "s2": "1/2", "s3": "0"})),
    (["rationalize", "strategies/session-rationalize.json", "--choice", "s1"], 0, None),
    (["rationalize", "strategies/session-rationalize.json", "--choice", "nope"], 2, None),
]


def fixture_gate(invoke: Client, work: Path) -> list[str]:
    """Every CLI command on the five fixture sessions; returns failures."""
    act = work / "gate-act.json"
    act.write_text(json.dumps(GATE_ACT))
    failures = []
    for args, want, check in GATE:
        argv = [str(act) if a == "{act}" else
                str(FIXTURES / a) if a.endswith(".json") else a for a in args]
        label = " ".join(args)
        try:
            code, out, err = invoke(argv)
            ok = code == want and (check is None or check(out, err))
        except Exception as e:  # a gate entry that crashes is a failed entry
            failures.append(f"{label}: raised {type(e).__name__}: {e}")
            continue
        if not ok:
            failures.append(f"{label}: exit {code} (expected {want}) or wrong verdict")
    return failures


# -- modes -------------------------------------------------------------------------


def session_files(work: Path, session: str) -> list[Path]:
    data = json.loads((work / session).read_text())
    paths = [work / session]
    for key in ("assessment", "theory", "strategies"):
        if key in data:
            paths.append(work / data[key])
    paths.extend(work / p for p in data.get("models", {}).values())
    return paths


def setup_mode(work: Path):
    plan = json.loads((work / "plan.json").read_text())
    sessions = [work / s for s in plan["sessions"]]
    references = [fraction_loop(REFERENCE_ITER) for _ in range(SETUP_REFERENCES)]
    start = time.perf_counter()
    cli = import_cli()
    for s in sessions:
        cli.files.load_session(s)
    seconds = time.perf_counter() - start
    references += [fraction_loop(REFERENCE_ITER) for _ in range(SETUP_REFERENCES)]
    print(repr(seconds), repr(statistics.median(references)))


def run_mode(work: Path, seconds: float, traced: bool, out_file: Path):
    invoke = Client(import_cli().main)
    gate_failures = fixture_gate(invoke, work)
    plan = json.loads((work / "plan.json").read_text())
    ops = plan["ops"]
    input_bytes = {}
    for op in ops:
        if op["session"] not in input_bytes:
            files = session_files(work, op["session"])
            files += [work / a for a in op["args"] if a.endswith("-act.json")]
            input_bytes[op["session"]] = sum(p.stat().st_size for p in files)
    outputs = out_file.with_suffix(".outputs")
    outputs.mkdir(exist_ok=True)

    tracer = None
    if traced:
        from layers import Tracer

        tracer = Tracer()
        tracer.install()

    # peak memory is read after the first pass, so that it covers the
    # same ops however many passes the time allows
    peak_rss_kb = None
    os.chdir(work)
    calibration = [calibrate()]
    first = {}  # op index -> (exit code, output hash)
    changed = []  # (op index, run, exit code) of repeats whose output differs
    raised = {}  # run -> error
    latencies = []
    traced_latencies = []
    op_index = []
    output_bytes = 0
    op_input_bytes = 0
    clock = time.perf_counter
    spent = 0.0
    i = 0
    references = []  # (commands before it, seconds) of the reference loop
    while spent < seconds:
        j = i % len(ops)
        op = ops[j]
        start = clock()
        try:
            code, out, _ = invoke(op["args"])
        except Exception as e:  # an op that raises is a failed op
            code, out = None, ""
            raised[i] = f"raised {type(e).__name__}: {e}"
        elapsed = clock() - start
        spent += elapsed
        latencies.append(elapsed)
        op_index.append(j)
        data = out.encode()
        output_bytes += len(data)
        op_input_bytes += input_bytes[op["session"]]
        if i not in raised:
            seen = (code, hashlib.sha256(data).hexdigest())
            if j not in first:
                first[j] = seen
                (outputs / f"{j}.out").write_text(out)
            elif seen != first[j]:
                changed.append((j, i, code))
                (outputs / f"{j}.r{i}.out").write_text(out)
        if tracer is not None and i not in raised:
            tracer.enable()
            start = clock()
            try:
                traced_out = tracer.call("cli.main", invoke, op["args"])
            finally:
                tracer.disable()
            traced_latencies.append(clock() - start)
            spent += traced_latencies[-1]
            if traced_out[:2] != (code, out):
                raised[i] = "the traced run's output differs from the untraced run's"
        if tracer is None:
            references.append((len(latencies), fraction_loop(REFERENCE_ITER)))
        i += 1
        if i == len(ops):
            peak_rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss

    calibration.append(calibrate())
    result = {
        "calibration_s": calibration,
        "references": references,
        "outputs": outputs.name,
        "gate_failures": gate_failures,
        "latencies": latencies,
        "op_index": op_index,
        "first": {j: code for j, (code, _) in first.items()},
        "changed": changed,
        "raised": raised,
        "attempted": len(latencies),
        "output_bytes": output_bytes,
        "input_bytes": op_input_bytes,
        "peak_rss_kb": peak_rss_kb or resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
    }
    if tracer is not None:
        result["trace"] = {
            "traced_latencies": traced_latencies,
            "self_s": dict(tracer.self_s),
            "calls": dict(tracer.calls),
            "counts": dict(tracer.counts),
        }
    out_file.write_text(json.dumps(result))


def main(argv=None):
    parser = argparse.ArgumentParser()
    parser.add_argument("mode", choices=["setup", "run"])
    parser.add_argument("work", type=Path)
    parser.add_argument("--seconds", type=float, default=1.0)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--out", type=Path)
    args = parser.parse_args(argv)
    if args.mode == "setup":
        setup_mode(args.work.resolve())
    else:
        run_mode(args.work.resolve(), args.seconds, bool(args.trace), args.out.resolve())


if __name__ == "__main__":
    main()
