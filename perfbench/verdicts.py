"""Verdict checks for the benchmark's timed ops.

The measured process only saves each op's first output (and any repeat
whose bytes differ); this module, run in the parent process, reads them
back so that parsing reports never adds to the measured memory.

Each verdict is reduced to a digest of stable semantic fields: the exit
code, ``passed`` and the violation count per axiom, certificate ``ok``
flags, whether each sub-theory is unique and, when it is, its
generators, rationalizability and its exact epsilon, and exact Mobius
masses and Choquet values.  Listings, non-unique witnesses, mixtures
and any stats block are left out.  A digest is checked against what the
generator knows by construction, and for a seed listed in
``digests.json`` against the digest recorded there.
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path

DIGESTS = Path(__file__).resolve().parent / "digests.json"


def listing_count(listing) -> int:
    """Length of a listing, or its total when the listing is bounded."""
    if isinstance(listing, dict):
        return int(listing["total"])
    return len(listing)


def digest(code: int, stdout: str) -> dict:
    out = {"exit": code}
    if not stdout.strip():
        return out
    payload = json.loads(stdout)
    command = payload.get("command")
    if command == "check":
        out["reports"] = [
            [r["axiom"], r["passed"], listing_count(r["violations"])] for r in payload["reports"]
        ]
    elif command == "build":
        out["construction"] = payload["construction"]
        out["certificate"] = [[c["name"], c["ok"]] for c in payload["certificate"]]
    elif command == "identify":
        for key in ("largest_subtheory", "certainty_subtheory"):
            sub = payload.get(key)
            if sub is None:
                continue
            if "refused" in sub:
                out[key] = "refused"
            else:
                # a non-unique sub-theory's generators are one witness
                # picked by a tie-break, so they stay out
                out[key] = [sorted(sub["generators"]) if sub["unique"] else None, sub["unique"]]
    elif command == "rationalize":
        out["rationalizable"] = payload["rationalizable"]
        out["epsilon"] = payload["epsilon"]
    elif command == "mobius":
        out["values"] = payload["values"]
    elif command == "choquet":
        out["value"] = payload["value"]
    return out


def digest_hash(d: dict) -> str:
    return hashlib.sha256(json.dumps(d, sort_keys=True).encode()).hexdigest()[:16]


def expectation_errors(op: dict, d: dict) -> list[str]:
    """Disagreements with what the generator knows by construction."""
    errors = []
    expect = op.get("expect", {})
    code = d["exit"]
    if code not in (0, 1):
        errors.append(f"exit {code}")
    if "exit" in expect and code != expect["exit"]:
        errors.append(f"exit {code}, expected {expect['exit']}")
    if "axioms" in expect:
        passed = {a.lower(): p for a, p, _ in d.get("reports", [])}
        for axiom, holds in expect["axioms"].items():
            if passed.get(axiom) != holds:
                errors.append(f"axiom {axiom}: passed={passed.get(axiom)}, expected {holds}")
        if code != (0 if passed and all(passed.values()) else 1):
            errors.append(f"exit {code} disagrees with the reports")
    if "rationalizable" in expect:
        if d.get("rationalizable") != expect["rationalizable"]:
            errors.append(
                f"rationalizable={d.get('rationalizable')}, expected {expect['rationalizable']}")
        if code != (0 if d.get("rationalizable") else 1):
            errors.append(f"exit {code} disagrees with the verdict")
    if "unique" in expect:
        if d.get("largest_subtheory") in (None, "refused"):
            errors.append("largest sub-theory refused")
        elif d["largest_subtheory"][1] != expect["unique"]:
            errors.append(f"largest sub-theory unique={d['largest_subtheory'][1]}, "
                          f"expected {expect['unique']}")
        if d.get("certainty_subtheory") in (None, "refused"):
            errors.append("certainty sub-theory refused")
    if "mobius" in expect and d.get("values") != expect["mobius"]:
        errors.append("mobius masses differ from the generator's")
    if "choquet" in expect and d.get("value") != expect["choquet"]:
        errors.append(f"choquet {d.get('value')}, expected {expect['choquet']}")
    return errors


def recorded_digests(plan: dict) -> list[str] | None:
    if plan["tiny"] or not DIGESTS.exists():
        return None
    return json.loads(DIGESTS.read_text()).get(f"{plan['workload']}:{plan['seed']}")


def check_run(work: Path, plan: dict, result: dict) -> tuple[list[dict], list]:
    """Failures of a run's ops and the digest of every op that ran.

    An op fails when it raised, exited with anything but 0 or 1, or its
    verdict disagrees with the generator, the recorded digest, or its
    own first run."""
    ops = plan["ops"]
    recorded = recorded_digests(plan)
    problems = []
    if recorded is not None and len(recorded) != len(ops):
        problems.append({"op": None, "error": "recorded digests do not match the plan"})
        recorded = None
    digests = [None] * len(ops)
    outputs = work / result["outputs"]
    bad = {}
    for j, code in result["first"].items():
        j = int(j)
        if code not in (0, 1):
            bad[j] = f"exit {code}"
            continue
        try:
            d = digest(code, (outputs / f"{j}.out").read_text())
        except (ValueError, KeyError, TypeError) as e:
            bad[j] = f"unreadable report: {type(e).__name__}: {e}"
            continue
        digests[j] = digest_hash(d)
        errors = expectation_errors(ops[j], d)
        if recorded is not None and recorded[j] != digests[j]:
            errors.append(f"digest {digests[j]} differs from the recorded {recorded[j]}")
        if errors:
            bad[j] = "; ".join(errors)
    for j, i, code in result["changed"]:
        out = (outputs / f"{j}.r{i}.out").read_text()
        if code not in (0, 1) or digest_hash(digest(code, out)) != digests[j]:
            bad.setdefault(j, f"verdict of run {i} differs from the first run")
    failures = list(problems)
    for i, j in enumerate(result["op_index"]):
        error = result["raised"].get(str(i)) or bad.get(j)
        if error:
            failures.append({"op": j, "run": i, "args": ops[j]["args"], "error": error})
    return failures, digests
