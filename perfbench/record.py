"""Record the verdict digest of every op of the default seed into
``digests.json``, which later runs of that seed are checked against.

    python3 perfbench/record.py

Each op runs once, in-process, from this checkout's sources; an op whose
verdict disagrees with what the generator knows aborts the recording.
Re-record only in a change that means to alter a verdict.
"""

from __future__ import annotations

import json
import os
import shutil
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import gen  # noqa: E402
import verdicts  # noqa: E402
from child import Client, import_cli  # noqa: E402

DEFAULT_SEED = 0


def main() -> int:
    invoke = Client(import_cli().main)
    recorded = {}
    home = Path.cwd()
    for workload in sorted(gen.GENERATORS):
        work = HERE.parent / ".perfbench_work" / f"record-{workload}"
        shutil.rmtree(work, ignore_errors=True)
        plan = gen.generate(workload, DEFAULT_SEED, work)
        os.chdir(work)
        hashes = []
        for j, op in enumerate(plan["ops"]):
            code, out, err = invoke(op["args"])
            d = verdicts.digest(code, out)
            errors = verdicts.expectation_errors(op, d)
            if errors:
                print(f"{workload} op {j} {op['args']}: {'; '.join(errors)}\n{err}",
                      file=sys.stderr)
                return 1
            hashes.append(verdicts.digest_hash(d))
        os.chdir(home)
        recorded[f"{workload}:{DEFAULT_SEED}"] = hashes
        print(f"{workload}: {len(hashes)} ops recorded")
    verdicts.DIGESTS.write_text(json.dumps(recorded, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
