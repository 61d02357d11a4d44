"""Records the stdout digest of every operation at the default seed.

    python3 inoubench/record_digests.py

Run once at the commit whose outputs are the reference; run.py then checks
every operation at the default seed against inoubench/digests.json.
"""

from __future__ import annotations

import json
import os
import shutil

import checks
import run
import workloads


def record() -> dict[str, list[str]]:
    main = run.load_program()
    digests = {}
    for name, build in workloads.WORKLOADS.items():
        ops = build(workloads.DEFAULT_SEED)
        workdir = run.OUT / f"record-{os.getpid()}-{name}"
        try:
            argvs = run.materialize(ops, workdir)
            digests[name] = [checks.digest(run.call(main, a)[3]) for a in argvs]
        finally:
            shutil.rmtree(workdir, ignore_errors=True)
    return digests


if __name__ == "__main__":
    path = run.BENCH / "digests.json"
    path.write_text(json.dumps(record(), indent=1) + "\n", encoding="utf-8")
    print(f"wrote {path}")
