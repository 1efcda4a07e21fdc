"""Regenerate the stored references from the current code at the default seed.

    python3 perfbench/make_refs.py

Every default-seed run of the benchmark compares its outputs with these
files, so regenerate them only with a change that is meant to alter outputs,
and say so in that change. Outputs must pass their physics checks first.
"""

from __future__ import annotations

import json
import os
import shutil
import sys

import run


def main() -> int:
    run.import_package()
    import scenarios

    scenarios.REF_DIR.mkdir(exist_ok=True)
    workdir = run.OUT / f"refs-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        for name in run.BENCH_WORKLOADS:
            wl = scenarios.Workload(name, scenarios.WORKLOADS[name](workdir, 0), workdir)
            tally = run.Tally()
            res = run.run_pass(wl, tally)
            if tally.failed:
                print(f"{name}: {tally.failed} ops failed their checks", file=sys.stderr)
                return 1
            for op in wl.ops:
                ref = {k: scenarios.subsample(v)
                       for k, v in op.reference(res["outputs"][op.name]).items()}
                with open(scenarios.REF_DIR / f"{op.name}.json", "w", encoding="utf-8") as f:
                    json.dump(ref, f)
                    f.write("\n")
                print(f"wrote refs/{op.name}.json")
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
