"""Regenerate reference.json: the certified values of every workload's
`certify` and `train` commands, one pass per seed in REFERENCE_SEEDS, at the
commit this runs on.

    python3 perfbench/make_reference.py

Run it only on a commit whose certificates are known good; the benchmark
fails any later run whose certified values leave these by more than
checks.REFERENCE_RTOL.  The file is rebuilt from scratch, so every value in
it comes from the same commit.  `attack` and `verify` are left out: their
certificates are the same computation as `certify`, and their other numbers
are checked by their own verdicts.
"""

from __future__ import annotations

import json
import shutil
import sys

import run  # sets the BLAS thread pins before numpy loads
import checks
import workloads

REFERENCE_VERBS = ("certify", "train")


def main() -> int:
    cli = run._import_wasslip()
    work = run.ROOT / ".perfbench_work" / "reference"
    reference = {}
    try:
        for name in sorted(workloads.WORKLOADS):
            plan = workloads.plan_for(name, "full")
            plan = workloads.Plan(plan.datasets, tuple(c for c in plan.commands if c.verb in REFERENCE_VERBS))
            configs = workloads.write_inputs(cli, plan, run.REFERENCE_SEEDS, work)
            table = reference[name] = {}
            for seed in run.REFERENCE_SEEDS:
                bench = run.Run(cli, plan, {})
                bench.run_pass(seed, work / str(seed), configs[seed])
                if bench.failures:
                    print(f"{name} seed {seed}: {bench.failures}", file=sys.stderr)
                    return 1
                out = work / str(seed) / "out"
                table[str(seed)] = {c.cid: checks.certified_values(c.verb, out / c.cid) for c in plan.commands}
                print(f"{name} seed {seed}: {table[str(seed)]}", flush=True)
            shutil.rmtree(work, ignore_errors=True)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    (run.HERE / "reference.json").write_text(json.dumps(reference, indent=1, sort_keys=True) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
