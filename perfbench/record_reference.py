"""Record the reference outputs the benchmark's reference gate checks against.

Usage, from the root of a checkout: python3 perfbench/record_reference.py

Runs each workload's reference call at both recorded seeds and writes
perfbench/reference.json. Record only from code whose outputs are known to be
right: every later run is compared with what this writes.
"""

import json
import subprocess
import sys
from pathlib import Path

import workloads

HERE = Path(__file__).resolve().parent


def main() -> int:
    cli = workloads.import_cli()
    commit = subprocess.run(["git", "rev-parse", "--short", "HEAD"], cwd=HERE.parent, capture_output=True,
                            text=True).stdout.strip()
    recorded = {"commit": commit, "seeds": list(workloads.REFERENCE_SEEDS), "workloads": {}}
    for workload in workloads.WORKLOADS.values():
        outputs = {}
        for seed in workloads.REFERENCE_SEEDS:
            outcome = workloads.call(cli, workload, workload.reference_trials, seed)
            if outcome.error or outcome.failed:
                print(f"{workload.name} seed {seed}: {outcome.error or 'violations'}", file=sys.stderr)
                return 1
            outputs[str(seed)] = outcome.output
        recorded["workloads"][workload.name] = {"trials": workload.reference_trials, "outputs": outputs}
    (HERE / "reference.json").write_text(json.dumps(recorded, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
