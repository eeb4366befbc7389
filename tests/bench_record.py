"""Record one point of the benchmark trajectory: BENCH_<short-sha>.json at the repo root.

Runs `perfbench/run.py` unchanged, one subprocess per run, for every workload at seeds
1108 and 5065 with --seconds 18 --trace 0, one run at a time, and keeps each run's last
stdout line (its result: correct, attempted, failed, metrics) whole. Beside the runs it
records the src/ line counts, total and non-blank, the host (platform, CPU count, NumPy
version) and the commit, with whether tracked files differ from it. The eight runs take
about four minutes. Like tests/cli_digest.py it is not collected by pytest.

    python tests/bench_record.py
"""

import json
import os
import platform
import subprocess
import sys
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
WORKLOADS = ("hierarchy", "theorem1", "davies", "scatter-q")
SEEDS = (1108, 5065)
SECONDS = 18


def git(*args) -> str:
    return subprocess.run(["git", *args], cwd=ROOT, check=True, capture_output=True, text=True).stdout.strip()


def run(workload: str, seed: int) -> dict:
    argv = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
            "--seconds", str(SECONDS), "--trace", "0"]
    proc = subprocess.run(argv, cwd=ROOT, capture_output=True, text=True)
    lines = proc.stdout.strip().splitlines()
    return {"workload": workload, "seed": seed, "returncode": proc.returncode,
            "result": json.loads(lines[-1]) if lines else None}


def src_lines() -> dict:
    lines = [line for path in sorted((ROOT / "src" / "chanent").glob("*.py"))
             for line in path.read_text().splitlines()]
    return {"total": len(lines), "non_blank": sum(1 for line in lines if line.strip())}


def main() -> None:
    sha = git("rev-parse", "--short", "HEAD")
    record = {
        "sha": sha,
        "dirty": bool(git("status", "--porcelain", "--untracked-files=no")),
        "host": {"platform": platform.platform(), "cpu_count": os.cpu_count(), "numpy": np.__version__},
        "src_lines": src_lines(),
        "runs": [],
    }
    for workload in WORKLOADS:
        for seed in SEEDS:
            record["runs"].append(run(workload, seed))
            print(json.dumps(record["runs"][-1]), flush=True)
    out = ROOT / f"BENCH_{sha}.json"
    out.write_text(json.dumps(record, indent=2) + "\n")
    print(f"wrote {out.name}")


if __name__ == "__main__":
    main()
