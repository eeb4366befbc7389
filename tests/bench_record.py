"""Record one point of the benchmark trajectory: BENCH_<short-sha>.json at the repo root.

Runs `perfbench/run.py` unchanged, one subprocess per run, for every workload at seeds
1108 and 5065 with --seconds 18 --trace 0, one run at a time, and keeps each run's last
stdout line (its result: correct, attempted, failed, metrics) whole. Then it times the
CLI: a fresh interpreter's `import chanent.cli`, best of IMPORT_REPEATS interpreters, and
each command of CLI_COMMANDS after import, all in one further interpreter, through
`cli.main` with its output discarded, best of CLI_REPEATS, by perf_counter. Beside these it
records the src/ line counts, total and non-blank, the host (platform, CPU count, NumPy
version) and the commit, with whether tracked files differ from it. The eight runs take
about four minutes and the CLI timings about one more. Like tests/cli_digest.py it is
not collected by pytest.

    python tests/bench_record.py
"""

import contextlib
import io
import json
import os
import platform
import subprocess
import sys
import time
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
WORKLOADS = ("hierarchy", "theorem1", "davies", "scatter-q")
SEEDS = (1108, 5065)
SECONDS = 18
IMPORT_REPEATS = 3
CLI_REPEATS = 2
# The commands of ROADMAP's CLI table: seed 42, one job, dim 2 unless a --dim is given.
CLI_COMMANDS = tuple(argv + ["--seed", "42", "--jobs", "1"] for argv in (
    ["hierarchy", "--trials", "10000"],
    ["verify", "--suite", "theorem1", "--trials", "10000"],
    ["verify", "--suite", "conjecture1", "--trials", "10000"],
    ["verify", "--suite", "conjecture1", "--trials", "10000", "--dim", "3"],
    ["verify", "--suite", "davies", "--trials", "200"],
    ["verify", "--suite", "multiplicativity", "--trials", "50"],
    ["verify", "--suite", "props", "--trials", "10000"],
    ["verify", "--suite", "props", "--trials", "10000", "--dim", "3"],
    ["verify", "--suite", "sandwich", "--trials", "10000"],
    ["verify", "--suite", "sandwich", "--trials", "10000", "--dim", "3"],
    ["verify", "--suite", "lindblad", "--trials", "10000"],
    ["verify", "--suite", "lindblad", "--trials", "10000", "--dim", "3"],
    ["figure", "--figure", "davies-qutrit-set", "--resolution", "50"],
    ["figure", "--figure", "scatter-q", "--trials", "10000"],
))


def git(*args) -> str:
    return subprocess.run(["git", *args], cwd=ROOT, check=True, capture_output=True, text=True).stdout.strip()


def run(workload: str, seed: int) -> dict:
    argv = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
            "--seconds", str(SECONDS), "--trace", "0"]
    proc = subprocess.run(argv, cwd=ROOT, capture_output=True, text=True)
    lines = proc.stdout.strip().splitlines()
    return {"workload": workload, "seed": seed, "returncode": proc.returncode,
            "result": json.loads(lines[-1]) if lines else None}


def python(code: str) -> str:
    """stdout of a fresh interpreter running code, with this tree's src/ first on its path."""
    path = [str(ROOT / "src"), os.environ.get("PYTHONPATH")]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(p for p in path if p))
    return subprocess.run([sys.executable, "-c", code], cwd=ROOT, env=env, check=True, capture_output=True,
                          text=True).stdout


IMPORT_CODE = """
import time
t0 = time.perf_counter()
import chanent.cli
print(time.perf_counter() - t0)
"""


def time_commands(commands, repeats: int) -> list:
    """Best and every wall time of each command through cli.main, output discarded, in this process.
    A command that exits nonzero raises: its time would not be the command's."""
    from chanent import cli  # from the interpreter that cli_timings starts, with src/ on its path

    out = []
    for argv in commands:
        runs = []
        for _ in range(repeats):
            with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
                t0 = time.perf_counter()
                code = cli.main(list(argv))
                runs.append(time.perf_counter() - t0)
            if code:
                raise RuntimeError(f"{' '.join(argv)} exited {code}")
        out.append({"argv": list(argv), "best_s": min(runs), "runs_s": runs})
    return out


def cli_timings() -> dict:
    """import chanent.cli in fresh interpreters, then CLI_COMMANDS after import in one more."""
    imports = [float(python(IMPORT_CODE)) for _ in range(IMPORT_REPEATS)]
    code = (f"import json, sys; sys.path.insert(0, {str(Path(__file__).resolve().parent)!r}); "
            f"import bench_record as b; print(json.dumps(b.time_commands(b.CLI_COMMANDS, b.CLI_REPEATS)))")
    return {"import_s": min(imports), "import_runs_s": imports, "repeats": CLI_REPEATS,
            "commands": json.loads(python(code).strip().splitlines()[-1])}


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
    record["cli"] = cli_timings()
    for row in record["cli"]["commands"]:
        print(f"{row['best_s']:8.3f} s  {' '.join(row['argv'])}", flush=True)
    out = ROOT / f"BENCH_{sha}.json"
    out.write_text(json.dumps(record, indent=2) + "\n")
    print(f"wrote {out.name}")


if __name__ == "__main__":
    main()
