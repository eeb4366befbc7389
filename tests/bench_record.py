"""Record one point of the benchmark trajectory: BENCH_<short-sha>.json at the repo root.

Runs `perfbench/run.py` unchanged, one subprocess per run, for every workload at seeds
1108 and 5065 with --seconds 18 --trace 0, one run at a time, and keeps each run's last
stdout line (its result: correct, attempted, failed, metrics) whole. Then it times the
CLI: a fresh interpreter's `import chanent.cli`, best of IMPORT_REPEATS interpreters, and
each command of CLI_COMMANDS after import, all in one further interpreter, through
`cli.main` with its output discarded, best of CLI_REPEATS, by perf_counter and by
process_time. In one more interpreter it hashes the output of each of
tests/cli_digest.py's commands as that script does, and runs each `verify` command again
at --jobs 2 (two workers), recording the report's max_slack and whether the --jobs 2
output hashes the same. Last it runs Tier-1 once (ROADMAP.md's command) and records its
wall time and passed/failed counts. Beside these it records the src/ line counts, total
and non-blank, the host (platform, CPU count, NumPy version) and the commit, with whether
tracked files differ from it. The eight runs take about four minutes, the CLI timings
about two more, the digest pass about two and Tier-1 about one. Like tests/cli_digest.py
it is not collected by pytest.

    python tests/bench_record.py
"""

import contextlib
import io
import json
import os
import platform
import re
import subprocess
import sys
import time
from pathlib import Path

import numpy as np

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("hierarchy", "theorem1", "davies", "scatter-q")
SEEDS = (1108, 5065)
SECONDS = 18
IMPORT_REPEATS = 3
CLI_REPEATS = 5
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


def src_env() -> dict:
    """This environment with this tree's src/ first on PYTHONPATH."""
    path = [str(ROOT / "src"), os.environ.get("PYTHONPATH")]
    return dict(os.environ, PYTHONPATH=os.pathsep.join(p for p in path if p))


def python(code: str) -> str:
    """stdout of a fresh interpreter running code, with this tree's src/ first on its path."""
    return subprocess.run([sys.executable, "-c", code], cwd=ROOT, env=src_env(), check=True, capture_output=True,
                          text=True).stdout


def fresh(expr: str):
    """The value of expr, a JSON value, in a fresh interpreter that has imported this module as b."""
    code = f"import json, sys; sys.path.insert(0, {str(HERE)!r}); import bench_record as b; print(json.dumps({expr}))"
    return json.loads(python(code).strip().splitlines()[-1])


IMPORT_CODE = """
import time
t0 = time.perf_counter()
import chanent.cli
print(time.perf_counter() - t0)
"""


def time_commands(commands, repeats: int) -> list:
    """Best and every wall and CPU time of each command through cli.main, output discarded, in this process.
    A command that exits nonzero raises: its time would not be the command's."""
    from chanent import cli  # from the interpreter that cli_timings starts, with src/ on its path

    out = []
    for argv in commands:
        runs, cpu_runs = [], []
        for _ in range(repeats):
            with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
                t0, c0 = time.perf_counter(), time.process_time()
                code = cli.main(list(argv))
                runs.append(time.perf_counter() - t0)
                cpu_runs.append(time.process_time() - c0)
            if code:
                raise RuntimeError(f"{' '.join(argv)} exited {code}")
        out.append({"argv": list(argv), "best_s": min(runs), "runs_s": runs,
                    "best_cpu_s": min(cpu_runs), "cpu_runs_s": cpu_runs})
    return out


def cli_timings() -> dict:
    """import chanent.cli in fresh interpreters, then CLI_COMMANDS after import in one more."""
    imports = [float(python(IMPORT_CODE)) for _ in range(IMPORT_REPEATS)]
    return {"import_s": min(imports), "import_runs_s": imports, "repeats": CLI_REPEATS,
            "commands": fresh("b.time_commands(b.CLI_COMMANDS, b.CLI_REPEATS)")}


def digests(commands=None) -> list:
    """tests/cli_digest.py's sha256 of each command's output (all of its commands by default), in
    this process. A `verify` row adds the report's max_slack, and the same command at --jobs 2:
    the hash of its output with the config's jobs field read as 1, and whether that is the
    --jobs 1 hash."""
    import cli_digest  # beside this file; it imports chanent

    rows = []
    for argv in cli_digest.commands() if commands is None else commands:
        text = cli_digest.output(argv)
        row = {"argv": argv, "sha256": cli_digest.sha256(text)}
        if argv[0] == "verify":
            two = cli_digest.output(argv + ["--jobs", "2"]).replace('"jobs": 2\n', '"jobs": 1\n')
            row.update(max_slack=json.loads(text)["max_slack"], jobs2_sha256=cli_digest.sha256(two))
            row["jobs2_equal"] = row["jobs2_sha256"] == row["sha256"]
        rows.append(row)
    return rows


def tier1() -> dict:
    """Wall time, exit code and passed/failed counts of one run of ROADMAP.md's Tier-1 command."""
    t0 = time.perf_counter()
    proc = subprocess.run([sys.executable, "-m", "pytest", "-q", "--continue-on-collection-errors"], cwd=ROOT,
                          env=src_env(), capture_output=True, text=True)
    wall = time.perf_counter() - t0
    summary = proc.stdout.strip().splitlines()[-1]
    counts = {kind: int(n) for n, kind in re.findall(r"(\d+) (passed|failed)", summary)}
    return {"wall_s": wall, "returncode": proc.returncode, "summary": summary,
            "passed": counts.get("passed", 0), "failed": counts.get("failed", 0)}


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
    record["digests"] = fresh("b.digests()")
    for row in record["digests"]:
        print(f"{row['sha256']}  {' '.join(row['argv'])}  {row.get('max_slack', '')} {row.get('jobs2_equal', '')}",
              flush=True)
    record["tier1"] = tier1()
    print(record["tier1"]["summary"], flush=True)
    out = ROOT / f"BENCH_{sha}.json"
    out.write_text(json.dumps(record, indent=2) + "\n")
    print(f"wrote {out.name}")


if __name__ == "__main__":
    main()
