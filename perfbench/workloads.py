"""The benchmark's workloads: how each one calls the chanent CLI and how its output is checked.

Every workload goes through `chanent.cli.main` with `--jobs 1`, in the calling
process, with stdout and stderr captured. A call is checked fail-closed: an
exception, a non-zero exit, a non-finite number anywhere in the output, or a
malformed output fails every trial of the call.

The CLI prints only aggregates of a verify suite, and `max` over the trials'
slacks drops a NaN that is not the first. So for a verify workload the call
also records every trial's row through `cli._TRIALS`, fails if any slack is
not finite, and adds the per-trial slacks to the output that is compared with
the reference.
"""

from __future__ import annotations

import contextlib
import csv
import io
import json
import importlib
import math
import sys
import traceback
from dataclasses import dataclass, field
from pathlib import Path

DEV_SEED = 1108  # use while writing a change
HOLDOUT_SEED = 5065  # re-check a claim here: inputs not seen while the change was written
REFERENCE_SEEDS = (DEV_SEED, HOLDOUT_SEED)

# Batch i of a run with --seed s calls the CLI with seed s * SEED_STRIDE + i,
# so no two batches of a run share inputs and a run never reuses a cached result.
SEED_STRIDE = 10_000

LN2 = math.log(2.0)


@dataclass(frozen=True)
class Workload:
    name: str
    argv: tuple[str, ...]  # CLI arguments without --trials and --seed
    output: str  # "report" (JSON) or "csv"
    batch_trials: int  # trials per timed batch, about a third of a second of work
    reference_trials: int  # trials per reference call at each reference seed, and per traced pass
    # Reference-gate tolerances, absolute, by output field name; other floats
    # must match to DEFAULT_TOLERANCE and every non-float value exactly.
    tolerance: dict = field(default_factory=dict)
    suite: str | None = None  # the verify suite whose per-trial rows are checked


# Summation order in a batched kernel changes the last digits, never more than this.
DEFAULT_TOLERANCE = 1e-9

WORKLOADS = {
    w.name: w
    for w in (
        # The published-table configuration: the spectral layers, no Channel, no optimizer.
        Workload(
            "hierarchy",
            ("hierarchy", "--k", "3", "--dim", "2", "--ancilla", "3", "--b", repr(math.sqrt(3.0)),
             "--jobs", "1"),
            output="report", batch_trials=150, reference_trials=200,
        ),
        # Theorem-1 chain on mixed shapes: Channel construction and sampling.
        Workload(
            "theorem1",
            ("verify", "--suite", "theorem1", "--k", "4", "--jobs", "1"),
            output="report", batch_trials=300, reference_trials=300, suite="theorem1",
        ),
        # Davies qubit maps: closed-form against grid plus Nelder-Mead minimal output
        # entropy, and semigroup residuals through matrix_exp.
        Workload(
            "davies",
            ("verify", "--suite", "davies", "--jobs", "1"),
            output="report", batch_trials=20, reference_trials=30, suite="davies",
            # The suite's own gate on |s_closed - s_opt|: an exact minimizer may
            # move the gap anywhere below it.
            tolerance={"max_slack": 1e-6, "trial_slacks": 1e-6},
        ),
        # Pauli channels, Renyi-2 minimal output entropy: grid plus Nelder-Mead, CSV output.
        Workload(
            "scatter-q",
            ("figure", "--figure", "scatter-q", "--q", "2", "--jobs", "1"),
            output="csv", batch_trials=40, reference_trials=40,
            # s_min comes from a grid plus Nelder-Mead; an exact minimizer may
            # differ from it by the optimizer's accuracy.
            tolerance={"s_min": 1e-6},
        ),
    )
}


def import_cli():
    """Import `chanent.cli` from this checkout's `src/`, never from an installed copy."""
    src = Path(__file__).resolve().parent.parent / "src"
    sys.path.insert(0, str(src))
    cli = importlib.import_module("chanent.cli")
    if not Path(cli.__file__).resolve().is_relative_to(src):
        raise ImportError(f"chanent imported from {cli.__file__}, not from {src}")
    return cli


def batch_seed(seed: int, index: int) -> int:
    return seed * SEED_STRIDE + index


@dataclass
class Outcome:
    """One CLI call: trials attempted and failed, and its deterministic output."""

    trials: int
    failed: int
    output: object = None  # the report without elapsed_ms, or the CSV rows
    error: str | None = None
    skipped: int = 0  # hierarchy ensembles skipped because H(P) = chi


def _failure(trials: int, error: str) -> Outcome:
    return Outcome(trials=trials, failed=trials, error=error)


def _non_finite(value) -> bool:
    if isinstance(value, float):
        return not math.isfinite(value)
    if isinstance(value, dict):
        return any(_non_finite(v) for v in value.values())
    if isinstance(value, list):
        return any(_non_finite(v) for v in value)
    return False


def call(cli, workload: Workload, trials: int, seed: int) -> Outcome:
    """Run one workload call through `cli.main` and check its output.

    `cli` is the `chanent.cli` module; `main` is looked up on it at call time
    so that a tracer's wrapper is used when one is installed.
    """
    argv = [*workload.argv, "--trials", str(trials), "--seed", str(seed)]
    out, err = io.StringIO(), io.StringIO()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err), \
                _recording_rows(cli, workload.suite) as rows:
            code = cli.main(argv)
    except SystemExit as exc:  # argparse usage error
        return _failure(trials, f"exit {exc.code}: {err.getvalue().strip()}")
    except Exception:  # any defect in the program fails the call, never the benchmark
        return _failure(trials, traceback.format_exc())
    if code != 0:
        return _failure(trials, f"exit {code}")
    try:
        parse = _parse_report if workload.output == "report" else _parse_csv
        outcome = parse(out.getvalue(), trials)
        if workload.suite is not None:
            if len(rows) != trials:
                raise ValueError(f"{len(rows)} trial rows, expected {trials}")
            outcome.output["trial_slacks"] = [float(row["slack"]) for row in rows]
    except (ValueError, KeyError, TypeError) as exc:
        return _failure(trials, f"malformed output: {exc!r}")
    if _non_finite(outcome.output):
        return _failure(trials, "non-finite number in output")
    return outcome


@contextlib.contextmanager
def _recording_rows(cli, suite: str | None):
    """Record every row a verify suite's trial function returns, in order.

    The suite looks its trial function up in `cli._TRIALS` on each call, so
    replacing the entry for the duration of one in-process call sees every row.
    """
    rows = []
    if suite is None:
        yield rows
        return
    trial = cli._TRIALS[suite]

    def recorded(seed, t, params):
        row = trial(seed, t, params)
        rows.append(row)
        return row

    cli._TRIALS[suite] = recorded
    try:
        yield rows
    finally:
        cli._TRIALS[suite] = trial


def _parse_report(text: str, trials: int) -> Outcome:
    report = json.loads(text)
    report.pop("elapsed_ms")
    results = report["results"]
    if results["trials"] != trials:
        raise ValueError(f"report has {results['trials']} trials, expected {trials}")
    skipped = 0
    if "skipped" in results:
        skipped = results["skipped"]
        if results["kept"] + skipped != trials:
            raise ValueError("kept + skipped != trials")
    return Outcome(trials=trials, failed=int(report["violations"]), output=report, skipped=skipped)


def _parse_csv(text: str, trials: int) -> Outcome:
    rows = list(csv.DictReader(io.StringIO(text)))
    if len(rows) != trials:
        raise ValueError(f"{len(rows)} rows, expected {trials}")
    parsed, failed = [], 0
    for t, row in enumerate(rows):
        s_map, s_min = float(row["s_map"]), float(row["s_min"])
        if row["tag"] != f"pauli{t}":
            raise ValueError(f"row {t} has tag {row['tag']!r}")
        # Renyi entropies of a qubit output lie in [0, ln 2], of a 4x4 Choi state in [0, ln 4].
        if not (0.0 <= s_min <= LN2 + DEFAULT_TOLERANCE and 0.0 <= s_map <= 2 * LN2 + DEFAULT_TOLERANCE):
            failed += 1
        parsed.append({"s_map": s_map, "s_min": s_min, "q": float(row["q"]), "tag": row["tag"]})
    return Outcome(trials=trials, failed=failed, output=parsed)


def compare(actual, expected, tolerance: dict, path: str = "") -> list[str]:
    """Differences between an output and its reference, as readable strings."""
    if isinstance(expected, dict):
        if not isinstance(actual, dict) or set(actual) != set(expected):
            return [f"{path}: keys differ"]
        return [d for k in expected for d in compare(actual[k], expected[k], tolerance, f"{path}.{k}")]
    if isinstance(expected, list):
        if not isinstance(actual, list) or len(actual) != len(expected):
            return [f"{path}: lengths differ"]
        return [d for i, (a, e) in enumerate(zip(actual, expected))
                for d in compare(a, e, tolerance, f"{path}[{i}]")]
    if isinstance(expected, float) and isinstance(actual, (int, float)) and not isinstance(actual, bool):
        tol = tolerance.get(path.rsplit(".", 1)[-1].split("[")[0], DEFAULT_TOLERANCE)
        if abs(actual - expected) <= tol:
            return []
        return [f"{path}: {actual!r} vs reference {expected!r} (tolerance {tol:g})"]
    if type(actual) is not type(expected) or actual != expected:
        return [f"{path}: {actual!r} vs reference {expected!r}"]
    return []
