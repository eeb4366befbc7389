"""The chanent benchmark: one workload, one run, one JSON result line.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload hierarchy --seed 1108 --seconds 18 --trace 0

Every run first passes the reference gate: each workload's CLI call at the two
recorded seeds must reproduce `reference.json`, recorded from the code this
benchmark was written against, within the workload's stated tolerances.

--trace 0 measures the end-to-end metrics, with tracing off:
- setup_s: median over fresh interpreters of `import chanent` plus the
  workload's first call (setup_probe.py);
- trials_per_s: closed loop, one process, batches of distinct inputs drawn
  from --seed for --seconds; the median over batches of trials per second;
- peak_rss_mb: peak resident memory of this process.
Times are calibrated: see calibration.py.

--trace 1 measures the per-layer metrics: the same inputs run alternately
untraced and traced (tracing.py) for --seconds, at least twice each. The
self-test requires every traced pass to repeat the first one's counts
exactly and to return the untraced output exactly.

The last line of stdout is {"correct", "attempted", "failed", "metrics"}; the
line before it holds details: quartiles and sample counts, the context
record, and every failure found. A trial fails if the CLI reports it as a
violation; every trial of a call fails if the call raises, exits non-zero,
or prints a non-finite or malformed output; every trial of the run fails if
the reference gate or the self-test fails.
"""

from __future__ import annotations

import argparse
import ctypes
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

import calibration
import tracing
import workloads
from workloads import WORKLOADS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SETUP_PROBES = 7
MIN_TRACE_PAIRS = 2

# Per-function counts the ROADMAP items point at: metric name -> tracer key.
CALL_COUNTS = {
    "states.root_fidelity.calls_per_trial": "states.root_fidelity",
    "matfun.psd_sqrt.calls_per_trial": "matfun.psd_sqrt",
    "entropy.vn_entropy.calls_per_trial": "entropy.vn_entropy",
    "linalg.eigh.calls_per_trial": "linalg.eigh",
    "linalg.eigvalsh.calls_per_trial": "linalg.eigvalsh",
    "linalg.svd.calls_per_trial": "linalg.svd",
    "channels.Channel.calls_per_trial": "channels.Channel",
    "channels.apply.calls_per_trial": "channels.Channel.apply",
    "sampling.stream_rng.calls_per_trial": "sampling.stream_rng",
}


def _quartiles(values: list[float]) -> dict:
    q1, median, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else values * 3
    return {"median": median, "q1": q1, "q3": q3, "n": len(values)}


def _metric(value: float, unit: str) -> dict:
    return {"value": value, "unit": unit}


# -- context record (informational) --------------------------------------------


def _blas_threads() -> int | None:
    import numpy

    libs = sorted((Path(numpy.__file__).parent.parent / "numpy.libs").glob("*openblas*.so*"))
    for path in libs:
        try:
            lib = ctypes.CDLL(str(path))
        except OSError:
            continue
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def _commit() -> str | None:
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent))
    try:
        done = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, env=env, capture_output=True,
                              text=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return done.stdout.strip() if done.returncode == 0 else None


def context_record() -> dict:
    import numpy
    import scipy

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    src_lines = sum(len(p.read_text().splitlines()) for p in sorted((ROOT / "src").rglob("*.py")))
    return {
        "nproc": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": _blas_threads(),
        "commit": _commit(),
        "src_lines": src_lines,
    }


# -- the three sections of a run -------------------------------------------------


def reference_gate(cli, workload) -> list[str]:
    """Differences from the recorded reference outputs; empty when the gate passes."""
    recorded = json.loads((HERE / "reference.json").read_text())["workloads"][workload.name]
    problems = []
    for seed in workloads.REFERENCE_SEEDS:
        outcome = workloads.call(cli, workload, recorded["trials"], seed)
        if outcome.error or outcome.failed:
            problems.append(f"seed {seed}: {outcome.failed} failed trials {outcome.error or ''}")
            continue
        diffs = workloads.compare(outcome.output, recorded["outputs"][str(seed)], workload.tolerance)
        problems += [f"seed {seed}: {d}" for d in diffs]
    return problems


def setup_times(workload) -> tuple[list[float], list[float], list[str]]:
    """Raw and calibrated seconds of each set-up probe, and any probe failures.

    Each probe is calibrated by the compile slices its own interpreter ran.
    """
    raw, calibrated, problems = [], [], []
    for _ in range(SETUP_PROBES):
        done = subprocess.run([sys.executable, str(HERE / "setup_probe.py"), workload.name], cwd=ROOT,
                              capture_output=True, text=True, timeout=170)
        if done.returncode != 0:
            raise RuntimeError(f"setup probe failed:\n{done.stderr}")
        probe = json.loads(done.stdout.strip().splitlines()[-1])
        raw.append(probe["setup_s"])
        scale = (probe["slice_s"] / calibration.COMPILE_REFERENCE_S) ** calibration.SETUP_ELASTICITY
        calibrated.append(probe["setup_s"] / scale)
        if not probe["ok"]:
            problems.append(f"setup probe: {probe['error']}")
    return raw, calibrated, problems


def timed_run(cli, workload, seed: int, seconds: float) -> dict:
    raw, slices, attempted, failed, errors = [], [calibration.slice_s()], 0, 0, []
    start = time.perf_counter()
    while time.perf_counter() - start < seconds:
        t0 = time.perf_counter()
        outcome = workloads.call(cli, workload, workload.batch_trials, workloads.batch_seed(seed, len(raw)))
        raw.append(outcome.trials / (time.perf_counter() - t0))
        slices.append(calibration.slice_s())
        attempted += outcome.trials
        failed += outcome.failed
        if outcome.error:
            errors.append(f"batch {len(raw) - 1}: {outcome.error}")
    return {"raw": raw, "rates": [r * scale for r, scale in zip(raw, calibration.scales(slices))],
            "calibration_s": slices, "attempted": attempted, "failed": failed, "errors": errors,
            "self_test": [], "elapsed_s": time.perf_counter() - start}


def traced_run(cli, workload, seed: int, seconds: float) -> dict:
    trials = workload.reference_trials
    cli_seed = workloads.batch_seed(seed, 0)
    seconds_per_pass, slices, tracers, errors, self_test = [], [calibration.slice_s()], [], [], []
    attempted = failed = skipped = 0
    start = time.perf_counter()
    while len(tracers) < MIN_TRACE_PAIRS or time.perf_counter() - start < seconds:
        t0 = time.perf_counter()
        plain = workloads.call(cli, workload, trials, cli_seed)
        seconds_per_pass.append(time.perf_counter() - t0)
        slices.append(calibration.slice_s())
        tracer = tracing.Tracer()
        with tracer.installed():
            t0 = time.perf_counter()
            traced = workloads.call(cli, workload, trials, cli_seed)
            seconds_per_pass.append(time.perf_counter() - t0)
        slices.append(calibration.slice_s())
        tracers.append(tracer)
        for outcome in (plain, traced):
            attempted += outcome.trials
            failed += outcome.failed
            skipped += outcome.skipped
            if outcome.error:
                errors.append(f"pass {len(tracers)}: {outcome.error}")
        if traced.output != plain.output:
            self_test.append(f"pass {len(tracers)}: traced output differs from untraced output")
        if tracer.counts() != tracers[0].counts():
            self_test.append(f"pass {len(tracers)}: counts differ from the first traced pass")
    scales = calibration.scales(slices)  # alternating: untraced pass, traced pass
    return {"tracers": tracers, "traced_scales": scales[1::2],
            "overheads": [(t / st) / (p / sp) for p, sp, t, st in
                          zip(seconds_per_pass[::2], scales[::2], seconds_per_pass[1::2], scales[1::2])],
            "attempted": attempted, "failed": failed, "skipped": skipped, "errors": errors,
            "self_test": self_test}


def layer_metrics(run: dict, trials: int) -> dict:
    """Per-layer metrics; times are calibrated like the end-to-end ones."""
    tracers, scales = run["tracers"], run["traced_scales"]
    first = tracers[0]
    passes = len(tracers)
    self_s = {layer: sum(t.self_s[layer] / sc for t, sc in zip(tracers, scales)) / passes
              for layer in tracing.LAYERS}
    total_s = sum(self_s.values())
    metrics = {}
    for layer in tracing.LAYERS:
        metrics[f"{layer}.calls_per_trial"] = _metric(first.layer_calls[layer] / trials, "count")
        metrics[f"{layer}.self_ms_per_trial"] = _metric(1000 * self_s[layer] / trials, "ms")
        metrics[f"{layer}.self_share"] = _metric(self_s[layer] / total_s, "ratio")
    for name, key in CALL_COUNTS.items():
        metrics[name] = _metric(first.calls[key] / trials, "count")
    key = "qubit.min_output_entropy"
    calls = sum(t.calls[key] for t in tracers)
    inclusive = sum(t.inclusive_s[key] / sc for t, sc in zip(tracers, scales))
    metrics[f"{key}.ms_per_call"] = _metric(1000 * inclusive / calls if calls else 0.0, "ms")
    minimize_calls = first.calls["optimize.minimize"]
    metrics["linalg.matrices_per_call"] = _metric(
        first.matrices / first.lapack_calls if first.lapack_calls else 0.0, "count")
    metrics["optimize.nfev_per_trial"] = _metric(first.nfev / trials, "count")
    metrics["optimize.unconverged_share"] = _metric(
        first.unconverged / minimize_calls if minimize_calls else 0.0, "ratio")
    metrics["bounds.skipped_share"] = _metric(run["skipped"] / run["attempted"], "ratio")
    metrics["trace.overhead"] = _metric(statistics.median(run["overheads"]), "ratio")
    metrics["failed_share"] = _metric(run["failed"] / run["attempted"], "ratio")
    return metrics


# -- entry point -----------------------------------------------------------------


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be non-negative and --seconds positive")

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    cli = workloads.import_cli()

    workload = WORKLOADS[args.workload]
    # Problems that fail every trial of the run: the reference gate, the setup
    # probes' first calls and the self-tests.
    fatal = [f"reference gate: {p}" for p in reference_gate(cli, workload)]
    detail = {"workload": workload.name, "seed": args.seed, "trace": args.trace}

    if args.trace:
        run = traced_run(cli, workload, args.seed, args.seconds)
        metrics = layer_metrics(run, workload.reference_trials)
        detail["trace_pairs"] = len(run["tracers"])
        declared = {m["name"] for m in spec["per_layer"]}
    else:
        setup_raw, setup, setup_problems = setup_times(workload)
        fatal += setup_problems
        run = timed_run(cli, workload, args.seed, args.seconds)
        rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        metrics = {
            "trials_per_s": _metric(statistics.median(run["rates"]), "1/s"),
            "setup_s": _metric(statistics.median(setup), "s"),
            "peak_rss_mb": _metric(rss_mb, "MB"),
        }
        detail["trials_per_s"] = _quartiles(run["rates"])
        detail["raw_trials_per_s"] = _quartiles(run["raw"])
        detail["raw_trials_per_s"]["overall"] = run["attempted"] / run["elapsed_s"]
        detail["setup_s"] = _quartiles(setup)
        detail["raw_setup_s"] = _quartiles(setup_raw)
        detail["calibration_ms"] = _quartiles([1000 * t for t in run["calibration_s"]])
        declared = {m["name"] for m in spec["end_to_end"]}
    fatal += [f"self-test: {p}" for p in run["self_test"]]
    # Self-test: what this run prints is exactly what BENCHMARK.json declares.
    if set(metrics) != declared or workload.name not in {w["name"] for w in spec["workloads"]}:
        fatal.append(f"self-test: names differ from BENCHMARK.json: {sorted(set(metrics) ^ declared)}")

    attempted = run["attempted"]
    failed = attempted if fatal else run["failed"]
    problems = fatal + run["errors"]
    detail["failed_share"] = failed / attempted
    detail["context"] = context_record()
    detail["problems"] = problems[:20]
    for problem in problems:
        print(problem, file=sys.stderr)
    print(json.dumps({"detail": detail}))
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
