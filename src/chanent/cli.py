"""Command-line entry point: property suites, experiment reproduction, figure data.

Every command is a deterministic function of its configuration: trials draw
from per-trial Philox streams keyed by (seed, trial index), so the results
are identical for any --jobs value. The elapsed_ms field of reports is the
one exception to byte-level determinism.

Exit codes: 0 success/no violations, 1 violations found, 2 usage error.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import os
import sys
import time

import numpy as np

from . import bounds, davies, qubit
from .entropy import EntropyOrder
from .sampling import (
    _flat_dirichlet,
    random_channels,
    random_ensembles,
    stream_rng,
    stream_uniforms,
)
from .tolerances import VIOLATION_SLACK

# Suite parameters that run_suite fills in where params leaves them out; --dim and --k default to them
_SUITE_DEFAULTS = {"dim": 2, "k": 3}
SUITES = ("theorem1", "props", "lindblad", "sandwich", "conjecture1", "davies", "multiplicativity")
FIGURES = ("scatter-q", "additivity-region", "bunga-surfaces", "davies-qutrit-set", "davies-qubit-region")

# ---------------------------------------------------------------------------
# suite functions, per-trial ones and stacked ones that evaluate a chunk at once: each
# gives a trial's slack, the largest lhs - rhs of its inequalities (NaN if any term is)

# Kraus counts of the Part-II channels, each drawn as 1 + int(3u) just before its block
_KRAUS = range(1, 4)


def _trial_theorem1(seed: int, t: int, params: dict) -> dict:
    rng = stream_rng(seed, t)
    n = 2 if rng.random() < 0.5 else 3
    k = 1 + int(rng.random() * params["k"])
    rho, phi = random_channels(n, (k,), rng, density=True)
    chi, s_sigma, h_p, _ = bounds.theorem1_check(rho, phi)
    return {"slack": float(np.maximum(chi - s_sigma, s_sigma - h_p))}


def _trial_props(seed: int, t: int, params: dict) -> dict:
    rng = stream_rng(seed, t)
    rho, phi1, phi2 = random_channels(params["dim"], (_KRAUS, _KRAUS), rng, density=True)
    return {"slack": bounds.props_check(rho, phi1, phi2).worst}


def _trial_lindblad(seed: int, t: int, params: dict) -> dict:
    rng = stream_rng(seed, t)
    rho, phi = random_channels(params["dim"], (_KRAUS,), rng, density=True)
    return {"slack": bounds.lindblad_check(rho, phi).worst}


def _trial_sandwich(seed: int, t: int, params: dict) -> dict:
    rng = stream_rng(seed, t)
    phi1, phi2 = random_channels(params["dim"], (_KRAUS, _KRAUS), rng)
    return {"slack": qubit.sandwich_check(phi1, phi2).worst}


def _random_davies(rng) -> davies.DaviesQubit:
    # a <= 0.999 (1 - p) keeps sqrt(1 - a/(1 - p)) >= sqrt(0.001), so c > 0 always
    p = 0.05 + 0.9 * rng.random()
    a = rng.random() * (1.0 - p) * 0.999
    c = (0.001 + 0.998 * rng.random()) * math.sqrt(1.0 - a / (1.0 - p))
    return davies.DaviesQubit(a=a, c=c, p=p)


def _trial_davies(seed: int, t: int, params: dict) -> dict:
    rng = stream_rng(seed, t)
    d = _random_davies(rng)
    phi = davies.qubit_superoperator(d)
    _, s_closed = davies.qubit_minimizer(d)
    s_opt, _ = qubit.min_output_entropy(phi)
    # semigroup property on a random rate triple
    gam = 0.2 + rng.random()
    rel = rng.random() * 2.0 * gam
    rates = davies.DaviesRates(rel, gam, 0.2 + 0.6 * rng.random(), t=0.0)
    res = davies.semigroup_residual(rates, 0.3 + rng.random(), 0.3 + rng.random())
    return {"slack": float(np.maximum(abs(s_closed - s_opt), res))}


def _trial_multiplicativity(seed: int, t: int, params: dict) -> dict:
    rng = stream_rng(seed, t)
    d = _random_davies(rng)
    phi = davies.qubit_superoperator(d)
    (omega,) = random_channels(2, (_KRAUS,), rng)
    m_phi = davies.qubit_max_norm(d)
    m_omega = qubit.max_output_2norm(omega)
    m_joint = qubit.max_output_2norm(phi.tensor(omega), seed=seed + 13 * t + 2)
    return {"slack": abs(m_joint - m_phi * m_omega)}


# Trial t of these suites is _TRIALS[suite](seed, t, params) -> {"slack": float}.
# They stay per-trial until each has a stacked kernel, and the entries of theorem1
# and davies must stay one call per trial, in trial order: the benchmark records
# those suites' per-trial slacks by swapping their entries for recorders.
_TRIALS = {
    "theorem1": _trial_theorem1,
    "props": _trial_props,
    "lindblad": _trial_lindblad,
    "sandwich": _trial_sandwich,
    "davies": _trial_davies,
    "multiplicativity": _trial_multiplicativity,
}


def _stacked_conjecture1(seed: int, start: int, stop: int, params: dict) -> np.ndarray:
    probs, states = random_ensembles(params["k"], params["dim"], seed, start, stop)
    return bounds.conjecture_excess(probs, states)


# Suites whose chunk of trials is drawn and evaluated as one stack, into (B,) slacks.
_STACKED = {"conjecture1": _stacked_conjecture1}


def _in_chunks(chunk, args_of, trials: int, jobs: int) -> dict:
    """The columns of trials [0, trials) in trial order, concatenated from chunk(args_of(start, stop)).

    chunk returns a dict of (stop - start,) arrays. jobs > 1 runs one contiguous chunk per
    worker in a process pool, so chunk and its arguments must pickle; a trial's row never
    depends on its chunk. The pool starts every worker at once, so it never has more workers
    than trials or CPUs. The pool's modules are imported only here, as no other run needs them.
    """
    jobs = min(jobs, trials, os.cpu_count() or 1)
    if jobs <= 1:
        return chunk(args_of(0, trials))
    from concurrent.futures import ProcessPoolExecutor

    edges = np.linspace(0, trials, jobs + 1, dtype=int)
    chunks = [args_of(int(a), int(b)) for a, b in zip(edges[:-1], edges[1:])]
    with ProcessPoolExecutor(max_workers=jobs) as pool:
        parts = list(pool.map(chunk, chunks))
    return {name: np.concatenate([part[name] for part in parts]) for name in parts[0]}


def _run_chunk(args) -> dict:
    """The slack column of trials [start, stop) of a suite."""
    suite, seed, start, stop, params = args
    if suite in _STACKED:
        return {"slack": _STACKED[suite](seed, start, stop, params)}
    fn = _TRIALS[suite]
    return {"slack": np.array([fn(seed, t, params)["slack"] for t in range(start, stop)], dtype=float)}


def run_suite(suite: str, trials: int, seed: int, jobs: int = 1, params: dict | None = None) -> dict:
    """Run a property suite; returns the aggregate report dictionary. A trial is a violation
    unless its slack is a finite number at most VIOLATION_SLACK (NaN and ±inf mean the check
    itself broke), and np.max carries a NaN into max_slack whatever its trial. params
    overrides _SUITE_DEFAULTS."""
    params = {**_SUITE_DEFAULTS, **(params or {})}
    slacks = _in_chunks(_run_chunk, lambda a, b: (suite, seed, a, b, params), trials, jobs)["slack"]
    violations = int(np.count_nonzero(~(np.isfinite(slacks) & (slacks <= VIOLATION_SLACK))))
    max_slack = float(slacks.max()) if len(slacks) else 0.0
    return dict(suite=suite, trials=trials, violations=violations, max_slack=max_slack, seed=seed)


# ---------------------------------------------------------------------------
# hierarchy experiment

_HIERARCHY_FIELDS = ("chi", "s_fid", "s_layered", "s_fid_sq", "s_fid_b", "h_p")


def run_hierarchy(
    trials: int = 10000,
    seed: int = 42,
    b: float = math.sqrt(3.0),
    ancilla: int = 3,
    jobs: int = 1,
) -> dict:
    """Monte Carlo means/stds of the normalized bound hierarchy of k=3 qubit ensembles.

    States are drawn from the induced Hilbert-Schmidt measure with the given
    ancilla dimension (ancilla=3 reproduces the published table; ancilla=2
    is the flat HS measure), probabilities from the flat Dirichlet measure.
    "violations" counts the kept ensembles with chi > S(G), against the
    conjecture chi <= S(G) behind the s_fid column.
    """
    params = {"b": b, "ancilla": ancilla}
    cols = _in_chunks(_hierarchy_chunk, lambda a, c: (seed, a, c, params), trials, jobs)
    kept = cols["kept"]
    # chi and H(P) are the endpoints 0 and 1 of the normalized scale
    cols["chi"], cols["h_p"] = np.zeros(trials), np.ones(trials)
    table = {name: {stat: float(getattr(x, stat)()) for stat in ("mean", "std", "min", "max")}
             for name in _HIERARCHY_FIELDS for x in [cols[name][kept]]}  # one masked copy per field
    n_kept = int(np.count_nonzero(kept))
    return {
        "trials": trials,
        "kept": n_kept,
        "skipped": trials - n_kept,
        "seed": seed,
        "b": b,
        "ancilla": ancilla,
        "table": table,
        "violations": int(np.count_nonzero(cols["conjecture"])),
    }


def _hierarchy_chunk(args) -> dict:
    """Columns of trials [start, stop): one stream per trial, the chunk drawn and evaluated as one stack."""
    seed, start, stop, params = args
    probs, states = random_ensembles(3, 2, seed, start, stop, ancilla=params["ancilla"])
    return bounds.hierarchy_batch(probs, states, b=params["b"])


# ---------------------------------------------------------------------------
# figure data


def _fmt(x) -> str:
    # .12g gives "1"/"0" for bools, the digits of small ints and "nan" for NaN
    return x if isinstance(x, str) else format(x, ".12g")


def _csv(headers, rows) -> str:
    lines = [",".join(headers)]
    for row in rows:
        lines.append(",".join(_fmt(v) for v in row))
    return "\n".join(lines) + "\n"


def figure_scatter_q(q: float, trials: int, seed: int, base: float = math.e) -> str:
    """(S_q^map, S_q^min) of `trials` flat-Dirichlet Pauli channels in closed form.

    Row t is the channel of dirichlet(4, stream_rng(seed, t)), bit for bit:
    all rows are drawn as one `stream_uniforms` block and go through one
    `qubit.pauli_points` call.
    """
    scale = 1.0 if base == math.e else math.log(base)
    s_map, s_min = qubit.pauli_points(_flat_dirichlet(stream_uniforms(seed, 0, trials, 4)), EntropyOrder.renyi(q))
    rows = zip((s_map / scale).tolist(), (s_min / scale).tolist())
    return _csv(["s_map", "s_min", "q", "tag"], [(a, b, q, f"pauli{t}") for t, (a, b) in enumerate(rows)])


def figure_additivity_region(resolution: int, n: int = 2) -> str:
    smax = 2.0 * math.log(n)
    grid = np.linspace(0.0, smax, resolution)
    rows = [(s1, s2, qubit.additivity_region_values(s1, s2, n, n)) for s1 in grid for s2 in grid]
    return _csv(["s1", "s2", "inside"], rows)


def figure_triple_surfaces(resolution: int) -> str:
    rows = []
    for b in np.linspace(1e-3, 1.0, resolution):
        for f in np.linspace(0.5 * (1 - b), 0.5 * (1 + b), resolution):
            chi, s_g, ok = bounds.symmetric_triple_check(f, b)
            rows.append((b, f, chi, s_g, ok))
    return _csv(["b", "F", "chi", "s_g", "ok"], rows)


def figure_davies_qutrit_set(resolution: int) -> tuple[str, str]:
    rows = davies.davies_set_sweep(resolution)
    headers = ["f12", "f13", "f23", "member", "boundary", "l21", "l31", "l32"]
    main = _csv(headers, [[r[h] for h in headers] for r in rows])
    cross = _csv(headers, [[r[h] for h in headers] for r in rows if r["in_cross_section"]])
    return main, cross


def figure_davies_qubit_region(resolution: int, seed: int) -> str:
    """Allowed (a, c) region boundaries for several temperatures plus two
    semigroup paths at p = 0.3."""
    rows = []
    for p in (0.5, 0.3, 0.2, 0.1):
        for a in np.linspace(0.0, (1.0 - p) * 0.999, resolution):
            rows.append(("boundary", p, a, math.sqrt(1.0 - a / (1.0 - p)), math.nan, ""))
    rng = stream_rng(seed, 0)
    for path in range(2):
        gam = 0.5 + rng.random()
        rel = rng.random() * 2.0 * gam
        for t in np.linspace(0.0, 4.0, resolution):
            d = davies.DaviesQubit.from_rates(davies.DaviesRates(rel, gam, 0.3, t))
            rows.append(("path", d.p, d.a, d.c, t, f"path{path}"))
    return _csv(["kind", "p", "a", "c", "t", "tag"], rows)


# ---------------------------------------------------------------------------
# argument handling


@functools.cache  # one parser per process: a build takes about 1 ms, more than some whole commands
def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="chanent",
        description="Quantum-channel entropy experiments: property suites, "
        "the bound hierarchy, and figure data emission.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        # figure ignores --k and --jobs but accepts them, as command lines pass them to every command
        p.add_argument("--seed", type=int, default=42)
        p.add_argument("--trials", type=int, default=None)
        p.add_argument("--dim", type=int, default=_SUITE_DEFAULTS["dim"])
        p.add_argument("--k", type=int, default=_SUITE_DEFAULTS["k"])
        p.add_argument("--output", type=str, default=None)
        p.add_argument("--jobs", type=int, default=1)

    p_verify = sub.add_parser("verify", help="run a property suite")
    p_verify.add_argument("--suite", required=True, choices=SUITES)
    common(p_verify)

    p_hier = sub.add_parser("hierarchy", help="reproduce the bound-hierarchy table")
    common(p_hier)
    p_hier.add_argument("--b", type=float, default=math.sqrt(3.0))
    p_hier.add_argument("--ancilla", type=int, default=3,
                        help="ancilla dimension of the induced state measure (3 reproduces "
                        "the published table; 2 gives the flat HS measure)")

    p_fig = sub.add_parser("figure", help="emit figure data as CSV")
    p_fig.add_argument("--figure", required=True, choices=FIGURES)
    common(p_fig)
    p_fig.add_argument("--q", type=float, default=2.0)
    p_fig.add_argument("--log-base", choices=("e", "2"), default="e")
    p_fig.add_argument("--format", choices=("json", "csv"), default="csv")
    p_fig.add_argument("--resolution", type=int, default=50)
    return parser


def _emit(text: str, output: str | None) -> None:
    if output:
        with open(output, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _csv_to_json(text: str) -> str:
    import csv as _csv
    import io

    rows = list(_csv.DictReader(io.StringIO(text)))
    return json.dumps(rows, indent=2) + "\n"


def _report(command: str, config: dict, results: dict, violations: int,
            max_slack: float, args, t0: float) -> int:
    """Write the JSON report of a verify or hierarchy run; its exit code is 1 if it found violations."""
    report = dict(command=command, config=config, results=results, violations=violations,
                  max_slack=max_slack, elapsed_ms=int((time.perf_counter() - t0) * 1000), seed=args.seed)
    _emit(json.dumps(report, indent=2) + "\n", args.output)
    return 0 if violations == 0 else 1


def _writable(path: str) -> bool:
    """Whether `path` names a file that can be created or overwritten."""
    parent = os.path.dirname(os.path.abspath(path))
    if os.path.isdir(path) or not os.path.isdir(parent):
        return False
    return os.access(path if os.path.exists(path) else parent, os.W_OK)


# The optimizer-heavy suites default to their stated sizes; every other command to 10 000.
_DEFAULT_TRIALS = {"davies": 200, "multiplicativity": 50}


def _validate(parser: argparse.ArgumentParser, args) -> None:
    """Reject bad parameters as usage errors (exit 2), before any work or output."""
    for name in ("trials", "jobs", "dim", "k"):
        if getattr(args, name) < 1:
            parser.error(f"--{name} must be at least 1")
    if args.command == "figure":
        if args.resolution < 1:
            parser.error("--resolution must be at least 1")
        if not 0 < args.q < math.inf:
            parser.error("--q must be positive and finite")
    if args.output is not None and not _writable(args.output):
        parser.error(f"--output {args.output!r} is not a writable file path")
    if args.command == "hierarchy":
        if args.k != 3 or args.dim != 2:
            parser.error("hierarchy is defined for k=3 qubit ensembles: --k 3 --dim 2")
        if args.ancilla < 1:
            parser.error("--ancilla must be at least 1")
        try:
            bounds.check_b(args.b, args.dim)
        except ValueError as exc:
            parser.error(f"--b: {exc}")
    if (args.command == "verify" and args.suite == "conjecture1"
            and args.k > bounds.CONJECTURE_MAX_K):
        parser.error(f"conjecture1 is stated for --k {bounds.CONJECTURE_MAX_K} or less: "
                     "for more states the root-fidelity matrix can be indefinite")
    if (args.command == "figure" and args.figure == "davies-qutrit-set"
            and args.resolution < davies.MIN_SWEEP_RESOLUTION):
        parser.error(f"davies-qutrit-set needs --resolution {davies.MIN_SWEEP_RESOLUTION} or more")


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    if args.trials is None:
        args.trials = _DEFAULT_TRIALS.get(getattr(args, "suite", None), 10000)
    _validate(parser, args)
    t0 = time.perf_counter()

    if args.command == "verify":
        params = {"dim": args.dim, "k": args.k}
        res = run_suite(args.suite, args.trials, args.seed, jobs=args.jobs, params=params)
        config = {"suite": args.suite, "trials": args.trials, "dim": args.dim, "k": args.k,
                  "jobs": args.jobs}
        return _report("verify", config, res, res["violations"], res["max_slack"], args, t0)

    if args.command == "hierarchy":
        res = run_hierarchy(trials=args.trials, seed=args.seed, b=args.b, ancilla=args.ancilla,
                            jobs=args.jobs)
        # the count is the report's own violations field, not one of the results
        violations = res.pop("violations")
        config = {"trials": args.trials, "k": args.k, "dim": args.dim, "b": args.b,
                  "ancilla": args.ancilla, "jobs": args.jobs}
        code = _report("hierarchy", config, res, violations, 0.0, args, t0)
        if not args.output:
            for name, cell in res["table"].items():
                print(f"# {name:10s} {cell['mean']:8.4f} ± {cell['std']:.4f}", file=sys.stderr)
        return code

    # figures
    base = math.e if args.log_base == "e" else 2.0
    if args.figure == "scatter-q":
        text = figure_scatter_q(args.q, args.trials, args.seed, base=base)
    elif args.figure == "additivity-region":
        text = figure_additivity_region(args.resolution, n=args.dim)
    elif args.figure == "bunga-surfaces":
        text = figure_triple_surfaces(args.resolution)
    elif args.figure == "davies-qutrit-set":
        main_csv, cross_csv = figure_davies_qutrit_set(args.resolution)
        if args.format == "json":
            main_csv, cross_csv = _csv_to_json(main_csv), _csv_to_json(cross_csv)
        if args.output:
            _emit(main_csv, args.output)
            stem, dot, ext = args.output.rpartition(".")
            cross_path = (stem + "_cross." + ext) if dot else args.output + "_cross"
            _emit(cross_csv, cross_path)
        else:
            _emit(main_csv, None)
        return 0
    else:
        text = figure_davies_qubit_region(args.resolution, args.seed)
    if args.format == "json":
        text = _csv_to_json(text)
    _emit(text, args.output)
    return 0


if __name__ == "__main__":
    sys.exit(main())
