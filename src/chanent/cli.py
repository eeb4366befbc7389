"""Command-line entry point: property suites, experiment reproduction, figure data.

Every command is a deterministic function of its configuration: trials draw
from per-trial Philox streams keyed by (seed, trial index), so the results
are identical for any --jobs value. The elapsed_ms field of reports is the
one exception to byte-level determinism.

Exit codes: 0 success/no violations, 1 violations found, 2 usage error.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
import time
from concurrent.futures import ProcessPoolExecutor

import numpy as np

from . import bounds, davies, qubit
from .channels import map_entropy
from .entropy import vn_entropy
from .sampling import (
    dirichlet,
    hs_random_density,
    random_channel,
    random_ensemble,
    random_ensembles,
    stream_rng,
)
from .tolerances import DAVIES_MINIMIZER_GAP, MULTIPLICATIVITY_GAP, VIOLATION_SLACK

SUITES = ("theorem1", "props", "lindblad", "sandwich", "conjecture1", "davies", "multiplicativity")
FIGURES = ("scatter-q", "additivity-region", "bunga-surfaces", "davies-qutrit-set", "davies-qubit-region")

LN2 = math.log(2.0)


# ---------------------------------------------------------------------------
# per-trial suite functions (top level so process pools can pickle them)


def _trial_theorem1(seed: int, t: int, params: dict) -> dict:
    rng = stream_rng(seed, t)
    n = 2 if rng.random() < 0.5 else 3
    k = 1 + int(rng.random() * params.get("k", 4))
    rho = hs_random_density(n, rng)
    phi = random_channel(n, k, rng)
    chi, s_sigma, h_p, ok = bounds.theorem1_check(rho, phi)
    return {"slack": float(np.max([chi - s_sigma, s_sigma - h_p])), "violation": not ok}


def _trial_props(seed: int, t: int, params: dict) -> dict:
    rng = stream_rng(seed, t)
    n = params.get("dim", 2)
    rho = hs_random_density(n, rng)
    phi1 = random_channel(n, 1 + int(rng.random() * 3), rng)
    phi2 = random_channel(n, 1 + int(rng.random() * 3), rng)
    ok_gain = bounds.info_gain_check(rho, phi1)
    ok3, ok4 = bounds.concat_bound_check(phi1, phi2, rho)
    lower = bounds.composition_map_entropy_lower(phi1, phi2)
    upper = map_entropy(phi2.compose(phi1))
    ok_lower = -VIOLATION_SLACK <= lower <= upper + VIOLATION_SLACK
    bad = not (ok_gain and ok3 and ok4 and ok_lower)
    return {"slack": max(lower - upper, -lower, 0.0), "violation": bad}


def _trial_lindblad(seed: int, t: int, params: dict) -> dict:
    rng = stream_rng(seed, t)
    n = params.get("dim", 2)
    rho = hs_random_density(n, rng)
    phi = random_channel(n, 1 + int(rng.random() * 3), rng)
    rep = bounds.lindblad_check(rho, phi)
    worst = -float(np.min([rep.lower_slack, rep.upper_slack, rep.chi_slack]))
    return {"slack": worst, "violation": worst > VIOLATION_SLACK}


def _trial_sandwich(seed: int, t: int, params: dict) -> dict:
    rng = stream_rng(seed, t)
    n = params.get("dim", 2)
    phi1 = random_channel(n, 1 + int(rng.random() * 3), rng)
    phi2 = random_channel(n, 1 + int(rng.random() * 3), rng)
    rep = qubit.sandwich_check(phi1, phi2)
    worst = -float(np.min([
        rep.middle_vn - rep.lower_vn,
        rep.upper_vn - rep.middle_vn,
        rep.middle_tsallis2 - rep.lower_tsallis2,
        rep.upper_tsallis2 - rep.middle_tsallis2,
        rep.middle_renyi2 - rep.renyi2_lower,
    ]))
    return {"slack": worst, "violation": worst > VIOLATION_SLACK}


def _trial_conjecture1(seed: int, t: int, params: dict) -> dict:
    k = params.get("k", 3)
    if k > bounds.CONJECTURE_MAX_K:
        raise ValueError(
            f"the conjecture is stated for k <= {bounds.CONJECTURE_MAX_K} states, got {k}")
    rng = stream_rng(seed, t)
    e = random_ensemble(k, params.get("dim", 2), rng)
    excess = bounds.holevo(e) - vn_entropy(bounds.fidelity_matrix(e, "G"))
    return {"slack": excess, "violation": excess > VIOLATION_SLACK}


def _random_davies(rng) -> davies.DaviesQubit:
    while True:
        p = 0.05 + 0.9 * rng.random()
        a = rng.random() * (1.0 - p) * 0.999
        cmax = math.sqrt(1.0 - a / (1.0 - p))
        c = (0.001 + 0.998 * rng.random()) * cmax
        if c > 0:
            return davies.DaviesQubit(a=a, c=c, p=p)


def _trial_davies(seed: int, t: int, params: dict) -> dict:
    rng = stream_rng(seed, t)
    d = _random_davies(rng)
    phi = davies.qubit_superoperator(d)
    _, s_closed = davies.qubit_minimizer(d)
    s_opt, _ = qubit.min_output_entropy(phi)
    gap = abs(s_closed - s_opt)
    # semigroup property on a random rate triple
    gam = 0.2 + rng.random()
    rel = rng.random() * 2.0 * gam
    rates = davies.DaviesRates(rel, gam, 0.2 + 0.6 * rng.random(), t=0.0)
    res = davies.semigroup_residual(rates, 0.3 + rng.random(), 0.3 + rng.random())
    # np.max, unlike max, carries a NaN from any position into the slack
    worst = np.max([gap - DAVIES_MINIMIZER_GAP, res - VIOLATION_SLACK, 0.0])
    return {"slack": float(np.max([gap, res])), "violation": bool(worst > 0.0)}


def _trial_multiplicativity(seed: int, t: int, params: dict) -> dict:
    rng = stream_rng(seed, t)
    d = _random_davies(rng)
    phi = davies.qubit_superoperator(d)
    omega = random_channel(2, 1 + int(rng.random() * 3), rng)
    m_phi = davies.qubit_max_norm(d)
    m_omega = qubit.max_output_2norm(omega, seed=seed + 7 * t + 1)
    m_joint = qubit.max_output_2norm(phi.tensor(omega), seed=seed + 13 * t + 2)
    gap = abs(m_joint - m_phi * m_omega)
    return {"slack": gap, "violation": gap > MULTIPLICATIVITY_GAP}


_TRIALS = {
    "theorem1": _trial_theorem1,
    "props": _trial_props,
    "lindblad": _trial_lindblad,
    "sandwich": _trial_sandwich,
    "conjecture1": _trial_conjecture1,
    "davies": _trial_davies,
    "multiplicativity": _trial_multiplicativity,
}


def _in_chunks(chunk, args_of, trials: int, jobs: int) -> list:
    """The rows of trials [0, trials) in trial order, from chunk(args_of(start, stop)).

    jobs > 1 splits the trials into that many contiguous chunks and runs them
    in a process pool, so chunk and its arguments must pickle; a trial's row
    never depends on the chunk it falls in.
    """
    if jobs <= 1:
        return chunk(args_of(0, trials))
    edges = np.linspace(0, trials, jobs + 1, dtype=int)
    chunks = [args_of(int(a), int(b)) for a, b in zip(edges[:-1], edges[1:])]
    with ProcessPoolExecutor(max_workers=jobs) as pool:
        return [row for rows in pool.map(chunk, chunks) for row in rows]


def _run_chunk(args) -> list:
    suite, seed, start, stop, params = args
    fn = _TRIALS[suite]
    return [fn(seed, t, params) for t in range(start, stop)]


def run_suite(suite: str, trials: int, seed: int, jobs: int = 1, params: dict | None = None) -> dict:
    """Run a property suite; returns the aggregate report dictionary."""
    params = params or {}
    rows = _in_chunks(_run_chunk, lambda a, b: (suite, seed, a, b, params), trials, jobs)
    slacks = np.array([r["slack"] for r in rows], dtype=float)
    # a slack that is not finite means the check itself broke: count it as a
    # violation, and let np.max carry a NaN into max_slack whatever its trial
    violations = sum(1 for r, x in zip(rows, slacks) if r["violation"] or not math.isfinite(x))
    max_slack = float(slacks.max()) if rows else 0.0
    return {
        "suite": suite,
        "trials": trials,
        "violations": violations,
        "max_slack": max_slack,
        "seed": seed,
    }


# ---------------------------------------------------------------------------
# hierarchy experiment

_HIERARCHY_FIELDS = ("chi", "s_fid", "s_layered", "s_fid_sq", "s_fid_b", "h_p")


def run_hierarchy(
    trials: int = 10000,
    seed: int = 42,
    k: int = 3,
    dim: int = 2,
    b: float = math.sqrt(3.0),
    ancilla: int = 3,
    jobs: int = 1,
) -> dict:
    """Monte Carlo means/stds of the normalized bound hierarchy.

    States are drawn from the induced Hilbert-Schmidt measure with the given
    ancilla dimension (ancilla=3 reproduces the published table; ancilla=dim
    is the flat HS measure), probabilities from the flat Dirichlet measure.
    "violations" counts the kept ensembles with chi > S(G), against the
    conjecture chi <= S(G) behind the s_fid column.
    """
    params = {"k": k, "dim": dim, "b": b, "ancilla": ancilla}
    rows = _in_chunks(_hierarchy_chunk, lambda a, c: (seed, a, c, params), trials, jobs)
    kept = [r for r in rows if r is not None]
    skipped = len(rows) - len(kept)
    table = {}
    for name in _HIERARCHY_FIELDS:
        vals = np.array([r[name] for r in kept])
        table[name] = {stat: float(getattr(vals, stat)()) for stat in ("mean", "std", "min", "max")}
    return {
        "trials": trials,
        "kept": len(kept),
        "skipped": skipped,
        "seed": seed,
        "b": b,
        "ancilla": ancilla,
        "table": table,
        "violations": sum(r["conjecture"] for r in kept),
    }


def _hierarchy_chunk(args) -> list:
    """Rows of trials [start, stop): one stream per trial, the chunk drawn and evaluated as one stack."""
    seed, start, stop, params = args
    probs, states = random_ensembles(params["k"], params["dim"], seed, start, stop,
                                     ancilla=params["ancilla"])
    reports = bounds.hierarchy_batch(probs, states, b=params["b"])
    return [None if r is None else {**{name: getattr(r, name) for name in _HIERARCHY_FIELDS},
                                    "conjecture": r.violations["conjecture"]}
            for r in reports]


# ---------------------------------------------------------------------------
# figure data


def _fmt(x) -> str:
    if isinstance(x, str):
        return x
    if isinstance(x, (bool, np.bool_)):
        return "1" if x else "0"
    if isinstance(x, (int, np.integer)):
        return str(int(x))
    if isinstance(x, float) and math.isnan(x):
        return "nan"
    return f"{x:.12g}"


def _csv(headers, rows) -> str:
    lines = [",".join(headers)]
    for row in rows:
        lines.append(",".join(_fmt(v) for v in row))
    return "\n".join(lines) + "\n"


def figure_scatter_q(q: float, trials: int, seed: int, base: float = math.e) -> str:
    rows = []
    scale = 1.0 if base == math.e else math.log(base)
    for t in range(trials):
        phi = qubit.pauli_channel(dirichlet(4, stream_rng(seed, t)))
        p = qubit.scatter([phi], q, tags=[f"pauli{t}"])[0]
        rows.append((p.s_map / scale, p.s_min / scale, q, p.tag))
    return _csv(["s_map", "s_min", "q", "tag"], rows)


def figure_additivity_region(resolution: int, n: int = 2, m: int = 2) -> str:
    smax = 2.0 * math.log(n)
    grid = np.linspace(0.0, smax, resolution)
    rows = [(s1, s2, qubit.additivity_region_values(s1, s2, n, m)) for s1 in grid for s2 in grid]
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
    p = 0.3
    for path in range(2):
        gam = 0.5 + rng.random()
        rel = rng.random() * 2.0 * gam
        for t in np.linspace(0.0, 4.0, resolution):
            a = (1.0 - p) * (1.0 - math.exp(-rel * t))
            c = math.exp(-gam * t)
            rows.append(("path", p, a, c, t, f"path{path}"))
    return _csv(["kind", "p", "a", "c", "t", "tag"], rows)


# ---------------------------------------------------------------------------
# argument handling


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="chanent",
        description="Quantum-channel entropy experiments: property suites, "
        "the bound hierarchy, and figure data emission.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--seed", type=int, default=42)
        p.add_argument("--trials", type=int, default=None)
        p.add_argument("--dim", type=int, default=2)
        p.add_argument("--k", type=int, default=3)
        p.add_argument("--q", type=float, default=2.0)
        p.add_argument("--b", type=float, default=math.sqrt(3.0))
        p.add_argument("--log-base", choices=("e", "2"), default="e")
        p.add_argument("--format", choices=("json", "csv"), default="json")
        p.add_argument("--output", type=str, default=None)
        p.add_argument("--jobs", type=int, default=1)
        p.add_argument("--resolution", type=int, default=50)

    p_verify = sub.add_parser("verify", help="run a property suite")
    p_verify.add_argument("--suite", required=True, choices=SUITES)
    common(p_verify)

    p_hier = sub.add_parser("hierarchy", help="reproduce the bound-hierarchy table")
    common(p_hier)
    p_hier.add_argument("--ancilla", type=int, default=3,
                        help="ancilla dimension of the induced state measure (3 reproduces "
                        "the published table; equal to --dim gives the flat HS measure)")

    p_fig = sub.add_parser("figure", help="emit figure data as CSV")
    p_fig.add_argument("--figure", required=True, choices=FIGURES)
    common(p_fig)
    p_fig.set_defaults(format="csv")
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
            max_slack: float, seed: int, t0: float) -> dict:
    return dict(command=command, config=config, results=results, violations=violations,
                max_slack=max_slack, elapsed_ms=int((time.time() - t0) * 1000), seed=seed)


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
    for name in ("trials", "jobs", "dim", "k", "resolution"):
        if getattr(args, name) < 1:
            parser.error(f"--{name} must be at least 1")
    if not args.q > 0:
        parser.error("--q must be positive")
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
    t0 = time.time()

    if args.command == "verify":
        params = {"dim": args.dim, "k": args.k}
        res = run_suite(args.suite, args.trials, args.seed, jobs=args.jobs, params=params)
        config = {"suite": args.suite, "trials": args.trials, "dim": args.dim, "k": args.k,
                  "jobs": args.jobs}
        report = _report("verify", config, res, res["violations"], res["max_slack"],
                         args.seed, t0)
        _emit(json.dumps(report, indent=2) + "\n", args.output)
        return 0 if res["violations"] == 0 else 1

    if args.command == "hierarchy":
        res = run_hierarchy(trials=args.trials, seed=args.seed, k=args.k, dim=args.dim,
                            b=args.b, ancilla=args.ancilla, jobs=args.jobs)
        # the count is the report's own violations field, not one of the results
        violations = res.pop("violations")
        config = {"trials": args.trials, "k": args.k, "dim": args.dim, "b": args.b,
                  "ancilla": args.ancilla, "jobs": args.jobs}
        report = _report("hierarchy", config, res, violations, 0.0, args.seed, t0)
        _emit(json.dumps(report, indent=2) + "\n", args.output)
        if not args.output:
            for name, cell in res["table"].items():
                print(f"# {name:10s} {cell['mean']:8.4f} ± {cell['std']:.4f}", file=sys.stderr)
        return 0 if violations == 0 else 1

    # figures
    base = math.e if args.log_base == "e" else 2.0
    if args.figure == "scatter-q":
        text = figure_scatter_q(args.q, args.trials, args.seed, base=base)
    elif args.figure == "additivity-region":
        text = figure_additivity_region(args.resolution, n=args.dim, m=args.dim)
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
