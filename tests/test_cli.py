import concurrent.futures
import dataclasses
import json
import math
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from chanent import bounds, cli, qubit, sampling
from tests_support import conjecture_reference, forbid_calls, record_shapes


def run_main(capsys, argv):
    code = cli.main(argv)
    out = capsys.readouterr().out
    return code, out


class TestVerify:
    def test_theorem1_passes(self, capsys, tmp_path):
        out_path = tmp_path / "report.json"
        code = cli.main(
            ["verify", "--suite", "theorem1", "--trials", "50", "--seed", "7",
             "--output", str(out_path)]
        )
        assert code == 0
        report = json.loads(out_path.read_text())
        assert set(report) == {
            "command", "config", "results", "violations", "max_slack", "elapsed_ms", "seed",
        }
        assert report["violations"] == 0
        assert report["max_slack"] <= 1e-9
        assert report["seed"] == 7

    def test_usage_error_on_zero_trials(self):
        with pytest.raises(SystemExit) as err:
            cli.main(["verify", "--suite", "conjecture1", "--trials", "0"])
        assert err.value.code == 2

    def test_unknown_suite_is_usage_error(self):
        with pytest.raises(SystemExit) as err:
            cli.main(["verify", "--suite", "nonsense"])
        assert err.value.code == 2

    def test_reports_are_deterministic(self, tmp_path):
        paths = [tmp_path / f"r{i}.json" for i in range(2)]
        for p in paths:
            cli.main(["verify", "--suite", "lindblad", "--trials", "20", "--seed", "3",
                      "--output", str(p)])
        reports = [json.loads(p.read_text()) for p in paths]
        for rep in reports:
            rep.pop("elapsed_ms")  # timing is excluded from the determinism contract
        assert json.dumps(reports[0], sort_keys=True) == json.dumps(reports[1], sort_keys=True)

    def test_exit_code_one_on_violations(self, tmp_path, monkeypatch):
        # inject a failing suite through the trial registry to exercise the
        # violation exit path
        def bad_trial(seed, t, params):
            return {"slack": 1.0}

        monkeypatch.setitem(cli._TRIALS, "lindblad", bad_trial)
        code = cli.main(["verify", "--suite", "lindblad", "--trials", "3",
                         "--output", str(tmp_path / "r.json")])
        assert code == 1

    def test_nan_slack_is_a_violation(self, tmp_path, monkeypatch):
        # NaN compares False with every threshold, so only "slack <= VIOLATION_SLACK"
        # passes a trial; +inf and -inf, which no check gives, are violations too
        for bad, worst in ((math.nan, math.nan), (math.inf, math.inf), (-math.inf, -1.0)):
            def bad_at_two(seed, t, params, bad=bad):
                return {"slack": bad if t == 2 else -1.0}

            monkeypatch.setitem(cli._TRIALS, "lindblad", bad_at_two)
            out = tmp_path / "r.json"
            code = cli.main(["verify", "--suite", "lindblad", "--trials", "5", "--output", str(out)])
            assert code == 1
            report = json.loads(out.read_text())
            assert report["violations"] == 1
            np.testing.assert_equal(report["max_slack"], worst)

    @pytest.mark.parametrize("suite", ["davies", "lindblad", "props", "sandwich", "theorem1"])
    def test_nan_in_a_later_slack_term_is_a_violation(self, suite, tmp_path, monkeypatch):
        # Python's max/min keep a finite value over a NaN that is not their first
        # argument, so each suite's own slack combination must carry the NaN
        from chanent import davies, qubit

        if suite == "davies":
            monkeypatch.setattr(davies, "semigroup_residual", lambda *args: math.nan)
        elif suite == "theorem1":
            monkeypatch.setattr(cli.bounds, "theorem1_check", lambda *args: (0.1, 0.2, math.nan, True))
        elif suite == "lindblad":
            rep = cli.bounds.LindbladReport(s_in=0.5, s_out=1.0, s_exchange=1.0, chi=0.0,
                                            lower_slack=0.1, upper_slack=math.nan, chi_slack=0.2)
            monkeypatch.setattr(cli.bounds, "lindblad_check", lambda *args: rep)
        elif suite == "props":
            rep = cli.bounds.PropsReport(0.1, 0.1, 0.1, 0.1, math.nan)
            monkeypatch.setattr(cli.bounds, "props_check", lambda *args: rep)
        else:
            rep = qubit.SandwichReport(middle_vn=1.0, middle_tsallis2=1.0, lower_vn=0.0,
                                       upper_vn=2.0, lower_tsallis2=0.0, upper_tsallis2=2.0,
                                       renyi2_lower=math.nan, middle_renyi2=1.0)
            monkeypatch.setattr(qubit, "sandwich_check", lambda *args: rep)
        out = tmp_path / "r.json"
        code = cli.main(["verify", "--suite", suite, "--trials", "3", "--output", str(out)])
        assert code == 1
        report = json.loads(out.read_text())
        assert report["violations"] == 3 and math.isnan(report["max_slack"])

    @pytest.mark.parametrize("field", ["info_gain", "concat_holevo", "concat_exchange",
                                       "composition_sign", "composition_upper"])
    def test_a_failed_props_inequality_is_the_row_slack(self, field, monkeypatch):
        # each of the five propositions enters the slack: with one forced to miss by
        # 0.25, the row's slack is that inequality's lhs - rhs, and a violation
        props_check = cli.bounds.props_check
        monkeypatch.setattr(cli.bounds, "props_check",
                            lambda *args: dataclasses.replace(props_check(*args), **{field: -0.25}))
        for t in range(5):
            assert cli._TRIALS["props"](42, t, {"dim": 2}) == {"slack": 0.25}
        assert cli.run_suite("props", 5, 42, params={"dim": 2})["violations"] == 5

    def test_nan_in_the_first_davies_slack_term_is_a_violation(self, tmp_path, monkeypatch):
        # the mirror of the case above: a NaN minimizer gap, ahead of a finite residual
        from chanent import davies

        monkeypatch.setattr(davies, "qubit_minimizer", lambda *args: (0.5, math.nan))
        assert math.isnan(cli._TRIALS["davies"](3, 0, {})["slack"])
        out = tmp_path / "r.json"
        code = cli.main(["verify", "--suite", "davies", "--trials", "3", "--output", str(out)])
        assert code == 1
        report = json.loads(out.read_text())
        assert report["violations"] == 3 and math.isnan(report["max_slack"])

    def test_max_slack_independent_of_trial_order(self, monkeypatch):
        for first in (0, 3):
            def trial(seed, t, params, first=first):
                return {"slack": math.nan if t == first else -float(t)}

            monkeypatch.setitem(cli._TRIALS, "lindblad", trial)
            res = cli.run_suite("lindblad", 4, seed=0)
            assert res["violations"] == 1 and math.isnan(res["max_slack"])

    def test_davies_closed_form_moved_by_1e_8_is_a_violation(self, monkeypatch):
        # the exact minimizer and the closed form agree to ~1e-15: the suite's gate is
        # VIOLATION_SLACK, so a closed form off by ten times that fails every trial
        from chanent import davies

        minimizer = davies.qubit_minimizer

        def moved(d):
            mu, s_min = minimizer(d)
            return mu, s_min + 1e-8

        monkeypatch.setattr(davies, "qubit_minimizer", moved)
        assert cli.run_suite("davies", 5, 42)["violations"] == 5

    def test_multiplicativity_product_moved_by_1e_8_is_a_violation(self, monkeypatch):
        # the max output 2-norm of the Davies factor, moved by 1e-8, moves the product
        # by at least 1e-8/sqrt(2): every trial fails the VIOLATION_SLACK gate
        from chanent import davies

        max_norm = davies.qubit_max_norm
        monkeypatch.setattr(davies, "qubit_max_norm", lambda d: max_norm(d) + 1e-8)
        assert cli.run_suite("multiplicativity", 3, 42)["violations"] == 3

    @pytest.mark.parametrize("suite, given, expected", [
        ("davies", ["--trials", "10000"], 10000),
        ("multiplicativity", ["--trials", "10000"], 10000),
        ("davies", [], 200),
        ("multiplicativity", [], 50),
        ("lindblad", [], 10000),
    ])
    def test_trials_default_and_explicit(self, suite, given, expected, capsys, monkeypatch):
        seen = []

        def fake(suite, trials, seed, jobs, params):
            seen.append(trials)
            return {"suite": suite, "trials": trials, "violations": 0, "max_slack": 0.0,
                    "seed": seed}

        monkeypatch.setattr(cli, "run_suite", fake)
        code, out = run_main(capsys, ["verify", "--suite", suite, *given])
        assert code == 0 and seen == [expected]
        assert json.loads(out)["config"]["trials"] == expected

    def test_jobs_do_not_change_results(self, tmp_path):
        for argv in (["verify", "--suite", "conjecture1"], ["hierarchy"]):
            p1, p2 = tmp_path / "a.json", tmp_path / "b.json"
            cli.main([*argv, "--trials", "30", "--seed", "11", "--output", str(p1), "--jobs", "1"])
            cli.main([*argv, "--trials", "30", "--seed", "11", "--output", str(p2), "--jobs", "2"])
            a, b = json.loads(p1.read_text()), json.loads(p2.read_text())
            a.pop("elapsed_ms")
            b.pop("elapsed_ms")
            a["config"].pop("jobs")
            b["config"].pop("jobs")
            assert a == b


class FakePool:
    """Stands in for ProcessPoolExecutor: records max_workers and maps in this process."""

    def __init__(self, max_workers, sizes):
        sizes.append(max_workers)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False

    def map(self, fn, chunks):
        return map(fn, chunks)


class TestPoolSize:
    # the pool starts every worker at its first submit, so --jobs 64 would fork 64 interpreters
    @pytest.mark.parametrize("trials, jobs, cpus, workers", [
        (10, 64, 4, [4]), (3, 64, 4, [3]), (1, 64, 4, []), (10, 64, None, []), (10, 2, 4, [2]),
    ], ids=["cpus", "trials", "one-trial", "no-cpu-count", "jobs"])
    def test_workers_bounded_by_trials_and_cpus(self, monkeypatch, trials, jobs, cpus, workers):
        sizes = []
        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor",
                            lambda max_workers: FakePool(max_workers, sizes))
        monkeypatch.setattr(cli.os, "cpu_count", lambda: cpus)
        cols = cli._in_chunks(lambda args: {"t": np.arange(*args)}, lambda a, b: (a, b), trials, jobs)
        assert cols["t"].tolist() == list(range(trials)) and sizes == workers

    def test_one_trial_runs_in_process(self, monkeypatch, capsys):
        sizes = []
        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor",
                            lambda max_workers: FakePool(max_workers, sizes))
        code, out = run_main(capsys, ["verify", "--suite", "conjecture1", "--trials", "1",
                                      "--jobs", "64"])
        assert code == 0 and sizes == []
        assert json.loads(out)["results"]["trials"] == 1


# each of these once ended in a traceback (exit 1, the "violations found"
# code) or was silently accepted
USAGE_ERRORS = [
    ["hierarchy", "--k", "4"],
    ["hierarchy", "--dim", "3"],
    ["hierarchy", "--b", "1.0"],
    ["hierarchy", "--b", "nan"],
    ["hierarchy", "--ancilla", "0"],
    ["verify", "--suite", "conjecture1", "--k", "0"],
    ["verify", "--suite", "theorem1", "--dim", "0"],
    ["verify", "--suite", "theorem1", "--jobs", "0"],
    ["figure", "--figure", "davies-qutrit-set", "--resolution", "5"],
    ["figure", "--figure", "additivity-region", "--resolution", "0"],
    ["figure", "--figure", "scatter-q", "--q", "nan"],
    ["verify", "--suite", "conjecture1", "--k", "4"],
    ["figure", "--figure", "scatter-q", "--q", "inf"],
    # flags a command would ignore are not registered on it
    ["verify", "--suite", "theorem1", "--format", "csv"],
    ["verify", "--suite", "theorem1", "--q", "0.5"],
    ["verify", "--suite", "theorem1", "--b", "1.5"],
    ["verify", "--suite", "theorem1", "--log-base", "2"],
    ["verify", "--suite", "theorem1", "--resolution", "10"],
    ["hierarchy", "--q", "0.5"],
    ["hierarchy", "--log-base", "2"],
    ["hierarchy", "--format", "csv"],
    ["hierarchy", "--resolution", "10"],
    ["figure", "--figure", "scatter-q", "--b", "1.5"],
    ["hierarchy", "--b", "inf"],  # the report would carry "b": Infinity, which is not JSON
]


class TestUsageErrors:
    @pytest.mark.parametrize("argv", USAGE_ERRORS)
    def test_bad_parameter_exits_2(self, argv, capsys):
        with pytest.raises(SystemExit) as err:
            cli.main([*argv, "--trials", "3"])
        assert err.value.code == 2
        assert capsys.readouterr().out == ""  # rejected before any output

    @pytest.mark.parametrize("target", ["missing/r.json", "."])
    def test_unwritable_output_exits_2(self, tmp_path, target, capsys):
        with pytest.raises(SystemExit) as err:
            cli.main(["verify", "--suite", "theorem1", "--trials", "3",
                      "--output", str(tmp_path / target)])
        assert err.value.code == 2
        assert capsys.readouterr().out == ""
        assert list(tmp_path.iterdir()) == []

    def test_one_parser_per_process(self, capsys):
        # main reuses one parser: after each usage error it still parses like a fresh one
        parser, fresh = cli._build_parser(), cli._build_parser.__wrapped__()
        assert cli._build_parser() is parser
        good = [["figure", "--figure", "scatter-q"], ["verify", "--suite", "davies"], ["hierarchy"]]
        for argv in USAGE_ERRORS:
            with pytest.raises(SystemExit) as err:
                cli.main([*argv, "--trials", "3"])
            assert err.value.code == 2
            for ok in good:
                assert vars(parser.parse_args(ok)) == vars(fresh.parse_args(ok))
        # figure keeps --format with csv as its default; verify, which prints JSON only, has none
        assert parser.parse_args(good[0]).format == "csv" and "format" not in vars(parser.parse_args(good[1]))
        assert capsys.readouterr().out == ""


class TestBenchRecorder:
    """tests/bench_record.py's CLI pass; the full table takes about a minute, so only its shape is run here."""

    def test_every_recorded_command_is_valid(self):
        import bench_record

        parser = cli._build_parser()
        for argv in bench_record.CLI_COMMANDS:
            args = parser.parse_args(argv)
            if args.trials is None:  # as main does; figure davies-qutrit-set ignores it
                args.trials = cli._DEFAULT_TRIALS.get(getattr(args, "suite", None), 10000)
            cli._validate(parser, args)

    def test_times_each_command_after_import(self):
        import bench_record

        argv = ["hierarchy", "--trials", "20", "--seed", "3"]
        rows = bench_record.time_commands([argv], 2)
        assert [row["argv"] for row in rows] == [argv]
        assert len(rows[0]["runs_s"]) == 2 and rows[0]["best_s"] == min(rows[0]["runs_s"]) > 0.0

    def test_a_nonzero_exit_is_not_recorded(self, monkeypatch):
        import bench_record

        monkeypatch.setattr(cli, "main", lambda argv: 1)
        with pytest.raises(RuntimeError, match="exited 1"):
            bench_record.time_commands([["hierarchy", "--trials", "20"]], 1)


class TestImports:
    def test_no_command_loads_scipy(self, tmp_path):
        # every command in one fresh interpreter: importing SciPy would dominate a short command's start
        src = str(Path(cli.__file__).resolve().parents[1])
        script = f"""
import contextlib, io, sys
sys.path.insert(0, {src!r})
from chanent import cli

def scipy_modules():
    return sorted(m for m in sys.modules if m == "scipy" or m.startswith("scipy."))

commands = [["verify", "--suite", s, "--trials", "10" if s == "davies" else "2"] for s in cli.SUITES]
commands += [["figure", "--figure", f, "--trials", "3", "--resolution", "10"] for f in cli.FIGURES]
commands += [["hierarchy", "--trials", "20"], ["figure", "--figure", "scatter-q", "--q", "0.5", "--trials", "3"]]
assert not scipy_modules(), ("import chanent.cli", scipy_modules()[:3])
for argv in commands:
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        code = cli.main(argv)
    assert code == 0, (argv, code)
    assert not scipy_modules(), (argv, scipy_modules()[:3])
"""
        done = subprocess.run([sys.executable, "-c", script], cwd=tmp_path, capture_output=True, text=True,
                              timeout=300)
        assert done.returncode == 0, done.stderr

    def test_import_loads_no_random_or_pool_modules(self, tmp_path):
        # numpy.random is loaded by the first stream_rng and the process pool by the
        # first --jobs > 1 run, so commands that need neither never pay their import
        src = str(Path(cli.__file__).resolve().parents[1])
        script = f"""
import sys
sys.path.insert(0, {src!r})
import chanent.cli
loaded = sorted(m for m in sys.modules
                if m.split(".")[0] == "multiprocessing" or m.startswith(("numpy.random", "concurrent.futures.process")))
assert not loaded, loaded
"""
        done = subprocess.run([sys.executable, "-c", script], cwd=tmp_path, capture_output=True, text=True,
                              timeout=120)
        assert done.returncode == 0, done.stderr


class TestHierarchy:
    def test_normalized_endpoints(self, tmp_path):
        out = tmp_path / "h.json"
        code = cli.main(["hierarchy", "--trials", "40", "--seed", "5", "--output", str(out)])
        assert code == 0
        rep = json.loads(out.read_text())
        table = rep["results"]["table"]
        assert table["chi"]["mean"] == 0.0 and table["chi"]["std"] == 0.0
        assert table["h_p"]["mean"] == 1.0 and table["h_p"]["std"] == 0.0
        assert set(table) == {"chi", "s_fid", "s_layered", "s_fid_sq", "s_fid_b", "h_p"}

    def test_report_on_stdout_and_summary_on_stderr(self, capsys):
        # without --output the JSON report goes to stdout and one "# name mean ± std" line per
        # column to stderr, to four decimals
        code = cli.main(["hierarchy", "--trials", "40", "--seed", "5"])
        out, err = capsys.readouterr()
        table = json.loads(out)["results"]["table"]
        assert code == 0 and len(err.splitlines()) == len(table)
        for line, (name, cell) in zip(err.splitlines(), table.items()):
            hash_, label, mean, pm, std = line.split()
            assert (hash_, label, pm) == ("#", name, "±")
            assert abs(float(mean) - cell["mean"]) <= 5e-5 and abs(float(std) - cell["std"]) <= 5e-5

    def test_conjecture_violation_exits_1(self, tmp_path, monkeypatch):
        batch = cli.bounds.hierarchy_batch

        def one_flagged(*args, **kwargs):
            cols = batch(*args, **kwargs)
            assert cols["kept"][3]
            cols["conjecture"][3] = True
            return cols

        monkeypatch.setattr(cli.bounds, "hierarchy_batch", one_flagged)
        out = tmp_path / "h.json"
        code = cli.main(["hierarchy", "--trials", "40", "--seed", "5", "--output", str(out)])
        assert code == 1
        rep = json.loads(out.read_text())
        assert rep["violations"] == 1 and rep["max_slack"] == 0.0
        assert set(rep["results"]) == {"trials", "kept", "skipped", "seed", "b", "ancilla", "table"}

    @pytest.mark.parametrize("seed", [42, 7, 1108])
    def test_pure_qubits_never_violate(self, seed):
        # for pure k = 3 ensembles chi <= S(G) is a theorem: G is the entrywise
        # modulus of the Gram matrix, so every flagged row would be rounding
        assert cli.run_hierarchy(trials=10000, seed=seed, ancilla=1)["violations"] == 0

    def test_stream_prefix_determinism(self):
        # the first trials of a longer run equal a shorter run bit for bit
        params = {"k": 3, "dim": 2, "b": math.sqrt(3.0), "ancilla": 3}
        short = cli._hierarchy_chunk((42, 0, 25, params))
        long = cli._hierarchy_chunk((42, 0, 60, params))
        assert_columns_equal(short, {name: col[:25] for name, col in long.items()})

    def test_chunk_builds_no_generator(self, monkeypatch):
        # the chunk draws its uniforms from the stacked Philox kernel: no Generator,
        # and still the rows of one hierarchy call per trial on its own stream
        params = {"k": 3, "dim": 2, "b": math.sqrt(3.0), "ancilla": 3}
        expected = [cli.bounds.hierarchy(sampling.random_ensemble(3, 2, sampling.stream_rng(42, t),
                                                                  ancilla=3), b=params["b"])
                    for t in range(5, 45)]

        def no_generator(*args, **kwargs):
            raise AssertionError("a Generator was built")

        monkeypatch.setattr(sampling, "stream_rng", no_generator)
        monkeypatch.setattr(np.random, "Generator", no_generator)
        cols = cli._hierarchy_chunk((42, 5, 45, params))
        rows = [{name: col[i].item() for name, col in cols.items()} if cols["kept"][i] else None
                for i in range(40)]
        assert rows == expected

    @pytest.mark.parametrize("ancilla", [1, 3])
    def test_chunk_makes_no_trace_call(self, monkeypatch, ancilla):
        # np.trace over the last two axes of a (B, 3, 2, 2) stack is a strided reduction that can
        # cost more than the chunk's arithmetic; the chunk's traces are einsums
        params = {"b": math.sqrt(3.0), "ancilla": ancilla}
        expected = cli._hierarchy_chunk((42, 0, 150, params))
        forbid_calls(monkeypatch, [np], ["trace"])
        assert_columns_equal(cli._hierarchy_chunk((42, 0, 150, params)), expected)

    def test_rows_independent_of_chunk_size(self):
        # each chunk is one stacked evaluation; a row never depends on its neighbours
        params = {"k": 3, "dim": 2, "b": math.sqrt(3.0), "ancilla": 3}
        whole = cli._hierarchy_chunk((42, 0, 60, params))
        for size in (1, 7, 25):
            parts = [cli._hierarchy_chunk((42, start, min(start + size, 60), params))
                     for start in range(0, 60, size)]
            assert_columns_equal({name: np.concatenate([p[name] for p in parts]) for name in whole}, whole)


def assert_columns_equal(actual: dict, expected: dict) -> None:
    """Same column names, and each column the same bits (NaN included)."""
    assert set(actual) == set(expected)
    for name, col in expected.items():
        assert actual[name].dtype == col.dtype and actual[name].tobytes() == col.tobytes(), name


class TestSlackContract:
    """A suite reports slacks only; run_suite alone turns them into violations. The
    benchmark's recorder reads row["slack"] of the _TRIALS rows."""

    @pytest.mark.parametrize("suite", cli.SUITES)
    def test_rows_and_chunks_are_slacks(self, suite):
        params = {"dim": 2, "k": 3}
        if suite in cli._TRIALS:
            for t in range(3):
                row = cli._TRIALS[suite](42, t, params)
                assert set(row) == {"slack"} and type(row["slack"]) is float
        cols = cli._run_chunk((suite, 42, 0, 3, params))
        assert set(cols) == {"slack"}
        assert cols["slack"].dtype == np.float64 and cols["slack"].shape == (3,)


class TestSuiteDefaults:
    @pytest.mark.parametrize("suite", cli.SUITES)
    def test_run_suite_without_params_gives_the_cli_rows(self, suite, monkeypatch, capsys):
        # each suite parameter has one default: run_suite without params draws the rows
        # that `chanent verify` draws without --dim and --k
        columns = []
        in_chunks = cli._in_chunks

        def recorded(*args):
            cols = in_chunks(*args)
            columns.append(cols["slack"])
            return cols

        monkeypatch.setattr(cli, "_in_chunks", recorded)
        trials = 5 if suite == "multiplicativity" else 30
        cli.run_suite(suite, trials, 42)
        run_main(capsys, ["verify", "--suite", suite, "--trials", str(trials), "--seed", "42"])
        assert len(columns) == 2 and columns[0].tobytes() == columns[1].tobytes()


class TestStackedSuites:
    def test_conjecture1_chunk_builds_no_generator(self, monkeypatch):
        expected = conjecture_reference(3, 2, 42, 5, 45)

        def no_generator(*args, **kwargs):
            raise AssertionError("a Generator was built")

        monkeypatch.setattr(sampling, "stream_rng", no_generator)
        monkeypatch.setattr(np.random, "Generator", no_generator)
        cols = cli._run_chunk(("conjecture1", 42, 5, 45, {"k": 3, "dim": 2}))
        assert_columns_equal(cols, {"slack": expected})

    @pytest.mark.parametrize("dim", [2, 3])
    def test_conjecture1_rows_independent_of_chunk_size(self, dim):
        params = {"k": 3, "dim": dim}
        whole = cli._run_chunk(("conjecture1", 42, 0, 60, params))
        for size in (1, 7, 25):
            parts = [cli._run_chunk(("conjecture1", 42, start, min(start + size, 60), params))
                     for start in range(0, 60, size)]
            assert_columns_equal({name: np.concatenate([p[name] for p in parts]) for name in whole}, whole)

    @pytest.mark.parametrize("suite", ["theorem1", "davies"])
    def test_benchmark_records_one_call_per_trial(self, suite, monkeypatch, capsys):
        # the benchmark records these suites' per-trial slacks by swapping their
        # _TRIALS entries for recorders, so each must stay one call per trial, in order
        calls = []
        trial = cli._TRIALS[suite]

        def recorded(seed, t, params):
            row = trial(seed, t, params)
            calls.append((t, row["slack"]))
            return row

        monkeypatch.setitem(cli._TRIALS, suite, recorded)
        code, out = run_main(capsys, ["verify", "--suite", suite, "--trials", "6", "--seed", "3",
                                      "--jobs", "1"])
        assert code == 0 and [t for t, _ in calls] == list(range(6))
        assert json.loads(out)["max_slack"] == max(slack for _, slack in calls)


def _one_object_at_a_time(suite: str, seed: int, t: int, params: dict) -> dict:
    """Row t of a Part-II suite, drawn as the suites drew it one object at a time:
    the public samplers in order, each Kraus count from its own rng.random() call."""
    rng = sampling.stream_rng(seed, t)
    if suite == "theorem1":
        n = 2 if rng.random() < 0.5 else 3
        k = 1 + int(rng.random() * params["k"])
        rho = sampling.hs_random_density(n, rng)
        chi, s_sigma, h_p, _ = bounds.theorem1_check(rho, sampling.random_channel(n, k, rng))
        return {"slack": float(np.maximum(chi - s_sigma, s_sigma - h_p))}
    n = params["dim"]
    rho = None if suite == "sandwich" else sampling.hs_random_density(n, rng)
    phis = [sampling.random_channel(n, 1 + int(rng.random() * 3), rng) for _ in range(1 if suite == "lindblad" else 2)]
    if suite == "sandwich":
        rep = qubit.sandwich_check(*phis)
    elif suite == "lindblad":
        rep = bounds.lindblad_check(rho, *phis)
    else:
        rep = bounds.props_check(rho, *phis)
    return {"slack": rep.worst}


_PART_TWO = [("theorem1", {"k": k}) for k in (1, 4, 7)] + [
    (suite, {"dim": dim}) for suite in ("lindblad", "props", "sandwich") for dim in (2, 3)]
_PART_TWO_IDS = [f"{suite}-{next(iter(params.values()))}" for suite, params in _PART_TWO]


def count_box_muller(monkeypatch) -> list:
    """Patch _box_muller wherever a module holds the name; the list gets each call's block shape."""
    calls = []
    for owner in (sampling, cli):
        if hasattr(owner, "_box_muller"):
            def counted(u, shape, _real=getattr(owner, "_box_muller")):
                calls.append(np.shape(u))
                return _real(u, shape)

            monkeypatch.setattr(owner, "_box_muller", counted)
    return calls


class TestPartTwoDraws:
    """A Part-II trial draws its state and channels with merged calls and one Box-Muller."""

    @pytest.mark.parametrize("suite, params", _PART_TWO, ids=_PART_TWO_IDS)
    def test_rows_are_the_one_object_at_a_time_rows(self, suite, params):
        for seed in (42, 1108):
            for t in range(200):
                row, expected = cli._TRIALS[suite](seed, t, params), _one_object_at_a_time(suite, seed, t, params)
                assert set(row) == {"slack"}
                assert np.float64(row["slack"]).tobytes() == np.float64(expected["slack"]).tobytes(), (seed, t)

    @pytest.mark.parametrize("suite, params", _PART_TWO, ids=_PART_TWO_IDS)
    def test_one_box_muller_per_trial(self, suite, params, monkeypatch):
        calls = count_box_muller(monkeypatch)
        for t in range(20):
            calls.clear()
            cli._TRIALS[suite](42, t, params)
            assert len(calls) == 1

    def test_random_ensembles_one_box_muller_per_chunk(self, monkeypatch):
        calls = count_box_muller(monkeypatch)
        cli._run_chunk(("conjecture1", 42, 0, 40, {"k": 3, "dim": 2}))
        assert calls == [(40, 3, 8)]  # 3 states of 2·2·2 uniforms per trial


class TestDaviesTrial:
    def test_one_eigh_and_one_eigvalsh_per_trial(self, monkeypatch):
        # the 3×3 eigh of the exact qubit minimizer and the 4×4 CP check of the
        # channel; every other step of a trial is arithmetic on a few floats
        calls = record_shapes(monkeypatch, np.linalg, ("eigh", "eigvalsh", "svd", "norm"))
        for t in range(20):
            for shapes in calls.values():
                shapes.clear()
            cli._TRIALS["davies"](42, t, {})
            assert calls == {"eigh": [(3, 3)], "eigvalsh": [(4, 4)], "svd": [], "norm": []}


class TestSandwichTrial:
    @pytest.mark.parametrize("dim", [2, 3])
    def test_one_spectrum_per_trial(self, dim, monkeypatch):
        # the two Choi states and the middle state share one spectrum, which serves
        # all three entropy orders
        from chanent import matfun

        calls = record_shapes(monkeypatch, np.linalg, ("eigh", "eigvalsh", "svd"))
        spectra = record_shapes(monkeypatch, matfun, ("spectrum",))
        stack = (3, dim * dim, dim * dim)
        for t in range(10):
            for shapes in (*calls.values(), *spectra.values()):
                shapes.clear()
            cli._TRIALS["sandwich"](42, t, {"dim": dim})
            assert spectra == {"spectrum": [stack]}
            assert calls == {"eigh": [], "eigvalsh": [stack], "svd": []}


class TestElapsed:
    def test_elapsed_ms_from_the_monotonic_clock(self, monkeypatch, capsys):
        ticks = iter([10.0, 11.5])
        monkeypatch.setattr(cli.time, "perf_counter", lambda: next(ticks))
        code, out = run_main(capsys, ["verify", "--suite", "theorem1", "--trials", "2"])
        assert code == 0 and json.loads(out)["elapsed_ms"] == 1500


class TestFigures:
    def test_scatter_csv(self, capsys):
        code, out = run_main(capsys, ["figure", "--figure", "scatter-q", "--q", "2",
                                      "--trials", "10", "--seed", "1"])
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0] == "s_map,s_min,q,tag"
        assert len(lines) == 11

    def test_scatter_respects_log_base(self, capsys):
        _, out_e = run_main(capsys, ["figure", "--figure", "scatter-q", "--q", "2",
                                     "--trials", "5", "--seed", "1"])
        _, out_2 = run_main(capsys, ["figure", "--figure", "scatter-q", "--q", "2",
                                     "--trials", "5", "--seed", "1", "--log-base", "2"])
        v_e = float(out_e.splitlines()[1].split(",")[0])
        v_2 = float(out_2.splitlines()[1].split(",")[0])
        assert abs(v_e - v_2 * math.log(2)) < 1e-9

    def test_scatter_trials_not_capped(self, capsys, monkeypatch):
        seen = []

        def fake(q, trials, seed, base):
            seen.append(trials)
            return "s_map,s_min,q,tag\n"

        monkeypatch.setattr(cli, "figure_scatter_q", fake)
        code, _ = run_main(capsys, ["figure", "--figure", "scatter-q", "--trials", "20001"])
        assert code == 0 and seen == [20001]

    def test_scatter_builds_no_generator(self, monkeypatch):
        # one stacked Philox block and the closed forms: no Generator, no Channel
        # and no optimizer, and still row t is the channel of dirichlet(4, stream_rng(seed, t))
        r2 = cli.EntropyOrder.renyi(2.0)
        points = [cli.qubit.pauli_points(sampling.dirichlet(4, sampling.stream_rng(42, t)), r2)
                  for t in range(40)]
        expected = cli._csv(["s_map", "s_min", "q", "tag"],
                            [(a, b, 2.0, f"pauli{t}") for t, (a, b) in enumerate(points)])

        def forbidden(*args, **kwargs):
            raise AssertionError("called on the scatter-q path")

        monkeypatch.setattr(sampling, "stream_rng", forbidden)
        monkeypatch.setattr(np.random, "Generator", forbidden)
        monkeypatch.setattr(cli.qubit, "Channel", forbidden)
        monkeypatch.setattr(cli.qubit, "min_output_entropy", forbidden)
        assert cli.figure_scatter_q(2.0, 40, 42) == expected

    def test_scatter_rows_independent_of_trials(self):
        short = cli.figure_scatter_q(2.0, 25, 42).splitlines()
        assert cli.figure_scatter_q(2.0, 60, 42).splitlines()[:26] == short

    def test_triple_surfaces_ordering(self, capsys):
        code, out = run_main(capsys, ["figure", "--figure", "bunga-surfaces",
                                      "--resolution", "12"])
        assert code == 0
        rows = [line.split(",") for line in out.strip().splitlines()[1:]]
        for row in rows:
            chi, s_g = float(row[2]), float(row[3])
            assert s_g - chi >= -1e-9

    def test_additivity_region_figure(self, capsys):
        code, out = run_main(capsys, ["figure", "--figure", "additivity-region",
                                      "--resolution", "10"])
        assert code == 0
        rows = out.strip().splitlines()[1:]
        inside = {r.split(",")[2] for r in rows}
        assert inside == {"0", "1"}

    def test_davies_qutrit_set_recomputable(self, tmp_path):
        out = tmp_path / "set.csv"
        code = cli.main(["figure", "--figure", "davies-qutrit-set", "--resolution", "10",
                         "--output", str(out)])
        assert code == 0
        lines = out.read_text().strip().splitlines()
        assert lines[0] == "f12,f13,f23,member,boundary,l21,l31,l32"
        from chanent import davies

        for line in lines[1:30]:
            f12, f13, f23, member = line.split(",")[:4]
            block = davies.DaviesQutritBlock(
                f21=float(f23), f31=float(f13), f32=float(f12)
            )
            res = davies.membership(block)
            assert ("1" if res.is_member else "0") == member
        cross = tmp_path / "set_cross.csv"
        header, *rows = cross.read_text().strip().splitlines()
        assert header == lines[0] and rows  # an even resolution has cross-section rows too

    def test_davies_qutrit_set_json(self, capsys, tmp_path):
        # --format json writes each table as its CSV rows, keyed by the header; on stdout
        # only the main table is written, with --output the cross section beside it
        argv = ["figure", "--figure", "davies-qutrit-set", "--resolution", "11"]
        cli.main(argv + ["--output", str(tmp_path / "set.csv")])
        code, out = run_main(capsys, argv + ["--format", "json"])
        assert code == 0
        assert cli.main(argv + ["--format", "json", "--output", str(tmp_path / "set.json")]) == 0
        assert json.loads((tmp_path / "set.json").read_text()) == json.loads(out)
        for part in ("set", "set_cross"):
            header, *rows = (tmp_path / f"{part}.csv").read_text().strip().splitlines()
            got = json.loads((tmp_path / f"{part}.json").read_text())
            assert [list(r) for r in got] == [header.split(",")] * len(rows)
            assert [list(r.values()) for r in got] == [row.split(",") for row in rows]
        assert len(json.loads(out)) > len(json.loads((tmp_path / "set_cross.json").read_text())) > 0

    def test_davies_qubit_region(self, capsys):
        code, out = run_main(capsys, ["figure", "--figure", "davies-qubit-region",
                                      "--resolution", "20", "--seed", "2"])
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0] == "kind,p,a,c,t,tag"
        kinds = {line.split(",")[0] for line in lines[1:]}
        assert kinds == {"boundary", "path"}

    def test_json_format(self, capsys):
        code, out = run_main(capsys, ["figure", "--figure", "scatter-q", "--q", "2",
                                      "--trials", "4", "--seed", "1", "--format", "json"])
        assert code == 0
        rows = json.loads(out)
        assert len(rows) == 4 and set(rows[0]) == {"s_map", "s_min", "q", "tag"}

    def test_unknown_figure_is_usage_error(self):
        with pytest.raises(SystemExit) as err:
            cli.main(["figure", "--figure", "nope"])
        assert err.value.code == 2


class TestSuitesSmall:
    @pytest.mark.parametrize("suite", ["props", "sandwich", "lindblad", "conjecture1"])
    def test_small_runs_pass(self, suite, tmp_path):
        out = tmp_path / "r.json"
        code = cli.main(["verify", "--suite", suite, "--trials", "15", "--seed", "9",
                         "--output", str(out)])
        assert code == 0

    def test_davies_suite_small(self, tmp_path):
        out = tmp_path / "r.json"
        code = cli.main(["verify", "--suite", "davies", "--trials", "5", "--seed", "9",
                         "--output", str(out)])
        assert code == 0

    def test_multiplicativity_suite_small(self, tmp_path):
        out = tmp_path / "r.json"
        code = cli.main(["verify", "--suite", "multiplicativity", "--trials", "2",
                         "--seed", "9", "--output", str(out)])
        assert code == 0
