import json
import math

import numpy as np
import pytest

from chanent import cli, sampling


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
            return {"slack": 1.0, "violation": True}

        monkeypatch.setitem(cli._TRIALS, "lindblad", bad_trial)
        code = cli.main(["verify", "--suite", "lindblad", "--trials", "3",
                         "--output", str(tmp_path / "r.json")])
        assert code == 1

    def test_nan_slack_is_a_violation(self, tmp_path, monkeypatch):
        # NaN compares False with every threshold, so a trial flag alone misses it
        def nan_at_two(seed, t, params):
            return {"slack": math.nan if t == 2 else -1.0, "violation": False}

        monkeypatch.setitem(cli._TRIALS, "lindblad", nan_at_two)
        out = tmp_path / "r.json"
        code = cli.main(["verify", "--suite", "lindblad", "--trials", "5", "--output", str(out)])
        assert code == 1
        report = json.loads(out.read_text())
        assert report["violations"] == 1
        assert math.isnan(report["max_slack"])

    @pytest.mark.parametrize("suite", ["davies", "lindblad", "sandwich", "theorem1"])
    def test_nan_in_a_later_slack_term_is_a_violation(self, suite, tmp_path, monkeypatch):
        # Python's max/min keep a finite value over a NaN that is not their first
        # argument, so each suite's own slack combination must carry the NaN
        from types import SimpleNamespace

        from chanent import davies, qubit

        if suite == "davies":
            monkeypatch.setattr(davies, "semigroup_residual", lambda *args: math.nan)
        elif suite == "theorem1":
            monkeypatch.setattr(cli.bounds, "theorem1_check", lambda *args: (0.1, 0.2, math.nan, True))
        elif suite == "lindblad":
            rep = SimpleNamespace(lower_slack=0.1, upper_slack=math.nan, chi_slack=0.2)
            monkeypatch.setattr(cli.bounds, "lindblad_check", lambda *args: rep)
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

    def test_max_slack_independent_of_trial_order(self, monkeypatch):
        for first in (0, 3):
            def trial(seed, t, params, first=first):
                return {"slack": math.nan if t == first else float(t), "violation": False}

            monkeypatch.setitem(cli._TRIALS, "lindblad", trial)
            res = cli.run_suite("lindblad", 4, seed=0)
            assert res["violations"] == 1 and math.isnan(res["max_slack"])

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


class TestUsageErrors:
    # each of these once ended in a traceback (exit 1, the "violations found"
    # code) or was silently accepted
    @pytest.mark.parametrize(
        "argv",
        [
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
        ],
    )
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

    def test_conjecture_violation_exits_1(self, tmp_path, monkeypatch):
        import dataclasses

        batch = cli.bounds.hierarchy_batch

        def one_flagged(*args, **kwargs):
            reports = batch(*args, **kwargs)
            reports[3] = dataclasses.replace(reports[3], violations={"conjecture": True})
            return reports

        monkeypatch.setattr(cli.bounds, "hierarchy_batch", one_flagged)
        out = tmp_path / "h.json"
        code = cli.main(["hierarchy", "--trials", "40", "--seed", "5", "--output", str(out)])
        assert code == 1
        rep = json.loads(out.read_text())
        assert rep["violations"] == 1 and rep["max_slack"] == 0.0
        assert set(rep["results"]) == {"trials", "kept", "skipped", "seed", "b", "ancilla", "table"}

    def test_stream_prefix_determinism(self):
        # the first trials of a longer run equal a shorter run bit for bit
        params = {"k": 3, "dim": 2, "b": math.sqrt(3.0), "ancilla": 3}
        short = cli._hierarchy_chunk((42, 0, 25, params))
        long = cli._hierarchy_chunk((42, 0, 60, params))
        assert short == long[:25]

    def test_chunk_builds_no_generator(self, monkeypatch):
        # the chunk draws its uniforms from the stacked Philox kernel: no Generator,
        # and still the rows of one hierarchy call per trial on its own stream
        params = {"k": 3, "dim": 2, "b": math.sqrt(3.0), "ancilla": 3}
        expected = []
        for t in range(5, 45):
            e = sampling.random_ensemble(3, 2, sampling.stream_rng(42, t), ancilla=3)
            r = cli.bounds.hierarchy(e, b=params["b"])
            expected.append(None if r is None else {
                **{name: getattr(r, name) for name in cli._HIERARCHY_FIELDS},
                "conjecture": r.violations["conjecture"]})

        def no_generator(*args, **kwargs):
            raise AssertionError("a Generator was built")

        monkeypatch.setattr(sampling, "stream_rng", no_generator)
        monkeypatch.setattr(np.random, "Generator", no_generator)
        assert cli._hierarchy_chunk((42, 5, 45, params)) == expected

    def test_rows_independent_of_chunk_size(self):
        # each chunk is one stacked evaluation; a row never depends on its neighbours
        params = {"k": 3, "dim": 2, "b": math.sqrt(3.0), "ancilla": 3}
        whole = cli._hierarchy_chunk((42, 0, 60, params))
        for size in (1, 7, 25):
            rows = []
            for start in range(0, 60, size):
                rows += cli._hierarchy_chunk((42, start, min(start + size, 60), params))
            assert rows == whole


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
        assert cross.exists()

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
