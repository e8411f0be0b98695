import argparse
import contextlib
import io
import itertools
import json
import math
import tracemalloc
from dataclasses import asdict

import pytest
from hypothesis import HealthCheck, event, given, settings
from hypothesis import strategies as st

from treespread import (
    SimConfig,
    SimResult,
    SimulationError,
    analysis,
    check_orbit_conditions,
    dominant_profile,
    make_offspring,
    mc_sim,
    pgf_deriv,
    simulate_root,
    zary,
    zary_map,
)
from treespread import cli
from treespread.dynamics import MAX_K
from treespread.cli import (
    EXIT_ABSENT,
    EXIT_BUDGET,
    EXIT_CONFIG,
    EXIT_OK,
    build_parser,
    main,
    parse_profile,
)
from treespread.mc_sim import _GWKernel


FIG_FE_ARG = json.dumps({"masses": [[3, 1 / 3], [6, 1 / 3], [10, 1 / 3]]})
GW_6_12 = '{"masses": [[6, 0.5], [12, 0.5]]}'


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestParseProfile:
    def test_uniform(self):
        assert parse_profile("uniform:3", None).masses == (0.25,) * 4

    def test_explicit(self):
        assert parse_profile("0.5,0.2,0.3", 2).k == 2

    def test_dominant_needs_k(self):
        from treespread.cli import ConfigError

        with pytest.raises(ConfigError):
            parse_profile("dominant:1", None)
        assert parse_profile("dominant:2", 4).masses == dominant_profile(4, 2).masses

    def test_k_conflict(self):
        from treespread.cli import ConfigError

        with pytest.raises(ConfigError):
            parse_profile("uniform:3", 2)


class TestIterate:
    def test_binary_converges(self, capsys):
        code, out, _ = run(
            capsys, "iterate", "--offspring", "zary:2", "--k", "2", "--profile", "uniform:2"
        )
        assert code == EXIT_OK
        obj = json.loads(out)
        assert obj["stop_reason"] == "converged"
        assert obj["states"][-1][0] == pytest.approx(1 / 3, abs=1e-9)
        assert obj["config"]["offspring"] == "zary:2"

    def test_z6_period2(self, capsys):
        code, out, _ = run(
            capsys, "iterate", "--offspring", "zary:6", "--k", "2", "--profile", "uniform:2"
        )
        assert code == EXIT_OK
        assert json.loads(out)["stop_reason"] == "period2"

    def test_invalid_k(self, capsys):
        code, _, err = run(
            capsys, "iterate", "--offspring", "zary:2", "--k", "0", "--profile", "uniform:0"
        )
        assert code == EXIT_CONFIG
        assert "error:" in err

    def test_budget_exit(self, capsys):
        code, out, _ = run(
            capsys,
            "iterate", "--offspring", "zary:6", "--k", "2", "--profile", "uniform:2",
            "--max-iters", "5",
        )
        assert code == EXIT_BUDGET

    def test_csv_embeds_config(self, capsys, tmp_path):
        path = tmp_path / "traj.csv"
        code, _, _ = run(
            capsys,
            "iterate", "--offspring", "zary:2", "--k", "2", "--profile", "uniform:2",
            "--format", "csv", "--out", str(path),
        )
        assert code == EXIT_OK
        lines = path.read_text().split("\n")
        assert lines[0].startswith("# config: ")
        json.loads(lines[0][len("# config: "):])
        assert lines[1] == "n,p_1,p_2,p_3"


class TestAnalyze:
    def test_z6_report(self, capsys):
        code, out, _ = run(capsys, "analyze", "--offspring", "zary:6", "--k", "2")
        assert code == EXIT_OK
        obj = json.loads(out)
        assert obj["fixed_point"]["classification"] == "repelling"
        assert obj["orbit_conditions"] == [True, True, True]

    def test_z4_attracting(self, capsys):
        code, out, _ = run(capsys, "analyze", "--offspring", "zary:4", "--k", "7")
        assert code == EXIT_OK
        assert json.loads(out)["fixed_point"]["classification"] == "attracting"

    @pytest.mark.parametrize("z,k,i", [(6, 5, 2), (12, 50, 3), (3, 20, 20)])
    def test_dominant_count_finds_each_fixed_point_once(self, capsys, monkeypatch, z, k, i):
        """--i: f_{z,i}'s fixed point serves both the spectrum and the orbit conditions."""
        find = analysis.find_fixed_point
        calls = []
        monkeypatch.setattr(analysis, "find_fixed_point", lambda spec: calls.append(spec.k) or find(spec))
        code, out, _ = run(capsys, "analyze", "--offspring", f"zary:{z}", "--k", str(k), "--i", str(i))
        assert code == EXIT_OK
        assert sorted(calls) == sorted({k, i})
        obj = json.loads(out)
        assert set(obj) == {
            "asymptotic_multiplier",
            "config",
            "critical_points",
            "fixed_point",
            "framing_bounds",
            "nonuniform_spectrum",
            "orbit_conditions",
        }
        assert set(obj["fixed_point"]) == {
            "classification", "lower_bound", "multiplier", "residual", "upper_bound", "x_bar"
        }
        assert set(obj["critical_points"]) == {"f_at_x_hat", "x_hat", "x_star"}
        assert set(obj["framing_bounds"]) == {"lower", "upper"}
        assert obj["config"] == {"subcommand": "analyze", "offspring": f"zary:{z}", "k": k, "i": i}
        monkeypatch.undo()
        fixed_i = analysis.find_fixed_point(zary_map(z, i))
        assert obj["fixed_point"] == json.loads(json.dumps(asdict(analysis.find_fixed_point(zary_map(z, k)))))
        assert obj["orbit_conditions"] == list(check_orbit_conditions(z, i))
        lam2 = pgf_deriv(zary(z), 1.0 - i * fixed_i.x_bar)
        assert obj["nonuniform_spectrum"] == [fixed_i.multiplier] + [lam2] * (k - i)

    def test_gw_law(self, capsys):
        spec = '{"masses":[[3,0.3333333333],[6,0.3333333333],[10,0.3333333334]]}'
        code, out, _ = run(capsys, "analyze", "--offspring", spec, "--k", "4")
        assert code == EXIT_OK
        fp = json.loads(out)["fixed_point"]
        assert fp["residual"] < 1e-12

    @pytest.mark.parametrize("i", [0, 2, 7])
    def test_gw_law_refuses_a_dominant_count(self, capsys, i):
        code, out, err = run(capsys, "analyze", "--offspring", FIG_FE_ARG, "--k", "3", "--i", str(i))
        assert code == EXIT_CONFIG and out == ""
        assert err.startswith("error:") and "z-ary" in err

    @pytest.mark.parametrize("i", [-1, 0, 3, 10**7])
    def test_dominant_count_out_of_range(self, capsys, i):
        """An --i outside [1, k] is refused by name, not by a check of k downstream."""
        code, out, err = run(capsys, "analyze", "--offspring", "zary:6", "--k", "2", "--i", str(i))
        assert code == EXIT_CONFIG and out == ""
        assert err == f"error: dominant count {i} outside [1, 2]\n"

    def test_lone_atom_law_reports_as_zary(self, capsys):
        """A one-atom JSON law within PROB_TOL of mass 1 is zary(z): one map for every entry of the report."""
        reports = []
        for law in ('{"masses": [[6, 0.9999999999995]]}', "zary:6"):
            code, out, _ = run(capsys, "analyze", "--offspring", law, "--k", "2")
            assert code == EXIT_OK
            obj = json.loads(out)
            del obj["config"]
            reports.append(obj)
        assert reports[0] == reports[1]


class TestOrbit:
    def test_found(self, capsys):
        code, out, _ = run(capsys, "orbit", "--offspring", "zary:6", "--k", "2", "--period", "2")
        assert code == EXIT_OK
        obj = json.loads(out)
        assert obj["stable"] is True and len(obj["points"]) == 2

    def test_absent(self, capsys):
        code, out, _ = run(capsys, "orbit", "--offspring", "zary:3", "--k", "2", "--period", "2")
        assert code == EXIT_ABSENT
        assert json.loads(out)["orbit"] is None

    def test_gw_law(self, capsys):
        code, out, _ = run(capsys, "orbit", "--offspring", GW_6_12, "--k", "2")
        assert code == EXIT_OK
        obj = json.loads(out)
        assert obj["stable"] is True
        assert obj["points"] == pytest.approx([0.10932348929520261, 0.23458534273512802], abs=1e-12)

    def test_gw_law_absent(self, capsys):
        code, out, _ = run(capsys, "orbit", "--offspring", FIG_FE_ARG, "--k", "3")
        assert code == EXIT_ABSENT
        assert json.loads(out)["orbit"] is None

    def test_cycle_left_of_the_maximum(self, capsys):
        # the attracting 2-cycle {0.0821, 0.2658} of f_{8,2} has its left point below x_hat
        code, out, _ = run(capsys, "orbit", "--offspring", "zary:8", "--k", "2")
        assert code == EXIT_OK
        obj = json.loads(out)
        assert obj["stable"] is True and len(obj["points"]) == 2


class TestBasin:
    def test_small_sweep(self, capsys, tmp_path):
        path = tmp_path / "basin.csv"
        code, _, err = run(
            capsys,
            "basin", "--offspring", "zary:6", "--k", "2", "--starts", "40",
            "--seed", "1", "--out", str(path),
        )
        assert code == EXIT_OK
        lines = path.read_text().strip().split("\n")
        assert len(lines) == 42  # config + header + 40 starts
        summary = json.loads(err)
        assert summary["fractions"]["orbit_left"] + summary["fractions"]["orbit_right"] > 0.9

    def test_no_orbit(self, capsys):
        code, _, _ = run(capsys, "basin", "--offspring", "zary:3", "--k", "2", "--starts", "5")
        assert code == EXIT_ABSENT

    def test_cycle_left_of_the_maximum(self, capsys):
        code, _, err = run(capsys, "basin", "--offspring", "zary:8", "--k", "2", "--starts", "200", "--seed", "1")
        assert code == EXIT_OK
        fractions = json.loads(err)["fractions"]
        assert fractions["orbit_left"] + fractions["orbit_right"] >= 0.99

    def test_gw_law(self, capsys):
        code, _, err = run(capsys, "basin", "--offspring", GW_6_12, "--k", "2", "--starts", "200", "--seed", "1")
        assert code == EXIT_OK
        fractions = json.loads(err)["fractions"]
        assert fractions["orbit_left"] + fractions["orbit_right"] >= 0.99

    @pytest.mark.parametrize("starts", [40, 71])
    def test_batches_write_what_one_batch_writes(self, capsys, monkeypatch, tmp_path, starts):
        """40 starts are five batches of 7 and a short one, 71 starts ten and a batch of one."""
        argv = ("basin", "--offspring", "zary:6", "--k", "2", "--starts", str(starts), "--seed", "1", "--out")
        code, out, err = run(capsys, *argv, str(tmp_path / "one.csv"))
        monkeypatch.setattr(cli, "BASIN_BATCH", 7)
        assert run(capsys, *argv, str(tmp_path / "seven.csv")) == (code, out, err)
        assert (tmp_path / "seven.csv").read_bytes() == (tmp_path / "one.csv").read_bytes()
        assert code == EXIT_OK and len((tmp_path / "one.csv").read_text().splitlines()) == starts + 2

    def test_memory_stays_one_batch(self, capsys, monkeypatch, tmp_path):
        """basin holds one batch of starts, verdicts and rows.  With the orbit found beforehand (its grid scan peaks
        at about 0.46 MiB), 2000 starts at a batch of 64 peak at about 42 KiB; held all at once they took 0.41 MiB."""
        orbit = analysis.find_orbit(zary_map(6, 2), 2)
        monkeypatch.setattr(analysis, "find_orbit", lambda spec, period: orbit)
        monkeypatch.setattr(cli, "BASIN_BATCH", 64)
        argv = ("basin", "--offspring", "zary:6", "--k", "2", "--out", str(tmp_path / "basin.csv"), "--starts")
        run(capsys, *argv, "1")  # the parser and numpy's lazily made objects are not the sweep's
        tracemalloc.start()
        try:
            code, _, err = run(capsys, *argv, "2000")
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert code == EXIT_OK and json.loads(err)["n_starts"] == 2000
        assert len((tmp_path / "basin.csv").read_text().splitlines()) == 2002
        assert peak < 2**17

    def test_repelling_orbit_is_absent(self, capsys):
        # f_{12,2} has a 2-cycle, but a repelling one: no start could settle on it
        code, _, err = run(capsys, "basin", "--offspring", "zary:12", "--k", "2", "--starts", "5")
        assert code == EXIT_ABSENT
        assert "attracting" in err


class TestSimulate:
    def test_matches_recursion(self, capsys):
        code, out, _ = run(
            capsys,
            "simulate", "--offspring", "zary:2", "--k", "2", "--profile", "uniform:2",
            "--height", "3", "--trials", "20000", "--seed", "7",
        )
        assert code == EXIT_OK
        obj = json.loads(out)
        assert all(abs(z) <= 4 for z in obj["z_scores"])

    def test_csv_table(self, capsys):
        code, out, _ = run(
            capsys,
            "simulate", "--offspring", "zary:2", "--k", "2", "--profile", "0.5,0.2,0.3",
            "--height", "2", "--trials", "5000", "--format", "csv",
        )
        assert code == EXIT_OK
        lines = out.strip().split("\n")
        assert lines[1] == "coord,analytic,empirical,stderr,z"
        assert lines[2].startswith("p_1,") and lines[-1].startswith("sane,")

    def test_z_gate_uses_analytic_sigma_floor(self, capsys, monkeypatch):
        # every trial ended on disease 1, so the empirical stderr is 0 on every coordinate
        monkeypatch.setattr(
            "treespread.cli.simulate_root",
            lambda cfg: SimResult(masses=(1.0, 0.0, 0.0), stderr=(0.0, 0.0, 0.0), trials=100),
        )
        code, out, _ = run(
            capsys,
            "simulate", "--offspring", "zary:2", "--k", "2", "--profile", "0.5,0.3,0.2",
            "--height", "3", "--trials", "100",
        )
        obj = json.loads(out)
        assert obj["analytic"] == pytest.approx([0.57, 0.15, 0.28], abs=0.01)
        assert code == EXIT_BUDGET
        assert all(abs(z) > 4 for z in obj["z_scores"])

    def test_budget_guard(self, capsys):
        spec = '{"masses":[[3,0.3333333333],[6,0.3333333333],[10,0.3333333334]]}'
        code, _, err = run(
            capsys,
            "simulate", "--offspring", spec, "--k", "2", "--profile", "0.5,0.2,0.3",
            "--height", "12", "--trials", "100",
        )
        assert code == EXIT_CONFIG
        assert "budget" in err


class TestBadInput:
    @pytest.mark.parametrize(
        "argv",
        [
            ("iterate", "--offspring", "zary:2", "--k", "2"),  # missing --profile
            ("orbit", "--offspring", "zary:6", "--k", "2", "--period", "3"),
            ("basin", "--offspring", "zary:6", "--k", "2", "--starts", "many"),
            (),  # no subcommand
            ("iterate", "--config"),  # no path after --config
        ],
        ids=["missing-profile", "period-3", "non-integer", "no-subcommand", "config-no-path"],
    )
    def test_usage_errors_exit_config(self, capsys, argv):
        code, _, err = run(capsys, *argv)
        assert code == EXIT_CONFIG
        assert "error:" in err

    @pytest.mark.parametrize("sub", ["analyze", "orbit", "basin"])
    def test_scalar_map_needs_k(self, capsys, sub):
        code, out, err = run(capsys, sub, "--offspring", "zary:6")
        assert code == EXIT_CONFIG
        assert err == f"error: {sub} needs --k\n" and out == ""

    def test_gw_past_63_diseases_exits_config(self, capsys):
        """Every simulated tree, GW or z-ary, keeps a node's diseases and sane bit in one uint64 mask."""
        for law in (json.dumps({"masses": [[2, 0.5], [3, 0.5]]}), "zary:2"):
            code, out, err = run(
                capsys, "simulate", "--offspring", law, "--profile", "uniform:64", "--height", "2", "--trials", "10"
            )
            assert code == EXIT_CONFIG, law
            assert err.startswith("error:") and "max 63" in err and out == "", law

    def test_help_exits_zero(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["--help"])
        assert exc.value.code == 0
        assert "usage:" in capsys.readouterr().out

    @pytest.mark.parametrize("content", [None, "{not json", "[1, 2]"], ids=["missing", "malformed", "not-object"])
    def test_bad_config_file(self, capsys, tmp_path, content):
        cfg = tmp_path / "run.json"
        if content is not None:
            cfg.write_text(content)
        code, _, err = run(capsys, "iterate", "--config", str(cfg))
        assert code == EXIT_CONFIG
        assert "error:" in err

    @pytest.mark.parametrize(
        "argv",
        [
            ("simulate", "--offspring", "zary:2", "--profile", "nan,0.5,0.5", "--height", "2", "--trials", "10"),
            ("iterate", "--offspring", "zary:2", "--profile", "nan,0.5,0.5", "--max-iters", "50"),
            ("analyze", "--offspring", '{"masses": [[2, NaN], [3, 1.0]]}', "--k", "2"),
            ("simulate", "--offspring", "zary:2", "--profile", "0.5,0.5", "--height", "1", "--trials", "10",
             "--node-budget", "nan"),
            ("iterate", "--offspring", "zary:2", "--profile", "uniform:2", "--tol", "nan", "--max-iters", "50"),
            ("iterate", "--offspring", "zary:2", "--profile", "uniform:2", "--tol", "-1", "--max-iters", "50"),
        ],
        ids=["simulate-profile", "iterate-profile", "analyze-offspring", "node-budget", "tol-nan", "tol-negative"],
    )
    def test_non_finite_input_exits_config(self, capsys, argv):
        # NaN fails every <= / > check, so each entry point tests finiteness itself
        code, _, err = run(capsys, *argv)
        assert code == EXIT_CONFIG
        assert "error:" in err

    @pytest.mark.parametrize(
        "argv",
        [
            ("analyze", "--offspring", "zary:2", "--k", str(10**20)),
            ("basin", "--offspring", "zary:6", "--k", str(10**16), "--starts", "3"),
            ("iterate", "--offspring", "zary:2", "--k", str(10**20), "--profile", "dominant:2"),
            ("iterate", "--offspring", "zary:2", "--profile", f"uniform:{MAX_K + 1}"),
        ],
        ids=["analyze", "basin", "dominant-profile", "uniform-profile"],
    )
    def test_huge_k_exits_config(self, capsys, argv):
        """k past MAX_K is refused before anything is sized by it or divides by G(1-(k-1)x) - G(1-kx).

        These raised ZeroDivisionError and OverflowError, or built a list of k+1 masses.
        """
        code, _, err = run(capsys, *argv)
        assert code == EXIT_CONFIG
        assert err.startswith("error:") and str(MAX_K) in err

    @pytest.mark.parametrize(
        "argv",
        [
            ("iterate", "--offspring", "zary:2", "--profile", "uniform:2", "--max-iters", "-3"),
            ("iterate", "--offspring", "zary:2", "--profile", "uniform:2", "--max-iters", "0"),
            ("basin", "--offspring", "zary:6", "--k", "2", "--starts", "0"),
            ("basin", "--offspring", "zary:6", "--k", "2", "--starts", "-5"),
            ("basin", "--offspring", "zary:6", "--k", "2", "--starts", "10", "--max-iters", "0"),
        ],
        ids=["iterate-max-iters-negative", "iterate-max-iters-zero", "basin-starts-zero", "basin-starts-negative",
             "basin-max-iters-zero"],
    )
    def test_empty_budgets_exit_config(self, capsys, argv):
        # a budget of no iterations or no starts would pass vacuously or fail deep in numpy
        code, out, err = run(capsys, *argv)
        assert code == EXIT_CONFIG
        assert "error:" in err and "Traceback" not in err
        assert out == ""

    def test_tall_tree_over_budget_exits_config(self, capsys):
        # 2^2000 nodes per trial overflows a float; the budget check must still refuse it
        code, out, err = run(
            capsys,
            "simulate", "--offspring", "zary:2", "--k", "2", "--profile", "uniform:2",
            "--height", "2000", "--trials", "1", "--seed", "1",
        )
        assert code == EXIT_CONFIG
        assert "error:" in err and "budget" in err and "Traceback" not in err
        assert out == ""

    def test_trajectory_over_budget_exits_config(self, capsys, monkeypatch, tmp_path):
        # iterate keeps every state: at k = 10^4 the default --max-iters would hold about 8 GB of them.
        # With the budget at 1 MiB, the run stops after about 13 states and writes nothing
        monkeypatch.setattr("treespread.dynamics.MAX_TRAJECTORY_BYTES", 2**20)
        path = tmp_path / "traj.json"
        tracemalloc.start()
        try:
            code, out, err = run(
                capsys,
                "iterate", "--offspring", "zary:12", "--profile", "dominant:2", "--k", "10000", "--out", str(path),
            )
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert code == EXIT_CONFIG
        assert "error:" in err and str(2**20) in err and "Traceback" not in err
        assert out == "" and not path.exists() and peak < 3 * 2**20

    @pytest.mark.parametrize(
        "argv",
        [
            ("iterate", "--offspring", "zary:2", "--profile", "uniform:2"),
            ("analyze", "--offspring", "zary:6", "--k", "2"),
            ("orbit", "--offspring", "zary:6", "--k", "2"),
            ("basin", "--offspring", "zary:6", "--k", "2", "--starts", "5"),
            ("simulate", "--offspring", "zary:2", "--k", "2", "--profile", "uniform:2", "--height", "2",
             "--trials", "10"),
        ],
        ids=lambda argv: argv[0],
    )
    def test_unwritable_out_exits_config(self, capsys, tmp_path, argv):
        path = tmp_path / "missing" / "x"
        code, out, err = run(capsys, *argv, "--out", str(path))
        assert code == EXIT_CONFIG
        assert err.startswith("error:") and "Traceback" not in err
        assert out == "" and not path.parent.exists()

    def test_realised_tree_over_budget_exits_config(self, capsys):
        # expected 6.8^3 = 314 nodes per trial passes the budget of 400; the first seed
        # whose sampled tree is larger must exit 1 through the CLI
        law = make_offspring([(2, 0.9), (50, 0.1)])

        def over_budget(seed):
            try:
                simulate_root(SimConfig(law, (0.5, 0.2, 0.3), height=3, trials=1, seed=seed, node_budget=400))
            except SimulationError:
                return True
            return False

        seed = next(filter(over_budget, range(50)))
        code, _, err = run(
            capsys,
            "simulate", "--offspring", '{"masses": [[2, 0.9], [50, 0.1]]}', "--profile", "0.5,0.2,0.3",
            "--height", "3", "--trials", "1", "--seed", str(seed), "--node-budget", "400",
        )
        assert code == EXIT_CONFIG
        assert "error:" in err and "budget" in err

    def test_leaf_level_over_budget_exits_config(self, capsys):
        # the top-down level sizes stop above the leaves, so a tree over the budget at its
        # leaves only is refused on the way up; the CLI must still exit 1
        law = make_offspring([(2, 0.9), (50, 0.1)])

        def over_at_leaves_only(seed):
            cfg = SimConfig(law, (0.5, 0.2, 0.3), height=4, trials=1, seed=seed, node_budget=2200)
            try:
                _GWKernel(cfg).level_sizes(0, 1)
            except SimulationError:
                return False
            try:
                simulate_root(cfg)
            except SimulationError:
                return True
            return False

        seed = next(filter(over_at_leaves_only, range(50)))
        code, out, err = run(
            capsys,
            "simulate", "--offspring", '{"masses": [[2, 0.9], [50, 0.1]]}', "--profile", "0.5,0.2,0.3",
            "--height", "4", "--trials", "1", "--seed", str(seed), "--node-budget", "2200",
        )
        assert code == EXIT_CONFIG
        assert "error:" in err and "depth 4" in err and "budget" in err and "Traceback" not in err
        assert out == ""

    def test_invalid_thread_count_names_the_variable(self, capsys, monkeypatch):
        def no_pool(*args, **kwargs):
            raise AssertionError("a thread pool was built")

        monkeypatch.setattr(mc_sim, "ThreadPoolExecutor", no_pool)  # so no value starts a thread
        for threads in ("abc", "-1", str(mc_sim.MAX_WORKERS + 1)):
            monkeypatch.setenv("TREESPREAD_THREADS", threads)
            code, out, err = run(
                capsys,
                "simulate", "--offspring", "zary:2", "--k", "2", "--profile", "uniform:2",
                "--height", "2", "--trials", "20480000",
            )
            assert code == EXIT_CONFIG, threads
            assert "error:" in err and f"TREESPREAD_THREADS={threads!r}" in err and "Traceback" not in err
            assert out == ""


def _option_dests(sub: str) -> set[str]:
    """The dests of every option the subcommand's parser defines."""
    subparsers = next(a for a in build_parser()._actions if isinstance(a, argparse._SubParsersAction))
    return {a.dest for a in subparsers.choices[sub]._actions if not isinstance(a, argparse._HelpAction)}


@pytest.mark.parametrize(
    "argv",
    [
        ("iterate", "--offspring", "zary:2", "--k", "2", "--profile", "uniform:2", "--format", "csv"),
        ("analyze", "--offspring", "zary:6", "--k", "2"),
        ("orbit", "--offspring", "zary:6", "--k", "2"),
        ("basin", "--offspring", "zary:6", "--k", "2", "--starts", "5"),
        ("simulate", "--offspring", "zary:2", "--profile", "uniform:2", "--height", "2", "--trials", "64",
         "--format", "csv"),
    ],
    ids=lambda argv: argv[0],
)
def test_embedded_config_is_the_subcommands_flags(capsys, tmp_path, argv):
    path = tmp_path / "out"
    code, _, err = run(capsys, *argv, "--out", str(path))
    assert code == EXIT_OK, err
    head, text = "# config: ", path.read_text()
    cfg = json.loads(text.split("\n", 1)[0][len(head):]) if text.startswith(head) else json.loads(text)["config"]
    assert cfg["subcommand"] == argv[0]
    assert set(cfg) == _option_dests(argv[0]) - {"out"} | {"subcommand"}


def test_one_parser_per_process(capsys, monkeypatch, tmp_path):
    """After the first call no argparse parser is built, and errors leave the shared one as it was."""
    argv = ["iterate", "--offspring", "zary:6", "--k", "2", "--profile", "uniform:2", "--max-iters", "5"]
    first, second = tmp_path / "first.json", tmp_path / "second.json"
    assert main([*argv, "--out", str(first)]) == EXIT_BUDGET
    inits = []
    original = argparse.ArgumentParser.__init__

    def counting_init(self, *args, **kwargs):
        inits.append(kwargs.get("prog"))
        original(self, *args, **kwargs)

    monkeypatch.setattr(argparse.ArgumentParser, "__init__", counting_init)
    assert main(["iterate", "--offspring", "zary:6", "--max-iters", "many"]) == EXIT_CONFIG
    with pytest.raises(SystemExit):
        main(["iterate", "--help"])
    assert main([*argv, "--out", str(second)]) == EXIT_BUDGET
    assert inits == []
    assert first.read_bytes() == second.read_bytes()
    assert build_parser() is build_parser()


class TestReproducibility:
    def test_byte_identical_outputs(self, capsys, tmp_path):
        paths = [tmp_path / "a.json", tmp_path / "b.json"]
        for p in paths:
            code, _, _ = run(
                capsys,
                "simulate", "--offspring", "zary:2", "--k", "2", "--profile", "uniform:2",
                "--height", "4", "--trials", "8192", "--seed", "99", "--out", str(p),
            )
            assert code == EXIT_OK
        assert paths[0].read_bytes() == paths[1].read_bytes()

    @pytest.mark.parametrize(
        "argv",
        [
            ("--offspring", '{"masses": [[3, 0.5], [6, 0.5]]}', "--profile", "0.5,0.2,0.3", "--height", "2",
             "--trials", "8193"),
            ("--offspring", "zary:2", "--profile", "0.5,0.2,0.3", "--height", "5", "--trials", "8193",
             "--alpha", "0.3"),
            # each chunk spans eight leaf blocks, each of which refills its chunk's block buffers
            ("--offspring", "zary:2", "--profile", "uniform:8", "--height", "12", "--trials", "8193"),
            # each full chunk has about 370k leaf parents (two bottom blocks) and 82k parents above
            # them (three windows), under each rule
            ("--offspring", '{"masses": [[3, 0.5], [6, 0.5]]}', "--profile", "0.5,0.2,0.3", "--height", "4",
             "--trials", "8193"),
            ("--offspring", '{"masses": [[3, 0.5], [6, 0.5]]}', "--profile", "0.5,0.2,0.3", "--height", "4",
             "--trials", "8193", "--alpha", "0.5"),
        ],
        ids=["gw", "zary_retention", "zary_k8", "gw_blocks", "gw_blocks_retention"],
    )
    def test_out_independent_of_thread_count(self, capsys, tmp_path, monkeypatch, argv):
        # three chunks, so two or three threads run them concurrently
        outs = []
        for threads in ("1", "2", "3"):
            monkeypatch.setenv("TREESPREAD_THREADS", threads)
            path = tmp_path / f"threads{threads}.json"
            code, _, err = run(capsys, "simulate", "--seed", "7", *argv, "--out", str(path))
            assert code == EXIT_OK, err
            outs.append(path.read_bytes())
        assert outs[0] == outs[1] == outs[2]

    def test_config_file_defaults(self, capsys, tmp_path):
        cfg = tmp_path / "run.json"
        cfg.write_text(json.dumps({"offspring": "zary:2", "k": 2, "profile": "uniform:2"}))
        code, out, _ = run(capsys, "iterate", "--config", str(cfg))
        assert code == EXIT_OK
        assert json.loads(out)["stop_reason"] == "converged"

    def test_config_file_offspring_object(self, capsys, tmp_path):
        cfg = tmp_path / "run.json"
        law = {"masses": [[2, 0.5], [4, 0.5]]}
        cfg.write_text(json.dumps({"offspring": law, "k": 2, "profile": "uniform:2"}))
        code, out, err = run(capsys, "iterate", "--config", str(cfg))
        assert code == EXIT_OK, err
        assert json.loads(json.loads(out)["config"]["offspring"]) == law

    @pytest.mark.parametrize("form", ["equals", "abbreviated"])
    def test_config_flag_in_any_form_argparse_accepts(self, capsys, tmp_path, form):
        """--config=FILE and --conf FILE were accepted and then ignored."""
        cfg = tmp_path / "run.json"
        cfg.write_text(json.dumps({"max_iters": 3}))
        flag = [f"--config={cfg}"] if form == "equals" else ["--conf", str(cfg)]
        code, out, err = run(capsys, *flag, "iterate", "--offspring", "zary:6", "--profile", "uniform:2")
        assert code == EXIT_BUDGET, err
        obj = json.loads(out)
        assert obj["config"]["max_iters"] == 3 and obj["iterations"] == 3

    def test_explicit_flag_beats_config(self, capsys, tmp_path):
        cfg = tmp_path / "run.json"
        cfg.write_text(json.dumps({"offspring": "zary:2", "k": 2, "profile": "uniform:2"}))
        code, out, _ = run(
            capsys, "iterate", "--config", str(cfg), "--offspring", "zary:6"
        )
        assert code == EXIT_OK
        obj = json.loads(out)
        assert obj["config"]["offspring"] == "zary:6"
        assert obj["stop_reason"] == "period2"


# --- generated argv: every input ends in a protocol exit code ------------------------

_JUNK = st.sampled_from(["", "x", "-1", "0", "nan", "inf", "1e309", "0x10", "{", "[2]"])
# past MAX_K and past any node budget; as many trials, starts or iterations would run that long
_HUGE = {"--k": "99999999999999999999", "--height": "99999999999999999999"}
_LAWS = st.lists(st.tuples(st.integers(-1, 6), st.floats(-0.5, 1.5)), min_size=1, max_size=3).map(
    lambda atoms: json.dumps({"masses": [list(a) for a in atoms]})
)
_ZARY = st.integers(2, 6).map("zary:{}".format)
_GOOD_LAWS = st.sampled_from(['{"masses": [[2, 0.5], [3, 0.5]]}', '{"masses": [[2, 0.3], [5, 0.7]]}'])
_MASSES = st.lists(st.floats(0, 1) | st.floats(-0.5, 1.5) | st.just(math.nan), min_size=1, max_size=9)


def _profile_for(k: int):
    return (
        st.just(f"uniform:{k}")
        | st.integers(0, k + 1).map("dominant:{}".format)
        | st.lists(st.floats(0.01, 1), min_size=k + 1, max_size=k + 1).map(lambda ms: [m / sum(ms) for m in ms])
        .map(lambda ms: ",".join(map(repr, ms)))
        | _MASSES.map(lambda ms: ",".join(map(str, ms)))
    )


# a subcommand's flags and their mostly valid values; sizes are capped so that every accepted
# run is small: z^height and a law's mean^height stay in the thousands, trials and starts in the
# hundreds
_OPTIONAL = {
    "iterate": {"--alpha": st.floats(-0.5, 1.5), "--tol": st.floats(-1e-3, 1e-3), "--max-iters": st.integers(-1, 300),
                "--format": st.sampled_from(["csv", "json", "xml"])},
    "analyze": {"--i": st.integers(-1, 9)},
    "orbit": {"--period": st.integers(0, 5)},
    "basin": {"--starts": st.integers(-1, 200), "--seed": st.integers(-2, 2**70), "--max-iters": st.integers(-1, 300)},
    "simulate": {"--alpha": st.floats(-0.5, 1.5), "--seed": st.integers(-2, 2**70),
                 "--node-budget": st.floats(-1.0, 1e4), "--format": st.sampled_from(["csv", "json", "xml"])},
}


@st.composite
def _argv(draw) -> list[str]:
    """A subcommand's argv, usually valid: some flags dropped, repeated, foreign or given junk values."""
    sub = draw(st.sampled_from(sorted(_OPTIONAL)))
    k = draw(st.integers(1, 8))
    flags = {
        "--offspring": draw(st.one_of(_ZARY, _ZARY, _GOOD_LAWS, st.sampled_from(["zary:1", "zary:0"]), _LAWS)),
        "--k": str(k),
    }
    if sub in ("iterate", "simulate"):
        flags["--profile"] = draw(_profile_for(k))
    if sub == "simulate":
        flags["--height"] = str(draw(st.integers(1, 4) | st.integers(-1, 0)))
        flags["--trials"] = str(draw(st.integers(1, 300) | st.integers(-1, 0)))
    optional = _OPTIONAL[sub]
    for flag in draw(st.lists(st.sampled_from(sorted(optional)), max_size=3, unique=True)):
        flags[flag] = str(draw(optional[flag]))
    for flag in draw(st.lists(st.sampled_from(sorted(flags)), max_size=1)):
        if draw(st.booleans()):
            del flags[flag]
        else:
            flags[flag] = draw(_JUNK | st.just(_HUGE[flag]) if flag in _HUGE else _JUNK)
    argv = [sub, *itertools.chain.from_iterable(flags.items())]
    return argv + draw(st.sampled_from([[]] * 8 + [["--k"], ["--trials", "5"], ["--period", "2"], ["stray"]]))


@settings(max_examples=300, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(argv=_argv())
def test_any_argv_exits_with_a_protocol_code(argv):
    """Generated argv for every subcommand, valid or not, returns 0-3 and writes no traceback.

    main raising instead of returning is a traceback at the command line, and exit 1 always
    comes with an error line.
    """
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    assert code in (EXIT_OK, EXIT_CONFIG, EXIT_BUDGET, EXIT_ABSENT), (argv, code)
    event(f"{argv[0]} exit {code}")
    assert "Traceback" not in err.getvalue()
    if code == EXIT_CONFIG:
        assert err.getvalue().startswith("error:"), (argv, err.getvalue())
