"""CLI surface: presets, convergence traces, sweeps, exit codes, determinism."""

import numpy as np
import pytest

from uavstream import convex_core
from uavstream.cli import (DEFAULT_GRIDS, SweepSpec, apply_sweep_value, build_parser,
                           cmd_converge, cmd_presets, cmd_sweep, main, read_rows)
from uavstream.scenario import (ConfigError, format_config, load_config, table2_config)
from uavstream.subproblems import InfeasibleProblem

read_csv = read_rows    # every emitted CSV must round-trip through the harness reader


def strip_wall(row):
    """A sweep row without its timing, the one column that varies by run."""
    return {k: v for k, v in row.items() if k != "wall_ms"}


class TestPresets:
    def test_table2_round_trip(self, tmp_path):
        assert cmd_presets("table2", tmp_path) == 0
        cfg = load_config(tmp_path / "table2.cfg")
        assert cfg == table2_config()

    def test_table2_reference_values(self, tmp_path):
        cmd_presets("table2", tmp_path)
        cfg = load_config(tmp_path / "table2.cfg")
        assert (cfg.bandwidth_B, cfg.noise_density_N0, cfg.ref_gain_alpha0) == (1e6, 1e-20, 1e-6)
        assert (cfg.height_obs_Ho, cfg.height_relay_Hr, cfg.height_gbs_Hb) == (100.0, 100.0, 20.0)
        assert (cfg.rician_K, cfg.outage_target_rho) == (4.0, 0.01)
        assert (cfg.p_max_obs, cfg.p_max_relay, cfg.p_max_user) == (0.1, 0.1, 0.2)
        assert (cfg.utility_theta, cfg.utility_beta, cfg.playback_rate_rbar) == (0.8, 100.0, 1.0)

    def test_video_scenarios_emit_variants(self, tmp_path):
        assert cmd_presets("video_scenarios", tmp_path) == 0
        files = sorted(p.name for p in tmp_path.glob("*.cfg"))
        assert len(files) == 3
        configs = [load_config(tmp_path / f) for f in files]
        assert len({(c.utility_theta, c.utility_beta, c.playback_rate_rbar)
                    for c in configs}) == 3

    def test_unknown_preset_exit_code(self, tmp_path, capsys):
        assert main(["presets", "table2", "--out", str(tmp_path)]) == 0
        with pytest.raises(SystemExit):      # argparse rejects unknown choice
            main(["presets", "mystery", "--out", str(tmp_path)])


class TestConverge:
    def test_trace_monotone_and_deterministic(self, tmp_path):
        cfg = table2_config(num_users_U=3)
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        assert cmd_converge(cfg, 5, a) == 0
        assert cmd_converge(cfg, 5, b) == 0
        assert a.read_bytes() == b.read_bytes()
        rows = read_csv(a)
        exact = [float(r["exact_objective"]) for r in rows]
        lower = [float(r["lower_bound_objective"]) for r in rows]
        assert all(y >= x - 1e-9 for x, y in zip(exact, exact[1:]))
        assert all(l <= e + 1e-9 for l, e in zip(lower, exact))
        assert [int(r["iteration"]) for r in rows] == list(range(len(rows)))

    def test_iteration_cap_gives_single_row(self, tmp_path):
        cfg = table2_config(num_users_U=3, max_bcd_iters=1)
        out = tmp_path / "one.csv"
        cmd_converge(cfg, 1, out)
        rows = read_csv(out)
        assert len(rows) == 2          # initial point plus exactly one iteration
        assert int(rows[-1]["iteration"]) == 1


class TestSweep:
    def test_rows_schema_and_summary(self, tmp_path):
        cfg = table2_config(num_users_U=2)
        spec = SweepSpec(variable="num_users", grid=(2.0, 3.0), seeds=2,
                         schemes=("joint", "relay_baseline"))
        out = tmp_path / "rows.csv"
        assert cmd_sweep(spec, cfg, 0, out) == 0
        rows = read_csv(out)
        assert len(rows) == 2 * 2 * 2
        assert list(rows[0].keys()) == ["scheme", "sweep_var", "sweep_value", "seed",
                                        "avg_utility", "iters", "wall_ms", "status"]
        assert {r["status"] for r in rows} == {"ok"}
        summary = read_csv(tmp_path / "rows_summary.csv")
        assert len(summary) == 4
        for row in summary:
            assert row["n_seeds"] == "2"

    def test_summary_deterministic_and_worker_independent(self, tmp_path):
        cfg = table2_config(num_users_U=2)
        spec = SweepSpec(variable="rho", grid=(0.01, 0.1), seeds=2, schemes=("relay_baseline",))
        out1, out2 = tmp_path / "s1.csv", tmp_path / "s2.csv"
        cmd_sweep(spec, cfg, 0, out1, workers=1)
        cmd_sweep(spec, cfg, 0, out2, workers=2)
        s1 = (tmp_path / "s1_summary.csv").read_bytes()
        s2 = (tmp_path / "s2_summary.csv").read_bytes()
        assert s1 == s2
        u1 = [r["avg_utility"] for r in read_csv(out1)]
        u2 = [r["avg_utility"] for r in read_csv(out2)]
        assert u1 == u2

    def test_joint_rows_do_not_depend_on_position_only_being_listed(self, tmp_path,
                                                                    monkeypatch):
        # joint handed position_only's answer computes what its own warm-up
        # would have.  With every P7 solve cut at three Newton steps, the
        # U = 10 placement run ends unconverged: position_only hands nothing
        # on, and joint's own warm-up reports the cap in both sweeps.
        cases = [((2.0, 3.0), 2, convex_core._MAX_NEWTON, {"ok"}),
                 ((10.0,), 1, 3, {"max_iters"})]
        for grid, seeds, max_newton, statuses in cases:
            monkeypatch.setattr(convex_core, "_MAX_NEWTON", max_newton)
            outputs = {}
            for schemes in (("joint",), ("joint", "position_only")):
                spec = SweepSpec(variable="num_users", grid=grid, seeds=seeds, schemes=schemes)
                out = tmp_path / f"{len(schemes)}.csv"
                cmd_sweep(spec, table2_config(), 0, out)
                outputs[schemes] = [strip_wall(r) for r in read_csv(out)
                                    if r["scheme"] == "joint"]
            assert outputs[("joint",)] == outputs[("joint", "position_only")]
            assert len(outputs[("joint",)]) == len(grid) * seeds
            assert {r["status"] for r in outputs[("joint",)]} == statuses

    def test_handoff_is_worker_independent(self, tmp_path):
        cfg = table2_config(num_users_U=2)
        spec = SweepSpec(variable="num_users", grid=(2.0, 3.0), seeds=2,
                         schemes=("joint", "position_only"))
        out1, out2 = tmp_path / "w1.csv", tmp_path / "w2.csv"
        cmd_sweep(spec, cfg, 0, out1, workers=1)
        cmd_sweep(spec, cfg, 0, out2, workers=2)
        rows1 = [strip_wall(r) for r in read_csv(out1)]
        assert rows1 == [strip_wall(r) for r in read_csv(out2)]
        assert len(rows1) == 8 and {r["status"] for r in rows1} == {"ok"}
        assert ((tmp_path / "w1_summary.csv").read_bytes()
                == (tmp_path / "w2_summary.csv").read_bytes())

    def test_each_cell_is_one_positional_call(self, tmp_path, monkeypatch):
        # A recorder of (scenario, scheme, *args) sees every cell once, and
        # joint receives position_only's returned state positionally; joint
        # leaves that state and the shared scenario as they were.
        import uavstream.cli as cli_mod
        real = cli_mod.run_benchmark
        calls = []

        def recorded(scenario, scheme, *args):
            snapshot = [(a.x.copy(), a.r_tilde.copy(), a.placement.q_obs.copy(),
                         a.placement.q_relay.copy()) for a in args]
            users = scenario.agu_pos_wu.copy()
            result = real(scenario, scheme, *args)
            calls.append((scenario, scheme, args, result))
            for a, before in zip(args, snapshot):
                after = (a.x, a.r_tilde, a.placement.q_obs, a.placement.q_relay)
                assert all(np.array_equal(u, v) for u, v in zip(before, after))
            assert np.array_equal(scenario.agu_pos_wu, users)
            return result

        monkeypatch.setattr(cli_mod, "run_benchmark", recorded)
        spec = SweepSpec(variable="num_users", grid=(2.0, 3.0), seeds=2,
                         schemes=("joint", "resource_only", "position_only"))
        cmd_sweep(spec, table2_config(), 0, tmp_path / "r.csv")
        cells = [(s.config.num_users_U, s.config.rng_seed, scheme)
                 for s, scheme, _, _ in calls]
        assert sorted(cells) == sorted({(u, k, scheme) for u in (2, 3) for k in (0, 1)
                                        for scheme in spec.schemes})
        position_only = {(s.config.num_users_U, s.config.rng_seed): (s, result)
                         for s, scheme, _, result in calls if scheme == "position_only"}
        for scenario, scheme, args, _ in calls:
            key = (scenario.config.num_users_U, scenario.config.rng_seed)
            if scheme == "joint":
                shared, result = position_only[key]
                assert scenario is shared
                assert len(args) == 1 and args[0] is result.state
            else:
                assert args == ()

    def test_failed_position_only_hands_nothing_on(self, tmp_path, monkeypatch):
        import uavstream.cli as cli_mod
        real = cli_mod.run_benchmark
        joint_args = []

        def position_only_fails(scenario, scheme, *args):
            if scheme == "position_only":
                raise InfeasibleProblem("forced for test")
            joint_args.append(args)
            return real(scenario, scheme, *args)

        monkeypatch.setattr(cli_mod, "run_benchmark", position_only_fails)
        spec = SweepSpec(variable="num_users", grid=(2.0,), seeds=1,
                         schemes=("joint", "position_only"))
        out = tmp_path / "f.csv"
        cmd_sweep(spec, table2_config(), 0, out)
        statuses = {r["scheme"]: r["status"] for r in read_csv(out)}
        assert statuses == {"joint": "ok", "position_only": "infeasible"}
        assert joint_args == [()]

    def test_spec_validation(self):
        with pytest.raises(ConfigError):
            SweepSpec(variable="frequency", grid=(1.0,), seeds=1, schemes=("joint",))
        with pytest.raises(ConfigError):
            SweepSpec(variable="rho", grid=(0.5, 0.1), seeds=1, schemes=("joint",))
        with pytest.raises(ConfigError):
            SweepSpec(variable="rho", grid=(0.1, 0.5), seeds=0, schemes=("joint",))
        with pytest.raises(ConfigError):
            SweepSpec(variable="rho", grid=(0.1, 0.5), seeds=1, schemes=("sorcery",))
        with pytest.raises(ConfigError, match="more than once"):
            SweepSpec(variable="rho", grid=(0.1, 0.5), seeds=1,
                      schemes=("relay_baseline", "joint", "relay_baseline"))

    def test_weak_power_sweep_is_ok(self, tmp_path):
        # At 1e-6 W every user's s = c/x is below 1e-3, where P5's cap slope
        # once lost more than its stop test to cancellation and its Newton
        # search stalled in all six cells.
        out = tmp_path / "weak.csv"
        assert main(["sweep", "--var", "power_budget", "--grid", "0.000001,0.00001",
                     "--seeds", "3", "--schemes", "joint,no_relay", "--out", str(out)]) == 0
        rows = read_csv(out)
        assert len(rows) == 12 and {r["status"] for r in rows} == {"ok"}

    def test_fractional_num_users_grid_is_rejected(self, tmp_path, capsys):
        # A user count of 2.5 is no count: the sweep exits 1 before any cell
        # runs, where rounding would run U = 2 and U = 4 under the labels 2.5
        # and 3.5.  A whole number given as a float is a count.
        out = tmp_path / "fractional.csv"
        assert main(["sweep", "--var", "num_users", "--grid", "2.5,3.5", "--seeds", "1",
                     "--schemes", "relay_baseline", "--out", str(out)]) == 1
        assert "num_users" in capsys.readouterr().err and not out.exists()
        users = apply_sweep_value(table2_config(), "num_users", 4.0).num_users_U
        assert users == 4 and isinstance(users, int)

    def test_power_budget_scales_all_three(self):
        cfg = apply_sweep_value(table2_config(), "power_budget", 0.4)
        assert cfg.p_max_user == pytest.approx(0.4)
        assert cfg.p_max_obs == pytest.approx(0.2)
        assert cfg.p_max_relay == pytest.approx(0.2)

    def test_partial_failure_recorded(self, tmp_path, monkeypatch):
        import uavstream.cli as cli_mod

        def sometimes_infeasible(scenario, scheme):
            if scenario.config.rng_seed == 1:
                raise InfeasibleProblem("forced for test")
            return real(scenario, scheme)

        real = cli_mod.run_benchmark
        monkeypatch.setattr(cli_mod, "run_benchmark", sometimes_infeasible)
        cfg = table2_config(num_users_U=2)
        spec = SweepSpec(variable="rho", grid=(0.01,), seeds=2, schemes=("relay_baseline",))
        out = tmp_path / "partial.csv"
        assert cmd_sweep(spec, cfg, 0, out) == 0
        rows = read_csv(out)
        statuses = {r["seed"]: r["status"] for r in rows}
        assert statuses["0"] == "ok"
        assert statuses["1"] == "infeasible"


class TestMainEntry:
    def test_bad_config_path_exit_1(self, capsys):
        code = main(["converge", "--config", "/nonexistent/x.cfg", "--out", "/tmp/x.csv"])
        assert code == 1
        assert "config error" in capsys.readouterr().err

    def test_invalid_config_contents_exit_1(self, tmp_path, capsys):
        bad = tmp_path / "bad.cfg"
        bad.write_text("bandwidth_B = -5\n")
        code = main(["converge", "--config", str(bad), "--out", str(tmp_path / "o.csv")])
        assert code == 1
        assert "config error" in capsys.readouterr().err

    @pytest.mark.parametrize("argv", [
        ["converge", "--seed", "-1"],
        ["sweep", "--grid", "2", "--seeds", "1", "--seed", "-2", "--schemes", "relay_baseline"],
    ], ids=["converge", "sweep"])
    def test_negative_seed_exit_1(self, argv, tmp_path, capsys):
        code = main(argv + ["--out", str(tmp_path / "o.csv")])
        assert code == 1
        err = capsys.readouterr().err
        assert "config error" in err and "Traceback" not in err

    def test_fractional_user_count_exit_1(self, tmp_path, capsys):
        bad = tmp_path / "bad.cfg"
        bad.write_text(format_config(table2_config()) + "num_users_U = 10.7\n")
        code = main(["converge", "--config", str(bad), "--out", str(tmp_path / "o.csv")])
        assert code == 1
        err = capsys.readouterr().err
        assert "config error" in err and "Traceback" not in err

    def test_huge_user_count_exit_1(self, tmp_path, capsys):
        bad = tmp_path / "bad.cfg"
        bad.write_text(format_config(table2_config()) + "num_users_U = 1e30\n")
        code = main(["converge", "--config", str(bad), "--out", str(tmp_path / "o.csv")])
        assert code == 1
        err = capsys.readouterr().err
        assert "config error" in err and "Traceback" not in err

    @pytest.mark.parametrize("value", ["nan", "inf", "1e9"])
    def test_out_of_range_rician_k_exit_1(self, value, tmp_path, capsys):
        # Caught by the config check, before any CDF inversion runs; at
        # K = 1e9 the inversion would fail to bracket its root.
        bad = tmp_path / "bad.cfg"
        bad.write_text(format_config(table2_config()) + f"rician_K = {value}\n")
        code = main(["converge", "--config", str(bad), "--out", str(tmp_path / "o.csv")])
        assert code == 1
        err = capsys.readouterr().err
        assert "config error" in err and "rician_K" in err and "Traceback" not in err

    def test_bad_grid_exit_1(self, tmp_path, capsys):
        # A non-finite value would reach int(round(value)) in
        # apply_sweep_value, and NaN passes the increasing-order check.
        for grid in ("3,2,1", "nan", "inf", "10,nan"):
            code = main(["sweep", "--grid", grid, "--seeds", "1",
                         "--schemes", "relay_baseline", "--out", str(tmp_path / "g.csv")])
            assert code == 1, grid
            err = capsys.readouterr().err
            assert "config error" in err and "Traceback" not in err, grid

    def test_repeated_scheme_exit_1(self, tmp_path, capsys):
        # A repeated scheme would write each of its rows twice and average
        # them as if there were twice the seeds.
        out = tmp_path / "r.csv"
        code = main(["sweep", "--grid", "2", "--seeds", "2",
                     "--schemes", "relay_baseline,relay_baseline", "--out", str(out)])
        assert code == 1
        err = capsys.readouterr().err
        assert "config error" in err and "Traceback" not in err
        assert not out.exists()

    @pytest.mark.parametrize("workers", ["0", "-2"])
    def test_too_few_workers_exit_1(self, workers, tmp_path, capsys):
        # Fewer than one worker used to run the sweep serially, silently.
        out = tmp_path / "w.csv"
        code = main(["sweep", "--grid", "2", "--seeds", "1", "--schemes", "relay_baseline",
                     "--workers", workers, "--out", str(out)])
        assert code == 1
        err = capsys.readouterr().err
        assert "config error" in err and "worker" in err and "Traceback" not in err
        assert not out.exists()

    def test_infeasible_maps_to_exit_2(self, tmp_path, monkeypatch):
        import uavstream.cli as cli_mod

        def boom(scenario, initial_state=None):
            raise InfeasibleProblem("forced")

        monkeypatch.setattr(cli_mod, "run_algorithm1", boom)
        code = main(["converge", "--out", str(tmp_path / "c.csv")])
        assert code == 2

    def test_default_grids_are_increasing(self):
        for var, grid in DEFAULT_GRIDS.items():
            assert all(b > a for a, b in zip(grid, grid[1:]))

    def test_parser_has_documented_flags(self):
        parser = build_parser()
        text = parser.format_help()
        for sub in ["converge", "sweep", "presets"]:
            assert sub in text
