"""Config parsing, command behavior, exit codes and output format guarantees."""

import dataclasses
import math

import numpy as np
import pytest

from zenokick import cli, engine
from zenokick.core import ReducedState, Trajectory


class TestParseNumber:
    @pytest.mark.parametrize(
        "text,value",
        [
            ("1.5", 1.5),
            ("-2e-3", -2e-3),
            ("pi", math.pi),
            ("PI", math.pi),
            ("-pi", -math.pi),
            ("pi/2", math.pi / 2),
            ("3pi/4", 3 * math.pi / 4),
            ("3*pi/4", 3 * math.pi / 4),
            ("2pi", 2 * math.pi),
            ("0.5pi", math.pi / 2),
        ],
    )
    def test_accepted_forms(self, text, value):
        assert cli.parse_number(text) == pytest.approx(value, rel=1e-15)

    @pytest.mark.parametrize("text", ["", "abc", "1..2", "pi/0", "inf", "nan", "1e999", "pi pi"])
    def test_rejected_forms(self, text):
        with pytest.raises(ValueError):
            cli.parse_number(text)


class TestParseIntList:
    def test_ranges_and_scalars(self):
        assert cli.parse_int_list("1, 3, 5..8, 10") == (1, 3, 5, 6, 7, 8, 10)
        assert cli.parse_int_list("") == ()

    @pytest.mark.parametrize("text", ["1.5", "8..5", "a..b", "3,,4"])
    def test_rejected(self, text):
        with pytest.raises(ValueError):
            cli.parse_int_list(text)

    def test_entry_limit(self, monkeypatch):
        monkeypatch.setattr(cli, "MAX_LIST_ENTRIES", 5)
        assert cli.parse_int_list("1..3, 7, 9") == (1, 2, 3, 7, 9)
        assert cli.parse_int_list("1..5") == (1, 2, 3, 4, 5)
        for text in ("1..6", "1..3, 7, 9, 11", "0, 1..5"):
            with pytest.raises(ValueError, match="more than 5 entries"):
                cli.parse_int_list(text)

    def test_oversized_range_is_refused_before_expanding(self, tmp_path, capsys):
        # The default limit refuses this range without allocating it.
        out = tmp_path / "huge.csv"
        path = tmp_path / "huge.txt"
        path.write_text(
            f"scenario = sweep\nT = 1\ng_list = 1\nN_list = 1..1000000000000\nout = {out}\n"
        )
        assert cli.main([str(path)]) == 2
        assert "huge.txt:4:" in capsys.readouterr().err
        assert not out.exists()


class TestParseConfig:
    def test_happy_path(self):
        config = cli.parse_config(
            """
            # comment and blank lines are fine
            scenario = sweep
            G = 2
            g_list = pi/2, pi
            N_list = 1..4
            T = pi/2
            mode = total
            out = table.csv
            """
        )
        assert config.scenario == "sweep"
        assert config.coupling == 2.0
        assert config.g_list == (math.pi / 2, math.pi)
        assert config.n_list == (1, 2, 3, 4)
        assert config.out == "table.csv"

    def test_unknown_key_reports_line(self):
        with pytest.raises(cli.ConfigError) as err:
            cli.parse_config("scenario = run\nbogus = 1\n", "cfg.txt")
        assert err.value.line == 2
        assert "bogus" in str(err.value)

    def test_malformed_number_reports_line(self):
        with pytest.raises(cli.ConfigError) as err:
            cli.parse_config("scenario = run\n\nG = fast\n")
        assert err.value.line == 3

    def test_duplicate_key_rejected(self):
        with pytest.raises(cli.ConfigError):
            cli.parse_config("scenario = run\nG = 1\nG = 2\n")

    def test_missing_scenario_rejected(self):
        with pytest.raises(cli.ConfigError):
            cli.parse_config("G = 1\n")

    def test_bad_scenario_and_mode_tokens(self):
        with pytest.raises(cli.ConfigError):
            cli.parse_config("scenario = fly\n")
        with pytest.raises(cli.ConfigError):
            cli.parse_config("scenario = sweep\nmode = diagonal\n")

    def test_line_without_equals_rejected(self):
        with pytest.raises(cli.ConfigError) as err:
            cli.parse_config("scenario = run\njust words\n")
        assert err.value.line == 2

    def test_every_preset_parses(self):
        for name, text in cli.PRESETS.items():
            config = cli.parse_config(text, name)
            assert config.scenario in cli.COMMANDS

    def test_key_table_covers_every_config_field(self):
        attrs = {attr for attr, _ in cli._KEYS.values()}
        assert attrs == {field.name for field in dataclasses.fields(cli.ScenarioConfig)}
        assert len(attrs) == len(cli._KEYS)


class TestCmdRun:
    def run_main(self, tmp_path, text, *args):
        path = tmp_path / "scenario.txt"
        path.write_text(text)
        return cli.main([str(path), *args])

    def test_single_trajectory_file(self, tmp_path):
        out = tmp_path / "free.csv"
        code = self.run_main(
            tmp_path,
            f"scenario = run\nT = pi/2\nresolution = 100\nout = {out}\n",
        )
        assert code == 0
        lines = out.read_text().splitlines()
        assert lines[0] == "t,p10,p01,pvac,norm"
        last = lines[-1].split(",")
        assert float(last[1]) < 1e-12  # quarter period empties the survivor

    def test_values_round_trip_through_the_csv(self, tmp_path):
        out = tmp_path / "one.csv"
        code = self.run_main(
            tmp_path,
            f"scenario = run\nT = 1\nt_kicks = 0.5\ng_list = pi/2\nresolution = 40\nout = {out}\n",
        )
        assert code == 0
        rows = [line.split(",") for line in out.read_text().splitlines()[1:]]
        parsed = np.array([[float(x) for x in row] for row in rows])
        from zenokick.core import KickSchedule, SystemParams

        schedule = KickSchedule(((0.5, math.pi / 2),), 1.0, 40.0)
        traj = engine.run_schedule(schedule, SystemParams())
        np.testing.assert_array_equal(parsed[:, 0], traj.t)
        np.testing.assert_array_equal(parsed[:, 1], traj.p10)

    def test_multiple_strengths_fan_out(self, tmp_path):
        out = tmp_path / "fan.csv"
        code = self.run_main(
            tmp_path,
            f"scenario = run\nT = 1\nt_kicks = 0.5\ng_list = 0, pi/4, pi/2, 3pi/4, pi\n"
            f"resolution = 50\nout = {out}\n",
        )
        assert code == 0
        files = sorted(tmp_path.glob("fan_g*.csv"))
        assert len(files) == 5
        curves = []
        for path in files:
            rows = [line.split(",") for line in path.read_text().splitlines()[1:]]
            t = np.array([float(r[0]) for r in rows])
            p10 = np.array([float(r[1]) for r in rows])
            curves.append(p10)
        base = curves[0]
        assert np.max(np.abs(base - np.cos(t) ** 2)) < 1e-12
        past_kick = t > 0.5
        for kicked in curves[1:]:
            assert np.all(kicked[past_kick] >= base[past_kick] - 1e-12)
            assert np.max(kicked[past_kick] - base[past_kick]) > 1e-3

    def test_mirror_kick_echo_reaches_one(self, tmp_path):
        out = tmp_path / "echo.csv"
        code = self.run_main(
            tmp_path,
            f"scenario = run\nT = 1\nt_kicks = 0.5\ng_list = pi\nresolution = 100\nout = {out}\n",
        )
        assert code == 0
        final = out.read_text().splitlines()[-1].split(",")
        assert abs(float(final[1]) - 1.0) < 1e-12

    def test_run_requires_total_time(self, tmp_path, capsys):
        code = self.run_main(tmp_path, "scenario = run\n")
        assert code == 2
        assert "needs T" in capsys.readouterr().err


class TestCmdSweep:
    def test_single_cell_matches_free_law(self, tmp_path):
        out = tmp_path / "cell.csv"
        config = cli.parse_config(
            f"scenario = sweep\ng_list = 0\nN_list = 5\nT = 0.8\nout = {out}\n"
        )
        assert cli.cmd_sweep(config) == 0
        header, row = out.read_text().splitlines()
        assert header == "g,N,p10,p01,pvac"
        g, n, p10 = row.split(",")[:3]
        assert (g, n) == ("0", "5")
        assert float(p10) == pytest.approx(math.cos(0.8) ** 2, abs=1e-13)

    def test_needs_grid(self, tmp_path):
        path = tmp_path / "s.txt"
        path.write_text("scenario = sweep\nT = 1\n")
        assert cli.main([str(path)]) == 2


class TestCsvFormat:
    EDGES = (-1e-13, 0.0, 5e-324, 1 - 2**-53, 1.0)

    def test_trajectory_floats_match_fstring_formatting(self):
        column = np.array(self.EDGES)
        traj = Trajectory(column, column, column, column, np.ones(len(column)))
        rows = [",".join([f"{x:.17g}"] * 4 + [f"{1.0:.17g}"]) for x in self.EDGES]
        assert cli.trajectory_csv(traj) == "\n".join(["t,p10,p01,pvac,norm", *rows]) + "\n"

    def test_sweep_floats_match_fstring_formatting(self):
        table = [engine.SweepRow(x, 3, x, x, x) for x in self.EDGES]
        rows = [f"{x:.17g},3,{x:.17g},{x:.17g},{x:.17g}" for x in self.EDGES]
        assert cli.sweep_csv(table) == "\n".join(["g,N,p10,p01,pvac", *rows]) + "\n"


class TestOracleCheck:
    def config(self, tmp_path, **overrides):
        fields = dict(trials=25, seed=1, n="0..5", T=1.0, resolution=60)
        fields.update(overrides)
        out = tmp_path / "report.txt"
        text = (
            f"scenario = oracle-check\ntrials = {fields['trials']}\nseed = {fields['seed']}\n"
            f"N_list = {fields['n']}\nT = {fields['T']}\nresolution = {fields['resolution']}\n"
            f"out = {out}\n"
        )
        return cli.parse_config(text), out

    def test_pass_report(self, tmp_path, capsys):
        config, out = self.config(tmp_path)
        assert cli.cmd_oracle_check(config) == 0
        line = capsys.readouterr().out.strip()
        assert line.startswith("status=PASS max_dev=")
        assert line.endswith("trials=25")
        assert out.read_text().strip() == line

    def test_zero_trials_is_a_vacuous_pass(self, tmp_path, capsys):
        config, _ = self.config(tmp_path, trials=0)
        assert cli.cmd_oracle_check(config) == 0
        captured = capsys.readouterr()
        assert "status=PASS" in captured.out
        assert "trials=0" in captured.out
        assert "warning" in captured.err

    def test_corrupted_kick_fails(self, tmp_path, capsys, monkeypatch):
        def kick_the_wrong_amplitude(state, g):
            cg, sg = math.cos(g), math.sin(g)
            leak = (state.a.real**2 + state.a.imag**2) * sg * sg
            return ReducedState(state.a * cg, state.b, state.v + leak)

        config, _ = self.config(tmp_path)
        monkeypatch.setattr(engine, "apply_kick", kick_the_wrong_amplitude)
        assert cli.cmd_oracle_check(config) == 1
        assert "status=FAIL" in capsys.readouterr().out

    def test_too_many_kicks_is_a_capacity_error(self, tmp_path):
        config, _ = self.config(tmp_path, n="11")
        from zenokick.core import CapacityError

        with pytest.raises(CapacityError):
            cli.cmd_oracle_check(config)


class TestCmdRates:
    def test_report_and_exit_code(self, tmp_path, capsys):
        out = tmp_path / "rates.csv"
        config = cli.parse_config(f"scenario = rates\nout = {out}\n")
        assert cli.cmd_rates(config) == 0
        text = out.read_text().splitlines()
        assert text[0] == "check,t_or_N,analytic,numeric,abs_error"
        rows = [line.split(",") for line in text[1:]]
        by_check = {}
        for check, x, analytic, numeric, err in rows:
            by_check.setdefault(check, []).append((float(x), float(analytic), float(err)))
        assert set(by_check) == set(cli.RATE_TOLERANCES)
        for check, entries in by_check.items():
            assert max(err for _, _, err in entries) <= cli.RATE_TOLERANCES[check]
        half_pi_rows = [a for x, a, _ in by_check["rate_after_one_kick"] if x == math.pi / 2]
        assert half_pi_rows and abs(half_pi_rows[0]) < 1e-16
        assert "PASS" in capsys.readouterr().out

    def test_off_resonance_is_a_usage_error(self, tmp_path):
        path = tmp_path / "r.txt"
        path.write_text("scenario = rates\neps_a = 0.1\n")
        assert cli.main([str(path)]) == 2


class TestMainPlumbing:
    def test_rejected_config_leaves_no_output(self, tmp_path, capsys):
        out = tmp_path / "never.csv"
        path = tmp_path / "bad.txt"
        path.write_text(f"scenario = run\nT = 1\nwheels = 4\nout = {out}\n")
        assert cli.main([str(path)]) == 2
        assert "wheels" in capsys.readouterr().err
        assert not out.exists()

    def test_missing_file(self, capsys):
        assert cli.main(["/no/such/scenario.txt"]) == 2
        assert "config error" in capsys.readouterr().err

    def test_requires_exactly_one_source(self, tmp_path, capsys):
        assert cli.main([]) == 2
        path = tmp_path / "ok.txt"
        path.write_text("scenario = rates\n")
        assert cli.main([str(path), "--preset", "rates"]) == 2

    def test_unwritable_output(self, tmp_path, capsys):
        path = tmp_path / "cfg.txt"
        path.write_text("scenario = run\nT = 1\nresolution = 10\nout = /no/such/dir/x.csv\n")
        assert cli.main([str(path)]) == 2
        assert "error" in capsys.readouterr().err

    def test_list_and_show_presets(self, capsys):
        assert cli.main(["--list-presets"]) == 0
        names = capsys.readouterr().out.split()
        assert set(names) == set(cli.PRESETS)
        assert cli.main(["--show-preset", "fig1"]) == 0
        shown = capsys.readouterr().out
        assert cli.parse_config(shown).scenario == "run"

    def test_out_override_and_gnuplot(self, tmp_path, capsys):
        out = tmp_path / "table.csv"
        code = cli.main(["--preset", "fig4", "--out", str(out), "--gnuplot"])
        assert code == 0
        assert out.exists()
        script = out.with_suffix(".gp").read_text()
        assert "plot" in script and "table.csv" in script

    @pytest.mark.parametrize("name", sorted(set(cli.PRESETS) - {"oracle-check"}))
    def test_preset_with_gnuplot(self, name, tmp_path, monkeypatch, capsys):
        # oracle-check takes seconds; acceptance c01 covers the same path.
        monkeypatch.chdir(tmp_path)
        assert cli.main(["--preset", name, "--gnuplot"]) == 0
        scenario = cli.parse_config(cli.PRESETS[name]).scenario
        scripts = [path.name for path in tmp_path.glob("*.gp")]
        assert scripts == ([f"{name}.gp"] if scenario in ("run", "sweep") else [])
        assert f"wrote {name}" in capsys.readouterr().out

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    @pytest.mark.parametrize(
        "scenario", ["sweep\ng_list = pi/2\nN_list = 1..3", "run\nt_kicks = 0.5"]
    )
    def test_non_finite_populations_are_refused(self, scenario, tmp_path, capsys):
        # G T overflows to inf, so the propagator is NaN: refuse it, write nothing.
        out = tmp_path / "nan.csv"
        path = tmp_path / "nan.txt"
        path.write_text(
            f"scenario = {scenario}\nG = 1e10\nT = 1e300\nresolution = 4\nout = {out}\n"
        )
        assert cli.main([str(path)]) == 2
        assert "populations" in capsys.readouterr().err
        assert list(tmp_path.iterdir()) == [path]

    def test_preset_runs_are_byte_identical(self, tmp_path):
        first = tmp_path / "a.csv"
        second = tmp_path / "b.csv"
        assert cli.main(["--preset", "fig4", "--out", str(first)]) == 0
        assert cli.main(["--preset", "fig4", "--out", str(second)]) == 0
        assert first.read_bytes() == second.read_bytes()

    def test_usage_error_exit_code(self, capsys):
        assert cli.main(["--preset", "not-a-preset"]) == 2
