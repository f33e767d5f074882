"""Config parsing, command behavior, exit codes and output format guarantees."""

import dataclasses
import math
import os
import random
import re
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import zenokick
from zenokick import cli, core, engine, oracle
from zenokick.core import KickSchedule, SystemParams, Trajectory


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

    @pytest.mark.parametrize(
        "line, message",
        [
            ("out = ", "out must not be empty"),
            ("trials = -1", "trials must be >= 0, got -1"),
            ("seed = -3", "seed must be >= 0, got -3"),
            ("resolution = -2", "resolution must be >= 0, got -2"),
        ],
        ids=["empty-out", "negative-trials", "negative-seed", "negative-resolution"],
    )
    def test_a_refused_value_reports_its_line(self, line, message):
        with pytest.raises(cli.ConfigError) as err:
            cli.parse_config(f"scenario = oracle-check\n{line}\n", "cfg.txt")
        assert err.value.line == 2
        assert str(err.value) == f"cfg.txt:2: {message}"

    def test_line_without_equals_rejected(self):
        with pytest.raises(cli.ConfigError) as err:
            cli.parse_config("scenario = run\njust words\n")
        assert err.value.line == 2

    def test_a_config_holds_its_defaults(self):
        # A run without g_list runs g = 0, and an oracle-check without N_list draws from 0..8.
        assert cli.parse_config("scenario = run\nT = 1\n").g_list == (0.0,)
        assert cli.parse_config("scenario = oracle-check\nT = 1\n").n_list == tuple(range(9))
        assert cli.parse_config("scenario = rates\n").g_list == ()

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
        with pytest.raises(cli.ConfigError, match="scenario 'run' needs T"):
            cli.parse_config("scenario = run\n")
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
        with pytest.raises(cli.ConfigError, match="scenario 'sweep' needs g_list and N_list"):
            cli.parse_config(path.read_text())
        assert cli.main([str(path)]) == 2

    @pytest.mark.parametrize("mode, missing, given", [("total", "T", "tau"), ("interval", "tau", "T")])
    def test_needs_the_duration_of_its_mode(self, tmp_path, capsys, mode, missing, given):
        # The other mode's duration is set, and does not stand in for the missing one.
        out = tmp_path / "s.csv"
        path = tmp_path / "s.txt"
        path.write_text(
            f"scenario = sweep\nmode = {mode}\n{given} = 0.5\ng_list = 1\nN_list = 1..3\n"
            f"out = {out}\n"
        )
        assert cli.main([str(path)]) == 2
        # Refused while the file is parsed, so the message names the file.
        expected = f"config error: {path}: scenario 'sweep' needs {missing}\n"
        assert capsys.readouterr().err == expected
        assert not out.exists()


    def test_a_long_kick_free_interval_sweep_runs(self, tmp_path, capsys):
        # Its g = 0 cell was doubled, and refused at exit 2 once its drift,
        # growing with N, passed the guard: "total weight drifted from 1".
        out = tmp_path / "free.csv"
        path = tmp_path / "free.txt"
        path.write_text(
            "scenario = sweep\nmode = interval\ntau = 1e-3\ng_list = 0\nN_list = 1073741824\n"
            f"out = {out}\n"
        )
        assert cli.main([str(path)]) == 0
        _, row = out.read_text().splitlines()
        p10, p01, pvac = map(float, row.split(",")[2:])
        assert pvac == 0.0 and abs(p10 + p01 - 1.0) <= 1e-15
        assert p10 == pytest.approx(math.cos(2**30 * 1e-3) ** 2, abs=1e-12)


def piece_texts(values):
    """``cli._float_pieces`` of ``values``, joined as ``_csv`` prints them."""
    pieces = cli._float_pieces(np.array(values, dtype=np.float64))
    assert len(pieces) in (2, 3)
    return [("%s" * len(pieces)) % piece for piece in zip(*pieces)]


def _tie(decade):
    """The double just above 1.5 * 10**decade whose x * 10**(16 - decade) ends in exactly .5."""
    # 10**(16 - decade) holds 2**(16 - decade), so an odd multiple of
    # 2**(decade - 17) leaves exactly one half.
    odd = 2 * int(1.5 * 10.0**decade * 2.0 ** (17 - decade) / 2) + 1
    return math.ldexp(odd, decade - 17)


def _named_edges():
    """(id, x, whether the digits come from the kernel rather than Python)."""
    for k in range(1, 6):
        x = 10.0**-k
        for name, y in (("", x), ("-ulp", math.nextafter(x, 0)), ("+ulp", math.nextafter(x, 1))):
            yield f"1e-{k}{name}", y, True
    # The double nearest 10**-6 lies below it, so it and the one below fall back.
    yield "1e-6", 1e-6, False
    yield "1e-6-ulp", math.nextafter(1e-6, 0), False
    yield "1e-6+ulp", math.nextafter(1e-6, 1), True
    yield "zeros-after-the-point", 1.0000000000000001e-05, True
    yield "1e-05", 1e-05, True  # no double in [1e-6, 1e-4) prints as a bare digit
    yield "3e-06", 3e-06, True
    yield "one-minus-half-ulp", 1 - 2**-53, True
    # From 1 on every value falls back.
    yield "one", 1.0, False
    yield "twelve-and-a-half", 12.5, False
    yield "2**53", 2.0**53, False
    yield "1e16", 1e16, False
    yield "1e17-ulp", math.nextafter(1e17, 0), False
    yield "1e17", 1e17, False
    yield "tie-211*2**-21", 211 * 2**-21, False  # x * 10**20 ends in exactly .5
    for decade in (-6, -5, *range(16)):  # every decade with a fraction below the 17th digit
        yield f"tie-1e{decade}", _tie(decade), False
    yield "zero", 0.0, False
    yield "minus-zero", -0.0, False
    yield "subnormal", 5e-324, False
    yield "negative", -1e-13, False


class TestFloatPieces:
    @pytest.mark.parametrize("x, fast", [edge[1:] for edge in _named_edges()],
                             ids=[edge[0] for edge in _named_edges()])
    def test_named_edges_match_percent_17g(self, x, fast):
        assert piece_texts([x]) == ["%.17g" % x]
        pieces = cli._float_pieces(np.array([x]))
        assert any(isinstance(piece[0], int) for piece in pieces) == fast

    def test_a_third_piece_only_where_a_value_needs_one(self):
        # Values from 1 on fall back whole; only an e-notation x needs the
        # third piece, and one such x among many is enough.
        assert cli._float_pieces(np.array([0.5, 1.0, 0.0])) == (["0.", "1", "0"], [5, "", ""])
        assert cli._float_pieces(np.array([12.5, 1.0])) == (["12.5", "1"], ["", ""])
        assert cli._float_pieces(np.array([1.0000000000000001e-05, 0.5])) == (
            ["1.000000000000000", "0."], [1, 5], ["e-05", ""]
        )
        # A tie in an e-notation decade falls back, and its third piece is empty.
        tie = _tie(-6)
        assert cli._float_pieces(np.array([3e-6, tie] + [0.5] * 7)) == (
            ["3.000000000000000", "%.17g" % tie, *["0."] * 7],
            [1, "", *[5] * 7],
            ["e-06", "", *[""] * 7],
        )

    @pytest.mark.parametrize("exponent", (-6, -5))
    def test_no_e_notation_value_prints_as_a_bare_lead_digit(self, exponent):
        # The kernel's e-notation heads are "L." and zeros: it relies on no
        # double near L * 10**X printing as the bare "Le-0X" under %.17g.
        for lead in range(1, 10):
            nearest = float(f"{lead}e{exponent}")
            for x in (math.nextafter(nearest, 0), nearest, math.nextafter(nearest, 1)):
                assert "%.17g" % x != f"{lead}e{exponent:03d}"
                assert piece_texts([x]) == ["%.17g" % x]

    def test_seeded_near_ties_match_percent_17g(self):
        # Dyadics j * 2**-22 hold exact ties of the 17th digit; decimals of
        # 18 digits ending in 5 lie within an ulp of one.
        rng = np.random.default_rng(29)
        values = np.concatenate([
            rng.integers(1, 2**22, 20000) * 2.0**-22,
            [float(f"0.{d}5") for d in rng.integers(10**15, 10**16, 20000).tolist()],
            rng.random(20000) ** 6,
            np.mod(rng.integers(0, 2**62, 20000).view(np.float64), 1.0),
            10.0 ** rng.uniform(-7, 18, 20000),
            rng.integers(1, 2**40, 20000) * 2.0**-24,  # ties in the decades from 1 to 1e4
        ])
        assert piece_texts(values) == ["%.17g" % x for x in values.tolist()]

    def test_each_decade_bound_is_the_first_double_at_its_power_of_ten(self):
        assert len(cli._DECADES) == 7
        for bound, k in zip(cli._DECADES.tolist(), range(-6, 1)):
            for x, at_least in ((bound, True), (math.nextafter(bound, 0.0), False)):
                num, den = x.as_integer_ratio()
                # x >= 10**k, in integers
                assert (num * 10 ** max(-k, 0) >= den * 10 ** max(k, 0)) == at_least, (k, x)

    @settings(derandomize=True, database=None)
    @given(st.lists(st.floats(allow_nan=False, allow_infinity=False), max_size=40))
    def test_any_finite_floats_match_percent_17g(self, values):
        assert piece_texts(values) == ["%.17g" % x for x in values]

    @settings(derandomize=True, database=None)
    @given(st.lists(st.floats(1e-4, 1.0, exclude_max=True), max_size=40))
    def test_floats_in_the_fixed_range_match_percent_17g(self, values):
        assert piece_texts(values) == ["%.17g" % x for x in values]

    @settings(derandomize=True, database=None)
    @given(st.lists(st.floats(1e-6, 1e-4, exclude_max=True), max_size=40))
    def test_floats_in_the_e_notation_range_match_percent_17g(self, values):
        assert piece_texts(values) == ["%.17g" % x for x in values]

    @settings(derandomize=True, database=None)
    @given(st.lists(st.floats(1.0, 1e17, exclude_max=True), max_size=40))
    def test_floats_with_an_integer_part_match_percent_17g(self, values):
        assert piece_texts(values) == ["%.17g" % x for x in values]


class TestCsvFormat:
    # -0.0 sits next to 0.0: a column that formats each distinct value once
    # must still tell them apart.
    EDGES = (-1e-13, 0.0, -0.0, 5e-324, 1 - 2**-53, 1.0)
    #: (``_CSV_PIECES_ROWS``, ``_CSV_PIECES_SHARE``): every float column in
    #: pieces, and the defaults, under which these short tables keep ``%.17g``
    PIECES = ((0, 0.0), (cli._CSV_PIECES_ROWS, cli._CSV_PIECES_SHARE))

    @staticmethod
    def pieces(monkeypatch, rows, share):
        monkeypatch.setattr(cli, "_CSV_PIECES_ROWS", rows)
        monkeypatch.setattr(cli, "_CSV_PIECES_SHARE", share)

    @staticmethod
    def fstring_csv(header, columns):
        rows = [",".join(f"{x:.17g}" for x in row) for row in zip(*columns)]
        return "\n".join([header, *rows]) + "\n"

    def test_trajectory_floats_match_fstring_formatting(self, monkeypatch):
        # Every value appears twice in each column; a block of 4 rows splits
        # the repeats of one value across blocks.
        column = np.repeat(self.EDGES, 2)
        norm = np.resize((1.0, 1 - 2**-53, 1 + 2**-52), len(column))
        columns = (column, column, column[::-1], column, norm)
        traj = Trajectory(*columns)
        want = self.fstring_csv("t,p10,p01,pvac,norm", columns)
        t_texts = [f"{x:.17g}" for x in column]
        for setting in self.PIECES:
            self.pieces(monkeypatch, *setting)
            for block in (cli._CSV_BLOCK, 4):
                monkeypatch.setattr(cli, "_CSV_BLOCK", block)
                assert cli.trajectory_csv(traj) == want
                assert cli.trajectory_csv(traj, (t_texts,)) == want
                assert cli.trajectory_csv(traj, cli._float_pieces(column)) == want

    def test_sweep_floats_match_fstring_formatting(self, monkeypatch):
        column = np.repeat(self.EDGES, 2)
        n = np.resize((0, 2**62, 3), len(column))
        table = np.rec.fromarrays(
            (column[::-1], n, column, column, column), names=("g", "n", "p10", "p01", "pvac")
        )
        rows = [
            f"{g:.17g},{k},{x:.17g},{x:.17g},{x:.17g}" for g, k, x in zip(column[::-1], n, column)
        ]
        want = "\n".join(["g,N,p10,p01,pvac", *rows]) + "\n"
        for setting in self.PIECES:
            self.pieces(monkeypatch, *setting)
            for block in (cli._CSV_BLOCK, 4):
                monkeypatch.setattr(cli, "_CSV_BLOCK", block)
                assert cli.sweep_csv(table) == want

    def test_rates_rows_match_fstring_formatting(self, tmp_path, monkeypatch, capsys):
        # A string column beside float columns, -0.0 among the floats.
        rows = [(check, x, x, -x, 0.0) for check in cli.RATE_TOLERANCES for x in self.EDGES]
        monkeypatch.setattr(cli, "rate_comparison_rows", lambda params: rows)
        out = tmp_path / "rates.csv"
        lines = [f"{c},{x:.17g},{a:.17g},{b:.17g},{e:.17g}" for c, x, a, b, e in rows]
        header = "check,t_or_N,analytic,numeric,abs_error"
        for setting in self.PIECES:
            self.pieces(monkeypatch, *setting)
            assert cli.cmd_rates(cli.parse_config(f"scenario = rates\nout = {out}\n")) == 0
            assert out.read_text() == "\n".join([header, *lines]) + "\n"

    def test_long_blocks_mostly_in_the_kernels_range_take_its_pieces(self, monkeypatch):
        calls = []

        def counted(values):
            calls.append(len(values))
            return kernel(values)

        kernel = cli._float_pieces
        monkeypatch.setattr(cli, "_float_pieces", counted)
        for rows in (cli._CSV_PIECES_ROWS - 1, cli._CSV_PIECES_ROWS):
            inside = np.linspace(0.1, 0.9, rows)
            # In the kernel's range, below it, and in [1, 10) like a T = 10 run's times.
            columns = (inside, inside * 1e-7, inside * 10)
            want = self.fstring_csv("a,b,c", columns)
            calls.clear()
            assert cli._csv("a,b,c", [("%.17g", column) for column in columns]) == want
            assert calls == ([rows] if rows >= cli._CSV_PIECES_ROWS else [])

    def test_each_block_takes_a_third_piece_only_where_it_needs_one(self, monkeypatch):
        counts = []

        def counted(values):
            pieces = kernel(values)
            counts.append(len(pieces))
            return pieces

        kernel = cli._float_pieces
        monkeypatch.setattr(cli, "_float_pieces", counted)
        self.pieces(monkeypatch, 0, 0.0)
        monkeypatch.setattr(cli, "_CSV_BLOCK", 4)
        # Blocks of 4 rows: only a block that holds an e-notation value
        # (3e-5, 5e-6) prints in three pieces; values from 1 on fall back in
        # the first piece.
        a = [0.5, 0.25, 1.0, 0.0, 3e-5, 0.5, 0.5, 0.5, 12.5, 1.0, 2.0, 0.5, 1.0, 2.0, 1e16, -0.0]
        b = [0.1] * 4 + [0.2] * 4 + [5e-6, 0.3, 0.3, 0.3] + [7.0] * 4
        columns = (np.array(a), np.array(b))
        want = self.fstring_csv("a,b", columns)
        assert cli._csv("a,b", [("%.17g", column) for column in columns]) == want
        assert counts == [2, 2, 3, 2, 2, 3, 2, 2]

    def test_the_pvac_norm_field_tells_pairs_apart_by_their_bits(self, monkeypatch):
        # Pairs that differ in one bit of one value: -0.0 against 0.0, and
        # norms one ulp either side of 1.
        pvac = np.array([0.0, -0.0, 0.0, -0.0, 0.0, 0.0, -0.0, 5e-324])
        norm = np.array([1.0, 1.0, 1 - 2**-53, 1 - 2**-53, 1 + 2**-52, 1.0, 1 + 2**-52, 1.0])
        assert cli._repeated_texts(pvac, norm) == [f"{a:.17g},{b:.17g}" for a, b in zip(pvac, norm)]
        t = np.linspace(0.0, 1.0, len(pvac))
        columns = (t, np.cos(t) ** 2, np.sin(t) ** 2, pvac, norm)
        for block in (cli._CSV_BLOCK, 4):
            monkeypatch.setattr(cli, "_CSV_BLOCK", block)
            assert cli.trajectory_csv(Trajectory(*columns)) == self.fstring_csv(
                "t,p10,p01,pvac,norm", columns
            )

    @pytest.mark.parametrize(
        "energies, kick_times",
        [("", "0.25, 0.5, 0.71"), ("G = 1.3\neps_a = 0.4\neps_b = -0.2\n", "0, 0.25, 0.71, 1")],
        ids=["resonant", "detuned-kicks-at-both-ends"],
    )
    def test_run_files_match_fstring_formatting_of_the_engine(
        self, energies, kick_times, tmp_path, monkeypatch, capsys
    ):
        # Kicks at 0, 0.25, 0.5 and T = 1 fall on grid points; the strengths
        # include -0.0 and a mirror kick.  The strengths of the run share one
        # sample layout and one formatted t column, and each file must still
        # be its strength run alone.
        out = tmp_path / "traj.csv"
        path = tmp_path / "traj.txt"
        path.write_text(
            f"scenario = run\n{energies}T = 1\nt_kicks = {kick_times}\n"
            f"g_list = 0, -0.0, pi/3, pi\nresolution = 40\nout = {out}\n"
        )
        config = cli.parse_config(path.read_text())
        trajectories = []
        for i, g in enumerate(config.g_list):
            schedule = KickSchedule(tuple((t, g) for t in config.kick_times), 1.0, 40.0)
            trajectories.append(engine.run_schedule(schedule, config.params()))
        for setting in self.PIECES:
            self.pieces(monkeypatch, *setting)
            assert cli.main([str(path)]) == 0
            for i, traj in enumerate(trajectories):
                columns = (traj.t, traj.p10, traj.p01, traj.pvac, traj.norm)
                written = (tmp_path / f"traj_g{i}.csv").read_text()
                assert written == self.fstring_csv("t,p10,p01,pvac,norm", columns)
        # One formatted t column serves every strength of the run.
        t_bits = trajectories[0].t.view(np.int64)
        assert all(np.array_equal(traj.t.view(np.int64), t_bits) for traj in trajectories)

    def test_the_strengths_of_a_run_share_one_sample_layout(self, tmp_path, monkeypatch):
        layouts = []

        def counted(schedules, params):
            layouts.append(schedules)
            return core._sample_layout(schedules, params)

        monkeypatch.setattr(engine, "_sample_layout", counted)
        config = cli.parse_config(
            "scenario = run\nT = 1\nt_kicks = 0.25, 0.71\ng_list = 0.3, pi/2, pi\n"
            f"resolution = 40\nout = {tmp_path / 'traj.csv'}\n"
        )
        assert cli.cmd_run(config) == 0
        assert len(layouts) == 1
        assert sorted(p.name for p in tmp_path.iterdir()) == [f"traj_g{i}.csv" for i in range(3)]


class TestOracleCheck:
    #: the benchmark's ``verify`` parameters: detuned, with a non-unit coupling
    DETUNED = "G = 1.3\neps_a = 0.4\neps_b = -0.2\n"

    def config(self, tmp_path, extra="", **overrides):
        text, out = self.scenario(tmp_path, extra, **overrides)
        return cli.parse_config(text), out

    @staticmethod
    def scenario(tmp_path, extra="", **overrides):
        """The scenario file's text and the report path it names."""
        fields = dict(trials=25, seed=1, n="0..5", T=1.0, resolution=60)
        fields.update(overrides)
        out = tmp_path / "report.txt"
        text = (
            f"scenario = oracle-check\ntrials = {fields['trials']}\nseed = {fields['seed']}\n"
            f"N_list = {fields['n']}\nT = {fields['T']}\nresolution = {fields['resolution']}\n"
            f"out = {out}\n{extra}"
        )
        return text, out

    @staticmethod
    def plant(monkeypatch, module, column, value):
        """Make the first batch ``module._run_batch`` runs carry ``value`` in one column.

        ``column`` indexes ``(t, p10, p01, pvac, norm)``; the value lands on the
        second sample of trial 1, inside the trial and after its first sample.
        """
        run_batch = module._run_batch
        calls = []

        def planted(schedules, params, layout):
            columns = list(run_batch(schedules, params, layout))
            if not calls:
                assert len(schedules) > 1
                columns[column] = columns[column].copy()
                columns[column][layout[-1][1] + 1] = value
            calls.append(len(schedules))
            return tuple(columns)

        monkeypatch.setattr(module, "_run_batch", planted)
        return calls

    @pytest.mark.parametrize("module", [engine, oracle], ids=["reduced", "dense"])
    @pytest.mark.parametrize(
        "column,value,message",
        [
            (1, math.nan, "populations must lie in [0, 1]"),
            (3, 1.5, "populations must lie in [0, 1]"),
            (2, -1e-9, "populations must lie in [0, 1]"),
            (4, 1.0 + 1e-9, "total weight drifted from 1 by more than 1e-10"),
            (0, -1.0, "sample times must be non-decreasing"),
            (0, math.nan, "sample times must be non-decreasing"),
        ],
        ids=["nan-p10", "high-pvac", "negative-p01", "norm", "time-decrease", "nan-time"],
    )
    def test_a_bad_sample_in_one_trial_is_refused(
        self, tmp_path, capsys, monkeypatch, module, column, value, message
    ):
        text, out = self.scenario(tmp_path, n="2..3")
        path = tmp_path / "check.txt"
        path.write_text(text)
        calls = self.plant(monkeypatch, module, column, value)
        assert cli.main([str(path)]) == 2
        assert message in capsys.readouterr().err
        assert calls == [calls[0]]  # refused in the first batch, before any other runs
        assert not out.exists()

    @pytest.mark.parametrize("module", [engine, oracle], ids=["reduced", "dense"])
    def test_a_nan_deviation_past_the_guard_fails(self, tmp_path, capsys, monkeypatch, module):
        # The NaN is in the first of two batches: a finite deviation follows it.
        monkeypatch.setattr(core, "check_populations", lambda *columns: None)
        calls = self.plant(monkeypatch, module, 1, math.nan)
        config, out = self.config(tmp_path, n="2..3")
        assert cli.cmd_oracle_check(config) == 1
        assert len(calls) == 2
        assert capsys.readouterr().out.startswith("status=FAIL max_dev=nan trials=25\n")
        assert out.read_text() == "status=FAIL max_dev=nan trials=25\n"

    def test_pass_report(self, tmp_path, capsys):
        for extra in ("", self.DETUNED):
            config, out = self.config(tmp_path, extra)
            assert cli.cmd_oracle_check(config) == 0
            line, *rest = capsys.readouterr().out.splitlines()
            assert line.startswith("status=PASS max_dev=")
            assert line.endswith("trials=25")
            assert rest == [f"wrote {out}"]
            assert out.read_text() == line + "\n"

    def test_zero_trials_is_a_vacuous_pass(self, tmp_path, capsys):
        config, _ = self.config(tmp_path, trials=0)
        assert cli.cmd_oracle_check(config) == 0
        captured = capsys.readouterr()
        assert "status=PASS" in captured.out
        assert "trials=0" in captured.out
        assert "warning" in captured.err

    def test_corrupted_kick_fails(self, tmp_path, capsys, monkeypatch):
        def kick_the_wrong_amplitude(a, b, v, g):
            cg, sg = math.cos(g), math.sin(g)
            return a * cg, b, v + (a.real**2 + a.imag**2) * sg * sg

        monkeypatch.setattr(engine, "_kick", kick_the_wrong_amplitude)
        for extra in ("", self.DETUNED):
            config, _ = self.config(tmp_path, extra)
            assert cli.cmd_oracle_check(config) == 1
            assert "status=FAIL" in capsys.readouterr().out

    def test_kick_times_that_cannot_be_distinct_are_refused(self, tmp_path, capsys):
        # Only four doubles lie in [0, T]: ten distinct kick times do not exist,
        # and redrawing until they are would never end.
        out = tmp_path / "report.txt"
        path = tmp_path / "tiny.txt"
        path.write_text(
            "scenario = oracle-check\nT = 1.5e-323\nN_list = 10\ntrials = 1\n"
            f"resolution = 0\nout = {out}\n"
        )
        assert cli.main([str(path)]) == 2
        assert "could not draw 10 distinct kick times" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize(
        "body, message",
        [
            # each refused while the file is parsed
            ("N_list = -1..2\nT = 1", "<file>:3: kick counts must be >= 0, got -1"),
            ("N_list = 2\nT = 0", "<file>: scenario 'oracle-check' needs T > 0, got T = 0"),
            ("N_list = 2\nT = -1", "<file>: scenario 'oracle-check' needs T > 0, got T = -1"),
            ("N_list = 2", "<file>: scenario 'oracle-check' needs T"),
            (
                "N_list = 11\nT = 1",
                "<file>: scenario 'oracle-check' needs N_list <= 10, got N_list = 11",
            ),
        ],
        ids=["negative-kick-count", "zero-T", "negative-T", "no-T", "eleven-kicks"],
    )
    def test_a_scenario_it_cannot_check_is_refused(self, body, message, tmp_path, capsys):
        out = tmp_path / "report.txt"
        path = tmp_path / "check.txt"
        path.write_text(f"scenario = oracle-check\ntrials = 3\n{body}\nout = {out}\n")
        assert cli.main([str(path)]) == 2
        expected = f"config error: {message}\n".replace("<file>", str(path))
        assert capsys.readouterr().err == expected
        assert not out.exists()
        with pytest.raises(cli.ConfigError):
            cli.parse_config(path.read_text(), str(path))

    def test_a_config_of_another_scenario_is_refused(self):
        with pytest.raises(ValueError, match="^the check needs scenario 'oracle-check', got 'run'$"):
            cli.oracle_engine_deviation(cli.ScenarioConfig("run", total_time=1.0))

    @pytest.mark.parametrize("seed", [3, 2024])
    def test_a_seed_draws_the_documented_trials(self, monkeypatch, seed):
        # Redrawn here in the documented order: the kick count by ``choice``,
        # then the sorted ``uniform`` times until they are distinct, then the
        # ``uniform`` strengths, trial after trial.
        trials, n_choices, total_time, resolution = 20, (0, 3, 7, 10), 1.3, 40
        rng = random.Random(seed)
        expected = []
        for _ in range(trials):
            n = rng.choice(n_choices)
            while True:
                times = sorted(rng.uniform(0.0, total_time) for _ in range(n))
                if all(a < b for a, b in zip(times, times[1:])):
                    break
            strengths = [rng.uniform(0.0, 2.0 * math.pi) for _ in range(n)]
            expected.append((tuple(zip(times, strengths)), total_time, resolution / total_time))
        assert len({len(kicks) for kicks, _, _ in expected}) == len(n_choices)

        drawn = self.capture_the_drawn_trials(monkeypatch)
        config = cli.ScenarioConfig(
            "oracle-check", n_list=n_choices, total_time=total_time, resolution=resolution,
            trials=trials, seed=seed,
        )
        dev = cli.oracle_engine_deviation(config)
        assert dev <= cli.ORACLE_CHECK_TOLERANCE
        assert [(s.kicks, s.total_time, s.sample_resolution) for s in drawn] == expected

    @staticmethod
    def capture_the_drawn_trials(monkeypatch):
        """The schedules the check hands to ``oracle._max_deviation``, filled in when it runs."""
        drawn = []
        max_deviation = oracle._max_deviation

        def capture(schedules, params):
            assert not drawn, "the check compares its trials in one call"
            drawn.extend(schedules)
            return max_deviation(schedules, params)

        monkeypatch.setattr(oracle, "_max_deviation", capture)
        return drawn

    @pytest.mark.parametrize("seed", [5, 77])
    @pytest.mark.parametrize(
        "params", [SystemParams(), SystemParams(1.3, 0.4, -0.2)], ids=["resonant", "detuned"]
    )
    def test_returns_the_largest_deviation_of_one_run_per_trial(self, monkeypatch, seed, params):
        drawn = self.capture_the_drawn_trials(monkeypatch)
        config = cli.ScenarioConfig(
            "oracle-check", params.coupling, params.eps_a, params.eps_b, n_list=(0, 1, 4, 9, 10),
            total_time=1.1, resolution=50, trials=30, seed=seed,
        )
        dev = cli.oracle_engine_deviation(config)
        assert len(drawn) == 30 and len({len(s.kicks) for s in drawn}) > 1
        expected = max(
            float(np.max(np.abs(getattr(reduced, attr) - getattr(dense, attr))))
            for reduced, dense in (
                (engine.run_schedule(s, params), oracle.run_schedule(s, params)) for s in drawn
            )
            for attr in ("p10", "p01", "pvac")
        )
        assert dev == expected


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

    def test_off_resonance_is_a_usage_error(self, tmp_path, capsys):
        # The first closed form refuses it, before any finite difference or file.
        out = tmp_path / "rates.csv"
        path = tmp_path / "r.txt"
        path.write_text(f"scenario = rates\neps_a = 0.1\nout = {out}\n")
        assert cli.main([str(path)]) == 2
        assert capsys.readouterr().err == (
            "config error: closed-form rates require eps_a == eps_b, got 0.1 and 0.0\n"
        )
        assert not out.exists()

    @pytest.mark.parametrize(
        "coupling, code",
        [(3.0, 0), ("limit", 0), ("past the limit", 2), (10.0, 2), (1e200, 2)],
    )
    def test_coupling_limit(self, coupling, code, tmp_path, capsys):
        # Past RATES_MAX_COUPLING the fixed finite-difference steps cannot meet
        # the tolerances (G = 10 and up failed them): refused before any
        # compute.  At the limit itself every check passes.
        limit = cli.RATES_MAX_COUPLING
        coupling = {"limit": limit, "past the limit": limit * (1 + 1e-12)}.get(coupling, coupling)
        out = tmp_path / "rates.csv"
        path = tmp_path / "r.txt"
        path.write_text(f"scenario = rates\nG = {coupling!r}\nout = {out}\n")
        assert cli.main([str(path)]) == code
        captured = capsys.readouterr()
        if code == 0:
            assert captured.out.count(" PASS") == len(cli.RATE_TOLERANCES)
        else:
            assert f"needs G <= {limit:.6g}" in captured.err
            assert not out.exists()


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
        assert capsys.readouterr().err == (
            "config error: [Errno 2] No such file or directory: '/no/such/scenario.txt'\n"
        )

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

    @pytest.mark.parametrize(
        "body, flags",
        [
            ("scenario = sweep\nT = 1\ng_list = pi/2\nN_list = 1..3\nout = {out}\n", []),
            ("scenario = run\nT = 1\nt_kicks = 0.5\nresolution = 10\n", ["--out", "{out}"]),
        ],
        ids=["out-key-sweep", "out-flag-run"],
    )
    def test_gnuplot_refuses_a_csv_path_ending_in_gp(self, body, flags, tmp_path, capsys):
        # The script's path is the CSV's with ``.gp``: it would overwrite the CSV.
        out = tmp_path / "fig.gp"
        path = tmp_path / "fig.txt"
        path.write_text(body.format(out=out))
        argv = [str(path), *(flag.format(out=out) for flag in flags), "--gnuplot"]
        assert cli.main(argv) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert f"would write its script over the CSV {out}" in captured.err
        assert [p.name for p in tmp_path.iterdir()] == ["fig.txt"]

    @pytest.mark.parametrize("name", sorted(cli.PRESETS))
    def test_preset_with_gnuplot(self, name, tmp_path, monkeypatch, capsys):
        monkeypatch.chdir(tmp_path)
        assert cli.main(["--preset", name, "--gnuplot"]) == 0
        config = cli.parse_config(cli.PRESETS[name])
        scripts = [path.name for path in tmp_path.glob("*.gp")]
        assert scripts == ([f"{name}.gp"] if config.scenario in ("run", "sweep") else [])
        written = [path.name for path in tmp_path.iterdir() if path.suffix != ".gp"]
        assert written and all(n.startswith(Path(config.out).stem) for n in written)
        out = capsys.readouterr().out
        if config.scenario == "oracle-check":
            assert out.startswith("status=PASS ")  # its one report line
        else:
            assert f"wrote {name}" in out

    @pytest.mark.parametrize(
        "scenario", ["sweep\ng_list = pi/2\nN_list = 1..3", "run\nt_kicks = 0.5"]
    )
    def test_non_finite_populations_are_refused(self, scenario, tmp_path, capsys):
        # G T overflows to inf, which would make the propagator NaN: the
        # overflow is named and refused before any compute, without a warning.
        out = tmp_path / "nan.csv"
        path = tmp_path / "nan.txt"
        path.write_text(
            f"scenario = {scenario}\nG = 1e10\nT = 1e300\nresolution = 4\nout = {out}\n"
        )
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            assert cli.main([str(path)]) == 2
        assert caught == []
        assert "omega * T overflows" in capsys.readouterr().err
        assert list(tmp_path.iterdir()) == [path]

    @pytest.mark.parametrize(
        "body, cause",
        [
            ("scenario = sweep\nG = 1e10\nmode = interval\ntau = 1e300\ng_list = 1\nN_list = 1",
             "omega * tau overflows"),
            # A g = 0 cell is one free period of its whole run, N tau long.
            ("scenario = sweep\nmode = interval\ntau = 1e300\ng_list = 0\nN_list = 1000000000",
             "tau * N_list must be finite, got inf"),
            ("scenario = sweep\nG = 1e10\nmode = interval\ntau = 1e290\ng_list = 1, -0\n"
             "N_list = 1, 1000000000",
             "omega * tau * N_list overflows (omega = 1e+10, tau * N_list = 1e+299)"),
            ("scenario = run\neps_a = 1e308\neps_b = 1e308\nT = 1",
             "(eps_a + eps_b) * T overflows"),
            ("scenario = oracle-check\neps_a = 1e308\neps_b = -1e308\nT = 1\ntrials = 1",
             "omega * T overflows"),
            ("scenario = run\nT = 1e-310\nresolution = 1000",
             "resolution / T overflows (resolution = 1000, T = 1e-310)"),
            ("scenario = rates\neps_a = 1e308\neps_b = 1e308",
             "eps_a + eps_b and eps_a - eps_b must not overflow"),
            # The sweep shifts the survivor's energy out, so its block turns by the difference.
            ("scenario = sweep\neps_a = 0.6e308\neps_b = -0.6e308\nT = 1.5\ng_list = 1\n"
             "N_list = 1",
             "(eps_a - eps_b) * T overflows ((eps_a - eps_b) = 1.2e+308, T = 1.5)"),
        ],
    )
    def test_overflow_names_its_cause(self, body, cause, tmp_path, capsys):
        out = tmp_path / "x.csv"
        path = tmp_path / "x.txt"
        path.write_text(f"{body}\nout = {out}\n")
        with pytest.raises(cli.ConfigError, match=re.escape(cause)):
            cli.parse_config(path.read_text())
        assert cli.main([str(path)]) == 2
        assert cause in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("scenario", ["run", "oracle-check"])
    def test_oversized_sample_count_is_refused_before_compute(self, scenario, tmp_path, capsys):
        out = tmp_path / "huge.csv"
        path = tmp_path / "huge.txt"
        path.write_text(f"scenario = {scenario}\nT = 1\nresolution = 1000000000000\nout = {out}\n")
        assert cli.main([str(path)]) == 2
        err = capsys.readouterr().err
        assert "samples" in err and str(cli.MAX_SAMPLES) in err
        assert not out.exists()

    def test_sample_limit_is_the_exact_sample_count_of_a_run(self, tmp_path, monkeypatch, capsys):
        # Two strengths x (11 grid points + a pre and a post record per kick) = 30;
        # the count is exact when no kick falls on a grid point (0.2 apart).
        out = tmp_path / "r.csv"
        text = (
            "scenario = run\nT = 2\nt_kicks = 0.5, 1.3\ng_list = 1, 2\nresolution = 10\n"
            f"out = {out}\n"
        )
        monkeypatch.setattr(cli, "MAX_SAMPLES", 29)
        with pytest.raises(cli.ConfigError, match=r"30 samples \(2 x 15\)"):
            cli.parse_config(text)
        monkeypatch.setattr(cli, "MAX_SAMPLES", 30)
        assert cli.cmd_run(cli.parse_config(text)) == 0
        files = sorted(tmp_path.glob("r_g*.csv"))
        assert [len(path.read_text().splitlines()) - 1 for path in files] == [15, 15]

    def test_sweep_cell_limit_is_refused_before_compute(self, tmp_path, monkeypatch, capsys):
        # Three strengths x four kick counts = 12 cells, one written row each.
        out = tmp_path / "s.csv"
        path = tmp_path / "s.txt"
        path.write_text(f"scenario = sweep\nT = 1\ng_list = 1, 2, 3\nN_list = 1..4\nout = {out}\n")
        monkeypatch.setattr(cli, "MAX_SAMPLES", 11)
        assert cli.main([str(path)]) == 2
        assert "12 cells (3 x 4); at most 11" in capsys.readouterr().err
        assert list(tmp_path.iterdir()) == [path]
        monkeypatch.setattr(cli, "MAX_SAMPLES", 12)
        assert cli.main([str(path)]) == 0
        assert len(out.read_text().splitlines()) - 1 == 12

    def test_python_dash_m_runs_the_cli_without_warnings(self):
        src = str(Path(zenokick.__file__).resolve().parents[1])
        env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
        for module in ("zenokick", "zenokick.cli"):
            proc = subprocess.run(
                [sys.executable, "-m", module, "--list-presets"],
                capture_output=True, text=True, env=env, timeout=60,
            )
            assert proc.returncode == 0
            assert proc.stdout.split() == sorted(cli.PRESETS)
            assert proc.stderr == ""

    def test_preset_runs_are_byte_identical(self, tmp_path):
        first = tmp_path / "a.csv"
        second = tmp_path / "b.csv"
        assert cli.main(["--preset", "fig4", "--out", str(first)]) == 0
        assert cli.main(["--preset", "fig4", "--out", str(second)]) == 0
        assert first.read_bytes() == second.read_bytes()

    def test_usage_error_exit_code(self, capsys):
        assert cli.main(["--preset", "not-a-preset"]) == 2
