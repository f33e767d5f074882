"""Tests of the reduced simulation path and the sweep machinery."""

import math

import mpmath
import numpy as np
import pytest

from zenokick import engine, oracle
from zenokick.core import KickSchedule, ReducedState, SystemParams, schedule_steps

RESONANT = SystemParams()
DETUNED = SystemParams(coupling=1.3, eps_a=0.4, eps_b=-0.2)


def sampler_schedule(case: str, seed: int) -> KickSchedule:
    """A random schedule over T = 1 whose kicks sit where ``case`` says."""
    rng = np.random.default_rng(seed)
    resolution = 40.0
    grid = KickSchedule((), 1.0, resolution).sample_grid()
    if case == "random":
        times = np.sort(rng.uniform(0.0, 1.0, 6))
    elif case == "on-grid":
        times = np.array([0.0, grid[7], grid[8], rng.uniform(grid[20], grid[21]), 1.0])
    elif case == "no-grid":
        resolution = 0.0
        times = np.array([0.0, *np.sort(rng.uniform(0.0, 1.0, 3)), 1.0])
    else:
        times = np.array([])
    strengths = rng.uniform(0.0, 2.0 * math.pi, len(times))
    strengths[1::3] = math.pi  # mirror kicks among them
    return KickSchedule(tuple(zip(times, strengths)), 1.0, resolution)


SAMPLER_CASES = [
    (case, seed) for case in ("random", "on-grid", "no-grid", "no-kicks") for seed in (1, 2)
]


class TestRunSchedule:
    def test_free_run_follows_cosine_squared(self):
        schedule = KickSchedule((), 3.0, sample_resolution=333.0)
        traj = engine.run_schedule(schedule, RESONANT)
        assert len(traj) == 1000
        expected = np.cos(traj.t) ** 2
        assert np.max(np.abs(traj.p10 - expected)) < 1e-12

    def test_mirror_kick_echo_curve(self):
        # After a g = pi kick at t_m the survival rewinds: cos^2(t_m - t).
        t_m = 0.5
        schedule = KickSchedule(((t_m, math.pi),), 1.0, sample_resolution=200.0)
        traj = engine.run_schedule(schedule, RESONANT)
        after = traj.t >= t_m
        expected = np.cos(t_m - (traj.t[after] - t_m)) ** 2
        assert np.max(np.abs(traj.p10[after] - expected)) < 1e-12
        dense = oracle.run_schedule(schedule, RESONANT)
        assert np.max(np.abs(traj.p10 - dense.p10)) < 1e-12

    def test_kick_instant_has_pre_and_post_records(self):
        schedule = KickSchedule(((0.5, math.pi / 2),), 1.0, sample_resolution=10.0)
        traj = engine.run_schedule(schedule, RESONANT)
        at_kick = np.flatnonzero(traj.t == 0.5)
        assert len(at_kick) == 2
        i, j = at_kick
        assert traj.p10[i] == traj.p10[j]  # survivor amplitude untouched
        assert traj.p01[j] < traj.p01[i]   # partner weight collapses
        assert traj.pvac[j] > traj.pvac[i]

    def test_many_weak_kicks_freeze_the_transition(self):
        ladder = [
            engine.run_equally_spaced(2**k, math.pi / 4, total_time=math.pi / 2)[0]
            for k in (4, 6, 8, 10)
        ]
        assert all(low < high for low, high in zip(ladder, ladder[1:]))
        p10, _, _ = engine.run_equally_spaced(1024, math.pi / 4, total_time=math.pi / 4)
        assert p10 > 0.99
        # At run length pi/2 the weak-kick residue saturates near the 1/N law
        # (cT)^2 (1 + cos g) / ((1 - cos g) N); the frozen value documents it.
        p10, _, _ = engine.run_equally_spaced(1023, math.pi / 4, total_time=math.pi / 2)
        assert p10 == pytest.approx(0.9860786617324959, abs=1e-12)


    def test_long_mirror_echo_run_stays_inside_the_guards(self):
        # 30 mirror kicks, one per equal slot of the run, and 80000 samples:
        # stepping sample to sample drifted p10 past 1 + 1e-12 near an echo.
        rng = np.random.default_rng([5, 2])
        times = (np.arange(30) + rng.uniform(0.1, 0.9, 30)) / 30
        schedule = KickSchedule(tuple((t, math.pi) for t in times), 1.0, 80000.0)
        traj = engine.run_schedule(schedule, RESONANT)
        assert len(traj) == 80061
        assert np.max(np.abs(traj.norm - 1.0)) < 1e-13
        assert np.max(traj.p10) <= 1.0 + 1e-13

    @pytest.mark.parametrize("params", [RESONANT, DETUNED], ids=["resonant", "detuned"])
    @pytest.mark.parametrize("case, seed", SAMPLER_CASES)
    def test_matches_the_step_list_and_the_oracle(self, case, seed, params):
        schedule = sampler_schedule(case, seed)
        traj = engine.run_schedule(schedule, params)
        steps = [step[1] for step in schedule_steps(schedule) if step[0] == "sample"]
        np.testing.assert_array_equal(traj.t, steps)
        dense = oracle.run_schedule(schedule, params)
        for attr in ("p10", "p01", "pvac"):
            assert np.max(np.abs(getattr(traj, attr) - getattr(dense, attr))) <= 1e-12
        for t_kick, _ in schedule.kicks:
            pre, post = np.flatnonzero(traj.t == t_kick)
            assert abs(traj.p10[post] - traj.p10[pre]) <= 1e-14


class TestFinalState:
    def test_matches_run_schedule_endpoint(self):
        kicks = ((0.2, 1.0), (0.8, 2.5))
        schedule = KickSchedule(kicks, 1.3, sample_resolution=0.0)
        end = engine.run_schedule(schedule, RESONANT)
        state = engine.final_state(kicks, 1.3, RESONANT)
        assert state.p10 == pytest.approx(end.p10[-1], abs=1e-14)
        assert state.v == pytest.approx(end.pvac[-1], abs=1e-14)

    def test_repeated_times_mean_back_to_back_kicks(self):
        g = 0.9
        state = engine.final_state(((0.5, g), (0.5, g), (0.5, g)), 0.5, RESONANT)
        b_expected = -1j * math.sin(0.5) * math.cos(g) ** 3
        assert state.b == pytest.approx(b_expected, abs=1e-15)

    def test_rejects_out_of_order_kicks(self):
        with pytest.raises(ValueError):
            engine.final_state(((0.5, 1.0), (0.4, 1.0)), 1.0, RESONANT)
        with pytest.raises(ValueError):
            engine.final_state(((0.5, 1.0),), 0.4, RESONANT)
        # NaN fails every comparison: a NaN time used to fold as a kick at t = 0.
        for kicks in (((math.nan, math.pi / 2),), ((0.2, 1.0), (math.nan, 1.0))):
            with pytest.raises(ValueError):
                engine.final_state(kicks, 1.0, RESONANT)

    def test_fold_drift_stays_inside_the_guard_at_a_million_kicks(self):
        # The drift grows with the number of 2x2 steps: about 4e-11 here.
        n, total_time, g = 10**6, math.pi / 2, math.pi / 2
        times = np.linspace(0.0, total_time, n + 1)[1:].tolist()
        state = engine.final_state(zip(times, [g] * n), total_time, RESONANT)
        assert abs(state.norm - 1.0) < 1e-10

    def test_leaky_kick_fails_the_norm_guard(self, monkeypatch):
        def leaky_kick(a, b, v, g):
            return a, b * math.cos(g), v + 1e-9

        monkeypatch.setattr(engine, "_kick", leaky_kick)
        with pytest.raises(ValueError, match="drifted"):
            engine.final_state(((0.5, 1.0),), 1.0, RESONANT)

    def test_inflated_survivor_fails_the_population_guard(self, monkeypatch):
        # |a| grows by 4e-11: the total weight stays inside its 1e-10 guard,
        # but P10 passes 1 by 8e-11, beyond the populations' 1e-12 of slack.
        def inflating_kick(a, b, v, g):
            leak = (b.real**2 + b.imag**2) * math.sin(g) ** 2
            return a * (1.0 + 4e-11), b * math.cos(g), v + leak

        monkeypatch.setattr(engine, "_kick", inflating_kick)
        state = ReducedState(1.0 + 4e-11, 0.0, 0.0)
        assert abs(state.norm - 1.0) <= 1e-10
        with pytest.raises(ValueError, match=r"populations must lie in \[0, 1\]"):
            engine.final_state(((0.0, 1.0),), 0.0, RESONANT)


class TestEquallySpaced:
    def test_even_mirror_sequences_restore_the_state(self):
        for n in (2, 4, 10, 100):
            p10, p01, pvac = engine.run_equally_spaced(n, math.pi, interval=0.37)
            assert p10 == pytest.approx(1.0, abs=1e-12)
            assert pvac < 1e-12

    def test_odd_mirror_sequences_keep_one_period(self):
        tau = 0.37
        for n in (1, 3, 9, 99):
            p10, _, _ = engine.run_equally_spaced(n, math.pi, interval=tau)
            assert p10 == pytest.approx(math.cos(tau) ** 2, abs=1e-12)

    def test_single_complete_measurement(self):
        p10, p01, pvac = engine.run_equally_spaced(1, math.pi / 2, interval=0.5)
        assert p10 == pytest.approx(math.cos(0.5) ** 2, abs=1e-14)
        assert p01 < 1e-32
        assert pvac == pytest.approx(math.sin(0.5) ** 2, abs=1e-14)

    def test_requires_exactly_one_duration(self):
        with pytest.raises(ValueError, match="exactly one"):
            engine.run_equally_spaced(3, 1.0)
        with pytest.raises(ValueError, match="exactly one"):
            engine.run_equally_spaced(3, 1.0, total_time=1.0, interval=0.5)

    def test_zero_kicks(self):
        p10, _, _ = engine.run_equally_spaced(0, 1.0, total_time=math.pi / 2)
        assert p10 < 1e-12


class TestSweep:
    def test_identity_kicks_leave_the_free_answer(self):
        (cell,) = engine.sweep((0.0,), (5,), total_time=0.8)
        assert cell.p10 == pytest.approx(math.cos(0.8) ** 2, abs=1e-13)

    def test_row_order_is_g_outer_n_inner(self):
        cells = engine.sweep((0.1, 0.2), (1, 2, 3), total_time=1.0)
        assert list(zip(cells.g.tolist(), cells.n.tolist())) == [
            (0.1, 1), (0.1, 2), (0.1, 3), (0.2, 1), (0.2, 2), (0.2, 3)
        ]

    @pytest.mark.parametrize("timing", [{"total_time": 1.0}, {"interval": 0.3}],
                             ids=["total", "interval"])
    def test_one_record_per_cell_and_free_cells_keep_their_g(self, timing):
        g_values, n_values = (0.5, 1.0, 2.5), (0, 3, 0, 7)
        cells = engine.sweep(g_values, n_values, **timing)
        assert len(cells) == len(g_values) * len(n_values)
        assert cells.dtype.names == ("g", "n", "p10", "p01", "pvac")
        assert cells.g[cells.n == 0].tolist() == [0.5, 0.5, 1.0, 1.0, 2.5, 2.5]

    def test_deterministic(self):
        g_values, n_values = (math.pi / 4, math.pi), tuple(range(1, 9))
        first = engine.sweep(g_values, n_values, total_time=math.pi / 2)
        assert np.array_equal(first, engine.sweep(g_values, n_values, total_time=math.pi / 2))

    def test_stronger_kicks_protect_better(self):
        cells = engine.sweep(
            (math.pi / 4, math.pi / 2, 3 * math.pi / 4), tuple(range(1, 65)), total_time=math.pi / 2
        )
        weak = cells.p10[cells.g == math.pi / 4]
        complete = cells.p10[cells.g == math.pi / 2]
        strong = cells.p10[cells.g == 3 * math.pi / 4]
        assert np.all(strong >= complete - 1e-12)
        assert np.all(complete >= weak - 1e-12)

    def test_mirror_curve_bounds_complete_curve_and_oscillates(self):
        cells = engine.sweep((math.pi / 2, math.pi), tuple(range(1, 25)), total_time=math.pi / 2)
        complete = {r.n: r.p10 for r in cells if r.g == math.pi / 2}
        mirror = {r.n: r.p10 for r in cells if r.g == math.pi}
        assert all(mirror[n] >= complete[n] - 1e-12 for n in complete)
        assert all(mirror[n] == pytest.approx(1.0, abs=1e-12) for n in mirror if n % 2 == 0)
        assert all(mirror[n] < 1.0 - 1e-5 for n in mirror if n % 2 == 1)

    def test_interval_mode_runs_longer_with_n(self):
        cells = engine.sweep((math.pi,), (2, 4), interval=0.37)
        assert all(cell.p10 == pytest.approx(1.0, abs=1e-12) for cell in cells)

    @pytest.mark.parametrize("params", [RESONANT, DETUNED], ids=["resonant", "detuned"])
    @pytest.mark.parametrize("mode, duration", [("total", math.pi / 2), ("interval", 0.37)])
    def test_matches_the_sequential_fold(self, params, mode, duration):
        # The Zeno benchmark's grid plus N = 0, against a kick-by-kick final_state fold.
        g_values = (0.3, math.pi / 4, math.pi / 2, 2.0, 3 * math.pi / 4, math.pi)
        n_values = (0, *range(1, 33), 48, 64, 96, 128, 192, 256)
        timing = {"total_time": duration} if mode == "total" else {"interval": duration}
        worst = 0.0
        for cell in engine.sweep(g_values, n_values, params=params, **timing):
            n = int(cell.n)
            # Kick k at k * tau, k = 1..n; the last one lands exactly at the end of the run.
            if mode == "total":
                span = duration
                times = np.linspace(0.0, span, n + 1)[1:]
            else:
                times = duration * np.arange(1, n + 1)
                span = float(times[-1]) if n else 0.0
            kicks = [(float(t), float(cell.g)) for t in times]
            state = engine.final_state(kicks, span, params)
            worst = max(worst, abs(cell.p10 - state.p10), abs(cell.p01 - state.p01),
                        abs(cell.pvac - state.v))
        assert worst <= 1e-13

    @pytest.mark.parametrize(
        "params", [RESONANT, DETUNED, SystemParams(0.7, -0.3, 0.9)],
        ids=["resonant", "detuned", "detuned-weak"],
    )
    @pytest.mark.parametrize("mode, duration", [("total", math.pi / 2), ("interval", 0.37)])
    def test_matches_the_dense_path(self, params, mode, duration):
        # The dense oracle shares no fold with the sweep.  N = 17..20, at one
        # strength, reaches oracle.MAX_PROBES.
        timing = {"total_time": duration} if mode == "total" else {"interval": duration}
        strengths = (0.3, math.pi / 2, 2.5, math.pi - 0.03, math.pi)
        cells = [
            *engine.sweep(strengths, range(1, 17), params=params, **timing),
            *engine.sweep((2.5,), range(17, oracle.MAX_PROBES + 1), params=params, **timing),
        ]
        worst = 0.0
        for cell in cells:
            n = int(cell.n)
            span = duration if mode == "total" else n * duration
            # Kick k at k * span / n; the last one lands exactly at the end of the run.
            kicks = tuple((float(t), float(cell.g)) for t in np.linspace(0.0, span, n + 1)[1:])
            dense = oracle.run_schedule(KickSchedule(kicks, span, 0.0), params)
            worst = max(worst, abs(cell.p10 - dense.p10[-1]), abs(cell.p01 - dense.p01[-1]),
                        abs(cell.pvac - dense.pvac[-1]))
        assert worst <= 1e-13

    def test_failed_norm_guard_raises(self, monkeypatch):
        def leaky(g, n, tau, params):
            ones = np.ones(len(n))
            return 0.5 * ones, 0.5 * ones, 1e-9 * ones

        monkeypatch.setattr(engine, "_equally_spaced_populations", leaky)
        with pytest.raises(ValueError, match="drifted"):
            engine.sweep((1.0,), (3,), total_time=1.0)

    def test_chunks_give_the_rows_of_one_pass(self, monkeypatch):
        g_values = (0.3, math.pi / 4, math.pi)
        n_values = (0, 1, 2, 5, 17, 64, 1000, 2**40)
        whole = engine.sweep(g_values, n_values, total_time=math.pi / 2)
        monkeypatch.setattr(engine, "SWEEP_CHUNK", 7)
        assert np.array_equal(engine.sweep(g_values, n_values, total_time=math.pi / 2), whole)

    def test_spec_validation(self):
        refused = [
            dict(g_values=(), n_values=(1,), total_time=1.0),
            dict(g_values=(1.0,), n_values=(), total_time=1.0),
            dict(g_values=(math.nan,), n_values=(1,), total_time=1.0),
            dict(g_values=(1.0,), n_values=(-1,), total_time=1.0),
            dict(g_values=(1.0,), n_values=(2**63,), total_time=1.0),
            dict(g_values=(1.0,), n_values=(1,)),  # neither duration
            dict(g_values=(1.0,), n_values=(1,), total_time=1.0, interval=0.5),  # both
            dict(g_values=(1.0,), n_values=(1,), total_time=0.0),
            dict(g_values=(1.0,), n_values=(1,), interval=-0.5),
            dict(g_values=(1.0,), n_values=(1,), interval=math.inf),
            # A g = 0 cell runs n * interval, which overflows: refused before numpy warns.
            dict(g_values=(0.0,), n_values=(10**9,), interval=1e300),
        ]
        for kwargs in refused:
            with pytest.raises(ValueError):
                engine.sweep(**kwargs)
        # The duration given is the timing rule; there is no separate mode to name.
        with pytest.raises(TypeError):
            engine.sweep((1.0,), (1,), mode="sideways", total_time=1.0)

    @pytest.mark.parametrize("count", [2.7, "3"], ids=["float", "str"])
    def test_a_kick_count_must_be_an_integer(self, count):
        # Both were read through int(): 2.7 ran as 2 kicks, "3" as 3.
        with pytest.raises(ValueError, match=f"kick counts must be integers, got {count!r}"):
            engine.sweep((math.pi / 2,), (count,), total_time=1.0)
        with pytest.raises(ValueError, match=f"kick counts must be integers, got {count!r}"):
            engine.run_equally_spaced(count, math.pi / 2, total_time=1.0)
        (cell,) = engine.sweep((math.pi / 2,), (np.int64(3),), total_time=1.0)
        assert type(cell.n) is np.int64 and cell.n == 3
        assert engine.run_equally_spaced(np.int64(3), math.pi / 2, total_time=1.0) == (
            engine.run_equally_spaced(3, math.pi / 2, total_time=1.0)
        )


def mpmath_loss(n, g, tau, params):
    """1 - P10 after n periods diag(1, cos g) exp(-i H tau), from a 50-digit matrix power."""
    with mpmath.workdps(50):
        h = mpmath.matrix([[params.eps_a, params.coupling], [params.coupling, params.eps_b]])
        period = mpmath.matrix([[1, 0], [0, mpmath.cos(g)]]) * mpmath.expm(-1j * h * tau)
        return float(1 - abs((period**n)[0, 0]) ** 2)


LOSS_PARAMS = [SystemParams(), SystemParams(1.0, 0.7, 0.7), SystemParams(1.3, 0.4, -0.2)]


@pytest.mark.parametrize("params", LOSS_PARAMS, ids=["resonant", "common-energy", "detuned"])
@pytest.mark.parametrize(
    "timing",
    [{"total_time": math.pi / 2}, {"interval": 1e-9}, {"interval": 1e-3}],
    ids=["total", "interval", "interval-1e-3"],
)
def test_the_loss_is_p01_plus_pvac_to_full_relative_precision(params, timing):
    # 1 - p10 rounds away a loss below about 1e-16; p01 + pvac keeps it.
    g_values = (0.3, math.pi / 4, math.pi / 2, 2.0, math.pi - 0.1)
    n_values = (1, 2, 3, 7, 64, 1000, 2**20, 2**30)
    cells = engine.sweep(g_values, n_values, params=params, **timing)
    for cell in cells:
        n = int(cell.n)
        tau = timing["total_time"] / n if "total_time" in timing else timing["interval"]
        expected = mpmath_loss(n, float(cell.g), tau, params)
        assert cell.p01 + cell.pvac == pytest.approx(expected, rel=1e-12, abs=0)


#: (n, g, tau) of a long equally spaced run, in the argument order of ``mpmath_loss``
LONG_RUN = (2**30, math.pi - 0.1, 1e-3)


def long_run_loss(params):
    """p01 + pvac after ``LONG_RUN``'s n kicks of strength g spaced tau."""
    n, g, tau = LONG_RUN
    _, p01, pvac = engine.run_equally_spaced(n, g, interval=tau, params=params)
    return p01 + pvac


def test_the_loss_of_a_long_run_with_a_common_energy():
    # A common energy is a global phase: the sweep drops it and reads as at eps = 0.
    params = SystemParams(1.0, 0.7, 0.7)
    loss = long_run_loss(params)
    assert loss == pytest.approx(mpmath_loss(*LONG_RUN, params), rel=1e-12, abs=0)
    assert loss == long_run_loss(SystemParams())


def test_the_loss_of_a_long_detuned_run():
    params = SystemParams(1.3, 0.4, -0.2)
    expected = mpmath_loss(*LONG_RUN, params)
    assert long_run_loss(params) == pytest.approx(expected, rel=1e-12, abs=0)


@pytest.mark.parametrize("params", LOSS_PARAMS, ids=["resonant", "common-energy", "detuned"])
@pytest.mark.parametrize(
    "timing", [{"total_time": 1.0}, {"interval": 1e-3}], ids=["total", "interval"]
)
def test_kick_free_cells_are_exact_at_any_count(params, timing):
    # A g = +-0 kick is the identity, so its cell is one free period of the
    # whole run.  Doubled instead, a g = 0 column drifted in proportion to n:
    # 3.9e-11 at 2**28 kicks spaced 1e-3, and the guard refused 2**30.
    cells = engine.sweep((0.0, -0.0), (2**20, 2**30, 2**40), params=params, **timing)
    assert np.signbit(cells.g).tolist() == [False] * 3 + [True] * 3
    for cell in cells:
        assert abs(cell.p10 + cell.p01 + cell.pvac - 1.0) <= 1e-15
        n = int(cell.n)
        tau = timing["total_time"] / n if "total_time" in timing else timing["interval"]
        if params.resonant:
            with mpmath.workdps(50):
                expected = float(mpmath.cos(params.coupling * n * mpmath.mpf(tau)) ** 2)
            assert abs(cell.p10 - expected) <= 1e-12


@pytest.mark.parametrize("params", LOSS_PARAMS, ids=["resonant", "common-energy", "detuned"])
def test_cells_without_kicks_keep_their_bytes(params):
    # n = 0 is free evolution over total_time, computed as the one period of a
    # g = 0, n = 1 cell, and the untouched initial state for an interval.
    g_values = (0.0, -0.0, 0.3, math.pi)
    (free,) = engine.sweep((0.0,), (1,), total_time=0.8, params=params)
    for cell in engine.sweep(g_values, (0,), total_time=0.8, params=params):
        assert [x.hex() for x in cell.tolist()[2:]] == [x.hex() for x in free.tolist()[2:]]
    untouched = [x.hex() for x in (1.0, 0.0, 0.0)]
    for cell in engine.sweep(g_values, (0,), interval=1e-3, params=params):
        assert [x.hex() for x in cell.tolist()[2:]] == untouched


class TestLargeKickCounts:
    @pytest.mark.parametrize("n", [4_000_000, 2**40])
    @pytest.mark.parametrize("g", [math.pi / 4, math.pi / 2])
    def test_norm_stays_inside_the_guard(self, n, g):
        # A kick-by-kick leak sum drifted by -4.3e-10 at 4e6 kicks of g = pi/2.
        p10, p01, pvac = engine.run_equally_spaced(n, g, total_time=math.pi / 2)
        assert abs(p10 + p01 + pvac - 1.0) <= 1e-10
        assert 0.0 < pvac < 1e-5

    def test_mirror_parity_holds_at_large_even_counts(self):
        p10, _, pvac = engine.run_equally_spaced(2**40, math.pi, total_time=math.pi / 2)
        assert p10 == pytest.approx(1.0, abs=1e-12)
        assert pvac < 1e-12


def test_mutation_hook_changes_the_answer(monkeypatch):
    def broken_kick(a, b, v, g):
        cg, sg = math.cos(g), math.sin(g)
        return a * cg, b, v + (a.real**2 + a.imag**2) * sg * sg

    schedule = KickSchedule(((0.5, 1.2),), 1.0, sample_resolution=10.0)
    good = engine.run_schedule(schedule, RESONANT)
    monkeypatch.setattr(engine, "_kick", broken_kick)
    bad = engine.run_schedule(schedule, RESONANT)
    assert np.max(np.abs(good.p10 - bad.p10)) > 1e-3
