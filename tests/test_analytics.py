"""Closed-form rates against the finite-difference instrument and frozen values."""

import math
import re

import numpy as np
import pytest

from zenokick import analytics, cli, engine
from zenokick.core import OffResonanceError, SystemParams

RESONANT = SystemParams()
DETUNED = SystemParams(eps_a=0.1, eps_b=0.2)


class TestRateFree:
    def test_zero_at_start(self):
        assert analytics.rate_free(0.0) == 0.0

    def test_extremal_slope(self):
        # -sin(2t) peaks at t = pi/4; with doubled coupling, at pi/8.
        assert analytics.rate_free(math.pi / 4) == pytest.approx(-1.0, abs=1e-14)
        fast = SystemParams(coupling=2.0)
        assert analytics.rate_free(math.pi / 8, fast) == pytest.approx(-2.0, abs=1e-14)
        numeric = analytics.finite_difference_rate(
            analytics.survival_function((), fast), math.pi / 8, "central"
        )
        assert abs(numeric - (-2.0)) < 1e-8

    def test_matches_central_difference(self):
        p10 = analytics.survival_function((), RESONANT)
        for t in np.linspace(0.0, math.pi, 23)[1:]:
            numeric = analytics.finite_difference_rate(p10, float(t), "central")
            assert abs(analytics.rate_free(float(t)) - numeric) < 1e-8

    def test_off_resonance_rejected(self):
        with pytest.raises(OffResonanceError):
            analytics.rate_free(0.5, DETUNED)


class TestRateAfterOneKick:
    def test_no_kick_equals_free_rate(self):
        assert analytics.rate_after_one_kick(0.7, 0.0) == analytics.rate_free(0.7)

    def test_complete_measurement_nulls_the_rate(self):
        for t_m in (0.2, 0.5, 1.1):
            assert abs(analytics.rate_after_one_kick(t_m, math.pi / 2)) < 1e-16

    def test_inverting_kick_flips_the_sign(self):
        rate = analytics.rate_after_one_kick(0.5, 3 * math.pi / 4)
        assert rate == pytest.approx(0.5950098395293859, abs=1e-14)
        p10 = analytics.survival_function(((0.5, 3 * math.pi / 4),), RESONANT)
        numeric = analytics.finite_difference_rate(p10, 0.5, "right")
        assert abs(rate - numeric) < 1e-4

    def test_random_pairs_match_one_sided_difference(self):
        rng = np.random.default_rng(41)
        for _ in range(100):
            t_m = float(rng.uniform(0.05, 1.4))
            g = float(rng.uniform(0.0, 2.0 * math.pi))
            p10 = analytics.survival_function(((t_m, g),), RESONANT)
            numeric = analytics.finite_difference_rate(p10, t_m, "right", 1e-6)
            assert abs(analytics.rate_after_one_kick(t_m, g) - numeric) < 1e-4

    def test_sign_classification(self):
        t_m = 0.4
        free = analytics.rate_free(t_m)
        for g in (0.3, 1.0, 1.5):            # partial kicks keep the sign
            assert analytics.rate_after_one_kick(t_m, g) * free > 0.0
        for g in (1.7, 2.5, 3.0):            # over-rotation inverts it
            assert analytics.rate_after_one_kick(t_m, g) * free < 0.0
        assert analytics.rate_after_one_kick(t_m, math.pi) == pytest.approx(-free, abs=1e-16)

    def test_kick_never_amplifies_the_rate(self):
        free = abs(analytics.rate_free(0.6))
        for g in np.linspace(0.0, 2.0 * math.pi, 25):
            damped = abs(analytics.rate_after_one_kick(0.6, float(g)))
            assert damped <= free + 1e-16
        assert abs(analytics.rate_after_one_kick(0.6, math.pi)) == free   # |cos pi| = 1
        for g in (0.5, 1.2, 2.1, 2.8):
            assert abs(analytics.rate_after_one_kick(0.6, g)) < free      # strict otherwise


class TestRateSuperZeno:
    def test_echo_point_is_stationary(self):
        assert analytics.rate_super_zeno(0.5, 0.5) == 0.0

    def test_frozen_values_and_signs(self):
        assert analytics.rate_super_zeno(0.5, 0.2) == pytest.approx(0.5646424733950354, abs=1e-15)
        assert analytics.rate_super_zeno(0.5, 0.8) == pytest.approx(-0.5646424733950354, abs=1e-15)

    def test_matches_central_difference_after_mirror_kick(self):
        t_m = 0.5
        p10 = analytics.survival_function(((t_m, math.pi),), RESONANT)
        for t in (0.2, 0.35, 0.8):
            numeric = analytics.finite_difference_rate(p10, t_m + t, "central")
            assert abs(analytics.rate_super_zeno(t_m, t) - numeric) < 1e-8

    def test_off_resonance_rejected(self):
        with pytest.raises(OffResonanceError):
            analytics.rate_super_zeno(0.5, 0.2, DETUNED)


class TestRateAfterNKicks:
    def test_zero_kicks_is_the_free_rate(self):
        assert analytics.rate_after_n_kicks(0.5, 1.0, 0) == analytics.rate_free(0.5)

    def test_frozen_three_kick_value(self):
        rate = analytics.rate_after_n_kicks(0.5, math.pi / 4, 3)
        assert rate == pytest.approx(-0.297504919764693, abs=1e-14)
        p10 = analytics.survival_function(((0.5, math.pi / 4),) * 3, RESONANT)
        numeric = analytics.finite_difference_rate(p10, 0.5, "right")
        assert abs(rate - numeric) < 1e-4

    def test_geometric_in_the_kick_count(self):
        for g in (0.3, 1.2, 2.0, 2.9):
            cg = math.cos(g)
            for n in range(6):
                assert analytics.rate_after_n_kicks(0.5, g, n + 1) == (
                    analytics.rate_after_n_kicks(0.5, g, n) * cg
                )

    def test_vanishes_for_long_bursts(self):
        for g in (0.4, 2.0):
            bound = 2.0 * abs(math.cos(g)) ** 40
            assert abs(analytics.rate_after_n_kicks(0.8, g, 40)) <= bound
        assert abs(analytics.rate_after_n_kicks(0.8, 0.4, 500)) < 1e-15

    def test_spread_kicks_approach_the_burst_rate(self):
        # The burst formula is the limit of ever denser kicks in a fixed
        # window: the gap-growth contribution to the rate shrinks like 1/n.
        t1, g, window = 0.5, math.pi / 3, 0.02

        def deviation(n):
            times = t1 + window * np.arange(1, n + 1) / n
            spread = analytics.survival_function(tuple((float(t), g) for t in times), RESONANT)
            numeric = analytics.finite_difference_rate(spread, t1 + window, "right")
            return abs(numeric - analytics.rate_after_n_kicks(t1, g, n))

        coarse, fine = deviation(20), deviation(320)
        assert fine < coarse / 8
        assert fine < 2e-4

    def test_negative_count_rejected(self):
        with pytest.raises(ValueError):
            analytics.rate_after_n_kicks(0.5, 1.0, -1)

    def test_a_count_past_the_cap_is_refused_up_front(self):
        # Every count up to 2**63 - 1 ran the loop: 10**7 kicks took over a second.
        cap = analytics.MAX_BURST_KICKS
        assert analytics.rate_after_n_kicks(0.5, math.pi, cap) == analytics.rate_free(0.5)
        for n in (cap + 1, 2**63 - 1):
            message = f"^rate_after_n_kicks takes at most {cap} kicks, got {n}$"
            with pytest.raises(ValueError, match=message):
                analytics.rate_after_n_kicks(0.5, 1.0, n)


class TestSurvivalFunction:
    def test_only_past_kicks_apply(self):
        p10 = analytics.survival_function(((0.5, math.pi / 2),), RESONANT)
        assert p10(0.3) == pytest.approx(math.cos(0.3) ** 2, abs=1e-14)
        assert p10(0.5) == pytest.approx(math.cos(0.5) ** 2, abs=1e-14)  # continuous at the kick
        assert p10(1.0) == pytest.approx(math.cos(0.5) ** 4, abs=1e-14)

    def test_rejects_negative_times(self):
        p10 = analytics.survival_function((), RESONANT)
        with pytest.raises(ValueError):
            p10(-0.1)

    @pytest.mark.parametrize(
        "kicks",
        [
            ((math.nan, math.pi / 2),),  # was dropped: p10(0.5) gave cos(0.5)**2
            ((0.7, 1.0), (math.nan, 1.0), (0.2, 1.0)),  # broke the sort, blamed 0.2
            ((math.inf, 1.0),),
            ((0.5, math.nan),),
            ((0.5, -math.inf),),
            ((-0.5, 1.0),),  # each evaluation raised "kick time -0.5 outside [0.0, t]"
            ((0.7, 1.0), (-1e-300, 1.0)),
        ],
    )
    def test_rejects_non_finite_kicks_when_built(self, kicks):
        # A value that is not finite is refused as it is read, in order; a
        # negative time once every value is read, naming the earliest.
        bad = [x for kick in kicks for x in kick if not math.isfinite(x)]
        if bad:
            message = f"kick times and strengths must be finite, got {bad[0]}"
        else:
            message = f"kick times must be >= 0, got {min(t for t, _ in kicks)}"
        with pytest.raises(ValueError, match=re.escape(message)):
            analytics.survival_function(kicks, RESONANT)


    def test_folds_its_kicks_once(self, monkeypatch):
        # Each evaluation folded its kicks from t = 0 again.
        calls = []
        kick = engine._kick

        def counting(*args):
            calls.append(args)
            return kick(*args)

        monkeypatch.setattr(engine, "_kick", counting)
        p10 = analytics.survival_function(tuple((0.1 * k, 0.7) for k in range(1, 10)), RESONANT)
        for t in np.linspace(0.0, 1.5, 120):
            p10(float(t))
        assert len(calls) == 9

    def test_equals_final_state_over_the_rates_grid(self, monkeypatch):
        # Every evaluation the ``rates`` scenario makes, recorded as it is made.
        evaluations = []
        survival_function = analytics.survival_function

        def recording(kicks, params=None):
            p10 = survival_function(kicks, params)

            def record(t):
                value = p10(t)
                evaluations.append((kicks, t, value))
                return value

            return record

        monkeypatch.setattr(cli, "survival_function", recording)
        cli.rate_comparison_rows(RESONANT)
        assert len(evaluations) == 186
        for kicks, t, value in evaluations:
            included = [(tm, g) for tm, g in sorted(kicks, key=lambda k: k[0]) if tm <= t]
            assert value.hex() == engine.final_state(included, t, RESONANT).p10.hex()


def leaky_kick(a, b, v, g):
    return a, b * math.cos(g), v + 1e-9


def inflating_kick(a, b, v, g):
    return a * (1.0 + 4e-11), b * math.cos(g), v + (b.real**2 + b.imag**2) * math.sin(g) ** 2


@pytest.mark.parametrize(
    "kicks,total_time,kick",
    [
        ((), math.nan, None),
        ((), -1.0, None),
        ((), math.inf, None),
        (((0.5, 1.0), (0.4, 1.0)), 1.0, None),
        (((0.5, 1.0),), 0.4, None),
        # Kick values reach ``_fold`` already read by ``core._real``: a NaN time
        # or an infinite strength is refused at the entry (tests/test_core.py).
        (((-0.5, 1.0),), 1.0, None),
        (((0.5, 1.0), (1.5, 1.0)), 1.0, None),
        (((0.5, 1.0),), 1.0, leaky_kick),
        (((0.0, 1.0),), 0.0, inflating_kick),
    ],
)
def test_the_scalar_fold_refuses_what_final_state_refuses(monkeypatch, kicks, total_time, kick):
    # A survival curve evaluated at total_time folds the kicks as ``final_state``
    # does, wherever it can hold them: in order and none past total_time.
    if kick is not None:
        monkeypatch.setattr(engine, "_kick", kick)
    with pytest.raises(ValueError) as state_error:
        engine.final_state(kicks, total_time, RESONANT)
    if any(t < 0 for t, _ in kicks):
        # A curve has no run window to name: it refuses the time when built.
        with pytest.raises(ValueError, match=r"^kick times must be >= 0, got -0\.5$"):
            analytics.survival_function(kicks, RESONANT)
    elif list(kicks) == sorted(kicks) and all(t <= total_time for t, _ in kicks):
        with pytest.raises(ValueError) as curve_error:
            analytics.survival_function(kicks, RESONANT)(total_time)
        assert str(curve_error.value) == str(state_error.value)


class TestZenoLoss:
    @pytest.mark.parametrize("coupling", [1.0, 2.0])
    def test_matches_the_sweep_from_2_10_to_2_30_kicks(self, coupling):
        params = SystemParams(coupling=coupling)
        g_values = (math.pi / 4, math.pi / 2, 3 * math.pi / 4)
        n_values = tuple(2**k for k in range(10, 31))
        for row in engine.sweep(g_values, n_values, total_time=math.pi / 2, params=params):
            law = analytics.zeno_loss(row.n, row.g, math.pi / 2, params)
            assert abs((1.0 - row.p10) / law - 1.0) <= 64 / row.n + 1e-7, (row.g, row.n)

    def test_reference_values(self):
        # Complete measurements: (cT)^2 / n; the ratio (1 + cos g)/(1 - cos g) otherwise.
        assert analytics.zeno_loss(4, math.pi / 2, 2.0) == pytest.approx(1.0, rel=1e-15)
        assert analytics.zeno_loss(1, 2 * math.pi / 3, 1.0) == pytest.approx(1 / 3, rel=1e-15)
        fast = SystemParams(coupling=2.0)
        assert analytics.zeno_loss(8, math.pi / 2, 1.0, fast) == pytest.approx(0.5, rel=1e-15)
        assert analytics.zeno_loss(1, math.pi, 1.0) < 1e-30

    def test_rejects_invalid_inputs(self):
        with pytest.raises(ValueError):
            analytics.zeno_loss(0, math.pi / 2, 1.0)
        with pytest.raises(ValueError):
            analytics.zeno_loss(4, 0.0, 1.0)
        with pytest.raises(OffResonanceError):
            analytics.zeno_loss(4, math.pi / 2, 1.0, DETUNED)


class TestFiniteDifferenceRate:
    def test_central_on_a_smooth_curve(self):
        curve = lambda t: math.cos(t) ** 2
        numeric = analytics.finite_difference_rate(curve, math.pi / 4, "central", 1e-5)
        assert abs(numeric - (-1.0)) < 1e-8

    def test_right_sided_at_a_complete_measurement(self):
        p10 = analytics.survival_function(((0.5, math.pi / 2),), RESONANT)
        assert abs(analytics.finite_difference_rate(p10, 0.5, "right")) < 1e-4

    def test_left_sided_sees_the_free_rate(self):
        p10 = analytics.survival_function(((0.5, math.pi / 2),), RESONANT)
        numeric = analytics.finite_difference_rate(p10, 0.5, "left")
        assert abs(numeric - analytics.rate_free(0.5)) < 1e-4

    def test_tiny_steps_rejected(self):
        with pytest.raises(ValueError):
            analytics.finite_difference_rate(lambda t: t, 0.5, "central", 1e-10)

    def test_unknown_side_rejected(self):
        with pytest.raises(ValueError):
            analytics.finite_difference_rate(lambda t: t, 0.5, "sideways")
