"""Unit and property tests for the domain types and the exact single-step operations."""

import math
import re
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from reference import single_excitation_block
from scipy.linalg import expm
from test_engine import SAMPLER_CASES, sampler_schedule

from zenokick import analytics, cli, core, engine, oracle
from zenokick.core import (
    MAX_SAMPLES,
    KickSchedule,
    ReducedState,
    SystemParams,
    Trajectory,
    _check_samples,
    _sample_layout,
    apply_kick,
    block_minus_identity,
    check_populations,
    free_propagate,
    schedule_steps,
)

RESONANT = SystemParams()


def normalized_state(a_re, a_im, b_re, b_im, v):
    weight = a_re**2 + a_im**2 + b_re**2 + b_im**2
    assume(weight > 1e-6)
    scale = math.sqrt((1.0 - v) / weight)
    return ReducedState(complex(a_re, a_im) * scale, complex(b_re, b_im) * scale, v)


amplitude = st.floats(-1.0, 1.0)
vacuum = st.floats(0.0, 0.99)
states = st.builds(normalized_state, amplitude, amplitude, amplitude, amplitude, vacuum)
strengths = st.floats(-4.0 * math.pi, 4.0 * math.pi)
durations = st.floats(0.0, 5.0)
#: the same examples on every run, and no example database written
deterministic = settings(derandomize=True, database=None)


class TestSystemParams:
    def test_defaults_resonant(self):
        assert RESONANT.resonant
        assert not SystemParams(eps_a=0.1).resonant

    @pytest.mark.parametrize("bad", [0.0, -1.0, math.nan, math.inf])
    def test_rejects_bad_coupling(self, bad):
        with pytest.raises(ValueError):
            SystemParams(coupling=bad)

    def test_rejects_non_finite_energy(self):
        with pytest.raises(ValueError):
            SystemParams(eps_a=math.inf)

    @pytest.mark.parametrize(
        "eps_a, eps_b",
        [(-1e308, 1e308), (1e308, 1e308), (1e308, -1e308), (-1e308, -1e308)],
        ids=["difference", "sum", "negative-difference", "negative-sum"],
    )
    def test_rejects_energies_whose_sum_or_difference_overflows(self, eps_a, eps_b):
        # A sweep of such a pair warned "invalid value encountered in sin" and
        # returned NaN cells; the suite's warnings-as-errors would catch that.
        with pytest.raises(ValueError, match=r"eps_a \+ eps_b and eps_a - eps_b must not overflow"):
            engine.sweep((1.0,), (3,), total_time=1.0, params=SystemParams(1.0, eps_a, eps_b))
        assert SystemParams(1.0, eps_a / 2, eps_b / 2).eps_b == eps_b / 2


class TestFreePropagate:
    def test_zero_time_is_identity(self):
        state = ReducedState(0.6, 0.8j, 0.0)
        out = free_propagate(state, 0.0, RESONANT)
        assert out.a == state.a and out.b == state.b and out.v == state.v

    def test_quarter_period_swaps_populations(self):
        out = free_propagate(ReducedState(), math.pi / 2, RESONANT)
        assert out.p01 == pytest.approx(1.0, abs=1e-15)
        assert abs(out.b + 1j) < 1e-15  # -i up to nothing: phase convention is fixed

    def test_detuned_block_matches_matrix_exponential(self):
        # Independent oracle: exponentiate the full 4x4 two-qubit Hamiltonian
        # by scaling and squaring and compare populations.
        params = SystemParams(coupling=1.0, eps_a=0.3, eps_b=0.7)
        dt = 0.9
        h = np.zeros((4, 4), dtype=complex)  # basis |0,0>, |0,1>, |1,0>, |1,1>
        h[1, 1] = params.eps_b
        h[2, 2] = params.eps_a
        h[3, 3] = params.eps_a + params.eps_b
        h[1, 2] = h[2, 1] = params.coupling
        psi = expm(-1j * h * dt) @ np.array([0.0, 0.0, 1.0, 0.0])
        out = free_propagate(ReducedState(), dt, params)
        assert out.p10 == pytest.approx(abs(psi[2]) ** 2, abs=1e-12)
        assert out.p01 == pytest.approx(abs(psi[1]) ** 2, abs=1e-12)

    def test_negative_dt_rejected(self):
        with pytest.raises(ValueError):
            free_propagate(ReducedState(), -0.1, RESONANT)
        with pytest.raises(ValueError):
            free_propagate(ReducedState(), math.nan, RESONANT)

    @deterministic
    @given(states, durations)
    def test_unitary_on_excitation_sector(self, state, dt):
        out = free_propagate(state, dt, SystemParams(eps_a=0.4, eps_b=-0.2))
        before = state.p10 + state.p01
        assert abs((out.p10 + out.p01) - before) < 1e-13

    @deterministic
    @given(states, st.floats(0.0, 3.0), st.floats(0.0, 3.0))
    def test_composition(self, state, t1, t2):
        params = SystemParams(coupling=1.3, eps_a=0.2, eps_b=-0.1)
        joint = free_propagate(state, t1 + t2, params)
        split = free_propagate(free_propagate(state, t1, params), t2, params)
        assert abs(joint.a - split.a) < 1e-12
        assert abs(joint.b - split.b) < 1e-12


class TestBlockMinusIdentity:
    @pytest.mark.parametrize("params", [RESONANT, SystemParams(1.3, 0.4, -0.2)])
    def test_matches_the_block_at_ordinary_steps(self, params):
        dts = np.array([0.0, 0.01, 0.37, 1.0, 2.5])
        out = block_minus_identity(dts, params)
        assert out.shape == (2, 2, len(dts))
        for k, dt in enumerate(dts):
            expected = single_excitation_block(float(dt), params) - np.eye(2)
            assert np.max(np.abs(out[:, :, k] - expected)) < 1e-15

    def test_keeps_relative_precision_at_tiny_steps(self):
        # Resonant: U - I = [[cos x - 1, -i sin x], [-i sin x, cos x - 1]], x = c dt.
        x = 1e-12
        (out,) = np.moveaxis(block_minus_identity(np.array([x]), RESONANT), -1, 0)
        assert out[0, 0] == pytest.approx(-0.5 * x * x, rel=1e-15)
        assert out[1, 1] == pytest.approx(-0.5 * x * x, rel=1e-15)
        assert out[0, 1] == pytest.approx(-1j * x, rel=1e-15)
        assert single_excitation_block(x, RESONANT)[0, 0] == 1.0  # the block has lost it

    def test_detuning_phase_keeps_relative_precision(self):
        dt = 1e-12
        params = SystemParams(coupling=1.0, eps_a=1.0, eps_b=1.0)
        (out,) = np.moveaxis(block_minus_identity(np.array([dt]), params), -1, 0)
        # exp(-i dt) cos(dt) - 1 = -i dt - dt^2 + O(dt^3): both parts survive.
        assert out[0, 0].real == pytest.approx(-dt * dt, rel=1e-10)
        assert out[0, 0].imag == pytest.approx(-dt, rel=1e-15)

    def test_rejects_bad_steps(self):
        with pytest.raises(ValueError):
            block_minus_identity(np.array([0.1, -0.1]), RESONANT)
        with pytest.raises(ValueError):
            block_minus_identity(np.array([math.nan]), RESONANT)


class TestApplyKick:
    def test_zero_strength_is_identity(self):
        state = ReducedState(0.6, -0.8j, 0.0)
        out = apply_kick(state, 0.0)
        assert out.a == state.a and out.b == state.b and out.v == state.v

    def test_complete_measurement_moves_weight_to_vacuum(self):
        alpha, beta = math.cos(0.5), math.sin(0.5)
        out = apply_kick(ReducedState(alpha, -1j * beta, 0.0), math.pi / 2)
        assert out.a == alpha
        assert abs(out.b) < 1e-16
        assert out.v == pytest.approx(beta**2, abs=1e-15)

    def test_mirror_kick_flips_partner_sign_without_leak(self):
        alpha, beta = math.cos(0.5), math.sin(0.5)
        out = apply_kick(ReducedState(alpha, -1j * beta, 0.0), math.pi)
        assert out.a == alpha
        assert out.b == pytest.approx(1j * beta, abs=1e-15)
        assert out.v < 1e-30

    @deterministic
    @given(states, strengths)
    def test_never_touches_survivor_amplitude(self, state, g):
        assert apply_kick(state, g).a == state.a

    @deterministic
    @given(states, strengths)
    def test_periodic_in_two_pi(self, state, g):
        # Bitwise equality is out of reach: g + 2*pi rounds before cos/sin
        # ever see it, so the two inputs differ by ~1 ulp of 2*pi.
        near = apply_kick(state, g)
        far = apply_kick(state, g + 2.0 * math.pi)
        assert abs(near.b - far.b) < 5e-15
        assert abs(near.v - far.v) < 5e-15

    @deterministic
    @given(states, strengths)
    def test_norm_preserved(self, state, g):
        out = apply_kick(state, g)
        assert out.norm == pytest.approx(state.norm, abs=1e-13)

    def test_non_finite_strength_rejected(self):
        with pytest.raises(ValueError):
            apply_kick(ReducedState(), math.inf)


def test_norm_drift_stays_small_over_ten_thousand_operations():
    rng = np.random.default_rng(7)
    state = ReducedState()
    params = SystemParams(coupling=1.1, eps_a=0.3, eps_b=-0.4)
    for _ in range(5000):
        state = free_propagate(state, float(rng.uniform(0.0, 0.7)), params)
        state = apply_kick(state, float(rng.uniform(0.0, 2.0 * math.pi)))
    assert abs(state.norm - 1.0) < 1e-10


class TestKickSchedule:
    def test_rejects_decreasing_times(self):
        with pytest.raises(ValueError):
            KickSchedule(((0.5, 1.0), (0.4, 1.0)), 1.0)
        with pytest.raises(ValueError):
            KickSchedule(((0.5, 1.0), (0.5, 1.0)), 1.0)

    def test_rejects_times_outside_run(self):
        with pytest.raises(ValueError):
            KickSchedule(((1.5, 1.0),), 1.0)
        with pytest.raises(ValueError):
            KickSchedule(((-0.1, 1.0),), 1.0)

    def test_rejects_bad_totals(self):
        with pytest.raises(ValueError):
            KickSchedule((), -1.0)
        with pytest.raises(ValueError):
            KickSchedule((), 1.0, sample_resolution=-2.0)

    @pytest.mark.parametrize(
        "kick", [(math.nan, 1.0), (0.5, math.inf)], ids=["nan-time", "inf-strength"]
    )
    def test_rejects_a_kick_that_is_not_finite(self, kick):
        with pytest.raises(ValueError, match="kick times and strengths must be finite"):
            KickSchedule((kick,), 1.0)

    def test_sample_grid_covers_endpoints(self):
        grid = KickSchedule((), 2.0, sample_resolution=10.0).sample_grid()
        assert grid[0] == 0.0 and grid[-1] == 2.0 and len(grid) == 21
        assert len(KickSchedule((), 0.0).sample_grid()) == 1
        assert len(KickSchedule((), 3.0, sample_resolution=0.0).sample_grid()) == 2

    @pytest.mark.parametrize(
        "total_time, resolution", [(1e9, 1000.0), (1e300, 1000.0), (1e300, 1e300)]
    )
    def test_refuses_more_samples_than_the_cap_before_allocating(self, total_time, resolution):
        # These were built, and a run of them raised MemoryError (7.28 TiB), numpy's
        # size error and OverflowError.
        with pytest.raises(ValueError, match=f"at most {MAX_SAMPLES} are allowed"):
            KickSchedule((), total_time, resolution)

    def test_the_cap_counts_grid_points_and_two_records_per_kick(self, monkeypatch):
        # No kick falls on a grid point, so the count is exact.
        kicks = ((0.3, 1.0), (0.6, 1.0))
        monkeypatch.setattr(core, "MAX_SAMPLES", 13)
        schedule = KickSchedule(kicks, 1.0, 8.0)  # 9 grid points + 4 kick records
        assert [step[0] for step in schedule_steps(schedule)].count("sample") == 13
        with pytest.raises(ValueError, match=r"schedule would take 14 samples; at most 13"):
            KickSchedule(kicks, 1.0, 9.0)


#: every public entry that takes kick times or strengths, once per place it reads one;
#: ``tests/test_api.py`` holds every public signature with ``g``, ``g_values`` or ``kicks`` to it
REAL_NUMBER_ENTRIES = {
    "KickSchedule": (
        lambda x: KickSchedule(((x, 1.0),), 1.0),
        lambda x: KickSchedule(((0.5, x),), 1.0),
    ),
    "sweep": (lambda x: engine.sweep((x,), (3,), total_time=1.0),),
    "survival_function": (
        lambda x: analytics.survival_function(((x, 1.0),)),
        lambda x: analytics.survival_function(((0.5, x),)),
    ),
    "final_state": (
        lambda x: engine.final_state(((x, 1.0),), 1.0, RESONANT),
        lambda x: engine.final_state(((0.5, x),), 1.0, RESONANT),
    ),
    "oracle.kick": (lambda x: oracle.kick(oracle.initial_state(1), 0, x),),
    "apply_kick": (lambda x: apply_kick(ReducedState(), x),),
    "run_equally_spaced": (lambda x: engine.run_equally_spaced(3, x, total_time=1.0),),
    "rate_after_one_kick": (lambda x: analytics.rate_after_one_kick(0.3, x),),
    "rate_after_n_kicks": (lambda x: analytics.rate_after_n_kicks(0.3, x, 2),),
    "zeno_loss": (lambda x: analytics.zeno_loss(4, x, 1.0),),
}

#: each value refused as a real number, a kick value among them, with the one message
#: that refuses it
REFUSED_VALUES = {
    "str": ("0.5", "must be real numbers, got '0.5'"),
    "bytes": (b"0.5", "must be real numbers, got b'0.5'"),
    "nan": (math.nan, "must be finite, got nan"),
    "inf": (math.inf, "must be finite, got inf"),
    "-inf": (-math.inf, "must be finite, got -inf"),
    "10**400": (10**400, "must be finite, got a number past the float range"),
}


@pytest.mark.parametrize("value", list(REFUSED_VALUES))
@pytest.mark.parametrize("entry", list(REAL_NUMBER_ENTRIES))
def test_kick_times_and_strengths_must_be_real_numbers(entry, value):
    # float() read strings and bytes: KickSchedule((('0.5', '1'),), 1.0).kicks was
    # ((0.5, 1.0),).  apply_kick raised TypeError on '0.5', the rate functions
    # returned NaN at a NaN strength, and the rest refused NaN in five wordings.
    value, message = REFUSED_VALUES[value]
    for build in REAL_NUMBER_ENTRIES[entry]:
        with pytest.raises(ValueError, match=re.escape(f"kick times and strengths {message}")):
            build(value)


#: a valid ``oracle-check`` config, one trial of one kick
SMALL_CHECK = cli.ScenarioConfig(
    "oracle-check", total_time=1.0, n_list=(1,), trials=1, resolution=10
)

#: every public entry that takes a count, as (the count's name in the messages, a call
#: with one count) pairs, once per count it reads; ``tests/test_api.py`` holds every
#: public signature with ``n``, ``n_values``, ``n_choices``, ``trials`` or ``resolution``
#: to it.  ``ScenarioConfig`` rows hand each value to the scenario file's key parsers
#: as a file writes it, ``repr(value)``; ``cli.ScenarioConfig`` rows build a config in
#: Python, which reads its counts when it is built.
COUNT_ENTRIES = {
    "sweep": (("kick counts", lambda n: engine.sweep((1.0,), (n,), total_time=1.0)),),
    "run_equally_spaced": (
        ("kick counts", lambda n: engine.run_equally_spaced(n, 1.0, total_time=1.0)),
    ),
    "rate_after_n_kicks": (("kick counts", lambda n: analytics.rate_after_n_kicks(0.3, 1.0, n)),),
    "zeno_loss": (("kick counts", lambda n: analytics.zeno_loss(n, 1.0, 1.0)),),
    # the check takes a config, which refuses the count before the check can be called
    "oracle_engine_deviation": (
        ("trials", lambda n: cli.oracle_engine_deviation(replace(SMALL_CHECK, trials=n))),
        ("kick counts", lambda n: cli.oracle_engine_deviation(replace(SMALL_CHECK, n_list=(n,)))),
        ("resolution", lambda n: cli.oracle_engine_deviation(replace(SMALL_CHECK, resolution=n))),
    ),
    "ScenarioConfig": (
        ("resolution", lambda n: cli._KEYS["resolution"][1](repr(n))),
        ("trials", lambda n: cli._KEYS["trials"][1](repr(n))),
        ("seed", lambda n: cli._KEYS["seed"][1](repr(n))),
        ("kick counts", lambda n: cli._KEYS["N_list"][1](f"{n!r}..3")),
        ("kick counts", lambda n: cli._KEYS["N_list"][1](f"0..{n!r}")),
    ),
    "cli.ScenarioConfig": (
        ("resolution", lambda n: cli.ScenarioConfig("run", total_time=1.0, resolution=n)),
        ("trials", lambda n: cli.ScenarioConfig("oracle-check", total_time=1.0, trials=n)),
        ("seed", lambda n: cli.ScenarioConfig("oracle-check", total_time=1.0, seed=n)),
        (
            "kick counts",
            lambda n: cli.ScenarioConfig("sweep", total_time=1.0, g_list=(1.0,), n_list=(n,)),
        ),
    ),
}

#: each value refused as a count, with the one message that refuses it; ``{}`` is the
#: value as the reader was handed it
REFUSED_COUNTS = {
    "float": (2.7, "must be integers, got {!r}"),
    "str": ("3", "must be integers, got {!r}"),
    "negative": (-1, "must be >= 0, got {}"),
    "2**63": (2**63, f"must be <= {2**63 - 1}, got {{}}"),
}


@pytest.mark.parametrize("value", list(REFUSED_COUNTS))
@pytest.mark.parametrize("entry", list(COUNT_ENTRIES))
def test_counts_must_be_integers_in_range(entry, value):
    # zeno_loss(2.5, 1.0, 1.0) returned 1.34, resolution = 10.5 ran, and
    # rate_after_n_kicks(0.5, 1.0, 2.0) and trials = 2.0 raised TypeError; a
    # negative count was refused in three wordings, or not at all.
    value, message = REFUSED_COUNTS[value]
    handed = repr(value) if entry == "ScenarioConfig" else value
    for name, build in COUNT_ENTRIES[entry]:
        with pytest.raises(ValueError, match=f"^{re.escape(f'{name} {message}'.format(handed))}$"):
            build(value)


#: every public entry that takes a real number other than a kick value, as (the value's
#: name in the messages, a call with one value) pairs, once per value it reads;
#: ``tests/test_api.py`` holds every public signature with a time, a step, a duration,
#: an energy or a sampling rate to it.  Each is refused with ``REFUSED_VALUES``' messages.
REAL_ENTRIES = {
    "SystemParams": (
        ("coupling", lambda x: SystemParams(coupling=x)),
        ("eps_a", lambda x: SystemParams(eps_a=x)),
        ("eps_b", lambda x: SystemParams(eps_b=x)),
    ),
    "KickSchedule": (
        ("total_time", lambda x: KickSchedule((), x)),
        ("sample_resolution", lambda x: KickSchedule((), 1.0, x)),
    ),
    "free_propagate": (("dt", lambda x: free_propagate(ReducedState(), x, RESONANT)),),
    "block_minus_identity": (("dt", lambda x: block_minus_identity(x, RESONANT)),),
    "oracle.free_step": (
        ("dt", lambda x: oracle.free_step(oracle.initial_state(1), x, RESONANT)),
    ),
    "final_state": (("total_time", lambda x: engine.final_state((), x, RESONANT)),),
    "sweep": (
        ("the duration", lambda x: engine.sweep((1.0,), (3,), total_time=x)),
        ("the duration", lambda x: engine.sweep((1.0,), (3,), interval=x)),
    ),
    "run_equally_spaced": (
        ("the duration", lambda x: engine.run_equally_spaced(3, 1.0, total_time=x)),
        ("the duration", lambda x: engine.run_equally_spaced(3, 1.0, interval=x)),
    ),
    "rate_free": (("t", lambda x: analytics.rate_free(x)),),
    "rate_after_one_kick": (("t_m", lambda x: analytics.rate_after_one_kick(x, 1.0)),),
    "rate_super_zeno": (
        ("t_m", lambda x: analytics.rate_super_zeno(x, 0.3)),
        ("t", lambda x: analytics.rate_super_zeno(0.5, x)),
    ),
    "rate_after_n_kicks": (("t1", lambda x: analytics.rate_after_n_kicks(x, 1.0, 2)),),
    "zeno_loss": (("total_time", lambda x: analytics.zeno_loss(10, 1.0, x)),),
    # the evaluation time of a curve; a kick makes it compare t with a kick time
    "survival_function": (
        ("total_time", lambda x: analytics.survival_function(((0.5, 1.0),))(x)),
    ),
    "finite_difference_rate": (
        ("t", lambda x: analytics.finite_difference_rate(math.cos, x)),
        ("step", lambda x: analytics.finite_difference_rate(math.cos, 0.5, step=x)),
    ),
    "ScenarioConfig": (
        ("coupling", lambda x: cli.ScenarioConfig("rates", coupling=x)),
        ("eps_a", lambda x: cli.ScenarioConfig("rates", eps_a=x)),
        ("eps_b", lambda x: cli.ScenarioConfig("rates", eps_b=x)),
        ("total_time", lambda x: cli.ScenarioConfig("run", total_time=x)),
        (
            "interval",
            lambda x: cli.ScenarioConfig(
                "sweep", g_list=(1.0,), n_list=(1,), mode="interval", interval=x
            ),
        ),
    ),
    "oracle_engine_deviation": (
        (
            "total_time",
            lambda x: cli.oracle_engine_deviation(replace(SMALL_CHECK, total_time=x)),
        ),
    ),
}


@pytest.mark.parametrize("value", list(REFUSED_VALUES))
@pytest.mark.parametrize("entry", list(REAL_ENTRIES))
def test_real_numbers_must_be_finite_reals(entry, value):
    # KickSchedule((), '1.0') and SystemParams('1') raised TypeError,
    # rate_free(nan) returned nan, zeno_loss(10, 1.0, inf) returned inf, and
    # block_minus_identity('0.1', ...) returned a block.
    value, message = REFUSED_VALUES[value]
    for name, build in REAL_ENTRIES[entry]:
        with pytest.raises(ValueError, match=f"^{re.escape(f'{name} {message}')}$"):
            build(value)


#: omega * 1e300 overflows a float
FAST = SystemParams(coupling=1e10)
#: (eps_a + eps_b) * 1.2e8 overflows, half of it and omega * 1.2e8 do not: only the
#: dense |1,1> phase turns by the full sum
HIGH = SystemParams(coupling=1.0, eps_a=1e300, eps_b=1e300)
#: (eps_a - eps_b) * 1.5 overflows, omega * 1.5 and the sum do not: only the sweep's
#: block, with the survivor's energy shifted out, turns by the full difference
APART = SystemParams(coupling=1.0, eps_a=0.6e308, eps_b=-0.6e308)

#: every public entry that takes a free step, with a step that overflows and its cause
OVERFLOW_ENTRIES = {
    "sweep-total_time": (
        lambda: engine.sweep((1.0,), (3,), total_time=1e300, params=FAST), "omega * dt"
    ),
    "sweep-interval": (lambda: engine.sweep((1.0,), (3,), interval=1e300, params=FAST), "omega * dt"),
    "sweep-kick-free": (
        lambda: engine.sweep((1.0, -0.0), (1, 10**9), interval=1e290, params=FAST), "omega * dt"
    ),
    "engine.run_schedule": (
        lambda: engine.run_schedule(KickSchedule(((1.0, 1.0),), 1e300, 0.0), FAST), "omega * dt"
    ),
    "oracle.run_schedule": (
        lambda: oracle.run_schedule(KickSchedule(((1.0, 1.0),), 1e300, 0.0), FAST), "omega * dt"
    ),
    "final_state": (lambda: engine.final_state((), 1e300, FAST), "omega * total_time"),
    "final_state-numpy": (
        lambda: engine.final_state((), np.float64(1e300), FAST), "omega * total_time"
    ),
    "survival_function": (
        lambda: analytics.survival_function(((1e300, 1.0),), FAST), "omega * kick times"
    ),
    "free_propagate": (lambda: free_propagate(ReducedState(), 1e300, FAST), "omega * dt"),
    "oracle.free_step": (
        lambda: oracle.free_step(oracle.initial_state(1), 1e300, FAST), "omega * dt"
    ),
    "block_minus_identity": (
        lambda: block_minus_identity(np.array([0.0, 1e300]), FAST), "omega * dt"
    ),
    "engine.run_schedule-sum": (
        lambda: engine.run_schedule(KickSchedule(((1.0, 1.0),), 1.2e8, 0.0), HIGH),
        "(eps_a + eps_b) * dt",
    ),
    "oracle.run_schedule-sum": (
        lambda: oracle.run_schedule(KickSchedule(((1.0, 1.0),), 1.2e8, 0.0), HIGH),
        "(eps_a + eps_b) * dt",
    ),
    "final_state-sum": (
        lambda: engine.final_state(((1.0, 1.0),), 1.2e8, HIGH), "(eps_a + eps_b) * total_time"
    ),
    "oracle.free_step-sum": (
        lambda: oracle.free_step(oracle.initial_state(1), 1.2e8, HIGH), "(eps_a + eps_b) * dt"
    ),
    "sweep-sum": (
        lambda: engine.sweep((1.0,), (1,), interval=1.2e8, params=HIGH), "(eps_a + eps_b) * dt"
    ),
    "sweep-difference": (
        lambda: engine.sweep((1.0,), (1,), total_time=1.5, params=APART), "(eps_a - eps_b) * dt"
    ),
}


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("entry", list(OVERFLOW_ENTRIES))
def test_a_free_step_that_overflows_is_refused(entry):
    # Each warned of an overflow, raised "math domain error", or ran on: the
    # rule lived only in the CLI's parse-time size check.
    run, cause = OVERFLOW_ENTRIES[entry]
    with pytest.raises(ValueError, match=re.escape(f"{cause} overflows (")):
        run()


def test_numpy_scalars_read_as_the_floats_they_hold():
    t, g = np.float64(0.5), np.int64(1)
    assert KickSchedule(((t, g),), 1.0).kicks == ((0.5, 1.0),)
    assert all(type(x) is float for x in KickSchedule(((t, g),), 1.0).kicks[0])
    cells = engine.sweep((np.float64(0.7), np.int64(2)), (3,), total_time=1.0)
    assert cells.tobytes() == engine.sweep((0.7, 2.0), (3,), total_time=1.0).tobytes()
    numpy_p10 = analytics.survival_function(((t, g),))(0.7)
    assert numpy_p10.hex() == analytics.survival_function(((0.5, 1.0),))(0.7).hex()


class TestScheduleSteps:
    def advance_total(self, steps):
        return sum(s[1] for s in steps if s[0] == "advance")

    def test_plain_grid(self):
        steps = schedule_steps(KickSchedule((), 1.0, sample_resolution=4.0))
        assert [s[0] for s in steps].count("sample") == 5
        assert self.advance_total(steps) == pytest.approx(1.0, abs=1e-15)

    def test_kick_gets_pre_and_post_records(self):
        steps = schedule_steps(KickSchedule(((0.3, 1.0),), 1.0, sample_resolution=0.0))
        kinds = [s[0] for s in steps]
        i = kinds.index("kick")
        assert steps[i - 1] == ("sample", 0.3) and steps[i + 1] == ("sample", 0.3)

    def test_kick_on_grid_point_is_not_sampled_three_times(self):
        steps = schedule_steps(KickSchedule(((0.5, 1.0),), 1.0, sample_resolution=2.0))
        at_half = [s for s in steps if s[0] == "sample" and s[1] == 0.5]
        assert len(at_half) == 2

    def test_kick_at_zero_and_at_end(self):
        steps = schedule_steps(KickSchedule(((0.0, 1.0), (1.0, 2.0)), 1.0, sample_resolution=1.0))
        assert steps[0] == ("sample", 0.0)
        assert steps[1] == ("kick", 0, 1.0)
        assert steps[-1] == ("sample", 1.0)
        assert steps[-2] == ("kick", 1, 2.0)
        assert self.advance_total(steps) == pytest.approx(1.0, abs=1e-15)


SAMPLE_BLOCK_CASES = [
    *(
        pytest.param(sampler_schedule(case, seed), id=f"{case}-{seed}")
        for case, seed in SAMPLER_CASES
    ),
    pytest.param(KickSchedule((), 0.0), id="T=0"),
    pytest.param(KickSchedule(((0.0, 1.0),), 0.0), id="T=0-kick"),
    pytest.param(KickSchedule(((0.0, 1.0), (1.0, 2.0)), 1.0, 4.0), id="kicks-at-0-and-T"),
    pytest.param(KickSchedule(((-0.0, 1.0),), 1.0, 4.0), id="kick-at-minus-0"),
    pytest.param(
        KickSchedule(((0.0, 1.0), (0.5, 2.0), (1.0, 3.0)), 1.0, 0.0), id="no-grid-0-and-T"
    ),
]


def batch_around(schedule, seed):
    """``schedule`` between two others with its kick count, sample grid and strengths."""
    rng = np.random.default_rng(seed)
    n, total_time = len(schedule.kicks), schedule.total_time
    strengths = [g for _, g in schedule.kicks]

    def other():
        times = np.sort(rng.uniform(0.0, total_time, n)) if total_time > 0 else np.zeros(n)
        return KickSchedule(tuple(zip(times, strengths)), total_time, schedule.sample_resolution)

    return [other(), schedule, other()]


@pytest.mark.parametrize("schedule", SAMPLE_BLOCK_CASES)
def test_sample_blocks_follow_the_step_list(schedule):
    batch = batch_around(schedule, 7)
    t, anchor, u, offsets = _sample_layout(batch, RESONANT)
    assert offsets[0] == 0 and offsets[-1] == len(t) == len(anchor) == u.shape[2]
    for trial, member in enumerate(batch):
        samples, anchors, kicks = [], [], 0
        for step in schedule_steps(member):
            if step[0] == "kick":
                kicks += 1
            elif step[0] == "sample":
                samples.append(step[1])
                anchors.append(kicks)
        own = slice(offsets[trial], offsets[trial + 1])
        assert t[own].tobytes() == np.array(samples).tobytes()
        first = trial * (len(member.kicks) + 1)
        np.testing.assert_array_equal(anchor[own] - first, anchors)
        anchor_t = np.array([0.0, *(t_kick for t_kick, _ in member.kicks)])
        for i in range(own.start, own.stop):
            block = single_excitation_block(t[i] - anchor_t[anchor[i] - first], RESONANT)
            np.testing.assert_allclose(u[:, :, i], block, rtol=0, atol=1e-15)


GRID_40 = KickSchedule((), 1.0, 40.0).sample_grid()
LAYOUT_BATCHES = {
    # Grid-coincident kicks in some trials and not in others, kicks at 0,
    # at -0.0 and at T, among trials with none of these.
    "mixed-hits": (
        ((GRID_40[7], 0.3, GRID_40[20]), 1.0, 40.0),
        ((0.11, 0.5, 0.77), 1.0, 40.0),
        ((0.0, GRID_40[8], 1.0), 1.0, 40.0),
        ((-0.0, 0.4, 1.0), 1.0, 40.0),
        ((0.01, 0.02, 0.03), 1.0, 40.0),
    ),
    "resolution-0": (
        ((0.0, 0.5), 2.0, 0.0),
        ((0.3, 2.0), 2.0, 0.0),
        ((-0.0, 1.1), 2.0, 0.0),
    ),
    "T=0": (((0.0,), 0.0, 40.0), ((-0.0,), 0.0, 40.0), ((0.0,), 0.0, 40.0)),
    "T=0-n=0": (((), 0.0, 0.0), ((), 0.0, 0.0)),
    "n=0": (((), 1.0, 40.0), ((), 1.0, 40.0), ((), 1.0, 40.0)),
}


@pytest.mark.parametrize(
    "params", [RESONANT, SystemParams(1.3, 0.4, -0.2)], ids=["resonant", "detuned"]
)
@pytest.mark.parametrize("batch", list(LAYOUT_BATCHES.values()), ids=list(LAYOUT_BATCHES))
def test_each_trial_of_a_batch_is_laid_out_as_alone(batch, params):
    schedules = [
        KickSchedule(tuple((t, 1.0 + k) for k, t in enumerate(times)), total_time, resolution)
        for times, total_time, resolution in batch
    ]
    t, anchor, u, offsets = _sample_layout(schedules, params)
    for trial, schedule in enumerate(schedules):
        alone_t, alone_anchor, alone_u, (start, stop) = _sample_layout([schedule], params)
        own = slice(offsets[trial], offsets[trial + 1])
        assert own.stop - own.start == stop - start == len(alone_t)
        assert t[own].tobytes() == alone_t.tobytes()
        first = trial * (len(schedule.kicks) + 1)
        assert (anchor[own] - first).tobytes() == alone_anchor.tobytes()
        assert np.ascontiguousarray(u[:, :, own]).tobytes() == alone_u.tobytes()


def test_a_layout_refuses_a_mixed_batch():
    one = KickSchedule(((0.5, 1.0),), 1.0, 40.0)
    for other in (
        KickSchedule((), 1.0, 40.0),
        KickSchedule(((0.5, 1.0),), 2.0, 40.0),
        KickSchedule(((0.5, 1.0),), 1.0, 20.0),
    ):
        with pytest.raises(ValueError, match="one kick count and one sample grid"):
            _sample_layout([one, other], RESONANT)


class TestStateAndTrajectoryValidation:
    def test_reduced_state_rejects_negative_vacuum(self):
        with pytest.raises(ValueError):
            ReducedState(1.0, 0.0, -1e-6)

    @pytest.mark.parametrize(
        "fields",
        [
            (complex(math.nan, 0), 0j, 0.0),
            (1 + 0j, complex(0, math.inf), 0.0),
            (1 + 0j, 0j, math.nan),
        ],
        ids=["a", "b", "v"],
    )
    def test_reduced_state_rejects_a_field_that_is_not_finite(self, fields):
        with pytest.raises(ValueError, match="ReducedState fields must be finite"):
            ReducedState(*fields)

    @pytest.mark.parametrize("lengths", [(0, 0, 0, 0, 0), (3, 3, 2, 3, 3), (3, 3, 3, 3, 4)],
                             ids=["empty", "short-p01", "long-norm"])
    def test_trajectory_columns_must_be_non_empty_and_equally_long(self, lengths):
        with pytest.raises(ValueError, match="trajectory arrays must be non-empty and equally long"):
            Trajectory(*(np.zeros(n) for n in lengths))

    def test_trajectory_rejects_norm_drift(self):
        t = np.array([0.0, 1.0])
        good = np.array([1.0, 1.0])
        with pytest.raises(ValueError):
            Trajectory(t, good, 0 * good, 0 * good, np.array([1.0, 1.0 + 1e-8]))

    def test_population_guard_bounds(self):
        one, zero = np.array([1.0]), np.array([0.0])
        check_populations(one + 1e-13, zero, zero, one + 5e-11)
        with pytest.raises(ValueError, match="populations"):
            check_populations(one + 1e-11, zero, zero, one)
        with pytest.raises(ValueError, match="populations"):
            check_populations(one, zero, zero - 1e-11, one)
        with pytest.raises(ValueError, match="drifted"):
            check_populations(one, zero, zero, one + 2e-10)

    @pytest.mark.parametrize("shape", ["scalar", "array"])
    @pytest.mark.parametrize("slot", range(4))
    def test_population_guard_rejects_nan(self, shape, slot):
        args = [1.0, 0.0, 0.0, 1.0]
        args[slot] = math.nan
        if shape == "array":
            args = [np.array([x, x]) for x in args]
        with pytest.raises(ValueError):
            check_populations(*args)

    def test_the_time_rule_holds_inside_each_trial(self):
        t = np.array([0.0, 0.5, 0.5, 1.0, 0.0, 1.0, 0.0])
        populations = (np.ones(7), np.zeros(7), np.zeros(7), np.ones(7))
        _check_samples((t, *populations), [0, 4, 6, 7])  # resets at trial starts
        for offsets in ([0, 7], [0, 4, 7], [0, 6, 7]):
            with pytest.raises(ValueError, match="sample times must be non-decreasing"):
                _check_samples((t, *populations), offsets)
        inside = t.copy()
        inside[2] = 0.4
        with pytest.raises(ValueError, match="sample times must be non-decreasing"):
            _check_samples((inside, *populations), [0, 4, 6, 7])
        # A Trajectory is a one-run batch: it refuses the same columns with the same message.
        bad_values = [(0, 0.4), (0, math.nan), (1, math.nan), (2, -1e-9), (3, 1.5), (4, 1 + 1e-9)]
        for column, value in bad_values:
            one_run = [np.array(c[:4]) for c in (t, *populations)]
            one_run[column][2] = value
            with pytest.raises(ValueError) as alone:
                Trajectory(*one_run)
            with pytest.raises(ValueError) as batch:
                _check_samples(tuple(one_run), [0, 4])
            assert str(batch.value) == str(alone.value), (column, value)

    def test_trajectory_rejects_a_nan_time(self):
        t = np.array([0.0, math.nan, 1.0])
        one = np.ones(3)
        with pytest.raises(ValueError, match="non-decreasing"):
            Trajectory(t, one, 0 * one, 0 * one, one)

    def test_trajectory_rejects_time_reversal(self):
        t = np.array([0.0, -0.5])
        one = np.array([1.0, 1.0])
        with pytest.raises(ValueError):
            Trajectory(t, one, 0 * one, 0 * one, one)

    def test_trajectory_final_sample(self):
        t = np.array([0.0, 0.5])
        traj = Trajectory(t, np.array([1.0, 0.8]), np.array([0.0, 0.2]),
                          np.zeros(2), np.ones(2))
        final = (traj.t[-1], traj.p10[-1], traj.p01[-1], traj.pvac[-1], traj.norm[-1])
        assert final == (0.5, 0.8, 0.2, 0.0, 1.0)
        assert len(traj) == 2
