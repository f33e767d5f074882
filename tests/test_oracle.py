"""Tests of the dense full-space path, including its own independent oracles."""

import cmath
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from reference import norm, populations, single_excitation_block
from scipy.linalg import expm

from zenokick import engine, oracle
from zenokick.core import (
    CapacityError,
    KickSchedule,
    SystemParams,
    _sample_layout,
    schedule_steps,
)

RESONANT = SystemParams()
DETUNED = SystemParams(coupling=1.3, eps_a=0.4, eps_b=-0.2)


def random_full_state(n_probes, seed):
    rng = np.random.default_rng(seed)
    dim = 4 * 2**n_probes
    amps = rng.normal(size=dim) + 1j * rng.normal(size=dim)
    return oracle.FullState(amps / np.linalg.norm(amps), n_probes)


def dense_exchange_matrix(n_probes, probe_index):
    """The kick generator as an explicit matrix: swap block on the paired states."""
    dim = 4 * 2**n_probes
    gamma = np.zeros((dim, dim), dtype=complex)
    for m in range(2**n_probes):
        if (m >> probe_index) & 1:
            continue
        m_excited = m | (1 << probe_index)
        for a_bit in (0, 1):
            i = (m << 2) | (a_bit << 1) | 1
            j = (m_excited << 2) | (a_bit << 1) | 0
            gamma[i, j] = gamma[j, i] = 1.0
    return gamma


@st.composite
def sampled_schedules(draw):
    """Up to 8 kicks over T in [0.2, 3] at 40 samples per unit time.

    Kicks land at 0, at T, on grid points or anywhere in between, with
    strengths that include 0, pi and -0.0.
    """
    total_time = draw(st.floats(0.2, 3.0))
    grid = KickSchedule((), total_time, 40.0).sample_grid().tolist()
    time = st.one_of(
        st.sampled_from((0.0, total_time)), st.sampled_from(grid), st.floats(0.0, total_time)
    )
    strength = st.one_of(
        st.sampled_from((0.0, math.pi, -0.0)), st.floats(-2 * math.pi, 2 * math.pi)
    )
    times = sorted(set(draw(st.lists(time, max_size=8))))
    return KickSchedule(tuple((t, draw(strength)) for t in times), total_time, 40.0)


class TestInitialState:
    def test_no_probes_vector(self):
        state = oracle.initial_state(0)
        np.testing.assert_array_equal(state.amps, np.array([0, 0, 1, 0], dtype=complex))

    def test_two_probes_index(self):
        state = oracle.initial_state(2)
        assert state.amps.shape == (16,)
        assert state.amps[2] == 1.0
        assert np.count_nonzero(state.amps) == 1

    @pytest.mark.parametrize("n", range(7))
    def test_unit_norm(self, n):
        assert norm(oracle.initial_state(n)) == 1.0

    @pytest.mark.parametrize("n", [-1, 21, 100])
    def test_capacity_guard(self, n):
        with pytest.raises(CapacityError):
            oracle.initial_state(n)


@pytest.mark.parametrize(
    "size, n_probes, error",
    [(4, -1, CapacityError), (4, 21, CapacityError), (5, 0, ValueError), (4, 1, ValueError)],
    ids=["negative", "past-capacity", "odd-size", "too-few"],
)
def test_a_full_state_refuses_a_bad_size(size, n_probes, error):
    with pytest.raises(error):
        oracle.FullState(np.zeros(size, dtype=complex), n_probes)


class TestFreeStep:
    def test_zero_time_is_identity(self):
        state = random_full_state(2, seed=1)
        out = oracle.free_step(state, 0.0, RESONANT)
        np.testing.assert_array_equal(out.amps, state.amps)

    def test_survival_follows_cosine_law(self):
        state = oracle.initial_state(0)
        for dt in (0.1, 0.7, 1.9):
            p10, _, _ = populations(oracle.free_step(state, dt, RESONANT))
            assert p10 == pytest.approx(math.cos(dt) ** 2, abs=1e-14)

    def test_matches_dense_exponential_when_detuned(self):
        # Full-model oracle: build H on the 16-dim space (2 probes), including
        # detuning, and exponentiate it.  Probes have no free Hamiltonian.
        params = SystemParams(coupling=0.8, eps_a=0.5, eps_b=-0.3)
        n_probes, dt = 2, 0.73
        dim = 4 * 2**n_probes
        h = np.zeros((dim, dim), dtype=complex)
        for idx in range(dim):
            a_bit, b_bit = (idx >> 1) & 1, idx & 1
            h[idx, idx] = params.eps_a * a_bit + params.eps_b * b_bit
        for probes in range(2**n_probes):
            i10 = (probes << 2) | 2
            i01 = (probes << 2) | 1
            h[i10, i01] = h[i01, i10] = params.coupling
        state = random_full_state(n_probes, seed=3)
        expected = expm(-1j * h * dt) @ state.amps
        out = oracle.free_step(state, dt, params)
        np.testing.assert_allclose(out.amps, expected, atol=1e-12)

    def test_norm_preserved_on_random_state(self):
        state = random_full_state(3, seed=5)
        out = oracle.free_step(state, 0.37, SystemParams(eps_a=0.4, eps_b=0.1))
        assert abs(norm(out) - 1.0) < 1e-13


class TestKick:
    def test_zero_strength_is_identity(self):
        state = random_full_state(2, seed=9)
        out = oracle.kick(state, 1, 0.0)
        np.testing.assert_array_equal(out.amps, state.amps)

    def test_single_interaction_amplitudes(self):
        alpha, beta = math.cos(0.4), math.sin(0.4)
        g = 1.1
        state = oracle.initial_state(1)
        amps = np.zeros(8, dtype=complex)
        amps[2] = alpha       # |1,0> probe ground
        amps[1] = -1j * beta  # |0,1> probe ground
        state = oracle.FullState(amps, 1)
        out = oracle.kick(state, 0, g)
        assert out.amps[2] == alpha                                  # survivor untouched
        assert out.amps[1] == pytest.approx(-1j * beta * math.cos(g), abs=1e-15)
        leaked = (1 << 2) | 0                                        # |0,0> probe excited
        assert out.amps[leaked] == pytest.approx(-beta * math.sin(g), abs=1e-15)

    def test_unitary_on_random_states(self):
        for seed, g in ((1, 0.3), (2, 2.0), (3, 4.4)):
            state = random_full_state(3, seed=seed)
            out = oracle.kick(state, 2, g)
            assert abs(norm(out) - 1.0) < 1e-13

    @pytest.mark.parametrize("probe_index", range(3))
    def test_matches_exponential_of_generator(self, probe_index):
        # Independent oracle: expm(-i g Gamma) applied as a dense matrix.  The
        # first and the last probe are the edge cases of the kick's slicing.
        n_probes, g = 3, 0.77
        gamma = dense_exchange_matrix(n_probes, probe_index)
        state = random_full_state(n_probes, seed=11)
        expected = expm(-1j * g * gamma) @ state.amps
        out = oracle.kick(state, probe_index, g)
        np.testing.assert_allclose(out.amps, expected, atol=1e-13)

    @pytest.mark.parametrize("g", [math.nan, math.inf], ids=["nan", "inf"])
    def test_non_finite_strength_rejected(self, g):
        with pytest.raises(ValueError, match=f"kick times and strengths must be finite, got {g}"):
            oracle.kick(oracle.initial_state(1), 0, g)

    def test_probe_index_out_of_range(self):
        state = oracle.initial_state(2)
        with pytest.raises(IndexError):
            oracle.kick(state, 2, 1.0)
        with pytest.raises(IndexError):
            oracle.kick(state, -1, 1.0)


class TestBitForBit:
    """The in-place kernels give exactly the plain out-of-place expressions."""

    @pytest.mark.parametrize("n_probes", range(4))
    def test_free_step(self, n_probes):
        state = random_full_state(n_probes, seed=40 + n_probes)
        for params in (RESONANT, DETUNED):
            for dt in (0.0, 1e-9, 0.013, 0.73, 5.0):
                u = single_excitation_block(dt, params)
                psi = state.amps.reshape(-1, 4).copy()
                x10, x01 = psi[:, 2].copy(), psi[:, 1].copy()
                psi[:, 2] = u[0, 0] * x10 + u[0, 1] * x01
                psi[:, 1] = u[1, 0] * x10 + u[1, 1] * x01
                psi[:, 3] *= cmath.exp(-1j * (params.eps_a + params.eps_b) * dt)
                out = oracle.free_step(state, dt, params)
                np.testing.assert_array_equal(out.amps, psi.reshape(-1))

    @pytest.mark.parametrize("n_probes", range(1, 5))
    def test_kick(self, n_probes):
        state = random_full_state(n_probes, seed=50 + n_probes)
        m = np.arange(2**n_probes)
        for probe_index in range(n_probes):
            rows0 = m[(m >> probe_index) & 1 == 0]
            rows1 = rows0 | (1 << probe_index)
            for g in (0.0, 0.3, 1.1, math.pi, 4.4, -7.0):
                cg, sg = math.cos(g), math.sin(g)
                psi = state.amps.reshape(-1, 4).copy()
                for col_b1, col_b0 in ((1, 0), (3, 2)):
                    x = psi[rows0, col_b1].copy()
                    y = psi[rows1, col_b0].copy()
                    psi[rows0, col_b1] = cg * x - 1j * sg * y
                    psi[rows1, col_b0] = cg * y - 1j * sg * x
                out = oracle.kick(state, probe_index, g)
                np.testing.assert_array_equal(out.amps, psi.reshape(-1))

    @pytest.mark.parametrize("width", range(1, 6))
    def test_fresh_kick(self, width):
        # A run kicks probe k while every amplitude with probe bit k set is
        # still zero; there the two-pass kernel gives the full rotation's values.
        rng = np.random.default_rng(70 + width)
        strengths = (0.0, math.pi, -1.3, 0.7, -math.pi, 4.4, -7.0)
        constants = np.array([(math.cos(g), 1j * math.sin(g)) for g in strengths]).T
        cg, isg = constants[:, :, None, None, None]
        shape = (len(strengths), 4, 2**width)
        for k in range(width):
            phi = rng.normal(size=shape) + 1j * rng.normal(size=shape)
            phi.reshape(*shape[:2], -1, 2, 2**k)[..., 1, :] = 0
            expected = phi.copy()
            x, y = oracle._kick_pairs(expected, k)
            x[...], y[...] = cg * x - isg * y, cg * y - isg * x
            oracle._fresh_kick_in_place(phi, k, cg, -isg)
            np.testing.assert_array_equal(phi, expected)


class TestInputUnchanged:
    def test_kick_leaves_its_input_unchanged(self):
        state = random_full_state(3, seed=13)
        before = state.amps.copy()
        for probe_index in range(3):
            oracle.kick(state, probe_index, 1.2)
        np.testing.assert_array_equal(state.amps, before)
        assert not state.amps.flags.writeable

    def test_free_step_leaves_its_input_unchanged(self):
        state = random_full_state(3, seed=17)
        before = state.amps.copy()
        oracle.free_step(state, 0.61, DETUNED)
        np.testing.assert_array_equal(state.amps, before)
        assert not state.amps.flags.writeable


def public_fold(schedule, params):
    """run_schedule rebuilt from the public free_step and kick.

    The state right after the latest kick is the anchor: a kick applies one
    free step from it to the kick instant, and each sample one from it to
    the sample's time.  Each sample is read with ``reference.populations``
    and ``reference.norm``, plain |amps|^2 sums that share no code with the
    kernel ``run_schedule`` reads its anchors with.
    """
    state, t_anchor = oracle.initial_state(len(schedule.kicks)), 0.0
    t, rows = [], []
    for step in schedule_steps(schedule):
        if step[0] == "kick":
            state = oracle.free_step(state, t[-1] - t_anchor, params)
            state, t_anchor = oracle.kick(state, step[1], step[2]), t[-1]
        elif step[0] == "sample":
            sample = oracle.free_step(state, step[1] - t_anchor, params)
            t.append(step[1])
            rows.append((*populations(sample), norm(sample) ** 2))
    return np.array(t), np.array(rows)


#: kicks on probes 0 to 11, from t = 0 to T = 1.3, with g = 0 and g = pi among them
TWELVE_KICKS = tuple(
    (float(t), g)
    for t, g in zip(
        np.linspace(0.0, 1.3, 12),
        (0.4, 0.0, 2.2, math.pi, 1.1, 0.7, 3.0, 0.25, math.pi / 2, 5.1, 1.6, 2.9),
    )
)


class TestRunSchedule:
    @pytest.mark.parametrize("params", [RESONANT, DETUNED], ids=["resonant", "detuned"])
    @pytest.mark.parametrize(
        "kicks",
        [
            (),
            ((0.0, 0.0), (0.4, 1.1), (0.9, 2.5), (1.3, math.pi)),
            ((0.0, math.pi), (0.25, 0.7), (0.5, 4.0), (0.75, 1.9), (1.3, 0.0)),
            ((0.65, math.pi / 2),),
            TWELVE_KICKS,
        ],
        ids=["no-kicks", "g0-at-start-pi-at-end", "pi-at-start-g0-at-end", "one-kick", "12-kicks"],
    )
    def test_equals_the_public_step_fold(self, kicks, params):
        # Kick k uses probe k, so the first and last kicks hit probes 0 and n-1.
        schedule = KickSchedule(kicks, 1.3, 20.0)
        traj = oracle.run_schedule(schedule, params)
        t, rows = public_fold(schedule, params)
        np.testing.assert_array_equal(traj.t, t)
        for column, attr in enumerate(("p10", "p01", "pvac", "norm")):
            assert np.max(np.abs(getattr(traj, attr) - rows[:, column])) <= 1e-15

    @pytest.mark.parametrize("coupling", [1.0, 1.3])
    @pytest.mark.parametrize("n_samples", [1001, 10001])
    def test_kick_free_run_follows_the_free_law_at_every_sample(self, n_samples, coupling):
        # Each sample is one step from t = 0, so rounding does not grow with
        # the sample count; a step-by-step fold drifts by 2e-14 to 8e-13 here.
        total_time = 10.0
        schedule = KickSchedule((), total_time, (n_samples - 1) / total_time)
        traj = oracle.run_schedule(schedule, SystemParams(coupling=coupling))
        assert len(traj) == n_samples
        ct = coupling * traj.t
        assert np.max(np.abs(traj.p10 - np.cos(ct) ** 2)) <= 1e-14
        assert np.max(np.abs(traj.p01 - np.sin(ct) ** 2)) <= 1e-14

    def test_quarter_period_without_kicks(self):
        traj = oracle.run_schedule(KickSchedule((), math.pi / 2, 10.0), RESONANT)
        assert traj.p10[-1] < 1e-12

    def test_two_mirror_kicks_restore_the_state(self):
        tau = 0.37
        schedule = KickSchedule(((tau, math.pi), (2 * tau, math.pi)), 2 * tau, 10.0)
        traj = oracle.run_schedule(schedule, RESONANT)
        assert traj.p10[-1] == pytest.approx(1.0, abs=1e-12)
        assert traj.pvac[-1] < 1e-30

    def test_capacity_guard(self):
        times = np.linspace(0.01, 0.99, 21)
        schedule = KickSchedule(tuple((float(t), 1.0) for t in times), 1.0, 0.0)
        with pytest.raises(CapacityError):
            oracle.run_schedule(schedule, RESONANT)
        with pytest.raises(CapacityError):
            run_batches([KickSchedule((), 1.0, 0.0), schedule], RESONANT)

    def test_norm_stays_one(self):
        rng = np.random.default_rng(23)
        times = np.sort(rng.uniform(0.0, 2.0, 6))
        gs = rng.uniform(0.0, 2 * math.pi, 6)
        schedule = KickSchedule(tuple(zip(times, gs)), 2.0, 50.0)
        traj = oracle.run_schedule(schedule, SystemParams(eps_a=0.3, eps_b=0.1))
        assert np.max(np.abs(traj.norm - 1.0)) < 1e-10

    def test_excited_probe_never_coexists_with_system_excitation(self):
        rng = np.random.default_rng(29)
        times = np.sort(rng.uniform(0.0, 1.5, 5))
        gs = rng.uniform(0.0, 2 * math.pi, 5)
        schedule = KickSchedule(tuple(zip(times, gs)), 1.5, 0.0)
        state = oracle.initial_state(len(schedule.kicks))
        for step in schedule_steps(schedule):
            if step[0] == "advance":
                state = oracle.free_step(state, step[1], RESONANT)
            elif step[0] == "kick":
                state = oracle.kick(state, step[1], step[2])
        psi = state.amps.reshape(-1, 4)
        assert np.all(psi[1:, 1:] == 0)  # rows with any probe excited, system not in |0,0>

    def test_uses_no_blas(self, monkeypatch):
        # OpenBLAS can stall for milliseconds starting its threads, so a dense
        # run reads its anchors without any BLAS dot, alone or in a batch.
        schedule = KickSchedule(TWELVE_KICKS, 1.3, 20.0)
        t, rows = public_fold(schedule, DETUNED)
        others = [KickSchedule(TWELVE_KICKS[:k], 1.3, 20.0) for k in (12, 11, 3)]

        def no_blas(*args, **kwargs):
            raise AssertionError("dense run called a BLAS dot")

        for name in ("vdot", "dot", "inner"):
            monkeypatch.setattr(np, name, no_blas)
        traj = oracle.run_schedule(schedule, DETUNED)
        alone = (traj.t, traj.p10, traj.p01, traj.pvac, traj.norm)
        batched = run_batches([others[0], schedule, *others[1:]], DETUNED)[1]
        for columns in (alone, batched):
            np.testing.assert_array_equal(columns[0], t)
            for column in range(4):
                assert np.max(np.abs(columns[column + 1] - rows[:, column])) <= 1e-15

    def test_matches_reduced_engine_at_capacity(self):
        # The widest run the dense path accepts, held to criterion 1's bound.
        rng = np.random.default_rng(37)
        times = np.sort(rng.uniform(0.0, 1.0, oracle.MAX_PROBES))
        gs = rng.uniform(0.0, math.pi, oracle.MAX_PROBES)
        schedule = KickSchedule(tuple(zip(times, gs)), 1.0, 40.0)
        dense = oracle.run_schedule(schedule, DETUNED)
        reduced = engine.run_schedule(schedule, DETUNED)
        np.testing.assert_array_equal(dense.t, reduced.t)
        for attr in ("p10", "p01", "pvac"):
            assert np.max(np.abs(getattr(dense, attr) - getattr(reduced, attr))) <= 1e-10

    def test_matches_reduced_engine_pointwise(self):
        rng = np.random.default_rng(31)
        for _ in range(25):
            n = int(rng.integers(0, 7))
            while True:
                times = np.sort(rng.uniform(0.0, 1.0, n))
                if n == 0 or np.all(np.diff(times) > 0):
                    break
            gs = rng.uniform(0.0, 2 * math.pi, n)
            schedule = KickSchedule(tuple(zip(times, gs)), 1.0, 40.0)
            params = SystemParams(coupling=1.0, eps_a=0.2, eps_b=-0.3)
            dense = oracle.run_schedule(schedule, params)
            reduced = engine.run_schedule(schedule, params)
            np.testing.assert_array_equal(dense.t, reduced.t)
            for attr in ("p10", "p01", "pvac"):
                dev = np.max(np.abs(getattr(dense, attr) - getattr(reduced, attr)))
                assert dev <= 1e-10

    @settings(derandomize=True, database=None, deadline=None)
    @given(
        st.builds(SystemParams, st.floats(0.2, 3.0), st.floats(-1.0, 1.0), st.floats(-1.0, 1.0)),
        sampled_schedules(),
    )
    def test_matches_reduced_engine_on_drawn_runs(self, params, schedule):
        dense = oracle.run_schedule(schedule, params)
        reduced = engine.run_schedule(schedule, params)
        np.testing.assert_array_equal(dense.t, reduced.t)
        for attr in ("p10", "p01", "pvac"):
            assert np.max(np.abs(getattr(dense, attr) - getattr(reduced, attr))) <= 1e-10


class TestLivePrefix:
    """What run_schedule's live column prefix rests on."""

    @pytest.mark.parametrize("params", [RESONANT, DETUNED], ids=["resonant", "detuned"])
    def test_probes_not_yet_kicked_hold_no_amplitude(self, params):
        # Folded with the full-width public steps: before kick k, every
        # amplitude with a probe bit at or above k is exactly zero.
        rng = np.random.default_rng(41)
        for trial in range(40):
            n = int(rng.integers(1, 9))
            total_time = float(rng.uniform(0.2, 2.0))
            times = np.sort(rng.uniform(0.0, total_time, n))
            if trial % 2 == 0:
                times[0] = 0.0
            if trial % 3 == 0:
                times[-1] = total_time
            gs = rng.uniform(0.0, 2 * math.pi, n)
            gs[rng.integers(n)] = 0.0
            gs[rng.integers(n)] = math.pi
            state, now = oracle.initial_state(n), 0.0
            for k, (t, g) in enumerate(zip(times, gs)):
                state, now = oracle.free_step(state, t - now, params), t
                assert np.all(state.amps.reshape(-1, 4)[2**k :] == 0), (trial, k)
                state = oracle.kick(state, k, g)

    @pytest.mark.parametrize("width", range(6))
    def test_kernels_on_a_prefix_view_write_through(self, width):
        # A column prefix keeps the parent's row stride; the kernels must
        # step it in place exactly as they step a contiguous copy of it.
        # Three trials, each with its own constants, as _run_batch steps them.
        rng = np.random.default_rng(43 + width)
        shape = (3, 4, 2**5)
        phi = rng.normal(size=shape) + 1j * rng.normal(size=shape)
        scratch = np.empty(phi.size // 2, dtype=np.complex128)
        steps = []
        for p in (RESONANT, DETUNED):
            constants = [oracle._free_constants(dt, p) for dt in (0.37, 0.0, 1.9)]
            columns = np.array(constants).T[:, :, None]
            steps.append(lambda a, c=columns: oracle._free_step_in_place(a, c, scratch))
        kicks = np.array([(math.cos(g), -1j * math.sin(g)) for g in (1.1, 0, 4)]).T
        cg, misg = kicks[:, :, None, None, None]
        for k in range(width):
            steps.append(lambda a, k=k: oracle._fresh_kick_in_place(a, k, cg, misg))
        for step in steps:
            before = phi.copy()
            expected = phi[:, :, : 2**width].copy()
            step(expected)
            step(phi[:, :, : 2**width])
            np.testing.assert_array_equal(phi[:, :, : 2**width], expected)
            np.testing.assert_array_equal(phi[:, :, 2**width :], before[:, :, 2**width :])


def run_batches(schedules, params):
    """Each schedule's columns ``(t, p10, p01, pvac, norm)``, run in batches as the check runs them.

    The schedules are grouped by kick count and sample grid, each group is
    one batch with one ``_sample_layout``, and ``oracle._run_batch`` steps
    it; trial r's columns are the batch's columns at
    ``offsets[r]:offsets[r + 1]``.  A trial's bits do not depend on the
    batch it runs in, so any grouping that ``_sample_layout`` accepts would do.
    """
    groups = {}
    for i, schedule in enumerate(schedules):
        key = (len(schedule.kicks), schedule.total_time, schedule.sample_resolution)
        groups.setdefault(key, []).append(i)
    runs = [None] * len(schedules)
    for batch in groups.values():
        members = [schedules[i] for i in batch]
        layout = _sample_layout(members, params)
        columns = oracle._run_batch(members, params, layout)
        offsets = layout[-1]
        for i, lo, hi in zip(batch, offsets, offsets[1:]):
            runs[i] = tuple(column[lo:hi] for column in columns)
    return runs


def trajectory_bytes(traj):
    return [getattr(traj, attr).tobytes() for attr in ("t", "p10", "p01", "pvac", "norm")]


def random_schedules(rng, count, max_kicks, total_time=1.3):
    """Schedules of 0 to ``max_kicks`` kicks, with kicks at 0 and T and g = 0 and pi among them."""
    schedules = []
    for i in range(count):
        n = int(rng.integers(0, max_kicks + 1))
        times = np.sort(rng.uniform(0.0, total_time, n))
        if n and i % 3 == 0:
            times[0] = 0.0
        if n and i % 4 == 1:
            times[-1] = total_time
        gs = rng.uniform(0.0, 2 * math.pi, n)
        if n > 1:
            gs[int(rng.integers(n))] = (0.0, math.pi)[i % 2]
        resolution = (0.0, 20.0, 200.0)[i % 3]
        schedules.append(KickSchedule(tuple(zip(times, gs)), total_time, resolution))
    return schedules


class TestRunSchedules:
    """Schedules stepped together, in the check's batches, give what one run each gives."""

    @pytest.mark.parametrize(
        "params",
        [RESONANT, DETUNED, SystemParams(coupling=0.7, eps_a=-0.9, eps_b=0.35)],
        ids=["resonant", "detuned", "detuned-weak"],
    )
    def test_equals_one_run_per_schedule_in_input_order(self, params):
        rng = np.random.default_rng(61)
        schedules = random_schedules(rng, 60, 12)
        schedules += [KickSchedule(TWELVE_KICKS[:k], 1.3, 20.0) for k in (12, 0, 5)]
        counts = {len(s.kicks) for s in schedules}
        assert counts == set(range(13))
        for schedule, columns in zip(schedules, run_batches(schedules, params), strict=True):
            alone = oracle.run_schedule(schedule, params)
            assert [column.tobytes() for column in columns] == trajectory_bytes(alone)

    def test_a_group_larger_than_one_batch(self, monkeypatch):
        # 17 probes are 2**19 amplitudes a trial: three trials make a batch of
        # two and one of one.
        n = 17
        assert 4 * 2**n * 2 == oracle.BATCH_AMPLITUDES
        rng = np.random.default_rng(67)
        schedules = []
        for _ in range(3):
            times = np.sort(rng.uniform(0.0, 1.0, n))
            gs = rng.uniform(0.0, math.pi, n)
            schedules.append(KickSchedule(tuple(zip(times, gs)), 1.0, 20.0))
        schedules.insert(1, KickSchedule(((0.5, 1.0),), 1.0, 20.0))
        run_batch, batches = oracle._run_batch, []

        def recorded(members, params, layout):
            columns = run_batch(members, params, layout)
            batches.append((members, columns, layout[-1]))
            return columns

        monkeypatch.setattr(oracle, "_run_batch", recorded)
        assert oracle._max_deviation(schedules, DETUNED) <= 1e-10
        monkeypatch.undo()  # the runs alone below step unrecorded
        expected = [[schedules[0], schedules[2]], [schedules[3]], [schedules[1]]]
        assert [members for members, _, _ in batches] == expected
        for members, columns, offsets in batches:
            for schedule, lo, hi in zip(members, offsets, offsets[1:]):
                alone = oracle.run_schedule(schedule, DETUNED)
                assert [column[lo:hi].tobytes() for column in columns] == trajectory_bytes(alone)

    def test_no_schedules(self):
        assert oracle._max_deviation([], RESONANT) == 0.0
