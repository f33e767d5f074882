"""Tests of the dense full-space path, including its own independent oracles."""

import math

import numpy as np
import pytest
from scipy.linalg import expm

from zenokick import engine, oracle
from zenokick.core import CapacityError, KickSchedule, SystemParams

RESONANT = SystemParams()


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
        assert oracle.initial_state(n).norm() == 1.0

    @pytest.mark.parametrize("n", [-1, 21, 100])
    def test_capacity_guard(self, n):
        with pytest.raises(CapacityError):
            oracle.initial_state(n)


class TestFreeStep:
    def test_zero_time_is_identity(self):
        state = random_full_state(2, seed=1)
        out = oracle.free_step(state, 0.0, RESONANT)
        np.testing.assert_array_equal(out.amps, state.amps)

    def test_survival_follows_cosine_law(self):
        state = oracle.initial_state(0)
        for dt in (0.1, 0.7, 1.9):
            p10, _, _ = oracle.free_step(state, dt, RESONANT).populations()
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
        assert abs(out.norm() - 1.0) < 1e-13


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
            assert abs(out.norm() - 1.0) < 1e-13

    def test_matches_exponential_of_generator(self):
        # Independent oracle: expm(-i g Gamma) applied as a dense matrix.
        n_probes, probe_index, g = 2, 1, 0.77
        gamma = dense_exchange_matrix(n_probes, probe_index)
        state = random_full_state(n_probes, seed=11)
        expected = expm(-1j * g * gamma) @ state.amps
        out = oracle.kick(state, probe_index, g)
        np.testing.assert_allclose(out.amps, expected, atol=1e-13)

    def test_probe_index_out_of_range(self):
        state = oracle.initial_state(2)
        with pytest.raises(IndexError):
            oracle.kick(state, 2, 1.0)
        with pytest.raises(IndexError):
            oracle.kick(state, -1, 1.0)


class TestRunSchedule:
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
        from zenokick.core import schedule_steps

        for step in schedule_steps(schedule):
            if step[0] == "advance":
                state = oracle.free_step(state, step[1], RESONANT)
            elif step[0] == "kick":
                state = oracle.kick(state, step[1], step[2])
        psi = state.amps.reshape(-1, 4)
        assert np.all(psi[1:, 1:] == 0)  # rows with any probe excited, system not in |0,0>

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
