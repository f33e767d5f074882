"""Acceptance suite: one test per exit criterion, each at its pinned tolerance.

Every test prints a single ``[acceptance] ... PASS|FAIL`` line (visible with
``pytest -s`` or on failure) before asserting, so a full run doubles as a
scoreboard.  Criterion 7 is asserted exactly as pinned for all three kick
strengths; the weakest one (g = pi/4) does not satisfy the 0.99 threshold at
run length pi/2 (measured 0.9861, limited by
1 - P10 ~ (cT)^2 (1 + cos g) / ((1 - cos g) N)) and that case is expected to
stay red.  The same threshold does hold at run length pi/4, which
``test_engine`` covers.
"""

import math
import time

import numpy as np
import pytest

from zenokick import analytics, cli, engine
from zenokick.core import KickSchedule, SystemParams

RESONANT = SystemParams()


def report(name: str, ok: bool, detail: str = "") -> None:
    line = f"[acceptance] {name}: {'PASS' if ok else 'FAIL'}"
    if detail:
        line += f" ({detail})"
    print(line)
    assert ok, line


def test_c01_reduced_path_equals_dense_path():
    start = time.monotonic()
    max_dev = cli.oracle_engine_deviation(
        trials=200, n_choices=tuple(range(11)), total_time=1.0,
        resolution=100, seed=2024, params=RESONANT,
    )
    elapsed = time.monotonic() - start
    ok = max_dev <= 1e-10 and elapsed < 30.0
    report(
        "criterion 1: oracle equivalence over 200 random schedules",
        ok, f"max_dev={max_dev:.3e}, trials=200, {elapsed:.1f}s",
    )


def test_c02_free_evolution_law():
    worst = 0.0
    points = 0
    for coupling, span in ((1.0, 2.0), (1.7, 1.5)):
        params = SystemParams(coupling=coupling)
        schedule = KickSchedule((), span, sample_resolution=1000.0 / span)
        traj = engine.run_schedule(schedule, params)
        assert len(traj) == 1001
        points += len(traj)
        worst = max(worst, float(np.max(np.abs(traj.p10 - np.cos(coupling * traj.t) ** 2))))
    ok = worst <= 1e-12 and points >= 1000
    report("criterion 2: kick-free survival follows cos^2", ok,
           f"max_dev={worst:.3e} over {points} samples")


def test_c03_rate_formulas_match_finite_differences():
    bare = analytics.survival_function((), RESONANT)
    worst_free = max(
        abs(analytics.rate_free(float(t)) - analytics.finite_difference_rate(bare, float(t), "central"))
        for t in np.linspace(0.0, math.pi, 51)[1:]
    )
    worst_kick = 0.0
    for t_m in np.linspace(0.1, 1.0, 10):
        for g in np.linspace(0.0, 2.0 * math.pi, 17):
            t_m, g = float(t_m), float(g)
            kicked = analytics.survival_function(((t_m, g),), RESONANT)
            numeric = analytics.finite_difference_rate(kicked, t_m, "right")
            worst_kick = max(worst_kick, abs(analytics.rate_after_one_kick(t_m, g) - numeric))
    ok = worst_free <= 1e-8 and worst_kick <= 1e-4
    report("criterion 3: free and post-kick rates", ok,
           f"central_err={worst_free:.3e}<=1e-8, one_sided_err={worst_kick:.3e}<=1e-4")


def test_c04_complete_measurement_nulls_the_rate():
    worst = 0.0
    for t_m in (0.2, 0.5, 0.9, 1.3):
        kicked = analytics.survival_function(((t_m, math.pi / 2),), RESONANT)
        worst = max(worst, abs(analytics.finite_difference_rate(kicked, t_m, "right")))
    ok = worst <= 1e-4
    report("criterion 4: rate is null right after a complete measurement", ok,
           f"max |rate|={worst:.3e}")


def test_c05_mirror_kick_parity_identities():
    worst_even = 0.0
    worst_odd = 0.0
    for tau in (0.37, 0.8):
        for n in range(1, 16):
            p10, _, _ = engine.run_equally_spaced(n, math.pi, interval=tau)
            if n % 2 == 0:
                worst_even = max(worst_even, abs(p10 - 1.0))
            else:
                worst_odd = max(worst_odd, abs(p10 - math.cos(tau) ** 2))
    for n in (100, 199):
        p10, _, _ = engine.run_equally_spaced(n, math.pi, total_time=math.pi / 2)
        tau = math.pi / 2 / n
        if n % 2 == 0:
            worst_even = max(worst_even, abs(p10 - 1.0))
        else:
            worst_odd = max(worst_odd, abs(p10 - math.cos(tau) ** 2))
    ok = worst_even <= 1e-12 and worst_odd <= 1e-12
    report("criterion 5: mirror-kick sequences depend only on parity", ok,
           f"even_err={worst_even:.3e}, odd_err={worst_odd:.3e}")


def test_c06_mirror_kick_echo():
    t_m = 0.5
    schedule = KickSchedule(((t_m, math.pi),), 2 * t_m, sample_resolution=100.0)
    traj = engine.run_schedule(schedule, RESONANT)
    echo_ok = abs(traj.p10[-1] - 1.0) <= 1e-12

    kicked = analytics.survival_function(((t_m, math.pi),), RESONANT)
    before = analytics.finite_difference_rate(kicked, t_m + 0.2, "central")
    after = analytics.finite_difference_rate(kicked, t_m + 0.8, "central")
    sign_ok = (
        before > 0.0
        and after < 0.0
        and abs(before - analytics.rate_super_zeno(t_m, 0.2)) < 1e-8
        and abs(after - analytics.rate_super_zeno(t_m, 0.8)) < 1e-8
    )
    ok = echo_ok and sign_ok
    report("criterion 6: echo returns to 1 and the rate flips sign at t_m", ok,
           f"p10(2 t_m)={traj.p10[-1]:.15f}, rate(+0.2)={before:.4f}, rate(+0.8)={after:.4f}")


@pytest.mark.parametrize("g", [math.pi / 4, math.pi / 2, 3 * math.pi / 4])
def test_c07_zeno_limit_with_incomplete_kicks(g):
    # Pinned exactly as stated: run length pi/2, coupling 1.  The g = pi/4
    # case is a known red: its true survival at N = 1024 is ~0.9861, bounded
    # away from 0.99 by the 1/N convergence law quoted in the module docstring.
    survival = {
        n: engine.run_equally_spaced(n, g, total_time=math.pi / 2)[0]
        for n in (2**5, 2**7, 2**10)
    }
    losses = [1.0 - survival[n] for n in (2**5, 2**7, 2**10)]
    decreasing = losses[0] > losses[1] > losses[2]
    ok = survival[1024] > 0.99 and decreasing
    report(f"criterion 7: Zeno limit at g={g:.4f}", ok,
           f"p10(N=1024)={survival[1024]:.6f}, losses={losses[0]:.4f}>{losses[1]:.4f}>{losses[2]:.4f}")


def test_c08_figure_orderings():
    # Single mid-run kick: every kicked curve sits on or above the bare one
    # past the kick, with strict improvement somewhere.
    t_m, span = 0.5, 1.0
    curves = {}
    for g in (0.0, math.pi / 4, math.pi / 2, 3 * math.pi / 4, math.pi):
        kicks = () if g == 0.0 else ((t_m, g),)
        traj = engine.run_schedule(KickSchedule(kicks, span, 200.0), RESONANT)
        curves[g] = (traj.t, traj.p10)
    t0, base = curves[0.0]
    past = t0 > t_m
    fig1_ok = True
    for g, (t, p10) in curves.items():
        if g == 0.0:
            continue
        tail = p10[t > t_m]
        fig1_ok &= bool(np.all(tail >= base[past] - 1e-12))
        fig1_ok &= bool(np.max(tail - base[past]) > 1e-3)

    counts = tuple(range(1, 61))
    spec2 = engine.SweepSpec(g_values=(math.pi / 2, math.pi), n_values=counts, total_time=math.pi / 2)
    rows2 = engine.sweep(spec2)
    complete = {r.n: r.p10 for r in rows2 if r.g == math.pi / 2}
    mirror = {r.n: r.p10 for r in rows2 if r.g == math.pi}
    fig2_ok = all(mirror[n] >= complete[n] - 1e-12 for n in counts)
    fig2_ok &= all(abs(mirror[n] - 1.0) <= 1e-12 for n in counts if n % 2 == 0)
    fig2_ok &= all(mirror[n] < 1.0 - 1e-5 for n in counts if n % 2 == 1)

    spec4 = engine.SweepSpec(
        g_values=(math.pi / 4, math.pi / 2, 3 * math.pi / 4), n_values=counts, total_time=math.pi / 2
    )
    rows4 = engine.sweep(spec4)
    weak = [r.p10 for r in rows4 if r.g == math.pi / 4]
    comp = [r.p10 for r in rows4 if r.g == math.pi / 2]
    strong = [r.p10 for r in rows4 if r.g == 3 * math.pi / 4]
    fig4_ok = all(s >= c - 1e-12 and c >= w - 1e-12 for w, c, s in zip(weak, comp, strong))

    ok = fig1_ok and fig2_ok and fig4_ok
    report("criterion 8: figure orderings", ok,
           f"single_kick={fig1_ok}, mirror_vs_complete={fig2_ok}, three_strengths={fig4_ok}")


def test_c09_geometric_rate_scaling_is_exact():
    ok = True
    for t1 in (0.2, 0.5, 1.1):
        for g in (0.3, math.pi / 4, 2.0, 3.0):
            cg = math.cos(g)
            for n in range(8):
                ok &= analytics.rate_after_n_kicks(t1, g, n + 1) == (
                    analytics.rate_after_n_kicks(t1, g, n) * cg
                )
    report("criterion 9: burst rate is exactly geometric in the kick count", ok)


def test_c10_preset_runs_are_byte_identical(tmp_path):
    matches = []
    for preset, pattern in (("fig2", "fig2*.csv"), ("fig1", "fig1*.csv")):
        for repeat in ("first", "second"):
            workdir = tmp_path / f"{preset}_{repeat}"
            workdir.mkdir()
            out = workdir / f"{preset}.csv"
            assert cli.main(["--preset", preset, "--out", str(out)]) == 0
        first_dir = tmp_path / f"{preset}_first"
        second_dir = tmp_path / f"{preset}_second"
        firsts = sorted(first_dir.glob(pattern))
        seconds = sorted(second_dir.glob(pattern))
        matches.append(
            len(firsts) > 0
            and len(firsts) == len(seconds)
            and all(a.read_bytes() == b.read_bytes() for a, b in zip(firsts, seconds))
        )
    ok = all(matches)
    report("criterion 10: repeated preset runs are byte-identical", ok,
           f"fig2={matches[0]}, fig1={matches[1]}")
