"""End-to-end acceptance suite.

Each test covers one numbered claim about the competing-disease dynamics and
writes a single PASS/FAIL line (with wall time) straight to the terminal, so
the run doubles as a checklist.  Reference values marked "pinned" were frozen
from an independent plain-Python bisection oracle before this implementation
existed and act as regression constants.
"""

import contextlib
import time

import numpy as np
import pytest

from treespread import (
    ScalarMapSpec,
    SimConfig,
    SimulationError,
    asymptotic_multiplier,
    basin_classify,
    check_orbit_conditions,
    critical_points,
    dominant_profile,
    find_fixed_point,
    find_orbit,
    iterate,
    make_offspring,
    simulate_root,
    step_full,
    step_variant,
    uniform_profile,
    x_tilde,
    zary,
    zary_map,
)
from treespread.dynamics import stepper

FIG_FE = make_offspring([(3, 1 / 3), (6, 1 / 3), (10, 1 / 3)])

# pinned oracle constants (z=6, k=2 and the z=12 period-4 cycle)
XBAR_6_2 = 0.2075774364546849
MULT_6_2 = -1.0536354141534723
ORBIT_6_2 = (0.15908679055012037, 0.25312424456452587)
ORBIT_6_2_MULT = 0.7865648045545469
XHAT_6_2 = 0.1146128657885334
XHAT_RIGHT_6_2 = 0.2988064579737847
CYCLE4_12_2 = (
    0.026846019049052955,
    0.061328243087658,
    0.20571291244539,
    0.2599259649923288,
)


RESULTS: list[str] = []  # one line per criterion, echoed by the conftest summary hook


@contextlib.contextmanager
def criterion(num, desc):
    t0 = time.perf_counter()
    try:
        yield
    except BaseException:
        RESULTS.append(f"[criterion {num:2d}] FAIL  {desc}")
        raise
    dt = time.perf_counter() - t0
    RESULTS.append(f"[criterion {num:2d}] PASS  {desc}  ({dt:.2f}s)")


def test_01_binary_tree_closed_form():
    with criterion(1, "binary tree converges to 1/(2k-1) per disease, k=2..6"):
        for k in range(2, 7):
            traj = iterate(stepper(zary(2)), uniform_profile(k), tol=1e-12)
            assert traj.stop_reason == "converged"
            assert traj.iterations <= 100_000
            target = 1.0 / (2 * k - 1)
            for i in range(k):
                assert abs(traj.final[i] - target) <= 1e-9
            assert abs(traj.final[k] - (k - 1) * target) <= 1e-9


def test_02_single_dominant_disease_wins():
    with criterion(2, "strictly dominant disease spreads to the root a.s."):
        for dist in (zary(2), FIG_FE):
            traj = iterate(stepper(dist), np.array([0.5, 0.2, 0.3]))
            assert traj.final[0] >= 1.0 - 1e-6


def test_03_framing_property():
    with criterion(3, "x_tilde(z,k) < x_bar < x_tilde(z,k-1) and the defining identity, z=2..12 k=2..100"):
        for z in range(2, 13):
            for k in range(2, 101):
                xt = x_tilde(z, k)
                assert abs(z * (1 - k * xt) ** (z - 1) - 1.0) <= 1e-12
                rep = find_fixed_point(zary_map(z, k))
                assert xt < rep.x_bar < x_tilde(z, k - 1)


def test_04_classification_matrix():
    with criterion(4, "attracting for z=3..5, repelling for z=6 (k=2..50); multiplier limits"):
        for z in (3, 4, 5):
            for k in range(2, 51):
                rep = find_fixed_point(zary_map(z, k))
                assert rep.classification == "attracting"
                assert -1.0 < rep.multiplier < 1.0
        for k in range(2, 51):
            rep = find_fixed_point(zary_map(6, k))
            assert rep.classification == "repelling"
            assert rep.multiplier < -1.0
        for z in range(2, 6):
            assert -1.0 < asymptotic_multiplier(z) < 1.0
        for z in range(6, 13):
            assert asymptotic_multiplier(z) < -1.0


def test_05_period2_orbit_z6():
    with criterion(5, "stable period-2 orbit at (z,k)=(6,2) with pinned oracle values"):
        spec = zary_map(6, 2)
        orbit = find_orbit(spec, 2)
        assert orbit is not None and orbit.period == 2
        x_left, x_right = orbit.points
        x_bar = find_fixed_point(spec).x_bar
        assert XHAT_6_2 < x_left < x_bar < x_right < XHAT_RIGHT_6_2
        from treespread import scalar_eval

        assert abs(scalar_eval(spec, x_left) - x_right) <= 1e-10
        assert abs(scalar_eval(spec, x_right) - x_left) <= 1e-10
        assert 0.0 <= orbit.multiplier < 1.0 and orbit.stable
        assert check_orbit_conditions(6, 2) == (True, True, True)
        # regression against the independent oracle
        assert abs(x_left - ORBIT_6_2[0]) <= 1e-10
        assert abs(x_right - ORBIT_6_2[1]) <= 1e-10
        assert abs(orbit.multiplier - ORBIT_6_2_MULT) <= 1e-8
        assert abs(x_bar - XBAR_6_2) <= 1e-12


def test_06_basin_sweep():
    with criterion(6, "10^4 random starts in (0,1/2] almost all reach the period-2 orbit"):
        spec = zary_map(6, 2)
        orbit = find_orbit(spec, 2)
        rng = np.random.default_rng(2024)
        starts = (0.5 - rng.random(10_000) * 0.5).tolist()  # uniform in (0, 0.5]
        report = basin_classify(spec, starts, orbit=orbit)
        frac_orbit = report.fractions["orbit_left"] + report.fractions["orbit_right"]
        assert frac_orbit >= 0.999
        at_fixed = basin_classify(spec, [find_fixed_point(spec).x_bar], orbit=orbit)
        assert at_fixed.verdicts == ["fixed_point"]


def test_07_nonuniform_spectrum_and_convergence():
    from treespread import nonuniform_spectrum

    with criterion(7, "dominant-block spectrum in (-1,1) and full-vector convergence, z=3..5"):
        k = 6
        for z in (3, 4, 5):
            for i in (2, 3):
                for lam in nonuniform_spectrum(z, k, i):
                    assert -1.0 < lam < 1.0
                x_bar = find_fixed_point(zary_map(z, i)).x_bar
                target = [x_bar] * i + [0.0] * (k - i) + [1.0 - i * x_bar]
                traj = iterate(stepper(zary(z)), dominant_profile(k, i), tol=1e-12)
                for got, want in zip(traj.final, target):
                    assert abs(got - want) <= 1e-8


def _assert_4sigma(res, analytic):
    for emp, se, ana in zip(res.masses, res.stderr, analytic):
        # analytic sigma as a floor: empirical counts of 0 or n give se = 0
        se_ana = (ana * (1 - ana) / res.trials) ** 0.5
        assert abs(emp - ana) <= 4 * max(se, se_ana, 1e-12)


def test_08_monte_carlo_vs_recursion():
    with criterion(8, "MC root distribution within 4 sigma of the analytic recursion"):
        # height-1: the sharpest oracle for the combine rule
        profile = (1 / 3, 1 / 3, 1 / 3)
        res = simulate_root(SimConfig(zary(2), profile, height=1, trials=1_000_000, seed=1))
        _assert_4sigma(res, step_full(zary(2), profile))

        # height-15 on the binary tree
        res = simulate_root(SimConfig(zary(2), profile, height=15, trials=100_000, seed=7))
        analytic = np.asarray(profile)
        for _ in range(15):
            analytic = step_full(zary(2), analytic)
        _assert_4sigma(res, analytic)

        # height-6 on the three-atom GW law
        profile = (0.5, 0.2, 0.3)
        res = simulate_root(SimConfig(FIG_FE, profile, height=6, trials=5_000, seed=13))
        analytic = np.asarray(profile)
        for _ in range(6):
            analytic = step_full(FIG_FE, analytic)
        _assert_4sigma(res, analytic)

        # budget guard refuses infeasible node counts
        with pytest.raises(SimulationError):
            simulate_root(SimConfig(FIG_FE, profile, height=12, trials=100))


def test_09_variant_closed_forms():
    with criterion(9, "retention-variant fixed profiles and dominant-disease limits"):
        # alpha=3/4 on the binary tree fixes ((2a-1)/(4a-1), (2a-1)/(4a-1), rest)
        p = np.array([0.25, 0.25, 0.5])
        out = step_variant(zary(2), p, 0.75)
        assert np.max(np.abs(out - p)) <= 1e-12

        # alpha=1/2 on the binary tree converges to (p1-p2, 0, 1-p1+p2)
        traj = iterate(stepper(zary(2), 0.5), np.array([0.5, 0.2, 0.3]), tol=1e-12)
        for got, want in zip(traj.final, (0.3, 0.0, 0.7)):
            assert abs(got - want) <= 1e-8

        # alpha above 1/E[N] with strict dominance drives p1 to 1
        traj = iterate(stepper(zary(3), 0.5), np.array([0.4, 0.3, 0.3]))
        assert traj.final[0] >= 1.0 - 1e-6


def test_10_monotone_ratio_invariant():
    with criterion(10, "dominated/dominant mass ratio is non-increasing along 100 random trajectories"):
        rng = np.random.default_rng(12345)
        for _ in range(100):
            n_atoms = int(rng.integers(1, 6))
            zs = rng.choice(np.arange(2, 13), size=n_atoms, replace=False)
            ws = rng.random(n_atoms) + 0.05
            dist = make_offspring([(int(z), w) for z, w in zip(zs, ws / ws.sum())])
            k = int(rng.integers(2, 4))
            masses = np.sort(rng.random(k) + 0.01)[::-1]
            masses[0] += 0.1  # strict dominance of disease 1
            sane = rng.random() + 0.05
            p = np.concatenate([masses, [sane]])
            p /= p.sum()
            for _ in range(50):
                q = step_full(dist, p)
                for j in range(1, k):
                    assert q[j] / q[0] <= p[j] / p[0] + 1e-12
                p = q


def test_11_period4_observation():
    with criterion(11, "(z,k)=(12,2): stable period-4 cycle (best effort) and failed orbit condition 2"):
        c1, c2, c3 = check_orbit_conditions(12, 2)
        assert c2 is False
        orbit = find_orbit(zary_map(12, 2), 4)
        if orbit is None:
            # numerical-evidence claim only; absence is reported, not fatal
            RESULTS.append("[criterion 11] note: no period-4 orbit located")
            return
        assert orbit.period == 4 and orbit.stable
        for got, want in zip(orbit.points, CYCLE4_12_2):
            assert abs(got - want) <= 1e-9
