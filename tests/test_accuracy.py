"""The evaluation core against exact arithmetic.

Every value of the scalar map, its derivatives, the fixed-point function h and one step of the
recursion under both rules is compared with the same formula evaluated exactly at the same doubles
(tests/reference.py).  One bound holds for all of them: EXACT_BOUND, 32 units of roundoff, of the sum
of the magnitudes of the terms the value adds.  A difference G(a) - G(b) formed by subtracting two
values of G fails it, since its error is about eps * G(a) while the difference is about G'(a) x with
x <= 1/k.
"""

import itertools
import warnings
from fractions import Fraction as F

import numpy as np
import pytest

from reference import Dyadic, exact_map, exact_pgf, exact_step, within_bound
from treespread import (ScalarMapSpec, dominant_profile, make_offspring, scalar_deriv, scalar_eval, step_full,
                        step_variant, zary)
from treespread.analysis import _h, find_fixed_point

LAWS = {
    "zary:2": zary(2),
    "zary:3": zary(3),
    "zary:6": zary(6),
    "zary:12": zary(12),
    "zary:10000": zary(10_000),
    "three-atom": make_offspring([(3, 1 / 3), (6, 1 / 3), (10, 1 / 3)]),
    "gw-2-5-40": make_offspring([(2, 0.5), (5, 0.3), (40, 0.2)]),
}
KS = [1, 2, 100, 10**4, 10**6]


def _points(k: int, x_bar: float) -> list[float]:
    """x = 0, x = 1/k (where a - x is 0 up to a rounding), the fixed point and points between."""
    return [0.0, 1.0 / k, x_bar] + [t / k for t in (1e-3, 0.1, 0.5, 0.9, 1.0 - 2.0**-20)]


def _profiles(k: int, x_bar: float) -> list[np.ndarray]:
    """Uniform at the fixed point, one dominant disease, sane mass 0, and sane mass 0 with a = 0 entries."""
    uniform, sane_zero, a_zero = np.full(k + 1, x_bar), np.full(k + 1, 1.0 / k), np.zeros(k + 1)
    uniform[-1], sane_zero[-1], a_zero[0] = 1.0 - k * x_bar, 0.0, 1.0
    profiles = [uniform, a_zero]
    return profiles + [np.array(dominant_profile(k, 1).masses), sane_zero] if k >= 2 else profiles


@pytest.mark.parametrize("k", KS)
@pytest.mark.parametrize("law", LAWS)
def test_core_within_the_exact_bound(law, k):
    dist = LAWS[law]
    spec = ScalarMapSpec(dist, k)
    x_bar = find_fixed_point(spec).x_bar
    for x in _points(k, x_bar):
        want = [exact_map(dist, k, x, order) for order in (0, 1, 2)]
        got = [scalar_eval(spec, x), scalar_deriv(spec, x, 1), scalar_deriv(spec, x, 2)]
        for order in (0, 1, 2):
            assert within_bound(got[order], *want[order]), (order, x)
        if x > 0.0:
            # h = f/x - 1, whose error is absolute as h is 0 at the fixed point: x (h + 1) against f
            f = want[0][0]
            hx = Dyadic.of(x) * (Dyadic.of(_h(dist, k, x)) + 1)
            assert within_bound(0.0, hx - f, abs(f) + Dyadic.of(x)), ("h", x)
    for p in _profiles(k, x_bar):
        # F_i depends on p_i and p_sane alone, so one entry of each distinct value stands for the rest
        entries = np.unique(p[:-1], return_index=True)[1]
        for alpha in (1.0, 0.3):
            got = step_full(dist, p) if alpha == 1.0 else step_variant(dist, p, alpha)
            want = exact_step(dist, np.append(p[entries], p[-1]), alpha)
            for i, (value, magnitude) in zip(entries, want):
                assert within_bound(got[i], value, magnitude), (alpha, i, p[i], p[-1])


def test_bound_is_met_where_a_subtraction_fails():
    """The bound is tight enough to see the cancellation: G(a) - G(b) by subtraction misses it at k = 10^4."""
    dist, k = zary(6), 10**4
    x = 0.3 / k
    a, b = 1.0 - (k - 1) * x, 1.0 - k * x
    value, magnitude = exact_map(dist, k, x)
    assert not within_bound(a**6 - b**6, value, magnitude)
    assert within_bound(scalar_eval(ScalarMapSpec(dist, k), x), value, magnitude)


@pytest.mark.parametrize("law", ["zary:2", "zary:10000", "gw-2-5-40"])
def test_entry_below_zero_beside_sane_mass_near_zero(law):
    """A disease entry within PROB_TOL below 0 next to a sane mass near 0: F_i is about 0, with no overflow."""
    for sane in (0.0, 1.05e-12, 2e-12):
        p = np.array([1.0 + 1e-12 - sane, -1e-12, sane])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got = step_full(LAWS[law], p)
        assert np.isfinite(got).all() and abs(got[1]) < 1e-21


def test_dyadic_agrees_with_fraction():
    values = [1 / 3, 0.1, -2.5, 1e-300, 7.0]
    for u, v in itertools.product(values, repeat=2):
        a, b = Dyadic.of(u), Dyadic.of(v)
        for got, want in [(a + b, F(u) + F(v)), (a - b, F(u) - F(v)), (a * b, F(u) * F(v)), (a**3, F(u) ** 3)]:
            assert got.n * F(2) ** got.e == want
        assert (a <= b, a < b, abs(a).n) == (F(u) <= F(v), F(u) < F(v), abs(a.n))
        assert a.ratio(b) == float(F(u) / F(v))
    assert exact_pgf(zary(3), Dyadic.of(0.5), 1).ratio(Dyadic(1)) == 0.75
