import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from treespread import (
    OffspringError,
    make_offspring,
    parse_offspring,
    pgf,
    pgf_deriv,
    zary,
)

FIG_FE = [(3, 1 / 3), (6, 1 / 3), (10, 1 / 3)]


class TestMakeOffspring:
    def test_binary_tree(self):
        d = make_offspring([(2, 1.0)])
        assert d.mean == 2.0
        assert d.is_deterministic and d.z_value == 2

    def test_three_atom_law(self):
        d = make_offspring(FIG_FE)
        assert d.mean == pytest.approx(19 / 3, abs=1e-12)

    def test_rejects_mass_at_one(self):
        with pytest.raises(OffspringError):
            make_offspring([(1, 0.5), (3, 0.5)])

    def test_rejects_mass_at_zero(self):
        with pytest.raises(OffspringError):
            make_offspring([(0, 0.5), (4, 0.5)])

    def test_rejects_negative_mass(self):
        with pytest.raises(OffspringError):
            make_offspring([(2, -0.5), (3, 1.5)])

    def test_rejects_bad_sum(self):
        with pytest.raises(OffspringError):
            make_offspring([(2, 0.5), (3, 0.4)])

    def test_rejects_non_finite_mass(self):
        with pytest.raises(OffspringError):
            make_offspring([(2, math.nan), (3, 1.0)])

    def test_rejects_empty(self):
        with pytest.raises(OffspringError):
            make_offspring([])

    def test_rejects_duplicate_atom(self):
        with pytest.raises(OffspringError):
            make_offspring([(2, 0.5), (2, 0.5)])

    def test_third_mass_survives_decimal_input(self):
        make_offspring([(3, 0.3333333333), (6, 0.3333333333), (10, 0.3333333334)])

    def test_numpy_integer_atoms(self):
        assert make_offspring([(np.int64(3), 1.0)]) == zary(3)
        d = make_offspring([(np.int32(2), 0.5), (np.uint8(4), 0.5)])
        assert d.support == ((2, 0.5), (4, 0.5)) and type(d.support[0][0]) is int
        assert str(d) == '{"masses": [[2, 0.5], [4, 0.5]]}'
        for bad in (True, np.True_, 2.5, "3"):
            with pytest.raises(OffspringError, match="must be an integer"):
                make_offspring([(bad, 1.0)])


class TestPgf:
    def test_zary2_half(self):
        assert pgf(zary(2), 0.5) == 0.25

    def test_normalization(self):
        assert pgf(make_offspring(FIG_FE), 1.0) == pytest.approx(1.0, abs=1e-12)

    def test_power_sum_value(self):
        # direct power sum oracle: (0.5^3 + 0.5^6 + 0.5^10) / 3
        expected = (0.125 + 0.015625 + 0.0009765625) / 3
        assert pgf(make_offspring(FIG_FE), 0.5) == pytest.approx(expected, abs=1e-15)

    def test_zero_maps_to_zero(self):
        assert pgf(make_offspring(FIG_FE), 0.0) == 0.0

    def test_domain_error(self):
        with pytest.raises(OffspringError):
            pgf(zary(2), 1.5)
        with pytest.raises(OffspringError):
            pgf(zary(2), -0.01)

    def test_clamp_within_tolerance(self):
        assert pgf(zary(2), 1.0 + 5e-13) == 1.0


@pytest.mark.parametrize("dist", [zary(6), make_offspring(FIG_FE)], ids=["zary6", "fig_fe"])
def test_point_alone_equals_point_in_batch(dist):
    s = np.concatenate([np.linspace(0.0, 1.0, 257), np.random.default_rng(3).random(500)])
    batches = [pgf(dist, s), pgf_deriv(dist, s, 1), pgf_deriv(dist, s, 2)]
    for i, x in enumerate(s.tolist()):
        alone = [pgf(dist, x), pgf_deriv(dist, x, 1), pgf_deriv(dist, x, 2)]
        assert all(type(v) is float for v in alone)
        assert alone == [b[i] for b in batches]


class TestPgfDeriv:
    def test_mean_at_one(self):
        assert pgf_deriv(zary(2), 1.0, 1) == 2.0
        assert pgf_deriv(make_offspring(FIG_FE), 1.0, 1) == pytest.approx(19 / 3, abs=1e-12)

    def test_zero_at_origin(self):
        assert pgf_deriv(zary(6), 0.0, 1) == 0.0

    def test_second_derivative_nonnegative(self):
        d = make_offspring(FIG_FE)
        for s in [0.0, 0.1, 0.5, 0.9, 1.0]:
            assert pgf_deriv(d, s, 2) >= 0.0

    def test_rejects_bad_order(self):
        with pytest.raises(OffspringError):
            pgf_deriv(zary(2), 0.5, 3)

    def test_finite_difference_cross_check(self):
        d = make_offspring(FIG_FE)
        h = 1e-5
        for s in [0.1, 0.3, 0.5, 0.7, 0.9]:
            fd = (pgf(d, s + h) - pgf(d, s - h)) / (2 * h)
            assert abs(fd - pgf_deriv(d, s, 1)) <= 100 * h**2


@st.composite
def offspring_laws(draw):
    zs = draw(st.lists(st.integers(2, 15), min_size=1, max_size=4, unique=True))
    weights = [draw(st.floats(0.05, 1.0)) for _ in zs]
    total = sum(weights)
    return make_offspring([(z, w / total) for z, w in zip(zs, weights)])


@given(offspring_laws(), st.floats(0, 1), st.floats(0, 1))
@settings(max_examples=50, deadline=None)
def test_pgf_monotone(dist, s, t):
    lo, hi = min(s, t), max(s, t)
    assert pgf(dist, lo) <= pgf(dist, hi)
    # strict increase needs headroom: s^z underflows to 0 for denormal s
    if hi - lo > 1e-6 and lo >= 1e-3:
        assert pgf(dist, lo) < pgf(dist, hi)


@given(offspring_laws())
@settings(max_examples=50, deadline=None)
def test_pgf_endpoints_and_mean(dist):
    assert pgf(dist, 1.0) == pytest.approx(1.0, abs=1e-12)
    assert pgf(dist, 0.0) == 0.0
    assert pgf_deriv(dist, 1.0, 1) == pytest.approx(dist.mean, abs=1e-12)


class TestParse:
    def test_zary_shorthand(self):
        assert parse_offspring("zary:6").z_value == 6

    def test_json_form(self):
        d = parse_offspring('{"masses": [[2, 0.5], [4, 0.5]]}')
        assert d.mean == 3.0

    def test_bad_input(self):
        with pytest.raises(OffspringError):
            parse_offspring("zary:x")
        with pytest.raises(OffspringError):
            parse_offspring("nonsense")
        with pytest.raises(OffspringError):
            parse_offspring('{"wrong": 1}')

    def test_roundtrip(self):
        d = make_offspring(FIG_FE)
        assert parse_offspring(str(d)) == d
        assert parse_offspring(str(zary(3))) == zary(3)
