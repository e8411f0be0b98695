import math

import numpy as np
import pytest

from treespread import (
    DynamicsError,
    OrbitReport,
    ScalarMapSpec,
    asymptotic_multiplier,
    basin_classify,
    check_orbit_conditions,
    critical_points,
    find_fixed_point,
    find_orbit,
    framing_bounds,
    make_offspring,
    nonuniform_spectrum,
    scalar_deriv,
    scalar_eval,
    x_tilde,
    zary,
    zary_map,
)
from treespread.analysis import BASIN_BALL, BASIN_CONFIRM_STEPS, AnalysisError, _bisect, _h, analysis_bundle

FIG_FE = make_offspring([(3, 1 / 3), (6, 1 / 3), (10, 1 / 3)])

# regression constants frozen from an independent grid-scan + bisection oracle
XBAR_6_2 = 0.2075774364546849
MULT_6_2 = -1.0536354141534723
ORBIT_6_2 = (0.15908679055012037, 0.25312424456452587)
ORBIT_6_2_MULT = 0.7865648045545469
XHAT_6_2 = 0.1146128657885334


class TestFixedPoint:
    def test_binary_closed_form(self):
        # f_{2,k}(x) = x solves to 1/(2k-1)
        for k in range(2, 6):
            rep = find_fixed_point(zary_map(2, k))
            assert rep.x_bar == pytest.approx(1.0 / (2 * k - 1), abs=1e-13)
            assert rep.residual < 1e-14

    def test_single_disease_boundary(self):
        rep = find_fixed_point(zary_map(2, 1))
        assert rep.x_bar == 1.0
        assert rep.classification == "attracting"

    def test_pinned_z6_k2(self):
        rep = find_fixed_point(zary_map(6, 2))
        assert rep.x_bar == pytest.approx(XBAR_6_2, abs=1e-14)
        assert rep.multiplier == pytest.approx(MULT_6_2, abs=1e-12)
        assert rep.classification == "repelling"

    def test_bounds_attached_for_zary(self):
        rep = find_fixed_point(zary_map(6, 2))
        assert rep.lower_bound < rep.x_bar < rep.upper_bound

    def test_general_law(self):
        rep = find_fixed_point(ScalarMapSpec(FIG_FE, 3))
        assert rep.residual < 1e-14
        assert 0 < rep.x_bar < 1 / 3
        assert rep.lower_bound is None


@pytest.mark.parametrize("k", range(1, 31))
@pytest.mark.parametrize("law", [f"zary:{z}" for z in range(2, 13)] + ["three-atom"])
def test_scalar_bracket_bisects_as_an_array_bracket(law, k):
    """The float branch of _bisect gives the bit-equal root of the array branch on a one-element bracket.

    The array side evaluates h on Python floats too, so only the two bisection loops differ.  At k = 1,
    h(1/k) = 0 and both return the endpoint.
    """
    dist = FIG_FE if law == "three-atom" else zary(int(law.split(":")[1]))

    def h_each(x):
        return np.array([_h(dist, k, float(v)) for v in x])

    got = _bisect(lambda x: _h(dist, k, x), 1e-300, 1.0 / k)
    want = _bisect(h_each, np.array([1e-300]), np.array([1.0 / k]))
    assert type(got) is float and want.shape == (1,)
    assert got == want[0] and math.copysign(1.0, got) == math.copysign(1.0, want[0])
    if k > 1:
        assert find_fixed_point(ScalarMapSpec(dist, k)).x_bar == got
    else:
        assert got == 1.0


def test_scalar_bracket_endpoints_and_no_sign_change():
    assert _bisect(lambda x: x, 0.0, 1.0) == 0.0  # g(lo) = 0 wins, as in the array branch
    assert _bisect(lambda x: x - 1.0, 0.0, 1.0) == 1.0
    assert _bisect(lambda x: x - 0.25, 0.0, 1.0) == 0.25
    with pytest.raises(AnalysisError, match="no sign change"):
        _bisect(lambda x: x + 1.0, 0.0, 1.0)


class TestClosedForms:
    def test_x_tilde_identity(self):
        for z in (2, 5, 9):
            for k in (2, 7):
                xt = x_tilde(z, k)
                assert z * (1 - k * xt) ** (z - 1) == pytest.approx(1.0, abs=1e-13)

    def test_framing_bounds_order(self):
        lo, hi = framing_bounds(6, 2)
        assert lo < XBAR_6_2 < hi
        with pytest.raises(DynamicsError):
            framing_bounds(6, 1)

    def test_critical_points_pinned(self):
        cp = critical_points(6, 2)
        assert cp.x_hat == pytest.approx(XHAT_6_2, abs=1e-14)
        assert cp.x_star is not None and cp.x_star > cp.x_hat

    def test_x_hat_is_the_maximum(self):
        spec = zary_map(6, 2)
        cp = critical_points(6, 2)
        assert scalar_deriv(spec, cp.x_hat, 1) == pytest.approx(0.0, abs=1e-12)
        for dx in (-1e-4, 1e-4):
            assert scalar_eval(spec, cp.x_hat + dx) < cp.f_at_x_hat

    def test_no_inflection_for_z2(self):
        assert critical_points(2, 3).x_star is None

    def test_asymptotic_multiplier_values(self):
        assert asymptotic_multiplier(5) == pytest.approx(-0.9813951248848822, abs=1e-12)
        assert asymptotic_multiplier(6) < -1 < asymptotic_multiplier(5)


class TestClassification:
    @pytest.mark.parametrize("z,expected", [(3, "attracting"), (5, "attracting"), (6, "repelling")])
    def test_small_z(self, z, expected):
        rep = find_fixed_point(zary_map(z, 2))
        assert rep.classification == expected

    def test_nonuniform_spectrum_shape(self):
        spec = nonuniform_spectrum(4, 6, 2)
        assert len(spec) == 5
        assert spec[1] == spec[2] == spec[3] == spec[4]
        # leading eigenvalue is the scalar multiplier of the i-disease map
        assert spec[0] == find_fixed_point(zary_map(4, 2)).multiplier
        with pytest.raises(DynamicsError):
            nonuniform_spectrum(4, 6, 7)


class TestOrbits:
    def test_period2_pinned(self):
        orbit = find_orbit(zary_map(6, 2), 2)
        assert orbit is not None and orbit.period == 2 and orbit.stable
        assert orbit.points[0] == pytest.approx(ORBIT_6_2[0], abs=1e-12)
        assert orbit.points[1] == pytest.approx(ORBIT_6_2[1], abs=1e-12)
        assert orbit.multiplier == pytest.approx(ORBIT_6_2_MULT, abs=1e-10)

    def test_orbit_points_swap(self):
        spec = zary_map(6, 2)
        orbit = find_orbit(spec, 2)
        a, b = orbit.points
        assert scalar_eval(spec, a) == pytest.approx(b, abs=1e-12)
        assert scalar_eval(spec, b) == pytest.approx(a, abs=1e-12)

    def test_absent_orbit(self):
        assert find_orbit(zary_map(3, 2), 2) is None

    @pytest.mark.parametrize("k", range(1, 25))
    def test_binary_tree_has_no_period2_orbit(self, k):
        """For z = 2 the only root of f(f(x)) - x on the domain is the fixed point, which is excluded."""
        assert find_orbit(zary_map(2, k), 2) is None

    def test_period4_z12(self):
        orbit = find_orbit(zary_map(12, 2), 4)
        assert orbit is not None and orbit.period == 4 and orbit.stable
        assert len(set(round(p, 12) for p in orbit.points)) == 4

    def test_rejects_bad_period(self):
        with pytest.raises(DynamicsError):
            find_orbit(zary_map(6, 2), 3)

    def test_conditions(self):
        assert check_orbit_conditions(6, 2) == (True, True, True)
        c1, _, _ = check_orbit_conditions(3, 2)
        assert c1 is False
        _, c2, _ = check_orbit_conditions(12, 2)
        assert c2 is False


class TestBasins:
    def test_known_starts(self):
        spec = zary_map(6, 2)
        orbit = find_orbit(spec, 2)
        x_bar = find_fixed_point(spec).x_bar
        starts = [x_bar, orbit.points[0], orbit.points[1], 0.4]
        report = basin_classify(spec, starts, orbit=orbit)
        assert report.verdicts[0] == "fixed_point"
        assert report.verdicts[1] == "orbit_left"
        assert report.verdicts[2] == "orbit_right"
        assert report.verdicts[3] in ("orbit_left", "orbit_right")
        assert report.fractions["unresolved"] == 0.0

    def test_no_orbit_raises(self):
        with pytest.raises(DynamicsError):
            basin_classify(zary_map(3, 2), [0.1])

    def test_repelling_orbit_raises(self):
        # the only 2-cycle of f_{12,2} is repelling, so no start could settle on it
        assert not find_orbit(zary_map(12, 2), 2).stable
        with pytest.raises(DynamicsError, match="attracting"):
            basin_classify(zary_map(12, 2), [0.1])

    @pytest.mark.parametrize("max_iters", [0, -1])
    def test_needs_a_positive_budget(self, max_iters):
        with pytest.raises(DynamicsError, match="max_iters"):
            basin_classify(zary_map(6, 2), [0.1], max_iters=max_iters)


def _basin_reference(spec, x0, candidates, max_iters):
    """One start at a time: the plain loop the lockstep sweep must reproduce."""
    x, streak_label, streak, n = x0, None, 0, 0
    while n < max_iters:
        label = next((name for cand, name in candidates if abs(x - cand) < BASIN_BALL), None)
        if label is not None and label == streak_label:
            streak += 1
            if streak >= BASIN_CONFIRM_STEPS:
                return label, n
        else:
            streak_label, streak = label, int(label is not None)
        x = scalar_eval(spec, scalar_eval(spec, x))
        n += 1
    return "unresolved", n


@pytest.mark.parametrize("max_iters,n_starts", [(100_000, 500), (40, 100)])
def test_lockstep_basin_matches_per_start_loop(max_iters, n_starts):
    spec = zary_map(6, 2)
    orbit = find_orbit(spec, 2)
    x_bar = find_fixed_point(spec).x_bar
    candidates = [(orbit.points[0], "orbit_left"), (orbit.points[1], "orbit_right"), (x_bar, "fixed_point")]
    starts = np.random.default_rng(6).random(n_starts) * 0.5
    starts = starts.tolist() + [x_bar, orbit.points[0], 0.5]
    report = basin_classify(spec, starts, max_iters=max_iters, orbit=orbit)
    want = [_basin_reference(spec, x0, candidates, max_iters) for x0 in starts]
    assert list(zip(report.verdicts, report.iterations)) == want
    assert all(type(n) is int for n in report.iterations)
    if max_iters == 40:
        assert 0 < report.verdicts.count("unresolved") < len(starts)


@pytest.mark.parametrize("z,k", [(6, 2), (8, 2)])
def test_basin_labels_match_per_start_loop_on_the_boundaries(z, k):
    """Starts on the domain's ends, on each target and at the edges of its ball, among random ones."""
    spec = zary_map(z, k)
    orbit = find_orbit(spec, 2)
    x_bar = find_fixed_point(spec).x_bar
    candidates = [(orbit.points[0], "orbit_left"), (orbit.points[1], "orbit_right"), (x_bar, "fixed_point")]
    edges = []
    for t, _ in candidates:
        for d in (0.0, 0.5 * BASIN_BALL, BASIN_BALL):
            edges += [t - d, t + d, float(np.nextafter(t + d, 0.0)), float(np.nextafter(t - d, 1.0))]
    starts = [0.0, 1.0 / k, *edges, *(np.random.default_rng(z).random(200) / k).tolist()]
    report = basin_classify(spec, starts, max_iters=60, orbit=orbit)
    want = [_basin_reference(spec, x0, candidates, 60) for x0 in starts]
    assert list(zip(report.verdicts, report.iterations)) == want
    assert {"orbit_left", "orbit_right", "fixed_point"} <= set(report.verdicts)


def test_basin_overlapping_balls_pick_the_first_target():
    """Made-up orbit points 0.6 BASIN_BALL either side of the fixed point: where balls overlap, left beats
    right beats the fixed point, as in the per-start loop."""
    spec = zary_map(6, 2)
    x_bar = find_fixed_point(spec).x_bar
    orbit = OrbitReport(2, (x_bar - 0.6 * BASIN_BALL, x_bar + 0.6 * BASIN_BALL), 0.5, True)
    candidates = [(orbit.points[0], "orbit_left"), (orbit.points[1], "orbit_right"), (x_bar, "fixed_point")]
    starts = [x_bar + f * BASIN_BALL for f in np.linspace(-1.7, 1.7, 35)]
    report = basin_classify(spec, starts, max_iters=30, orbit=orbit)
    want = [_basin_reference(spec, x0, candidates, 30) for x0 in starts]
    assert list(zip(report.verdicts, report.iterations)) == want
    assert {"orbit_left", "orbit_right"} <= set(report.verdicts)


# --- reference orbit scans: plain numpy and scalar bisection, sharing no code with the package ---

REF_CELLS = 20_000
# a z-ary law is its child count z; the Galton-Watson laws are {z: q_z}
REF_LAWS = list(range(2, 13)) + [
    pytest.param({6: 0.5, 12: 0.5}, id="gw6-12"),
    pytest.param({2: 0.5, 9: 0.5}, id="gw2-9"),
    pytest.param({3: 1 / 3, 6: 1 / 3, 10: 1 / 3}, id="three-atom"),
]


def _atoms(law):
    return ((law, 1.0),) if isinstance(law, int) else tuple(sorted(law.items()))


def _ref_f(atoms, k, x):
    """f_k(x) = G(1 - (k-1)x) - G(1 - kx) with G(s) = sum_z q_z s^z."""
    return sum(q * ((1 - (k - 1) * x) ** z - (1 - k * x) ** z) for z, q in atoms)


def _ref_df(atoms, k, x):
    return sum(q * (k * z * (1 - k * x) ** (z - 1) - (k - 1) * z * (1 - (k - 1) * x) ** (z - 1)) for z, q in atoms)


def _ref_iter(atoms, k, x, times):
    for _ in range(times):
        x = _ref_f(atoms, k, x)
    return x


def _ref_bisect(g, a, b):
    ga = g(a)
    while True:
        m = 0.5 * (a + b)
        if m in (a, b):
            return m
        gm = g(m)
        if gm == 0.0:
            return m
        if (gm > 0) == (ga > 0):
            a, ga = m, gm
        else:
            b = m


def _ref_roots(g, hi):
    """Grid points of (0, hi] where g vanishes, and a root in every cell where it changes sign."""
    x = np.linspace(0.0, hi, REF_CELLS + 1)[1:]
    v = g(x)
    change = np.flatnonzero((v[:-1] != 0) & (v[1:] != 0) & ((v[:-1] > 0) != (v[1:] > 0)))
    return x[v == 0].tolist() + [_ref_bisect(g, float(x[i]), float(x[i + 1])) for i in change]


def _check_against_reference(law, k, period):
    """find_orbit finds a p-cycle exactly when f^p(x) - x has a root away from every root of f^(p/2)(x) - x."""
    atoms = _atoms(law)
    lower = _ref_roots(lambda x: _ref_iter(atoms, k, x, period // 2) - x, 1.0 / k)
    cycle = [
        r
        for r in _ref_roots(lambda x: _ref_iter(atoms, k, x, period) - x, 1.0 / k)
        if all(abs(r - e) > 1e-6 for e in lower)
    ]
    orbit = find_orbit(ScalarMapSpec(make_offspring(atoms), k), period)
    assert (orbit is None) == (not cycle), (orbit, cycle)
    if orbit is None:
        return
    # f permutes the cycle's points, each near a root the reference kept
    images = sorted(_ref_f(atoms, k, p) for p in orbit.points)
    assert len(orbit.points) == period
    assert all(abs(y - p) <= 1e-12 for y, p in zip(images, orbit.points))
    assert all(min(abs(p - r) for r in cycle) <= 1e-9 for p in orbit.points)
    mult = math.prod(_ref_df(atoms, k, p) for p in orbit.points)
    assert orbit.stable == (abs(mult) < 1)


@pytest.mark.parametrize("k", range(1, 31))
@pytest.mark.parametrize("z", REF_LAWS)
def test_period2_matches_reference_scan(z, k):
    _check_against_reference(z, k, 2)


@pytest.mark.parametrize("k", range(1, 11))
@pytest.mark.parametrize("law", REF_LAWS)
def test_period4_matches_reference_scan(law, k):
    _check_against_reference(law, k, 4)


class TestBundle:
    def test_zary_bundle_keys(self):
        report = analysis_bundle(zary_map(6, 2), i=2)
        for key in (
            "fixed_point",
            "framing_bounds",
            "critical_points",
            "asymptotic_multiplier",
            "orbit_conditions",
            "nonuniform_spectrum",
        ):
            assert key in report
        assert report["orbit_conditions"] == [True, True, True]

    def test_general_law_bundle_is_minimal(self):
        report = analysis_bundle(ScalarMapSpec(FIG_FE, 2))
        assert set(report) == {"fixed_point"}
