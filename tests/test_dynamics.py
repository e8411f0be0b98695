import csv
import functools
import hashlib
import io
import itertools
import json
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from treespread import cli, dynamics, offspring
from treespread import (
    DynamicsError,
    ScalarMapSpec,
    dominant_profile,
    iterate,
    make_offspring,
    make_profile,
    pgf,
    pgf_deriv,
    scalar_deriv,
    scalar_eval,
    step_full,
    step_variant,
    uniform_profile,
    zary,
    zary_map,
)
from treespread.dynamics import (
    PROB_TOL,
    Trajectory,
    check_masses,
    stepper,
)
from treespread.cli import write_trajectory_csv, write_trajectory_json
from treespread.offspring import OffspringError

from reference import SANE, combine_children, exact_map, exact_step, within_bound

FIG_FE = make_offspring([(3, 1 / 3), (6, 1 / 3), (10, 1 / 3)])


class TestProfiles:
    def test_uniform(self):
        p = uniform_profile(3)
        assert p.k == 3 and p.masses == (0.25, 0.25, 0.25, 0.25)

    def test_make_profile_rejects_zero_when_strict(self):
        with pytest.raises(DynamicsError):
            make_profile([0.5, 0.0, 0.5])

    def test_make_profile_rejects_bad_sum(self):
        with pytest.raises(DynamicsError):
            make_profile([0.5, 0.4])
        with pytest.raises(DynamicsError):  # not an OverflowError from the exact sum
            make_profile([1e308, 1e308, 0.5])

    def test_make_profile_rejects_non_finite(self):
        with pytest.raises(DynamicsError):
            make_profile([math.nan, 0.5, 0.5])

    def test_iterate_rejects_bad_tol(self):
        for tol in (math.nan, -1.0, 0.0, math.inf):
            with pytest.raises(DynamicsError):
                iterate(stepper(zary(2)), uniform_profile(2), max_iters=5, tol=tol)

    def test_check_masses_decides_as_the_exact_sum(self):
        """Last entries stepped across |sum - 1| = PROB_TOL: the verdict and message are those of math.fsum."""
        rng = np.random.default_rng(9)
        wrong_by_np_sum = 0
        for n in (2, 3, 10, 130, 1000, 20_000):
            v = rng.random(n)
            v /= math.fsum(v)
            for side in (1.0, -1.0):
                last = 1.0 + side * PROB_TOL - math.fsum(v[:-1])
                for ulps in range(-60, 61, 3):
                    w = v.copy()
                    w[-1] = last + ulps * 2.0**-60
                    total = math.fsum(w)
                    fails = abs(total - 1.0) > PROB_TOL
                    wrong_by_np_sum += fails != (abs(float(w.sum()) - 1.0) > PROB_TOL)
                    for strict in (True, False):
                        if fails:
                            with pytest.raises(DynamicsError, match=f"^profile sums to {total!r}, "):
                                check_masses(w, strict)
                        else:
                            check_masses(w, strict)
        assert wrong_by_np_sum > 0  # np.sum alone would decide some of these wrongly

    def test_make_profile_rejects_increasing_order(self):
        with pytest.raises(DynamicsError):
            make_profile([0.2, 0.5, 0.3])

    def test_dominant_profile(self):
        for k in range(1, 6):
            for i in range(1, k + 1):
                p = dominant_profile(k, i)
                assert p.k == k and set(p.masses[:i]) == {p.masses[0]}
                assert abs(sum(p.masses) - 1.0) < 1e-12
                if i < k:
                    assert p.masses[0] > p.masses[i]
        with pytest.raises(DynamicsError):
            dominant_profile(3, 4)


class TestStepFull:
    def test_binary_pinned(self):
        # hand-computed: G(s)=s^2, sane=0.3 -> (0.8^2-0.09, 0.5^2-0.09, rest)
        out = step_full(zary(2), [0.5, 0.2, 0.3])
        assert np.allclose(out, [0.55, 0.16, 0.29], atol=1e-15)

    def test_preserves_simplex(self):
        out = step_full(FIG_FE, [0.4, 0.3, 0.2, 0.1])
        assert abs(out.sum() - 1.0) < 1e-12
        assert np.all(out >= 0)

    def test_degenerate_certain_disease(self):
        # a single disease with full mass is fixed: unanimity propagates it
        out = step_full(zary(2), [1.0, 0.0])
        assert out[0] == 1.0

    def test_all_sane_fixed(self):
        out = step_full(FIG_FE, [0.0, 1.0])
        assert out[1] == 1.0

    def test_rejects_bad_vector(self):
        with pytest.raises(DynamicsError):
            step_full(zary(2), [0.5, 0.4])
        with pytest.raises(DynamicsError):
            step_full(zary(2), [1.2, -0.2])

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_rejects_non_finite(self, bad):
        """A NaN passed every sign and sum test and came out as a NaN state; iterate then ran to max_iters."""
        p = [bad, 0.5, 0.5]
        for step in (stepper(zary(2)), stepper(zary(2), 0.5)):
            with pytest.raises(DynamicsError):
                step(p)
            with pytest.raises(DynamicsError):
                iterate(step, np.array(p), max_iters=5)

    @pytest.mark.parametrize(
        "profile",
        [lambda: uniform_profile(100_000), lambda: dominant_profile(10**6, 2)],
        ids=["uniform_1e5", "dominant_1e6"],
    )
    def test_steps_profiles_of_many_diseases(self, profile):
        """Summed in order, 10^5 or 10^6 masses drift past PROB_TOL from 1; the exact sum does not."""
        p = profile()
        assert step_full(zary(2), p.masses).shape == (p.k + 1,)

    def test_matches_scalar_map_on_uniform_points(self):
        for k in (1, 2, 4):
            x = 0.8 / (k + 1)
            p = [x] * k + [1 - k * x]
            out = step_full(zary(6), p)
            fx = scalar_eval(zary_map(6, k), x)
            assert out[0] == pytest.approx(fx, abs=1e-14)


class TestStepVariant:
    def test_alpha_one_recovers_standard(self):
        p = [0.4, 0.3, 0.2, 0.1]
        assert np.array_equal(step_variant(FIG_FE, p, 1.0), step_full(FIG_FE, p))

    def test_rejects_alpha_outside_domain(self):
        for a in (0.0, -0.5, 1.5):
            with pytest.raises(DynamicsError):
                step_variant(zary(2), [0.5, 0.5], a)

    def test_preserves_simplex(self):
        out = step_variant(FIG_FE, [0.4, 0.3, 0.3], 0.6)
        assert abs(out.sum() - 1.0) < 1e-12
        assert np.all(out >= -1e-15)


class TestScalarMap:
    def test_domain(self):
        spec = zary_map(2, 2)
        assert scalar_eval(spec, 0.0) == 0.0
        with pytest.raises(DynamicsError):
            scalar_eval(spec, 0.6)
        with pytest.raises(DynamicsError):
            scalar_eval(spec, -0.1)

    def test_known_value(self):
        # f_{2,2}(x) = (1-x)^2 - (1-2x)^2 = 2x - 3x^2
        spec = zary_map(2, 2)
        for x in (0.1, 0.25, 0.5):
            assert scalar_eval(spec, x) == pytest.approx(2 * x - 3 * x * x, abs=1e-15)

    def test_deriv_orders(self):
        spec = zary_map(2, 2)
        for x in (0.1, 0.3):
            assert scalar_deriv(spec, x, 1) == pytest.approx(2 - 6 * x, abs=1e-13)
            assert scalar_deriv(spec, x, 2) == pytest.approx(-6.0, abs=1e-12)
        with pytest.raises(DynamicsError):
            scalar_deriv(spec, 0.1, 3)

    def test_deriv_finite_difference(self):
        spec = ScalarMapSpec(FIG_FE, 3)
        h = 1e-6
        for x in (0.05, 0.15, 0.3):
            fd = (scalar_eval(spec, x + h) - scalar_eval(spec, x - h)) / (2 * h)
            assert abs(fd - scalar_deriv(spec, x, 1)) < 1e-7
            fd2 = (scalar_deriv(spec, x + h, 1) - scalar_deriv(spec, x - h, 1)) / (2 * h)
            assert abs(fd2 - scalar_deriv(spec, x, 2)) < 1e-5

    def test_spec_validation(self):
        with pytest.raises(DynamicsError):
            ScalarMapSpec(zary(2), 0)


MAPS = [ScalarMapSpec(zary(6), 2), ScalarMapSpec(FIG_FE, 3)]


@pytest.mark.parametrize("spec", MAPS, ids=["z6k2", "fig_fe_k3"])
def test_point_alone_equals_point_in_batch(spec):
    x = np.concatenate([np.linspace(0.0, 1.0 / spec.k, 129), np.random.default_rng(4).random(300) / spec.k])
    batches = [scalar_eval(spec, x), scalar_deriv(spec, x, 1), scalar_deriv(spec, x, 2)]
    for i, xi in enumerate(x.tolist()):
        alone = [scalar_eval(spec, xi), scalar_deriv(spec, xi, 1), scalar_deriv(spec, xi, 2)]
        assert all(type(v) is float for v in alone)
        assert alone == [b[i] for b in batches]


def _old_power_sum(dist, s, order, gap=None):
    """offspring._power_sum with the elementwise range check: a mask, any() and clip on every call."""
    s = np.asarray(s, dtype=float)
    if ((s < -PROB_TOL) | (s > 1.0 + PROB_TOL)).any():
        raise OffspringError(f"generating function argument {s.tolist()!r} outside [0,1]")
    s = np.asarray(s.clip(0.0, 1.0))
    total = offspring._terms(dist, s, order, gap)
    return float(total) if s.ndim == 0 else total


def _old_check_x(x, k):
    """dynamics._check_x with the elementwise range check."""
    x = np.asarray(x, dtype=float)
    if ((x < -PROB_TOL) | (x > 1.0 / k + PROB_TOL)).any():
        raise DynamicsError(f"x={x.tolist()!r} outside the map domain (0, 1/{k}]")
    return x.clip(0.0, 1.0 / k)


def _outcome(fn, arg):
    """The exception's type and message, or the result's type, shape and bits."""
    try:
        r = fn(arg)
    except ValueError as exc:
        return type(exc), str(exc)
    return type(r), np.shape(r), np.asarray(r).tobytes()


@pytest.mark.parametrize("spec", MAPS + [ScalarMapSpec(zary(3), 1)], ids=["z6k2", "fig_fe_k3", "z3k1"])
def test_range_check_matches_elementwise_form(spec, monkeypatch):
    bounds = [-PROB_TOL, 0.0, 1.0, 1.0 / spec.k, 1.0 + PROB_TOL, 1.0 / spec.k + PROB_TOL]
    past = [math.nextafter(b, -1.0 if b <= 0.0 else 2.0) for b in bounds]
    points = [-0.0, math.nan] + bounds + past
    inside = 0.5 / spec.k
    args = [np.array(points), np.array([])]
    for p in points:  # alone as a float and as 0-d and 1-d arrays, beside a point inside, beside a NaN
        args += [p, np.asarray(p), np.array([p]), np.array([inside, p]), np.array([p, math.nan])]
    fns = [
        lambda s: pgf(spec.dist, s),
        lambda s: pgf_deriv(spec.dist, s, 1),
        lambda s: pgf_deriv(spec.dist, s, 2),
        lambda x: scalar_eval(spec, x),
        lambda x: scalar_deriv(spec, x, 1),
        lambda x: scalar_deriv(spec, x, 2),
    ]
    got = [_outcome(fn, a) for fn in fns for a in args]
    monkeypatch.setattr(offspring, "_power_sum", _old_power_sum)
    monkeypatch.setattr(dynamics, "_check_x", _old_check_x)
    want = [_outcome(fn, a) for fn in fns for a in args]
    assert got == want
    # both verdicts occur for every function
    assert {len(o) for o in got[: len(args)]} == {len(o) for o in got[-len(args) :]} == {2, 3}


@pytest.mark.parametrize("dist,k", [(zary(6), 2), (zary(2), 5), (FIG_FE, 3)], ids=["z6k2", "z2k5", "fig_fe_k3"])
def test_alpha_one_is_exactly_the_standard_rule(dist, k):
    x = np.linspace(0.0, 1.0 / k, 1001)
    spec = ScalarMapSpec(dist, k)
    got = [scalar_eval(spec, x), scalar_deriv(spec, x, 1), scalar_deriv(spec, x, 2)]
    for order, g in enumerate(got):
        for xi, gi in zip(x.tolist(), g.tolist()):
            assert within_bound(gi, *exact_map(dist, k, xi, order)), (order, xi)
    rng = np.random.default_rng(k)
    for p in rng.dirichlet(np.ones(k + 1), size=20):
        for gi, want in zip(step_full(dist, p).tolist(), exact_step(dist, p)):
            assert within_bound(gi, *want)
        assert np.array_equal(step_variant(dist, p, 1.0), step_full(dist, p))


@pytest.mark.parametrize("dist,k", [(zary(2), 1), (zary(5), 4), (zary(12), 30), (FIG_FE, 3), (FIG_FE, 20)],
                         ids=["z2k1", "z5k4", "z12k30", "fig_fe_k3", "fig_fe_k20"])
def test_standard_rule_matches_the_three_term_formula(dist, k):
    """step_full and scalar_eval are the three terms with alpha = 1, G(0) dropped, within the exact bound."""
    rng = np.random.default_rng(k)
    points = list(rng.dirichlet(np.ones(k + 1), size=40))
    for j, p in enumerate(points[:20]):
        p = p.copy()
        p[j % (k + 1)] = 0.0  # a zero entry, the sane one among them
        if k >= 2:
            p[(j + 1) % k] = -PROB_TOL  # and a disease entry at the lower limit
        p[-1 if j % (k + 1) != k else 0] += 1.0 - math.fsum(p)
        points.append(p)
    points += [np.eye(k + 1)[0], np.eye(k + 1)[-1]]
    for p in points:
        got = step_full(dist, p)
        for gi, want in zip(got[:-1].tolist(), exact_step(dist, p)):
            assert within_bound(gi, *want)
        assert got[-1] == 1.0 - got[:-1].sum()
    x = np.concatenate([[0.0, 1.0 / k], rng.random(200) / k])
    for xi, gi in zip(x.tolist(), scalar_eval(ScalarMapSpec(dist, k), x).tolist()):
        assert within_bound(gi, *exact_map(dist, k, xi))


class _Coin:
    """Stands in for combine_children's rng: records whether the retention coin was
    tossed and lets the disease win, so the caller can weight the outcome exactly."""

    def __init__(self):
        self.tossed = False

    def random(self):
        self.tossed = True
        return 1.0


def _height_one_oracle(dist, p, alpha):
    """Root distribution of a height-1 tree, by enumerating every child tuple."""
    k = len(p) - 1
    mass = {SANE: p[-1], **{d: p[d - 1] for d in range(1, k + 1)}}
    out = np.zeros(k + 1)
    for z, q in dist.support:
        for states in itertools.product(range(k + 1), repeat=z):
            weight = q * math.prod(mass[s] for s in states)
            coin = _Coin()
            root = combine_children(list(states), alpha, coin)
            if root == SANE:
                out[-1] += weight
                continue
            m = sum(s != SANE for s in states)
            win = 1 - (1 - alpha) ** m if coin.tossed else 1.0
            out[root - 1] += weight * win
            out[-1] += weight * (1 - win)
    return out


@pytest.mark.parametrize("dist", [zary(2), zary(3), zary(4), make_offspring([(2, 0.4), (4, 0.6)])],
                         ids=["z2", "z3", "z4", "gw_2_4"])
@pytest.mark.parametrize("k", [1, 2, 3])
def test_height_one_step_matches_exhaustive_oracle(dist, k):
    rng = np.random.default_rng(10 * k + max(z for z, _ in dist.support))
    for p in rng.dirichlet(np.ones(k + 1), size=5):
        assert np.max(np.abs(step_full(dist, p) - _height_one_oracle(dist, p, None))) <= 1e-13
        for alpha in (0.3, 0.75, 1.0):
            oracle = _height_one_oracle(dist, p, alpha)
            assert np.max(np.abs(step_variant(dist, p, alpha) - oracle)) <= 1e-13


@given(st.floats(1e-6, 0.5), st.integers(2, 10))
@settings(max_examples=60, deadline=None)
def test_scalar_map_stays_in_domain(x, z):
    spec = zary_map(z, 2)
    y = scalar_eval(spec, x)
    assert 0.0 <= y <= 0.5


class TestIterate:
    def test_converged_binary_uniform(self):
        traj = iterate(stepper(zary(2)), uniform_profile(2))
        assert traj.stop_reason == "converged"
        assert np.allclose(traj.final, [1 / 3, 1 / 3, 1 / 3], atol=1e-9)

    def test_period2_detection(self):
        traj = iterate(lambda x: scalar_eval(zary_map(6, 2), x), 0.3)
        assert traj.stop_reason == "period2"
        assert abs(traj.states[-1] - traj.states[-3]) < traj.tol

    def test_max_iters(self):
        traj = iterate(lambda x: scalar_eval(zary_map(6, 2), x), 0.3, max_iters=5)
        assert traj.stop_reason == "max_iters"
        assert traj.iterations == 5

    def test_states_stay_within_the_byte_budget(self, monkeypatch):
        """Each kept state counts 8 bytes a float: six states fit the bytes of six, not one byte less."""
        run = functools.partial(iterate, lambda x: scalar_eval(zary_map(6, 2), x), 0.3, max_iters=5)
        six = 6 * 8
        monkeypatch.setattr(dynamics, "MAX_TRAJECTORY_BYTES", six)
        assert len(run().states) == 6
        monkeypatch.setattr(dynamics, "MAX_TRAJECTORY_BYTES", six - 1)
        with pytest.raises(DynamicsError, match=f"more than {six - 1} bytes after 5 steps"):
            run()

    def test_rows_grow_up_to_the_byte_budget(self, monkeypatch):
        """Past its first rows the array doubles, to at most the budget's 100 rows, and keeps every state."""
        monkeypatch.setattr(dynamics, "MAX_TRAJECTORY_BYTES", 100 * 8)
        traj = iterate(lambda x: x + 1.0, 0.0, max_iters=99)
        assert traj.stop_reason == "max_iters" and traj.states.tolist() == list(range(100))
        with pytest.raises(DynamicsError, match=f"more than {100 * 8} bytes after 100 steps"):
            iterate(lambda x: x + 1.0, 0.0, max_iters=10**5)

    def test_memory_follows_the_kept_states(self):
        """A run that stops long before max_iters allocates for the states it keeps, not for max_iters + 1.

        zary:5 at k = 50 stops on 'period2' after about 900 states of 51 floats; a first array of
        max_iters + 1 rows would take about 40 MB.
        """
        tracemalloc.start()
        try:
            traj = iterate(stepper(zary(5)), uniform_profile(50))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert len(traj.states) < dynamics.DEFAULT_MAX_ITERS // 10
        assert peak < 4 * len(traj.states) * traj.states[0].nbytes + 2**16

    @pytest.mark.parametrize("budget", [0, 23])
    def test_a_start_over_the_budget_raises(self, monkeypatch, budget):
        """A start of three floats (24 bytes) alone passes a budget of 23 bytes, or of none: no row fits."""
        monkeypatch.setattr(dynamics, "MAX_TRAJECTORY_BYTES", budget)
        with pytest.raises(DynamicsError, match=f"more than {budget} bytes after 0 steps"):
            iterate(stepper(zary(2)), uniform_profile(2), max_iters=5)

    @pytest.mark.parametrize("max_iters", [0, -3])
    def test_needs_a_positive_budget(self, max_iters):
        with pytest.raises(DynamicsError, match="max_iters"):
            iterate(stepper(zary(2)), uniform_profile(2), max_iters=max_iters)

    def test_variant_alpha_one_matches_standard(self):
        p = make_profile([0.5, 0.2, 0.3])
        t1 = iterate(stepper(zary(2)), p, max_iters=20)
        t2 = iterate(stepper(zary(2), 1.0), p, max_iters=20)
        assert np.array_equal(t1.final, t2.final)


class TestSerialization:
    def test_csv_vector(self):
        traj = iterate(stepper(zary(2)), uniform_profile(2), max_iters=3)
        lines = _csv_text(traj, {"k": 2}).strip().split("\n")
        assert lines[:2] == ['# config: {"k": 2}', "n,p_1,p_2,p_3"]
        assert len(lines) == len(traj.states) + 2
        # 17-significant-digit fields round-trip
        val = float(lines[2].split(",")[1])
        assert val == traj.states[0][0]

    def test_csv_scalar(self):
        traj = iterate(lambda x: scalar_eval(zary_map(2, 2), x), 0.2, max_iters=4)
        lines = _csv_text(traj, {}).strip().split("\n")
        assert lines[1] == "n,x"

    def test_json_obj(self):
        traj = iterate(stepper(zary(2)), uniform_profile(2), max_iters=3)
        fh = io.StringIO()
        write_trajectory_json(traj, fh, {"k": 2})
        obj = json.loads(fh.getvalue())
        assert obj["stop_reason"] == traj.stop_reason
        assert obj["states"][0] == [1 / 3, 1 / 3, 1 / 3]
        assert obj["config"] == {"k": 2}


def _written(traj, config):
    fh = io.StringIO()
    write_trajectory_json(traj, fh, config)
    return fh.getvalue()


def _csv_text(traj, config):
    fh = io.StringIO()
    write_trajectory_csv(traj, fh, config)
    return fh.getvalue()


def _dumped(traj, config):
    """The reference: the whole object through json.dumps."""
    states = [[float(v) for v in s] if np.ndim(s) else float(s) for s in traj.states]
    obj = {"stop_reason": traj.stop_reason, "iterations": traj.iterations, "tol": traj.tol,
           "states": states, "config": config}
    return json.dumps(obj, indent=2, sort_keys=True) + "\n"


EDGE_FLOATS = [5e-324, 1e-05, 0.0, 1.0, -0.0, 1e-300, 0.1, 1 / 3, 2.0**-1074 * 3, 1e16, 123456789.125]


def _repeating_trajectory(rows=1200, width=4):
    """Rows drawn from a few values: 0.0 and -0.0 in one row and in rows of their own, NaNs of two payloads."""
    nans = np.array([0x7FF8000000000001, 0xFFF0000000000002], dtype=np.uint64).view(float)
    pool = np.concatenate([[0.0, -0.0, 1 / 3, 0.1, 5e-324, 1.0, math.inf], nans])
    cells = pool[np.random.default_rng(7).integers(0, pool.size, size=(rows, width))]
    cells[0, :2] = 0.0, -0.0
    cells[1], cells[2] = 0.0, -0.0
    return Trajectory(list(cells), "max_iters", rows - 1)


TRAJECTORIES = pytest.mark.parametrize(
    "traj",
    [
        Trajectory([np.array(EDGE_FLOATS), np.array(EDGE_FLOATS[::-1])], "max_iters", 1, 1e-12),
        Trajectory([np.array([1.0, 0.0]), np.array([5e-324, 1.0])], "converged", 1),
        Trajectory([np.array([math.nan, math.inf, -math.inf])], "max_iters", 0),
        Trajectory(EDGE_FLOATS, "period2", 10, 1e-05),
        _repeating_trajectory(),
        iterate(stepper(zary(3)), uniform_profile(1), tol=1e-12),
        iterate(stepper(zary(3), 0.3), make_profile([0.4, 0.3, 0.3]), tol=1e-12),
        iterate(stepper(FIG_FE), dominant_profile(8, 4), tol=1e-12),
        iterate(lambda x: scalar_eval(zary_map(6, 2), x), 0.3, max_iters=7),
    ],
    ids=["edge_floats", "k1_edges", "non_finite", "scalar_edges", "repeating", "k1", "variant", "gw_dominant",
         "scalar_map"],
)


@TRAJECTORIES
def test_trajectory_writer_matches_json_dumps(traj):
    for config in ({"k": 1, "alpha": None, "offspring": "zary:3", "format": "json"}, {}, {"s": "a\n  \"states\": []"}):
        # as lists of lines, which pytest reports by their first difference (a diff of the long texts takes minutes)
        assert _written(traj, config).splitlines(True) == _dumped(traj, config).splitlines(True)


def _traced_write(write, traj):
    """write's tracemalloc peak on traj, and the sha256 of the text it wrote."""
    digest = hashlib.sha256()

    class Sink:
        def write(self, text):
            digest.update(text.encode())

    tracemalloc.start()
    try:
        write(traj, Sink(), {})
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    return peak, digest.hexdigest()


ROWS_OF_DISTINCT_FLOATS = pytest.mark.parametrize("shape", [(12, 20001), (1, 240001)], ids=["rows", "one_wide_row"])


@ROWS_OF_DISTINCT_FLOATS
def test_trajectory_writer_memory_stays_one_block(shape):
    """With no value repeated, the JSON writer holds one block of floats and its strings, not the trajectory's."""
    traj = Trajectory(list(np.random.default_rng(3).random(shape)), "max_iters", shape[0] - 1)
    peak, _ = _traced_write(write_trajectory_json, traj)
    # 240,012 floats: 1.8 MiB as float64, about 17 MiB as formatted strings; one row is copied at most
    assert peak < 8 * shape[1] + 3 * 2**20


@ROWS_OF_DISTINCT_FLOATS
def test_trajectory_csv_memory_stays_one_block(shape):
    """The CSV writer, header included, holds one block too (its whole text peaked at 117 MiB on one row of
    10^6 + 1 floats), and writes the reference text."""
    traj = Trajectory(list(np.random.default_rng(3).random(shape)), "max_iters", shape[0] - 1)
    peak, digest = _traced_write(write_trajectory_csv, traj)
    assert peak < 8 * shape[1] + 3 * 2**20
    assert digest == hashlib.sha256(_csv_written(traj, {}).encode()).hexdigest()


def _csv_written(traj, config):
    """The reference: the config line, then csv.writer with one .17g field per value."""
    buf = io.StringIO()
    buf.write("# config: " + json.dumps(config, sort_keys=True) + "\n")
    writer = csv.writer(buf, lineterminator="\n")
    first = traj.states[0]
    if np.isscalar(first) or isinstance(first, float):
        writer.writerow(["n", "x"])
        for n, x in enumerate(traj.states):
            writer.writerow([n, f"{float(x):.17g}"])
    else:
        writer.writerow(["n"] + [f"p_{i + 1}" for i in range(len(first))])
        for n, state in enumerate(traj.states):
            writer.writerow([n] + [f"{float(v):.17g}" for v in state])
    return buf.getvalue()


@TRAJECTORIES
def test_trajectory_csv_matches_csv_writer(traj):
    for config in ({"k": 1, "alpha": None, "offspring": "zary:3", "format": "csv"}, {}):
        assert _csv_text(traj, config).splitlines(True) == _csv_written(traj, config).splitlines(True)


@TRAJECTORIES
@pytest.mark.parametrize("block", [1, 3, 9])
def test_trajectory_writers_match_at_any_block(traj, block, monkeypatch):
    """Blocks of one float (every row in slices of one value), of a slice of a row, and of whole rows (two of the
    four-wide trajectories) write the reference texts too."""
    monkeypatch.setattr(cli, "_state_text", functools.partial(cli._state_text, block=block))
    assert _written(traj, {}).splitlines(True) == _dumped(traj, {}).splitlines(True)
    assert _csv_text(traj, {}).splitlines(True) == _csv_written(traj, {}).splitlines(True)
