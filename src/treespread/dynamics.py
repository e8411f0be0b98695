"""Root-distribution recursion and the scalar map it reduces to.

The state of the root of a height-n tree has distribution p(n) = F^n(p) where

    F_i(p) = G(p_sane + p_i) - G(p_sane)        for disease coordinates,
    F_sane = 1 - sum of the others.

In the uniform case (all k disease masses equal to x) this collapses to the
scalar map f(x) = G(1-(k-1)x) - G(1-kx) on (0, 1/k], which the map and its
derivatives evaluate elementwise on arrays of points.  The retention variant
replaces the disease coordinate update by a three-term formula parametrised by
alpha in (0,1]; it is a rule of the recursion only.  Every difference of G here
is one call of offspring's term loop with a gap, never a subtraction of two
values of G: f is G(a) - G(a - x) with a = 1-(k-1)x, and a step is
G(a) - G(a - alpha d) with a = p_sane + d, plus G((1-alpha)d) when alpha < 1.  At
alpha = 1, alpha d is d bit for bit, so the standard rule is the variant's
alpha = 1.  iterate keeps every state it computes in one float64 array, grown by
doubling to at most MAX_TRAJECTORY_BYTES.  Writing a trajectory to a file is the
command line's job (cli).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .offspring import PROB_TOL, OffspringDistribution, _clamped, _power_sum, _terms, pgf, zary

DEFAULT_TOL = 1e-10
DEFAULT_MAX_ITERS = 100_000
# the most diseases any entry point accepts: a profile holds k+1 masses, and from about 10^16 on
# the closed forms cannot tell k from k-1 in double precision
MAX_K = 10**6
# the most bytes the states of one trajectory may hold, at 8 bytes a float
MAX_TRAJECTORY_BYTES = 1 << 28


class DynamicsError(ValueError):
    """Invalid profile, map parameter, or evaluation outside the domain."""


@dataclass(frozen=True)
class DiseaseProfile:
    """Point of the simplex: k disease masses (non-increasing) plus the sane mass."""

    masses: tuple[float, ...]

    @property
    def k(self) -> int:
        return len(self.masses) - 1


def check_masses(masses, strict: bool = True) -> np.ndarray:
    """Validate a probability vector (p_1..p_k, p_sane) in any disease order; return it as a float array.

    Every entry must be finite and at most 1.  strict=True enforces the user-facing contract:
    every entry positive.  strict=False admits boundary points with zero mass (down to
    -PROB_TOL), which show up as embeddings of lower-dimensional dynamics and along
    trajectories.  A vector passes when its exact sum, rounded once (math.fsum), is within PROB_TOL
    of 1, so the verdict does not depend on k or on the order of its entries.  np.sum settles the
    vectors whose rounded sum is further inside than its error bound; math.fsum settles the rest.
    """
    v = np.asarray(masses, dtype=float)
    if v.ndim != 1 or v.size < 2:
        raise DynamicsError("profile needs at least one disease mass and the sane mass, as a flat vector")
    # NaN fails both comparisons, and an infinite entry the second
    inside = (v > 0.0 if strict else v >= -PROB_TOL) & (v <= 1.0 + PROB_TOL)
    if not inside.all():
        m = float(v[np.argmin(inside)])
        raise DynamicsError(f"profile entry {m!r} outside {'(0' if strict else '[0'}, 1]")
    if abs(float(v.sum()) - 1.0) > PROB_TOL - _sum_slack(v.size):
        total = math.fsum(v.data)  # the buffer yields Python floats, faster to sum than numpy scalars
        if abs(total - 1.0) > PROB_TOL:
            raise DynamicsError(f"profile sums to {total!r}, not 1 within {PROB_TOL}")
    return v


def _sum_slack(n: int) -> float:
    """Bound on |np.sum(v) - fl(sum v)| for n entries in [-PROB_TOL, 1 + PROB_TOL] with np.sum(v) in [0, 2].

    np.sum of a float64 vector is numpy's pairwise summation: runs of at most 128 entries go through
    eight accumulators (at most 15 + 3 + 7 = 25 additions an entry), halving joins the runs (fewer
    than 2 log2(n) levels, one addition each), the reduction adds its first entry, and a buffered
    reduction chains chunks of 8192 entries.  So no entry passes through more than
    d = 2 * bit_length(n) + 32 + n // 8192 roundings, and |np.sum(v) - sum v| <= gamma_d * sum|v|
    with gamma_d = d u / (1 - d u) <= (d + 1) u, u = 2^-53 (Higham, Accuracy and Stability of
    Numerical Algorithms, section 4.2).  Rounding sum v once moves it by at most u sum|v|, and
    entries of at least -PROB_TOL with np.sum <= 2 give sum|v| <= 2 + 2 n PROB_TOL + gamma_d sum|v|
    <= 3 + 3 n PROB_TOL.  The bound is twice (d + 2) u (3 + 3 n PROB_TOL): the spare half covers the
    roundings of the comparison that uses it.
    """
    d = 2 * n.bit_length() + 32 + n // 8192
    return 2.0 * (d + 2) * 2.0**-53 * (3.0 + 3.0 * n * PROB_TOL)


def make_profile(masses) -> DiseaseProfile:
    """Validate a profile vector (p_1..p_k, p_sane) as check_masses does, every entry positive, in canonical order."""
    v = check_masses(masses)
    if (v[1:-1] > v[:-2]).any():
        raise DynamicsError("disease masses must be non-increasing (canonical ordering)")
    return DiseaseProfile(tuple(v.tolist()))


def uniform_profile(k: int) -> DiseaseProfile:
    """All k+1 coordinates equal."""
    _check_k(k)
    return make_profile([1.0 / (k + 1)] * (k + 1))


def dominant_profile(k: int, i: int) -> DiseaseProfile:
    """Profile with i strictly dominant diseases, k-i smaller ones, sane mass 0.2."""
    _check_k(k)
    _check_dominant(i, k)
    lead = 0.8 / (i + 0.5 * (k - i))
    masses = [lead] * i + [lead / 2] * (k - i)
    return make_profile(masses + [1.0 - math.fsum(masses)])


def _check_k(k: int) -> None:
    if not 1 <= k <= MAX_K:
        raise DynamicsError(f"need 1 <= k <= {MAX_K} diseases, got {k}")


def _check_dominant(i: int, k: int) -> None:
    if not 1 <= i <= k:
        raise DynamicsError(f"dominant count {i} outside [1, {k}]")


def _check_alpha(alpha: float) -> None:
    if not 0.0 < alpha <= 1.0:
        raise DynamicsError(f"alpha {alpha!r} outside (0,1]")


def _check_max_iters(max_iters: int) -> None:
    if not max_iters >= 1:
        raise DynamicsError(f"max_iters must be >= 1, got {max_iters!r}")


@dataclass(frozen=True)
class ScalarMapSpec:
    """The standard rule's scalar map f_k (general law) or f_{z,k} (z-ary)."""

    dist: OffspringDistribution
    k: int

    def __post_init__(self):
        _check_k(self.k)


def zary_map(z: int, k: int) -> ScalarMapSpec:
    return ScalarMapSpec(zary(z), k)


def _check_x(x, k: int):
    """x within PROB_TOL of [0, 1/k], clamped to it (see offspring._clamped); x further out raises."""
    clamped = _clamped(x, 1.0 / k)
    if clamped is None:
        raise DynamicsError(f"x={np.asarray(x, dtype=float).tolist()!r} outside the map domain (0, 1/{k}]")
    return clamped


def scalar_eval(spec: ScalarMapSpec, x):
    """f(x) = G(a) - G(a - x) with a = 1-(k-1)x, on (0, 1/k], elementwise.

    x=0 is accepted and maps to 0; a scalar x gives a float.
    """
    x = _check_x(x, spec.k)
    # a stays 0-d for a 0-d x: arithmetic on a 0-d array gives a numpy scalar, whose ** is the C pow
    f = _terms(spec.dist, np.asarray(1.0 - (spec.k - 1) * x), 0, x)
    return float(f) if x.ndim == 0 else f


def scalar_deriv(spec: ScalarMapSpec, x, order: int = 1):
    """Analytic derivative of f at x, order 1 or 2, elementwise.

    f' = G'(a) - k [G'(a) - G'(a - x)] and f'' = k^2 [G''(a) - G''(a - x)] - (2k-1) G''(a), each bracket
    one difference of the term loop.
    """
    if order not in (1, 2):
        raise DynamicsError(f"derivative order must be 1 or 2, got {order}")
    x = _check_x(x, spec.k)
    k, dist = spec.k, spec.dist
    a = np.asarray(1.0 - (k - 1) * x)  # 0-d for a 0-d x, as in scalar_eval
    g, diff = _terms(dist, a, order), _terms(dist, a, order, x)
    d = g - k * diff if order == 1 else k * k * diff - (2 * k - 1) * g
    return float(d) if x.ndim == 0 else d


def _step(dist: OffspringDistribution, v: np.ndarray, alpha: float) -> np.ndarray:
    sane, d = v[-1], v[:-1]
    out = np.empty_like(v)
    # G(a) - G(a - alpha d) with a = sane + d; at alpha = 1, alpha * d is d and a - d stands for sane
    out[:-1] = _power_sum(dist, np.minimum(sane + d, 1.0), 0, alpha * d)
    if alpha < 1.0:
        out[:-1] += pgf(dist, (1 - alpha) * d)
    out[-1] = 1.0 - out[:-1].sum()
    return out


def step_full(dist: OffspringDistribution, p) -> np.ndarray:
    """One step of the exact recursion: p_i -> G(p_sane + p_i) - G(p_sane)."""
    return _step(dist, check_masses(p, strict=False), 1.0)


def step_variant(dist: OffspringDistribution, p, alpha: float) -> np.ndarray:
    """One step of the retention-variant recursion with shared alpha in (0,1]."""
    _check_alpha(alpha)
    return _step(dist, check_masses(p, strict=False), alpha)


@dataclass
class Trajectory:
    """Iterates of a stepper, one row of `states` each, with the reason iteration stopped."""

    states: np.ndarray
    stop_reason: str  # converged | period2 | max_iters
    iterations: int
    tol: float = DEFAULT_TOL

    @property
    def final(self):
        return self.states[-1]


def stepper(dist: OffspringDistribution, alpha: float | None = None):
    """The recursion step p -> F(p): step_full when alpha is None, else step_variant at alpha."""
    if alpha is None:
        return lambda p: step_full(dist, p)
    return lambda p: step_variant(dist, p, alpha)


def _dist_inf(a, b) -> float:
    return float(np.abs(np.subtract(a, b)).max())


def iterate(step, start, max_iters: int = DEFAULT_MAX_ITERS, tol: float = DEFAULT_TOL) -> Trajectory:
    """Iterate a stepper until successive states settle.

    Stops with 'converged' when the sup distance of consecutive states drops
    below tol, with 'period2' when states two apart agree below tol while
    consecutive ones do not, and with 'max_iters' otherwise.  Longer periods
    are deliberately not detected here; use analysis.find_orbit.  Every state is
    kept as a row of one float64 array, which doubles its rows as they fill, and a
    state that would take it past MAX_TRAJECTORY_BYTES raises.
    """
    if not (tol > 0.0 and np.isfinite(tol)):
        raise DynamicsError(f"tol {tol!r} is not a positive finite number")
    _check_max_iters(max_iters)
    x = np.asarray(start.masses) if isinstance(start, DiseaseProfile) else start
    row = np.asarray(x, dtype=float)
    # the start and max_iters steps, or as many rows as the budget holds (none when the start passes it)
    cap = min(max_iters + 1, MAX_TRAJECTORY_BYTES // max(row.nbytes, 1))
    states = np.empty((min(cap, 64), *row.shape))
    for n in range(max_iters + 1):
        if n == len(states):
            if n == cap:
                raise DynamicsError(
                    f"the trajectory's states would hold more than {MAX_TRAJECTORY_BYTES} bytes after {n} steps;"
                    " lower max_iters"
                )
            # in place, by realloc, so a large array is remapped rather than copied beside itself;
            # refcheck=False is safe as no view of states outlives a step
            states.resize((min(2 * n, cap), *row.shape), refcheck=False)
        if n:
            x = step(x)  # the step's own value goes on, so a scalar map keeps getting Python floats
        states[n] = x
        if n and _dist_inf(x, states[n - 1]) < tol:
            return Trajectory(states[: n + 1], "converged", n, tol)
        if n >= 2 and _dist_inf(x, states[n - 2]) < tol:
            return Trajectory(states[: n + 1], "period2", n, tol)
    return Trajectory(states, "max_iters", max_iters, tol)
