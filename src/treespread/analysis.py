"""Fixed points, periodic orbits, and basins of the scalar maps.

Every scalar map is the standard rule's.  Fixed points are located by bisection
on the strictly decreasing auxiliary function
h(x) = sum_z q_z sum_{j<z} (1-(k-1)x)^{z-1-j} (1-kx)^j - 1, whose unique zero
on (0, 1/k] is the fixed point of f.  Orbit search evaluates f^p(x) - x on a
whole grid in one call, bisects every sign-changing cell at once and keeps the
roots of minimal period p, those that f^(p/2) moves; it runs on any offspring
law.  Bisection runs on arrays of brackets and stops once every midpoint
equals an endpoint (the one bracket of a fixed point takes the same steps on
Python floats).  analysis_bundle finds each fixed point it reports on once.
Basin classification advances all unresolved starts in lockstep, one f^2 call
per step, and watches which candidate each even-index subsequence settles on.
The reports are plain data: the command line (cli) writes them to files.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, field

import numpy as np

from .dynamics import DynamicsError, ScalarMapSpec, _check_max_iters, scalar_deriv, scalar_eval, zary_map
from .offspring import OffspringDistribution, pgf_deriv, zary

BISECT_ITERS = 200
CLASSIFY_DEADZONE = 1e-9
ORBIT_GRID_CELLS = 10_000
ORBIT_EXCLUSION = 1e-8


class AnalysisError(RuntimeError):
    """Internal failure of a root bracket that valid specs cannot trigger."""


@dataclass(frozen=True)
class FixedPointReport:
    x_bar: float
    multiplier: float
    classification: str  # attracting | repelling | indeterminate
    residual: float
    lower_bound: float | None = None
    upper_bound: float | None = None


@dataclass(frozen=True)
class CriticalPointReport:
    x_hat: float
    f_at_x_hat: float
    x_star: float | None  # inflection point; undefined for z=2


@dataclass(frozen=True)
class OrbitReport:
    period: int
    points: tuple[float, ...]  # ascending
    multiplier: float
    stable: bool


@dataclass
class BasinReport:
    starts: list[float]
    verdicts: list[str]  # orbit_left | orbit_right | fixed_point | unresolved
    iterations: list[int]
    fractions: dict[str, float] = field(default_factory=dict)


def _h(dist: OffspringDistribution, k: int, x: float) -> float:
    a = 1.0 - (k - 1) * x
    b = 1.0 - k * x
    total = 0.0
    for z, q in dist.support:
        s = 0.0
        for j in range(z):
            s += a ** (z - 1 - j) * b**j
        total += q * s
    return total - 1.0


def _bisect(g, lo, hi):
    """Root of g in each bracket [lo[i], hi[i]], bisecting all brackets at once.

    Stops when every midpoint equals an endpoint (the bracket is two adjacent
    doubles, where further steps change nothing) or after BISECT_ITERS steps.
    A 0-d bracket runs the same steps on Python floats and returns a float.
    """
    if np.ndim(lo) == 0:
        # one bracket (a fixed point's) takes the array branch's steps, stop rule, endpoint returns
        # and final midpoint on Python floats, without numpy's per-call overhead; float ** calls
        # the C library pow, as the numpy scalars it replaces did, so x_bar keeps every bit
        # (numpy's array power can differ from pow by an ULP and move x_bar)
        a, b = float(lo), float(hi)
        glo, ghi = g(a), g(b)
        if glo != 0.0 and ghi != 0.0 and (glo > 0) == (ghi > 0):
            raise AnalysisError(f"no sign change on the bracket [{a}, {b}]")
        if glo == 0.0 or ghi == 0.0:
            return a if glo == 0.0 else b
        lo_pos = glo > 0
        for _ in range(BISECT_ITERS):
            mid = 0.5 * (a + b)
            if mid == a or mid == b:
                break
            if (g(mid) > 0) == lo_pos:
                a = mid
            else:
                b = mid
        return 0.5 * (a + b)
    lo, hi = np.asarray(lo, dtype=float), np.asarray(hi, dtype=float)
    glo, ghi = g(lo), g(hi)
    if np.any((glo != 0.0) & (ghi != 0.0) & ((glo > 0) == (ghi > 0))):
        raise AnalysisError(f"no sign change on some bracket in [{lo.min()}, {hi.max()}]")
    lo_pos = glo > 0
    a, b = lo, hi
    for _ in range(BISECT_ITERS):
        mid = 0.5 * (a + b)
        if np.all((mid == a) | (mid == b)):
            break
        left = (g(mid) > 0) == lo_pos
        a, b = np.where(left, mid, a), np.where(left, b, mid)
    return np.where(glo == 0.0, lo, np.where(ghi == 0.0, hi, 0.5 * (a + b)))


def _classify(multiplier: float) -> str:
    if abs(multiplier) < 1.0 - CLASSIFY_DEADZONE:
        return "attracting"
    if abs(multiplier) > 1.0 + CLASSIFY_DEADZONE:
        return "repelling"
    return "indeterminate"


def find_fixed_point(spec: ScalarMapSpec) -> FixedPointReport:
    """Unique fixed point of f on (0, 1/k], by bisection on the monotone h."""
    dist, k = spec.dist, spec.k
    hi = 1.0 / k
    h_hi = _h(dist, k, hi)
    if h_hi >= 0.0:
        # h(1/k) = sum q_z k^{-(z-1)} - 1, which is 0 exactly when k = 1
        x_bar = hi
    else:
        x_bar = _bisect(lambda x: _h(dist, k, x), 1e-300, hi)
    mult = scalar_deriv(spec, x_bar, 1)
    lower = upper = None
    if spec.is_zary and k >= 2:
        lower, upper = framing_bounds(dist.z_value, k)
    return FixedPointReport(
        x_bar=x_bar,
        multiplier=mult,
        classification=_classify(mult),
        residual=abs(scalar_eval(spec, x_bar) - x_bar),
        lower_bound=lower,
        upper_bound=upper,
    )


def framing_bounds(z: int, k: int) -> tuple[float, float]:
    """Closed-form bracket (x_tilde_{z,k}, x_tilde_{z,k-1}) around the z-ary fixed point."""
    if z < 2 or k < 2:
        raise DynamicsError(f"framing bounds need z >= 2 and k >= 2, got ({z}, {k})")
    return (x_tilde(z, k), x_tilde(z, k - 1))


def x_tilde(z: int, k: int) -> float:
    """(1/k)(1 - z^(-1/(z-1))), the value where z(1-kx)^(z-1) = 1."""
    return (1.0 - z ** (-1.0 / (z - 1))) / k


def critical_points(z: int, k: int) -> CriticalPointReport:
    """Closed-form maximum x_hat and (for z >= 3) inflection point x_star of f_{z,k}."""
    if z < 2 or k < 1:
        raise DynamicsError(f"need z >= 2 and k >= 1, got ({z}, {k})")
    spec = zary_map(z, k)  # checks k before the closed forms divide by powers of k less those of k-1
    e1 = 1.0 / (z - 1)
    x_hat = (k**e1 - (k - 1) ** e1) / (k ** (z * e1) - (k - 1) ** (z * e1))
    x_star = None
    if z >= 3:
        e2 = 2.0 / (z - 2)
        x_star = (k**e2 - (k - 1) ** e2) / (k ** (z * e2 / 2) - (k - 1) ** (z * e2 / 2))
    return CriticalPointReport(x_hat=x_hat, f_at_x_hat=scalar_eval(spec, x_hat), x_star=x_star)


def asymptotic_multiplier(z: int) -> float:
    """Limit of f'_{z,k} at the fixed point as k -> infinity."""
    if z < 2:
        raise DynamicsError(f"need z >= 2, got {z}")
    a = z ** (1.0 / (z - 1))
    return 1.0 - (z - 1) * a * (1.0 - 1.0 / a)


def nonuniform_spectrum(z: int, k: int, i: int, fixed: FixedPointReport | None = None) -> list[float]:
    """Eigenvalues of the linearised truncated recursion at the i-dominant fixed point.

    The first value is the scalar multiplier of f_{z,i}; the second, repeated
    k-i times, governs the decay of the minor diseases.  `fixed` is f_{z,i}'s
    fixed point if the caller has it already.
    """
    if not 1 <= i <= k:
        raise DynamicsError(f"dominant count {i} outside [1, {k}]")
    if fixed is None:
        fixed = find_fixed_point(zary_map(z, i))
    lam2 = pgf_deriv(zary(z), 1.0 - i * fixed.x_bar)  # G'(1 - i x_bar)
    return [fixed.multiplier] + [lam2] * (k - i)


def _iter_map(spec: ScalarMapSpec, x, times: int):
    for _ in range(times):
        x = scalar_eval(spec, x)
    return x


def _grid_roots(g, lo: float, hi: float) -> list[float]:
    """Zeros of g: grid points where it vanishes and a root in every sign-changing cell."""
    x = lo + (hi - lo) * np.arange(ORBIT_GRID_CELLS + 1) / ORBIT_GRID_CELLS
    v = g(x)
    pos = v > 0
    exact = v[1:] == 0.0
    change = ~exact & (pos[1:] != pos[:-1])
    return sorted(x[1:][exact].tolist() + _bisect(g, x[:-1][change], x[1:][change]).tolist())


def find_orbit(spec: ScalarMapSpec, period: int) -> OrbitReport | None:
    """Locate a period-2 or period-4 orbit of the standard scalar map, or None if absent.

    One scan of f^p(x) - x over the whole domain (1e-12, 1/k] finds the roots, and
    a root is kept when it has minimal period p: f^(p/2) moves it by more than
    ORBIT_EXCLUSION, which drops the fixed point and, for p = 4, every fixed point
    of f^2.  The search calls nothing z-ary, so it runs on any offspring law.
    """
    if period not in (2, 4):
        raise DynamicsError(f"orbit period must be 2 or 4, got {period}")
    roots = np.array(_grid_roots(lambda x: _iter_map(spec, x, period) - x, 1e-12, 1.0 / spec.k))
    remaining = roots[np.abs(_iter_map(spec, roots, period // 2) - roots) > ORBIT_EXCLUSION].tolist()
    if not remaining:
        return None

    # group the roots of minimal period p into cycles and prefer a stable one
    cycles = []
    while remaining:
        y = remaining[0]
        cycle = [y]
        for _ in range(period - 1):
            cycle.append(scalar_eval(spec, cycle[-1]))
        remaining = [r for r in remaining if all(abs(r - c) > ORBIT_EXCLUSION for c in cycle)]
        mult = 1.0
        for c in cycle:
            mult *= scalar_deriv(spec, c, 1)
        cycles.append(OrbitReport(period, tuple(sorted(cycle)), mult, abs(mult) < 1.0))
    stable = [c for c in cycles if c.stable]
    return stable[0] if stable else cycles[0]


def check_orbit_conditions(z: int, i: int, fixed: FixedPointReport | None = None) -> tuple[bool, bool, bool]:
    """The three numeric conditions under which the period-2 attracting-orbit result applies.

    (1) the fixed point is repelling, f'(x_bar) < -1;
    (2) the second iterate of the maximum stays above it, f(f(x_hat)) > x_hat;
    (3) the right endpoint maps below the maximum, f(1/i) < x_hat.

    `fixed` is f_{z,i}'s fixed point if the caller has it already.
    """
    spec = zary_map(z, i)
    x_hat = critical_points(z, i).x_hat
    if fixed is None:
        fixed = find_fixed_point(spec)
    cond1 = fixed.multiplier < -1.0
    cond2 = _iter_map(spec, x_hat, 2) > x_hat
    cond3 = scalar_eval(spec, 1.0 / i) < x_hat
    return (cond1, cond2, cond3)


BASIN_BALL = 1e-8
BASIN_CONFIRM_STEPS = 10


def basin_classify(
    spec: ScalarMapSpec,
    starts,
    max_iters: int = 100_000,
    orbit: OrbitReport | None = None,
) -> BasinReport:
    """Classify starts by the limit of the even-index subsequence of iterates.

    Membership requires staying within BASIN_BALL of a candidate (orbit point or the
    fixed point) for BASIN_CONFIRM_STEPS consecutive even steps, which guards
    against slow transit past the repelling fixed point.  The orbit must be
    attracting: no start settles on a repelling one, so every start would run
    all max_iters steps and end unresolved.
    """
    _check_max_iters(max_iters)
    if orbit is None:
        orbit = find_orbit(spec, 2)
    if orbit is None or not orbit.stable:
        raise DynamicsError("basin classification needs an attracting period-2 orbit; none found")
    names = ["orbit_left", "orbit_right", "fixed_point", "unresolved"]
    # label i < 3 means within BASIN_BALL of candidate i; -1 means none (and, as a verdict, unresolved)
    targets = np.array([orbit.points[0], orbit.points[-1], find_fixed_point(spec).x_bar])

    starts = [float(s) for s in starts]
    verdict = np.full(len(starts), -1)
    iters = np.full(len(starts), max_iters)
    # the unresolved starts: their indices, positions, current labels and streak lengths
    idx = np.arange(len(starts))
    x = np.array(starts, dtype=float)
    streak_label = np.full(len(starts), -1)
    streak = np.zeros(len(starts), dtype=int)
    for n in range(max_iters):
        # written fixed point, right, left: where balls overlap, the first target in `targets` wins
        label = np.full(x.size, -1)
        for t in (2, 1, 0):
            label[np.abs(x - targets[t]) < BASIN_BALL] = t
        same = (label >= 0) & (label == streak_label)
        streak = np.where(same, streak + 1, label >= 0)
        done = same & (streak >= BASIN_CONFIRM_STEPS)
        if done.any():
            verdict[idx[done]] = label[done]
            iters[idx[done]] = n
            keep = ~done
            idx, x, label, streak = idx[keep], x[keep], label[keep], streak[keep]
        if not idx.size:
            break
        streak_label = label
        x = _iter_map(spec, x, 2)
    verdicts = [names[v] for v in verdict]
    fractions = {v: verdicts.count(v) / len(starts) if starts else 0.0 for v in names}
    return BasinReport(starts, verdicts, iters.tolist(), fractions)


def analysis_bundle(spec: ScalarMapSpec, i: int | None = None) -> dict:
    """One JSON-ready report combining every analysis product for a spec."""
    if i is not None and not spec.is_zary:
        raise DynamicsError(f"dominant count i={i} (spectrum and orbit conditions) needs a z-ary law")
    if i is not None and not 1 <= i <= spec.k:
        raise DynamicsError(f"dominant count {i} outside [1, {spec.k}]")
    fixed = find_fixed_point(spec)
    report = {"fixed_point": asdict(fixed)}
    if spec.is_zary:
        z, k = spec.dist.z_value, spec.k
        if k >= 2:
            report["framing_bounds"] = {"lower": fixed.lower_bound, "upper": fixed.upper_bound}
        report["critical_points"] = asdict(critical_points(z, k))
        report["asymptotic_multiplier"] = asymptotic_multiplier(z)
        # f_{z,j}'s fixed point, found once for the orbit conditions and the spectrum
        j = k if i is None else i
        fixed_j = fixed if j == k else find_fixed_point(zary_map(z, j))
        if z >= 3:
            c1, c2, c3 = check_orbit_conditions(z, j, fixed_j)
            report["orbit_conditions"] = [c1, c2, c3]
        if i is not None:
            report["nonuniform_spectrum"] = nonuniform_spectrum(z, k, i, fixed_j)
    return report
