"""Finite-support offspring laws and their generating functions.

An offspring law here always lives in the Boetcher regime: no mass at 0 or 1,
so every node of the tree has at least two children and the mean is >= 2.
The generating function G(s) = sum_z q_z s^z and its derivatives are evaluated
by one loop over the support, elementwise for a float or an array.  The same
loop gives a difference G^(order)(s) - G^(order)(s - g) term by term as
c s^m (-expm1(m log1p(-g/s))), which subtracts nothing: each term, and so their
sum, keeps its relative accuracy however close s - g is to s.
"""

from __future__ import annotations

import json
import math
import numbers
import operator
from dataclasses import dataclass

import numpy as np

PROB_TOL = 1e-12
# the largest child count of an atom, as input validation: no law of the tests or the benchmark has an atom
# above 50.  Work grows with the number of atoms, not their size, at one numpy pass per atom an evaluation:
# at k = 2 (2 CPUs) `analyze` of zary:10^4 takes 2 ms; a law of 10^3 atoms (z = 2..1001) takes 0.02 s to
# analyze, 0.5 s for orbit and 11 s for basin (1000 starts); one of 9999 atoms (z = 2..10^4) 0.23 s, 12 s,
# and over 15 minutes
MAX_CHILDREN = 10**4


class OffspringError(ValueError):
    """Invalid offspring distribution or evaluation outside its domain."""


@dataclass(frozen=True)
class OffspringDistribution:
    """Law q of the child count N, as a sorted tuple of (z, q_z) atoms."""

    support: tuple[tuple[int, float], ...]

    @property
    def mean(self) -> float:
        return sum(z * q for z, q in self.support)

    @property
    def is_deterministic(self) -> bool:
        return len(self.support) == 1

    @property
    def z_value(self) -> int:
        """Child count of a deterministic (z-ary) law."""
        if not self.is_deterministic:
            raise OffspringError("not a deterministic z-ary law")
        return self.support[0][0]


def make_offspring(masses) -> OffspringDistribution:
    """Validate and build an offspring law from (z, q_z) pairs.

    Rejects anything but a sequence of pairs, mass at z in {0, 1}, child counts above
    MAX_CHILDREN, a mass that is no real number (a bool or a string among them) or not positive,
    duplicate atoms, total mass differing from 1 by more than 1e-12, and mean below 2.  A single
    atom is stored with mass 1.0, as zary(z).
    """
    try:
        masses = list(masses)
    except TypeError:
        raise OffspringError(f"offspring masses must be a list of [z, q] pairs, got {masses!r}") from None
    if not masses:
        raise OffspringError("offspring law needs at least one atom")
    seen = set()
    cleaned = []
    for atom in masses:
        try:
            z, q = atom
        except (TypeError, ValueError):
            raise OffspringError(f"offspring atom {atom!r} is not a [z, q] pair") from None
        if isinstance(z, float) and z.is_integer():
            z = int(z)
        elif isinstance(z, bool) or not hasattr(z, "__index__"):
            raise OffspringError(f"child count must be an integer, got {z!r}")
        z = operator.index(z)
        if z in (0, 1):
            raise OffspringError(f"mass at z={z} breaks the Boetcher assumption q0+q1=0")
        if z < 0:
            raise OffspringError(f"negative child count z={z}")
        if z > MAX_CHILDREN:
            raise OffspringError(f"child count z={z} above {MAX_CHILDREN}")
        if z in seen:
            raise OffspringError(f"duplicate atom at z={z}")
        seen.add(z)
        if isinstance(q, bool) or not isinstance(q, numbers.Real):
            raise OffspringError(f"mass q_{z}={q!r} is not a number")
        if not 0.0 < q <= 1.0:  # also rejects NaN, and an int too large for a float
            raise OffspringError(f"mass q_{z}={q} outside (0,1]")
        cleaned.append((z, float(q)))
    total = sum(q for _, q in cleaned)
    if abs(total - 1.0) > PROB_TOL:
        raise OffspringError(f"masses sum to {total!r}, not 1 within {PROB_TOL}")
    if len(cleaned) == 1:  # a lone atom is zary(z), so every layer sees the same map
        cleaned = [(cleaned[0][0], 1.0)]
    dist = OffspringDistribution(tuple(sorted(cleaned)))
    if dist.mean < 2.0 - PROB_TOL:
        raise OffspringError(f"mean child count {dist.mean} < 2")
    return dist


def zary(z: int) -> OffspringDistribution:
    """Deterministic z-ary tree: all mass on z."""
    return make_offspring([(z, 1.0)])


def parse_offspring(text: str) -> OffspringDistribution:
    """Parse CLI shorthand 'zary:Z' or a JSON object {"masses": [[z, q], ...]}."""
    text = text.strip()
    if text.startswith("zary:"):
        try:
            z = int(text.split(":", 1)[1])
        except ValueError as exc:
            raise OffspringError(f"bad zary shorthand {text!r}") from exc
        return zary(z)
    try:
        obj = json.loads(text)
    except json.JSONDecodeError as exc:
        raise OffspringError(f"offspring spec is neither 'zary:Z' nor JSON: {text!r}") from exc
    if not isinstance(obj, dict) or "masses" not in obj:
        raise OffspringError('JSON offspring spec must be {"masses": [[z, q], ...]}')
    return make_offspring(obj["masses"])


def _clamped(s, upper: float):
    """s as a float array clamped to [0, upper], or None when a value lies more than PROB_TOL outside.

    One min and one max settle the common case, s already inside; only s past a bound, or holding a
    NaN (which passes, and stays NaN), is checked and clamped elementwise.  A 0-d s stays a 0-d array.
    """
    s = np.asarray(s, dtype=float)
    if s.size and not (s.min() >= 0.0 and s.max() <= upper):
        if ((s < -PROB_TOL) | (s > upper + PROB_TOL)).any():
            return None
        s = np.asarray(s.clip(0.0, upper))
    return s


def _power_sum(dist: OffspringDistribution, s, order: int, gap=None):
    """_terms(dist, s, order, gap) elementwise, with s checked; a float for a scalar s.

    s within PROB_TOL of [0, 1] is clamped to it (see _clamped), and s further out raises.
    """
    # a scalar stays a 0-d array, so it takes the same numpy power loop as a batch
    clamped = _clamped(s, 1.0)
    if clamped is None:
        raise OffspringError(f"generating function argument {np.asarray(s, dtype=float).tolist()!r} outside [0,1]")
    total = _terms(dist, clamped, order, gap)
    return float(total) if clamped.ndim == 0 else total


def _terms(dist: OffspringDistribution, s, order: int, gap=None):
    """G^(order)(s) = sum_z c_z s^m, c_z = q_z z(z-1)...(z-order+1) and m = z-order, unchecked.

    With a gap g, G^(order)(s) - G^(order)(s - g): each term is c_z s^m (-expm1(m log1p(-g/s))), 0 for
    m = 0.  s and g are float arrays, or Python floats with 0 < g (then math's log1p and expm1, and C pow).
    g/s is taken in [-1/16, 1]; at 1, log1p gives -inf and the term is c_z s^m, and at s = 0 every term is 0.
    """
    if gap is None:
        log_ratio = None
    elif type(s) is float:
        log_ratio, expm1 = (math.log1p(-gap / s) if gap < s else -math.inf), math.expm1
    else:
        with np.errstate(divide="ignore", invalid="ignore"):
            # fmin drops the NaN of 0/0.  Only a step's gap within PROB_TOL below 0, over an s under
            # 16 PROB_TOL, goes below -1/16, where each term of G is under 1e-21; the bound keeps
            # (1 - g/s)^m under 1e264 for every m up to MAX_CHILDREN
            log_ratio, expm1 = np.log1p(-np.fmax(np.fmin(gap / s, 1.0), -0.0625)), np.expm1
    total = 0.0
    for z, q in dist.support:
        c = q
        for j in range(order):
            c *= z - j
        m = z - order
        if log_ratio is None:
            total = total + c * s**m
        elif m:
            total = total - c * s**m * expm1(m * log_ratio)
    return total


def pgf(dist: OffspringDistribution, s):
    """G(s) = sum_z q_z s^z on [0,1], elementwise; arguments within 1e-12 of it are clamped."""
    return _power_sum(dist, s, 0)


def pgf_deriv(dist: OffspringDistribution, s, order: int = 1):
    """Exact polynomial derivative of G at s, order 1 or 2, elementwise for an array s."""
    if order not in (1, 2):
        raise OffspringError(f"derivative order must be 1 or 2, got {order}")
    return _power_sum(dist, s, order)
