"""Finite-support offspring laws and their generating functions.

An offspring law here always lives in the Boetcher regime: no mass at 0 or 1,
so every node of the tree has at least two children and the mean is >= 2.
The generating function G(s) = sum_z q_z s^z and its derivatives are evaluated
by direct power summation over the support, elementwise for a float or an
array, which is exact up to floating point for the small supports we care about.
"""

from __future__ import annotations

import json
import operator
from dataclasses import dataclass

import numpy as np

PROB_TOL = 1e-12
# the largest child count of an atom: the fixed-point search sums z terms per atom at every bisection
# step, and one `analyze` of zary:Z took 0.15 s at Z = 10^4, 1.3 s at 10^5 and 15 s at 10^6 (2 CPUs),
# so the bound keeps it well under a second; no law of the tests or the benchmark has an atom above 50
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
    MAX_CHILDREN, non-numeric or non-positive mass, duplicate atoms, total mass differing
    from 1 by more than 1e-12, and mean below 2.  A single atom is stored with mass 1.0,
    as zary(z).
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
        try:
            q = float(q)
        except (TypeError, ValueError):
            raise OffspringError(f"mass q_{z}={q!r} is not a number") from None
        if not 0.0 < q <= 1.0:  # also rejects NaN
            raise OffspringError(f"mass q_{z}={q} outside (0,1]")
        cleaned.append((z, q))
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


def _power_sum(dist: OffspringDistribution, s, order: int):
    """sum_z q_z z(z-1)...(z-order+1) s^(z-order), elementwise; a float for a scalar s.

    s within PROB_TOL of [0, 1] is clamped to it (see _clamped), and s further out raises.
    """
    # a scalar stays a 0-d array, so it takes the same numpy power loop as a batch
    clamped = _clamped(s, 1.0)
    if clamped is None:
        raise OffspringError(f"generating function argument {np.asarray(s, dtype=float).tolist()!r} outside [0,1]")
    s = clamped
    total = 0.0
    for z, q in dist.support:
        c = q
        for j in range(order):
            c *= z - j
        total = total + c * s ** (z - order)
    return float(total) if s.ndim == 0 else total


def pgf(dist: OffspringDistribution, s):
    """G(s) = sum_z q_z s^z on [0,1], elementwise; arguments within 1e-12 of it are clamped."""
    return _power_sum(dist, s, 0)


def pgf_deriv(dist: OffspringDistribution, s, order: int = 1):
    """Exact polynomial derivative of G at s, order 1 or 2, elementwise for an array s."""
    if order not in (1, 2):
        raise OffspringError(f"derivative order must be 1 or 2, got {order}")
    return _power_sum(dist, s, order)
