"""Test oracles: the combine rule on scalar node states, and the evaluation core in exact arithmetic."""

import math

from treespread import SimulationError

SANE = 0  # scalar node state for a non-infected node; diseases are 1..k


def combine_children(states, alpha: float | None = None, rng=None):
    """Parent state from a list of child states (ints, 0 = sane).

    Standard rule: sane children are transparent; a single disease among the
    children infects the parent, two distinct diseases (or all sane) leave it
    sane.  Variant rule: with m infected children (by the single disease) and
    at least one sane child, the parent stays sane with probability
    (1-alpha)^m; unanimity and two-disease outcomes are unchanged.
    """
    if not states:
        raise SimulationError("combine_children needs a nonempty list")
    diseases = {s for s in states if s != SANE}
    if len(diseases) != 1:
        return SANE
    (d,) = diseases
    if alpha is None:
        return d
    n_sane = sum(1 for s in states if s == SANE)
    if n_sane == 0:
        return d
    if rng is None:
        raise SimulationError("variant rule needs an rng")
    return SANE if rng.random() < (1.0 - alpha) ** (len(states) - n_sane) else d


class Dyadic:
    """An exact binary fraction n * 2**e, the number system of the doubles, closed under +, - and *.

    It stands in for fractions.Fraction where powers are large: a Fraction reduces every sum by a gcd,
    which takes 0.37 s for two 10^4-th powers of doubles, while a sum of binary fractions only shifts.
    """

    __slots__ = ("n", "e")

    def __init__(self, n: int, e: int = 0):
        self.n, self.e = n, e

    @classmethod
    def of(cls, x) -> "Dyadic":
        """The exact value of a double (or an int)."""
        n, d = float(x).as_integer_ratio()
        return cls(n, 1 - d.bit_length())

    def _aligned(self, other):
        other = other if isinstance(other, Dyadic) else Dyadic.of(other)
        e = min(self.e, other.e)
        return self.n << (self.e - e), other.n << (other.e - e), e

    def __add__(self, other):
        a, b, e = self._aligned(other)
        return Dyadic(a + b, e)

    def __sub__(self, other):
        a, b, e = self._aligned(other)
        return Dyadic(a - b, e)

    def __mul__(self, other):
        other = other if isinstance(other, Dyadic) else Dyadic.of(other)
        return Dyadic(self.n * other.n, self.e + other.e)

    def __abs__(self):
        return Dyadic(abs(self.n), self.e)

    def __pow__(self, m: int):
        return Dyadic(self.n**m, self.e * m)

    def __le__(self, other):
        a, b, _ = self._aligned(other)
        return a <= b

    def __lt__(self, other):
        a, b, _ = self._aligned(other)
        return a < b

    def ratio(self, other) -> float:
        """self / other as a float (0.0 when other is 0)."""
        a, b, _ = self._aligned(other)
        return a / b if b else 0.0


def exact_pgf(dist, s: Dyadic, order: int = 0) -> Dyadic:
    """G^(order)(s) = sum_z q_z z(z-1)...(z-order+1) s^(z-order) in exact arithmetic, at any real s."""
    total = Dyadic(0)
    for z, q in dist.support:
        c = math.prod(range(z - order + 1, z + 1))
        total = total + Dyadic.of(q) * Dyadic(c) * s ** (z - order)
    return total


# the accuracy every evaluation of the core meets: 32 units of roundoff of the sum of the magnitudes of
# the terms a value adds, and 2^-1000 absolute where terms underflow
EXACT_BOUND = 2.0**-48
UNDERFLOW = Dyadic(1, -1000)


def _unit(s: Dyadic) -> Dyadic:
    """s clamped to [0, 1], as pgf clamps its arguments."""
    return Dyadic(0) if s.n < 0 else Dyadic(1) if Dyadic(1) < s else s


def exact_diff(dist, a: float, gap: float, order: int = 0) -> Dyadic:
    """G^(order)(a) - G^(order)(a - gap) at the doubles a and gap, exactly, each argument of G in [0, 1]."""
    a = Dyadic.of(a)
    return exact_pgf(dist, _unit(a), order) - exact_pgf(dist, _unit(a - Dyadic.of(gap)), order)


def exact_map(dist, k: int, x: float, order: int = 0) -> tuple[Dyadic, Dyadic]:
    """f^(order)(x) and the sum of its terms' magnitudes, exactly at the doubles x and a = 1-(k-1)x.

    a is formed as the map forms it, in double: that rounding is the input's own, and no formula of the
    difference removes it.  f = G(a) - G(a-x), f' = G'(a) - k [G'(a) - G'(a-x)] and
    f'' = k^2 [G''(a) - G''(a-x)] - (2k-1) G''(a).
    """
    a = Dyadic.of(1.0 - (k - 1) * x)
    g = exact_pgf(dist, _unit(a), order)
    diff = g - exact_pgf(dist, _unit(a - Dyadic.of(x)), order)
    if order == 0:
        return diff, abs(diff)
    w, v = Dyadic(k**order), Dyadic(1 - 2 * k)
    if order == 1:
        return g - w * diff, abs(g) + w * abs(diff)
    return w * diff + v * g, w * abs(diff) + abs(v * g)


def exact_step(dist, p, alpha: float = 1.0) -> list[tuple[Dyadic, Dyadic]]:
    """Each disease coordinate of one step and the sum of its terms' magnitudes, exactly.

    The arguments are the doubles the step forms from p: a = min(p_sane + p_i, 1), the gap alpha p_i,
    and c = (1-alpha) p_i for the third term G(c) when alpha < 1; F_i = G(a) - G(a - alpha p_i) + G(c).
    """
    sane, out = float(p[-1]), []
    for d in map(float, p[:-1]):
        diff = exact_diff(dist, min(sane + d, 1.0), alpha * d)
        third = exact_pgf(dist, _unit(Dyadic.of((1 - alpha) * d))) if alpha < 1.0 else Dyadic(0)
        out.append((diff + third, abs(diff) + abs(third)))
    return out


def within_bound(got: float, exact: Dyadic, magnitude: Dyadic) -> bool:
    """|got - exact| <= EXACT_BOUND * magnitude + UNDERFLOW."""
    return abs(Dyadic.of(got) - exact) <= Dyadic.of(EXACT_BOUND) * magnitude + UNDERFLOW
