"""The combine rule on scalar node states: the reference the Monte Carlo kernels and the recursion are checked by."""

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
