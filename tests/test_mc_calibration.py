"""Calibrated Monte Carlo-vs-recursion gate over every tree kind and rule.

Each config's k+1 root counts from `simulate_root` get a Pearson chi-squared test
against F^h(p) from `step_full` / `step_variant`.  The configs and their seeds were
fixed before any of them was run; the family-wise false-alarm rate is held at
FAMILY_ALPHA by a Bonferroni split.  Unlike the stream-identity tests, this gate
does not depend on which random stream the simulator draws from.
"""

import math

import numpy as np
import pytest

from treespread import SimConfig, make_offspring, simulate_root, step_full, step_variant, zary

FAMILY_ALPHA = 1e-6
MIN_EXPECTED = 5.0  # the chi-squared approximation needs every used cell to expect this many

FIG_FE = make_offspring([(3, 1 / 3), (6, 1 / 3), (10, 1 / 3)])
WIDE = make_offspring([(2, 0.99), (300, 0.01)])
SKEW = make_offspring([(2, 0.6), (3, 0.3), (5, 0.1)])  # unequal masses: a permuted atom shows

# (id, law, profile, height, alpha, trials); the seed is 100 + the row's index
SWEEP = [
    ("z2_k1_h4", zary(2), (0.3, 0.7), 4, None, 500_000),
    ("z2_k2_h3", zary(2), (1 / 3, 1 / 3, 1 / 3), 3, None, 500_000),
    ("z2_k2_h5_a05", zary(2), (0.45, 0.25, 0.3), 5, 0.5, 500_000),
    ("z2_k3_h3_a03", zary(2), (0.3, 0.2, 0.15, 0.35), 3, 0.3, 500_000),
    ("z2_k8_h2", zary(2), (0.2, 0.15, 0.12, 0.1, 0.08, 0.06, 0.05, 0.04, 0.2), 2, None, 500_000),
    ("z2_k2_h3_zero_sane", zary(2), (0.6, 0.4, 0.0), 3, None, 500_000),
    ("z3_k1_h3_a03", zary(3), (0.2, 0.8), 3, 0.3, 500_000),
    ("z3_k3_h3", zary(3), (0.25, 0.2, 0.15, 0.4), 3, None, 500_000),
    ("z3_k2_h2_a05_zero_sane", zary(3), (0.7, 0.3, 0.0), 2, 0.5, 500_000),
    ("z3_k8_h2_a1", zary(3), (0.14, 0.12, 0.1, 0.08, 0.06, 0.05, 0.04, 0.03, 0.38), 2, 1.0, 500_000),
    ("z5_k2_h2", zary(5), (0.15, 0.1, 0.75), 2, None, 500_000),
    ("z5_k3_h2_a05", zary(5), (0.12, 0.08, 0.05, 0.75), 2, 0.5, 500_000),
    ("z5_k1_h3_a03", zary(5), (0.1, 0.9), 3, 0.3, 250_000),
    ("gw_k2_h2", FIG_FE, (0.1, 0.05, 0.85), 2, None, 250_000),
    ("gw_k1_h2_a05", FIG_FE, (0.1, 0.9), 2, 0.5, 250_000),
    ("gw_k3_h2_a03_zero_sane", FIG_FE, (0.5, 0.3, 0.2, 0.0), 2, 0.3, 250_000),
    ("wide_k2_h2", WIDE, (0.3, 0.2, 0.5), 2, None, 500_000),
    ("wide_k1_h2_a03", WIDE, (0.4, 0.6), 2, 0.3, 500_000),
    ("wide_k3_h3_a05", WIDE, (0.3, 0.2, 0.1, 0.4), 3, 0.5, 250_000),
    ("skew_k2_h3", SKEW, (0.3, 0.2, 0.5), 3, None, 250_000),
]
PER_TEST_ALPHA = FAMILY_ALPHA / len(SWEEP)


def chi2_sf(x: float, df: int) -> float:
    """P(X >= x) for X chi-squared with integer df >= 1, in closed form."""
    if x <= 0:
        return 1.0
    half = x / 2
    if df % 2 == 0:
        term, total = 1.0, 1.0
        for j in range(1, df // 2):
            term *= half / j
            total += term
        return math.exp(-half) * total
    total = math.erfc(math.sqrt(half))
    term = math.sqrt(x) * math.exp(-half) * math.sqrt(2 / math.pi)  # x^(1/2) e^(-x/2) / Gamma(3/2) / 2^(1/2)
    for j in range(1, (df + 1) // 2):
        total += term
        term *= x / (2 * j + 1)
    return total


def test_chi2_sf_known_values():
    # upper 1% points of the chi-squared distribution
    for df, q in [(1, 6.634896601), (2, 9.210340372), (3, 11.34486673), (8, 20.09023503)]:
        assert chi2_sf(q, df) == pytest.approx(0.01, rel=1e-8)


def pearson_p_value(counts: np.ndarray, probs: np.ndarray) -> float:
    """p-value of observed counts against cell probabilities; cells of probability 0 must stay empty."""
    n = counts.sum()
    zero = probs <= 1e-15
    assert not counts[zero].any(), f"{counts[zero]} trials in cells of probability 0"
    observed, expected = counts[~zero], n * probs[~zero] / probs[~zero].sum()
    assert expected.min() >= MIN_EXPECTED, f"expected counts {expected} too small for the test"
    if observed.size == 1:
        return 1.0
    stat = float(((observed - expected) ** 2 / expected).sum())
    return chi2_sf(stat, observed.size - 1)


def root_distribution(dist, profile, height: int, alpha) -> np.ndarray:
    p = np.asarray(profile, dtype=float)
    for _ in range(height):
        p = step_full(dist, p) if alpha is None else step_variant(dist, p, alpha)
    return p


@pytest.mark.parametrize("row", range(len(SWEEP)), ids=[row[0] for row in SWEEP])
def test_root_counts_match_recursion(row):
    _, dist, profile, height, alpha, trials = SWEEP[row]
    res = simulate_root(SimConfig(dist, profile, height=height, trials=trials, alpha=alpha, seed=100 + row))
    counts = np.rint(np.asarray(res.masses) * trials).astype(np.int64)
    assert counts.sum() == trials
    p_value = pearson_p_value(counts, root_distribution(dist, profile, height, alpha))
    assert p_value > PER_TEST_ALPHA, f"p = {p_value:.3g} (counts {counts.tolist()})"
