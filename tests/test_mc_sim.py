import itertools
import math
import random
import tracemalloc

import numpy as np
import pytest

from treespread import (
    SANE,
    SimConfig,
    SimResult,
    SimulationError,
    combine_children,
    make_offspring,
    simulate_root,
    step_full,
    step_variant,
    zary,
)
from treespread.mc_sim import CHUNK_TRIALS, _and_columns, _ChunkKernel

FIG_FE = make_offspring([(3, 1 / 3), (6, 1 / 3), (10, 1 / 3)])


def _assert_within(result, analytic, n_sigma=5.0):
    for emp, se, ana in zip(result.masses, result.stderr, analytic):
        # fall back to the analytic sigma when the empirical count is 0 or n
        se_ana = (ana * (1 - ana) / result.trials) ** 0.5
        band = n_sigma * max(se, se_ana, 1e-9)
        assert abs(emp - ana) <= band, f"{emp} vs {ana} (band {band})"


class TestCombineChildren:
    def test_single_disease_spreads(self):
        assert combine_children([1, 1, SANE]) == 1

    def test_two_diseases_cancel(self):
        assert combine_children([1, 2, SANE]) == SANE

    def test_unanimity(self):
        assert combine_children([SANE, SANE]) == SANE
        assert combine_children([2, 2]) == 2

    def test_empty_rejected(self):
        with pytest.raises(SimulationError):
            combine_children([])

    def test_variant_unanimous_infection_is_deterministic(self):
        assert combine_children([1, 1], alpha=0.5, rng=random.Random(0)) == 1

    def test_variant_alpha_one_always_infects(self):
        rng = random.Random(0)
        for _ in range(20):
            assert combine_children([1, SANE], alpha=1.0, rng=rng) == 1

    def test_variant_retention_rate(self):
        rng = random.Random(42)
        n = 20000
        sane = sum(combine_children([1, SANE, SANE], alpha=0.25, rng=rng) == SANE for _ in range(n))
        # one infected child, retention prob 0.75
        assert abs(sane / n - 0.75) < 4 * (0.75 * 0.25 / n) ** 0.5

    def test_variant_needs_rng(self):
        with pytest.raises(SimulationError):
            combine_children([1, SANE], alpha=0.5)


class TestConfig:
    def test_validation(self):
        with pytest.raises(SimulationError):
            SimConfig(zary(2), (0.5, 0.5), height=0, trials=10)
        with pytest.raises(SimulationError):
            SimConfig(zary(2), (0.5, 0.5), height=1, trials=0)
        with pytest.raises(SimulationError):
            SimConfig(zary(2), (0.5, 0.4), height=1, trials=10)
        with pytest.raises(SimulationError):
            SimConfig(zary(2), (0.5, 0.5), height=1, trials=10, alpha=1.5)

    def test_rejects_non_finite(self):
        with pytest.raises(SimulationError):
            SimConfig(zary(2), (math.nan, 0.5, 0.5), height=1, trials=10)
        for budget in (math.nan, math.inf, 0.0):
            with pytest.raises(SimulationError):
                SimConfig(zary(2), (0.5, 0.5), height=1, trials=10, node_budget=budget)

    def test_budget_guard(self):
        cfg = SimConfig(FIG_FE, (0.5, 0.2, 0.3), height=12, trials=10)
        with pytest.raises(SimulationError):
            simulate_root(cfg)

    def test_realised_gw_size_guard(self):
        # the expected 6.8^3 = 314 nodes per trial pass a budget of 400, but a 50-child node
        # near the top can push a sampled tree past it; the guard must refuse exactly those
        law = make_offspring([(2, 0.9), (50, 0.1)])
        refused = []
        for seed in range(50):
            cfg = SimConfig(law, (0.5, 0.2, 0.3), height=3, trials=1, seed=seed, node_budget=400)
            over = max(int(counts.sum()) for counts in _reference_levels(cfg, 0, 1)) > 400
            if over:
                with pytest.raises(SimulationError, match="budget"):
                    simulate_root(cfg)
            else:
                simulate_root(cfg)
            refused.append(over)
        assert any(refused) and not all(refused)


class TestSimulate:
    def test_height1_matches_one_step(self):
        profile = (1 / 3, 1 / 3, 1 / 3)
        cfg = SimConfig(zary(2), profile, height=1, trials=100_000, seed=3)
        _assert_within(simulate_root(cfg), step_full(zary(2), profile))

    def test_gw_law_matches_two_steps(self):
        profile = (0.5, 0.2, 0.3)
        cfg = SimConfig(FIG_FE, profile, height=2, trials=20_000, seed=11)
        analytic = step_full(FIG_FE, step_full(FIG_FE, profile))
        _assert_within(simulate_root(cfg), analytic)

    def test_height_additivity_zary2(self):
        profile = (0.4, 0.25, 0.35)
        for height in (2, 5, 10):
            cfg = SimConfig(zary(2), profile, height=height, trials=20_000, seed=height)
            analytic = np.asarray(profile)
            for _ in range(height):
                analytic = step_full(zary(2), analytic)
            _assert_within(simulate_root(cfg), analytic)

    def test_height_additivity_gw(self):
        # the GW law's mean^n growth caps statistically useful heights at 3
        profile = (0.5, 0.2, 0.3)
        for height in (2, 3):
            cfg = SimConfig(FIG_FE, profile, height=height, trials=10_000, seed=height)
            analytic = np.asarray(profile)
            for _ in range(height):
                analytic = step_full(FIG_FE, analytic)
            _assert_within(simulate_root(cfg), analytic)

    def test_variant_matches_recursion(self):
        profile = (0.25, 0.25, 0.5)
        cfg = SimConfig(zary(2), profile, height=3, trials=50_000, alpha=0.75, seed=5)
        analytic = np.asarray(profile)
        for _ in range(3):
            analytic = step_variant(zary(2), analytic, 0.75)
        _assert_within(simulate_root(cfg), analytic)

    def test_variant_alpha_one_equals_standard(self):
        profile = (0.5, 0.2, 0.3)
        a = simulate_root(SimConfig(zary(2), profile, height=4, trials=8192, seed=9, alpha=1.0))
        b = simulate_root(SimConfig(zary(2), profile, height=4, trials=8192, seed=9))
        # the variant's draws come from their own substreams, so alpha=1 sees the same leaves
        assert a == b

    def test_single_disease_certain(self):
        cfg = SimConfig(zary(2), (1.0, 0.0), height=4, trials=5000, seed=1)
        assert simulate_root(cfg).masses == (1.0, 0.0)

    def test_seed_determinism(self):
        cfg = SimConfig(FIG_FE, (0.5, 0.2, 0.3), height=2, trials=9000, seed=123)
        assert simulate_root(cfg) == simulate_root(cfg)

    def test_worker_count_independent(self):
        cfg = SimConfig(zary(2), (0.4, 0.25, 0.35), height=5, trials=20_000, seed=2)
        assert simulate_root(cfg, max_workers=1) == simulate_root(cfg, max_workers=4)

    def test_permutation_equivariance(self):
        h, n = 2, 40_000
        a = simulate_root(SimConfig(zary(2), (0.5, 0.2, 0.3), height=h, trials=n, seed=17))
        b = simulate_root(SimConfig(zary(2), (0.2, 0.5, 0.3), height=h, trials=n, seed=17))
        swapped = (b.masses[1], b.masses[0], b.masses[2])
        for x, y, se in zip(a.masses, swapped, a.stderr):
            assert abs(x - y) <= 5 * (2**0.5) * max(se, 1e-9)

    def test_many_diseases_slow_path(self):
        # k=7: each uint32 leaf draw is compared with seven thresholds
        profile = tuple([0.1] * 7 + [0.3])
        cfg = SimConfig(zary(2), profile, height=1, trials=30_000, seed=4)
        _assert_within(simulate_root(cfg), step_full(zary(2), profile))

    def test_stderr_is_binomial(self):
        cfg = SimConfig(zary(2), (0.5, 0.5), height=1, trials=10_000, seed=0)
        res = simulate_root(cfg)
        p = res.masses[0]
        assert res.stderr[0] == pytest.approx((p * (1 - p) / 10_000) ** 0.5, abs=1e-15)


# --- stream identity: the blocked kernel against a whole-chunk reference ------------


_LEAVES_ROLE, _COUNTS_ROLE, _VARIANT_ROLE = 0, 1, 2


def _substream(cfg: SimConfig, chunk_index: int, depth: int, role: int) -> np.random.Generator:
    seq = np.random.SeedSequence(cfg.seed, spawn_key=(chunk_index, depth, role))
    return np.random.Generator(np.random.SFC64(seq))


def _uint32s(cfg: SimConfig, chunk_index: int, depth: int, role: int, n: int) -> np.ndarray:
    """The first n uint32s of one of a chunk's substreams, drawn whole."""
    return _substream(cfg, chunk_index, depth, role).integers(0, 1 << 32, size=n, dtype=np.uint32)


def _reference_levels(cfg: SimConfig, chunk_index: int, n_trials: int) -> list[np.ndarray]:
    """Each depth's child counts, drawn whole from that depth's substream (z-ary: constant)."""
    zs = np.array([z for z, _ in cfg.dist.support])
    qcut = np.minimum(np.rint(np.cumsum([q for _, q in cfg.dist.support])[:-1] * 2.0**32), 2.0**32 - 1)
    counts_per_level, n = [], n_trials
    for depth in range(cfg.height):
        if len(zs) == 1:
            counts = np.full(n, zs[0])
        else:
            counts = zs[np.searchsorted(qcut, _uint32s(cfg, chunk_index, depth, _COUNTS_ROLE, n), side="right")]
        counts_per_level.append(counts)
        n = int(counts.sum())
    return counts_per_level


def _reference_chunk(cfg: SimConfig, chunk_index: int, n_trials: int) -> np.ndarray:
    """Root-state counts of one chunk, each substream drawn whole with no blocking.

    Each depth's child counts, every leaf and each level's undecided-node uint32s come
    from the chunk's SFC64 substreams (depth, role) as whole arrays.  Leaves are uint32
    draws against rounded thresholds, or doubles when the top threshold rounds to 2^32,
    through searchsorted; masks come from a table, and each level is an AND over each
    node's children followed by a lookup table (k+1 <= 8 bits) or a single-bit test.
    """
    k, alpha = cfg.k, cfg.alpha
    dtype = next(t for t in (np.uint8, np.uint16, np.uint32, np.uint64) if k + 1 <= np.iinfo(t).bits)
    full = dtype((1 << (k + 1)) - 1)
    mask_table = np.array([1 << i for i in range(k)] + [full], dtype=dtype)

    def is_single_bit(m):
        return (m != 0) & ((m & (m - 1)) == 0)

    if k + 1 <= 8:
        lut = np.full(1 << (k + 1), full, dtype=dtype)
        lut[mask_table[:k]] = mask_table[:k]
        keep_single_bit = lut.__getitem__
    else:
        def keep_single_bit(m):
            return np.where(is_single_bit(m), m, full)

    counts_per_level = _reference_levels(cfg, chunk_index, n_trials)
    n = int(counts_per_level[-1].sum())
    cuts = np.cumsum(cfg.profile[:-1])
    cuts_u = np.rint(cuts * 2.0**32)
    if cuts_u.max() < 2.0**32:
        idx = np.searchsorted(cuts_u, _uint32s(cfg, chunk_index, cfg.height, _LEAVES_ROLE, n), side="right")
    else:
        idx = np.searchsorted(cuts, _substream(cfg, chunk_index, cfg.height, _LEAVES_ROLE).random(n), side="right")
    level = mask_table[idx]

    if alpha is not None:
        max_z = max(z for z, _ in cfg.dist.support)
        stay_sane = np.rint((1.0 - alpha) ** np.arange(max_z + 1).astype(float) * 2.0**32).astype(np.uint64)
    for depth in reversed(range(cfg.height)):
        counts = counts_per_level[depth]
        offsets = np.concatenate(([0], np.cumsum(counts)[:-1]))
        m = np.bitwise_and.reduceat(level, offsets)
        parents = keep_single_bit(m)
        if alpha is not None:
            n_infected = counts - np.add.reduceat((level == full).astype(np.int64), offsets)
            undecided = np.flatnonzero(is_single_bit(m) & (n_infected < counts))
            u = _uint32s(cfg, chunk_index, depth, _VARIANT_ROLE, undecided.size)
            parents[undecided[u < stay_sane[n_infected[undecided]]]] = full
        level = parents
    return np.array([(level == mask).sum() for mask in mask_table])


def _reference_root(cfg: SimConfig) -> SimResult:
    sizes = [min(CHUNK_TRIALS, cfg.trials - start) for start in range(0, cfg.trials, CHUNK_TRIALS)]
    counts = sum(_reference_chunk(cfg, c, n) for c, n in enumerate(sizes))
    p_hat = counts / cfg.trials
    stderr = np.sqrt(p_hat * (1.0 - p_hat) / cfg.trials)
    return SimResult(tuple(p_hat.tolist()), tuple(stderr.tolist()), cfg.trials)


def _profile(kind: str, k: int) -> tuple[float, ...]:
    if kind == "uniform":
        return (1 / (k + 1),) * (k + 1)
    if kind == "zero_sane":
        return (1 / k,) * k + (0.0,)
    p = np.random.default_rng(k).random(k + 1)
    return tuple((p / p.sum()).tolist())


def _assert_same_stream(cfg: SimConfig) -> None:
    want = _reference_root(cfg)
    for workers in (1, 2) if cfg.trials > CHUNK_TRIALS else (1,):
        assert simulate_root(cfg, max_workers=workers) == want, f"{workers} workers"


# heights that give every 4095-trial chunk at least two leaf blocks
_TREES = {"z2": (zary(2), 7), "z3": (zary(3), 4), "z5": (zary(5), 3), "gw": (FIG_FE, 3)}
_KS = (1, 2, 6, 7, 8)
_PROFILES = ("random", "uniform", "zero_sane")
_ALPHAS = (None, 0.5, 1.0)
_TRIALS = (1, 4095, 4097)


@pytest.mark.parametrize(
    "tree,k,kind,alpha",
    list(itertools.product(_TREES, _KS, _PROFILES, _ALPHAS)),
)
def test_stream_identity_matrix(tree, k, kind, alpha):
    """Same config and seed give exactly the reference's SimResult: every draw is kept."""
    dist, height = _TREES[tree]
    # a Latin square over the other indices, so every value of each factor meets every trial count
    t = (list(_TREES).index(tree) + _KS.index(k) + _PROFILES.index(kind) + _ALPHAS.index(alpha)) % 3
    cfg = SimConfig(dist, _profile(kind, k), height=height, trials=_TRIALS[t], alpha=alpha, seed=2026)
    _assert_same_stream(cfg)


@pytest.mark.parametrize(
    "z,height,trials,fused",
    [(2, 17, 5, 17), (2, 18, 3, 17), (4, 9, 3, 8), (3, 12, 2, 10)],
    ids=["z2h17", "z2h18", "z4h9", "z3h12"],
)
@pytest.mark.parametrize("k,kind,alpha", [(2, "uniform", None), (8, "random", None), (3, "random", 0.5)])
def test_stream_identity_deep_trees(z, height, trials, fused, k, kind, alpha):
    """Trees too tall for one block: under either rule a block holds whole subtrees of its lowest levels."""
    cfg = SimConfig(zary(z), _profile(kind, k), height=height, trials=trials, alpha=alpha, seed=5)
    assert _ChunkKernel(cfg).fused == fused
    _assert_same_stream(cfg)


@pytest.mark.parametrize("alpha", [0.3, 0.123456789])
@pytest.mark.parametrize("tree", ["z2h9", "z3h6", "gw_h3"])
def test_stream_identity_irregular_alpha(tree, alpha):
    """(1-alpha)^m from a table equals the whole-level power for alphas with no short binary form."""
    dist, height = {"z2h9": (zary(2), 9), "z3h6": (zary(3), 6), "gw_h3": (FIG_FE, 3)}[tree]
    _assert_same_stream(SimConfig(dist, _profile("random", 2), height=height, trials=4097, alpha=alpha, seed=11))


@pytest.mark.parametrize(
    "profile,alpha",
    [(_profile("random", 2), None), (_profile("random", 7), 0.3), ((0.9, 0.1), 0.005)],
    ids=["k2", "k7_a03", "k1_a0005"],
)
def test_stream_identity_wide_atom(profile, alpha):
    """An atom above 255 needs 16-bit child counts and infected tallies.

    With one disease at 0.9 a 300-child node has about 270 infected children, and
    (1-0.005)^270 is far from the (1-0.005)^14 that an 8-bit tally would give.
    """
    law = make_offspring([(2, 0.99), (300, 0.01)])
    cfg = SimConfig(law, profile, height=2, trials=4097, alpha=alpha, seed=3)
    assert _ChunkKernel(cfg).count_dtype == np.uint16
    _assert_same_stream(cfg)


def test_stream_identity_top_count_cut_rounds_to_one():
    """A child-count cut that rounds to 2^32 is clipped to the largest uint32, not wrapped to 0.

    Wrapped, every node of this law would get 3 children instead of almost surely 2.
    """
    law = make_offspring([(2, 1 - 1e-11), (3, 1e-11)])
    cfg = SimConfig(law, _profile("random", 2), height=3, trials=4097, seed=8)
    assert _ChunkKernel(cfg).qcut.tolist() == [2**32 - 1]
    assert all(set(counts.tolist()) == {2} for counts in _reference_levels(cfg, 0, CHUNK_TRIALS))
    _assert_same_stream(cfg)


@pytest.mark.parametrize("z,k", [(z, k) for z in (2, 3, 4) for k in (1, 2, 3)] + [(2, 8)])
def test_level_combine_exhaustive(z, k):
    """Every child tuple through the kernel's masks and combine equals combine_children."""
    kernel = _ChunkKernel(SimConfig(zary(z), _profile("uniform", k), height=1, trials=1))
    # leaf index i < k is disease i+1, index k is sane
    tuples = np.array(list(itertools.product(range(k + 1), repeat=z)), dtype=np.uint8)
    got = kernel.keep_single_bit(_and_columns(kernel.leaf_masks(tuples.ravel()).reshape(-1, z)))
    parents = [combine_children([SANE if i == k else i + 1 for i in t]) for t in tuples]
    want = kernel.leaf_masks(np.array([k if s == SANE else s - 1 for s in parents], dtype=np.uint8))
    assert got.dtype == want.dtype == (np.uint16 if k == 8 else np.uint8)
    assert np.array_equal(got, want)


def test_zary_chunk_memory_is_bounded():
    """A z-ary standard-rule chunk holds one leaf block, not every leaf of its 4096 trials."""
    cfg = SimConfig(zary(2), (1 / 3,) * 3, height=12, trials=4096, seed=1)
    tracemalloc.start()
    tracemalloc.reset_peak()
    try:
        simulate_root(cfg, max_workers=1)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 16 * 2**20, f"peak {peak / 2**20:.1f} MiB"


@pytest.mark.parametrize(
    "dist,profile,height,alpha,trials",
    [
        (FIG_FE, (0.5, 0.2, 0.3), 5, None, 4096),
        (zary(2), (0.5, 0.2, 0.3), 13, 0.5, 4096),
        (make_offspring([(2, 0.9), (3, 0.1)]), (0.5, 0.2, 0.3), 13, None, 2048),
    ],
    ids=["gw_k2h5", "z2k2h13_a05", "gw_tall_h13"],
)
def test_gw_and_variant_chunk_memory_is_bounded(dist, profile, height, alpha, trials):
    """GW and variant chunks stream their leaves, and a GW chunk re-draws its child counts in windows.

    So memory does not grow with height: storing every child count took about 32 MiB at gw_tall_h13.
    """
    cfg = SimConfig(dist, profile, height=height, trials=trials, alpha=alpha, seed=1)
    tracemalloc.start()
    tracemalloc.reset_peak()
    try:
        simulate_root(cfg, max_workers=1)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 8 * 2**20, f"peak {peak / 2**20:.1f} MiB"
