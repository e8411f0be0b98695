import itertools
import math
import os
import random
import re
import threading
import time
import tracemalloc
import warnings

import numpy as np
import pytest

from treespread import (
    SimConfig,
    SimResult,
    SimulationError,
    make_offspring,
    simulate_root,
    step_full,
    step_variant,
    zary,
)
from treespread import mc_sim
from treespread.mc_sim import CHUNK_TRIALS, LANE_EAGER_BITS, _GWKernel, _LaneKernel, _Taker

from reference import SANE, combine_children

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

    def test_leaf_budget_checked_on_the_way_up(self, monkeypatch, tmp_path):
        """A tree over the budget at its leaves only is refused by the bottom level, block by block.

        level_sizes stops at the leaf parents and accepts the config.  The bottom level draws
        the leaves of each block until the leaves counted so far pass the budget, and its
        message names the depth and the budget but no node count.
        """
        monkeypatch.setattr(mc_sim, "BLOCK_PARENTS", 4)
        cfg = next(_over_budget(leaves_only=True))
        assert len(_GWKernel(cfg).level_sizes(0, 1)) == cfg.height
        calls = _record_calls(monkeypatch, tmp_path, _LaneKernel, "leaves")
        with pytest.raises(SimulationError) as refused:
            simulate_root(cfg)
        bottom = _reference_levels(cfg, 0, 1)[-1]
        leaves_so_far = np.cumsum([bottom[i : i + 4].sum() for i in range(0, bottom.size, 4)])
        assert 0 < len(calls.rows()) == np.argmax(leaves_so_far > cfg.node_budget)
        message = str(refused.value)
        assert f"depth {cfg.height} " in message and f"budget of {cfg.node_budget:.3g} " in message
        assert re.findall(r"\d+", message.replace(f"{cfg.node_budget:.3g}", "")) == [str(cfg.height), "1"]

    def test_upper_budget_checked_before_any_leaf(self, monkeypatch, tmp_path):
        """A tree over the budget above its leaves is refused by level_sizes, before any leaf is drawn."""
        cfg = next(_over_budget(leaves_only=False))
        depth = next(d for d, counts in enumerate(_reference_levels(cfg, 0, 1), 1) if counts.sum() > cfg.node_budget)
        calls = _record_calls(monkeypatch, tmp_path, _LaneKernel, "leaves")
        with pytest.raises(SimulationError, match=f"depth {depth} .*budget"):
            simulate_root(cfg)
        assert depth < cfg.height and not calls.rows()


def _over_budget(leaves_only: bool):
    """One-trial configs whose sampled tree passes its node budget at the leaves only, or above them.

    The law {2: 0.9, 50: 0.1} at height 4 expects 6.8^4 = 2138 nodes per trial, within the budget.
    """
    law = make_offspring([(2, 0.9), (50, 0.1)])
    for seed in range(100):
        cfg = SimConfig(law, (0.5, 0.2, 0.3), height=4, trials=1, seed=seed, node_budget=2200)
        totals = [int(counts.sum()) for counts in _reference_levels(cfg, 0, 1)]
        if (max(totals[:-1]) <= cfg.node_budget) == leaves_only and totals[-1] > cfg.node_budget:
            yield cfg


class _Log:
    """Rows of integers that any process appends, the caller or a forked worker, and the caller reads.

    Each row is one os.write to a file opened to append, so the rows of concurrent processes
    never interleave, and a worker's rows are all there once simulate_root has reaped it.
    """

    def __init__(self, path):
        self.path = path
        path.write_text("")

    def add(self, *fields: int) -> None:
        fd = os.open(self.path, os.O_WRONLY | os.O_APPEND)
        try:
            os.write(fd, (" ".join(map(str, fields)) + "\n").encode())
        finally:
            os.close(fd)

    def rows(self) -> list[tuple[int, ...]]:
        return [tuple(map(int, line.split())) for line in self.path.read_text().splitlines()]


def _record_calls(monkeypatch, tmp_path, cls, name: str) -> _Log:
    """One row, the process id, for every later call of method `name` of cls, which still runs, in any worker."""
    log, method = _Log(tmp_path / f"{name}.calls"), getattr(cls, name)

    def recorded(self, *args):
        log.add(os.getpid())
        return method(self, *args)

    monkeypatch.setattr(cls, name, recorded)
    return log


def _simulate(cfg: SimConfig, workers: int) -> SimResult:
    """simulate_root(cfg) with TREESPREAD_THREADS set to workers."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setenv("TREESPREAD_THREADS", str(workers))
        return simulate_root(cfg)


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
        assert _simulate(cfg, 1) == _simulate(cfg, 4)

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


_LEAVES_ROLE, _COUNTS_ROLE, _REFINE_ROLE, _COINS_ROLE = 0, 1, 3, 4


def _words(cfg: SimConfig, n: int, *key: int) -> np.ndarray:
    """The first n 64-bit words of the substream with spawn key `key`, drawn whole."""
    return np.random.SFC64(np.random.SeedSequence(cfg.seed, spawn_key=key)).random_raw(n)


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


def _masks(k: int):
    """Leaf mask table, sane mask, single-bit test and keep-single-bit rule for k diseases."""
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

    return mask_table, full, is_single_bit, keep_single_bit


def _leaf_cuts(cfg: SimConfig) -> np.ndarray:
    """The profile's cumulative masses in units of 2^-32; a cut of 2^32 is never reached."""
    return np.rint(np.cumsum(cfg.profile[:-1]) * 2.0**32).astype(np.uint64)


def _reference_chunk(cfg: SimConfig, chunk_index: int, n_trials: int) -> np.ndarray:
    """Root-state counts of one chunk, each substream drawn whole with no blocking."""
    if cfg.dist.is_deterministic:
        return _reference_lanes(cfg, chunk_index, n_trials)
    return _reference_gw(cfg, chunk_index, n_trials)


def _reference_uniforms(cfg: SimConfig, chunk_index: int, word, lane, n_words: int) -> np.ndarray:
    """The 32-bit leaf uniforms of the lanes at (word, lane), which list every lane that counts.

    Bit 31 - t < LANE_EAGER_BITS of a lane is bit `lane` of word `word` of the per-plane leaf
    substream t, of which n_words are drawn.  A word in which some listed lane's top bits equal
    those of a cut with set bits below them takes its other bits from the refine substream,
    32 - LANE_EAGER_BITS consecutive words per such word in word order.
    """
    eager, height = LANE_EAGER_BITS, cfg.height
    shifts = lane.astype(np.uint64)
    u = np.zeros(word.shape, dtype=np.uint64)
    for t in range(eager):
        plane = _words(cfg, n_words, chunk_index, height, _LEAVES_ROLE, t)
        u |= (plane[word] >> shifts & np.uint64(1)) << np.uint64(31 - t)
    cuts = _leaf_cuts(cfg)
    low_bits = np.uint64(32 - eager)
    tied = np.zeros(word.shape, dtype=bool)
    for c in cuts[cuts < 2**32]:
        if c % (1 << (32 - eager)):
            tied |= u >> low_bits == c >> low_bits
    refined = np.zeros(n_words, dtype=bool)
    refined[word[tied]] = True
    low = _words(cfg, int(refined.sum()) * (32 - eager), chunk_index, height, _REFINE_ROLE).reshape(-1, 32 - eager)
    sel = refined[word]
    rows, shifts = (np.cumsum(refined) - 1)[word[sel]], shifts[sel]
    tail = np.zeros(rows.size, dtype=np.uint64)
    for t in range(eager, 32):
        tail |= (low[rows, t - eager] >> shifts & np.uint64(1)) << np.uint64(31 - t)
    u[sel] |= tail
    return u


def _reference_lanes(cfg: SimConfig, chunk_index: int, n_trials: int) -> np.ndarray:
    """Root-state counts of one z-ary chunk, every lane's uniform built from whole substreams.

    Trial i of position p is bit i % 64 of word p * words + i // 64, and its uniform comes
    from _reference_uniforms.  Leaves are searchsorted into the cuts and each level combines
    plain masks.  Under the retention rule each infected child of an undecided parent keeps
    the parent sane when its uniform is below q; see _reference_coins.
    """
    k, z, height = cfg.k, cfg.dist.z_value, cfg.height
    mask_table, full, is_single_bit, keep_single_bit = _masks(k)
    words = -(-n_trials // 64)
    n_pos = z**height
    word = np.arange(n_pos)[:, None] * words + np.arange(n_trials) // 64
    lane = np.broadcast_to(np.arange(n_trials) % 64, word.shape)
    u = _reference_uniforms(cfg, chunk_index, word, lane, n_pos * words)
    level = mask_table[np.searchsorted(_leaf_cuts(cfg), u, side="right")]

    q = _coin_threshold(cfg)
    for depth in reversed(range(height)):
        kids = level.reshape(-1, z, n_trials)
        m = np.bitwise_and.reduce(kids, axis=1)
        parents = keep_single_bit(m)
        if q:
            undecided = is_single_bit(m) & (kids == full).any(axis=1)
            need = undecided[:, None, :] & (kids != full)
            coins = _reference_coins(cfg, chunk_index, depth, q, need, words)
            parents[undecided & (coins | ~need).all(axis=1)] = full
        level = parents
    return np.array([(level == mask).sum() for mask in mask_table])


def _coin_threshold(cfg: SimConfig):
    """q = round((1 - alpha) 2^32) of the lane coins, or None for the standard rule (also alpha = 1)."""
    return None if cfg.alpha is None else round((1.0 - cfg.alpha) * 2**32) or None


def _reference_coins(cfg, chunk_index, depth, q, need, words) -> np.ndarray:
    """Which lanes of need have a uniform below q; see _reference_coin_bits.

    need[p, j, i] is trial i of child j of parent p, bit i % 64 of child word (p z + j) words + i // 64.
    """
    n_par, z, n_trials = need.shape
    child_word = (np.arange(n_par * z)[:, None] * words + np.arange(n_trials) // 64).reshape(need.shape)
    coins = np.zeros(need.shape, dtype=bool)
    coins[need] = _reference_coin_bits(cfg, chunk_index, depth, q, child_word[need], np.nonzero(need)[2] % 64)
    return coins


def _reference_coin_bits(cfg, chunk_index, depth, q, w, b) -> np.ndarray:
    """Which lanes, bit b of child word w each and listed in word order, have a uniform below q.

    Each lane's bits are drawn as its word needs them: bit 31 - t of every lane's uniform comes
    from substream (depth, COINS, t), one word per child word that still has a lane whose bits
    so far equal q's, in word order; a lane is decided once its bits differ from q's, or when q
    has no set bit left.
    """
    if q >= 2**32:
        return np.ones(w.size, dtype=bool)
    prefix, open_, below = np.zeros(w.size, dtype=np.int64), np.ones(w.size, dtype=bool), np.zeros(w.size, dtype=bool)
    lowest = (q & -q).bit_length() - 1
    for t in range(32 - lowest):
        o = np.flatnonzero(open_)
        if not o.size:
            break
        first = np.diff(w[o], prepend=-1) != 0
        r = _words(cfg, int(first.sum()), chunk_index, depth, _COINS_ROLE, t)
        bit = r[np.cumsum(first) - 1] >> b[o].astype(np.uint64) & np.uint64(1)
        prefix[o] = 2 * prefix[o] + bit.astype(np.int64)
        below[o] = prefix[o] < q >> (31 - t)
        open_[o] = prefix[o] == q >> (31 - t)
    return below


def _reference_gw(cfg: SimConfig, chunk_index: int, n_trials: int) -> np.ndarray:
    """Root-state counts of one Galton-Watson chunk, each substream drawn whole.

    Each depth's child counts come from _reference_levels.  At every depth the parents are
    taken in count order, BLOCK_PARENTS at a time at depth height-1 and WINDOW_PARENTS at a
    time above it, and a stable sort by child count lists a block's parents atom by atom.
    Atom z's n parents are lanes 0..n-1 of z child positions of ceil(n / 64) words each, and
    the words of a depth's (block, atom) groups follow each other.  The leaves' uniforms come
    from _reference_uniforms.  Above the leaves, the parents, in that atom-by-atom order, take
    the level below in count order, z consecutive nodes each.  Coins come from
    _reference_coin_bits at every depth.
    """
    k, height = cfg.k, cfg.height
    mask_table, full, is_single_bit, keep_single_bit = _masks(k)
    q = _coin_threshold(cfg)
    level = None
    for depth, counts in reversed(list(enumerate(_reference_levels(cfg, chunk_index, n_trials)))):
        size = mc_sim.BLOCK_PARENTS if depth == height - 1 else mc_sim.WINDOW_PARENTS
        groups, word, lane, n_words = [], [], [], 0  # groups: (parents, z), their children position-major
        for start in range(0, counts.size, size):
            order = start + np.argsort(counts[start : start + size], kind="stable")
            for z in np.unique(counts[order]):
                members = order[counts[order] == z]
                n, words = members.size, -(-members.size // 64)
                groups.append((members, int(z)))
                for p in range(z):
                    word.append(n_words + p * words + np.arange(n) // 64)
                    lane.append(np.arange(n) % 64)
                n_words += z * words
        word, lane = np.concatenate(word), np.concatenate(lane)
        if level is None:
            u = _reference_uniforms(cfg, chunk_index, word, lane, n_words)
            kids = mask_table[np.searchsorted(_leaf_cuts(cfg), u, side="right")]
        else:
            ends = np.cumsum([z * members.size for members, z in groups])
            kids = np.concatenate([level[end - z * members.size : end].reshape(-1, z).T.ravel()
                                   for (members, z), end in zip(groups, ends)])

        def by_group(values):  # each group's (z, n) block of a per-child array, with its parents
            offset = 0
            for members, z in groups:
                yield members, values[offset : offset + z * members.size].reshape(z, -1)
                offset += z * members.size

        m = np.empty(counts.size, dtype=full.dtype)
        has_sane = np.empty(counts.size, dtype=bool)
        for members, block in by_group(kids):
            m[members] = np.bitwise_and.reduce(block, axis=0)
            has_sane[members] = (block == full).any(axis=0)
        level = keep_single_bit(m)
        if q:
            undecided = is_single_bit(m) & has_sane
            need = np.concatenate([np.tile(undecided[members], z) for members, z in groups])
            need &= kids != full
            coins = np.zeros(kids.size, dtype=bool)
            coins[need] = _reference_coin_bits(cfg, chunk_index, depth, q, word[need], lane[need])
            for (members, block), (_, needed) in zip(by_group(coins), by_group(need)):
                stays = (block | ~needed).all(axis=0)
                level[members[undecided[members] & stays]] = full
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
        assert _simulate(cfg, workers) == want, f"{workers} workers"


# heights that give every 4095-trial Galton-Watson chunk two bottom lane blocks; several
# windows above the bottom are exercised by the GW block tests, several z-ary lane blocks by
# the deep-tree, padding-lane and irregular-alpha tests
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
    "z,height,trials",
    [(2, 17, 5), (2, 18, 3), (4, 9, 3), (3, 12, 2)],
    ids=["z2h17", "z2h18", "z4h9", "z3h12"],
)
@pytest.mark.parametrize("k,kind,alpha", [(2, "uniform", None), (8, "random", None), (3, "random", 0.5)])
def test_stream_identity_deep_trees(z, height, trials, k, kind, alpha):
    """Trees too tall for one block: a block holds whole subtrees of the lowest levels, the rest is carried."""
    cfg = SimConfig(zary(z), _profile(kind, k), height=height, trials=trials, alpha=alpha, seed=5)
    assert _LaneKernel(cfg).block_positions(1, z) < z**height
    _assert_same_stream(cfg)


@pytest.mark.parametrize("alpha", [None, 0.3])
@pytest.mark.parametrize("k", [2, 8])
@pytest.mark.parametrize("blocks", ["three_positions", "five_positions", "whole_tree"])
def test_stream_identity_any_block_size(monkeypatch, tmp_path, blocks, k, alpha):
    """The contract does not name the leaf block size: any block_positions gives the reference's result.

    Blocks of three positions leave a carry at the leaf level and at every level above it, and
    their combines outgrow the block buffers; a block of a whole tree carries nothing.  Blocks of
    five gather 65 leaf positions of the 64-word chunk before they pass LANE_MIN_WORDS, an odd
    count, so the leaf level combines 64 of them and carries the last.
    """
    height = 7
    per_block = {"three_positions": 3, "five_positions": 5, "whole_tree": 2**height}[blocks]
    monkeypatch.setattr(_LaneKernel, "block_positions", lambda self, words, z: per_block)
    calls = _record_calls(monkeypatch, tmp_path, _LaneKernel, "leaves")
    cfg = SimConfig(zary(2), _profile("random", k), height=height, trials=4097, alpha=alpha, seed=17)
    _assert_same_stream(cfg)
    # two chunks, at one worker and again at two, where the second chunk runs in a forked worker
    pids = [pid for (pid,) in calls.rows()]
    assert len(pids) == 4 * -(-(2**height) // per_block) and len(set(pids)) == 2


def test_block_positions_per_plane():
    """Leaf blocks hold 2^15 words per plane, within the buffer words of k = 8.

    At 64-word chunks z2k2 and z2k8 take 512 positions, z3k3 486 (two subtrees of 243) and k = 63
    only 64.  For k <= 3 the blocks are those of the rule of 2^15 words per plane.
    """
    def kernel(z, k, kind="uniform"):
        return _LaneKernel(SimConfig(zary(z), _profile(kind, k), height=20, trials=1))

    assert [kernel(z, k).block_positions(64, z) for z, k in ((2, 2), (2, 8), (3, 3), (2, 63))] == [512, 512, 486, 64]
    for z, k, kind in itertools.product((2, 3, 5), (1, 2, 3), ("uniform", "zero_sane")):
        for words in range(1, 65):
            per_block, span = max(1, 2**15 // words), 1
            while span * z <= per_block and span < z**20:
                span *= z
            assert kernel(z, k, kind).block_positions(words, z) == per_block // span * span, (z, k, kind, words)
    for k in range(1, 64):
        lanes = kernel(2, k)
        assert lanes.buffers(lanes.block_positions(64, 2) * 64).size <= mc_sim.LANE_BUFFER_WORDS, k


@pytest.mark.parametrize("alpha", [None, 0.3])
@pytest.mark.parametrize("trials", [1, 63, 64, 65, 4095, 4097, 4160])
def test_stream_identity_padding_lanes(trials, alpha):
    """A chunk whose trials do not fill its last word simulates padding lanes, which never count or draw."""
    cfg = SimConfig(zary(3), _profile("random", 2), height=6, trials=trials, alpha=alpha, seed=13)
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
    """An atom above 255: a group of 300-child parents ANDs 300 child positions.

    With one disease at 0.9 a 300-child node has about 270 infected children, each of which
    flips a coin, so at alpha = 0.005 the parent stays sane with probability (1-0.005)^270.
    """
    law = make_offspring([(2, 0.99), (300, 0.01)])
    cfg = SimConfig(law, profile, height=2, trials=4097, alpha=alpha, seed=3)
    _assert_same_stream(cfg)


def test_stream_identity_top_count_cut_rounds_to_one():
    """A child-count cut that rounds to 2^32 is clipped to the largest uint32, not wrapped to 0.

    Wrapped, every node of this law would get 3 children instead of almost surely 2.
    """
    law = make_offspring([(2, 1 - 1e-11), (3, 1e-11)])
    cfg = SimConfig(law, _profile("random", 2), height=3, trials=4097, seed=8)
    assert _GWKernel(cfg).qcut.tolist() == [2**32 - 1]
    assert all(set(counts.tolist()) == {2} for counts in _reference_levels(cfg, 0, CHUNK_TRIALS))
    _assert_same_stream(cfg)


def _bottom_groups(cfg: SimConfig, n_trials: int) -> list[int]:
    """Sizes of the atom groups of every lane block of chunk 0's bottom level."""
    bottom = _reference_levels(cfg, 0, n_trials)[-1]
    blocks = [bottom[i : i + mc_sim.BLOCK_PARENTS] for i in range(0, bottom.size, mc_sim.BLOCK_PARENTS)]
    return [int(n) for block in blocks for n in np.unique(block, return_counts=True)[1]]


@pytest.mark.parametrize("alpha", [None, 0.3])
def test_stream_identity_gw_several_blocks(alpha):
    """A chunk with several bottom lane blocks and several windows at the levels above."""
    law = make_offspring([(2, 0.9), (3, 0.1)])
    cfg = SimConfig(law, _profile("random", 2), height=7, trials=4097, alpha=alpha, seed=21)
    levels = _reference_levels(cfg, 0, CHUNK_TRIALS)
    assert levels[-1].size > mc_sim.BLOCK_PARENTS and levels[-2].size > 2 * mc_sim.WINDOW_PARENTS
    _assert_same_stream(cfg)


@pytest.mark.parametrize("alpha", [None, 0.3, 0.123456789])
@pytest.mark.parametrize("k", [1, 2, 8])
def test_stream_identity_gw_small_blocks(monkeypatch, k, alpha):
    """Lane blocks of 130 parents and windows of 6: atom groups of 1 lane, of under 64, and of 64 and more.

    Which children a parent takes, and in which lane word its leaves lie, depends on the blocks.
    """
    monkeypatch.setattr(mc_sim, "BLOCK_PARENTS", 130)
    monkeypatch.setattr(mc_sim, "WINDOW_PARENTS", 6)
    law = make_offspring([(2, 0.6), (3, 0.39), (7, 0.01)])
    cfg = SimConfig(law, _profile("random", k), height=3, trials=300, alpha=alpha, seed=4)
    sizes = _bottom_groups(cfg, cfg.trials)
    assert 1 in sizes and any(n % 64 and n > 64 for n in sizes) and any(1 < n < 64 for n in sizes)
    _assert_same_stream(cfg)


@pytest.mark.parametrize("alpha", [None, 0.3])
def test_stream_identity_gw_absent_atom(monkeypatch, alpha):
    """A block's atom groups lie end to end in one leaf draw, and an absent atom takes no words.

    With blocks of 130 parents the middle atom of {2: 0.5, 3: 0.01, 9: 0.49} is often missing,
    and at k = 8 the words that ask for refine planes fall in more than one group of a block.
    """
    monkeypatch.setattr(mc_sim, "BLOCK_PARENTS", 130)
    monkeypatch.setattr(mc_sim, "WINDOW_PARENTS", 6)
    law = make_offspring([(2, 0.5), (3, 0.01), (9, 0.49)])
    cfg = SimConfig(law, _profile("random", 8), height=3, trials=300, alpha=alpha, seed=4)
    refined, leaves = [], _LaneKernel.leaves

    def recorded(self, draw, refine, *args):
        asked = []
        refined.append(asked)
        return leaves(self, draw, lambda idx: asked.append(idx) or refine(idx), *args)

    monkeypatch.setattr(_LaneKernel, "leaves", recorded)
    _assert_same_stream(cfg)
    bottom = _reference_levels(cfg, 0, cfg.trials)[-1]
    blocks = [bottom[i : i + mc_sim.BLOCK_PARENTS] for i in range(0, bottom.size, mc_sim.BLOCK_PARENTS)]
    assert len(refined) == len(blocks)
    absent_and_spanning = 0
    for block, asked in zip(blocks, refined):
        zs, n = np.unique(block, return_counts=True)
        group_ends = np.cumsum(zs * -(-n // 64))  # leaf words of each group present, atom ascending
        words = np.concatenate(asked) if asked else np.empty(0, dtype=np.intp)
        groups = np.unique(np.searchsorted(group_ends, words, side="right"))
        absent_and_spanning += zs.size < 3 and groups.size > 1
    assert absent_and_spanning


_COMBINE_CASES = [(z, k) for z in (2, 3, 4) for k in (1, 2, 3)] + [(2, 8)]


def _child_tuples(z: int, k: int) -> np.ndarray:
    """Every tuple of z child state indices, index i < k for disease i+1 and k for sane."""
    return np.array(list(itertools.product(range(k + 1), repeat=z)), dtype=np.uint8)


def _state(index: int, k: int) -> int:
    return SANE if index == k else index + 1


@pytest.mark.parametrize("z,k", _COMBINE_CASES)
def test_level_combine_exhaustive(z, k):
    """Every child tuple of atom z, in a window that interleaves atoms 2, 3 and 4, combines as combine_children says.

    The parents come in a shuffled count order, and the kids are laid out as
    _GWKernel.combine_groups documents: atom 2's parents, in count order, are the lanes of its
    two child positions, then come atom 3's, then atom 4's, each group padded to whole words.
    """
    rng = np.random.default_rng(10 * z + k)
    tuples = [tuple(t) for t in _child_tuples(z, k)]
    for other in {2, 3, 4} - {z}:  # as many parents of each other atom, with random children
        tuples += [tuple(t) for t in rng.integers(0, k + 1, size=(len(tuples) // 2, other))]
    parents = [tuples[i] for i in rng.permutation(len(tuples))]  # count order
    kernel, atoms, groups, kids = _window(parents, k, rng)
    got = kernel.combine_groups(kids, atoms, groups, None, {})
    states = [combine_children([_state(i, k) for i in t]) for t in parents]
    want = _masks(k)[0][[k if s == SANE else s - 1 for s in states]]
    assert got.dtype == want.dtype == (np.uint16 if k == 8 else np.uint8)
    assert np.array_equal(got, want)


@pytest.mark.parametrize("z,k", [(z, k) for z in (2, 3, 4) for k in (1, 2, 3)])
def test_level_combine_variant_with_injected_coins(z, k):
    """Every child tuple of atom z under every coin pattern, in a window with atoms 2, 3 and 4.

    The parent stays sane when each infected child's coin is set, and no padding lane asks
    for a coin.
    """
    rng = np.random.default_rng(100 * z + k)
    coin_sets = list(itertools.product((False, True), repeat=z))
    cases = [(t, c) for t in map(tuple, _child_tuples(z, k)) for c in coin_sets]
    for other in {2, 3, 4} - {z}:
        cases += [(tuple(t), tuple(c)) for t, c in zip(rng.integers(0, k + 1, size=(len(cases) // 4, other)),
                                                        rng.integers(0, 2, size=(len(cases) // 4, other)) == 1)]
    cases = [cases[i] for i in rng.permutation(len(cases))]  # count order
    parents = [t for t, _ in cases]
    kernel, atoms, groups, kids = _window(parents, k, rng, alpha=0.5)
    patterns = {}
    for a, n, words in groups:  # each group's coins, lanes of its child positions
        coins = np.zeros((a, 64 * words), dtype=bool)
        coins[:, :n] = np.array([c for t, c in cases if len(t) == a]).T
        patterns[a] = (n, _pack(coins))

    def inject(need):
        n, pattern = patterns[need.shape[1]]
        assert not _unpack(need)[..., n:].any()
        return need & pattern

    got = kernel.combine_groups(kids, atoms, groups, inject, {})
    want = []
    for t, c in cases:
        states = [_state(i, k) for i in t]
        stay = all(coin for s, coin in zip(states, c) if s != SANE)
        want.append(combine_children(states, alpha=0.5, rng=_StubRng(stay)))
    assert np.array_equal(got, _masks(k)[0][[k if s == SANE else s - 1 for s in want]])


def _window(parents, k: int, rng, alpha=None):
    """A GW kernel with atoms 2, 3 and 4, and the atoms, groups and kids of one window.

    parents lists each parent's child state indices, in count order.  Atom z's n parents are
    lanes 0..n-1 of z child positions of ceil(n / 64) words, and the padding lanes hold random
    states.
    """
    law = make_offspring([(2, 0.4), (3, 0.3), (4, 0.3)])
    kernel = _GWKernel(SimConfig(law, _profile("uniform", k), height=1, trials=1, alpha=alpha))
    atoms = np.array([len(t) - 2 for t in parents], dtype=np.uint8)
    groups, planes = [], []
    for z in (2, 3, 4):
        kids = np.array([t for t in parents if len(t) == z], dtype=np.uint8).T
        n, words = kids.shape[1], -(-kids.shape[1] // 64)
        states = rng.integers(0, k + 1, size=(z, 64 * words))
        states[:, :n] = kids
        groups.append((z, n, words))
        planes.append(_pack_states(states, k).reshape(k + 1, -1))
    return kernel, atoms, groups, np.concatenate(planes, axis=1)


@pytest.mark.parametrize("n", [1, 63, 64, 65])
@pytest.mark.parametrize("k", [2, 8])
def test_planes_masks_round_trip(k, n):
    """Masks of n lanes turn into k+1 bit-planes, zero-padded to whole words, and back unchanged.

    The scratch arrays come from a larger window of all-ones masks, so stale lanes would show.
    masks writes to an array of its own, so the planes stay as they were.
    """
    kernel = _GWKernel(SimConfig(FIG_FE, _profile("uniform", k), height=1, trials=1))
    assert kernel.dtype == (np.uint16 if k == 8 else np.uint8)
    words, scratch = -(-n // 64), {}
    ones = _Taker([np.full(256, (1 << (k + 1)) - 1, dtype=kernel.dtype)])
    kernel.masks(kernel.planes(ones, [(2, 128, 2)], scratch), scratch)
    masks = np.random.default_rng(n).integers(0, 1 << (k + 1), size=n).astype(kernel.dtype)
    planes = kernel.planes(_Taker([masks]), [(1, n, words)], scratch)
    assert planes.shape == (k + 1, words)
    bits = _unpack(planes)
    assert np.array_equal(bits[:, :n], [(masks >> i & 1).astype(bool) for i in range(k + 1)])
    assert not bits[:, n:].any()
    assert np.array_equal(kernel.masks(planes, scratch)[:n], masks)
    assert np.array_equal(_unpack(planes), bits)  # masks leaves planes unchanged


# --- lane kernel oracles: chosen inputs packed into 64-trial words ---------------------


def _pack(bits: np.ndarray) -> np.ndarray:
    """Bool lanes (..., 64 w) as uint64 words (..., w): lane l of word g is bit l."""
    return np.ascontiguousarray(np.packbits(bits, axis=-1, bitorder="little")).view("<u8").astype(np.uint64)


def _unpack(words: np.ndarray) -> np.ndarray:
    return np.unpackbits(np.ascontiguousarray(words, dtype="<u8").view(np.uint8), axis=-1, bitorder="little").astype(bool)


def _pack_states(states: np.ndarray, k: int) -> np.ndarray:
    """k+1 bit-planes of state indices (..., 64 w): plane i < k is disease i+1 or sane, plane k sane."""
    return np.stack([_pack((states == i) | (states == k)) for i in range(k)] + [_pack(states == k)])


def _unpack_states(planes: np.ndarray, k: int) -> np.ndarray:
    """State indices of k+1 bit-planes; every lane must be a single disease or sane."""
    bits = _unpack(planes)
    sane = bits[k]
    assert np.all(bits[:k][:, sane]) and np.all(bits[:k].sum(axis=0)[~sane] == 1)
    return np.where(sane, k, bits[:k].argmax(axis=0))


def _lanes_of_tuples(tuples: np.ndarray, words: int) -> np.ndarray:
    """Child states (parents, z, 64 words), every tuple once and then repeated to fill the lanes."""
    n_lanes = 64 * words
    n_par = -(-len(tuples) // n_lanes)
    cycled = tuples[np.arange(n_par * n_lanes) % len(tuples)]
    return cycled.reshape(n_par, n_lanes, -1).transpose(0, 2, 1)


@pytest.mark.parametrize("z,k", _COMBINE_CASES)
def test_lane_combine_exhaustive(z, k):
    """Every child tuple, packed into lanes of several parents, combines as combine_children says."""
    kernel = _LaneKernel(SimConfig(zary(z), _profile("uniform", k), height=1, trials=1))
    tuples = _child_tuples(z, k)
    kids = _lanes_of_tuples(tuples, words=2)
    got = _unpack_states(kernel.combine(_pack_states(kids.reshape(-1, kids.shape[-1]), k), z), k)
    for p in range(len(kids)):
        for lane in range(kids.shape[-1]):
            parent = combine_children([_state(i, k) for i in kids[p, :, lane]])
            assert got[p, lane] == (k if parent == SANE else parent - 1)


class _StubRng:
    """rng for combine_children that keeps the parent sane exactly when `stay` says so."""

    def __init__(self, stay: bool):
        self.stay = stay

    def random(self) -> float:
        return 0.0 if self.stay else 1.0


@pytest.mark.parametrize("z,k", [(z, k) for z in (2, 3, 4) for k in (1, 2, 3)])
def test_lane_variant_with_injected_coins(z, k):
    """Every child tuple under every coin pattern: the parent stays sane when each infected child's coin is set."""
    kernel = _LaneKernel(SimConfig(zary(z), _profile("uniform", k), height=1, trials=1, alpha=0.5))
    tuples = _child_tuples(z, k)
    coin_sets = np.array(list(itertools.product((False, True), repeat=z)))
    cases = np.array([(*t, *c) for t in tuples for c in coin_sets], dtype=np.uint8)
    lanes = _lanes_of_tuples(cases, words=1)
    kids, coins = lanes[:, :z], lanes[:, z:].astype(bool)
    seen = []

    def inject(need):
        seen.append(need.copy())
        return need & _pack(coins)

    valid = np.full(1, ~np.uint64(0))
    got = _unpack_states(kernel.combine(_pack_states(kids.reshape(-1, kids.shape[-1]), k), z, inject, valid), k)
    want_need = np.zeros(kids.shape, dtype=bool)
    for p in range(len(kids)):
        for lane in range(kids.shape[-1]):
            states = [_state(i, k) for i in kids[p, :, lane]]
            infected = np.array([s != SANE for s in states])
            undecided = len(set(states) - {SANE}) == 1 and not infected.all()
            want_need[p, :, lane] = undecided & infected
            stay = bool(coins[p, infected, lane].all())
            parent = combine_children(states, alpha=0.5, rng=_StubRng(stay))
            assert got[p, lane] == (k if parent == SANE else parent - 1)
    assert len(seen) == 1 and np.array_equal(_unpack(seen[0]), want_need)


@pytest.mark.parametrize("alpha", [1e-12, 1.0], ids=["q_2_32", "q_0"])
@pytest.mark.parametrize("z,k", [(2, 2), (3, 1), (4, 3)])
def test_lane_variant_alpha_extremes(z, k, alpha):
    """An alpha so small that q rounds to 2^32 keeps every undecided parent sane without a draw.

    alpha = 1 gives q = 0, the standard rule.
    """
    kernel = _LaneKernel(SimConfig(zary(z), _profile("uniform", k), height=1, trials=1, alpha=alpha))
    kids = _lanes_of_tuples(_child_tuples(z, k), words=1)
    planes = _pack_states(kids.reshape(-1, kids.shape[-1]), k)

    def no_draw(t, n):
        raise AssertionError("a coin was drawn")

    if alpha == 1.0:
        assert kernel.q is None
        got = kernel.combine(planes, z)
    else:
        assert kernel.q == 1 << 32
        got = kernel.combine(planes, z, lambda need: kernel.coins(no_draw, need), np.full(1, ~np.uint64(0)))
    rng = random.Random(0)
    want = [[combine_children([_state(i, k) for i in kids[p, :, lane]], alpha=alpha, rng=rng)
             for lane in range(kids.shape[-1])] for p in range(len(kids))]
    assert np.array_equal(_unpack_states(got, k), np.array([[k if s == SANE else s - 1 for s in row] for row in want]))


_T = LANE_EAGER_BITS


@pytest.mark.parametrize(
    "cuts",
    [
        (0x55555555, 0xAAAAAAAB),
        (0, 1 << 31, (1 << 32) - 1),
        (123456789, 123456789, 3_000_000_000),
        (1 << 30, 1 << 32),
        (5 << (32 - _T), 0x9E3779B9),
        (5 << (32 - _T), 3 << 30),
    ],
    ids=["no_short_form", "zero_and_top", "equal_cuts", "top_cut_2_32", "eager_multiple", "all_eager"],
)
def test_lane_leaves_match_searchsorted(cuts):
    """Chosen uniforms next to every cut land in searchsorted(cuts, u, "right").

    Only the words where a lane ties with a cut that has set bits below the eager planes
    ask for the rest of their bits.
    """
    bounds = np.array((0, *cuts, 1 << 32), dtype=np.float64)
    kernel = _LaneKernel(SimConfig(zary(2), tuple((np.diff(bounds) / 2.0**32).tolist()), height=1, trials=1))
    assert [c for c, _ in kernel.cuts] == [c for c in cuts if c < 1 << 32]
    chosen = sorted({min(max(c + d, 0), (1 << 32) - 1) for c in cuts for d in (-1, 0, 1)} | {0, (1 << 32) - 1})
    n_pos, words = 3, 2
    u = np.random.default_rng(1).integers(0, 1 << 32, size=n_pos * words * 64, dtype=np.uint64)
    u[: len(chosen)] = chosen
    u[-len(chosen):] = chosen  # in another position and word too
    u = u.reshape(n_pos, words * 64)
    planes = np.stack([_pack(u >> np.uint64(31 - t) & 1 == 1).ravel() for t in range(32)])
    asked = []

    def draw(t, n):
        assert n == n_pos * words
        return planes[t]

    def refine(idx):
        asked.append(idx)
        return planes[_T:, idx].T  # one row per word, as the refine substream draws them

    valid = np.full(words, ~np.uint64(0))
    got = kernel.leaves(draw, refine, n_pos, valid, kernel.buffers(n_pos * words))
    want = np.searchsorted(np.array(cuts, dtype=np.uint64), u, side="right")
    assert np.array_equal(_unpack_states(got, len(cuts)), want)
    deep = [c for c in cuts if c < 1 << 32 and c % (1 << (32 - _T))]
    tied = np.zeros(u.shape, dtype=bool)
    for c in deep:
        tied |= u >> np.uint64(32 - _T) == c >> (32 - _T)
    want_asked = np.flatnonzero(tied.reshape(n_pos, words, 64).any(axis=-1).ravel())
    assert np.array_equal(np.concatenate(asked) if asked else np.empty(0, dtype=np.intp), want_asked)
    assert asked or not deep


def _traced_peak(cfg: SimConfig) -> int:
    """Peak traced bytes of simulate_root at one worker.

    A one-trial run first does the imports numpy's seeding makes on first use (about 0.7 MiB).
    """
    _simulate(SimConfig(cfg.dist, cfg.profile, height=1, trials=1), 1)
    tracemalloc.start()
    tracemalloc.reset_peak()
    try:
        _simulate(cfg, 1)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_zary_chunk_memory_is_bounded():
    """A z-ary standard-rule chunk holds one leaf block, not every leaf of its 4096 trials."""
    peak = _traced_peak(SimConfig(zary(2), (1 / 3,) * 3, height=12, trials=4096, seed=1))
    assert peak < 16 * 2**20, f"peak {peak / 2**20:.1f} MiB"


@pytest.mark.parametrize("k,bound_mib", [(8, 6), (63, 14)])
def test_zary_chunk_memory_is_bounded_at_large_k(k, bound_mib):
    """The block buffers hold each level of a block, and their size is capped whatever k is.

    k = 8 traced 5.6 MiB: 4.25 MiB of buffers at 2^15 words per plane, the rest the refine
    words and the carries.  Allocating every level's combine afresh traced 6.5 MiB.  At k = 63
    the cap keeps the buffers to 4.0 MiB of the 11.1 MiB peak, against 32 MiB at 2^15 words per
    plane; the carries of 64 planes take most of the rest.
    """
    peak = _traced_peak(SimConfig(zary(2), (1 / (k + 1),) * (k + 1), height=12, trials=4096, seed=1))
    assert peak < bound_mib * 2**20, f"peak {peak / 2**20:.1f} MiB"


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
        _simulate(cfg, 1)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 8 * 2**20, f"peak {peak / 2**20:.1f} MiB"


def test_chunks_in_flight_are_bounded(monkeypatch):
    """With two workers simulate_root runs one chunk per worker at a time, so its peak does not grow with the chunk count.

    tracemalloc sees only the calling process, that is worker 0 and what the caller keeps of
    the forked worker's counts.  Handing every chunk to a pool at once took about 2 KB per chunk.
    """
    monkeypatch.setattr(mc_sim, "CHUNK_TRIALS", 1)
    peaks, results = [], []
    for trials in (250, 2000):
        cfg = SimConfig(zary(2), (0.5, 0.5), height=1, trials=trials, seed=1)
        tracemalloc.start()
        try:
            results.append(_simulate(cfg, 2))
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
        assert results[-1] == _simulate(cfg, 1)
    assert peaks[1] < peaks[0] + 2**18, f"peaks {peaks}"


def test_chunks_are_walked_lazily(monkeypatch):
    """simulate_root sizes each chunk as it starts it: 2^32 trials, 2^20 chunks, allocate nothing up front.

    A list of the chunks' sizes would hold 8 MiB before the first chunk ran.  tracemalloc sees
    only the calling process: at two workers, worker 0 and the start of the forked worker,
    which the first chunk's error kills.
    """

    class Stop(Exception):
        pass

    def first_chunk(self, chunk_index, n_trials, scratch):
        raise Stop

    monkeypatch.setattr(_LaneKernel, "chunk", first_chunk)
    cfg = SimConfig(zary(2), (0.5, 0.5), height=1, trials=2**32, seed=1)
    for workers in (1, 2):
        tracemalloc.start()
        try:
            with pytest.raises(Stop):
                _simulate(cfg, workers)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2**20, f"{workers} workers: peak {peak} bytes"


def _record_chunks(monkeypatch, tmp_path, n_trials: int = 64) -> _Log:
    """Rows (chunk index, trials, process id, id of the scratch dict) of every later chunk of _LaneKernel, which still runs.

    Chunks hold n_trials trials.
    """
    monkeypatch.setattr(mc_sim, "CHUNK_TRIALS", n_trials)
    log, chunk = _Log(tmp_path / "chunks"), _LaneKernel.chunk

    def recorded(self, chunk_index, n_trials, scratch):
        log.add(chunk_index, n_trials, os.getpid(), id(scratch))
        return chunk(self, chunk_index, n_trials, scratch)

    monkeypatch.setattr(_LaneKernel, "chunk", recorded)
    return log


def test_workers_take_a_static_stride(monkeypatch, tmp_path):
    """Of 3 workers, worker w runs chunks w, w + 3, ..., each in its own process with one scratch dict for all of them.

    Worker 0 is the calling process.
    """
    calls = _record_chunks(monkeypatch, tmp_path)
    cfg = SimConfig(zary(2), (0.4, 0.25, 0.35), height=3, trials=6 * 64 + 10, seed=3)
    got = _simulate(cfg, 3)
    rows = calls.rows()
    assert sorted((c, n) for c, n, _, _ in rows) == [(c, 64) for c in range(6)] + [(6, 10)]
    by_pid = {}
    for c, _, pid, scratch in rows:
        by_pid.setdefault(pid, set()).add((c % 3, scratch))
    # three processes, each with one residue and one scratch dict (ids are only unique within a process)
    assert len(by_pid) == 3 and all(len(v) == 1 for v in by_pid.values())
    assert sorted(next(iter(v))[0] for v in by_pid.values()) == [0, 1, 2]
    assert next(iter(by_pid[os.getpid()]))[0] == 0
    assert got == _simulate(cfg, 1)


def test_one_worker_runs_on_the_calling_thread(monkeypatch, tmp_path):
    """One worker forks no process: every chunk runs on this thread, with one scratch dict."""

    def no_fork(*args, **kwargs):
        raise AssertionError("a worker process was forked")

    calls = _record_chunks(monkeypatch, tmp_path)
    monkeypatch.setattr(os, "fork", no_fork)
    _simulate(SimConfig(zary(2), (0.5, 0.5), height=2, trials=5 * 64, seed=1), 1)
    rows = calls.rows()
    assert [c for c, _, _, _ in rows] == list(range(5))
    assert {(pid, scratch) for _, _, pid, scratch in rows} == {(os.getpid(), rows[0][3])}


def test_no_fork_runs_every_chunk_in_process(monkeypatch, tmp_path):
    """Where os.fork is missing, any worker count runs every chunk in this process, with the same result."""
    calls = _record_chunks(monkeypatch, tmp_path)
    cfg = SimConfig(zary(2), (0.4, 0.25, 0.35), height=3, trials=5 * 64 + 1, seed=2)
    want = _simulate(cfg, 1)
    monkeypatch.delattr(os, "fork")
    assert _simulate(cfg, 3) == want
    rows = calls.rows()
    assert [c for c, _, _, _ in rows] == 2 * list(range(6)) and {pid for _, _, pid, _ in rows} == {os.getpid()}


def test_a_failed_chunk_stops_the_other_workers(monkeypatch, tmp_path):
    """Once a chunk raises, in the caller or in a forked worker, the other workers start no further chunk.

    So the error is not held back for the rest.  Chunk 0 runs in the caller, chunk 1 in a
    forked worker, whose error comes back as a RuntimeError naming it.
    """

    class Stop(Exception):
        pass

    monkeypatch.setattr(mc_sim, "CHUNK_TRIALS", 1)
    for failing, raised in ((0, pytest.raises(Stop)), (1, pytest.raises(RuntimeError, match="worker 1 raised Stop"))):
        seen = _Log(tmp_path / f"seen{failing}")

        def chunk(self, chunk_index, n_trials, scratch):
            if chunk_index == failing:
                raise Stop
            seen.add(chunk_index)
            time.sleep(0.002)
            return np.zeros(2, dtype=np.int64)

        monkeypatch.setattr(_LaneKernel, "chunk", chunk)
        with raised:
            _simulate(SimConfig(zary(2), (0.5, 0.5), height=1, trials=600, seed=1), 3)
        # without the stop the other two workers would run all 399 of their chunks
        assert len(seen.rows()) < 100, (failing, len(seen.rows()))


def _no_child_left() -> bool:
    try:
        os.waitpid(-1, os.WNOHANG)
    except ChildProcessError:
        return True
    return False


@pytest.mark.parametrize("outcome", ["returns", "forked_error", "caller_interrupted"])
def test_no_worker_outlives_the_call(monkeypatch, outcome):
    """After simulate_root returns or raises, every forked worker is reaped; one still running is killed.

    An interrupted caller kills its workers at once: here each of them would sleep for a minute.
    """
    caller = os.getpid()
    monkeypatch.setattr(mc_sim, "CHUNK_TRIALS", 1)
    chunk = _LaneKernel.chunk

    def patched(self, chunk_index, n_trials, scratch):
        if outcome == "forked_error" and chunk_index == 1:
            raise SimulationError("chunk 1 refused")
        if outcome == "caller_interrupted":
            if os.getpid() == caller:
                raise KeyboardInterrupt
            time.sleep(60)
        return chunk(self, chunk_index, n_trials, scratch)

    monkeypatch.setattr(_LaneKernel, "chunk", patched)
    cfg = SimConfig(zary(2), (0.5, 0.5), height=2, trials=8, seed=1)
    assert _no_child_left()
    start = time.perf_counter()
    if outcome == "returns":
        _simulate(cfg, 3)
    else:
        with pytest.raises(SimulationError if outcome == "forked_error" else KeyboardInterrupt):
            _simulate(cfg, 3)
    assert _no_child_left()
    assert time.perf_counter() - start < 30


def test_forks_beside_another_thread_with_warnings_as_errors(monkeypatch):
    """Two workers give the one-worker result while another thread is alive, with every warning an error.

    Python 3.12 warns when os.fork runs in a process with other threads; simulate_root
    silences that one warning around its fork, as its children only run chunks.  os.fork
    here gives the same warning on any version.
    """
    fork = os.fork

    def fork_that_warns():
        pid = fork()
        if pid and threading.active_count() > 1:
            warnings.warn(f"This process (pid={os.getpid()}) is multi-threaded, use of fork() may lead to"
                          " deadlocks in the child.", DeprecationWarning, stacklevel=2)
        return pid

    monkeypatch.setattr(os, "fork", fork_that_warns)
    cfg = SimConfig(zary(2), (0.4, 0.25, 0.35), height=6, trials=2 * CHUNK_TRIALS + 1, seed=9)
    want = _simulate(cfg, 1)
    stop = threading.Event()
    other = threading.Thread(target=stop.wait, args=(60,))
    other.start()
    try:
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got = _simulate(cfg, 2)
    finally:
        stop.set()
        other.join(timeout=60)
    assert not other.is_alive()
    assert got == want
