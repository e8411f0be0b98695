"""Monte Carlo simulation of infection propagation up sampled trees.

States are encoded as bitmasks over k+1 bits: disease i is the single bit
1 << (i-1), sane is the all-ones mask.  The combine rule is then a bitwise
AND of the children followed by "keep if exactly one bit survives, else
sane", which matches the componentwise-product formulation of the spread
rules and vectorises level by level without ever materialising a tree
structure.  Trials are evaluated in fixed-size chunks, each chunk drawing
from its own seed-derived Philox stream, so results are reproducible and
chunks can run concurrently.  A chunk draws its leaves in order, in
cache-sized blocks, and streams each block up the tree: every depth keeps a
carry of the children whose parent is not complete yet, so no level is stored
whole.  On z-ary trees a block holds whole subtrees; a Galton-Watson chunk
first draws its child counts top-down, one small integer per internal node;
the retention variant reads each depth's draws from a cursor placed where a
whole-level sampler would draw them.  Every draw is kept, so a given config
and seed give the same output as drawing all leaves at once.
"""

from __future__ import annotations

import math
import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np

from .dynamics import DynamicsError, _check_alpha, check_masses
from .offspring import OffspringDistribution

SANE = 0  # scalar NodeState for a non-infected node; diseases are 1..k

CHUNK_TRIALS = 4096
BLOCK_LEAVES = 1 << 18  # leaves drawn and carried up the tree per cache-sized block
MIN_LEVEL_NODES = 1 << 12  # a smaller level waits for the next block, saving calls on tiny arrays
DEFAULT_NODE_BUDGET = 1e8
_U32 = float(1 << 32)


class SimulationError(ValueError):
    """Invalid simulation config or budget violation."""


@dataclass(frozen=True)
class SimConfig:
    dist: OffspringDistribution
    profile: tuple[float, ...]  # p_1..p_k, p_sane
    height: int
    trials: int
    alpha: float | None = None  # None = standard rule
    seed: int = 0
    node_budget: float = DEFAULT_NODE_BUDGET

    def __post_init__(self):
        if self.height < 1:
            raise SimulationError(f"height must be >= 1, got {self.height}")
        if self.trials < 1:
            raise SimulationError(f"trials must be >= 1, got {self.trials}")
        try:  # the profile and alpha checks every entry point shares; any disease order is fine here
            check_masses(self.profile, strict=False)
            if self.alpha is not None:
                _check_alpha(self.alpha)
        except DynamicsError as exc:
            raise SimulationError(str(exc)) from exc
        if not 0.0 < self.node_budget < math.inf:
            raise SimulationError(f"node budget {self.node_budget!r} is not a positive finite number")

    @property
    def k(self) -> int:
        return len(self.profile) - 1


@dataclass(frozen=True)
class SimResult:
    masses: tuple[float, ...]  # empirical p_1..p_k, p_sane
    stderr: tuple[float, ...]  # binomial standard error per coordinate
    trials: int

    def to_json_obj(self) -> dict:
        return {"masses": list(self.masses), "stderr": list(self.stderr), "trials": self.trials}


def combine_children(states, alpha: float | None = None, rng=None):
    """Parent state from a list of child NodeStates (ints, 0 = sane).

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


class _ChunkKernel:
    """Per-config constants shared by every chunk."""

    def __init__(self, cfg: SimConfig):
        self.cfg = cfg
        k = cfg.k
        self.dtype = np.min_scalar_type((1 << (k + 1)) - 1)  # the smallest unsigned dtype with k+1 bits
        if self.dtype.kind != "u":
            raise SimulationError(f"k={k} too large for the bitmask simulator (max 63)")
        self.full = np.asarray((1 << (k + 1)) - 1, dtype=self.dtype)
        self.cuts = np.cumsum(cfg.profile[:-1])
        # integer thresholds for the fast uint32 sampling path; unusable when a
        # cumulative probability rounds to the full 2^32 range (zero sane mass)
        cuts_u = np.rint(self.cuts * _U32)
        self.fast_leaf = bool(k <= 6 and cuts_u.max() < _U32)
        if self.fast_leaf:
            self.cuts = cuts_u.astype(np.uint32)
        dist = cfg.dist
        zs = [z for z, _ in dist.support]
        # child counts and infected-child tallies fit the smallest unsigned dtype holding the largest atom
        self.count_dtype = np.min_scalar_type(max(zs))
        if cfg.alpha is not None:
            # a lone disease in m children, beside some sane ones, leaves the parent sane w.p. (1-alpha)^m
            self.p_stay_sane = (1.0 - cfg.alpha) ** np.arange(max(zs) + 1).astype(float)
        self.fused = 0  # depth of the whole subtrees a z-ary block holds (at least two of them)
        if dist.is_deterministic:
            self.z = dist.z_value
            while self.fused < cfg.height and 2 * self.z ** (self.fused + 1) <= BLOCK_LEAVES:
                self.fused += 1
        else:
            self.z = None
            self.zs = np.array(zs, dtype=self.count_dtype)
            self.z_min = min(zs)
            self.qcut = np.cumsum([q for _, q in dist.support])[:-1]
        span = (self.z or 1) ** self.fused
        self.block = (BLOCK_LEAVES // span & ~1) * span  # leaves per block: even, whole subtrees

    def tree_levels(self, rng, n_trials: int):
        """Nodes at each depth 0..height and, on a GW tree, each depth's child counts.

        Counts are drawn top-down; a level over the node budget raises before it is allocated.
        """
        cfg = self.cfg
        if self.z is not None:
            return [n_trials * self.z**d for d in range(cfg.height + 1)], None
        sizes, counts = [n_trials], []
        for depth in range(1, cfg.height + 1):
            c = np.empty(sizes[-1], dtype=self.count_dtype)
            for start in range(0, c.size, BLOCK_LEAVES):
                u = rng.random(min(BLOCK_LEAVES, c.size - start))
                c[start : start + u.size] = self.zs.take(_bucket(u, self.qcut))
            counts.append(c)
            sizes.append(int(c.sum()))
            if sizes[-1] > cfg.node_budget * n_trials:
                raise SimulationError(f"{sizes[-1]} sampled nodes at depth {depth} of {n_trials} trials"
                                      f" exceed the budget of {cfg.node_budget:.3g} per trial")
        return sizes, counts

    def sample_leaves(self, rng, n: int) -> np.ndarray:
        """Masks of the stream's next n leaves; n must be even unless no leaf follows."""
        if self.fast_leaf:
            # Philox hands out the low then the high half of each 64-bit word, so these
            # are the uint32s rng.integers(0, 2**32, dtype=np.uint32) would return
            u = rng.bit_generator.random_raw((n + 1) // 2).astype("<u8", copy=False).view("<u4")[:n]
        else:
            u = rng.random(n)
        return self.leaf_masks(_bucket(u, self.cuts))

    def leaf_masks(self, idx: np.ndarray) -> np.ndarray:
        """Mask of leaf state idx: disease idx+1 for idx < k, sane for idx == k."""
        m = np.left_shift(self.dtype.type(1), idx, dtype=self.dtype)
        m |= (idx == self.cfg.k) * (self.full >> 1)
        return m

    def keep_single_bit(self, m: np.ndarray) -> np.ndarray:
        """'Exactly one surviving bit keeps its disease, else sane'.

        m is an AND of leaf masks, so it is a single bit, full or 0.
        """
        return m | (m == 0) * self.full

    def combine(self, kids: np.ndarray, counts, starts, cursor) -> np.ndarray:
        """Parents of kids, z each or counts[i] from starts[i]; cursor draws the variant's uniforms."""
        if counts is None:
            cols = kids.reshape(-1, self.z)
            m = _and_columns(cols)
        else:
            m = np.bitwise_and.reduceat(kids, starts)
        parents = self.keep_single_bit(m)
        if cursor is None:
            return parents
        infected = (kids != self.full).view(np.uint8)
        if counts is None:
            cols, counts = infected.reshape(-1, self.z), self.z
            n_infected = cols[:, 0].astype(self.count_dtype)
            for j in range(1, self.z):
                n_infected += cols[:, j]
        else:
            n_infected = np.add.reduceat(infected, starts, dtype=self.count_dtype)
        single = (m != 0) & ((m & (m - 1)) == 0)
        stay_sane = single & (n_infected < counts) & (cursor.random(m.size) < self.p_stay_sane.take(n_infected))
        return parents | stay_sane * self.full


def _bucket(u: np.ndarray, cuts) -> np.ndarray:
    """Index of the bucket each draw falls in: the number of cuts at or below it."""
    idx = (u >= cuts[0]).view(np.uint8).astype(np.min_scalar_type(len(cuts)), copy=False)
    for c in cuts[1:]:
        idx += u >= c
    return idx


def _and_columns(arr: np.ndarray) -> np.ndarray:
    acc = arr[:, 0] & arr[:, 1]
    for j in range(2, arr.shape[1]):
        acc &= arr[:, j]
    return acc


def _cursor(seq: np.random.SeedSequence, word: int) -> np.random.Generator:
    """A generator on seq's Philox stream, placed at its `word`-th 64-bit word."""
    bit_gen = np.random.Philox(seq)
    bit_gen.advance(word // 4)  # one counter step makes four words
    bit_gen.random_raw(word % 4)
    return np.random.Generator(bit_gen)


def _simulate_chunk(kernel: _ChunkKernel, chunk_index: int, n_trials: int) -> np.ndarray:
    """Root-state counts (k diseases then sane) for one chunk of trials.

    Leaves are drawn in stream order, a block at a time, and each block is carried up
    the tree at once: every depth keeps the children whose parent is not complete yet,
    and, until the chunk's last block, any level of fewer than MIN_LEVEL_NODES nodes.
    """
    cfg, z = kernel.cfg, kernel.z
    seq = np.random.SeedSequence(cfg.seed, spawn_key=(chunk_index,))
    rng = np.random.Generator(np.random.Philox(seq))
    sizes, counts = kernel.tree_levels(rng, n_trials)
    height, n_leaves = cfg.height, sizes[-1]

    cursors = [None] * height
    if cfg.alpha is not None:
        # a whole-level sampler draws one variate per parent after the GW counts and every
        # leaf, deepest level first; each depth's cursor starts at its level's first word
        word = (0 if z else sum(sizes[:-1])) + ((n_leaves + 1) // 2 if kernel.fast_leaf else n_leaves)
        for depth in range(height - 1, -1, -1):
            cursors[depth] = _cursor(seq, word)
            word += sizes[depth]

    empty = np.empty(0, dtype=kernel.dtype)
    carries = [empty] * height
    roots, n_roots = np.empty(n_trials, dtype=kernel.dtype), 0
    for start in range(0, n_leaves, kernel.block):
        nodes = kernel.sample_leaves(rng, min(kernel.block, n_leaves - start))
        last = start + kernel.block >= n_leaves
        for depth in range(height - 1, -1, -1):
            if carries[depth].size:
                nodes, carries[depth] = np.concatenate((carries[depth], nodes)), empty
            if nodes.size < MIN_LEVEL_NODES and not last:
                carries[depth] = nodes
                break
            if z:
                used, c, starts = nodes.size - nodes.size % z, None, None
            else:
                # the parents whose children have all arrived, from a window of child counts
                window = counts[depth][: nodes.size // kernel.z_min]
                ends = np.cumsum(window, dtype=np.int64)
                n = int(np.searchsorted(ends, nodes.size, side="right"))
                c, counts[depth] = window[:n], counts[depth][n:]
                starts, used = ends[:n] - c, int(ends[n - 1]) if n else 0
            if used < nodes.size:  # a copy, so the carry does not keep the block alive
                nodes, carries[depth] = nodes[:used], nodes[used:].copy()
                if not used:
                    break
            nodes = kernel.combine(nodes, c, starts, cursors[depth])
        else:
            roots[n_roots : n_roots + nodes.size] = nodes
            n_roots += nodes.size

    infected = [int((roots == 1 << i).sum()) for i in range(cfg.k)]
    return np.array(infected + [n_trials - sum(infected)], dtype=np.int64)


def simulate_root(cfg: SimConfig, max_workers: int | None = None) -> SimResult:
    """Empirical root distribution over cfg.trials freshly sampled trees.

    Refuses configs whose expected node count per trial (mean^height) exceeds
    cfg.node_budget.  TREESPREAD_THREADS (or max_workers) caps chunk-level
    parallelism; results are identical regardless of worker count.
    """
    expected_nodes = cfg.dist.mean ** cfg.height
    if expected_nodes > cfg.node_budget:
        raise SimulationError(
            f"expected ~{expected_nodes:.3g} nodes per trial exceeds budget {cfg.node_budget:.3g}"
        )
    if max_workers is None:
        max_workers = int(os.environ.get("TREESPREAD_THREADS", "0")) or (os.cpu_count() or 1)
    max_workers = max(1, max_workers)

    kernel = _ChunkKernel(cfg)
    n_chunks = math.ceil(cfg.trials / CHUNK_TRIALS)
    sizes = [min(CHUNK_TRIALS, cfg.trials - c * CHUNK_TRIALS) for c in range(n_chunks)]
    if max_workers == 1 or n_chunks == 1:
        counts = sum(_simulate_chunk(kernel, c, n) for c, n in enumerate(sizes))
    else:
        with ThreadPoolExecutor(max_workers=max_workers) as pool:
            counts = sum(pool.map(lambda cn: _simulate_chunk(kernel, *cn), enumerate(sizes)))

    p_hat = counts / cfg.trials
    stderr = np.sqrt(p_hat * (1.0 - p_hat) / cfg.trials)
    return SimResult(tuple(p_hat.tolist()), tuple(stderr.tolist()), cfg.trials)
