"""Monte Carlo simulation of infection propagation up sampled trees.

States are encoded as bitmasks over k+1 bits: disease i is the single bit
1 << (i-1), sane is the all-ones mask.  The combine rule is then a bitwise
AND of the children followed by "keep if exactly one bit survives, else
sane", which matches the componentwise-product formulation of the spread
rules and vectorises level by level without ever materialising a tree
structure.  Trials are evaluated in fixed-size chunks, each chunk drawing
from its own seed-derived Philox stream, so results are reproducible and
chunks can run concurrently.  A chunk draws its leaves in order, in
cache-sized blocks; on a z-ary tree under the standard rule each block holds
whole subtrees and is combined up their levels while it is in cache, so only
the nodes above them are ever stored.  Blocking keeps every draw, so a given
config and seed give the same output as drawing all leaves at once.
"""

from __future__ import annotations

import math
import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np

from .offspring import OffspringDistribution

SANE = 0  # scalar NodeState for a non-infected node; diseases are 1..k

CHUNK_TRIALS = 4096
BLOCK_LEAVES = 1 << 18  # leaves drawn (and, on z-ary trees, combined) per cache-sized block
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
        if self.alpha is not None and not 0.0 < self.alpha <= 1.0:
            raise SimulationError(f"alpha {self.alpha!r} outside (0,1]")
        total = sum(self.profile)
        if abs(total - 1.0) > 1e-12 or not all(0 <= p < math.inf for p in self.profile):
            raise SimulationError(f"profile {self.profile!r} is not a probability vector")
        if len(self.profile) < 2:
            raise SimulationError("profile needs at least one disease and the sane mass")
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


def _mask_dtype(k: int):
    bits = k + 1
    for dtype, width in ((np.uint8, 8), (np.uint16, 16), (np.uint32, 32), (np.uint64, 64)):
        if bits <= width:
            return dtype
    raise SimulationError(f"k={k} too large for the bitmask simulator (max 63)")


class _ChunkKernel:
    """Per-config constants shared by every chunk."""

    def __init__(self, cfg: SimConfig):
        self.cfg = cfg
        k = cfg.k
        self.dtype = _mask_dtype(k)
        self.full = np.asarray((1 << (k + 1)) - 1, dtype=self.dtype)
        self.cuts = np.cumsum(cfg.profile[:-1])
        # integer thresholds for the fast uint32 sampling path; unusable when a
        # cumulative probability rounds to the full 2^32 range (zero sane mass)
        cuts_u = np.rint(self.cuts * _U32)
        self.fast_leaf = bool(k <= 6 and cuts_u.max() < _U32)
        if self.fast_leaf:
            self.cuts = cuts_u.astype(np.uint32)
        dist = cfg.dist
        self.fused = 0
        if dist.is_deterministic:
            self.z = dist.z_value
            self.zs = self.qcut = None
            if cfg.alpha is None:  # a block holds at least two whole subtrees of depth `fused`
                while self.fused < cfg.height and 2 * self.z ** (self.fused + 1) <= BLOCK_LEAVES:
                    self.fused += 1
        else:
            self.z = None
            self.zs = np.array([z for z, _ in dist.support], dtype=np.int64)
            self.qcut = np.cumsum([q for _, q in dist.support])[:-1]

    def sample_leaves(self, rng, n: int) -> np.ndarray:
        """Masks of the stream's next n leaves; n must be even unless no leaf follows."""
        if self.fast_leaf:
            # Philox hands out the low then the high half of each 64-bit word, so these
            # are the uint32s rng.integers(0, 2**32, dtype=np.uint32) would return
            u = rng.bit_generator.random_raw((n + 1) // 2).astype("<u8", copy=False).view("<u4")[:n]
        else:
            u = rng.random(n)
        # the leaf's state index is the number of cuts at or below its draw
        idx = (u >= self.cuts[0]).view(np.uint8)
        for c in self.cuts[1:]:
            idx += u >= c
        return self.leaf_masks(idx)

    def leaf_masks(self, idx: np.ndarray) -> np.ndarray:
        """Mask of leaf state idx: disease idx+1 for idx < k, sane for idx == k."""
        m = np.left_shift(self.dtype(1), idx, dtype=self.dtype)
        m |= (idx == self.cfg.k) * (self.full >> 1)
        return m

    def keep_single_bit(self, m: np.ndarray) -> np.ndarray:
        """'Exactly one surviving bit keeps its disease, else sane'.

        m is an AND of leaf masks, so it is a single bit, full or 0.
        """
        return m | (m == 0) * self.full

    def is_single_bit(self, m: np.ndarray) -> np.ndarray:
        return (m != 0) & ((m & (m - 1)) == 0)


def _and_columns(arr: np.ndarray) -> np.ndarray:
    acc = arr[:, 0] & arr[:, 1]
    for j in range(2, arr.shape[1]):
        acc &= arr[:, j]
    return acc


def _simulate_chunk(kernel: _ChunkKernel, chunk_index: int, n_trials: int) -> np.ndarray:
    """Root-state counts (k diseases then sane) for one chunk of trials."""
    cfg = kernel.cfg
    rng = np.random.Generator(np.random.Philox(np.random.SeedSequence(cfg.seed, spawn_key=(chunk_index,))))
    full = kernel.full
    alpha = cfg.alpha

    if kernel.z is not None:
        z = kernel.z
        counts_per_level = None
        n_leaves = n_trials * z**cfg.height
    else:
        counts_per_level = []
        n = n_trials
        for _ in range(cfg.height):
            idx = np.searchsorted(kernel.qcut, rng.random(n), side="right")
            counts = kernel.zs[idx]
            counts_per_level.append(counts)
            n = int(counts.sum())
        n_leaves = n

    # leaves are drawn in order, a block at a time; a z-ary standard-rule block is
    # combined up its `fused` levels while it is in cache, so only the nodes above
    # that depth are materialised
    span = (kernel.z or 1) ** kernel.fused
    per_block = (BLOCK_LEAVES // span) & ~1
    level = np.empty(n_leaves // span, dtype=kernel.dtype)
    for start in range(0, level.size, per_block):
        block = kernel.sample_leaves(rng, min(per_block, level.size - start) * span)
        for _ in range(kernel.fused):
            block = kernel.keep_single_bit(_and_columns(block.reshape(-1, z)))
        level[start : start + per_block] = block

    for depth in range(cfg.height - kernel.fused - 1, -1, -1):
        if counts_per_level is None:
            arr = level.reshape(-1, z)
            m = _and_columns(arr)
            if alpha is None:
                level = kernel.keep_single_bit(m)
            else:
                n_infected = z - (arr == full).sum(axis=1)
                stay_sane = (
                    kernel.is_single_bit(m)
                    & (n_infected < z)
                    & (rng.random(m.size) < (1.0 - alpha) ** n_infected)
                )
                level = np.where(stay_sane, full, kernel.keep_single_bit(m))
        else:
            counts = counts_per_level[depth]
            offsets = np.zeros(counts.size, dtype=np.int64)
            np.cumsum(counts[:-1], out=offsets[1:])
            m = np.empty(counts.size, dtype=kernel.dtype)
            n_infected = np.empty(counts.size, dtype=np.int64) if alpha is not None else None
            for z_val in kernel.zs:
                sel = np.nonzero(counts == z_val)[0]
                if sel.size == 0:
                    continue
                block = level[offsets[sel, None] + np.arange(z_val)]
                m[sel] = _and_columns(block)
                if n_infected is not None:
                    n_infected[sel] = z_val - (block == full).sum(axis=1)
            if alpha is None:
                level = kernel.keep_single_bit(m)
            else:
                stay_sane = (
                    kernel.is_single_bit(m)
                    & (n_infected < counts)
                    & (rng.random(m.size) < (1.0 - alpha) ** n_infected.astype(float))
                )
                level = np.where(stay_sane, full, kernel.keep_single_bit(m))

    out = np.zeros(cfg.k + 1, dtype=np.int64)
    for i in range(cfg.k):
        out[i] = int((level == 1 << i).sum())
    out[cfg.k] = n_trials - out[: cfg.k].sum()
    return out


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
