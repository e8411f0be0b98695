"""Monte Carlo simulation of infection propagation up sampled trees.

States are encoded as bitmasks over k+1 bits: disease i is the single bit
1 << (i-1), sane is the all-ones mask.  The combine rule is then a bitwise
AND of the children followed by "keep if exactly one bit survives, else
sane", which matches the componentwise-product formulation of the spread
rules and vectorises level by level without ever materialising a tree
structure.

Trials are evaluated in fixed-size chunks.  Stream contract (version 2): chunk
c draws from independent SFC64 substreams
SeedSequence(seed, spawn_key=(c, depth, role)), and no generator is ever
advanced or shared:

- leaves (depth = height): one uint32 per leaf, in order, compared with the
  profile's cumulative masses rounded to multiples of 2^-32; a profile whose
  top cut rounds to 2^32 (no sane mass) draws one double per leaf instead;
- GW child counts (depth d < height, Galton-Watson trees only): one uint32 per
  node at depth d, compared with the law's rounded cumulative masses;
- variant draws (depth d, retention rule only): one uint32 per undecided node
  at depth d, that is a lone surviving disease beside at least one sane child,
  in node order; the parent stays sane when the draw is below
  round((1-alpha)^m 2^32), m its infected children.

uint32s are the low then the high half of each 64-bit word.  So a config and
seed give the same output at any worker count, and the same as drawing every
substream whole at once.  A chunk draws its leaves in cache-sized blocks and
streams each block up the tree: every depth keeps a carry of the children
whose parent is not complete yet, so no level is stored whole.  On z-ary trees
a block holds whole subtrees.  A GW chunk draws each depth's counts twice: a
top-down pass keeps only the level sizes, and the bottom-up pass re-draws them
in windows as their children arrive, so a chunk holds about one block at any
height.
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
_LEAVES, _COUNTS, _VARIANT = 0, 1, 2  # the roles of a chunk's substreams


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
        # leaves draw uint32s against rounded thresholds, unless the top cut rounds to the
        # full 2^32 range (no sane mass): such profiles draw doubles
        cuts_u = np.rint(self.cuts * _U32)
        self.leaf_u32 = bool(cuts_u.max() < _U32)
        if self.leaf_u32:
            self.cuts = cuts_u.astype(np.uint32)
        dist = cfg.dist
        zs = [z for z, _ in dist.support]
        # child counts and infected-child tallies fit the smallest unsigned dtype holding the largest atom
        self.count_dtype = np.min_scalar_type(max(zs))
        if cfg.alpha is not None:
            # a lone disease in m children, beside some sane ones, leaves the parent sane when a
            # uint32 draw falls below (1-alpha)^m 2^32; uint64 holds 2^32 itself
            p_stay_sane = (1.0 - cfg.alpha) ** np.arange(max(zs) + 1).astype(float)
            self.stay_sane = np.rint(p_stay_sane * _U32).astype(np.uint64)
        self.fused = 0  # depth of the whole subtrees a z-ary block holds (at least two of them)
        if dist.is_deterministic:
            self.z = dist.z_value
            while self.fused < cfg.height and 2 * self.z ** (self.fused + 1) <= BLOCK_LEAVES:
                self.fused += 1
        else:
            self.z = None
            self.zs = np.array(zs, dtype=self.count_dtype)
            self.z_min = min(zs)
            # uint32 thresholds of the child-count law; a cut that rounds to 2^32 becomes the largest
            # uint32, so the atoms above it keep 2^-32 of mass instead of taking every draw
            qcut = np.rint(np.cumsum([q for _, q in dist.support])[:-1] * _U32)
            self.qcut = np.minimum(qcut, _U32 - 1).astype(np.uint32)
            self.z_steps = np.diff(zs).tolist()  # a draw at or above qcut[i] has z_steps[i] more children
        span = (self.z or 1) ** self.fused
        self.block = (BLOCK_LEAVES // span & ~1) * span  # leaves per block: even, whole subtrees

    def level_sizes(self, stream, n_trials: int, cmp: np.ndarray) -> list[int]:
        """Nodes at each depth 0..height.

        A GW chunk draws each depth's child counts from that depth's substream and keeps only
        their sum; a level over the node budget raises before the next level is drawn.
        """
        cfg = self.cfg
        if self.z is not None:
            return [n_trials * self.z**d for d in range(cfg.height + 1)]
        sizes = [n_trials]
        for depth in range(cfg.height):
            bits, n = stream(depth, _COUNTS).bit_generator, sizes[-1]
            total = int(self.zs[0]) * n
            for start in range(0, n, BLOCK_LEAVES):
                u = _draw_u32(bits, min(BLOCK_LEAVES, n - start))
                for cut, step in zip(self.qcut, self.z_steps):
                    total += step * int(np.count_nonzero(np.greater_equal(u, cut, out=cmp[: u.size])))
            if total > cfg.node_budget * n_trials:
                raise SimulationError(f"{total} sampled nodes at depth {depth + 1} of {n_trials} trials"
                                      f" exceed the budget of {cfg.node_budget:.3g} per trial")
            sizes.append(total)
        return sizes

    def child_counts(self, bits, n: int) -> np.ndarray:
        """Child counts of the next n nodes of a GW depth's substream; n is even unless no count follows."""
        return self.zs.take(_bucket(_draw_u32(bits, n), self.qcut))

    def sample_leaves(self, rng, n: int, buffers: _BlockBuffers) -> np.ndarray:
        """Masks of the leaf substream's next n leaves, in buffers; n is even unless no leaf follows."""
        u = _draw_u32(rng.bit_generator, n) if self.leaf_u32 else rng.random(out=buffers.doubles[:n])
        idx = _bucket(u, self.cuts, out=buffers.idx[:n], cmp=buffers.cmp[:n])
        return self.leaf_masks(idx, out=buffers.masks[:n], sane=buffers.cmp[:n], patch=idx)

    def leaf_masks(self, idx: np.ndarray, out=None, sane=None, patch=None) -> np.ndarray:
        """Mask of leaf state idx: disease idx+1 for idx < k, sane for idx == k.

        out, sane and patch are optional buffers of idx's size (mask, bool and mask dtypes);
        patch may be idx itself.
        """
        m = np.left_shift(self.dtype.type(1), idx, out=out, dtype=self.dtype)
        sane = np.equal(idx, self.cfg.k, out=sane)
        return np.bitwise_or(m, np.multiply(sane, self.full >> 1, out=patch), out=m)

    def keep_single_bit(self, m: np.ndarray) -> np.ndarray:
        """'Exactly one surviving bit keeps its disease, else sane'.

        m is an AND of leaf masks, so it is a single bit, full or 0.
        """
        return m | (m == 0) * self.full

    def combine(self, kids: np.ndarray, counts, starts, variant) -> np.ndarray:
        """Parents of kids, z each or counts[i] from starts[i]; variant draws the retention rule's uint32s."""
        if counts is None:
            m = _and_columns(kids.reshape(-1, self.z))
        else:
            m = np.bitwise_and.reduceat(kids, starts)
        parents = self.keep_single_bit(m)
        if variant is None:
            return parents
        infected = (kids != self.full).view(np.uint8)
        if counts is None:
            cols, counts = infected.reshape(-1, self.z), self.z
            n_infected = cols[:, 0].astype(self.count_dtype)
            for j in range(1, self.z):
                n_infected += cols[:, j]
        else:
            n_infected = np.add.reduceat(infected, starts, dtype=self.count_dtype)
        # only a lone surviving disease beside at least one sane child is left to chance
        undecided = np.flatnonzero((parents != self.full) & (n_infected < counts))
        u = variant.integers(0, 1 << 32, size=undecided.size, dtype=np.uint32)
        parents[undecided[u < self.stay_sane.take(n_infected[undecided])]] = self.full
        return parents


class _BlockBuffers:
    """One chunk's fixed-size block temporaries, reused through out= by every leaf block."""

    def __init__(self, kernel: _ChunkKernel, n: int):
        self.idx = np.empty(n, dtype=kernel.dtype)  # a leaf's state index, then its sane patch
        self.cmp = np.empty(n, dtype=bool)
        self.masks = np.empty(n, dtype=kernel.dtype)
        self.doubles = np.empty(0 if kernel.leaf_u32 else n)


def _draw_u32(bits, n: int) -> np.ndarray:
    """The next n uint32s of an SFC64 stream, as Generator.integers(0, 2**32, n, dtype=np.uint32) gives them.

    SFC64 hands out the low then the high half of each 64-bit word, so a sequence of draws
    matches one whole draw when every draw but the last is of an even n.
    """
    return bits.random_raw((n + 1) // 2).astype("<u8", copy=False).view("<u4")[:n]


def _bucket(u: np.ndarray, cuts, out=None, cmp=None) -> np.ndarray:
    """Index of the bucket each draw falls in: the number of cuts at or below it."""
    if out is None:
        out = np.empty(u.shape, dtype=np.min_scalar_type(len(cuts)))
    out[...] = 0
    for c in cuts:
        out += np.greater_equal(u, c, out=cmp)
    return out


def _and_columns(arr: np.ndarray) -> np.ndarray:
    acc = arr[:, 0] & arr[:, 1]
    for j in range(2, arr.shape[1]):
        acc &= arr[:, j]
    return acc


def _simulate_chunk(kernel: _ChunkKernel, chunk_index: int, n_trials: int) -> np.ndarray:
    """Root-state counts (k diseases then sane) for one chunk of trials.

    Leaves are drawn in order, a block at a time, and each block is carried up the tree
    at once: every depth keeps the children whose parent is not complete yet, and, until
    the chunk's last block, any level of fewer than MIN_LEVEL_NODES nodes.  A GW depth
    re-draws its child counts in windows, as its children arrive.
    """
    cfg, z, height = kernel.cfg, kernel.z, kernel.cfg.height

    def stream(depth: int, role: int) -> np.random.Generator:
        seq = np.random.SeedSequence(cfg.seed, spawn_key=(chunk_index, depth, role))
        return np.random.Generator(np.random.SFC64(seq))

    buffers = _BlockBuffers(kernel, kernel.block)
    sizes = kernel.level_sizes(stream, n_trials, buffers.cmp)
    n_leaves = sizes[-1]
    leaves = stream(height, _LEAVES)
    variants = [None if cfg.alpha is None else stream(depth, _VARIANT) for depth in range(height)]
    if not z:
        count_bits = [stream(depth, _COUNTS).bit_generator for depth in range(height)]
        pending = [np.empty(0, dtype=kernel.count_dtype)] * height  # drawn counts of parents not yet combined
        undrawn = sizes[:-1]

    empty = np.empty(0, dtype=kernel.dtype)
    carries = [empty] * height
    roots, n_roots = np.empty(n_trials, dtype=kernel.dtype), 0
    for start in range(0, n_leaves, kernel.block):
        nodes = kernel.sample_leaves(leaves, min(kernel.block, n_leaves - start), buffers)
        last = start + kernel.block >= n_leaves
        for depth in range(height - 1, -1, -1):
            if carries[depth].size:
                nodes, carries[depth] = np.concatenate((carries[depth], nodes)), empty
            if nodes.size < MIN_LEVEL_NODES and not last:
                carries[depth] = nodes.copy()  # a copy, so no carry points into the block buffers
                break
            if z:
                used, c, starts = nodes.size - nodes.size % z, None, None
            else:
                # the parents whose children have all arrived, from a window of child counts
                have = pending[depth].size
                want = min(nodes.size // kernel.z_min, have + undrawn[depth])
                if want > have:
                    n = min(want - have + (want - have) % 2, undrawn[depth])
                    pending[depth] = np.concatenate((pending[depth], kernel.child_counts(count_bits[depth], n)))
                    undrawn[depth] -= n
                window = pending[depth][:want]
                ends = np.cumsum(window, dtype=np.int64)
                n = int(np.searchsorted(ends, nodes.size, side="right"))
                c, pending[depth] = window[:n], pending[depth][n:]
                starts, used = ends[:n] - c, int(ends[n - 1]) if n else 0
            if used < nodes.size:
                nodes, carries[depth] = nodes[:used], nodes[used:].copy()
                if not used:
                    break
            nodes = kernel.combine(nodes, c, starts, variants[depth])
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
        raw = os.environ.get("TREESPREAD_THREADS", "0")
        try:
            max_workers = int(raw) or (os.cpu_count() or 1)
        except ValueError:
            raise SimulationError(f"TREESPREAD_THREADS={raw!r} is not an integer") from None
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
