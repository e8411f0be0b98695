"""Monte Carlo simulation of infection propagation up sampled trees.

States are encoded as bitmasks over k+1 bits: disease i is the single bit
1 << (i-1), sane is the all-ones mask.  The combine rule is then a bitwise
AND of the children followed by "keep if exactly one bit survives, else
sane", which matches the componentwise-product formulation of the spread
rules and vectorises level by level without ever materialising a tree
structure.  Two kernels evaluate it:

- z-ary trees run on trial lanes.  Bit l of a uint64 word g is trial 64g+l,
  and a level holds k+1 bit-planes of words (bit i of every node's mask), one
  row of words per node position.  Every trial has the same tree shape, so the
  z children of a parent are z consecutive rows and a level is an AND over z
  slabs followed by one zero test.
- Galton-Watson (GW) trees store one mask per node and combine each parent's
  children with bitwise_and.reduceat, since the shape differs between trials.

Trials are evaluated in fixed-size chunks.  Chunk c draws from independent
SFC64 substreams SeedSequence(seed, spawn_key=(c, depth, role, ...)), and no
generator is ever advanced or shared.  Leaves compare a 32-bit uniform with the
profile's cumulative masses rounded to multiples of 2^-32; a cut that rounds to
2^32 (no sane mass) is never reached.

Stream contract, version 3, for z-ary trees:

- leaves: bit-plane t < LANE_EAGER_BITS of every leaf word, that is bit 31-t
  of each lane's uniform, from key (height, 0, t), in word order (row-major
  over positions and the chunk's words).  A word in which some trial's uniform
  still ties with a cut on those bits draws its other 32 - LANE_EAGER_BITS
  planes as that many consecutive words of key (height, 3), in word order;
- retention rule: every infected child of an undecided parent (a lone
  surviving disease beside at least one sane child) flips a coin that is set
  when its uniform is below q = round((1-alpha) 2^32), compared bit-sliced:
  each child word draws plane t from key (depth, 4, t) while one of its lanes
  is still undecided, in word order.  The parent stays sane when every
  infected child's coin is set, with probability (q 2^-32)^m for m infected
  children.

Version 2, for GW trees:

- leaves (key (height, 0)): one uint32 per leaf, in order;
- child counts (key (d, 1), depth d < height): one uint32 per node at depth
  d, compared with the law's rounded cumulative masses;
- retention draws (key (d, 2)): one uint32 per undecided node at depth d, in
  node order; the parent stays sane when the draw is below
  round((1-alpha)^m 2^32), m its infected children.

uint32s are the low then the high half of each 64-bit word.  So a config and
seed give the same output at any worker count, and the same as drawing every
substream whole at once.  A chunk draws its leaves in cache-sized blocks and
streams each block up the tree: every depth keeps a carry of the children
whose parent is not complete yet, so no level is stored whole.  A z-ary block
holds whole subtrees.  A GW chunk draws each depth's counts twice: a top-down
pass keeps only the level sizes, and the bottom-up pass re-draws them in
windows as their children arrive, so a chunk holds about one block at any
height.
"""

from __future__ import annotations

import math
import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from functools import partial

import numpy as np

from .dynamics import DynamicsError, _check_alpha, check_masses
from .offspring import OffspringDistribution

SANE = 0  # scalar NodeState for a non-infected node; diseases are 1..k

CHUNK_TRIALS = 4096
BLOCK_LEAVES = 1 << 18  # GW leaves drawn and carried up the tree per cache-sized block
MIN_LEVEL_NODES = 1 << 12  # a smaller GW level waits for the next block, saving calls on tiny arrays
LANE_EAGER_BITS = 12  # leaf bit-planes every lane word draws; a word with a tie draws the other 20
LANE_BLOCK_WORDS = 1 << 17  # words across the k+1 bit-planes of a lane leaf block
LANE_MIN_WORDS = 1 << 12  # a lane level of fewer words waits for the next block
DEFAULT_NODE_BUDGET = 1e8
_U32 = float(1 << 32)
_ONES = ~np.uint64(0)
_LEAVES, _COUNTS, _VARIANT, _REFINE, _COINS = range(5)  # the roles of a chunk's substreams


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


def _bits(seed: int, *key: int) -> np.random.SFC64:
    """The chunk substream with spawn key `key`, (chunk, depth, role, ...)."""
    return np.random.SFC64(np.random.SeedSequence(seed, spawn_key=key))


def _leaf_cuts(profile) -> list[int]:
    """The profile's cumulative masses in units of 2^-32, without those a 32-bit uniform never reaches."""
    return [int(c) for c in np.rint(np.cumsum(profile[:-1]) * _U32) if c < _U32]


def _planes_needed(c: int) -> int:
    """Leading bit-planes that decide a comparison with the 32-bit value c: those down to its lowest set bit.

    A uniform whose bits equal c's that far is at or above c.
    """
    return 33 - (c & -c).bit_length() if c else 0


class _LaneKernel:
    """Per-config constants of the z-ary lane kernel, shared by every chunk.

    A level is an array of k+1 bit-planes by node positions by the chunk's words:
    plane i < k holds the lanes whose node is disease i+1 or sane, plane k the sane ones.
    """

    def __init__(self, cfg: SimConfig):
        self.cfg, self.k, self.z = cfg, cfg.k, cfg.dist.z_value
        self.cuts = [(c, _planes_needed(c)) for c in _leaf_cuts(cfg.profile)]
        self.leaf_planes = max((planes for _, planes in self.cuts), default=0)
        # the cuts a lane can still tie with after the eager planes
        self.deep = [j for j, (_, planes) in enumerate(self.cuts) if planes > LANE_EAGER_BITS]
        # alpha = 1 gives q = 0: no coin is ever set, which is the standard rule
        q = 0 if cfg.alpha is None else int(np.rint((1.0 - cfg.alpha) * _U32))
        self.q = q or None

    def block_positions(self, words: int) -> int:
        """Leaf positions per block: whole subtrees of the lowest levels, about LANE_BLOCK_WORDS words."""
        per_block, span = max(1, LANE_BLOCK_WORDS // ((self.k + 1) * words)), 1
        while span * self.z <= per_block and span < self.z**self.cfg.height:
            span *= self.z
        return per_block // span * span

    def buffers(self, n: int) -> np.ndarray:
        """A chunk's rows for leaf blocks of up to n words: the k+1 bit-planes, then ge."""
        return np.empty((self.k + 1 + len(self.cuts), n), dtype=np.uint64)

    def leaves(self, draw, refine, n_pos: int, valid: np.ndarray, buffers) -> np.ndarray:
        """Bit-planes of the next n_pos leaf positions, shape (k+1, n_pos, words), in buffers.

        Each lane compares its uniform with every cut, most significant bit first: und
        holds the lanes whose bits so far equal the cut's, ge those already above it.
        draw(t, n) gives the next n words of bit-plane t; refine(idx) the planes
        LANE_EAGER_BITS..31 (one row each) of the words at idx, those in which a lane
        valid marks still ties with a cut after the eager planes.
        """
        words = valid.size
        n = n_pos * words
        planes, ge = buffers[: self.k + 1, :n], buffers[self.k + 1 :, :n]
        und, tmp = planes[: len(ge)], planes[self.k]  # the planes are written once und is done with
        und[...], ge[...] = _ONES, 0
        for t in range(min(LANE_EAGER_BITS, self.leaf_planes)):
            r = draw(t, n)
            for j, (c, n_planes) in enumerate(self.cuts):
                if t < n_planes:
                    _compare_bit(c >> (31 - t) & 1, r, und[j], ge[j], tmp)
        for j, (_, n_planes) in enumerate(self.cuts):
            if n_planes <= LANE_EAGER_BITS:
                ge[j] |= und[j]  # still tied after the cut's last set bit: at or above it
        deep = self.deep
        if deep:
            ties = und[deep[0]] if len(deep) == 1 else _fold(np.bitwise_or, [und[j] for j in deep])
            idx = np.flatnonzero(ties.reshape(n_pos, words) & valid)
            if idx.size:
                low = refine(idx)
                for j in deep:
                    c, n_planes = self.cuts[j]
                    tied_und, tied_ge = und[j, idx], ge[j, idx]
                    for t in range(LANE_EAGER_BITS, n_planes):
                        if t % 4 == 0 and not tied_und.any():
                            break
                        _compare_bit(c >> (31 - t) & 1, low[t - LANE_EAGER_BITS], tied_und, tied_ge, tmp[: idx.size])
                    ge[j, idx] = tied_ge | tied_und
        # a lane at or above b cuts is disease b+1, or sane at or above all k
        below = _ONES
        for i in range(self.k):
            above = ge[i] if i < len(ge) else np.uint64(0)
            np.bitwise_and(below, ~above, out=planes[i])
            below = above
        planes[self.k] = below
        planes[: self.k] |= planes[self.k]
        return planes.reshape(self.k + 1, n_pos, words)

    def combine(self, kids: np.ndarray, coins=None, valid=None) -> np.ndarray:
        """Parents of kids, z consecutive positions each.

        Under the retention rule, coins(need) sets the lanes of need, the infected children
        of undecided parents (among those valid marks), whose coin lets the parent stay sane.
        """
        n_planes, n_pos, words = kids.shape
        v = kids.reshape(n_planes, n_pos // self.z, self.z, words)
        parents = _fold(np.bitwise_and, [v[:, :, j] for j in range(self.z)])
        clash = _fold(np.bitwise_or, parents)  # no bit survives: two diseases
        parents |= np.invert(clash, out=clash)
        if coins is None:
            return parents
        sane = v[self.k]
        undecided = _fold(np.bitwise_or, [sane[:, j] for j in range(self.z)]) & ~parents[self.k] & valid
        if not undecided.any():
            return parents
        need = undecided[:, None, :] & ~sane
        stays = np.invert(need) | coins(need)
        parents |= undecided & _fold(np.bitwise_and, [stays[:, j] for j in range(self.z)])
        return parents

    def coins(self, draw, need: np.ndarray) -> np.ndarray:
        """Set the lanes of need whose uniform is below q; draw(t, n) gives the next n words of plane t.

        Only the words with a lane set draw, and a word stops drawing once each of its lanes
        has left q's prefix or q has no set bit left.
        """
        if self.q >= 1 << 32:  # alpha below 2^-33: q rounds to 2^32 and every coin is set
            return need
        flat = need.reshape(-1)
        live = np.flatnonzero(flat)
        und, below = flat[live], np.zeros_like(flat)
        for t in range(_planes_needed(self.q)):
            if not live.size:
                break
            r = draw(t, live.size)
            if self.q >> (31 - t) & 1:
                below[live] |= und & ~r
                und &= r
            else:
                und &= ~r
            still = np.flatnonzero(und)
            live, und = live[still], und[still]
        return below.reshape(need.shape)

    def chunk(self, chunk_index: int, n_trials: int) -> np.ndarray:
        """Root-state counts (k diseases then sane) for one chunk of trials.

        Leaves are drawn a block of whole subtrees at a time, and each block is carried up
        the tree at once: every depth keeps the positions whose parent is not complete yet,
        and, until the chunk's last block, any level of fewer than LANE_MIN_WORDS words.
        The last word's lanes past n_trials are simulated but never counted, and draw nothing
        of their own.
        """
        cfg, z, k, height = self.cfg, self.z, self.k, self.cfg.height
        words = -(-n_trials // 64)
        valid = np.full(words, _ONES)
        if n_trials % 64:
            valid[-1] = (1 << n_trials % 64) - 1
        leaf_draw = _plane_draws(cfg.seed, chunk_index, height, _LEAVES)
        refine_bits = _bits(cfg.seed, chunk_index, height, _REFINE)

        def refine(idx):  # each word's later planes are consecutive words of the refine substream
            return np.ascontiguousarray(refine_bits.random_raw(idx.size * (32 - LANE_EAGER_BITS)).reshape(idx.size, -1).T)

        coins = [None] * height
        if self.q is not None:
            coins = [partial(self.coins, _plane_draws(cfg.seed, chunk_index, depth, _COINS)) for depth in range(height)]

        n_leaves, per_block = z**height, self.block_positions(words)
        buffers = self.buffers(min(per_block, n_leaves) * words)
        carries = [None] * height
        for start in range(0, n_leaves, per_block):
            nodes = self.leaves(leaf_draw, refine, min(per_block, n_leaves - start), valid, buffers)
            last = start + per_block >= n_leaves
            for depth in range(height - 1, -1, -1):
                if carries[depth] is not None:
                    nodes, carries[depth] = np.concatenate((carries[depth], nodes), axis=1), None
                n_pos = nodes.shape[1]
                if n_pos * words < LANE_MIN_WORDS and not last:
                    carries[depth] = nodes.copy()  # a copy, so no carry points into the block buffers
                    break
                used = n_pos - n_pos % z
                if used < n_pos:
                    nodes, carries[depth] = nodes[:, :used], nodes[:, used:].copy()
                    if not used:
                        break
                nodes = self.combine(nodes, coins[depth], valid)
            else:
                root = nodes[:, 0]

        infected = root[:k] & ~root[k] & valid
        counts = np.unpackbits(infected.view(np.uint8), axis=1).sum(axis=1, dtype=np.int64)
        return np.append(counts, n_trials - counts.sum())


def _compare_bit(bit: int, r: np.ndarray, und: np.ndarray, ge: np.ndarray, tmp: np.ndarray) -> None:
    """Fold one bit-plane of the lanes' uniforms into a comparison with a cut whose bit there is `bit`.

    und holds the lanes whose bits so far equal the cut's and ge those already above it:
    under a 1 bit the lanes with a 0 fall below, under a 0 bit those with a 1 rise above.
    """
    if bit:
        und &= r
    else:
        np.bitwise_and(und, r, out=tmp)
        ge |= tmp
        und ^= tmp


def _fold(ufunc, slabs) -> np.ndarray:
    """ufunc over a sequence of at least two equal-shape arrays, into a new array.

    One whole-array call per slab: ufunc.reduce over an axis runs several times slower here.
    """
    acc = ufunc(slabs[0], slabs[1])
    for slab in slabs[2:]:
        ufunc(acc, slab, out=acc)
    return acc


def _plane_draws(seed: int, *key: int):
    """draw(t, n): the next n words of the substream key + (t,), each created when first drawn."""
    streams = {}

    def draw(t: int, n: int) -> np.ndarray:
        if t not in streams:
            streams[t] = _bits(seed, *key, t)
        return streams[t].random_raw(n)

    return draw


class _ByteKernel:
    """Per-config constants of the Galton-Watson kernel, shared by every chunk: one mask per node."""

    def __init__(self, cfg: SimConfig):
        self.cfg = cfg
        k = cfg.k
        self.dtype = np.min_scalar_type((1 << (k + 1)) - 1)  # the smallest unsigned dtype with k+1 bits
        if self.dtype.kind != "u":
            raise SimulationError(f"k={k} too large for the bitmask simulator (max 63)")
        self.full = np.asarray((1 << (k + 1)) - 1, dtype=self.dtype)
        self.cuts = np.array(_leaf_cuts(cfg.profile), dtype=np.uint32)
        dist = cfg.dist
        zs = [z for z, _ in dist.support]
        # child counts and infected-child tallies fit the smallest unsigned dtype holding the largest atom
        self.count_dtype = np.min_scalar_type(max(zs))
        if cfg.alpha is not None:
            # a lone disease in m children, beside some sane ones, leaves the parent sane when a
            # uint32 draw falls below (1-alpha)^m 2^32; uint64 holds 2^32 itself
            p_stay_sane = (1.0 - cfg.alpha) ** np.arange(max(zs) + 1).astype(float)
            self.stay_sane = np.rint(p_stay_sane * _U32).astype(np.uint64)
        self.zs = np.array(zs, dtype=self.count_dtype)
        self.mean = dist.mean
        # uint32 thresholds of the child-count law; a cut that rounds to 2^32 becomes the largest
        # uint32, so the atoms above it keep 2^-32 of mass instead of taking every draw
        qcut = np.rint(np.cumsum([q for _, q in dist.support])[:-1] * _U32)
        self.qcut = np.minimum(qcut, _U32 - 1).astype(np.uint32)
        self.z_steps = np.diff(zs).tolist()  # a draw at or above qcut[i] has z_steps[i] more children

    def level_sizes(self, chunk_index: int, n_trials: int, cmp: np.ndarray) -> list[int]:
        """Nodes at each depth 0..height.

        Each depth's child counts are drawn from that depth's substream and only their sum is
        kept; a level over the node budget raises before the next level is drawn.
        """
        cfg = self.cfg
        sizes = [n_trials]
        for depth in range(cfg.height):
            bits, n = _bits(cfg.seed, chunk_index, depth, _COUNTS), sizes[-1]
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
        """Child counts of the next n nodes of a depth's substream; n is even unless no count follows."""
        return self.zs.take(_bucket(_draw_u32(bits, n), self.qcut))

    def sample_leaves(self, bits, n: int, buffers: _BlockBuffers) -> np.ndarray:
        """Masks of the leaf substream's next n leaves, in buffers; n is even unless no leaf follows."""
        idx = _bucket(_draw_u32(bits, n), self.cuts, out=buffers.idx[:n], cmp=buffers.cmp[:n])
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

    def combine(self, kids: np.ndarray, counts: np.ndarray, starts: np.ndarray, variant) -> np.ndarray:
        """Parents of kids, counts[i] from starts[i]; variant draws the retention rule's uint32s."""
        parents = self.keep_single_bit(np.bitwise_and.reduceat(kids, starts))
        if variant is None:
            return parents
        n_infected = np.add.reduceat((kids != self.full).view(np.uint8), starts, dtype=self.count_dtype)
        # only a lone surviving disease beside at least one sane child is left to chance
        undecided = np.flatnonzero((parents != self.full) & (n_infected < counts))
        u = variant.integers(0, 1 << 32, size=undecided.size, dtype=np.uint32)
        parents[undecided[u < self.stay_sane.take(n_infected[undecided])]] = self.full
        return parents

    def chunk(self, chunk_index: int, n_trials: int) -> np.ndarray:
        """Root-state counts (k diseases then sane) for one chunk of trials.

        Leaves are drawn in order, a block at a time, and each block is carried up the tree
        at once: every depth keeps the children whose parent is not complete yet, and, until
        the chunk's last block, any level of fewer than MIN_LEVEL_NODES nodes.  Each depth
        re-draws its child counts in windows, as its children arrive.
        """
        cfg, height = self.cfg, self.cfg.height
        buffers = _BlockBuffers(self, BLOCK_LEAVES)
        sizes = self.level_sizes(chunk_index, n_trials, buffers.cmp)
        count_bits = [_bits(cfg.seed, chunk_index, depth, _COUNTS) for depth in range(height)]
        n_leaves = sizes[-1]
        leaves = _bits(cfg.seed, chunk_index, height, _LEAVES)
        variants = [None if cfg.alpha is None else np.random.Generator(_bits(cfg.seed, chunk_index, depth, _VARIANT))
                    for depth in range(height)]
        pending = [np.empty(0, dtype=self.count_dtype)] * height  # drawn counts of parents not yet combined
        undrawn = sizes[:-1]

        empty = np.empty(0, dtype=self.dtype)
        carries = [empty] * height
        roots, n_roots = np.empty(n_trials, dtype=self.dtype), 0
        for start in range(0, n_leaves, BLOCK_LEAVES):
            nodes = self.sample_leaves(leaves, min(BLOCK_LEAVES, n_leaves - start), buffers)
            last = start + BLOCK_LEAVES >= n_leaves
            for depth in range(height - 1, -1, -1):
                if carries[depth].size:
                    nodes, carries[depth] = np.concatenate((carries[depth], nodes)), empty
                if nodes.size < MIN_LEVEL_NODES and not last:
                    carries[depth] = nodes.copy()  # a copy, so no carry points into the block buffers
                    break
                # the parents whose children have all arrived, from a window of child counts about
                # as long as the nodes at hand hold parents; the last block takes every count left
                have = pending[depth].size
                want = have + undrawn[depth]
                if not last:
                    want = min(int(nodes.size / self.mean), want)
                if want > have:
                    n = min(want - have + (want - have) % 2, undrawn[depth])
                    pending[depth] = np.concatenate((pending[depth], self.child_counts(count_bits[depth], n)))
                    undrawn[depth] -= n
                window = pending[depth][:want]
                ends = np.cumsum(window, dtype=np.int64)
                n = int(np.searchsorted(ends, nodes.size, side="right"))
                counts, pending[depth] = window[:n], pending[depth][n:]
                used = int(ends[n - 1]) if n else 0
                if used < nodes.size:
                    nodes, carries[depth] = nodes[:used], nodes[used:].copy()
                    if not used:
                        break
                nodes = self.combine(nodes, counts, ends[:n] - counts, variants[depth])
            else:
                roots[n_roots : n_roots + nodes.size] = nodes
                n_roots += nodes.size

        infected = [int((roots == 1 << i).sum()) for i in range(cfg.k)]
        return np.array(infected + [n_trials - sum(infected)], dtype=np.int64)


class _BlockBuffers:
    """One GW chunk's fixed-size block temporaries, reused through out= by every leaf block."""

    def __init__(self, kernel: _ByteKernel, n: int):
        self.idx = np.empty(n, dtype=kernel.dtype)  # a leaf's state index, then its sane patch
        self.cmp = np.empty(n, dtype=bool)
        self.masks = np.empty(n, dtype=kernel.dtype)


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

    # every trial of a z-ary tree has the same shape, so z-ary chunks run 64 trials per word
    kernel = _LaneKernel(cfg) if cfg.dist.is_deterministic else _ByteKernel(cfg)
    n_chunks = math.ceil(cfg.trials / CHUNK_TRIALS)
    sizes = [min(CHUNK_TRIALS, cfg.trials - c * CHUNK_TRIALS) for c in range(n_chunks)]
    if max_workers == 1 or n_chunks == 1:
        counts = sum(kernel.chunk(c, n) for c, n in enumerate(sizes))
    else:
        with ThreadPoolExecutor(max_workers=max_workers) as pool:
            counts = sum(pool.map(lambda cn: kernel.chunk(*cn), enumerate(sizes)))

    p_hat = counts / cfg.trials
    stderr = np.sqrt(p_hat * (1.0 - p_hat) / cfg.trials)
    return SimResult(tuple(p_hat.tolist()), tuple(stderr.tolist()), cfg.trials)
