"""Monte Carlo simulation of infection propagation up sampled trees.

States are encoded as bitmasks over k+1 bits: disease i is the single bit
1 << (i-1), sane is the all-ones mask.  The combine rule is then a bitwise
AND of the children followed by "keep if exactly one bit survives, else
sane", which matches the componentwise-product formulation of the spread
rules and vectorises level by level without ever materialising a tree
structure.  Every level runs on lanes: bit l of a uint64 word g is lane 64g+l,
and a level holds k+1 bit-planes of words (bit i of every node's mask), one
row of words per node position.  The z children of a parent are z consecutive
rows, so a level is an AND over z slabs followed by one zero test.  In a z-ary
tree every trial has the same shape, and the lanes are trials.  In a
Galton-Watson (GW) tree the lanes are the parents of one level with the same
child count, since sharing one tree shape across trials would correlate them;
between levels each node is one mask.

Trials are evaluated in fixed-size chunks.  Chunk c draws from independent
SFC64 substreams SeedSequence(seed, spawn_key=(c, depth, role, ...)), and no
generator is ever advanced or shared.  Leaves compare a 32-bit uniform with the
profile's cumulative masses rounded to multiples of 2^-32; a cut that rounds to
2^32 (no sane mass) is never reached.  uint32s are the low then the high half
of each 64-bit word.

Stream contract, version 5 (version 4 had bottom blocks of 2^17 parents, so only GW
chunks with more leaf parents than that draw differently).  Lane leaves and coins:

- leaves: bit-plane t < LANE_EAGER_BITS of every leaf word, that is bit 31-t
  of each lane's uniform, from key (height, 0, t), in word order (row-major
  over positions and words).  A word in which some lane's uniform still ties
  with a cut on those bits draws its other 32 - LANE_EAGER_BITS planes as that
  many consecutive words of key (height, 3), in word order;
- retention rule: every infected child of an undecided parent (a lone
  surviving disease beside at least one sane child) flips a coin that is set
  when its uniform is below q = round((1-alpha) 2^32), compared bit-sliced:
  each child word draws plane t from key (depth, 4, t) while one of its lanes
  is still undecided, in word order.  The parent stays sane when every
  infected child's coin is set, with probability (q 2^-32)^m for m infected
  children.

A z-ary chunk's lanes are its trials, and every level runs on them.  A GW chunk:

- child counts (key (d, 1), depth d < height): one uint32 per node at depth
  d, in count order (the order of the nodes' parents, then of their children),
  compared with the law's rounded cumulative masses;
- each depth d: the depth-d parents in count order, in blocks of BLOCK_PARENTS
  at d = height-1 and in windows of WINDOW_PARENTS above it.  A block's or
  window's n_z parents with z children, in count order, are lanes 0..n_z-1 of
  z child positions of ceil(n_z / 64) words, atom by atom (ascending).  At the
  bottom the positions are leaves, drawn as above block by block.  Above it
  the window's parents of the smallest atom z take the window's first z n_z
  children in count order, z consecutive children each; those of the next atom
  take the next ones, and so on;
- coins at every depth d, key (d, 4, t): block by block (window by window
  above the bottom), atom by atom, word by word.

Blocks and windows are a fixed number of parents, so which children a parent
takes depends only on its own level's counts.  The children are iid subtree
roots independent of those counts, so every parent has the right law.  Each
level's results return to count order, which keeps the nodes of a level iid
for the level above.

A config and seed give the same output at any worker count, and the same as
drawing every substream whole at once.  Of W workers, worker w runs chunks w,
w + W, w + 2W, ... one at a time, with one scratch dict of arrays that its
chunks refill in turn: an array is kept while it is big enough, else replaced
by one of the size asked for.  Worker 0 is the calling process and the others
are processes forked for the call, which send their integer counts back
through pipes; where os.fork is missing every chunk runs in the caller.

A chunk streams its nodes up the tree and stores no level whole.  A z-ary
chunk draws its leaves in blocks of whole subtrees, sized in words per
bit-plane (LANE_PLANE_WORDS) so that its numpy calls stay long as k grows,
with its bytes capped for large k (LANE_BUFFER_WORDS).  Every
level of a block is written into the free rows of the block buffers, and every
depth keeps a carry (a copy) of the children whose parent is not complete yet.

A GW chunk chains one level generator per depth, each yielding node masks in
count order.  A level draws its counts a block (leaf parents) or a window
(above) at a time, lays the children out as bit-planes in the lane buffers and
combines them; the roots become masks in an array of their own.  At the leaf
parents the children are leaves, drawn once the leaves counted so far pass the
node budget check; above them they are the next masks of the level below.  The
counts above the leaf parents are drawn twice: a top-down pass keeps only the
level sizes, and the bottom-up pass re-draws them as the children arrive.
"""

from __future__ import annotations

import json
import math
import os
import selectors
import signal
import warnings
from dataclasses import dataclass
from functools import partial

import numpy as np

from .dynamics import DynamicsError, _check_alpha, check_masses
from .offspring import OffspringDistribution

CHUNK_TRIALS = 4096
MAX_WORKERS = 64  # the most worker processes TREESPREAD_THREADS may ask for, the caller included
MAX_DISEASES = 63  # a node's k diseases and sane bit fit one uint64 mask
# GW parents per bottom lane block and per window of a level above it; both even, so a
# depth's count draws split at 64-bit word boundaries.  Which leaves a parent takes depends on
# the blocks, so BLOCK_PARENTS is part of stream version 5, and another value changes GW output.
# A bottom block holds about BLOCK_PARENTS * mean / 64 lane words per plane: 2^18 parents of the
# law {3, 6, 10} (mean 6.33) give about 26k, near the 2^15 of a z-ary block's plane
BLOCK_PARENTS = 1 << 18
WINDOW_PARENTS = 1 << 15
LANE_EAGER_BITS = 12  # leaf bit-planes every lane word draws; a word with a tie draws the other 20
# words per bit-plane of a z-ary leaf block: every numpy call on a plane has a fixed cost, and at
# 2^13 words z2k2h15 and z2k8h12 (16384 trials, one worker) ran 19 % and 10 % slower than at 2^15
# (2 CPUs, numpy 2.4).  No block's buffer rows (its planes, then one per cut) hold more than
# LANE_BUFFER_WORDS, those of k = 8 with eight cuts
LANE_PLANE_WORDS = 1 << 15
LANE_BUFFER_WORDS = 17 << 15
# a lane level of fewer words per plane waits for the next block and joins that block's level, so
# the levels near the root run as a few long numpy calls instead of short calls in every block, whose
# fixed cost per call then dominates: with no wait (0), z2k2h15 at 16384 trials ran 8 % slower on
# one thread and 7 % on two (2 CPUs, numpy 2.4), and z2k8h12 and z2k2h13_a05 10-20 % on two
LANE_MIN_WORDS = 1 << 12
DEFAULT_NODE_BUDGET = 1e8
_U32 = float(1 << 32)
_ONES = ~np.uint64(0)
_LEAVES, _COUNTS, _REFINE, _COINS = 0, 1, 3, 4  # the roles of a chunk's substreams; 2 is unused


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
        if self.k > MAX_DISEASES:
            raise SimulationError(f"k={self.k} too large for the bitmask simulator (max {MAX_DISEASES})")

    @property
    def k(self) -> int:
        return len(self.profile) - 1


@dataclass(frozen=True)
class SimResult:
    masses: tuple[float, ...]  # empirical p_1..p_k, p_sane
    stderr: tuple[float, ...]  # binomial standard error per coordinate
    trials: int


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
    """Per-config constants of the lane kernel, shared by every chunk.

    It runs z-ary chunks, and combines every level of Galton-Watson chunks.  A level is an
    array of k+1 bit-planes by node positions by words: plane i < k holds the lanes whose
    node is disease i+1 or sane, plane k the sane ones.
    """

    def __init__(self, cfg: SimConfig):
        self.cfg, self.k = cfg, cfg.k
        self.cuts = [(c, _planes_needed(c)) for c in _leaf_cuts(cfg.profile)]
        self.leaf_planes = max((planes for _, planes in self.cuts), default=0)
        # the cuts a lane can still tie with after the eager planes
        self.deep = [j for j, (_, planes) in enumerate(self.cuts) if planes > LANE_EAGER_BITS]
        # alpha = 1 gives q = 0: no coin is ever set, which is the standard rule
        q = 0 if cfg.alpha is None else int(np.rint((1.0 - cfg.alpha) * _U32))
        self.q = q or None

    def block_positions(self, words: int, z: int) -> int:
        """Leaf positions per z-ary block: whole subtrees of the lowest levels.

        A plane of a block holds LANE_PLANE_WORDS words, as long as the block's rows of buffers
        hold no more than LANE_BUFFER_WORDS.
        """
        plane_words = min(LANE_PLANE_WORDS, LANE_BUFFER_WORDS // (self.k + 1 + len(self.cuts)))
        per_block, span = max(1, plane_words // words), 1
        while span * z <= per_block and span < z**self.cfg.height:
            span *= z
        return per_block // span * span

    def buffers(self, n: int) -> np.ndarray:
        """Rows for leaf blocks of up to n words: the k+1 bit-planes, then ge."""
        return np.empty((self.k + 1 + len(self.cuts), n), dtype=np.uint64)

    def leaves(self, draw, refine, n_pos: int, valid: np.ndarray, buffers) -> np.ndarray:
        """Bit-planes of the next n_pos leaf positions, shape (k+1, n_pos, words), in buffers.

        Each lane compares its uniform with every cut, most significant bit first: und
        holds the lanes whose bits so far equal the cut's, ge those already above it.
        draw(t, n) gives the next n words of bit-plane t; refine(idx) the planes
        LANE_EAGER_BITS..31 (one column each) of the words at idx, those in which a lane still
        ties with a cut after the eager planes.  valid marks the lanes that count in each of a
        position's words; only those ask for refine words.  The rows of buffers past the planes
        are free once this returns.
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
            del r  # before the refine draw
        for j, (_, n_planes) in enumerate(self.cuts):
            if n_planes <= LANE_EAGER_BITS:
                ge[j] |= und[j]  # still tied after the cut's last set bit: at or above it
        deep = self.deep
        if deep:
            ties = und[deep[0]] if len(deep) == 1 else _fold(np.bitwise_or, [und[j] for j in deep], out=tmp)
            np.bitwise_and(ties.reshape(n_pos, words), valid, out=tmp.reshape(n_pos, words))
            idx = np.flatnonzero(tmp)
            if idx.size:
                low = refine(idx)
                for j in deep:
                    c, n_planes = self.cuts[j]
                    tied_und, tied_ge = und[j, idx], ge[j, idx]
                    for t in range(LANE_EAGER_BITS, n_planes):
                        if t % 4 == 0 and not tied_und.any():
                            break
                        _compare_bit(c >> (31 - t) & 1, low[:, t - LANE_EAGER_BITS], tied_und, tied_ge, tmp[: idx.size])
                    ge[j, idx] = np.bitwise_or(tied_ge, tied_und, out=tied_ge)
        # a lane at or above b cuts is disease b+1, or sane at or above all k
        below = _ONES
        for i in range(self.k):
            if i < len(ge):
                np.invert(ge[i], out=planes[i])
                planes[i] &= below
                below = ge[i]
            else:
                planes[i], below = below, 0
        planes[self.k] = below
        planes[: self.k] |= planes[self.k]
        return planes.reshape(self.k + 1, n_pos, words)

    def combine(self, kids: np.ndarray, z: int, coins=None, valid=None, out=None) -> np.ndarray:
        """Parents of kids, z consecutive positions each, written to out if given.

        out is a flat uint64 array that holds k+2 planes of the parents' words and shares no
        memory with kids: the parents' planes, then one of scratch.  Under the retention rule,
        coins(need) sets the lanes of need, the infected children of undecided parents (among
        those valid marks), whose coin lets the parent stay sane.
        """
        n_planes, n_pos, words = kids.shape
        shape = (n_pos // z, words)
        size = shape[0] * words
        if out is None:
            out = np.empty((n_planes + 1) * size, dtype=np.uint64)
        parents = out[: n_planes * size].reshape(n_planes, *shape)
        clash = out[n_planes * size : (n_planes + 1) * size].reshape(shape)
        v = kids.reshape(n_planes, n_pos // z, z, words)
        _fold(np.bitwise_and, [v[:, :, j] for j in range(z)], out=parents)
        _fold(np.bitwise_or, parents, out=clash)  # no bit survives: two diseases
        parents |= np.invert(clash, out=clash)
        if coins is None:
            return parents
        sane = v[self.k]
        undecided = _fold(np.bitwise_or, [sane[:, j] for j in range(z)]) & ~parents[self.k] & valid
        if not undecided.any():
            return parents
        need = undecided[:, None, :] & ~sane
        stays = np.invert(need) | coins(need)
        parents |= undecided & _fold(np.bitwise_and, [stays[:, j] for j in range(z)])
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
            if t:  # compact to the words still undecided, only when another plane follows
                still = np.flatnonzero(und)
                live, und = live[still], und[still]
            if not live.size:
                break
            r = draw(t, live.size)
            if self.q >> (31 - t) & 1:
                below[live] |= und & ~r
                und &= r
            else:
                und &= ~r
        return below.reshape(need.shape)

    def coin_draws(self, chunk_index: int, depth: int):
        """coins(need) for a chunk's parents at depth, from key (depth, COINS, t); None for the standard rule."""
        if self.q is None:
            return None
        return partial(self.coins, _plane_draws(self.cfg.seed, chunk_index, depth, _COINS))

    def chunk(self, chunk_index: int, n_trials: int, scratch: dict) -> np.ndarray:
        """Root-state counts (k diseases then sane) for one chunk of trials, in the block buffers of scratch.

        Leaves are drawn a block of whole subtrees at a time, and each block is carried up
        the tree at once: every depth keeps the positions whose parent is not complete yet,
        and, until the chunk's last block, any level of fewer than LANE_MIN_WORDS words.
        The last word's lanes past n_trials are simulated but never counted, and draw nothing
        of their own.  Each level of a block is written to the rows of buffers that are free
        by then; only the carries are copies.  The buffers are kept in scratch for the next
        chunk, and replaced only by a chunk that needs more.
        """
        cfg, z, k, height = self.cfg, self.cfg.dist.z_value, self.k, self.cfg.height
        valid = _valid_words(n_trials)
        words = valid.size
        leaf_draw = _plane_draws(cfg.seed, chunk_index, height, _LEAVES)
        refine = _refine_draws(cfg.seed, chunk_index, height)
        coins = [self.coin_draws(chunk_index, depth) for depth in range(height)]

        n_leaves, per_block = z**height, self.block_positions(words, z)
        n_words = min(per_block, n_leaves) * words
        buffers = _reuse(scratch, "buffers", n_words, self.buffers)  # z-ary chunks are all one size but the last
        # the levels of a block take turns between the leaf planes' rows and the rows after them
        halves = buffers[: k + 1].reshape(-1), buffers[k + 1 :].reshape(-1)
        carries = [None] * height
        for start in range(0, n_leaves, per_block):
            nodes = self.leaves(leaf_draw, refine, min(per_block, n_leaves - start), valid, buffers)
            last, side = start + per_block >= n_leaves, 1
            for depth in range(height - 1, -1, -1):
                # nodes lie in the other half or in a fresh array, so this half is free; a level
                # too big for it gets a fresh array
                if carries[depth] is not None:
                    carry, carries[depth] = carries[depth], None
                    joined = _spare(halves[side], (k + 1, carry.shape[1] + nodes.shape[1], words))
                    nodes, side = np.concatenate((carry, nodes), axis=1, out=joined), 1 - side
                n_pos = nodes.shape[1]
                if n_pos * words < LANE_MIN_WORDS and not last:
                    carries[depth] = nodes.copy()  # a copy, so no carry points into the block buffers
                    break
                used = n_pos - n_pos % z
                if used < n_pos:
                    nodes, carries[depth] = nodes[:, :used], nodes[:, used:].copy()
                    if not used:
                        break
                out = _spare(halves[side], ((k + 2) * (nodes.shape[1] // z) * words,))
                nodes, side = self.combine(nodes, z, coins[depth], valid, out), 1 - side
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


def _spare(half: np.ndarray, shape) -> np.ndarray | None:
    """The first words of half, a free flat array, as an array of shape; None if they do not fit."""
    size = math.prod(shape)
    return half[:size].reshape(shape) if size <= half.size else None


def _fold(ufunc, slabs, out=None) -> np.ndarray:
    """ufunc over a sequence of at least two equal-shape arrays, into out or a new array.

    One whole-array call per slab: ufunc.reduce over an axis runs several times slower here.
    """
    acc = ufunc(slabs[0], slabs[1], out=out)
    for slab in slabs[2:]:
        ufunc(acc, slab, out=acc)
    return acc


def _valid_words(n: int) -> np.ndarray:
    """Words of n lanes, each lane's bit set: the last word's lanes past n are padding."""
    valid = np.full(-(-n // 64), _ONES)
    if n % 64:
        valid[-1] = (1 << n % 64) - 1
    return valid


def _refine_draws(seed: int, chunk_index: int, height: int):
    """refine(idx): leaf planes LANE_EAGER_BITS..31 of the words at idx, one column each.

    Each word's later planes are consecutive words of the substream (chunk, height, REFINE),
    so they are its row, as drawn.
    """
    bits = _bits(seed, chunk_index, height, _REFINE)

    def refine(idx: np.ndarray) -> np.ndarray:
        return bits.random_raw(idx.size * (32 - LANE_EAGER_BITS)).reshape(idx.size, -1)

    return refine


def _plane_draws(seed: int, *key: int):
    """draw(t, n): the next n words of the substream key + (t,), each created when first drawn."""
    streams = {}

    def draw(t: int, n: int) -> np.ndarray:
        if t not in streams:
            streams[t] = _bits(seed, *key, t)
        return streams[t].random_raw(n)

    return draw


class _GWKernel:
    """Per-config constants of the Galton-Watson kernel, shared by every chunk.

    Every level runs on the lane kernel: a bottom block's or a window's parents are its lanes,
    grouped by child count, and combine_groups combines them.  Between levels each node is one
    mask, in count order.
    """

    def __init__(self, cfg: SimConfig):
        self.cfg, self.lanes = cfg, _LaneKernel(cfg)
        k = cfg.k
        self.dtype = np.min_scalar_type((1 << (k + 1)) - 1)  # the smallest unsigned dtype with k+1 bits
        # spread[i, x]: the 8 lanes of byte x of bit-plane i as bit i of their little-endian masks
        spread = np.zeros((k + 1, 256, 8, self.dtype.itemsize), dtype=np.uint8)
        lane_bits = np.arange(256)[:, None] >> np.arange(8) & 1
        for i in range(k + 1):
            spread[i, :, :, i // 8] = lane_bits << i % 8
        self.spread = spread.reshape(k + 1, 256, -1).view(np.uint64)
        dist = cfg.dist
        self.zs = [z for z, _ in dist.support]
        # uint32 thresholds of the child-count law; a cut that rounds to 2^32 becomes the largest
        # uint32, so the atoms above it keep 2^-32 of mass instead of taking every draw
        qcut = np.rint(np.cumsum([q for _, q in dist.support])[:-1] * _U32)
        self.qcut = np.minimum(qcut, _U32 - 1).astype(np.uint32)

    def level_sizes(self, chunk_index: int, n_trials: int) -> list[int]:
        """Nodes at each depth 0..height-1.

        Each depth's child counts are drawn from that depth's substream and only their sum is
        kept; a level over the node budget raises before the next level is drawn.  The leaf
        parents' counts are left to the bottom-up pass, which draws them once and checks the leaves.
        """
        cfg = self.cfg
        sizes = [n_trials]
        for depth in range(cfg.height - 1):
            bits, n = _bits(cfg.seed, chunk_index, depth, _COUNTS), sizes[-1]
            total = sum(z * n_z for start in range(0, n, BLOCK_PARENTS)
                        for z, n_z, _ in self.atoms(bits, min(BLOCK_PARENTS, n - start))[1])
            self.check_budget(total, depth + 1, n_trials)
            sizes.append(total)
        return sizes

    def check_budget(self, nodes: int, depth: int, n_trials: int) -> None:
        """Raise once nodes sampled at depth, so far, exceed the node budget of n_trials trials."""
        if nodes > self.cfg.node_budget * n_trials:
            raise SimulationError(f"sampled nodes at depth {depth} of {n_trials} trials exceed the budget"
                                  f" of {self.cfg.node_budget:.3g} per trial")

    def atoms(self, bits, n: int) -> tuple[np.ndarray, list[tuple[int, int, int]]]:
        """Atoms (indices into zs) of the next n nodes of a depth's substream, and their groups.

        The groups are (z, n_z, words) for each atom present, ascending: its n_z nodes, and
        the ceil(n_z / 64) lane words that hold them.  n is even unless no count follows.
        """
        u, above, at_least = _draw_u32(bits, n), np.empty(n, dtype=bool), [n]
        atoms = np.zeros(n, dtype=np.min_scalar_type(len(self.qcut)))
        for cut in self.qcut:
            atoms += np.greater_equal(u, cut, out=above)
            at_least.append(int(np.count_nonzero(above)))
        return atoms, [(z, hi - lo, -(-(hi - lo) // 64))
                       for z, hi, lo in zip(self.zs, at_least, at_least[1:] + [0]) if hi > lo]

    def combine_groups(self, kids: np.ndarray, atoms: np.ndarray, groups, coins, scratch: dict) -> np.ndarray:
        """Masks, in count order, of a block's or window's parents, whose child counts are zs[atoms].

        kids holds k+1 bit-planes of one row of words: for each (z, n, words) of groups, atom
        z's n parents, in count order, are lanes 0..n-1 of z child positions of `words` words,
        and the groups lie end to end.  Each group combines on its own, in turn, with
        coins(need) for the retention rule; the roots of all of them become masks and return
        to count order.
        """
        roots, offset = [], 0
        for z, n, words in groups:
            group = kids[:, offset : offset + z * words].reshape(-1, z, words)
            roots.append(self.lanes.combine(group, z, coins, _valid_words(n))[:, 0])
            offset += z * words
        masks = self.masks(np.concatenate(roots, axis=1), scratch)
        parents, offset = np.empty(atoms.size, dtype=self.dtype), 0
        for z, n, words in groups:
            parents[np.flatnonzero(atoms == self.zs.index(z))] = masks[offset : offset + n]
            offset += 64 * words
        return parents

    def planes(self, below: _Taker, groups, scratch: dict) -> np.ndarray:
        """k+1 bit-planes of a window's kids, laid out for combine_groups, in the lane buffers of scratch.

        The kids are the next masks of below, in count order: the parents of the smallest atom
        z, in count order, take the first z n_z kids, z consecutive kids each; those of the next
        atom the next ones, and so on.  Each group's kids are transposed into its lanes,
        zero-padded, and bit i of each lane's mask becomes its bit in plane i: the inverse of masks.
        """
        kids = below.take(sum(z * n for z, n, _ in groups))
        n_words = sum(z * words for z, _, words in groups)
        lanes = _reuse(scratch, "lanes", 64 * n_words, partial(np.empty, dtype=self.dtype))[: 64 * n_words]
        taken = offset = 0
        for z, n, words in groups:
            rows = lanes[offset : offset + 64 * z * words].reshape(z, -1)
            rows[:, :n] = kids[taken : taken + z * n].reshape(n, z).T
            rows[:, n:] = 0
            taken, offset = taken + z * n, offset + rows.size
        flags = _reuse(scratch, "flags", lanes.size, partial(np.empty, dtype=bool))[: lanes.size]
        planes = _reuse(scratch, "buffers", n_words, self.lanes.buffers)[: self.cfg.k + 1, :n_words]
        for i, plane in enumerate(planes):
            np.bitwise_and(lanes, 1 << i, out=flags, casting="unsafe")
            plane[...] = np.packbits(flags, bitorder="little").view("<u8")
        return planes

    def masks(self, planes: np.ndarray, scratch: dict) -> np.ndarray:
        """Masks of the lanes of planes (k+1 rows of words) in scratch: bit i of a lane's mask is its bit in plane i."""
        size, n = self.dtype.itemsize, 8 * planes.shape[1]
        words = _reuse(scratch, "masks", 2 * n * size, partial(np.empty, dtype=np.uint64))
        out, tmp = words[: 2 * n * size].reshape(2, n, size)
        lane_bytes = planes.astype("<u8", copy=False).view(np.uint8)
        np.take(self.spread[0], lane_bytes[0], axis=0, out=out)
        for i in range(1, len(planes)):
            out |= np.take(self.spread[i], lane_bytes[i], axis=0, out=tmp)
        return out.reshape(-1).view(self.dtype.newbyteorder("<"))

    def level(self, chunk_index: int, depth: int, n_parents: int, size: int, kids, scratch: dict):
        """Masks of the chunk's depth-`depth` nodes in count order, `size` parents at a time.

        Each block or window draws its parents' counts, kids(groups) gives the bit-planes of
        their children, laid out for combine_groups, and combine_groups does the rest.
        """
        count_bits = _bits(self.cfg.seed, chunk_index, depth, _COUNTS)
        coins = self.lanes.coin_draws(chunk_index, depth)
        for start in range(0, n_parents, size):
            atoms, groups = self.atoms(count_bits, min(size, n_parents - start))
            yield self.combine_groups(kids(groups), atoms, groups, coins, scratch)

    def chunk(self, chunk_index: int, n_trials: int, scratch: dict) -> np.ndarray:
        """Root-state counts (k diseases then sane) for one chunk of trials, with the arrays of scratch.

        The leaf parents come BLOCK_PARENTS at a time and the levels above WINDOW_PARENTS at a
        time, so every level reuses the arrays of scratch.
        """
        cfg, lanes, height = self.cfg, self.lanes, self.cfg.height
        sizes = self.level_sizes(chunk_index, n_trials)
        leaf_draw = _plane_draws(cfg.seed, chunk_index, height, _LEAVES)
        refine = _refine_draws(cfg.seed, chunk_index, height)
        n_leaves = 0

        def leaves(groups):
            nonlocal n_leaves
            n_leaves += sum(z * n for z, n, _ in groups)
            self.check_budget(n_leaves, height, n_trials)
            valid = np.concatenate([np.tile(_valid_words(n), z) for z, n, _ in groups])
            buffers = _reuse(scratch, "buffers", valid.size, lanes.buffers)
            return lanes.leaves(leaf_draw, refine, 1, valid, buffers)[:, 0]

        nodes = self.level(chunk_index, height - 1, sizes[height - 1], BLOCK_PARENTS, leaves, scratch)
        for depth in range(height - 2, -1, -1):
            kids = partial(self.planes, _Taker(nodes), scratch=scratch)
            nodes = self.level(chunk_index, depth, sizes[depth], WINDOW_PARENTS, kids, scratch)
        roots = np.concatenate(list(nodes))
        infected = [int((roots == 1 << i).sum()) for i in range(cfg.k)]
        return np.array(infected + [n_trials - sum(infected)], dtype=np.int64)


class _Taker:
    """Consecutive runs of the nodes of an iterator of arrays."""

    def __init__(self, arrays):
        self.arrays, self.rest = iter(arrays), None

    def take(self, n: int) -> np.ndarray:
        """The next n (at least one) nodes, as a new array of the arrays' dtype."""
        parts = []
        while n:
            if self.rest is None or not self.rest.size:
                self.rest = next(self.arrays)
            parts.append(self.rest[:n])
            self.rest, n = self.rest[n:], n - parts[-1].size
        return np.concatenate(parts)


def _reuse(scratch: dict, name: str, n: int, make) -> np.ndarray:
    """scratch[name] while its last axis holds n, else make(n), kept there."""
    if name not in scratch or scratch[name].shape[-1] < n:
        scratch[name] = make(n)
    return scratch[name]


def _draw_u32(bits, n: int) -> np.ndarray:
    """The next n uint32s of an SFC64 stream, as Generator.integers(0, 2**32, n, dtype=np.uint32) gives them.

    SFC64 hands out the low then the high half of each 64-bit word, so a sequence of draws
    matches one whole draw when every draw but the last is of an even n.
    """
    return bits.random_raw((n + 1) // 2).astype("<u8", copy=False).view("<u4")[:n]


class _Children:
    """The forked workers of one simulate_root call, and the sum of the counts they sent back.

    Each child runs its chunks, writes its outcome to its own pipe and leaves by os._exit.  On
    leaving the with block, by return or by raise, every child still listed is killed and reaped.
    """

    def __init__(self):
        self.selector = selectors.DefaultSelector()  # the read end of each child's pipe, with (worker, pid)
        self.counts = 0

    def __enter__(self) -> _Children:
        return self

    def __exit__(self, *exc) -> None:
        for key in list(self.selector.get_map().values()):
            self.selector.unregister(key.fd)
            os.close(key.fd)
            try:
                os.kill(key.data[1], signal.SIGKILL)
                os.waitpid(key.data[1], 0)
            except (ProcessLookupError, ChildProcessError):  # reaped already, by an interrupted collect
                pass
        self.selector.close()

    def fork(self, worker: int, work) -> None:
        """Run work() in a forked child, which sends back its counts or its exception's type and message."""
        read, write = os.pipe()
        try:
            with warnings.catch_warnings():
                # Python 3.12 warns about fork() in a process with other threads, and numpy's BLAS
                # pool is one.  The child runs only chunks and os._exit: it imports nothing
                # (simulate_root imported numpy.random) and takes no lock another thread can hold.
                warnings.filterwarnings("ignore", r"This process .* fork\(\)", DeprecationWarning)
                pid = os.fork()
        except BaseException:
            os.close(read)
            os.close(write)
            raise
        if pid == 0:
            try:  # the child never returns into the caller's stack, whatever happens
                try:
                    outcome = ([int(n) for n in work()], None)
                except BaseException as exc:
                    outcome = (None, (type(exc).__name__, str(exc), isinstance(exc, SimulationError)))
                message = memoryview(json.dumps(outcome).encode())
                while message:
                    message = message[os.write(write, message) :]
            finally:
                os._exit(0)
        os.close(write)
        self.selector.register(read, selectors.EVENT_READ, (worker, pid))

    def collect(self, wait: bool) -> None:
        """Add the counts of every child that has finished, or with wait of every child once all have, and reap it.

        A child's outcome is whole once its pipe reads end of file.  Raises the first error a
        child sent back: a SimulationError as itself, any other as a RuntimeError naming it.
        """
        while self.selector.get_map():
            for key, _ in self.selector.select(None if wait else 0):
                data = b""
                while part := os.read(key.fd, 1 << 16):
                    data += part
                worker, pid = key.data
                _, status = os.waitpid(pid, 0)
                self.selector.unregister(key.fd)
                os.close(key.fd)
                if not data:
                    raise RuntimeError(f"simulation worker {worker} ended with no result (wait status {status})")
                counts, error = json.loads(data)
                if error is not None:
                    name, message, simulation_error = error
                    if simulation_error:
                        raise SimulationError(message)
                    raise RuntimeError(f"simulation worker {worker} raised {name}: {message}")
                self.counts = self.counts + np.array(counts, dtype=np.int64)
            if not wait:
                return


def simulate_root(cfg: SimConfig) -> SimResult:
    """Empirical root distribution over cfg.trials freshly sampled trees.

    Refuses configs whose expected node count per trial (mean^height) exceeds
    cfg.node_budget.  TREESPREAD_THREADS (0..MAX_WORKERS, 0 for every CPU) caps
    the worker count W.  Worker w runs chunks w, w + W, w + 2W, ... one at a time
    with one scratch dict.  Worker 0 is the calling process; each other worker is
    a child forked for this call, which sends its counts back through a pipe, and
    the counts are summed as integers.  Without os.fork every chunk runs in this
    process.  The caller checks on its children between its own chunks: a chunk
    that raises, in any worker, kills and reaps every child before the error is
    raised here, a SimulationError as itself.  Results are identical at any
    worker count.
    """
    log_nodes = cfg.height * math.log(cfg.dist.mean)  # mean^height overflows a float on tall trees
    if log_nodes > math.log(cfg.node_budget):
        raise SimulationError(
            f"expected ~10^{log_nodes / math.log(10):.3g} nodes per trial exceeds budget {cfg.node_budget:.3g}"
        )
    raw = os.environ.get("TREESPREAD_THREADS", "0")
    try:
        threads = int(raw)
    except ValueError:
        threads = -1
    if not 0 <= threads <= MAX_WORKERS:
        raise SimulationError(f"TREESPREAD_THREADS={raw!r} is not an integer in 0..{MAX_WORKERS}")

    # every trial of a z-ary tree has the same shape, so z-ary chunks run 64 trials per word
    kernel = _LaneKernel(cfg) if cfg.dist.is_deterministic else _GWKernel(cfg)
    n_chunks = -(-cfg.trials // CHUNK_TRIALS)
    workers = min(threads or os.cpu_count() or 1, n_chunks) if hasattr(os, "fork") else 1

    def chunks(worker: int):
        scratch = {}
        for c in range(worker, n_chunks, workers):
            yield kernel.chunk(c, min(CHUNK_TRIALS, cfg.trials - c * CHUNK_TRIALS), scratch)

    import numpy.random  # noqa: F401  the chunks' first draw imports it: here, not in every child

    with _Children() as children:
        for worker in range(1, workers):
            children.fork(worker, partial(sum, chunks(worker)))
        counts = 0
        for part in chunks(0):
            counts += part
            children.collect(wait=False)
        children.collect(wait=True)
        counts = counts + children.counts  # an integer sum, the same in any order

    p_hat = counts / cfg.trials
    stderr = np.sqrt(p_hat * (1.0 - p_hat) / cfg.trials)
    return SimResult(tuple(p_hat.tolist()), tuple(stderr.tolist()), cfg.trials)
