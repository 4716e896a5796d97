"""Deterministic splittable uniform streams with exact cost accounting.

Every source of randomness in this package is a :class:`UniformStream`: a
counter-based generator identified by ``(seed, path)``.  Forking derives an
independent child whose identity depends only on the fork labels, never on
how much the parent has already drawn, so results are reproducible under any
execution order.  Costs are counted in abstract units (one coordinate draw,
one chain step, one payoff evaluation each cost one unit) on a
:class:`CostLedger` shared along the fork tree.

A stream draws the Philox4x64 sequence of numpy's
``Generator(Philox(SeedSequence(seed, spawn_key=path)))``, bit for bit.  Its
Philox key is that ``SeedSequence``'s state, but computed here (Salmon et
al., "Parallel random numbers: as easy as 1, 2, 3", SC'11).  A chunk's
streams are mostly siblings: the pool after their paths' common prefix is
mixed once, in cached plain integers, and only the labels after it go
through one pass of numpy uint32 arithmetic for the whole chunk.  Every
draw runs on one reused Philox per thread, reset to the stream's key and
counter.  So a fork builds no numpy object at all.

The bulk oracles (the radial design of ``anova``, which serves
``mc_profile`` and the variance checks, and ``markov.measure_decay``) split
their work into row blocks and run them on one thread pool through
:func:`run_parts`, which also books the blocks' units and advances the
stream; every block draws its rows at their own offsets in the stream, so
no value depends on the thread count.  The decay's values do not depend on
the block size either; the radial design's blocks are segments of a size
fixed by its inputs, since they set the order of its sums.
"""

from __future__ import annotations

import contextvars
import operator
import os
import threading
from dataclasses import dataclass
from functools import lru_cache
from itertools import count
from typing import Sequence

import numpy as np

_MASK32 = 0xFFFFFFFF

# The hash constants of numpy's SeedSequence (numpy/random/bit_generator.pyx).
_INIT_A = 0x43B0D7E5
_MULT_A = 0x931E8875
_INIT_B = 0x8B51F9DD
_MULT_B = 0x58F38DED
_MIX_MULT_L = 0xCA01F9DD
_MIX_MULT_R = 0x4973F715
_POOL_SIZE = 4
# hashmix calls made before the first spawn-key word: one per pool word,
# then one per ordered pair of distinct pool words
_SEED_HASHES = _POOL_SIZE * _POOL_SIZE


def _hash_constant(init: int, mult: int, k: int) -> int:
    """The hash constant after ``k`` multiplications, init * mult**k mod 2**32."""
    return init * pow(mult, k, 1 << 32) & _MASK32


def _xorshift(values: np.ndarray) -> np.ndarray:
    values ^= values >> 16
    return values


def _label_words(path: tuple[int, ...]) -> list[int]:
    """The uint32 words SeedSequence reads from a spawn key: each label in
    little-endian order, and 0 as one word."""
    words = []
    for label in path:
        words.append(label & _MASK32)
        label >>= 32
        while label:
            words.append(label & _MASK32)
            label >>= 32
    return words


@lru_cache(maxsize=256)
def _prefix_pool(seed: int, prefix: tuple[int, ...]) -> tuple[tuple[int, ...], int]:
    """SeedSequence's entropy pool for ``seed`` after the spawn-key labels
    ``prefix``, and the number of spawn-key words mixed in.

    The pool takes the seed's 32-bit words, zero-padded to the pool size,
    mixes every word into every other, then hashes each spawn-key word into
    every pool word.  All streams of a chunk with one seed share the part
    for their paths' common prefix, so it is computed once, in plain
    integers.
    """
    hashes = count()

    def hashmix(value: int) -> int:
        k = next(hashes)
        value = ((value ^ _hash_constant(_INIT_A, _MULT_A, k))
                 * _hash_constant(_INIT_A, _MULT_A, k + 1)) & _MASK32
        return value ^ (value >> 16)

    def mix(x: int, y: int) -> int:
        result = (_MIX_MULT_L * x - _MIX_MULT_R * y) & _MASK32
        return result ^ (result >> 16)

    pool = [hashmix((seed >> (32 * i)) & _MASK32) for i in range(_POOL_SIZE)]
    for src in range(_POOL_SIZE):
        for dst in range(_POOL_SIZE):
            if src != dst:
                pool[dst] = mix(pool[dst], hashmix(pool[src]))
    words = _label_words(prefix)
    for word in words:
        for dst in range(_POOL_SIZE):
            pool[dst] = mix(pool[dst], hashmix(word))
    return tuple(pool), len(words)


@lru_cache(maxsize=64)
def _word_constants(first: int, words: int) -> tuple[np.ndarray, np.ndarray]:
    """Xor and multiply constants [words, pool] of the hashmixes of spawn-key
    words ``first`` to ``first + words``."""
    start = _SEED_HASHES + first * _POOL_SIZE
    xor = np.array([_hash_constant(_INIT_A, _MULT_A, start + k)
                    for k in range(words * _POOL_SIZE)], dtype=np.uint32)
    xor = xor.reshape(words, _POOL_SIZE)
    mult = xor * _MULT_A
    return xor, mult


_STATE_XOR = np.array([_hash_constant(_INIT_B, _MULT_B, k) for k in range(4)],
                      dtype=np.uint32)
_STATE_MULT = _STATE_XOR * _MULT_B


def philox_keys(seeds: Sequence[int], paths: Sequence[tuple[int, ...]]) -> np.ndarray:
    """Philox keys [R, 2] (uint64) of the streams ``(seeds[j], paths[j])``,
    for seeds below 2**64.

    Row j equals ``SeedSequence(seeds[j], spawn_key=paths[j])
    .generate_state(2, np.uint64)``: the seed's pool, then each spawn-key
    word hashed into every pool word, then the state hash.  A chunk with one
    seed and paths of one length whose varying labels are below 2**32, as
    every chunk the package draws is, takes the pool after the paths'
    longest common prefix from :func:`_prefix_pool`; the labels after it go
    through numpy for all streams together, one position at a time, so a
    chunk of sibling forks mixes one label per stream.  Any other chunk
    takes each stream's whole pool from :func:`_prefix_pool`.
    """
    rows = len(paths)
    if not rows:
        return np.empty((0, 2), dtype=np.uint64)
    seeds = list(seeds)
    words = None
    if seeds.count(seeds[0]) == rows and len(set(map(len, paths))) == 1:
        columns = list(zip(*paths))
        start = 0
        while start < len(columns) and columns[start].count(columns[start][0]) == rows:
            start += 1
        try:  # labels below 2**32 are one word each
            words = np.array(columns[start:], dtype=np.uint32).reshape(-1, rows)
        except OverflowError:
            pass
    if words is None:
        pool = np.array([_prefix_pool(seed, tuple(path))[0]
                         for seed, path in zip(seeds, paths)], dtype=np.uint32)
    else:
        pool, first = _prefix_pool(seeds[0], tuple(paths[0][:start]))
        pool = np.array([pool], dtype=np.uint32)
        xor, mult = _word_constants(first, len(words))
        for w, word in enumerate(words):
            hashed = _xorshift((word[:, None] ^ xor[w]) * mult[w])
            pool = _xorshift(pool * _MIX_MULT_L - hashed * _MIX_MULT_R)
    pool = np.broadcast_to(pool, (rows, _POOL_SIZE))
    state = _xorshift((pool ^ _STATE_XOR) * _STATE_MULT)
    return np.ascontiguousarray(state, dtype="<u4").view("<u8").astype(np.uint64)


@dataclass
class CostLedger:
    """Abstract cost counters for one run; monotone nondecreasing."""

    coordinate_draws: int = 0
    step_applications: int = 0
    payoff_evals: int = 0

    @property
    def total_units(self) -> int:
        return self.coordinate_draws + self.step_applications + self.payoff_evals

    def snapshot(self) -> tuple[int, int, int]:
        """Current (draws, steps, payoffs), for measuring deltas."""
        return (self.coordinate_draws, self.step_applications, self.payoff_evals)

    def add(self, other: "CostLedger") -> None:
        """Book the units counted on ``other`` here as well."""
        self.coordinate_draws += other.coordinate_draws
        self.step_applications += other.step_applications
        self.payoff_evals += other.payoff_evals


class UniformStream:
    """Splittable stream of uniform [0, 1) variates.

    Streams with equal ``(seed, path)`` produce identical sequences; streams
    with different paths are statistically independent.  ``counter`` is the
    exact number of variates drawn from this stream since creation.  ``key``
    is the stream's Philox key, derived on its first draw.  A fork tree shares
    one ledger, so use its streams from one thread.
    """

    __slots__ = ("seed", "path", "counter", "ledger", "key")

    def __init__(self, seed: int, path: tuple[int, ...] = (),
                 ledger: CostLedger | None = None):
        self.seed = operator.index(seed)
        if not 0 <= self.seed < 1 << 64:  # no seed may alias another
            raise ValueError(f"seed {self.seed} does not lie in [0, 2**64)")
        # key derivation reads Python ints; a float or other non-integer
        # label raises TypeError instead of aliasing an integer one
        self.path = tuple(map(operator.index, path))
        if any(label < 0 for label in self.path):
            raise ValueError("path labels must be nonnegative integers")
        self.counter = 0
        self.ledger = CostLedger() if ledger is None else ledger
        self.key: tuple[int, int] | None = None

    def __repr__(self) -> str:
        return f"UniformStream(seed={self.seed}, path={self.path}, counter={self.counter})"

    def fork(self, label: int) -> "UniformStream":
        """Independent child stream at ``path + (label,)`` on this stream's ledger.

        The parent is unaffected; the child's draw sequence is a pure function
        of ``(seed, path, label)``.
        """
        label = operator.index(label)  # a float raises TypeError, as in __init__
        if label < 0:
            raise ValueError("fork label must be a nonnegative integer")
        # the parent's fields are already normalized, so __init__ is skipped
        child = UniformStream.__new__(UniformStream)
        child.seed, child.path, child.counter = self.seed, self.path + (label,), 0
        child.ledger, child.key = self.ledger, None
        return child

    def draw(self, n: int) -> np.ndarray:
        """Next ``n`` uniforms in [0, 1); counter and ledger advance by ``n``."""
        return draw_rows([self], n)[0]

    def draw_matrix(self, rows: int, cols: int) -> np.ndarray:
        """``rows * cols`` uniforms reshaped to (rows, cols), row-major."""
        return self.draw(rows * cols).reshape(rows, cols)


_local = threading.local()


def _philox():
    """This thread's reusable Philox and its Generator, made on first use;
    numpy.random is imported only then."""
    try:
        return _local.philox
    except AttributeError:
        from numpy.random import Generator, Philox
        bitgen = Philox(key=0)
        _local.philox = bitgen, Generator(bitgen)
        return _local.philox


def draw_rows(streams: Sequence[UniformStream], n: int) -> np.ndarray:
    """The next ``n`` uniforms of each stream, one row per stream.

    Keys not yet derived are derived together.  Each row resets the thread's
    Philox to the stream's key at the block that holds its counter, then
    discards the block's values the stream has already drawn.  The draws of
    streams on the first stream's ledger are booked there in one addition.
    """
    if n < 0:
        raise ValueError("draw count must be nonnegative")
    fresh = [stream for stream in streams if stream.key is None]
    if fresh:
        keys = philox_keys([s.seed for s in fresh], [s.path for s in fresh])
        for stream, key in zip(fresh, zip(keys[:, 0].tolist(), keys[:, 1].tolist())):
            stream.key = key
    bitgen, gen = _philox()
    out = np.empty((len(streams), n))
    if not streams:
        return out
    # one state dict for every row; the setter copies its values
    position = {"counter": None, "key": None}
    state = {"bit_generator": "Philox", "state": position,
             "buffer": (0, 0, 0, 0), "buffer_pos": 4, "has_uint32": 0, "uinteger": 0}
    ledger, shared = streams[0].ledger, 0
    for j, stream in enumerate(streams):
        counter = stream.counter
        position["counter"] = (counter >> 2, 0, 0, 0)
        position["key"] = stream.key
        bitgen.state = state
        if counter & 3:
            bitgen.random_raw(counter & 3)
        gen.random(out=out[j])
        stream.counter = counter + n
        if stream.ledger is ledger:
            shared += 1
        else:
            stream.ledger.coordinate_draws += n
    ledger.coordinate_draws += shared * n
    return out


def new_stream(seed: int, ledger: CostLedger | None = None) -> UniformStream:
    """Root stream with empty path and zero counter."""
    return UniformStream(seed, (), ledger)


def _cpu_count() -> int:
    """The number of CPUs this process may run on."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # platforms without CPU affinity
        return os.cpu_count() or 1


def pool_blocks(n: int, budget: int) -> list[tuple[int, int]]:
    """Rows ``0..n`` of one element each, split into ``(start, stop)`` blocks
    of nearly equal size for :func:`run_parts`.

    No block holds more than ``budget`` rows, at least one, and where ``n``
    permits, the block count is a multiple of the pool's thread count, so
    every thread gets the same share of rows.  No rows make no blocks.
    """
    if n < 0:
        raise ValueError("row count must be nonnegative")
    if n == 0:
        return []
    blocks = -(-n // max(1, budget))
    threads = min(_cpu_count(), blocks)
    blocks = min(n, -(-blocks // threads) * threads)
    return [(n * k // blocks, n * (k + 1) // blocks) for k in range(blocks)]


def run_parts(fn, stream: UniformStream, blocks, drawn: int) -> list:
    """``[fn(part, block) for block in blocks]`` on a thread pool, then
    ``stream`` advanced by ``drawn`` uniforms.

    Each block's ``part`` draws ``stream``'s sequence on a ledger of its own,
    since a ledger is not safe to share across threads; ``fn`` sets the
    part's counter to the block's offsets.  ``stream``'s key is derived once,
    before the pool starts, and shared with every part.  The pool has one
    thread per usable CPU, at most one per block, and each call runs in a
    copy of the caller's context, so under its numpy error state.  The first
    failure, in block order, is raised, calls not yet started are cancelled,
    and ``stream``'s counter and ledger stay as they were.  Otherwise the
    parts' units are booked on ``stream``'s ledger and its counter advances
    by ``drawn``.
    """
    from concurrent.futures import ThreadPoolExecutor

    if stream.key is None:
        stream.draw(0)
    blocks = list(blocks)
    parts = [UniformStream(stream.seed, stream.path, CostLedger()) for _ in blocks]
    for part in parts:
        part.counter, part.key = stream.counter, stream.key
    contexts = [contextvars.copy_context() for _ in blocks]
    with ThreadPoolExecutor(max(1, min(_cpu_count(), len(blocks)))) as pool:
        results = list(pool.map(lambda context, part, block: context.run(fn, part, block),
                                contexts, parts, blocks))
    for part in parts:
        stream.ledger.add(part.ledger)
    stream.counter += drawn
    return results
