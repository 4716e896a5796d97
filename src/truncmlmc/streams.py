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
Philox key is that ``SeedSequence``'s state, but computed here: a chunk's keys
come out of one pass of numpy uint32 arithmetic (Salmon et al., "Parallel
random numbers: as easy as 1, 2, 3", SC'11), and every draw runs on one
reused Philox per thread, reset to the stream's key and counter.  So a fork
builds no numpy object at all.

The bulk oracles (the radial design of ``anova``, which serves
``mc_profile`` and the variance checks, and ``markov.measure_decay``) split
their work into row blocks and run them on one thread pool through
:func:`run_all`; every block draws its rows at their own offsets in the
stream, so no value depends on the thread count.  The decay's values do not
depend on the block size either; the radial design's blocks are segments of
a size fixed by its inputs, since they set the order of its sums.
"""

from __future__ import annotations

import contextvars
import os
import threading
from dataclasses import dataclass
from functools import lru_cache
from itertools import count
from typing import Sequence

import numpy as np

_SEED_MASK = (1 << 64) - 1
_MASK32 = 0xFFFFFFFF

# Paths per row block of the restart decay, as in mlmc's chunks; no sampled
# value depends on it.
_BLOCK_ELEMENTS = 2 ** 14

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


@lru_cache(maxsize=256)
def _seed_pool(seed: int) -> tuple[int, ...]:
    """SeedSequence's entropy pool for ``seed`` before any spawn-key word.

    The pool takes the seed's 32-bit words, zero-padded to the pool size, then
    mixes every word into every other; this part is shared by all streams
    with the same seed, so it is computed once per seed in plain integers.
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
    return tuple(pool)


@lru_cache(maxsize=64)
def _word_constants(words: int) -> tuple[np.ndarray, np.ndarray]:
    """Xor and multiply constants [words, pool] of the spawn-key hashmixes."""
    xor = np.array([_hash_constant(_INIT_A, _MULT_A, _SEED_HASHES + k)
                    for k in range(words * _POOL_SIZE)], dtype=np.uint32)
    xor = xor.reshape(words, _POOL_SIZE)
    mult = xor * _MULT_A
    return xor, mult


_STATE_XOR = np.array([_hash_constant(_INIT_B, _MULT_B, k) for k in range(4)],
                      dtype=np.uint32)
_STATE_MULT = _STATE_XOR * _MULT_B


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


def philox_keys(seeds: Sequence[int], paths: Sequence[tuple[int, ...]]) -> np.ndarray:
    """Philox keys [R, 2] (uint64) of the streams ``(seeds[j], paths[j])``,
    for seeds below 2**64.

    Row j equals ``SeedSequence(seeds[j], spawn_key=paths[j])
    .generate_state(2, np.uint64)``: the seed's pool, then each spawn-key
    word hashed into every pool word, then the state hash.  The words of all
    streams go through numpy together, one word position at a time.
    """
    words = [_label_words(path) for path in paths]
    width = max(map(len, words), default=0)
    pool = np.array([_seed_pool(seed) for seed in seeds], dtype=np.uint32)
    pool = pool.reshape(len(words), _POOL_SIZE)
    if width:
        lengths = np.array([len(w) for w in words])
        padded = np.array([w + [0] * (width - len(w)) for w in words], dtype=np.uint32)
        xor, mult = _word_constants(width)
        hashed = _xorshift((padded[:, :, None] ^ xor) * mult)
        for w in range(width):
            mixed = _xorshift(pool * _MIX_MULT_L - hashed[:, w] * _MIX_MULT_R)
            pool = np.where((lengths > w)[:, None], mixed, pool)
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
        self.seed = seed & _SEED_MASK
        self.path = tuple(path)
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
        if label < 0:
            raise ValueError("fork label must be a nonnegative integer")
        return UniformStream(self.seed, self.path + (int(label),), self.ledger)

    def draw(self, n: int) -> np.ndarray:
        """Next ``n`` uniforms in [0, 1); counter and ledger advance by ``n``."""
        return draw_rows([self], n)[0]

    def draw_matrix(self, rows: int, cols: int) -> np.ndarray:
        """``rows * cols`` uniforms reshaped to (rows, cols), row-major."""
        return self.draw(rows * cols).reshape(rows, cols)


def chunk_streams(streams: UniformStream | Sequence[UniformStream]
                  ) -> tuple[list[UniformStream], CostLedger]:
    """A chunk's streams, one per replication, and the ledger they share.

    A bare stream is a chunk of one.  Raises ValueError for an empty chunk or
    for streams on different ledgers, whose units one ledger could not count.
    """
    if isinstance(streams, UniformStream):
        streams = [streams]
    streams = list(streams)
    if not streams:
        raise ValueError("a chunk needs at least one stream")
    ledger = streams[0].ledger
    if any(stream.ledger is not ledger for stream in streams):
        raise ValueError("the streams of a chunk must share one cost ledger")
    return streams, ledger


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
    discards the block's values the stream has already drawn.
    """
    if n < 0:
        raise ValueError("draw count must be nonnegative")
    fresh = [stream for stream in streams if stream.key is None]
    if fresh:
        keys = philox_keys([s.seed for s in fresh], [s.path for s in fresh])
        for stream, key in zip(fresh, keys.tolist()):
            stream.key = tuple(key)
    bitgen, gen = _philox()
    out = np.empty((len(streams), n))
    for j, stream in enumerate(streams):
        bitgen.state = {"bit_generator": "Philox",
                        "state": {"counter": (stream.counter >> 2, 0, 0, 0),
                                  "key": stream.key},
                        "buffer": (0, 0, 0, 0), "buffer_pos": 4,
                        "has_uint32": 0, "uinteger": 0}
        if stream.counter & 3:
            bitgen.random_raw(stream.counter & 3)
        gen.random(out=out[j])
        stream.counter += n
        stream.ledger.coordinate_draws += n
    return out


def new_stream(seed: int, ledger: CostLedger | None = None) -> UniformStream:
    """Root stream with empty path and zero counter."""
    return UniformStream(seed, (), ledger)


def part_stream(stream: UniformStream, offset: int,
                ledger: CostLedger | None = None) -> UniformStream:
    """A stream that draws ``stream``'s sequence from ``offset`` past its
    counter, on ``ledger`` (``stream``'s own by default).

    The key is derived once, here, and shared with the part, so parts of one
    stream cost no further key derivation.  ``stream`` is not advanced.
    """
    if stream.key is None:
        stream.draw(0)
    part = UniformStream(stream.seed, stream.path,
                         stream.ledger if ledger is None else ledger)
    part.counter, part.key = stream.counter + offset, stream.key
    return part


def _cpu_count() -> int:
    """The number of CPUs this process may run on."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # platforms without CPU affinity
        return os.cpu_count() or 1


def pool_blocks(n: int) -> list[tuple[int, int]]:
    """Rows ``0..n`` of one element each, split into ``(start, stop)`` blocks
    of nearly equal size for :func:`run_all`.

    No block holds more than ``_BLOCK_ELEMENTS`` rows, and where ``n``
    permits, the block count is a multiple of the pool's thread count, so
    every thread gets the same share of rows.  No rows make no blocks.
    """
    if n < 0:
        raise ValueError("row count must be nonnegative")
    if n == 0:
        return []
    blocks = -(-n // max(1, _BLOCK_ELEMENTS))
    threads = min(_cpu_count(), blocks)
    blocks = min(n, -(-blocks // threads) * threads)
    return [(n * k // blocks, n * (k + 1) // blocks) for k in range(blocks)]


def run_all(fn, items) -> list:
    """``[fn(item) for item in items]`` on a thread pool with one thread per
    usable CPU, at most one per item.

    Each call runs in a copy of the caller's context, so under its numpy
    error state.  The first failure, in item order, is raised; calls not yet
    started are then cancelled.
    """
    from concurrent.futures import ThreadPoolExecutor

    items = list(items)
    with ThreadPoolExecutor(max(1, min(_cpu_count(), len(items)))) as pool:
        futures = [pool.submit(contextvars.copy_context().run, fn, item)
                   for item in items]
        try:
            return [future.result() for future in futures]
        finally:
            for future in futures:
                future.cancel()
