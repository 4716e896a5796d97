import os
import subprocess
import sys
import threading
import time
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import stats

from truncmlmc import CostLedger, new_stream, streams
from truncmlmc.streams import (UniformStream, draw_rows, philox_keys, pool_blocks,
                               run_parts)

DEFAULT_SEEDS = (0, 1, 42, 12345)


def test_same_seed_reproduces():
    a = new_stream(42).draw(100)
    b = new_stream(42).draw(100)
    assert np.array_equal(a, b)


def test_different_seeds_differ():
    a = new_stream(42).draw(1000)
    b = new_stream(43).draw(1000)
    assert np.any(a != b)


def test_zero_seed_is_ordinary():
    s = new_stream(0)
    x = s.draw(10)
    assert x.shape == (10,)
    assert np.array_equal(x, new_stream(0).draw(10))


def test_fork_is_deterministic():
    s = new_stream(7)
    a = s.fork(1).draw(50)
    b = s.fork(1).draw(50)
    assert np.array_equal(a, b)


def test_fork_does_not_disturb_parent():
    s = new_stream(7)
    expected = new_stream(7).draw(20)
    s.fork(3)
    assert np.array_equal(s.draw(20), expected)


def test_nested_fork_differs_from_single_fork():
    s = new_stream(7)
    assert not np.array_equal(s.fork(1).fork(1).draw(100), s.fork(1).draw(100))


def test_sibling_forks_uncorrelated():
    s = new_stream(2024)
    x = s.fork(1).draw(10_000)
    y = s.fork(2).draw(10_000)
    rho = np.corrcoef(x, y)[0, 1]
    assert abs(rho) < 0.05


def test_draw_zero_is_empty_and_free():
    s = new_stream(5)
    out = s.draw(0)
    assert out.shape == (0,)
    assert s.counter == 0


def test_draw_range_and_mean():
    x = new_stream(11).draw(100_000)
    assert np.all(x >= 0.0) and np.all(x < 1.0)
    assert abs(x.mean() - 0.5) < 0.01


def test_counter_counts_exactly():
    s = new_stream(9)
    s.draw(3)
    s.draw_matrix(4, 5)
    assert s.counter == 23


def test_ledger_shared_across_forks():
    ledger = CostLedger()
    s = new_stream(1, ledger)
    s.draw(10)
    s.fork(0).draw(7)
    assert ledger.coordinate_draws == 17
    assert ledger.total_units == 17


def test_ledger_snapshot_delta():
    ledger = CostLedger()
    s = new_stream(1, ledger)
    before = ledger.snapshot()
    s.draw(4)
    after = ledger.snapshot()
    assert tuple(a - b for a, b in zip(after, before)) == (4, 0, 0)


def test_invalid_arguments_rejected():
    s = new_stream(1)
    with pytest.raises(ValueError):
        s.fork(-1)
    with pytest.raises(ValueError, match="nonnegative"):
        s.draw(-1)
    with pytest.raises(ValueError):
        UniformStream(1, (0, -1))
    # a truncated float label would alias the integer one below it
    for label in (1.5, np.float64(1.0)):
        with pytest.raises(TypeError):
            s.fork(label)
    with pytest.raises(TypeError):
        UniformStream(1, (2.7,))
    # a seed reduced mod 2**64 would alias one in range
    for seed in (-1, 2 ** 64):
        with pytest.raises(ValueError, match=r"2\*\*64"):
            new_stream(seed)


def test_numpy_integer_labels_are_python_ints():
    for label in (np.int64(3), np.uint64(3), np.uint32(3)):
        child = new_stream(1).fork(label)
        assert child.path == (3,) and type(child.path[0]) is int
        assert np.array_equal(child.draw(4), new_stream(1).fork(3).draw(4))
    path = UniformStream(1, (np.int32(2), np.uint64(2**40))).path
    assert path == (2, 2**40) and all(type(label) is int for label in path)


@pytest.mark.parametrize("seed", DEFAULT_SEEDS)
def test_uniformity_ks(seed):
    # 1% critical value of the one-sample KS statistic at n = 10^4
    x = new_stream(seed).draw(10_000)
    statistic = stats.kstest(x, "uniform").statistic
    assert statistic < 1.628 / np.sqrt(10_000)


@given(st.integers(min_value=0, max_value=2**64 - 1),
       st.lists(st.integers(min_value=0, max_value=2**32 - 1), max_size=4))
@settings(max_examples=25, deadline=None)
def test_path_identity_determines_sequence(seed, labels):
    a = new_stream(seed)
    b = new_stream(seed)
    for lab in labels:
        a = a.fork(lab)
        b = b.fork(lab)
    assert np.array_equal(a.draw(16), b.draw(16))


SEEDS = st.one_of(st.just(0), st.integers(1, 2**32 - 1),
                  st.integers(2**32, 2**64 - 1))
LABELS = st.one_of(st.just(0), st.integers(1, 2**32 - 1),
                   st.integers(2**32, 2**64 - 1), st.integers(2**64, 2**96))
PATHS = st.lists(LABELS, max_size=4).map(tuple)
# labels at the word boundaries, mixed with the general ones
EDGE_LABELS = st.one_of(st.sampled_from([0, 2**32 - 1, 2**32, 2**64]), LABELS)


@st.composite
def sibling_chunks(draw):
    """Forks of one stream, as a chunk of replications or of their levels
    draws them: a shared prefix of 0-3 labels, then one or two labels that
    vary, and at times one unrelated row."""
    seed = draw(SEEDS)
    prefix = tuple(draw(st.lists(EDGE_LABELS, max_size=3)))
    tails = draw(st.lists(st.lists(EDGE_LABELS, min_size=1, max_size=2).map(tuple),
                          min_size=1, max_size=8))
    chunk = [(seed, prefix + tail) for tail in tails]
    other = draw(st.none() | st.tuples(SEEDS, PATHS))
    if other is not None:
        chunk.insert(draw(st.integers(0, len(chunk))), other)
    return chunk


def numpy_generator(seed, path):
    """numpy's own generator for a stream, the oracle for keys and draws."""
    return np.random.Generator(np.random.Philox(
        np.random.SeedSequence(seed, spawn_key=path)))


@given(st.lists(st.tuples(SEEDS, PATHS), min_size=1, max_size=8) | sibling_chunks())
@settings(max_examples=300, deadline=None)
def test_keys_match_seed_sequence(chunk):
    # a chunk mixes seeds, path lengths and labels of one, two and three words,
    # or holds sibling forks that share their seed and a prefix
    keys = philox_keys([seed for seed, _ in chunk], [path for _, path in chunk])
    expected = [np.random.SeedSequence(seed, spawn_key=path).generate_state(2, np.uint64)
                for seed, path in chunk]
    assert keys.dtype == np.uint64
    assert np.array_equal(keys, np.array(expected))


def test_keys_of_a_mixed_chunk():
    chunk = [(0, ()), (2**32 - 1, (0,)), (2**64 - 1, (2**32, 5)),
             (7, (1, 2, 3, 2**64)), (7, (1, 2, 3, 4))]
    keys = philox_keys([seed for seed, _ in chunk], [path for _, path in chunk])
    for key, (seed, path) in zip(keys, chunk):
        expected = np.random.SeedSequence(seed, spawn_key=path).generate_state(2, np.uint64)
        assert np.array_equal(key, expected), (seed, path)


def test_a_sibling_chunk_mixes_its_prefix_once():
    # every chunk the package draws takes the numpy path: one cached prefix
    # pool, then one label per stream
    streams._prefix_pool.cache_clear()
    keys = philox_keys([5] * 64, [(9, j) for j in range(64)])
    info = streams._prefix_pool.cache_info()
    assert info.hits + info.misses == 1
    expected = np.random.SeedSequence(5, spawn_key=(9, 63)).generate_state(2, np.uint64)
    assert np.array_equal(keys[63], expected)


def test_keys_of_an_empty_chunk():
    keys = philox_keys([], [])
    assert keys.shape == (0, 2) and keys.dtype == np.uint64


@given(SEEDS, PATHS)
@settings(max_examples=25, deadline=None)
def test_draws_continue_numpy_sequence(seed, path):
    stream = UniformStream(seed, path)
    reference = numpy_generator(seed, path)
    for n in (1, 3, 5, 7, 16):
        assert np.array_equal(stream.draw(n), reference.random(n)), n
    assert stream.counter == 32


def test_chunk_rows_continue_each_stream():
    # streams at every offset into a Philox block, drawn together
    root = new_stream(2**40 + 3)
    streams = [root.fork(j) for j in range(9)]
    references = [numpy_generator(root.seed, s.path) for s in streams]
    for j, (stream, reference) in enumerate(zip(streams, references)):
        assert np.array_equal(stream.draw(j), reference.random(j))
    for n in (0, 1, 6):
        rows = draw_rows(streams, n)
        assert rows.shape == (9, n)
        for row, reference in zip(rows, references):
            assert np.array_equal(row, reference.random(n))
    assert [s.counter for s in streams] == [j + 7 for j in range(9)]
    assert root.ledger.coordinate_draws == sum(range(9)) + 9 * 7


def test_chunk_draws_are_booked_on_each_streams_ledger():
    a, b = new_stream(1), new_stream(2)
    draw_rows([a.fork(0), b.fork(0), a.fork(1), b.fork(1), b.fork(2)], 4)
    assert a.ledger.coordinate_draws == 8 and b.ledger.coordinate_draws == 12


def _draw_tree(seed: int) -> list[np.ndarray]:
    root = new_stream(seed)
    out = []
    for j in range(150):
        child = root.fork(j)
        out.append(child.draw(j % 5))
        out.append(draw_rows([child, child.fork(1), root.fork(j + 1)], 3))
    return out


def test_threads_draw_the_same_bits_as_serial_runs():
    # more threads than cores, switching often, each on its own fork tree
    seeds = (11, 12, 13, 14)
    serial = [_draw_tree(seed) for seed in seeds]
    results = [None] * len(seeds)
    start = threading.Barrier(len(seeds))

    def run(k):
        start.wait()
        results[k] = _draw_tree(seeds[k])

    threads = [threading.Thread(target=run, args=(k,)) for k in range(len(seeds))]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    for mine, expected in zip(results, serial):
        assert len(mine) == len(expected)
        assert all(np.array_equal(a, b) for a, b in zip(mine, expected))


def test_no_rows_make_no_blocks_and_no_calls():
    assert pool_blocks(0, 1) == []
    stream = new_stream(1)
    assert run_parts(lambda part, block: 1 / 0, stream, pool_blocks(0, 1), 0) == []
    assert stream.counter == 0 and stream.ledger.snapshot() == (0, 0, 0)
    with pytest.raises(ValueError, match="nonnegative"):
        pool_blocks(-1, 1)


@pytest.mark.parametrize("cpus", [1, 2, 3])
def test_pool_blocks_split_rows_evenly_within_the_budget(cpus, monkeypatch):
    monkeypatch.setattr(streams, "_cpu_count", lambda: cpus)
    for n in range(1, 30):
        for budget in range(8):
            blocks = pool_blocks(n, budget)
            starts, stops = zip(*blocks)
            assert starts == (0,) + stops[:-1] and stops[-1] == n
            sizes = [stop - start for start, stop in blocks]
            assert 1 <= min(sizes) and max(sizes) <= max(1, budget), (n, budget)
            assert max(sizes) - min(sizes) <= 1
            assert len(blocks) == n or len(blocks) % min(cpus, len(blocks)) == 0


@pytest.mark.parametrize("workers", [1, 2, 8])
@pytest.mark.parametrize("offset", [0, 5], ids=["fresh", "off-block"])
def test_run_parts_draws_at_block_offsets_and_books_once(offset, workers, monkeypatch):
    serial = new_stream(9).fork(3)
    serial.draw(offset)
    expected = serial.draw(1_000)
    derived = []
    keys = streams.philox_keys

    def counting(seeds, paths):
        derived.append(len(paths))
        return keys(seeds, paths)

    monkeypatch.setattr(streams, "philox_keys", counting)
    monkeypatch.setattr(streams, "_cpu_count", lambda: workers)
    stream = new_stream(9).fork(3)
    if offset:  # 5 moves the counter off a Philox block boundary
        stream.draw(offset)
    base, before = stream.counter, stream.ledger.snapshot()

    def draw_block(part, block):
        start, stop = block
        part.counter = base + start
        return part.draw(stop - start)

    blocks = [(0, 7), (7, 300), (300, 301), (301, 1_000)]
    got = run_parts(draw_block, stream, blocks, 1_000)
    assert np.array_equal(np.concatenate(got), expected)
    # the stream's key is derived once and every part shares it
    assert derived == [1]
    assert stream.counter == base + 1_000
    assert tuple(b - a for a, b in zip(before, stream.ledger.snapshot())) == (1_000, 0, 0)


def test_run_parts_raises_the_first_failure_and_books_nothing(monkeypatch):
    monkeypatch.setattr(streams, "_cpu_count", lambda: 8)
    stream = new_stream(4)
    stream.draw(5)
    before = stream.counter, stream.ledger.snapshot()

    def fail_late(part, block):
        part.draw(10)
        if block == 2:  # fails after block 4 has failed
            time.sleep(0.05)
        if block in (2, 4):
            raise ValueError(f"block {block}")
        return block

    with pytest.raises(ValueError, match="block 2"):
        run_parts(fail_late, stream, range(6), 60)
    assert (stream.counter, stream.ledger.snapshot()) == before


def test_cli_import_leaves_numpy_random_unloaded():
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))
    # the sampling oracle's thread pool is imported when a profile is sampled
    code = ("import sys, truncmlmc.cli; print('numpy.random' in sys.modules, "
            "'concurrent.futures' in sys.modules)")
    result = subprocess.run([sys.executable, "-c", code], env=env,
                            capture_output=True, text=True, check=True)
    assert result.stdout.strip() == "False False"
