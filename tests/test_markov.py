import dataclasses
import importlib.util
import itertools
import math
import sys
import tracemalloc
import warnings
from pathlib import Path

import numpy as np
import pytest

from scalar_oracles import (coupled_level_pair, eval_point,
                            independent_restart_payoffs, prefix_redraw_payoff,
                            record_level_rows, reference_measure_decay,
                            simulate_chain, simulate_restart, truncation_dimension)
from truncmlmc import anova, markov, mlmc, streams
from truncmlmc.anova import NumericalFailure
from truncmlmc import (ChainModel, CostLedger, chain_integrand, drift_integral,
                       estimate_chain_mlmc, make_lindley, markov_schedule,
                       mc_profile, measure_decay, modulated_uniform_increments,
                       new_stream, replicate, standard_mc_chain,
                       uniform_increments)

LINDLEY_MEAN_INCREMENT = -0.1  # uniform(-0.6, 0.4)


def memoryless_chain(d, x0=0.0):
    """State is just the latest innovation; payoff the terminal state."""
    return ChainModel(horizon=d, initial_state=x0, increment=lambda t, y: y,
                      step=lambda t, x, z: np.copyto(x, z), payoff=lambda x: x)


def test_lindley_one_step_hand_values():
    m = make_lindley(1)
    assert simulate_restart(m, 1, [0.9]) == pytest.approx(0.3)
    assert simulate_restart(m, 1, [0.1]) == pytest.approx(0.0)


def test_constant_increment_chains():
    zero = make_lindley(5, zeta=lambda i, y: 0.0 * y)
    path = simulate_chain(zero, new_stream(1))
    assert np.all(path.states == 0.0)
    down = make_lindley(5, zeta=lambda i, y: -1.0 + 0.0 * y)
    assert simulate_chain(down, new_stream(1)).payoff == 0.0
    up = make_lindley(5, zeta=lambda i, y: 1.0 + 0.0 * y)
    assert simulate_chain(up, new_stream(1)).payoff == pytest.approx(5.0)


def test_trajectory_shape_and_costs():
    m = make_lindley(7)
    ledger = CostLedger()
    stream = new_stream(2, ledger)
    path = simulate_chain(m, stream)
    assert path.states.shape == (8,)
    assert path.states[0] == 0.0
    assert path.uniforms.shape == (7,)
    assert ledger.snapshot() == (7, 7, 1)


def test_restart_with_all_innovations_reproduces_chain():
    m = make_lindley(20)
    path = simulate_chain(m, new_stream(3))
    assert simulate_restart(m, 20, path.uniforms) == path.payoff


def test_restart_depth_zero_and_validation():
    m = make_lindley(4)
    ledger = CostLedger()
    assert simulate_restart(m, 0, [], ledger) == 0.0
    assert ledger.step_applications == 0
    with pytest.raises(ValueError):
        simulate_restart(m, 2, [0.5])
    with pytest.raises(ValueError):
        simulate_restart(m, 5, np.zeros(5))


def test_coupled_pair_hand_formula():
    # depth 2 vs depth 1 on the waiting-time recursion from an empty queue
    m = make_lindley(2)
    stream = new_stream(4)
    y0, y1 = new_stream(4).draw(2)
    zeta = uniform_increments()
    hi = max(max(0.0 + zeta(0, y0), 0.0) + zeta(1, y1), 0.0)
    lo = max(0.0 + zeta(1, y1), 0.0)
    assert coupled_level_pair(m, 2, 1, stream) == pytest.approx(hi - lo)


def test_coupled_pair_depth_zero_convention():
    m = make_lindley(3)
    value = coupled_level_pair(m, 2, 0, new_stream(5))
    check = new_stream(5)
    ys = check.draw(2)
    assert value == simulate_restart(m, 2, ys)
    with pytest.raises(ValueError):
        coupled_level_pair(m, 2, 2, new_stream(5))


def test_state_forgetting_chain_collapses_deep_levels():
    m = memoryless_chain(16)
    for m_hi, m_lo in ((4, 1), (8, 3), (16, 8)):
        assert coupled_level_pair(m, m_hi, m_lo, new_stream(6)) == 0.0


LINDLEY_MODELS = {"uniform": make_lindley,
                  "time-varying": lambda d: make_lindley(
                      d, modulated_uniform_increments(d))}


def time_indexed_lindley(d):
    """The Lindley chain whose step weights each increment by its time index."""
    def step(t, x, z):
        x += (t + 1.0) * z

    return dataclasses.replace(make_lindley(d), step=step)


def test_chain_levels_match_scalar_coupled_pairs(monkeypatch):
    _check_levels_match_scalar_coupled_pairs(make_lindley(16), monkeypatch)


def test_time_varying_chain_levels_match_scalar_coupled_pairs(monkeypatch):
    _check_levels_match_scalar_coupled_pairs(LINDLEY_MODELS["time-varying"](16),
                                             monkeypatch)


def test_time_indexed_step_levels_match_scalar_coupled_pairs(monkeypatch):
    # both package models' steps ignore t; this one weights each increment by
    # its time index and never forgets it, so a restart stepped at the wrong
    # time indices pays other bits
    _check_levels_match_scalar_coupled_pairs(time_indexed_lindley(16), monkeypatch)


def _check_levels_match_scalar_coupled_pairs(model, monkeypatch):
    # row j of level k holds n_k coupled increments drawn in turn from
    # stream j's fork k; a budget of 20 runs the 5 streams in chunks of 3
    # and 2 and levels 3 and 4 in batches of 2 and of 1, and each row is
    # gathered by its stream from whichever batch sampled it
    schedule = markov_schedule(16, -2.0)
    rows, sizes = record_level_rows(markov, monkeypatch)
    monkeypatch.setattr(mlmc, "_CHUNK_ELEMENTS", 20)
    root = new_stream(19)
    rec = estimate_chain_mlmc(model, -2.0, [root.fork(j) for j in range(5)])
    assert sizes == {1: [3, 2], 2: [3, 2], 3: [2, 1, 2], 4: [1] * 5}, sizes
    for j in range(5):
        value = 0.0
        for k in range(schedule.levels):
            stream = new_stream(19).fork(j).fork(k + 1)
            pairs = np.array([coupled_level_pair(model, schedule.m[k + 1],
                                                 schedule.m[k], stream)
                              for _ in range(schedule.n[k])])
            assert np.array_equal(rows[k + 1, j], pairs), (j, k)
            assert rec.level_sum[j, k] == pairs.sum()
            assert rec.level_sq[j, k] == np.dot(pairs, pairs)
            value += float(pairs.mean())
        assert rec.values[j] == value


def counting_model(model, calls):
    """``model`` whose step records the time index and the state shape of
    each call in ``calls``."""
    def step(t, x, z):
        calls.append((t, x.shape))
        model.step(t, x, z)

    return dataclasses.replace(model, step=step)


# nonincreasing depths at d = 12: one restart, the full chain, repeats, 0
KERNEL_DEPTHS = [(0,), (12,), (12, 12), (12, 5, 5, 0), (7, 3, 3, 1, 0, 0), (12, 11, 0)]
KERNEL_MODELS = {"uniform": make_lindley, "time-varying": LINDLEY_MODELS["time-varying"],
                 "time-indexed": time_indexed_lindley}


@pytest.mark.parametrize("build", list(KERNEL_MODELS.values()), ids=list(KERNEL_MODELS))
@pytest.mark.parametrize("depths", KERNEL_DEPTHS, ids=str)
def test_kernel_matches_independent_restarts(depths, build):
    # the restarts stacked in one state array pay the bits of each restart
    # stepped on its own; a row array and a generator of rows give the same,
    # the generator pulled once per step, and each step is one call on the
    # restarts started by then
    d, paths = 12, 9
    calls = []
    model = counting_model(build(d), calls)
    z = model.increment(np.arange(d)[d - depths[0]:, None],
                        new_stream(41).draw_matrix(depths[0], paths))
    expected = independent_restart_payoffs(build(d), depths, z)
    pulled = []

    def rows():
        for row in z:
            pulled.append(row)
            yield row
        raise AssertionError("a row past the horizon was pulled")

    for increments in (z, rows()):
        calls.clear()
        got = markov._restart_payoffs(model, depths, increments, paths)
        assert np.array_equal(got, expected), (depths, increments)
        assert calls == [(t, (sum(i >= d - t for i in depths), paths))
                         for t in range(d - depths[0], d)]
    assert len(pulled) == depths[0]


def test_kernel_books_its_steps_and_payoffs():
    model, paths = make_lindley(12), 9
    for depths in KERNEL_DEPTHS:
        ledger = CostLedger()
        markov._restart_payoffs(model, depths, np.zeros((depths[0], paths)), paths, ledger)
        assert ledger.snapshot() == (0, paths * sum(depths), paths * len(depths)), depths
    # the chain integrand's evaluations are booked once, by eval_batch
    ledger = CostLedger()
    chain_integrand(model).eval_batch(np.full((10, 12), 0.5), ledger)
    assert ledger.snapshot() == (0, 120, 10)


def test_level_batches_make_one_step_call_per_time_step():
    # one replication runs each level in one batch: m_hi calls, the coarse
    # restart stacked on the fine one for the last m_lo of them
    d = 64
    calls = []
    estimate_chain_mlmc(counting_model(make_lindley(d), calls), -2.0, new_stream(3))
    schedule = markov_schedule(d, -2.0)
    expected = [(t, (1 + (m_lo > 0 and t >= d - m_lo), n_l))
                for n_l, m_lo, m_hi in zip(schedule.n, schedule.m, schedule.m[1:])
                for t in range(d - m_hi, d)]
    assert calls == expected


def test_plain_chain_mc_batches_make_one_step_call_per_time_step(monkeypatch):
    # a budget of 7 runs 5 replications of n = 3 paths in batches of 2, 2, 1
    monkeypatch.setattr(mlmc, "_CHUNK_ELEMENTS", 7)
    d, calls = 8, []
    root = new_stream(95)
    standard_mc_chain(counting_model(make_lindley(d), calls), 3,
                      [root.fork(j) for j in range(5)])
    assert calls == [(t, (1, rows)) for rows in (6, 6, 3) for t in range(d)]


@pytest.mark.parametrize("workers", [1, 2])
def test_decay_blocks_make_one_step_call_per_time_step(workers, monkeypatch):
    # d calls per block, not one per chain and step (380 per block here)
    monkeypatch.setattr(mlmc, "_CHUNK_ELEMENTS", 100)
    monkeypatch.setattr(streams, "_cpu_count", lambda: workers)
    d, depths, n = 256, (4, 8, 16, 32, 64), 1_000
    calls = []
    measure_decay(counting_model(make_lindley(d), calls), depths, n, new_stream(5))
    blocks = streams.pool_blocks(n, 100)
    expected = [(t, (1 + sum(i >= d - t for i in depths), stop - start))
                for start, stop in blocks for t in range(d)]
    assert len(calls) == d * len(blocks)
    assert sorted(calls) == sorted(expected)


def test_markov_schedule_examples():
    s = markov_schedule(64, -2.0)
    assert s.n == (23, 8, 3, 1, 1, 1)
    assert s.m == (0, 1, 3, 7, 15, 31, 64)
    s = markov_schedule(4, -3.0)
    assert s.n == (1, 1)
    assert s.m == (0, 1, 4)
    with pytest.raises(ValueError):
        markov_schedule(4, -1.0)
    with pytest.raises(ValueError):
        markov_schedule(4, -0.5)


def test_chain_mlmc_cost_identity():
    d = 64
    schedule = markov_schedule(d, -2.0)
    ledger = CostLedger()
    rec = estimate_chain_mlmc(make_lindley(d), -2.0, [new_stream(7, ledger)])
    draw_units, step_units, eval_units = rec.costs
    expected_steps = sum(nl * (hi + lo) for nl, hi, lo
                         in zip(schedule.n, schedule.m[1:], schedule.m[:-1]))
    assert step_units == expected_steps
    assert draw_units == sum(nl * hi for nl, hi in zip(schedule.n, schedule.m[1:]))
    assert eval_units == schedule.n[0] + 2 * sum(schedule.n[1:])


def test_chain_mlmc_level_zero_is_constant_zero():
    # nonzero initial payoff must not leak into the telescope
    d = 8
    m = memoryless_chain(d, x0=0.7)
    summary = replicate(lambda s: estimate_chain_mlmc(m, -2.0, s), 4000, new_stream(8))
    se = math.sqrt(summary.sample_variance / summary.replications)
    assert abs(summary.mean - 0.5) < 4 * se


def test_chain_mlmc_unbiased_against_reference():
    d = 16
    model = make_lindley(d)
    # reference mean from 200k independent paths, SE from the chunk means
    reference = replicate(lambda s: standard_mc_chain(model, 2000, s), 100,
                          new_stream(900))
    summary = replicate(lambda s: estimate_chain_mlmc(model, -2.0, s), 4000,
                        new_stream(901))
    se = math.sqrt(summary.sample_variance / summary.replications
                   + reference.sample_variance / reference.replications)
    assert abs(summary.mean - reference.mean) < 4 * se


def test_chain_mlmc_variance_identity():
    d = 16
    model = make_lindley(d)
    schedule = markov_schedule(d, -2.0)
    summary = replicate(lambda s: estimate_chain_mlmc(model, -2.0, s), 5000,
                        new_stream(903))
    from truncmlmc import predicted_variance
    predicted = predicted_variance(summary, schedule)
    se = summary.sample_variance * math.sqrt(2 / (summary.replications - 1))
    assert abs(summary.sample_variance - predicted) < 4 * se


def test_standard_mc_chain_costs():
    ledger = CostLedger()
    rec = standard_mc_chain(make_lindley(6), 50, [new_stream(10, ledger)])
    assert ledger.snapshot() == (300, 300, 50)
    assert rec.costs.sum() == 650


@pytest.mark.parametrize("build", [LINDLEY_MODELS["time-varying"], time_indexed_lindley],
                         ids=["time-varying", "time-indexed"])
def test_chain_mc_matches_scalar_paths(build, monkeypatch):
    # a budget of 7 runs n = 1 path of width 1 in one chunk of 5 replications
    # and n = 3 in chunks of 2; stream j draws its n innovations of step t
    # when the step runs, so path p of replication j steps at time t on
    # uniform t·n + p of its stream
    d, reps = 8, 5
    model = build(d)
    zeta = model.increment

    def increment(t, y):
        # the increment map's contract: one time index per row of y
        assert np.shape(t) == (len(y), 1), (np.shape(t), np.shape(y))
        return zeta(t, y)

    model = dataclasses.replace(model, increment=increment)
    rows, sizes = record_level_rows(markov, monkeypatch)
    monkeypatch.setattr(mlmc, "_CHUNK_ELEMENTS", 7)
    for n, batches in ((1, [5]), (3, [2, 2, 1])):
        sizes.clear()
        root = new_stream(95)
        rec = standard_mc_chain(model, n, [root.fork(j) for j in range(reps)])
        assert sizes == {1: batches}, (n, sizes)
        assert rec.level_sum is None and rec.costs.tolist() == [d * n, d * n, n]
        for j in range(reps):
            u = new_stream(95).fork(j).draw(d * n).reshape(d, n)
            pays = np.array([simulate_restart(model, d, u[:, p]) for p in range(n)])
            assert np.array_equal(rows[1, j], pays), (n, j)
            assert rec.values[j] == pays.mean(), (n, j)


def test_plain_estimators_need_a_sample():
    f = chain_integrand(make_lindley(4))
    with pytest.raises(ValueError, match="^path count must be positive$"):
        standard_mc_chain(make_lindley(4), 0, new_stream(1))
    with pytest.raises(ValueError, match="^sample count must be positive$"):
        mlmc.standard_mc(f, 0, new_stream(1))


def test_measure_decay_endpoints_and_monotonicity():
    d = 64
    report = measure_decay(make_lindley(d), [0, 4, 8, 16, 32, 64], 20_000,
                           new_stream(11))
    assert report.msd[-1] == 0.0
    assert np.all(report.msd[:-1] > 0.0)
    # geometric forgetting: estimates decrease beyond the first couple of depths
    assert report.msd[1] > report.msd[3] > report.msd[4]


def test_measure_decay_memoryless_chain():
    report = measure_decay(memoryless_chain(10), [1, 2, 5, 10], 1_000, new_stream(12))
    assert np.all(report.msd == 0.0)


def test_measure_decay_rejects_repeated_depths():
    # a repeated depth would repeat its report row and count twice in the fits
    with pytest.raises(ValueError, match="repeat"):
        measure_decay(make_lindley(16), [4, 8, 4], 100, new_stream(14))


@pytest.mark.parametrize("depths, n, match", [
    ([4], 1, "at least 2 coupled paths"),
    ([-1, 4], 100, r"must lie in \[0, 16\]"),
    ([4, 17], 100, r"must lie in \[0, 16\]"),
], ids=["one-path", "negative-depth", "depth-past-horizon"])
def test_measure_decay_rejects_bad_arguments(depths, n, match):
    with pytest.raises(ValueError, match=match):
        measure_decay(make_lindley(16), depths, n, new_stream(14))


def test_measure_decay_runs_on_two_paths():
    # the fewest that give a standard error
    report = measure_decay(make_lindley(16), [0, 16], 2, new_stream(14))
    assert np.isfinite(report.msd).all() and np.isfinite(report.se).all()
    assert report.msd[1] == report.se[1] == 0.0


def test_measure_decay_computes_each_step_increments_once(monkeypatch):
    # each block computes one time index's increments per step, shared by the
    # full chain and every restart
    monkeypatch.setattr(mlmc, "_CHUNK_ELEMENTS", 100)
    lindley = LINDLEY_MODELS["time-varying"](16)
    computed = []

    def increment(t, y):
        z = lindley.increment(t, y)
        computed.append(z.size)
        return z

    model = dataclasses.replace(lindley, increment=increment)
    measure_decay(model, (0, 4, 16), 1_000, new_stream(15))
    assert sum(computed) == 16 * 1_000


def test_measure_decay_geometric_fit():
    report = measure_decay(make_lindley(128), [4, 8, 16, 32, 64], 60_000,
                           new_stream(13))
    assert report.geom_kappa < 1.0
    assert report.geom_r2 > 0.9
    assert report.fitted_c_prime > 0.0


def _bench_workloads():
    """The benchmark's closed forms, loaded from bench/workloads.py."""
    path = Path(__file__).resolve().parents[1] / "bench" / "workloads.py"
    spec = importlib.util.spec_from_file_location("bench_workloads", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


DECAY_DEPTHS = (0, 3, 8, 31, 32)
# block budget and path count: one-path blocks, then several default blocks
# per thread count, then one block
DECAY_BLOCKS = {"one-path": (0, 301), "default": (mlmc._CHUNK_ELEMENTS, 40_001),
                "unbounded": (2 ** 62, 40_001)}


def _decay_and_units(measure, increments, n):
    stream = new_stream(17).fork(4)
    stream.draw(5)  # an offset into the stream that is not a Philox block
    before = stream.ledger.snapshot()
    report = measure(LINDLEY_MODELS[increments](32), DECAY_DEPTHS, n, stream)
    units = tuple(b - a for a, b in zip(before, stream.ledger.snapshot()))
    return report, units, stream.counter


@pytest.fixture(scope="module")
def reference_decay():
    return {(increments, n): _decay_and_units(reference_measure_decay, increments, n)
            for increments in LINDLEY_MODELS
            for n in {n for _, n in DECAY_BLOCKS.values()}}


@pytest.mark.parametrize("blocks", sorted(DECAY_BLOCKS))
@pytest.mark.parametrize("workers", [1, 2, 8])
def test_measure_decay_matches_serial_reference(workers, blocks, reference_decay,
                                                monkeypatch):
    _check_decay_matches_serial_reference("uniform", workers, blocks,
                                          reference_decay, monkeypatch)


@pytest.mark.parametrize("blocks", sorted(DECAY_BLOCKS))
@pytest.mark.parametrize("workers", [1, 2, 8])
def test_time_varying_decay_matches_serial_reference(workers, blocks, reference_decay,
                                                     monkeypatch):
    _check_decay_matches_serial_reference("time-varying", workers, blocks,
                                          reference_decay, monkeypatch)


def _check_decay_matches_serial_reference(increments, workers, blocks,
                                          reference_decay, monkeypatch):
    budget, n = DECAY_BLOCKS[blocks]
    monkeypatch.setattr(mlmc, "_CHUNK_ELEMENTS", budget)
    monkeypatch.setattr(streams, "_cpu_count", lambda: workers)
    interval = sys.getswitchinterval()
    if workers == 8:  # more threads than cores, switching often
        sys.setswitchinterval(1e-6)
    try:
        got, units, counter = _decay_and_units(measure_decay, increments, n)
    finally:
        sys.setswitchinterval(interval)
    expected, expected_units, expected_counter = reference_decay[increments, n]
    assert got.i_values == expected.i_values == DECAY_DEPTHS
    for field in ("msd", "se"):
        assert np.array_equal(getattr(got, field), getattr(expected, field)), field
    for field in ("fitted_gamma", "fitted_c_prime", "power_r2", "geom_kappa",
                  "geom_theta", "geom_r2"):
        assert getattr(got, field) == getattr(expected, field), field
    assert counter == expected_counter == 5 + 32 * n
    assert units == expected_units
    assert sum(units) == _bench_workloads().decay_units(32, DECAY_DEPTHS, n)


class _StepFault(RuntimeError):
    pass


@pytest.mark.parametrize("workers", [1, 8])
def test_measure_decay_raises_the_step_error(workers, monkeypatch):
    # several blocks per thread; the fault strikes partway through one of them
    monkeypatch.setattr(mlmc, "_CHUNK_ELEMENTS", 100)
    monkeypatch.setattr(streams, "_cpu_count", lambda: workers)
    calls = itertools.count()
    lindley = make_lindley(16)

    def step(t, x, z):
        if next(calls) == 50:
            raise _StepFault("fifty-first step")
        lindley.step(t, x, z)

    model = dataclasses.replace(lindley, step=step)
    with pytest.raises(_StepFault, match="fifty-first step"):
        measure_decay(model, (2, 4), 1_000, new_stream(3))


def test_measure_decay_pool_threads_keep_the_error_state(monkeypatch):
    monkeypatch.setattr(mlmc, "_CHUNK_ELEMENTS", 100)
    monkeypatch.setattr(streams, "_cpu_count", lambda: 8)

    def step(t, x, z):
        np.multiply(x, z, out=x)
        np.multiply(x, 1e10, out=x)

    model = ChainModel(horizon=8, initial_state=1e300, increment=lambda t, y: 1.0 + y,
                       step=step, payoff=lambda x: x)
    with np.errstate(over="raise"):
        with pytest.raises(FloatingPointError, match="overflow"):
            measure_decay(model, (2, 4), 1_000, new_stream(4))
    with warnings.catch_warnings(record=True) as caught, np.errstate(all="ignore"):
        warnings.simplefilter("always")
        with pytest.raises(NumericalFailure, match="non-finite"):
            measure_decay(model, (2, 4), 1_000, new_stream(4))
    assert not [w for w in caught if issubclass(w.category, RuntimeWarning)], caught


# A block holds the full chain, its restarts, a draw and its increments, one
# element per path each; the step makes no temporaries, and at the end the
# gaps are squared in place in the gap array: about 6 arrays of a block's
# paths.  The whole gap array is then reduced in place, in one call of
# anova._centred_squares.
DECAY_BLOCK_BUDGETS = 10


@pytest.mark.parametrize("workers", [1, 2, 8])
def test_measure_decay_memory_is_the_gap_array_and_blocks_per_worker(workers,
                                                                      monkeypatch):
    monkeypatch.setattr(streams, "_cpu_count", lambda: workers)
    model, depths, n = make_lindley(256), (4, 8, 16, 32, 64), 100_000
    measure_decay(model, depths, 1_000, new_stream(1))  # per-thread set-up
    tracemalloc.start()
    try:
        measure_decay(model, depths, n, new_stream(1))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    gaps = len(depths) * n * 8
    blocks = len(streams.pool_blocks(n, mlmc._CHUNK_ELEMENTS))
    budget = 8 * mlmc._CHUNK_ELEMENTS
    assert peak < gaps + min(workers, blocks) * DECAY_BLOCK_BUDGETS * budget, (peak, gaps)


@pytest.mark.parametrize("values, bound", [
    (np.array([0.25, 3.0]), 1_000),
    (np.random.default_rng(5).random(10_001) ** 4, 1_000),
    (1e8 + np.random.default_rng(6).random(1_001), 1_000),
    (np.full(7, 0.3), 1_000),
    # the decay's gap array: every row at once, within one row's bytes
    (np.random.default_rng(7).random((5, 40_001)) ** 4, 8 * 40_001),
], ids=["two", "odd", "offset", "equal", "block"])
def test_mean_and_se_is_mean_and_std_in_place(values, bound):
    # the mean and standard error that measure_decay makes of the helper's
    # sums equal each row's mean and std(ddof=1) / sqrt(n), bit for bit
    n = values.shape[-1]
    rows = values.reshape(-1, n)
    expected = [(row.mean(), row.std(ddof=1) / math.sqrt(n)) for row in rows]
    # numpy caches a small buffer at its first in-place multiply
    anova._centred_squares(values.copy())
    work = values.copy()
    tracemalloc.start()
    try:
        sums, m2 = anova._centred_squares(work)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    got = list(zip(np.reshape(sums / n, -1).tolist(),
                   np.reshape(np.sqrt(m2 / (n - 1)) / math.sqrt(n), -1).tolist()))
    assert got == expected and all(se >= 0.0 for _, se in got)
    np.testing.assert_array_equal(
        work, np.stack([(row - mean) ** 2 for row, (mean, _) in zip(rows, expected)])
        .reshape(values.shape))
    assert peak < bound, peak  # no temporary of the size of the values


def test_prefix_redraw_costs_and_endpoints():
    d = 12
    model = make_lindley(d)
    ledger = CostLedger()
    stream = new_stream(14, ledger)
    path = simulate_chain(model, stream)
    before = ledger.snapshot()
    assert prefix_redraw_payoff(model, path, 0, stream) == path.payoff
    assert ledger.snapshot() == before
    for i in (1, 5, d):
        before = ledger.snapshot()
        prefix_redraw_payoff(model, path, i, stream)
        delta = tuple(a - b for a, b in zip(ledger.snapshot(), before))
        assert delta == (i, i, 1)
    with pytest.raises(ValueError):
        prefix_redraw_payoff(model, path, d + 1, stream)


def test_prefix_redraw_full_depth_is_fresh_simulation():
    model = make_lindley(5)
    stream = new_stream(15)
    path = simulate_chain(model, stream)
    value = prefix_redraw_payoff(model, path, 5, stream)
    # same stream position as the redraw used
    replay = new_stream(15)
    replay.draw(5)
    assert value == simulate_restart(model, 5, replay.draw(5))


def test_drift_integral_values():
    zeta = uniform_increments()
    closed_form = (math.exp(0.4) - math.exp(-0.6)) / 1.0
    assert drift_integral(lambda y: zeta(0, y), 1.0) == pytest.approx(closed_form, abs=1e-9)
    assert drift_integral(lambda y: 0.0 * y, 1.0) == pytest.approx(1.0, abs=1e-12)
    assert drift_integral(lambda y: -1.0 + 0.0 * y, 1.0) == pytest.approx(math.exp(-1), abs=1e-12)
    with pytest.raises(ValueError):
        drift_integral(lambda y: y, 0.0)
    with pytest.raises(ValueError):
        drift_integral(lambda y: np.where(y > 0.5, np.inf, 0.0), 1.0)


def test_modulated_increments_keep_drift_condition():
    d = 32
    zeta = modulated_uniform_increments(d)
    integrals = [drift_integral(lambda y, i=i: zeta(i, y), 1.0) for i in range(d)]
    assert max(integrals) < 1.0
    # genuinely time varying
    assert max(integrals) - min(integrals) > 1e-3


@pytest.mark.parametrize("time_varying", [False, True])
@pytest.mark.parametrize("a,b", [(-0.6, 0.4), (-0.7, 0.5)])
def test_increment_block_matches_each_time_row(time_varying, a, b):
    # the block form keeps the bits of (a - s) + ((b + s) - (a - s))·y with
    # s = 0 or the time-varying shift in Python floats, applied one time
    # index and one row at a time
    d = 24
    zeta = (modulated_uniform_increments(d, a, b) if time_varying
            else uniform_increments(a, b))
    times = np.arange(d)[:, None]
    y = new_stream(20).draw_matrix(d, 50)
    block = zeta(times, y)
    assert block.shape == y.shape
    for t in range(d):
        s = 0.1 * math.sin(2.0 * math.pi * t / d) if time_varying else 0.0
        expected = (a - s) + ((b + s) - (a - s)) * y[t]
        assert np.array_equal(block[t], expected), t
        assert np.array_equal(block[t], zeta(times[t:t + 1], y[t:t + 1])[0]), t


def test_chain_integrand_reindexes_innovations():
    d = 3
    model = make_lindley(d)
    f = chain_integrand(model)
    u = np.array([0.9, 0.2, 0.7])
    # coordinate k is the innovation k steps before the end
    assert eval_point(f, u) == pytest.approx(simulate_restart(model, d, u[::-1]))
    ledger = CostLedger()
    f.eval_batch(np.full((10, 3), 0.5), ledger)
    assert ledger.payoff_evals == 10
    assert ledger.step_applications == 30


def test_chain_integrand_profile_is_effectively_low_dimensional():
    d = 8
    profile = mc_profile(chain_integrand(make_lindley(d)), 20_000, new_stream(16))
    assert 1.0 <= truncation_dimension(profile) <= d
    # forgetting makes the deep residuals small relative to the variance
    assert profile.D[d - 1] < 0.25 * profile.var_f


def test_truncation_mass_bounded_by_fitted_decay():
    # the decay constants are horizon-independent, so fit them where the decay
    # is visible (long horizon) and bound the oracle-feasible short-horizon
    # truncation mass: d_t * var <= c' * gamma / (gamma + 1)
    report = measure_decay(make_lindley(256), [4, 8, 16, 32, 64], 60_000,
                           new_stream(17))
    assert report.fitted_gamma < -1.0
    bound = report.fitted_c_prime * report.fitted_gamma / (report.fitted_gamma + 1.0)
    profile = mc_profile(chain_integrand(make_lindley(8)), 40_000, new_stream(18))
    mass = profile.D.sum()
    mass_se = float(np.sqrt(np.sum(profile.se ** 2)))
    assert mass <= bound + 4 * mass_se, (mass, bound)
