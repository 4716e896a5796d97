import math
import re
import tracemalloc
from functools import partial

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from scalar_oracles import HybridPoint, eval_hybrid, eval_point, record_level_rows
from truncmlmc import mlmc
from truncmlmc import (CostLedger, EstimateRecord, Integrand, LevelSchedule,
                       analytic_profile, check_level_budget_bound,
                       estimate_mlmc, estimate_mlmc_fixed, geometric_coefficients,
                       level_variance_estimates, make_additive, make_product,
                       new_stream, predicted_variance, replicate,
                       samples_needed, standard_mc, summarize, total_budget,
                       truncation_schedule, work_normalized_variance)
from truncmlmc.markov import estimate_chain_mlmc, make_lindley, standard_mc_chain
from truncmlmc.runner import run_estimator_cell, run_markov_cell


def record(values, draw_units):
    """Hand-made replications, one per value, each of which drew
    ``draw_units`` uniforms."""
    return EstimateRecord(values=np.array(values, dtype=float),
                          costs=np.array([draw_units, 0, 0]))


def test_schedule_examples():
    s8 = truncation_schedule(8)
    assert s8.m == (0, 1, 3, 8)
    assert s8.n == (2, 1, 1)
    s2 = truncation_schedule(2)
    assert s2.m == (0, 2)
    assert s2.n == (1,)
    s1000 = truncation_schedule(1000)
    assert s1000.levels == 10
    assert s1000.m[1] == 1 and s1000.m[9] == 511 and s1000.m[10] == 1000
    assert s1000.n[0] == 50


def test_schedule_rejects_one_dimension():
    with pytest.raises(ValueError):
        truncation_schedule(1)


@given(st.integers(min_value=2, max_value=5000))
@settings(max_examples=80, deadline=None)
def test_schedule_shape_properties(d):
    s = truncation_schedule(d)
    assert s.m[0] == 0 and s.m[-1] == d
    assert all(b > a for a, b in zip(s.m, s.m[1:]))
    assert all(nl >= 1 for nl in s.n)
    assert s.levels == math.ceil(math.log2(d))
    assert all(s.m[l] == 2 ** l - 1 for l in range(1, s.levels))
    # exact integer ceiling of (d / L) 2^-l
    for l, nl in enumerate(s.n, start=1):
        assert nl == math.ceil(d / (s.levels * 2 ** l))


def test_level_schedule_validation():
    with pytest.raises(ValueError):
        LevelSchedule(m=(1, 2), n=(1,))
    with pytest.raises(ValueError):
        LevelSchedule(m=(0, 2, 2), n=(1, 1))
    with pytest.raises(ValueError):
        LevelSchedule(m=(0, 2), n=(1, 1))
    with pytest.raises(ValueError):
        LevelSchedule(m=(0, 2), n=(0,))


@pytest.mark.parametrize("d", [2, 4, 16, 100, 256])
def test_mlmc_draw_cost_is_exact_and_bounded(d):
    f = make_additive(geometric_coefficients(d))
    schedule = truncation_schedule(d)
    rec = estimate_mlmc(f, schedule, [new_stream(13)])
    draw_units, step_units, eval_units = rec.costs
    expected_draws = d + sum(nl * ml for nl, ml in zip(schedule.n, schedule.m[1:]))
    assert draw_units == expected_draws
    assert draw_units <= 9 * d
    expected_evals = 1 + schedule.n[0] + 2 * sum(schedule.n[1:])
    assert eval_units == expected_evals
    assert rec.costs.sum() == draw_units + eval_units


def test_mlmc_charges_base_payoff_without_evaluating_it():
    d = 16
    f = make_additive(geometric_coefficients(d))
    rows = []

    def evaluator(points):
        rows.append(points.shape[0])
        return f.evaluator(points)

    counted = Integrand(dimension=d, evaluator=evaluator, steps_per_eval=3)
    schedule = truncation_schedule(d)
    rec = estimate_mlmc(counted, schedule, [new_stream(13)])
    _, step_units, eval_units = rec.costs
    assert sum(rows) == schedule.n[0] + 2 * sum(schedule.n[1:])
    assert eval_units == 1 + sum(rows)
    assert step_units == 3 * eval_units
    assert rec.values[0] == estimate_mlmc(f, schedule, [new_stream(13)]).values[0]


def test_mlmc_fixed_cost_excludes_base_point():
    d = 16
    f = make_additive(geometric_coefficients(d))
    schedule = truncation_schedule(d)
    rec = estimate_mlmc_fixed(f, np.full(d, 0.5), schedule, [new_stream(13)])
    draw_units, _, eval_units = rec.costs
    assert draw_units == sum(nl * ml for nl, ml in zip(schedule.n, schedule.m[1:]))
    assert eval_units == schedule.n[0] + 2 * sum(schedule.n[1:])


def test_single_level_schedule_averages_full_evaluations():
    # with one level the estimator is a plain average and the base point is unused
    f = make_product([1.0, 1.0])
    schedule = truncation_schedule(2)
    a = estimate_mlmc_fixed(f, [0.0, 0.0], schedule, [new_stream(5)])
    b = estimate_mlmc_fixed(f, [0.9, 0.9], schedule, [new_stream(5)])
    assert a.values[0] == b.values[0]
    # plain MC is that one level (0, d) at any base point, bit for bit
    d, n = 5, 7
    f = make_product(geometric_coefficients(d))
    forks = lambda root: [root.fork(j) for j in range(3)]
    plain = standard_mc(f, n, forks(new_stream(5)))
    for v in (np.zeros(d), np.linspace(0.1, 0.9, d)):
        level = estimate_mlmc_fixed(f, v, LevelSchedule((0, d), (n,)), forks(new_stream(5)))
        assert np.array_equal(plain.values, level.values)
        assert np.array_equal(plain.costs, level.costs)


def test_level_telescoping_degeneracy():
    # integrand ignores everything past the first coordinate: all increments
    # with a nonempty coarse prefix vanish identically
    d = 8
    f = make_additive([1.0] + [0.0] * (d - 1))
    rec = estimate_mlmc(f, truncation_schedule(d), [new_stream(17)])
    assert np.all(rec.level_sum[0, 1:] == 0.0)
    assert np.all(rec.level_sq[0, 1:] == 0.0)


@pytest.mark.parametrize("column", [0, -1])
def test_cube_estimators_allow_evaluators_that_return_a_view(column):
    # p[:, column] is a view of the evaluated rows, which the coarse splice
    # rewrites; its copy is not
    d = 8
    view = Integrand(dimension=d, evaluator=lambda p: p[:, column])
    copy = Integrand(dimension=d, evaluator=lambda p: p[:, column].copy())
    schedule = truncation_schedule(d)

    def chunk():
        root = new_stream(19)
        return [root.fork(j) for j in range(50)]

    for estimate in (lambda f, s: estimate_mlmc(f, schedule, s),
                     lambda f, s: estimate_mlmc_fixed(f, np.full(d, 0.5), schedule, s)):
        got, expected = estimate(view, chunk()), estimate(copy, chunk())
        assert np.array_equal(got.values, expected.values)
        assert np.array_equal(got.level_sum, expected.level_sum)
        assert np.array_equal(got.level_sq, expected.level_sq)


@pytest.mark.parametrize("fixed", [False, True], ids=["mlmc", "mlmc-fixed"])
def test_cube_levels_match_scalar_rebuilds(fixed, monkeypatch):
    # a budget of 64 runs d = 16 in chunks of 4 and 2 replications and level
    # 1 (n_1 = 2) in batches of 2; row j of each level is rebuilt point by
    # point from stream j's one draw: the random base point, if any, then
    # each level's prefixes in level order
    d, reps = 16, 6
    f = make_product(geometric_coefficients(d))
    schedule = truncation_schedule(d)
    v = np.linspace(0.05, 0.95, d)
    rows, sizes = record_level_rows(mlmc, monkeypatch)
    monkeypatch.setattr(mlmc, "_CHUNK_ELEMENTS", 64)
    root = new_stream(83)
    streams = [root.fork(j) for j in range(reps)]
    rec = (estimate_mlmc_fixed(f, v, schedule, streams) if fixed
           else estimate_mlmc(f, schedule, streams))
    assert sizes == {1: [2, 2, 2], 2: [4, 2], 3: [4, 2], 4: [4, 2]}, sizes
    draws = sum(n_l * m_l for n_l, m_l in zip(schedule.n, schedule.m[1:]))
    for j in range(reps):
        u = new_stream(83).fork(j).draw(draws if fixed else d + draws)
        base, offset = (v, 0) if fixed else (u[:d], d)
        value = 0.0
        for k in range(schedule.levels):
            n_l, m_lo, m_hi = schedule.n[k], schedule.m[k], schedule.m[k + 1]
            diffs = []
            for _ in range(n_l):
                fresh = np.zeros(d)
                fresh[:m_hi] = u[offset:offset + m_hi]
                offset += m_hi
                fine = eval_hybrid(f, HybridPoint(fresh, base, m_hi))
                diffs.append(fine - eval_hybrid(f, HybridPoint(fresh, base, m_lo))
                             if m_lo else fine)
            diffs = np.array(diffs)
            assert np.array_equal(rows[k + 1, j], diffs), (j, k)
            assert rec.level_sum[j, k] == diffs.sum()
            assert rec.level_sq[j, k] == np.dot(diffs, diffs)
            value += float(diffs.mean())
        assert offset == u.size
        assert rec.values[j] == value


def test_cube_estimators_reject_a_schedule_of_another_dimension():
    # a shorter schedule would splice its last level's prefixes onto a base
    # point that keeps coordinates no level redraws
    f = make_additive(geometric_coefficients(8))
    for estimate in (lambda s: estimate_mlmc(f, truncation_schedule(4), s),
                     lambda s: estimate_mlmc_fixed(f, np.full(8, 0.5),
                                                   truncation_schedule(4), s)):
        with pytest.raises(ValueError, match="schedule dimension must match"):
            estimate(new_stream(1))


def test_mlmc_mean_unbiased_quick():
    f = make_additive([1.0, 1.0])
    schedule = truncation_schedule(2)
    summary = replicate(lambda s: estimate_mlmc(f, schedule, s), 4000, new_stream(23))
    se = math.sqrt(summary.sample_variance / summary.replications)
    assert abs(summary.mean - 0.0) < 4 * se


def test_mlmc_fixed_mean_unbiased_for_corner_base_point():
    f = make_product([1.0, 1.0])
    schedule = truncation_schedule(2)
    summary = replicate(
        lambda s: estimate_mlmc_fixed(f, [0.0, 0.0], schedule, s), 4000, new_stream(29))
    se = math.sqrt(summary.sample_variance / summary.replications)
    assert abs(summary.mean - 1.0) < 4 * se


def test_midpoint_base_point_zeroes_additive_suffix():
    d = 8
    f = make_additive(geometric_coefficients(d))
    schedule = truncation_schedule(d)
    rec = estimate_mlmc_fixed(f, np.full(d, 0.5), schedule, [new_stream(31)])
    # each increment only sees its fresh prefix coordinates; value is a sum of
    # centered prefix averages, so a few thousand replications center on 0
    summary = replicate(
        lambda s: estimate_mlmc_fixed(f, np.full(d, 0.5), schedule, s), 3000,
        new_stream(37))
    se = math.sqrt(summary.sample_variance / summary.replications)
    assert abs(summary.mean) < 4 * se
    assert rec.level_sum is not None


def test_standard_mc_single_sample():
    f = make_additive([1.0, 1.0])
    stream = new_stream(41)
    rec = standard_mc(f, 1, [stream])
    assert rec.costs.sum() == 2 + 1
    assert rec.costs[0] == 2
    check = new_stream(41)
    assert rec.values[0] == eval_point(f, check.draw(2))


def test_standard_mc_mean_and_variance():
    f = make_additive([1.0, 1.0])  # variance 1/6
    rec = standard_mc(f, 10_000, [new_stream(43)])
    assert abs(rec.values[0]) < 4 * math.sqrt((1 / 6) / 10_000)
    summary = replicate(lambda s: standard_mc(f, 1, s), 4000, new_stream(47))
    se = (1 / 6) * math.sqrt(2 / (summary.replications - 1))
    assert abs(summary.sample_variance - 1 / 6) < 4 * se


def booking(draw_units, increment=0.0):
    """A ``prepare`` that books ``draw_units`` uniforms per chunk and whose
    batches return ``increment`` for every row, whatever their streams."""
    def prepare(chunk):
        chunk[0].ledger.coordinate_draws += draw_units
        return lambda level, n_l, m_lo, m_hi, rows: np.full(
            (rows.stop - rows.start, n_l), increment)
    return prepare


def one_level(prepare, streams, width=1, n=1):
    """The engine on the one-level schedule of n increments at prefix length
    1, each replication ``width`` elements wide."""
    return mlmc._telescope(LevelSchedule((0, 1), (n,)), lambda m: width, prepare,
                           streams)


def forks(reps, seed=1):
    root = new_stream(seed)
    return [root.fork(j) for j in range(reps)]


def test_replicate_constant_closure():
    # a width of the whole budget runs one replication per chunk, as the
    # closure returns
    summary = summarize(one_level(booking(5, 3.0), forks(2), mlmc._CHUNK_ELEMENTS))
    assert summary.mean == 3.0
    assert summary.sample_variance == 0.0
    assert summary.mean_cost == 5.0


def test_summary_mean_matches_recorded_values():
    f = make_product([0.5, 0.5, 0.5])
    schedule = truncation_schedule(3)
    root = new_stream(53)
    rec = estimate_mlmc(f, schedule, [root.fork(j) for j in range(100)])
    summary = summarize(rec)
    values = rec.values
    assert summary.mean == pytest.approx(values.mean(), rel=1e-12)
    assert summary.sample_variance == pytest.approx(values.var(ddof=1), rel=1e-12)


def test_replicate_runs_full_chunks_from_the_first(monkeypatch):
    # a width of 2 against a budget of 12 gives chunks of 6 replications
    monkeypatch.setattr(mlmc, "_CHUNK_ELEMENTS", 12)
    for reps in (2, 6, 7, 40):
        chunks = []

        def prepare(chunk):
            chunks.append(len(chunk))
            return booking(0)(chunk)

        one_level(prepare, forks(reps, 3), 2)
        assert len(chunks) == math.ceil(reps / 6), (reps, chunks)
        assert chunks == [min(6, reps - start) for start in range(0, reps, 6)]


def test_replicate_requires_two():
    for reps in (1, 0):
        with pytest.raises(ValueError, match="^need at least 2 replications$"):
            replicate(lambda s: record([1.0], 1), reps, new_stream(1))


def test_replicate_passes_the_forks_in_order():
    # an estimator may index or iterate its streams as well as slice them
    root = new_stream(81)

    def estimator(streams):
        assert [s.path for s in streams] == [(0,), (1,), (2,)]
        assert streams[-1].path == streams[2:][0].path == (2,)
        return record([1.0, 2.0, 3.0], 1)

    assert replicate(estimator, 3, root).mean == 2.0


def test_replicate_rejects_a_record_of_another_length():
    with pytest.raises(ValueError, match="returned 3 replications for 2 streams"):
        replicate(lambda s: record([1.0, 2.0, 3.0], 1), 2, new_stream(1))


def test_replicate_rejects_chunks_of_unequal_cost():
    # the first chunk's cost row stands for every replication of the cell
    chunks = iter([booking(5, 1.0), booking(6, 2.0)])
    with pytest.raises(ValueError, match="cost"):
        one_level(lambda chunk: next(chunks)(chunk), forks(2), mlmc._CHUNK_ELEMENTS)


def test_fixed_base_levels_satisfy_variance_identity():
    # independent levels: replicated variance equals sum V_l / n_l
    d = 16
    f = make_additive(geometric_coefficients(d))
    schedule = truncation_schedule(d)
    summary = replicate(
        lambda s: estimate_mlmc_fixed(f, np.full(d, 0.5), schedule, s), 6000,
        new_stream(59))
    predicted = predicted_variance(summary, schedule)
    se = summary.sample_variance * math.sqrt(2 / (summary.replications - 1))
    assert abs(summary.sample_variance - predicted) < 4 * se


CELLS = {
    "mc": lambda root: run_estimator_cell("mc", make_additive(
        geometric_coefficients(256)), 40, root, mc_n=3),
    "mlmc": lambda root: run_estimator_cell("mlmc", make_product(
        geometric_coefficients(256)), 30, root),
    "mlmc-fixed": lambda root: run_estimator_cell("mlmc-fixed", make_additive(
        geometric_coefficients(256)), 30, root, fix_v="sample"),
    "markov": lambda root: run_markov_cell({"chain.d": "64"}, 64, 600, root),
}


@pytest.mark.parametrize("method", sorted(CELLS))
def test_columns_do_not_depend_on_chunk_size(method, monkeypatch):
    # a budget of 0 runs one replication per chunk; 4 * 256 runs the d = 256
    # cube cells in chunks of 4 replications and their level 1 in batches of
    # one, and the d = 64 chain in chunks of 68 replications with every
    # level but the narrowest in batches of 16 to 48; 2**62 runs every
    # replication in one chunk
    columns = {}
    for budget in (0, 4 * 256, mlmc._CHUNK_ELEMENTS, 2 ** 62):
        monkeypatch.setattr(mlmc, "_CHUNK_ELEMENTS", budget)
        summary = CELLS[method](new_stream(71)).summary
        columns[budget] = (summary.values, summary.costs, summary.level_sum,
                           summary.level_sq)
    reference = columns.pop(0)
    for budget, other in columns.items():
        for a, b in zip(reference, other):
            assert np.array_equal(a, b) if a is not None else b is None, budget


@pytest.mark.parametrize("d,reps", [(64, 4000), (1024, 1000)])
def test_replication_memory_is_bounded_by_the_chunk_budget(d, reps):
    # at d = 1024 a chunk holds 130 replications, every level but the
    # narrowest runs in batches of them, and the widest in batches of 16
    cfg = {"chain.d": str(d)}
    root = new_stream(73)
    run_markov_cell(cfg, d, 50, root)  # first-call allocations
    tracemalloc.start()
    try:
        summary = run_markov_cell(cfg, d, reps, root).summary
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    columns = sum(a.nbytes for a in (summary.values, summary.costs,
                                     summary.level_sum, summary.level_sq))
    # the cell's columns, one chunk's columns and level batch, and the
    # summary's temporaries
    assert peak < 2 * columns + 4 * 8 * mlmc._CHUNK_ELEMENTS, (peak, columns)


@pytest.mark.parametrize("method,family,d", [("mlmc", make_product, 256),
                                             ("mlmc-fixed", make_additive, 1024)])
def test_cube_memory_is_bounded_by_the_chunk_budget(method, family, d):
    integrand = family(geometric_coefficients(d))
    root = new_stream(77)
    run_estimator_cell(method, integrand, 50, root, fix_v="sample")  # first-call allocations
    tracemalloc.start()
    try:
        summary = run_estimator_cell(method, integrand, 4000, root, fix_v="sample").summary
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    columns = sum(a.nbytes for a in (summary.values, summary.costs,
                                     summary.level_sum, summary.level_sq))
    # one chunk's draw, at most 9d uniforms per replication in a chunk sized by
    # the narrowest level, so 9 budgets; then one level batch's points, its
    # fine values and the evaluator's temporary, each at most the budget or
    # one replication's widest level
    widest = max(truncation_schedule(d).n) * d
    budgets = 9 + 3 * max(1.0, widest / mlmc._CHUNK_ELEMENTS)
    assert peak < 1.5 * columns + budgets * 8 * mlmc._CHUNK_ELEMENTS, (peak, columns)


def test_plain_mc_memory_above_the_chunk_budget():
    # n·d = 64 budgets: one replication per chunk and batch, whose n points
    # are its drawn row, evaluated in place rather than copied again
    n, d = 4096, 256
    integrand = make_product(geometric_coefficients(d))
    root = new_stream(78)
    standard_mc(integrand, n, [root.fork(0)])  # first-call allocations
    tracemalloc.start()
    try:
        standard_mc(integrand, n, [root.fork(j) for j in range(4)])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2.5 * 8 * n * d, peak


def test_replication_columns_are_filled_in_place():
    root = new_stream(74)
    run_markov_cell({"chain.d": "64"}, 64, 50, root)  # first-call allocations
    tracemalloc.start()
    try:
        summary = run_markov_cell({"chain.d": "64"}, 64, 8000, root).summary
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    columns = sum(a.nbytes for a in (summary.values, summary.costs,
                                     summary.level_sum, summary.level_sq))
    # the columns once, with the summary's temporaries and one chunk's arrays
    assert peak < 1.5 * columns + 4 * 8 * mlmc._CHUNK_ELEMENTS, (peak, columns)


ESTIMATORS = {
    "mc": lambda s: standard_mc(make_additive(geometric_coefficients(8)), 3, s),
    "mlmc": lambda s: estimate_mlmc(make_product(geometric_coefficients(8)),
                                    truncation_schedule(8), s),
    "mlmc-fixed": lambda s: estimate_mlmc_fixed(make_additive(
        geometric_coefficients(8)), np.full(8, 0.5), truncation_schedule(8), s),
    "chain": lambda s: estimate_chain_mlmc(make_lindley(16), -2.0, s),
    "chain-mc": lambda s: standard_mc_chain(make_lindley(16), 5, s),
}


@pytest.mark.parametrize("name", sorted(ESTIMATORS))
def test_chunk_streams_must_share_one_ledger(name, monkeypatch):
    # two root streams each carry their own ledger, which the chunk never
    # reads, whether they share a chunk or a budget of 0 puts them in two
    for budget in (mlmc._CHUNK_ELEMENTS, 0):
        monkeypatch.setattr(mlmc, "_CHUNK_ELEMENTS", budget)
        with pytest.raises(ValueError, match="share one cost ledger"):
            ESTIMATORS[name]([new_stream(1), new_stream(2)])
    with pytest.raises(ValueError, match="at least one stream"):
        ESTIMATORS[name]([])


@pytest.mark.parametrize("name", sorted(ESTIMATORS))
def test_bare_stream_is_a_chunk_of_one(name):
    ledger = CostLedger()
    bare = ESTIMATORS[name](new_stream(5, ledger))
    listed = ESTIMATORS[name]([new_stream(5)])
    assert np.array_equal(bare.values, listed.values)
    assert np.array_equal(bare.costs, listed.costs)
    assert bare.cost_units == ledger.total_units == int(listed.costs.sum())


def test_chain_mc_memory_is_bounded_by_the_chunk_budget():
    model = make_lindley(256)
    estimator = partial(standard_mc_chain, model, 2000)  # one path batch: 2000
    replicate(estimator, 2, new_stream(75))  # first-call allocations
    tracemalloc.start()
    try:
        replicate(estimator, 16, new_stream(76))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # a chunk's draws, states and step temporaries; d * 2000 innovations of one
    # replication held at once would be 4 MB
    assert peak < 6 * 8 * mlmc._CHUNK_ELEMENTS, peak


def test_chunk_costs_must_split_evenly():
    with pytest.raises(RuntimeError, match="split evenly"):
        one_level(booking(5), forks(2))


def test_chunks_must_return_one_row_per_stream():
    # a batch of 3 streams at a level of n_l = 2 must return [3, 2]
    # increments: numpy would broadcast the sums of (1, 2) into every
    # stream's row, and sum (3, 1) as if it held a replication's n_l
    for shape in ((1, 2), (3, 1), (3,), (3, 2, 1)):
        def prepare(chunk):
            return lambda level, n_l, m_lo, m_hi, rows: np.ones(shape)
        message = f"a batch of level 1 returned increments of shape {shape}, not (3, 2)"
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            one_level(prepare, forks(3), n=2)


class CountingLedger(CostLedger):
    """A ledger that counts its snapshots, two per chunk."""

    snapshots = 0

    def snapshot(self):
        self.snapshots += 1
        return super().snapshot()


@pytest.mark.parametrize("name", sorted(ESTIMATORS))
def test_direct_calls_do_not_depend_on_chunk_size(name, monkeypatch):
    # 40 streams run in one chunk of the default budget, and in 2 to 20
    # chunks of a budget of 64
    records, chunks = [], []
    for budget in (mlmc._CHUNK_ELEMENTS, 64):
        monkeypatch.setattr(mlmc, "_CHUNK_ELEMENTS", budget)
        ledger = CountingLedger()
        root = new_stream(79, ledger)
        records.append(ESTIMATORS[name]([root.fork(j) for j in range(40)]))
        chunks.append(ledger.snapshots // 2)
    assert chunks[0] == 1 and chunks[1] > 1, chunks
    for column in ("values", "level_sum", "level_sq", "costs"):
        a, b = (getattr(record, column) for record in records)
        assert np.array_equal(a, b) if a is not None else b is None, column


def test_samples_needed_cases():
    assert samples_needed(1.0, 0.1) == 100
    assert samples_needed(0.025, 0.1) == 3
    assert samples_needed(1e-6, 1.0) == 1
    # var / eps ** 2 underflows to 0, yet one replication is needed
    assert samples_needed(1e-20, 1e154) == 1
    with pytest.raises(ValueError):
        samples_needed(0.0, 0.1)
    with pytest.raises(ValueError):
        samples_needed(1.0, 0.0)


def test_work_normalized_variance_and_budget():
    summary = summarize(record([3.0, 4.0], 10))
    assert summary.sample_variance == pytest.approx(0.5)
    assert work_normalized_variance(summary) == pytest.approx(5.0)
    # variance 0.5, cost 10: eps 0.1 needs 50 replications
    assert total_budget(summary, 0.1) == pytest.approx(500.0)
    # huge eps: a single replication suffices
    assert total_budget(summary, 100.0) == pytest.approx(10.0)
    with pytest.raises(ValueError, match="eps must be positive"):
        total_budget(summary, 0.0)


def test_work_normalized_variance_must_be_finite():
    # a finite variance of 5e307 times a cost of 10 overflows
    summary = summarize(record([0.0, 1e154], 10))
    with np.errstate(over="ignore"), pytest.raises(
            mlmc.NumericalFailure, match="work-normalized variance is not finite"):
        work_normalized_variance(summary)


def test_work_normalized_variance_invariant_to_averaging():
    f = make_additive([1.0, 1.0])
    one = replicate(lambda s: standard_mc(f, 1, s), 4000, new_stream(61))
    two = replicate(lambda s: standard_mc(f, 2, s), 4000, new_stream(61))
    a, b = work_normalized_variance(one), work_normalized_variance(two)
    assert abs(a - b) / a < 0.2


@given(st.floats(min_value=1e-6, max_value=1e3),
       st.floats(min_value=1e-3, max_value=1e3),
       st.floats(min_value=1e-3, max_value=1e3))
@settings(max_examples=60, deadline=None)
def test_total_budget_sandwich(variance, eps, cost):
    summary = summarize(record([0.0, 1.0], 1))
    budget = samples_needed(variance, eps) * cost
    lower = (cost + cost * variance / eps ** 2) / 2
    upper = cost + cost * variance / eps ** 2
    assert lower <= budget * (1 + 1e-12)
    assert budget <= upper * (1 + 1e-12)


def test_level_budget_bound_single_level_equality():
    rep = check_level_budget_bound(m=[0, 1], V=[0.4], nu=[0.4, 0.0], V_se=[0.0])
    assert rep.lhs == pytest.approx(rep.rhs)
    assert rep.passed


def test_level_budget_bound_zero_nu_always_passes():
    rep = check_level_budget_bound(m=[0, 1, 4], V=[0.3, 0.1], nu=[0.0] * 5,
                                   V_se=[0.0, 0.0])
    assert rep.passed


def test_level_budget_bound_validation():
    with pytest.raises(ValueError, match="nonincreasing"):
        check_level_budget_bound(m=[0, 2], V=[1.0], nu=[0.1, 0.2, 0.0], V_se=[0.0])
    with pytest.raises(ValueError, match="nonincreasing"):
        check_level_budget_bound(m=[0, 2], V=[1.0], nu=[0.2, 0.1, 0.3], V_se=[0.0])
    with pytest.raises(ValueError, match="end at 0"):
        check_level_budget_bound(m=[0, 2], V=[1.0], nu=[0.2, 0.1, 0.05], V_se=[0.0])
    with pytest.raises(ValueError, match="one entry per index"):
        check_level_budget_bound(m=[0, 2], V=[1.0], nu=[0.1, 0.0], V_se=[0.0])
    for m in ([1, 2], [0, 1, 1]):
        with pytest.raises(ValueError, match="strictly increasing"):
            check_level_budget_bound(m=m, V=[1.0] * (len(m) - 1), nu=[0.0] * (m[-1] + 1),
                                     V_se=[0.0] * (len(m) - 1))
    for V, V_se in (([1.0], [0.0, 0.0]), ([1.0, 1.0, 1.0], [0.0] * 3)):
        with pytest.raises(ValueError, match="one variance and one standard error"):
            check_level_budget_bound(m=[0, 1, 2], V=V, nu=[0.0] * 3, V_se=V_se)


def test_level_budget_bound_tolerates_rounding_relative_to_nu_0():
    # increases of nu up to 1e-12 max(|nu_0|, 1) are rounding, not a violation
    check_level_budget_bound(m=[0, 1, 2], V=[1.0, 1.0], nu=[0.0, 1e-12, 0.0],
                             V_se=[0.0, 0.0])
    check_level_budget_bound(m=[0, 1, 3], V=[1.0, 1.0], nu=[100.0, 1.0, 1.0 + 5e-11, 0.0],
                             V_se=[0.0, 0.0])


def test_level_budget_bound_se_is_the_delta_method():
    # root sum 1 + sqrt(4 * 4) = 5, so rhs = 25 and both gradients are 5
    rep = check_level_budget_bound(m=[0, 1, 4], V=[1.0, 4.0], nu=[0.0] * 5,
                                   V_se=[0.1, 0.2])
    assert rep.rhs == 25.0
    assert rep.se == pytest.approx(math.sqrt(0.5 ** 2 + 1.0 ** 2), rel=1e-15)
    # a level with V_l = 0 adds nothing to the root sum and has no gradient
    rep = check_level_budget_bound(m=[0, 1, 4], V=[1.0, 0.0], nu=[0.0] * 5,
                                   V_se=[0.1, 0.2])
    assert (rep.rhs, rep.se) == (1.0, 0.1)


def test_level_variance_estimates_need_level_sums_and_two_samples_a_level():
    with pytest.raises(ValueError, match="no per-level sums"):
        level_variance_estimates(record([0.0, 1.0], 1))
    # one replication with one increment on its first level pools one sample
    one = EstimateRecord(values=np.array([1.0]), costs=np.array([2, 0, 0]),
                         level_sum=np.array([[1.0, 0.5]]),
                         level_sq=np.array([[1.0, 0.25]]), level_count=(1, 2))
    with pytest.raises(ValueError, match="at least 2 samples"):
        level_variance_estimates(one)


def _measured_level_budget(nu_scale, with_se):
    """The level-budget check at d = 8 with the fixed-base-point estimator's
    level variances, the analytic profile times ``nu_scale`` as nu, and the
    variances' SEs as the lemma1 diagnostic computes them, or zeros."""
    d = 8
    f = make_additive(geometric_coefficients(d))
    schedule = truncation_schedule(d)
    summary = replicate(
        lambda s: estimate_mlmc_fixed(f, np.full(d, 0.5), schedule, s), 4000,
        new_stream(67))
    V = level_variance_estimates(summary)
    counts = summary.replications * np.array(summary.level_count)
    V_se = V * np.sqrt(2.0 / (counts - 1.0)) if with_se else np.zeros_like(V)
    return check_level_budget_bound(schedule.m, V, nu_scale * analytic_profile(f).D,
                                    V_se)


def test_level_budget_bound_holds_with_measured_variances():
    rep = _measured_level_budget(1.0, with_se=False)
    assert rep.se == 0.0
    assert rep.passed


def test_level_budget_bound_fails_for_an_inflated_nu():
    # a negative control: nu = 100 D breaks the bound by thousands of SEs
    rep = _measured_level_budget(100.0, with_se=True)
    assert rep.lhs > rep.rhs + 1000.0 * rep.se > rep.rhs
    assert not rep.passed
