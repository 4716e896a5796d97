import dataclasses
import itertools
import sys
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from scalar_oracles import (reference_mc_profile, reference_radial_index,
                            truncation_dimension)
from truncmlmc import (DegenerateIntegrandError, InequalityReport, Integrand,
                       UnsupportedIntegrandError, VarianceProfile,
                       analytic_profile, anova, chain_integrand,
                       check_pair_variance_bound, check_residual_lower_bound,
                       geometric_coefficients, isotonic_nonincreasing,
                       make_additive, make_lindley, make_product, mc_profile,
                       new_stream, streams)


def quadrature_profile(integrand, nodes=8):
    """Independent oracle: D(i) = var(f) - var(E[f | first i coordinates]),
    with all integrals done by tensor Gauss-Legendre quadrature.  Exact for
    the polynomial families; feasible only for small d."""
    d = integrand.dimension
    x, w = np.polynomial.legendre.leggauss(nodes)
    y, wy = 0.5 * (x + 1.0), 0.5 * w
    grids = np.meshgrid(*([y] * d), indexing="ij")
    points = np.stack([g.ravel() for g in grids], axis=1)
    vals = integrand.eval_batch(points).reshape([nodes] * d)

    def integrate_out_all(arr):
        while arr.ndim > 0:
            arr = np.tensordot(arr, wy, axes=([arr.ndim - 1], [0]))
        return float(arr)

    conditional = [None] * (d + 1)
    conditional[d] = vals
    for i in range(d - 1, -1, -1):
        conditional[i] = np.tensordot(conditional[i + 1], wy, axes=([i], [0]))
    mean = float(conditional[0])
    var = integrate_out_all((vals - mean) ** 2)
    D = np.array([var - integrate_out_all((conditional[i] - mean) ** 2)
                  for i in range(d + 1)])
    return D, var


def test_analytic_additive_pair():
    p = analytic_profile(make_additive([1.0, 1.0]))
    assert np.allclose(p.D, [1 / 6, 1 / 12, 0.0])
    assert p.var_f == pytest.approx(1 / 6)
    assert p.d_t == pytest.approx(1.5)


def test_analytic_product_pair():
    p = analytic_profile(make_product([1.0, 1.0]))
    assert np.allclose(p.D, [25 / 144, 13 / 144, 0.0])
    assert p.var_f == pytest.approx(25 / 144)
    assert p.d_t == pytest.approx(38 / 25)


def test_analytic_first_coordinate_only():
    p = analytic_profile(make_additive([1.0, 0.0, 0.0, 0.0]))
    assert np.allclose(p.D, [1 / 12, 0.0, 0.0, 0.0, 0.0])
    assert p.d_t == pytest.approx(1.0)


def test_single_variable_product():
    p = analytic_profile(make_product([1.0]))
    assert p.var_f == pytest.approx(1 / 12)
    assert p.d_t == pytest.approx(1.0)


@pytest.mark.parametrize("family", [make_additive, make_product])
@pytest.mark.parametrize("d", [2, 4, 8, 16])
def test_residual_sum_identity(family, d):
    # two independent derivations of d_t * var must agree to 1e-12 relative
    p = analytic_profile(family(geometric_coefficients(d)))
    assert abs(p.D.sum() - p.d_t * p.var_f) <= 1e-12 * p.d_t * p.var_f


@pytest.mark.parametrize("family", [make_additive, make_product])
def test_analytic_profile_matches_quadrature_oracle(family):
    f = family([0.8, 0.5, 0.25])
    D_oracle, var_oracle = quadrature_profile(f)
    p = analytic_profile(f)
    assert np.allclose(p.D, D_oracle, atol=1e-12)
    assert p.var_f == pytest.approx(var_oracle, abs=1e-12)


def test_analytic_requires_family():
    f = Integrand(dimension=2, evaluator=lambda pts: pts[:, 0])
    with pytest.raises(UnsupportedIntegrandError):
        analytic_profile(f)


def test_truncation_dimension_values():
    p = analytic_profile(make_additive([1.0, 1.0]))
    assert truncation_dimension(p) == pytest.approx(1.5)
    one_dim = VarianceProfile(D=np.array([0.3, 0.0]), var_f=0.3, d_t=1.0,
                              source="analytic")
    assert truncation_dimension(one_dim) == pytest.approx(1.0)


def test_profile_rejects_bad_shapes():
    with pytest.raises(DegenerateIntegrandError):
        VarianceProfile(D=np.array([0.0, 0.0]), var_f=0.0, d_t=1.0, source="analytic")
    with pytest.raises(ValueError):
        VarianceProfile(D=np.array([0.1, 0.2, 0.0]), var_f=0.1, d_t=1.0, source="analytic")
    with pytest.raises(ValueError):
        VarianceProfile(D=np.array([0.2, 0.1]), var_f=0.2, d_t=1.0, source="analytic")


def test_profile_bounds_truncation_dimension():
    for d in (2, 4, 8):
        for family in (make_additive, make_product):
            p = analytic_profile(family(geometric_coefficients(d, 0.7)))
            assert 1.0 <= p.d_t <= d


def test_isotonic_known_cases():
    assert np.allclose(isotonic_nonincreasing([1.0, 2.0, 3.0]), [2.0, 2.0, 2.0])
    assert np.allclose(isotonic_nonincreasing([3.0, 1.0, 2.0]), [3.0, 1.5, 1.5])
    assert np.allclose(isotonic_nonincreasing([3.0, 2.0, 1.0]), [3.0, 2.0, 1.0])


@given(st.lists(st.floats(min_value=-10, max_value=10), min_size=1, max_size=30))
@settings(max_examples=60, deadline=None)
def test_isotonic_properties(values):
    out = isotonic_nonincreasing(values)
    assert out.size == len(values)
    assert np.all(np.diff(out) <= 1e-12)
    assert out.sum() == pytest.approx(np.sum(values), abs=1e-9)


@pytest.mark.parametrize("family", [make_additive, make_product])
def test_mc_profile_matches_analytic(family):
    f = family(geometric_coefficients(4))
    exact = analytic_profile(f)
    est = mc_profile(f, n_pairs=30_000, stream=new_stream(101))
    assert est.D[0] == est.var_f
    assert est.D[-1] == 0.0
    assert np.all(np.diff(est.D) <= 1e-12)
    for i in range(f.dimension + 1):
        tol = 4 * est.se[i] if est.se[i] > 0 else 1e-12
        assert abs(est.D[i] - exact.D[i]) <= tol
    assert est.d_t == pytest.approx(exact.d_t, rel=0.1)


def test_mc_profile_raw_estimates_nearly_monotone():
    f = make_product(geometric_coefficients(5))
    est = mc_profile(f, 40_000, new_stream(11))
    # raw estimates may wiggle, but only by sampling noise
    for i in range(f.dimension):
        noise = 4 * (est.se[i] + est.se[i + 1])
        assert est.raw_D[i + 1] <= est.raw_D[i] + noise


def test_mc_profile_reproducible():
    f = make_additive([1.0, 0.5])
    a = mc_profile(f, 5_000, new_stream(3))
    b = mc_profile(f, 5_000, new_stream(3))
    assert np.array_equal(a.D, b.D)


# integrands whose rows are evaluated independently of the batch they are in;
# with d = 8, 2,501 pairs span two segments of the radial design, the second
# one shorter
ORACLE_INTEGRANDS = {
    "additive": lambda: make_additive(geometric_coefficients(8, 0.8)),
    "product": lambda: make_product(geometric_coefficients(8, 0.8)),
    "lindley": lambda: chain_integrand(make_lindley(8)),
    "black-box": lambda: Integrand(
        dimension=8, evaluator=lambda p: p[:, 0] * p[:, 5] + (p[:, 1] - p[:, 7]) ** 2),
}
ORACLE_PAIRS = 2_501
# elements per segment of the radial design: one-row segments, the default,
# and one segment; the segments set the order of the sums, so the bits of
# different sizes may differ
SEGMENT_SIZES = {"one-row": 0, "default": anova._SEGMENT_ELEMENTS, "unbounded": 2 ** 62}
PROFILE_FIELDS = ("D", "raw_D", "se", "var_f", "d_t")


def _profile_and_units(oracle, integrand, n, seed):
    stream = new_stream(seed)
    before = stream.ledger.snapshot()
    profile = oracle(integrand, n, stream)
    units = tuple(b - a for a, b in zip(before, stream.ledger.snapshot()))
    return profile, units


@pytest.fixture(scope="module")
def reference_profiles():
    return {name: _profile_and_units(reference_mc_profile, make(), ORACLE_PAIRS, 41)
            for name, make in ORACLE_INTEGRANDS.items()}


@pytest.fixture(scope="module")
def serial_profiles():
    profiles = {}
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(streams, "_cpu_count", lambda: 1)
        for (name, make), (size, elements) in itertools.product(
                ORACLE_INTEGRANDS.items(), SEGMENT_SIZES.items()):
            patch.setattr(anova, "_SEGMENT_ELEMENTS", elements)
            profiles[name, size] = _profile_and_units(mc_profile, make(),
                                                      ORACLE_PAIRS, 41)
    return profiles


@pytest.mark.parametrize("segments", sorted(SEGMENT_SIZES))
@pytest.mark.parametrize("workers", [1, 2, 8])
@pytest.mark.parametrize("name", sorted(ORACLE_INTEGRANDS))
def test_mc_profile_matches_whole_matrix_reference(name, workers, segments,
                                                   reference_profiles,
                                                   serial_profiles, monkeypatch):
    monkeypatch.setattr(anova, "_SEGMENT_ELEMENTS", SEGMENT_SIZES[segments])
    monkeypatch.setattr(streams, "_cpu_count", lambda: workers)
    f, n = ORACLE_INTEGRANDS[name](), ORACLE_PAIRS
    interval = sys.getswitchinterval()
    if workers == 8:  # more threads than cores, switching often
        sys.setswitchinterval(1e-6)
    try:
        got, units = _profile_and_units(mc_profile, f, n, 41)
    finally:
        sys.setswitchinterval(interval)
    # the same bits on one thread with the same segments; the segments sum
    # in another order than the reference's math.fsum
    serial, serial_units = serial_profiles[name, segments]
    expected, expected_units = reference_profiles[name]
    for field in PROFILE_FIELDS:
        assert np.array_equal(getattr(got, field), getattr(serial, field)), field
        np.testing.assert_allclose(getattr(got, field), getattr(expected, field),
                                   rtol=1e-12, atol=0, err_msg=field)
    d = f.dimension
    assert units == serial_units == expected_units == (
        2 * d * n, f.steps_per_eval * (d + 1) * n, (d + 1) * n)


@pytest.mark.parametrize("column", [0, -1])
def test_mc_profile_allows_evaluators_that_return_a_view(column):
    # p[:, column] is a view of the evaluated points; its copy is not
    view = Integrand(dimension=4, evaluator=lambda p: p[:, column])
    copy = Integrand(dimension=4, evaluator=lambda p: p[:, column].copy())
    got = mc_profile(view, 20_000, new_stream(1))
    expected = mc_profile(copy, 20_000, new_stream(1))
    for field in PROFILE_FIELDS:
        assert np.array_equal(getattr(got, field), getattr(expected, field)), field
    assert got.raw_D[0] == pytest.approx(1 / 12, rel=0.05)


@pytest.mark.parametrize("segments", sorted(SEGMENT_SIZES))
def test_block_sampler_matches_whole_matrix_pairs(segments, monkeypatch):
    monkeypatch.setattr(anova, "_SEGMENT_ELEMENTS", SEGMENT_SIZES[segments])
    f = chain_integrand(make_lindley(8))  # no family: the residual check samples
    profile = analytic_profile(make_additive(np.ones(8)))
    for i in (0, 3, 8):
        expected, got = new_stream(7).fork(i), new_stream(7).fork(i)
        expected.draw(5)  # an offset into the stream that is not a Philox block
        got.draw(5)
        before = got.ledger.snapshot()
        mean, se = reference_radial_index(f, i, 301, expected)
        pair = check_pair_variance_bound(f, i, profile, 301, got)
        np.testing.assert_allclose([pair.lhs, pair.se], [mean, se], rtol=1e-12,
                                   atol=0, err_msg=str(i))
        assert got.counter == expected.counter, i
        assert got.ledger.snapshot() == expected.ledger.snapshot(), i
        assert tuple(b - a for a, b in zip(before, got.ledger.snapshot())) == (
            2 * 8 * 301, f.steps_per_eval * 2 * 301, 2 * 301), i
        mean, _ = reference_radial_index(f, i, 301, new_stream(7).fork(i).fork(0))
        residual = check_residual_lower_bound(
            f, lambda p: np.zeros(len(p)), i, 301, new_stream(7).fork(i))
        np.testing.assert_allclose(residual.lhs, 0.5 * mean, rtol=1e-12, atol=0,
                                   err_msg=str(i))


def test_checks_do_not_depend_on_the_block_size(monkeypatch):
    f = make_product(geometric_coefficients(6, 0.8))
    black_box = Integrand(dimension=6, evaluator=f.evaluator)
    profile = analytic_profile(f)
    reports = {size: set() for size in SEGMENT_SIZES}
    for size, workers in itertools.product(SEGMENT_SIZES, [1, 2, 8]):
        monkeypatch.setattr(anova, "_SEGMENT_ELEMENTS", SEGMENT_SIZES[size])
        monkeypatch.setattr(streams, "_cpu_count", lambda: workers)
        stream = new_stream(13)
        pair = check_pair_variance_bound(f, 2, profile, 3_001, stream.fork(0))
        residual = check_residual_lower_bound(
            black_box, lambda p: p[:, 0] - 0.5, 2, 3_001, stream.fork(1))
        reports[size].add((pair, residual, stream.ledger.snapshot()))
    # the same bits on any thread count; other segments sum in another order
    assert all(len(found) == 1 for found in reports.values()), reports
    ((pair, residual, units),) = reports["default"]
    for ((got_pair, got_residual, got_units),) in reports.values():
        assert got_units == units
        for got, expected in ((got_pair, pair), (got_residual, residual)):
            np.testing.assert_allclose([got.lhs, got.rhs, got.se],
                                       [expected.lhs, expected.rhs, expected.se],
                                       rtol=1e-12, atol=0)
            assert got.passed == expected.passed


def test_sampler_derives_each_stream_key_once(monkeypatch):
    derived = []
    philox_keys = streams.philox_keys

    def counting(seeds, paths):
        derived.append(len(paths))
        return philox_keys(seeds, paths)

    monkeypatch.setattr(streams, "philox_keys", counting)
    f = make_additive(geometric_coefficients(4))
    profile = analytic_profile(f)
    for i in range(5):
        check_pair_variance_bound(f, i, profile, 10, new_stream(3).fork(i))
    assert derived == [1] * 5


# with d = 8, 9,001 pairs make five segments of the radial design, the last
# one shorter, so tasks of two segments leave one task of one
GROUPED_PAIRS = 9_001
# segments per task: one, the default and all of them
TASK_SIZES = {"one": 1, "default": anova._SEGMENTS_PER_TASK, "all": 2 ** 62}


def _radial_runs():
    """The bits of mc_profile, of the pair check and of the black-box
    residual check at i = 3, each with its units and its stream's counter."""
    f = make_product(geometric_coefficients(8, 0.8))
    black_box = Integrand(dimension=8, evaluator=f.evaluator)
    profile = analytic_profile(f)
    oracles = {
        "profile": lambda stream: mc_profile(f, GROUPED_PAIRS, stream),
        "pair": lambda stream: check_pair_variance_bound(
            f, 3, profile, GROUPED_PAIRS, stream),
        "residual": lambda stream: check_residual_lower_bound(
            black_box, lambda p: p[:, 0] - 0.5, 3, GROUPED_PAIRS, stream),
    }
    runs = {}
    for name, oracle in oracles.items():
        stream = new_stream(43)
        stream.draw(5)  # an offset into the stream that is not a Philox block
        before = stream.ledger.snapshot()
        out = oracle(stream)
        fields = PROFILE_FIELDS if name == "profile" else ("lhs", "rhs", "se")
        runs[name] = ([np.asarray(getattr(out, field)).tobytes() for field in fields],
                      tuple(b - a for a, b in zip(before, stream.ledger.snapshot())),
                      stream.counter)
    return runs


@pytest.fixture(scope="module")
def serial_one_segment_runs():
    assert len(anova._segments(GROUPED_PAIRS, 8)) == 5
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(streams, "_cpu_count", lambda: 1)
        patch.setattr(anova, "_SEGMENTS_PER_TASK", 1)
        return _radial_runs()


@pytest.mark.parametrize("task", sorted(TASK_SIZES))
@pytest.mark.parametrize("workers", [1, 2, 8])
def test_radial_bits_do_not_depend_on_the_tasks(task, workers, serial_one_segment_runs,
                                                monkeypatch):
    monkeypatch.setattr(anova, "_SEGMENTS_PER_TASK", TASK_SIZES[task])
    monkeypatch.setattr(streams, "_cpu_count", lambda: workers)
    interval = sys.getswitchinterval()
    if workers == 8:  # more threads than cores, switching often
        sys.setswitchinterval(1e-6)
    try:
        runs = _radial_runs()
    finally:
        sys.setswitchinterval(interval)
    # each segment is reduced on its own, so the tasks change no bit
    assert runs == serial_one_segment_runs


def test_segments_are_one_row_at_least():
    assert anova._segments(5, 2) == [(0, 5)]
    assert anova._segments(2 ** 13 + 3, 2) == [(0, 2 ** 13), (2 ** 13, 2 ** 13 + 3)]
    assert anova._segments(3, 2 ** 13 + 1) == [(0, 1), (1, 2), (2, 3)]
    assert anova._segments(3, 2 ** 14 + 1) == [(0, 1), (1, 2), (2, 3)]


@pytest.mark.parametrize("workers", [1, 2, 8])
def test_mc_profile_memory_is_a_task_per_worker(workers, monkeypatch):
    monkeypatch.setattr(streams, "_cpu_count", lambda: workers)
    f, d, n = make_additive(geometric_coefficients(32)), 32, 20_000
    mc_profile(f, 200, new_stream(1))  # lazy imports and per-thread set-up
    tracemalloc.start()
    try:
        mc_profile(f, n, new_stream(1))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    segments = len(anova._segments(n, d))
    tasks = len(streams.pool_blocks(segments, anova._SEGMENTS_PER_TASK))
    # per segment of a task: its A and B, its terms and the evaluator's
    # temporary, each of _SEGMENT_ELEMENTS floats, with room to spare; no
    # [d + 1, n] array
    task = anova._SEGMENTS_PER_TASK * 6 * 8 * anova._SEGMENT_ELEMENTS
    sums = segments * 2 * d * 8
    assert peak < min(workers, tasks) * task + sums, (peak, tasks)


def _fraction_product_tail(integrand):
    """D(i) = P_i (S_i - 1) of the product family in exact rational arithmetic,
    from the same float component variances the package uses."""
    a = [Fraction(float(v)) for v in anova._component_variances(integrand)]
    d = len(a)
    D = []
    for i in range(d + 1):
        P = S = Fraction(1)
        for v in a[:i]:
            P *= 1 + v
        for v in a[i:]:
            S *= 1 + v
        D.append(P * (S - 1))
    return D


def test_analytic_product_tail_is_exact():
    f = make_product(geometric_coefficients(32, 0.5))
    exact = _fraction_product_tail(f)
    profile = analytic_profile(f)
    for i in range(32):
        error = abs(Fraction(float(profile.D[i])) - exact[i])
        assert error <= Fraction(1, 10 ** 14) * exact[i], i
    assert profile.D[32] == 0.0 and profile.D[0] == profile.var_f


@pytest.mark.parametrize("family", [make_additive, make_product])
def test_mc_profile_tail_within_4_se_at_d32(family):
    f = family(geometric_coefficients(32, 0.5))
    exact = analytic_profile(f).D
    est = mc_profile(f, 20_000, new_stream(32))
    z = np.abs(est.raw_D - exact)
    assert np.all(z <= 4 * est.se), np.max(z[:-1] / est.se[:-1])
    assert est.raw_D[32] == est.se[32] == 0.0
    # the tail is resolved: D(31) is about 1e-20, and its SE about 1% of it
    assert np.all(est.se[:-1] <= 0.02 * exact[:-1]), np.max(est.se[:-1] / exact[:-1])


@pytest.mark.parametrize("family", [make_additive, make_product])
def test_mc_profile_standard_errors_are_calibrated(family):
    # over independent seeds, (raw_D(i) - D(i)) / se(i) has unit spread
    f = family(geometric_coefficients(4))
    exact = analytic_profile(f).D
    z = []
    for seed in range(300):
        est = mc_profile(f, 2_000, new_stream(seed))
        z.append((est.raw_D[:-1] - exact[:-1]) / est.se[:-1])
    spread = np.std(z, axis=0)
    assert np.all((0.85 <= spread) & (spread <= 1.15)), spread


class _EvaluatorFault(RuntimeError):
    pass


@pytest.mark.parametrize("workers", [1, 8])
def test_mc_profile_raises_the_evaluator_error(workers, monkeypatch):
    monkeypatch.setattr(streams, "_cpu_count", lambda: workers)
    calls = itertools.count()

    def evaluator(points):
        # d = 4 and 1,000 pairs make one segment of five batches
        if next(calls) == 3:
            raise _EvaluatorFault("fourth batch")
        return points[:, 0]

    with pytest.raises(_EvaluatorFault, match="fourth batch"):
        mc_profile(Integrand(dimension=4, evaluator=evaluator), 1_000, new_stream(2))


def test_mc_profile_rejects_degenerate_integrand():
    constant = Integrand(dimension=2, evaluator=lambda pts: np.zeros(len(pts)))
    with pytest.raises(DegenerateIntegrandError):
        mc_profile(constant, 1_000, new_stream(1))
    with pytest.raises(ValueError):
        mc_profile(make_additive([1.0]), 1, new_stream(1))


def test_pair_variance_bound_identical_pair():
    f = make_additive([1.0, 1.0])
    report = check_pair_variance_bound(f, 2, analytic_profile(f), 1_000, new_stream(4))
    assert report.lhs == 0.0
    assert report.rhs == 0.0
    assert report.passed


@pytest.mark.parametrize("n", [0, 1])
def test_checks_need_two_pairs(n):
    f = make_additive([1.0, 1.0])
    zero = lambda p: np.zeros(len(p))
    with pytest.raises(ValueError, match="n must be at least 2"):
        check_pair_variance_bound(f, 1, analytic_profile(f), n, new_stream(4))
    with pytest.raises(ValueError, match="n must be at least 2"):
        check_residual_lower_bound(f, zero, 1, n, new_stream(4))
    black_box = Integrand(dimension=2, evaluator=f.evaluator)
    with pytest.raises(ValueError, match="n must be at least 2"):
        check_residual_lower_bound(black_box, zero, 1, n, new_stream(4))


def test_pair_variance_bound_rejects_a_profile_of_another_dimension():
    f = make_additive([1.0, 1.0])
    other = analytic_profile(make_additive([1.0, 1.0, 1.0]))
    with pytest.raises(ValueError, match="dimension"):
        check_pair_variance_bound(f, 2, other, 100, new_stream(4))


def test_pair_variance_bound_additive_values():
    f = make_additive([1.0, 1.0])
    profile = analytic_profile(f)
    # sharing the first coordinate leaves var(c2 (V2 - V2')) = 2/12
    rep1 = check_pair_variance_bound(f, 1, profile, 200_000, new_stream(8))
    assert rep1.lhs == pytest.approx(2 / 12, rel=0.05)
    assert rep1.rhs == pytest.approx(4 / 12)
    assert rep1.passed
    # independent pair doubles the full variance
    rep0 = check_pair_variance_bound(f, 0, profile, 200_000, new_stream(9))
    assert rep0.lhs == pytest.approx(2 / 6, rel=0.05)
    assert rep0.rhs == pytest.approx(4 / 6)
    assert rep0.passed


def test_residual_lower_bound_examples():
    f = make_additive([1.0, 1.0])
    stream = new_stream(21)
    zero = lambda prefix: np.zeros(len(prefix))
    # i = 0 with g = 0: rhs is the full variance, equality with D(0)
    rep = check_residual_lower_bound(f, zero, 0, 100_000, stream.fork(0))
    assert rep.lhs == pytest.approx(1 / 6)
    assert rep.rhs == pytest.approx(1 / 6, rel=0.05)
    assert rep.passed
    # g equal to the centered first coordinate: residual variance is exactly D(1)
    best = lambda prefix: prefix[:, 0] - 0.5
    rep = check_residual_lower_bound(f, best, 1, 100_000, stream.fork(1))
    assert rep.rhs == pytest.approx(1 / 12, rel=0.05)
    assert rep.passed
    # discarding the first coordinate leaves more variance than D(1)
    rep = check_residual_lower_bound(f, zero, 1, 100_000, stream.fork(2))
    assert rep.rhs == pytest.approx(1 / 6, rel=0.05)
    assert rep.lhs == pytest.approx(1 / 12)
    assert rep.passed


def test_residual_lower_bound_draws_its_points_from_fork_1():
    # fork 0 holds the radial design of a black-box lhs; the residual's points
    # must come from an independent fork
    f = make_product(geometric_coefficients(3))
    black_box = Integrand(dimension=3, evaluator=f.evaluator)
    g = lambda prefix: prefix[:, 0] - 0.5
    for integrand in (f, black_box):
        report = check_residual_lower_bound(integrand, g, 1, 500, new_stream(12))
        points = new_stream(12).fork(1).draw_matrix(500, 3)
        rhs, _ = anova._var_and_se(f.evaluator(points) - g(points[:, :1]))
        assert report.rhs == rhs


def test_residual_lower_bound_black_box_path():
    f = Integrand(dimension=2,
                  evaluator=lambda pts: (pts[:, 0] - 0.5) + (pts[:, 1] - 0.5))
    rep = check_residual_lower_bound(f, lambda p: np.zeros(len(p)), 1, 50_000,
                                     new_stream(31))
    assert rep.lhs == pytest.approx(1 / 12, abs=4 * rep.se + 1e-3)
    assert rep.passed


def test_report_passes_up_to_four_standard_errors():
    # 1 + 4 * 0.25 is exact, so the margin's edge is tested without rounding
    assert InequalityReport(lhs=2.0, rhs=1.0, se=0.25).passed
    assert not InequalityReport(lhs=np.nextafter(2.0, 3.0), rhs=1.0, se=0.25).passed
    assert InequalityReport(lhs=1.0, rhs=1.0, se=0.0).passed
    assert not InequalityReport(lhs=np.nextafter(1.0, 2.0), rhs=1.0, se=0.0).passed


@pytest.mark.parametrize("field", ["lhs", "rhs", "se"])
@pytest.mark.parametrize("value", [np.inf, -np.inf, np.nan])
def test_report_rejects_a_non_finite_field(field, value):
    fields = {"lhs": 1.0, "rhs": 2.0, "se": 0.5, field: value}
    with pytest.raises(anova.NumericalFailure, match="non-finite inequality check"):
        InequalityReport(**fields)


def test_var_and_se_hand_values():
    # centred [-1, -1, -1, 3]: var 12 / 3 = 4, fourth moment 84 / 4 = 21, so
    # SE = sqrt((21 - 4^2) / 4)
    var, se = anova._var_and_se(np.array([0.0, 0.0, 0.0, 4.0]))
    assert var == 4.0
    assert se == pytest.approx(np.sqrt(1.25), rel=1e-15)


@pytest.mark.parametrize("family", [make_additive, make_product])
@pytest.mark.parametrize("i", [1, 3])
def test_pair_variance_bound_fails_for_an_understated_profile(family, i):
    # a negative control: D and var_f scaled by 1/10 put 4 D(i) some 30-40
    # SEs below the measured variance of the pair differences
    f = family(geometric_coefficients(8))
    profile = analytic_profile(f)
    low = dataclasses.replace(profile, D=profile.D / 10, var_f=profile.var_f / 10)
    valid = check_pair_variance_bound(f, i, profile, 4000, new_stream(5).fork(i))
    scaled = check_pair_variance_bound(f, i, low, 4000, new_stream(5).fork(i))
    assert valid.passed
    assert valid.lhs == scaled.lhs and valid.se == scaled.se
    assert scaled.lhs > scaled.rhs + 20.0 * scaled.se
    assert not scaled.passed


@pytest.mark.parametrize("i", [1, 3])
def test_residual_lower_bound_fails_for_overstated_coefficients(i):
    # a negative control: coefficients twice the evaluator's make the analytic
    # D(i) four times the true one, which the best g on the first i
    # coordinates leaves as its residual variance
    c = geometric_coefficients(8)
    honest = make_additive(c)
    overstated = dataclasses.replace(honest, coefficients=2.0 * c)
    best = lambda prefix: (prefix - 0.5) @ c[:i]
    valid = check_residual_lower_bound(honest, best, i, 4000, new_stream(6).fork(i))
    report = check_residual_lower_bound(overstated, best, i, 4000,
                                        new_stream(6).fork(i))
    assert valid.passed
    assert report.lhs == pytest.approx(4.0 * valid.lhs, rel=1e-12)
    assert report.lhs > report.rhs + 100.0 * report.se
    assert not report.passed
