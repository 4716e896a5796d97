import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from scalar_oracles import HybridPoint, eval_hybrid, eval_point, scalar_integrand
from truncmlmc import (CostLedger, geometric_coefficients, make_additive,
                       make_product, new_stream)

unit_vectors = st.integers(min_value=1, max_value=6).flatmap(
    lambda d: st.lists(st.floats(min_value=0.0, max_value=1.0), min_size=d, max_size=d))


def test_additive_hand_values():
    f = make_additive([1.0, 1.0])
    assert eval_point(f, [0.5, 0.5]) == 0.0
    assert eval_point(f, [1.0, 0.0]) == pytest.approx(0.5 - 0.5)
    assert f.known_mean == 0.0


def test_product_hand_values():
    f = make_product([1.0, 1.0])
    assert eval_point(f, [1.0, 1.0]) == pytest.approx(1.5 * 1.5)
    assert eval_point(f, [0.5, 0.5]) == pytest.approx(1.0)
    assert f.known_mean == 1.0


def test_dimension_mismatch_rejected():
    f = make_additive([1.0, 1.0])
    with pytest.raises(ValueError):
        eval_point(f, [0.1, 0.2, 0.3])
    with pytest.raises(ValueError):
        f.eval_batch(np.zeros((4, 3)))


def test_degenerate_coefficients_rejected():
    with pytest.raises(ValueError):
        make_additive([0.0, 0.0])
    with pytest.raises(ValueError):
        make_product([0.0])
    with pytest.raises(ValueError):
        make_product([1.5])  # outside (-1, 1]
    with pytest.raises(ValueError):
        make_product([-1.0])


def test_geometric_coefficients():
    assert np.allclose(geometric_coefficients(4), [1.0, 0.5, 0.25, 0.125])
    assert np.allclose(geometric_coefficients(3, 0.1), [1.0, 0.1, 0.01])
    with pytest.raises(ValueError):
        geometric_coefficients(0)


def test_hybrid_splice_hand_value():
    # prefix of length 1 from u, suffix from u_prime: point (1, 0)
    f = make_additive([1.0, 1.0])
    value = eval_hybrid(f, HybridPoint(u=[1.0, 0.3], u_prime=[0.9, 0.0], m=1))
    assert value == pytest.approx(0.5 - 0.5)


def test_hybrid_full_prefix_is_plain_eval():
    f = make_product([0.5, 0.25, 1.0])
    u = np.array([0.1, 0.9, 0.4])
    up = np.array([0.8, 0.2, 0.6])
    assert eval_hybrid(f, HybridPoint(u, up, m=3)) == eval_point(f, u)


@given(unit_vectors, st.data())
@settings(max_examples=40, deadline=None)
def test_hybrid_with_identical_sources_is_plain_eval(u, data):
    u = np.asarray(u)
    m = data.draw(st.integers(min_value=0, max_value=u.size))
    f = make_product(np.full(u.size, 0.5))
    assert eval_hybrid(f, HybridPoint(u, u, m)) == pytest.approx(eval_point(f, u))


def test_hybrid_point_validation():
    with pytest.raises(ValueError):
        HybridPoint([0.1], [0.1, 0.2], m=1)
    with pytest.raises(ValueError):
        HybridPoint([0.1, 0.2], [0.3, 0.4], m=3)


def test_batch_matches_pointwise():
    f = make_product([0.8, -0.5, 0.3])
    pts = new_stream(1).draw_matrix(50, 3)
    batch = f.eval_batch(pts)
    assert np.allclose(batch, [eval_point(f, p) for p in pts])


@pytest.mark.parametrize("make", [make_additive, make_product])
@pytest.mark.parametrize("d", [2, 8, 9, 256])
def test_batch_is_bit_identical_row_by_row(make, d):
    # estimators pool the rows of many replications into one batch, so a row's
    # bits must not depend on the batch it is evaluated in
    f = make(geometric_coefficients(d, 0.9))
    pts = new_stream(d).draw_matrix(20_000, d)
    rows = np.concatenate([f.eval_batch(pts[i:i + 1]) for i in range(len(pts))])
    assert np.array_equal(f.eval_batch(pts), rows)


@pytest.mark.parametrize("d", [2, 8, 9, 256])
def test_product_evaluator_matches_its_formula(d):
    c = geometric_coefficients(d, 0.9)
    pts = new_stream(d).draw_matrix(20_000, d)
    before = pts.copy()
    values = make_product(c).eval_batch(pts)
    assert np.array_equal(values, np.prod(1.0 + (pts - 0.5) * c, axis=1))
    assert np.array_equal(pts, before)


def test_payoff_evaluations_counted():
    f = make_additive([1.0, 1.0])
    ledger = CostLedger()
    eval_point(f, [0.1, 0.2], ledger)
    f.eval_batch(np.zeros((5, 2)) + 0.5, ledger)
    assert ledger.payoff_evals == 6
    assert ledger.coordinate_draws == 0


def test_sample_means_match_known_means():
    pts = new_stream(77).draw_matrix(100_000, 4)
    for f in (make_additive(geometric_coefficients(4)),
              make_product(geometric_coefficients(4))):
        vals = f.eval_batch(pts)
        se = vals.std(ddof=1) / np.sqrt(vals.size)
        assert abs(vals.mean() - f.known_mean) < 4 * se


def test_component_orthogonality():
    # single-coordinate components of both families over common uniforms
    pts = new_stream(5).draw_matrix(100_000, 2)
    z1, z2 = pts[:, 0] - 0.5, pts[:, 1] - 0.5
    for a, b in ((z1, z2), (z1, z1 * z2)):
        w = (a - a.mean()) * (b - b.mean())
        se = w.std(ddof=1) / np.sqrt(w.size)
        assert abs(w.mean()) < 4 * se


def test_scalar_wrapper_matches_batch():
    f = scalar_integrand(lambda u: float(u[0] ** 2 + u[1]), d=2)
    pts = new_stream(3).draw_matrix(10, 2)
    assert np.allclose(f.eval_batch(pts), pts[:, 0] ** 2 + pts[:, 1])
