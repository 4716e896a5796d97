"""Integrands on the unit cube and test families.

The two built-in families have closed-form means and component variances, so
estimator output can be checked against exact values:

* additive:  f(u) = sum_i c_i (u_i - 1/2),            mean 0
* product:   f(u) = prod_i (1 + c_i (u_i - 1/2)),     mean 1

Evaluators are batched: they map an (n, d) array of points to n values.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from .streams import CostLedger


@dataclass(frozen=True)
class Integrand:
    """A square-integrable function on the d-dimensional unit cube.

    ``evaluator`` is deterministic and batched.  It must be pure: the
    sampling oracle and the variance checks call it from several threads at
    once, on segments of rows, so it may keep no mutable state and a row's
    value may not depend on the other rows of the batch.  It may return a
    view of its input, such as ``points[:, 0]``: the package writes into no
    array that a value it holds may alias.  ``coefficients`` is present for
    the built-in families and feeds the analytic profile.  ``known_mean`` is
    their exact mean, which no package code reads: it is the value the tests
    compare estimates against.  ``steps_per_eval`` charges extra step units
    per point for integrands backed by a chain simulation.
    """

    dimension: int
    evaluator: Callable[[np.ndarray], np.ndarray]
    known_mean: float | None = None
    family: str | None = None  # "additive" | "product" | None
    coefficients: np.ndarray | None = None
    steps_per_eval: int = 0

    def eval_batch(self, points: np.ndarray, ledger: CostLedger | None = None) -> np.ndarray:
        """f over the rows of an (n, d) array; counts n payoff evaluations."""
        points = np.asarray(points, dtype=float)
        if points.ndim != 2 or points.shape[1] != self.dimension:
            raise ValueError(
                f"expected points of shape (n, {self.dimension}), got {points.shape}")
        if ledger is not None:
            ledger.payoff_evals += points.shape[0]
            if self.steps_per_eval:
                ledger.step_applications += self.steps_per_eval * points.shape[0]
        return np.asarray(self.evaluator(points), dtype=float).reshape(points.shape[0])


def geometric_coefficients(d: int, decay: float = 0.5) -> np.ndarray:
    """c_i = decay**(i-1): later coordinates matter geometrically less."""
    if d < 1:
        raise ValueError("dimension must be at least 1")
    with np.errstate(over="ignore"):  # an infinite c_i is rejected when validated
        return decay ** np.arange(d, dtype=float)


def _validated_coefficients(c, product: bool) -> np.ndarray:
    c = np.atleast_1d(np.asarray(c, dtype=float)).copy()
    if c.ndim != 1 or c.size < 1:
        raise ValueError("coefficients must be a nonempty vector")
    if not np.all(np.isfinite(c)):
        raise ValueError("coefficients must be finite")
    if not np.any(c != 0.0):
        raise ValueError("all-zero coefficients give a zero-variance integrand")
    if product and np.any((c <= -1.0) | (c > 1.0)):
        raise ValueError("product-family coefficients must lie in (-1, 1]")
    c.setflags(write=False)
    return c


def make_additive(c) -> Integrand:
    """Additive family f(u) = sum_i c_i (u_i - 1/2); mean 0, variance sum c_i^2/12."""
    c = _validated_coefficients(c, product=False)

    def evaluator(points: np.ndarray) -> np.ndarray:
        # an elementwise product and a row sum, not a matmul: BLAS gemv gives
        # a row other bits in batches of other shapes
        x = points - 0.5
        x *= c
        return x.sum(axis=1)

    return Integrand(dimension=c.size, evaluator=evaluator, known_mean=0.0,
                     family="additive", coefficients=c)


def make_product(c) -> Integrand:
    """Product family f(u) = prod_i (1 + c_i (u_i - 1/2)); mean 1, with
    interaction variance prod_{i in Y} c_i^2/12 for every coordinate subset Y."""
    c = _validated_coefficients(c, product=True)

    def evaluator(points: np.ndarray) -> np.ndarray:
        # the ops of 1 + (points - 0.5) * c, done in place on one temporary
        x = points - 0.5
        x *= c
        x += 1.0
        return np.prod(x, axis=1)

    return Integrand(dimension=c.size, evaluator=evaluator, known_mean=1.0,
                     family="product", coefficients=c)
