"""Residual-variance profiles, truncation dimension, and variance-inequality checks.

For a square-integrable f on the unit cube, ``D(i)`` is the variance carried
by interaction terms that involve any coordinate beyond the first ``i``.  It
decreases from ``D(0) = var(f(U))`` to ``D(d) = 0``, and the truncation
dimension is ``d_t = sum_i D(i) / var(f(U))``.

Two routes produce a profile:

* :func:`analytic_profile` uses the closed-form component variances of the
  additive/product families.
* :func:`mc_profile` is a sampling oracle for black-box integrands.  It uses
  Jansen's identity ``D(i) = E[(f(V) - f(V'))^2] / 2`` where V and V' are
  uniform on the cube and share exactly their first i coordinates: the
  difference cancels every term of the ANOVA decomposition that involves
  only the first i coordinates.  It takes every pair from one radial design
  (Saltelli et al., Comput. Phys. Commun. 181, 2010): V is a row of a base
  matrix A, and V' for index i is that row with columns i..d-1 taken from a
  second matrix B, so one A and one B serve every i.  The rows run in fixed
  segments, two consecutive segments to a task on a thread pool, one thread
  per usable CPU at most; a task evaluates its two segments in one call per
  i, and each segment's per-i sums are pooled in segment order.  The
  variance checks run on the same design and the same tasks, for their one
  i.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .integrands import Integrand
from .streams import CostLedger, UniformStream, pool_blocks, run_parts

# Elements of A (and of B) per segment of the radial design.  Unlike the
# decay's row blocks, sized by mlmc._CHUNK_ELEMENTS, the segments set the
# order of the design's sums, so this constant is part of the output bytes.
_SEGMENT_ELEMENTS = 2 ** 14
# Segments per pool task, which evaluates them in one call per index.  With
# one segment per task, every numpy call covered 16K elements or fewer, and
# two threads spent the run passing the GIL: mc_profile of the product family
# at d = 32 with 20,000 pairs took 0.118 s on two threads and 0.125 s on one
# (2 vCPUs, minima of 15 runs).  With two it takes 0.080 s on two threads and
# 0.106 s on one.  Four bought no more wall time than two and raised the
# oracle_bulk benchmark's peak RSS by 4.5%.  The segments, not the tasks,
# fix the sums, so this constant sets no bit.
_SEGMENTS_PER_TASK = 2


class UnsupportedIntegrandError(ValueError):
    """Raised when an operation needs analytic family data the integrand lacks."""


class DegenerateIntegrandError(ValueError):
    """Raised when an estimated variance is not positive."""


class NumericalFailure(RuntimeError):
    """An estimate, a variance or a profile came out non-finite."""


@dataclass(frozen=True)
class VarianceProfile:
    """Residual variances D(0..d), total variance, and truncation dimension.

    For a sampled profile, ``D`` is the isotonic (nonincreasing) adjustment of
    the raw estimates kept in ``raw_D``; ``se`` holds per-index standard
    errors of the raw estimates.  ``D[0] = var_f`` and ``D[d] = 0``.
    """

    D: np.ndarray
    var_f: float
    d_t: float
    source: str  # "analytic" | "mc"
    se: np.ndarray | None = None
    raw_D: np.ndarray | None = None

    def __post_init__(self):
        D = np.asarray(self.D, dtype=float)
        object.__setattr__(self, "D", D)
        parts = [D, self.var_f, self.d_t] + ([] if self.se is None else [self.se])
        if not all(np.isfinite(part).all() for part in parts):
            raise NumericalFailure(f"non-finite {self.source} profile")
        if self.var_f <= 0.0:
            raise DegenerateIntegrandError("profile requires positive variance")
        tol = 1e-9 * max(self.var_f, 1.0)
        if np.any(np.diff(D) > tol):
            raise ValueError("residual variances must be nonincreasing")
        if abs(D[0] - self.var_f) > tol or abs(D[-1]) > tol:
            raise ValueError("profile endpoints must be D[0]=var_f and D[d]=0")

    @property
    def dimension(self) -> int:
        return self.D.size - 1


@dataclass(frozen=True)
class InequalityReport:
    """Outcome of a sampled inequality check lhs <= rhs, where ``se`` is the
    standard error of lhs - rhs; a non-finite field raises NumericalFailure."""

    lhs: float
    rhs: float
    se: float

    def __post_init__(self):
        if not np.isfinite((self.lhs, self.rhs, self.se)).all():
            raise NumericalFailure(f"non-finite inequality check: lhs={self.lhs!r}, "
                                   f"rhs={self.rhs!r}, se={self.se!r}")

    @property
    def passed(self) -> bool:
        """The one pass rule of every check: lhs <= rhs + 4 se."""
        return self.lhs <= self.rhs + 4.0 * self.se


def isotonic_nonincreasing(y: np.ndarray) -> np.ndarray:
    """L2 projection onto nonincreasing sequences (pool adjacent violators)."""
    blocks: list[list[float]] = []  # [sum, count]
    for v in np.asarray(y, dtype=float):
        s, c = float(v), 1.0
        while blocks and blocks[-1][0] * c < s * blocks[-1][1]:
            ps, pc = blocks.pop()
            s += ps
            c += pc
        blocks.append([s, c])
    return np.concatenate([np.full(int(c), s / c) for s, c in blocks])


def _component_variances(integrand: Integrand) -> np.ndarray:
    if integrand.family not in ("additive", "product") or integrand.coefficients is None:
        raise UnsupportedIntegrandError(
            "analytic profile requires an additive or product family integrand")
    return np.asarray(integrand.coefficients, dtype=float) ** 2 / 12.0


def analytic_profile(integrand: Integrand) -> VarianceProfile:
    """Exact profile from the family's closed-form component variances.

    ``d_t`` is derived independently of ``D`` (from the variance-weighted
    highest-coordinate index of each component), so the identity
    ``sum_i D(i) = d_t * var_f`` is a genuine cross-check of two derivations.
    """
    a = _component_variances(integrand)
    d = integrand.dimension
    idx = np.arange(1, d + 1, dtype=float)
    if integrand.family == "additive":
        # subsets are singletons {j}: D(i) sums the a_j with j > i.
        # var_f is read off D[0] so the endpoint identity is bit-exact.
        D = np.concatenate([np.cumsum(a[::-1])[::-1], [0.0]])
        var_f = float(D[0])
        dt_var = float(np.dot(idx, a))
    else:
        # subsets Y with max(Y) <= i contribute prod_{j in Y} a_j: prefix products
        prefix = np.concatenate([[1.0], np.cumprod(1.0 + a)])
        # D(i) = prefix[i] * (S_i - 1) with S_i = prod_{j > i} (1 + a_j); the
        # recursion for S_i - 1 adds positive terms only, so a tiny tail keeps
        # its relative accuracy where prefix[-1] - prefix[i] would cancel
        tail = np.zeros(d + 1)
        for j in range(d - 1, -1, -1):
            tail[j] = (1.0 + a[j]) * tail[j + 1] + a[j]
        D = prefix * tail
        var_f = float(D[0])
        # grouping subsets by their largest element j gives weight a_j * prefix[j-1]
        dt_var = float(np.dot(idx, a * prefix[:-1]))
    if var_f <= 0.0:
        raise DegenerateIntegrandError("profile requires positive variance")
    return VarianceProfile(D=D, var_f=var_f, d_t=dt_var / var_f, source="analytic")


def _centred_squares(values: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Sums and centred sums of squares of ``values`` along its last axis,
    with the operations and bits of ``mean`` and ``std(ddof=1)``: ``values``
    is centred, then squared, in place.  The one reduction of the radial
    design's segments, the residual check and the decay's gap rows."""
    sums = values.sum(axis=-1)
    # the transpose broadcasts the means without a [..., None] view's allocation
    np.subtract(values.T, sums / values.shape[-1], out=values.T)
    values *= values
    return sums, values.sum(axis=-1)


def _var_and_se(values: np.ndarray) -> tuple[float, float]:
    """Sample variance and its standard error.  Overwrites ``values``: they
    are centred, then squared twice, in place."""
    n = values.size
    var = float(_centred_squares(values)[1] / (n - 1))
    values *= values
    mu4 = float(values.mean())
    se = float(np.sqrt(max(mu4 - var ** 2, 0.0) / n))
    return var, se


def _segments(n: int, d: int) -> list[tuple[int, int]]:
    """Rows ``0..n`` of the radial design as ``(start, stop)`` segments of
    ``_SEGMENT_ELEMENTS // d`` rows, at least one; the last may be shorter.

    The segments fix the order in which the design's sums are taken, so
    they depend on (n, d) alone, and the bits on no machine property.
    """
    rows = max(1, _SEGMENT_ELEMENTS // d)
    return [(start, min(start + rows, n)) for start in range(0, n, rows)]


def _radial_sums(integrand: Integrand, a: np.ndarray, b: np.ndarray,
                 ledger: CostLedger, indices: list[int],
                 segments: list[tuple[int, int]]
                 ) -> list[tuple[np.ndarray, np.ndarray]]:
    """Sums and centred sums of squares [len(indices)] of the Jansen terms
    ``(f(A) - f(A_B^(i)))**2`` over rows [m, d] of A and B, for each i of the
    descending ``indices``; ``A_B^(i)`` is A with columns i..d-1 taken from B.
    One pair per ``(start, stop)`` of ``segments``, which split the m rows:
    each segment's terms are reduced on their own by :func:`_centred_squares`.

    Overwrites ``a``: for each i, the columns from i up to the previous index
    (d at first) are copied from ``b``, then f is evaluated on all m rows, so
    i = d copies nothing and its terms are exactly 0.  f(A) is copied before
    the first column changes, since an evaluator may return a view of its
    input.
    """
    m, last = a.shape
    f_a = np.array(integrand.eval_batch(a, ledger))
    terms = np.empty((len(indices), m))
    for k, i in enumerate(indices):
        a[:, i:last] = b[:, i:last]
        last = i
        np.subtract(f_a, integrand.eval_batch(a, ledger), out=terms[k])
    terms *= terms
    return [_centred_squares(terms[:, start:stop]) for start, stop in segments]


def _radial(integrand: Integrand, indices: list[int], n: int,
            stream: UniformStream) -> tuple[np.ndarray, np.ndarray]:
    """Mean and standard error [len(indices)] of the Jansen terms
    ``(f(A) - f(A_B^(i)))**2`` of the radial design, for each i of the
    descending ``indices``.

    A and B, each [n, d], are drawn row-major from ``stream`` at its counter,
    A first, and the counter advances by ``2 d n``.  The rows run in
    segments of ``_SEGMENT_ELEMENTS // d`` rows, ``_SEGMENTS_PER_TASK``
    consecutive segments to a task on :func:`streams.run_parts`, with up to
    one thread per usable CPU, so the evaluator must be safe to call from
    several threads at once.  A task draws its rows of A and B at their
    offsets in the stream, evaluates all its rows in one call per i, and
    reduces each segment's terms to per-i sums and centred sums of squares,
    which are pooled in segment order.  The segments depend only on (n, d),
    so neither the bits nor the units booked on the stream's ledger depend
    on the thread count or on how the segments are grouped into tasks.
    """
    d = integrand.dimension
    base = stream.counter
    segments = _segments(n, d)

    def run_task(part: UniformStream, block: tuple[int, int]):
        group = segments[block[0]:block[1]]
        start, stop = group[0][0], group[-1][1]
        part.counter = base + start * d
        a = part.draw_matrix(stop - start, d)
        part.counter = base + (n + start) * d
        b = part.draw_matrix(stop - start, d)
        return _radial_sums(integrand, a, b, part.ledger, indices,
                            [(lo - start, hi - start) for lo, hi in group])

    tasks = run_parts(run_task, stream,
                      pool_blocks(len(segments), _SEGMENTS_PER_TASK), 2 * d * n)
    sums, m2 = (np.array(column) for column in
                zip(*(pair for task in tasks for pair in task)))
    # pool the segments exactly: M2 = sum_s M2_s + sum_s m_s (mean_s - mean)^2
    rows = np.array([stop - start for start, stop in segments], dtype=float)[:, None]
    mean = sums.sum(axis=0) / n
    spread = sums / rows - mean
    m2 = m2.sum(axis=0) + (rows * spread * spread).sum(axis=0)
    return mean, np.sqrt(m2 / (n - 1) / n)


def mc_profile(integrand: Integrand, n_pairs: int, stream: UniformStream) -> VarianceProfile:
    """Sampling oracle for the residual-variance profile of a black-box integrand.

    The radial design (Saltelli et al., Comput. Phys. Commun. 181, 2010): fork
    0 of ``stream`` gives two [n_pairs, d] matrices A and B, row-major, A
    first.  For each i, the pairs ``(A, A_B^(i))`` share exactly their first
    i coordinates, where ``A_B^(i)`` is A with columns i..d-1 taken from B.
    ``raw_D[i]`` is Jansen's estimate: half the mean of the terms
    ``(f(A) - f(A_B^(i)))**2``, with ``se[i]`` the standard error of that
    mean from their sample variance.  ``A_B^(0)`` is B, so ``raw_D[0]``
    estimates var(f); ``A_B^(d)`` is A, so ``raw_D[d] = se[d] = 0``.  Every
    i shares A, so the estimates of different i are correlated, but each
    ``se[i]`` is valid for its own i.  ``D`` is the projection of ``raw_D``
    onto nonincreasing sequences and ``var_f = D[0]``.

    The books are ``2 d n`` draws and ``(d + 1) n`` evaluations, plus
    ``steps_per_eval (d + 1) n`` steps: at d = 32 and n = 20,000, 1.94M
    units, against 33.0M for an independent pair sample of every i.  The
    work runs in tasks of two segments on a thread pool (see
    :func:`_radial`), so the evaluator must be safe to call from several
    threads at once; the profile and the units booked on the stream's
    ledger do not depend on the thread count.  The memory is one task per
    thread: its rows of A and B, its [d, rows] terms and the evaluator's
    temporaries, each of about ``2 * _SEGMENT_ELEMENTS`` floats, and no
    [d + 1, n] array.
    """
    if n_pairs < 2:
        raise ValueError("n_pairs must be at least 2")
    d = integrand.dimension
    mean, se_mean = _radial(integrand, list(range(d - 1, -1, -1)), n_pairs,
                            stream.fork(0))
    raw = np.zeros(d + 1)
    se = np.zeros(d + 1)
    raw[:d] = 0.5 * mean[::-1]
    se[:d] = 0.5 * se_mean[::-1]
    D = isotonic_nonincreasing(raw)
    var_f = float(D[0])
    if var_f <= 0.0:
        raise DegenerateIntegrandError("sampled variance estimate is not positive")
    return VarianceProfile(D=D, var_f=var_f, d_t=float(D.sum() / var_f),
                           source="mc", se=se, raw_D=raw)


def _check_arguments(integrand: Integrand, i: int, n: int) -> None:
    if not 0 <= i <= integrand.dimension:
        raise ValueError(f"index i={i} outside [0, {integrand.dimension}]")
    if n < 2:
        raise ValueError("n must be at least 2")


def check_pair_variance_bound(integrand: Integrand, i: int, profile: VarianceProfile,
                              n: int, stream: UniformStream) -> InequalityReport:
    """Check var(f(V) - f(V')) <= 4 D(i) on n shared-prefix pairs.

    The bound holds because the difference only involves interaction terms
    reaching past coordinate i, each appearing twice.  The pairs are those of
    index i of the radial design drawn from ``stream`` (see :func:`_radial`):
    ``2 d n`` draws and ``2 n`` evaluations.
    """
    _check_arguments(integrand, i, n)
    if profile.dimension != integrand.dimension:
        raise ValueError(f"profile of dimension {profile.dimension} for an "
                         f"integrand of dimension {integrand.dimension}")
    # V and V' are exchangeable, so E[f(V) - f(V')] = 0 and the mean square of
    # the differences is an unbiased estimate of their variance
    mean, se = _radial(integrand, [i], n, stream)
    return InequalityReport(lhs=float(mean[0]), rhs=4.0 * float(profile.D[i]),
                            se=float(se[0]))


def check_residual_lower_bound(integrand: Integrand, g, i: int, n: int,
                               stream: UniformStream) -> InequalityReport:
    """Check D(i) <= var(f(U) - g(U_1..U_i)) for a batched g on the first i coordinates.

    No function of the first i coordinates can explain more variance than the
    conditional expectation, whose residual variance is exactly D(i).  For a
    black-box integrand, D(i) is Jansen's estimate on index i of the radial
    design drawn from fork 0 of ``stream``.
    """
    _check_arguments(integrand, i, n)
    ledger = stream.ledger
    if integrand.family is not None:
        lhs = float(analytic_profile(integrand).D[i])
        lhs_se = 0.0
    else:
        mean, se = _radial(integrand, [i], n, stream.fork(0))
        lhs, lhs_se = 0.5 * float(mean[0]), 0.5 * float(se[0])
    points = stream.fork(1).draw_matrix(n, integrand.dimension)
    residual = integrand.eval_batch(points, ledger) - np.asarray(
        g(points[:, :i]), dtype=float)
    rhs, rhs_se = _var_and_se(residual)
    return InequalityReport(lhs=lhs, rhs=rhs, se=float(np.hypot(lhs_se, rhs_se)))
