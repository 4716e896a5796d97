"""Multilevel Monte Carlo estimators keyed to prefix truncation.

The flagship estimator draws one base point, then telescopes over levels
whose prefix lengths double: the level-l increment evaluates the integrand at
a fresh prefix of length m_l spliced onto the base point, minus the same with
prefix length m_{l-1}.  Only the prefix is redrawn, so level l costs O(m_l)
draw units and a whole replication stays within 9d draw units while its
variance is governed by the truncation dimension rather than d.

The level-0 term is identically zero by convention; level 1 therefore
contributes the plain spliced value.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import accumulate
from typing import Callable, Sequence

import numpy as np

from .anova import DegenerateIntegrandError, InequalityReport, NumericalFailure
from .integrands import Integrand
from .streams import UniformStream, draw_rows


@dataclass(frozen=True)
class LevelSchedule:
    """Prefix lengths m_0..m_L and per-level replication counts n_1..n_L.

    ``m`` is strictly increasing with m_0 = 0 and m_L = d; every n_l >= 1.
    """

    m: tuple[int, ...]
    n: tuple[int, ...]

    def __post_init__(self):
        m, n = self.m, self.n
        if len(m) < 2 or m[0] != 0:
            raise ValueError("prefix lengths must start at m_0 = 0")
        if any(m[k + 1] <= m[k] for k in range(len(m) - 1)):
            raise ValueError("prefix lengths must be strictly increasing")
        if len(n) != len(m) - 1:
            raise ValueError("need one replication count per level")
        if any(nl < 1 for nl in n):
            raise ValueError("replication counts must be positive")

    @property
    def levels(self) -> int:
        return len(self.n)

    @property
    def dimension(self) -> int:
        return self.m[-1]


# Elements (points times coordinates, or chain innovations) that a chunk of
# replications may hold in its narrowest level, and a batch of them in any
# level; fixed, so memory stays bounded in reps.
_CHUNK_ELEMENTS = 2 ** 14


@dataclass(frozen=True)
class EstimateRecord:
    """R replications in columns, one per stream of an estimator call.

    ``values`` is [R].  ``costs`` [3] holds the draw, step and eval units of
    one replication: every replication of an estimator does the same work.
    Multilevel estimators add ``level_sum`` and ``level_sq`` [R, L], the sum
    and the sum of squares of each level's increments, and the increments per
    level of one replication, ``level_count`` [L].
    """

    values: np.ndarray
    costs: np.ndarray
    level_sum: np.ndarray | None = None
    level_sq: np.ndarray | None = None
    level_count: tuple[int, ...] | None = None

    @property
    def replications(self) -> int:
        return self.values.size

    @property
    def cost_units(self) -> int:
        return int(self.costs.sum())

    @property
    def mean(self) -> float:
        return float(self.values.mean())

    @property
    def sample_variance(self) -> float:
        """Unbiased sample variance of the values (R-1 divisor)."""
        return float(self.values.var(ddof=1))

    @property
    def mean_cost(self) -> float:
        return float(self.cost_units)


def dyadic_prefixes(d: int) -> tuple[int, ...]:
    """Prefix lengths (0, 1, 3, ..., 2^(L-1)-1, d) with L = ceil(log2 d)."""
    if d < 2:
        raise ValueError("dyadic schedules need dimension at least 2; "
                         "plain averaging covers d = 1")
    levels = (d - 1).bit_length()
    return tuple(2 ** l - 1 for l in range(levels)) + (d,)


def truncation_schedule(d: int) -> LevelSchedule:
    """Dyadic prefixes with n_l = ceil((d/L) 2^-l) replications per level."""
    m = dyadic_prefixes(d)
    levels = len(m) - 1
    n = tuple(-(-d // (levels << l)) for l in range(1, levels + 1))
    return LevelSchedule(m=m, n=n)


def _telescope(schedule: LevelSchedule, width: Callable[[int], int],
               prepare: Callable[[list[UniformStream]], Callable[..., np.ndarray]],
               streams: UniformStream | Sequence[UniformStream]) -> EstimateRecord:
    """The record of the telescoping sum of level means over ``schedule``,
    one replication per stream (a bare stream is one): the one cell engine.

    Level l of a replication holds n_l·``width(m_l)`` elements.  The streams
    run in chunks sized by the narrowest level, and level l of a chunk in
    batches of ``_CHUNK_ELEMENTS // (n_l·width(m_l))`` replications, at least
    one of each.  ``sample = prepare(chunk)`` books the chunk's units outside
    its levels; ``sample(level, n_l, m_lo, m_hi, rows)`` returns the
    [len(rows), n_l] increments of the chunk's ``rows``: the payoff at prefix
    length m_hi minus the payoff at m_lo, with no coarse term when m_lo = 0.
    Each batch's sums and squares go into the cell's columns before the next
    is sampled; the level means (sums over n_l, the bits of ``mean``) are
    added to 0.0 in level order at the end, so a row's bits depend on neither
    the chunk nor the batch.  The streams must share one ledger.  A chunk's
    units must split evenly over its replications (RuntimeError), and a later
    chunk whose share differs from the first's raises ValueError.
    """
    if isinstance(streams, UniformStream):
        streams = [streams]
    reps = len(streams)
    if not reps:
        raise ValueError("a chunk needs at least one stream")
    narrowest = min(n_l * width(m_l) for n_l, m_l in zip(schedule.n, schedule.m[1:]))
    size = max(1, _CHUNK_ELEMENTS // narrowest)
    level_sum = np.empty((reps, schedule.levels))
    level_sq = np.empty((reps, schedule.levels))
    costs = None
    for start in range(0, reps, size):
        chunk = list(streams[start:start + size])
        if costs is None:
            ledger = chunk[0].ledger
        if any(stream.ledger is not ledger for stream in chunk):
            raise ValueError("the streams of a chunk must share one cost ledger")
        before = ledger.snapshot()
        sample = prepare(chunk)
        for k, n_l in enumerate(schedule.n):
            m_lo, m_hi = schedule.m[k], schedule.m[k + 1]
            batch = max(1, _CHUNK_ELEMENTS // (n_l * width(m_hi)))
            for lo in range(0, len(chunk), batch):
                rows = slice(lo, min(len(chunk), lo + batch))
                diffs = sample(k + 1, n_l, m_lo, m_hi, rows)
                shape = (rows.stop - lo, n_l)
                if diffs.shape != shape:
                    raise ValueError(f"a batch of level {k + 1} returned increments of "
                                     f"shape {diffs.shape}, not {shape}")
                level_sum[start + lo:start + rows.stop, k] = diffs.sum(axis=1)
                level_sq[start + lo:start + rows.stop, k] = np.vecdot(diffs, diffs)
        delta = np.subtract(ledger.snapshot(), before)
        if np.any(delta % len(chunk)):
            raise RuntimeError(f"cost units {delta.tolist()} do not split evenly "
                               f"over {len(chunk)} replications")
        if costs is None:
            costs = delta // len(chunk)
        elif not np.array_equal(delta // len(chunk), costs):
            raise ValueError(f"a chunk's replications cost {(delta // len(chunk)).tolist()} "
                             f"units, the first chunk's {costs.tolist()}")
    values = np.zeros(reps)
    for k, n_l in enumerate(schedule.n):
        values += level_sum[:, k] / n_l
    return EstimateRecord(values, costs, level_sum, level_sq, schedule.n)


def _cube_telescope(integrand: Integrand, v: np.ndarray | None,
                    schedule: LevelSchedule,
                    streams: UniformStream | Sequence[UniformStream]) -> EstimateRecord:
    """The telescope of fresh prefixes spliced onto the base point ``v``, or
    onto a random base point per stream when ``v`` is None, whose payoff is
    charged but not evaluated.

    A level's points hold d coordinates each.  Each replication's uniforms
    come from one draw: the random base point first, if any, then every
    level's prefixes in level order, so under the truncation schedule (at
    most 9d draws per replication) a chunk draws at most 9 budgets.  A level
    whose prefix is the whole point (m_l = d) evaluates its drawn rows as
    they are: plain MC is that one level, and never reads its base point.
    """
    if schedule.dimension != integrand.dimension:
        raise ValueError("schedule dimension must match the integrand")
    d = integrand.dimension
    offsets = list(accumulate((n_l * m_l for n_l, m_l in zip(schedule.n, schedule.m[1:])),
                              initial=0 if v is not None else d))

    def prepare(chunk: list[UniformStream]):
        reps, ledger = len(chunk), chunk[0].ledger
        drawn = draw_rows(chunk, offsets[-1])
        if v is None:
            base = drawn[:, :d]
            # no level needs the value f(u'), so its payoff is charged, not evaluated
            ledger.payoff_evals += reps
            ledger.step_applications += integrand.steps_per_eval * reps
        else:
            base = np.broadcast_to(v, (reps, d))

        def sample(level: int, n_l: int, m_lo: int, m_hi: int, rows: slice) -> np.ndarray:
            prefixes = drawn[rows, offsets[level - 1]:offsets[level]]
            if m_hi == d:  # the prefix is the whole point
                flat = prefixes.reshape(-1, d)
            else:
                points = np.repeat(base[rows, None, :], n_l, axis=1)
                points[:, :, :m_hi] = prefixes.reshape(-1, n_l, m_hi)
                flat = points.reshape(-1, d)
            # copied out before the coarse splice rewrites the points, of
            # which the evaluator may return a view
            diffs = integrand.eval_batch(flat, ledger).reshape(-1, n_l).copy()
            if m_lo:
                # into flat's own view: flat may be a copy of the drawn rows
                flat.reshape(-1, n_l, d)[:, :, m_lo:m_hi] = base[rows, None, m_lo:m_hi]
                diffs -= integrand.eval_batch(flat, ledger).reshape(-1, n_l)
            return diffs

        return sample

    return _telescope(schedule, lambda m: d, prepare, streams)


def estimate_mlmc(integrand: Integrand, schedule: LevelSchedule,
                  streams: UniformStream | Sequence[UniformStream]) -> EstimateRecord:
    """Replications of the truncation-coupled estimator with a random base
    point, one per stream.

    Each draws its base point once (d draws; the cost model charges one payoff
    evaluation there), then runs the level telescope with all levels sharing
    that base point.  Unbiased for the integral for any level schedule.
    """
    return _cube_telescope(integrand, None, schedule, streams)


def estimate_mlmc_fixed(integrand: Integrand, v, schedule: LevelSchedule,
                        streams: UniformStream | Sequence[UniformStream]
                        ) -> EstimateRecord:
    """Replications with the base point fixed to v (no base-point cost), one
    per stream.

    Unbiased for the integral for every fixed v; since nothing random is
    shared across levels, its variance is exactly the sum of per-level
    increment variances divided by the replication counts.
    """
    v = np.asarray(v, dtype=float)
    if v.shape != (integrand.dimension,):
        raise ValueError(f"fixed suffix must have length {integrand.dimension}")
    if np.any((v < 0.0) | (v > 1.0)):
        raise ValueError("fixed suffix must lie in the unit cube")
    return _cube_telescope(integrand, v, schedule, streams)


def standard_mc(integrand: Integrand, n: int,
                streams: UniformStream | Sequence[UniformStream]) -> EstimateRecord:
    """Plain averages of f over n uniform points (n*d draws, n payoff
    evaluations), one per stream: the cube telescope of one level whose
    fresh prefix is the whole point, m_1 = d, so its fixed base point is
    never read.  Its record keeps no level columns."""
    if n < 1:
        raise ValueError("sample count must be positive")
    d = integrand.dimension
    record = _cube_telescope(integrand, np.zeros(d), LevelSchedule((0, d), (n,)), streams)
    return EstimateRecord(record.values, record.costs)


def summarize(record: EstimateRecord) -> EstimateRecord:
    """The record of a cell, checked: at least 2 replications, and finite
    values, sample variance and per-level sums, or NumericalFailure."""
    if record.replications < 2:
        raise ValueError("summaries need at least 2 replications")
    with np.errstate(over="ignore", invalid="ignore"):  # checked just below
        checked = [record.values, record.sample_variance, record.level_sum,
                   record.level_sq]
        if not all(np.isfinite(column).all() for column in checked
                   if column is not None):
            raise NumericalFailure("non-finite estimate")
    return record


class _Forks:
    """The sequence of ``stream.fork(j)`` for j < reps, each made afresh when
    read, so that the streams of a cell are held a chunk at a time."""

    def __init__(self, stream: UniformStream, reps: int):
        self.stream, self.reps = stream, reps

    def __len__(self) -> int:
        return self.reps

    def __getitem__(self, index):
        if isinstance(index, slice):
            return [self.stream.fork(j) for j in range(self.reps)[index]]
        return self.stream.fork(range(self.reps)[index])


def replicate(estimator: Callable[[Sequence[UniformStream]], EstimateRecord],
              reps: int, stream: UniformStream) -> EstimateRecord:
    """Run ``reps`` independent replications, replication j on ``stream.fork(j)``,
    and summarize them in one record.

    The estimator runs once, on a sequence that makes each fork when it is
    read.  The package's estimators read it a chunk at a time, in chunks that
    :func:`_telescope` sizes, so a cell holds its columns plus one chunk's
    arrays.
    Row j depends on its own stream only, so the columns do not depend on the
    chunk or batch sizes.
    """
    if reps < 2:
        raise ValueError("need at least 2 replications")
    with np.errstate(over="ignore", invalid="ignore"):  # summarize checks
        record = estimator(_Forks(stream, reps))
    if record.values.size != reps:
        raise ValueError(f"estimator returned {record.values.size} "
                         f"replications for {reps} streams")
    return summarize(record)


def level_variance_estimates(summary: EstimateRecord) -> np.ndarray:
    """Unbiased per-level increment variances from the pooled level sums."""
    if summary.level_sum is None:
        raise ValueError("summary carries no per-level sums")
    count = summary.replications * np.array(summary.level_count)
    if np.any(count < 2):
        raise ValueError("every level needs at least 2 samples")
    # a left-to-right fold: sum(axis=0) turns pairwise on a single column (L = 1)
    # and would change the pooled bits
    total = np.cumsum(summary.level_sum, axis=0)[-1]
    total_sq = np.cumsum(summary.level_sq, axis=0)[-1]
    return np.maximum((total_sq - total ** 2 / count) / (count - 1), 0.0)


def predicted_variance(summary: EstimateRecord, schedule: LevelSchedule) -> float:
    """sum_l V_l / n_l from pooled level sums; exact in expectation for
    estimators whose levels are mutually independent (fixed base point, chains)."""
    v = level_variance_estimates(summary)
    return float(np.sum(v / np.asarray(schedule.n, dtype=float)))


def samples_needed(variance: float, eps: float) -> int:
    """Replications needed to push the averaged variance to eps^2: ceil(var/eps^2),
    at least 1 where the quotient underflows to 0, or NumericalFailure when
    eps^2 underflows to 0 or the count overflows."""
    if eps <= 0.0:
        raise ValueError("eps must be positive")
    if variance <= 0.0:
        raise DegenerateIntegrandError("variance must be positive to size a budget")
    try:
        return max(1, math.ceil(variance / eps ** 2))
    except (ZeroDivisionError, OverflowError):
        raise NumericalFailure(f"no finite sample count at eps={eps!r}") from None


def work_normalized_variance(summary: EstimateRecord) -> float:
    """Mean cost times sample variance; invariant under trivial averaging."""
    wnv = summary.mean_cost * summary.sample_variance
    if not math.isfinite(wnv):
        raise NumericalFailure("work-normalized variance is not finite")
    return wnv


def total_budget(summary: EstimateRecord, eps: float) -> float:
    """Expected cost to reach variance eps^2 by independent replication."""
    budget = samples_needed(summary.sample_variance, eps) * summary.mean_cost
    if not math.isfinite(budget):
        raise NumericalFailure(f"total budget at eps={eps!r} is not finite")
    return budget


def check_level_budget_bound(m, V, nu, V_se) -> InequalityReport:
    """Check sum_i nu_i <= (sum_l sqrt(m_l V_l))^2, given the standard errors
    ``V_se`` of the level variances ``V``.

    ``nu`` must be nonincreasing with nu_d = 0 and, index-by-index at the
    prefix lengths, lower-bound the variance unexplained by each level.  The
    right-hand side is the cost-variance product of an optimally allocated
    level scheme whose level costs are the prefix lengths; the report's
    ``se`` is its delta-method standard error.
    """
    m = np.asarray(m, dtype=int)
    V = np.maximum(np.asarray(V, dtype=float), 0.0)
    V_se = np.asarray(V_se, dtype=float)
    nu = np.asarray(nu, dtype=float)
    if m[0] != 0 or np.any(np.diff(m) <= 0):
        raise ValueError("prefix lengths must be strictly increasing from 0")
    if V.shape != (m.size - 1,) or V_se.shape != V.shape:
        raise ValueError("need one variance and one standard error per level")
    if nu.size != m[-1] + 1:
        raise ValueError("nu must have one entry per index 0..d")
    if np.any(np.diff(nu) > 1e-12 * max(abs(nu[0]), 1.0)):
        raise ValueError("nu must be nonincreasing")
    if nu[-1] != 0.0:
        raise ValueError("nu must end at 0")
    root_sum = np.sum(np.sqrt(m[1:] * V))
    # d rhs / d V_l = root_sum sqrt(m_l / V_l), and 0 where V_l = 0
    positive = V > 0.0
    grad = np.zeros_like(V)
    grad[positive] = root_sum * np.sqrt(m[1:][positive] / V[positive])
    return InequalityReport(lhs=float(nu.sum()), rhs=float(root_sum ** 2),
                            se=float(np.sqrt(np.sum((grad * V_se) ** 2))))
