"""Time-varying Markov chain functionals and their multilevel estimation.

A chain X_0..X_d evolves by X_{t+1} = step(t, X_t, increment(t, Y_t)) with
independent uniform innovations Y_t, and the target is the expected terminal
payoff.  The level-l approximation restarts the chain from its initial state
m_l steps before the horizon and reuses the final m_l innovations, so it can
be simulated in O(m_l) time and couples tightly to the full chain whenever
the chain forgets its past.  Coordinates are indexed backwards in time
(coordinate k of the equivalent cube integrand is the innovation k steps
before the end), which puts the influential inputs first.

Every chain simulation (the levels, plain chain MC, the decay and the chain
integrand) runs through one kernel, :func:`_restart_payoffs`: the restarts
started so far are the leading rows of one [k, paths] state array, which one
call per time step updates in place on the increments the restarts share.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import partial
from typing import Callable, Iterable, Sequence

import numpy as np

from . import mlmc
from .anova import NumericalFailure, _centred_squares
from .integrands import Integrand
from .mlmc import EstimateRecord, LevelSchedule, _telescope, dyadic_prefixes
from .streams import CostLedger, UniformStream, draw_rows, pool_blocks, run_parts

LINDLEY_A = -0.6
LINDLEY_B = 0.4


@dataclass(frozen=True)
class ChainModel:
    """Time-varying chain: increments and an in-place state update per time
    index, payoff at the horizon.

    ``increment(t, y)`` maps a time-major block of uniforms to the chain's
    increments: ``t`` is a column of time indices, ``y`` is [k, paths] with
    row r drawn for time ``t[r, 0]``, and the result has ``y``'s shape.  The
    engine only reads the increments, so the result may be ``y`` itself.
    ``step(t, x, z)`` advances the [k, paths] states ``x`` by one time step,
    writing into ``x``; its rows are k restarts that share ``z``, the
    [paths] increments of time ``t``.  ``payoff(x)`` returns the terminal
    payoffs of [k, paths] states.

    All three must be deterministic, constant-cost, and elementwise over
    their array arguments.  They must also be row-independent and keep no
    state between calls, since :func:`measure_decay` calls them on blocks of
    paths from several threads at once: a path's result may depend only on
    its own elements, never on the batch it is computed in.
    """

    horizon: int
    initial_state: float
    increment: Callable[[np.ndarray, np.ndarray], np.ndarray]
    step: Callable[[int, np.ndarray, np.ndarray], None]
    payoff: Callable[[np.ndarray], np.ndarray]


@dataclass(frozen=True)
class DecayReport:
    """Mean squared payoff gap between the chain and its i-step restarts.

    Least-squares fits of log(msd): ``fitted_gamma``/``fitted_c_prime`` from
    regression on log(i+1) (power law), ``geom_kappa``/``geom_theta`` from
    regression on i (geometric).
    """

    i_values: tuple[int, ...]
    msd: np.ndarray
    se: np.ndarray
    fitted_gamma: float
    fitted_c_prime: float
    power_r2: float
    geom_kappa: float
    geom_theta: float
    geom_r2: float


def _restart_payoffs(model: ChainModel, depths: Sequence[int],
                     increments: Iterable[np.ndarray], paths: int,
                     ledger: CostLedger | None = None) -> np.ndarray:
    """Terminal payoffs [len(depths), paths] of the chains restarted from the
    initial state at the nonincreasing ``depths`` before the horizon.

    ``increments`` yields the restarts' shared [paths] increments of each
    step from ``horizon - depths[0]`` on, each pulled once, when its step
    runs.  The restarts started so far are the leading rows of one state
    array, so a step is one ``model.step`` call.  Books paths·sum(depths)
    steps and len(depths)·paths payoffs on ``ledger``, if given.
    """
    d = model.horizon
    states = np.full((len(depths), paths), float(model.initial_state))
    rows = iter(increments)
    # phase j runs from restart j's start to the next one's, on rows 0..j
    for j, (start, end) in enumerate(zip(depths, (*depths[1:], 0))):
        x = states[:j + 1]
        for t, z in zip(range(d - start, d - end), rows):
            model.step(t, x, z)
    if ledger is not None:
        ledger.step_applications += paths * sum(depths)
        ledger.payoff_evals += states.size
    return np.asarray(model.payoff(states), dtype=float).reshape(states.shape)


def markov_schedule(d: int, gamma: float) -> LevelSchedule:
    """Dyadic prefixes with n_l = ceil(d 2^(l(gamma-1)/2)) replications per level.

    Requires gamma < -1: for slower payoff-gap decay the level variance sums
    diverge and no schedule of this shape controls the variance.  The exact
    n_l is positive, so one replication is kept where the power underflows.
    """
    if gamma >= -1.0:
        raise ValueError("decay exponent gamma must be below -1")
    m = dyadic_prefixes(d)
    levels = len(m) - 1
    n = tuple(max(1, math.ceil(d * 2.0 ** (l * (gamma - 1.0) / 2.0)))
              for l in range(1, levels + 1))
    return LevelSchedule(m=m, n=n)


def estimate_chain_mlmc(model: ChainModel, gamma: float,
                        streams: UniformStream | Sequence[UniformStream]
                        ) -> EstimateRecord:
    """Replications of the restart-coupled multilevel estimator on
    ``markov_schedule(horizon, gamma)``, one per stream.

    Level l of a replication runs on its stream's fork l, so levels are
    mutually independent; within a level the n_l coupled increments are iid,
    so the estimator variance is exactly sum_l V_l / n_l.  Unbiased for the
    expected terminal payoff.

    Level l of a replication holds n_l·m_l innovations, the width by which
    :func:`mlmc._telescope` sizes its chunks and level batches.  A batch
    computes its increments in one block and steps all its paths together.
    """
    d = model.horizon
    schedule = markov_schedule(d, gamma)
    times = np.arange(d)[:, None]

    def sample(chunk: list[UniformStream], level: int, n_l: int, m_lo: int,
               m_hi: int, rows: slice) -> np.ndarray:
        # one row of innovations per path, a replication's n_l paths adjacent;
        # transposed so that row k holds every path's increment of step k
        ys = draw_rows([s.fork(level) for s in chunk[rows]], n_l * m_hi)
        ys = np.ascontiguousarray(ys.reshape(-1, m_hi).T)
        z = model.increment(times[d - m_hi:], ys)
        del ys  # only the increments stay alive while the states step
        # the fine restart, and from m_lo steps before the end the coarse one
        depths = (m_hi, m_lo) if m_lo else (m_hi,)
        pays = _restart_payoffs(model, depths, z, z.shape[1], chunk[0].ledger)
        pays = pays.reshape(len(depths), -1, n_l)
        return pays[0] - pays[1] if m_lo else pays[0]

    return _telescope(schedule, lambda m: m, lambda chunk: partial(sample, chunk),
                      streams)


def standard_mc_chain(model: ChainModel, n: int,
                      streams: UniformStream | Sequence[UniformStream]
                      ) -> EstimateRecord:
    """Average terminal payoffs over n full-horizon paths advanced in lockstep,
    one average per stream: the one-level telescope of width 1, since a path
    holds one state.  Each stream draws its n innovations of step t when the
    step runs; the record keeps no level columns."""
    if n < 1:
        raise ValueError("path count must be positive")
    d = model.horizon
    times = np.arange(d)[:, None]

    def sample(chunk: list[UniformStream], level: int, n_l: int, m_lo: int,
               m_hi: int, rows: slice) -> np.ndarray:
        part = chunk[rows]
        increments = (model.increment(times[t:t + 1], draw_rows(part, n).reshape(1, -1))[0]
                      for t in range(d))
        return _restart_payoffs(model, (d,), increments, len(part) * n,
                                chunk[0].ledger).reshape(len(part), n)

    record = _telescope(LevelSchedule((0, d), (n,)), lambda m: 1,
                        lambda chunk: partial(sample, chunk), streams)
    return EstimateRecord(record.values, record.costs)


def _loglinear_fit(x: np.ndarray, log_y: np.ndarray) -> tuple[float, float, float]:
    slope, intercept = np.polyfit(x, log_y, 1)
    residuals = log_y - (slope * x + intercept)
    ss_res = float(np.dot(residuals, residuals))
    centered = log_y - log_y.mean()
    ss_tot = float(np.dot(centered, centered))
    r2 = 1.0 - ss_res / ss_tot if ss_tot > 0.0 else float(ss_res == 0.0)
    return float(slope), float(intercept), r2


def measure_decay(model: ChainModel, i_values: Sequence[int], n: int,
                  stream: UniformStream) -> DecayReport:
    """Estimate the mean squared payoff gap to the i-step restart for each i.

    The restarts ride along the full chain, sharing its trailing increments,
    in one :func:`_restart_payoffs` call per block of paths on
    :func:`streams.run_parts`.  At step t a block draws its rows of the
    stream's next n uniforms at their offsets, and at the end it writes its
    squared gaps into its slice of one [len(i_values), n] array, which is
    then reduced at full length, in place, by :func:`anova._centred_squares`.
    The estimates, the fits and the units booked on the stream's ledger are
    the same at any block size and thread count.  Both decay fits are least
    squares on log(msd) over the i with positive estimates.  Raises
    NumericalFailure when a gap or its SE is not finite.
    """
    if n < 2:
        raise ValueError("need at least 2 coupled paths")
    d = model.horizon
    i_vals = tuple(int(i) for i in i_values)
    if any(i < 0 or i > d for i in i_vals):
        raise ValueError(f"restart depths must lie in [0, {d}]")
    if len(set(i_vals)) != len(i_vals):
        raise ValueError("restart depths must not repeat")
    base = stream.counter
    sq = np.empty((len(i_vals), n))
    # the full chain, then the restarts by descending depth
    depths = (d, *sorted(i_vals, reverse=True))
    times = np.arange(d)[:, None]

    def run_block(part: UniformStream, block: tuple[int, int]) -> None:
        start, stop = block

        def increments():
            for t in range(d):
                part.counter = base + t * n + start
                yield model.increment(times[t:t + 1], part.draw(stop - start)[None])[0]

        pays = _restart_payoffs(model, depths, increments(), stop - start, part.ledger)
        for k, i in enumerate(i_vals):
            gaps = sq[k, start:stop]
            np.subtract(pays[0], pays[depths.index(i, 1)], out=gaps)
            gaps *= gaps

    run_parts(run_block, stream, pool_blocks(n, mlmc._CHUNK_ELEMENTS), d * n)
    sums, m2 = _centred_squares(sq)
    msd = sums / n
    se = np.sqrt(m2 / (n - 1)) / math.sqrt(n)
    if not (np.isfinite(msd).all() and np.isfinite(se).all()):
        raise NumericalFailure("non-finite payoff gap")
    return _decay_report(i_vals, msd, se)


def _decay_report(i_vals: tuple[int, ...], msd: np.ndarray,
                  se: np.ndarray) -> DecayReport:
    """The report of the gaps ``msd`` and their ``se``, with both decay fits
    of log(msd) over the i with positive estimates."""
    keep = msd > 0.0
    if np.count_nonzero(keep) >= 2:
        iv = np.asarray(i_vals, dtype=float)[keep]
        log_msd = np.log(msd[keep])
        gamma, log_c, power_r2 = _loglinear_fit(np.log(iv + 1.0), log_msd)
        log_kappa, log_theta, geom_r2 = _loglinear_fit(iv, log_msd)
    else:
        gamma = log_c = power_r2 = log_kappa = log_theta = geom_r2 = float("nan")
    return DecayReport(i_values=i_vals, msd=msd, se=se,
                       fitted_gamma=gamma, fitted_c_prime=math.exp(log_c),
                       power_r2=power_r2, geom_kappa=math.exp(log_kappa),
                       geom_theta=math.exp(log_theta), geom_r2=geom_r2)


def uniform_increments(a: float = LINDLEY_A, b: float = LINDLEY_B):
    """Increment family with uniform(a, b) increments at every time index.

    Each increment is a + (b - a)·y, here computed as (y·(b - a)) + a in
    place, which has the same bits.
    """
    if not b > a:
        raise ValueError("need b > a")
    width = b - a

    def zeta(t, y):
        z = np.multiply(y, width)
        z += a
        return z

    return zeta


def modulated_uniform_increments(d: int, a: float = LINDLEY_A, b: float = LINDLEY_B):
    """Genuinely time-varying increments: each end of the support swings by
    0.1 sin(2 pi t / d) around a fixed center, so the mean drift is constant
    while the per-step drift integral stays below 1 for every time index."""
    if not b > a:
        raise ValueError("need b > a")

    def zeta(t, y):
        # the support of each time index in Python floats, math.sin once per t
        lo, width = [], []
        for i in np.ravel(t).tolist():
            s = 0.1 * math.sin(2.0 * math.pi * i / d)
            lo.append(a - s)
            width.append((b + s) - (a - s))
        z = np.multiply(y, np.reshape(width, np.shape(t)))
        z += np.reshape(lo, np.shape(t))
        return z

    return zeta


def make_lindley(d: int, zeta=None) -> ChainModel:
    """Waiting-time recursion x <- max(x + increment, 0) from an empty queue.

    ``zeta(t, y)`` is the model's increment map (see :class:`ChainModel`);
    the default is uniform(-0.6, 0.4), which has drift -0.1 and drift
    integral 0.943 at unit tilt.  The payoff is the terminal state itself.
    """
    if zeta is None:
        zeta = uniform_increments()

    def step(t, x, z):
        np.add(x, z, out=x)
        np.maximum(x, 0.0, out=x)

    def payoff(x):
        return x

    return ChainModel(horizon=d, initial_state=0.0, increment=zeta, step=step,
                      payoff=payoff)


def drift_integral(zeta_at_y, theta: float) -> float:
    """256-node Gauss-Legendre value of the exponential drift integral of one
    increment function: the integral over y in [0,1] of exp(theta * zeta(y)).

    Values below 1 certify geometric forgetting of the initial state for the
    waiting-time recursion.
    """
    if theta <= 0.0:
        raise ValueError("tilt theta must be positive")
    nodes, weights = np.polynomial.legendre.leggauss(256)
    y = 0.5 * (nodes + 1.0)
    values = np.exp(theta * np.asarray(zeta_at_y(y), dtype=float))
    if not np.all(np.isfinite(values)):
        raise ValueError("drift integrand is not finite on [0, 1]")
    return float(0.5 * weights @ values)


def chain_integrand(model: ChainModel) -> Integrand:
    """Expose the chain payoff as an integrand on the unit cube.

    Coordinate k (1-based) of a point is the innovation k steps before the
    horizon, so restart depth corresponds to prefix length.  Each evaluation
    charges the d chain steps it performs.
    """
    d = model.horizon
    times = np.arange(d)[:, None]

    def evaluator(points: np.ndarray) -> np.ndarray:
        # time-major: row t holds every point's coordinate d - t
        z = model.increment(times, np.ascontiguousarray(points.T[::-1]))
        return _restart_payoffs(model, (d,), z, points.shape[0])[0]

    return Integrand(dimension=d, evaluator=evaluator, steps_per_eval=d)
