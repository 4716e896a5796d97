"""Scalar reference implementations, one point or one path at a time.

The package runs many replications per numpy call; these helpers do the same
work the slow, obvious way, so tests can check the batched code against them.
:func:`record_level_rows` gives those tests the level engine's rows, and
:func:`truncation_dimension` recomputes a profile's d_t from its D(i).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from truncmlmc import (ChainModel, CostLedger, DecayReport, DegenerateIntegrandError,
                       Integrand, UniformStream, VarianceProfile,
                       isotonic_nonincreasing)
from truncmlmc.markov import _decay_report


def eval_point(integrand: Integrand, u, ledger: CostLedger | None = None) -> float:
    """f(u) for a single point; counts one payoff evaluation."""
    u = np.asarray(u, dtype=float)
    if u.shape != (integrand.dimension,):
        raise ValueError(
            f"expected a point of length {integrand.dimension}, got shape {u.shape}")
    return float(integrand.eval_batch(u[None, :], ledger)[0])


@dataclass(frozen=True)
class HybridPoint:
    """Point whose first ``m`` coordinates come from ``u`` and the rest from ``u_prime``."""

    u: np.ndarray
    u_prime: np.ndarray
    m: int

    def __post_init__(self):
        u = np.asarray(self.u, dtype=float)
        u_prime = np.asarray(self.u_prime, dtype=float)
        if u.ndim != 1 or u.shape != u_prime.shape:
            raise ValueError("u and u_prime must be vectors of equal length")
        if not 0 <= self.m <= u.size:
            raise ValueError(f"prefix length m={self.m} outside [0, {u.size}]")
        object.__setattr__(self, "u", u)
        object.__setattr__(self, "u_prime", u_prime)

    def spliced(self) -> np.ndarray:
        out = self.u_prime.copy()
        out[: self.m] = self.u[: self.m]
        return out


def eval_hybrid(integrand: Integrand, point: HybridPoint,
                ledger: CostLedger | None = None) -> float:
    """Evaluate the integrand at the spliced point (one payoff evaluation).

    With ``m == d`` this is exactly ``eval_point(integrand, point.u)``.  The
    level-0 term of the multilevel estimators is identically zero by
    convention and is handled by the level schedule, not by a special prefix
    length here.
    """
    return eval_point(integrand, point.spliced(), ledger)


def scalar_integrand(f: Callable[[np.ndarray], float], d: int,
                     known_mean: float | None = None) -> Integrand:
    """Wrap a black-box single-point function as a (slow) batched integrand."""

    def evaluator(points: np.ndarray) -> np.ndarray:
        return np.array([f(row) for row in points], dtype=float)

    return Integrand(dimension=d, evaluator=evaluator, known_mean=known_mean)


@dataclass(frozen=True)
class ChainPath:
    """One simulated trajectory with its innovations and terminal payoff."""

    states: np.ndarray
    uniforms: np.ndarray
    payoff: float


def chain_step(model: ChainModel, t: int, x: float, y: float) -> float:
    """One path's state after step t from state x with uniform y: the
    model's increment and in-place update on one-element arrays."""
    state = np.full(1, x)
    model.step(t, state, model.increment(np.array([[t]]), np.full((1, 1), y))[0])
    return float(state[0])


def chain_payoff(model: ChainModel, x: float) -> float:
    return float(np.asarray(model.payoff(np.full(1, x)), dtype=float)[0])


def simulate_chain(model: ChainModel, stream: UniformStream) -> ChainPath:
    """Run the chain over its full horizon: d draws, d steps, one payoff."""
    d = model.horizon
    ledger = stream.ledger
    ys = stream.draw(d)
    states = np.empty(d + 1)
    states[0] = model.initial_state
    x = float(model.initial_state)
    for t in range(d):
        x = chain_step(model, t, x, ys[t])
        states[t + 1] = x
    ledger.step_applications += d
    ledger.payoff_evals += 1
    return ChainPath(states=states, uniforms=ys, payoff=chain_payoff(model, x))


def simulate_restart(model: ChainModel, i: int, uniforms,
                     ledger: CostLedger | None = None) -> float:
    """Payoff of the chain restarted from its initial state i steps before the end.

    ``uniforms`` supplies the final i innovations in time order; the restart
    applies exactly i steps, so it costs O(i).  With i = d and the original
    innovations this reproduces the full chain exactly.
    """
    d = model.horizon
    if not 0 <= i <= d:
        raise ValueError(f"restart depth i={i} outside [0, {d}]")
    uniforms = np.asarray(uniforms, dtype=float)
    if uniforms.shape != (i,):
        raise ValueError(f"expected {i} innovations, got shape {uniforms.shape}")
    x = float(model.initial_state)
    for k in range(i):
        x = chain_step(model, d - i + k, x, uniforms[k])
    if ledger is not None:
        ledger.step_applications += i
        ledger.payoff_evals += 1
    return chain_payoff(model, x)


def coupled_level_pair(model: ChainModel, m_hi: int, m_lo: int,
                       stream: UniformStream) -> float:
    """One coupled increment: restart payoff at depth m_hi minus depth m_lo.

    Both restarts share the freshly drawn final innovations (the shallow one
    uses the trailing m_lo of them), which is what keeps the increment small.
    The depth-0 term is the constant 0 by the level-0 convention.
    """
    if not 0 <= m_lo < m_hi <= model.horizon:
        raise ValueError("need 0 <= m_lo < m_hi <= horizon")
    ys = stream.draw(m_hi)
    ledger = stream.ledger
    hi = simulate_restart(model, m_hi, ys, ledger)
    if m_lo == 0:
        return hi
    return hi - simulate_restart(model, m_lo, ys[m_hi - m_lo:], ledger)


def independent_restart_payoffs(model: ChainModel, depths: Sequence[int],
                                z: np.ndarray) -> np.ndarray:
    """Payoffs [len(depths), paths] of each restart stepped on its own: a
    one-dimensional state array per depth i, from the initial state, on the
    last i rows of the increments ``z``, whose row k is time d - len(z) + k."""
    d, rows = model.horizon, len(z)
    pays = np.empty((len(depths), z.shape[1]))
    for j, i in enumerate(depths):
        x = np.full(z.shape[1], float(model.initial_state))
        for k in range(rows - i, rows):
            model.step(d - rows + k, x, z[k])
        pays[j] = np.asarray(model.payoff(x), dtype=float)
    return pays


def record_level_rows(module, monkeypatch):
    """Patch ``module._telescope`` to keep every level batch's increments.

    Returns ``rows``, filled as the telescope runs with ``rows[level, j]``,
    the increments of the replication whose stream's last fork label is j,
    and ``sizes``, with ``sizes[level]`` the rows of each batch in turn.
    """
    rows, sizes = {}, {}
    telescope = module._telescope

    def recording(schedule, width, prepare, streams):
        def recorded_prepare(chunk):
            sample = prepare(chunk)

            def recorded(level, n_l, m_lo, m_hi, part):
                diffs = sample(level, n_l, m_lo, m_hi, part)
                sizes.setdefault(level, []).append(len(diffs))
                for stream, row in zip(chunk[part], diffs):
                    rows[level, stream.path[-1]] = row
                return diffs
            return recorded
        return telescope(schedule, width, recorded_prepare, streams)

    monkeypatch.setattr(module, "_telescope", recording)
    return rows, sizes


def prefix_redraw_payoff(model: ChainModel, path: ChainPath, i: int,
                         stream: UniformStream) -> float:
    """Redraw the final i innovations of a cached trajectory and re-pay.

    Keeps states up to time d-i, applies i fresh steps: i draws, i steps, one
    payoff evaluation.  With i = 0 the cached payoff is returned at zero cost;
    with i = d this is a full independent resimulation.
    """
    d = model.horizon
    if not 0 <= i <= d:
        raise ValueError(f"redraw depth i={i} outside [0, {d}]")
    if i == 0:
        return path.payoff
    ledger = stream.ledger
    ys = stream.draw(i)
    x = float(path.states[d - i])
    for k in range(i):
        x = chain_step(model, d - i + k, x, ys[k])
    ledger.step_applications += i
    ledger.payoff_evals += 1
    return chain_payoff(model, x)


def truncation_dimension(profile: VarianceProfile) -> float:
    """sum_i D(i) / var_f; lies in [1, d] for any valid profile."""
    if profile.var_f <= 0.0:
        raise DegenerateIntegrandError("truncation dimension requires positive variance")
    return float(profile.D.sum() / profile.var_f)


def _jansen_mean_and_se(f_a: list[float], f_i: list[float]) -> tuple[float, float]:
    """Mean of the Jansen terms ``(f_a - f_i)**2`` and the standard error of
    that mean, each reduced with ``math.fsum``."""
    n = len(f_a)
    terms = [(x - y) ** 2 for x, y in zip(f_a, f_i)]
    mean = math.fsum(terms) / n
    var = math.fsum((t - mean) ** 2 for t in terms) / (n - 1)
    return mean, math.sqrt(var / n)


def reference_radial_index(integrand: Integrand, i: int, n: int,
                           stream: UniformStream) -> tuple[float, float]:
    """One index of the radial design done serially on whole matrices: A,
    then B, each [n, d] from ``stream`` at its counter; the Jansen terms of
    f(A) and f of A spliced with B's columns i..d-1, as their mean and the
    standard error of that mean."""
    d = integrand.dimension
    a = stream.draw_matrix(n, d)
    b = stream.draw_matrix(n, d)
    f_a = integrand.eval_batch(a, stream.ledger).tolist()
    spliced = np.hstack([a[:, :i], b[:, i:]])
    return _jansen_mean_and_se(f_a, integrand.eval_batch(spliced, stream.ledger).tolist())


def reference_mc_profile(integrand: Integrand, n_pairs: int,
                         stream: UniformStream) -> VarianceProfile:
    """The radial sampling oracle done serially on whole matrices: A, then B,
    each [n, d] from fork 0; for each i < d, the Jansen terms of f(A) and
    f of A spliced with B's columns i..d-1, reduced with ``math.fsum`` to
    half their mean and the standard error of that mean; then the isotonic
    fit."""
    d, n = integrand.dimension, n_pairs
    fork = stream.fork(0)
    a = fork.draw_matrix(n, d)
    b = fork.draw_matrix(n, d)
    f_a = integrand.eval_batch(a, stream.ledger).tolist()
    raw = np.zeros(d + 1)
    se = np.zeros(d + 1)
    for i in range(d):
        spliced = np.hstack([a[:, :i], b[:, i:]])
        mean, se_mean = _jansen_mean_and_se(
            f_a, integrand.eval_batch(spliced, stream.ledger).tolist())
        raw[i] = 0.5 * mean
        se[i] = 0.5 * se_mean
    D = isotonic_nonincreasing(raw)
    var_f = float(D[0])
    if var_f <= 0.0:
        raise DegenerateIntegrandError("sampled variance estimate is not positive")
    return VarianceProfile(D=D, var_f=var_f, d_t=float(D.sum() / var_f),
                           source="mc", se=se, raw_D=raw)


def _step_array(model: ChainModel, t: int, states: np.ndarray,
                y: np.ndarray) -> None:
    """Step one array of paths on its own, with increments of its own."""
    model.step(t, states, model.increment(np.array([[t]]), y[None])[0])


def reference_measure_decay(model: ChainModel, i_values: Sequence[int], n: int,
                            stream: UniformStream) -> DecayReport:
    """The restart-gap decay done serially on full-length path arrays, one
    array per restart: step t takes ``stream.draw(n)``, every i-step restart
    rides along the full chain, and each depth's squared payoff gaps give its
    mean and standard error, which the package's fits then take."""
    d = model.horizon
    i_vals = tuple(int(i) for i in i_values)
    ledger = stream.ledger
    x0 = float(model.initial_state)
    full = np.full(n, x0)
    restarts: dict[int, np.ndarray | None] = {i: None for i in i_vals}
    for t in range(d):
        y = stream.draw(n)
        _step_array(model, t, full, y)
        ledger.step_applications += n
        for i in i_vals:
            if t == d - i:
                restarts[i] = np.full(n, x0)
            if restarts[i] is not None:
                _step_array(model, t, restarts[i], y)
                ledger.step_applications += n
    pf_full = np.asarray(model.payoff(full), dtype=float)
    ledger.payoff_evals += n
    msd = np.empty(len(i_vals))
    se = np.empty(len(i_vals))
    for k, i in enumerate(i_vals):
        states = restarts[i] if restarts[i] is not None else np.full(n, x0)
        sq = (pf_full - np.asarray(model.payoff(states), dtype=float)) ** 2
        ledger.payoff_evals += n
        msd[k] = sq.mean()
        se[k] = sq.std(ddof=1) / math.sqrt(n)
    return _decay_report(i_vals, msd, se)
