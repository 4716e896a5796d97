"""Config-driven experiment execution: estimator cells and the level-budget diagnostic.

Every cell of the (method, d) grid derives its randomness from the root seed
through fixed fork labels, so adding methods or grid points never perturbs the
draws of existing cells.  Cells run one after another in grid order.
"""

from __future__ import annotations

import math
from contextlib import contextmanager
from dataclasses import dataclass
from functools import partial

import numpy as np

from .anova import InequalityReport, analytic_profile
from .config import (METHODS, ConfigError, chain_from_config, choice,
                     fixed_point_from_config, integer, integrand_from_config,
                     items, read)
from .integrands import Integrand
from .markov import estimate_chain_mlmc
from .mlmc import (EstimateRecord, LevelSchedule, NumericalFailure,
                   check_level_budget_bound, estimate_mlmc, estimate_mlmc_fixed,
                   level_variance_estimates, replicate, standard_mc,
                   truncation_schedule)
from .streams import UniformStream, new_stream

# Fork labels under the root seed, one per randomness consumer.  Fixed for
# output stability; never reuse or renumber.
FORK_LABELS = {
    "mc": 0,
    "mlmc": 1,
    "mlmc-fixed": 2,
    "sample-v": 3,
    "anova": 4,
    "decay": 5,
    "markov": 6,
    "lemma1": 7,
}


@dataclass(frozen=True)
class CellResult:
    """One (method, d) cell: its replications, pooled into columns."""

    method: str
    d: int
    summary: EstimateRecord


def resolve_fixed_point(mode: str, d: int, root: UniformStream,
                        explicit=None) -> np.ndarray:
    """Base point for the fixed-suffix estimator: midpoint, sampled, or given."""
    if mode == "midpoint":
        return np.full(d, 0.5)
    if mode == "sample":
        return root.fork(FORK_LABELS["sample-v"]).fork(d).draw(d)
    if mode == "explicit":
        v = np.asarray(explicit if explicit is not None else (), dtype=float)
        if v.shape != (d,):
            raise ConfigError(f"config key 'fix_v_values': expected {d} entries")
        return v
    raise ValueError(f"unknown fixed-point mode {mode!r}")


def variance_bound(integrand: Integrand) -> float:
    """16 ceil(log2 d)/d * d_t * var_f from the analytic profile, or
    NumericalFailure when it overflows."""
    profile = analytic_profile(integrand)
    d = integrand.dimension
    bound = 16.0 * math.ceil(math.log2(d)) / d * profile.d_t * profile.var_f
    if not math.isfinite(bound):
        raise NumericalFailure(f"variance bound at d={d} is not finite")
    return bound


def _multilevel_schedule(method: str, d: int) -> LevelSchedule:
    if d < 2:
        raise ConfigError(f"cell method={method} d={d}: multilevel estimators "
                          "need dimension at least 2")
    return truncation_schedule(d)


@contextmanager
def named_cell(method: str, d: int):
    """Re-raise a NumericalFailure of the block with the cell's method and d."""
    try:
        yield
    except NumericalFailure as exc:
        raise NumericalFailure(f"cell method={method} d={d}: {exc}") from exc


def _replicate_cell(method: str, d: int, estimator, reps: int,
                    root: UniformStream) -> EstimateRecord:
    """Replicate ``estimator`` on the cell's labelled stream; failures name
    the cell."""
    with named_cell(method, d):
        return replicate(estimator, reps, root.fork(FORK_LABELS[method]).fork(d))


def run_estimator_cell(method: str, integrand: Integrand, reps: int,
                       root: UniformStream, mc_n: int = 1,
                       fix_v: str = "midpoint", fix_v_values=None) -> CellResult:
    """Run one (method, d) cell on its labelled stream and summarize it."""
    if method not in METHODS:
        raise ConfigError(f"unknown method {method!r}; expected one of {METHODS}")
    d = integrand.dimension
    if method == "mc":
        estimator = partial(standard_mc, integrand, mc_n)
    elif method == "mlmc":
        estimator = partial(estimate_mlmc, integrand, _multilevel_schedule(method, d))
    else:
        v = resolve_fixed_point(fix_v, d, root, fix_v_values)
        estimator = partial(estimate_mlmc_fixed, integrand, v,
                            _multilevel_schedule(method, d))
    return CellResult(method, d, _replicate_cell(method, d, estimator, reps, root))


def run_markov_cell(cfg: dict[str, str], reps: int, root: UniformStream) -> CellResult:
    """Run the configured chain's cell, at its horizon d, on its labelled stream."""
    model, gamma = chain_from_config(cfg)
    d = model.horizon
    summary = _replicate_cell("markov", d, partial(estimate_chain_mlmc, model, gamma),
                              reps, root)
    return CellResult("markov", d, summary)


def _d_grid(cfg: dict[str, str]) -> tuple[int, ...]:
    """The dimensions to run: the config's ``d_grid``, else ``integrand.d``
    alone."""
    return (read(cfg, "d_grid", items(integer(1)), None)
            or (read(cfg, "integrand.d", integer(1)),))


def run_cells(cfg: dict[str, str], seed: int) -> list[CellResult]:
    """Run the config's (method, d) cells in grid order; ``reps``, ``mc_n``
    and the fixed point are the config's, each read and checked once."""
    methods = read(cfg, "methods", items(choice(METHODS)), ("mc", "mlmc"))
    d_grid = _d_grid(cfg)
    reps = read(cfg, "reps", integer(2), 1000)
    mc_n = read(cfg, "mc_n", integer(1), 1)
    fix_v, fix_v_values = fixed_point_from_config(cfg)
    root = new_stream(seed)
    return [run_estimator_cell(method, integrand_from_config(cfg, d), reps, root,
                               mc_n, fix_v, fix_v_values)
            for method in methods for d in d_grid]


@dataclass(frozen=True)
class LevelBudgetRow:
    """Level-budget inequality outcome for one (family, d)."""

    family: str
    d: int
    report: InequalityReport


def lemma1_diagnostic(cfg: dict[str, str], seed: int) -> list[LevelBudgetRow]:
    """Check the level-budget inequality with measured level variances, on
    the config's ``d_grid`` (else ``integrand.d``) with its ``reps``.

    Level variances come from the fixed-base-point estimator (independent
    levels, so the inequality's hypotheses hold for its levels), the residual
    sequence from the analytic profile.  Pass requires lhs <= rhs + 4 SE(rhs),
    the rule of :class:`anova.InequalityReport`.
    """
    d_grid = _d_grid(cfg)
    reps = read(cfg, "reps", integer(2), 2000)
    root = new_stream(seed)
    rows = []
    for d in d_grid:
        integrand = integrand_from_config(cfg, d)
        schedule = _multilevel_schedule("lemma1", d)
        v = np.full(d, 0.5)
        summary = _replicate_cell(
            "lemma1", d, partial(estimate_mlmc_fixed, integrand, v, schedule), reps, root)
        V = level_variance_estimates(summary)
        counts = summary.replications * np.array(summary.level_count)
        V_se = V * np.sqrt(2.0 / (counts - 1.0))
        nu = analytic_profile(integrand).D
        with named_cell("lemma1", d):
            report = check_level_budget_bound(schedule.m, V, nu, V_se)
        rows.append(LevelBudgetRow(integrand.family, d, report))
    return rows
