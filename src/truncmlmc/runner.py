"""Config-driven experiment execution: estimator cells, scaling tables, diagnostics.

Every cell of the (method, d) grid derives its randomness from the root seed
through fixed fork labels, so adding methods or grid points never perturbs the
draws of existing cells.  Cells run one after another in grid order.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import partial

import numpy as np

from .anova import analytic_profile
from .config import (METHODS, ConfigError, as_choice_list, as_int, as_int_list,
                     chain_from_config, fixed_point_from_config,
                     integrand_from_config, tolerances_from_config)
from .integrands import Integrand
from .markov import chain_width, estimate_chain_mlmc, markov_schedule
from .mlmc import (EstimateRecord, LevelSchedule, NumericalFailure,
                   check_level_budget_bound, cube_width, estimate_mlmc,
                   estimate_mlmc_fixed, level_budget_rhs_se,
                   level_variance_estimates, replicate, standard_mc,
                   total_budget, truncation_schedule, work_normalized_variance)
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
class BenchRow:
    """One (method, d) cell of a scaling comparison."""

    method: str
    d: int
    mean: float
    sample_variance: float
    mean_cost: float
    wnv: float
    total_budget: float
    theoretical_bound: float | None


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


def variance_bound(integrand: Integrand) -> float | None:
    """16 ceil(log2 d)/d * d_t * var_f when the analytic profile exists."""
    if integrand.family is None:
        return None
    profile = analytic_profile(integrand)
    d = integrand.dimension
    return 16.0 * math.ceil(math.log2(d)) / d * profile.d_t * profile.var_f


def _multilevel_schedule(method: str, d: int) -> LevelSchedule:
    if d < 2:
        raise ConfigError(f"cell method={method} d={d}: multilevel estimators "
                          "need dimension at least 2")
    return truncation_schedule(d)


def _replicate_cell(method: str, d: int, estimator, reps: int,
                    root: UniformStream, width: int) -> EstimateRecord:
    """Replicate ``estimator``, whose replications are ``width`` elements wide,
    on the cell's labelled stream; failures name the cell."""
    try:
        return replicate(estimator, reps, root.fork(FORK_LABELS[method]).fork(d), width)
    except NumericalFailure as exc:
        raise NumericalFailure(f"cell method={method} d={d}: {exc}") from exc


def run_estimator_cell(method: str, integrand: Integrand, reps: int,
                       root: UniformStream, mc_n: int = 1,
                       fix_v: str = "midpoint", fix_v_values=None) -> CellResult:
    """Run one (method, d) cell on its labelled stream and summarize it."""
    if method not in METHODS:
        raise ConfigError(f"unknown method {method!r}; expected one of {METHODS}")
    d = integrand.dimension
    if method == "mc":
        estimator, width = partial(standard_mc, integrand, mc_n), mc_n * d
    elif method == "mlmc":
        schedule = _multilevel_schedule(method, d)
        estimator, width = partial(estimate_mlmc, integrand, schedule), cube_width(schedule)
    else:
        v = resolve_fixed_point(fix_v, d, root, fix_v_values)
        schedule = _multilevel_schedule(method, d)
        estimator = partial(estimate_mlmc_fixed, integrand, v, schedule)
        width = cube_width(schedule)
    return CellResult(method, d, _replicate_cell(method, d, estimator, reps, root,
                                                 width))


def run_markov_cell(cfg: dict[str, str], d: int, reps: int,
                    root: UniformStream) -> CellResult:
    model, gamma = chain_from_config(cfg, d)
    schedule = markov_schedule(d, gamma)
    estimator = partial(estimate_chain_mlmc, model, gamma, schedule=schedule)
    summary = _replicate_cell("markov", d, estimator, reps, root,
                              chain_width(schedule))
    return CellResult("markov", d, summary)


def _d_grid(cfg: dict[str, str], d_grid=None) -> tuple[int, ...]:
    """The dimensions to run: ``d_grid`` if given, else the config's
    ``d_grid``, else ``integrand.d`` alone; an empty grid is a ConfigError."""
    if d_grid is None:
        d_grid = as_int_list(cfg, "d_grid", None, least=1)
    if d_grid is None:
        d_grid = (as_int(cfg, "integrand.d", least=1),)
    if not d_grid:
        raise ConfigError("config key 'd_grid': empty grid")
    return tuple(d_grid)


def run_cells(cfg: dict[str, str], seed: int, methods=None,
              d_grid=None) -> list[CellResult]:
    """Run the (method, d) cells in grid order: ``methods`` and ``d_grid`` if
    given, else the config's; ``reps``, ``mc_n`` and the fixed point are the
    config's, each read and checked once."""
    if methods is None:
        methods = as_choice_list(cfg, "methods", METHODS, ("mc", "mlmc"))
    d_grid = _d_grid(cfg, d_grid)
    reps = as_int(cfg, "reps", 1000, least=2)
    mc_n = as_int(cfg, "mc_n", 1, least=1)
    fix_v, fix_v_values = fixed_point_from_config(cfg)
    root = new_stream(seed)
    return [run_estimator_cell(method, integrand_from_config(cfg, d), reps, root,
                               mc_n, fix_v, fix_v_values)
            for method in methods for d in d_grid]


def run_config(cfg: dict[str, str], seed: int):
    """Execute all requested (method, d, eps) cells of an integrand experiment.

    Returns (cell results in grid order, eps list); the CSV layer turns these
    into per-replication rows plus one summary row per (method, d, eps).
    """
    eps_list = tolerances_from_config(cfg)
    return run_cells(cfg, seed), eps_list


def compare_scaling(cfg: dict[str, str], seed: int) -> list[BenchRow]:
    """Total budgets across the d grid at one tolerance, per method.

    MLMC rows also carry the analytic variance bound driven by the truncation
    dimension, the quantity the measured variance is expected to respect.
    """
    eps_list = tolerances_from_config(cfg)
    if len(eps_list) != 1:
        raise ConfigError("config key 'eps': scaling comparison expects one tolerance")
    (eps,) = eps_list
    rows = []
    for cell in run_cells(cfg, seed):
        integrand = integrand_from_config(cfg, cell.d)
        bound = variance_bound(integrand) if cell.method != "mc" else None
        rows.append(BenchRow(
            method=cell.method, d=cell.d, mean=cell.summary.mean,
            sample_variance=cell.summary.sample_variance,
            mean_cost=cell.summary.mean_cost,
            wnv=work_normalized_variance(cell.summary),
            total_budget=total_budget(cell.summary, eps),
            theoretical_bound=bound))
    return rows


@dataclass(frozen=True)
class LevelBudgetRow:
    """Level-budget inequality outcome for one (family, d)."""

    family: str
    d: int
    lhs: float
    rhs: float
    rhs_se: float
    passed: bool


def lemma1_diagnostic(cfg: dict[str, str], seed: int, d_grid=None,
                      reps: int | None = None) -> list[LevelBudgetRow]:
    """Check the level-budget inequality with measured level variances.

    Level variances come from the fixed-base-point estimator (independent
    levels, so the inequality's hypotheses hold for its levels), the residual
    sequence from the analytic profile.  Pass requires lhs <= rhs + 4 SE(rhs).
    """
    d_grid = _d_grid(cfg, d_grid)
    if reps is None:
        reps = as_int(cfg, "reps", 2000, least=2)
    root = new_stream(seed)
    rows = []
    for d in d_grid:
        integrand = integrand_from_config(cfg, d)
        if integrand.family is None:
            raise ConfigError("level-budget diagnostic needs a family integrand")
        schedule = _multilevel_schedule("lemma1", d)
        v = np.full(d, 0.5)
        summary = _replicate_cell(
            "lemma1", d, partial(estimate_mlmc_fixed, integrand, v, schedule), reps,
            root, cube_width(schedule))
        V = level_variance_estimates(summary)
        counts = summary.replications * np.array(summary.level_count)
        V_se = V * np.sqrt(2.0 / np.maximum(counts - 1.0, 1.0))
        nu = analytic_profile(integrand).D
        rhs_se = level_budget_rhs_se(schedule.m, V, V_se)
        report = check_level_budget_bound(schedule.m, V, nu, slack=4.0 * rhs_se)
        rows.append(LevelBudgetRow(family=integrand.family, d=d, lhs=report.lhs,
                                   rhs=report.rhs, rhs_se=rhs_se,
                                   passed=report.passed))
    return rows
