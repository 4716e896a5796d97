"""Command-line front end: estimators, oracles, and scaling benchmarks to CSV.

All output is deterministic given (config, seed): reals are written with 17
significant digits, rows in fixed grid order, UTF-8, comma-delimited.  Exit
codes: 0 success, 2 configuration error, 3 numerical failure.

Each flag's argparse dest is its config key.  ``main`` merges the config
files and the given flags into one config and reads its seed; a subcommand's
handler returns its default file name, CSV header, rows and message, and
``main`` writes the CSV and prints the message.  The ``config`` readers check
every value.
"""

from __future__ import annotations

import argparse
import sys

import numpy as np

from .anova import (DegenerateIntegrandError, NumericalFailure,
                    analytic_profile, mc_profile)
from .config import (KNOWN_KEYS, ConfigError, as_int, as_seed,
                     chain_from_config, decay_from_config,
                     integrand_from_config, load_config)
from .markov import measure_decay
from .mlmc import total_budget, work_normalized_variance
from .runner import (FORK_LABELS, CellResult, compare_scaling,
                     lemma1_diagnostic, run_cells, run_config, run_markov_cell)
from .streams import new_stream

RUN_HEADER = ("rep", "value", "cost_units", "level", "level_sum", "level_count")
GRID_HEADER = ("method", "d", "eps", "record", "rep", "value", "cost_units",
               "level", "level_sum", "level_count", "mean", "sample_variance",
               "mean_cost", "wnv", "total_budget")
BENCH_HEADER = ("method", "d", "mean", "sample_variance", "mean_cost", "wnv",
                "total_budget", "theoretical_bound")
ANOVA_HEADER = ("i", "D", "SE", "d_t", "var_f")
DECAY_HEADER = ("i", "msd", "se", "fitted_gamma", "fitted_c_prime", "power_r2",
                "geom_kappa", "geom_theta", "geom_r2")
LEMMA_HEADER = ("family", "d", "lhs", "rhs", "rhs_se", "pass")

# One %-template per schema and row kind.  '%.17g' % x equals
# format(x, '.17g') for every float, nan, inf and -0 included; '%d' writes
# an integer exactly; '%s' takes a validated name or a formatted part.
_G = "%.17g"
ANOVA_ROW = ",".join(("%d",) + (_G,) * 4)
DECAY_ROW = ",".join(("%d",) + (_G,) * 8)
BENCH_ROW = ",".join(("%s", "%d") + (_G,) * 5 + ("%s",))
LEMMA_ROW = ",".join(("%s", "%d") + (_G,) * 3 + ("%s",))
RUN_REP = ",".join(("%d", _G, "%d"))
RUN_LEVEL_ROW = ",".join(("%s", "%d", _G, "%d"))
GRID_SUMMARY_ROW = ",".join(("%s", "%d", _G, "summary") + ("",) * 6 + (_G,) * 5)
GRID_REP_ROW = ",".join(("%s", "%d", "", "rep", "%s") + ("",) * 5)


def _write_csv(path: str, header, lines) -> None:
    """Write the header and the rows, each already formatted by its template.

    No cell is quoted: a string cell that held the delimiter, a quote or a
    line break would have changed the comma or line count, and is refused.
    """
    lines = [",".join(header), *lines]
    text = "\n".join(lines) + "\n"
    if ('"' in text or "\r" in text or text.count("\n") != len(lines)
            or text.count(",") != len(lines) * (len(header) - 1)):
        raise ValueError(f"{path}: a CSV cell holds a delimiter, a quote or a line break")
    with open(path, "w", newline="", encoding="utf-8") as handle:
        handle.write(text)


def _merged_config(args) -> dict[str, str]:
    """The config files, then every flag given: a flag's dest is its key."""
    cfg: dict[str, str] = {}
    for path in (args.config, getattr(args, "integrand_cfg", None)):
        if path:
            cfg.update(load_config(path))
    cfg.update((key, str(value)) for key, value in vars(args).items()
               if key in KNOWN_KEYS and value is not None)
    return cfg


def _run_lines(cell: CellResult):
    """The RUN_HEADER rows of a cell, formatted, without line ends."""
    summary = cell.summary
    # each replication's value and cost are formatted once, not once per level
    cost = summary.cost_units
    reps = [RUN_REP % (rep, value, cost)
            for rep, value in enumerate(summary.values.tolist())]
    if summary.level_sum is None:
        for rep in reps:
            yield rep + ",,,"
        return
    levels = list(enumerate(summary.level_count, start=1))
    for rep, sums in zip(reps, summary.level_sum.tolist()):
        for (level, count), level_sum in zip(levels, sums):
            yield RUN_LEVEL_ROW % (rep, level, level_sum, count)


def cmd_anova(args, cfg, seed):
    integrand = integrand_from_config(cfg)
    # a non-finite profile raises NumericalFailure when it is built
    if args.method == "analytic":
        with np.errstate(over="ignore", invalid="ignore"):
            profile = analytic_profile(integrand)
        se = np.zeros(integrand.dimension + 1)
    else:
        pairs = as_int(cfg, "pairs", 100_000, least=2)
        stream = new_stream(seed).fork(FORK_LABELS["anova"]).fork(integrand.dimension)
        with np.errstate(over="ignore", invalid="ignore"):
            profile = mc_profile(integrand, pairs, stream)
        se = profile.se
    return ("profile.csv", ANOVA_HEADER,
            [ANOVA_ROW % (i, D, se_i, profile.d_t, profile.var_f)
             for i, (D, se_i) in enumerate(zip(profile.D.tolist(), se.tolist()))],
            f"anova: var_f={profile.var_f:.17g} d_t={profile.d_t:.17g}")


def _cell_message(name: str, cell: CellResult) -> str:
    summary = cell.summary
    return (f"{name} d={cell.d}: mean={summary.mean:.17g} "
            f"variance={summary.sample_variance:.17g} "
            f"mean_cost={summary.mean_cost:.17g}")


def cmd_estimate(args, cfg, seed):
    if args.method is not None:
        (cell,) = run_cells(cfg, seed, (args.method,),
                            (as_int(cfg, "integrand.d", least=1),))
        return ("runs.csv", RUN_HEADER, _run_lines(cell),
                _cell_message(f"estimate {args.method}", cell))
    # no single method requested: run the configured (method, d, eps) grid
    cells, eps_list = run_config(cfg, seed)
    lines = []
    for cell in cells:
        for eps in eps_list:
            summary = cell.summary
            lines.append(GRID_SUMMARY_ROW % (
                cell.method, cell.d, eps, summary.mean, summary.sample_variance,
                summary.mean_cost, work_normalized_variance(summary),
                total_budget(summary, eps)))
    for cell in cells:
        lines.extend(GRID_REP_ROW % (cell.method, cell.d, line)
                     for line in _run_lines(cell))
    return "runs.csv", GRID_HEADER, lines, f"estimate grid: {len(cells)} cells"


def cmd_bench(args, cfg, seed):
    rows = compare_scaling(cfg, seed)
    return ("bench.csv", BENCH_HEADER,
            [BENCH_ROW % (r.method, r.d, r.mean, r.sample_variance, r.mean_cost,
                          r.wnv, r.total_budget,
                          "" if r.theoretical_bound is None
                          else _G % r.theoretical_bound) for r in rows],
            f"bench: {len(rows)} rows")


def cmd_markov(args, cfg, seed):
    root = new_stream(seed)
    if args.mode == "decay":
        model, _ = chain_from_config(cfg)
        i_values, n = decay_from_config(cfg, model.horizon)
        stream = root.fork(FORK_LABELS["decay"]).fork(model.horizon)
        # a non-finite gap raises NumericalFailure once the gaps are reduced
        with np.errstate(over="ignore", invalid="ignore"):
            report = measure_decay(model, i_values, n, stream)
        return ("decay.csv", DECAY_HEADER,
                [DECAY_ROW % (i, report.msd[k], report.se[k], report.fitted_gamma,
                              report.fitted_c_prime, report.power_r2,
                              report.geom_kappa, report.geom_theta, report.geom_r2)
                 for k, i in enumerate(report.i_values)],
                f"markov decay: gamma_hat={report.fitted_gamma:.17g} "
                f"kappa_hat={report.geom_kappa:.17g}")
    cell = run_markov_cell(cfg, as_int(cfg, "chain.d", least=2),
                           as_int(cfg, "reps", 1000, least=2), root)
    return "markov.csv", RUN_HEADER, _run_lines(cell), _cell_message("markov", cell)


def cmd_lemma1(args, cfg, seed):
    rows = lemma1_diagnostic(cfg, seed)
    return ("lemma1.csv", LEMMA_HEADER,
            [LEMMA_ROW % (r.family, r.d, r.lhs, r.rhs, r.rhs_se,
                          "true" if r.passed else "false") for r in rows],
            f"lemma1: {sum(r.passed for r in rows)}/{len(rows)} passed")


def _add_integrand_flags(parser) -> None:
    parser.add_argument("--integrand", dest="integrand_cfg", metavar="CFG",
                        help="flat config file with integrand.* keys")
    parser.add_argument("--family", dest="integrand.family",
                        choices=("additive", "product"))
    parser.add_argument("--d", dest="integrand.d", type=int)
    parser.add_argument("--coeffs", dest="integrand.coeffs",
                        help="comma-separated coefficients, one per coordinate")
    parser.add_argument("--decay-r", dest="integrand.decay_r", type=float)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="truncmlmc",
        description="Multilevel Monte Carlo estimators whose cost tracks the "
                    "truncation dimension; deterministic CSV benchmarks.  Each "
                    "flag sets the config key shown as its metavar.")
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--seed", type=int,
                        help="root seed (decimal integer in [0, 2**64))")
    common.add_argument("--out", help="output CSV path")
    common.add_argument("--config", help="flat key=value config file")
    common.add_argument("--threads", type=int,
                        help="accepted and ignored; cells run in grid order")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("anova", parents=[common],
                       help="residual-variance profile D(0..d) and d_t to CSV")
    _add_integrand_flags(p)
    p.add_argument("--method", choices=("analytic", "mc"), default="analytic")
    p.add_argument("--pairs", type=int, help="sample pairs per index (mc method)")
    p.set_defaults(handler=cmd_anova)

    p = sub.add_parser("estimate", parents=[common],
                       help="run one estimator or the configured grid")
    _add_integrand_flags(p)
    p.add_argument("--method", choices=("mc", "mlmc", "mlmc-fixed"),
                   help="single estimator; omit to run the config's method grid")
    p.add_argument("--reps", type=int)
    p.add_argument("--mc-n", dest="mc_n", type=int,
                   help="points per replication for the mc method")
    p.add_argument("--fix-v", dest="fix_v", choices=("midpoint", "sample", "explicit"))
    p.add_argument("--v-values", dest="fix_v_values",
                   help="explicit base point for --fix-v explicit")
    p.set_defaults(handler=cmd_estimate)

    p = sub.add_parser("bench", parents=[common],
                       help="method/dimension scaling table at one tolerance")
    _add_integrand_flags(p)
    p.add_argument("--d-grid", dest="d_grid", help="comma-separated dimensions")
    p.add_argument("--eps", type=float)
    p.add_argument("--methods", help="comma-separated estimators")
    p.add_argument("--reps", type=int)
    p.add_argument("--mc-n", dest="mc_n", type=int)
    p.set_defaults(handler=cmd_bench)

    p = sub.add_parser("markov", parents=[common],
                       help="chain-functional estimator or restart-gap decay")
    p.add_argument("mode", nargs="?", choices=("estimate", "decay"),
                   default="estimate")
    p.add_argument("--preset", dest="chain.preset", choices=("lindley",))
    p.add_argument("--d", dest="chain.d", type=int)
    p.add_argument("--gamma", dest="chain.gamma", type=float)
    p.add_argument("--a", dest="chain.a", type=float)
    p.add_argument("--b", dest="chain.b", type=float)
    p.add_argument("--time-varying", dest="chain.time_varying", action="store_const",
                   const="true")
    p.add_argument("--reps", type=int)
    p.add_argument("--i", dest="decay.i", help="restart depths for decay mode")
    p.add_argument("--n", dest="decay.n", type=int,
                   help="coupled paths per depth for decay mode")
    p.set_defaults(handler=cmd_markov)

    p = sub.add_parser("lemma1", parents=[common],
                       help="level-budget inequality with measured level variances")
    _add_integrand_flags(p)
    p.add_argument("--d-grid", dest="d_grid", help="comma-separated dimensions")
    p.add_argument("--reps", type=int)
    p.set_defaults(handler=cmd_lemma1)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        cfg = _merged_config(args)
        seed = as_seed(cfg)
        default, header, lines, message = args.handler(args, cfg, seed)
        out = cfg.get("out") or default
        _write_csv(out, header, lines)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except (NumericalFailure, DegenerateIntegrandError) as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 3
    print(f"{message} -> {out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
