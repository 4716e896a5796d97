"""Command-line front end: estimators, oracles, and scaling benchmarks to CSV.

All output is deterministic given (config, seed): reals are written with 17
significant digits, rows in fixed grid order, UTF-8, comma-delimited.  Exit
codes: 0 success, 2 configuration error, 3 numerical failure.

Each flag's argparse dest is its config key.  ``main`` merges the config
files and the given flags into one config and reads its seed; a subcommand's
handler returns its default file name, CSV header, rows and message, and
``main`` writes the CSV and prints the message.  The ``config`` readers check
every value, and every statistic is checked before the handler returns: only
rows of checked columns are formatted lazily, a block at a time, as the CSV
is written.  The handler and the CSV write run under the one numpy error
state of the run, set in ``main``.
"""

from __future__ import annotations

import argparse
import os
import stat
import sys
from contextlib import suppress
from itertools import chain, islice

import numpy as np

from .anova import (DegenerateIntegrandError, NumericalFailure,
                    analytic_profile, mc_profile)
from .config import (KNOWN_KEYS, ConfigError, as_seed, chain_from_config,
                     checked_value, decay_from_config, integer,
                     integrand_from_config, load_config, read, shown_path,
                     tolerances_from_config)
from .markov import measure_decay
from .mlmc import EstimateRecord, total_budget, work_normalized_variance
from .runner import (FORK_LABELS, CellResult, lemma1_diagnostic, named_cell,
                     run_cells, run_markov_cell, variance_bound)
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

# Lines per written block, and about the rows per formatted slice of a cell:
# a run holds its cells' columns and one block, not the whole file.
_BLOCK_LINES = 1024


def _csv_blocks(path: str, header, lines):
    """The header and the rows as texts of at most ``_BLOCK_LINES`` lines,
    each checked before it is yielded.

    No cell is quoted: a string cell that held the delimiter, a quote or a
    line break would have changed the comma or line count, and is refused.
    """
    commas = len(header) - 1
    lines = chain([",".join(header)], lines)
    while block := list(islice(lines, _BLOCK_LINES)):
        text = "\n".join(block) + "\n"
        if ('"' in text or "\r" in text or text.count("\n") != len(block)
                or text.count(",") != len(block) * commas):
            raise ValueError(f"{shown_path(path)}: a CSV cell holds a delimiter, "
                             "a quote or a line break")
        yield text


def _unwritable(path: str, exc: OSError | ValueError) -> ConfigError:
    reason = exc.strerror if isinstance(exc, OSError) else exc
    return ConfigError(f"config key 'out': cannot write {shown_path(path)}: {reason}")


def _write_csv(path: str, header, lines) -> None:
    """Write the header and the rows, each already formatted by its template,
    one checked block of lines at a time.

    The target is opened only once the header's block has passed its check.
    A path that cannot be opened, written or closed is a fault of the ``out``
    key (a ValueError from ``open`` is a NUL in the path).  If anything fails
    after the open, a regular file that the path names is removed and one
    behind a link is emptied; a device or a FIFO is never touched.
    """
    blocks = _csv_blocks(path, header, lines)
    text = next(blocks)
    try:
        fd = os.open(path, os.O_WRONLY | os.O_CREAT | os.O_TRUNC, 0o666)
        opened = os.fstat(fd)
    except (OSError, ValueError) as exc:
        raise _unwritable(path, exc) from exc
    try:
        try:
            with open(fd, "w", newline="", encoding="utf-8", closefd=False) as handle:
                handle.writelines(chain((text,), blocks))
        except BaseException:
            if stat.S_ISREG(opened.st_mode):
                with suppress(OSError):
                    if os.path.samestat(opened, os.lstat(path)):
                        os.remove(path)
                    else:  # emptied through the descriptor: the link stays
                        os.ftruncate(fd, 0)
            raise
        finally:
            os.close(fd)
    except OSError as exc:
        raise _unwritable(path, exc) from exc


def _merged_config(args) -> dict[str, str]:
    """The config files, then every flag given: a flag's dest is its key,
    and its string is checked and read as a config line's value is."""
    cfg: dict[str, str] = {}
    for path in (args.config, getattr(args, "integrand_cfg", None)):
        if path:
            cfg.update(load_config(path))
    cfg.update((key, checked_value(key, value)) for key, value in vars(args).items()
               if key in KNOWN_KEYS and value is not None)
    return cfg


def _run_lines(cell: CellResult):
    """The RUN_HEADER rows of a cell, formatted, without line ends, one slice
    of about ``_BLOCK_LINES`` rows at a time."""
    summary = cell.summary
    cost = summary.cost_units
    levels = list(enumerate(summary.level_count or (), start=1))
    step = _BLOCK_LINES // max(1, len(levels))  # at most 64 levels
    for start in range(0, summary.replications, step):
        # each replication's value and cost are formatted once, not once per level
        reps = [RUN_REP % (rep, value, cost) for rep, value in
                enumerate(summary.values[start:start + step].tolist(), start)]
        if summary.level_sum is None:
            yield from (rep + ",,," for rep in reps)
            continue
        for rep, sums in zip(reps, summary.level_sum[start:start + step].tolist()):
            for (level, count), level_sum in zip(levels, sums):
                yield RUN_LEVEL_ROW % (rep, level, level_sum, count)


def cmd_anova(args, cfg, seed):
    integrand = integrand_from_config(cfg)
    if args.method == "analytic":
        profile = analytic_profile(integrand)
        se = np.zeros(integrand.dimension + 1)
    else:
        pairs = read(cfg, "pairs", integer(2), 100_000)
        stream = new_stream(seed).fork(FORK_LABELS["anova"]).fork(integrand.dimension)
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


def _statistics(summary: EstimateRecord, eps: float) -> tuple[float, ...]:
    """mean, sample_variance, mean_cost, wnv and total_budget at ``eps``: the
    statistics of a bench row and of a grid summary row."""
    return (summary.mean, summary.sample_variance, summary.mean_cost,
            work_normalized_variance(summary), total_budget(summary, eps))


def cmd_estimate(args, cfg, seed):
    if args.method is not None:
        # one cell: the method asked for, at integrand.d
        cell_cfg = {key: value for key, value in cfg.items() if key != "d_grid"}
        (cell,) = run_cells(cell_cfg | {"methods": args.method}, seed)
        return ("runs.csv", RUN_HEADER, _run_lines(cell),
                _cell_message(f"estimate {args.method}", cell))
    # no single method requested: run the configured (method, d, eps) grid
    eps_list = tolerances_from_config(cfg)  # read before any cell runs
    cells = run_cells(cfg, seed)
    summaries = []  # every statistic is checked before a byte is written
    for cell in cells:
        with named_cell(cell.method, cell.d):
            summaries.extend(GRID_SUMMARY_ROW % (cell.method, cell.d, eps,
                                                 *_statistics(cell.summary, eps))
                             for eps in eps_list)
    reps = (GRID_REP_ROW % (cell.method, cell.d, line)
            for cell in cells for line in _run_lines(cell))
    return ("runs.csv", GRID_HEADER, chain(summaries, reps),
            f"estimate grid: {len(cells)} cells")


def cmd_bench(args, cfg, seed):
    eps_list = tolerances_from_config(cfg)  # read before any cell runs
    if len(eps_list) != 1:
        raise ConfigError("config key 'eps': scaling comparison expects one tolerance")
    (eps,) = eps_list
    lines = []
    for cell in run_cells(cfg, seed):
        with named_cell(cell.method, cell.d):
            # multilevel rows carry the analytic variance bound driven by d_t
            bound = ("" if cell.method == "mc"
                     else _G % variance_bound(integrand_from_config(cfg, cell.d)))
            lines.append(BENCH_ROW % (cell.method, cell.d,
                                      *_statistics(cell.summary, eps), bound))
    return "bench.csv", BENCH_HEADER, lines, f"bench: {len(lines)} rows"


def cmd_markov(args, cfg, seed):
    root = new_stream(seed)
    if args.mode == "decay":
        model, _ = chain_from_config(cfg)
        i_values, n = decay_from_config(cfg, model.horizon)
        stream = root.fork(FORK_LABELS["decay"]).fork(model.horizon)
        report = measure_decay(model, i_values, n, stream)
        return ("decay.csv", DECAY_HEADER,
                [DECAY_ROW % (i, report.msd[k], report.se[k], report.fitted_gamma,
                              report.fitted_c_prime, report.power_r2,
                              report.geom_kappa, report.geom_theta, report.geom_r2)
                 for k, i in enumerate(report.i_values)],
                f"markov decay: gamma_hat={report.fitted_gamma:.17g} "
                f"kappa_hat={report.geom_kappa:.17g}")
    cell = run_markov_cell(cfg, read(cfg, "reps", integer(2), 1000), root)
    return "markov.csv", RUN_HEADER, _run_lines(cell), _cell_message("markov", cell)


def cmd_lemma1(args, cfg, seed):
    rows = lemma1_diagnostic(cfg, seed)
    return ("lemma1.csv", LEMMA_HEADER,
            [LEMMA_ROW % (r.family, r.d, r.report.lhs, r.report.rhs, r.report.se,
                          "true" if r.report.passed else "false") for r in rows],
            f"lemma1: {sum(r.report.passed for r in rows)}/{len(rows)} passed")


def _add_integrand_flags(parser) -> None:
    parser.add_argument("--integrand", dest="integrand_cfg", metavar="CFG",
                        help="flat config file with integrand.* keys")
    parser.add_argument("--family", dest="integrand.family", help="additive or product")
    parser.add_argument("--d", dest="integrand.d")
    parser.add_argument("--coeffs", dest="integrand.coeffs",
                        help="comma-separated coefficients, one per coordinate")
    parser.add_argument("--decay-r", dest="integrand.decay_r")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="truncmlmc",
        description="Multilevel Monte Carlo estimators whose cost tracks the "
                    "truncation dimension; deterministic CSV benchmarks.  Each "
                    "flag sets the config key shown as its metavar.")
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--seed", help="root seed (decimal integer in [0, 2**64))")
    common.add_argument("--out", help="output CSV path")
    common.add_argument("--config", help="flat key=value config file")
    common.add_argument("--threads",
                        help="any value, accepted and ignored; cells run in grid order")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("anova", parents=[common],
                       help="residual-variance profile D(0..d) and d_t to CSV")
    _add_integrand_flags(p)
    p.add_argument("--method", choices=("analytic", "mc"), default="analytic")
    p.add_argument("--pairs", help="sample pairs per index (mc method)")
    p.set_defaults(handler=cmd_anova)

    p = sub.add_parser("estimate", parents=[common],
                       help="run one estimator or the configured grid")
    _add_integrand_flags(p)
    p.add_argument("--method", choices=("mc", "mlmc", "mlmc-fixed"),
                   help="single estimator; omit to run the config's method grid")
    p.add_argument("--reps")
    p.add_argument("--mc-n", dest="mc_n", help="points per replication for the mc method")
    p.add_argument("--fix-v", dest="fix_v", help="midpoint, sample or explicit")
    p.add_argument("--v-values", dest="fix_v_values",
                   help="explicit base point for --fix-v explicit")
    p.set_defaults(handler=cmd_estimate)

    p = sub.add_parser("bench", parents=[common],
                       help="method/dimension scaling table at one tolerance")
    _add_integrand_flags(p)
    p.add_argument("--d-grid", dest="d_grid", help="comma-separated dimensions")
    p.add_argument("--eps")
    p.add_argument("--methods", help="comma-separated estimators")
    p.add_argument("--reps")
    p.add_argument("--mc-n", dest="mc_n")
    p.set_defaults(handler=cmd_bench)

    p = sub.add_parser("markov", parents=[common],
                       help="chain-functional estimator or restart-gap decay")
    p.add_argument("mode", nargs="?", choices=("estimate", "decay"),
                   default="estimate")
    p.add_argument("--preset", dest="chain.preset")
    p.add_argument("--d", dest="chain.d")
    p.add_argument("--gamma", dest="chain.gamma")
    p.add_argument("--a", dest="chain.a")
    p.add_argument("--b", dest="chain.b")
    p.add_argument("--time-varying", dest="chain.time_varying", action="store_const",
                   const="true")
    p.add_argument("--reps")
    p.add_argument("--i", dest="decay.i", help="restart depths for decay mode")
    p.add_argument("--n", dest="decay.n", help="coupled paths per depth for decay mode")
    p.set_defaults(handler=cmd_markov)

    p = sub.add_parser("lemma1", parents=[common],
                       help="level-budget inequality with measured level variances")
    _add_integrand_flags(p)
    p.add_argument("--d-grid", dest="d_grid", help="comma-separated dimensions")
    p.add_argument("--reps")
    p.set_defaults(handler=cmd_lemma1)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        cfg = _merged_config(args)
        seed = as_seed(cfg)
        # Every number a subcommand writes is checked where it is made, and a
        # non-finite one raises NumericalFailure, so numpy's overflow and
        # invalid warnings before that check are noise.  Pool threads run in
        # a copy of this context, under the same state.
        with np.errstate(over="ignore", invalid="ignore"):
            default, header, lines, message = args.handler(args, cfg, seed)
            out = cfg.get("out") or default
            _write_csv(out, header, lines)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except (NumericalFailure, DegenerateIntegrandError) as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 3
    print(f"{message} -> {shown_path(out)}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
