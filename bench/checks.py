"""Output check: is a CSV the program wrote complete, finite and right?

An invocation fails when its exit code is nonzero, its CSV is missing or has
non-finite values, its abstract unit total differs from the closed-form count
in ``workloads``, or its answer is statistically wrong:

* cube estimators (``bench`` rows, grid summary rows): the mean lies more than
  4 standard errors from the family's exact mean (0 additive, 1 product);
* ``anova``: a sampled D(i) lies more than 4 standard errors from the exact
  profile of the family, with the SE bounded from the reported one (see
  ``anova_se_bound``: the reported SE of the pooled variance is too small);
* ``markov decay``: the mean squared restart gap rises by more than 2
  standard errors from one depth to the next, or the fitted geometric rate
  ``geom_kappa`` is not below 1.

CSV bytes are deliberately not pinned here; byte identity is checked by
comparing hashes between runs of the same code and seed (see ``run.py``).
Pure Python, so the check never runs the program's own code or numpy.
"""

from __future__ import annotations

import csv
import math

BENCH_HEADER = ["method", "d", "mean", "sample_variance", "mean_cost", "wnv",
                "total_budget", "theoretical_bound"]
GRID_HEADER = ["method", "d", "eps", "record", "rep", "value", "cost_units",
               "level", "level_sum", "level_count", "mean", "sample_variance",
               "mean_cost", "wnv", "total_budget"]
RUN_HEADER = ["rep", "value", "cost_units", "level", "level_sum", "level_count"]
ANOVA_HEADER = ["i", "D", "SE", "d_t", "var_f"]
DECAY_HEADER = ["i", "msd", "se", "fitted_gamma", "fitted_c_prime", "power_r2",
                "geom_kappa", "geom_theta", "geom_r2"]

FAMILY_MEAN = {"additive": 0.0, "product": 1.0}

MEAN_SE = 4.0  # cube means and anova D(i)
DECAY_SE = 2.0  # decay monotonicity


class CheckFailed(Exception):
    """The CSV cannot be read as the expected schema."""


def _finite(text: str) -> float:
    try:
        value = float(text)
    except ValueError:
        raise CheckFailed(f"not a number: {text!r}") from None
    if not math.isfinite(value):
        raise CheckFailed(f"non-finite value {text!r}")
    return value


def _read(path, header):
    try:
        with open(path, newline="", encoding="utf-8") as handle:
            rows = list(csv.reader(handle))
    except (OSError, UnicodeDecodeError) as exc:
        raise CheckFailed(f"cannot read CSV: {exc}") from None
    if not rows or rows[0] != header:
        raise CheckFailed("missing or unexpected header")
    if any(len(row) != len(header) for row in rows[1:]):
        raise CheckFailed("row with the wrong number of fields")
    return [dict(zip(header, row)) for row in rows[1:]]


def _mean_problem(label, mean, variance, reps, exact):
    se = math.sqrt(max(variance, 0.0) / reps)
    if abs(mean - exact) > MEAN_SE * se:
        return (f"{label}: mean {mean!r} is more than {MEAN_SE:g} SE ({se:.3g}) "
                f"from the exact mean {exact!r}")
    return None


def _integral_units(mean_cost, reps, label):
    total = mean_cost * reps
    if abs(total - round(total)) > 1e-6 * max(total, 1.0):
        raise CheckFailed(f"{label}: mean_cost x reps is not a whole number of units")
    return round(total)


def _per_rep_costs(rows, key):
    """Sum replication costs once per replication of a long-format table."""
    costs = {}
    for row in rows:
        rep = key(row)
        try:
            cost = int(row["cost_units"])
        except ValueError:
            raise CheckFailed(f"replication {rep}: cost_units {row['cost_units']!r} "
                              "is not a whole number") from None
        if costs.setdefault(rep, cost) != cost:
            raise CheckFailed(f"replication {rep}: cost_units differ between its rows")
    return costs


def _check_bench(rows, p, problems):
    expected = [(m, str(d)) for m in p["methods"] for d in p["d_grid"]]
    if [(r["method"], r["d"]) for r in rows] != expected:
        raise CheckFailed("bench rows do not match the (method, d) grid")
    units = 0
    exact = FAMILY_MEAN[p["family"]]
    for r in rows:
        label = f"{r['method']} d={r['d']}"
        mean, var = _finite(r["mean"]), _finite(r["sample_variance"])
        for key in ("wnv", "total_budget"):
            _finite(r[key])
        if r["method"] != "mc":
            _finite(r["theoretical_bound"])
        units += _integral_units(_finite(r["mean_cost"]), p["reps"], label)
        problems.append(_mean_problem(label, mean, var, p["reps"], exact))
    return units


def _check_grid(rows, p, problems):
    summaries = [r for r in rows if r["record"] == "summary"]
    reps = [r for r in rows if r["record"] == "rep"]
    if len(summaries) + len(reps) != len(rows):
        raise CheckFailed("grid row that is neither summary nor rep")
    expected = [(m, str(d)) for m in p["methods"] for d in p["d_grid"]]
    if len(summaries) != len(expected) * len(p["eps"]):
        raise CheckFailed("grid summary rows do not match the (method, d, eps) grid")
    exact = FAMILY_MEAN[p["family"]]
    for r in summaries:
        label = f"{r['method']} d={r['d']} eps={r['eps']}"
        mean, var = _finite(r["mean"]), _finite(r["sample_variance"])
        for key in ("mean_cost", "wnv", "total_budget"):
            _finite(r[key])
        problems.append(_mean_problem(label, mean, var, p["reps"], exact))
    for r in reps:
        for key in ("value", "level_sum"):
            _finite(r[key])
    costs = _per_rep_costs(reps, lambda r: (r["method"], r["d"], r["rep"]))
    cells = {(m, d) for m, d, _ in costs}
    if cells != set(expected) or len(costs) != len(expected) * p["reps"]:
        raise CheckFailed("grid replication rows do not cover every cell")
    return sum(costs.values())


def _check_markov(rows, p, problems):
    for r in rows:
        for key in ("value", "level_sum"):
            _finite(r[key])
    costs = _per_rep_costs(rows, lambda r: r["rep"])
    if len(costs) != p["reps"]:
        raise CheckFailed(f"expected {p['reps']} replications, found {len(costs)}")
    return sum(costs.values())


def exact_profile(family: str, d: int) -> list[float]:
    """Residual variances D(0..d) for coefficients c_i = 2^-(i-1)."""
    a = [(0.5 ** i) ** 2 / 12.0 for i in range(d)]
    if family == "additive":
        tail = [0.0] * (d + 1)
        for i in range(d - 1, -1, -1):
            tail[i] = tail[i + 1] + a[i]
        return tail
    prefix = [1.0]
    for a_i in a:
        prefix.append(prefix[-1] * (1.0 + a_i))
    return [prefix[-1] - p_i for p_i in prefix]


def anova_se_bound(reported: list[float]) -> list[float]:
    """Upper bounds on the true standard errors of a sampled profile's D(i).

    The program reports ``SE(0)`` for the pooled variance as if its
    2(d+1)·pairs values were independent, and ``SE(i)`` as the hypot of
    that and the SE of the i-th pair covariance.  The two values of a pair
    share a prefix, so they are positively correlated:
    var(x² + y²) <= 4 var(x²) makes the true pooled-variance SE at most
    sqrt(2)·SE(0), and D(i) = var - cov has an SE of at most the sum of its
    two parts' SEs, whatever their correlation.
    """
    var_se = reported[0]
    return [math.sqrt(2.0) * var_se + math.sqrt(max(se * se - var_se * var_se, 0.0))
            for se in reported]


def _check_anova(rows, p, problems):
    d = p["d"]
    if [r["i"] for r in rows] != [str(i) for i in range(d + 1)]:
        raise CheckFailed("anova rows do not cover i = 0..d")
    exact = exact_profile(p["family"], d)
    values = [_finite(r["D"]) for r in rows]
    bounds = anova_se_bound([_finite(r["SE"]) for r in rows])
    for r, value, se, exact_i in zip(rows, values, bounds, exact):
        _finite(r["d_t"])
        _finite(r["var_f"])
        if abs(value - exact_i) > MEAN_SE * se + 1e-12 * exact[0]:
            problems.append(f"D({r['i']}) = {value!r} is more than {MEAN_SE:g} SE "
                            f"({se:.3g}) from the exact {exact_i!r}")
    return None


def _check_decay(rows, p, problems):
    if [r["i"] for r in rows] != [str(i) for i in p["i"]]:
        raise CheckFailed("decay rows do not match the requested depths")
    for r in rows:
        for key in DECAY_HEADER[1:]:
            _finite(r[key])
    msd = [_finite(r["msd"]) for r in rows]
    se = [_finite(r["se"]) for r in rows]
    for k in range(len(rows) - 1):
        if msd[k + 1] - msd[k] > DECAY_SE * math.hypot(se[k], se[k + 1]):
            problems.append(f"msd rises from i={rows[k]['i']} to i={rows[k + 1]['i']}")
    kappa = _finite(rows[0]["geom_kappa"])
    if not kappa < 1.0:
        problems.append(f"geom_kappa = {kappa!r} is not below 1")
    return None


_CHECKERS = {
    "bench": (BENCH_HEADER, _check_bench),
    "grid": (GRID_HEADER, _check_grid),
    "markov": (RUN_HEADER, _check_markov),
    "anova": (ANOVA_HEADER, _check_anova),
    "decay": (DECAY_HEADER, _check_decay),
}


def check_output(invocation: dict, returncode, csv_path) -> list[str]:
    """Problems with one invocation's result; an empty list means it passed.

    ``returncode`` is None when the invocation never ran to completion.
    Unit totals are read from the CSV where it carries them (``cost_units``,
    or ``mean_cost`` times reps); ``anova`` and ``decay`` CSVs carry none, and
    their units are the closed form alone.
    """
    if returncode != 0:
        return [f"exit code {returncode}"]
    header, checker = _CHECKERS[invocation["kind"]]
    problems: list[str | None] = []
    try:
        units = checker(_read(csv_path, header), invocation["params"], problems)
    except CheckFailed as exc:
        return [str(exc)]
    if units is not None and units != invocation["units"]:
        problems.append(f"unit total {units} differs from the exact {invocation['units']}")
    return [p for p in problems if p]
