"""Workload definitions: the CLI invocations each workload runs, built from a seed.

A workload is a fixed list of ``truncmlmc`` CLI invocations.  The benchmark
seed only chooses the ``--seed`` each invocation passes to the program, so
every seed runs the same amount of work, and the abstract cost units of the
workload are an exact constant.  Those units are derived here in closed form
from the invocation parameters and the paper's cost model (one coordinate
draw = one chain step = one payoff evaluation = 1 unit), independently of the
program; the output check compares them with what the program reports.

Why each workload exists, and which layers it loads, is in README.md.
"""

from __future__ import annotations

import math
import random

WORKLOADS = ("cube_mlmc", "chain_mlmc", "oracle_bulk")


# --- closed-form abstract cost units ------------------------------------------

def dyadic_prefixes(d: int) -> list[int]:
    """Prefix lengths 0, 1, 3, ..., 2^(L-1)-1, d with L = ceil(log2 d)."""
    levels = (d - 1).bit_length()
    return [2 ** level - 1 for level in range(levels)] + [d]


def cube_rep_units(method: str, d: int) -> int:
    """Units of one replication of a cube estimator (plain MC with one point)."""
    if method == "mc":
        return d + 1
    m = dyadic_prefixes(d)
    levels = len(m) - 1
    n = [-(-d // (levels << level)) for level in range(1, levels + 1)]
    draws = sum(n_l * m_l for n_l, m_l in zip(n, m[1:]))
    evals = n[0] + 2 * sum(n[1:])  # level 1 has no coarse term
    if method == "mlmc":  # random base point: d draws and one payoff up front
        draws += d
        evals += 1
    return draws + evals


def chain_rep_units(d: int, gamma: float) -> int:
    """Units of one restart-coupled chain replication with the dyadic schedule."""
    m = dyadic_prefixes(d)
    units = 0
    for level in range(1, len(m)):
        n_l = math.ceil(d * 2.0 ** (level * (gamma - 1.0) / 2.0))
        m_hi, m_lo = m[level], m[level - 1]
        coarse = 1 if m_lo > 0 else 0
        units += n_l * m_hi  # draws
        units += n_l * (m_hi + m_lo)  # steps of the fine and the coarse restart
        units += n_l * (1 + coarse)  # payoffs
    return units


def anova_units(d: int, pairs: int) -> int:
    """Shared-prefix pair sampling for every i = 0..d: draws plus two evals per pair."""
    return sum(pairs * i + 2 * pairs * (d - i) + 2 * pairs for i in range(d + 1))


def decay_units(d: int, i_values, n: int) -> int:
    """One full-horizon batch plus an i-step restart per depth, one payoff each."""
    draws = d * n
    steps = d * n + sum(i * n for i in i_values)
    evals = n + len(i_values) * n
    return draws + steps + evals


# --- workloads ------------------------------------------------------------------

def _join(values) -> str:
    return ",".join(str(v) for v in values)


def _cube_mlmc(seeds, threads):
    bench = {"family": "additive", "d_grid": [4, 16, 64, 256],
             "methods": ["mc", "mlmc", "mlmc-fixed"], "reps": 600}
    grid = {"family": "product", "d_grid": [16, 256],
            "methods": ["mlmc", "mlmc-fixed"], "eps": [0.01, 0.005], "reps": 300}
    return [
        {"name": "bench_additive", "kind": "bench", "params": bench,
         "argv": ["bench", "--family", bench["family"],
                  "--d-grid", _join(bench["d_grid"]),
                  "--methods", _join(bench["methods"]), "--eps", "0.01",
                  "--reps", str(bench["reps"]), "--threads", "1",
                  "--seed", str(next(seeds))],
         "units": sum(bench["reps"] * cube_rep_units(method, d)
                      for method in bench["methods"] for d in bench["d_grid"])},
        {"name": "grid_product", "kind": "grid", "params": grid,
         "config": "\n".join([
             f"seed = {next(seeds)}",
             f"integrand.family = {grid['family']}",
             f"methods = {_join(grid['methods'])}",
             f"d_grid = {_join(grid['d_grid'])}",
             f"eps = {_join(grid['eps'])}",
             f"reps = {grid['reps']}", ""]),
         "argv": ["estimate", "--config", "{config}", "--threads", str(threads)],
         "units": sum(grid["reps"] * cube_rep_units(method, d)
                      for method in grid["methods"] for d in grid["d_grid"])},
    ]


def _chain_mlmc(seeds, threads):
    invocations = []
    for d, reps in ((1024, 60), (64, 600)):
        params = {"d": d, "gamma": -2.0, "reps": reps}
        invocations.append(
            {"name": f"markov_d{d}", "kind": "markov", "params": params,
             "argv": ["markov", "--preset", "lindley", "--d", str(d),
                      "--gamma", "-2", "--reps", str(reps),
                      "--seed", str(next(seeds))],
             "units": reps * chain_rep_units(d, params["gamma"])})
    return invocations


def _oracle_bulk(seeds, threads):
    invocations = []
    for family in ("product", "additive"):
        params = {"family": family, "d": 32, "pairs": 20_000}
        invocations.append(
            {"name": f"anova_{family}", "kind": "anova", "params": params,
             "argv": ["anova", "--family", family, "--d", "32", "--method", "mc",
                      "--pairs", str(params["pairs"]), "--seed", str(next(seeds))],
             "units": anova_units(params["d"], params["pairs"])})
    decay = {"d": 256, "i": [4, 8, 16, 32, 64], "n": 100_000}
    invocations.append(
        {"name": "decay_d256", "kind": "decay", "params": decay,
         "argv": ["markov", "decay", "--d", "256", "--gamma", "-2",
                  "--i", _join(decay["i"]), "--n", str(decay["n"]),
                  "--seed", str(next(seeds))],
         "units": decay_units(decay["d"], decay["i"], decay["n"])})
    return invocations


_MAKERS = {"cube_mlmc": _cube_mlmc, "chain_mlmc": _chain_mlmc,
             "oracle_bulk": _oracle_bulk}


def build(workload: str, seed: int, threads: int) -> list[dict]:
    """The workload's invocations for ``seed``; the same seed gives the same list.

    Each invocation has a ``name``, a ``kind`` naming its CSV schema,
    ``params`` for the output check, ``argv`` without ``--out`` (and with a
    ``{config}`` placeholder when it reads a generated ``config`` text), and
    its exact ``units``.  ``threads`` is the grid thread count for
    ``cube_mlmc``; outputs do not depend on it.
    """
    rng = random.Random(f"{workload}/{seed}")
    seeds = iter(lambda: rng.getrandbits(63), None)
    return _MAKERS[workload](seeds, threads)
