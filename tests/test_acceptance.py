"""Acceptance suite: one test per release criterion, each printing a verdict line.

Statistical criteria use fixed seeds and 4-standard-error slacks; exact
criteria use the stated tolerances.  Run with ``pytest tests/test_acceptance.py
-v -s`` to see the per-criterion lines and timings.
"""

import functools
import math
import time

import numpy as np

from truncmlmc import (analytic_profile, check_pair_variance_bound,
                       check_residual_lower_bound, estimate_chain_mlmc,
                       estimate_mlmc, estimate_mlmc_fixed, drift_integral,
                       geometric_coefficients, make_additive, make_lindley,
                       make_product, markov_schedule, mc_profile, measure_decay,
                       new_stream, predicted_variance, replicate,
                       standard_mc_chain, total_budget, truncation_schedule,
                       uniform_increments)
from truncmlmc.cli import main
from truncmlmc.runner import lemma1_diagnostic, run_cells

FAMILIES = {"additive": make_additive, "product": make_product}


def criterion(number, description):
    def decorate(fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                print(f"criterion {number:2d} FAIL "
                      f"({time.perf_counter() - start:6.1f}s): {description}")
                raise
            print(f"criterion {number:2d} PASS "
                  f"({time.perf_counter() - start:6.1f}s): {description}")
            return result

        return wrapper

    return decorate


@criterion(1, "analytic profile identities exact at d in {2,4,8,16}")
def test_criterion_01_profile_identities():
    for make in FAMILIES.values():
        for d in (2, 4, 8, 16):
            profile = analytic_profile(make(geometric_coefficients(d)))
            identity_gap = abs(profile.D.sum() - profile.d_t * profile.var_f)
            assert identity_gap <= 1e-12 * profile.d_t * profile.var_f
            assert profile.D[0] == profile.var_f
            assert profile.D[-1] == 0.0
            assert np.all(np.diff(profile.D) <= 0.0)


@criterion(2, "sampling oracle matches analytic profile within 4 SE, d <= 8")
def test_criterion_02_oracle_equivalence():
    root = new_stream(20_2024)
    for name, make in FAMILIES.items():
        for d in (2, 4, 8):
            integrand = make(geometric_coefficients(d))
            exact = analytic_profile(integrand)
            estimated = mc_profile(integrand, 100_000, root.fork(d).fork(
                0 if name == "additive" else 1))
            for i in range(d + 1):
                slack = 4.0 * estimated.se[i] if estimated.se[i] > 0 else 1e-12
                assert abs(estimated.D[i] - exact.D[i]) <= slack, (name, d, i)


@criterion(3, "pair-variance and residual lower bounds hold for all i, d in {2,4,8}")
def test_criterion_03_variance_inequalities():
    root = new_stream(30_2024)
    zero = lambda prefix: np.zeros(len(prefix))
    for fork_label, (name, make) in enumerate(FAMILIES.items()):
        family_stream = root.fork(fork_label)
        for d in (2, 4, 8):
            integrand = make(geometric_coefficients(d))
            profile = analytic_profile(integrand)
            stream = family_stream.fork(d)
            for i in range(d + 1):
                pair = check_pair_variance_bound(integrand, i, profile, 50_000,
                                                 stream.fork(i))
                assert pair.passed, (name, d, i, pair)
                residual = check_residual_lower_bound(integrand, zero, i, 50_000,
                                                      stream.fork(100 + i))
                assert residual.passed, (name, d, i, residual)
        # equality case: the best predictor of the first coordinate
        integrand = make(geometric_coefficients(4))
        if name == "additive":
            best = lambda p: p[:, 0] - 0.5
        else:
            best = lambda p: 1.0 + (p[:, 0] - 0.5)
        report = check_residual_lower_bound(integrand, best, 1, 50_000,
                                            family_stream.fork(999))
        assert report.passed, (name, report)


def _mlmc_cells(reps=10_000, d_grid=(4, 16, 64, 256)):
    root = new_stream(40_2024)
    for fork_label, (name, make) in enumerate(FAMILIES.items()):
        for d in d_grid:
            integrand = make(geometric_coefficients(d))
            schedule = truncation_schedule(d)
            stream = root.fork(fork_label).fork(d)
            summary = replicate(lambda s: estimate_mlmc(integrand, schedule, s),
                                reps, stream)
            yield name, d, integrand, summary, summary.costs[0]


@criterion(4, "variance of the truncation-coupled estimator within its bound, "
              "R=10^4, d in {4,16,64,256}")
def test_criterion_04_variance_bound():
    reps = 10_000
    slack = 1.0 + 4.0 * math.sqrt(2.0 / reps)
    for name, d, integrand, summary, _ in _mlmc_cells(reps):
        profile = analytic_profile(integrand)
        bound = 16.0 * math.ceil(math.log2(d)) / d * profile.d_t * profile.var_f
        assert summary.sample_variance <= bound * slack, (name, d)


@criterion(5, "draw cost of every replication at most 9d, deterministically")
def test_criterion_05_cost_bound():
    # the draw count is a deterministic function of the schedule: check the
    # formula once per d and the bound across full replication batches
    for d in (2, 4, 8, 16, 64, 256, 1000):
        schedule = truncation_schedule(d)
        record = estimate_mlmc(make_additive(geometric_coefficients(d)), schedule,
                               [new_stream(50)])
        expected = d + sum(nl * ml for nl, ml in zip(schedule.n, schedule.m[1:]))
        assert record.costs[0] == expected
        assert record.costs[0] <= 9 * d
    for name, d, _, _, max_draws in _mlmc_cells(reps=200):
        assert max_draws <= 9 * d, (name, d)


def _lindley_reference(d, paths_total=1_000_000, chunk=2000, seed=600):
    model = make_lindley(d)
    return replicate(lambda s: standard_mc_chain(model, chunk, s),
                     paths_total // chunk, new_stream(seed + d))


@criterion(6, "unbiasedness: random-suffix, fixed-suffix (5 points), and chain "
              "estimators within 4 SE")
def test_criterion_06_unbiasedness():
    reps = 10_000
    for name, d, integrand, summary, _ in _mlmc_cells(reps, d_grid=(4, 16, 64)):
        se = math.sqrt(summary.sample_variance / reps)
        assert abs(summary.mean - integrand.known_mean) < 4 * se, (name, d)

    root = new_stream(60_2024)
    d = 16
    schedule = truncation_schedule(d)
    for fork_label, (name, make) in enumerate(FAMILIES.items()):
        integrand = make(geometric_coefficients(d))
        for k in range(5):
            v = root.fork(8).fork(k).draw(d)
            stream = root.fork(fork_label).fork(k)
            summary = replicate(
                lambda s: estimate_mlmc_fixed(integrand, v, schedule, s), reps, stream)
            se = math.sqrt(summary.sample_variance / reps)
            assert abs(summary.mean - integrand.known_mean) < 4 * se, (name, k)

    for d in (16, 64, 256):
        model = make_lindley(d)
        reference = _lindley_reference(d)
        summary = replicate(lambda s: estimate_chain_mlmc(model, -2.0, s), reps,
                            root.fork(9).fork(d))
        se = math.sqrt(summary.sample_variance / reps
                       + reference.sample_variance / reference.replications)
        assert abs(summary.mean - reference.mean) < 4 * se, d


@criterion(7, "independent-level variance identity: replicated variance equals "
              "sum V_l/n_l within 4 SE")
def test_criterion_07_variance_identity():
    reps = 10_000
    d = 16
    root = new_stream(70_2024)
    integrand = make_additive(geometric_coefficients(d))
    schedule = truncation_schedule(d)
    summary = replicate(
        lambda s: estimate_mlmc_fixed(integrand, np.full(d, 0.5), schedule, s),
        reps, root.fork(0))
    se = summary.sample_variance * math.sqrt(2.0 / (reps - 1))
    assert abs(summary.sample_variance - predicted_variance(summary, schedule)) < 4 * se

    model = make_lindley(64)
    chain_schedule = markov_schedule(64, -2.0)
    summary = replicate(lambda s: estimate_chain_mlmc(model, -2.0, s), reps,
                        root.fork(1))
    se = summary.sample_variance * math.sqrt(2.0 / (reps - 1))
    assert abs(summary.sample_variance
               - predicted_variance(summary, chain_schedule)) < 4 * se


@criterion(8, "drift integral exact to 1e-6 and geometric payoff-gap decay at d=256")
def test_criterion_08_decay():
    zeta = uniform_increments()
    closed_form = (math.exp(0.4) - math.exp(-0.6)) / 1.0
    assert abs(drift_integral(lambda y: zeta(0, y), 1.0) - closed_form) < 1e-6
    assert closed_form < 1.0

    report = measure_decay(make_lindley(256), (4, 8, 16, 32, 64), 100_000,
                           new_stream(80_2024))
    assert report.geom_kappa < 1.0
    assert report.geom_r2 > 0.9
    # estimates decrease along the grid within twice their standard errors
    for k in range(len(report.msd) - 1):
        assert report.msd[k + 1] <= report.msd[k] + 2 * (report.se[k] + report.se[k + 1])


@criterion(9, "chain estimator scaling: d*variance stable and cost linear in d "
              "over d in {64,256,1024}")
def test_criterion_09_chain_scaling():
    reps = 3000
    root = new_stream(90_2024)
    scaled_variances = {}
    cost_rates = {}
    for d in (64, 256, 1024):
        model = make_lindley(d)
        summary = replicate(lambda s: estimate_chain_mlmc(model, -2.0, s), reps,
                            root.fork(d))
        scaled_variances[d] = d * summary.sample_variance
        cost_rates[d] = summary.mean_cost / d
    ratio = max(scaled_variances.values()) / min(scaled_variances.values())
    assert 1.0 / 8.0 <= ratio <= 8.0, scaled_variances
    assert max(cost_rates.values()) / min(cost_rates.values()) <= 2.0, cost_rates


@criterion(10, "level-budget inequality with measured level variances at d in {8,16}")
def test_criterion_10_level_budget():
    for cfg in ({"integrand.family": "additive", "integrand.decay_r": "0.5"},
                {"integrand.family": "product", "integrand.decay_r": "1.0",
                 "integrand.coeffs": None}):
        base = {k: v for k, v in cfg.items() if v is not None}
        for d in (8, 16):
            if base.get("integrand.family") == "product":
                base["integrand.coeffs"] = ",".join(["0.5"] * d)
            rows = lemma1_diagnostic({**base, "d_grid": str(d), "reps": "4000"},
                                     seed=100_2024)
            assert rows[0].report.passed, (base, d, rows[0])


@criterion(11, "total budget favors the multilevel estimator at d=256 and the "
               "advantage grows with d")
def test_criterion_11_budget_ordering():
    cfg = {"integrand.family": "additive", "integrand.decay_r": "0.5",
           "d_grid": "16,256", "eps": "0.02", "methods": "mc,mlmc",
           "reps": "4000"}
    budget = {(c.method, c.d): total_budget(c.summary, 0.02)
              for c in run_cells(cfg, seed=110_2024)}
    assert budget[("mlmc", 256)] < budget[("mc", 256)]
    ratio_small = budget[("mc", 16)] / budget[("mlmc", 16)]
    ratio_large = budget[("mc", 256)] / budget[("mlmc", 256)]
    assert ratio_large > ratio_small


@criterion(12, "CLI reruns with the same seed are byte-identical")
def test_criterion_12_cli_determinism(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    invocations = [
        ["anova", "--family", "product", "--d", "6", "--method", "mc",
         "--pairs", "2000", "--seed", "12"],
        ["estimate", "--family", "additive", "--d", "16", "--method", "mlmc",
         "--reps", "50", "--seed", "12"],
        ["estimate", "--family", "additive", "--d", "8", "--method", "mlmc-fixed",
         "--fix-v", "sample", "--reps", "50", "--seed", "12"],
        ["estimate", "--family", "additive", "--d", "8", "--method", "mc",
         "--reps", "50", "--seed", "12"],
        ["bench", "--family", "additive", "--d-grid", "4,16", "--eps", "0.05",
         "--methods", "mc,mlmc", "--reps", "100", "--seed", "12"],
        ["markov", "--d", "32", "--gamma", "-2", "--reps", "50", "--seed", "12"],
        ["markov", "decay", "--d", "32", "--gamma", "-2", "--i", "2,4,8",
         "--n", "2000", "--seed", "12"],
        ["lemma1", "--family", "additive", "--d", "8", "--reps", "200",
         "--seed", "12"],
    ]
    for k, argv in enumerate(invocations):
        first = tmp_path / f"out_{k}_a.csv"
        second = tmp_path / f"out_{k}_b.csv"
        assert main(argv + ["--out", str(first)]) == 0
        assert main(argv + ["--out", str(second)]) == 0
        assert first.read_bytes() == second.read_bytes(), argv
