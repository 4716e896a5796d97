import argparse
import contextlib
import csv
import io
import os
import stat
import tempfile
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from truncmlmc import Integrand, cli, make_additive, new_stream, streams
from truncmlmc.cli import main
from truncmlmc.config import (KNOWN_KEYS, ConfigError, boolean, chain_from_config,
                              finite, fixed_point_from_config, integer,
                              integrand_from_config, items, parse_config_text,
                              read)
from truncmlmc.runner import (NumericalFailure, lemma1_diagnostic, run_cells,
                              run_estimator_cell, variance_bound)


def read_csv(path):
    with open(path, newline="", encoding="utf-8") as handle:
        return list(csv.reader(handle))


# --- config parsing ---------------------------------------------------------

def test_parse_config_round_trip():
    cfg = parse_config_text("""
    # comment
    seed = 7
    integrand.family = product   # trailing comment
    integrand.d = 3
    eps = 0.1,0.02
    chain.time_varying = true
    """)
    assert read(cfg, "seed", integer()) == 7
    assert read(cfg, "eps", items(finite)) == (0.1, 0.02)
    assert read(cfg, "chain.time_varying", boolean) is True


@pytest.mark.parametrize("text, value", [
    ("true", True), ("Yes", True), ("1", True), ("false", False), ("NO", False),
    ("0", False), ("maybe", None), ("2", None)])
def test_boolean_reads_six_words(text, value):
    if value is None:
        with pytest.raises(ValueError, match=f"expected a boolean, got '{text}'"):
            boolean(text)
    else:
        assert boolean(text) is value


@pytest.mark.parametrize("text", [
    "unknown.thing = 1",
    "= 3",
    "just some words",
    "seed = 1\nseed = 2",
    "seed =",
])
def test_parse_config_rejects_malformed(text):
    with pytest.raises(ConfigError):
        parse_config_text(text)


def test_integrand_from_config():
    f = integrand_from_config({"integrand.family": "product", "integrand.d": "3",
                               "integrand.coeffs": "0.5,0.25,0.125"})
    assert f.family == "product"
    assert np.allclose(f.coefficients, [0.5, 0.25, 0.125])
    g = integrand_from_config({"integrand.d": "4", "integrand.decay_r": "0.3"})
    assert g.family == "additive"
    assert np.allclose(g.coefficients, [1.0, 0.3, 0.09, 0.027])
    with pytest.raises(ConfigError):
        integrand_from_config({"integrand.d": "2", "integrand.coeffs": "1,2,3"})
    with pytest.raises(ConfigError):
        integrand_from_config({})


def test_chain_from_config():
    model, gamma = chain_from_config({"chain.d": "8"})
    assert model.horizon == 8 and gamma == -2.0
    assert chain_from_config({"chain.d": "2"})[0].horizon == 2
    with pytest.raises(ConfigError, match="'chain.d': expected at least 2, got 1"):
        chain_from_config({"chain.d": "1"})
    with pytest.raises(ConfigError):
        chain_from_config({"chain.d": "8", "chain.gamma": "-0.5"})
    with pytest.raises(ConfigError):
        chain_from_config({"chain.d": "8", "chain.a": "0.4", "chain.b": "-0.6"})
    # the bounds themselves are refused
    with pytest.raises(ConfigError, match="need b > a"):
        chain_from_config({"chain.d": "8", "chain.a": "0.3", "chain.b": "0.3"})
    with pytest.raises(ConfigError, match="must be below -1"):
        chain_from_config({"chain.d": "8", "chain.gamma": "-1"})


def test_fixed_point_entries_may_lie_on_the_bounds():
    assert fixed_point_from_config({"fix_v": "explicit", "fix_v_values": "0,1"}) == (
        "explicit", (0.0, 1.0))


def test_run_config_rejects_empty_methods():
    with pytest.raises(ConfigError):
        run_cells({"methods": ",", "integrand.d": "4"}, seed=1)


# --- CLI surface -------------------------------------------------------------

def test_anova_csv_schema(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    assert main(["anova", "--family", "additive", "--d", "2", "--coeffs", "1,1",
                 "--seed", "1", "--out", "p.csv"]) == 0
    rows = read_csv("p.csv")
    assert rows[0] == ["i", "D", "SE", "d_t", "var_f"]
    assert len(rows) == 4
    assert float(rows[1][1]) == pytest.approx(1 / 6)
    assert float(rows[2][1]) == pytest.approx(1 / 12)
    assert float(rows[3][1]) == 0.0
    assert float(rows[1][3]) == pytest.approx(1.5)


def test_anova_integrand_config_file(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    cfg = tmp_path / "integrand.cfg"
    cfg.write_text("integrand.family = product\nintegrand.d = 2\n"
                   "integrand.coeffs = 1,1\n")
    assert main(["anova", "--integrand", str(cfg), "--seed", "1",
                 "--out", "p.csv"]) == 0
    rows = read_csv("p.csv")
    assert float(rows[1][1]) == pytest.approx(25 / 144)
    assert float(rows[1][3]) == pytest.approx(38 / 25)


def test_estimate_single_method_schema(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    assert main(["estimate", "--family", "product", "--d", "4", "--method", "mlmc",
                 "--reps", "5", "--seed", "2", "--out", "runs.csv"]) == 0
    rows = read_csv("runs.csv")
    assert rows[0] == list(("rep", "value", "cost_units", "level", "level_sum",
                            "level_count"))
    # 5 replications times 2 levels at d=4
    assert len(rows) == 1 + 5 * 2


def test_estimate_grid_mode_summary_rows(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    cfg = tmp_path / "exp.cfg"
    cfg.write_text("methods = mc,mlmc\nintegrand.family = additive\n"
                   "integrand.d = 16\nreps = 30\neps = 0.05\nseed = 4\n")
    assert main(["estimate", "--config", str(cfg), "--out", "grid.csv"]) == 0
    rows = read_csv("grid.csv")
    summaries = [r for r in rows[1:] if r[3] == "summary"]
    reps = [r for r in rows[1:] if r[3] == "rep"]
    assert len(summaries) == 2
    assert len(reps) > 60
    for row in summaries:
        wnv = float(row[13])
        assert wnv == pytest.approx(float(row[11]) * float(row[12]), rel=1e-12)


def test_cli_determinism_byte_identical(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    args = ["markov", "--d", "16", "--gamma", "-2", "--reps", "25", "--seed", "9"]
    assert main(args + ["--out", "m1.csv"]) == 0
    assert main(args + ["--out", "m2.csv"]) == 0
    assert (tmp_path / "m1.csv").read_bytes() == (tmp_path / "m2.csv").read_bytes()


def test_cli_threads_do_not_change_output(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    cfg = tmp_path / "exp.cfg"
    cfg.write_text("methods = mc,mlmc,mlmc-fixed\nintegrand.family = additive\n"
                   "integrand.d = 8\nd_grid = 4,8\nreps = 20\nseed = 3\n")
    assert main(["estimate", "--config", str(cfg), "--threads", "1",
                 "--out", "t1.csv"]) == 0
    assert main(["estimate", "--config", str(cfg), "--threads", "4",
                 "--out", "t4.csv"]) == 0
    assert (tmp_path / "t1.csv").read_bytes() == (tmp_path / "t4.csv").read_bytes()


def test_cli_config_error_exit_code(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    bad = tmp_path / "bad.cfg"
    bad.write_text("not_a_key = 1\n")
    assert main(["estimate", "--config", str(bad), "--method", "mc"]) == 2
    assert "not_a_key" in capsys.readouterr().err


@pytest.mark.parametrize("eps", ["nan", "inf", "0.1,nan"])
def test_grid_rejects_non_finite_tolerances(eps, tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    cfg = tmp_path / "grid.cfg"
    cfg.write_text(f"integrand.family = additive\nd_grid = 4\neps = {eps}\n"
                   "reps = 4\nseed = 1\n")
    assert main(["estimate", "--config", str(cfg)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error:") and "'eps'" in err, err


def test_grid_summary_rejects_an_overflowing_wnv(tmp_path, monkeypatch, capsys):
    # the grid's summary rows and bench's rows share their statistics, and
    # a failure names the cell
    monkeypatch.chdir(tmp_path)
    cfg = tmp_path / "grid.cfg"
    cfg.write_text("integrand.family = additive\nintegrand.d = 256\n"
                   f"integrand.coeffs = {','.join(['8e153'] + ['0.5'] * 255)}\n"
                   "methods = mlmc\nreps = 10\neps = 1e150\nseed = 1\n")
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        assert main(["estimate", "--config", str(cfg)]) == 3
    assert capsys.readouterr().err == (
        "numerical failure: cell method=mlmc d=256: "
        "work-normalized variance is not finite\n")
    assert not (tmp_path / "runs.csv").exists()
    assert not [w for w in caught if issubclass(w.category, RuntimeWarning)], caught


def test_bench_reads_its_one_tolerance_before_any_cell(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    cfg = tmp_path / "eps.cfg"
    cfg.write_text("eps = 0.1,0.2\n")

    def no_cells(*args, **kwargs):
        raise AssertionError("a cell ran before the tolerance was read")

    monkeypatch.setattr(cli, "run_cells", no_cells)
    assert main(["bench", "--d-grid", "4", "--reps", "4", "--seed", "1",
                 "--config", str(cfg)]) == 2
    assert capsys.readouterr().err == (
        "config error: config key 'eps': scaling comparison expects one tolerance\n")
    assert not (tmp_path / "bench.csv").exists()


def test_variance_bound_is_finite_or_fails():
    bound = variance_bound(make_additive([1.0] * 4))
    assert type(bound) is float and bound > 0.0
    with pytest.raises(NumericalFailure, match="variance bound at d=4"):
        variance_bound(make_additive([6e153] * 4))


def test_cli_numerical_failure_exit_code(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    code = main(["estimate", "--family", "additive", "--d", "2", "--coeffs",
                 "1e300,1", "--method", "mc", "--reps", "5", "--seed", "1"])
    assert code == 3
    err = capsys.readouterr().err
    assert "mc" in err and "d=2" in err


def test_numerical_failure_on_overflowing_level_sums():
    # every value stays below 1e200, but the level sums of squares and the
    # sample variance of the values overflow
    huge = Integrand(dimension=4, evaluator=lambda p: 1e200 * p[:, 0])
    with pytest.raises(NumericalFailure, match="method=mlmc-fixed d=4"):
        run_estimator_cell("mlmc-fixed", huge, 10, new_stream(1))


TINY = "1e-200,1e-200"
HUGE = "1e300,1e300"


@pytest.mark.parametrize("argv, code, fragment", [
    pytest.param(["markov", "--d", "16", "--reps", "1"], 2, "'reps'",
                 id="markov-reps"),
    pytest.param(["lemma1", "--family", "additive", "--d", "4", "--reps", "1"], 2,
                 "'reps'", id="lemma1-reps"),
    pytest.param(["anova", "--family", "additive", "--d", "4", "--method", "mc",
                  "--pairs", "1"], 2, "'pairs'", id="anova-pairs"),
    pytest.param(["markov", "decay", "--d", "16", "--i", "2,4", "--n", "1"], 2,
                 "'decay.n'", id="decay-n"),
    pytest.param(["markov", "decay", "--d", "16", "--i", "2,32", "--n", "100"], 2,
                 "'decay.i'", id="decay-depth"),
    pytest.param(["markov", "decay", "--d", "16", "--i", "4,4", "--n", "100"], 2,
                 "'decay.i'", id="decay-repeated-depth"),
    pytest.param(["markov", "--d", "16", "--gamma", "nan", "--reps", "5"], 2,
                 "'chain.gamma'", id="markov-gamma-nan"),
    pytest.param(["markov", "decay", "--d", "16", "--gamma", "nan", "--i", "2,4",
                  "--n", "100"], 2, "'chain.gamma'", id="decay-gamma-nan"),
    pytest.param(["markov", "--d", "16", "--b", "inf", "--reps", "5"], 2,
                 "'chain.b'", id="markov-b-inf"),
    pytest.param(["markov", "decay", "--d", "16", "--a=-1e308", "--b", "1e308",
                  "--i", "2,4", "--n", "100"], 3, "non-finite payoff gap",
                 id="decay-overflow"),
    pytest.param(["estimate", "--family", "additive", "--d", "4", "--method", "mc",
                  "--mc-n", "0", "--reps", "5"], 2, "'mc_n'", id="mc-n"),
    pytest.param(["estimate", "--family", "additive", "--d", "1", "--method",
                  "mlmc-fixed", "--reps", "5"], 2, "method=mlmc-fixed d=1",
                 id="mlmc-fixed-d1"),
    pytest.param(["lemma1", "--family", "product", "--d-grid", "1", "--reps", "5"],
                 2, "method=lemma1 d=1", id="lemma1-d1"),
    pytest.param(["lemma1", "--family", "additive", "--d", "4", "--d-grid", ",",
                  "--reps", "5"], 2, "'d_grid': empty list", id="lemma1-empty-grid"),
    pytest.param(["estimate", "--family", "additive", "--d", "2", "--method",
                  "mlmc-fixed", "--fix-v", "explicit", "--v-values", "0.5,1.5",
                  "--reps", "5"], 2, "'fix_v_values'", id="fix-v-range"),
    pytest.param(["anova", "--family", "additive", "--d", "2", "--coeffs", TINY], 3,
                 "variance", id="anova-analytic-zero-variance"),
    pytest.param(["anova", "--family", "product", "--d", "2", "--coeffs", TINY,
                  "--method", "mc", "--pairs", "100"], 3, "variance",
                 id="anova-mc-zero-variance"),
    pytest.param(["anova", "--family", "additive", "--d", "2", "--coeffs", HUGE], 3,
                 "non-finite", id="anova-analytic-overflow"),
    pytest.param(["anova", "--family", "additive", "--d", "2", "--coeffs", HUGE,
                  "--method", "mc", "--pairs", "100"], 3, "non-finite",
                 id="anova-mc-overflow"),
    pytest.param(["bench", "--family", "product", "--d-grid", "2", "--coeffs", TINY,
                  "--methods", "mc", "--reps", "10", "--eps", "0.1"], 3, "variance",
                 id="bench-zero-variance"),
    pytest.param(["bench", "--eps", "nan", "--d-grid", "4", "--reps", "4"], 2,
                 "'eps'", id="bench-eps-nan"),
    pytest.param(["bench", "--eps", "inf", "--d-grid", "4", "--reps", "4"], 2,
                 "'eps'", id="bench-eps-inf"),
    # eps ** 2 underflows to 0, the count var / eps ** 2 overflows, the count
    # times the units of a replication overflows, eps ** 2 overflows
    pytest.param(["bench", "--eps", "1e-200", "--d-grid", "4", "--reps", "4"], 2,
                 "'eps'", id="bench-eps-square-underflows"),
    pytest.param(["bench", "--eps", "1e-160", "--d-grid", "4", "--reps", "4"], 3,
                 "cell method=mc d=4: no finite sample count",
                 id="bench-eps-count-overflows"),
    pytest.param(["bench", "--eps", "5e-155", "--d-grid", "4", "--reps", "4"], 3,
                 "cell method=mlmc d=4: total budget", id="bench-eps-budget-overflows"),
    pytest.param(["bench", "--eps", "1e308", "--d-grid", "4", "--reps", "4"], 2,
                 "'eps'", id="bench-eps-square-overflows"),
    # a finite run whose written statistics overflow, each named by its cell:
    # the level budget's SE, the variance bound, the work-normalized variance
    pytest.param(["lemma1", "--family", "additive", "--d", "4", "--coeffs",
                  ",".join(["1e150"] * 4), "--reps", "20"], 3,
                 "numerical failure: cell method=lemma1 d=4: non-finite inequality check",
                 id="lemma1-se-overflows"),
    pytest.param(["bench", "--family", "additive", "--d-grid", "4", "--coeffs",
                  ",".join(["6e153"] * 4), "--methods", "mlmc", "--reps", "10",
                  "--eps", "1e150"], 3,
                 "numerical failure: cell method=mlmc d=4: variance bound at d=4",
                 id="bench-bound-overflows"),
    pytest.param(["bench", "--family", "additive", "--d-grid", "256", "--coeffs",
                  ",".join(["8e153"] + ["0.5"] * 255), "--methods", "mlmc",
                  "--reps", "10", "--eps", "1e150"], 3,
                 "numerical failure: cell method=mlmc d=256: work-normalized variance",
                 id="bench-wnv-overflows"),
    pytest.param(["estimate", "--d", "2", "--coeffs", "1,nan", "--method", "mc",
                  "--reps", "5"], 2, "'integrand.coeffs': expected a finite number",
                 id="estimate-coeffs-nan"),
    pytest.param(["anova", "--d", "2", "--coeffs", "1,inf"], 2,
                 "'integrand.coeffs': expected a finite number", id="anova-coeffs-inf"),
    pytest.param(["lemma1", "--d", "4", "--decay-r", "nan", "--reps", "5"], 2,
                 "'integrand.decay_r': expected a finite number",
                 id="lemma1-decay-r-nan"),
    # every c_i = 1e308 ** (i - 1) past the first two overflows to inf
    pytest.param(["bench", "--d-grid", "4", "--decay-r", "1e308", "--reps", "4"], 2,
                 "'integrand.decay_r': coefficients must be finite",
                 id="bench-decay-r-overflows"),
    # a dimension from the grid names the grid
    pytest.param(["bench", "--d-grid", "4,-2", "--reps", "4"], 2, "'d_grid'",
                 id="bench-d-grid-negative"),
    pytest.param(["lemma1", "--d-grid", "0"], 2, "'d_grid'", id="lemma1-d-grid-zero"),
    pytest.param(["estimate", "--d", "0", "--method", "mc", "--reps", "5"], 2,
                 "'integrand.d': expected at least 1, got 0", id="estimate-d-zero"),
    # an output path that cannot be opened names the out key
    pytest.param(["anova", "--d", "2", "--out", "nodir/x.csv"], 2,
                 "'out': cannot write nodir/x.csv", id="out-missing-directory"),
    pytest.param(["anova", "--d", "2", "--out", "."], 2, "'out': cannot write .",
                 id="out-is-a-directory"),
    # a write that fails after its open, and a path that open refuses
    pytest.param(["anova", "--d", "4", "--out", "/dev/full"], 2,
                 "'out': cannot write /dev/full: No space left on device",
                 marks=pytest.mark.skipif(not os.path.exists("/dev/full"),
                                          reason="no /dev/full device"),
                 id="out-device-full"),
    # a character that is not printable is escaped, so the message stays one line
    pytest.param(["anova", "--d", "4", "--out", "a\0b.csv"], 2,
                 "'out': cannot write a\\x00b.csv: embedded null byte", id="out-nul"),
    pytest.param(["anova", "--d", "4", "--out", "nodir/a\nb.csv"], 2,
                 "'out': cannot write nodir/a\\nb.csv: No such file or directory",
                 id="out-newline"),
    # an empty flag value is refused as an empty config value is
    pytest.param(["markov", "decay", "--d", "8", "--i", "", "--n", "10"], 2,
                 "config key 'decay.i' has an empty value", id="decay-i-empty"),
    pytest.param(["anova", "--d", "3", "--out", ""], 2,
                 "config key 'out' has an empty value", id="out-empty"),
])
def test_cli_exit_codes_name_the_fault(argv, code, fragment, tmp_path,
                                       monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        assert main(argv + ["--seed", "1"]) == code
    err = capsys.readouterr().err
    prefix = "config error:" if code == 2 else "numerical failure:"
    assert err.startswith(prefix) and fragment in err, err
    # one line on stderr: the message, and no warning
    assert err.count("\n") == 1, err
    assert not [w for w in caught if issubclass(w.category, RuntimeWarning)], caught


def test_config_file_that_is_not_utf8_is_a_config_error(tmp_path, monkeypatch, capsys):
    # the exit-code fuzz writes its config files as UTF-8 and cannot find this
    monkeypatch.chdir(tmp_path)
    (tmp_path / "x.cfg").write_bytes(b"\xff\xfe")
    assert main(["anova", "--d", "4", "--seed", "1", "--config", "x.cfg"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error: cannot read config file x.cfg: 'utf-8' codec"), err
    assert err.count("\n") == 1, err


@pytest.mark.parametrize("flag", ["--config", "--integrand"])
def test_config_path_with_a_nul_is_a_config_error(flag, tmp_path, monkeypatch, capsys):
    # a shell cannot pass a NUL, but main(argv) can
    monkeypatch.chdir(tmp_path)
    assert main(["anova", "--d", "4", "--seed", "1", flag, "a\0b.cfg"]) == 2
    assert capsys.readouterr().err == (
        "config error: cannot read config file a\\x00b.cfg: embedded null byte\n")


@pytest.mark.parametrize("flag", ["--config", "--integrand"])
def test_missing_config_file_names_its_path_once(flag, tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    assert main(["anova", "--d", "2", "--seed", "1", flag, "nope.cfg"]) == 2
    assert capsys.readouterr().err == (
        "config error: cannot read config file nope.cfg: No such file or directory\n")


def test_success_line_escapes_a_line_break_in_the_out_path(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    assert main(["anova", "--d", "2", "--seed", "1", "--out", "a\nb.csv"]) == 0
    assert capsys.readouterr().out.endswith(" -> a\\nb.csv\n")
    assert (tmp_path / "a\nb.csv").exists()


@pytest.mark.parametrize("seed", ["-1", str(2 ** 64)])
def test_seeds_outside_64_bits_are_config_errors(seed, tmp_path, monkeypatch, capsys):
    # apart from the exit-code table, which appends its own --seed; a seed
    # reduced mod 2**64 would alias one in range
    monkeypatch.chdir(tmp_path)
    argv = ["estimate", "--method", "mlmc", "--d", "8", "--reps", "10"]
    config = tmp_path / "seed.cfg"
    config.write_text(f"seed = {seed}\n")
    assert main(argv + ["--seed", seed]) == 2
    assert main(argv + ["--config", str(config)]) == 2
    err = capsys.readouterr().err
    assert err == f"config error: seed {seed}: must lie in [0, 2**64)\n" * 2, err
    assert main(argv + ["--seed", str(2 ** 64 - 1)]) == 0


def test_the_default_seed_is_0(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    argv = ["estimate", "--method", "mlmc", "--d", "4", "--reps", "4"]
    assert main(argv + ["--out", "default.csv"]) == 0
    assert main(argv + ["--seed", "0", "--out", "0.csv"]) == 0
    assert main(argv + ["--seed", "1", "--out", "1.csv"]) == 0
    default = (tmp_path / "default.csv").read_bytes()
    assert default == (tmp_path / "0.csv").read_bytes() != (tmp_path / "1.csv").read_bytes()


@pytest.mark.parametrize("argv", [["estimate", "--method", "mc"],
                                  ["estimate", "--method", "mlmc"],
                                  ["estimate", "--method", "mlmc-fixed"],
                                  ["estimate"]], ids=["mc", "mlmc", "mlmc-fixed", "grid"])
@pytest.mark.parametrize("text, message", [
    ("fix_v = bogus", "'fix_v': expected one of ['explicit', 'midpoint', 'sample'], "
                      "got 'bogus'"),
    ("fix_v_values = 1.5", "'fix_v_values': entries must lie in [0, 1]"),
], ids=["fix-v", "fix-v-values"])
def test_one_fixed_point_reader_for_every_method(argv, text, message, tmp_path,
                                                 monkeypatch, capsys):
    # apart from the exit-code table, which appends its own flags: one reader
    # checks fix_v and fix_v_values, whether a cell uses them or not
    monkeypatch.chdir(tmp_path)
    config = tmp_path / "fix.cfg"
    config.write_text(f"integrand.d = 4\nreps = 4\nseed = 1\n{text}\n")
    assert main(argv + ["--config", str(config)]) == 2
    assert capsys.readouterr().err == f"config error: config key {message}\n"


def _flag_and_config_line(argv, flag, key, value, tmp_path, capsys):
    """Exit codes and stderr of ``argv`` with ``flag value`` (if the key has
    a flag), then with ``key = value`` as a config line."""
    config = tmp_path / "key.cfg"
    config.write_text(f"{key} = {value}\n")
    runs = []
    for extra in ([[flag, value]] if flag else []) + [["--config", str(config)]]:
        code = main(argv + extra)
        runs.append((code, capsys.readouterr().err))
    return runs


@pytest.mark.parametrize("argv, flag, key", [
    (["bench", "--d-grid", "4", "--reps", "4"], "--methods", "methods"),
    (["bench", "--reps", "4"], "--d-grid", "d_grid"),
    (["bench", "--d-grid", "4", "--reps", "4"], "--eps", "eps"),
    (["estimate", "--d", "4", "--reps", "4"], None, "eps"),
    (["markov", "decay", "--d", "8", "--n", "10"], "--i", "decay.i"),
    (["anova", "--d", "2"], "--coeffs", "integrand.coeffs"),
    (["estimate", "--d", "4", "--method", "mc", "--reps", "4"], "--v-values",
     "fix_v_values"),
], ids=["methods", "d-grid", "eps", "eps-grid", "decay-i", "coeffs", "v-values"])
def test_an_empty_list_is_refused(argv, flag, key, tmp_path, monkeypatch, capsys):
    # "," holds no entry: a grid with no tolerance would write no summary
    # rows, and a decay with no depth a CSV of no rows
    monkeypatch.chdir(tmp_path)
    runs = _flag_and_config_line(argv + ["--seed", "1"], flag, key, ",", tmp_path, capsys)
    assert runs == [(2, f"config error: config key {key!r}: empty list\n")] * len(runs)
    assert [path.name for path in tmp_path.iterdir()] == ["key.cfg"]


@pytest.mark.parametrize("argv, flag, key, value, message", [
    (["anova"], "--d", "integrand.d", "x",
     "'integrand.d': invalid literal for int() with base 10: 'x'"),
    (["estimate", "--d", "4", "--method", "mc"], "--reps", "reps", "1.5",
     "'reps': invalid literal for int() with base 10: '1.5'"),
    (["anova", "--d", "2"], "--family", "integrand.family", "foo",
     "'integrand.family': expected one of ['additive', 'product'], got 'foo'"),
    (["estimate", "--d", "4", "--method", "mc", "--reps", "4"], "--fix-v", "fix_v",
     "bad", "'fix_v': expected one of ['explicit', 'midpoint', 'sample'], got 'bad'"),
    (["markov", "--d", "8", "--reps", "4"], "--preset", "chain.preset", "x",
     "'chain.preset': expected one of ['lindley'], got 'x'"),
    (["markov", "--d", "8", "--reps", "4"], "--gamma", "chain.gamma", "x",
     "'chain.gamma': could not convert string to float: 'x'"),
    (["bench", "--d-grid", "4", "--reps", "4"], "--eps", "eps", "nan",
     "'eps': expected a finite number, got nan"),
    (["markov", "decay", "--d", "8", "--i", "2,4"], "--n", "decay.n", "0",
     "'decay.n': expected at least 2, got 0"),
    (["anova", "--d", "2"], "--seed", "seed", "-1", None),
], ids=["d", "reps", "family", "fix-v", "preset", "gamma", "eps", "n", "seed"])
def test_a_flag_and_a_config_line_give_the_same_fault(argv, flag, key, value, message,
                                                      tmp_path, monkeypatch, capsys):
    # one reader checks a value whichever way it came: no argparse usage block
    monkeypatch.chdir(tmp_path)
    runs = _flag_and_config_line(argv, flag, key, value, tmp_path, capsys)
    line = (f"config error: config key {message}\n" if message
            else f"config error: seed {value}: must lie in [0, 2**64)\n")
    assert runs == [(2, line)] * 2


# the dests of parser arguments that are not config keys
CLI_ONLY_DESTS = {"help", "command", "handler", "config", "integrand_cfg", "method",
                  "mode"}


def _parsers(parser):
    yield parser
    for action in parser._actions:
        if isinstance(action, argparse._SubParsersAction):
            for sub in action.choices.values():
                yield from _parsers(sub)


def test_every_flag_sets_a_config_key_as_a_string():
    # _merged_config keeps only dests that are config keys and would drop
    # any other silently; a key's flag leaves its string to the config reader
    for parser in _parsers(cli.build_parser()):
        assert set(parser._defaults) <= CLI_ONLY_DESTS
        for action in parser._actions:
            assert action.dest in KNOWN_KEYS | CLI_ONLY_DESTS, action.dest
            if action.dest in KNOWN_KEYS:
                assert (action.type, action.choices, action.metavar) == (None,) * 3
                assert action.const in (None, "true")


def test_any_threads_value_is_accepted_and_ignored(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    argv = ["anova", "--d", "3", "--seed", "1"]
    assert main(argv + ["--out", "a.csv"]) == 0
    assert main(argv + ["--threads", "x", "--out", "b.csv"]) == 0
    assert (tmp_path / "a.csv").read_bytes() == (tmp_path / "b.csv").read_bytes()


def test_markov_schedule_keeps_a_replication_where_the_power_underflows(
        tmp_path, monkeypatch):
    # 2 ** (l * (gamma - 1) / 2) underflows to 0 for gamma = -1e3, but every
    # exact n_l is positive
    monkeypatch.chdir(tmp_path)
    assert main(["markov", "--d", "16", "--gamma=-1e3", "--reps", "5",
                 "--seed", "1"]) == 0
    rows = read_csv(tmp_path / "markov.csv")
    assert {row[5] for row in rows[1:]} == {"1"}  # level_count


def test_anova_overflow_warns_on_no_thread(tmp_path, monkeypatch):
    # the oracle's pool threads run under the CLI's numpy error state
    monkeypatch.setattr(streams, "_cpu_count", lambda: 8)
    monkeypatch.chdir(tmp_path)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        assert main(["anova", "--family", "additive", "--d", "2", "--coeffs", HUGE,
                     "--method", "mc", "--pairs", "100", "--seed", "1"]) == 3
    assert not [w for w in caught if issubclass(w.category, RuntimeWarning)], caught


@pytest.mark.parametrize("value", [0.1, 1 / 3, -0.0, 0.0, 5e-324, 1.7976931348623157e308,
                                   2.0 ** 53 + 2, float("nan"), float("inf"),
                                   float("-inf"), np.float64(2 / 3), np.float64("nan")])
def test_float_template_matches_format(value):
    assert cli._G % value == format(float(value), ".17g")


@pytest.mark.parametrize("name", ["a,b", 'say "x"', "two\nlines", "cr\r"])
def test_csv_writer_refuses_cells_that_need_quoting(name, tmp_path):
    out = tmp_path / "lemma.csv"
    with pytest.raises(ValueError, match="delimiter, a quote or a line break"):
        cli._write_csv(str(out), cli.LEMMA_HEADER,
                       [cli.LEMMA_ROW % (name, 4, 1.0, 2.0, 0.5, "true")])
    assert not out.exists()
    cli._write_csv(str(out), cli.LEMMA_HEADER,
                   [cli.LEMMA_ROW % ("additive", 4, 1.0, 2.0, 0.5, "true")])
    assert list(csv.reader(out.read_text(encoding="utf-8").splitlines())) == [
        list(cli.LEMMA_HEADER), ["additive", "4", "1", "2", "0.5", "true"]]


GOOD_LEMMA = cli.LEMMA_ROW % ("additive", 4, 1.0, 2.0, 0.5, "true")
BAD_LEMMA = cli.LEMMA_ROW % ("a,b", 4, 1.0, 2.0, 0.5, "true")


@pytest.mark.parametrize("rows", [0, 1, cli._BLOCK_LINES - 2, cli._BLOCK_LINES - 1,
                                  cli._BLOCK_LINES, 3 * cli._BLOCK_LINES + 5])
def test_csv_writer_writes_every_block_in_order(rows, tmp_path):
    out = tmp_path / "lemma.csv"
    lines = [cli.LEMMA_ROW % ("additive", k, 1.0, 2.0, 0.5, "true") for k in range(rows)]
    cli._write_csv(str(out), cli.LEMMA_HEADER, iter(lines))
    assert out.read_text(encoding="utf-8") == "\n".join(
        [",".join(cli.LEMMA_HEADER), *lines]) + "\n"


def test_csv_writer_creates_its_file_as_open_does(tmp_path):
    # mode 0o666 less the umask, here none
    out = tmp_path / "lemma.csv"
    umask = os.umask(0)
    try:
        cli._write_csv(str(out), cli.LEMMA_HEADER, [GOOD_LEMMA])
    finally:
        os.umask(umask)
    assert stat.S_IMODE(os.stat(out).st_mode) == 0o666


@pytest.mark.parametrize("existing", [False, True])
def test_csv_writer_refuses_a_later_block_and_leaves_no_file(existing, tmp_path):
    # the first blocks pass their checks and are written; the refused one
    # removes the file that this call opened, and an old file at the path
    out = tmp_path / "lemma.csv"
    if existing:
        out.write_text("old\n", encoding="utf-8")
    with pytest.raises(ValueError, match="delimiter, a quote or a line break"):
        cli._write_csv(str(out), cli.LEMMA_HEADER,
                       [GOOD_LEMMA] * (2 * cli._BLOCK_LINES) + [BAD_LEMMA])
    assert not out.exists()


def test_csv_writer_removes_its_file_when_the_rows_raise(tmp_path):
    out = tmp_path / "lemma.csv"

    def rows():
        yield from [GOOD_LEMMA] * (cli._BLOCK_LINES + 1)
        raise NumericalFailure("late")

    with pytest.raises(NumericalFailure, match="late"):
        cli._write_csv(str(out), cli.LEMMA_HEADER, rows())
    assert not out.exists()


def test_csv_writer_never_removes_a_fifo(tmp_path):
    # a FIFO, as a device, is written and kept; the reader lets the open
    # return, and the one written block fits in the pipe's buffer
    fifo = tmp_path / "pipe"
    os.mkfifo(fifo)
    reader = os.open(fifo, os.O_RDONLY | os.O_NONBLOCK)
    try:
        with pytest.raises(ValueError, match="delimiter, a quote or a line break"):
            cli._write_csv(str(fifo), cli.LEMMA_HEADER,
                           [GOOD_LEMMA] * cli._BLOCK_LINES + [BAD_LEMMA])
        written = os.read(reader, 1 << 16)
    finally:
        os.close(reader)
    assert stat.S_ISFIFO(os.lstat(fifo).st_mode)
    assert written.startswith(",".join(cli.LEMMA_HEADER).encode() + b"\n")
    assert written.count(b"\n") == cli._BLOCK_LINES


def test_csv_writer_keeps_a_symbolic_link(tmp_path):
    # only the regular file this call opened by its own name is removed; the
    # file behind a link is kept, emptied of the blocks written before the fault
    target = tmp_path / "target.csv"
    link = tmp_path / "link.csv"
    target.write_text("old\n", encoding="utf-8")
    link.symlink_to(target)
    with pytest.raises(ValueError, match="delimiter, a quote or a line break"):
        cli._write_csv(str(link), cli.LEMMA_HEADER,
                       [GOOD_LEMMA] * cli._BLOCK_LINES + [BAD_LEMMA])
    assert link.is_symlink() and target.exists()
    assert target.read_bytes() == b""


@pytest.mark.parametrize("method", ["mc", "mlmc"])
def test_run_lines_format_every_slice_as_the_whole_columns(method):
    # more replications than one slice holds, and a partial last slice
    cell = run_estimator_cell(method, make_additive([1.0] * 4), 2 * cli._BLOCK_LINES + 3,
                              new_stream(5))
    summary = cell.summary
    cost = summary.cost_units
    if summary.level_sum is None:
        expected = [f"{rep},{value:.17g},{cost},,,"
                    for rep, value in enumerate(summary.values)]
    else:
        expected = [f"{rep},{value:.17g},{cost},{level},{sums[level - 1]:.17g},{count}"
                    for rep, (value, sums) in enumerate(zip(summary.values,
                                                            summary.level_sum))
                    for level, count in enumerate(summary.level_count, start=1)]
    assert list(cli._run_lines(cell)) == expected


def test_cli_run_memory_is_bounded_by_the_columns_and_one_block(tmp_path, monkeypatch):
    # 4n replications cost 3n more rows of the cell's columns than n: values,
    # and level_sum and level_sq [R, L]; the CSV lines are formatted and
    # written one block at a time, whatever the replication count
    monkeypatch.chdir(tmp_path)
    n, levels = 2000, 6  # d = 64 has 6 levels
    allowance = 256 * 1024
    argv = ["estimate", "--family", "product", "--d", "64", "--method", "mlmc",
            "--seed", "3", "--reps"]
    assert main(argv + [str(n)]) == 0  # first-call allocations
    peaks = []
    for reps in (n, 4 * n):
        tracemalloc.start()
        try:
            assert main(argv + [str(reps)]) == 0
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    assert peaks[1] - peaks[0] <= 3 * n * (8 + 16 * levels) + allowance, peaks


def test_cli_rejects_unsupported_dimension(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    assert main(["estimate", "--family", "additive", "--d", "1", "--method",
                 "mlmc", "--reps", "5", "--seed", "1"]) == 2


def test_bench_schema_and_bound_column(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    assert main(["bench", "--family", "additive", "--d-grid", "4,16",
                 "--eps", "0.05", "--methods", "mc,mlmc", "--reps", "200",
                 "--seed", "6", "--out", "b.csv"]) == 0
    rows = read_csv("b.csv")
    assert rows[0] == list(("method", "d", "mean", "sample_variance", "mean_cost",
                            "wnv", "total_budget", "theoretical_bound"))
    by_method = {(r[0], r[1]): r for r in rows[1:]}
    assert by_method[("mc", "4")][7] == ""
    for d in ("4", "16"):
        row = by_method[("mlmc", d)]
        bound = float(row[7])
        variance = float(row[3])
        assert bound >= variance * (1 - 4 * np.sqrt(2 / 200))


def test_bench_smallest_dimension_is_finite(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    assert main(["bench", "--family", "additive", "--d-grid", "2", "--eps", "0.1",
                 "--methods", "mc,mlmc,mlmc-fixed", "--reps", "100", "--seed", "7",
                 "--out", "b2.csv"]) == 0
    rows = read_csv("b2.csv")
    assert len(rows) == 4
    for row in rows[1:]:
        assert np.isfinite(float(row[6]))


def test_markov_decay_fit_columns(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    assert main(["markov", "decay", "--d", "64", "--gamma", "-2", "--i",
                 "4,8,16,32", "--n", "4000", "--seed", "8", "--out", "d.csv"]) == 0
    rows = read_csv("d.csv")
    assert rows[0][:3] == ["i", "msd", "se"]
    kappas = {row[6] for row in rows[1:]}
    assert len(kappas) == 1
    assert float(kappas.pop()) < 1.0


@pytest.mark.parametrize("depths", ["0", "0,4"])
def test_markov_decay_fits_are_nan_below_two_positive_gaps(depths, tmp_path, monkeypatch):
    # at d = 4 the restart at i = d is the chain itself, so its gap is 0; with
    # fewer than two positive gaps there is no line to fit, and every fit
    # column reads nan while the gaps stay finite
    monkeypatch.chdir(tmp_path)
    assert main(["markov", "decay", "--d", "4", "--i", depths, "--n", "10",
                 "--out", "d.csv"]) == 0
    rows = read_csv("d.csv")
    assert [row[0] for row in rows[1:]] == depths.split(",")
    assert float(rows[1][1]) > 0.0 and float(rows[1][2]) > 0.0
    assert all(row[1:3] == ["0", "0"] for row in rows[2:])
    assert all(row[3:] == ["nan"] * 6 for row in rows[1:])


def test_markov_time_varying_flag(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    assert main(["markov", "--d", "16", "--gamma", "-2", "--time-varying",
                 "--reps", "20", "--seed", "5", "--out", "tv.csv"]) == 0
    plain = main(["markov", "--d", "16", "--gamma", "-2", "--reps", "20",
                  "--seed", "5", "--out", "plain.csv"])
    assert plain == 0
    assert (tmp_path / "tv.csv").read_bytes() != (tmp_path / "plain.csv").read_bytes()


def test_lemma1_cli_and_diagnostic(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    assert main(["lemma1", "--family", "product", "--coeffs", "0.5,0.5,0.5,0.5,"
                 "0.5,0.5,0.5,0.5", "--d", "8", "--reps", "400", "--seed", "10",
                 "--out", "l.csv"]) == 0
    rows = read_csv("l.csv")
    assert rows[0] == list(("family", "d", "lhs", "rhs", "rhs_se", "pass"))
    assert rows[1][5] == "true"


def test_lemma1_degenerate_single_coordinate():
    # one effective coordinate: the bound reduces to (near) equality
    rows = lemma1_diagnostic({"integrand.family": "additive", "integrand.d": "4",
                              "integrand.coeffs": "1,0,0,0", "d_grid": "4",
                              "reps": "3000"}, seed=11)
    report = rows[0].report
    assert report.passed
    assert report.lhs == pytest.approx(1 / 12)
    assert report.rhs == pytest.approx(report.lhs, rel=0.1)


def test_lemma1_runs_with_two_replications():
    # the fewest that pool two increments on every level
    rows = lemma1_diagnostic({"integrand.family": "additive", "integrand.d": "4",
                              "reps": "2"}, seed=11)
    assert [(row.family, row.d) for row in rows] == [("additive", 4)]


def test_lemma1_rejects_an_empty_grid():
    cfg = {"integrand.family": "additive", "integrand.d": "4", "d_grid": ",",
           "reps": "5"}
    with pytest.raises(ConfigError, match="'d_grid': empty list"):
        lemma1_diagnostic(cfg, seed=11)


def test_estimate_fix_v_modes_differ(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    base = ["estimate", "--family", "additive", "--d", "4", "--method",
            "mlmc-fixed", "--reps", "10", "--seed", "3"]
    assert main(base + ["--fix-v", "midpoint", "--out", "mid.csv"]) == 0
    assert main(base + ["--fix-v", "sample", "--out", "smp.csv"]) == 0
    assert main(base + ["--fix-v", "explicit", "--v-values", "0.1,0.2,0.3,0.4",
                        "--out", "exp.csv"]) == 0
    mid = (tmp_path / "mid.csv").read_bytes()
    assert mid != (tmp_path / "smp.csv").read_bytes()
    assert mid != (tmp_path / "exp.csv").read_bytes()
    # explicit mode requires a full-length point
    assert main(base + ["--fix-v", "explicit", "--v-values", "0.1"]) == 2


# --- exit codes over generated argvs ----------------------------------------

FUZZ_FLOATS = ("nan", "inf", "-inf", "0", "-1", "1e200", "1e-200", "1e308", "-1e308",
               "1e-308")
FUZZ_SEEDS = ("-1", str(2 ** 64))
# words that are no integer, no list of one, or not even one value
MALFORMED = ("x", "1.5", ",", "")


def _floats(*valid):
    """One of ``valid`` about half the time, else a value from FUZZ_FLOATS
    or a malformed word."""
    return st.one_of(st.sampled_from(valid), st.sampled_from(FUZZ_FLOATS + MALFORMED))


def _float_list(size, *valid):
    """``size`` entries from ``valid``, 1 to ``size`` entries of which any
    may be out of range or malformed, or a malformed word."""
    return st.one_of(st.lists(st.sampled_from(valid), min_size=size, max_size=size)
                     .map(",".join),
                     st.lists(_floats(*valid), min_size=1, max_size=size).map(",".join),
                     st.sampled_from(MALFORMED))


def _int_list(top):
    return st.one_of(st.lists(_ints(top), min_size=1, max_size=3).map(",".join),
                     st.sampled_from(MALFORMED))


def _ints(top):
    return st.one_of(st.integers(-1, top).map(str), st.sampled_from(MALFORMED))


def _config_keys(size):
    """Config keys with the flags' bounds and fuzz values; the key ``fix_v``
    may also hold a name no flag accepts."""
    return {"reps": _ints(8), "mc_n": _ints(64), "pairs": _ints(64),
            "eps": _float_list(2, "0.1", "0.01"), "d_grid": _int_list(16),
            "fix_v": st.sampled_from(("midpoint", "sample", "explicit", "bogus")),
            "fix_v_values": _float_list(size, "0.5", "0.1"), "decay.n": _ints(64),
            "chain.preset": st.just("lindley"), "chain.d": _ints(16),
            "chain.gamma": _floats("-2", "-1.5"), "chain.a": _floats("-1", "-0.5"),
            "chain.b": _floats("1", "0.5"),
            "chain.time_varying": st.sampled_from(("true", "false"))}


@st.composite
def bounded_argvs(draw):
    """A CLI argv and a config text with d and the d grid at most 16, reps at
    most 8 and pairs, mc_n and decay paths at most 64; every numeric flag or
    key may be out of range or malformed, a name flag may name no option, and
    the ``--out`` path may not be writable."""
    command = draw(st.sampled_from(("anova", "estimate", "bench", "markov", "lemma1")))
    argv = [command]
    d = draw(st.integers(-1, 16))
    size = max(d, 1)
    config = {key: draw(values) for key, values in _config_keys(size).items()
              if draw(st.booleans())}
    flags = {"--d": st.one_of(st.just(str(d)), st.sampled_from(MALFORMED)),
             "--seed": st.one_of(st.sampled_from(("0", "12", str(2 ** 64 - 1))),
                                 st.sampled_from(FUZZ_SEEDS))}
    if command == "markov":
        if draw(st.booleans()):
            argv.append("decay")
            flags.update({"--i": _int_list(16), "--n": _ints(64)})
        else:
            flags["--reps"] = _ints(8)
        flags.update({"--gamma": _floats("-2", "-1.5"), "--a": _floats("-1", "-0.5"),
                      "--b": _floats("1", "0.5"), "--time-varying": st.none()})
    else:
        flags.update({"--family": st.sampled_from(("additive", "product", "bogus")),
                      "--coeffs": _float_list(size, "0.5", "-0.5", "1"),
                      "--decay-r": _floats("0.5", "0.9")})
    if command == "anova":
        flags.update({"--method": st.sampled_from(("analytic", "mc")),
                      "--pairs": _ints(64)})
    if command in ("estimate", "bench", "lemma1"):
        flags["--reps"] = _ints(8)
    if command in ("estimate", "bench"):
        flags["--mc-n"] = _ints(64)
    if command == "estimate":
        flags.update({"--method": st.sampled_from(("mc", "mlmc", "mlmc-fixed")),
                      "--fix-v": st.sampled_from(("midpoint", "sample", "explicit",
                                                  "bogus")),
                      "--v-values": _float_list(size, "0.5", "0.1")})
    if command in ("bench", "lemma1"):
        flags["--d-grid"] = _int_list(16)
    if command == "bench":
        flags.update({"--eps": _floats("0.1", "0.01", "1e-150"),
                      "--methods": st.sampled_from(("mc", "mlmc,mlmc-fixed"))})
    # a size is always given, by its flag or by the config, so that no run is large
    sizes = {"--d": "chain.d" if command == "markov" else None, "--reps": "reps",
             "--n": "decay.n"}
    for flag, values in flags.items():
        if (flag in sizes and sizes[flag] not in config) or draw(st.booleans()):
            value = draw(values)
            argv.append(flag if value is None else f"{flag}={value}")
    # always an output path under the run's directory {tmp}, which may name a
    # missing directory or the directory itself
    out = draw(st.sampled_from(("out.csv", os.path.join("missing", "out.csv"), "")))
    argv.append("--out=" + os.path.join("{tmp}", out))
    return argv, "".join(f"{key} = {value}\n" for key, value in config.items())


@given(bounded_argvs())
@settings(max_examples=300, deadline=None)
def test_every_exit_code_is_truthful(case):
    # 0, or a one-line config error (2) or numerical failure (3); a usage
    # error of argparse, which prints its usage block, fails here too
    argv, text = case
    err = io.StringIO()
    with tempfile.TemporaryDirectory() as tmp, warnings.catch_warnings():
        config = os.path.join(tmp, "fuzz.cfg")
        with open(config, "w", encoding="utf-8") as handle:
            handle.write(text)
        warnings.simplefilter("error", RuntimeWarning)  # a warning is a second line
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
            try:
                code = main([arg.replace("{tmp}", tmp) for arg in argv]
                            + ["--config", config])
            except SystemExit as exc:
                code = exc.code
    assert code in (0, 2, 3), (argv, text, code, err.getvalue())
    if code in (2, 3):
        assert err.getvalue().count("\n") == 1, (argv, text, err.getvalue())
