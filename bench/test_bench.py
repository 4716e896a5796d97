"""Tests of the benchmark itself: the output check, unit counts and tracer.

Run from the checkout root with ``python3 -m pytest bench/test_bench.py``.
"""

from __future__ import annotations

import contextlib
import io
import json
import shutil
import subprocess
import sys
import threading
import time
from pathlib import Path

import pytest

import checks
import run
import tracer
import workloads

sys.path.insert(0, str(run.SRC))

from truncmlmc import cli  # noqa: E402
from truncmlmc.markov import estimate_chain_mlmc, make_lindley, measure_decay  # noqa: E402
from truncmlmc.anova import mc_profile  # noqa: E402
from truncmlmc.integrands import geometric_coefficients, make_additive  # noqa: E402
from truncmlmc.mlmc import (estimate_mlmc, estimate_mlmc_fixed, standard_mc,  # noqa: E402
                            truncation_schedule)
from truncmlmc.streams import new_stream  # noqa: E402


@pytest.fixture(scope="module")
def outputs(tmp_path_factory):
    """Every invocation of every workload at seed 7, run once in-process."""
    tmp = tmp_path_factory.mktemp("outputs")
    results = []
    for workload in workloads.WORKLOADS:
        for inv in workloads.build(workload, 7, threads=2):
            out = tmp / f"{inv['name']}.csv"
            argv = list(inv["argv"])
            if "config" in inv:
                config = tmp / f"{inv['name']}.cfg"
                config.write_text(inv["config"], encoding="utf-8")
                argv = [str(config) if a == "{config}" else a for a in argv]
            with contextlib.redirect_stdout(io.StringIO()):
                rc = cli.main(argv + ["--out", str(out)])
            results.append((inv, rc, out))
    return results


def _corrupted(path: Path, tmp_path: Path, column: str, change,
               rows: slice = slice(0, 1)) -> Path:
    """Copy of the CSV with ``column`` of the data ``rows``, where filled,
    replaced by ``change(old_text)``."""
    lines = path.read_text(encoding="utf-8").splitlines()
    k = lines[0].split(",").index(column)
    for i in range(len(lines) - 1)[rows]:
        cells = lines[1 + i].split(",")
        if cells[k]:
            cells[k] = change(cells[k])
        lines[1 + i] = ",".join(cells)
    copy = tmp_path / path.name
    copy.write_text("\n".join(lines) + "\n", encoding="utf-8")
    return copy


def _error_rate(invocations, exit_codes, outs) -> float:
    store = run.HashStore(Path("/nonexistent/hashes.json"), "code")
    done = {"exit_codes": exit_codes, "seconds": [0.0] * len(invocations)}
    records = run.check_pass(invocations, done, outs, {}, store)
    return sum(bool(r["problems"]) for r in records) / len(records)


def test_seed_outputs_pass(outputs):
    for inv, rc, out in outputs:
        assert checks.check_output(inv, rc, out) == [], inv["name"]


# column holding a value of each kind, and the column holding its unit count
VALUE_COLUMN = {"bench": "mean", "grid": "mean", "markov": "value", "anova": "D",
                "decay": "msd"}
UNIT_COLUMN = {"bench": "mean_cost", "grid": "cost_units", "markov": "cost_units"}


@pytest.mark.parametrize("bad", ["nan", "inf", "12345.0"])
def test_corrupted_value_raises_error_rate(outputs, tmp_path, bad):
    for inv, rc, out in outputs:
        if bad == "12345.0" and inv["kind"] == "markov":
            continue  # no known mean for a chain replication value
        # a decay curve fails by rising, so corrupt its last depth
        rows = slice(-1, None) if inv["kind"] == "decay" else slice(0, 1)
        bad_out = _corrupted(out, tmp_path, VALUE_COLUMN[inv["kind"]],
                             lambda _: bad, rows)
        assert _error_rate([inv], [rc], [out]) == 0.0
        assert _error_rate([inv], [rc], [bad_out]) == 1.0, (inv["name"], bad)


def test_anova_check_allows_for_correlated_pairs(tmp_path):
    # at this seed the additive D(0) is 4.2 reported SEs from the exact value,
    # but the reported SE treats the correlated pair values as independent
    inv = next(i for i in workloads.build("oracle_bulk", 180138344, 2)
               if i["name"] == "anova_additive")
    out = tmp_path / "anova.csv"
    with contextlib.redirect_stdout(io.StringIO()):
        rc = cli.main(inv["argv"] + ["--out", str(out)])
    assert checks.check_output(inv, rc, out) == []
    se = [float(r["SE"]) for r in checks._read(out, checks.ANOVA_HEADER)]
    bound = checks.anova_se_bound(se)
    assert bound[0] == pytest.approx(2 ** 0.5 * se[0]) and bound[-1] >= se[-1]
    exact = checks.exact_profile("additive", 32)[0]
    shifted = _corrupted(out, tmp_path, "D", lambda _: repr(exact + 4.5 * bound[0]))
    assert _error_rate([inv], [rc], [shifted]) == 1.0


def test_changed_unit_count_raises_error_rate(outputs, tmp_path):
    for inv, rc, out in outputs:
        if inv["kind"] not in UNIT_COLUMN:
            continue  # anova and decay CSVs carry no unit count
        bad_out = _corrupted(out, tmp_path, UNIT_COLUMN[inv["kind"]],
                             lambda old: repr(float(old) + 1.0) if "." in old
                             else str(int(old) + 1), slice(None))
        assert _error_rate([inv], [rc], [bad_out]) == 1.0, inv["name"]
        changed = {**inv, "units": inv["units"] + 1}
        assert _error_rate([changed], [rc], [out]) == 1.0, inv["name"]


def test_nonzero_exit_raises_error_rate(outputs, tmp_path):
    inv, _, out = outputs[0]
    assert _error_rate([inv], [2], [out]) == 1.0
    assert _error_rate([inv], [None], [out]) == 1.0
    # and through a real child pass: an invalid dimension is a config error
    spec = tmp_path / "spec.json"
    spec.write_text(json.dumps({"src": str(run.SRC), "trace": False, "argvs": [
        ["markov", "--d", "1", "--reps", "2", "--out", str(tmp_path / "m.csv")]]}))
    result = run.run_pass(spec, timeout=60.0)
    assert result["exit_code"] == 0 and "wall_s" in result
    assert result["done"]["exit_codes"] == [2]
    assert _error_rate([inv], result["done"]["exit_codes"], [tmp_path / "m.csv"]) == 1.0


def test_hash_change_between_runs_is_a_failure(outputs, tmp_path):
    inv, rc, out = outputs[0]
    store = run.HashStore(tmp_path / "hashes.json", "code")
    done = {"exit_codes": [rc], "seconds": [0.0]}
    assert run.check_pass([inv], done, [out], {}, store)[0]["problems"] == []
    store.save()
    reloaded = run.HashStore(tmp_path / "hashes.json", "code")
    first_sha = {}
    assert run.check_pass([inv], done, [out], first_sha, reloaded)[0]["problems"] == []
    changed = _corrupted(out, tmp_path, "mean", lambda _: "0.0")
    problems = run.check_pass([inv], done, [changed], first_sha, reloaded)[0]["problems"]
    assert any("first pass" in p for p in problems)
    assert any("earlier run" in p for p in problems)


def test_closed_form_units_match_the_ledger():
    for d in (2, 4, 16, 100, 256):
        f = make_additive(geometric_coefficients(d))
        schedule = truncation_schedule(d)
        for method, estimate in (
                ("mc", lambda s: standard_mc(f, 1, s)),
                ("mlmc", lambda s: estimate_mlmc(f, schedule, s)),
                ("mlmc-fixed", lambda s: estimate_mlmc_fixed(f, [0.5] * d, schedule, s))):
            assert estimate(new_stream(1)).cost_units == workloads.cube_rep_units(method, d)
    for d in (2, 64, 100, 1024):
        stream = new_stream(2)
        record = estimate_chain_mlmc(make_lindley(d), -2.0, stream)
        assert record.cost_units == workloads.chain_rep_units(d, -2.0)
    stream = new_stream(3)
    mc_profile(make_additive(geometric_coefficients(5)), 7, stream)
    assert stream.ledger.total_units == workloads.anova_units(5, 7)
    stream = new_stream(4)
    measure_decay(make_lindley(20), [0, 3, 20], 5, stream)
    assert stream.ledger.total_units == workloads.decay_units(20, [0, 3, 20], 5)


def test_workload_inputs_follow_the_seed():
    for workload in workloads.WORKLOADS:
        a, b = workloads.build(workload, 1, 2), workloads.build(workload, 1, 2)
        assert a == b
        other = workloads.build(workload, 2, 2)
        assert [i["units"] for i in other] == [i["units"] for i in a]
        assert [i.get("config", i["argv"]) for i in other] != \
            [i.get("config", i["argv"]) for i in a]


def test_tracer_self_time_and_threads():
    t = tracer.Tracer()

    def leaf():
        time.sleep(0.02)

    traced_leaf = t.wrap(leaf, "streams.draw", lambda args: (3, 0))

    def cell():
        traced_leaf()
        time.sleep(0.02)

    traced_cell = t.wrap(cell, "runner.cell")

    def main():
        workers = [threading.Thread(target=traced_cell) for _ in range(2)]
        for w in workers:
            w.start()
        for w in workers:
            w.join(timeout=10)
            assert not w.is_alive()
        time.sleep(0.02)

    t.wrap(main, "cli.main", root=True)()
    totals = t.totals()
    assert totals["streams.draw"]["calls"] == 2 and totals["streams.draw"]["work"] == 6
    cells = totals["runner.cell"]
    assert cells["calls"] == 2
    assert cells["self_s"] == pytest.approx(cells["total_s"] - totals["streams.draw"]["total_s"])
    main_total, main_self = totals["cli.main"]["total_s"], totals["cli.main"]["self_s"]
    # the cells (0.04 s each) overlap; main's self time excludes their union
    # once, and keeps its own final 0.02 s sleep
    assert 0.019 < main_self <= main_total - 0.039


def test_fails_without_the_program(tmp_path):
    shutil.copytree(run.HERE, tmp_path / run.HERE.name,
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(run.ROOT / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, f"{run.HERE.name}/run.py", "--workload", "chain_mlmc",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert proc.stdout == ""


def _declared(kind: str) -> set[str]:
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    return {m["name"] for m in spec[kind]}


def test_traced_pass_reports_every_layer(tmp_path):
    config = tmp_path / "grid.cfg"
    config.write_text("methods = mc,mlmc\nd_grid = 4,8\nreps = 20\n")
    argvs = [["bench", "--d-grid", "4,8", "--reps", "20"],
             ["estimate", "--config", str(config), "--threads", "2"],
             ["markov", "--d", "16", "--reps", "5"],
             ["anova", "--family", "product", "--d", "4", "--method", "mc",
              "--pairs", "50"],
             ["markov", "decay", "--d", "16", "--i", "2,4", "--n", "50"]]
    spec = tmp_path / "spec.json"
    spec.write_text(json.dumps({"src": str(run.SRC), "trace": True, "argvs": [
        argv + ["--out", str(tmp_path / f"{k}.csv")] for k, argv in enumerate(argvs)]}))
    result = run.run_pass(spec, timeout=60.0)
    assert result["done"]["exit_codes"] == [0] * len(argvs)
    metrics = run.layer_metrics(result["trace"])
    assert set(metrics) | {"cli.csv_bytes", "trace.overhead_ratio", "host.wall_s",
                           "host.setup_s", "host.calib_s"} == _declared("per_layer")
    for name, (value, _) in metrics.items():
        assert value > 0, name
    assert metrics["runner.cell_calls"][0] == 4 + 4 + 1  # bench, grid, markov cells
    assert metrics["markov.rep_calls"][0] == 5


@pytest.mark.parametrize("trace, kind", [(False, "end_to_end"), (True, "per_layer")])
def test_run_result_line(trace, kind):
    summary, details = run.run("chain_mlmc", seed=3, seconds=0, trace=trace)
    assert set(summary) == {"correct", "attempted", "failed", "metrics"}
    assert summary["correct"] and summary["failed"] == 0
    assert summary["attempted"] == run.MIN_PASSES * 2 * (1 + trace)
    assert set(summary["metrics"]) == _declared(kind)
    if not trace:
        assert all(m["value"] > 0 for m in summary["metrics"].values())
    assert details["environment"]["nproc"] >= 1
