"""Golden byte corpus: the sha256 of each CLI output must match its pinned value.

Reruns of the same code are covered by criterion 12; this file pins the bytes
across code changes, so a refactor shows it changed no output byte.  A change
that alters output bytes on purpose declares it in CHANGES.md and re-pins with
``python tests/test_golden.py``, which rewrites ``golden/hashes.json``.

No integrand evaluator goes through BLAS: the additive family is an
elementwise product and a row sum, so a row's bits do not depend on the batch
it is evaluated in (tests/test_integrands.py checks this).  The per-level sums
of squares are ``np.vecdot`` rows of one replication's increments, in
``mlmc._telescope``; ROADMAP item 2 lists them among the machine-dependent
reductions.  The hashes were pinned with numpy 2.4 and OpenBLAS 0.3.31
(DYNAMIC_ARCH, x86-64).
"""

import hashlib
import json
import sys
from pathlib import Path

import pytest

from truncmlmc import mlmc, streams
from truncmlmc.cli import main

HASHES = Path(__file__).parent / "golden" / "hashes.json"

GRID_CONFIG = """\
seed = 21
methods = mc,mlmc,mlmc-fixed
d_grid = 2,4,8
eps = 0.05,0.01
reps = 40
integrand.family = product
integrand.decay_r = 0.8
"""

INVOCATIONS = {
    # the eight invocations of acceptance criterion 12
    "anova_product_mc": ["anova", "--family", "product", "--d", "6", "--method", "mc",
                         "--pairs", "2000", "--seed", "12"],
    "estimate_mlmc": ["estimate", "--family", "additive", "--d", "16", "--method",
                      "mlmc", "--reps", "50", "--seed", "12"],
    "estimate_mlmc_fixed_sample": ["estimate", "--family", "additive", "--d", "8",
                                   "--method", "mlmc-fixed", "--fix-v", "sample",
                                   "--reps", "50", "--seed", "12"],
    "estimate_mc": ["estimate", "--family", "additive", "--d", "8", "--method", "mc",
                    "--reps", "50", "--seed", "12"],
    "bench_additive": ["bench", "--family", "additive", "--d-grid", "4,16",
                       "--eps", "0.05", "--methods", "mc,mlmc", "--reps", "100",
                       "--seed", "12"],
    "markov_d32": ["markov", "--d", "32", "--gamma", "-2", "--reps", "50",
                   "--seed", "12"],
    "markov_decay_d32": ["markov", "decay", "--d", "32", "--gamma", "-2", "--i",
                         "2,4,8", "--n", "2000", "--seed", "12"],
    "lemma1_additive_d8": ["lemma1", "--family", "additive", "--d", "8", "--reps",
                           "200", "--seed", "12"],
    # a configured grid; the thread count must not change a byte
    "grid_threads1": ["estimate", "--config", "{config}", "--threads", "1"],
    "grid_threads2": ["estimate", "--config", "{config}", "--threads", "2"],
    "markov_d256": ["markov", "--d", "256", "--reps", "20", "--seed", "12"],
    # a chain level wider than the budget runs in several replication batches
    "markov_d1024": ["markov", "--d", "1024", "--gamma", "-2", "--reps", "40",
                     "--seed", "12"],
    # a drift of 0 keeps the batched levels' increments nonzero, so a batch
    # that samples other replications changes bytes
    "markov_d1024_zero_drift": ["markov", "--d", "1024", "--a", "-0.5", "--b", "0.5",
                                "--gamma", "-2", "--reps", "40", "--seed", "12"],
    # d = 2 has a single level: pooled level sums over one column
    "lemma1_product_d2_d8": ["lemma1", "--family", "product", "--d-grid", "2,8",
                             "--seed", "12"],
    # the sampling oracle over several row blocks per i
    "anova_additive_mc_d32": ["anova", "--family", "additive", "--d", "32", "--method",
                              "mc", "--pairs", "3000", "--seed", "12"],
    # the time-varying increments, both as chain levels and as the decay
    "markov_time_varying_d256": ["markov", "--d", "256", "--time-varying", "--reps",
                                 "20", "--seed", "12"],
    "markov_decay_time_varying_d64": ["markov", "decay", "--d", "64", "--time-varying",
                                      "--gamma", "-2", "--i", "0,2,4,8,16,64", "--n",
                                      "5000", "--seed", "12"],
    "markov_ab_d64": ["markov", "--d", "64", "--a", "-0.7", "--b", "0.5", "--gamma",
                      "-3", "--reps", "100", "--seed", "12"],
    # a fixed point given on the command line
    "estimate_mlmc_fixed_explicit": ["estimate", "--family", "product", "--d", "4",
                                     "--method", "mlmc-fixed", "--fix-v", "explicit",
                                     "--v-values", "0.1,0.9,0.3,0.6", "--reps", "50",
                                     "--seed", "12"],
    # the exact oracle's product tail and d_t
    "anova_product_analytic_d24": ["anova", "--family", "product", "--d", "24",
                                   "--method", "analytic", "--decay-r", "0.7",
                                   "--seed", "12"],
    # the product family's level cells and theoretical bound
    "bench_product": ["bench", "--family", "product", "--d-grid", "4,16,64",
                      "--methods", "mc,mlmc,mlmc-fixed", "--mc-n", "2", "--reps",
                      "40", "--seed", "3"],
}


def output_hash(name: str, workdir: Path) -> str:
    config = workdir / "grid.cfg"
    config.write_text(GRID_CONFIG, encoding="utf-8")
    out = workdir / f"{name}.csv"
    argv = [arg.replace("{config}", str(config)) for arg in INVOCATIONS[name]]
    assert main(argv + ["--out", str(out)]) == 0, argv
    return hashlib.sha256(out.read_bytes()).hexdigest()


@pytest.mark.parametrize("name", sorted(INVOCATIONS))
def test_output_matches_pinned_hash(name, tmp_path):
    pinned = json.loads(HASHES.read_text(encoding="utf-8"))
    assert output_hash(name, tmp_path) == pinned[name], INVOCATIONS[name]


@pytest.mark.parametrize("budget,workers", [(0, 8), (4 * 256, 2), (2 ** 62, 1)],
                         ids=["one-per-chunk", "sub-batches", "unbounded"])
def test_hashes_do_not_depend_on_chunk_size(budget, workers, tmp_path, monkeypatch):
    # replication chunks and the decay's row blocks, which share one budget,
    # and the pool's thread count; the radial design's segments set its sums'
    # order, so they stay as they are
    monkeypatch.setattr(mlmc, "_CHUNK_ELEMENTS", budget)
    monkeypatch.setattr(streams, "_cpu_count", lambda: workers)
    pinned = json.loads(HASHES.read_text(encoding="utf-8"))
    for name in sorted(INVOCATIONS):
        assert output_hash(name, tmp_path) == pinned[name], INVOCATIONS[name]


def test_every_invocation_is_pinned():
    assert sorted(json.loads(HASHES.read_text(encoding="utf-8"))) == sorted(INVOCATIONS)


if __name__ == "__main__":
    import tempfile

    with tempfile.TemporaryDirectory() as tmp:
        hashes = {name: output_hash(name, Path(tmp)) for name in sorted(INVOCATIONS)}
    HASHES.parent.mkdir(exist_ok=True)
    HASHES.write_text(json.dumps(hashes, indent=2) + "\n", encoding="utf-8")
    print(f"pinned {len(hashes)} hashes -> {HASHES}", file=sys.stderr)
