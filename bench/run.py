#!/usr/bin/env python3
"""Benchmark for truncmlmc: wall time, abstract cost units per second, memory.

Usage (from the root of a checkout)::

    python3 bench/run.py --workload cube_mlmc --seed 1 --seconds 40 --trace 0

One run repeats the workload's CLI invocations (see ``workloads.py``), each
pass in a fresh interpreter (``child.py``), until ``--seconds`` have passed,
one pass at a time: a closed loop with a single client.  Every pass is
timed from this process, its outputs are checked (``checks.py``) and their
sha256 compared with the first pass of the run and with earlier runs of the
same code and inputs.  The last line of stdout is one JSON object::

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

``attempted`` counts CLI invocations and ``failed`` those whose output check
failed, so error_rate = failed / attempted.  With ``--trace 0`` the metrics
are wall_s (the mean pass time), units_per_s (the workload's exact cost
units over wall_s), setup_s (the median set-up time) and peak_rss_mb (the
median peak RSS).  Pass and set-up times are rescaled to the reference host
speed by a calibration run right after each pass.  With ``--trace 1``
traced and untraced passes alternate, and the metrics are the per-layer
totals of one pass (medians over traced passes) plus trace.overhead_ratio
and the raw host.wall_s, host.setup_s and host.calib_s.  The line
before the last holds the run's details: the environment, and every pass
with its timings, exit codes and CSV hashes.  Run artifacts go to
``.bench_work/`` in the checkout.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import select
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

import checks
import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"
RUN_LIMIT_S = 150.0  # stop starting passes so the run ends well inside 180 s
# Typical time of child.calibrate() on the machine where the bounds were set
# (2-vCPU sandbox, see README.md); pass times are rescaled to this speed.
REF_CALIB_S = 0.30
MIN_PASSES = 3  # per kind of pass (untraced, traced) in one run


def _nproc() -> int:
    return len(os.sched_getaffinity(0))


def code_digest() -> str:
    """sha256 over the program's sources: 'same code' for the hash store."""
    digest = hashlib.sha256()
    for path in sorted((SRC / "truncmlmc").rglob("*.py")):
        digest.update(path.relative_to(SRC).as_posix().encode() + b"\0")
        digest.update(path.read_bytes() + b"\0")
    return digest.hexdigest()


def environment() -> dict:
    import numpy
    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = {"name": blas.get("name"), "version": blas.get("version")}
    except (TypeError, KeyError):  # numpy older than 1.26
        blas = {"name": "unknown", "version": "unknown"}
    cpu = platform.processor()
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as handle:
            cpu = next((line.split(":", 1)[1].strip() for line in handle
                        if line.startswith("model name")), cpu)
    except OSError:
        pass
    return {"nproc": _nproc(), "cpu_model": cpu,
            "python": platform.python_version(), "numpy": numpy.__version__,
            "blas": blas,
            "num_threads_env": {k: v for k, v in sorted(os.environ.items())
                                if k.endswith("_NUM_THREADS")}}


class HashStore:
    """CSV hashes of earlier runs, keyed by the program's code and the invocation."""

    def __init__(self, path: Path, code: str):
        self.path, self.code = path, code
        try:
            self.known = json.loads(path.read_text(encoding="utf-8"))
        except (OSError, ValueError):
            self.known = {}

    def agrees(self, invocation: dict, sha: str) -> bool:
        """Record ``sha``; False if the same code and inputs gave other bytes."""
        inputs = json.dumps(invocation, sort_keys=True).encode()
        key = f"{self.code}/{hashlib.sha256(inputs).hexdigest()}"
        return self.known.setdefault(key, sha) == sha

    def save(self) -> None:
        tmp = self.path.with_suffix(".tmp")
        tmp.write_text(json.dumps(self.known, indent=0, sort_keys=True),
                       encoding="utf-8")
        os.replace(tmp, self.path)


def run_pass(spec_path: Path, timeout: float) -> dict:
    """Run one child pass; time it from here by the lines it reports."""
    read_fd, write_fd = os.pipe()
    started = time.perf_counter()
    proc = subprocess.Popen(
        [sys.executable, str(HERE / "child.py"), str(spec_path), str(write_fd)],
        pass_fds=(write_fd,), stdin=subprocess.DEVNULL,
        stdout=subprocess.DEVNULL, cwd=ROOT)
    os.close(write_fd)
    stamps, payloads, pending = {}, {}, b""
    deadline = started + timeout
    ended = False  # the child closed its end of the pipe
    try:
        while not ended:
            remaining = deadline - time.perf_counter()
            if remaining <= 0 or not select.select([read_fd], [], [], remaining)[0]:
                break
            chunk = os.read(read_fd, 1 << 16)
            now = time.perf_counter()
            ended = not chunk
            pending += chunk
            while b"\n" in pending:
                line, pending = pending.split(b"\n", 1)
                tag, _, body = line.decode().partition(" ")
                stamps[tag] = now
                payloads[tag] = json.loads(body) if body else None
    finally:
        os.close(read_fd)
        if not ended:  # timed out, or this process is being stopped
            proc.kill()
        proc.wait()
    result = {"exit_code": proc.returncode, "done": payloads.get("done"),
              "trace": payloads.get("trace")}
    if "ready" in stamps:
        result["setup_s"] = stamps["ready"] - started
        if "calib" in stamps:
            result["wall_s"] = stamps["done"] - stamps["ready"]
            result["calib_s"] = stamps["calib"] - stamps["done"]
            result["peak_rss_mb"] = payloads["done"]["peak_rss_kb"] / 1024.0
    return result


def check_pass(invocations, done, outs, first_sha: dict, store: HashStore):
    """Check one pass's outputs; an invocation failed when it has problems.

    ``first_sha`` maps invocation names to the hashes of the run's first pass
    and is filled in here.
    """
    records = []
    for inv, rc, seconds, out in zip(invocations, done["exit_codes"],
                                     done["seconds"], outs):
        problems = checks.check_output(inv, rc, out)
        sha, size = None, 0
        if out.is_file():
            data = out.read_bytes()
            sha, size = hashlib.sha256(data).hexdigest(), len(data)
            if first_sha.setdefault(inv["name"], sha) != sha:
                problems.append("CSV bytes differ from this run's first pass")
            if not store.agrees(inv, sha):
                problems.append("CSV bytes differ from an earlier run "
                                "of the same code and inputs")
        records.append({"name": inv["name"], "exit_code": rc, "seconds": seconds,
                        "sha256": sha, "csv_bytes": size, "units": inv["units"],
                        "problems": problems})
    return records


# per-layer metric: (tracer layer, field, unit); "per_call" is work / calls
LAYER_METRICS = {
    "streams.fork_calls": ("streams.fork", "calls", "count"),
    "streams.fork_s": ("streams.fork", "total_s", "s"),
    "streams.draw_calls": ("streams.draw", "calls", "count"),
    "streams.draw_s": ("streams.draw", "total_s", "s"),
    "streams.draw_units": ("streams.draw", "work", "count"),
    "streams.uniforms_per_draw": ("streams.draw", "per_call", "count"),
    "integrands.eval_calls": ("integrands.eval", "calls", "count"),
    "integrands.eval_s": ("integrands.eval", "total_s", "s"),
    "integrands.eval_points": ("integrands.eval", "work", "count"),
    "integrands.points_per_eval": ("integrands.eval", "per_call", "count"),
    "integrands.bytes_computed": ("integrands.eval", "bytes", "B"),
    "mlmc.rep_calls": ("mlmc.rep", "calls", "count"),
    "mlmc.rep_s": ("mlmc.rep", "total_s", "s"),
    "mlmc.self_s": ("mlmc.rep", "self_s", "s"),
    "mlmc.summarize_s": ("mlmc.summarize", "total_s", "s"),
    "markov.rep_calls": ("markov.rep", "calls", "count"),
    "markov.rep_s": ("markov.rep", "total_s", "s"),
    "markov.self_s": ("markov.rep", "self_s", "s"),
    "markov.step_calls": ("markov.step", "calls", "count"),
    "markov.step_s": ("markov.step", "total_s", "s"),
    "markov.paths_per_step": ("markov.step", "per_call", "count"),
    "markov.decay_s": ("markov.decay", "total_s", "s"),
    "anova.profile_s": ("anova.profile", "total_s", "s"),
    "anova.self_s": ("anova.profile", "self_s", "s"),
    "runner.cell_calls": ("runner.cell", "calls", "count"),
    "runner.cell_s": ("runner.cell", "total_s", "s"),
    "runner.self_s": ("runner.cell", "self_s", "s"),
    "cli.main_s": ("cli.main", "total_s", "s"),
    "cli.self_s": ("cli.main", "self_s", "s"),
    "config.build_s": ("config.build", "total_s", "s"),
}


def layer_metrics(totals: dict) -> dict[str, tuple[float, str]]:
    """Named per-layer metrics of one traced pass, from the tracer's totals."""
    metrics = {}
    for name, (layer, field, unit) in LAYER_METRICS.items():
        t = totals[layer]
        if field == "per_call":
            metrics[name] = (t["work"] / t["calls"] if t["calls"] else 0.0, unit)
        else:
            metrics[name] = (t[field], unit)
    return metrics


def _median_metrics(samples: list[dict]) -> dict:
    # median_low keeps a measured value, so counts stay whole numbers
    return {name: {"value": statistics.median_low(s[name][0] for s in samples),
                   "unit": unit} for name, (_, unit) in samples[0].items()}


def run(workload: str, seed: int, seconds: float, trace: bool) -> tuple[dict, dict]:
    threads = min(2, _nproc())
    invocations = workloads.build(workload, seed, threads)
    units_total = sum(inv["units"] for inv in invocations)
    code = code_digest()
    WORK.mkdir(exist_ok=True)
    tmp_dir = WORK / f"run-{os.getpid()}"
    shutil.rmtree(tmp_dir, ignore_errors=True)
    tmp_dir.mkdir()
    store = HashStore(WORK / "hashes.json", code)
    argvs, outs = [], []
    for inv in invocations:
        out = tmp_dir / f"{inv['name']}.csv"
        argv = list(inv["argv"])
        if "config" in inv:
            config = tmp_dir / f"{inv['name']}.cfg"
            config.write_text(inv["config"], encoding="utf-8")
            argv = [str(config) if a == "{config}" else a for a in argv]
        argvs.append(argv + ["--out", str(out)])
        outs.append(out)
    spec_paths = {}
    for traced in (False, True) if trace else (False,):
        spec_paths[traced] = tmp_dir / f"spec-{int(traced)}.json"
        spec_paths[traced].write_text(json.dumps(
            {"src": str(SRC), "trace": traced, "argvs": argvs}), encoding="utf-8")

    first_sha: dict[str, str] = {}
    passes, attempted, failed = [], 0, 0
    begun = time.perf_counter()
    try:
        while True:
            traced = trace and len(passes) % 2 == 1
            for out in outs:
                out.unlink(missing_ok=True)
            elapsed = time.perf_counter() - begun
            result = run_pass(spec_paths[traced], RUN_LIMIT_S + 20.0 - elapsed)
            done = result["done"] or {"exit_codes": [None] * len(invocations),
                                      "seconds": [None] * len(invocations)}
            record = {"traced": traced, **{k: v for k, v in result.items()
                                             if k not in ("done", "trace")},
                      "invocations": check_pass(invocations, done, outs,
                                                first_sha, store)}
            attempted += len(invocations)
            failed += sum(bool(inv["problems"]) for inv in record["invocations"])
            if result["trace"] is not None:
                record["layers"] = layer_metrics(result["trace"])
                record["layers"]["cli.csv_bytes"] = (
                    sum(inv["csv_bytes"] for inv in record["invocations"]), "B")
            passes.append(record)
            if "wall_s" not in result:
                break  # the pass did not complete; more passes would not either
            elapsed = time.perf_counter() - begun
            traced_count = sum(p["traced"] for p in passes)
            enough = min(len(passes) - traced_count,
                         traced_count if trace else MIN_PASSES) >= MIN_PASSES
            longest = max(p["setup_s"] + p["wall_s"] + p["calib_s"] for p in passes)
            if (elapsed >= seconds and enough) or elapsed + longest > RUN_LIMIT_S:
                break
    finally:
        shutil.rmtree(tmp_dir, ignore_errors=True)
        store.save()

    def ref_wall(selected):
        # each pass's wall time at the reference speed, averaged: the host's
        # speed drifts by up to 2x over minutes, and the calibration run right
        # after the pass tracks it
        return REF_CALIB_S * statistics.mean(p["wall_s"] / p["calib_s"]
                                             for p in selected)

    def ref_setup(selected):
        return REF_CALIB_S * statistics.median(p["setup_s"] / p["calib_s"]
                                               for p in selected)

    plain = [p for p in passes if "wall_s" in p and not p["traced"]]
    traced = [p for p in passes if "wall_s" in p and p["traced"]]
    if not plain or (trace and not traced):
        metrics = {}
    elif trace:
        metrics = _median_metrics([p["layers"] for p in traced])
        metrics["trace.overhead_ratio"] = {
            "value": ref_wall(traced) / ref_wall(plain), "unit": "ratio"}
        metrics["host.wall_s"] = {
            "value": statistics.mean(p["wall_s"] for p in plain), "unit": "s"}
        metrics["host.calib_s"] = {
            "value": statistics.mean(p["calib_s"] for p in plain), "unit": "s"}
        metrics["host.setup_s"] = {
            "value": statistics.median(p["setup_s"] for p in plain), "unit": "s"}
    else:
        wall = ref_wall(plain)
        metrics = {
            "wall_s": {"value": wall, "unit": "s"},
            "units_per_s": {"value": units_total / wall, "unit": "units/s"},
            "setup_s": {"value": ref_setup(plain), "unit": "s"},
            "peak_rss_mb": {"value": statistics.median(p["peak_rss_mb"] for p in plain),
                            "unit": "MB"},
        }
    details = {"workload": workload, "seed": seed, "seconds": seconds,
               "trace": trace, "threads": threads, "code_sha256": code,
               "units_total": units_total, "environment": environment(),
               "argvs": argvs, "passes": passes}
    summary = {"correct": failed == 0 and bool(metrics), "attempted": attempted,
               "failed": failed, "metrics": metrics}
    return summary, details


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    # on SIGTERM, unwind through the finally blocks that stop the child
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    if not (SRC / "truncmlmc" / "__init__.py").is_file():
        print(f"error: no truncmlmc sources under {SRC}; run from a checkout",
              file=sys.stderr)
        return 2
    summary, details = run(args.workload, args.seed, args.seconds, bool(args.trace))
    details_path = WORK / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    details_path.write_text(json.dumps(details, indent=1), encoding="utf-8")
    print(json.dumps(details))
    print(json.dumps(summary))
    return 0


if __name__ == "__main__":
    sys.exit(main())
