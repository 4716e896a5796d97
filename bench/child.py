"""One timed pass over a workload, in a fresh interpreter.

Usage: ``python3 child.py SPEC_JSON REPORT_FD``.  Imports ``truncmlmc`` from
the checkout's ``src``, optionally installs the layer tracer, then writes
``ready`` to REPORT_FD, calls ``truncmlmc.cli.main`` once per invocation, and
writes ``done`` with the exit codes, per-invocation seconds and peak RSS.  The parent
times the pass from the arrival of those two lines.  The child then runs a
fixed calibration and writes ``calib``; a traced pass then writes ``trace``
with the per-layer totals.  The program's own stdout is left as the parent
set it.
"""

from __future__ import annotations

import json
import os
import resource
import sys
import time
import traceback
from pathlib import Path


def _emit(fd: int, tag: str, payload=None) -> None:
    line = tag if payload is None else f"{tag} {json.dumps(payload)}"
    os.write(fd, (line + "\n").encode())


def _invoke(main, argv) -> int:
    try:
        return int(main(argv))
    except SystemExit as exc:  # argparse rejects the command line
        return exc.code if isinstance(exc.code, int) else int(exc.code is not None)
    except Exception:  # keep going so the other invocations still run
        traceback.print_exc()
        return 1


def calibrate() -> None:
    """Fixed reference work, timed after each pass to gauge the host's speed.

    It mixes what the workloads spend their time on: interpreter bytecode,
    numpy calls on tiny arrays, and bulk arithmetic on an 8 MB array.
    numpy is imported here, after the pass, so that ``setup_s`` counts only
    what the program itself imports.
    """
    import numpy as np

    total = 0
    for i in range(1_000_000):
        total += i * i
    x, y = np.zeros(2), np.full(2, 0.3)
    for _ in range(30_000):
        x = np.maximum(x + (-0.6 + y), 0.0)
    a = np.random.default_rng(0).random(1_000_000)
    for _ in range(20):
        a = np.sqrt(a * 0.5 + 0.25)


def main() -> int:
    spec = json.loads(Path(sys.argv[1]).read_text(encoding="utf-8"))
    fd = int(sys.argv[2])
    src = Path(spec["src"]).resolve()
    sys.path.insert(0, str(src))
    from truncmlmc import cli
    if not Path(cli.__file__).resolve().is_relative_to(src):
        print(f"truncmlmc was imported from {cli.__file__}, not {src}", file=sys.stderr)
        return 2
    run = cli.main
    tracer = None
    if spec["trace"]:
        import tracer as tracing
        tracer = tracing.Tracer()
        run = tracing.install(tracer)
    _emit(fd, "ready")
    codes, seconds = [], []
    for argv in spec["argvs"]:
        started = time.perf_counter()
        codes.append(_invoke(run, argv))
        seconds.append(time.perf_counter() - started)
    # peak RSS of the program, before the calibration allocates its own
    peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    _emit(fd, "done", {"exit_codes": codes, "seconds": seconds, "peak_rss_kb": peak_kb})
    calibrate()
    _emit(fd, "calib")
    if tracer is not None:
        _emit(fd, "trace", tracer.totals())
    return 0


if __name__ == "__main__":
    sys.exit(main())
