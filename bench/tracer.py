"""Span tracer that wraps the public functions of each ``truncmlmc`` layer.

The wrappers live here, in the benchmark, so the program itself is unchanged.
Each call of a wrapped function records one span: id, parent id, layer name,
start, end, and a work count (uniforms drawn, points evaluated, paths
stepped).  Spans are kept in memory, in one buffer per thread, and summed at
the end.  Parents are tracked per thread; a span that starts on a thread with
no open span (a grid cell on a pool thread) is attributed to the CLI run that
is open on the main thread.  Self time is a span's duration minus the union
of its children's intervals, so cells running on two threads are not
subtracted twice.
"""

from __future__ import annotations

import dataclasses
import itertools
import sys
import threading
from array import array
from time import perf_counter

import numpy as np

LAYERS = ("cli.main", "config.build", "runner.cell", "mlmc.rep",
          "mlmc.summarize", "markov.rep", "markov.step", "markov.decay",
          "anova.profile", "streams.fork", "streams.draw", "integrands.eval")

_FIELDS = 7  # id, parent, layer, start, end, work, bytes


class _Buffer:
    __slots__ = ("tid", "stack", "data")

    def __init__(self):
        self.tid = threading.get_ident()
        self.stack: list[int] = []
        self.data = array("d")


class Tracer:
    """Collects spans from functions wrapped with :meth:`wrap`."""

    def __init__(self):
        self._ids = itertools.count()
        self._local = threading.local()
        self._buffers: list[_Buffer] = []
        self._root = -1

    def _buffer(self) -> _Buffer:
        try:
            return self._local.buffer
        except AttributeError:
            buffer = self._local.buffer = _Buffer()
            self._buffers.append(buffer)
            return buffer

    def wrap(self, fn, layer: str, work=None, root: bool = False):
        """``fn`` recording one ``layer`` span per call.

        ``work(args)`` returns the call's (work count, bytes computed).  A
        ``root`` span adopts spans that start on threads with nothing open.
        """
        code = LAYERS.index(layer)
        ids, buffer, tracer = self._ids, self._buffer, self

        def traced(*args, **kwargs):
            buf = buffer()
            stack = buf.stack
            parent = stack[-1] if stack else tracer._root
            sid = next(ids)
            stack.append(sid)
            if root:
                tracer._root = sid
            start = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                end = perf_counter()
                stack.pop()
                if root:
                    tracer._root = parent
                amount, nbytes = work(args) if work is not None else (0, 0)
                buf.data.extend((sid, parent, code, start, end, amount, nbytes))

        return traced

    def totals(self) -> dict[str, dict[str, float]]:
        """Per layer: calls, total and self seconds, work count and bytes."""
        parts = [np.frombuffer(b.data, dtype=float).reshape(-1, _FIELDS)
                 for b in self._buffers]
        spans = np.concatenate(parts) if parts else np.empty((0, _FIELDS))
        tids = np.concatenate([np.full(len(p), b.tid, dtype=np.int64)
                               for b, p in zip(self._buffers, parts)]
                              or [np.empty(0, dtype=np.int64)])
        order = np.argsort(spans[:, 0], kind="stable")
        spans, tids = spans[order], tids[order]
        count = len(spans)
        if not np.array_equal(spans[:, 0], np.arange(count)):
            raise RuntimeError("span ids are not contiguous: a span is still open")
        parent = spans[:, 1].astype(np.int64)
        layer = spans[:, 2].astype(np.int64)
        start, end = spans[:, 3], spans[:, 4]
        duration = end - start

        has_parent = parent >= 0
        same_thread = has_parent.copy()
        same_thread[has_parent] = tids[parent[has_parent]] == tids[has_parent]
        covered = np.bincount(parent[same_thread], weights=duration[same_thread],
                              minlength=count)
        # children on other threads may overlap each other and the parent's
        # own children: cover such parents by the union of all child intervals
        for p in np.unique(parent[has_parent & ~same_thread]):
            children = np.flatnonzero(parent == p)
            covered[p] = _union_length(start[children], end[children])
        self_time = duration - covered

        def per_layer(weights=None):
            return np.bincount(layer, weights=weights, minlength=len(LAYERS))

        calls, total, own = per_layer(), per_layer(duration), per_layer(self_time)
        work, nbytes = per_layer(spans[:, 5]), per_layer(spans[:, 6])
        return {name: {"calls": int(calls[k]), "total_s": float(total[k]),
                       "self_s": float(own[k]), "work": int(work[k]),
                       "bytes": int(nbytes[k])}
                for k, name in enumerate(LAYERS)}


def _union_length(starts, ends) -> float:
    covered, reach = 0.0, -np.inf
    for s, e in sorted(zip(starts, ends)):
        if e > reach:
            covered += e - max(s, reach)
            reach = e
    return covered


def _draw_work(args):
    return args[1], 0


def _eval_work(args):
    integrand, points = args[0], args[1]
    rows = np.shape(points)[0]
    return rows, rows * integrand.dimension * 8  # float64 points, computed


def _step_work(args):
    return np.size(args[1]), 0


def install(tracer: Tracer):
    """Wrap every layer's public entry points; return the traced ``cli.main``.

    Functions are replaced wherever a ``truncmlmc`` module holds them, since
    modules call each other through names they imported.
    """
    from truncmlmc import anova, cli, config, markov, mlmc, runner
    from truncmlmc.integrands import Integrand
    from truncmlmc.streams import UniformStream

    modules = [m for name, m in sys.modules.items()
               if name == "truncmlmc" or name.startswith("truncmlmc.")]

    def replace(fn, wrapped):
        for module in modules:
            for attr, value in list(vars(module).items()):
                if value is fn:
                    setattr(module, attr, wrapped)

    for module, names, layer in (
            (config, ("load_config", "integrand_from_config", "chain_from_config"),
             "config.build"),
            (runner, ("run_estimator_cell", "run_markov_cell"), "runner.cell"),
            (mlmc, ("estimate_mlmc", "estimate_mlmc_fixed", "standard_mc"),
             "mlmc.rep"),
            (mlmc, ("summarize",), "mlmc.summarize"),
            (markov, ("estimate_chain_mlmc",), "markov.rep"),
            (markov, ("measure_decay",), "markov.decay"),
            (anova, ("mc_profile", "analytic_profile"), "anova.profile")):
        for name in names:
            fn = getattr(module, name)
            replace(fn, tracer.wrap(fn, layer))

    UniformStream.fork = tracer.wrap(UniformStream.fork, "streams.fork")
    UniformStream.draw = tracer.wrap(UniformStream.draw, "streams.draw", _draw_work)
    Integrand.eval_batch = tracer.wrap(Integrand.eval_batch, "integrands.eval",
                                       _eval_work)

    make_lindley = markov.make_lindley

    def traced_make_lindley(*args, **kwargs):
        model = make_lindley(*args, **kwargs)
        step = tracer.wrap(model.step, "markov.step", _step_work)
        return dataclasses.replace(model, step=step)

    replace(make_lindley, traced_make_lindley)
    return tracer.wrap(cli.main, "cli.main", root=True)
