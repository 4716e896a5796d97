"""Deterministic splittable uniform streams with exact cost accounting.

Every source of randomness in this package is a :class:`UniformStream`: a
counter-based generator identified by ``(seed, path)``.  Forking derives an
independent child whose identity depends only on the fork labels, never on
how much the parent has already drawn, so results are reproducible under any
execution order.  Costs are counted in abstract units (one coordinate draw,
one chain step, one payoff evaluation each cost one unit) on a
:class:`CostLedger` shared along the fork tree.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

_SEED_MASK = (1 << 64) - 1


@dataclass
class CostLedger:
    """Abstract cost counters for one run; monotone nondecreasing."""

    coordinate_draws: int = 0
    step_applications: int = 0
    payoff_evals: int = 0

    @property
    def total_units(self) -> int:
        return self.coordinate_draws + self.step_applications + self.payoff_evals

    def snapshot(self) -> tuple[int, int, int]:
        """Current (draws, steps, payoffs), for measuring deltas."""
        return (self.coordinate_draws, self.step_applications, self.payoff_evals)


class UniformStream:
    """Splittable stream of uniform [0, 1) variates.

    Streams with equal ``(seed, path)`` produce identical sequences; streams
    with different paths are statistically independent.  ``counter`` is the
    exact number of variates drawn from this stream since creation.  A fork
    tree shares one ledger, so use its streams from one thread.
    """

    __slots__ = ("seed", "path", "counter", "ledger", "_gen")

    def __init__(self, seed: int, path: tuple[int, ...] = (),
                 ledger: CostLedger | None = None):
        self.seed = seed & _SEED_MASK
        self.path = tuple(path)
        self.counter = 0
        self.ledger = CostLedger() if ledger is None else ledger
        key = np.random.SeedSequence(self.seed, spawn_key=self.path)
        self._gen = np.random.Generator(np.random.Philox(key))

    def __repr__(self) -> str:
        return f"UniformStream(seed={self.seed}, path={self.path}, counter={self.counter})"

    def fork(self, label: int) -> "UniformStream":
        """Independent child stream at ``path + (label,)`` on this stream's ledger.

        The parent is unaffected; the child's draw sequence is a pure function
        of ``(seed, path, label)``.
        """
        if label < 0:
            raise ValueError("fork label must be a nonnegative integer")
        return UniformStream(self.seed, self.path + (int(label),), self.ledger)

    def draw(self, n: int) -> np.ndarray:
        """Next ``n`` uniforms in [0, 1); counter and ledger advance by ``n``."""
        if n < 0:
            raise ValueError("draw count must be nonnegative")
        out = self._gen.random(n)
        self.counter += n
        self.ledger.coordinate_draws += n
        return out

    def draw_matrix(self, rows: int, cols: int) -> np.ndarray:
        """``rows * cols`` uniforms reshaped to (rows, cols), row-major."""
        return self.draw(rows * cols).reshape(rows, cols)


def chunk_streams(streams: UniformStream | Sequence[UniformStream]
                  ) -> tuple[list[UniformStream], CostLedger]:
    """A chunk's streams, one per replication, and the ledger they share.

    A bare stream is a chunk of one.  Raises ValueError for an empty chunk or
    for streams on different ledgers, whose units one ledger could not count.
    """
    if isinstance(streams, UniformStream):
        streams = [streams]
    streams = list(streams)
    if not streams:
        raise ValueError("a chunk needs at least one stream")
    ledger = streams[0].ledger
    if any(stream.ledger is not ledger for stream in streams):
        raise ValueError("the streams of a chunk must share one cost ledger")
    return streams, ledger


def draw_rows(streams: Sequence[UniformStream], n: int) -> np.ndarray:
    """The next ``n`` uniforms of each stream, one row per stream."""
    out = np.empty((len(streams), n))
    for row, stream in zip(out, streams):
        row[:] = stream.draw(n)
    return out


def new_stream(seed: int, ledger: CostLedger | None = None) -> UniformStream:
    """Root stream with empty path and zero counter."""
    return UniformStream(seed, (), ledger)
