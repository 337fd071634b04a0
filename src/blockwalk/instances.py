"""The staircase counterexample and the random instance generators of the validation runs."""

from __future__ import annotations

import numpy as np

from .model import BlockModel, _as_rng, factor_kernel
from .paths import PiecewisePath, _build


def staircase_counterexample() -> PiecewisePath:
    """Finite pure-jump staircase on which ordinary and smooth composition
    with the inverse genuinely differ: the function equals 1 on [1/2, 2),
    so composing with the inverse at 1 gives 2 the ordinary way and 1 the
    smooth way."""
    anchors = [
        (0.25, 0.25, 1.0 / 3.0),
        (1.0 / 3.0, 1.0 / 3.0, 0.5),
        (0.5, 0.5, 1.0),
        (2.0, 1.0, 2.0),
        (3.0, 2.0, 3.0),
        (4.0, 3.0, 4.0),
        (5.0, 4.0, 5.0),
    ]
    return _build(0.0, anchors, 1.0, 1.0)


def random_monotone_path(rng: np.random.Generator) -> PiecewisePath:
    """Random invertible monotone path: slope-and-step staircase with at
    most six breakpoints, a strictly rising start and an unbounded tail."""
    anchors = []
    t = 0.0
    v = 0.0
    slope = float(rng.uniform(0.2, 2.0))
    for _ in range(rng.integers(0, 7)):
        dt = float(rng.uniform(0.1, 1.5))
        t += dt
        v += slope * dt
        jump = float(rng.uniform(0.0, 1.2)) if rng.random() < 0.7 else 0.0
        slope = float(rng.uniform(0.0, 2.0)) if rng.random() < 0.8 else slope
        anchors.append((t, v, v + jump))
        v += jump
    if slope == 0.0:
        slope = float(rng.uniform(0.2, 1.0))
    return _build(0.0, anchors, slope, 1.0)


def random_block_model(
    rng: np.random.Generator,
    max_types: int = 3,
    max_vertices: int = 6,
    factorizable: bool = True,
) -> BlockModel:
    """Random small model; with at most three types any strictly positive
    kernel already factorizes."""
    rng = _as_rng(rng)
    m = int(rng.integers(1, max_types + 1))
    counts = _split_vertices(rng, m, max_vertices)
    weights = tuple(
        tuple(sorted((float(rng.uniform(0.3, 2.0)) for _ in range(c)), reverse=True))
        for c in counts
    )
    Q = [[0.0] * m for _ in range(m)]
    for i in range(m):
        Q[i][i] = float(rng.uniform(0.5, 2.5))
        for j in range(i + 1, m):
            Q[i][j] = Q[j][i] = float(rng.uniform(0.4, 2.0))
    model = BlockModel(weights, tuple(tuple(row) for row in Q))
    if factorizable and not factor_kernel(model.Q).ok:
        raise AssertionError("small positive kernels should always factor")
    return model


def _split_vertices(rng, m: int, max_vertices: int) -> list[int]:
    counts = [1] * m
    budget = int(rng.integers(0, max_vertices - m + 1))
    for _ in range(budget):
        counts[int(rng.integers(0, m))] += 1
    return counts


def random_probe_direction(rng: np.random.Generator, model: BlockModel) -> tuple[float, ...]:
    """The factorization direction when it exists, else uniform positives."""
    result = factor_kernel(model.Q)
    if result.ok:
        return result.rho
    return tuple(float(rng.uniform(0.3, 2.0)) for _ in range(model.m))
