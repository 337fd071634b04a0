"""Reference implementations and fixtures that only the tests use.

Each is the slow or hand-written side of a comparison: the library's
code is tested against it, and no command or check reaches it.
"""

from blockwalk.field import field_from_jumps
from blockwalk.model import BlockModel, _as_rng
from blockwalk.stats import (
    PartitionDistribution,
    _bits,
    _pair_keys,
    _pair_table,
    _partition_of_edges,
    _partition_of_key,
)


def worked_instance():
    """Two-type deterministic field with a single column-one jump at t=0.5
    (diagonal size 1, off-diagonal size 0.3) probed along (1, 1): the
    instance of acceptance criterion 1."""
    fld = field_from_jumps(
        [[(0.5, 1.0)], []],
        [[1.0, 0.0], [0.3, 1.0]],
    )
    return fld, (1.0, 1.0)


def evaluate_per_level(process, y: float) -> tuple[float, ...]:
    """T(y) of a HittingProcess, one pass over every level per query: rho *
    y, then the delta of each level below y in level order.  The reference
    that HittingProcess._rows is tested against."""
    t = [r * y for r in process.rho]
    for level, delta in zip(process.levels, process.deltas):
        if level < y:
            for i in range(len(t)):
                t[i] += delta[i]
    return tuple(t)


def brute_force_partition_distribution(model: BlockModel) -> PartitionDistribution:
    """Sum over every edge configuration; only for very small graphs.  The
    reference that exact_partition_distribution is tested against."""
    table = _pair_table(model)
    if len(table.pairs) > 15:
        raise ValueError("brute force limited to 15 vertex pairs")
    probs = table.probs.tolist()
    out: dict[tuple, float] = {}
    for mask in range(1 << len(probs)):
        prob = 1.0
        for k, p in enumerate(probs):
            prob *= p if mask >> k & 1 else 1.0 - p
        key = _partition_of_edges(table, _bits(mask))
        out[key] = out.get(key, 0.0) + prob
    return PartitionDistribution(model, out)


def sample_partition_batch(model: BlockModel, n_reps: int, seed) -> list[tuple]:
    """n_reps independent component partitions, read off the pair keys of
    stats._pair_keys: the same uniforms and decisions as n_reps
    sample_graph calls on one generator.  Each distinct row of indicators
    is decoded once."""
    table = _pair_table(model)
    keys = _pair_keys(table, _as_rng(seed), n_reps)
    parts = {key: _partition_of_key(table, key) for key in dict.fromkeys(keys)}
    return list(map(parts.__getitem__, keys))
