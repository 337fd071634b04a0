"""Exact small-graph oracles, Monte Carlo samplers and test statistics
for the law checks of blockwalk.validate, which makes every pass or fail
decision.

The laws being compared are stated at the level of per-type component
weight vectors, so empirical and exact distributions are both projected
onto signatures: sorted tuples of rounded weight vectors.
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass
from functools import cache
from typing import Callable, Iterable, Mapping, Sequence

import numpy as np
from scipy import stats as sps

from .field import _clock_rows, _sweep_rows, encoded_jump
from .model import (
    BlockModel,
    Vertex,
    _as_rng,
    _check_rho,
    _int_components,
    component_weights,
    edge_probability,
    scaled_mass,
)

SIG_DIGITS = 12
MAX_EXACT_VERTICES = 8
#: chi-square cells expected to hold fewer counts are pooled
MIN_EXPECTED = 5.0
#: uniforms drawn by one generator call in _pair_keys
_PAIR_CHUNK_CELLS = 1 << 20


def _round_vec(v: Sequence[float]) -> tuple[float, ...]:
    return tuple(round(x, SIG_DIGITS) for x in v)


# -- exact component-partition oracle ----------------------------------------------


@dataclass(frozen=True)
class PartitionDistribution:
    """Exact law of the component partition of a small model's vertex set."""

    model: BlockModel
    probs: dict[tuple, float]

    def signature_distribution(self) -> dict[tuple, float]:
        """Push forward onto multisets of per-type component weights."""
        out: dict[tuple, float] = {}
        for partition, p in self.probs.items():
            sig = partition_signature(self.model, partition)
            out[sig] = out.get(sig, 0.0) + p
        return out


def partition_signature(model: BlockModel, partition: Sequence[Sequence[Vertex]]) -> tuple:
    return _signature(component_weights(model, list(block)) for block in partition)


def _signature(weights: Iterable[Sequence[float]]) -> tuple:
    """The sorted rounded weight vectors of a partition's blocks."""
    return tuple(sorted(map(_round_vec, weights)))


def exact_partition_distribution(model: BlockModel) -> PartitionDistribution:
    """Exact law by conditioning on the component of the lowest vertex.

    P(the component of v0 inside S is exactly T) factors into "T internally
    connected" times "no edge leaves T", and the rest of S partitions
    independently; both pieces recurse over subsets.  Equivalent to summing
    over all 2^(pairs) edge configurations, but usable up to eight
    vertices.
    """
    verts = model.vertices()
    n = len(verts)
    if n > MAX_EXACT_VERTICES:
        raise ValueError(f"exact enumeration supports at most {MAX_EXACT_VERTICES} vertices, got {n}")
    p_edge = [[0.0] * n for _ in range(n)]
    for a in range(n):
        for b in range(a + 1, n):
            p_edge[a][b] = p_edge[b][a] = edge_probability(model, verts[a], verts[b])

    def no_cross(mask_a: int, mask_b: int) -> float:
        out = 1.0
        for a in _bits(mask_a):
            for b in _bits(mask_b):
                out *= 1.0 - p_edge[a][b]
        return out

    @cache
    def connected(mask: int) -> float:
        if mask & (mask - 1) == 0:
            return 1.0
        v0 = mask & (-mask)
        total = 1.0
        rest = mask & ~v0
        sub = rest
        while True:  # proper subsets of mask containing v0
            part = sub | v0
            if part != mask:
                total -= connected(part) * no_cross(part, mask & ~part)
            if sub == 0:
                break
            sub = (sub - 1) & rest
        return total

    @cache
    def dist(mask: int) -> dict[tuple, float]:
        if mask == 0:
            return {(): 1.0}
        v0 = mask & (-mask)
        rest = mask & ~v0
        out: dict[tuple, float] = {}
        sub = rest
        while True:
            block = sub | v0
            w = connected(block) * no_cross(block, mask & ~block)
            if w > 0.0:
                key_block = tuple(sorted(verts[a] for a in _bits(block)))
                for tail, p in dist(mask & ~block).items():
                    key = tuple(sorted(tail + (key_block,)))
                    out[key] = out.get(key, 0.0) + w * p
            if sub == 0:
                break
            sub = (sub - 1) & rest
        return out

    full = dist((1 << n) - 1)
    return PartitionDistribution(model, full)


def _bits(mask: int):
    while mask:
        low = mask & (-mask)
        yield low.bit_length() - 1
        mask ^= low


# -- fast batched graph sampling -----------------------------------------------------


@dataclass(frozen=True)
class _PairTable:
    verts: list[Vertex]
    pairs: list[tuple[int, int]]
    probs: np.ndarray


def _pair_table(model: BlockModel) -> _PairTable:
    verts = model.vertices()
    pairs = [(a, b) for a in range(len(verts)) for b in range(a + 1, len(verts))]
    probs = np.array([edge_probability(model, verts[a], verts[b]) for a, b in pairs])
    return _PairTable(verts, pairs, probs)


def _partition_of_edges(table: _PairTable, edges: Iterable[int]) -> tuple[tuple[Vertex, ...], ...]:
    """The component partition of the graph whose edges are the pairs
    with the given indices into table.pairs."""
    classes = _int_components(len(table.verts), map(table.pairs.__getitem__, edges))
    return tuple(sorted(tuple(sorted(table.verts[k] for k in ks)) for ks in classes))


def _partition_of_key(table: _PairTable, key: bytes) -> tuple[tuple[Vertex, ...], ...]:
    """Decode a _pair_keys key: a union over only the pairs that are set."""
    bits = np.unpackbits(np.frombuffer(key, dtype=np.uint8), count=len(table.pairs))
    return _partition_of_edges(table, np.flatnonzero(bits).tolist())


def _row_keys(rows: np.ndarray) -> list[bytes]:
    """The bytes of each row of a 2-D array: one hashable key per row."""
    rows = np.ascontiguousarray(rows)
    width = rows.shape[1] * rows.itemsize
    if width == 0:
        return [b""] * len(rows)
    return rows.view(np.dtype((np.void, width))).ravel().tolist()


def _pair_keys(table: _PairTable, rng: np.random.Generator, n_reps: int) -> list[bytes]:
    """One key per replication: its row of pair indicators (pair k is an
    edge when its uniform falls below probs[k]), packed eight pairs to a
    byte, so that a key holds every pair.  The uniforms are drawn a chunk of
    at most _PAIR_CHUNK_CELLS at a time; chunks of whole rows are the same
    floats, in the same order, as one rng.random((n_reps, k)) call."""
    k = len(table.pairs)
    chunk = max(1, _PAIR_CHUNK_CELLS // max(k, 1))
    keys: list[bytes] = []
    for start in range(0, n_reps, chunk):
        edges = rng.random((min(chunk, n_reps - start), k)) < table.probs
        keys += _row_keys(np.packbits(edges, axis=1))
    return keys


# -- Monte Carlo laws ----------------------------------------------------------------


@dataclass(frozen=True, slots=True)
class FieldSample:
    """What one field realization contributes to the distributional checks."""

    partition_signature: tuple
    first_gap: float | None
    jump_sequence: tuple[tuple[float, ...], ...]


def mc_component_distribution(
    model: BlockModel, rho, n_reps: int, seed, sampler: str = "graph"
) -> Counter:
    """Empirical law of the component-weight signature under either the
    direct graph sampler or the field exploration.  Replications are
    counted by key, and each distinct key is mapped to its signature once,
    in the order keys first occur."""
    _check_rho(rho, model.m)
    _check_reps(n_reps)
    if sampler == "graph":
        table = _pair_table(model)
        keys = Counter(_pair_keys(table, _as_rng(seed), n_reps))
        signatures = (partition_signature(model, _partition_of_key(table, key)) for key in keys)
    elif sampler == "field":
        keys = Counter()
        for chunk, _ in _field_rows(model, rho, n_reps, seed):
            keys.update(chunk)
        signatures = (_signature(_field_weights(model, key)) for key in keys)
    else:
        raise ValueError(f"unknown sampler {sampler!r}")
    counts: Counter = Counter()
    for signature, count in zip(signatures, keys.values()):
        counts[signature] += count
    return counts


def _field_rows(model: BlockModel, rho, n_reps: int, seed):
    """Per clock chunk, one key per replication, the bytes of its row of
    component labels from field._sweep_rows, and each row's first root
    level: the jump times are drawn and the fields swept a chunk at a time."""
    for times in _clock_rows(model, _as_rng(seed), n_reps, jump_times=True):
        labels, first = _sweep_rows(times, model.weights, model.R, rho)
        yield _row_keys(labels), first


def _field_weights(model: BlockModel, key: bytes) -> list[tuple[float, ...]]:
    """Each component's weights by type, in discovery order, from a
    _field_rows key: summed in rank order, as _sweep sums them."""
    labels = np.frombuffer(key, dtype=np.intp).tolist()
    members: list[list[Vertex]] = [[] for _ in range(max(labels, default=-1) + 1)]
    for v, label in zip(model.vertices(), labels):
        if label >= 0:
            members[label].append(v)
    return [component_weights(model, vs) for vs in members]


def mc_field_samples(model: BlockModel, rho, n_reps: int, seed) -> list[FieldSample]:
    """One FieldSample per replication; the signature and the rounded jump
    sequence are computed once per distinct row of component labels."""
    _check_rho(rho, model.m)
    _check_reps(n_reps)
    signature_of: dict[bytes, tuple] = {}
    jumps_of: dict[bytes, tuple] = {}
    out: list[FieldSample] = []
    for keys, firsts in _field_rows(model, rho, n_reps, seed):
        for key in dict.fromkeys(keys):
            if key not in signature_of:
                weights = _field_weights(model, key)
                signature_of[key] = _signature(weights)
                jumps_of[key] = tuple(_round_vec(encoded_jump(model.R, w)) for w in weights)
        # the first level is 0.0 + the first root's gap, NaN in a row
        # without components, whose jump sequence is empty
        gaps = firsts.astype(object)
        gaps[np.isnan(firsts)] = None
        signatures, jumps = map(signature_of.__getitem__, keys), map(jumps_of.__getitem__, keys)
        out += map(FieldSample, signatures, gaps.tolist(), jumps)
    return out


def mc_graph_jump_sequences(model: BlockModel, rho, n_reps: int, seed) -> list[tuple]:
    """Size-biased component jump sequences read off sampled graphs: the
    components with positive scaled mass, ordered by an exponential race
    with those masses as rates.  Each distinct key is decoded once, each
    distinct partition's race set up once, and each distinct order of a
    race turned into its tuple of jumps once."""
    _check_rho(rho, model.m)
    _check_reps(n_reps)
    rng = _as_rng(seed)
    table = _pair_table(model)
    races: dict[tuple, tuple] = {}  # partition -> (masses, rounded jumps, its replications)
    reps_of: dict[bytes, list[int]] = {}  # key -> the replications of its partition
    for r, key in enumerate(_pair_keys(table, rng, n_reps)):
        reps = reps_of.get(key)
        if reps is None:
            part = _partition_of_key(table, key)
            race = races.get(part)
            if race is None:
                masses, jumps = [], []
                for block in part:
                    w = component_weights(model, list(block))
                    s = scaled_mass(w, rho, model.Q)
                    if s > 0:
                        masses.append(s)
                        jumps.append(_round_vec(encoded_jump(model.R, w)))
                race = races[part] = (np.array(masses), tuple(jumps), [])
            reps = reps_of[key] = race[2]
        reps.append(r)
    sizes = np.zeros(n_reps, dtype=np.intp)
    for _, jumps, reps in races.values():
        sizes[reps] = len(jumps)
    # the same draws, in the same order, as one exponential call per replication
    draws = rng.exponential(1.0, size=int(sizes.sum()))
    offsets = np.cumsum(sizes) - sizes
    out: list[tuple] = [()] * n_reps
    for masses, jumps, reps in races.values():
        # a row of keys per replication, each sorted as np.argsort sorts it alone
        keys = draws[offsets[reps, None] + np.arange(len(jumps))] / masses
        orders = _row_keys(np.argsort(keys, axis=1))
        sequences = {order: tuple(jumps[k] for k in np.frombuffer(order, dtype=np.intp).tolist())
                     for order in dict.fromkeys(orders)}
        for r, order in zip(reps, orders):
            out[r] = sequences[order]
    return out


def exact_first_jump_distribution(model: BlockModel, rho) -> dict[tuple, float]:
    """Law of the first hitting-process jump: component partitions weighted
    by the scaled-mass race for which component comes first."""
    _check_rho(rho, model.m)
    exact = exact_partition_distribution(model)
    out: dict[tuple, float] = {}
    for partition, p in exact.probs.items():
        weights = [component_weights(model, list(block)) for block in partition]
        masses = [scaled_mass(w, rho, model.Q) for w in weights]
        total = sum(masses)
        if total <= 0:
            continue
        for w, s in zip(weights, masses):
            if s > 0:
                key = _round_vec(encoded_jump(model.R, w))
                out[key] = out.get(key, 0.0) + p * s / total
    return out


def _check_reps(n_reps: int) -> None:
    if not isinstance(n_reps, int) or isinstance(n_reps, bool):
        raise ValueError(f"replication count must be an int, got {n_reps!r}")
    if n_reps < 1000:
        raise ValueError("statistical comparisons need at least 1000 replications")


# -- test statistics -----------------------------------------------------------------


@dataclass(frozen=True)
class ChiSquareResult:
    statistic: float
    dof: int
    p_value: float
    n: int
    pooled_cells: int
    unknown_mass: int  # observations in categories the reference assigns zero

    def reject(self, alpha: float) -> bool:
        return self.p_value < alpha

    def to_json_obj(self) -> dict:
        return {
            "test": "chi_square",
            "statistic": self.statistic,
            "dof": self.dof,
            "p_value": self.p_value,
            "n": self.n,
            "pooled_cells": self.pooled_cells,
            "unknown_mass": self.unknown_mass,
        }


def chi_square(observed: Mapping, expected: Mapping[object, float]) -> ChiSquareResult:
    """Goodness of fit of observed counts against reference probabilities.

    Cells whose expected count falls below ``MIN_EXPECTED`` are pooled into
    one remainder cell (merged further with the smallest regular cell if
    still short).  Categories unseen in the reference are reported in
    ``unknown_mass`` and excluded from the statistic.
    """
    n = sum(observed.values())
    unknown = sum(c for k, c in observed.items() if expected.get(k, 0.0) <= 0.0)
    cells = [
        (float(observed.get(k, 0)), p * n) for k, p in expected.items() if p > 0.0
    ]
    if len(cells) < 2:
        raise ValueError("chi-square needs at least two reference categories")
    cells.sort(key=lambda c: c[1])
    pooled_obs = pooled_exp = 0.0
    regular: list[tuple[float, float]] = []
    pooled_cells = 0
    for obs, exp in cells:
        if exp < MIN_EXPECTED:
            pooled_obs += obs
            pooled_exp += exp
            pooled_cells += 1
        else:
            regular.append((obs, exp))
    if pooled_cells:
        while pooled_exp < MIN_EXPECTED and regular:
            obs, exp = regular.pop(0)
            pooled_obs += obs
            pooled_exp += exp
            pooled_cells += 1
        regular.append((pooled_obs, pooled_exp))
    if len(regular) < 2:
        raise ValueError("fewer than two cells remain after pooling")
    stat = sum((obs - exp) ** 2 / exp for obs, exp in regular)
    dof = len(regular) - 1
    return ChiSquareResult(stat, dof, float(sps.chi2.sf(stat, dof)), int(n), pooled_cells, int(unknown))


def chi_square_two_sample(counts_a: Mapping, counts_b: Mapping) -> ChiSquareResult:
    """Homogeneity test for two frequency tables over the same categories."""
    cats = sorted(set(counts_a) | set(counts_b), key=repr)
    a = np.array([counts_a.get(c, 0) for c in cats], dtype=float)
    b = np.array([counts_b.get(c, 0) for c in cats], dtype=float)
    na, nb = a.sum(), b.sum()
    pooled = (a + b) / (na + nb)
    keep = pooled > 0
    a, b, pooled = a[keep], b[keep], pooled[keep]
    # pool the categories with p * min_n below MIN_EXPECTED into one cell;
    # unlike the one-sample test, the pool is not topped up to MIN_EXPECTED
    order = np.argsort(pooled)
    a, b, pooled = a[order], b[order], pooled[order]
    min_n = min(na, nb)
    cells_a, cells_b = [], []
    acc_a = acc_b = acc_p = 0.0
    for xa, xb, p in zip(a, b, pooled):
        if p * min_n < MIN_EXPECTED:
            acc_a += xa
            acc_b += xb
            acc_p += p
        else:
            cells_a.append(xa)
            cells_b.append(xb)
    if acc_p > 0:
        cells_a.append(acc_a)
        cells_b.append(acc_b)
    arr = np.array([cells_a, cells_b])
    if arr.shape[1] < 2:
        raise ValueError("two-sample chi-square needs at least two categories")
    row = arr.sum(axis=1, keepdims=True)
    col = arr.sum(axis=0, keepdims=True)
    expected = row @ col / arr.sum()
    stat = float(((arr - expected) ** 2 / expected).sum())
    dof = arr.shape[1] - 1
    return ChiSquareResult(stat, dof, float(sps.chi2.sf(stat, dof)), int(arr.sum()), 0, 0)


@dataclass(frozen=True)
class KSResult:
    statistic: float
    p_value: float
    n: int

    def reject(self, alpha: float) -> bool:
        return self.p_value < alpha

    def to_json_obj(self) -> dict:
        return {"test": "ks", "statistic": self.statistic, "p_value": self.p_value, "n": self.n}


def ks_one_sample(sample: Sequence[float], cdf: Callable[[float], float]) -> KSResult:
    stat, p = sps.kstest(np.asarray(sample), np.vectorize(cdf))
    return KSResult(float(stat), float(p), len(sample))


def exponential_cdf(rate: float) -> Callable[[float], float]:
    return lambda x: -math.expm1(-rate * x) if x > 0 else 0.0
