"""What the benchmark computes apart from blockwalk to check its outputs.

Nothing here imports blockwalk.  Every function works from raw model data
(per-type weight lists, the kernel Q, the direction rho) or from parsed
artifacts, so a fault in the program cannot hide in the check.
"""

from __future__ import annotations

import math
from itertools import combinations

import numpy as np
from scipy.stats import chi2

#: two outcome keys (weight vectors, signatures) name the same outcome when
#: every coordinate agrees this closely; the program rounds keys to 12 digits
KEY_TOL = 1e-9

#: a statistical gate fails below this p-value.  Each run makes 10 gates, so
#: a correct program fails one run in about 10^8; a wrong law at 1000+
#: replications still fails (see test_bench.py).
GATE_ALPHA = 1e-9

#: half-width of the edge-count band in standard deviations; a correct
#: sampler leaves it with probability below 1e-11
EDGE_BAND_SD = 7.0

#: the chi-square approximation needs about this many expected counts a cell
MIN_EXPECTED = 5.0


# -- model arithmetic -------------------------------------------------------


def ratio_matrix(Q) -> list[list[float]]:
    m = len(Q)
    return [[Q[i][j] / Q[i][i] for j in range(m)] for i in range(m)]


def apply_ratio(Q, weight_by_type) -> tuple[float, ...]:
    """R times a per-type weight vector."""
    R = ratio_matrix(Q)
    m = len(Q)
    return tuple(math.fsum(R[i][j] * weight_by_type[j] for j in range(m)) for i in range(m))


def encoded_total(weights, Q) -> tuple[float, ...]:
    """R · W_total: every component is encoded once, so the jumps of the
    hitting process and the curve increments both add up to this."""
    return apply_ratio(Q, [math.fsum(w) for w in weights])


def vertex_list(weights) -> list[tuple[int, int]]:
    """(rank, type) pairs, the program's vertex naming."""
    return [(rank, typ) for typ, w in enumerate(weights) for rank in range(len(w))]


def edge_probability(weights, Q, u, v) -> float:
    return 1.0 - math.exp(-Q[u[1]][v[1]] * weights[u[1]][u[0]] * weights[v[1]][v[0]])


def edge_count_band(weights, Q) -> tuple[float, float, float]:
    """(low, high, mean) for the number of edges: the mean is the sum of
    1 - exp(-Q w w) over all pairs, the band is mean +- EDGE_BAND_SD
    standard deviations plus one."""
    mean = var = 0.0
    arrays = [np.asarray(w, dtype=float) for w in weights]
    for i, wi in enumerate(arrays):
        for j in range(i, len(arrays)):
            p = -np.expm1(-Q[i][j] * np.outer(wi, arrays[j]))
            if i == j:
                p = p[np.triu_indices(len(wi), k=1)]
            mean += float(p.sum())
            var += float((p * (1.0 - p)).sum())
    half = EDGE_BAND_SD * math.sqrt(var) + 1.0
    return mean - half, mean + half, mean


class UnionFind:
    def __init__(self, n: int):
        self.parent = list(range(n))

    def find(self, x: int) -> int:
        while self.parent[x] != x:
            self.parent[x] = self.parent[self.parent[x]]
            x = self.parent[x]
        return x

    def union(self, a: int, b: int) -> None:
        ra, rb = self.find(a), self.find(b)
        if ra != rb:
            self.parent[ra] = rb

    def groups(self) -> list[list[int]]:
        out: dict[int, list[int]] = {}
        for x in range(len(self.parent)):
            out.setdefault(self.find(x), []).append(x)
        return list(out.values())


def components_from_edges(vertices, edges) -> set[frozenset]:
    """Vertex sets of the connected components of an edge list."""
    index = {v: k for k, v in enumerate(vertices)}
    uf = UnionFind(len(vertices))
    for u, v in edges:
        uf.union(index[u], index[v])
    return {frozenset(vertices[k] for k in group) for group in uf.groups()}


def type_totals(weights, block) -> tuple[float, ...]:
    totals = [0.0] * len(weights)
    for rank, typ in block:
        totals[typ] += weights[typ][rank]
    return tuple(totals)


def signature(weight_vectors) -> tuple:
    """Sorted tuple of rounded per-type weight vectors: the projection on
    which component laws are compared."""
    return tuple(sorted(tuple(round(x, 12) for x in w) for w in weight_vectors))


# -- exact small-graph laws -----------------------------------------------------


def add_to(law: dict, key, p: float) -> None:
    law[key] = law.get(key, 0.0) + p


def first_jump_shares(weights, Q, rho, weight_vectors):
    """(encoded jump, probability of being found first) for each component:
    the exploration finds a component first with probability proportional
    to its scaled mass sum_i rho_i Q_ii w_i."""
    masses = [sum(rho[i] * Q[i][i] * w[i] for i in range(len(w))) for w in weight_vectors]
    total = sum(masses)
    return [(apply_ratio(Q, w), s / total) for w, s in zip(weight_vectors, masses) if s > 0]


def two_vertex_laws(weights, Q, rho) -> tuple[dict, dict]:
    """Closed form for one vertex of each of two types: they are joined with
    probability p = 1 - exp(-Q_01 w_0 w_1)."""
    (wa,), (wb,) = weights
    p = -math.expm1(-Q[0][1] * wa * wb)
    joined = [(wa, wb)]
    apart = [(wa, 0.0), (0.0, wb)]
    sig_law = {signature(joined): p, signature(apart): 1.0 - p}
    first_law: dict = {}
    for prob, vecs in ((p, joined), (1.0 - p, apart)):
        for key, share in first_jump_shares(weights, Q, rho, vecs):
            add_to(first_law, key, prob * share)
    return sig_law, first_law


def brute_force_laws(weights, Q, rho) -> tuple[dict, dict]:
    """Sum over every edge configuration: the law of the component
    signature and of the first encoded jump (size-biased race)."""
    verts = vertex_list(weights)
    pairs = list(combinations(range(len(verts)), 2))
    if len(pairs) > 16:
        raise ValueError("brute force is limited to 16 vertex pairs")
    probs = [edge_probability(weights, Q, verts[a], verts[b]) for a, b in pairs]
    sig_law: dict = {}
    first_law: dict = {}
    for mask in range(1 << len(pairs)):
        p = 1.0
        uf = UnionFind(len(verts))
        for k, (a, b) in enumerate(pairs):
            if mask >> k & 1:
                p *= probs[k]
                uf.union(a, b)
            else:
                p *= 1.0 - probs[k]
        vecs = [type_totals(weights, [verts[x] for x in g]) for g in uf.groups()]
        add_to(sig_law, signature(vecs), p)
        for key, share in first_jump_shares(weights, Q, rho, vecs):
            add_to(first_law, key, p * share)
    return sig_law, first_law


# -- comparing keyed laws and counts ----------------------------------------------


def keys_close(a, b) -> bool:
    if isinstance(a, tuple) and isinstance(b, tuple):
        return len(a) == len(b) and all(keys_close(x, y) for x, y in zip(a, b))
    if isinstance(a, tuple) or isinstance(b, tuple):
        return False
    return abs(a - b) <= KEY_TOL


def match_key(key, support):
    """The support key naming the same outcome as ``key``, or None."""
    for ref in support:
        if keys_close(key, ref):
            return ref
    return None


def law_gap(program_law: dict, own_law: dict) -> float:
    """Largest probability difference over both supports; inf when the
    program gives positive mass to an outcome outside the own support."""
    matched: dict = {}
    for key, p in program_law.items():
        ref = match_key(key, own_law)
        if ref is None:
            if p > 1e-15:
                return math.inf
            continue
        matched[ref] = matched.get(ref, 0.0) + p
    return max(abs(matched.get(k, 0.0) - p) for k, p in own_law.items())


def fold_counts(counts: dict, law: dict) -> tuple[dict, int]:
    """Counts re-keyed onto the law's support, plus how many observations
    fell outside it."""
    folded: dict = {}
    outside = 0
    for key, c in counts.items():
        ref = match_key(key, law)
        if ref is None:
            outside += c
        else:
            folded[ref] = folded.get(ref, 0) + c
    return folded, outside


def chi_square_p(counts: dict, law: dict) -> float:
    """Pearson goodness of fit of counts (already on the law's support)
    against the law.  Cells expecting fewer than MIN_EXPECTED observations
    are pooled into one cell."""
    n = sum(counts.values())
    cells = sorted(((law[k] * n, counts.get(k, 0)) for k in law if law[k] > 0), key=lambda c: c[0])
    pooled_exp = pooled_obs = 0.0
    regular = []
    for exp, obs in cells:
        if exp < MIN_EXPECTED:
            pooled_exp += exp
            pooled_obs += obs
        else:
            regular.append((exp, obs))
    if pooled_exp > 0:
        while pooled_exp < MIN_EXPECTED and regular:
            exp, obs = regular.pop(0)
            pooled_exp += exp
            pooled_obs += obs
        regular.append((pooled_exp, pooled_obs))
    if len(regular) < 2:
        return 1.0
    stat = sum((obs - exp) ** 2 / exp for exp, obs in regular)
    return float(chi2.sf(stat, len(regular) - 1))
