"""Degree-corrected block models: sampling, components, masses, kernels.

Vertices are (rank, type) pairs; rank indexes the type's weight vector.
Edges between (l, i) and (r, j) appear independently with probability
1 - exp(-Q[i][j] * w_l^i * w_r^j), which is the simple-graph law obtained
from Poisson edge multiplicities after discarding duplicates.
"""

from __future__ import annotations

import itertools
import math
import warnings
from collections import deque
from dataclasses import dataclass
from functools import cached_property
from typing import Iterable, Sequence

import numpy as np

Vertex = tuple[int, int]  # (rank within type, type)

SYMMETRY_TOL = 1e-12
FACTOR_TOL = 1e-9


def _as_rng(seed) -> np.random.Generator:
    if isinstance(seed, np.random.Generator):
        return seed
    return np.random.default_rng(seed)


@dataclass(frozen=True)
class BlockModel:
    """Weight vectors per type plus the symmetric connection kernel Q."""

    weights: tuple[tuple[float, ...], ...]
    Q: tuple[tuple[float, ...], ...]

    def __post_init__(self) -> None:
        m = len(self.weights)
        if len(self.Q) != m or any(len(row) != m for row in self.Q):
            raise ValueError(f"kernel must be {m}x{m} to match {m} weight vectors")
        for i in range(m):
            if not all(math.isfinite(x) for x in self.Q[i]):
                raise ValueError(f"kernel entries must be finite (row {i})")
            if not self.Q[i][i] > 0:
                raise ValueError(f"kernel diagonal must be positive (Q[{i}][{i}]={self.Q[i][i]})")
            for j in range(m):
                if self.Q[i][j] < 0:
                    raise ValueError("kernel entries must be nonnegative")
                if abs(self.Q[i][j] - self.Q[j][i]) > SYMMETRY_TOL:
                    raise ValueError(f"kernel must be symmetric (entries {i},{j})")
        fixed = []
        for i, w in enumerate(self.weights):
            if not all(0 < x < math.inf for x in w):
                raise ValueError(f"weights of type {i} must be positive and finite")
            if list(w) != sorted(w, reverse=True):
                warnings.warn(f"weights of type {i} were not nonincreasing; sorting", stacklevel=3)
                fixed.append(tuple(sorted(w, reverse=True)))
            else:
                fixed.append(tuple(float(x) for x in w))
        object.__setattr__(self, "weights", tuple(fixed))
        object.__setattr__(self, "Q", tuple(tuple(float(x) for x in row) for row in self.Q))

    @property
    def m(self) -> int:
        return len(self.weights)

    @cached_property
    def R(self) -> tuple[tuple[float, ...], ...]:
        """Row-normalized kernel R[i][j] = Q[i][j] / Q[i][i]; unit diagonal."""
        return _ratios(self.Q)

    def vertices(self) -> list[Vertex]:
        return [(l, i) for i in range(self.m) for l in range(len(self.weights[i]))]

    def weight(self, v: Vertex) -> float:
        l, i = v
        return self.weights[i][l]

    def to_json_obj(self) -> dict:
        return {"m": self.m, "weights": [list(w) for w in self.weights], "Q": [list(r) for r in self.Q]}


def _ratios(Q: Sequence[Sequence[float]]) -> tuple[tuple[float, ...], ...]:
    """R[i][j] = Q[i][j] / Q[i][i], whose diagonal is 1.0 where Q[i][i] is
    finite and positive."""
    return tuple(tuple(q / row[i] for q in row) for i, row in enumerate(Q))


def _vertex_rates(model: BlockModel, rho: Sequence[float]) -> list[float]:
    """rho_i * Q_ii * w per vertex, in vertices() order: the rate at which
    each vertex becomes a root."""
    return [rho[i] * model.Q[i][i] * model.weight((l, i)) for l, i in model.vertices()]


def edge_probability(model: BlockModel, u: Vertex, v: Vertex) -> float:
    return 1.0 - math.exp(-model.Q[u[1]][v[1]] * model.weight(u) * model.weight(v))


@dataclass(frozen=True)
class Graph:
    model: BlockModel
    edges: frozenset[frozenset[Vertex]]

    @cached_property
    def adjacency(self) -> dict[Vertex, list[Vertex]]:
        """Each vertex's neighbors sorted by (type, rank), built on the
        first neighbors call: sampling and components read only edges."""
        adj: dict[Vertex, list[Vertex]] = {v: [] for v in self.model.vertices()}
        for u, v in self.edges:
            adj[u].append(v)
            adj[v].append(u)
        for nbrs in adj.values():
            nbrs.sort(key=lambda x: (x[1], x[0]))
        return adj

    def neighbors(self, v: Vertex) -> list[Vertex]:
        return self.adjacency[v]


#: sample_graph compares its uniform u with p = 1 - np.exp(...), while
#: edge_probability uses math.exp.  The two exps may round differently in
#: the last bits: both are within a few ulp of the true value, as is the
#: rounded d = u - p, so the two p differ by a few ulp of 1 at most (by
#: 1.1e-16 at most over 2e6 sampled arguments on an AVX-512 x86-64 CPU).
#: Where |d| is below this bound, 64 ulp of 1, the draw is re-decided with
#: edge_probability; anywhere else both p give the same decision, so the
#: graph is the one edge_probability defines.
_EXP_TOL = 64 * 2.0**-52


def sample_graph(model: BlockModel, seed) -> Graph:
    """Draw each unordered pair independently as a Bernoulli edge.

    Pairs (a, b), a < b, are drawn in vertices() order, one row of uniforms
    per vertex a: the same stream, in the same order, as one rng.random()
    per pair, and the decision of each draw is that of edge_probability.
    """
    rng = _as_rng(seed)
    verts = model.vertices()
    n = len(verts)
    w = np.array([model.weight(v) for v in verts])
    # row i: -Q[i][type of b] for every vertex b, negated first as in edge_probability
    neg_q = np.array([[-row[j] for _, j in verts] for row in model.Q])
    edges = set()
    with np.errstate(over="ignore"):  # a product of -inf gives edge_probability's p = 1
        for a in range(n - 1):
            u = rng.random(n - a - 1)
            d = u - (1.0 - np.exp(neg_q[verts[a][1], a + 1 :] * w[a] * w[a + 1 :]))
            for k in (d < _EXP_TOL).nonzero()[0].tolist():
                b = a + 1 + k
                if d[k] < -_EXP_TOL or u[k] < edge_probability(model, verts[a], verts[b]):
                    edges.add(frozenset((verts[a], verts[b])))
    return Graph(model, frozenset(edges))


# -- connected components ------------------------------------------------------


def _int_components(n: int, pairs: Iterable[tuple[int, int]]) -> list[list[int]]:
    """The classes of 0, ..., n - 1 that the pairs join, by union-find: each
    class increasing, the classes listed by their smallest member."""
    parent = list(range(n))

    def find(x: int) -> int:
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for a, b in pairs:
        parent[find(a)] = find(b)
    groups: dict[int, list[int]] = {}
    for x in range(n):
        groups.setdefault(find(x), []).append(x)
    return list(groups.values())


@dataclass(frozen=True)
class Component:
    """Vertex set of one connected component with its per-type weight."""

    vertices: tuple[Vertex, ...]
    weight_by_type: tuple[float, ...]


def component_weights(model: BlockModel, vertices: Sequence[Vertex]) -> tuple[float, ...]:
    totals = [0.0] * model.m
    for v in sorted(vertices, key=lambda x: (x[1], x[0])):
        totals[v[1]] += model.weight(v)
    return tuple(totals)


def connected_components(graph: Graph) -> list[Component]:
    """Components listed by their smallest (type, rank) vertex."""
    verts = graph.model.vertices()
    index = {v: k for k, v in enumerate(verts)}
    comps = []
    # vertices() lists the vertices by (type, rank), so the members of each
    # class and the classes themselves come in that order
    for ks in _int_components(len(verts), ((index[u], index[v]) for u, v in graph.edges)):
        members = tuple(verts[k] for k in ks)
        comps.append(Component(members, component_weights(graph.model, members)))
    return comps


def scaled_mass(weight_by_type: Sequence[float], rho: Sequence[float], Q: Sequence[Sequence[float]]) -> float:
    """sum_i rho_i * Q_ii * (type-i weight); the rate used in size biasing."""
    return sum(r * Q[i][i] * w for i, (r, w) in enumerate(zip(rho, weight_by_type)))


def _check_rho(rho: Sequence[float], m: int) -> None:
    if len(rho) != m:
        raise ValueError(f"direction vector has length {len(rho)}, expected {m}")
    if not all(math.isfinite(r) for r in rho):
        raise ValueError("direction vector must be finite")
    if any(r < 0 for r in rho):
        raise ValueError("direction vector must be nonnegative")
    if not any(r > 0 for r in rho):
        raise ValueError("direction vector must be nonzero")


# -- kernel factorization -------------------------------------------------------


@dataclass(frozen=True)
class KernelFactorization:
    """Result of attempting R[i][j] = rho_i * nu_j on the off-diagonal."""

    ok: bool
    rho: tuple[float, ...] | None
    nu: tuple[float, ...] | None
    max_residual: float
    witness: str | None = None


def factor_kernel(Q: Sequence[Sequence[float]]) -> KernelFactorization:
    """Factor the row-normalized kernel as R[i][j] = rho_i * nu_j (i != j).

    Always possible for one or two blocks, and for three blocks with
    strictly positive entries via the closed-form choice
    rho_i = Q_ij * Q_ik / Q_ii, nu_i = 1 / Q_jk (i, j, k distinct).  For
    four or more blocks the solution from the first row and column is
    checked against every remaining entry; generic kernels fail.
    """
    m = len(Q)
    R = _ratios(Q)
    if m == 1:
        return KernelFactorization(True, (1.0,), (1.0,), 0.0)
    for i in range(m):
        for j in range(m):
            if i != j and not Q[i][j] > 0:
                return KernelFactorization(
                    False, None, None, math.inf, f"Q[{i}][{j}] = 0 blocks the factorization"
                )
    if m == 2:
        rho = (R[0][1], R[1][0])
        nu = (1.0, 1.0)
    elif m == 3:
        rho = tuple(Q[i][j] * Q[i][k] / Q[i][i] for i, j, k in ((0, 1, 2), (1, 0, 2), (2, 0, 1)))
        nu = (1.0 / Q[1][2], 1.0 / Q[0][2], 1.0 / Q[0][1])
    else:
        rho_list = [1.0] * m
        nu_list = [0.0] * m
        for j in range(1, m):
            nu_list[j] = R[0][j]
        rho_list[1] = R[1][2] / nu_list[2]
        for i in range(2, m):
            rho_list[i] = R[i][1] / nu_list[1]
        nu_list[0] = R[1][0] / rho_list[1]
        rho, nu = tuple(rho_list), tuple(nu_list)
    worst = 0.0
    where = None
    for i in range(m):
        for j in range(m):
            if i == j:
                continue
            resid = abs(R[i][j] - rho[i] * nu[j])
            if resid > worst:
                worst, where = resid, (i, j)
    if worst > FACTOR_TOL:
        return KernelFactorization(
            False, None, None, worst, f"row ratio at {where} off by {worst:.3e}"
        )
    return KernelFactorization(True, rho, nu, worst)


# -- exploration traces ---------------------------------------------------------


@dataclass(frozen=True)
class ExplorationStep:
    index: int
    kind: str  # "root" | "child"
    vertex: Vertex
    zeta: int
    children: tuple[Vertex, ...]
    window_low: tuple[float, ...] | None = None
    window_high: tuple[float, ...] | None = None
    root_gap: float | None = None


@dataclass(frozen=True)
class ComponentTrace:
    vertices: tuple[Vertex, ...]
    weight_by_type: tuple[float, ...]
    level: float  # cumulative root gap at which the component was found


@dataclass(frozen=True)
class ExplorationTrace:
    rho: tuple[float, ...]
    steps: tuple[ExplorationStep, ...]
    components: tuple[ComponentTrace, ...]

    @property
    def zeta_final(self) -> int:
        return len(self.components)

    def to_json_obj(self) -> list[dict]:
        return [
            {
                "k": s.index,
                "kind": s.kind,
                "vertex": list(s.vertex),
                "zeta": s.zeta,
                "children": [list(c) for c in s.children],
                "S_L": list(s.window_low) if s.window_low is not None else None,
                "S_R": list(s.window_high) if s.window_high is not None else None,
                "Y": s.root_gap,
            }
            for s in self.steps
        ]


def graph_exploration(graph: Graph, rho: Sequence[float], seed) -> ExplorationTrace:
    """Breadth-first exploration of the graph itself.

    Roots are drawn proportionally to scaled vertex mass among unexplored
    vertices, together with an exponential waiting gap at the total
    unexplored rate.  Children are the unexplored neighbors, listed by type
    and size-biased by weight within each type.  Only components meeting a
    type with positive direction weight are ever entered.
    """
    model = graph.model
    _check_rho(rho, model.m)
    rng = _as_rng(seed)
    verts = model.vertices()
    position = {v: k for k, v in enumerate(verts)}
    unexplored = np.ones(len(verts), dtype=bool)
    # root candidates: the unexplored vertices of positive-direction types,
    # their rates kept in vertices() order, i.e. sorted by (type, rank)
    rootable = np.array([rho[i] > 0 for _, i in verts], dtype=bool)
    rates_all = np.array(_vertex_rates(model, rho), dtype=float)
    queue: deque[Vertex] = deque()
    steps: list[ExplorationStep] = []
    components: list[ComponentTrace] = []
    current: list[Vertex] = []
    level = 0.0
    while True:
        root_gap = None
        if not queue:
            if current:
                components.append(ComponentTrace(tuple(current), component_weights(model, current), level))
                current = []
            candidates = np.flatnonzero(unexplored & rootable)
            if not candidates.size:
                break
            rates = rates_all[candidates]
            total = rates.sum()
            if not 0 < total < math.inf:
                raise ValueError(f"the root rates rho_i * Q_ii * w sum to {total}; rescale the model")
            root_gap = rng.exponential(1.0 / total)
            pick = rng.choice(len(candidates), p=rates / total)
            vertex = verts[candidates[pick]]
            level += root_gap
            unexplored[position[vertex]] = False
        else:
            vertex = queue.popleft()
        current.append(vertex)
        ordered: list[Vertex] = []
        # neighbors come sorted by (type, rank), so one pass groups them by type
        found = [u for u in graph.neighbors(vertex) if unexplored[position[u]]]
        for _, of_type in itertools.groupby(found, key=lambda u: u[1]):
            keys = [(rng.exponential(1.0 / model.weight(u)), u) for u in of_type]
            keys.sort(key=lambda kv: kv[0])
            ordered.extend(u for _, u in keys)
        for u in ordered:
            unexplored[position[u]] = False
        queue.extend(ordered)
        steps.append(
            ExplorationStep(
                index=len(steps) + 1,
                kind="child" if root_gap is None else "root",
                vertex=vertex,
                zeta=len(components) + 1,
                children=tuple(ordered),
                root_gap=root_gap,
            )
        )
    return ExplorationTrace(tuple(float(r) for r in rho), tuple(steps), tuple(components))
