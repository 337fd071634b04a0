import math

import numpy as np
import pytest

from blockwalk import model as model_mod
from blockwalk.instances import random_block_model
from blockwalk.model import (
    BlockModel,
    Component,
    ComponentTrace,
    ExplorationStep,
    ExplorationTrace,
    Graph,
    component_weights,
    connected_components,
    edge_probability,
    factor_kernel,
    graph_exploration,
    sample_graph,
    scaled_mass,
)
from blockwalk.stats import mc_graph_jump_sequences
from references import sample_partition_batch


def normalize_kernel(model: BlockModel) -> BlockModel:
    """Move the kernel diagonal into the weights: w -> sqrt(Q_ii) w and
    Q -> Q_ij / sqrt(Q_ii Q_jj).

    Backs the caveat that the encoding is stated for the model as given:
    edge probabilities are unchanged, but the component weight vectors of
    the coupled graphs differ."""
    m = model.m
    roots = [math.sqrt(model.Q[i][i]) for i in range(m)]
    weights = tuple(tuple(roots[i] * w for w in model.weights[i]) for i in range(m))
    Q = tuple(
        tuple(model.Q[i][j] / (roots[i] * roots[j]) for j in range(m)) for i in range(m)
    )
    return BlockModel(weights, Q)


def two_type_unit():
    return BlockModel(((1.0,), (1.0,)), ((1.0, 0.5), (0.5, 1.0)))


class TestBlockModel:
    def test_r_has_unit_diagonal(self):
        model = BlockModel(((1.0, 0.5), (2.0,)), ((2.0, 1.0), (1.0, 4.0)))
        assert model.R[0][0] == 1.0
        assert model.R[1][1] == 1.0
        assert model.R[0][1] == 0.5
        assert model.R[1][0] == 0.25

    def test_r_is_cached_and_outside_equality(self):
        model = BlockModel(((1.0, 0.5), (2.0,)), ((2.0, 1.0), (1.0, 4.0)))
        fresh = BlockModel(model.weights, model.Q)
        assert model.R is model.R
        assert all(type(row) is tuple for row in model.R) and type(model.R) is tuple
        assert model == fresh and hash(model) == hash(fresh)

    def test_asymmetric_kernel_rejected(self):
        with pytest.raises(ValueError):
            BlockModel(((1.0,), (1.0,)), ((1.0, 0.5), (0.6, 1.0)))

    def test_zero_diagonal_rejected(self):
        with pytest.raises(ValueError):
            BlockModel(((1.0,),), ((0.0,),))

    def test_nonpositive_weight_rejected(self):
        with pytest.raises(ValueError):
            BlockModel(((1.0, 0.0),), ((1.0,),))

    def test_unsorted_weights_warn_and_sort(self):
        with pytest.warns(UserWarning):
            model = BlockModel(((1.0, 2.0),), ((1.0,),))
        assert model.weights == ((2.0, 1.0),)

    def test_empty_type_allowed(self):
        model = BlockModel(((), (1.0,)), ((1.0, 0.2), (0.2, 1.0)))
        assert model.vertices() == [(0, 1)]


class TestSampling:
    def test_single_pair_probability(self):
        # one pair, P(edge) = 1 - exp(-0.5); binomial check over 1e5 seeds
        model = two_type_unit()
        p = edge_probability(model, (0, 0), (0, 1))
        assert p == pytest.approx(1.0 - math.exp(-0.5), abs=1e-15)
        n = 100_000
        # the batched sampler draws the graphs of n sample_graph calls on one
        # generator; that loop counted 39 393 edges
        hits = sum(len(partition) == 1 for partition in sample_partition_batch(model, n, np.random.default_rng(3)))
        assert hits == 39_393
        sigma = math.sqrt(n * p * (1 - p))
        assert abs(hits - n * p) <= 3 * sigma

    def test_zero_kernel_entry_never_connects(self):
        model = BlockModel(((1.0,), (1.0,)), ((1.0, 0.0), (0.0, 1.0)))
        for seed in range(200):
            assert not sample_graph(model, seed).edges

    def test_deterministic_given_seed(self):
        model = random_block_model(np.random.default_rng(0), max_vertices=5)
        assert sample_graph(model, 42).edges == sample_graph(model, 42).edges

    def test_rank_one_erdos_renyi_correspondence(self):
        # q = -log(1-p) makes each pair an independent p-coin
        p_target = 0.3
        q = -math.log1p(-p_target)
        model = BlockModel(((1.0, 1.0),), ((q,),))
        assert edge_probability(model, (0, 0), (1, 0)) == pytest.approx(p_target, abs=1e-15)


class TestComponents:
    def test_no_edges_gives_singletons(self):
        model = two_type_unit()
        graph = sample_graph(BlockModel(model.weights, ((1e-12, 0.0), (0.0, 1e-12))), 0)
        comps = connected_components(graph)
        assert [c.vertices for c in comps] == [((0, 0),), ((0, 1),)]

    def test_complete_graph_single_component(self):
        model = BlockModel(((1.0, 1.0), (2.0,)), ((50.0, 50.0), (50.0, 50.0)))
        graph = sample_graph(model, 1)
        comps = connected_components(graph)
        assert len(comps) == 1
        assert comps[0].weight_by_type == (2.0, 2.0)

    def test_three_vertex_path_weights(self):
        from blockwalk.model import Graph

        model = BlockModel(((1.0, 0.5), (2.0,)), ((1.0, 1.0), (1.0, 1.0)))
        edges = frozenset(
            {frozenset({(0, 0), (0, 1)}), frozenset({(0, 1), (1, 0)})}
        )
        comps = connected_components(Graph(model, edges))
        assert len(comps) == 1
        assert comps[0].weight_by_type == (1.5, 2.0)

    def test_components_partition_and_conserve_weight(self, rng):
        for _ in range(20):
            model = random_block_model(rng, max_vertices=6)
            graph = sample_graph(model, rng)
            comps = connected_components(graph)
            seen = [v for c in comps for v in c.vertices]
            assert sorted(seen) == sorted(model.vertices())
            for j in range(model.m):
                total = sum(c.weight_by_type[j] for c in comps)
                assert total == pytest.approx(sum(model.weights[j]), abs=1e-12)

    def test_components_leave_adjacency_unbuilt(self):
        # sampling and components read only the edges; the adjacency is
        # built on the first neighbors call
        model = BlockModel(((1.0, 1.0), (2.0,)), ((50.0, 50.0), (50.0, 50.0)))
        graph = sample_graph(model, 1)
        assert len(connected_components(graph)) == 1
        assert "adjacency" not in vars(graph)
        assert graph.neighbors((0, 0)) == [(1, 0), (0, 1)]
        assert "adjacency" in vars(graph)


class TestScaledMassOrdering:
    def test_scaled_mass(self):
        model = two_type_unit()
        assert scaled_mass((1.0, 1.0), (2.0, 0.0), model.Q) == 2.0

    # the size-biased race is the one in stats.mc_graph_jump_sequences

    def test_single_component_returned(self):
        # a kernel this strong joins the two vertices in every draw
        model = BlockModel(((1.0,), (1.0,)), ((50.0, 50.0), (50.0, 50.0)))
        assert set(mc_graph_jump_sequences(model, (1.0, 1.0), 1000, 9)) == {((2.0, 2.0),)}

    def test_two_to_one_race(self):
        # a kernel this weak never joins the vertices of weights 2 and 1,
        # so the race between them has rates in the ratio 2:1
        model = BlockModel(((2.0, 1.0),), ((1e-12,),))
        n = 100_000
        seqs = mc_graph_jump_sequences(model, (1.0,), n, 17)
        assert set(seqs) == {((2.0,), (1.0,)), ((1.0,), (2.0,))}
        wins = sum(s[0] == (2.0,) for s in seqs)
        sigma = math.sqrt(n * (2 / 3) * (1 / 3))
        assert abs(wins - n * 2 / 3) <= 3 * sigma

    def test_zero_direction_excludes_components(self):
        # the two types are never joined, and direction (1, 0) gives the
        # type-1 vertex zero mass
        model = BlockModel(((1.0,), (1.0,)), ((1.0, 0.0), (0.0, 1.0)))
        assert set(mc_graph_jump_sequences(model, (1.0, 0.0), 1000, 3)) == {((1.0, 0.0),)}

    def test_all_zero_masses_give_empty_order(self):
        model = BlockModel(((), (1.0,)), ((1.0, 0.5), (0.5, 1.0)))
        assert set(mc_graph_jump_sequences(model, (1.0, 0.0), 1000, 0)) == {()}


class TestFactorization:
    def test_three_block_closed_form(self):
        Q = ((2.0, 1.0, 1.0), (1.0, 2.0, 1.0), (1.0, 1.0, 2.0))
        result = factor_kernel(Q)
        assert result.ok
        assert result.rho == (0.5, 0.5, 0.5)
        assert result.nu == (1.0, 1.0, 1.0)
        R12 = Q[0][1] / Q[0][0]
        assert R12 == 0.5 == result.rho[0] * result.nu[1]

    def test_three_block_general_positive(self, rng):
        for _ in range(100):
            model = random_block_model(rng, max_types=3)
            result = factor_kernel(model.Q)
            assert result.ok
            R = model.R
            worst = max(
                abs(R[i][j] - result.rho[i] * result.nu[j])
                for i in range(model.m)
                for j in range(model.m)
                if i != j
            ) if model.m > 1 else 0.0
            assert worst <= 1e-12

    def test_two_blocks_always_factor(self, rng):
        for _ in range(50):
            Q00, Q11 = rng.uniform(0.2, 3.0, size=2)
            Q01 = rng.uniform(0.1, 3.0)
            assert factor_kernel(((Q00, Q01), (Q01, Q11))).ok

    def test_zero_off_diagonal_blocks_factorization(self):
        result = factor_kernel(((1.0, 0.0), (0.0, 1.0)))
        assert not result.ok
        assert "Q[0][1]" in result.witness

    def test_four_blocks_generically_fail(self, rng):
        rejected = 0
        for _ in range(50):
            Q = np.diag(rng.uniform(0.5, 2.0, size=4))
            for i in range(4):
                for j in range(i + 1, 4):
                    Q[i][j] = Q[j][i] = rng.uniform(0.3, 2.0)
            result = factor_kernel(tuple(map(tuple, Q)))
            rejected += not result.ok
            if not result.ok:
                assert result.max_residual > 1e-9
        assert rejected == 50

    def test_four_blocks_structured_succeed(self, rng):
        nu = rng.uniform(0.5, 2.0, size=4)
        q0 = 1.3
        diag = rng.uniform(0.5, 2.0, size=4)
        Q = np.zeros((4, 4))
        for i in range(4):
            Q[i][i] = diag[i]
            for j in range(i + 1, 4):
                Q[i][j] = Q[j][i] = q0 * nu[i] * nu[j]
        result = factor_kernel(tuple(map(tuple, Q)))
        assert result.ok
        assert result.max_residual <= 1e-9


class TestNormalizeKernel:
    def test_unit_diagonal_is_fixed_point(self):
        model = two_type_unit()
        assert normalize_kernel(model).Q == model.Q
        assert normalize_kernel(model).weights == model.weights

    def test_single_type_rescaling(self):
        model = BlockModel(((1.0,),), ((4.0,),))
        out = normalize_kernel(model)
        assert out.weights == ((2.0,),)
        assert out.Q == ((1.0,),)

    def test_edge_probabilities_preserved(self, rng):
        for _ in range(20):
            model = random_block_model(rng, max_vertices=5)
            out = normalize_kernel(model)
            verts = model.vertices()
            for a in range(len(verts)):
                for b in range(a + 1, len(verts)):
                    assert edge_probability(model, verts[a], verts[b]) == pytest.approx(
                        edge_probability(out, verts[a], verts[b]), abs=1e-12
                    )

    def test_coupled_component_weights_differ(self):
        # same seed draws the same edges under both parametrizations, but
        # the matching components carry different weight vectors
        model = BlockModel(((1.0,), (1.0,)), ((4.0, 1.0), (1.0, 1.0)))
        out = normalize_kernel(model)
        for seed in range(20):
            g_raw = sample_graph(model, seed)
            g_norm = sample_graph(out, seed)
            assert g_raw.edges == g_norm.edges
        raw_comps = connected_components(sample_graph(model, 0))
        norm_comps = connected_components(sample_graph(out, 0))
        assert [c.vertices for c in raw_comps] == [c.vertices for c in norm_comps]
        assert any(
            a.weight_by_type != b.weight_by_type for a, b in zip(raw_comps, norm_comps)
        )


class TestGraphExploration:
    def test_edgeless_graph_every_vertex_roots(self):
        model = BlockModel(((1.0, 1.0), (1.0,)), ((1e-9, 0.0), (0.0, 1e-9)))
        graph = sample_graph(model, 0)
        assert not graph.edges
        trace = graph_exploration(graph, (1.0, 1.0), 5)
        assert all(s.kind == "root" for s in trace.steps)
        assert all(not s.children for s in trace.steps)
        assert trace.zeta_final == 3

    def test_single_component_one_root(self):
        model = BlockModel(((1.0, 1.0), (1.0,)), ((60.0, 60.0), (60.0, 60.0)))
        graph = sample_graph(model, 1)
        trace = graph_exploration(graph, (1.0, 1.0), 2)
        assert trace.zeta_final == 1
        assert [s.kind for s in trace.steps].count("root") == 1
        assert sorted(s.vertex for s in trace.steps) == sorted(model.vertices())

    def test_symmetric_two_vertices_root_is_fair(self):
        model = BlockModel(((1.0,), (1.0,)), ((1.0, 80.0), (80.0, 1.0)))
        graph = sample_graph(model, 7)
        assert len(graph.edges) == 1
        rng = np.random.default_rng(23)
        n = 100_000
        first_type_one = sum(
            graph_exploration(graph, (1.0, 1.0), rng).steps[0].vertex[1] == 0
            for _ in range(n)
        )
        sigma = math.sqrt(n) / 2
        assert abs(first_type_one - n / 2) <= 3 * sigma

    def test_visits_positive_direction_components_once(self, rng):
        for _ in range(20):
            model = random_block_model(rng, max_vertices=6)
            graph = sample_graph(model, rng)
            rho = tuple(1.0 if k == 0 else 0.0 for k in range(model.m))
            trace = graph_exploration(graph, rho, rng)
            comps = connected_components(graph)
            touching = [c for c in comps if any(v[1] == 0 for v in c.vertices)]
            assert trace.zeta_final == len(touching)
            expected = sorted(v for c in touching for v in c.vertices)
            visited = sorted(s.vertex for s in trace.steps)
            assert visited == expected
            assert len(set(visited)) == len(visited)

    def test_invalid_direction_rejected(self):
        graph = sample_graph(two_type_unit(), 0)
        with pytest.raises(ValueError):
            graph_exploration(graph, (0.0, 0.0), 0)
        with pytest.raises(ValueError):
            graph_exploration(graph, (-1.0, 1.0), 0)


# -- the vectorized sampler and the masked root draw against plain loops -------


def _sample_graph_pairs(model, seed):
    """Reference: one rng.random() per pair, decided by edge_probability."""
    rng = model_mod._as_rng(seed)
    verts = model.vertices()
    edges = set()
    for a in range(len(verts)):
        for b in range(a + 1, len(verts)):
            u, v = verts[a], verts[b]
            if rng.random() < edge_probability(model, u, v):
                edges.add(frozenset((u, v)))
    return Graph(model, frozenset(edges))


def _graph_exploration_resorting(graph, rho, seed):
    """Reference: re-sorts the unexplored positive-direction vertices per root."""
    model = graph.model
    rng = model_mod._as_rng(seed)
    unexplored = set(model.vertices())
    queue = []
    steps, components, current = [], [], []
    level, zeta, k = 0.0, 0, 0

    def positive_rate():
        return [
            (v, rho[v[1]] * model.Q[v[1]][v[1]] * model.weight(v))
            for v in sorted(unexplored, key=lambda x: (x[1], x[0]))
            if rho[v[1]] > 0
        ]

    while True:
        root_gap = None
        if not queue:
            if current:
                components.append(
                    ComponentTrace(tuple(current), component_weights(model, current), level)
                )
            current = []
            candidates = positive_rate()
            if not candidates:
                break
            rates = np.array([r for _, r in candidates])
            total = rates.sum()
            root_gap = rng.exponential(1.0 / total)
            vertex = candidates[rng.choice(len(candidates), p=rates / total)][0]
            zeta += 1
            level += root_gap
            kind = "root"
            unexplored.discard(vertex)
        else:
            vertex = queue.pop(0)
            kind = "child"
        k += 1
        current.append(vertex)
        found = [u for u in graph.neighbors(vertex) if u in unexplored]
        ordered = []
        for i in range(model.m):
            keys = [(rng.exponential(1.0 / model.weight(u)), u) for u in found if u[1] == i]
            keys.sort(key=lambda kv: kv[0])
            ordered.extend(u for _, u in keys)
        for u in ordered:
            unexplored.discard(u)
            queue.append(u)
        steps.append(ExplorationStep(k, kind, vertex, zeta, tuple(ordered), root_gap=root_gap))
    return ExplorationTrace(tuple(float(r) for r in rho), tuple(steps), tuple(components))


def _components_by_vertex_union_find(graph):
    """Reference: union-find in a dict over the vertex tuples, each class
    sorted, then the classes sorted by their first vertex."""
    parent = {v: v for v in graph.model.vertices()}

    def find(x):
        while parent[x] != x:
            x = parent[x]
        return x

    for e in graph.edges:
        ra, rb = (find(v) for v in e)
        if ra != rb:
            parent[max(ra, rb)] = min(ra, rb)
    groups = {}
    for v in graph.model.vertices():
        groups.setdefault(find(v), []).append(v)
    comps = []
    for members in groups.values():
        members.sort(key=lambda x: (x[1], x[0]))
        comps.append(Component(tuple(members), component_weights(graph.model, members)))
    comps.sort(key=lambda c: (c.vertices[0][1], c.vertices[0][0]))
    return comps


def _near_critical(n, seed):
    rng = np.random.default_rng(seed)
    scale = math.sqrt(n / 2)
    weights = tuple(tuple(sorted((rng.uniform(0.5, 1.5, n // 2) / scale).tolist(), reverse=True)) for _ in range(2))
    return BlockModel(weights, ((1.0, 0.5), (0.5, 1.0)))


def _assert_same_graph_and_stream(model, seed):
    rng_a, rng_b = np.random.default_rng(seed), np.random.default_rng(seed)
    got, want = sample_graph(model, rng_a), _sample_graph_pairs(model, rng_b)
    assert got.edges == want.edges
    assert rng_a.random() == rng_b.random()
    return got


def _random_rho(rng, m):
    rho = tuple(float(x) for x in rng.integers(0, 3, m))
    return rho if any(rho) else (1.0,) * m


class TestAgainstPairLoops:
    def test_sample_graph_matches_pair_loop(self, rng):
        for _ in range(300):
            model = random_block_model(rng, max_vertices=int(rng.choice([3, 8, 30])))
            _assert_same_graph_and_stream(model, int(rng.integers(2**31)))

    def test_near_critical_graph_and_exploration_match(self):
        model = _near_critical(600, 3)
        graph = _assert_same_graph_and_stream(model, 11)
        assert len(graph.edges) > 100
        for rho in ((1.0, 1.0), (0.0, 1.0)):
            got = graph_exploration(graph, rho, 12)
            assert got == _graph_exploration_resorting(graph, rho, 12)
            assert got.zeta_final > 50

    def test_components_match_vertex_union_find(self, rng):
        graphs = [sample_graph(_near_critical(1200, 4), 5)]
        for _ in range(200):
            model = random_block_model(rng, max_vertices=int(rng.choice([3, 8, 30])))
            graphs.append(sample_graph(model, rng))
        for graph in graphs:
            assert connected_components(graph) == _components_by_vertex_union_find(graph)
        assert len(graphs[0].edges) > 300

    def test_graph_exploration_matches_resorting(self, rng):
        for _ in range(200):
            model = random_block_model(rng, max_vertices=int(rng.choice([4, 12, 30])))
            weak = BlockModel(model.weights, tuple(tuple(0.1 * q for q in row) for row in model.Q))
            graph = sample_graph(weak, rng)
            rho = _random_rho(rng, model.m)
            seed = int(rng.integers(2**31))
            assert graph_exploration(graph, rho, seed) == _graph_exploration_resorting(graph, rho, seed)

    def test_shared_generator_leaves_same_state(self, rng):
        model = random_block_model(rng, max_vertices=20)
        rng_a, rng_b = np.random.default_rng(5), np.random.default_rng(5)
        graph = sample_graph(model, rng_a)
        assert graph == _sample_graph_pairs(model, rng_b)
        rho = _random_rho(rng, model.m)
        assert graph_exploration(graph, rho, rng_a) == _graph_exploration_resorting(graph, rho, rng_b)
        assert rng_a.random() == rng_b.random()

    def test_exact_fallback_decides_every_draw(self, rng, monkeypatch):
        calls = []

        def counted(model, u, v):
            calls.append((u, v))
            return edge_probability(model, u, v)

        monkeypatch.setattr(model_mod, "_EXP_TOL", 2.0)  # every |u - p| is at most 1
        monkeypatch.setattr(model_mod, "edge_probability", counted)
        for _ in range(50):
            model = random_block_model(rng, max_vertices=12)
            calls.clear()
            _assert_same_graph_and_stream(model, int(rng.integers(2**31)))
            verts = model.vertices()
            assert calls == [(u, v) for a, u in enumerate(verts) for v in verts[a + 1 :]]

    @pytest.mark.parametrize(
        "weights",
        [((1.0,),), ((), (1.0,)), ((), (2.0, 1.0), ()), ((1.5, 1.0), (), (0.7,))],
        ids=["one-vertex", "empty-first-type", "empty-outer-types", "empty-middle-type"],
    )
    def test_small_and_empty_types(self, weights):
        m = len(weights)
        model = BlockModel(weights, tuple(tuple(1.0 if i == j else 0.6 for j in range(m)) for i in range(m)))
        for seed in range(20):
            graph = _assert_same_graph_and_stream(model, seed)
            rho = (1.0,) * m
            assert graph_exploration(graph, rho, seed) == _graph_exploration_resorting(graph, rho, seed)
