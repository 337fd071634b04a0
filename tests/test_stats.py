import dataclasses
import math
import re
from collections import Counter

import numpy as np
import pytest
from scipy import stats as sps
from scipy.sparse import coo_matrix
from scipy.sparse.csgraph import connected_components as csgraph_components

from blockwalk.field import _CLOCK_CHUNK, build_field, encoded_jump, field_exploration, hitting_process
from blockwalk.instances import random_block_model
from blockwalk.model import (
    BlockModel,
    component_weights,
    connected_components,
    edge_probability,
    graph_exploration,
    sample_graph,
    scaled_mass,
)
from blockwalk.stats import (
    _PAIR_CHUNK_CELLS,
    FieldSample,
    _round_vec,
    chi_square,
    chi_square_two_sample,
    exact_first_jump_distribution,
    exact_partition_distribution,
    exponential_cdf,
    ks_one_sample,
    mc_component_distribution,
    mc_field_samples,
    mc_graph_jump_sequences,
    partition_signature,
)
from blockwalk.validate import FIXTURES
from references import brute_force_partition_distribution, sample_partition_batch
from test_field import (
    _NO_COMPONENT,
    _NO_COMPONENT_RHO,
    _TIE_PRONE,
    _field_exploration_loop,
    _sample_clocks_per_vertex,
)
from test_model import _random_rho


def two_vertex_model(q=0.5):
    return BlockModel(((1.0,), (1.0,)), ((1.0, q), (q, 1.0)))


class TestExactOracle:
    def test_two_vertex_closed_form(self):
        dist = exact_partition_distribution(two_vertex_model())
        together = dist.probs[(((0, 0), (0, 1)),)]
        apart = dist.probs[(((0, 0),), ((0, 1),))]
        assert together == pytest.approx(1.0 - math.exp(-0.5), abs=1e-12)
        assert apart == pytest.approx(math.exp(-0.5), abs=1e-12)

    def test_single_vertex(self):
        dist = exact_partition_distribution(BlockModel(((1.0,),), ((1.0,),)))
        assert dist.probs == {(((0, 0),),): 1.0}

    def test_probabilities_sum_to_one(self, rng):
        for _ in range(10):
            model = random_block_model(rng, max_vertices=5)
            assert sum(exact_partition_distribution(model).probs.values()) == pytest.approx(1.0, abs=1e-12)

    def test_matches_brute_force(self, rng):
        for _ in range(10):
            model = random_block_model(rng, max_vertices=5)
            fast = exact_partition_distribution(model)
            slow = brute_force_partition_distribution(model)
            assert set(fast.probs) == set(slow.probs)
            for key, p in fast.probs.items():
                assert p == pytest.approx(slow.probs[key], abs=1e-12)

    def test_too_many_vertices_rejected(self):
        model = BlockModel((tuple(sorted(np.linspace(1, 2, 9), reverse=True)),), ((1.0,),))
        with pytest.raises(ValueError):
            exact_partition_distribution(model)


class TestChiSquare:
    def test_exact_match_gives_unit_p(self):
        observed = {"a": 600, "b": 400}
        expected = {"a": 0.6, "b": 0.4}
        res = chi_square(observed, expected)
        assert res.statistic == 0.0
        assert res.p_value == 1.0

    def test_hand_computed_two_cell(self):
        # (60-50)^2/50 * 2 = 4.0 with one degree of freedom
        res = chi_square({"a": 60, "b": 40}, {"a": 0.5, "b": 0.5})
        assert res.statistic == pytest.approx(4.0, abs=1e-12)
        assert res.dof == 1
        assert res.p_value == pytest.approx(float(sps.chi2.sf(4.0, 1)), abs=1e-12)

    def test_sparse_cells_pooled(self):
        observed = {"a": 950, "b": 40, "c": 6, "d": 4}
        expected = {"a": 0.95, "b": 0.04, "c": 0.007, "d": 0.003}
        res = chi_square(observed, expected)
        assert res.pooled_cells >= 2

    def test_unknown_category_counted(self):
        res = chi_square({"a": 990, "ghost": 10}, {"a": 0.5, "b": 0.5})
        assert res.unknown_mass == 10

    def test_single_cell_rejected(self):
        with pytest.raises(ValueError):
            chi_square({"a": 100}, {"a": 1.0})

    def test_two_sample_identical_counts(self):
        counts = {"a": 500, "b": 500}
        res = chi_square_two_sample(counts, counts)
        assert res.statistic == 0.0
        assert res.p_value == 1.0


class TestKS:
    def test_exponential_fit(self):
        rng = np.random.default_rng(5)
        sample = rng.exponential(0.5, size=20_000)
        res = ks_one_sample(sample, exponential_cdf(2.0))
        assert res.p_value > 0.001

    def test_wrong_rate_rejected(self):
        rng = np.random.default_rng(6)
        sample = rng.exponential(0.5, size=20_000)
        res = ks_one_sample(sample, exponential_cdf(3.0))
        assert res.p_value < 1e-6


class TestSamplers:
    def test_batch_partition_law_matches_exact(self):
        model = two_vertex_model()
        parts = sample_partition_batch(model, 50_000, 7)
        together = sum(len(p) == 1 for p in parts)
        p = 1.0 - math.exp(-0.5)
        sigma = math.sqrt(50_000 * p * (1 - p))
        assert abs(together - 50_000 * p) <= 3 * sigma

    def test_deterministic_given_seed(self):
        model = two_vertex_model()
        a = mc_component_distribution(model, (1.0, 1.0), 2000, 3, "graph")
        b = mc_component_distribution(model, (1.0, 1.0), 2000, 3, "graph")
        assert a == b
        c = mc_component_distribution(model, (1.0, 1.0), 2000, 3, "field")
        d = mc_component_distribution(model, (1.0, 1.0), 2000, 3, "field")
        assert c == d

    def test_replication_floor_enforced(self):
        # the CLI refuses such a --reps itself; library callers meet this
        model = two_vertex_model()
        calls = [
            lambda: mc_component_distribution(model, (1.0, 1.0), 10, 0, "graph"),
            lambda: mc_component_distribution(model, (1.0, 1.0), 999, 0, "field"),
            lambda: mc_field_samples(model, (1.0, 1.0), 999, 0),
            lambda: mc_graph_jump_sequences(model, (1.0, 1.0), 999, 0),
        ]
        for call in calls:
            with pytest.raises(ValueError, match="at least 1000 replications"):
                call()

    @pytest.mark.parametrize(
        "n_reps", [1000.0, "1000", True, np.int64(1000), None], ids=["float", "str", "bool", "numpy-int", "none"]
    )
    def test_replication_count_must_be_an_int(self, n_reps):
        model = two_vertex_model()
        calls = [
            lambda: mc_component_distribution(model, (1.0, 1.0), n_reps, 0, "graph"),
            lambda: mc_component_distribution(model, (1.0, 1.0), n_reps, 0, "field"),
            lambda: mc_field_samples(model, (1.0, 1.0), n_reps, 0),
            lambda: mc_graph_jump_sequences(model, (1.0, 1.0), n_reps, 0),
        ]
        for call in calls:
            with pytest.raises(ValueError, match=f"must be an int, got {re.escape(repr(n_reps))}$"):
                call()

    def test_unknown_sampler_rejected(self):
        with pytest.raises(ValueError):
            mc_component_distribution(two_vertex_model(), (1.0, 1.0), 2000, 0, "exotic")

    def test_near_empty_kernel_gives_singletons(self):
        model = BlockModel(((1.0,), (1.0,)), ((1e-9, 0.0), (0.0, 1e-9)))
        singles = partition_signature(model, (((0, 0),), ((0, 1),)))
        for sampler in ("graph", "field"):
            counts = mc_component_distribution(model, (1.0, 1.0), 2000, 1, sampler)
            assert counts[singles] == 2000


def one_type_model(n, weight=0.5):
    return BlockModel(((weight,) * n,), ((1.0,),))


def _graph_partition(graph):
    return tuple(sorted(tuple(sorted(c.vertices)) for c in connected_components(graph)))


class TestGraphSamplerAgainstSampleGraph:
    """sample_partition_batch and sample_graph draw the same uniforms for
    the same pairs in the same order and make the same edge decisions, so
    row r of a batch is the graph of the r-th sample_graph call."""

    @pytest.mark.parametrize("n", [11, 12, 16])  # 55, 66 and 120 vertex pairs
    def test_rows_match_sample_graph(self, n):
        model = one_type_model(n)
        rng = np.random.default_rng(n)
        want = [_graph_partition(sample_graph(model, rng)) for _ in range(1000)]
        batch_rng = np.random.default_rng(n)
        assert sample_partition_batch(model, 1000, batch_rng) == want
        assert batch_rng.bit_generator.state == rng.bit_generator.state
        counts = Counter(partition_signature(model, part) for part in want)
        got = mc_component_distribution(model, (1.0,), 1000, n, "graph")
        assert got == counts
        assert list(got.items()) == list(counts.items())

    def test_draws_cross_chunk_boundaries(self):
        # 780 pairs: the batch draws its uniforms in chunks of fewer rows
        model = one_type_model(40, weight=0.2)
        verts = model.vertices()
        pairs = [(a, b) for a in range(len(verts)) for b in range(a + 1, len(verts))]
        n_reps = 2 * (_PAIR_CHUNK_CELLS // len(pairs)) + 7
        rng = np.random.default_rng(5)
        # the reference: one unchunked draw, components by scipy
        probs = np.array([edge_probability(model, verts[a], verts[b]) for a, b in pairs])
        edges = rng.random((n_reps, len(pairs))) < probs
        rows, cols = np.array(pairs).T
        want = []
        for row in edges:
            adj = coo_matrix((np.ones(row.sum()), (rows[row], cols[row])), shape=(len(verts),) * 2)
            labels = csgraph_components(adj, directed=False)[1]
            groups = {}
            for v, label in zip(verts, labels.tolist()):
                groups.setdefault(label, []).append(v)
            want.append(tuple(sorted(tuple(sorted(g)) for g in groups.values())))
        batch_rng = np.random.default_rng(5)
        assert sample_partition_batch(model, n_reps, batch_rng) == want
        assert batch_rng.bit_generator.state == rng.bit_generator.state
        assert len(set(want)) > 1


class TestDirectionChecks:
    @pytest.mark.parametrize("rho", [(1.0, math.nan), (math.inf, 1.0), (1.0, -math.inf)], ids=["nan", "inf", "-inf"])
    def test_non_finite_direction_rejected(self, rho):
        model = FIXTURES[1]
        fld = build_field(model, {v: 1.0 + v[0] + 2 * v[1] for v in model.vertices()})
        calls = [
            lambda: hitting_process(fld, rho),
            lambda: field_exploration(fld, rho),
            lambda: graph_exploration(sample_graph(model, 0), rho, 0),
            lambda: mc_field_samples(model, rho, 1000, 0),
        ]
        for call in calls:
            with pytest.raises(ValueError, match="direction vector must be finite"):
                call()


class TestLawComparisons:
    def test_exact_first_jump_distribution_two_vertices(self):
        model = two_vertex_model()
        dist = exact_first_jump_distribution(model, (1.0, 1.0))
        assert sum(dist.values()) == pytest.approx(1.0, abs=1e-12)
        # merged component jumps with (R M)_i = M_i + 0.5 M_j
        merged_key = (1.5, 1.5)
        p_merge = 1.0 - math.exp(-0.5)
        assert dist[merged_key] == pytest.approx(p_merge, abs=1e-12)
        # either singleton comes first with probability (1-p)/2
        assert dist[(1.0, 0.5)] == pytest.approx((1 - p_merge) / 2, abs=1e-12)
        assert dist[(0.5, 1.0)] == pytest.approx((1 - p_merge) / 2, abs=1e-12)

    def test_zero_direction_excludes_pure_components(self):
        model = two_vertex_model()
        dist = exact_first_jump_distribution(model, (1.0, 0.0))
        # a lone type-two component can never come first
        assert (0.5, 1.0) not in dist


# -- references: the per-replication samplers, one clock draw, Field and full
# -- exploration trace per field draw and one pass per graph draw


def _sample_field_encoding(model, rho, rng):
    clocks = _sample_clocks_per_vertex(model, rng)
    trace = _field_exploration_loop(build_field(model, clocks), rho)
    sig = tuple(sorted(_round_vec(c.weight_by_type) for c in trace.components))
    first_gap = None
    for s in trace.steps:
        if s.kind == "root":
            first_gap = s.root_gap
            break
    jumps = tuple(_round_vec(encoded_jump(model.R, c.weight_by_type)) for c in trace.components)
    return FieldSample(sig, first_gap, jumps)


def _mc_component_distribution_loop(model, rho, n_reps, rng, sampler):
    counts = Counter()
    if sampler == "graph":
        for part in sample_partition_batch(model, n_reps, rng):
            counts[partition_signature(model, part)] += 1
    else:
        for _ in range(n_reps):
            counts[_sample_field_encoding(model, rho, rng).partition_signature] += 1
    return counts


def _mc_field_samples_loop(model, rho, n_reps, rng):
    return [_sample_field_encoding(model, rho, rng) for _ in range(n_reps)]


def _mc_graph_jump_sequences_loop(model, rho, n_reps, rng):
    out = []
    for part in sample_partition_batch(model, n_reps, rng):
        masses = []
        weight_vecs = []
        for block in part:
            w = component_weights(model, list(block))
            s = scaled_mass(w, rho, model.Q)
            if s > 0:
                masses.append(s)
                weight_vecs.append(w)
        if not masses:
            out.append(())
            continue
        keys = rng.exponential(1.0, size=len(masses)) / np.array(masses)
        order = np.argsort(keys)
        out.append(tuple(_round_vec(encoded_jump(model.R, weight_vecs[k])) for k in order))
    return out



def _assert_same_as_loops(model, rho, n_reps, seed):
    pairs = [
        (lambda g: mc_component_distribution(model, rho, n_reps, g, "graph"),
         lambda g: _mc_component_distribution_loop(model, rho, n_reps, g, "graph")),
        (lambda g: mc_component_distribution(model, rho, n_reps, g, "field"),
         lambda g: _mc_component_distribution_loop(model, rho, n_reps, g, "field")),
        (lambda g: mc_field_samples(model, rho, n_reps, g),
         lambda g: _mc_field_samples_loop(model, rho, n_reps, g)),
        (lambda g: mc_graph_jump_sequences(model, rho, n_reps, g),
         lambda g: _mc_graph_jump_sequences_loop(model, rho, n_reps, g)),
    ]
    for batched, loop in pairs:
        rng_a, rng_b = np.random.default_rng(seed), np.random.default_rng(seed)
        got, want = batched(rng_a), loop(rng_b)
        assert got == want
        if isinstance(got, Counter):
            assert list(got.items()) == list(want.items())  # same first-seen order
        assert rng_a.bit_generator.state == rng_b.bit_generator.state


class TestAgainstPerReplicationLoops:
    @pytest.mark.parametrize("fixture", [0, 1])
    @pytest.mark.parametrize("seed", [3, 17, 500])
    def test_desk_fixtures(self, fixture, seed):
        _assert_same_as_loops(FIXTURES[fixture], (1.0, 1.0), 1500, seed)

    def test_random_models(self, rng):
        for _ in range(6):
            model = random_block_model(rng, max_vertices=int(rng.choice([3, 5, 7])))
            _assert_same_as_loops(model, _random_rho(rng, model.m), 1000, int(rng.integers(2**31)))

    def test_tied_clock_draws(self):
        _assert_same_as_loops(_TIE_PRONE, (1.0, 1.0), 1000, 4)

    def test_model_without_a_component(self):
        _assert_same_as_loops(_NO_COMPONENT, _NO_COMPONENT_RHO, 1000, 5)

    @pytest.mark.parametrize("model", [FIXTURES[1], _TIE_PRONE], ids=["fixture-1", "tie-prone"])
    def test_more_than_one_clock_chunk(self, model):
        _assert_same_as_loops(model, (1.0, 1.0), _CLOCK_CHUNK + 1500, 23)

    def test_integer_seed_same_as_fresh_generator(self):
        model = FIXTURES[1]
        assert mc_field_samples(model, (1.0, 1.0), 1000, 9) == _mc_field_samples_loop(
            model, (1.0, 1.0), 1000, np.random.default_rng(9)
        )


class TestFieldSampleRecord:
    def test_replace_gives_a_changed_copy(self):
        # the benchmark's fault tests perturb samples this way
        sample = mc_field_samples(FIXTURES[1], (1.0, 1.0), 1000, 3)[0]
        changed = dataclasses.replace(sample, jump_sequence=((0.5, 0.5),))
        assert changed.jump_sequence == ((0.5, 0.5),)
        assert (changed.partition_signature, changed.first_gap) == (sample.partition_signature, sample.first_gap)
        assert sample.jump_sequence != changed.jump_sequence

    def test_frozen_and_slotted(self):
        sample = mc_field_samples(FIXTURES[0], (1.0, 1.0), 1000, 3)[0]
        with pytest.raises(dataclasses.FrozenInstanceError):
            sample.first_gap = 0.0
        assert not hasattr(sample, "__dict__")

    def test_no_first_gap_exactly_without_jumps(self, rng):
        cases = [(FIXTURES[0], (1.0, 1.0)), (FIXTURES[1], (0.0, 1.0)), (_NO_COMPONENT, _NO_COMPONENT_RHO)]
        for _ in range(4):
            model = random_block_model(rng, max_vertices=5)
            cases.append((model, _random_rho(rng, model.m)))
        kinds = set()
        for model, rho in cases:
            for sample in mc_field_samples(model, rho, 1000, int(rng.integers(2**31))):
                assert (sample.first_gap is None) == (sample.jump_sequence == ())
                assert sample.first_gap is None or type(sample.first_gap) is float
                kinds.add(sample.first_gap is None)
        assert kinds == {False, True}

