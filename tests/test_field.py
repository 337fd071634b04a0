import math
from collections import deque

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import blockwalk.field as field_mod
from blockwalk.field import (
    Field,
    build_field,
    field_exploration,
    field_from_jumps,
    hitting_process,
    hitting_time,
    sample_clocks,
    solver_jump,
    solver_jumps,
)
from blockwalk.instances import random_block_model, random_probe_direction
from blockwalk.model import BlockModel, ComponentTrace, ExplorationStep, ExplorationTrace
from blockwalk.paths import add, drift, pure_jumps, step, sup_distance
from blockwalk.stats import mc_component_distribution
from blockwalk.validate import FIXTURE_RHO, FIXTURES
from references import worked_instance
from test_model import _near_critical, _random_rho


def field_eval(fld: Field, t: list[float]) -> tuple[float, ...]:
    """Row i sums x_ij(t_j) over the columns j.  Backs the worked instance's
    field values, as field_eval_left backs the definition of T(y)."""
    _check_times(fld, t)
    return tuple(
        sum(fld.paths[i][j].eval(t[j]) for j in range(fld.m)) for i in range(fld.m)
    )


def field_eval_left(fld: Field, t: list[float]) -> tuple[float, ...]:
    """Coordinatewise left limits: row i evaluates each column at t_j-.  The
    hitting time T(y) is the least t at which these reach -rho*y."""
    _check_times(fld, t)
    return tuple(
        sum(fld.paths[i][j].eval_left(t[j]) for j in range(fld.m)) for i in range(fld.m)
    )


def _check_times(fld: Field, t) -> None:
    if len(t) != fld.m:
        raise ValueError(f"time vector has length {len(t)}, expected {fld.m}")
    if any(x < 0 for x in t):
        raise ValueError("time vector must be nonnegative")


def rank_one_walk(model: BlockModel, clocks, q: float | None = None):
    """Single-type walk -t + sum of weight jumps, built directly without
    the field machinery; q defaults to the kernel entry.  With one type the
    field's diagonal is this classical walk."""
    if model.m != 1:
        raise ValueError("rank-one walk requires exactly one type")
    q = model.Q[0][0] if q is None else q
    jumps = [(xi / q, model.weight(v)) for v, xi in clocks.items()]
    return add(drift(-1.0), pure_jumps(jumps))


def rank_one_encoding(model: BlockModel, clocks) -> list[tuple[float, float]]:
    """(level, gap) pairs of the scalar hitting process, computed by the
    classic one-dimensional sweep over sorted jump times.  Backs the
    rank-one reduction: with one type the hitting process has these jumps."""
    if model.m != 1:
        raise ValueError("rank-one encoding requires exactly one type")
    q = model.Q[0][0]
    remaining = sorted((xi / q, model.weight(v)) for v, xi in clocks.items())
    out = []
    frontier = 0.0
    level = 0.0
    idx = 0
    while idx < len(remaining):
        t, w = remaining[idx]
        level += t - frontier
        window_end = t + w
        mass = w
        idx += 1
        while idx < len(remaining) and remaining[idx][0] < window_end:
            mass += remaining[idx][1]
            window_end += remaining[idx][1]
            idx += 1
        out.append((level, mass))
        frontier = window_end
    return out


def single_type_model(*weights, q=1.0):
    return BlockModel((tuple(weights),), ((q,),))


class TestClocks:
    def test_distinct_and_deterministic(self):
        model = random_block_model(np.random.default_rng(1), max_vertices=6)
        a = sample_clocks(model, 11)
        b = sample_clocks(model, 11)
        assert a == b
        times = sorted(a.values())
        assert all(y > x for x, y in zip(times, times[1:]))

    def test_rate_matches_weight(self):
        model = single_type_model(4.0)
        rng = np.random.default_rng(2)
        draws = [sample_clocks(model, rng)[(0, 0)] for _ in range(50_000)]
        assert np.mean(draws) == pytest.approx(0.25, abs=3 * 0.25 / math.sqrt(50_000))


class TestBuildField:
    def test_empty_column_is_pure_drift(self):
        model = BlockModel(((), (1.0,)), ((1.0, 0.5), (0.5, 1.0)))
        fld = build_field(model, sample_clocks(model, 0))
        assert fld.paths[0][0] == drift(-1.0)
        assert not fld.paths[1][0].breakpoints
        assert fld.paths[1][0].eval(10.0) == 0.0

    def test_underflowed_jump_time_is_refused_when_the_paths_are_read(self):
        # 1e-170 / 1e161 underflows to 0.0: the field holds the jump, and
        # sweeps it, but no path can jump at time 0
        fld = build_field(_TIE_PRONE, {(0, 0): 1e-170, (1, 0): 0.5, (0, 1): 0.7})
        assert fld.columns[0][0].time == 0.0
        with pytest.raises(ValueError, match=r"^column 0 jumps at time 0\.0, which is not positive$"):
            fld.paths
        assert hitting_process(fld, (1.0, 1.0)).levels == (0.0,)

    def test_single_vertex_matches_walk_shape(self):
        fld, _ = worked_instance()
        expected = add(drift(-1.0), step(0.5, 1.0))
        assert sup_distance(fld.paths[0][0], expected) == 0.0

    def test_off_diagonal_jump_ratio_exact(self, rng):
        for _ in range(10):
            model = random_block_model(rng, max_vertices=5)
            if model.m == 1:
                continue
            fld = build_field(model, sample_clocks(model, rng))
            for j in range(model.m):
                diag_jumps = fld.paths[j][j].jumps()
                for i in range(model.m):
                    if i == j:
                        continue
                    for bd, bo, rec in zip(diag_jumps, fld.paths[i][j].jumps(), fld.columns[j]):
                        assert bo.t == bd.t
                        # stored jump sizes carry cumulative-value rounding;
                        # the driving column data scales exactly
                        assert bo.right - bo.left == pytest.approx(model.R[i][j] * (bd.right - bd.left), abs=1e-12)
                        assert rec.weight == model.weight(rec.vertex)

    def test_columns_jump_simultaneously(self):
        fld, _ = worked_instance()
        assert [b.t for b in fld.paths[0][0].jumps()] == [0.5]
        assert [b.t for b in fld.paths[1][0].jumps()] == [0.5]

    @pytest.mark.parametrize(
        "R, match",
        [
            ([[1.0, 0.0]], r"R has 1 rows, expected 2"),
            ([[1.0, 0.0], [0.3, 1.0], [0.0, 0.0]], r"R has 3 rows, expected 2"),
            ([[1.0, 0.0], [0.3]], r"R\[1\] has 1 entries, expected 2"),
            ([[1.0, 0.0, 0.5], [0.3, 1.0]], r"R\[0\] has 3 entries, expected 2"),
        ],
    )
    def test_from_jumps_needs_square_r(self, R, match):
        with pytest.raises(ValueError, match=match):
            field_from_jumps([[(0.5, 1.0)], [(0.7, 0.5)]], R)


class TestFieldEval:
    def test_zero_vector(self):
        fld, _ = worked_instance()
        assert field_eval(fld, [0.0, 0.0]) == (0.0, 0.0)

    def test_pure_drift_before_first_clock(self):
        fld, _ = worked_instance()
        assert field_eval_left(fld, [0.4, 0.3]) == (-0.4, -0.3)

    def test_worked_point(self):
        fld, _ = worked_instance()
        assert field_eval(fld, [1.5, 0.8]) == (-0.5, -0.5)

    def test_negative_time_rejected(self):
        fld, _ = worked_instance()
        with pytest.raises(ValueError):
            field_eval(fld, [-0.1, 0.0])


class TestHittingTime:
    def test_worked_values(self):
        fld, rho = worked_instance()
        assert hitting_time(fld, rho, 0.0).times == (0.0, 0.0)
        assert hitting_time(fld, rho, 0.3).times == (0.3, 0.3)
        t = hitting_time(fld, rho, 0.6).times
        assert t[0] == pytest.approx(1.6, abs=1e-12)
        assert t[1] == pytest.approx(0.9, abs=1e-12)

    def test_overflowing_level_gives_an_infinite_coordinate(self):
        # rho_0 * y overflows, so coordinate 0 is +inf, and the load it puts
        # on row 1 is the last value of its staircase, 0.3 * 1.0; row 1's
        # own jump of 0.4 then delays its hit to 1e10 + 0.3 + 0.4
        fld = field_from_jumps([[(0.5, 1.0)], [(2.0, 0.4)]], [[1.0, 0.0], [0.3, 1.0]])
        ht = hitting_time(fld, (1e300, 1.0), 1e10)
        assert ht.times == (math.inf, 10000000000.699999)
        assert ht.sweeps == 3
        # with three types: the infinite coordinate loads both other rows
        fld = field_from_jumps(
            [[(0.5, 5.0), (1.3, 0.2), (1.1, 0.2)], [(1.2, 0.3), (9.0, 1.0)], []],
            [[1.0, 0.5, 0.2], [0.5, 1.0, 0.0], [0.1, 0.3, 1.0]],
        )
        ht = hitting_time(fld, (1.0, 1e300, 1.0), 1e10)
        assert ht.times == (10000000006.05, math.inf, 10000000000.93)
        assert ht.sweeps == 3

    def test_left_limits_meet_level(self, rng):
        for _ in range(20):
            model = random_block_model(rng, max_vertices=6)
            rho = random_probe_direction(rng, model)
            fld = build_field(model, sample_clocks(model, rng))
            for y in (0.1, 0.7, 1.9):
                t = hitting_time(fld, rho, y).times
                values = field_eval_left(fld, list(t))
                for i in range(model.m):
                    assert values[i] == pytest.approx(-rho[i] * y, abs=1e-9)

    def test_minimality_of_diagonal_infima(self, rng):
        # strictly above the attained infimum before the hit
        for _ in range(10):
            model = random_block_model(rng, max_vertices=5)
            rho = random_probe_direction(rng, model)
            fld = build_field(model, sample_clocks(model, rng))
            t = hitting_time(fld, rho, 1.3).times
            for i in range(model.m):
                low = fld.diag_infima[i]
                hit = low.eval(t[i])
                for frac in (0.25, 0.5, 0.9, 0.99):
                    assert low.eval(frac * t[i]) > hit - 1e-12

    def test_unconstrained_direction_flagged(self):
        fld, _ = worked_instance()
        result = hitting_time(fld, (1.0, 0.0), 0.7)
        assert result.unconstrained_types == (1,)

    def test_invalid_inputs(self):
        fld, rho = worked_instance()
        with pytest.raises(ValueError):
            hitting_time(fld, rho, -0.5)
        with pytest.raises(ValueError):
            hitting_time(fld, (0.0, 0.0), 1.0)

    def test_nan_level_refused(self):
        # the iteration never settles at a NaN level
        fld, rho = worked_instance()
        with pytest.raises(ValueError, match="^level must be nonnegative$"):
            hitting_time(fld, rho, math.nan)


class TestHittingProcess:
    def test_worked_single_jump(self):
        fld, rho = worked_instance()
        hp = hitting_process(fld, rho)
        assert hp.levels == (0.5,)
        assert hp.deltas == ((1.0, 0.3),)
        assert hp.evaluate(0.5) == (0.5, 0.5)

    def test_no_vertices_gives_affine_map(self):
        model = BlockModel(((),), ((1.0,),))
        fld = build_field(model, sample_clocks(model, 0))
        hp = hitting_process(fld, (2.0,))
        assert hp.levels == ()
        assert hp.evaluate(1.7) == (3.4,)

    def test_isolated_vertices_jump_their_column(self):
        fld = field_from_jumps([[(1.0, 0.2), (10.0, 0.3)], []], [[1.0, 0.0], [0.4, 1.0]])
        hp = hitting_process(fld, (1.0, 1.0))
        assert hp.deltas == ((0.2, 0.4 * 0.2), (0.3, 0.4 * 0.3))
        assert hp.levels[0] == 1.0
        # second root fires after the first window [1.0, 1.2) ends
        assert hp.levels[1] == pytest.approx(1.0 + (10.0 - 1.2), abs=1e-12)

    def test_solver_and_sweep_agree_exactly(self, rng):
        for _ in range(30):
            model = random_block_model(rng, max_vertices=6)
            rho = random_probe_direction(rng, model)
            fld = build_field(model, sample_clocks(model, rng))
            hp = hitting_process(fld, rho)
            # probe strictly between jump levels: at an exact level the
            # solver's target sits one rounding away from a discontinuity
            probes = {0.0}
            for level in hp.levels:
                probes.add(level * 0.5)
                later = [x for x in hp.levels if x > level]
                probes.add((level + min(later)) / 2 if later else level + 0.25)
            last = max(hp.levels, default=0.0)
            probes.update((last + 0.3, last + 1.7))
            for y in sorted(probes):
                direct = hitting_time(fld, rho, y).times
                swept = hp.evaluate(y)
                assert max(abs(a - b) for a, b in zip(direct, swept)) <= 1e-12

    def test_jump_count_bounded_by_vertex_count(self, rng):
        for _ in range(20):
            model = random_block_model(rng, max_vertices=6)
            rho = random_probe_direction(rng, model)
            fld = build_field(model, sample_clocks(model, rng))
            hp = hitting_process(fld, rho)
            assert len(hp.levels) <= len(model.vertices())

    def test_strictly_increasing_on_positive_directions(self, rng):
        for _ in range(10):
            model = random_block_model(rng, max_vertices=5)
            rho = random_probe_direction(rng, model)
            fld = build_field(model, sample_clocks(model, rng))
            hp = hitting_process(fld, rho)
            ys = sorted({0.0, 0.3, 0.9, 2.4} | set(hp.levels))
            for a, b in zip(ys, ys[1:]):
                ta, tb = hp.evaluate(a), hp.evaluate(b)
                for i in range(model.m):
                    if rho[i] > 0:
                        assert tb[i] > ta[i]
                    else:
                        assert tb[i] >= ta[i]


class TestFieldExploration:
    def test_single_vertex_window(self):
        fld, rho = worked_instance()
        trace = field_exploration(fld, rho)
        assert len(trace.steps) == 1
        s = trace.steps[0]
        assert s.kind == "root"
        assert s.root_gap == 0.5
        assert s.window_low == (0.5, 0.5)
        assert s.window_high == (1.5, 0.8)
        assert trace.components[0].weight_by_type == (1.0, 0.0)

    def test_disjoint_windows_make_two_components(self):
        fld = field_from_jumps([[(0.5, 0.1), (10.0, 0.1)]], [[1.0]])
        trace = field_exploration(fld, (1.0,))
        assert trace.zeta_final == 2

    def test_overlapping_window_collects_child(self):
        fld = field_from_jumps([[(0.5, 1.0), (1.2, 0.4)]], [[1.0]])
        trace = field_exploration(fld, (1.0,))
        assert trace.zeta_final == 1
        assert [s.kind for s in trace.steps] == ["root", "child"]
        assert trace.components[0].weight_by_type == (1.4,)

    def test_untouched_components_contribute_no_jump(self):
        # direction ignores type two, whose lone vertex sits out of reach
        fld = field_from_jumps(
            [[(1.0, 1.0)], [(100.0, 1.0)]], [[1.0, 0.5], [0.5, 1.0]]
        )
        trace = field_exploration(fld, (1.0, 0.0))
        assert trace.zeta_final == 1
        assert trace.components[0].vertices == ((0, 0),)
        hp = hitting_process(fld, (1.0, 0.0))
        assert hp.levels == (1.0,)

    def test_trace_matches_graph_component_structure(self, rng):
        from blockwalk.model import component_weights

        for _ in range(20):
            model = random_block_model(rng, max_vertices=6)
            rho = random_probe_direction(rng, model)
            fld = build_field(model, sample_clocks(model, rng))
            trace = field_exploration(fld, rho)
            assert sorted(s.vertex for s in trace.steps) == sorted(model.vertices())
            for comp in trace.components:
                assert comp.weight_by_type == component_weights(model, comp.vertices)

    def test_partial_direction_visits_only_touching_components(self, rng):
        # with the direction supported on type zero, the sweep reaches
        # exactly the components containing a type-zero vertex, each once
        for _ in range(20):
            model = random_block_model(rng, max_vertices=6)
            if model.m == 1:
                continue
            rho = tuple(1.0 if k == 0 else 0.0 for k in range(model.m))
            fld = build_field(model, sample_clocks(model, rng))
            full = {
                frozenset(c.vertices)
                for c in field_exploration(fld, (1.0,) * model.m).components
            }
            touching = {c for c in full if any(v[1] == 0 for v in c)}
            trace = field_exploration(fld, rho)
            assert {frozenset(c.vertices) for c in trace.components} == touching
            visited = [s.vertex for s in trace.steps]
            assert len(set(visited)) == len(visited)

    def test_children_ordered_by_type_then_clock(self):
        fld = field_from_jumps(
            [[(0.5, 5.0), (1.3, 0.2), (1.1, 0.2)], [(1.2, 0.3)]],
            [[1.0, 0.5], [0.5, 1.0]],
        )
        trace = field_exploration(fld, (1.0, 1.0))
        root = trace.steps[0]
        types = [v[1] for v in root.children]
        assert types == sorted(types)
        first_type = [v for v in root.children if v[1] == 0]
        clock_of = {j.vertex: j.time for j in fld.columns[0]}
        clocks = [clock_of[v] for v in first_type]
        assert clocks == sorted(clocks)


class TestRankOne:
    def test_single_vertex_single_jump(self):
        model = single_type_model(0.7, q=2.0)
        clocks = sample_clocks(model, 4)
        walk = rank_one_walk(model, clocks)
        jumps = walk.jumps()
        assert len(jumps) == 1
        assert jumps[0].right - jumps[0].left == pytest.approx(0.7, abs=1e-12)
        assert jumps[0].t == clocks[(0, 0)] / 2.0

    def test_walk_matches_field_diagonal(self, rng):
        for _ in range(10):
            model = single_type_model(*sorted(rng.uniform(0.3, 1.5, size=3), reverse=True))
            clocks = sample_clocks(model, rng)
            walk = rank_one_walk(model, clocks)
            fld = build_field(model, clocks)
            assert sup_distance(walk, fld.paths[0][0]) == 0.0

    def test_encoding_matches_field_pipeline(self, rng):
        for _ in range(20):
            model = single_type_model(*sorted(rng.uniform(0.3, 1.5, size=4), reverse=True))
            clocks = sample_clocks(model, rng)
            pairs = rank_one_encoding(model, clocks)
            hp = hitting_process(build_field(model, clocks), (1.0,))
            assert len(pairs) == len(hp.levels)
            for (level, gap), hp_level, hp_delta in zip(pairs, hp.levels, hp.deltas):
                assert level == pytest.approx(hp_level, abs=1e-12)
                assert gap == pytest.approx(hp_delta[0], abs=1e-12)

    def test_affine_slope_between_jumps(self):
        model = single_type_model(1.0, q=1.0)
        clocks = sample_clocks(model, 3)
        hp = hitting_process(build_field(model, clocks), (1.0,))
        y0 = hp.levels[0] / 3
        assert hp.evaluate(y0) == (y0,)

    def test_two_vertex_merge_probability(self):
        # a window started at either vertex captures the other with the
        # graph's edge probability
        q, w1, w2 = 0.8, 1.0, 0.6
        model = single_type_model(w1, w2, q=q)
        n = 100_000
        # the batched field sampler draws the clocks that n field_exploration
        # calls on one generator draw; that loop counted 37 842 merges
        law = mc_component_distribution(model, (1.0,), n, np.random.default_rng(29), "field")
        merged = sum(count for signature, count in law.items() if len(signature) == 1)
        assert merged == 37_842
        p = 1.0 - math.exp(-q * w1 * w2)
        sigma = math.sqrt(n * p * (1 - p))
        assert abs(merged - n * p) <= 3 * sigma

    def test_requires_single_type(self):
        model = BlockModel(((1.0,), (1.0,)), ((1.0, 0.5), (0.5, 1.0)))
        with pytest.raises(ValueError):
            rank_one_walk(model, sample_clocks(model, 0))
        with pytest.raises(ValueError):
            rank_one_encoding(model, sample_clocks(model, 0))


class TestPathwiseEncoding:
    def test_sweep_jumps_equal_scaled_component_weights(self, rng):
        from blockwalk.field import encoded_jump

        for _ in range(30):
            model = random_block_model(rng, max_vertices=6)
            rho = random_probe_direction(rng, model)
            fld = build_field(model, sample_clocks(model, rng))
            trace = field_exploration(fld, rho)
            hp = hitting_process(fld, rho)
            assert len(hp.deltas) == len(trace.components)
            for delta, comp in zip(hp.deltas, trace.components):
                expected = encoded_jump(model.R, comp.weight_by_type)
                assert max(abs(a - b) for a, b in zip(delta, expected)) == 0.0


# -- references: the per-vertex clock loop, the exploration loop that built its
# -- steps in place, and the level-list scan of solver_jump


def _sample_clocks_per_vertex(model, seed):
    """Reference: one rng.exponential call per vertex, redrawn until the jump
    times are distinct."""
    rng = field_mod._as_rng(seed)
    while True:
        clocks = {v: rng.exponential(1.0 / model.weight(v)) for v in model.vertices()}
        times = sorted(xi / model.Q[v[1]][v[1]] for v, xi in clocks.items())
        if all(b > a for a, b in zip(times, times[1:])):
            return clocks


def _field_exploration_loop(fld, rho):
    """Reference: the sweep with its ExplorationSteps and components built
    in the loop itself."""
    m = fld.m
    tail = (0.0,) * m
    pointer = [0] * m
    cols = fld.columns
    queue = deque()
    steps, components, current = [], [], []
    level, zeta, k = 0.0, 0, 0

    def unexplored_root():
        best = None
        for i in range(m):
            if rho[i] <= 0 or pointer[i] >= len(cols[i]):
                continue
            gap = (cols[i][pointer[i]].time - tail[i]) / rho[i]
            if best is None or gap < best[0]:
                best = (gap, i)
        return best

    def close_component():
        if current:
            ordered = sorted(current, key=lambda vw: (vw[0][1], vw[0][0]))
            weight_by_type = [0.0] * m
            for v, w in ordered:
                weight_by_type[v[1]] += w
            components.append(
                ComponentTrace(tuple(v for v, _ in current), tuple(weight_by_type), level)
            )

    while True:
        root_gap = None
        if not queue:
            close_component()
            current = []
            pick = unexplored_root()
            if pick is None:
                break
            root_gap, ri = pick
            zeta += 1
            level += root_gap
            jump = cols[ri][pointer[ri]]
            pointer[ri] += 1
            low = tuple(jump.time if i == ri else tail[i] + rho[i] * root_gap for i in range(m))
            high = tuple(low[i] + jump.weight * fld.R[i][ri] for i in range(m))
            tail = high
            vertex, weight = jump.vertex, jump.weight
            kind = "root"
        else:
            vertex, weight, low, high = queue.popleft()
            kind = "child"
        k += 1
        current.append((vertex, weight))
        children = []
        for i in range(m):
            while pointer[i] < len(cols[i]) and cols[i][pointer[i]].time < high[i]:
                nxt = cols[i][pointer[i]]
                if nxt.time < low[i]:
                    raise RuntimeError("unexplored jump behind the sweep frontier")
                children.append(nxt)
                pointer[i] += 1
        children.sort(key=lambda c: (c.vertex[1], c.time))
        for c in children:
            hi = tuple(tail[i] + c.weight * fld.R[i][c.vertex[1]] for i in range(m))
            queue.append((c.vertex, c.weight, tail, hi))
            tail = hi
        steps.append(
            ExplorationStep(k, kind, vertex, zeta, tuple(c.vertex for c in children), low, high, root_gap)
        )
    return ExplorationTrace(m, tuple(float(r) for r in rho), tuple(steps), tuple(components))


def _solver_jump_scan(fld, rho, levels, level):
    """Reference: solver_jump with the neighbouring levels found by scanning."""
    below = [lv for lv in levels if lv < level]
    above = [lv for lv in levels if lv > level]
    lo_gap = (level - max(below)) / 2 if below else level / 2
    hi_gap = (min(above) - level) / 2 if above else 0.5
    before = hitting_time(fld, rho, level - lo_gap).times
    after = hitting_time(fld, rho, level + hi_gap).times
    return tuple((a - r * hi_gap) - (b + r * lo_gap) for a, b, r in zip(after, before, rho))


#: jump times near 1e-321 are subnormal, so a few rows in a thousand tie
_TIE_PRONE = BlockModel(((1e160, 1e160), (1e160,)), ((1e161, 1.0), (1.0, 1e161)))


#: the one type with a positive entry of _NO_COMPONENT_RHO has no vertex, so
#: no sweep finds a root
_NO_COMPONENT = BlockModel(((), (1.0,)), ((1.0, 0.5), (0.5, 1.0)))
_NO_COMPONENT_RHO = (1.0, 0.0)


def _rows_per_vertex(model, rng, n_rows):
    return [list(_sample_clocks_per_vertex(model, rng).values()) for _ in range(n_rows)]


def _assert_sweep_rows_match_sweep(model, rho, rng, n_rows=200):
    """_sweep_rows on a chunk of n_rows clock rows gives, row by row, the
    components and the first level of _sweep: labels equal, levels equal
    bit for bit.  Returns the labels and the first levels."""
    verts = model.vertices()
    (xi,) = field_mod._clock_rows(model, rng, n_rows)
    times = xi / np.array([model.Q[i][i] for _, i in verts])
    labels, first = field_mod._sweep_rows(times, model.weights, model.R, rho)
    for row, got, level in zip(xi.tolist(), labels.tolist(), first.tolist()):
        fld = build_field(model, dict(zip(verts, row)))
        components = field_mod._sweep(fld.columns, fld.R, rho)
        want = [-1] * len(verts)
        for label, (vs, _, _) in enumerate(components):
            for v in vs:
                want[verts.index(v)] = label
        assert got == want
        if components:
            assert level.hex() == components[0][2].hex()
        else:
            assert math.isnan(level)
    return labels, first


class TestAgainstOldLoops:
    def test_sample_clocks_matches_per_vertex_loop(self, rng):
        for _ in range(200):
            model = random_block_model(rng, max_vertices=int(rng.choice([3, 6, 12])))
            seed = int(rng.integers(2**31))
            rng_a, rng_b = np.random.default_rng(seed), np.random.default_rng(seed)
            assert sample_clocks(model, rng_a) == _sample_clocks_per_vertex(model, rng_b)
            assert rng_a.bit_generator.state == rng_b.bit_generator.state

    @pytest.mark.parametrize("chunk", [1, 7, 4096])
    def test_clock_rows_match_per_vertex_loop(self, rng, monkeypatch, chunk):
        monkeypatch.setattr(field_mod, "_CLOCK_CHUNK", chunk)
        for _ in range(20):
            model = random_block_model(rng, max_vertices=6)
            seed = int(rng.integers(2**31))
            rng_a, rng_b = np.random.default_rng(seed), np.random.default_rng(seed)
            chunks = list(field_mod._clock_rows(model, rng_a, 300))
            assert all(len(xi) for xi in chunks)
            assert np.concatenate(chunks).tolist() == _rows_per_vertex(model, rng_b, 300)
            assert rng_a.bit_generator.state == rng_b.bit_generator.state

    @pytest.mark.parametrize("chunk", [1, 7, 4096])
    def test_tied_rows_are_redrawn_as_by_the_loop(self, monkeypatch, chunk):
        monkeypatch.setattr(field_mod, "_CLOCK_CHUNK", chunk)
        verts = _TIE_PRONE.vertices()
        rng_a, rng_b = np.random.default_rng(8), np.random.default_rng(8)
        rows = np.concatenate(list(field_mod._clock_rows(_TIE_PRONE, rng_a, 3000))).tolist()
        assert rows == _rows_per_vertex(_TIE_PRONE, rng_b, 3000)
        assert rng_a.bit_generator.state == rng_b.bit_generator.state
        # the stream held tied rows: more rows were drawn than kept
        plain = np.random.default_rng(8).exponential(1e-160, size=(3000, len(verts)))
        assert rows != plain.tolist()

    @pytest.mark.parametrize(
        "weights",
        [((),), ((1.0,),), ((), (1.0,)), ((1.5, 1.0), (), (0.7,))],
        ids=["no-vertex", "one-vertex", "empty-first-type", "empty-middle-type"],
    )
    def test_small_and_empty_types(self, weights):
        m = len(weights)
        model = BlockModel(weights, tuple(tuple(1.0 if i == j else 0.6 for j in range(m)) for i in range(m)))
        rng_a, rng_b = np.random.default_rng(3), np.random.default_rng(3)
        for _ in range(20):
            fld = build_field(model, sample_clocks(model, rng_a))
            assert fld == build_field(model, _sample_clocks_per_vertex(model, rng_b))
            rho = (1.0,) * m
            assert field_exploration(fld, rho) == _field_exploration_loop(fld, rho)
        assert rng_a.bit_generator.state == rng_b.bit_generator.state
        _assert_sweep_rows_match_sweep(model, (1.0,) * m, rng_a)

    def test_always_tied_draws_raise(self):
        model = BlockModel(((1e200, 1e200), (1e200,)), ((1e200, 1.0), (1.0, 1e200)))
        with pytest.raises(ValueError, match="tie or underflow"):
            sample_clocks(model, 0)

    def test_exploration_matches_loop(self, rng):
        for _ in range(300):
            model = random_block_model(rng, max_vertices=int(rng.choice([3, 6, 20])))
            fld = build_field(model, sample_clocks(model, rng))
            rho = _random_rho(rng, model.m)
            assert field_exploration(fld, rho) == _field_exploration_loop(fld, rho)

    def test_near_critical_exploration_matches_loop(self):
        model = _near_critical(400, 5)
        fld = build_field(model, sample_clocks(model, 6))
        for rho in ((1.0, 1.0), (0.0, 1.0), (2.0, 0.5)):
            trace = field_exploration(fld, rho)
            assert trace == _field_exploration_loop(fld, rho)
            assert trace.zeta_final > 20

    def test_explicit_field_exploration_matches_loop(self):
        fld = field_from_jumps(
            [[(0.5, 5.0), (1.3, 0.2), (1.1, 0.2)], [(1.2, 0.3), (9.0, 1.0)], []],
            [[1.0, 0.5, 0.2], [0.5, 1.0, 0.0], [0.1, 0.3, 1.0]],
        )
        for rho in ((1.0, 1.0, 1.0), (0.0, 1.0, 0.0), (1.0, 0.0, 3.0)):
            assert field_exploration(fld, rho) == _field_exploration_loop(fld, rho)

    def test_sweep_rows_matches_sweep_per_row(self, rng):
        for _ in range(100):
            model = random_block_model(rng, max_types=3, max_vertices=int(rng.integers(3, 8)))
            _assert_sweep_rows_match_sweep(model, _random_rho(rng, model.m), rng)

    @pytest.mark.parametrize("fixture", [0, 1])
    def test_sweep_rows_matches_sweep_on_a_full_chunk(self, fixture):
        rng = np.random.default_rng(fixture)
        labels, _ = _assert_sweep_rows_match_sweep(FIXTURES[fixture], FIXTURE_RHO, rng, field_mod._CLOCK_CHUNK)
        assert labels.shape == (field_mod._CLOCK_CHUNK, len(FIXTURES[fixture].vertices()))

    def test_sweep_rows_matches_sweep_with_zero_and_tiny_directions(self, rng):
        for rho in ((0.0, 1.0), (1e-9, 1.0), (1.0, 1e-9), (1e-9, 0.0)):
            _assert_sweep_rows_match_sweep(FIXTURES[1], rho, rng)
        for _ in range(40):
            model = random_block_model(rng, max_types=3, max_vertices=int(rng.integers(3, 8)))
            rho = tuple(float(x) for x in rng.choice([0.0, 1e-9, 1.0], model.m))
            _assert_sweep_rows_match_sweep(model, rho if any(rho) else (1e-9,) * model.m, rng)

    def test_sweep_rows_without_a_component(self, rng):
        labels, first = _assert_sweep_rows_match_sweep(_NO_COMPONENT, _NO_COMPONENT_RHO, rng)
        assert (labels == -1).all()
        assert np.isnan(first).all()

    def test_sweep_rows_raises_where_sweep_does(self):
        # tail + rho_1 * gap rounds up past the type-1 jump at t1
        R, rho = ((1.0, 0.5), (0.5, 1.0)), (1.0, 3.0)
        t0, t1 = 0.6459721981904619, 1.9379165945713857
        with pytest.raises(RuntimeError, match="behind the sweep frontier"):
            field_mod._sweep([[(t0, 1.0, (0, 0))], [(t1, 1.0, (0, 1))]], R, rho)
        with pytest.raises(RuntimeError, match="behind the sweep frontier"):
            field_mod._sweep_rows(np.array([[0.1, 5.0], [t0, t1]]), ((1.0,), (1.0,)), R, rho)

    def test_solver_jump_bisection_matches_scan(self, rng):
        for _ in range(40):
            model = random_block_model(rng, max_vertices=6)
            rho = random_probe_direction(rng, model)
            fld = build_field(model, sample_clocks(model, rng))
            levels = hitting_process(fld, rho).levels
            for level in levels:
                assert solver_jump(fld, rho, levels, level) == _solver_jump_scan(fld, rho, levels, level)
            # nondecreasing lists with repeats, queried on and between their entries
            extra = sorted(rng.choice(list(levels) + rng.uniform(0.0, 3.0, 3).tolist(), size=6).tolist())
            for level in extra + [0.05, 5.0]:
                assert solver_jump(fld, rho, extra, level) == _solver_jump_scan(fld, rho, extra, level)


# -- solver_jumps: the forward pass against the per-level solver -------------------


def _hex_jumps(jumps):
    return [[x.hex() for x in jump] for jump in jumps]


def _distinct_probes(levels):
    """The probes solver_jump solves beside each level (none rounds onto
    its level in these tests)."""
    probes = set()
    for level in levels:
        below = [lv for lv in levels if lv < level]
        above = [lv for lv in levels if lv > level]
        probes.add(level - ((level - max(below)) / 2 if below else level / 2))
        probes.add(level + ((min(above) - level) / 2 if above else 0.5))
    return probes


def _assert_solver_jumps_match_scan(fld, rho, levels):
    got = solver_jumps(fld, rho, levels)
    assert _hex_jumps(got) == _hex_jumps(_solver_jump_scan(fld, rho, levels, y) for y in levels)
    probes = _distinct_probes(levels)
    assert got.probes == len(probes)
    from_zero = sum(hitting_time(fld, rho, y).sweeps for y in probes)
    assert got.sweeps <= from_zero


@st.composite
def _solver_cases(draw):
    """A field and a direction from a seeded draw: a factorizable
    model of at most three types, a general one of at most six, either with
    some direction coordinates zero, or a dyadic field whose windows end
    exactly on later jumps, so that root gaps of zero repeat levels."""
    rng = np.random.default_rng(draw(st.integers(min_value=0, max_value=2**32 - 1)))
    kind = draw(st.sampled_from(["factorizable", "general", "zero-direction", "dyadic"]))
    if kind == "dyadic":
        m = int(rng.integers(1, 4))
        R = [[1.0 if i == j else float(rng.choice([0.25, 0.5, 1.0])) for j in range(m)] for i in range(m)]
        columns = []
        for _ in range(m):
            ticks = rng.choice(np.arange(1, 24), int(rng.integers(0, 6)), replace=False)
            columns.append([(0.25 * float(k), 0.25 * float(rng.integers(1, 5))) for k in ticks])
        return field_from_jumps(columns, R), tuple(float(rng.choice([0.0, 0.5, 1.0, 2.0])) for _ in range(m - 1)) + (1.0,)
    general = kind == "general"
    model = random_block_model(rng, max_types=6 if general else 3, max_vertices=8, factorizable=not general)
    rho = random_probe_direction(rng, model)
    if kind == "zero-direction":
        rho = tuple(r * float(z) for r, z in zip(rho, rng.integers(0, 2, model.m))) if model.m > 1 else rho
        rho = rho if any(rho) else (1.0,) + rho[1:]
    return build_field(model, sample_clocks(model, rng)), rho


@settings(max_examples=300, deadline=None, derandomize=True)
@given(_solver_cases(), st.integers(min_value=0, max_value=2**32 - 1))
def test_solver_jumps_match_the_per_level_scan(case, seed):
    fld, rho = case
    levels = hitting_process(fld, rho).levels
    _assert_solver_jumps_match_scan(fld, rho, levels)
    # nondecreasing lists with repeats, from the levels and between them
    rng = np.random.default_rng(seed)
    extra = sorted(rng.choice(list(levels) + rng.uniform(0.0, 3.0, 3).tolist(), size=6).tolist())
    _assert_solver_jumps_match_scan(fld, rho, extra)


def test_dyadic_fields_repeat_levels():
    # the dyadic draws of _solver_cases do reach repeated levels
    R = [[1.0, 0.5], [0.5, 1.0]]
    fld = field_from_jumps([[(0.25, 0.5), (0.75, 0.25)], [(2.0, 0.25)]], R)
    levels = hitting_process(fld, (1.0, 1.0)).levels
    assert len(set(levels)) < len(levels)
    _assert_solver_jumps_match_scan(fld, (1.0, 1.0), levels)


class TestSolverJumps:
    def test_first_probe_to_round_onto_its_level_raises_as_before(self):
        fld, rho = worked_instance()
        levels = [0.3, 1e17, math.nextafter(1e17, math.inf), 5e17]
        with pytest.raises(ValueError) as per_level:
            [solver_jump(fld, rho, levels, y) for y in levels]
        with pytest.raises(ValueError) as forward:
            solver_jumps(fld, rho, levels)
        assert str(forward.value) == str(per_level.value)
        assert "beside level 1e+17 rounds onto it" in str(forward.value)

    def test_no_levels(self):
        fld, rho = worked_instance()
        assert solver_jumps(fld, rho, ()) == []

    def test_solver_jump_refuses_a_nan_level(self):
        fld, rho = worked_instance()
        with pytest.raises(ValueError, match="^level must be nonnegative$"):
            solver_jump(fld, rho, [0.5], math.nan)

    @pytest.mark.parametrize("levels", [[math.nan], [1.0, math.nan], [math.nan, 1.0]])
    def test_solver_jumps_refuses_a_nan_level(self, levels):
        # a NaN probe sorts anywhere among the others, not first
        fld, rho = worked_instance()
        with pytest.raises(ValueError, match="^level must be nonnegative$"):
            solver_jumps(fld, rho, levels)
