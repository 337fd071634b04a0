import dataclasses
import gc
import math
import operator

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from blockwalk.curve import EXCURSION_LEVEL_TOL, build_curve, composed_processes
from blockwalk.field import build_field, sample_clocks
from blockwalk.instances import random_monotone_path, staircase_counterexample
from blockwalk.model import BlockModel
from blockwalk.paths import (
    MERGE_EPS,
    Breakpoint,
    IncompatiblePairError,
    PathClassError,
    PathDomainError,
    PiecewisePath,
    _build,
    add,
    check_compatible,
    compose,
    drift,
    excursions,
    first_time_at_or_below,
    generalized_inverse,
    identity,
    past_infimum,
    polyline,
    probe_times,
    pure_jumps,
    require_invertible,
    scale,
    smooth_compose,
    step,
    sup_distance,
)


def step_on_drift():
    return add(drift(-1.0), step(0.5, 1.0))


def single_jump():
    # u on [0,1), u+1 on [1,oo)
    return _build(0.0, [(1.0, 1.0, 2.0)], 1.0, 1.0)


class TestEval:
    def test_step_on_drift(self):
        p = step_on_drift()
        assert p.eval(0.5) == 0.5
        assert p.eval_left(0.5) == -0.5

    def test_identity(self):
        assert identity().eval(3.7) == 3.7

    def test_constant_zero_left_limits(self):
        z = PiecewisePath(0.0)
        for t in (0.0, 0.3, 2.0, 17.5):
            assert z.eval_left(t) == 0.0

    def test_negative_time_rejected(self):
        with pytest.raises(PathDomainError):
            identity().eval(-0.1)
        with pytest.raises(PathDomainError):
            identity().eval_left(-1.0)

    def test_right_continuity_and_left_limits_at_breakpoints(self, rng):
        for _ in range(50):
            p = random_monotone_path(rng)
            for b in p.breakpoints:
                assert p.eval(b.t) == b.right
                assert p.eval_left(b.t) == b.left

    def test_segment_interiors_interpolate(self):
        p = step_on_drift()
        assert p.eval(0.25) == pytest.approx(-0.25, abs=1e-15)
        assert p.eval(1.5) == pytest.approx(-0.5, abs=1e-15)

    def test_breakpoints_must_increase(self):
        with pytest.raises(PathDomainError):
            PiecewisePath(0.0, (1.0, 1.0), (0.0, 1.0), (1.0, 2.0), 1.0)


# -- evaluation at sorted times ---------------------------------------------------


def _hex(values):
    return [float.hex(v) for v in values]


@st.composite
def _paths_and_times(draw):
    """A path, with or without breakpoints, and nondecreasing times that
    hit its breakpoints exactly and one float to either side, repeat
    themselves, start at 0 and run out along the terminal ray."""
    value = st.floats(min_value=-8.0, max_value=8.0)
    gaps = draw(st.lists(st.floats(min_value=1e-3, max_value=3.0), max_size=8))
    times = np.cumsum(gaps).tolist()
    ends = [(draw(value), draw(value)) for _ in times]
    lefts, rights = [left for left, _ in ends], [right for _, right in ends]
    path = PiecewisePath(draw(value), times, lefts, rights, draw(value), draw(st.floats(min_value=0.1, max_value=4.0)))
    last = times[-1] if times else 0.0
    pool = [0.0, -0.0, last + 0.5, 2 * last + 3.0]
    for t in times:
        pool += [t, math.nextafter(t, 0.0), math.nextafter(t, math.inf)]
    pool += draw(st.lists(st.floats(min_value=0.0, max_value=last + 5.0), max_size=6))
    ts = draw(st.lists(st.sampled_from(pool), max_size=24))
    return path, sorted(ts + ts[: len(ts) // 3])


@settings(max_examples=400, deadline=None, derandomize=True)
@given(_paths_and_times())
def test_eval_many_is_eval_at_each_time(case):
    path, ts = case
    assert _hex(path.eval_many(ts)) == _hex(path.eval(t) for t in ts)
    assert _hex(path.eval_left_many(ts)) == _hex(path.eval_left(t) for t in ts)
    assert _hex(path.eval_many(iter(ts))) == _hex(path.eval(t) for t in ts)


class TestEvalMany:
    def test_negative_first_time_raises_the_eval_error(self):
        p = step_on_drift()
        for many, one in ((p.eval_many, p.eval), (p.eval_left_many, p.eval_left)):
            with pytest.raises(PathDomainError) as single:
                one(-0.5)
            with pytest.raises(PathDomainError) as walked:
                many([-0.5, 1.0])
            assert str(walked.value) == str(single.value)

    @pytest.mark.parametrize("ts", [[1.0, 0.5], [0.0, 2.0, 2.0, 1.0], [0.5, -1.0], [0.5, math.nan], [math.nan]])
    def test_times_out_of_order_raise_one_line(self, ts):
        p = step_on_drift()
        for many in (p.eval_many, p.eval_left_many):
            with pytest.raises(ValueError) as err:
                many(ts)
            assert type(err.value) is ValueError
            assert "\n" not in str(err.value) and "nondecreasing" in str(err.value)

    def test_no_times(self):
        assert step_on_drift().eval_many([]) == []
        assert PiecewisePath(0.0).eval_left_many(()) == []


# -- the breakpoint columns -------------------------------------------------------


def _first_error(times, lefts, rights):
    """The message of the per-breakpoint loop: finiteness before order,
    breakpoint by breakpoint."""
    prev = 0.0
    for t, left, right in zip(times, lefts, rights):
        if not (math.isfinite(t) and math.isfinite(left) and math.isfinite(right)):
            return "breakpoint data must be finite"
        if t <= prev:
            return "breakpoint times must be strictly increasing and positive"
        prev = t
    return None


def _columns_with(n, edits):
    """n valid breakpoints, then ``edits`` as (column, index, value)."""
    cols = {"times": [k + 1.0 for k in range(n)], "lefts": [0.5 * k for k in range(n)], "rights": [0.5 * k + 0.25 for k in range(n)]}
    for name, k, value in edits:
        cols[name][k] = value
    return cols["times"], cols["lefts"], cols["rights"]


_BAD_COLUMNS = {
    "nan time": [("times", 0, math.nan)],
    "infinite left": [("lefts", 0, math.inf)],
    "infinite right": [("rights", 0, -math.inf)],
    "repeated time": [("times", 1, 1.0)],
    "first time 0": [("times", 0, 0.0)],
    "sum overflows": [("lefts", 0, 1e308), ("rights", 0, 1e308)],
    "order before nan": [("times", 1, 1.0), ("lefts", 1, math.nan)],
    "order before inf": [("times", 1, 1.0), ("rights", 2, math.inf)],
    "nan before order": [("lefts", 1, math.nan), ("times", 2, 2.0)],
}


class TestColumns:
    def test_lists_and_tuples_build_the_same_path(self):
        from_lists = PiecewisePath(0.0, [1.0], [0.0], [1.0], 1.0)
        from_tuples = PiecewisePath(0.0, (1.0,), (0.0,), (1.0,), 1.0)
        assert from_lists == from_tuples and hash(from_lists) == hash(from_tuples)
        # integers and numpy floats are stored as floats
        mixed = PiecewisePath(0.0, [1], (np.float64(0.0),), iter([True]), 1.0)
        assert mixed == from_tuples
        assert {type(v) for col in (mixed.times, mixed.lefts, mixed.rights) for v in col} == {float}
        assert mixed.jumps() == [(1.0, 0.0, 1.0)] and mixed._piece(1) == (1.0, 1.0, 1.0, 1.0)
        # tuples are converted too
        for col in ((1,), (np.float64(1.0),)):
            path = PiecewisePath(0.0, col, tuple(v - 1 for v in col), col, 1.0)
            assert path == from_tuples
            assert {type(v) for c in (path.times, path.lefts, path.rights) for v in c} == {float}
            assert type(path.eval_left(1.0)) is float and type(path.eval(1.0)) is float

    def test_unequal_columns_are_refused_in_one_line(self):
        for cols in (((1.0, 2.0), (0.0,), (1.0, 2.0)), ((1.0,), (0.0,), ()), ((), (0.0,), ())):
            with pytest.raises(PathDomainError) as err:
                PiecewisePath(0.0, *cols, 1.0)
            assert "equal lengths" in str(err.value) and "\n" not in str(err.value)

    @pytest.mark.parametrize("n", [3, 13, 400])
    @pytest.mark.parametrize("case", sorted(_BAD_COLUMNS))
    def test_column_check_gives_the_loop_messages(self, case, n):
        times, lefts, rights = _columns_with(n, _BAD_COLUMNS[case])
        expected = _first_error(times, lefts, rights)
        if expected is None:
            path = PiecewisePath(0.0, times, lefts, rights, 1.0)
            assert case == "sum overflows" and path.eval(1.0) == 1e308
            return
        with pytest.raises(PathDomainError) as err:
            PiecewisePath(0.0, times, lefts, rights, 1.0)
        assert str(err.value) == expected

    def test_columns_are_untracked_after_a_collection(self):
        walk = add(drift(-1.0), pure_jumps([(k + 1.0, 1.0) for k in range(1000)]))
        assert len(walk.times) == 1000
        gc.collect()
        assert not any(map(gc.is_tracked, (walk.times, walk.lefts, walk.rights)))

    def test_breakpoints_are_the_zipped_columns_built_on_each_read(self):
        p = random_monotone_path(np.random.default_rng(3))
        assert p.breakpoints == tuple(zip(p.times, p.lefts, p.rights))
        assert {type(b) for b in p.breakpoints} == {Breakpoint}
        assert p.breakpoints is not p.breakpoints and "breakpoints" not in vars(p)

    def test_dataclasses_replace(self):
        p = single_jump()
        p.inverse
        q = dataclasses.replace(p, terminal_rise=2.0)
        assert (q.times, q.lefts, q.rights) == (p.times, p.lefts, p.rights)
        assert q.eval(2.0) == 4.0 and "inverse" not in vars(q)
        assert dataclasses.replace(q, terminal_rise=1.0) == p
        with pytest.raises(PathDomainError):
            dataclasses.replace(p, lefts=())

    def test_one_constructor_keeps_the_dataclass_contract(self):
        by_name = PiecewisePath(initial=0.0, terminal_rise=1.0)
        by_position = PiecewisePath(0.0, (), (), (), 1.0)
        assert by_name == by_position and hash(by_name) == hash(by_position)
        assert [f.name for f in dataclasses.fields(PiecewisePath)] == [
            "initial", "times", "lefts", "rights", "terminal_rise", "terminal_run"
        ]
        p = single_jump()
        for f in dataclasses.fields(PiecewisePath):
            with pytest.raises(dataclasses.FrozenInstanceError):
                setattr(p, f.name, getattr(p, f.name))
            with pytest.raises(dataclasses.FrozenInstanceError):
                delattr(p, f.name)
        assert p == single_jump()


class TestPastInfimum:
    def test_worked_example(self):
        m = past_infimum(step_on_drift())
        assert m.eval(0.3) == -0.3
        assert m.eval(0.5) == -0.5
        assert m.eval(1.0) == -0.5
        assert m.eval(1.5) == -0.5
        assert m.eval(2.5) == -1.5

    def test_nondecreasing_path_is_flat_at_start(self, rng):
        for _ in range(20):
            p = random_monotone_path(rng)
            m = past_infimum(p)
            for t in probe_times(p):
                assert m.eval(t) == 0.0

    def test_pure_drift_is_its_own_infimum(self):
        p = drift(-1.0)
        m = past_infimum(p)
        assert sup_distance(p, m) == 0.0

    def test_continuity(self, rng):
        for _ in range(30):
            p = random_monotone_path(rng)
            shaken = add(p, drift(-2.0))
            m = past_infimum(shaken)
            for b in m.breakpoints:
                assert b.left == b.right

    def test_negative_jump_rejected(self):
        bad = _build(0.0, [(1.0, 0.0, -1.0)], 0.0, 1.0)
        with pytest.raises(PathClassError):
            past_infimum(bad)

    def test_crossing_rounded_past_the_piece_end_does_not_rise(self):
        # the last piece crosses the running minimum so close to its end,
        # two ulps lower, that the crossing time rounds past that end; the
        # infimum used to jump up there, back to the minimum
        low, peak, end = -0.36655578788129517, 2.6439948499698493, -0.3665557878812953
        t3 = 1.6970148835063126
        p = PiecewisePath(0.0, (0.5, 0.7295214310894016, t3), (low, peak, end), (low, peak, end), terminal_rise=1.0)
        m = past_infimum(p)
        assert not _rises(m)
        assert m.eval(t3) == p.eval(t3) == end
        assert m.terminal_rise == 0 and m.last_anchor[1] == end
        # the minimum is reached at t3 alone, where the infimum jumps to it
        assert first_time_at_or_below(m, end) == t3
        assert first_time_at_or_below(m, low) == 0.5

    def test_piece_ending_a_few_ulps_below_the_minimum(self, rng):
        for _ in range(300):
            t1 = float(rng.uniform(0.1, 2.0))
            t2 = t1 + float(rng.uniform(0.1, 2.0))
            t3 = t2 + float(rng.uniform(0.1, 2.0))
            low, peak = -float(rng.uniform(0.01, 3.0)), float(rng.uniform(0.0, 3.0))
            end = low
            for _ in range(int(rng.integers(1, 5))):
                end = math.nextafter(end, -math.inf)
            p = PiecewisePath(0.0, (t1, t2, t3), (low, peak, end), (low, peak, end), terminal_rise=1.0)
            m = past_infimum(p)
            assert not _rises(m)
            assert m.eval(t3) == end
            assert m.terminal_rise == 0 and m.last_anchor[1] == end
            # a crossing within MERGE_EPS of t3 merges with it, at its own time
            assert t3 - MERGE_EPS <= first_time_at_or_below(m, end) <= t3


def _rises(path):
    """Whether a piece, a jump or the terminal direction of the path rises."""
    return (
        path.terminal_rise > 0
        or any(map(operator.lt, (path.initial, *path.rights), path.lefts))
        or any(map(operator.lt, path.lefts, path.rights))
    )


class TestGeneralizedInverse:
    def test_single_jump_example(self):
        hi = generalized_inverse(single_jump())
        assert hi.eval(0.5) == 0.5
        assert hi.eval(1.0) == 1.0
        assert hi.eval(1.5) == 1.0
        assert hi.eval(2.0) == 1.0
        assert hi.eval(2.5) == 1.5

    def test_identity_inverts_to_identity(self):
        assert generalized_inverse(identity()) == identity()

    def test_staircase_inverse_at_one(self):
        ge = staircase_counterexample()
        assert generalized_inverse(ge).eval(1.0) == 2.0

    def test_rejects_bounded_path(self):
        with pytest.raises(PathClassError):
            generalized_inverse(pure_jumps([(1.0, 1.0)]))

    def test_rejects_flat_start(self):
        flat_start = _build(0.0, [(1.0, 0.0, 1.0)], 1.0, 1.0)
        with pytest.raises(PathClassError):
            generalized_inverse(flat_start)

    def test_rejects_decreasing(self):
        with pytest.raises(PathClassError):
            generalized_inverse(drift(-1.0))

    def test_double_inverse_exact_on_1000_paths(self):
        rng = np.random.default_rng(7)
        for _ in range(1000):
            h = random_monotone_path(rng)
            hii = generalized_inverse(generalized_inverse(h))
            # equal, and built afresh: an inverse is never linked back to its source
            assert hii == h and hii is not h

    def test_inverse_built_once_and_kept(self):
        h = random_monotone_path(np.random.default_rng(5))
        assert generalized_inverse(h) is h.inverse is h.inverse

    def test_non_invertible_path_raises_on_every_read(self):
        flat_start = pure_jumps([(1.0, 1.0)])
        messages = set()
        for _ in range(3):
            with pytest.raises(PathClassError) as info:
                flat_start.inverse
            messages.add(str(info.value))
        assert messages == {"generalized_inverse: path is not strictly positive immediately after 0"}

    def test_cached_inverse_leaves_eq_hash_repr_alone(self):
        h = random_monotone_path(np.random.default_rng(6))
        fresh = PiecewisePath(h.initial, h.times, h.lefts, h.rights, h.terminal_rise, h.terminal_run)
        before = (hash(h), repr(h))
        h.inverse
        assert "inverse" in vars(h) and "inverse" not in vars(fresh)
        assert h == fresh and fresh == h
        assert (hash(h), repr(h)) == before == (hash(fresh), repr(fresh))

    def test_left_right_inversion_inequalities_on_1000_paths(self):
        # h^{-1}(h(u)) = u where h strictly increases from the right;
        # h^{-1}(h(u-)) >= u and h^{-1}(h(u)-) <= u everywhere.
        rng = np.random.default_rng(11)
        for _ in range(1000):
            h = random_monotone_path(rng)
            hi = generalized_inverse(h)
            last = h.last_anchor[0]
            probes = [b.t for b in h.breakpoints]
            probes += list(rng.uniform(0.0, last + 1.0, size=100))
            for u in probes:
                if _strictly_increasing_right(h, u):
                    assert hi.eval(h.eval(u)) == pytest.approx(u, abs=1e-9)
                assert hi.eval(h.eval_left(u)) >= u - 1e-9
                assert hi.eval_left(h.eval(u)) <= u + 1e-9


def _strictly_increasing_right(h, u):
    eps = 1e-7
    return h.eval(u + eps) > h.eval(u)


class TestCompatibility:
    def test_pair_with_own_inverse_is_compatible(self, rng):
        for _ in range(50):
            g = random_monotone_path(rng)
            report = check_compatible(g, generalized_inverse(g))
            assert report.ok

    def test_jump_against_continuous_inner_fails_h1(self):
        g = single_jump()
        report = check_compatible(g, identity())
        assert report.h1_violations
        assert report.h1_violations == (1.0,)

    def test_incompatible_pair_raises_with_report(self):
        with pytest.raises(IncompatiblePairError) as err:
            smooth_compose(single_jump(), identity())
        assert err.value.report.h1_violations == (1.0,)


class TestSmoothCompose:
    def test_identity_both_ways_on_single_jump(self):
        g = single_jump()
        gi = generalized_inverse(g)
        assert sup_distance(smooth_compose(g, gi), identity()) == 0.0
        assert sup_distance(smooth_compose(gi, g), identity()) == 0.0

    def test_staircase_counterexample(self):
        ge = staircase_counterexample()
        gei = generalized_inverse(ge)
        assert ge.eval(gei.eval(1.0)) == 2.0
        assert smooth_compose(ge, gei).eval(1.0) == 1.0

    def test_additivity(self, rng):
        for _ in range(100):
            gs = [random_monotone_path(rng) for _ in range(2)]
            invs = [generalized_inverse(g) for g in gs]
            f = add(invs[0], invs[1])
            kappa = generalized_inverse(f)
            lhs = add(smooth_compose(invs[0], kappa), smooth_compose(invs[1], kappa))
            rhs = smooth_compose(f, kappa)
            assert sup_distance(lhs, rhs) <= 1e-9

    def test_output_continuous_nondecreasing_invertible(self, rng):
        for _ in range(50):
            g = random_monotone_path(rng)
            out = smooth_compose(g, generalized_inverse(g))
            for b in out.breakpoints:
                assert b.left == b.right
            assert out.nondecreasing
            require_invertible(out, "smooth_compose")

    def test_sandwich(self, rng):
        for _ in range(50):
            gs = [random_monotone_path(rng) for _ in range(2)]
            invs = [generalized_inverse(g) for g in gs]
            kappa = generalized_inverse(add(invs[0], invs[1]))
            h = invs[0]
            out = smooth_compose(h, kappa)
            for t in probe_times(out, kappa):
                lo = h.eval_left(kappa.eval(t))
                hi = h.eval(kappa.eval(t))
                assert lo - 1e-9 <= out.eval(t) <= hi + 1e-9


class TestCompose:
    def test_pointwise_matches_direct_evaluation(self, rng):
        # jump locations carry one-ulp placement noise, so compare just off
        # the breakpoints and bracket at them
        for _ in range(30):
            outer = _random_walk_path(rng)
            inner = _random_continuous_increasing(rng)
            out = compose(outer, inner)
            for s in probe_times(out, inner):
                u_lo = inner.eval(max(s - 1e-9, 0.0))
                u_hi = inner.eval(s + 1e-9)
                candidates = [
                    outer.eval_left(u_lo),
                    outer.eval(u_lo),
                    outer.eval_left(u_hi),
                    outer.eval(u_hi),
                ]
                assert min(candidates) - 1e-6 <= out.eval(s) <= max(candidates) + 1e-6
                for probe in (s + 1e-7, max(s - 1e-7, 0.0)):
                    direct = outer.eval(inner.eval(probe))
                    assert out.eval(probe) == pytest.approx(direct, abs=1e-6)

    def test_matches_smooth_compose_when_outer_continuous(self, rng):
        for _ in range(30):
            outer = _random_continuous_increasing(rng)
            inner = _random_continuous_increasing(rng)
            assert sup_distance(compose(outer, inner), smooth_compose(outer, inner)) <= 1e-9

    def test_rejects_jumping_inner(self):
        with pytest.raises(PathClassError):
            compose(identity(), single_jump())


def _random_continuous_increasing(rng):
    nodes = [(0.0, 0.0)]
    t = v = 0.0
    for _ in range(int(rng.integers(1, 5))):
        t += float(rng.uniform(0.2, 1.5))
        v += float(rng.uniform(0.2, 1.5))
        nodes.append((t, v))
    return polyline(nodes, float(rng.uniform(0.3, 2.0)))


class TestExcursions:
    def test_step_on_drift(self):
        assert excursions(step_on_drift()) == [(0.5, 1.5, 1.0)]

    def test_strictly_decreasing_has_none(self):
        assert excursions(drift(-2.0)) == []
        zigzag_down = polyline([(0.0, 0.0), (1.0, -1.0), (2.0, -1.5)], -0.5)
        assert excursions(zigzag_down) == []

    def test_two_separate_excursions(self):
        p = add(add(drift(-1.0), step(0.5, 1.0)), step(3.0, 0.5))
        assert excursions(p) == [(0.5, 1.5, 1.0), (3.0, 3.5, 0.5)]

    def test_touching_excursions_are_absorbed(self):
        # second jump fires exactly when the path returns to its infimum
        p = add(add(drift(-1.0), step(0.5, 1.0)), step(1.5, 1.0))
        assert excursions(p) == [(0.5, 2.5, 2.0)]

    def test_never_returning_path_rejected(self):
        with pytest.raises(PathClassError):
            excursions(add(drift(1.0), step(1.0, 1.0)))

    def test_left_limit_at_excursion_end_meets_infimum(self, rng):
        for _ in range(50):
            p = _random_walk_path(rng)
            m = past_infimum(p)
            for l, r, _ in excursions(p):
                assert abs(p.eval_left(r) - m.eval(r)) <= 1e-12

    def test_negative_jump_rejected(self):
        bad = _build(0.0, [(1.0, 0.5, -0.5)], -1.0, 1.0)
        with pytest.raises(PathClassError):
            excursions(bad)


def _random_walk_path(rng):
    jumps = [
        (float(t), float(s))
        for t, s in zip(rng.uniform(0, 5, size=4), rng.uniform(0.1, 1.5, size=4))
    ]
    return add(drift(-1.0), pure_jumps(jumps))


class TestLinearOps:
    def test_add_zero_is_identity(self, rng):
        for _ in range(20):
            p = _random_walk_path(rng)
            assert add(p, PiecewisePath(0.0)) == p

    def test_scale(self):
        assert scale(identity(), 2.0).eval(3.0) == 6.0
        assert scale(step_on_drift(), 0.0) == PiecewisePath(0.0)

    def test_drift_plus_step_matches_diagonal_shape(self):
        p = step_on_drift()
        assert p.eval(0.4) == -0.4
        assert p.eval(0.5) == 0.5
        assert p.eval(1.7) == pytest.approx(-0.7, abs=1e-15)

    def test_add_exact_at_merged_breakpoints(self, rng):
        for _ in range(20):
            p, q = _random_walk_path(rng), _random_walk_path(rng)
            s = add(p, q)
            for t in {b.t for b in p.breakpoints} | {b.t for b in q.breakpoints}:
                assert s.eval(t) == p.eval(t) + q.eval(t)
                assert s.eval_left(t) == p.eval_left(t) + q.eval_left(t)


class TestFirstTime:
    def test_first_time_at_or_below(self):
        m = past_infimum(step_on_drift())
        assert first_time_at_or_below(m, 0.0) == 0.0
        assert first_time_at_or_below(m, -0.5) == 0.5
        assert first_time_at_or_below(m, -0.6) == pytest.approx(1.6, abs=1e-15)

    def test_unreachable_level_is_inf(self):
        m = past_infimum(pure_jumps([(1.0, 1.0)]))
        assert first_time_at_or_below(m, -1.0) == math.inf

    def test_time_stops_at_the_breakpoint_where_the_level_is_reached(self):
        # interpolating to the breakpoint's own value rounded one ulp past it
        t1, v1 = 1.7701897688159696, -7.697334274117775e-05
        p = polyline([(0.0, 0.0), (t1, v1)], -1.0)
        assert first_time_at_or_below(p, v1) == t1
        assert first_time_at_or_below(p, math.nextafter(v1, -math.inf)) == t1


@st.composite
def _falling_polylines(draw):
    """A continuous nonincreasing polyline from a seeded draw: up to eight
    nodes with gaps and drops of varied scale, some drops zero, and a flat
    or falling terminal ray."""
    rng = np.random.default_rng(draw(st.integers(min_value=0, max_value=2**32 - 1)))
    n = draw(st.integers(min_value=1, max_value=8))
    times = np.cumsum(rng.uniform(1e-3, 3.0, n) * 10.0 ** rng.integers(-2, 3, n)).tolist()
    drops = rng.uniform(0.0, 2.0, n) * 10.0 ** rng.integers(-6, 2, n) * (rng.random(n) < 0.85)
    values = (rng.uniform(-4.0, 4.0) - np.cumsum(drops)).tolist()
    return polyline([(0.0, values[0] + rng.uniform(0.0, 1.0)), *zip(times, values)], -rng.uniform(0.0, 2.0) * (rng.random() < 0.7))


@settings(max_examples=400, deadline=None, derandomize=True)
@given(_falling_polylines())
def test_lower_level_never_gives_an_earlier_time(path):
    levels = {path.initial}
    for b in path.breakpoints:
        levels.update((b.left, math.nextafter(b.left, -math.inf), math.nextafter(b.left, math.inf)))
    times = [first_time_at_or_below(path, level) for level in sorted(levels, reverse=True)]
    assert times == sorted(times)


@settings(max_examples=150, deadline=None)
@given(st.integers(min_value=0, max_value=2**32 - 1))
def test_inverse_round_trip_property(seed):
    h = random_monotone_path(np.random.default_rng(seed))
    hi = generalized_inverse(h)
    assert generalized_inverse(hi) == h
    assert sup_distance(smooth_compose(h, hi), identity()) <= 1e-9


@settings(max_examples=150, deadline=None)
@given(st.integers(min_value=0, max_value=2**32 - 1), st.floats(min_value=0.0, max_value=20.0))
def test_inverse_sandwich_property(seed, u):
    h = random_monotone_path(np.random.default_rng(seed))
    hi = generalized_inverse(h)
    assert hi.eval(h.eval_left(u)) >= u - 1e-9
    assert hi.eval_left(h.eval(u)) <= u + 1e-9


# -- bisection and single-pass walks against the linear scans they replaced -----


def _bits(p):
    return (
        float.hex(p.initial),
        tuple(tuple(map(float.hex, b)) for b in p.breakpoints),
        float.hex(p.terminal_rise),
        float.hex(p.terminal_run),
    )


def _same_bits(p, q):
    """Whether two paths hold the same floats bit for bit: ``==`` takes
    -0.0 for 0.0, so it cannot back a claim of identical artifacts."""
    return _bits(p) == _bits(q)


def _per_point_add(p, q):
    """add with one bisected eval or eval_left per group end."""
    times = sorted(set(p.times) | set(q.times))
    anchors = []
    group_lo = group_hi = None
    for t in times:
        if group_lo is None:
            group_lo = group_hi = t
        elif t - group_hi <= MERGE_EPS:
            group_hi = t
        else:
            anchors.append(_per_point_sum_anchor(p, q, group_lo, group_hi))
            group_lo = group_hi = t
    if group_lo is not None:
        anchors.append(_per_point_sum_anchor(p, q, group_lo, group_hi))
    return _build(
        p.initial + q.initial,
        anchors,
        p.terminal_rise * q.terminal_run + q.terminal_rise * p.terminal_run,
        p.terminal_run * q.terminal_run,
    )


def _per_point_sum_anchor(p, q, lo, hi):
    return (lo, p.eval_left(lo) + q.eval_left(lo), p.eval(hi) + q.eval(hi))


def _compose_scan(outer, inner):
    """compose with the linear scan over the pull-back anchors."""
    iinv = generalized_inverse(inner)
    anchors = []
    for b in outer.breakpoints:
        s_lo, s_hi = iinv.eval_left(b.t), iinv.eval(b.t)
        anchors.append((s_lo, b.left, b.right))
        if s_hi > s_lo:
            anchors.append((s_hi, b.right, b.right))
    taken = sorted(s for s, _, _ in anchors)
    for s in inner.times:
        if any(abs(s - t) <= MERGE_EPS for t in taken):
            continue
        v = outer.eval(inner.eval(s))
        anchors.append((s, v, v))
    return _build(
        outer.eval(inner.eval(0.0)),
        sorted(anchors, key=lambda a: a[0]),
        outer.terminal_rise * inner.terminal_rise,
        outer.terminal_run * inner.terminal_run,
    )


def _smooth_compose_scan(g, kappa):
    """smooth_compose with the linear scan over the pull-back nodes."""
    kinv = generalized_inverse(kappa)
    nodes = []
    for b in g.breakpoints:
        s_lo, s_hi = kinv.eval_left(b.t), kinv.eval(b.t)
        nodes.append((s_lo, b.left))
        if s_hi > s_lo:
            nodes.append((s_hi, b.right))
    taken = sorted(s for s, _ in nodes)
    for b in kappa.breakpoints:
        if any(abs(b.t - t) <= MERGE_EPS for t in taken):
            continue
        nodes.append((b.t, g.eval(b.right)))
    nodes.sort(key=lambda nv: nv[0])
    nodes.insert(0, (0.0, g.eval(kappa.eval(0.0))))
    return polyline(nodes, g.terminal_rise * kappa.terminal_rise, g.terminal_run * kappa.terminal_run)


def _moves(path):
    """Decompose into ordered primitives: ('seg', x0, y0, x1, y1) pieces,
    ('jump', x, y0, y1) discontinuities and a final ('ray', x, y, rise, run)."""
    out = []
    x0, y0 = 0.0, path.initial
    for b in path.breakpoints:
        out.append(("seg", x0, y0, b.t, b.left))
        if b.right != b.left:
            out.append(("jump", b.t, b.left, b.right))
        x0, y0 = b.t, b.right
    out.append(("ray", x0, y0, path.terminal_rise, path.terminal_run))
    return out


def _first_rise_scan(d, a, b):
    """First time in [a, b] at which d leaves 0, rescanning all moves."""
    hi = math.inf if b is None else b
    for mv in _moves(d):
        if mv[0] == "seg":
            _, x0, y0, x1, y1 = mv
            if x1 <= a or x0 >= hi:
                continue
            lo = max(x0, a)
            if d.eval(lo) > 0:
                return lo
            if y1 > 0 and y0 <= 0 and x0 >= a:
                return x0
        elif mv[0] == "jump":
            _, x, y0, y1 = mv
            if a <= x < hi and y1 > 0 and y0 <= 0:
                return x
        else:
            _, x0, y0, rise, run = mv
            if x0 >= hi:
                continue
            lo = max(x0, a)
            if d.eval(lo) > 0 or rise > 0:
                return lo
    return None


def _excursions_scan(path, level_tol=0.0):
    """excursions with one full rescan of the moves per infimum plateau."""
    m = past_infimum(path)
    d = add(path, scale(m, -1.0))
    out = []
    for a, b in _plateaus(m, level_tol):
        l = _first_rise_scan(d, a, b)
        if l is None:
            continue
        if b is None:
            raise PathClassError("never returns")
        out.append((l, b, b - l))
    return out


def _plateaus(m, level_tol):
    """(start, end) of each plateau of the running infimum m, end None for
    an unbounded one, as excursions finds them."""
    flats = []
    flat_start, flat_level = 0.0, m.eval(0.0)
    for t0, v0, t1, v1 in m.finite_segments():
        if v1 >= flat_level - level_tol:
            continue
        if t0 > flat_start:
            flats.append((flat_start, t0))
        flat_start, flat_level = t1, v1
    t_last, _ = m.last_anchor
    if m.terminal_rise < 0:
        if t_last > flat_start:
            flats.append((flat_start, t_last))
    else:
        flats.append((flat_start, None))
    return flats


def _first_time_scan(path, level):
    if path.eval(0.0) <= level:
        return 0.0
    for (t0, v0, t1, v1), right in zip(path.finite_segments(), path.rights):
        if v1 <= level:
            if v0 == v1:
                return t0
            # never past the end of the piece, where the path already
            # reaches the level
            return min(t1, t0 + (level - v0) * (t1 - t0) / (v1 - v0))
        if right <= level:  # the jump at t1 reaches it
            return t1
    t_last, v_last = path.last_anchor
    if path.terminal_rise < 0:
        return t_last + (level - v_last) * path.terminal_run / path.terminal_rise
    return math.inf


def _continuous_part(g):
    """Continuous nondecreasing path through the left limits of g: keeps
    its flat pieces, drops its jumps."""
    return polyline([(0.0, 0.0)] + [(b.t, b.left) for b in g.breakpoints], g.terminal_rise)


def _excursion_outcome(fn, path, level_tol):
    try:
        return fn(path, level_tol)
    except PathClassError:
        return "never returns"


def _near_critical_instance(n, seed):
    rng = np.random.default_rng(seed)
    weights = tuple(
        tuple(sorted((rng.uniform(0.5, 1.5, n // 2) / math.sqrt(n / 2)).tolist(), reverse=True))
        for _ in range(2)
    )
    model = BlockModel(weights, ((1.0, 0.5), (0.5, 1.0)))
    fld = build_field(model, sample_clocks(model, seed))
    return fld, build_curve(fld, (1.0, 1.0))


def _merge_edge_operands():
    """Pairs whose breakpoints lie exactly MERGE_EPS apart, one float
    further apart, three within MERGE_EPS of each other, or face a drift
    with no breakpoints; then the cases of the named helpers below."""
    M = MERGE_EPS
    out = []
    for t1, t2 in ((M, 2 * M), (M, math.nextafter(2 * M, 1.0)), (1.0, math.nextafter(1.0, 2.0))):
        out.append((_build(0.0, [(t1, t1, t1 + 1.0)], 1.0), _build(0.0, [(t2, -t2, 0.5 - t2)], -1.0)))
    three = [1.0, 1.0 + 0.4 * M, 1.0 + 0.8 * M]
    out.append((pure_jumps([(three[0], 1.0), (three[2], 2.0)]), _build(0.0, [(three[1], 0.5, 3.0)], 2.0)))
    out.append((pure_jumps([(t, 1.0) for t in three]), drift(-1.0)))
    out += [_shared_time_pair(), _alternating_chain_pair(), *_close_breakpoint_pairs(), *_no_breakpoint_pairs()]
    return out + _signed_zero_pairs()


def _shared_time_pair():
    """Both operands jump at t = 1 and bend at t = 2."""
    return (
        _build(0.0, [(1.0, 1.0, 2.0), (2.0, 2.5, 2.5)], 2.0),
        _build(0.0, [(1.0, -1.0, 0.5), (2.0, 0.0, 0.0)], -1.0),
    )


def _alternating_chain_pair():
    """Jumps every 0.6 MERGE_EPS from t = 1, taken in turn by each operand:
    3 MERGE_EPS in all, but each time within MERGE_EPS of the one before."""
    times = [1.0 + 0.6 * k * MERGE_EPS for k in range(6)]
    return pure_jumps([(t, 1.0) for t in times[0::2]]), pure_jumps([(t, 2.0) for t in times[1::2]])


def _close_breakpoint_pairs():
    """A path built by hand, not by _build, whose own breakpoints lie half
    MERGE_EPS apart, against a drift and against a jump between them."""
    t = 1.0 + 0.5 * MERGE_EPS
    close = PiecewisePath(0.0, (1.0, t), (1.0, 2.0), (2.0, 4.0), 1.0)
    return [(close, drift(-1.0)), (close, step(1.0 + 0.25 * MERGE_EPS, 1.0))]


def _no_breakpoint_pairs():
    return [
        (drift(1.0), drift(-2.0)),
        (PiecewisePath(-0.0, terminal_rise=-0.0, terminal_run=3.0), PiecewisePath(0.0, terminal_rise=0.5, terminal_run=0.25)),
    ]


def _signed_zero_pairs():
    """Operands that hold -0.0 at t = 1, on pieces that rise or fall after
    it, inside the path and along the terminal direction, against constants
    that read -0.0 or 0.0 there and against each other."""
    zeros = [
        PiecewisePath(1.0, (1.0, 3.0), (-0.0, rise), (-0.0, rise), 1.0)
        for rise in (1.0, -1.0)
    ]
    zeros += [PiecewisePath(1.0, (1.0,), (-0.0,), (-0.0,), rise) for rise in (1.0, -1.0)]
    constants = [PiecewisePath(-0.0, terminal_rise=-0.0), PiecewisePath(-0.0, terminal_rise=0.0)]
    return [(p, q) for p in zeros for q in constants + zeros]


class TestAgainstLinearScans:
    def test_add_matches_per_point_add(self, rng):
        pairs = _merge_edge_operands()
        # the first pair merges into one anchor, the second does not
        assert [len(add(*pair).breakpoints) for pair in pairs[:2]] == [1, 2]
        assert add(*_shared_time_pair()).breakpoints == ((1.0, 0.0, 2.5), (2.0, 2.5, 2.5))
        # the chain and the close breakpoints become one anchor each
        chain = add(*_alternating_chain_pair())
        assert chain.breakpoints == ((1.0, 0.0, 9.0),)
        for close in _close_breakpoint_pairs():
            assert [b.t for b in add(*close).breakpoints] == [1.0]
        assert add(*_no_breakpoint_pairs()[1]) == PiecewisePath(0.0, terminal_rise=1.5, terminal_run=0.75)
        # the rise after t = 1 decides the sign of the zero read there
        rights = {float.hex(add(p, q).eval(1.0)) for p, q in _signed_zero_pairs()}
        assert rights == {"-0x0.0p+0", "0x0.0p+0"}
        for _ in range(300):
            g = random_monotone_path(rng)
            pairs += [
                (_random_walk_path(rng), _random_walk_path(rng)),
                (g, generalized_inverse(random_monotone_path(rng))),
                (g, drift(-float(rng.uniform(0.1, 3.0)))),
                (scale(g, -1.0), past_infimum(_random_walk_path(rng))),
            ]
        for p, q in pairs:
            assert _same_bits(add(p, q), _per_point_add(p, q))
            assert _same_bits(add(q, p), _per_point_add(q, p))

    def test_compose_matches_scan(self, rng):
        for _ in range(200):
            g = random_monotone_path(rng)
            inner = _continuous_part(g) if rng.random() < 0.5 else _random_continuous_increasing(rng)
            # outer breakpoints at inner's breakpoint values pull back to
            # within rounding of inner's own breakpoints
            values = [inner.eval(t) for t in inner.times]
            aligned = _build(
                0.0, [(v, float(k), k + float(rng.uniform(0.0, 1.0))) for k, v in enumerate(values) if v > 0], 1.0
            )
            for outer in (random_monotone_path(rng), _random_walk_path(rng), aligned):
                assert _same_bits(compose(outer, inner), _compose_scan(outer, inner))

    def test_smooth_compose_matches_scan(self, rng):
        pairs = [(staircase_counterexample(), generalized_inverse(staircase_counterexample()))]
        for _ in range(200):
            g = random_monotone_path(rng)
            gi = generalized_inverse(g)
            pairs += [(g, gi), (gi, g), (g, _continuous_part(random_monotone_path(rng)))]
        compared = 0
        for g, kappa in pairs:
            if not check_compatible(g, kappa).ok:
                continue
            assert _same_bits(smooth_compose(g, kappa), _smooth_compose_scan(g, kappa))
            compared += 1
        assert compared >= 400

    @pytest.mark.parametrize("level_tol", [0.0, EXCURSION_LEVEL_TOL])
    def test_excursions_match_scan(self, rng, level_tol):
        for _ in range(200):
            g = random_monotone_path(rng)
            for path in (
                add(drift(-float(rng.uniform(0.1, 3.0))), g),
                add(drift(-1.0), _continuous_part(g)),
                _random_walk_path(rng),
            ):
                assert _excursion_outcome(excursions, path, level_tol) == _excursion_outcome(
                    _excursions_scan, path, level_tol
                )

    def test_first_time_at_or_below_matches_scan(self, rng):
        for _ in range(200):
            for path in (past_infimum(_random_walk_path(rng)), scale(random_monotone_path(rng), -1.0)):
                levels = {path.initial, path.last_anchor[1] - 1.0, float(rng.uniform(-5.0, 0.0))}
                for b in path.breakpoints:
                    for v in (b.left, b.right):
                        levels.update((v, math.nextafter(v, math.inf), math.nextafter(v, -math.inf)))
                for level in levels:
                    assert first_time_at_or_below(path, level) == _first_time_scan(path, level)

    @pytest.mark.parametrize("seed", [3, 4])
    def test_curve_inputs_match_scans(self, seed):
        fld, bundle = _near_critical_instance(80, seed)
        for g in bundle.levels:
            assert _same_bits(smooth_compose(g.inverse, bundle.combined_level), _smooth_compose_scan(g.inverse, bundle.combined_level))
        for i in range(fld.m):
            for j in range(fld.m):
                assert _same_bits(compose(fld.paths[i][j], bundle.curve[j]), _compose_scan(fld.paths[i][j], bundle.curve[j]))
        for process in composed_processes(fld, bundle):
            for level_tol in (0.0, EXCURSION_LEVEL_TOL):
                assert excursions(process, level_tol) == _excursions_scan(process, level_tol)
            low = past_infimum(process)
            for b in low.breakpoints:
                assert first_time_at_or_below(low, b.left) == _first_time_scan(low, b.left)


class TestMergeEpsEdge:
    """An inner breakpoint within MERGE_EPS of a pull-back anchor yields to
    it; one just past MERGE_EPS is kept.  The inner paths have a single
    breakpoint and are built so that the anchor pulled back from the outer
    breakpoint u and its distance to the inner breakpoint are exact."""

    M = MERGE_EPS

    def below(self):
        # identity up to its breakpoint at 2M: the anchor of u < 2M is u
        return polyline([(0.0, 0.0), (2 * self.M, 2 * self.M)], 2.0)

    def above(self):
        # identity up to its breakpoint at M, slope 1/2 after: the anchor of
        # u > M is about M + 2 (u - M)
        return polyline([(0.0, 0.0), (self.M, self.M)], 1.0, 2.0)

    def cases(self):
        """(inner, u, inner breakpoint, within MERGE_EPS) with u on either
        side of the edge; below, the anchor sits exactly MERGE_EPS away."""
        M = self.M
        inv = generalized_inverse(self.above())
        u = 1.5 * M  # walk to the last u whose anchor is within MERGE_EPS
        while inv.eval_left(u) - M > MERGE_EPS:
            u = math.nextafter(u, 0.0)
        while inv.eval_left(math.nextafter(u, 1.0)) - M <= MERGE_EPS:
            u = math.nextafter(u, 1.0)
        return [
            (self.below(), M, 2 * M, True),
            (self.below(), math.nextafter(M, 0.0), 2 * M, False),
            (self.above(), u, M, True),
            (self.above(), math.nextafter(u, 1.0), M, False),
        ]

    def test_edge_distances(self):
        assert generalized_inverse(self.below()).eval_left(self.M) == self.M
        assert 2 * self.M - self.M == MERGE_EPS
        for inner, u, t, within in self.cases():
            anchor = generalized_inverse(inner).eval_left(u)
            assert (abs(t - anchor) <= MERGE_EPS) == within

    def test_compose(self):
        for inner, u, t, within in self.cases():
            outer = _build(0.0, [(u, u, u + 1.0)], 1.0)
            out = compose(outer, inner)
            assert _same_bits(out, _compose_scan(outer, inner))
            assert any(b.right == u + 1.0 for b in out.breakpoints)  # the jump survives
            assert (t in out.times) == (not within)

    def test_smooth_compose(self):
        for inner, u, t, within in self.cases():
            g = polyline([(0.0, 0.0), (u, u)], 3.0)
            out = smooth_compose(g, inner)
            assert _same_bits(out, _smooth_compose_scan(g, inner))
            assert (t in out.times) == (not within)
