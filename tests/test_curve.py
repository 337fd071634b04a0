import math
from bisect import bisect_left

import numpy as np
import pytest

import blockwalk.curve as curve_module
from blockwalk.curve import (
    CurveAssumptionError,
    build_curve,
    composed_processes,
    encode_components,
    level_hit_times,
    verify_encoding,
)
from blockwalk.field import (
    build_field,
    field_from_jumps,
    hitting_process,
    hitting_time,
    sample_clocks,
)
from blockwalk.instances import random_block_model, random_probe_direction
from blockwalk.model import BlockModel
from blockwalk.paths import (
    PiecewisePath,
    add,
    compose,
    drift,
    excursions,
    past_infimum,
    polyline,
    probe_times,
    step,
    sup_distance,
)
from references import worked_instance


def random_curve_instance(rng, max_vertices=6):
    model = random_block_model(rng, max_vertices=max_vertices)
    rho = random_probe_direction(rng, model)
    fld = build_field(model, sample_clocks(model, rng))
    return model, rho, fld


class TestSymmetry:
    # build_levels builds the shared columns once and raises at the first
    # witness of a column that is not proportional
    def test_two_types_always_pass(self, rng):
        for _ in range(10):
            model = random_block_model(rng, max_types=2)
            fld = build_field(model, sample_clocks(model, rng))
            rho = random_probe_direction(rng, model)
            curve_module._shared_columns(fld, rho)

    def test_factorized_ratios_pass(self, rng):
        for _ in range(10):
            model, rho, fld = random_curve_instance(rng)
            curve_module._shared_columns(fld, rho)

    def test_perturbed_ratio_fails_with_witness(self):
        R = [[1.0, 0.5, 0.5], [0.5, 1.0, 0.5], [0.5 + 1e-3, 0.5, 1.0]]
        fld = field_from_jumps([[(1.0, 1.0)], [(2.0, 1.0)], [(3.0, 1.0)]], R)
        with pytest.raises(CurveAssumptionError, match=r"^rows 1 and 2 of column 0 are not proportional near t=1.0$"):
            build_curve(fld, (1.0, 1.0, 1.0))

    def test_requires_positive_direction(self):
        fld, _ = worked_instance()
        with pytest.raises(CurveAssumptionError, match="^curve construction needs a strictly positive direction$"):
            build_curve(fld, (1.0, 0.0))


class TestWorkedInstance:
    def setup_method(self):
        self.fld, self.rho = worked_instance()
        self.bundle = build_curve(self.fld, self.rho)

    def test_level_maps(self):
        g1, g2 = self.bundle.levels
        expected_g1 = polyline([(0.0, 0.0), (0.5, 0.5)], 1.0)
        expected_g1 = add(expected_g1, step(0.5, 0.3))
        # g1: slope 1, jump to 0.8 at 0.5, flat to 1.5, slope 1 after
        assert g1.eval(0.3) == 0.3
        assert g1.eval_left(0.5) == 0.5
        assert g1.eval(0.5) == 0.8
        assert g1.eval(1.0) == 0.8
        assert g1.eval(1.5) == 0.8
        assert g1.eval(2.0) == pytest.approx(1.3, abs=1e-15)
        assert sup_distance(g2, drift(1.0)) == 0.0

    def test_combined_level(self):
        kappa = self.bundle.combined_level
        for s, expected in [(0.5, 0.25), (1.0, 0.5), (1.15, 0.65), (1.3, 0.8), (1.8, 0.8), (2.3, 0.8), (3.0, 1.15)]:
            assert kappa.eval(s) == pytest.approx(expected, abs=1e-15)

    def test_curve_coordinates(self):
        c1, c2 = self.bundle.curve
        for s, expected in [(0.5, 0.25), (1.0, 0.5), (1.15, 0.5), (1.3, 0.5), (1.8, 1.0), (2.3, 1.5), (3.0, 1.85)]:
            assert c1.eval(s) == pytest.approx(expected, abs=1e-15)
        assert sup_distance(c2, self.bundle.combined_level) == 0.0

    def test_curve_sums_to_parameter(self):
        for s in (0.4, 1.15, 1.9, 3.0):
            assert sum(g.eval(s) for g in self.bundle.curve) == pytest.approx(s, abs=1e-12)

    def test_composed_process_values(self):
        c = composed_processes(self.fld, self.bundle)[0]
        assert c.eval(0.5) == -0.25
        assert c.eval_left(1.0) == -0.5
        assert c.eval(1.0) == 0.5
        assert c.eval(2.0) == pytest.approx(-0.2, abs=1e-15)
        assert c.eval(2.3) == pytest.approx(-0.5, abs=1e-15)
        assert c.eval(3.0) == pytest.approx(-0.85, abs=1e-15)

    def test_excursion_and_increment(self):
        records = encode_components(self.fld, self.bundle)
        assert len(records) == 1
        rec = records[0]
        assert rec.start == pytest.approx(1.0, abs=1e-12)
        assert rec.end == pytest.approx(2.3, abs=1e-12)
        assert rec.length == pytest.approx(1.3, abs=1e-12)
        assert rec.increment[0] == pytest.approx(1.0, abs=1e-12)
        assert rec.increment[1] == pytest.approx(0.3, abs=1e-12)
        # the increment is the ratio matrix applied to the component weights
        assert rec.increment[0] == pytest.approx(1.0 * 1.0 + 0.0, abs=1e-12)
        assert rec.increment[1] == pytest.approx(0.3 * 1.0 + 0.0, abs=1e-12)
        assert rec.length == pytest.approx(sum(rec.increment), abs=1e-12)

    def test_rows_share_excursion_intervals(self):
        p0, p1 = composed_processes(self.fld, self.bundle)
        assert excursions(p0) == pytest.approx(excursions(p1), abs=1e-12)

    def test_total_time_of_levels(self):
        hp = hitting_process(self.fld, self.rho)
        assert hp.total_time(0.3) == pytest.approx(0.6, abs=1e-12)
        assert hp.total_time(0.6) == pytest.approx(2.5, abs=1e-12)

    def test_level_hit_times_agree_across_rows(self):
        for y in (0.1, 0.3, 0.45, 0.6, 0.9):
            times = level_hit_times(self.fld, self.bundle, y)
            assert times[0] == pytest.approx(times[1], abs=1e-12)

    def test_level_hit_times_take_one_infimum_per_process(self, monkeypatch):
        calls = []
        monkeypatch.setattr(curve_module, "past_infimum", lambda p: calls.append(p) or past_infimum(p))
        bundle = build_curve(self.fld, self.rho)
        for y in (0.1, 0.3, 0.45, 0.6, 0.9):
            level_hit_times(self.fld, bundle, y)
        assert calls == list(composed_processes(self.fld, bundle))
        with pytest.raises(ValueError, match=r"^the field is not the one the curve bundle was built from$"):
            level_hit_times(field_from_jumps([[(0.7, 1.0)], []], [[1.0, 0.0], [0.3, 1.0]]), bundle, 0.1)

    def test_verify_encoding_passes(self):
        assert verify_encoding(self.fld, self.bundle)["pass"]

    def test_stages_refuse_another_field(self):
        # the bundle caches its stages, so another field would get this one's
        other = field_from_jumps([[(0.7, 1.0)], []], [[1.0, 0.0], [0.3, 1.0]])
        for stage in (composed_processes, encode_components, verify_encoding):
            with pytest.raises(ValueError, match=r"^the field is not the one the curve bundle was built from$"):
                stage(other, self.bundle)
        # an equal field has the same stages
        same, _ = worked_instance()
        assert same is not self.fld
        assert composed_processes(same, self.bundle) is composed_processes(self.fld, self.bundle)


def curve_identity_gap(fld, bundle, eps=1e-6):
    process = hitting_process(fld, bundle.rho)
    ys = {0.0}
    for level in process.levels:
        ys.update((level, level + eps, max(level - eps, 0.0)))
    ys.add(max(process.levels, default=0.0) + 1.0)
    worst = 0.0
    for y in sorted(ys):
        t = process.evaluate(y)
        point = [g.eval(sum(t)) for g in bundle.curve]
        worst = max(worst, max(abs(a - b) for a, b in zip(point, t)))
    return worst


def _slope_before(g, t):
    """Slope of g's linear piece just left of t > 0."""
    _, _, rise, run = g._piece(bisect_left(g.times, t))
    return rise / run


class TestCurveInvariants:
    def test_norm_identity_on_dense_grid(self, rng):
        for _ in range(20):
            _, rho, fld = random_curve_instance(rng)
            bundle = build_curve(fld, rho)
            for s in probe_times(*bundle.curve):
                assert sum(g.eval(s) for g in bundle.curve) == pytest.approx(s, abs=1e-9)

    def test_curve_traces_hitting_times(self, rng):
        for _ in range(20):
            _, rho, fld = random_curve_instance(rng)
            bundle = build_curve(fld, rho)
            assert curve_identity_gap(fld, bundle) <= 1e-9

    def test_level_sandwich_along_curve(self, rng):
        # combined level lies between the level map's left and right values
        # at the curve point
        for _ in range(10):
            _, rho, fld = random_curve_instance(rng)
            bundle = build_curve(fld, rho)
            for s in probe_times(*bundle.curve, bundle.combined_level):
                k = bundle.combined_level.eval(s)
                for g, c in zip(bundle.levels, bundle.curve):
                    assert g.eval_left(c.eval(s)) - 1e-9 <= k <= g.eval(c.eval(s)) + 1e-9

    def test_unit_lipschitz(self, rng):
        for _ in range(10):
            _, rho, fld = random_curve_instance(rng)
            bundle = build_curve(fld, rho)
            grid = probe_times(*bundle.curve)
            for a, b in zip(grid, grid[1:]):
                for c in bundle.curve:
                    move = c.eval(b) - c.eval(a)
                    assert -1e-12 <= move <= (b - a) + 1e-9

    def test_hit_time_maps_identical_and_match_total_time(self, rng):
        for _ in range(10):
            _, rho, fld = random_curve_instance(rng)
            bundle = build_curve(fld, rho)
            hp = hitting_process(fld, rho)
            levels = list(hp.levels)
            ys = [lv / 2 for lv in levels] + [lv + 0.1 for lv in levels] + [0.05]
            for y in ys:
                times = level_hit_times(fld, bundle, y)
                expected = hp.total_time(y)
                for t in times:
                    assert t == pytest.approx(expected, abs=1e-9)

    def test_excursions_match_hitting_jumps(self, rng):
        for _ in range(20):
            _, rho, fld = random_curve_instance(rng)
            bundle = build_curve(fld, rho)
            report = verify_encoding(fld, bundle)
            assert report["pass"], report

    def test_aligned_time_vectors_lie_on_curve(self, rng):
        # vectors whose level-map values agree at a generic level, with each
        # map continuous there and rising on the left, are curve points
        # indexed by their own total time
        found = 0
        for _ in range(60):
            _, rho, fld = random_curve_instance(rng)
            bundle = build_curve(fld, rho)
            top = min(g.eval(5.0) for g in bundle.levels)
            u = float(rng.uniform(0.0, top))
            t = tuple(g.inverse.eval(u) for g in bundle.levels)
            premise = all(
                abs(g.eval(ti) - u) <= 1e-12
                and g.eval_left(ti) == g.eval(ti)
                and (ti == 0.0 or _slope_before(g, ti) > 0)
                for g, ti in zip(bundle.levels, t)
            )
            if not premise:
                continue  # u is skipped, jumped over, or flat on some axis
            found += 1
            point = [g.eval(sum(t)) for g in bundle.curve]
            assert max(abs(a - b) for a, b in zip(point, t)) <= 1e-9
        assert found >= 12


def _plain_curve(bundle):
    """The curve by ordinary composition of each level map's inverse with
    the combined level, which needs no smoothing where the level maps are
    continuous and strictly increasing."""
    return tuple(compose(g.inverse, bundle.combined_level) for g in bundle.levels)


class TestSpecialCase:
    def test_single_type_drift_curve_is_identity(self):
        fld = field_from_jumps([[]], [[1.0]])
        bundle = build_curve(fld, (1.0,))
        (gamma,) = _plain_curve(bundle)
        assert sup_distance(gamma, drift(1.0)) == 0.0
        (general,) = bundle.curve
        assert sup_distance(general, drift(1.0)) == 0.0

    def test_plain_route_leaves_the_curve_on_jumping_offdiagonals(self):
        # the jump of x_10 leaves type 0's level map flat on [0.5, 1.5], so
        # its inverse jumps there; the plain route jumps with it, while the
        # curve crosses the gap at unit speed
        bundle = build_curve(*worked_instance())
        plain, general = _plain_curve(bundle)[0], bundle.curve[0]
        assert plain.eval(1.8) == 1.5
        assert general.eval(1.8) == pytest.approx(1.0, abs=1e-15)

    def test_single_type_with_jumps_is_identity_via_general_curve(self, rng):
        # flat stretches of the level map rule out the plain-inverse route,
        # but the smooth composition still collapses to the identity
        model = BlockModel(((1.0, 0.5),), ((1.0,),))
        fld = build_field(model, sample_clocks(model, rng))
        bundle = build_curve(fld, (1.0,))
        (gamma,) = bundle.curve
        assert sup_distance(gamma, drift(1.0)) <= 1e-12
        (plain,) = _plain_curve(bundle)
        assert sup_distance(plain, drift(1.0)) > 1e-3


class TestEmptyField:
    def test_composed_processes_are_scaled_drifts(self):
        model = BlockModel(((), ()), ((1.0, 0.5), (0.5, 1.0)))
        fld = build_field(model, sample_clocks(model, 0))
        rho = (2.0, 1.0)
        bundle = build_curve(fld, rho)
        processes = composed_processes(fld, bundle)
        total = sum(rho)
        for i, proc in enumerate(processes):
            assert sup_distance(proc, drift(-rho[i] / total)) <= 1e-15
            assert excursions(proc) == []


class TestAssumptionFailures:
    def test_symmetry_failure_blocks_curve(self):
        R = [[1.0, 0.5, 0.5], [0.5, 1.0, 0.5], [0.9, 0.5, 1.0]]
        fld = field_from_jumps([[(1.0, 1.0)], [(2.0, 1.0)], [(3.0, 1.0)]], R)
        with pytest.raises(CurveAssumptionError):
            build_curve(fld, (1.0, 1.0, 1.0))

    def test_falling_level_map_rejected(self, monkeypatch):
        # shared columns falling faster than the diagonals make each level
        # map fall; the off-diagonals of a field of jump columns never fall,
        # so the falling paths stand in for them
        monkeypatch.setattr(curve_module, "_shared_columns", lambda fld, rho: [drift(-2.0)] * fld.m)
        fld = field_from_jumps([[], []], [[1.0, 0.5], [0.5, 1.0]])
        with pytest.raises(CurveAssumptionError, match="^level map of type 0 is not invertible monotone$"):
            build_curve(fld, (1.0, 1.0))

    def test_uncoupled_type_rejected(self):
        # with no edges between the types a component moves only its own
        # row, so the rows' excursions cannot agree; this used to end in a
        # CurveInvariantError
        model = BlockModel(((1.0,), (1.0,)), ((1.0, 0.0), (0.0, 1.0)))
        fld = build_field(model, sample_clocks(model, 0))
        bundle = build_curve(fld, (1.0, 1.0))
        with pytest.raises(CurveAssumptionError, match=r"column 0 jumps but R\[1\]\[0\] = 0.0"):
            encode_components(fld, bundle)

    def test_zero_direction_component_rejected(self):
        fld, _ = worked_instance()
        with pytest.raises(CurveAssumptionError):
            build_curve(fld, (1.0, 0.0))
