import math
from collections import Counter

import numpy as np
import pytest

from blockwalk import stats, validate
from blockwalk.curve import build_curve
from blockwalk.field import build_field, hitting_process, sample_clocks
from blockwalk.instances import random_block_model, random_probe_direction
from blockwalk.model import BlockModel


def _curve_identity_gap_loop(bundle, process):
    """Reference: one HittingProcess.evaluate per query, each a pass over
    every level."""
    ys = {0.0}
    for level in process.levels:
        ys.update((level, level + 1e-6, max(level - 1e-6, 0.0)))
    ys.add(max(process.levels, default=0.0) + 1.0)
    worst = 0.0
    for y in sorted(ys):
        t = process.evaluate(y)
        point = [g.eval(sum(t)) for g in bundle.curve]
        worst = max(worst, max(abs(a - b) for a, b in zip(point, t)))
    return worst


def _queries(process):
    ys = {0.0, max(process.levels, default=0.0) + 1.0}
    for level in process.levels:
        ys.update((level, level + 1e-6, max(level - 1e-6, 0.0)))
    return sorted(ys)


def _near_critical(n, seed):
    """n/2 vertices per type, weights ~ U(0.5, 1.5)/sqrt(n/2), Q with unit
    diagonal and 0.5 across, rho = (1, 1)."""
    rng = np.random.default_rng(seed)
    scale = math.sqrt(n / 2)
    weights = tuple(tuple(sorted((rng.uniform(0.5, 1.5, n // 2) / scale).tolist(), reverse=True)) for _ in range(2))
    model = BlockModel(weights, ((1.0, 0.5), (0.5, 1.0)))
    return build_field(model, sample_clocks(model, rng)), (1.0, 1.0)


class TestCurveIdentityGap:
    def _assert_same_as_loop(self, fld, rho):
        process = hitting_process(fld, rho)
        ys = _queries(process)
        rows = validate._evaluate_sorted(process, ys).tolist()
        assert rows == [list(process.evaluate(y)) for y in ys]
        bundle = build_curve(fld, rho)
        assert validate.curve_identity_gap(bundle, process) == _curve_identity_gap_loop(bundle, process)

    def test_random_instances(self, rng):
        for _ in range(40):
            model = random_block_model(rng, max_vertices=int(rng.choice([3, 6, 9, 12])))
            rho = random_probe_direction(rng, model)
            self._assert_same_as_loop(build_field(model, sample_clocks(model, rng)), rho)

    def test_near_critical_instance(self):
        fld, rho = _near_critical(1600, 1)
        assert len(hitting_process(fld, rho).levels) > 300
        self._assert_same_as_loop(fld, rho)

    def test_no_jumps(self):
        model = BlockModel(((), ()), ((1.0, 0.5), (0.5, 1.0)))
        fld = build_field(model, sample_clocks(model, 0))
        self._assert_same_as_loop(fld, (2.0, 1.0))


class TestCheckRecords:
    SPECS = [("gap within one", 1.0), ("gap within zero", 0.0)]

    def test_worst_gap_and_first_failing_draw(self):
        checks = validate._checks(self.SPECS, [(0.5, 0.0), (2.0, 0.0), (0.1, 0.0), (3.0, 0.0)], 7)
        assert checks == [
            validate.Check("gap within one", False, 3.0, 1.0, 7, 1),
            validate.Check("gap within zero", True, 0.0, 0.0, 7, None),
        ]

    def test_nan_gap_fails(self):
        (check, _) = validate._checks(self.SPECS, [(0.5, 0.0), (math.nan, 0.0), (0.1, 0.0)], 0)
        assert not check.passed and check.instance == 1 and math.isnan(check.gap)

    def test_no_draws_pass(self):
        assert validate._checks(self.SPECS, [], 0) == [
            validate.Check("gap within one", True, 0.0, 1.0, 0, None),
            validate.Check("gap within zero", True, 0.0, 0.0, 0, None),
        ]

    @pytest.mark.parametrize("n_seeds, allowed", [(5, 2), (100, 2), (1000, 3), (2000, 6)])
    def test_calibration_allowance(self, monkeypatch, n_seeds, allowed):
        law = stats.exact_partition_distribution(validate.FIXTURES[0]).signature_distribution()
        fitting = Counter({sig: round(p * 2000) for sig, p in law.items()})
        skewed = Counter({max(law, key=law.get): 2000})
        monkeypatch.setattr(stats, "mc_component_distribution", lambda model, rho, n, seed, sampler: fitting)
        check = validate.calibration_check(n_seeds)
        assert check.passed and check.gap == 0 and check.tol == allowed
        monkeypatch.setattr(stats, "mc_component_distribution", lambda model, rho, n, seed, sampler: skewed)
        check = validate.calibration_check(n_seeds)
        assert not check.passed and check.gap == n_seeds and check.tol == allowed


class TestLawChecks:
    def test_first_jump_outside_exact_support_fails(self, monkeypatch):
        exact_first_jumps = stats.exact_first_jump_distribution

        def without_merged_component(model, rho):
            law = exact_first_jumps(model, rho)
            del law[max(law, key=sum)]
            return law

        monkeypatch.setattr(stats, "exact_first_jump_distribution", without_merged_component)
        law = validate.law_checks(0, 1000, 0)
        failed = {c.name for c in law.checks if not c.passed}
        assert failed == {
            "fixture 0: first field jump vs exact first-jump law",
            "fixture 0: first size-biased graph jump vs exact first-jump law",
        }
        tests = law.experiment["tests"]
        assert tests["field_first_vs_exact"]["unknown_mass"] > 0
        assert tests["graph_first_vs_exact"]["unknown_mass"] > 0
        assert not law.experiment["pass"]
