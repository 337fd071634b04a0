"""Acceptance suite: one test and one printed pass/fail line per criterion.

Run with ``pytest -s tests/test_acceptance.py`` to see the per-criterion
lines as they complete.  Criteria 2 to 5 run the checks of
``blockwalk.validate``, the same code as ``blockwalk validate``, at pinned
seeds, counts and tolerances, and assert that every returned record
passed at the tolerance listed for it here.  The statistical checks use
100000 replications at significance 0.001: on each fixture, seven tests
of the component and encoding laws, every one of them a check.  Criteria 1 and 6 have no
command and are checked here directly.
"""

import numpy as np
import pytest

from blockwalk import validate
from blockwalk.curve import build_curve, encode_components
from blockwalk.field import hitting_process, hitting_time
from blockwalk.model import factor_kernel
from blockwalk.paths import polyline, sup_distance
from references import worked_instance

EXACT = 1e-12
PROP = 1e-9
ALPHA = 0.001


def report(line: str) -> None:
    print(f"[PASS] acceptance: {line}")


def test_criterion_1_worked_instance_exactness():
    fld, rho = worked_instance()

    t = hitting_time(fld, rho, 0.3).times
    assert max(abs(a - b) for a, b in zip(t, (0.3, 0.3))) <= EXACT
    t = hitting_time(fld, rho, 0.6).times
    assert max(abs(a - b) for a, b in zip(t, (1.6, 0.9))) <= EXACT

    hp = hitting_process(fld, rho)
    assert len(hp.levels) == 1
    assert abs(hp.levels[0] - 0.5) <= EXACT
    assert max(abs(a - b) for a, b in zip(hp.deltas[0], (1.0, 0.3))) <= EXACT

    bundle = build_curve(fld, rho)
    kappa_expected = polyline([(0.0, 0.0), (1.0, 0.5), (1.3, 0.8), (2.3, 0.8)], 0.5)
    assert sup_distance(bundle.combined_level, kappa_expected) <= EXACT
    gamma1_expected = polyline([(0.0, 0.0), (1.0, 0.5), (1.3, 0.5), (2.3, 1.5)], 0.5)
    assert sup_distance(bundle.curve[0], gamma1_expected) <= EXACT
    assert sup_distance(bundle.curve[1], kappa_expected) <= EXACT

    records = encode_components(fld, bundle)
    assert len(records) == 1
    rec = records[0]
    assert abs(rec.start - 1.0) <= EXACT
    assert abs(rec.end - 2.3) <= EXACT
    assert max(abs(a - b) for a, b in zip(rec.increment, (1.0, 0.3))) <= EXACT
    report("worked two-type instance reproduced to 1e-12")


def passed(checks, tols):
    """Assert that every check passed, at the tolerances listed for them in order."""
    for check in checks:
        assert check.passed, check
    assert [c.tol for c in checks] == tols
    return {c.name: c.gap for c in checks}


def test_criterion_2_pathwise_encoding_equivalence():
    gaps = passed(validate.encoding_checks(100, 1001), [0.0, EXACT, 0.0, EXACT, EXACT])
    report(
        "100 random instances: solver jumps = scaled component weights = "
        f"curve increments (worst gaps {gaps['solver jumps match the sweep']:.2e}, "
        f"{gaps['curve increments match the jumps']:.2e})"
    )


def test_criterion_3_function_algebra_suite():
    gaps = passed(validate.path_algebra_checks(1000, 2002), [0.0, PROP, PROP, 0.0, 0.0, PROP, 0.0, 0.0])
    report(
        "1000 random monotone paths: inverse identities, additivity, "
        f"sandwich and continuity hold (worst gaps "
        f"{gaps['smooth composition with inverse is the identity']:.2e}, "
        f"{gaps['smooth composition is additive']:.2e}); "
        "staircase counterexample separates the compositions"
    )


def test_criterion_4_curve_invariants():
    gaps = passed(validate.curve_checks(60, 3003), [PROP, EXACT, PROP, PROP, PROP, PROP])
    report(
        "60 random instances: coordinate sums, curve-through-hitting-times, "
        "level sandwich, one-Lipschitz bound and identical hit-time maps "
        f"(worst gaps {gaps['curve coordinates sum to the parameter']:.2e}, "
        f"{gaps['curve passes through hitting times']:.2e}, "
        f"{gaps['level maps sandwich the combined level along the curve']:.2e})"
    )


@pytest.mark.parametrize("fixture", range(len(validate.FIXTURES)))
def test_criterion_5_distributional_suite(fixture):
    law = validate.law_checks(fixture, 100_000, 500)
    config = law.experiment["config"]
    assert (config["seed"], config["n_reps"], config["alpha"]) == (500 + fixture, 100_000, ALPHA)
    p = list(passed(law.checks, [ALPHA] * 7).values())
    assert law.experiment["pass"] == all(c.passed for c in law.checks)
    report(
        f"fixture {fixture}: components and encodings match the exact oracle "
        f"and each other at N=100000, alpha=0.001 (p-values "
        f"{p[0]:.3f}, {p[1]:.3f}, {p[3]:.3f}, {p[6]:.3f}; graph vs field components {p[2]:.3f})"
    )


def test_criterion_5_calibration():
    (rejections,) = passed([validate.calibration_check(100)], [2]).values()  # nominal rate 0.1 over 100 seeds
    report(f"calibration: {rejections} rejections in 100 seeded reruns at alpha=0.001")


def test_criterion_6_kernel_factorization():
    rng = np.random.default_rng(6006)
    worst = 0.0
    for _ in range(200):
        Q = np.zeros((3, 3))
        for i in range(3):
            Q[i][i] = rng.uniform(0.3, 3.0)
            for j in range(i + 1, 3):
                Q[i][j] = Q[j][i] = rng.uniform(0.2, 3.0)
        result = factor_kernel(tuple(map(tuple, Q)))
        assert result.ok
        for i in range(3):
            for j in range(3):
                if i != j:
                    worst = max(worst, abs(Q[i][j] / Q[i][i] - result.rho[i] * result.nu[j]))
    assert worst <= EXACT

    rejected = 0
    for _ in range(50):
        Q = np.zeros((4, 4))
        for i in range(4):
            Q[i][i] = rng.uniform(0.3, 3.0)
            for j in range(i + 1, 4):
                Q[i][j] = Q[j][i] = rng.uniform(0.2, 3.0)
        rejected += not factor_kernel(tuple(map(tuple, Q))).ok
    assert rejected == 50
    report(
        "three-block closed-form factorization reproduces the ratio matrix "
        f"to 1e-12 (worst {worst:.2e}); all 50 generic four-block kernels rejected"
    )
