"""The checks behind the paper's claims, each written once.

``blockwalk validate`` and the acceptance tests run them; each returns
Check records.  encoding_checks: the field encoding (acceptance criterion
2); path_algebra_checks: the composition identities behind the curve (3);
curve_checks: the curve and the one-dimensional reformulation (4);
law_checks and calibration_check: the laws of the encoding (5).  ``encode``
reports jump_gaps, and ``curve`` excursion_gaps and curve_identity_gap, as
Check records.
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass

import numpy as np

from .curve import CurveBundle, build_curve, encode_components, level_hit_times
from .field import HittingProcess, build_field, encoded_jump, field_exploration, hitting_process
from .field import sample_clocks, solver_jumps
from .instances import random_block_model, random_monotone_path, random_probe_direction, staircase_counterexample
from .model import BlockModel, _vertex_rates
from .paths import add, generalized_inverse, identity, probe_times, smooth_compose, sup_distance

#: agreement of jumps computed two ways, and of curve increments with jumps
EXACT = 1e-12
#: identities that pass through the spline composition or the curve
PROP = 1e-9
#: significance level of the statistical checks
ALPHA = 0.001


@dataclass(frozen=True)
class Check:
    """Outcome of one check over all its draws: the worst ``gap`` seen
    passes when it is at most ``tol`` (gap 0 or inf for a property that
    holds or not), except that a statistical test passes when its p-value
    ``gap`` is at least the significance level ``tol``.  ``seed`` seeds the
    draws (None for a fixed instance); ``instance`` is the first failing
    draw, or the first failing jump where each row is one jump of a fixed
    instance, as ``blockwalk encode`` reports its solver check."""

    name: str
    passed: bool
    gap: float
    tol: float
    seed: int | None
    instance: int | None = None

    def to_json_obj(self) -> dict:
        # every field is a leaf, so a copy of the fields is what asdict
        # gives, without its deep copy of each one
        return dict(vars(self))


def _checks(specs, rows, seed: int | None) -> list[Check]:
    """One Check per (name, tol) in specs from per-draw rows of gaps in the
    same order; a NaN gap fails.  A fixed instance is one row with seed
    None, as ``blockwalk curve`` reports its config, or one row per jump,
    as ``blockwalk encode`` reports its solver check."""
    out = []
    for (name, tol), gaps in zip(specs, list(zip(*rows)) or [()] * len(specs)):
        failed = [k for k, gap in enumerate(gaps) if not gap <= tol]
        worst = math.nan if any(gap != gap for gap in gaps) else max([0.0, *gaps])
        out.append(Check(name, not failed, worst, tol, seed, failed[0] if failed else None))
    return out


def _worst(gaps) -> float:
    return max(gaps, default=0.0)


def _holds(ok: bool) -> float:
    return 0.0 if ok else math.inf


def _random_instance(rng):
    model = random_block_model(rng, max_types=3, max_vertices=6)
    rho = random_probe_direction(rng, model)
    return model, rho, build_field(model, sample_clocks(model, rng))


# -- criterion 2: the field encoding ---------------------------------------------


def jump_gaps(process: HittingProcess, jumps) -> list[float]:
    """Per jump of the hitting process, the largest coordinate gap to the
    matching entry of ``jumps``.  ``blockwalk encode`` reports these gaps
    for the solver's jumps as its SOLVER_SPEC check."""
    return [max(abs(a - b) for a, b in zip(delta, other)) for delta, other in zip(process.deltas, jumps)]


#: the claim that the fixed-point solver finds the sweep's jumps
SOLVER_SPEC = ("solver jumps match the sweep", EXACT)


#: the claims of excursion_gaps, in the order of its gaps
EXCURSION_SPECS = (
    ("one excursion per jump", 0.0),
    ("curve increments match the jumps", EXACT),
    ("excursion lengths equal the jump one-norms", EXACT),
)


def excursion_gaps(process: HittingProcess, encoded) -> tuple[float, float, float]:
    """The gaps of the EXCURSION_SPECS claims on one instance: the encoded
    components are one per jump of the hitting process, and each one's
    curve increment is its jump and its length the jump's one-norm."""
    return (
        _holds(len(encoded) == len(process.deltas)),
        _worst(jump_gaps(process, [e.increment for e in encoded])),
        _worst(abs(e.length - sum(d)) for e, d in zip(encoded, process.deltas)),
    )


def encoding_checks(n: int, seed: int) -> list[Check]:
    """On n random instances of at most three types and six vertices, the
    sweep's jumps are R times its components' weights, the solver finds the
    same jumps, and the curve has one excursion per jump, whose increment is
    the jump and whose length is the jump's one-norm."""
    rng = np.random.default_rng(seed)
    rows = []
    for _ in range(n):
        model, rho, fld = _random_instance(rng)
        process = hitting_process(fld, rho)
        swept = [encoded_jump(model.R, c.weight_by_type) for c in field_exploration(fld, rho).components]
        solved = solver_jumps(fld, rho, process.levels)
        encoded = encode_components(fld, build_curve(fld, rho))
        rows.append((
            _worst(jump_gaps(process, swept)) if len(swept) == len(process.deltas) else math.inf,
            _worst(jump_gaps(process, solved)),
            *excursion_gaps(process, encoded),
        ))
    specs = [
        ("sweep jumps equal R times the component weights", 0.0),
        SOLVER_SPEC,
        *EXCURSION_SPECS,
    ]
    return _checks(specs, rows, seed)


# -- criterion 3: the path algebra ---------------------------------------------------


def path_algebra_checks(n: int, seed: int) -> list[Check]:
    """On n pairs of random invertible monotone paths g1, g2 with inverses
    i1, i2 and kappa the inverse of i1 + i2: double inversion is exact, a
    path smoothly composed with its inverse is the identity, the smooth
    composition is additive, and gamma = i1 smoothly composed with kappa is
    continuous, nondecreasing and between the left and right values of i1
    at kappa.  On the staircase counterexample only the ordinary
    composition with the inverse overshoots."""
    rng = np.random.default_rng(seed)
    rows = []
    for _ in range(n):
        g1 = random_monotone_path(rng)
        g2 = random_monotone_path(rng)
        inv1, inv2 = generalized_inverse(g1), generalized_inverse(g2)
        total = add(inv1, inv2)
        kappa = generalized_inverse(total)
        gamma = smooth_compose(inv1, kappa)
        sandwich = 0.0
        ts = probe_times(gamma, kappa)
        # kappa's values at sorted times may fall by rounding where a piece
        # meets the next, so inv1 is read at them one by one
        for ks, value in zip(kappa.eval_many(ts), gamma.eval_many(ts)):
            sandwich = max(sandwich, inv1.eval_left(ks) - value, value - inv1.eval(ks))
        rows.append((
            _holds(generalized_inverse(inv1) == g1),
            max(sup_distance(smooth_compose(g1, inv1), identity()), sup_distance(smooth_compose(inv1, g1), identity())),
            sup_distance(add(gamma, smooth_compose(inv2, kappa)), smooth_compose(total, kappa)),
            _worst(abs(left - right) for left, right in zip(gamma.lefts, gamma.rights)),
            _holds(gamma.nondecreasing),
            sandwich,
        ))
    specs = [
        ("double inverse returns the same representation", 0.0),
        ("smooth composition with inverse is the identity", PROP),
        ("smooth composition is additive", PROP),
        ("smooth composition is continuous", 0.0),
        ("smooth composition is nondecreasing", 0.0),
        ("smooth composition lies between the inverse's left and right values", PROP),
    ]
    ge = staircase_counterexample()
    gei = generalized_inverse(ge)
    ordinary = ge.eval(gei.eval(1.0))
    smooth = smooth_compose(ge, gei).eval(1.0)
    return _checks(specs, rows, seed) + [
        Check("staircase: ordinary composition overshoots (= 2)", ordinary == 2.0, abs(ordinary - 2.0), 0.0, None),
        Check("staircase: smooth composition restores (= 1)", smooth == 1.0, abs(smooth - 1.0), 0.0, None),
    ]


# -- criterion 4: the curve -----------------------------------------------------------


#: the claim of curve_identity_gap
CURVE_IDENTITY_SPEC = ("curve passes through hitting times", PROP)


def curve_identity_gap(bundle: CurveBundle, process: HittingProcess) -> float:
    """Largest coordinate gap between T(y) and the curve at sum(T(y)), for
    y at 0, at and 1e-6 around each jump level, and 1 past the last one."""
    ys = {0.0}
    for level in process.levels:
        ys.update((level, level + 1e-6, max(level - 1e-6, 0.0)))
    ys.add(max(process.levels, default=0.0) + 1.0)
    rows = process._rows(sorted(ys))
    # each coordinate of T is nondecreasing in y, so the totals are sorted
    totals = [sum(t) for t in rows]
    worst = 0.0
    for point, t in zip(zip(*(g.eval_many(totals) for g in bundle.curve)), rows):
        worst = max(worst, max(abs(a - b) for a, b in zip(point, t)))
    return worst


def curve_checks(n: int, seed: int) -> list[Check]:
    """On n random instances, at the curve's breakpoints and on a 1001-point
    grid, the coordinates sum to the parameter, are nondecreasing and
    one-Lipschitz, and each level map sandwiches the combined level.  The
    curve passes through the hitting times, and every composed process
    first reaches each level -rho_i*y at the total time sum(T(y))."""
    rng = np.random.default_rng(seed)
    rows = []
    for _ in range(n):
        _, rho, fld = _random_instance(rng)
        bundle = build_curve(fld, rho)
        process = hitting_process(fld, rho)
        base = probe_times(*bundle.curve)
        grid = sorted(set(base) | {base[-1] * j / 1000 for j in range(1001)})
        norm = drop = rise = sandwich = hits = 0.0
        prev, prev_s = [0.0] * fld.m, 0.0
        points = zip(*(c.eval_many(grid) for c in bundle.curve))
        for s, point, level in zip(grid, points, bundle.combined_level.eval_many(grid)):
            norm = max(norm, abs(sum(point) - s))
            for i in range(fld.m):
                move = point[i] - prev[i]
                drop = max(drop, -move)
                rise = max(rise, move - (s - prev_s))
            prev, prev_s = point, s
            # the curve may fall by rounding, so each level map is read
            # at the curve point by point
            for g, at in zip(bundle.levels, point):
                sandwich = max(sandwich, g.eval_left(at) - level, level - g.eval(at))
        probes = [y for level in process.levels for y in (level / 2, level + 0.05)]
        ys = sorted(set(probes))
        total_of = dict(zip(ys, map(sum, process._rows(ys))))
        for y in probes:
            hits = max(hits, max(abs(t - total_of[y]) for t in level_hit_times(fld, bundle, y)))
        rows.append((norm, drop, rise, sandwich, curve_identity_gap(bundle, process), hits))
    specs = [
        ("curve coordinates sum to the parameter", PROP),
        ("curve coordinates are nondecreasing", EXACT),
        ("curve coordinates are one-Lipschitz", PROP),
        ("level maps sandwich the combined level along the curve", PROP),
        CURVE_IDENTITY_SPEC,
        ("composed processes hit each level at the total hitting time", PROP),
    ]
    return _checks(specs, rows, seed)


# -- criterion 5: the laws ---------------------------------------------------------------


#: the two small fixtures of the law checks, probed along FIXTURE_RHO
FIXTURES = (
    BlockModel(((1.0,), (1.0,)), ((1.0, 0.5), (0.5, 1.0))),
    BlockModel(((1.0, 0.7), (0.5, 0.4)), ((0.9, 0.6), (0.6, 1.2))),
)
FIXTURE_RHO = (1.0, 1.0)


@dataclass(frozen=True)
class LawComparison:
    """The law checks on one fixture, and the experiment they read as JSON."""

    checks: tuple[Check, ...]
    experiment: dict


def law_checks(fixture: int, n_reps: int, seed: int) -> LawComparison:
    """On FIXTURES[fixture] at seed + fixture: the component laws of graph
    and field against the exact oracle and against each other, the first
    jump of either against the exact first-jump law, the two jump sequences
    against each other, and the first root gap against its exponential
    law.  A test against an exact law also fails on mass outside its
    support."""
    from . import stats  # scipy.stats is slow to import and only these checks need it

    model, rho, seed = FIXTURES[fixture], FIXTURE_RHO, seed + fixture
    expected = stats.exact_partition_distribution(model).signature_distribution()
    graph_counts = stats.mc_component_distribution(model, rho, n_reps, seed, "graph")
    field_counts = stats.mc_component_distribution(model, rho, n_reps, seed + 1, "field")
    field_samples = stats.mc_field_samples(model, rho, n_reps, seed)
    field_seqs = [s.jump_sequence for s in field_samples]
    graph_seqs = stats.mc_graph_jump_sequences(model, rho, n_reps, seed + 1)

    exact_first = stats.exact_first_jump_distribution(model, rho)
    none_prob = 1.0 - sum(exact_first.values())
    if none_prob > 1e-12:
        exact_first["none"] = none_prob

    def first_jumps(seqs) -> Counter:
        return Counter(seq[0] if seq else "none" for seq in seqs)

    total_rate = sum(_vertex_rates(model, rho))
    gaps = [s.first_gap for s in field_samples if s.first_gap is not None]
    # (JSON key, check name, result, whether mass outside the exact support fails it)
    table = (
        ("graph_vs_exact", "graph components vs exact oracle", stats.chi_square(graph_counts, expected), True),
        ("field_vs_exact", "field exploration vs exact oracle", stats.chi_square(field_counts, expected), True),
        ("graph_vs_field", "graph components vs field exploration",
         stats.chi_square_two_sample(graph_counts, field_counts), False),
        ("field_first_vs_exact", "first field jump vs exact first-jump law",
         stats.chi_square(first_jumps(field_seqs), exact_first), True),
        ("graph_first_vs_exact", "first size-biased graph jump vs exact first-jump law",
         stats.chi_square(first_jumps(graph_seqs), exact_first), True),
        ("sequence_two_sample", "field vs graph jump sequences",
         stats.chi_square_two_sample(Counter(field_seqs), Counter(graph_seqs)), False),
        ("first_gap_ks", "first root gap vs its exponential law",
         stats.ks_one_sample(gaps, stats.exponential_cdf(total_rate)), False),
    )
    checks = tuple(
        Check(
            f"fixture {fixture}: {name}",
            not result.reject(ALPHA) and not (support and result.unknown_mass),
            result.p_value,
            ALPHA,
            seed,
        )
        for _, name, result, support in table
    )
    experiment = {
        "config": dict(model=model.to_json_obj(), rho=list(rho), n_reps=n_reps, seed=seed, alpha=ALPHA),
        "counts": {repr(k): v for k, v in sorted(graph_counts.items(), key=repr)},
        "expected": {repr(k): p for k, p in sorted(expected.items(), key=repr)},
        "tests": {key: result.to_json_obj() for key, _, result, _ in table},
        "pass": all(c.passed for c in checks),
    }
    return LawComparison(checks, experiment)


def calibration_check(n_seeds: int) -> Check:
    """The graph sampler against the exact oracle on FIXTURES[0] at 2000
    replications, on seeds 0 to n_seeds - 1: a sound test rejects at about
    the rate ALPHA, so at most max(2, 3 * ALPHA * n_seeds) rejections pass."""
    from . import stats

    model = FIXTURES[0]
    expected = stats.exact_partition_distribution(model).signature_distribution()
    rejections = sum(
        stats.chi_square(stats.mc_component_distribution(model, FIXTURE_RHO, 2000, s, "graph"), expected).reject(ALPHA)
        for s in range(n_seeds)
    )
    allowed = max(2, int(3 * ALPHA * n_seeds))
    return Check(f"calibration over {n_seeds} seeds", rejections <= allowed, rejections, allowed, 0)
