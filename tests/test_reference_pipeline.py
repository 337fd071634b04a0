"""The curve stages against a reference that does every piece of work afresh.

A ``CurveBundle`` builds its composed processes and encoded components once,
and every path keeps the generalized inverse it builds on first read, so
each curve coordinate is inverted once for every row.  The reference below
is the pipeline without any of that sharing: ``compose`` per entry, each
call inverting a fresh copy of its inner path; ``check_compatible`` followed
by a second inversion in ``smooth_compose``; a fresh ``composed_processes``
and ``excursions`` inside ``verify_encoding``; sums with one bisected
evaluation per point instead of one merge over both operands' breakpoints;
free inner breakpoints found by one bisection each instead of a cursor;
and canonicalization by a closure-based ``_build`` that sorts its anchors
and merges them in a pass of its own.  The arithmetic is the same, so the
results must be equal bit for bit, not close.

The generalized inverse, the excursions and the class check read the
breakpoints directly.  Their references below are the forms they replaced:
the inverse built by inverting each move of a tagged move list, excursions
found by one cursor over the move list of the path above its running
infimum, and the class record's rule for a nondecreasing path.
"""

import math
from bisect import bisect_left
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from blockwalk.curve import (
    EXCURSION_LEVEL_TOL,
    CurveInvariantError,
    EncodedComponent,
    build_curve,
    composed_processes,
    encode_components,
    verify_encoding,
)
from blockwalk.field import build_field, hitting_process, sample_clocks
from blockwalk.instances import random_block_model, random_monotone_path, random_probe_direction
from blockwalk.instances import staircase_counterexample
from blockwalk.paths import (
    MERGE_EPS,
    IncompatiblePairError,
    PathClassError,
    PathDomainError,
    PiecewisePath,
    _build,
    _free_breakpoints,
    add,
    check_compatible,
    drift,
    excursions,
    generalized_inverse,
    past_infimum,
    polyline,
    pure_jumps,
    require_invertible,
    require_no_negative_jumps,
    scale,
    smooth_compose,
)
from test_paths import _bits, _continuous_part, _moves, _near_critical_instance, _plateaus
from test_paths import _random_continuous_increasing, _random_walk_path, _same_bits
from test_paths import _per_point_add as _reference_add


def _reference_build(initial, anchors, terminal_rise, terminal_run=1.0):
    anchors = sorted(anchors, key=lambda a: a[0])
    merged = []
    for t, left, right in anchors:
        if merged and t - merged[-1][0] <= MERGE_EPS:
            merged[-1][2] = right
        else:
            merged.append([t, left, right])
    kept = []

    def prev_point():
        if len(kept) >= 2:
            return kept[-2][0], kept[-2][2]
        return 0.0, initial

    def top_redundant(nt, nl):
        t, left, right = kept[-1]
        if left != right:
            return False
        pt, pv = prev_point()
        return (left - pv) * (nt - pt) == (nl - pv) * (t - pt)

    for anchor in merged:
        while kept and top_redundant(anchor[0], anchor[1]):
            kept.pop()
        kept.append(anchor)
    while kept:
        t, left, right = kept[-1]
        if left != right:
            break
        pt, pv = prev_point()
        if (left - pv) * terminal_run == terminal_rise * (t - pt):
            kept.pop()
        else:
            break
    times, lefts, rights = ([a[k] for a in kept] for k in range(3))
    return PiecewisePath(initial, times, lefts, rights, terminal_rise, terminal_run)


def _reference_polyline(nodes, terminal_rise, terminal_run):
    dedup = []
    for t, v in nodes:
        if dedup and t == dedup[-1][0]:
            continue
        dedup.append((t, v))
    return _reference_build(dedup[0][1], [(t, v, v) for t, v in dedup[1:]], terminal_rise, terminal_run)


def _near_taken(taken, s):
    """Whether an entry of the sorted list ``taken`` lies within MERGE_EPS
    of ``s``.  Float subtraction is monotone, so ``abs(s - t)`` only grows
    away from ``s`` on either side and the two neighbours of its insertion
    point decide."""
    k = bisect_left(taken, s)
    return (k > 0 and abs(s - taken[k - 1]) <= MERGE_EPS) or (
        k < len(taken) and abs(s - taken[k]) <= MERGE_EPS
    )


def _fresh_inverse(path):
    """The inverse of an equal path that has not built one yet."""
    return generalized_inverse(replace(path))


def _reference_compose(outer, inner):
    require_invertible(inner, "compose")
    if inner.jumps():
        raise PathClassError("compose: inner path must be continuous")
    iinv = _fresh_inverse(inner)
    anchors = []
    for b in outer.breakpoints:
        s_lo, s_hi = iinv.eval_left(b.t), iinv.eval(b.t)
        if s_hi > s_lo:
            anchors.append((s_lo, b.left, b.right))
            anchors.append((s_hi, b.right, b.right))
        else:
            anchors.append((s_lo, b.left, b.right))
    taken = sorted(s for s, _, _ in anchors)
    for s in inner.times:
        if _near_taken(taken, s):
            continue
        v = outer.eval(inner.eval(s))
        anchors.append((s, v, v))
    return _reference_build(
        outer.eval(inner.eval(0.0)),
        anchors,
        outer.terminal_rise * inner.terminal_rise,
        outer.terminal_run * inner.terminal_run,
    )


def _reference_smooth_compose(g, kappa):
    report = check_compatible(g, kappa)
    if not report.ok:
        raise IncompatiblePairError(report)
    kinv = _fresh_inverse(kappa)
    nodes = []
    for b in g.breakpoints:
        s_lo, s_hi = kinv.eval_left(b.t), kinv.eval(b.t)
        nodes.append((s_lo, b.left))
        if s_hi > s_lo:
            nodes.append((s_hi, b.right))
        elif b.right != b.left:
            raise IncompatiblePairError(report)
    taken = sorted(s for s, _ in nodes)
    for b in kappa.breakpoints:
        if _near_taken(taken, b.t):
            continue
        nodes.append((b.t, g.eval(b.right)))
    nodes.sort(key=lambda nv: nv[0])
    nodes.insert(0, (0.0, g.eval(kappa.eval(0.0))))
    return _reference_polyline(nodes, g.terminal_rise * kappa.terminal_rise, g.terminal_run * kappa.terminal_run)


def _reference_composed_processes(fld, bundle):
    out = []
    for i in range(fld.m):
        total = _reference_compose(fld.paths[i][0], bundle.curve[0])
        for j in range(1, fld.m):
            total = _reference_add(total, _reference_compose(fld.paths[i][j], bundle.curve[j]))
        out.append(total)
    return tuple(out)


def _reference_encode_components(fld, bundle):
    processes = _reference_composed_processes(fld, bundle)
    base = excursions(processes[0], level_tol=EXCURSION_LEVEL_TOL)
    for i in range(1, fld.m):
        other = excursions(processes[i], level_tol=EXCURSION_LEVEL_TOL)
        if len(other) != len(base) or any(
            abs(a[0] - b[0]) > 1e-9 or abs(a[1] - b[1]) > 1e-9 for a, b in zip(base, other)
        ):
            raise CurveInvariantError(f"excursion intervals of rows 0 and {i} disagree: {base} vs {other}")
    return [
        EncodedComponent(l, r, length, tuple(g.eval(r) - g.eval(l) for g in bundle.curve)) for l, r, length in base
    ]


def _reference_verify_encoding(fld, bundle):
    process = hitting_process(fld, bundle.rho)
    encoded = _reference_encode_components(fld, bundle)
    pairs = list(zip(encoded, process.deltas))
    gaps = (
        0.0 if len(encoded) == len(process.deltas) else math.inf,
        max([0.0] + [max(abs(a - b) for a, b in zip(enc.increment, delta)) for enc, delta in pairs]),
        max([0.0] + [abs(enc.length - sum(delta)) for enc, delta in pairs]),
    )
    names = ("one excursion per jump", "curve increments match the jumps", "excursion lengths equal the jump one-norms")
    checks = [
        {"name": name, "passed": gap <= tol, "gap": gap, "tol": tol, "seed": None, "instance": None if gap <= tol else 0}
        for name, gap, tol in zip(names, gaps, (0.0, 1e-12, 1e-12))
    ]
    return {"pass": all(c["passed"] for c in checks), "checks": checks}


def _all_same_bits(ps, qs):
    return len(ps) == len(qs) and all(map(_same_bits, ps, qs))


def _assert_stages_match(fld, bundle):
    reference_curve = tuple(_reference_smooth_compose(g.inverse, bundle.combined_level) for g in bundle.levels)
    assert _all_same_bits(bundle.curve, reference_curve)
    assert _all_same_bits(tuple(smooth_compose(g.inverse, bundle.combined_level) for g in bundle.levels), reference_curve)
    assert _all_same_bits(composed_processes(fld, bundle), _reference_composed_processes(fld, bundle))
    encoded = encode_components(fld, bundle)
    assert encoded == _reference_encode_components(fld, bundle)
    assert verify_encoding(fld, bundle) == _reference_verify_encoding(fld, bundle)
    # the second read comes from the bundle and is still the same
    assert encode_components(fld, bundle) == encoded


def test_random_block_models_match_reference():
    rng = np.random.default_rng(8)
    for _ in range(300):
        model = random_block_model(rng, max_types=3, max_vertices=6)
        rho = random_probe_direction(rng, model)
        fld = build_field(model, sample_clocks(model, rng))
        _assert_stages_match(fld, build_curve(fld, rho))


@pytest.mark.parametrize("seed", [3, 4])
def test_near_critical_curves_match_reference(seed):
    _assert_stages_match(*_near_critical_instance(80, seed))


def test_incompatible_pairs_give_the_reference_report(rng):
    pairs = [(staircase_counterexample(), staircase_counterexample())]
    for _ in range(100):
        g = random_monotone_path(rng)
        pairs += [(g, random_monotone_path(rng)), (g, _continuous_part(random_monotone_path(rng)))]
    compared = 0
    for g, kappa in pairs:
        if check_compatible(g, kappa).ok:
            assert _same_bits(smooth_compose(g, kappa), _reference_smooth_compose(g, kappa))
            continue
        with pytest.raises(IncompatiblePairError) as ours:
            smooth_compose(g, kappa)
        with pytest.raises(IncompatiblePairError) as reference:
            _reference_smooth_compose(g, kappa)
        assert ours.value.report == reference.value.report
        assert str(ours.value) == str(reference.value)
        compared += 1
    assert compared >= 50


def _pullback_times(outer, inner):
    """The sorted times that compose pulls back from outer's breakpoints."""
    iinv = _fresh_inverse(inner)
    taken = []
    for t in outer.times:
        s_lo, s_hi = iinv.eval_left(t), iinv.eval(t)
        taken.append(s_lo)
        if s_hi > s_lo:
            taken.append(s_hi)
    return sorted(taken)


def _bisected_free(path, taken):
    return [(b.t, b.right) for b in path.breakpoints if not _near_taken(taken, b.t)]


def _last_within(t, away):
    """The farthest float from t towards ``away`` that lies within
    MERGE_EPS of t, and the next float past it, both stopped at 0."""
    s = max(t + math.copysign(MERGE_EPS, away), 0.0)
    while abs(s - t) > MERGE_EPS:
        s = math.nextafter(s, t)
    while s > 0.0 and abs(math.nextafter(s, away) - t) <= MERGE_EPS:
        s = math.nextafter(s, away)
    return s, max(math.nextafter(s, away), 0.0)


def test_free_breakpoints_cursor_matches_bisection(rng):
    """The one cursor of compose and smooth_compose keeps the inner
    breakpoints that one bisection each keeps: on the inputs of
    test_compose_matches_scan, aligned outer paths among them, and on
    sorted times around MERGE_EPS from each breakpoint.  Near 0 those
    distances can be exactly MERGE_EPS."""
    M = MERGE_EPS
    tiny = polyline([(0.0, 0.0), (M, M), (3 * M, 2 * M)], 1.0)
    kept = dropped = 0
    for _ in range(200):
        g = random_monotone_path(rng)
        inner = _continuous_part(g) if rng.random() < 0.5 else _random_continuous_increasing(rng)
        values = [inner.eval(t) for t in inner.times]
        aligned = _build(
            0.0, [(v, float(k), k + float(rng.uniform(0.0, 1.0))) for k, v in enumerate(values) if v > 0], 1.0
        )
        outers = (random_monotone_path(rng), _random_walk_path(rng), aligned)
        cases = [(inner, _pullback_times(outer, inner)) for outer in outers]
        for path in (inner, tiny):
            near = set()
            for t in path.times:
                near.update(max(t + d, 0.0) for d in (-2 * M, -0.5 * M, 0.0, 0.5 * M, 2 * M))
                near.update(_last_within(t, -math.inf) + _last_within(t, math.inf))
            cases.append((path, sorted(s for s in near if rng.random() < 0.3)))
        for path, taken in cases:
            free = _bisected_free(path, taken)
            assert list(zip(*_free_breakpoints(path, taken))) == free
            kept += len(free)
            dropped += len(path.breakpoints) - len(free)
    assert kept and dropped


def _ordered_anchors(rng):
    """(initial, anchors, terminal_rise, terminal_run) with the anchors in
    nondecreasing time order: tied times, clusters within MERGE_EPS,
    anchors that carry no jump, and collinear runs on a grid of quarters
    where the products of the redundancy test are exact."""
    grid = rng.random() < 0.5
    t = 0.25 * int(rng.integers(1, 4)) if grid else float(rng.uniform(0.1, 1.0))
    slope = float(rng.choice([-1.0, 0.0, 0.5, 2.0]))
    initial = v = float(rng.choice([-1.0, 0.0, 0.5]))
    v += slope * t
    anchors = []
    for _ in range(int(rng.integers(0, 10))):
        left = v if grid or rng.random() < 0.5 else float(rng.uniform(-2.0, 2.0))
        right = left + float(rng.choice([0.0, 0.0, 0.0, 1.0, -0.5])) if grid else float(rng.choice([left, rng.uniform(-2.0, 2.0)]))
        anchors.append((t, left, right))
        gap = int(rng.integers(0, 5))
        dt = (0.0, float(rng.uniform(0.0, MERGE_EPS)), MERGE_EPS)[gap] if gap < 3 else 0.25 * int(rng.integers(1, 4))
        if rng.random() < 0.2:
            slope = float(rng.choice([-1.0, 0.0, 0.5, 2.0]))
        t, v = t + dt, right + slope * dt
    rise, run = (slope, 1.0) if rng.random() < 0.5 else (float(rng.uniform(-2.0, 2.0)), float(rng.choice([0.5, 1.0, 3.0])))
    return initial, anchors, rise, run


@settings(max_examples=300, deadline=None, derandomize=True)
@given(st.integers(min_value=0, max_value=2**32 - 1))
def test_one_pass_build_matches_the_two_pass_reference(seed):
    rng = np.random.default_rng(seed)
    initial, anchors, rise, run = _ordered_anchors(rng)
    negated = [(t, -left, -right) for t, left, right in anchors]
    for case in ((initial, anchors, rise, run), (-initial, negated, -rise, run)):
        assert _same_bits(_build(*case), _reference_build(*case))


def test_build_refuses_anchors_out_of_order(rng):
    # the second anchor carries no jump and lies on the line from the
    # origin through the first, so a pass that did not check the order
    # would drop the first and keep the second: a silent reordering
    with pytest.raises(PathDomainError, match="anchor times must be nondecreasing: 0.5 after 1.0"):
        _build(0.0, [(1.0, 1.0, 1.0), (0.5, 0.5, 0.5)], 1.0)
    # within MERGE_EPS before the head an anchor merges into its group
    early = math.nextafter(1.0 - MERGE_EPS, math.inf)
    assert _build(0.0, [(1.0, 1.0, 1.0), (early, 1.0, 2.0)], 1.0).breakpoints == ((1.0, 1.0, 2.0),)
    swapped = 0
    for _ in range(200):
        initial, anchors, rise, run = _ordered_anchors(rng)
        for k in range(1, len(anchors)):
            if anchors[k][0] - anchors[k - 1][0] > MERGE_EPS:
                shuffled = anchors[: k - 1] + [anchors[k], anchors[k - 1]] + anchors[k + 1:]
                with pytest.raises(PathDomainError, match="anchor times must be nondecreasing"):
                    _build(initial, shuffled, rise, run)
                swapped += 1
                break
    assert swapped > 100


# -- the move-list forms the path algebra used before it read breakpoints ------


def _reference_classify(path):
    """(nondecreasing, invertible) by the rule of the old class record."""
    nondec = (
        path.terminal_rise >= 0
        and all(b.right >= b.left for b in path.breakpoints)
        and all(v1 >= v0 for _, v0, _, v1 in path.finite_segments())
    )
    invertible = (
        nondec
        and path.initial == 0.0
        and path.terminal_rise > 0
        and (not path.breakpoints or path.breakpoints[0].left > 0.0)
    )
    return nondec, invertible


def _reference_require_invertible(path, op):
    if not _reference_classify(path)[0]:
        raise PathClassError(f"{op}: path is not nondecreasing")
    if path.initial != 0.0:
        raise PathClassError(f"{op}: path does not start at 0 (value {path.initial})")
    if path.breakpoints and path.breakpoints[0].left <= 0.0:
        raise PathClassError(f"{op}: path is not strictly positive immediately after 0")
    if path.terminal_rise <= 0:
        raise PathClassError(f"{op}: path is bounded (flat terminal direction)")


def _from_moves(moves):
    initial = moves[0][2]
    anchors = []

    def ensure_anchor(x, y):
        if x > 0.0 and not (anchors and anchors[-1][0] == x):
            anchors.append((x, y, y))

    for mv in moves:
        if mv[0] == "jump":
            _, x, ya, yb = mv
            if anchors and anchors[-1][0] == x:
                t, left, _ = anchors[-1]
                anchors[-1] = (t, left, yb)
            elif x == 0.0:
                initial = yb
            else:
                anchors.append((x, ya, yb))
        elif mv[0] == "seg":
            _, x0, y0, _, _ = mv
            ensure_anchor(x0, y0)
        else:
            _, x0, y0, rise, run = mv
            ensure_anchor(x0, y0)
            return _build(initial, anchors, rise, run)
    raise AssertionError("move list did not end with a ray")


def _reference_inverse(h):
    """The inverse by inverting each move of h's move list."""
    _reference_require_invertible(h, "generalized_inverse")
    inverted = []
    for mv in _moves(h):
        if mv[0] == "seg":
            _, x0, y0, x1, y1 = mv
            if y1 == y0:
                inverted.append(("jump", y0, x0, x1))
            else:
                inverted.append(("seg", y0, x0, y1, x1))
        elif mv[0] == "jump":
            _, x, y0, y1 = mv
            inverted.append(("seg", y0, x, y1, x))
        else:
            _, x, y, rise, run = mv
            inverted.append(("ray", y, x, run, rise))
    return _from_moves(inverted)


def _ends_before(mv, a):
    if mv[0] == "seg":
        return mv[3] <= a
    if mv[0] == "jump":
        return mv[1] < a
    return False


def _first_rise(d, moves, k, a, b):
    hi = math.inf if b is None else b
    for i in range(k, len(moves)):
        mv = moves[i]
        if mv[1] >= hi:
            return None
        if mv[0] == "seg":
            _, x0, y0, x1, y1 = mv
            lo = max(x0, a)
            if d.eval(lo) > 0:
                return lo
            if y1 > 0 and y0 <= 0 and x0 >= a:
                return x0
        elif mv[0] == "jump":
            _, x, y0, y1 = mv
            if y1 > 0 and y0 <= 0:
                return x
        else:
            _, x0, y0, rise, run = mv
            lo = max(x0, a)
            if d.eval(lo) > 0 or rise > 0:
                return lo
    return None


def _reference_excursions(path, level_tol=0.0):
    """excursions with one cursor over the move list of the path above its
    running infimum."""
    require_no_negative_jumps(path, "excursions")
    m = past_infimum(path)
    d = add(path, scale(m, -1.0))
    moves = _moves(d)
    k = 0
    out = []
    for a, b in _plateaus(m, level_tol):
        while _ends_before(moves[k], a):
            k += 1
        l = _first_rise(d, moves, k, a, b)
        if l is None:
            continue
        if b is None:
            raise PathClassError(f"excursions: path rises off its infimum at t={l} and never returns")
        out.append((l, b, b - l))
    return out


def _walk_with_flats(rng):
    """A path without negative jumps whose pieces fall, stay flat or rise;
    its terminal direction falls, stays flat or rises."""
    anchors = []
    t = v = 0.0
    slope = float(rng.choice([-1.0, 0.0]))
    for _ in range(int(rng.integers(0, 7))):
        dt = float(rng.uniform(0.1, 1.5))
        t += dt
        v += slope * dt
        jump = float(rng.uniform(0.0, 1.2)) if rng.random() < 0.5 else 0.0
        anchors.append((t, v, v + jump))
        v += jump
        slope = float(rng.choice([-1.0, -0.5, 0.0, 0.0, 0.5]))
    return _build(0.0, anchors, float(rng.choice([-1.5, -0.5, -0.5, 0.0, 0.5])))


def _split_flat_pieces(h):
    """h with a breakpoint carrying no jump inside each flat piece: the same
    function outside canonical form."""
    times, lefts, rights = [], [], []
    t0, v0 = 0.0, h.initial
    for t, left, right in h.breakpoints:
        if left == v0:
            times.append((t0 + t) / 2)
            lefts.append(v0)
            rights.append(v0)
        times.append(t)
        lefts.append(left)
        rights.append(right)
        t0, v0 = t, right
    return PiecewisePath(h.initial, times, lefts, rights, h.terminal_rise, h.terminal_run)


def _outcome(fn, *args):
    """fn's path or excursions in float.hex form, None, or the text of its
    PathClassError."""
    try:
        out = fn(*args)
    except PathClassError as err:
        return str(err)
    if isinstance(out, PiecewisePath):
        return _bits(out)
    return out if out is None else [tuple(map(float.hex, e)) for e in out]


@settings(max_examples=300, deadline=None, derandomize=True)
@given(st.integers(min_value=0, max_value=2**32 - 1))
def test_breakpoint_walks_match_move_lists(seed):
    rng = np.random.default_rng(seed)
    g1, g2 = random_monotone_path(rng), random_monotone_path(rng)
    total = add(g1, g2)
    inv1, inv_total = _reference_inverse(g1), _reference_inverse(total)
    model = random_block_model(rng, max_types=3, max_vertices=6)
    rho = random_probe_direction(rng, model)
    fld = build_field(model, sample_clocks(model, rng))
    bundle = build_curve(fld, rho)
    monotone = [
        g1, g2, total, inv1, inv_total, add(inv1, _reference_inverse(g2)),
        _split_flat_pieces(inv1), _split_flat_pieces(inv_total), *bundle.levels, bundle.combined_level,
        pure_jumps([(1.0, 1.0)]), _build(0.0, [(1.0, 0.0, 1.0)], 1.0), replace(g1, initial=0.5),
    ]
    walks = [
        add(drift(-float(rng.uniform(0.1, 3.0))), g1),
        add(drift(-1.0), _continuous_part(g2)),
        add(drift(-float(rng.uniform(0.1, 3.0))), inv_total),
        _random_walk_path(rng),
        _walk_with_flats(rng),
        _walk_with_flats(rng),
        scale(g1, -1.0),
        *composed_processes(fld, bundle),
    ]
    for path in monotone + walks:
        nondecreasing, invertible = _reference_classify(path)
        assert path.nondecreasing == nondecreasing
        assert _outcome(lambda p: p.inverse, path) == _outcome(_reference_inverse, path)
        for op in ("compose", "check_compatible"):
            text = _outcome(require_invertible, path, op)
            assert text == _outcome(_reference_require_invertible, path, op)
            assert (text is None) == invertible
    for path in walks:
        for level_tol in (0.0, EXCURSION_LEVEL_TOL, 0.3):
            assert _outcome(excursions, path, level_tol) == _outcome(_reference_excursions, path, level_tol)
