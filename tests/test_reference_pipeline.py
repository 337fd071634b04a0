"""The curve stages against a reference that does every piece of work afresh.

A ``CurveBundle`` builds its composed processes and encoded components once,
and every path keeps the generalized inverse it builds on first read, so
each curve coordinate is inverted once for every row.  The reference below
is the pipeline without any of that sharing: ``compose`` per entry, each
call inverting a fresh copy of its inner path; ``check_compatible`` followed
by a second inversion in ``smooth_compose``; a fresh ``composed_processes``
and ``excursions`` inside ``verify_encoding``; sums with one bisected
evaluation per point instead of a walk over the sorted times; and
canonicalization by the closure-based ``_build``.  The arithmetic is the
same, so the results must be equal bit for bit, not close.
"""

from dataclasses import replace

import numpy as np
import pytest

from blockwalk.curve import (
    EXACT_TOL,
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
    Breakpoint,
    IncompatiblePairError,
    PathClassError,
    PiecewisePath,
    _near_taken,
    check_compatible,
    excursions,
    generalized_inverse,
    require_invertible,
    smooth_compose,
)
from test_paths import _continuous_part, _near_critical_instance, _same_bits
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
    return PiecewisePath(initial, tuple(Breakpoint(t, l, r) for t, l, r in kept), terminal_rise, terminal_run)


def _reference_polyline(nodes, terminal_rise, terminal_run):
    dedup = []
    for t, v in nodes:
        if dedup and t == dedup[-1][0]:
            continue
        dedup.append((t, v))
    return _reference_build(dedup[0][1], [(t, v, v) for t, v in dedup[1:]], terminal_rise, terminal_run)


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
    for s in inner._times:
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
    ok = len(encoded) == len(process.deltas)
    checks = [{"name": "excursion count equals jump count", "pass": ok}]
    for p, (enc, delta) in enumerate(zip(encoded, process.deltas)):
        gap = max(abs(a - b) for a, b in zip(enc.increment, delta))
        ok = ok and gap <= EXACT_TOL
        checks.append({"name": f"increment of excursion {p} matches jump", "pass": gap <= EXACT_TOL, "gap": gap})
        lgap = abs(enc.length - sum(delta))
        ok = ok and lgap <= EXACT_TOL
        checks.append(
            {"name": f"length of excursion {p} equals jump one-norm", "pass": lgap <= EXACT_TOL, "gap": lgap}
        )
    return {"pass": ok, "checks": checks}


def _all_same_bits(ps, qs):
    return len(ps) == len(qs) and all(map(_same_bits, ps, qs))


def _assert_stages_match(fld, bundle):
    reference_curve = tuple(_reference_smooth_compose(inv, bundle.combined_level) for inv in bundle.level_inverses)
    assert _all_same_bits(bundle.curve, reference_curve)
    assert _all_same_bits(tuple(smooth_compose(inv, bundle.combined_level) for inv in bundle.level_inverses), reference_curve)
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
