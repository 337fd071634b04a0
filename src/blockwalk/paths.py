"""Exact algebra on piecewise-linear cadlag paths over [0, inf).

A path is kept in canonical form: the value at zero, its breakpoints as
three equal-length tuples of floats (increasing times, left values and right
values), and the direction of the final unbounded segment.  The first
collection that scans a tuple of floats stops tracking it, which it never
does for a tuple subclass, so the columns leave the cyclic garbage
collector little to rescan; ``breakpoints`` builds (time, left, right)
tuples from them on each read.  Interior slopes are implied by the stored
endpoint values, so sums, generalized inverses, compositions, running
infima and excursion extraction all stay closed over the representation.
In particular double inversion returns an equal representation, not just a
numerically close one.  A path builds its generalized inverse straight from
its breakpoints on first read of ``inverse``, and works out whether it is
``nondecreasing`` on first read too; it keeps both.  A sum is one forward
merge over both operands' breakpoints: over the union of their times, a
time within MERGE_EPS of the current group's last time joins the group,
and each group becomes at most one breakpoint of the sum.
"""

from __future__ import annotations

import math
from bisect import bisect_left, bisect_right
from collections.abc import Iterable
from dataclasses import dataclass
from functools import cached_property, partial
from operator import itemgetter, le, lt, ne, neg
from typing import NamedTuple

#: breakpoints closer than this are merged during canonicalization
MERGE_EPS = 1e-12

#: slack used when comparing path values that were produced by arithmetic
VALUE_TOL = 1e-12


class PathDomainError(ValueError):
    """Evaluation or construction outside the path's domain."""


class PathClassError(ValueError):
    """Operation applied to a path outside the required monotonicity class."""


class IncompatiblePairError(ValueError):
    """Smooth composition attempted on a pair failing the matching conditions."""

    def __init__(self, report: "CompatibilityReport"):
        super().__init__(f"incompatible pair: {report.summary()}")
        self.report = report


class Breakpoint(NamedTuple):
    t: float
    left: float
    right: float


#: Breakpoint._make without its Python frame, for trusted 3-tuples
_new_breakpoint = partial(tuple.__new__, Breakpoint)


@dataclass(frozen=True, init=False)
class PiecewisePath:
    """Right-continuous piecewise-linear function on [0, inf).

    ``initial`` is the value at 0.  Breakpoint k is at ``times[k]``, with
    left limit ``lefts[k]`` and value ``rights[k]``; each column is stored
    as a tuple of floats.  Between consecutive breakpoints the path is the
    straight line through the stored endpoint values (the right value of
    the earlier one, the left limit of the later one); the same rule
    connects the origin to the first breakpoint.  After the last breakpoint
    the path follows the terminal direction ``(terminal_run,
    terminal_rise)``, kept as a pair so that inverting twice restores it
    exactly.
    """

    initial: float
    times: tuple[float, ...] = ()
    lefts: tuple[float, ...] = ()
    rights: tuple[float, ...] = ()
    terminal_rise: float = 0.0
    terminal_run: float = 1.0

    def __init__(self, initial, times=(), lefts=(), rights=(), terminal_rise=0.0, terminal_run=1.0) -> None:
        if not (math.isfinite(terminal_run) and terminal_run > 0):
            raise PathDomainError("terminal_run must be finite and positive")
        if not math.isfinite(terminal_rise) or not math.isfinite(initial):
            raise PathDomainError("path data must be finite")
        times, lefts, rights = tuple(map(float, times)), tuple(map(float, lefts)), tuple(map(float, rights))
        if not len(times) == len(lefts) == len(rights):
            raise PathDomainError(
                f"breakpoint columns must have equal lengths, not {len(times)}, {len(lefts)} and {len(rights)}"
            )
        # C-level passes accept the columns at once: a sum is finite only if
        # every term is.  The loop runs only when they fail, to find which
        # error comes first; finite terms whose sum overflows pass it.
        if not (math.isfinite(sum(times) + sum(lefts) + sum(rights)) and all(map(lt, (0.0, *times), times))):
            prev = 0.0
            for t, left, right in zip(times, lefts, rights):
                if not (math.isfinite(t) and math.isfinite(left) and math.isfinite(right)):
                    raise PathDomainError("breakpoint data must be finite")
                if t <= prev:
                    raise PathDomainError("breakpoint times must be strictly increasing and positive")
                prev = t
        self.__dict__.update(initial=initial, times=times, lefts=lefts, rights=rights,
                             terminal_rise=terminal_rise, terminal_run=terminal_run)

    @property
    def breakpoints(self) -> tuple[Breakpoint, ...]:
        """The breakpoints as (t, left, right) tuples, built on every read.
        Not kept: the collector never untracks such tuples."""
        return tuple(map(_new_breakpoint, zip(self.times, self.lefts, self.rights)))

    # -- evaluation ---------------------------------------------------------

    def _piece(self, k: int) -> tuple[float, float, float, float]:
        """The linear piece after the first ``k`` breakpoints as (t0, v0,
        rise, run): from (t0, v0) towards the next breakpoint's left value,
        or along the terminal direction after the last one.  Every
        evaluation reads the path at t on it as v0 + rise * ((t - t0) / run).
        """
        times = self.times
        if k:
            t0, v0 = times[k - 1], self.rights[k - 1]
        else:
            t0, v0 = 0.0, self.initial
        if k == len(times):
            return t0, v0, self.terminal_rise, self.terminal_run
        return t0, v0, self.lefts[k] - v0, times[k] - t0

    def eval(self, t: float) -> float:
        if t < 0:
            raise PathDomainError(f"path evaluated at negative time {t}")
        t0, v0, rise, run = self._piece(bisect_right(self.times, t))
        return v0 + rise * ((t - t0) / run)

    def eval_left(self, t: float) -> float:
        """Left limit at ``t``; at 0 this is defined as the value itself."""
        if t < 0:
            raise PathDomainError(f"path evaluated at negative time {t}")
        if t == 0:
            return self.eval(0.0)
        times = self.times
        k = bisect_left(times, t)
        if k < len(times) and times[k] == t:
            return self.lefts[k]
        t0, v0, rise, run = self._piece(k)
        return v0 + rise * ((t - t0) / run)

    __call__ = eval

    def eval_many(self, ts: Iterable[float]) -> list[float]:
        """``[self.eval(t) for t in ts]`` for nondecreasing ``ts``, in one
        forward walk over the breakpoints."""
        return self._walk(ts, False)

    def eval_left_many(self, ts: Iterable[float]) -> list[float]:
        """``[self.eval_left(t) for t in ts]`` for nondecreasing ``ts``, in
        one forward walk over the breakpoints."""
        return self._walk(ts, True)

    def _walk(self, ts: Iterable[float], left: bool) -> list[float]:
        """Values, or left limits if ``left``, at nondecreasing times.

        The cursor ``k`` counts the breakpoints before t, and for values
        also the one at t; a time at or past ``edge`` (the first time, then
        the next breakpoint) moves it and reads the piece after it.  The
        left limit at 0 is the value at +0.0, so when walking left limits
        zeros keep ``edge`` at 0.  A NaN time is out of order wherever it
        stands.
        """
        times = self.times
        n = len(times)
        k = 0
        edge = -math.inf
        prev = 0.0
        out: list[float] = []
        for t in ts:
            if not t >= prev:
                if not out and t < 0:
                    raise PathDomainError(f"path evaluated at negative time {t}")
                raise ValueError(f"times must be nondecreasing: {t} after {prev}")
            prev = t
            if t >= edge:
                if left:
                    while k < n and times[k] < t:
                        k += 1
                    if k < n and times[k] == t:
                        edge = t
                        out.append(self.lefts[k])
                        continue
                else:
                    while k < n and times[k] <= t:
                        k += 1
                t0, v0, rise, run = self._piece(k)
                if left and t == 0:
                    t = edge = 0.0
                else:
                    edge = times[k] if k < n else math.inf
            out.append(v0 + rise * ((t - t0) / run))
        return out

    # -- structure ----------------------------------------------------------

    @property
    def last_anchor(self) -> tuple[float, float]:
        """Start point (t, value) of the terminal ray."""
        if self.times:
            return self.times[-1], self.rights[-1]
        return 0.0, self.initial

    def jumps(self) -> list[Breakpoint]:
        return [_new_breakpoint(b) for b in zip(self.times, self.lefts, self.rights) if b[2] != b[1]]

    def finite_segments(self) -> list[tuple[float, float, float, float]]:
        """Linear pieces between breakpoints as (t0, v0, t1, v1) with v0 the
        value just after t0 and v1 the left limit at t1."""
        return list(zip((0.0, *self.times), (self.initial, *self.rights), self.times, self.lefts))

    @cached_property
    def nondecreasing(self) -> bool:
        """Whether no jump, piece or terminal direction of the path falls.
        Worked out on first read and kept, outside the compared fields."""
        return (
            self.terminal_rise >= 0
            and all(map(le, (self.initial, *self.rights), self.lefts))
            and all(map(le, self.lefts, self.rights))
        )

    # -- generalized inverse --------------------------------------------------

    @cached_property
    def inverse(self) -> PiecewisePath:
        """Right-continuous generalized inverse s -> inf{u > 0 : h(u) > s}.

        Defined on the class of nondecreasing paths that vanish at 0, are
        strictly positive right after 0 and grow without bound; other paths
        raise :class:`PathClassError` on every read.  Jumps become flat
        pieces of the inverse and vice versa; inverting the inverse builds
        a representation equal to this one.  Built on first read and kept,
        outside the compared fields.
        """
        require_invertible(self, "generalized_inverse")
        # each breakpoint (t, left, right) gives the inverse the value t at
        # the levels left and right, so a jump becomes a flat piece and a
        # rising piece between two breakpoints a rising piece between their
        # anchors.  A flat piece starts and ends at one level, so its two
        # breakpoints give two anchors there, which _build merges into a
        # jump of the inverse from the first time to the last.
        anchors: list[tuple[float, float, float]] = []
        for t, left, right in zip(self.times, self.lefts, self.rights):
            anchors.append((left, t, t))
            if right != left:
                anchors.append((right, t, t))
        return _build(0.0, anchors, self.terminal_run, self.terminal_rise)


# -- canonical construction ---------------------------------------------------


def _build(
    initial: float,
    anchors: Iterable[tuple[float, float, float]],
    terminal_rise: float,
    terminal_run: float = 1.0,
) -> PiecewisePath:
    """Canonicalize (time, left, right) anchors in nondecreasing time order
    into a path, in one forward pass.

    An anchor within MERGE_EPS of the current group's head merges into it
    (a single simultaneous jump: the head's time and left value, the last
    anchor's right value); one more than MERGE_EPS before the head raises
    :class:`PathDomainError`.  Anchors carrying neither a jump nor a slope
    change are dropped.
    """
    # drop anchors carrying neither a jump nor a slope change, cascading so
    # that every survivor is tested against its final neighbors; ``kept``
    # starts with the origin as (0, nan, initial), which the nan keeps from
    # ever reading as jump-free, so the point before the top is kept[-2].
    # The top is the current group's head, at time ``head``.
    kept: list = [(0.0, math.nan, initial)]
    head = -math.inf
    for anchor in anchors:
        nt = anchor[0]
        if nt - head <= MERGE_EPS:
            if nt - head < -MERGE_EPS:
                raise PathDomainError(f"anchor times must be nondecreasing: {nt} after {head}")
            t, left, _ = kept[-1]
            kept[-1] = (t, left, anchor[2])
            continue
        head, nl = nt, anchor[1]
        while True:
            t, left, right = kept[-1]
            if left != right:
                break
            pt, _, pv = kept[-2]
            if (left - pv) * (nt - pt) != (nl - pv) * (t - pt):
                break
            kept.pop()
        kept.append(anchor)
    while True:
        t, left, right = kept[-1]
        if left != right:
            break
        pt, _, pv = kept[-2]
        if (left - pv) * terminal_run != terminal_rise * (t - pt):
            break
        kept.pop()
    columns = tuple(zip(*kept[1:])) or ((), (), ())
    return PiecewisePath(initial, *columns, terminal_rise, terminal_run)


def polyline(nodes: Iterable[tuple[float, float]], terminal_rise: float, terminal_run: float = 1.0) -> PiecewisePath:
    """Continuous path through (t, value) nodes in nondecreasing time order,
    starting at t = 0: linear between nodes, and rising terminal_rise per
    terminal_run after the last.  Of nodes at one time the first is kept."""
    dedup: list[tuple[float, float]] = []
    for t, v in nodes:
        if dedup and t == dedup[-1][0]:
            continue
        dedup.append((t, v))
    if not dedup or dedup[0][0] != 0.0:
        dedup.insert(0, (0.0, dedup[0][1] if dedup else 0.0))
    initial = dedup[0][1]
    anchors = [(t, v, v) for t, v in dedup[1:]]
    return _build(initial, anchors, terminal_rise, terminal_run)


# -- simple constructors ------------------------------------------------------


def drift(slope: float) -> PiecewisePath:
    """t -> slope * t."""
    return PiecewisePath(0.0, terminal_rise=float(slope))


def identity() -> PiecewisePath:
    return drift(1.0)


def step(t: float, size: float) -> PiecewisePath:
    """Single jump of ``size`` at time ``t``, flat elsewhere."""
    return _build(0.0, [(float(t), 0.0, float(size))], 0.0, 1.0)


def pure_jumps(jumps: list[tuple[float, float]]) -> PiecewisePath:
    """Nondecreasing staircase accumulating ``size`` at each ``time``."""
    total = 0.0
    anchors = []
    for t, size in sorted(jumps):
        anchors.append((float(t), total, total + size))
        total += size
    return _build(0.0, anchors, 0.0, 1.0)


# -- class checks -------------------------------------------------------------


def require_no_negative_jumps(path: PiecewisePath, op: str) -> None:
    if any(map(lt, path.rights, path.lefts)):
        t, left, right = next(b for b in zip(path.times, path.lefts, path.rights) if b[2] < b[1])
        raise PathClassError(f"{op}: negative jump at t={t} ({left} -> {right})")


def require_invertible(path: PiecewisePath, op: str) -> None:
    """Raise unless the path is nondecreasing, zero at 0, strictly positive
    right after 0 and unbounded: the class the generalized inverse needs."""
    if not path.nondecreasing:
        raise PathClassError(f"{op}: path is not nondecreasing")
    if path.initial != 0.0:
        raise PathClassError(f"{op}: path does not start at 0 (value {path.initial})")
    if path.lefts and path.lefts[0] <= 0.0:
        raise PathClassError(f"{op}: path is not strictly positive immediately after 0")
    if path.terminal_rise <= 0:
        raise PathClassError(f"{op}: path is bounded (flat terminal direction)")


# -- linear operations --------------------------------------------------------


def add(p: PiecewisePath, q: PiecewisePath) -> PiecewisePath:
    """Pointwise sum, exact at every breakpoint of either operand.

    One forward merge over both operands' breakpoints.  Over the union of
    their times, a time joins the current group when it lies within
    MERGE_EPS of the group's last time, and each group becomes one anchor:
    the sum of the left limits at its start and of the values at its end.
    """
    ptimes, plefts, prights = p.times, p.lefts, p.rights
    qtimes, qlefts, qrights = q.times, q.lefts, q.rights
    np_, nq = len(ptimes), len(qtimes)
    # i and j count the breakpoints of p and q before the group; each
    # operand's piece after them is (t0, v0, rise, run), as in _piece,
    # and tp, tq are the times of their next breakpoints
    i = j = 0
    tp = ptimes[0] if np_ else math.inf
    tq = qtimes[0] if nq else math.inf
    pt0, pv0, qt0, qv0 = 0.0, p.initial, 0.0, q.initial
    prise, prun = (plefts[0] - pv0, tp - pt0) if np_ else (p.terminal_rise, p.terminal_run)
    qrise, qrun = (qlefts[0] - qv0, tq - qt0) if nq else (q.terminal_rise, q.terminal_run)
    anchors: list[tuple[float, float, float]] = []
    while tp < math.inf or tq < math.inf:
        start = end = tp if tp < tq else tq
        # an operand reads its stored left limit at its own breakpoint
        left = (plefts[i] if tp == start else pv0 + prise * ((start - pt0) / prun)) + (
            qlefts[j] if tq == start else qv0 + qrise * ((start - qt0) / qrun)
        )
        i0, j0 = i, j
        while True:
            if tp == end:
                i += 1
                tp = ptimes[i] if i < np_ else math.inf
            if tq == end:
                j += 1
                tq = qtimes[j] if j < nq else math.inf
            t = tp if tp < tq else tq
            if t - end > MERGE_EPS:
                break
            end = t
        if i != i0:
            pt0, pv0 = ptimes[i - 1], prights[i - 1]
            prise, prun = (plefts[i] - pv0, tp - pt0) if i < np_ else (p.terminal_rise, p.terminal_run)
        if j != j0:
            qt0, qv0 = qtimes[j - 1], qrights[j - 1]
            qrise, qrun = (qlefts[j] - qv0, tq - qt0) if j < nq else (q.terminal_rise, q.terminal_run)
        # on the piece at its own breakpoint too, where rise * 0.0 gives the
        # signed zeros of reading the value there
        right = pv0 + prise * ((end - pt0) / prun) + (qv0 + qrise * ((end - qt0) / qrun))
        anchors.append((start, left, right))
    return _build(
        p.initial + q.initial,
        anchors,
        p.terminal_rise * q.terminal_run + q.terminal_rise * p.terminal_run,
        p.terminal_run * q.terminal_run,
    )


def scale(p: PiecewisePath, c: float) -> PiecewisePath:
    """Pointwise multiple.  Negative ``c`` is allowed; callers that need a
    monotone class preserved must check it themselves."""
    if c == 0.0:
        return PiecewisePath(0.0)
    anchors = [(t, c * left, c * right) for t, left, right in zip(p.times, p.lefts, p.rights)]
    return _build(c * p.initial, anchors, c * p.terminal_rise, p.terminal_run)


# -- past infimum -------------------------------------------------------------


def past_infimum(path: PiecewisePath) -> PiecewisePath:
    """Running infimum t -> inf over [0, t]; nonincreasing.

    Requires the path to have no negative jumps, which is what makes the
    output continuous up to rounding: where a piece from (t0, v0) to (t1,
    v1) falls through the infimum ``cur``, the crossing time is clamped to
    ``min(t1, t0 + (cur - v0) / slope)``, as in first_time_at_or_below, and
    one that rounds onto t1 leaves a downward jump from cur to v1 there.
    """
    require_no_negative_jumps(path, "past_infimum")
    anchors: list[tuple[float, float, float]] = []
    cur = path.initial
    for t0, v0, t1, v1 in path.finite_segments():
        if v1 < cur:
            if v0 > cur:
                slope = (v1 - v0) / (t1 - t0)
                anchors.append((min(t1, t0 + (cur - v0) / slope), cur, cur))
            elif t0 > 0.0:
                anchors.append((t0, cur, cur))
            anchors.append((t1, v1, v1))
            cur = v1
    t_last, v_last = path.last_anchor
    if path.terminal_rise < 0:
        rise, run = path.terminal_rise, path.terminal_run
        if v_last > cur:
            t_star = t_last + (cur - v_last) * path.terminal_run / path.terminal_rise
            anchors.append((t_star, cur, cur))
        elif t_last > 0.0:
            anchors.append((t_last, cur, cur))
    else:
        rise, run = 0.0, 1.0
    return _build(path.initial, anchors, rise, run)


def first_time_at_or_below(path: PiecewisePath, level: float) -> float:
    """First t with path(t) <= level for a nonincreasing path, such as a
    running infimum; +inf when the level is never reached.  A lower level
    never gives an earlier time."""
    if path.eval(0.0) <= level:
        return 0.0
    # values do not increase along a nonincreasing path, so the first
    # breakpoint at or below the level is found by bisection: the piece
    # that ends there reaches the level, or else the jump there does
    times, rights = path.times, path.rights
    k = bisect_left(rights, -level, key=neg)
    if k < len(times):
        t0, v0 = (times[k - 1], rights[k - 1]) if k else (0.0, path.initial)
        t1, v1 = times[k], path.lefts[k]
        if v1 > level:
            return t1
        if v0 == v1:
            return t0
        # rounding can carry the interpolation an ulp past t1, where the
        # path already equals v1 <= level; clamped, a lower level never
        # gives an earlier time
        return min(t1, t0 + (level - v0) * (t1 - t0) / (v1 - v0))
    t_last, v_last = path.last_anchor
    if path.terminal_rise < 0:
        return t_last + (level - v_last) * path.terminal_run / path.terminal_rise
    return math.inf


# -- generalized inverse ------------------------------------------------------


def generalized_inverse(h: PiecewisePath) -> PiecewisePath:
    """The path's generalized inverse, :attr:`PiecewisePath.inverse`."""
    return h.inverse


# -- compatibility and smooth composition -------------------------------------


@dataclass(frozen=True)
class CompatibilityReport:
    """Outcome of the jump/flat matching checks for a monotone pair.

    ``h1_violations`` lists jump levels of the outer function whose
    preimage under the inner one has zero length; ``h2_violations`` lists
    inner jump times where the outer values across the jump disagree.
    """

    h1_violations: tuple[float, ...]
    h2_violations: tuple[tuple[float, float, float], ...]

    @property
    def ok(self) -> bool:
        return not (self.h1_violations or self.h2_violations)

    def summary(self) -> str:
        bits = []
        if self.h1_violations:
            bits.append(f"H1 fails at outer jumps {list(self.h1_violations)}")
        if self.h2_violations:
            bits.append(f"H2 fails at inner jumps {[s for s, _, _ in self.h2_violations]}")
        return "; ".join(bits) if bits else "compatible"


def check_compatible(g: PiecewisePath, kappa: PiecewisePath) -> CompatibilityReport:
    """H1: every jump of g pulls back to an interval of positive length
    under kappa.  H2: across every jump of kappa, g takes the same value at
    the left limit and at the left edge of the landing point."""
    require_invertible(g, "check_compatible")
    require_invertible(kappa, "check_compatible")
    kinv = kappa.inverse
    h1_bad = []
    for b in g.jumps():
        s_lo, s_hi = _pullback(kinv, b.t)
        if s_hi - s_lo <= 0.0:
            h1_bad.append(b.t)
    h2_bad = []
    jumps = kappa.jumps()
    if jumps:
        # kappa is nondecreasing, so its jumps' left and right values are sorted
        lhs_all = g.eval_many([b.left for b in jumps])
        rhs_all = g.eval_left_many([b.right for b in jumps])
        for b, lhs, rhs in zip(jumps, lhs_all, rhs_all):
            if lhs != rhs and abs(lhs - rhs) > VALUE_TOL:
                h2_bad.append((b.t, lhs, rhs))
    return CompatibilityReport(tuple(h1_bad), tuple(h2_bad))


def _pullback(kinv: PiecewisePath, u: float) -> tuple[float, float]:
    """(kinv(u-), kinv(u)): where the path inverted by ``kinv`` reaches the
    level u and where it leaves it.  When u is not a breakpoint of kinv but
    a jump of kinv lies within MERGE_EPS of u, that jump is read instead:
    a sum merges jumps that close into one anchor, so a level computed
    through another path may miss the merged jump by rounding."""
    times, lefts, rights = kinv.times, kinv.lefts, kinv.rights
    k = bisect_left(times, u)
    if k < len(times) and times[k] == u:
        return lefts[k], rights[k]
    for j in range(max(k - 1, 0), min(k + 1, len(times))):
        if rights[j] != lefts[j] and abs(times[j] - u) <= MERGE_EPS:
            return lefts[j], rights[j]
    v = kinv.eval(u)
    return v, v


def smooth_compose(g: PiecewisePath, kappa: PiecewisePath) -> PiecewisePath:
    """Composition of g with kappa that bridges every jump of g linearly.

    Off the pulled-back jump intervals this is the ordinary g(kappa(s)); on
    the interval that kappa spends producing a jump level u of g, the value
    interpolates linearly between g(u-) and g(u).  The result is continuous
    and nondecreasing, and composing a path with its generalized inverse in
    either order yields the identity.
    """
    report = check_compatible(g, kappa)
    if not report.ok:
        raise IncompatiblePairError(report)
    kinv = kappa.inverse

    # structural nodes: every breakpoint of g pulled back through kappa
    # keeps its stored values, so the spline endpoints are exact and no
    # jump is lost to the rounding of re-evaluating g at kappa(s)
    nodes: list[tuple[float, float]] = []
    for t, left, right in zip(g.times, g.lefts, g.rights):
        s_lo, s_hi = _pullback(kinv, t)
        nodes.append((s_lo, left))
        if s_hi > s_lo:
            nodes.append((s_hi, right))
        elif right != left:  # cannot happen for compatible pairs
            raise IncompatiblePairError(report)
    free_ts, free_values = _free_breakpoints(kappa, sorted(s for s, _ in nodes))
    nodes += zip(free_ts, g.eval_many(free_values))
    nodes.sort(key=itemgetter(0))
    nodes.insert(0, (0.0, g.eval(kappa.eval(0.0))))
    return polyline(
        nodes,
        g.terminal_rise * kappa.terminal_rise,
        g.terminal_run * kappa.terminal_run,
    )


def _free_breakpoints(path: PiecewisePath, taken: list[float]) -> tuple[list[float], list[float]]:
    """Times and right values of the breakpoints of the nondecreasing
    ``path`` that have no entry of the sorted list ``taken`` within
    MERGE_EPS; the values are sorted.  One cursor walks ``taken``: ``k``
    counts its entries before the breakpoint's time, and float subtraction
    is monotone, so the distance only grows away from that time on either
    side and the two entries around the cursor decide."""
    free_ts, free_values = [], []
    k, n = 0, len(taken)
    for t, right in zip(path.times, path.rights):
        while k < n and taken[k] < t:
            k += 1
        if (k > 0 and t - taken[k - 1] <= MERGE_EPS) or (k < n and taken[k] - t <= MERGE_EPS):
            continue
        free_ts.append(t)
        free_values.append(right)
    return free_ts, free_values


def compose(outer: PiecewisePath, inner: PiecewisePath) -> PiecewisePath:
    """Ordinary composition outer(inner(s)) for continuous nondecreasing
    ``inner`` in the invertible class; ``outer`` may be any path.

    Breakpoints of the output are taken structurally: each breakpoint of
    the outer path is pulled back through the inverse of the inner one and
    keeps its stored values, so jumps survive the float roundtrip of
    inverting and re-evaluating.  The inner path keeps its inverse, so
    every outer path composed with it shares one inversion.
    """
    require_invertible(inner, "compose")
    if any(map(ne, inner.lefts, inner.rights)):
        raise PathClassError("compose: inner path must be continuous")
    iinv = inner.inverse
    anchors: list[tuple[float, float, float]] = []
    times = outer.times
    for left, right, s_lo, s_hi in zip(outer.lefts, outer.rights, iinv.eval_left_many(times), iinv.eval_many(times)):
        if s_hi > s_lo:  # inner holds the breakpoint's time on [s_lo, s_hi]
            anchors.append((s_lo, left, right))
            anchors.append((s_hi, right, right))
        else:
            anchors.append((s_lo, left, right))
    # a pullback anchor within MERGE_EPS of an inner breakpoint wins over
    # it; inner is continuous and positive after 0, so its value at a
    # breakpoint is the stored one, and those values are sorted
    free_ts, free_values = _free_breakpoints(inner, sorted(s for s, _, _ in anchors))
    for s, v in zip(free_ts, outer.eval_many(free_values)):
        anchors.append((s, v, v))
    # a pullback can fall an ulp below the one before it, and the free
    # breakpoints come last
    anchors.sort(key=itemgetter(0))
    return _build(
        outer.eval(inner.eval(0.0)),
        anchors,
        outer.terminal_rise * inner.terminal_rise,
        outer.terminal_run * inner.terminal_run,
    )


# -- excursions ---------------------------------------------------------------


def excursions(path: PiecewisePath, level_tol: float = 0.0) -> list[tuple[float, float, float]]:
    """Excursion intervals of the path above its running infimum.

    Returns chronological (start, end, length) triples.  An excursion spans
    a maximal interval over which the running infimum is constant before
    strictly decreasing again; it begins where the path first rises off the
    infimum inside that interval.  Interior returns that merely touch the
    infimum without pushing below it are absorbed, so back-to-back arches
    over the same level count as one excursion.

    ``level_tol`` additionally absorbs dips of at most that depth between
    consecutive infimum plateaus; derived paths (sums of compositions)
    carry rounding noise at interior touches, and a strict reading would
    split their excursions there.
    """
    require_no_negative_jumps(path, "excursions")
    m = past_infimum(path)
    d = add(path, scale(m, -1.0))

    # a plateau of the running infimum lasts until m leaves the band
    # [level - level_tol, level] anchored at the plateau's start
    flats: list[tuple[float, float | None]] = []  # (start, end); end None = unbounded
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

    # one cursor walks the breakpoints of d across the chronological
    # plateaus: k counts those before one plateau's start, which are before
    # every later plateau's start too
    times = d.times
    k = 0
    out: list[tuple[float, float, float]] = []
    for a, b in flats:
        while k < len(times) and times[k] < a:
            k += 1
        l = _first_rise(d, k, a, b)
        if l is None:
            continue
        if b is None:
            raise PathClassError(
                f"excursions: path rises off its infimum at t={l} and never returns"
            )
        out.append((l, b, b - l))
    return out


def _first_rise(d: PiecewisePath, k: int, a: float, b: float | None) -> float | None:
    """First time in [a, b] at which the nonnegative path d leaves 0.

    ``k`` counts the breakpoints of d before ``a``.  The scan reads each
    piece and then the jump at its end, from the piece that ends at
    breakpoint k, and stops at the first piece or jump that starts at or
    after ``b``.  A piece starting at or after ``a`` rises off 0 at its
    start if d is positive at either end, one starting before ``a`` does
    at ``a`` if d is positive there, and a jump does if it leaves 0 or
    below for above 0.
    """
    hi = math.inf if b is None else b
    times, lefts, rights = d.times, d.lefts, d.rights
    x0, y0 = (times[k - 1], rights[k - 1]) if k else (0.0, d.initial)
    for j in range(k, len(times)):
        x1, y1, y2 = times[j], lefts[j], rights[j]
        if x0 >= hi:
            return None
        if x0 < a:
            if d.eval(a) > 0:
                return a
        elif y0 > 0 or y1 > 0:
            return x0
        if y2 != y1:
            if x1 >= hi:
                return None
            if y2 > 0 and y1 <= 0:
                return x1
        x0, y0 = x1, y2
    if x0 >= hi:
        return None
    if x0 < a:
        return a if d.eval(a) > 0 or d.terminal_rise > 0 else None
    return x0 if y0 > 0 or d.terminal_rise > 0 else None


# -- comparison helpers -------------------------------------------------------


def probe_times(*paths: PiecewisePath) -> list[float]:
    """Breakpoints, segment midpoints and a few terminal probes of the
    given paths; where piecewise-linear functions can disagree, they
    disagree at these times."""
    ts = {0.0}
    last = 0.0
    for p in paths:
        ts.update(p.times)
        last = max(last, p.last_anchor[0])
    grid = sorted(ts)
    mids = [(a + b) / 2 for a, b in zip(grid, grid[1:])]
    return sorted(set(grid + mids + [last + 0.5, last + 1.0, 2 * last + 1.0]))


def _gaps_at_probes(p: PiecewisePath, q: PiecewisePath):
    """Yield (t, gap) over both paths' probe times in order, gap the larger
    of |p - q| in values and in left limits at t."""
    ts = probe_times(p, q)
    for t, pv, qv, pl, ql in zip(ts, p.eval_many(ts), q.eval_many(ts), p.eval_left_many(ts), q.eval_left_many(ts)):
        yield t, max(abs(pv - qv), abs(pl - ql))


def sup_distance(p: PiecewisePath, q: PiecewisePath) -> float:
    """Max of |p - q| over both paths' probe times, using values and left
    limits."""
    return max((gap for _, gap in _gaps_at_probes(p, q)), default=0.0)
