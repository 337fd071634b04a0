"""The matrix-valued field attached to a block model and its hitting times.

Column j of the field is driven by the jump times of type-j vertices: the
diagonal entry drifts down at unit rate and jumps by the vertex weight,
off-diagonal entries accumulate the same jumps scaled by the ratio matrix
R.  The map y -> T(y), the componentwise-minimal time vector at which the
field's left limits reach -rho*y, is computed two independent ways: a
monotone fixed-point solver working straight from the definition, and a
sweep exploration that also yields the component-by-component
decomposition of the jumps.
"""

from __future__ import annotations

import math
from bisect import bisect_left, bisect_right
from collections import deque
from dataclasses import dataclass
from functools import cached_property
from typing import NamedTuple

import numpy as np

from .model import (
    BlockModel,
    ComponentTrace,
    ExplorationStep,
    ExplorationTrace,
    Vertex,
    _as_rng,
    _check_rho,
)
from .paths import (
    PiecewisePath,
    add,
    drift,
    first_time_at_or_below,
    past_infimum,
    pure_jumps,
)


#: rows of clocks drawn by one generator call in _clock_rows
_CLOCK_CHUNK = 4096
#: consecutive tied draws after which _clock_rows gives up: distinct
#: continuous draws tie with probability near zero, so a run this long
#: means the jump times underflow or overflow
_MAX_TIED_DRAWS = 100


def sample_clocks(model: BlockModel, seed) -> dict[Vertex, float]:
    """Independent Exp(w) clocks, one per vertex; exact ties are redrawn so
    that jump times are distinct across the whole field, and a ValueError
    ends a run of _MAX_TIED_DRAWS tied draws."""
    (row,) = next(_clock_rows(model, _as_rng(seed), 1)).tolist()
    return dict(zip(model.vertices(), row))


def _clock_rows(model: BlockModel, rng, n_rows: int, jump_times: bool = False):
    """Yield n_rows clock draws in total, as 2-D arrays of accepted rows,
    or with ``jump_times`` their jump times xi / Q_jj.

    One row holds an Exp(w) clock per vertex in vertices() order.  A chunk
    of rows is one standard_exponential call times 1 / w: the same floats
    in the same order as one rng.exponential(1 / w) call per vertex and
    row, which numpy computes as the scale times a standard exponential
    draw.  A row whose jump times are not distinct across the field is
    dropped and the next row takes its place, so the accepted rows and the
    generator's final state are those of redrawing each tied row on its
    own.
    """
    verts = model.vertices()
    scale = np.array([1.0 / model.weight(v) for v in verts])
    q_diag = np.array([model.Q[i][i] for _, i in verts])
    tied_run = 0  # tied rows since the last accepted one
    while n_rows > 0:
        xi = rng.standard_exponential((min(n_rows, _CLOCK_CHUNK), len(verts))) * scale
        times = xi / q_diag
        ordered = np.sort(times, axis=1, kind="stable")
        # one pass over the whole chunk finds the rows with a tie (or a NaN)
        # between neighbours, however long or short its rows are
        ties = ~(ordered[:, 1:] > ordered[:, :-1])
        distinct = np.ones(len(xi), dtype=bool)
        distinct[np.flatnonzero(ties) // max(ties.shape[1], 1)] = False
        if distinct.all():
            tied_run = 0
        else:
            for ok in distinct.tolist():
                tied_run = 0 if ok else tied_run + 1
                if tied_run == _MAX_TIED_DRAWS:
                    raise ValueError(
                        f"jump times tie or underflow in {_MAX_TIED_DRAWS} consecutive clock draws; "
                        "weights or kernel diagonal out of range"
                    )
            xi, times = xi[distinct], times[distinct]
        if len(xi):
            n_rows -= len(xi)
            yield times if jump_times else xi


class ColumnJump(NamedTuple):
    time: float
    weight: float
    vertex: Vertex


@dataclass(frozen=True)
class Field:
    """m x m matrix of paths, realized lazily from per-column jump data:
    column j jumps at the times of ``columns[j]`` by R[i][j] times the
    weight in row i, and its diagonal entry drifts down at unit rate."""

    R: tuple[tuple[float, ...], ...]
    columns: tuple[tuple[ColumnJump, ...], ...]

    @property
    def m(self) -> int:
        return len(self.columns)

    @cached_property
    def paths(self) -> tuple[tuple[PiecewisePath, ...], ...]:
        for j, col in enumerate(self.columns):
            # build_field sorts each column by time, so its first time is its
            # least; xi / Q_jj can underflow to 0.0, where no path can jump
            if col and not col[0].time > 0:
                raise ValueError(f"column {j} jumps at time {col[0].time!r}, which is not positive")
        matrix = []
        for i in range(self.m):
            row = []
            for j in range(self.m):
                jumps = [(c.time, self.R[i][j] * c.weight) for c in self.columns[j]]
                stairs = pure_jumps(jumps)
                row.append(add(drift(-1.0), stairs) if i == j else stairs)
            matrix.append(tuple(row))
        return tuple(matrix)

    @cached_property
    def diag_infima(self) -> tuple[PiecewisePath, ...]:
        """The running infimum of each diagonal entry."""
        return tuple(past_infimum(self.paths[i][i]) for i in range(self.m))

    def total_jump_count(self) -> int:
        """Number of driving jumps: one per column entry."""
        return sum(len(c) for c in self.columns)

    def columns_json_obj(self) -> list[list[dict]]:
        return [
            [{"t": j.time, "w": j.weight, "vertex": list(j.vertex)} for j in col]
            for col in self.columns
        ]


def build_field(model: BlockModel, clocks: dict[Vertex, float]) -> Field:
    """Realize the field from a model and a clock draw: column j jumps at
    xi / Q_jj with the vertex weight on the diagonal and the R-scaled
    weight off the diagonal."""
    by_type: list[list[tuple[float, Vertex]]] = [[] for _ in range(model.m)]
    for v, xi in clocks.items():
        by_type[v[1]].append((xi, v))
    cols = []
    for j, jumps in enumerate(by_type):
        qjj = model.Q[j][j]
        cols.append(tuple(ColumnJump(xi / qjj, model.weight(v), v) for xi, v in sorted(jumps)))
    return Field(model.R, tuple(cols))


def field_from_jumps(
    column_jumps: list[list[tuple[float, float]]], R: list[list[float]]
) -> Field:
    """Deterministic field from given per-column (time, weight) jumps;
    vertex ranks follow weight order within each column.  Entries of R
    must be finite and nonnegative and times and weights finite and
    positive, as they are in every field a block model produces, and R
    must be m x m for the m columns."""
    m = len(column_jumps)
    if len(R) != m:
        raise ValueError(f"R has {len(R)} rows, expected {m}")
    for i, row in enumerate(R):
        if len(row) != m:
            raise ValueError(f"R[{i}] has {len(row)} entries, expected {m}")
        for j, x in enumerate(row):
            if not (math.isfinite(x) and x >= 0):
                raise ValueError(f"R[{i}][{j}] must be finite and nonnegative, got {x}")
    for j, jumps in enumerate(column_jumps):
        for k, (t, w) in enumerate(jumps):
            if not (math.isfinite(t) and t >= 0):
                raise ValueError(f"columns[{j}][{k}].t must be finite and nonnegative, got {t}")
            if not (math.isfinite(w) and w >= 0):
                raise ValueError(f"columns[{j}][{k}].w must be finite and nonnegative, got {w}")
            # an exponential clock rings after time 0, and a vertex of a
            # block model has positive weight
            if t == 0 or w == 0:
                raise ValueError(f"columns[{j}][{k}]: t and w must be positive, got t={t}, w={w}")
    cols = []
    for j, jumps in enumerate(column_jumps):
        ranked = sorted(range(len(jumps)), key=lambda k: -jumps[k][1])
        rank_of = {k: r for r, k in enumerate(ranked)}
        by_time = sorted(range(len(jumps)), key=lambda k: jumps[k][0])
        cols.append(
            tuple(
                ColumnJump(float(jumps[k][0]), float(jumps[k][1]), (rank_of[k], j))
                for k in by_time
            )
        )
    return Field(tuple(tuple(float(x) for x in row) for row in R), tuple(cols))


# -- minimal-solution solver ------------------------------------------------------


@dataclass(frozen=True)
class HittingTime:
    """Componentwise-minimal time vector with left limits at -rho*y.

    Coordinates with rho_i = 0 carry no level constraint of their own;
    they are listed in ``unconstrained_types`` and take the minimal value
    forced by the other coordinates.  Coordinates that can never reach
    their level are +inf.
    """

    times: tuple[float, ...]
    unconstrained_types: tuple[int, ...]
    sweeps: int


def hitting_time(fld: Field, rho, y: float) -> HittingTime:
    """Solve for T(y) by monotone iteration from zero.

    Each sweep rewrites coordinate i as the first time the running infimum
    of the diagonal reaches -rho_i*y minus the off-diagonal load at the
    current iterate.  The iterate only ever grows, and each strict growth
    crosses at least one new column jump, so the loop ends within the
    total jump count plus two sweeps.  solver_jumps runs the same
    iteration at many levels in one forward pass in increasing order, each
    iteration starting from the solution at the level below.
    """
    _check_level(fld, rho, y)
    times, sweeps = _iterate(fld, rho, y, [0.0] * fld.m)
    return HittingTime(
        tuple(times), tuple(i for i in range(fld.m) if rho[i] == 0), sweeps
    )


def _check_level(fld: Field, rho, y: float) -> None:
    _check_rho(rho, fld.m)
    if not y >= 0:  # NaN too: no iteration settles at a NaN level
        raise ValueError("level must be nonnegative")


def _iterate(fld: Field, rho, y: float, t: list[float]) -> tuple[list[float], int]:
    """hitting_time's iteration from the iterate ``t``: the fixed point it
    stops at and the sweeps it took."""
    m = fld.m
    max_sweeps = fld.total_jump_count() + 2
    sweeps = 0
    while True:
        sweeps += 1
        if sweeps > max_sweeps:
            raise RuntimeError("hitting-time iteration failed to stabilize")
        new = []
        for i in range(m):
            # rho * y can overflow to an infinite coordinate, where an
            # off-diagonal staircase has reached its last value
            load = sum(
                p.last_anchor[1] if tj == math.inf else p.eval_left(tj)
                for j, (p, tj) in enumerate(zip(fld.paths[i], t)) if j != i
            )
            if load == math.inf:
                new.append(math.inf)
                continue
            target = -rho[i] * y - load
            new.append(first_time_at_or_below(fld.diag_infima[i], target))
        if new == t:
            return t, sweeps
        t = new


# -- sweep exploration ------------------------------------------------------------


def field_exploration(fld: Field, rho) -> ExplorationTrace:
    """Deterministic sweep of the field along direction rho, with one step
    per vertex; see _sweep for the rules."""
    _check_rho(rho, fld.m)
    steps: list[ExplorationStep] = []
    components = _sweep(fld.columns, fld.R, rho, steps)
    return ExplorationTrace(
        tuple(float(r) for r in rho),
        tuple(steps),
        tuple(ComponentTrace(vs, w, level) for vs, w, level in components),
    )


def _sweep(columns, R, rho, steps: list | None = None) -> list[tuple]:
    """The sweep over per-type columns of (time, weight, vertex) jumps, each
    sorted by time, with type-j vertices in column j.

    Roots minimize the rescaled distance from the per-type frontier to the
    next unexplored jump over types with positive direction weight; the
    frontier then advances by rho times that gap.  Processing a vertex
    widens every coordinate's window by its weight times the matching R
    column, and unexplored jumps inside a window become its children,
    ordered by type and then by jump time.

    Returns (vertices, weight_by_type, level) per component in discovery
    order, level being the cumulative root gap at its root; appends one
    ExplorationStep per vertex to ``steps`` when it is a list.
    """
    m = len(columns)
    types = range(m)
    r_columns = tuple(zip(*R))  # r_columns[j][i] = R[i][j]
    tail = (0.0,) * m  # window end of the most recently discovered vertex
    pointer = [0] * m  # next unconsumed jump per column
    queue: deque = deque()
    components: list[tuple] = []
    current: list[tuple[Vertex, float]] = []
    level = 0.0
    while True:
        root_gap = None
        if not queue:
            if current:
                # each type's weights summed in rank order
                weight_by_type = [0.0] * m
                for (_, i), w in sorted(current):
                    weight_by_type[i] += w
                components.append((tuple([v for v, _ in current]), tuple(weight_by_type), level))
                current = []
            for i in types:
                if rho[i] <= 0 or pointer[i] >= len(columns[i]):
                    continue
                gap = (columns[i][pointer[i]][0] - tail[i]) / rho[i]
                if root_gap is None or gap < root_gap:
                    root_gap, ri = gap, i
            if root_gap is None:
                break
            level += root_gap
            time, weight, vertex = columns[ri][pointer[ri]]
            pointer[ri] += 1
            low = tuple([time if i == ri else tail[i] + rho[i] * root_gap for i in types])
            high = tuple([lo + weight * r for lo, r in zip(low, r_columns[ri])])
            tail = high
        else:
            vertex, weight, low, high = queue.popleft()
        current.append((vertex, weight))
        children = []
        for i in types:
            col, p = columns[i], pointer[i]
            while p < len(col) and col[p][0] < high[i]:
                if col[p][0] < low[i]:
                    raise RuntimeError("unexplored jump behind the sweep frontier")
                children.append(col[p])
                p += 1
            pointer[i] = p
        for _, w, v in children:
            hi = tuple([t + w * r for t, r in zip(tail, r_columns[v[1]])])
            queue.append((v, w, tail, hi))
            tail = hi
        if steps is not None:
            steps.append(
                ExplorationStep(
                    index=len(steps) + 1,
                    kind="child" if root_gap is None else "root",
                    vertex=vertex,
                    zeta=len(components) + 1,
                    children=tuple(c[2] for c in children),
                    window_low=low,
                    window_high=high,
                    root_gap=root_gap,
                )
            )
    return components


def _sweep_rows(times: np.ndarray, weights, R, rho) -> tuple[np.ndarray, np.ndarray]:
    """The sweep of _sweep run on every row of a _clock_rows chunk at once.

    ``times`` holds one row per replication: the jump times xi / Q_jj in
    vertices() order, distinct within a row; ``weights`` are the per-type
    weights by rank.  Every row takes the steps _sweep takes on its columns
    with the same float64 operations in the same order (the root gap
    (t - tail) / rho, the frontier tail + rho * gap, windows low + w * R[:, i]
    chained from the tail, the strict < that lets the first type win a
    tied root), so every comparison, and with it every result, is the same
    bit for bit; a jump behind the frontier in any row raises _sweep's
    error.  A row processes its s-th discovered vertex at step s, so the
    Python loops run over steps, types and the children of one window, each
    pass one vectorized operation over the rows.  Rows are the last axis of
    every array, so that a pass over one type or coordinate reads and
    writes one contiguous run, and gathers and scatters go through flat
    indices (every array here is C-contiguous, so ravel() is a view).

    Returns per row the discovery-order component label of each vertex, -1
    for a vertex no component reaches, and the level of the first root,
    NaN in a row without components.
    """
    n, n_verts = times.shape
    m = len(weights)
    R = np.asarray(R, dtype=float)
    rho = np.asarray(rho, dtype=float)
    rows = np.arange(n)
    types = np.arange(m)[:, None]
    # the type-j jump of rank k in time order of row r sits at
    # offset[j] + k * n + r, followed by one row of +inf, which no window end
    # exceeds, so that a pointer past the last jump reads +inf
    sizes = [len(ws) for ws in weights]
    offset = np.cumsum([0] + [(size + 1) * n for size in sizes])
    base = [offset[j] + rows for j in range(m)]
    col_t = np.full(offset[-1], np.inf)
    col_w = np.zeros(offset[-1])
    col_v = np.zeros(offset[-1], dtype=np.intp)
    start = 0
    for j, ws in enumerate(weights):
        stop = start + sizes[j]
        # the times of a row are distinct, so every sort orders them alike
        order = np.argsort(times[:, start:stop], axis=1, kind="stable").T
        ranks = slice(offset[j], offset[j] + sizes[j] * n)
        col_t[ranks] = times.take(order + start + rows * n_verts).ravel()
        col_w[ranks] = np.asarray(ws, dtype=float).take(order).ravel()
        col_v[ranks] = (order + start).ravel()
        start = stop
    labels = np.full((n, n_verts), -1, dtype=np.intp)
    first = np.full(n, np.nan)
    level = np.zeros(n)
    tail = np.zeros((m, n))
    pointer = np.zeros((m, n), dtype=np.intp)
    found = np.zeros(n, dtype=np.intp)  # vertices discovered so far
    component = np.full(n, -1, dtype=np.intp)
    # window end of each discovered vertex: coordinate i of the k-th one of
    # row r at (k * m + i) * n + r; a child's window starts where that of
    # the vertex discovered just before it ends
    high = np.zeros((n_verts, m, n))
    with np.errstate(all="ignore"):  # like Python floats: overflow to inf, NaN quietly
        for s in range(n_verts):
            idle = found == s  # queue empty: choose a root
            root = np.zeros(n, dtype=bool)
            root_gap = np.zeros(n)
            root_at = np.zeros(n, dtype=np.intp)  # where the root's jump sits
            ri = np.zeros(n, dtype=np.intp)
            for i in range(m):
                if rho[i] <= 0 or not sizes[i]:
                    continue
                p = pointer[i]
                at = p * n + base[i]
                gap = (col_t.take(at) - tail[i]) / rho[i]
                better = idle & (p < sizes[i]) & (~root | (gap < root_gap))
                root_gap = np.where(better, gap, root_gap)
                root_at = np.where(better, at, root_at)
                ri = np.where(better, i, ri)
                root |= better
            active = (found > s) | root
            if not active.any():
                break
            # every row computes a root window; the rows with a root keep it
            root_low = tail + rho[:, None] * root_gap
            root_low.ravel()[ri * n + rows] = col_t.take(root_at)
            root_high = root_low + col_w.take(root_at) * R.take(ri, axis=1)
            # a child's window starts where the one before it ends; at step 0
            # every active row has a root
            low = np.where(root, root_low, high[s - 1])
            tail = np.where(root, root_high, tail)
            high[s] = np.where(root, root_high, high[s])
            pointer += root & (types == ri)
            level = np.where(root, level + root_gap, level)
            first = np.where(root & (component < 0), level, first)
            component += root
            r_rows = np.flatnonzero(root)
            labels.ravel()[r_rows * n_verts + col_v.take(root_at[r_rows])] = component[r_rows]
            found += root
            for i in range(m):
                if not sizes[i]:
                    continue
                p = pointer[i]
                block = col_t[offset[i]:offset[i] + sizes[i] * n].reshape(sizes[i], n)
                inside = np.add.reduce(block < high[s, i], axis=0, dtype=np.intp)
                n_children = np.where(active, np.maximum(inside - p, 0), 0)
                if ((n_children > 0) & (col_t.take(p * n + base[i]) < low[i])).any():
                    raise RuntimeError("unexplored jump behind the sweep frontier")
                for c in range(int(n_children.max())):
                    c_rows = np.flatnonzero(n_children > c)
                    c_at = (p[c_rows] + c) * n + base[i][c_rows]
                    hi = tail.take(c_rows, axis=1) + col_w.take(c_at) * R[:, i, None]
                    cells = types * n + c_rows
                    tail.ravel()[cells] = hi
                    high.ravel()[found[c_rows] * (m * n) + cells] = hi
                    labels.ravel()[c_rows * n_verts + col_v.take(c_at)] = component[c_rows]
                    found[c_rows] += 1
                pointer[i] = p + n_children
    return labels, first


# -- the hitting process ----------------------------------------------------------


@dataclass(frozen=True)
class HittingProcess:
    """Left-continuous staircase y -> T(y): affine with slope rho between
    jumps, with one jump per explored component in discovery order."""

    rho: tuple[float, ...]
    levels: tuple[float, ...]
    deltas: tuple[tuple[float, ...], ...]

    def _rows(self, ys: list[float]) -> list[list[float]]:
        """T(y) for each of the sorted ys, one row each: rho * y, then the
        delta of each level below y in level order.  The rows with y above
        a level are a suffix of the sorted ys, so one slice addition per
        level does it."""
        acc = np.array(ys, dtype=float)[:, None] * np.array(self.rho)
        for level, delta in zip(self.levels, self.deltas):
            acc[bisect_right(ys, level) :] += delta
        return acc.tolist()

    def evaluate(self, y: float) -> tuple[float, ...]:
        return tuple(self._rows([y])[0])

    def total_time(self, y: float) -> float:
        return sum(self.evaluate(y))

    def to_json_obj(self) -> dict:
        return {
            "rho": list(self.rho),
            "jumps": [
                {"y": level, "delta": list(delta)}
                for level, delta in zip(self.levels, self.deltas)
            ],
        }


def encoded_jump(R, weight_by_type) -> tuple[float, ...]:
    """R times a per-type weight vector: the jump the component imprints on
    the hitting process."""
    m = len(weight_by_type)
    return tuple(
        sum(R[i][j] * weight_by_type[j] for j in range(m) if weight_by_type[j] != 0.0)
        for i in range(m)
    )


def hitting_process(fld: Field, rho) -> HittingProcess:
    """Enumerate the jumps of y -> T(y) by sweeping the finitely many
    candidate levels produced by the exploration."""
    _check_rho(rho, fld.m)
    components = _sweep(fld.columns, fld.R, rho)
    levels = tuple(level for _, _, level in components)
    deltas = tuple(encoded_jump(fld.R, w) for _, w, _ in components)
    return HittingProcess(tuple(float(r) for r in rho), levels, deltas)


def solver_jump(fld: Field, rho, levels, level: float) -> tuple[float, ...]:
    """Jump of y -> T(y) at ``level`` read off the fixed-point solver alone.

    Brackets strictly on both sides of the level: querying at the level
    itself would place the solver's target one rounding away from a
    discontinuity of the diagonal infimum.  ``levels`` must be
    nondecreasing, as those of hitting_process are (cumulative nonnegative
    root gaps), so the nearest levels below and above are found by
    bisection.  Raises ValueError when a probe rounds onto the level, as
    half a level does past levels of about 1e16: the jump cannot be read
    there.
    """
    lo_gap, hi_gap = _probe_gaps(levels, level)
    before = hitting_time(fld, rho, level - lo_gap).times
    after = hitting_time(fld, rho, level + hi_gap).times
    return _jump(before, after, rho, lo_gap, hi_gap)


class SolverJumps(list):
    """The jumps solver_jumps returns, with the number of distinct
    ``probes`` it solved and the ``sweeps`` they took in all."""

    probes: int = 0
    sweeps: int = 0


def solver_jumps(fld: Field, rho, levels) -> SolverJumps:
    """``[solver_jump(fld, rho, levels, y) for y in levels]``, bit for bit,
    in one forward pass over the probes.

    Every level's two probes are found first, so the first level with a
    probe that rounds onto it raises solver_jump's error before anything
    is solved.  The distinct probes are then solved in increasing order,
    each iteration starting from the solution at the probe below: T is
    nondecreasing in y, and with off-diagonals that are nondecreasing step
    paths and continuous diagonal infima the float iteration map is
    monotone in both the iterate and the level, so an iteration started at
    or below T(y) stops at the fixed point that the iteration from zero
    stops at.
    """
    gaps = [_probe_gaps(levels, level) for level in levels]
    probes = sorted({y for level, (lo, hi) in zip(levels, gaps) for y in (level - lo, level + hi)})
    out = SolverJumps()
    if not probes:
        return out
    for y in probes:  # a NaN probe sorts anywhere, so each is checked
        _check_level(fld, rho, y)
    solved = {}
    t = [0.0] * fld.m
    for y in probes:
        t, sweeps = _iterate(fld, rho, y, t)
        solved[y] = t
        out.sweeps += sweeps
    out.probes = len(probes)
    out.extend(_jump(solved[y - lo], solved[y + hi], rho, lo, hi) for y, (lo, hi) in zip(levels, gaps))
    return out


def _probe_gaps(levels, level: float) -> tuple[float, float]:
    """solver_jump's distances from ``level`` down and up to its probes:
    halfway to the nearest level below, or half the level, and halfway to
    the nearest level above, or 0.5."""
    below = bisect_left(levels, level)
    above = bisect_right(levels, level)
    lo_gap = (level - levels[below - 1]) / 2 if below else level / 2
    hi_gap = (levels[above] - level) / 2 if above < len(levels) else 0.5
    if level + hi_gap == level or (lo_gap and level - lo_gap == level):
        raise ValueError(f"solver_jump: a probe beside level {level} rounds onto it; rescale the field")
    return lo_gap, hi_gap


def _jump(before, after, rho, lo_gap: float, hi_gap: float) -> tuple[float, ...]:
    """The jump across a level from T at its two probes, less the drift
    rho * y over the gaps."""
    return tuple(
        (a - r * hi_gap) - (b + r * lo_gap) for a, b, r in zip(after, before, rho)
    )
