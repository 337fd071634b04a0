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
from collections import deque
from dataclasses import dataclass
from functools import cached_property

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


@dataclass(frozen=True)
class ClockSet:
    """One exponential clock per vertex, rate equal to its weight."""

    clocks: dict[Vertex, float]

    def sorted_by_type(self, m: int) -> list[list[tuple[float, Vertex]]]:
        out: list[list[tuple[float, Vertex]]] = [[] for _ in range(m)]
        for v, xi in self.clocks.items():
            out[v[1]].append((xi, v))
        for lst in out:
            lst.sort()
        return out


def sample_clocks(model: BlockModel, seed) -> ClockSet:
    """Independent Exp(w) clocks; exact ties are redrawn so that jump times
    are distinct across the whole field."""
    rng = _as_rng(seed)
    while True:
        clocks = {
            v: rng.exponential(1.0 / model.weight(v)) for v in model.vertices()
        }
        times = sorted(xi / model.Q[v[1]][v[1]] for v, xi in clocks.items())
        if all(b > a for a, b in zip(times, times[1:])):
            return ClockSet(clocks)


@dataclass(frozen=True)
class ColumnJump:
    time: float
    weight: float
    vertex: Vertex


@dataclass(frozen=True)
class Field:
    """m x m matrix of paths, realized lazily from per-column jump data
    when the field comes from a discrete model."""

    m: int
    R: tuple[tuple[float, ...], ...] | None = None
    columns: tuple[tuple[ColumnJump, ...], ...] | None = None
    explicit_paths: tuple[tuple[PiecewisePath, ...], ...] | None = None

    def __post_init__(self) -> None:
        if self.columns is None and self.explicit_paths is None:
            raise ValueError("a field needs either column jump data or explicit paths")

    @property
    def discrete(self) -> bool:
        return self.columns is not None

    @cached_property
    def paths(self) -> tuple[tuple[PiecewisePath, ...], ...]:
        if self.explicit_paths is not None:
            return self.explicit_paths
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
    def _diag_infima(self) -> tuple[PiecewisePath, ...]:
        return tuple(past_infimum(self.paths[i][i]) for i in range(self.m))

    def path(self, i: int, j: int) -> PiecewisePath:
        return self.paths[i][j]

    def diag_infimum(self, i: int) -> PiecewisePath:
        return self._diag_infima[i]

    def total_jump_count(self) -> int:
        """Number of driving jumps: one per column entry for discrete
        fields, else the matrix-wide breakpoint-jump count."""
        if self.columns is not None:
            return sum(len(c) for c in self.columns)
        return sum(len(p.jumps()) for row in self.paths for p in row)

    def columns_json_obj(self) -> list[list[dict]]:
        if not self.discrete:
            raise ValueError("field has no discrete column data")
        return [
            [{"t": j.time, "w": j.weight, "vertex": list(j.vertex)} for j in col]
            for col in self.columns
        ]


def build_field(model: BlockModel, clocks: ClockSet) -> Field:
    """Realize the field from a model and a clock draw: column j jumps at
    xi / Q_jj with the vertex weight on the diagonal and the R-scaled
    weight off the diagonal."""
    m = model.m
    by_type = clocks.sorted_by_type(m)
    cols = []
    for j in range(m):
        qjj = model.Q[j][j]
        cols.append(
            tuple(ColumnJump(xi / qjj, model.weight(v), v) for xi, v in by_type[j])
        )
    return Field(m, model.R, tuple(cols))


def field_from_jumps(
    column_jumps: list[list[tuple[float, float]]], R: list[list[float]]
) -> Field:
    """Deterministic field from explicit per-column (time, weight) jumps;
    vertex ranks follow weight order within each column."""
    m = len(column_jumps)
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
    return Field(m, tuple(tuple(float(x) for x in row) for row in R), tuple(cols))


def field_from_paths(paths: list[list[PiecewisePath]]) -> Field:
    """General field given directly by its entries; explorations are
    unavailable, but hitting times and the curve still apply."""
    m = len(paths)
    return Field(m, explicit_paths=tuple(tuple(row) for row in paths))


# -- pointwise field evaluation -------------------------------------------------


def field_eval(fld: Field, t: list[float]) -> tuple[float, ...]:
    _check_times(fld, t)
    return tuple(
        sum(fld.paths[i][j].eval(t[j]) for j in range(fld.m)) for i in range(fld.m)
    )


def field_eval_left(fld: Field, t: list[float]) -> tuple[float, ...]:
    """Coordinatewise left limits: row i evaluates each column at t_j-."""
    _check_times(fld, t)
    return tuple(
        sum(fld.paths[i][j].eval_left(t[j]) for j in range(fld.m)) for i in range(fld.m)
    )


def _check_times(fld: Field, t) -> None:
    if len(t) != fld.m:
        raise ValueError(f"time vector has length {len(t)}, expected {fld.m}")
    if any(x < 0 for x in t):
        raise ValueError("time vector must be nonnegative")


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
    total jump count plus two sweeps.
    """
    _check_rho(rho, fld.m)
    if y < 0:
        raise ValueError("level must be nonnegative")
    m = fld.m
    t = [0.0] * m
    max_sweeps = fld.total_jump_count() + 2
    sweeps = 0
    while True:
        sweeps += 1
        if sweeps > max_sweeps:
            raise RuntimeError("hitting-time iteration failed to stabilize")
        new = []
        for i in range(m):
            load = sum(
                fld.paths[i][j].eval_left_extended(t[j]) for j in range(m) if j != i
            )
            if load == math.inf:
                new.append(math.inf)
                continue
            target = -rho[i] * y - load
            new.append(first_time_at_or_below(fld.diag_infimum(i), target))
        if new == t:
            break
        t = new
    return HittingTime(
        tuple(t), tuple(i for i in range(m) if rho[i] == 0), sweeps
    )


# -- sweep exploration ------------------------------------------------------------


def field_exploration(fld: Field, rho) -> ExplorationTrace:
    """Deterministic sweep of a discrete field along direction rho.

    Roots minimize the rescaled distance from the per-type frontier to the
    next unexplored jump over types with positive direction weight; the
    frontier then advances by rho times that gap.  Processing a vertex
    widens every coordinate's window by its weight times the matching R
    column, and unexplored jumps inside a window become its children,
    ordered by type and then by jump time.
    """
    if not fld.discrete:
        raise ValueError("exploration needs a field with discrete column data")
    _check_rho(rho, fld.m)
    m = fld.m
    tail = (0.0,) * m  # window end of the most recently discovered vertex
    pointer = [0] * m  # next unconsumed jump per column
    cols = fld.columns
    queue: deque[tuple[Vertex, float, tuple[float, ...], tuple[float, ...]]] = deque()
    steps: list[ExplorationStep] = []
    components: list[ComponentTrace] = []
    current: list[tuple[Vertex, float]] = []
    level = 0.0
    zeta = 0
    k = 0

    def unexplored_root() -> tuple[float, int] | None:
        best = None
        for i in range(m):
            if rho[i] <= 0 or pointer[i] >= len(cols[i]):
                continue
            gap = (cols[i][pointer[i]].time - tail[i]) / rho[i]
            if best is None or gap < best[0]:
                best = (gap, i)
        return best

    def close_component() -> None:
        if current:
            ordered = sorted(current, key=lambda vw: (vw[0][1], vw[0][0]))
            weight_by_type = [0.0] * m
            for v, w in ordered:
                weight_by_type[v[1]] += w
            components.append(
                ComponentTrace(current[0][0], tuple(v for v, _ in current), tuple(weight_by_type), level)
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
            low = tuple(
                jump.time if i == ri else tail[i] + rho[i] * root_gap
                for i in range(m)
            )
            high = tuple(low[i] + jump.weight * fld.R[i][ri] for i in range(m))
            tail = high
            vertex, weight = jump.vertex, jump.weight
            kind = "root"
        else:
            vertex, weight, low, high = queue.popleft()
            kind = "child"
        k += 1
        current.append((vertex, weight))
        children: list[ColumnJump] = []
        for i in range(m):
            while pointer[i] < len(cols[i]) and cols[i][pointer[i]].time < high[i]:
                nxt = cols[i][pointer[i]]
                if nxt.time < low[i]:
                    raise RuntimeError("unexplored jump behind the sweep frontier")
                children.append(nxt)
                pointer[i] += 1
        children.sort(key=lambda c: (c.vertex[1], c.time))
        n_discovered = k + len(queue)
        for c in children:
            hi = tuple(tail[i] + c.weight * fld.R[i][c.vertex[1]] for i in range(m))
            queue.append((c.vertex, c.weight, tail, hi))
            tail = hi
        steps.append(
            ExplorationStep(
                index=k,
                kind=kind,
                vertex=vertex,
                zeta=zeta,
                children=tuple(c.vertex for c in children),
                n_active_end=n_discovered,
                window_low=low,
                window_high=high,
                root_gap=root_gap,
            )
        )
    return ExplorationTrace(m, tuple(float(r) for r in rho), tuple(steps), tuple(components))


# -- the hitting process ----------------------------------------------------------


@dataclass(frozen=True)
class HittingProcess:
    """Left-continuous staircase y -> T(y): affine with slope rho between
    jumps, with one jump per explored component in discovery order."""

    rho: tuple[float, ...]
    levels: tuple[float, ...]
    deltas: tuple[tuple[float, ...], ...]

    @property
    def m(self) -> int:
        return len(self.rho)

    def evaluate(self, y: float) -> tuple[float, ...]:
        t = [r * y for r in self.rho]
        for level, delta in zip(self.levels, self.deltas):
            if level < y:
                for i in range(self.m):
                    t[i] += delta[i]
        return tuple(t)

    def right_limit(self, y: float) -> tuple[float, ...]:
        t = [r * y for r in self.rho]
        for level, delta in zip(self.levels, self.deltas):
            if level <= y:
                for i in range(self.m):
                    t[i] += delta[i]
        return tuple(t)

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
    trace = field_exploration(fld, rho)
    levels = tuple(c.level for c in trace.components)
    deltas = tuple(encoded_jump(fld.R, c.weight_by_type) for c in trace.components)
    return HittingProcess(tuple(float(r) for r in rho), levels, deltas)


def solver_jump(fld: Field, rho, levels, level: float) -> tuple[float, ...]:
    """Jump of y -> T(y) at ``level`` read off the fixed-point solver alone.

    Brackets strictly on both sides of the level: querying at the level
    itself would place the solver's target one rounding away from a
    discontinuity of the diagonal infimum.
    """
    below = [lv for lv in levels if lv < level]
    above = [lv for lv in levels if lv > level]
    lo_gap = (level - max(below)) / 2 if below else level / 2
    hi_gap = (min(above) - level) / 2 if above else 0.5
    before = hitting_time(fld, rho, level - lo_gap).times
    after = hitting_time(fld, rho, level + hi_gap).times
    return tuple(
        (a - r * hi_gap) - (b + r * lo_gap) for a, b, r in zip(after, before, rho)
    )


# -- rank-one specialization -------------------------------------------------------


def rank_one_walk(model: BlockModel, clocks: ClockSet, q: float | None = None) -> PiecewisePath:
    """Single-type walk -t + sum of weight jumps, built directly without
    the field machinery; q defaults to the kernel entry."""
    if model.m != 1:
        raise ValueError("rank-one walk requires exactly one type")
    q = model.Q[0][0] if q is None else q
    jumps = [(xi / q, model.weight(v)) for v, xi in clocks.clocks.items()]
    return add(drift(-1.0), pure_jumps(jumps))


def rank_one_encoding(model: BlockModel, clocks: ClockSet) -> list[tuple[float, float]]:
    """(level, gap) pairs of the scalar hitting process, computed by the
    classic one-dimensional sweep over sorted jump times."""
    if model.m != 1:
        raise ValueError("rank-one encoding requires exactly one type")
    q = model.Q[0][0]
    remaining = sorted((xi / q, model.weight(v)) for v, xi in clocks.clocks.items())
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
