"""The time-allocation curve that folds the field's hitting times onto one axis.

Under column-wise proportionality of a field's off-diagonal entries, the
minimal hitting times T(y) all lie on a single continuous nondecreasing
curve whose coordinates sum to the curve parameter.  The construction runs
through per-type level maps, their generalized inverses, and the smooth
composition of the two; composing the field rows with the curve then turns
jumps of T into excursions of real-valued processes.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from typing import Sequence

from .field import Field, HittingProcess, hitting_process
from .model import _check_rho
from .paths import (
    VALUE_TOL,
    PathClassError,
    PiecewisePath,
    add,
    compose,
    excursions,
    first_time_at_or_below,
    generalized_inverse,
    past_infimum,
    probe_times,
    require_invertible,
    scale,
    smooth_compose,
)


class CurveAssumptionError(ValueError):
    """A hypothesis of the curve construction fails; carries a witness."""


class CurveInvariantError(RuntimeError):
    """An identity the construction guarantees was violated: a bug, not bad input."""


def _positive_rho(rho, m: int) -> tuple[float, ...]:
    _check_rho(rho, m)
    if any(r <= 0 for r in rho):
        raise CurveAssumptionError("curve construction needs a strictly positive direction")
    return tuple(float(r) for r in rho)


def _shared_columns(fld: Field, rho: tuple[float, ...]) -> list[PiecewisePath]:
    """Per column, the common rescaled off-diagonal path (zero when the
    field has a single type).  Needs column-wise proportionality
    x_il / rho_i = x_jl / rho_j: column by column, each row's off-diagonal
    entry divided by its direction weight is compared with the first row's,
    which is the column's path, and the first disagreement is refused."""
    if fld.m == 1:
        return [PiecewisePath(0.0)]
    out = []
    for col in range(fld.m):
        base, *rows = [i for i in range(fld.m) if i != col]
        ref = scale(fld.paths[base][col], 1.0 / rho[base])
        for i in rows:
            t = _first_disagreement(ref, scale(fld.paths[i][col], 1.0 / rho[i]))
            if t is not None:
                raise CurveAssumptionError(f"rows {base} and {i} of column {col} are not proportional near t={t}")
        out.append(ref)
    return out


def _first_disagreement(p: PiecewisePath, q: PiecewisePath) -> float | None:
    ts = probe_times(p, q)
    for t, pv, qv, pl, ql in zip(ts, p.eval_many(ts), q.eval_many(ts), p.eval_left_many(ts), q.eval_left_many(ts)):
        if abs(pv - qv) > VALUE_TOL or abs(pl - ql) > VALUE_TOL:
            return t
    return None


# -- construction ----------------------------------------------------------------


@dataclass(frozen=True)
class CurveBundle:
    """Everything the construction produces.

    ``levels[i]`` maps type-i time to a common progress level (shared
    off-diagonal load plus rescaled depth of the diagonal's running
    infimum); ``combined_level`` is the inverse of the sum of their
    inverses, and recovers the level from total time.  ``curve[i]``
    is the time spent on axis i as a function of total time.  ``fld`` is
    the field the bundle was built from; the later stages, the composed
    processes and the encoded components, are built from it once, on
    first use.
    """

    rho: tuple[float, ...]
    levels: tuple[PiecewisePath, ...]
    level_inverses: tuple[PiecewisePath, ...]
    combined_level: PiecewisePath
    curve: tuple[PiecewisePath, ...]
    fld: Field = field(compare=False, repr=False)

    @property
    def m(self) -> int:
        return len(self.curve)

    @cached_property
    def processes(self) -> tuple[PiecewisePath, ...]:
        """See :func:`composed_processes`.  Each curve coordinate keeps its
        inverse, so every row's entry is pulled back through one inversion."""
        out = []
        for row in self.fld.paths:
            total = compose(row[0], self.curve[0])
            for j in range(1, self.m):
                total = add(total, compose(row[j], self.curve[j]))
            out.append(total)
        return tuple(out)

    @cached_property
    def process_infima(self) -> tuple[PiecewisePath, ...]:
        """The running infimum of each composed process, which
        :func:`level_hit_times` reads at every level."""
        return tuple(past_infimum(p) for p in self.processes)

    @cached_property
    def encoded(self) -> tuple[EncodedComponent, ...]:
        """See :func:`encode_components`."""
        _check_jumps_reach_every_row(self.fld)
        base = excursions(self.processes[0], level_tol=EXCURSION_LEVEL_TOL)
        for i in range(1, self.m):
            other = excursions(self.processes[i], level_tol=EXCURSION_LEVEL_TOL)
            if len(other) != len(base) or any(
                abs(a[0] - b[0]) > 1e-9 or abs(a[1] - b[1]) > 1e-9 for a, b in zip(base, other)
            ):
                raise CurveInvariantError(
                    f"excursion intervals of rows 0 and {i} disagree: {base} vs {other}"
                )
        return tuple(
            EncodedComponent(l, r, length, tuple(g.eval(r) - g.eval(l) for g in self.curve))
            for l, r, length in base
        )


def _check_jumps_reach_every_row(fld: Field) -> None:
    """A component is one excursion of every composed process only if its
    jump moves every row: a column that jumps needs a positive R entry in
    each row.  A block model with a zero off-diagonal kernel entry fails
    this; its curve and hitting times still exist."""
    for j, col in enumerate(fld.columns):
        for i in range(fld.m):
            if col and not fld.R[i][j] > 0:
                raise CurveAssumptionError(
                    f"column {j} jumps but R[{i}][{j}] = {fld.R[i][j]}: its components do not reach row {i}"
                )


def build_levels(fld: Field, rho) -> tuple[PiecewisePath, ...]:
    """Per-type level maps g_i = shared column minus rescaled running
    infimum of the diagonal.

    Needs the off-diagonal entries to be proportional column by column
    (see :func:`_shared_columns`).  Every diagonal is a unit downward drift
    plus jumps at positive times, so it falls below zero at once and
    drifts to minus infinity; the result is then nondecreasing, zero at
    zero, strictly positive after zero and unbounded.
    """
    rho = _positive_rho(rho, fld.m)
    shared = _shared_columns(fld, rho)
    out = []
    for i in range(fld.m):
        g = add(shared[i], scale(fld.diag_infimum(i), -1.0 / rho[i]))
        try:
            require_invertible(g, "build_levels")
        except PathClassError:
            raise CurveAssumptionError(f"level map of type {i} is not invertible monotone") from None
        out.append(g)
    return tuple(out)


def build_combined(inverses: Sequence[PiecewisePath]) -> PiecewisePath:
    """The level reached as a function of total time: the inverse of the
    sum of the level maps' inverses, each the time one axis needs."""
    total = inverses[0]
    for inv in inverses[1:]:
        total = add(total, inv)
    return generalized_inverse(total)


def build_curve(fld: Field, rho) -> CurveBundle:
    """Assemble the full bundle; the smooth compositions are guaranteed
    compatible by construction, so a failure there is an internal bug."""
    rho = _positive_rho(rho, fld.m)
    levels = build_levels(fld, rho)
    inverses = tuple(generalized_inverse(g) for g in levels)
    combined_level = build_combined(inverses)
    try:
        curve = tuple(smooth_compose(inv, combined_level) for inv in inverses)
    except Exception as exc:  # noqa: BLE001 - re-tag construction bugs
        raise CurveInvariantError(f"smooth composition failed on a guaranteed-compatible pair: {exc}") from exc
    return CurveBundle(rho, levels, inverses, combined_level, curve, fld)


# -- composed processes and the one-dimensional encoding ---------------------------


def composed_processes(fld: Field, bundle: CurveBundle) -> tuple[PiecewisePath, ...]:
    """Row i of the field evaluated along the curve, s -> sum_j x_ij(curve_j(s)),
    for every row; built once per bundle."""
    return _built_from(fld, bundle).processes


def _built_from(fld: Field, bundle: CurveBundle) -> CurveBundle:
    """The bundle, once ``fld`` is known to be the field it was built from,
    so that its cached stages belong to ``fld``."""
    if fld != bundle.fld:
        raise ValueError("the field is not the one the curve bundle was built from")
    return bundle


def level_hit_times(fld: Field, bundle: CurveBundle, y: float) -> tuple[float, ...]:
    """Per row, the first s at which the composed process's left limits
    reach -rho_i*y.  Backs the one-dimensional reformulation: every row
    hits every level at the same s, the total time sum(T(y)) (acceptance
    criterion 4).  Each process's running infimum is built once per bundle."""
    infima = _built_from(fld, bundle).process_infima
    return tuple(first_time_at_or_below(low, -r * y) for low, r in zip(infima, bundle.rho))


@dataclass(frozen=True)
class EncodedComponent:
    start: float
    end: float
    length: float
    increment: tuple[float, ...]

    def to_json_obj(self) -> dict:
        return {
            "l": self.start,
            "r": self.end,
            "length": self.length,
            "increment": list(self.increment),
        }


#: absorbs summation noise at interior infimum touches of composed processes
EXCURSION_LEVEL_TOL = 1e-9


def encode_components(fld: Field, bundle: CurveBundle) -> list[EncodedComponent]:
    """Excursions of the composed processes with their curve increments.

    All rows share the same excursion intervals; the curve increment over
    each excursion reproduces the corresponding jump of the hitting
    process.  The intervals are cross-checked across rows before the first
    row's version is returned.  Built once per bundle.
    """
    return list(_built_from(fld, bundle).encoded)


def verify_encoding(fld: Field, bundle: CurveBundle, process: HittingProcess | None = None) -> dict:
    """The excursion claims of ``validate.encoding_checks`` on this bundle's
    field, as ``{"pass", "checks"}`` with one Check record per claim.  Kept
    as the entry point of the benchmark's pathwise workload.  ``process`` is
    the field's :func:`hitting_process` when the caller already has it."""
    from . import validate  # validate imports this module

    _built_from(fld, bundle)
    process = hitting_process(fld, bundle.rho) if process is None else process
    checks = validate._checks(validate.EXCURSION_SPECS, [validate.excursion_gaps(process, bundle.encoded)], None)
    return {"pass": all(c.passed for c in checks), "checks": [c.to_json_obj() for c in checks]}
