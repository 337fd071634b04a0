import json
import math
from bisect import bisect_left
from collections import Counter
from dataclasses import fields, replace

import numpy as np
import pytest

from blockwalk import cli, field, paths, stats, validate
from blockwalk.curve import build_curve, encode_components, level_hit_times
from blockwalk.field import build_field, hitting_process, sample_clocks
from blockwalk.instances import random_block_model, random_probe_direction
from blockwalk.model import BlockModel
from blockwalk.paths import MERGE_EPS, PiecewisePath, _build, _pullback, add, compose, polyline, scale, smooth_compose
from references import evaluate_per_level


def _curve_identity_gap_loop(bundle, process):
    """Reference: one per-level evaluation per query, each a pass over
    every level."""
    ys = {0.0}
    for level in process.levels:
        ys.update((level, level + 1e-6, max(level - 1e-6, 0.0)))
    ys.add(max(process.levels, default=0.0) + 1.0)
    worst = 0.0
    for y in sorted(ys):
        t = evaluate_per_level(process, y)
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
        rows = process._rows(ys)
        want = [evaluate_per_level(process, y) for y in ys]
        assert [[x.hex() for x in row] for row in rows] == [[x.hex() for x in t] for t in want]
        assert [process.evaluate(y) for y in ys] == [tuple(row) for row in rows]
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


# -- each path-algebra check can fail ---------------------------------------------


def _inverse_with_one_float_slope(h):
    """The inverse with its terminal direction kept as one slope over a unit
    run, which rounds where the (run, rise) pair does not."""
    inv = h.inverse
    return replace(inv, terminal_rise=inv.terminal_rise / inv.terminal_run, terminal_run=1.0)


def _compose_where_it_applies(g, kappa):
    """smooth_compose swapped for compose wherever the inner path is continuous."""
    return smooth_compose(g, kappa) if kappa.jumps() else compose(g, kappa)


def _add_keeping_first_terminal(p, q):
    """add that keeps the first operand's terminal direction only."""
    s = add(p, q)
    return _build(s.initial, list(s.breakpoints), p.terminal_rise, p.terminal_run)


def _polyline_of_steps(nodes, terminal_rise, terminal_run=1.0):
    """polyline that joins its nodes by jumps instead of lines."""
    nodes = list(nodes)
    anchors = [(t, v0, v) for (_, v0), (t, v) in zip(nodes, nodes[1:]) if t > 0]
    return _build(nodes[0][1], anchors, terminal_rise, terminal_run)


def _polyline_falling_at_the_end(nodes, terminal_rise, terminal_run=1.0):
    """polyline with the sign of its terminal rise flipped."""
    return polyline(nodes, -terminal_rise, terminal_run)


def _polyline_without_last_node(nodes, terminal_rise, terminal_run=1.0):
    """polyline whose terminal ray starts one node early."""
    return polyline(list(nodes)[:-1], terminal_rise, terminal_run)


def _eval_before_breakpoint(path, t):
    """eval that reads the piece before a breakpoint at t, not the one after."""
    t0, v0, rise, run = path._piece(bisect_left(path.times, t))
    return v0 + rise * ((t - t0) / run)


def _squeezed_pullback(kinv, u):
    """_pullback that squeezes every pulled-back interval below MERGE_EPS,
    so a bridged jump merges back into a jump."""
    lo, hi = _pullback(kinv, u)
    return lo, (lo + MERGE_EPS / 10 if hi > lo else lo)


#: check name of validate.path_algebra_checks -> (object, attribute, fault)
PATH_ALGEBRA_FAULTS = {
    "double inverse returns the same representation": (validate, "generalized_inverse", _inverse_with_one_float_slope),
    "smooth composition with inverse is the identity": (validate, "smooth_compose", _compose_where_it_applies),
    "smooth composition is additive": (validate, "add", _add_keeping_first_terminal),
    "smooth composition is continuous": (paths, "polyline", _polyline_of_steps),
    "smooth composition is nondecreasing": (paths, "polyline", _polyline_falling_at_the_end),
    "smooth composition lies between the inverse's left and right values": (
        paths, "polyline", _polyline_without_last_node),
    "staircase: ordinary composition overshoots (= 2)": (PiecewisePath, "eval", _eval_before_breakpoint),
    "staircase: smooth composition restores (= 1)": (paths, "_pullback", _squeezed_pullback),
}


def test_every_path_algebra_check_has_a_fault():
    assert [c.name for c in validate.path_algebra_checks(1, 0)] == list(PATH_ALGEBRA_FAULTS)


@pytest.mark.parametrize("name", list(PATH_ALGEBRA_FAULTS))
def test_path_algebra_fault_fails_its_check(name, monkeypatch):
    monkeypatch.setattr(*PATH_ALGEBRA_FAULTS[name])
    # the count and seed of acceptance criterion 3
    checks = {c.name: c for c in validate.path_algebra_checks(1000, 2002)}
    assert not checks[name].passed, checks[name]


# -- each encoding check can fail ----------------------------------------------------


def _jump_with_r_transposed(R, weight_by_type):
    """encoded_jump that multiplies by the transpose of R."""
    return field.encoded_jump(tuple(zip(*R)), weight_by_type)


def _solver_jumps_downward(fld, rho, levels):
    """solver_jumps solving the probes in decreasing order, each from the
    solution at the probe above: an iteration started above T(y) can stop
    at a larger fixed point."""
    gaps = [field._probe_gaps(levels, y) for y in levels]
    solved = {}
    t = [0.0] * fld.m
    for y in sorted({y + d for y, (lo, hi) in zip(levels, gaps) for d in (-lo, hi)}, reverse=True):
        t, _ = field._iterate(fld, rho, y, t)
        solved[y] = t
    return [field._jump(solved[y - lo], solved[y + hi], rho, lo, hi) for y, (lo, hi) in zip(levels, gaps)]


def _encoding_without_last_excursion(fld, bundle):
    """encode_components stopping one excursion short."""
    return encode_components(fld, bundle)[:-1]


def _increments_of_the_processes(fld, bundle):
    """encode_components reading increments off the composed processes
    rather than the curve."""
    return [
        replace(e, increment=tuple(p.eval(e.end) - p.eval(e.start) for p in bundle.processes))
        for e in encode_components(fld, bundle)
    ]


def _lengths_in_the_sup_norm(fld, bundle):
    """encode_components measuring each excursion by its largest increment
    coordinate instead of the sum."""
    return [replace(e, length=max(e.increment)) for e in encode_components(fld, bundle)]


#: check name of validate.encoding_checks -> (object, attribute, fault)
ENCODING_FAULTS = {
    "sweep jumps equal R times the component weights": (validate, "encoded_jump", _jump_with_r_transposed),
    "solver jumps match the sweep": (validate, "solver_jumps", _solver_jumps_downward),
    "one excursion per jump": (validate, "encode_components", _encoding_without_last_excursion),
    "curve increments match the jumps": (validate, "encode_components", _increments_of_the_processes),
    "excursion lengths equal the jump one-norms": (validate, "encode_components", _lengths_in_the_sup_norm),
}


def test_every_encoding_check_has_a_fault():
    assert [c.name for c in validate.encoding_checks(1, 0)] == list(ENCODING_FAULTS)


@pytest.mark.parametrize("name", list(ENCODING_FAULTS))
def test_encoding_fault_fails_its_check(name, monkeypatch):
    monkeypatch.setattr(*ENCODING_FAULTS[name])
    # the count and seed of acceptance criterion 2
    checks = {c.name: c for c in validate.encoding_checks(100, 1001)}
    assert not checks[name].passed, checks[name]


#: the rows of encoding_checks that ``blockwalk curve`` also reports
EXCURSION_CHECKS = list(ENCODING_FAULTS)[2:]


@pytest.mark.parametrize("name", EXCURSION_CHECKS)
def test_curve_command_fails_the_check_of_its_fault(name, tmp_path, monkeypatch):
    # on the worked instance, whose one jump is (1.0, 0.3), each fault of
    # encode_components bites; the command and encoding_checks read one
    # implementation of the claims
    _, _, fault = ENCODING_FAULTS[name]
    monkeypatch.setattr(cli, "encode_components", fault)
    config = tmp_path / "worked.json"
    worked = {"m": 2, "R": [[1.0, 0.0], [0.3, 1.0]], "columns": [[{"t": 0.5, "w": 1.0}], []]}
    config.write_text(json.dumps({"schema_version": 1, "field": worked, "rho": [1.0, 1.0]}))
    assert cli.main(["curve", "--config", str(config), "--out", str(tmp_path / "c")]) == 1
    report = json.loads((tmp_path / "c" / "pathwise_report.json").read_text())
    assert not report["pass"]
    assert [c["name"] for c in report["checks"] if not c["passed"]] == [name]
    assert [c["name"] for c in report["checks"]] == EXCURSION_CHECKS + [validate.CURVE_IDENTITY_SPEC[0]]
    assert all(set(c) == {f.name for f in fields(validate.Check)} for c in report["checks"])


# -- each curve check can fail -------------------------------------------------------


class _Shown:
    """A curve bundle that shows other paths for some of its stages; the
    stages it caches, such as the composed processes, stay its own."""

    def __init__(self, bundle, **stages):
        self._bundle = bundle
        vars(self).update(stages)

    def __getattr__(self, name):
        return getattr(self._bundle, name)


def _first_coordinate(change):
    """build_curve whose bundle shows change(curve[0]) as its first coordinate."""

    def build(fld, rho):
        bundle = build_curve(fld, rho)
        return _Shown(bundle, curve=(change(bundle.curve[0]), *bundle.curve[1:]))

    return build


def _scaled_off_the_parameter(c):
    """c scaled by 1 + 1e-6."""
    return scale(c, 1.0 + 1e-6)


def _with_downward_step(c):
    """c raised by 1e-6 on [1 - 1e-7, 1), so that it steps down at s = 1."""
    return add(c, _build(0.0, [(1.0 - 1e-7, 0.0, 1e-6), (1.0, 1e-6, 0.0)], 0.0, 1.0))


def _with_steep_ramp(c):
    """c plus a ramp of slope 2 on [1, 1.001]."""
    return add(c, polyline([(0.0, 0.0), (1.0, 0.0), (1.001, 0.002)], 0.0))


def _combined_level_raised(fld, rho):
    """build_curve whose bundle shows its combined level raised by 1e-6."""
    bundle = build_curve(fld, rho)
    return _Shown(bundle, combined_level=add(bundle.combined_level, PiecewisePath(1e-6)))


def _hitting_process_late(fld, rho):
    """hitting_process with every jump level 1e-6 later."""
    process = hitting_process(fld, rho)
    return replace(process, levels=tuple(y + 1e-6 for y in process.levels))


def _hit_times_late(fld, bundle, y):
    """level_hit_times 1e-6 later in every row."""
    return tuple(t + 1e-6 for t in level_hit_times(fld, bundle, y))


#: check name of validate.curve_checks -> (object, attribute, fault)
CURVE_FAULTS = {
    "curve coordinates sum to the parameter": (validate, "build_curve", _first_coordinate(_scaled_off_the_parameter)),
    "curve coordinates are nondecreasing": (validate, "build_curve", _first_coordinate(_with_downward_step)),
    "curve coordinates are one-Lipschitz": (validate, "build_curve", _first_coordinate(_with_steep_ramp)),
    "level maps sandwich the combined level along the curve": (validate, "build_curve", _combined_level_raised),
    "curve passes through hitting times": (validate, "hitting_process", _hitting_process_late),
    "composed processes hit each level at the total hitting time": (validate, "level_hit_times", _hit_times_late),
}


def test_every_curve_check_has_a_fault():
    assert [c.name for c in validate.curve_checks(1, 0)] == list(CURVE_FAULTS)


@pytest.mark.parametrize("name", list(CURVE_FAULTS))
def test_curve_fault_fails_its_check(name, monkeypatch):
    monkeypatch.setattr(*CURVE_FAULTS[name])
    # the count and seed of acceptance criterion 4
    checks = {c.name: c for c in validate.curve_checks(60, 3003)}
    assert not checks[name].passed, checks[name]


# -- each law check can fail --------------------------------------------------------


def _kernel_scaled(c):
    """The model with its kernel scaled by c."""
    return lambda model: BlockModel(model.weights, tuple(tuple(c * q for q in row) for row in model.Q))


def _one_sampler_on(change, sampler):
    """mc_component_distribution that draws ``sampler``'s counts from change(model)."""
    real = stats.mc_component_distribution

    def fault(model, rho, n_reps, seed, which="graph"):
        return real(change(model) if which == sampler else model, rho, n_reps, seed, which)

    return fault


def _graph_sequences_on(change):
    """mc_graph_jump_sequences drawn from change(model)."""
    real = stats.mc_graph_jump_sequences
    return lambda model, rho, n_reps, seed: real(change(model), rho, n_reps, seed)


def _graph_sequences_reversed(model, rho, n_reps, seed, real=stats.mc_graph_jump_sequences):
    """mc_graph_jump_sequences with every sequence in reverse order."""
    return [seq[::-1] for seq in real(model, rho, n_reps, seed)]


def _field_sequences_reversed(model, rho, n_reps, seed, real=stats.mc_field_samples):
    """mc_field_samples with every jump sequence in reverse order."""
    return [replace(s, jump_sequence=s.jump_sequence[::-1]) for s in real(model, rho, n_reps, seed)]


def _first_gaps_doubled(model, rho, n_reps, seed, real=stats.mc_field_samples):
    """mc_field_samples with every first root gap doubled."""
    samples = real(model, rho, n_reps, seed)
    return [s if s.first_gap is None else replace(s, first_gap=2 * s.first_gap) for s in samples]


#: check name of validate.law_checks, without its fixture, and of
#: validate.calibration_check -> (object, attribute, fault)
LAW_FAULTS = {
    "graph components vs exact oracle": (stats, "mc_component_distribution", _one_sampler_on(_kernel_scaled(1.5), "graph")),
    "field exploration vs exact oracle": (stats, "mc_component_distribution", _one_sampler_on(_kernel_scaled(1.5), "field")),
    "graph components vs field exploration":
        (stats, "mc_component_distribution", _one_sampler_on(_kernel_scaled(0.7), "field")),
    "first field jump vs exact first-jump law": (stats, "mc_field_samples", _field_sequences_reversed),
    "first size-biased graph jump vs exact first-jump law":
        (stats, "mc_graph_jump_sequences", _graph_sequences_on(_kernel_scaled(1.5))),
    "field vs graph jump sequences": (stats, "mc_graph_jump_sequences", _graph_sequences_reversed),
    "first root gap vs its exponential law": (stats, "mc_field_samples", _first_gaps_doubled),
    "calibration over 5 seeds": (stats, "mc_component_distribution", _one_sampler_on(_kernel_scaled(2.0), "graph")),
}

#: fixture 1 has four vertices of unequal weights, so that the order of a
#: jump sequence shows; fixture 0's two equal vertices hide it
LAW_FAULT_FIXTURE = 1


def _law_checks():
    """The law checks on LAW_FAULT_FIXTURE at the samplers' floor of 1000
    replications and seed 0, named without their fixture, then the
    calibration check, which draws 2000 on each of seeds 0 to 4."""
    prefix = f"fixture {LAW_FAULT_FIXTURE}: "
    checks = validate.law_checks(LAW_FAULT_FIXTURE, 1000, 0).checks
    return [replace(c, name=c.name.removeprefix(prefix)) for c in checks] + [validate.calibration_check(5)]


def test_every_law_check_has_a_fault():
    checks = _law_checks()
    assert [c.name for c in checks] == list(LAW_FAULTS)
    # so that each fault alone fails its check
    assert all(c.passed for c in checks)


@pytest.mark.parametrize("name", list(LAW_FAULTS))
def test_law_fault_fails_its_check(name, monkeypatch):
    monkeypatch.setattr(*LAW_FAULTS[name])
    checks = {c.name: c for c in _law_checks()}
    assert not checks[name].passed, checks[name]
