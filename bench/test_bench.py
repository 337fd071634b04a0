"""Tests of the benchmark itself: every workload's checks pass on tiny
inputs for two seeds, each check fails on a corrupted output, and run.py
keeps its output contract.

    python3 -m pytest -q bench
"""

import copy
import dataclasses
import json
import shutil
import signal
import subprocess
import sys
import time
from collections import Counter
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path[:0] = [str(BENCH), str(ROOT / "src")]

import oracles  # noqa: E402
import workloads  # noqa: E402
from blockwalk import model as bw_model  # noqa: E402
from blockwalk import paths, stats  # noqa: E402

OUT = ROOT / ".bench_out" / "tests"
SEEDS = (1, 7)


def run_tiny(name: str, seed: int):
    """Set up a tiny workload and run one round: (workload, outputs)."""
    wl = workloads.WORKLOADS[name](seed, OUT / f"{name}-{seed}", tiny=True)
    wl.setup()
    outputs = [call() for _, call in wl.operations()]
    assert all(wl.succeeded(o) for o in outputs)
    return wl, outputs


@pytest.fixture(scope="module", params=SEEDS)
def seed(request):
    return request.param


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_checks_pass_on_tiny_inputs(name, seed):
    wl, outputs = run_tiny(name, seed)
    checks = wl.check(outputs)
    assert checks
    assert [c for c in checks if not c.ok] == []


def failed_names(checks) -> set[str]:
    return {c.name for c in checks if not c.ok}


def assert_fails(checks, fragment: str) -> None:
    assert any(fragment in name for name in failed_names(checks)), (fragment, failed_names(checks))


# -- curve-large -------------------------------------------------------------------


@pytest.fixture(scope="module")
def curve_data():
    wl, _ = run_tiny("curve-large", 1)
    return wl, wl.load(wl.configs[0])


def bump(vector, by=1e-3):
    vector[0] += by


CURVE_CORRUPTIONS = {
    "encode deltas sum to R.W_total": lambda d: bump(d["encoding"]["jumps"][0]["delta"]),
    "excursion increments sum to R.W_total": lambda d: bump(d["excursions"][0]["increment"]),
    "same number of jumps": lambda d: d["encoding"]["jumps"].pop(),
    "excursion length equals the one-norm": lambda d: d["excursions"][0].__setitem__(
        "length", d["excursions"][0]["length"] + 1e-3),
    "coordinates sum to s": lambda d: d["curve_rows"][5].__setitem__(1, d["curve_rows"][5][1] + 1e-6),
    "nondecreasing": lambda d: d["curve_rows"].insert(6, d["curve_rows"].pop(5)),
}


@pytest.mark.parametrize("check", sorted(CURVE_CORRUPTIONS))
def test_curve_check_catches_corruption(curve_data, check):
    wl, data = curve_data
    assert failed_names(wl.check_artifacts(data)) == set()
    bad = copy.deepcopy(data)
    CURVE_CORRUPTIONS[check](bad)
    assert_fails(wl.check_artifacts(bad), check)


# -- graph-explore -----------------------------------------------------------------


@pytest.fixture(scope="module")
def graph_data():
    wl, _ = run_tiny("graph-explore", 1)
    return wl, wl.load(wl.configs[0])


def join_two_components(d):
    a, b = d["components"][0]["vertices"][0], d["components"][1]["vertices"][0]
    d["edges"].append((tuple(a), tuple(b)))


def edges_of_denser_model(d):
    spec = d["config"]["model"]
    denser = bw_model.BlockModel(
        tuple(map(tuple, spec["weights"])), tuple(tuple(4 * q for q in row) for row in spec["Q"])
    )
    d["edges"] = [tuple(e) for e in bw_model.sample_graph(denser, 0).edges]


GRAPH_CORRUPTIONS = {
    "equals a traversal of graph.csv": join_two_components,
    "partition the vertex set": lambda d: d["components"].pop(),
    "sums of their vertex weights": lambda d: bump(d["components"][0]["weight_by_type"]),
    "graph exploration visits each vertex once": lambda d: d["graph_trace"].append(d["graph_trace"][0]),
    "field exploration visits each vertex once": lambda d: d["field_trace"].pop(),
    "edge count lies in the band": edges_of_denser_model,
}


@pytest.mark.parametrize("check", sorted(GRAPH_CORRUPTIONS))
def test_graph_check_catches_corruption(graph_data, check):
    wl, data = graph_data
    assert failed_names(wl.check_artifacts(data)) == set()
    bad = copy.deepcopy(data)
    GRAPH_CORRUPTIONS[check](bad)
    assert_fails(wl.check_artifacts(bad), check)


# -- pathwise-small ----------------------------------------------------------------


@pytest.fixture(scope="module")
def pathwise_outputs():
    _, outputs = run_tiny("pathwise-small", 1)
    inst = [o for o in outputs if isinstance(o, workloads.InstanceOutput)]
    draws = [o for o in outputs if isinstance(o, workloads.AlgebraOutput)]
    return inst, draws


def shift_first_jump(jumps, by=1e-9):
    first = (jumps[0][0] + by,) + tuple(jumps[0][1:])
    return (first,) + tuple(jumps[1:])


INSTANCE_CORRUPTIONS = {
    "sweep and solver jumps agree": lambda o: dataclasses.replace(o, solver=shift_first_jump(o.solver)),
    "sweep jumps and curve increments agree": lambda o: dataclasses.replace(
        o, increments=shift_first_jump(o.increments)),
    "curve increments sum to R.W_total": lambda o: dataclasses.replace(
        o, increments=o.increments[:-1], lengths=o.lengths[:-1]),
    "excursion length equals the one-norm": lambda o: dataclasses.replace(
        o, lengths=(o.lengths[0] + 1e-6,) + o.lengths[1:]),
    "verify_encoding passes": lambda o: dataclasses.replace(o, verified=False),
}


@pytest.mark.parametrize("check", sorted(INSTANCE_CORRUPTIONS))
def test_instance_check_catches_corruption(pathwise_outputs, check):
    inst, _ = pathwise_outputs
    assert failed_names(workloads.check_instances(inst)) == set()
    bad = list(inst)
    bad[3] = INSTANCE_CORRUPTIONS[check](bad[3])
    assert_fails(workloads.check_instances(bad), check)


def with_jump(p):
    return paths.add(p, paths.step(1.0, 1e-6))


ALGEBRA_CORRUPTIONS = {
    "double inverse returns the identical path": lambda o, other: dataclasses.replace(
        o, double_inverse=other.g),
    "composition with the inverse is the identity": lambda o, other: dataclasses.replace(
        o, identities=(with_jump(o.identities[0]), o.identities[1])),
    "spline composition is additive": lambda o, other: dataclasses.replace(
        o, additivity=(with_jump(o.additivity[0]), o.additivity[1])),
}


@pytest.mark.parametrize("check", sorted(ALGEBRA_CORRUPTIONS))
def test_algebra_check_catches_corruption(pathwise_outputs, check):
    _, draws = pathwise_outputs
    assert failed_names(workloads.check_algebra(draws)) == set()
    bad = list(draws)
    bad[2] = ALGEBRA_CORRUPTIONS[check](bad[2], bad[3])
    assert_fails(workloads.check_algebra(bad), check)


# -- mc-laws -------------------------------------------------------------------------


@pytest.fixture(scope="module")
def law_outputs():
    wl, outputs = run_tiny("mc-laws", 1)
    per = len(workloads.SAMPLERS) + len(workloads.ORACLES)
    return wl, [dict(zip(workloads.SAMPLERS + workloads.ORACLES, outputs[f * per:(f + 1) * per]))
                for f in range(len(workloads.FIXTURES))]


def other_model_outputs(fixture: int, n: int) -> dict:
    """Sampler outputs from the fixture with Q doubled: the same ratio
    matrix R, so the same support, but denser graphs."""
    weights, Q = workloads.FIXTURES[fixture]
    model = bw_model.BlockModel(weights, tuple(tuple(2.0 * q for q in row) for row in Q))
    rho = workloads.RHO
    return {
        "graph laws": stats.mc_component_distribution(model, rho, n, 11, "graph"),
        "field laws": stats.mc_component_distribution(model, rho, n, 12, "field"),
        "field samples": stats.mc_field_samples(model, rho, n, 13),
        "graph jump sequences": stats.mc_graph_jump_sequences(model, rho, n, 14),
    }


def perturb_law(law: dict) -> dict:
    key = next(iter(law))
    return {**law, key: law[key] + 1e-9}


def outside_key(counts: Counter) -> Counter:
    return counts + Counter({((9.0, 9.0),): 1})


def shift_sequence(samples):
    s = samples[0]
    return [dataclasses.replace(s, jump_sequence=shift_first_jump(s.jump_sequence, 1e-6))] + samples[1:]


LAW_CORRUPTIONS = {
    "exact_partition_distribution matches": lambda o, alt: {
        **o, "exact partition law": perturb_law(o["exact partition law"])},
    "exact_first_jump_distribution matches": lambda o, alt: {
        **o, "exact first-jump law": perturb_law(o["exact first-jump law"])},
    "every jump sequence sums to R.W_total": lambda o, alt: {
        **o, "field samples": shift_sequence(o["field samples"])},
    "graph laws lie in the exact support": lambda o, alt: {**o, "graph laws": outside_key(o["graph laws"])},
    "field laws lie in the exact support": lambda o, alt: {**o, "field laws": outside_key(o["field laws"])},
    "graph laws fit the exact law": lambda o, alt: {**o, "graph laws": alt["graph laws"]},
    "field laws fit the exact law": lambda o, alt: {**o, "field laws": alt["field laws"]},
    "field sample signatures fit the exact law": lambda o, alt: {**o, "field samples": alt["field samples"]},
    "field first jumps fit the exact law": lambda o, alt: {**o, "field samples": alt["field samples"]},
    "graph first jumps fit the exact law": lambda o, alt: {
        **o, "graph jump sequences": alt["graph jump sequences"]},
}


@pytest.mark.parametrize("fixture", range(len(workloads.FIXTURES)))
@pytest.mark.parametrize("check", sorted(LAW_CORRUPTIONS))
def test_law_check_catches_corruption(law_outputs, fixture, check):
    wl, groups = law_outputs
    weights, Q = workloads.FIXTURES[fixture]
    assert failed_names(workloads.check_laws(weights, Q, groups[fixture])) == set()
    alt = other_model_outputs(fixture, wl.n_reps)
    bad = LAW_CORRUPTIONS[check](groups[fixture], alt)
    assert_fails(workloads.check_laws(weights, Q, bad), check)


def test_closed_form_matches_brute_force():
    weights, Q = workloads.FIXTURES[0]
    closed = oracles.two_vertex_laws(weights, Q, workloads.RHO)
    brute = oracles.brute_force_laws(weights, Q, workloads.RHO)
    for a, b in zip(closed, brute):
        assert oracles.law_gap(a, b) <= 1e-15


# -- run.py's output contract ---------------------------------------------------------


def run_bench(cwd: Path, *args: str) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, "bench/run.py", *args], cwd=cwd,
                          capture_output=True, text=True, timeout=170)


@pytest.mark.parametrize("trace,section", [("0", "end_to_end"), ("1", "per_layer")])
def test_result_line_holds_every_declared_metric(trace, section):
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    proc = run_bench(ROOT, "--workload", "mc-laws", "--tiny", "--seed", "3", "--seconds", "1",
                     "--trace", trace)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    assert set(result["metrics"]) == {m["name"] for m in spec[section]}
    for m in spec[section]:
        assert result["metrics"][m["name"]]["unit"] == m["unit"]


def test_fails_without_the_program():
    bare = OUT / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(BENCH, bare / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    proc = run_bench(bare, "--workload", "curve-large", "--seed", "1", "--seconds", "1", "--trace", "0")
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout


def test_failed_operations_are_counted():
    import run

    wl = workloads.CurveLarge(1, OUT / "failing", tiny=True)
    ops = [("exits 1", lambda: 1), ("raises", lambda: 1 / 0), ("exits 0", lambda: 0)]
    seconds, outputs, failed = run.run_round(ops, wl)
    assert len(seconds) == 3
    assert failed == 2
    assert outputs == [1, None, 0]


def test_speed_probe_time_is_left_out_of_operations():
    import run

    wl = workloads.CurveLarge(1, OUT / "sampler", tiny=True)
    sampler = run.SpeedSampler(interval=0.01)

    def busy():
        end = time.perf_counter() + 0.2
        while time.perf_counter() < end:
            pass
        return 0

    with sampler:
        seconds, _, failed = run.run_round([("busy", busy)], wl, sampler)
    assert failed == 0
    assert len(sampler.samples) >= 5
    assert seconds[0] == pytest.approx(0.2 - sampler.spent, abs=0.01)
    assert signal.getsignal(signal.SIGALRM) == signal.SIG_DFL
