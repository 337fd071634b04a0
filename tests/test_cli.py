import contextlib
import csv
import dataclasses
import enum
import gc
import hashlib
import io
import json
import math
import os
import platform
import signal
import subprocess
import sys
import tempfile
from importlib import metadata
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import blockwalk
from blockwalk import cli, curve, paths, validate
from blockwalk.cli import ConfigError, load_config, main

WORKED = {
    "schema_version": 1,
    "field": {
        "m": 2,
        "R": [[1.0, 0.0], [0.3, 1.0]],
        "columns": [[{"t": 0.5, "w": 1.0}], []],
    },
    "rho": [1.0, 1.0],
}

MODEL = {
    "schema_version": 1,
    "model": {"m": 2, "weights": [[1.0], [1.0]], "Q": [[1.0, 0.5], [0.5, 1.0]]},
    "rho": [1.0, 1.0],
    "seed": 7,
}


#: one type, and three types with rho along the kernel's factorization
#: direction (Q[i][j] * Q[i][k] / Q[i][i]), which the curve needs
M1_MODEL = {"schema_version": 1, "model": {"m": 1, "weights": [[1.2, 0.9, 0.7, 0.4]], "Q": [[1.0]]}, "rho": [1.0], "seed": 3}
M3_MODEL = {
    "schema_version": 1,
    "model": {"m": 3, "weights": [[1.2, 0.9], [1.0, 0.6], [0.8, 0.5]], "Q": [[1.0, 0.5, 0.4], [0.5, 1.0, 0.3], [0.4, 0.3, 1.0]]},
    "rho": [0.2, 0.15, 0.12],
    "seed": 5,
}


#: every command that reads a config
COMMANDS = (("sample",), ("explore", "--mode", "graph"), ("explore", "--mode", "field"), ("encode",), ("curve",))


def _run_python(args, timeout):
    """Run a fresh interpreter that imports this blockwalk, so that a hang ends in TimeoutExpired."""
    src = Path(blockwalk.__file__).resolve().parents[1]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [str(src), os.environ.get("PYTHONPATH")])))
    return subprocess.run([sys.executable, *args], capture_output=True, text=True, env=env, timeout=timeout)


def _run_cli(argv, timeout):
    return _run_python(["-m", "blockwalk.cli", *argv], timeout)


def test_import_leaves_scipy_stats_unloaded():
    # scipy.stats takes about a second to import and only the distributional checks use it
    proc = _run_python(["-c", "import sys, blockwalk.cli; sys.exit('scipy.stats' in sys.modules)"], timeout=60)
    assert proc.returncode == 0, proc.stderr


def test_import_leaves_the_collector_untouched():
    # the heap is frozen by main, never on import
    code = (
        "import gc, sys; state = lambda: (gc.isenabled(), gc.get_threshold(), gc.get_freeze_count()); "
        "before = state(); import blockwalk, blockwalk.cli; sys.exit(state() != before)"
    )
    proc = _run_python(["-c", code], timeout=60)
    assert proc.returncode == 0, proc.stderr


def test_package_exports():
    # adding a name to the package is a deliberate edit of this list
    exported = {n for n, v in vars(blockwalk).items() if not n.startswith("_") and not isinstance(v, type(blockwalk))}
    assert exported == {
        "CurveAssumptionError", "build_curve", "composed_processes", "encode_components", "level_hit_times",
        "build_field", "field_exploration", "field_from_jumps", "hitting_process", "hitting_time", "sample_clocks",
        "BlockModel", "connected_components", "factor_kernel", "graph_exploration", "sample_graph",
        "PiecewisePath", "compose", "excursions", "generalized_inverse", "polyline", "smooth_compose",
    }


@pytest.fixture
def worked_config(tmp_path):
    path = tmp_path / "worked.json"
    path.write_text(json.dumps(WORKED))
    return path


@pytest.fixture
def model_config(tmp_path):
    path = tmp_path / "model.json"
    path.write_text(json.dumps(MODEL))
    return path


class TestImportHeapFreeze:
    def test_main_freezes_once_per_process(self, model_config, tmp_path, monkeypatch):
        calls = []
        monkeypatch.setattr(gc, "freeze", lambda: calls.append(None))
        cli._freeze_import_heap.cache_clear()
        try:
            for k in range(2):
                assert main(["sample", "--config", str(model_config), "--out", str(tmp_path / f"s{k}")]) == 0
        finally:
            cli._freeze_import_heap.cache_clear()
        assert len(calls) == 1

    def test_main_freezes_the_heap(self, model_config, tmp_path):
        cli._freeze_import_heap.cache_clear()
        assert main(["sample", "--config", str(model_config), "--out", str(tmp_path)]) == 0
        assert gc.get_freeze_count() > 0


class TestConfig:
    def test_unknown_top_level_field_rejected(self, tmp_path):
        bad = dict(WORKED, extra=1)
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(bad))
        with pytest.raises(ConfigError, match="unknown fields"):
            load_config(path)

    def test_unknown_nested_field_rejected(self, tmp_path):
        bad = json.loads(json.dumps(MODEL))
        bad["model"]["alpha"] = 3
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(bad))
        with pytest.raises(ConfigError, match="config.model"):
            load_config(path)

    def test_model_and_field_exclusive(self, tmp_path):
        bad = dict(WORKED)
        bad["model"] = MODEL["model"]
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(bad))
        with pytest.raises(ConfigError, match="exactly one"):
            load_config(path)

    def test_schema_version_checked(self, tmp_path):
        bad = dict(WORKED, schema_version=99)
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(bad))
        with pytest.raises(ConfigError, match="schema_version"):
            load_config(path)

    def test_invalid_json_reports_line(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("{\n  broken\n}")
        with pytest.raises(ConfigError, match="line 2"):
            load_config(path)

    @pytest.mark.parametrize("kind", ["missing", "directory"])
    def test_unreadable_config_path_exits_with_two(self, tmp_path, kind):
        # these used to end in a FileNotFoundError or IsADirectoryError traceback
        path = tmp_path / "cfg.json"
        if kind == "directory":
            path.mkdir()
        with pytest.raises(ConfigError, match="cannot read config"):
            load_config(path)
        proc = _run_cli(["sample", "--config", str(path), "--out", str(tmp_path / "o")], timeout=60)
        assert proc.returncode == 2
        lines = proc.stderr.splitlines()
        assert len(lines) == 1 and lines[0].startswith(f"error: {path}: cannot read config")

    def test_out_that_is_a_file_exits_with_two(self, worked_config, tmp_path):
        # this used to end in a FileExistsError traceback
        out = tmp_path / "taken"
        out.write_text("")
        proc = _run_cli(["encode", "--config", str(worked_config), "--out", str(out)], timeout=60)
        assert proc.returncode == 2
        lines = proc.stderr.splitlines()
        assert len(lines) == 1 and lines[0].startswith(f"error: {out}: cannot make output directory")

    def test_unsorted_weights_warn_in_one_line(self, tmp_path):
        unsorted = json.loads(json.dumps(M1_MODEL))
        unsorted["model"]["weights"] = [[1.2, 0.9, 0.4, 0.7]]
        for name, config in (("unsorted", unsorted), ("sorted", M1_MODEL)):
            (tmp_path / f"{name}.json").write_text(json.dumps(config))
        proc = _run_cli(["sample", "--config", str(tmp_path / "unsorted.json"), "--out", str(tmp_path / "unsorted")], timeout=60)
        assert proc.returncode == 0, proc.stderr
        assert proc.stderr == "warning: config.model: weights of type 0 were not nonincreasing; sorting\n"
        assert main(["sample", "--config", str(tmp_path / "sorted.json"), "--out", str(tmp_path / "sorted")]) == 0
        for name in ("components.json", "graph.csv"):
            assert (tmp_path / "unsorted" / name).read_bytes() == (tmp_path / "sorted" / name).read_bytes()

    def test_config_errors_exit_with_two(self, tmp_path, capsys):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(dict(WORKED, schema_version=2)))
        code = main(["encode", "--config", str(path), "--out", str(tmp_path / "o")])
        assert code == 2
        assert "error:" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "rho",
        [1.0, "1.0", [1.0, "1.0"], [1.0, True], [1.0, float("nan")], {"0": 1.0}],
        ids=["scalar", "string", "string-entry", "bool-entry", "nan-entry", "object"],
    )
    def test_rho_must_be_a_list_of_numbers(self, tmp_path, capsys, rho):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(dict(MODEL, rho=rho)))
        with pytest.raises(ConfigError, match="config.rho"):
            load_config(path)
        assert main(["encode", "--config", str(path), "--out", str(tmp_path / "o")]) == 2
        assert capsys.readouterr().err.count("error:") == 1

    @pytest.mark.parametrize(
        "base, where, value, match",
        [
            (MODEL, ("seed",), [1], "config.seed"),
            (MODEL, ("seed",), "7", "config.seed"),
            (MODEL, ("seed",), 7.5, "config.seed"),
            (MODEL, ("seed",), True, "config.seed"),
            (MODEL, ("seed",), -1, "config.seed"),
            (MODEL, ("model", "weights"), 5, "config.model.weights"),
            (MODEL, ("model", "weights"), [1.0, 1.0], "config.model.weights"),
            (MODEL, ("model", "weights"), [["1.0"], [1.0]], "config.model.weights"),
            (MODEL, ("model", "weights"), [[10**400], [1.0]], "config.model.weights"),
            (MODEL, ("rho",), [1.0, 10**400], "config.rho"),
            (MODEL, ("model", "Q"), 3, "config.model.Q"),
            (MODEL, ("model", "Q"), [[1.0, None], [0.5, 1.0]], "config.model.Q"),
            (WORKED, ("field", "columns"), 4, "config.field.columns"),
            (WORKED, ("field", "columns"), [{"t": 0.5, "w": 1.0}, []], "config.field.columns"),
            (WORKED, ("field", "columns"), [[{"t": [0.5], "w": 1.0}], []], r"columns\[0\]\[0\]"),
            (WORKED, ("field", "R"), 1.0, "config.field.R"),
            (WORKED, ("field", "R"), [[1.0, 0.0], [0.3, False]], "config.field.R"),
            (M1_MODEL, ("model", "m"), True, "config.model.m"),
            (MODEL, ("model", "m"), 2.0, "config.model.m"),
            (WORKED, ("field", "m"), 2.0, "config.field.m"),
            (M1_MODEL, ("schema_version",), True, "schema_version"),
            (MODEL, ("schema_version",), 1.0, "schema_version"),
        ],
        ids=[
            "seed-list", "seed-string", "seed-float", "seed-bool", "seed-negative",
            "weights-scalar", "weights-flat", "weights-string-entry", "weights-huge-int", "rho-huge-int",
            "Q-scalar", "Q-null-entry",
            "columns-scalar", "columns-of-records", "record-list-time", "R-scalar", "R-bool-entry",
            "m-bool-one-type", "model-m-float", "field-m-float", "schema-version-bool", "schema-version-float",
        ],
    )
    def test_mistyped_config_exits_with_two(self, tmp_path, capsys, base, where, value, match):
        spec = json.loads(json.dumps(base))
        parent = spec
        for key in where[:-1]:
            parent = parent[key]
        parent[where[-1]] = value
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(spec))
        with pytest.raises(ConfigError, match=match):
            load_config(path)
        assert main(["encode", "--config", str(path), "--out", str(tmp_path / "o")]) == 2
        assert capsys.readouterr().err.count("error:") == 1

    @pytest.mark.parametrize("command", COMMANDS, ids=" ".join)
    @pytest.mark.parametrize("rho", [[1.0], [-1.0, -2.0], [0.0, 0.0]], ids=["short", "negative", "all-zero"])
    def test_bad_direction_exits_with_two_before_any_output(self, tmp_path, capsys, command, rho):
        # sample used to write scaled masses of such a direction: 0 for a
        # type past a short one, negative for a negative one
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(dict(MODEL, rho=rho)))
        assert main([*command, "--config", str(path), "--out", str(tmp_path / "o")]) == 2
        captured = capsys.readouterr()
        assert len(captured.err.splitlines()) == 1 and captured.err.startswith("error: config.rho: ")
        assert captured.out == "" and not (tmp_path / "o").exists()

    @pytest.mark.parametrize(
        "command, spec, match",
        [
            (("curve",), dict(MODEL, rho=[0.0, 1.0]), "error: curve construction needs a strictly positive direction"),
            (("encode",), dict(WORKED, field={"m": 1, "R": [[1.0]], "columns": [[{"t": 9000.0, "w": 1.0}]]}, rho=[1.0]),
             "error: the checks would compare times up to"),
            (("explore", "--mode", "graph"), WORKED, "error: graph exploration needs a model config"),
        ],
        ids=["curve-zero-rho", "encode-late-jump", "explore-graph-on-field"],
    )
    def test_late_refusals_exit_with_two_before_any_output(self, tmp_path, capsys, command, spec, match):
        # the output directory used to be made before these refusals and
        # was left behind empty
        path = tmp_path / "refused.json"
        path.write_text(json.dumps(spec))
        assert main([*command, "--config", str(path), "--out", str(tmp_path / "o")]) == 2
        captured = capsys.readouterr()
        assert len(captured.err.splitlines()) == 1 and captured.err.startswith(match)
        assert captured.out == "" and not (tmp_path / "o").exists()

    @pytest.mark.parametrize("command", [*COMMANDS, ("validate", "pathwise")], ids=" ".join)
    def test_negative_seed_option_exits_with_two(self, model_config, tmp_path, capsys, command):
        # like config.seed; numpy used to refuse it without naming the option
        config = [] if command[0] == "validate" else ["--config", str(model_config)]
        assert main([*command, *config, "--seed", "-1", "--out", str(tmp_path / "o")]) == 2
        captured = capsys.readouterr()
        assert captured.err == "error: --seed: expected a nonnegative integer, not -1\n"
        assert captured.out == "" and not (tmp_path / "o").exists()

    def test_negative_calibration_seeds_exit_with_two(self, tmp_path, capsys):
        # a negative count used to run no calibration and pass it
        argv = ["validate", "distributional", "--reps", "1000", "--out", str(tmp_path / "o")]
        assert main([*argv, "--calibration-seeds", "-3"]) == 2
        assert capsys.readouterr().err == "error: --calibration-seeds: expected a nonnegative integer, not -3\n"
        assert main([*argv, "--calibration-seeds", "0"]) == 0
        report = json.loads((tmp_path / "o" / "validate_distributional.json").read_text())
        assert not any(c["name"].startswith("calibration") for c in report["checks"])

    @pytest.mark.parametrize("suite", ["functions", "pathwise", "distributional"])
    @pytest.mark.parametrize("reps", [-5, 0])
    def test_reps_below_one_exit_with_two(self, tmp_path, capsys, suite, reps):
        # functions and pathwise used to floor such a count at their least
        # number of draws and pass
        assert main(["validate", suite, "--reps", str(reps), "--out", str(tmp_path / "o")]) == 2
        captured = capsys.readouterr()
        assert captured.err == f"error: --reps: expected a positive integer, not {reps}\n"
        assert captured.out == "" and not (tmp_path / "o").exists()

    def test_distributional_reps_below_1000_exit_with_two(self, tmp_path, capsys):
        # refused at the boundary, naming the option, before any output
        # directory is made; stats still refuses library callers
        assert main(["validate", "distributional", "--reps", "999", "--out", str(tmp_path / "o")]) == 2
        captured = capsys.readouterr()
        assert captured.err == "error: --reps: the distributional suite needs at least 1000, not 999\n"
        assert captured.out == "" and not (tmp_path / "o").exists()

    @pytest.mark.parametrize("where", ["weights", "Q"])
    @pytest.mark.parametrize("bad", ["NaN", "Infinity", "-Infinity"])
    def test_non_finite_model_entries_exit_with_two(self, tmp_path, where, bad):
        # json writes NaN and Infinity literals, which Python's reader accepts;
        # before they were rejected, a NaN weight hung encode in sample_clocks
        spec = json.loads(json.dumps(MODEL))
        if where == "weights":
            spec["model"]["weights"][0][0] = float(bad)
        else:
            spec["model"]["Q"][0][1] = spec["model"]["Q"][1][0] = float(bad)
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(spec))
        proc = _run_cli(["encode", "--config", str(path), "--out", str(tmp_path / "o")], timeout=60)
        assert proc.returncode == 2
        lines = proc.stderr.splitlines()
        assert len(lines) == 1 and lines[0].startswith("error:")

    @pytest.mark.parametrize(
        "where, value, match",
        [
            (("R", 0, 1), float("nan"), r"config.field: R\[0\]\[1\] must be finite"),
            (("R", 1, 0), float("inf"), r"config.field: R\[1\]\[0\] must be finite"),
            (("columns", 0, 0, "t"), -1.0, r"config.field: columns\[0\]\[0\].t must be finite and nonnegative"),
            (("columns", 0, 0, "t"), float("nan"), r"config.field: columns\[0\]\[0\].t must be finite"),
            (("columns", 0, 0, "t"), float("inf"), r"config.field: columns\[0\]\[0\].t must be finite"),
            (("columns", 0, 0, "w"), float("nan"), r"config.field: columns\[0\]\[0\].w must be finite"),
            (("columns", 0, 0, "w"), float("-inf"), r"config.field: columns\[0\]\[0\].w must be finite"),
            (("columns", 0, 0, "w"), -1.0, r"config.field: columns\[0\]\[0\].w must be finite and nonnegative"),
            (("R", 0, 1), -0.5, r"config.field: R\[0\]\[1\] must be finite and nonnegative"),
            (("R", 1), [0.3], r"config.field: R\[1\] has 1 entries, expected 2"),
            (("R", 0), [1.0, 0.0, 2.0], r"config.field: R\[0\] has 3 entries, expected 2"),
        ],
        ids=[
            "R-nan-unused", "R-inf-used", "t-negative", "t-nan", "t-inf", "w-nan", "w-minus-inf",
            "w-negative", "R-negative", "R-short-row", "R-long-row",
        ],
    )
    def test_bad_field_values_exit_with_two(self, tmp_path, capsys, where, value, match):
        # before they were rejected, an unused NaN in R passed the solver
        # check, a negative time failed as "level must be nonnegative", a
        # negative weight failed inside past_infimum (and explore accepted
        # it), and a negative R entry failed as a level map that is not
        # invertible; rows of R of the wrong length were accepted, and a
        # short one failed with an IndexError once its missing entry's
        # column had jumps
        spec = json.loads(json.dumps(WORKED))
        parent = spec["field"]
        for key in where[:-1]:
            parent = parent[key]
        parent[where[-1]] = value
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(spec))
        with pytest.raises(ConfigError, match=match):
            load_config(path)
        for command in (["encode"], ["curve"], ["explore", "--mode", "field"]):
            assert main(command + ["--config", str(path), "--out", str(tmp_path / "o")]) == 2
            err = capsys.readouterr().err
            assert err.count("error:") == 1 and err.startswith("error: config.field: ")

    @pytest.mark.parametrize("t, w", [(0.0, 1.0), (0.5, 0.0)], ids=["t-zero", "w-zero"])
    def test_zero_jump_time_or_weight_exits_with_two(self, tmp_path, capsys, t, w):
        # a jump at time 0 failed inside the path algebra, and a jump of
        # weight 0 failed the curve's excursion count with exit 1
        spec = json.loads(json.dumps(WORKED))
        spec["field"]["columns"][0][0] = {"t": t, "w": w}
        path = tmp_path / "zero.json"
        path.write_text(json.dumps(spec))
        with pytest.raises(ConfigError, match=r"columns\[0\]\[0\]: t and w must be positive"):
            load_config(path)
        for command in (["encode"], ["curve"]):
            assert main(command + ["--config", str(path), "--out", str(tmp_path / "o")]) == 2
            assert capsys.readouterr().err.count("error:") == 1

    @pytest.mark.parametrize(
        "spec, codes, match",
        [
            # times of about 4e5, where floats lie 6e-11 apart: encode and
            # curve used to report a FAIL of the 1e-12 checks with exit 1
            (dict(MODEL, model={"m": 1, "weights": [[1e-6, 1e-6]], "Q": [[1.0]]}, rho=[1.0], seed=3),
             (2, 2), "error: the checks would compare times up to"),
            # no jump, so encode compares nothing, but curve's checks meet
            # T(1) = rho = 5.8e16
            (dict(WORKED, field={"m": 1, "R": [[0.0]], "columns": [[]]}, rho=[5.8e16]),
             (0, 2), "error: the checks would compare times up to"),
            # the solver probes half a level past the only jump, at 1.1e16,
            # where half a level rounds away: encode used to FAIL with exit 1
            (dict(MODEL, model={"m": 1, "weights": [[1.0, 0.7]], "Q": [[1.0]]}, rho=[1e-17], seed=3),
             (2, 0), "error: solver_jump: a probe beside level"),
            # a jump within the composed processes' rounding slack: curve used
            # to count no excursion for it and exit 1
            (dict(WORKED, field={"m": 1, "R": [[1e-300]], "columns": [[{"t": 1.0, "w": 1.0}]]}, rho=[1.0]),
             (0, 2), "error: a jump moves a row by only"),
            # fields whose checks hold run, however far rho is spread: times
            # of 5e3, and of 1e3
            (dict(WORKED, rho=[1e-4, 1.0]), (0, 0), None),
            (dict(MODEL, model={"m": 1, "weights": [[1.0, 0.7]], "Q": [[1.0]]}, rho=[1e3], seed=3), (0, 0), None),
        ],
        ids=["tiny-weights", "huge-rho", "tiny-rho-level", "tiny-jump", "spread-rho", "large-rho"],
    )
    def test_unresolvable_scale_exits_with_two(self, tmp_path, capsys, spec, codes, match):
        path = tmp_path / "scale.json"
        path.write_text(json.dumps(spec))
        for command, code in zip(["encode", "curve"], codes):
            assert main([command, "--config", str(path), "--out", str(tmp_path / command)]) == code
            err = capsys.readouterr().err
            assert err.startswith(match) and err.count("\n") == 1 if code == 2 else err == ""
        # the commands that check nothing to 1e-12 still run
        assert main(["explore", "--config", str(path), "--out", str(tmp_path / "o")]) == 0

    def test_config_values_in_errors_stay_on_one_line(self, tmp_path, capsys):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(dict(WORKED, schema_version="\x0c\n")))
        assert main(["encode", "--config", str(path), "--out", str(tmp_path / "o")]) == 2
        assert capsys.readouterr().err == "error: unsupported schema_version '\\x0c\\n'\n"

    def test_tied_jump_times_exit_with_two(self, tmp_path):
        # every xi / Q_jj underflows to 0.0, so every clock draw ties; the
        # redraw loop used to run forever
        spec = json.loads(json.dumps(MODEL))
        spec["model"] = {"m": 2, "weights": [[1e200, 1e200], [1e200]], "Q": [[1e200, 1.0], [1.0, 1e200]]}
        path = tmp_path / "tied.json"
        path.write_text(json.dumps(spec))
        proc = _run_cli(["encode", "--config", str(path), "--out", str(tmp_path / "o")], timeout=60)
        assert proc.returncode == 2
        lines = proc.stderr.splitlines()
        assert len(lines) == 1 and lines[0].startswith("error: jump times tie or underflow")


_any_json = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=4),
    lambda inner: st.lists(inner, max_size=4) | st.dictionaries(st.text(max_size=4), inner, max_size=4),
    max_leaves=8,
)
#: a config draws all its numbers from one of these: a scale the checks
#: resolve, or any JSON number at all
_config_numbers = (
    st.floats(min_value=0.05, max_value=3.0),
    st.floats() | st.integers() | st.floats(min_value=0.0, max_value=3.0) | st.integers(min_value=-2, max_value=4),
)


@st.composite
def _or_any(draw, strategy):
    """A well-formed value, or one time in sixteen any JSON value."""
    return draw(_any_json if draw(st.sampled_from(range(16))) == 0 else strategy)


@st.composite
def _fuzzed_configs(draw):
    """Configs of at most 3 types and 4 vertices per type in which any field
    may hold any JSON value."""
    m = draw(st.integers(1, 3))
    numbers = draw(st.sampled_from(_config_numbers))
    num = _or_any(numbers)
    square = st.lists(st.lists(num, min_size=m, max_size=m), min_size=m, max_size=m)
    if draw(st.booleans()):
        weights = [sorted(draw(st.lists(numbers, max_size=4)), key=lambda w: -w) for _ in range(m)]
        Q = draw(square)  # made symmetric, as a valid kernel is
        Q = [[Q[min(i, j)][max(i, j)] for j in range(m)] for i in range(m)]
        spec = {"model": draw(_or_any(st.fixed_dictionaries({
            "m": _or_any(st.just(m)), "weights": _or_any(st.just(weights)), "Q": _or_any(st.just(Q)),
        })))}
    else:
        record = st.fixed_dictionaries({"t": num, "w": num})
        spec = {"field": draw(_or_any(st.fixed_dictionaries({
            "m": _or_any(st.just(m)),
            "R": _or_any(square),
            "columns": _or_any(st.lists(st.lists(_or_any(record), max_size=4), min_size=m, max_size=m)),
        })))}
    spec["schema_version"] = draw(_or_any(st.just(1)))
    spec["rho"] = draw(_or_any(st.lists(num, min_size=m, max_size=m)))
    seed = draw(st.none() | _or_any(st.integers(0, 2**63)))
    if seed is not None:
        spec["seed"] = seed
    return spec


@contextlib.contextmanager
def _hang_guard(seconds: float):
    """Raise TimeoutError in this thread if the block runs too long."""
    def expire(signum, frame):
        raise TimeoutError(f"still running after {seconds} s")

    previous = signal.signal(signal.SIGALRM, expire)
    signal.setitimer(signal.ITIMER_REAL, seconds)
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)


class TestConfigFuzz:
    @settings(max_examples=150, deadline=5000)
    @given(_fuzzed_configs())
    def test_every_config_runs_or_exits_with_one_error_line(self, spec):
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "cfg.json"
            path.write_text(json.dumps(spec))
            for command in COMMANDS:
                stderr = io.StringIO()
                with _hang_guard(20), contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(stderr):
                    code = main([*command, "--config", str(path), "--out", str(Path(tmp) / "-".join(command))])
                err = stderr.getvalue()
                assert "Traceback" not in err, (command, err)
                assert code == 0 or (code == 2 and (err.splitlines() or [""])[-1].startswith("error:")), (command, code, err)


def _json_reference(obj) -> str:
    return json.dumps(obj, indent=2, sort_keys=True) + "\n"


def _outcome(write, obj):
    """The text ``write`` makes of obj, or the type of what it raises."""
    try:
        return write(obj)
    except Exception as exc:
        return type(exc)


class _Level(enum.IntEnum):
    LOW = -3
    HIGH = 2**70


class _Name(str):
    """A str subclass: json writes it as the str it holds, no artifact holds one."""


# the values an artifact holds: dicts with str keys, lists, and leaves of
# exact type str, int, float, bool or None
_ints = st.integers() | st.integers(min_value=2**63, max_value=2**200) | st.integers(max_value=-(2**64))
_floats = st.floats(allow_nan=True, allow_infinity=True, allow_subnormal=True) | st.sampled_from(
    [math.nan, math.inf, -math.inf, -0.0, 5e-324, -2.225073858507201e-308]
)
_strings = st.text() | st.sampled_from(['"', "\\", 'a"b\\c', "\x00\x1f\x7f\t\n", "\u00e9\u20ac\U0001f600", "\u2028", "NaN", "nan"])
_leaves = st.none() | st.booleans() | _ints | _floats | _strings

_json_objects = st.recursive(
    _leaves,
    lambda inner: st.lists(inner, max_size=5)
    | st.dictionaries(_strings, inner, max_size=5)
    | st.lists(_floats | _ints | st.booleans(), max_size=6)
    | st.lists(_ints | st.booleans(), max_size=6)
    | st.lists(st.floats(allow_nan=False, allow_infinity=False), max_size=6),
    max_leaves=40,
)


class TestJsonWriter:
    @settings(max_examples=400, deadline=None)
    @given(_json_objects)
    def test_writes_json_dumps_text(self, obj):
        assert _outcome(cli._json_text, obj) == _outcome(_json_reference, obj)

    @pytest.mark.parametrize(
        "obj",
        [
            object(),
            np.int64(3),
            np.bool_(True),
            [1.0, np.int64(1)],
            {"a": [object()]},
            {(1, 2): 0},
            {"a": 1, 2: 3},
            {None: 1, True: 2},
            # json writes these, but no artifact holds one
            (1, 2),
            {"a": [0, (1.0,)]},
            np.float64(1.5),
            [_Level.HIGH],
            {"a": _Name("b")},
            {_Name("a"): 1},
            {1: "a"},
            {1.5: "a"},
            {True: "a"},
            {None: "a"},
        ],
        ids=[
            "object", "int64", "numpy-bool", "int64-in-list", "object-in-dict", "tuple-key", "mixed-keys",
            "none-bool-keys", "tuple", "tuple-in-list", "float64", "int-enum", "str-subclass-value",
            "str-subclass-key", "int-key", "float-key", "bool-key", "none-key",
        ],
    )
    def test_rejects_what_json_rejects(self, obj):
        assert _outcome(cli._json_text, obj) is TypeError

    def test_rejects_circular_containers(self):
        loop = []
        loop.append({"again": loop})
        assert _outcome(_json_reference, loop) is ValueError
        assert _outcome(cli._json_text, loop) is ValueError

    def test_leaves_no_reference_cycle(self):
        obj = {"a": [{"b": [1.0, 2.5]}, ["x", None, True]], "c": {"d": [], "e": {}}}
        gc.collect()
        gc.disable()
        try:
            cli._json_text(obj)
            assert gc.collect() == 0
        finally:
            gc.enable()

    def test_artifacts_are_json_dumps_text(self, model_config, tmp_path):
        for command in COMMANDS:
            assert main([*command, "--config", str(model_config), "--out", str(tmp_path / "-".join(command))]) == 0
        written = sorted(p for p in tmp_path.rglob("*.json") if p != model_config)
        assert len(written) == 12  # 7 artifacts and 5 manifests
        for path in written:
            text = path.read_text()
            assert text == _json_reference(json.loads(text)), path


class TestEncode:
    def test_worked_instance_single_jump(self, worked_config, tmp_path, capsys):
        out = tmp_path / "enc"
        assert main(["encode", "--config", str(worked_config), "--out", str(out)]) == 0
        obj = json.loads((out / "encoding.json").read_text())
        assert obj["jumps"] == [{"y": 0.5, "delta": [1.0, 0.3]}]
        assert obj["solver_check"]["pass"]

    @pytest.mark.parametrize("k", [0, 1, 2])
    def test_solver_check_names_the_first_failing_jump(self, tmp_path, monkeypatch, k):
        # one record, over one row per jump, so its instance is the jump
        model = {"m": 2, "weights": [[1.2, 0.9, 0.4], [1.0, 0.6]], "Q": [[1.0, 0.5], [0.5, 1.0]]}
        config = tmp_path / "cfg.json"
        config.write_text(json.dumps({**MODEL, "model": model, "seed": 3}))
        solve = cli.solver_jumps

        def shifted(fld, rho, levels):
            out = solve(fld, rho, levels)
            out[k] = (out[k][0] + 1e-9, *out[k][1:])
            return out

        monkeypatch.setattr(cli, "solver_jumps", shifted)
        assert main(["encode", "--config", str(config), "--out", str(tmp_path / "e")]) == 1
        obj = json.loads((tmp_path / "e" / "encoding.json").read_text())
        assert len(obj["jumps"]) == 3
        assert set(obj["solver_check"]) == {"pass", "checks"} and not obj["solver_check"]["pass"]
        [record] = obj["solver_check"]["checks"]
        assert set(record) == {f.name for f in dataclasses.fields(validate.Check)}
        assert (record["name"], record["tol"]) == validate.SOLVER_SPEC
        assert not record["passed"] and record["instance"] == k and record["seed"] is None

    def test_rerun_is_byte_identical(self, model_config, tmp_path):
        out_a, out_b = tmp_path / "a", tmp_path / "b"
        assert main(["encode", "--config", str(model_config), "--out", str(out_a)]) == 0
        assert main(["encode", "--config", str(model_config), "--out", str(out_b)]) == 0
        assert (out_a / "encoding.json").read_bytes() == (out_b / "encoding.json").read_bytes()

    def test_manifest_records_config_seed(self, model_config, tmp_path):
        out = tmp_path / "enc"
        assert main(["encode", "--config", str(model_config), "--out", str(out)]) == 0
        assert json.loads((out / "manifest.json").read_text())["seed"] == MODEL["seed"]
        assert main(["encode", "--config", str(model_config), "--seed", "8", "--out", str(out)]) == 0
        assert json.loads((out / "manifest.json").read_text())["seed"] == 8

    def test_manifest_records_config_hash_versions_and_stage_times(self, model_config, tmp_path):
        digest = hashlib.sha256(model_config.read_bytes()).hexdigest()
        versions = {
            "python": platform.python_version(),
            "numpy": metadata.version("numpy"),
            "scipy": metadata.version("scipy"),
        }
        stages = {
            ("sample",): {"sample", "components", "write"},
            ("explore", "--mode", "graph"): {"sample", "explore", "write"},
            ("explore", "--mode", "field"): {"build", "explore", "write"},
            ("encode",): {"build", "encode", "verify", "write"},
            ("curve",): {"build", "encode", "verify", "identity_gap", "write"},
        }
        for command, names in stages.items():
            out = tmp_path / "-".join(command)
            assert main([*command, "--config", str(model_config), "--out", str(out)]) == 0
            manifest = json.loads((out / "manifest.json").read_text())
            assert manifest["config_sha256"] == digest
            assert manifest["versions"] == versions
            assert set(manifest["stage_seconds"]) == names
            assert all(s >= 0.0 for s in manifest["stage_seconds"].values())
        out = tmp_path / "validate"
        assert main(["validate", "functions", "--reps", "1000", "--out", str(out)]) == 0
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["config_sha256"] is None and manifest["stage_seconds"] is None
        assert manifest["versions"] == versions

    def test_seed_override_changes_output(self, model_config, tmp_path):
        out_a, out_b = tmp_path / "a", tmp_path / "b"
        main(["encode", "--config", str(model_config), "--out", str(out_a)])
        main(["encode", "--config", str(model_config), "--seed", "8", "--out", str(out_b)])
        assert (out_a / "encoding.json").read_bytes() != (out_b / "encoding.json").read_bytes()


class TestCurveCommand:
    def test_worked_instance_artifacts(self, worked_config, tmp_path):
        out = tmp_path / "curve"
        assert main(["curve", "--config", str(worked_config), "--out", str(out)]) == 0
        report = json.loads((out / "pathwise_report.json").read_text())
        assert report["pass"]
        exc = json.loads((out / "excursions.json").read_text())
        assert len(exc) == 1
        assert exc[0]["l"] == pytest.approx(1.0, abs=1e-12)
        assert exc[0]["r"] == pytest.approx(2.3, abs=1e-12)
        header = (out / "curve.csv").read_text().splitlines()[0]
        assert header == "s,curve_0,curve_1,process_0"
        assert (out / "manifest.json").exists()

    def test_level_plateaus_one_rounding_apart(self, tmp_path):
        # the level maps plateau at 0.5 + 0.3 = 0.8 and 0.7 + 0.1 =
        # 0.7999999999999999; the sum of their inverses merges both jumps at
        # the lower level, and the compatibility check used to find no jump
        # at 0.8 and fail with a CurveInvariantError traceback
        spec = json.loads(json.dumps(WORKED))
        spec["field"]["R"] = [[1.0, 0.2], [0.3, 1.0]]
        spec["field"]["columns"] = [[{"t": 0.5, "w": 1.0}], [{"t": 0.7, "w": 0.5}]]
        path = tmp_path / "plateaus.json"
        path.write_text(json.dumps(spec))
        out = tmp_path / "curve"
        assert main(["curve", "--config", str(path), "--out", str(out)]) == 0
        report = json.loads((out / "pathwise_report.json").read_text())
        assert report["pass"]
        assert max(c.get("gap", 0.0) for c in report["checks"]) <= 1e-15

    def test_each_stage_runs_once(self, model_config, tmp_path, monkeypatch):
        calls = dict.fromkeys(("composed_processes", "encode_components", "hitting_process"), 0)

        def counted(name, fn):
            def wrapper(*args, **kwargs):
                calls[name] += 1
                return fn(*args, **kwargs)

            return wrapper

        for name in list(calls):
            for module in (cli, curve, validate):
                if hasattr(module, name):
                    monkeypatch.setattr(module, name, counted(name, getattr(module, name)))
        # the bundle builds its stages on first read; count the builds too
        for stage in ("processes", "encoded"):
            calls[f"build {stage}"] = 0
            prop = vars(curve.CurveBundle)[stage]
            monkeypatch.setattr(prop, "func", counted(f"build {stage}", prop.func))
        # a path inverts itself once: two level maps, the combined level, and
        # the two curve coordinates for both rows' compositions
        calls["build inverse"] = 0
        prop = vars(paths.PiecewisePath)["inverse"]
        monkeypatch.setattr(prop, "func", counted("build inverse", prop.func))
        assert main(["curve", "--config", str(model_config), "--out", str(tmp_path / "c")]) == 0
        assert calls == {
            "composed_processes": 1,
            "encode_components": 1,
            "hitting_process": 1,
            "build processes": 1,
            "build encoded": 1,
            "build inverse": 6,
        }

    def test_rerun_byte_identical(self, worked_config, tmp_path):
        out_a, out_b = tmp_path / "a", tmp_path / "b"
        main(["curve", "--config", str(worked_config), "--out", str(out_a)])
        main(["curve", "--config", str(worked_config), "--out", str(out_b)])
        for name in ("curve.csv", "excursions.json", "pathwise_report.json"):
            assert (out_a / name).read_bytes() == (out_b / name).read_bytes()


class TestSampleExplore:
    def test_sample_writes_graph_and_components(self, model_config, tmp_path):
        out = tmp_path / "sample"
        assert main(["sample", "--config", str(model_config), "--out", str(out)]) == 0
        lines = (out / "graph.csv").read_text().splitlines()
        assert lines[0] == "u,v"
        comps = json.loads((out / "components.json").read_text())
        assert sum(len(c["vertices"]) for c in comps) == 2

    def test_sample_requires_model(self, worked_config, tmp_path):
        assert main(["sample", "--config", str(worked_config), "--out", str(tmp_path / "x")]) == 2

    def test_explore_field_mode_on_deterministic_field(self, worked_config, tmp_path):
        out = tmp_path / "explore"
        assert main(["explore", "--config", str(worked_config), "--out", str(out)]) == 0
        trace = json.loads((out / "trace.json").read_text())
        assert trace == [
            {
                "k": 1,
                "kind": "root",
                "vertex": [0, 0],
                "zeta": 1,
                "children": [],
                "S_L": [0.5, 0.5],
                "S_R": [1.5, 0.8],
                "Y": 0.5,
            }
        ]

    def test_explore_graph_mode(self, model_config, tmp_path):
        out = tmp_path / "explore"
        assert main(["explore", "--config", str(model_config), "--mode", "graph", "--out", str(out)]) == 0
        trace = json.loads((out / "trace.json").read_text())
        assert len(trace) == 2


def _csv_rows(data: bytes) -> list[list[str]]:
    return list(csv.reader(io.StringIO(data.decode("ascii"), newline="")))


def _assert_csv_writer_form(data: bytes) -> None:
    """``data`` is what csv.writer writes for its own rows, in its default
    dialect, with every line ended by \\r\\n."""
    buf = io.StringIO(newline="")
    csv.writer(buf).writerows(_csv_rows(data))
    assert data == buf.getvalue().encode("ascii")
    *lines, rest = data.split(b"\r\n")
    assert lines and rest == b"" and not any(b"\r" in line or b"\n" in line for line in lines)


class TestCsvFormat:
    @pytest.mark.parametrize("spec", [M1_MODEL, WORKED, M3_MODEL], ids=["m1-model", "worked-field", "m3-model"])
    def test_curve_csv_is_csv_writer_text(self, tmp_path, spec):
        config = tmp_path / "config.json"
        config.write_text(json.dumps(spec))
        assert main(["curve", "--config", str(config), "--out", str(tmp_path / "o")]) == 0
        data = (tmp_path / "o" / "curve.csv").read_bytes()
        _assert_csv_writer_form(data)
        header, *rows = _csv_rows(data)
        m = spec["model" if "model" in spec else "field"]["m"]
        assert header == ["s", *(f"curve_{i}" for i in range(m)), "process_0"]
        # every field is the repr of a float
        assert rows and all(repr(float(x)) == x for row in rows for x in row)

    def test_graph_csv_is_csv_writer_text(self, tmp_path):
        config = tmp_path / "config.json"
        spec = {**MODEL, "model": {"m": 2, "weights": [[1.2, 0.9, 0.4], [1.0, 0.6]], "Q": [[1.0, 0.5], [0.5, 1.0]]}}
        config.write_text(json.dumps(spec))
        assert main(["sample", "--config", str(config), "--out", str(tmp_path / "o")]) == 0
        data = (tmp_path / "o" / "graph.csv").read_bytes()
        _assert_csv_writer_form(data)
        header, *rows = _csv_rows(data)
        assert header == ["u", "v"] and rows


def _assert_json_dumps_form(out: Path, suite: str) -> None:
    for name in (f"validate_{suite}.json", "manifest.json"):
        text = (out / name).read_text()
        assert text == _json_reference(json.loads(text)), name


class TestValidate:
    def test_functions_suite_passes(self, tmp_path, capsys):
        out = tmp_path / "v"
        assert main(["validate", "functions", "--out", str(out), "--reps", "20000"]) == 0
        text = capsys.readouterr().out
        assert "smooth composition with inverse" in text
        assert "[PASS]" in text
        report = json.loads((out / "validate_functions.json").read_text())
        assert report["pass"]
        _assert_json_dumps_form(out, "functions")

    def test_pathwise_suite_passes(self, tmp_path):
        out = tmp_path / "v"
        assert main(["validate", "pathwise", "--out", str(out), "--reps", "100000"]) == 0
        _assert_json_dumps_form(out, "pathwise")

    def test_distributional_suite_small(self, tmp_path):
        out = tmp_path / "v"
        code = main(
            [
                "validate",
                "distributional",
                "--out",
                str(out),
                "--reps",
                "5000",
                "--calibration-seeds",
                "5",
            ]
        )
        assert code == 0
        _assert_json_dumps_form(out, "distributional")

    def test_runs_the_checks_of_the_validate_module(self, tmp_path, capsys, monkeypatch):
        # the acceptance tests call the same functions, so a failure there
        # is a failure of the command
        failing = validate.Check("planted failing check", False, 1.0, 0.0, 0, instance=3)
        monkeypatch.setattr(validate, "path_algebra_checks", lambda n, seed: [failing])
        assert main(["validate", "functions", "--out", str(tmp_path / "v")]) == 1
        assert "[FAIL] planted failing check" in capsys.readouterr().out
        report = json.loads((tmp_path / "v" / "validate_functions.json").read_text())
        assert not report["pass"]
        assert report["checks"] == [failing.to_json_obj()]

    def test_output_root_env(self, worked_config, tmp_path, monkeypatch):
        monkeypatch.setenv("BLOCKWALK_OUT", str(tmp_path / "root"))
        assert main(["encode", "--config", str(worked_config)]) == 0
        assert (tmp_path / "root" / "encode" / "encoding.json").exists()
