import hashlib
import json
import os
import platform
import subprocess
import sys
from importlib import metadata
from pathlib import Path

import pytest

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
        ],
        ids=[
            "seed-list", "seed-string", "seed-float", "seed-bool", "seed-negative",
            "weights-scalar", "weights-flat", "weights-string-entry", "weights-huge-int", "rho-huge-int",
            "Q-scalar", "Q-null-entry",
            "columns-scalar", "columns-of-records", "record-list-time", "R-scalar", "R-bool-entry",
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


class TestEncode:
    def test_worked_instance_single_jump(self, worked_config, tmp_path, capsys):
        out = tmp_path / "enc"
        assert main(["encode", "--config", str(worked_config), "--out", str(out)]) == 0
        obj = json.loads((out / "encoding.json").read_text())
        assert obj["jumps"] == [{"y": 0.5, "delta": [1.0, 0.3]}]
        assert obj["solver_check"]["pass"]

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
            "encode": {"build", "encode", "verify", "write"},
            "curve": {"build", "encode", "verify", "identity_gap", "write"},
        }
        for command, names in stages.items():
            out = tmp_path / command
            assert main([command, "--config", str(model_config), "--out", str(out)]) == 0
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


class TestValidate:
    def test_functions_suite_passes(self, tmp_path, capsys):
        out = tmp_path / "v"
        assert main(["validate", "functions", "--out", str(out), "--reps", "20000"]) == 0
        text = capsys.readouterr().out
        assert "smooth composition with inverse" in text
        assert "[PASS]" in text
        report = json.loads((out / "validate_functions.json").read_text())
        assert report["pass"]

    def test_pathwise_suite_passes(self, tmp_path):
        out = tmp_path / "v"
        assert main(["validate", "pathwise", "--out", str(out), "--reps", "100000"]) == 0

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
