"""Command-line front end: sample, explore, encode, curve, validate.

Every run writes a manifest next to its artifacts; artifacts themselves are
deterministic functions of (config, seed), so reruns are byte-identical.
"""

from __future__ import annotations

import argparse
import functools
import gc
import hashlib
import json
import math
import os
import platform
import sys
import time
import warnings
from dataclasses import dataclass
from importlib import metadata
from pathlib import Path

from . import __version__, validate
from .curve import EXCURSION_LEVEL_TOL, build_curve, composed_processes, encode_components
from .curve import _check_jumps_reach_every_row
from .field import (
    Field,
    HittingProcess,
    build_field,
    field_exploration,
    field_from_jumps,
    hitting_process,
    sample_clocks,
    solver_jumps,
)
from .model import BlockModel, _check_rho, connected_components, graph_exploration, sample_graph, scaled_mass
from .paths import probe_times

OUTPUT_ROOT_ENV = "BLOCKWALK_OUT"
SCHEMA_VERSION = 1


class ConfigError(ValueError):
    pass


@dataclass(frozen=True)
class RunConfig:
    model: BlockModel | None
    field: Field | None
    rho: tuple[float, ...]
    seed: int

    def realize_field(self) -> Field:
        if self.field is not None:
            return self.field
        return build_field(self.model, sample_clocks(self.model, self.seed))


def load_config(path: str | Path) -> RunConfig:
    try:
        raw = json.loads(Path(path).read_text())
    except json.JSONDecodeError as exc:
        raise ConfigError(f"{path}: invalid JSON at line {exc.lineno}: {exc.msg}") from exc
    except OSError as exc:
        raise ConfigError(f"{path}: cannot read config: {exc.strerror or exc}") from exc
    _require_keys(raw, {"schema_version", "rho"}, {"model", "field", "seed"}, "config")
    if not _is_int(raw["schema_version"]) or raw["schema_version"] != SCHEMA_VERSION:
        raise ConfigError(f"unsupported schema_version {raw['schema_version']!r}")
    if ("model" in raw) == ("field" in raw):
        raise ConfigError("config must contain exactly one of 'model' or 'field'")
    model = None
    fld = None
    if "model" in raw:
        _require_keys(raw["model"], {"m", "weights", "Q"}, set(), "config.model")
        spec = raw["model"]
        _require_number_rows(spec["weights"], "config.model.weights")
        _require_number_rows(spec["Q"], "config.model.Q")
        if not _is_int(spec["m"]):
            raise ConfigError("config.model.m: expected an integer")
        if len(spec["weights"]) != spec["m"]:
            raise ConfigError("config.model: m does not match the number of weight vectors")
        try:
            # BlockModel's warnings are reported in the CLI's terms, one line each
            with warnings.catch_warnings(record=True) as caught:
                warnings.simplefilter("always")
                model = BlockModel(
                    tuple(tuple(map(float, w)) for w in spec["weights"]),
                    tuple(tuple(map(float, row)) for row in spec["Q"]),
                )
        except ValueError as exc:
            raise ConfigError(f"config.model: {exc}") from exc
        for caught_warning in caught:
            print(f"warning: config.model: {caught_warning.message}", file=sys.stderr)
    else:
        _require_keys(raw["field"], {"m", "R", "columns"}, set(), "config.field")
        spec = raw["field"]
        if not isinstance(spec["columns"], list) or not all(isinstance(col, list) for col in spec["columns"]):
            raise ConfigError("config.field.columns: expected a list of lists of {t, w} records")
        _require_number_rows(spec["R"], "config.field.R")
        if not _is_int(spec["m"]):
            raise ConfigError("config.field.m: expected an integer")
        if len(spec["columns"]) != spec["m"] or len(spec["R"]) != spec["m"]:
            raise ConfigError("config.field: m does not match columns/R")
        for j, col in enumerate(spec["columns"]):
            for k, rec in enumerate(col):
                _require_keys(rec, {"t", "w"}, set(), f"config.field.columns[{j}][{k}]")
                if not (_is_number(rec["t"]) and _is_number(rec["w"])):
                    raise ConfigError(f"config.field.columns[{j}][{k}]: t and w must be numbers")
        try:
            fld = field_from_jumps(
                [[(float(c["t"]), float(c["w"])) for c in col] for col in spec["columns"]],
                [[float(x) for x in row] for row in spec["R"]],
            )
        except ValueError as exc:
            raise ConfigError(f"config.field: {exc}") from exc
    if not isinstance(raw["rho"], list) or not all(_is_number(r) and math.isfinite(r) for r in raw["rho"]):
        raise ConfigError("config.rho: expected a list of finite numbers")
    rho = tuple(float(r) for r in raw["rho"])
    try:
        _check_rho(rho, (model or fld).m)
    except ValueError as exc:
        raise ConfigError(f"config.rho: {exc}") from exc
    seed = raw.get("seed", 0)
    if not _is_int(seed) or seed < 0:
        raise ConfigError("config.seed: expected a nonnegative integer")
    return RunConfig(model, fld, rho, seed)


#: from 2**13 up adjacent floats lie more than 1e-12 apart, so a check
#: that compares such times to 1e-12 holds only by luck
RESOLVABLE_TIME = 2.0**13


def _check_resolvable(largest_time: float) -> None:
    """Refuse a field whose checks would compare times up to
    ``largest_time`` to 1e-12 where floats cannot hold them that close."""
    if not largest_time < RESOLVABLE_TIME:
        raise ConfigError(
            f"the checks would compare times up to {largest_time:.6g}, past {RESOLVABLE_TIME:g}, "
            "where floats lie more than 1e-12 apart; rescale the config"
        )


def _check_excursions_resolvable(fld: Field, process: HittingProcess) -> None:
    """Refuse a field with a jump that curve cannot read as an excursion
    of every row: a column with a zero R entry, named as such, or a jump
    that moves a row by no more than EXCURSION_LEVEL_TOL, the slack for
    rounding noise with which curve reads the composed processes'
    excursions, or by 0, as where R[i][j] * w underflows."""
    _check_jumps_reach_every_row(fld)
    smallest = min((x for delta in process.deltas for x in delta), default=math.inf)
    if not smallest > EXCURSION_LEVEL_TOL:
        raise ConfigError(
            f"a jump moves a row by only {smallest:.6g}, within the excursions' rounding slack "
            f"of {EXCURSION_LEVEL_TOL:g}; rescale the config"
        )


def _check_levels_distinct(process: HittingProcess) -> None:
    """Refuse a field with two components at one level, as when a window
    ends exactly on the next jump time: T jumps once for both there, so
    neither the solver nor the curve can tell their jumps apart."""
    for low, high in zip(process.levels, process.levels[1:]):
        if not low < high:
            raise ConfigError(f"two components are found at one level, {low:.6g}; move a jump time")


def _is_int(x) -> bool:
    """A JSON integer: Python's True equals 1 and 2.0 equals 2, but neither is one."""
    return isinstance(x, int) and not isinstance(x, bool)


def _is_number(x) -> bool:
    """A JSON number that converts to a float (ints past 1e308 do not)."""
    if isinstance(x, bool) or not isinstance(x, (int, float)):
        return False
    try:
        float(x)
    except OverflowError:
        return False
    return True


def _require_number_rows(rows, where: str) -> None:
    if not isinstance(rows, list) or not all(isinstance(r, list) and all(map(_is_number, r)) for r in rows):
        raise ConfigError(f"{where}: expected a list of lists of numbers")


def _require_keys(obj: dict, required: set, optional: set, where: str) -> None:
    if not isinstance(obj, dict):
        raise ConfigError(f"{where}: expected an object")
    missing = required - set(obj)
    if missing:
        raise ConfigError(f"{where}: missing fields {sorted(missing)}")
    unknown = set(obj) - required - optional
    if unknown:
        raise ConfigError(f"{where}: unknown fields {sorted(unknown)} (schema is closed)")


# -- output helpers ------------------------------------------------------------


def _out_dir(args, command: str) -> Path:
    if args.out:
        root = Path(args.out)
    else:
        root = Path(os.environ.get(OUTPUT_ROOT_ENV, "blockwalk-out")) / command
    try:
        root.mkdir(parents=True, exist_ok=True)
    except OSError as exc:  # FileExistsError when root is a file
        raise ConfigError(f"{root}: cannot make output directory: {exc.strerror or exc}") from exc
    return root


def _write_json(path: Path, obj) -> None:
    path.write_text(_json_text(obj))


def _write_csv(path: Path, header: list[str], rows) -> None:
    """``csv.writer``'s default dialect in one string: fields joined by
    commas and each line ended by \\r\\n, none quoted, since no field
    written here has a comma, quote or line break."""
    path.write_text("\r\n".join([",".join(header), *map(",".join, rows), ""]), newline="")


_encode_str = json.encoder.encode_basestring_ascii
_NON_FINITE = {"nan": "NaN", "inf": "Infinity", "-inf": "-Infinity"}


def _float_text(x: float) -> str:
    text = float.__repr__(x)
    return _NON_FINITE.get(text, text)


#: the text of a leaf of exact type str, int, float, bool or None
_leaf_writer = {
    str: _encode_str,
    int: int.__repr__,
    float: _float_text,
    bool: {True: "true", False: "false"}.__getitem__,
    type(None): {None: "null"}.__getitem__,
}.get


def _json_text(obj) -> str:
    """``json.dumps(obj, indent=2, sort_keys=True) + "\\n"``, byte for byte,
    for what the artifacts hold: dicts with keys of exact type str, lists and
    leaves of exact type str, int, float, bool or None.  Any other value or
    key raises TypeError, as json does for a value it cannot write.

    With ``indent`` set, json encodes in pure Python, one generator per
    container.  This writer appends to one list and joins it once.  The
    writer is a module function, not a closure, so no reference cycle keeps
    the list alive after the call.
    """
    chunks: list[str] = []
    _put(obj, "", "\n", chunks.append, set())
    chunks.append("\n")
    return "".join(chunks)


def _put(o, head: str, nl: str, out, active: set[int]) -> None:
    # head is the text before o, nl a newline and o's indentation, out
    # appends a chunk, and active holds the ids of the containers being
    # written: json's circular check.  A leaf goes into one chunk with the
    # text before it.
    t = type(o)
    if t is not list and t is not dict:
        leaf = _leaf_writer(t)
        if leaf is None:
            raise TypeError(f"artifacts hold no value of type {t.__name__}")
        out(head + leaf(o))
        return
    if not o:
        out(head + ("[]" if t is list else "{}"))
        return
    if id(o) in active:
        raise ValueError("Circular reference detected")
    active.add(id(o))
    inner = nl + "  "
    sep = "," + inner
    if t is list:
        lead = head + "[" + inner
        for v in o:
            leaf = _leaf_writer(type(v))
            if leaf is None:
                _put(v, lead, inner, out, active)
            else:
                out(lead + leaf(v))
            lead = sep
        out(nl + "]")
    else:
        lead = head + "{" + inner
        for k, v in sorted(o.items()):
            if type(k) is not str:
                raise TypeError(f"artifact keys must be of type str, not {type(k).__name__}")
            name = lead + _encode_str(k) + ": "
            leaf = _leaf_writer(type(v))
            if leaf is None:
                _put(v, name, inner, out, active)
            else:
                out(name + leaf(v))
            lead = sep
        out(nl + "}")
    active.remove(id(o))


def _write_manifest(
    out: Path,
    command: str,
    args,
    started: float,
    seed: int | None,
    stage_seconds: dict | None = None,
    counters: dict | None = None,
) -> None:
    config = getattr(args, "config", None)
    _write_json(
        out / "manifest.json",
        {
            "command": command,
            "config": str(config) if config else None,
            "config_sha256": hashlib.sha256(Path(config).read_bytes()).hexdigest() if config else None,
            "seed": seed,
            "out_dir": str(out),
            "artifact_version": __version__,
            "versions": {
                "python": platform.python_version(),
                "numpy": _dist_version("numpy"),
                "scipy": _dist_version("scipy"),
            },
            "stage_seconds": stage_seconds,
            "wall_clock_seconds": round(time.time() - started, 6),
            **({"counters": counters} if counters else {}),
        },
    )


@functools.cache
def _dist_version(name: str) -> str | None:
    # read from the installed metadata, so that recording scipy's version
    # does not import it; the lookup scans sys.path, so it is made once
    try:
        return metadata.version(name)
    except metadata.PackageNotFoundError:
        return None


class _Stages:
    """Seconds of consecutive stages: ``lap(name)`` ends the stage that
    began at the previous lap (or at construction)."""

    def __init__(self) -> None:
        self.seconds: dict[str, float] = {}
        self._mark = time.perf_counter()

    def lap(self, name: str) -> None:
        now = time.perf_counter()
        self.seconds[name] = round(now - self._mark, 6)
        self._mark = now


def _effective_config(args) -> RunConfig:
    cfg = load_config(args.config)
    if args.seed is not None:
        cfg = RunConfig(cfg.model, cfg.field, cfg.rho, args.seed)
    return cfg


# -- subcommands ---------------------------------------------------------------


def cmd_sample(args) -> int:
    started = time.time()
    stages = _Stages()
    cfg = _effective_config(args)
    if cfg.model is None:
        raise ConfigError("sample needs a model config, not a deterministic field")
    out = _out_dir(args, "sample")
    graph = sample_graph(cfg.model, cfg.seed)
    stages.lap("sample")
    comps = connected_components(graph)
    stages.lap("components")
    edges = sorted(sorted(e) for e in graph.edges)
    _write_csv(out / "graph.csv", ["u", "v"], ((f"{lu}:{iu}", f"{lv}:{iv}") for (lu, iu), (lv, iv) in edges))
    _write_json(
        out / "components.json",
        [
            {
                "vertices": [list(v) for v in c.vertices],
                "weight_by_type": list(c.weight_by_type),
                "scaled_mass": scaled_mass(c.weight_by_type, cfg.rho, cfg.model.Q),
            }
            for c in comps
        ],
    )
    stages.lap("write")
    _write_manifest(out, "sample", args, started, cfg.seed, stages.seconds)
    print(f"sample: {len(graph.edges)} edges, {len(comps)} components -> {out}")
    return 0


def cmd_explore(args) -> int:
    started = time.time()
    stages = _Stages()
    cfg = _effective_config(args)
    if args.mode == "graph":
        if cfg.model is None:
            raise ConfigError("graph exploration needs a model config")
        graph = sample_graph(cfg.model, cfg.seed)
        stages.lap("sample")
        trace = graph_exploration(graph, cfg.rho, cfg.seed + 1)
        stages.lap("explore")
        out = _out_dir(args, "explore")
    else:
        fld = cfg.realize_field()
        stages.lap("build")
        trace = field_exploration(fld, cfg.rho)
        stages.lap("explore")
        out = _out_dir(args, "explore")
        _write_json(out / "field.json", fld.columns_json_obj())
    _write_json(out / "trace.json", trace.to_json_obj())
    stages.lap("write")
    _write_manifest(out, "explore", args, started, cfg.seed, stages.seconds)
    print(f"explore[{args.mode}]: {len(trace.steps)} steps, {trace.zeta_final} components -> {out}")
    return 0


def cmd_encode(args) -> int:
    started = time.time()
    stages = _Stages()
    cfg = _effective_config(args)
    fld = cfg.realize_field()
    stages.lap("build")
    process = hitting_process(fld, cfg.rho)
    if process.levels:  # with no jump the solver check compares nothing
        _check_resolvable(max(process.evaluate(process.levels[-1] + 1.0)))
    _check_levels_distinct(process)
    stages.lap("encode")
    solved = solver_jumps(fld, cfg.rho, process.levels)
    # one row per jump, so a failing record names the first failing jump
    checks = validate._checks([validate.SOLVER_SPEC], [(g,) for g in validate.jump_gaps(process, solved)], None)
    ok = checks[0].passed
    stages.lap("verify")
    obj = process.to_json_obj()
    obj["solver_check"] = {"pass": ok, "checks": [c.to_json_obj() for c in checks]}
    out = _out_dir(args, "encode")
    _write_json(out / "encoding.json", obj)
    stages.lap("write")
    counters = {"jumps": len(process.levels), "probes": solved.probes, "solver_sweeps": solved.sweeps}
    _write_manifest(out, "encode", args, started, cfg.seed, stages.seconds, counters)
    print(f"encode: {len(process.levels)} jumps, solver check {'pass' if ok else 'FAIL'} -> {out}")
    return 0 if ok else 1


def cmd_curve(args) -> int:
    started = time.time()
    stages = _Stages()
    cfg = _effective_config(args)
    fld = cfg.realize_field()
    process = hitting_process(fld, cfg.rho)
    # the curve's parameter is the total time; the checks run to one level
    # past the last jump
    _check_resolvable(process.total_time(max(process.levels, default=0.0) + 1.0))
    _check_levels_distinct(process)
    _check_excursions_resolvable(fld, process)
    bundle = build_curve(fld, cfg.rho)
    stages.lap("build")
    processes = composed_processes(fld, bundle)
    encoded = encode_components(fld, bundle)
    stages.lap("encode")
    gaps = validate.excursion_gaps(process, encoded)
    stages.lap("verify")
    identity_gap = validate.curve_identity_gap(bundle, process)
    specs = (*validate.EXCURSION_SPECS, validate.CURVE_IDENTITY_SPEC)
    checks = validate._checks(specs, [(*gaps, identity_gap)], None)
    ok = all(c.passed for c in checks)
    stages.lap("identity_gap")

    grid = probe_times(*bundle.curve, *processes)
    columns = [grid] + [g.eval_many(grid) for g in (*bundle.curve, processes[0])]
    header = ["s"] + [f"curve_{i}" for i in range(fld.m)] + ["process_0"]
    out = _out_dir(args, "curve")
    _write_csv(out / "curve.csv", header, zip(*(map(repr, column) for column in columns)))
    _write_json(out / "excursions.json", [e.to_json_obj() for e in encoded])
    _write_json(out / "pathwise_report.json", {"pass": ok, "checks": [c.to_json_obj() for c in checks]})
    stages.lap("write")
    _write_manifest(out, "curve", args, started, cfg.seed, stages.seconds)
    print(f"curve: pathwise report {'pass' if ok else 'FAIL'} -> {out}")
    return 0 if ok else 1


def cmd_validate(args) -> int:
    started = time.time()
    out = _out_dir(args, "validate")
    payload = {"suite": args.suite}
    if args.suite == "functions":
        checks = validate.path_algebra_checks(max(50, args.reps // 1000), args.seed)
    elif args.suite == "pathwise":
        n = max(20, args.reps // 5000)
        checks = validate.encoding_checks(n, args.seed) + validate.curve_checks(n, args.seed)
    else:
        laws = [validate.law_checks(f, args.reps, args.seed) for f in range(len(validate.FIXTURES))]
        checks = [c for law in laws for c in law.checks]
        if args.calibration_seeds:
            checks.append(validate.calibration_check(args.calibration_seeds))
        payload["experiments"] = [law.experiment for law in laws]
    ok = all(c.passed for c in checks)
    for c in checks:
        where = "" if c.instance is None else f", first failing instance {c.instance}"
        print(f"[{'PASS' if c.passed else 'FAIL'}] {c.name}  (gap {c.gap:.3g}, tol {c.tol:g}, seed {c.seed}{where})")
    payload.update({"pass": ok, "checks": [c.to_json_obj() for c in checks]})
    _write_json(out / f"validate_{args.suite}.json", payload)
    _write_manifest(out, "validate", args, started, args.seed)
    print(f"validate[{args.suite}]: {'pass' if ok else 'FAIL'} -> {out}")
    return 0 if ok else 1


# -- entry point -----------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="blockwalk",
        description="Sample block-model graphs, explore them, and verify their hitting-time encodings.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--config", required=True, help="JSON config path")
        p.add_argument("--seed", type=int, default=None, help="override the config seed")
        p.add_argument("--out", default=None, help="output directory")

    p = sub.add_parser("sample", help="sample a graph and its components")
    common(p)
    p.set_defaults(func=cmd_sample)

    p = sub.add_parser("explore", help="run an exploration and dump its trace")
    common(p)
    p.add_argument("--mode", choices=("field", "graph"), default="field")
    p.set_defaults(func=cmd_explore)

    p = sub.add_parser("encode", help="hitting-process jumps with solver cross-check")
    common(p)
    p.set_defaults(func=cmd_encode)

    p = sub.add_parser("curve", help="curve, composed process and excursion encoding")
    common(p)
    p.set_defaults(func=cmd_curve)

    p = sub.add_parser("validate", help="run a verification suite")
    p.add_argument("suite", choices=("functions", "pathwise", "distributional"))
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", default=None)
    p.add_argument("--reps", type=int, default=100_000, help="Monte Carlo replications")
    p.add_argument("--calibration-seeds", type=int, default=0, help="re-run count for calibration")
    p.set_defaults(func=cmd_validate)
    return parser


def _check_counts(args) -> None:
    """Refuse a negative ``--seed`` or ``--calibration-seeds``, a ``--reps``
    below 1, and one below 1000 for the distributional suite: numpy would
    reject the seed deep inside a command without naming it, a negative
    seed count would run no calibration yet pass, the functions and pathwise
    suites would floor such a count at their least number of draws and pass,
    and ``stats`` would refuse the last one late, in a line not naming it."""
    for option, least in (("seed", 0), ("calibration_seeds", 0), ("reps", 1)):
        value = getattr(args, option, None)
        if value is not None and value < least:
            kind = "nonnegative" if least == 0 else "positive"
            raise ConfigError(f"--{option.replace('_', '-')}: expected a {kind} integer, not {value}")
    if getattr(args, "suite", None) == "distributional" and args.reps < 1000:
        raise ConfigError(f"--reps: the distributional suite needs at least 1000, not {args.reps}")


@functools.cache
def _freeze_import_heap() -> None:
    gc.freeze()


def main(argv: list[str] | None = None) -> int:
    # The objects alive before the first command (numpy, scipy, the stdlib
    # and blockwalk: tens of thousands of containers) never become garbage,
    # yet every full collection would rescan them.  Freezing moves those
    # objects out of the collector's sight; refcounting still frees a
    # frozen object.  The cache makes later calls O(1):
    # gc.get_freeze_count() walks the whole frozen list, so it is no cheap
    # guard.
    _freeze_import_heap()
    args = build_parser().parse_args(argv)
    try:
        _check_counts(args)
        return args.func(args)
    except (ConfigError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
