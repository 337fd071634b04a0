"""The benchmark's four workloads: their inputs, operations and checks.

A workload makes its inputs from the seed in ``setup``, lists the
operations of one round in ``operations`` and checks the outputs of a
round in ``check``.  Operations call blockwalk through module attributes
(``cli.main``, ``stats.mc_field_samples``, ...) at call time, so that the
traced run's wrappers see every call.  Checks compare against ``oracles``,
never against stored output.
"""

from __future__ import annotations

import contextlib
import csv
import hashlib
import io
import json
import math
from collections import Counter
from dataclasses import dataclass
from pathlib import Path

import numpy as np

import oracles
from blockwalk import cli, curve, field, instances, paths, stats
from blockwalk.model import BlockModel

#: the near-critical two-type family of the curve and graph workloads
NEAR_CRITICAL_Q = ((1.0, 0.5), (0.5, 1.0))
WARMUP_N = 40

#: pathwise checks: sweep, solver and curve agree to EXACT; the algebra
#: identities and the curve rows hold to PROP; sums over many jumps to
#: CONSERVE relative to their size
EXACT = 1e-12
PROP = 1e-9
CONSERVE = 1e-9


@dataclass(frozen=True)
class Check:
    name: str
    ok: bool
    detail: str = ""


class Workload:
    """Base class.  ``succeeded(output)`` tells a finished operation from a
    failed one; an operation that raises has failed too."""

    name = ""

    def __init__(self, seed: int, out: Path, tiny: bool = False):
        self.seed = seed
        self.out = out
        self.tiny = tiny

    def seed_for(self, *path: int) -> int:
        """A program seed for one input, derived from the workload seed."""
        return int(np.random.SeedSequence((self.seed, *path)).generate_state(1)[0])

    def setup(self) -> None:
        raise NotImplementedError

    def operations(self) -> list[tuple[str, object]]:
        raise NotImplementedError

    def check(self, outputs: list) -> list[Check]:
        raise NotImplementedError

    def succeeded(self, output) -> bool:
        return True

    def fingerprint(self, outputs: list):
        """What must repeat exactly from one round to the next."""
        return outputs


def run_cli(argv: list[str]) -> int:
    """blockwalk's command line, in-process, with its progress line dropped."""
    with contextlib.redirect_stdout(io.StringIO()):
        return cli.main(argv)


def near_critical_config(n: int, rng: np.random.Generator) -> dict:
    """n/2 vertices per type with weights ~ U(0.5, 1.5)/sqrt(n/2), Q with
    unit diagonal and 0.5 across, rho = (1, 1)."""
    scale = math.sqrt(n / 2)
    weights = tuple(
        tuple(sorted((rng.uniform(0.5, 1.5, n // 2) / scale).tolist(), reverse=True))
        for _ in range(2)
    )
    model = BlockModel(weights, NEAR_CRITICAL_Q)
    return {
        "schema_version": 1,
        "model": model.to_json_obj(),
        "rho": [1.0, 1.0],
        "seed": int(rng.integers(2**31)),
    }


def worst(values, default: float = 0.0) -> float:
    return max(values, default=default)


def sum_gap(vectors, total) -> float:
    """Largest coordinate gap between the sum of ``vectors`` and ``total``."""
    return max(abs(math.fsum(v[i] for v in vectors) - t) for i, t in enumerate(total))


def conservation(name: str, vectors, total) -> Check:
    gap = sum_gap(vectors, total)
    tol = CONSERVE * max(1.0, *map(abs, total))
    return Check(f"{name} sum to R.W_total", gap <= tol, f"gap {gap:.3e}, total {list(total)}")


# -- command-line workloads ------------------------------------------------------


class CliWorkload(Workload):
    """Runs ``commands`` on near-critical configs of the given sizes."""

    sizes: tuple[int, ...] = ()
    tiny_sizes: tuple[int, ...] = ()
    commands: tuple[tuple[str, ...], ...] = ()

    def setup(self) -> None:
        cfg_dir = self.out / "configs"
        cfg_dir.mkdir(parents=True, exist_ok=True)
        self.configs = []
        for k, n in enumerate(self.tiny_sizes if self.tiny else self.sizes):
            path = cfg_dir / f"c{k}-n{n}.json"
            path.write_text(json.dumps(near_critical_config(n, np.random.default_rng(self.seed_for(k)))))
            self.configs.append(path)
        warm = cfg_dir / "warmup.json"
        warm.write_text(json.dumps(near_critical_config(WARMUP_N, np.random.default_rng(self.seed_for(99)))))
        run_cli([*self.commands[0], "--config", str(warm), "--out", str(self.out / "warmup")])

    def op_dir(self, config: Path, command: tuple[str, ...]) -> Path:
        return self.out / "runs" / config.stem / "-".join(c.lstrip("-") for c in command)

    def operations(self):
        ops = []
        for config in self.configs:
            for command in self.commands:
                argv = [*command, "--config", str(config), "--out", str(self.op_dir(config, command))]
                ops.append((f"{' '.join(command)} {config.stem}", lambda argv=argv: run_cli(argv)))
        return ops

    def succeeded(self, output) -> bool:
        return output == 0

    def fingerprint(self, outputs):
        digest = hashlib.sha256()
        for config in self.configs:
            for command in self.commands:
                directory = self.op_dir(config, command)
                if not directory.is_dir():
                    continue
                for path in sorted(directory.iterdir()):
                    if path.name != "manifest.json":  # holds the wall clock
                        digest.update(path.name.encode())
                        digest.update(path.read_bytes())
        return tuple(outputs), digest.hexdigest()

    def check(self, outputs):
        checks = []
        per_config = len(self.commands)
        for k, config in enumerate(self.configs):
            codes = outputs[k * per_config:(k + 1) * per_config]
            if all(self.succeeded(c) for c in codes):
                checks += [
                    Check(f"{config.stem}: {c.name}", c.ok, c.detail)
                    for c in self.check_artifacts(self.load(config))
                ]
        return checks

    def load(self, config: Path) -> dict:
        raise NotImplementedError

    def check_artifacts(self, data: dict) -> list[Check]:
        raise NotImplementedError


def read_json(path: Path):
    return json.loads(path.read_text())


class CurveLarge(CliWorkload):
    name = "curve-large"
    # six configs rather than two larger ones: near criticality the work of
    # one config moves by tens of percent with its draw, and six average it
    sizes = (500, 550, 600, 650, 700, 750)
    tiny_sizes = (60, 80)
    commands = (("encode",), ("curve",))

    def load(self, config):
        enc = self.op_dir(config, ("encode",))
        cur = self.op_dir(config, ("curve",))
        with (cur / "curve.csv").open(newline="") as fh:
            rows = list(csv.reader(fh))
        return {
            "config": read_json(config),
            "encoding": read_json(enc / "encoding.json"),
            "excursions": read_json(cur / "excursions.json"),
            "curve_header": rows[0],
            "curve_rows": [[float(x) for x in row] for row in rows[1:]],
        }

    def check_artifacts(self, data):
        spec = data["config"]["model"]
        total = oracles.encoded_total(spec["weights"], spec["Q"])
        deltas = [j["delta"] for j in data["encoding"]["jumps"]]
        increments = [e["increment"] for e in data["excursions"]]
        length_gap = worst(
            abs(e["length"] - math.fsum(e["increment"])) / max(1.0, e["length"])
            for e in data["excursions"]
        )
        m = len(spec["weights"])
        rows = data["curve_rows"]
        sum_gap = worst(abs(math.fsum(r[1:1 + m]) - r[0]) / max(1.0, r[0]) for r in rows)
        drops = worst(
            (a[i] - b[i]) / max(1.0, abs(a[i])) for a, b in zip(rows, rows[1:]) for i in range(1 + m)
        )
        return [
            conservation("encode deltas", deltas, total),
            conservation("excursion increments", increments, total),
            Check("encode and curve find the same number of jumps", len(deltas) == len(increments),
                  f"{len(deltas)} jumps, {len(increments)} excursions"),
            Check("each excursion length equals the one-norm of its increment", length_gap <= PROP,
                  f"worst relative gap {length_gap:.3e}"),
            Check("curve.csv coordinates sum to s", bool(rows) and sum_gap <= PROP,
                  f"{len(rows)} rows, worst relative gap {sum_gap:.3e}"),
            Check("curve.csv s and coordinates are nondecreasing", drops <= EXACT,
                  f"largest relative drop {drops:.3e}"),
        ]


class GraphExplore(CliWorkload):
    name = "graph-explore"
    sizes = (600, 900, 1200)
    tiny_sizes = (40, 60)
    commands = (("sample",), ("explore", "--mode", "graph"), ("explore", "--mode", "field"))

    def load(self, config):
        sample = self.op_dir(config, ("sample",))
        with (sample / "graph.csv").open(newline="") as fh:
            rows = list(csv.reader(fh))[1:]
        return {
            "config": read_json(config),
            "edges": [tuple(tuple(int(x) for x in v.split(":")) for v in row) for row in rows],
            "components": read_json(sample / "components.json"),
            "graph_trace": read_json(self.op_dir(config, ("explore", "--mode", "graph")) / "trace.json"),
            "field_trace": read_json(self.op_dir(config, ("explore", "--mode", "field")) / "trace.json"),
        }

    def check_artifacts(self, data):
        spec = data["config"]["model"]
        weights, Q = spec["weights"], spec["Q"]
        verts = oracles.vertex_list(weights)
        comps = [[tuple(v) for v in c["vertices"]] for c in data["components"]]
        listed = [v for c in comps for v in c]
        weight_gap = worst(
            abs(a - b)
            for c, rec in zip(comps, data["components"])
            for a, b in zip(oracles.type_totals(weights, c), rec["weight_by_type"])
        )
        low, high, mean = oracles.edge_count_band(weights, Q)
        n_edges = len(data["edges"])
        return [
            Check("components.json equals a traversal of graph.csv",
                  {frozenset(c) for c in comps} == oracles.components_from_edges(verts, data["edges"]),
                  f"{len(comps)} components"),
            Check("components partition the vertex set",
                  len(listed) == len(verts) and set(listed) == set(verts)),
            Check("component weights are the sums of their vertex weights", weight_gap <= PROP,
                  f"worst gap {weight_gap:.3e}"),
            visits_each_once("graph exploration", data["graph_trace"], verts),
            visits_each_once("field exploration", data["field_trace"], verts),
            Check("edge count lies in the band around sum p_uv", low <= n_edges <= high,
                  f"{n_edges} edges, expected {mean:.1f}, band [{low:.1f}, {high:.1f}]"),
        ]


def visits_each_once(name: str, trace: list, verts) -> Check:
    ok = len(trace) == len(verts) and {tuple(step["vertex"]) for step in trace} == set(verts)
    return Check(f"{name} visits each vertex once", ok, f"{len(trace)} steps, {len(verts)} vertices")


# -- in-process workloads ----------------------------------------------------------


@dataclass(frozen=True)
class InstanceOutput:
    weights: tuple
    Q: tuple
    sweep: tuple  # hitting-process jumps from the sweep exploration
    solver: tuple  # the same jumps from the fixed-point solver
    increments: tuple  # curve increments over the excursions
    lengths: tuple
    verified: bool  # the program's own verify_encoding


@dataclass(frozen=True)
class AlgebraOutput:
    g: paths.PiecewisePath
    double_inverse: paths.PiecewisePath
    identities: tuple  # smooth_compose(g, g^-1) and smooth_compose(g^-1, g)
    additivity: tuple  # both sides of the spline composition's additivity


def verify_instance(seed: int) -> InstanceOutput:
    rng = np.random.default_rng(seed)
    model = instances.random_block_model(rng, max_types=3, max_vertices=6)
    rho = instances.random_probe_direction(rng, model)
    fld = field.build_field(model, field.sample_clocks(model, rng))
    process = field.hitting_process(fld, rho)
    solver = tuple(field.solver_jump(fld, rho, process.levels, y) for y in process.levels)
    bundle = curve.build_curve(fld, rho)
    encoded = curve.encode_components(fld, bundle)
    report = curve.verify_encoding(fld, bundle, process)
    return InstanceOutput(
        model.weights, model.Q, process.deltas, solver,
        tuple(e.increment for e in encoded), tuple(e.length for e in encoded), report["pass"],
    )


def algebra_draw(seed: int) -> AlgebraOutput:
    rng = np.random.default_rng(seed)
    g1 = instances.random_monotone_path(rng)
    g2 = instances.random_monotone_path(rng)
    inv1 = paths.generalized_inverse(g1)
    inv2 = paths.generalized_inverse(g2)
    total = paths.add(inv1, inv2)
    kappa = paths.generalized_inverse(total)
    return AlgebraOutput(
        g1,
        paths.generalized_inverse(inv1),
        (paths.smooth_compose(g1, inv1), paths.smooth_compose(inv1, g1)),
        (
            paths.add(paths.smooth_compose(inv1, kappa), paths.smooth_compose(inv2, kappa)),
            paths.smooth_compose(total, kappa),
        ),
    )


def probe_grid(*ps) -> list[float]:
    """Breakpoints, midpoints between them and three points on the terminal
    rays: two piecewise-linear paths that differ, differ at one of these."""
    times = sorted({0.0, *(b.t for p in ps for b in p.breakpoints)})
    last = times[-1]
    mids = [(a + b) / 2 for a, b in zip(times, times[1:])]
    return times + mids + [last + 0.5, last + 1.0, 2 * last + 1.0]


def path_gap(p, q) -> float:
    """sup |p - q| over the probe grid, on values and on left limits."""
    return worst(
        max(abs(p.eval(t) - q.eval(t)), abs(p.eval_left(t) - q.eval_left(t))) for t in probe_grid(p, q)
    )


def identity_gap(h) -> float:
    return worst(max(abs(h.eval(t) - t), abs(h.eval_left(t) - t)) for t in probe_grid(h))


class PathwiseSmall(Workload):
    name = "pathwise-small"
    n_instances, n_draws = 1000, 500
    tiny_counts = (30, 20)

    def setup(self):
        n_inst, n_draws = self.tiny_counts if self.tiny else (self.n_instances, self.n_draws)
        self.instance_seeds = [self.seed_for(0, k) for k in range(n_inst)]
        self.draw_seeds = [self.seed_for(1, k) for k in range(n_draws)]
        verify_instance(self.seed_for(2))

    def operations(self):
        return [(f"instance {k}", lambda s=s: verify_instance(s)) for k, s in enumerate(self.instance_seeds)] + [
            (f"algebra {k}", lambda s=s: algebra_draw(s)) for k, s in enumerate(self.draw_seeds)
        ]

    def check(self, outputs):
        inst = [o for o in outputs if isinstance(o, InstanceOutput)]
        draws = [o for o in outputs if isinstance(o, AlgebraOutput)]
        return check_instances(inst) + check_algebra(draws)


def jump_gap(a, b) -> float:
    if len(a) != len(b):
        return math.inf
    return worst(abs(x - y) for u, v in zip(a, b) for x, y in zip(u, v))


def check_instances(outs: list[InstanceOutput]) -> list[Check]:
    solver = worst(jump_gap(o.sweep, o.solver) for o in outs)
    curve_gap = worst(jump_gap(o.sweep, o.increments) for o in outs)
    conserve = worst(sum_gap(o.increments, oracles.encoded_total(o.weights, o.Q)) for o in outs)
    lengths = worst(abs(l - math.fsum(inc)) for o in outs for l, inc in zip(o.lengths, o.increments))
    n = len(outs)
    return [
        Check("sweep and solver jumps agree", solver <= EXACT, f"worst gap {solver:.3e} over {n} instances"),
        Check("sweep jumps and curve increments agree", curve_gap <= EXACT, f"worst gap {curve_gap:.3e}"),
        Check("curve increments sum to R.W_total", conserve <= PROP, f"worst gap {conserve:.3e}"),
        Check("each excursion length equals the one-norm of its increment", lengths <= PROP,
              f"worst gap {lengths:.3e}"),
        Check("verify_encoding passes", all(o.verified for o in outs),
              f"{sum(not o.verified for o in outs)} of {n} fail"),
    ]


def check_algebra(outs: list[AlgebraOutput]) -> list[Check]:
    identity = worst(identity_gap(h) for o in outs for h in o.identities)
    additivity = worst(path_gap(*o.additivity) for o in outs)
    doubles = sum(o.double_inverse != o.g for o in outs)
    n = len(outs)
    return [
        Check("double inverse returns the identical path", doubles == 0, f"{doubles} of {n} differ"),
        Check("smooth composition with the inverse is the identity", identity <= PROP,
              f"worst gap {identity:.3e} over {n} draws"),
        Check("spline composition is additive", additivity <= PROP, f"worst gap {additivity:.3e}"),
    ]


#: the two acceptance fixtures of the distributional suite
FIXTURES = (
    (((1.0,), (1.0,)), ((1.0, 0.5), (0.5, 1.0))),
    (((1.0, 0.7), (0.5, 0.4)), ((0.9, 0.6), (0.6, 1.2))),
)
RHO = (1.0, 1.0)
SAMPLERS = ("graph laws", "field laws", "field samples", "graph jump sequences")
ORACLES = ("exact partition law", "exact first-jump law")


class McLaws(Workload):
    name = "mc-laws"
    reps, tiny_reps = 8000, 1000

    def setup(self):
        self.models = [BlockModel(w, Q) for w, Q in FIXTURES]
        self.n_reps = self.tiny_reps if self.tiny else self.reps
        stats.exact_partition_distribution(self.models[0])

    def operations(self):
        ops = []
        for f, model in enumerate(self.models):
            seeds = [self.seed_for(f, k) for k in range(len(SAMPLERS))]
            calls = fixture_calls(model, self.n_reps, seeds)
            ops += [(f"fixture {f} {label}", call) for label, call in zip(SAMPLERS + ORACLES, calls)]
        return ops

    def check(self, outputs):
        per = len(SAMPLERS) + len(ORACLES)
        checks = []
        for f, (weights, Q) in enumerate(FIXTURES):
            group = outputs[f * per:(f + 1) * per]
            if any(o is None for o in group):
                continue
            checks += [Check(f"fixture {f}: {c.name}", c.ok, c.detail)
                       for c in check_laws(weights, Q, dict(zip(SAMPLERS + ORACLES, group)))]
        return checks


def fixture_calls(model, n, seeds) -> tuple:
    """The sampler and oracle calls of one fixture, in SAMPLERS + ORACLES order."""
    return (
        lambda: stats.mc_component_distribution(model, RHO, n, seeds[0], "graph"),
        lambda: stats.mc_component_distribution(model, RHO, n, seeds[1], "field"),
        lambda: stats.mc_field_samples(model, RHO, n, seeds[2]),
        lambda: stats.mc_graph_jump_sequences(model, RHO, n, seeds[3]),
        lambda: stats.exact_partition_distribution(model).signature_distribution(),
        lambda: stats.exact_first_jump_distribution(model, RHO),
    )


def own_laws(weights, Q) -> tuple[dict, dict]:
    if sum(map(len, weights)) == 2:
        return oracles.two_vertex_laws(weights, Q, RHO)
    return oracles.brute_force_laws(weights, Q, RHO)


def law_match(name: str, program_law: dict, own_law: dict) -> Check:
    gap = oracles.law_gap(program_law, own_law)
    return Check(f"{name} matches the own law", gap <= EXACT, f"gap {gap:.3e}")


def check_laws(weights, Q, out: dict) -> list[Check]:
    sig_law, first_law = own_laws(weights, Q)
    total = oracles.encoded_total(weights, Q)
    sequences = [s.jump_sequence for s in out["field samples"]] + list(out["graph jump sequences"])
    conserve = worst(sum_gap(seq, total) for seq in sequences)
    samples = {
        "graph laws": (out["graph laws"], sig_law),
        "field laws": (out["field laws"], sig_law),
        "field sample signatures": (Counter(s.partition_signature for s in out["field samples"]), sig_law),
        "field first jumps": (Counter(s.jump_sequence[0] for s in out["field samples"] if s.jump_sequence), first_law),
        "graph first jumps": (Counter(seq[0] for seq in out["graph jump sequences"] if seq), first_law),
    }
    checks = [
        law_match("exact_partition_distribution", out["exact partition law"], sig_law),
        law_match("exact_first_jump_distribution", out["exact first-jump law"], first_law),
        Check("every jump sequence sums to R.W_total", conserve <= PROP,
              f"worst gap {conserve:.3e} over {len(sequences)} sequences"),
    ]
    for label, (counts, law) in samples.items():
        folded, outside = oracles.fold_counts(counts, law)
        checks.append(Check(f"{label} lie in the exact support", outside == 0, f"{outside} outside"))
        p = oracles.chi_square_p(folded, law)
        checks.append(Check(f"{label} fit the exact law", p >= oracles.GATE_ALPHA,
                            f"p = {p:.4g} (gate {oracles.GATE_ALPHA:g}), n = {sum(counts.values())}"))
    return checks


WORKLOADS = {w.name: w for w in (CurveLarge, PathwiseSmall, McLaws, GraphExplore)}
