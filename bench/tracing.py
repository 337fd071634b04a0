"""Spans around blockwalk's public functions, for the traced run.

``Tracer.install`` replaces every public function of the layer modules
with a wrapper that records (id, parent id, name, start, end, self time),
and does so under every name a blockwalk module imported it by, so calls
from one layer into another are seen too.  Spans stay in memory;
``close_round`` turns a round's spans into metrics and ``dump`` writes
the last round's.  A span's self time is its duration minus that of its
direct children.  The end-to-end metrics never come from a traced round.
"""

from __future__ import annotations

import inspect
import statistics
import sys
import time
from collections import Counter, defaultdict
from pathlib import Path

LAYERS = ("paths", "curve", "field", "model", "stats", "instances", "cli")

#: small helpers called once per vertex pair, component or replication; a
#: wrapper would cost more than the call, so their time stays in the
#: caller's self time
UNWRAPPED = {
    "model.edge_probability",
    "model.component_weights",
    "model.scaled_mass",
    "field.encoded_jump",
    "stats.partition_signature",
}

#: per-layer metrics: name -> unit.  "<layer>.self_s" sums the self time of
#: the layer's spans; "<fn>.self_s" and "<fn>.s" are one function's self and
#: inclusive time; ".calls" counts spans; the rest are counted from results.
METRICS = {
    "paths.self_s": "s",
    "paths.calls": "count",
    "paths.breakpoints_out": "count",
    **{f"paths.{fn}.self_s": "s" for fn in (
        "compose", "smooth_compose", "excursions", "generalized_inverse", "add", "past_infimum")},
    "curve.self_s": "s",
    "curve.build_curve.s": "s",
    "curve.check_symmetry.self_s": "s",
    "curve.verify_encoding.s": "s",
    "curve.composed_processes.calls": "count",
    "curve.encode_components.calls": "count",
    "field.self_s": "s",
    "field.sample_clocks.self_s": "s",
    "field.field_exploration.self_s": "s",
    "field.exploration_steps": "count",
    "field.hitting_process.calls": "count",
    "field.hitting_time.calls": "count",
    "field.hitting_time.sweeps": "count",
    "model.self_s": "s",
    "model.sample_graph.self_s": "s",
    "model.pairs_drawn": "count",
    "model.connected_components.self_s": "s",
    "model.graph_exploration.self_s": "s",
    "stats.self_s": "s",
    "stats.sample_partition_batch.self_s": "s",
    "stats.exact_partition_distribution.self_s": "s",
    "stats.field_distinct_ratio": "ratio",
    "cli.self_s": "s",
    "cli.artifact_bytes": "bytes",
    "instances.self_s": "s",
    "trace.overhead_s": "s",
}


class Tracer:
    def __init__(self):
        self.spans: list[tuple] = []  # (id, parent, name, start, end, self)
        self.last_round: list[tuple] = []
        self.counts: Counter = Counter()
        self._stack: list[list] = []  # [span id, child time]
        self._next_id = 0
        self._patched: list[tuple] = []

    # -- wrapping -------------------------------------------------------------

    def install(self) -> None:
        import blockwalk

        modules = [blockwalk] + [sys.modules[f"blockwalk.{name}"] for name in LAYERS]
        wrappers = {}  # id of the original (kept alive by the wrapper) -> wrapper
        for layer in LAYERS:
            mod = sys.modules[f"blockwalk.{layer}"]
            for name, obj in vars(mod).items():
                qual = f"{layer}.{name}"
                if (not name.startswith("_") and inspect.isfunction(obj)
                        and obj.__module__ == mod.__name__ and qual not in UNWRAPPED):
                    wrappers[id(obj)] = self._wrap(qual, obj)
        for mod in modules:
            for name, obj in list(vars(mod).items()):
                if id(obj) in wrappers:
                    setattr(mod, name, wrappers[id(obj)])
                    self._patched.append((mod, name, obj))

    def uninstall(self) -> None:
        for mod, name, obj in reversed(self._patched):
            setattr(mod, name, obj)
        self._patched.clear()

    def _wrap(self, qual: str, fn):
        count = RESULT_COUNTERS.get(qual) or (count_breakpoints if qual.startswith("paths.") else None)
        stack = self._stack
        spans = self.spans
        clock = time.perf_counter

        def wrapper(*args, **kwargs):
            span_id = self._next_id
            self._next_id += 1
            frame = [span_id, 0.0]
            parent = stack[-1][0] if stack else -1
            stack.append(frame)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                if stack:
                    stack[-1][1] += end - start
                spans.append((span_id, parent, qual, start, end, end - start - frame[1]))
            if count is not None:
                count(self.counts, args, result)
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    # -- metrics ----------------------------------------------------------------

    def close_round(self) -> dict[str, float]:
        """Per-layer metrics over the spans and counts since the last call."""
        self.last_round = self.spans[:]
        del self.spans[:]  # the wrappers hold this list
        self_s: dict[str, float] = defaultdict(float)
        incl_s: dict[str, float] = defaultdict(float)
        calls: Counter = Counter()
        for _, _, name, start, end, own in self.last_round:
            layer = name.split(".", 1)[0]
            self_s[layer] += own
            self_s[name] += own
            incl_s[name] += end - start
            calls[name] += 1
            calls[layer] += 1
        counts, self.counts = self.counts, Counter()
        reps = counts["stats.field_reps"]
        out = {}
        for metric in METRICS:
            base, _, kind = metric.rpartition(".")
            if kind == "self_s":
                out[metric] = self_s[base]
            elif kind == "s":
                out[metric] = incl_s[base]
            elif kind == "calls":
                out[metric] = calls[base]
            else:
                out[metric] = counts[metric]
        out["stats.field_distinct_ratio"] = counts["stats.field_sequences"] / reps if reps else 0.0
        return out

    def dump(self, path: Path) -> None:
        """Write the last round's spans, one per line, tab-separated."""
        with path.open("w") as fh:
            fh.write("id\tparent\tname\tstart\tend\tself\n")
            for span in self.last_round:
                fh.write("\t".join(map(str, span)) + "\n")


def median_metrics(rounds: list[dict[str, float]]) -> dict[str, float]:
    return {k: statistics.median(r[k] for r in rounds) for k in rounds[0]}


# -- counts read off results ---------------------------------------------------------


def count_breakpoints(counts, args, result) -> None:
    if hasattr(result, "breakpoints"):
        counts["paths.breakpoints_out"] += len(result.breakpoints)


def count_steps(counts, args, result) -> None:
    counts["field.exploration_steps"] += len(result.steps)


def count_sweeps(counts, args, result) -> None:
    counts["field.hitting_time.sweeps"] += result.sweeps


def count_pairs(counts, args, result) -> None:
    n = len(result.model.vertices())
    counts["model.pairs_drawn"] += n * (n - 1) // 2


def count_distinct(counts, args, result) -> None:
    counts["stats.field_reps"] += len(result)
    counts["stats.field_sequences"] += len({s.jump_sequence for s in result})


def count_artifacts(counts, args, result) -> None:
    argv = args[0] if args else None
    if argv and "--out" in argv:
        out = Path(argv[argv.index("--out") + 1])
        counts["cli.artifact_bytes"] += sum(p.stat().st_size for p in out.iterdir() if p.is_file())


RESULT_COUNTERS = {
    "field.field_exploration": count_steps,
    "field.hitting_time": count_sweeps,
    "model.sample_graph": count_pairs,
    "stats.mc_field_samples": count_distinct,
    "cli.main": count_artifacts,
}
