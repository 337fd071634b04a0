"""Run a blockwalk benchmark workload and print its metrics.

    python3 bench/run.py --workload curve-large --seed 1 --seconds 22 --trace 0

Run from the root of a checkout; the program is imported from ``src``.
The workload repeats whole rounds of its operations for about ``--seconds``
seconds, checks the outputs, and prints as its last line one JSON object
with the keys ``correct``, ``attempted``, ``failed`` and ``metrics``: the
end-to-end metrics with ``--trace 0``, the per-layer metrics with
``--trace 1``.  ``--workload all`` runs every workload, each in a process
of its own.  See bench/README.md.
"""

import time

_STARTED = time.perf_counter()  # set-up time counts from before blockwalk is imported

import argparse  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import resource  # noqa: E402
import signal  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"
NAMES = ("curve-large", "pathwise-small", "mc-laws", "graph-explore")
SETUP_CHILDREN = 2  # set-up is also timed in this many fresh processes
CHILD_TIMEOUT_S = 170


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=NAMES + ("all",), default="all")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=22.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true", help="small inputs, for testing the checks")
    # time set-up alone, in the given scratch slot; run.py starts these itself
    parser.add_argument("--setup-only", type=int, default=None, help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be nonnegative and --seconds positive")
    return args


def child_argv(args, workload: str, *extra: str) -> list[str]:
    argv = [sys.executable, str(Path(__file__).resolve()), "--workload", workload,
            "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace)]
    return argv + (["--tiny"] if args.tiny else []) + list(extra)


def last_json_line(text: str) -> dict:
    return json.loads(text.strip().splitlines()[-1])


def run_all(args) -> dict:
    """Every workload in a process of its own; metrics are prefixed by the
    workload name."""
    result = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in NAMES:
        proc = subprocess.run(child_argv(args, name), cwd=ROOT, capture_output=True, text=True,
                              timeout=CHILD_TIMEOUT_S + 60)
        if proc.returncode != 0:
            sys.stderr.write(proc.stderr)
            raise RuntimeError(f"workload {name} exited with {proc.returncode}")
        one = last_json_line(proc.stdout)
        print(f"{name}: {json.dumps(one)}")
        result["correct"] = result["correct"] and one["correct"]
        result["attempted"] += one["attempted"]
        result["failed"] += one["failed"]
        result["metrics"].update({f"{name}.{k}": v for k, v in one["metrics"].items()})
    return result


def set_up(args, out: Path):
    """Import blockwalk, make the inputs and run the warm-up operation."""
    import workloads

    workload = workloads.WORKLOADS[args.workload](args.seed, out, tiny=args.tiny)
    workload.setup()
    return workload


def setup_in_child(args, k: int) -> float:
    proc = subprocess.run(child_argv(args, args.workload, "--setup-only", str(k)),
                          cwd=ROOT, capture_output=True, text=True, timeout=CHILD_TIMEOUT_S)
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        raise RuntimeError(f"set-up process exited with {proc.returncode}")
    return last_json_line(proc.stdout)["setup_s"]


def speed_probe() -> float:
    """About a millisecond of fixed pure-Python work, independent of
    blockwalk: its time tracks how fast the machine runs the interpreter."""
    acc = 0.0
    table = {}
    for i in range(2500):
        x = (i * 2654435761) % 1000003
        key = x & 255
        table[key] = table.get(key, 0.0) + x * 1e-6
        acc += x % 7
    return acc + sum(table.values())


#: the probe's mean time at the reference speed: a round figure for the
#: 0.85 to 1.2 ms it takes on the 2-core machine the reference figures of
#: README.md come from
PROBE_REF_S = 0.001


class SpeedSampler:
    """Runs the speed probe every ``interval`` seconds of wall time, from a
    SIGALRM handler, so that its samples cover the rounds evenly, inside
    long operations too.  ``spent`` is the time the probes took, which the
    operations' times leave out."""

    def __init__(self, interval: float = 0.05):
        self.interval = interval
        self.samples: list[float] = []
        self.spent = 0.0
        self._busy = False

    def _sample(self, signum, frame) -> None:
        if self._busy:
            return
        self._busy = True
        start = time.perf_counter()
        speed_probe()
        seconds = time.perf_counter() - start
        self.samples.append(seconds)
        self.spent += seconds
        self._busy = False

    def __enter__(self):
        signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, self.interval, self.interval)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)


def run_round(ops, workload, sampler=None):
    """One timed pass over the operations: (seconds of each operation,
    outputs, failures).  A failed operation's output is None.  The time
    the ``sampler``'s probes took is left out of the operations' times."""
    seconds = []
    outputs = []
    failed = 0
    for name, call in ops:
        spent = sampler.spent if sampler else 0.0
        start = time.perf_counter()
        try:
            out = call()
        except Exception:  # a failing operation is counted, the run goes on
            traceback.print_exc(file=sys.stderr)
            out = None
        elapsed = time.perf_counter() - start
        seconds.append(elapsed - ((sampler.spent - spent) if sampler else 0.0))
        if out is None or not workload.succeeded(out):
            failed += 1
        outputs.append(out)
    return seconds, outputs, failed


class Rounds:
    """Operation times, speed samples, failures and the cross-round
    repeatability check."""

    def __init__(self, workload, ops):
        self.workload, self.ops = workload, ops
        self.op_times: list[list[float]] = []  # one list per round
        self.sampler = SpeedSampler()
        self.failed = 0
        self.first_outputs = None
        self.first_print = None
        self.mismatches = 0

    def run(self, budget: float, on_round=None) -> None:
        """Whole rounds, at least one, for about ``budget`` seconds: another
        round starts while more than half of one still fits."""
        start = time.perf_counter()
        count = 0
        while True:
            with self.sampler:
                seconds, outputs, failed = run_round(self.ops, self.workload, self.sampler)
            if on_round is not None:
                on_round()
            self.op_times.append(seconds)
            self.failed += failed
            count += 1
            fingerprint = self.workload.fingerprint(outputs)
            if self.first_outputs is None:
                self.first_outputs, self.first_print = outputs, fingerprint
            elif fingerprint != self.first_print:
                self.mismatches += 1
            typical = statistics.median(self.times[-count:])
            if time.perf_counter() - start + typical / 2 > budget:
                break
        if not self.sampler.samples:  # rounds shorter than the interval
            self.sampler._sample(None, None)

    @property
    def times(self) -> list[float]:
        """Round times."""
        return [math.fsum(r) for r in self.op_times]

    @property
    def wall_s(self) -> float:
        """Mean round time: the time to complete the operations once."""
        return statistics.fmean(self.times)

    @property
    def probe_s(self) -> float:
        """Mean time of the speed probe over the rounds."""
        return statistics.fmean(self.sampler.samples)

    @property
    def wall_ref_s(self) -> float:
        """``wall_s`` at the reference speed: scaled by PROBE_REF_S over the
        mean probe time of the same rounds.  The machine's speed drifts by
        tens of percent over seconds to minutes; the workload and the probe
        slow down together, so the ratio stays."""
        return self.wall_s * PROBE_REF_S / self.probe_s

    @property
    def attempted(self) -> int:
        return len(self.op_times) * len(self.ops)


def metric(value: float, unit: str) -> dict:
    return {"value": value, "unit": unit}


def main(argv=None) -> int:
    args = parse_args(argv)
    if args.workload == "all":
        print(json.dumps(run_all(args)))
        return 0
    if not (SRC / "blockwalk" / "__init__.py").is_file():
        print(f"error: no blockwalk sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    slot = "main" if args.setup_only is None else f"setup-{args.setup_only}"
    out = OUT / args.workload / slot
    out.mkdir(parents=True, exist_ok=True)
    workload = set_up(args, out)
    own_setup = time.perf_counter() - _STARTED
    if args.setup_only is not None:
        print(json.dumps({"setup_s": own_setup}))
        return 0
    children = SETUP_CHILDREN if args.trace == 0 else 0  # the traced run reports no set-up time
    setups = [own_setup] + [setup_in_child(args, k) for k in range(children)]

    ops = workload.operations()
    plain = Rounds(workload, ops)
    if args.trace == 0:
        plain.run(args.seconds)
        traced = None
    else:
        import tracing

        plain.run(args.seconds / 2)
        tracer = tracing.Tracer()
        tracer.install()
        traced = Rounds(workload, ops)
        layer_rounds = []
        try:
            traced.run(args.seconds / 2, on_round=lambda: layer_rounds.append(tracer.close_round()))
        finally:
            tracer.uninstall()
        tracer.dump(out / "spans.tsv")
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024

    checks = workload.check(plain.first_outputs)
    runs = [plain] + ([traced] if traced else [])
    repeat_ok = all(r.mismatches == 0 for r in runs) and (
        traced is None or traced.first_print == plain.first_print
    )
    correct = repeat_ok and all(c.ok for c in checks)
    for c in checks:
        print(f"[{'PASS' if c.ok else 'FAIL'}] {c.name}  {c.detail}")
    print(f"[{'PASS' if repeat_ok else 'FAIL'}] every round repeats the first one's outputs exactly")
    print(f"rounds: {len(plain.times)} of {len(ops)} operations, seconds {[round(t, 3) for t in plain.times]}")
    print(f"set-up seconds: {[round(s, 3) for s in setups]}")
    print(f"wall_s {plain.wall_s:.4f}, speed probe {plain.probe_s * 1000:.3f} ms"
          f" (reference {PROBE_REF_S * 1000:g} ms), wall_ref_s {plain.wall_ref_s:.4f}")

    if traced is None:
        metrics = {
            "setup_s": metric(statistics.median(setups), "s"),
            "wall_ref_s": metric(plain.wall_ref_s, "s"),
            "peak_rss_mb": metric(peak_rss_mb, "MB"),
        }
    else:
        layer = tracing.median_metrics(layer_rounds)
        layer["trace.overhead_s"] = traced.wall_ref_s - plain.wall_ref_s
        metrics = {k: metric(v, tracing.METRICS[k]) for k, v in layer.items()}
    report = {
        "workload": args.workload, "seed": args.seed, "tiny": args.tiny,
        "checks": [vars(c) for c in checks], "setup_seconds": setups,
        "wall_s": plain.wall_s, "probe_s": plain.probe_s, "round_seconds": plain.times, "operation_seconds": plain.op_times,
        "probe_seconds": plain.sampler.samples,
        "metrics": metrics,
    }
    (out / "report.json").write_text(json.dumps(report, indent=2) + "\n")
    attempted = sum(r.attempted for r in runs)
    failed = sum(r.failed for r in runs)
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
