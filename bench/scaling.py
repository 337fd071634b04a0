"""Fit how the curve-large operation scales with the vertex count n.

    python3 bench/scaling.py --sizes 400,800,1600 --seed 1

Times one ``blockwalk encode`` and one ``blockwalk curve`` on a config of
each size, drawn from the same near-critical family as curve-large, and
fits log(seconds) = a + b log(n) by least squares.  Prints one line per
size and the fitted exponent b.  Run from the root of a checkout.
"""

import argparse
import json
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import numpy as np  # noqa: E402

from workloads import near_critical_config, run_cli  # noqa: E402


def fit_exponent(sizes, seconds) -> float:
    x = np.log(np.asarray(sizes, dtype=float))
    y = np.log(np.asarray(seconds, dtype=float))
    return float(np.polyfit(x, y, 1)[0])


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--sizes", default="400,800,1600")
    parser.add_argument("--seed", type=int, default=1)
    args = parser.parse_args(argv)
    out = ROOT / ".bench_out" / "scaling"
    out.mkdir(parents=True, exist_ok=True)
    sizes = [int(n) for n in args.sizes.split(",")]
    totals = {"encode": [], "curve": []}
    for n in sizes:
        config = out / f"n{n}.json"
        config.write_text(json.dumps(near_critical_config(n, np.random.default_rng((args.seed, n)))))
        for command in totals:
            start = time.perf_counter()
            code = run_cli([command, "--config", str(config), "--out", str(out / f"n{n}-{command}")])
            totals[command].append(time.perf_counter() - start)
            if code != 0:
                print(f"error: {command} exited with {code} at n = {n}", file=sys.stderr)
                return 1
        print(f"n = {n}: encode {totals['encode'][-1]:.3f} s, curve {totals['curve'][-1]:.3f} s")
    both = [a + b for a, b in zip(totals["encode"], totals["curve"])]
    for command, seconds in (*totals.items(), ("encode + curve", both)):
        print(f"{command}: seconds ~ n^{fit_exponent(sizes, seconds):.2f}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
