"""Run one perfbench workload and print its metrics.

    python3 perfbench/run.py --workload designer --seed 1 --seconds 10 --trace 0

Prints a human-readable table, then, as the last line, one JSON object
with ``correct``, ``attempted``, ``failed`` and ``metrics``: the
end-to-end metrics with ``--trace 0``, the per-layer metrics with
``--trace 1``.  Exits 1 when any output check fails.  Run it from the
root of a checkout; it measures the ``src/`` tree found there.
"""

from __future__ import annotations

import time

PROCESS_START = time.perf_counter()

import argparse  # noqa: E402
import importlib  # noqa: E402
import json  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

sys.path.insert(0, str(Path(__file__).resolve().parent.parent))

from perfbench import batch, catalog, harness  # noqa: E402

WORKLOADS = ("designer", "explore", "serve", "runtime")
PLANTS = ("flip-byte", "dominated-design", "perturb-result", "count-change")
#: Set-up runs per measurement (the measured run plus fresh processes).
SETUP_SAMPLES = 5


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--plant", choices=PLANTS, default=None,
        help="feed a known-wrong output through the checks (self-test)",
    )
    parser.add_argument(
        "--setup-only", action="store_true",
        help="set up, print the set-up time as JSON and exit",
    )
    return parser.parse_args(argv)


def setup_sample(args) -> float:
    """Set-up time of one fresh process running the same workload."""
    command = [
        sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
        "--seed", str(args.seed), "--seconds", str(args.seconds), "--setup-only",
    ]
    done = subprocess.run(
        command, capture_output=True, text=True, timeout=120, check=True,
        cwd=harness.ROOT,
    )
    return json.loads(done.stdout.strip().splitlines()[-1])["setup_s"]


def main(argv=None) -> int:
    args = parse_args(argv)
    harness.load_program()
    workload = importlib.import_module(f"perfbench.{args.workload}")
    # The serve workload drives its own open loop; the others share the
    # closed-loop batch driver.
    runner = workload if hasattr(workload, "measure") else batch
    state = runner.setup(
        workload, args.seed, args.seconds, bool(args.trace), args.plant)
    setup_s = time.perf_counter() - PROCESS_START
    try:
        if args.setup_only:
            print(json.dumps({"setup_s": setup_s}))
            return 0
        outcome = runner.measure(state)
    finally:
        runner.teardown(state)
    samples = [setup_s] + [setup_sample(args) for _ in range(SETUP_SAMPLES - 1)]
    outcome.end_to_end["setup_s"] = (statistics.median(samples), "s")
    outcome.end_to_end.setdefault(
        "peak_rss_mb", (harness.peak_rss_mb(), "MB"))

    names = catalog.PER_LAYER if args.trace else catalog.END_TO_END
    measured = outcome.per_layer if args.trace else outcome.end_to_end
    metrics = {
        name: (float(measured[name][0]) if name in measured else 0.0, unit)
        for name, unit in names.items()
    }
    shown = dict(outcome.end_to_end)
    if args.trace:
        shown.update(metrics)
    print(harness.render(args.workload, outcome, shown))
    print(harness.result_line(outcome, metrics))
    return 0 if outcome.failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
