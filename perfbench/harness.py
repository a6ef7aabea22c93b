"""Plumbing shared by every workload: finding the program under test,
timing, memory, statistics and the JSON result line."""

from __future__ import annotations

import gc
import json
import resource
import statistics
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"


def load_program() -> None:
    """Put the checkout's ``src/`` first on the path, or exit non-zero.

    The benchmark measures the source tree it sits next to and nothing
    else, so an installed copy of ``repro`` must never stand in for it.
    """
    if not (SRC / "repro" / "__init__.py").is_file():
        raise SystemExit(
            f"perfbench: no program source at {SRC / 'repro'}; run from the "
            "root of a full checkout"
        )
    sys.path.insert(0, str(SRC))
    import repro

    if Path(repro.__file__).resolve().parent != (SRC / "repro").resolve():
        raise SystemExit(f"perfbench: imported repro from {repro.__file__}")


@dataclass
class Outcome:
    """What one measured run produced."""

    attempted: int = 0
    failed: int = 0
    errors: list[str] = field(default_factory=list)
    #: name -> (value, unit); filled for every run.
    end_to_end: dict[str, tuple[float, str]] = field(default_factory=dict)
    #: name -> (value, unit); filled by traced runs only.
    per_layer: dict[str, tuple[float, str]] = field(default_factory=dict)
    #: extra human-readable lines for the table.
    notes: list[str] = field(default_factory=list)

    def fail(self, message: str) -> None:
        self.failed += 1
        if len(self.errors) < 20:
            self.errors.append(message)


def percentile(values: list[float], q: float) -> float:
    """Inclusive-method percentile, ``q`` in [0, 100]."""
    if not values:
        return 0.0
    if len(values) == 1:
        return float(values[0])
    cuts = statistics.quantiles(values, n=100, method="inclusive")
    if q <= 0:
        return float(min(values))
    if q >= 100:
        return float(max(values))
    return cuts[int(q) - 1]


def peak_rss_mb() -> float:
    """Peak resident set of this process (Linux reports KiB)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def proc_peak_rss_mb(pid: int | None) -> float:
    """Peak resident set of another live process, 0.0 if unreadable."""
    if pid is None:
        return 0.0
    try:
        with open(f"/proc/{pid}/status", encoding="ascii") as handle:
            for line in handle:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024.0
    except OSError:
        return 0.0
    return 0.0


def reference_kernel_ms() -> float:
    """Time a fixed stdlib-only kernel: a host-speed probe, not a metric
    any workload is normalized by."""
    start = time.perf_counter()
    acc = 0
    for i in range(40_000):
        acc = (acc * 31 + i) % 1_000_003
    sorted(range(20_000, 0, -1))
    del acc
    return (time.perf_counter() - start) * 1e3


def timed(fn, *args, **kwargs):
    """Run ``fn`` after a full collection; return (result, wall_s, cpu_s).

    The collection runs outside the timed region so every op starts from
    the same heap state instead of paying for its predecessors' garbage.
    """
    gc.collect()
    wall0 = time.perf_counter()
    cpu0 = time.process_time()
    result = fn(*args, **kwargs)
    return result, time.perf_counter() - wall0, time.process_time() - cpu0


def render(workload: str, outcome: Outcome, metrics: dict) -> str:
    lines = [f"perfbench {workload}: {outcome.attempted} ops attempted, "
             f"{outcome.failed} failed "
             f"(failed_frac {outcome.failed / max(1, outcome.attempted):.4f})"]
    width = max((len(name) for name in metrics), default=10)
    for name, (value, unit) in metrics.items():
        lines.append(f"  {name:<{width}}  {value:>14.6g}  {unit}")
    lines.extend(f"  {note}" for note in outcome.notes)
    lines.extend(f"  error: {error}" for error in outcome.errors)
    return "\n".join(lines)


def result_line(outcome: Outcome, metrics: dict) -> str:
    return json.dumps(
        {
            "correct": outcome.failed == 0,
            "attempted": max(1, outcome.attempted),
            "failed": outcome.failed,
            "metrics": {
                name: {"value": value, "unit": unit}
                for name, (value, unit) in metrics.items()
            },
        }
    )
