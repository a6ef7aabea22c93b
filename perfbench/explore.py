"""``explore`` — one ``core.explore(device, prms)`` call with default
arguments.

A pass alternates 7-PRM sets (the exhaustive path) and 10-PRM sets (the
beam fallback) across both catalog devices, so a change to only one
search mode shows up apart from the other.  The core (prr_model,
placement_search, fastpath, explorer) and devices (window index) do all
of the work; bitgen does none.

Every set is drawn from one fixed list of PRM shapes whose LUT-FF pair
counts (the only input the geometry depends on) are fixed; the seed
varies the LUT and FF counts below them and the names.  So every input
is new to the program's memo caches while the search cost per op class
stays the same from seed to seed.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

from repro import obs
from repro.core import PRMRequirements, evaluate_partition, explore
from repro.devices import XC5VLX110T, XC6VLX75T

NAME = "explore"
OP_DEFINITION = "one core.explore(device, prms) call, 7 PRMs (exhaustive) or 10 (beam)"

DEVICES = (XC5VLX110T, XC6VLX75T)
#: (LUT-FF pairs, DSPs, BRAMs); no PRM mixes DSP and BRAM columns.
SHAPES = (
    (240, 8, 0), (296, 0, 3), (352, 0, 0), (408, 8, 0), (464, 0, 3),
    (520, 0, 0), (576, 8, 0), (632, 0, 3), (688, 0, 0), (744, 8, 0),
)
CLASSES = ((0, 7), (1, 7), (0, 10), (1, 10))  # (device index, PRM count)

SHIMS = {
    "core.find_prr": ("repro.core.placement_search", "find_prr"),
    "core.prr_geometry_for_rows": ("repro.core.prr_model", "prr_geometry_for_rows"),
    "devices.device_hash": ("repro.devices.fabric", "Device.__hash__"),
}
COUNT_ONLY = ("devices.device_hash",)


@dataclass(frozen=True)
class Op:
    device_index: int
    prms: tuple


def _prm_set(rng, tag: str, count: int) -> tuple:
    prms = []
    for index, (pairs, dsps, brams) in enumerate(SHAPES[:count]):
        prms.append(
            PRMRequirements(
                f"{tag}.m{index}",
                lut_ff_pairs=pairs,
                luts=pairs - rng.randint(40, 80),
                ffs=160 + 24 * index + rng.randint(0, 40),
                dsps=dsps,
                brams=brams,
            )
        )
    return tuple(prms)


def make_pass(seed: int, rng, index: int) -> list[Op]:
    return [
        Op(device, _prm_set(rng, f"p{index}.{k}.{rng.getrandbits(24):06x}", count))
        for k, (device, count) in enumerate(CLASSES)
    ]


def warm_up(rng) -> None:
    """One pass fills the caches keyed by geometry, which recur across
    different PRMs; the timed ops then run in the steady state."""
    for op in make_pass(0, rng, -1):
        explore(DEVICES[op.device_index], op.prms)


def describe(op: Op) -> str:
    return f"{len(op.prms)} PRMs on {DEVICES[op.device_index].name}"


def op_class(op: Op) -> tuple:
    return (op.device_index, len(op.prms))


def op_span(op: Op) -> str:
    mode = "exhaustive" if len(op.prms) <= 8 else "beam"
    return f"core.explore_{mode}"


def run_op(op: Op, ctx):
    return explore(DEVICES[op.device_index], op.prms)


def _dominates(a: tuple, b: tuple) -> bool:
    return all(x <= y for x, y in zip(a, b)) and a != b


def check_op(op: Op, designs, ctx) -> list[str]:
    """The front is non-dominated, and each design's objectives match a
    fresh ``evaluate_partition`` of its groups."""
    device = DEVICES[op.device_index]
    front = list(designs.front)
    if not front:
        return ["empty Pareto front"]
    if ctx.plant == "dominated-design":
        # One PRR more than the best design: more area and bytes, no gain.
        best = front[0]
        front.append(replace(best, assignments=best.assignments + best.assignments[:1]))
    problems = []
    for design in front:
        if any(_dominates(other.objectives, design.objectives) for other in front):
            problems.append(f"dominated design in front: {design.summary()}")
            break
    for design in front:
        fresh = evaluate_partition(
            device, [list(a.prms) for a in design.assignments],
            controller_bytes_per_s=design.controller_bytes_per_s,
        )
        if fresh is None or fresh.objectives != design.objectives:
            problems.append(f"objectives differ from evaluate_partition: {design.summary()}")
            break
    return problems


def summarize(op: Op, designs) -> tuple:
    return (op_span(op), len(designs))


def units(op: Op, designs) -> float:
    return 1.0


def final_checks(records, ctx) -> list[str]:
    return []


def capture():
    """The traced half also reads the explorer's own search counters."""
    return obs.capture(command="perfbench-explore")


def layer_metrics(tracer, records, session) -> dict:
    ops = max(1, len(records))
    counters = session.metrics.to_dict()["counters"] if session is not None else {}
    hits = counters.get("explore.placement_cache_hits", 0)
    misses = counters.get("explore.placement_cache_misses", 0)
    return {
        "core.explore_exhaustive.ms": (tracer.mean_ms("core.explore_exhaustive"), "ms"),
        "core.explore_beam.ms": (tracer.mean_ms("core.explore_beam"), "ms"),
        "core.find_prr.calls": (
            tracer.calls("core.find_prr", in_op=True) / ops, "count"),
        "core.find_prr.self_ms": (
            tracer.self_s("core.find_prr", in_op=True) * 1e3 / ops, "ms"),
        "core.prr_geometry_for_rows.calls": (
            tracer.calls("core.prr_geometry_for_rows", in_op=True) / ops, "count"),
        "core.prr_geometry_for_rows.self_ms": (
            tracer.self_s("core.prr_geometry_for_rows", in_op=True) * 1e3 / ops, "ms"),
        "devices.device_hash.calls": (
            tracer.counts.get("devices.device_hash", 0) / ops, "count"),
        "explore.cache_hit_ratio": (
            hits / (hits + misses) if hits + misses else 0.0, "frac"),
        "explore.partitions_evaluated": (
            counters.get("explore.candidates_evaluated", 0) / ops, "count"),
    }
