"""Closed-loop driver shared by the designer, explore and runtime workloads.

One caller runs a seeded op list built from *passes*, each holding every
op class of the workload once, so the class mix is identical in every
run and at every size.  The same seed gives the same passes in the same
order; the run keeps starting passes until its ``--seconds`` are spent
(two at least), so a slow host shortens the list instead of the run
overrunning.  Output checks, the collection before each op and the
reference kernel run between ops, outside the timed region.

The host's speed moves in phases of seconds (up to 2x on the CPU time
of one op), so every op class is timed once per pass and the run keeps
each class's best (fastest) time: a slow phase has to cover the whole
run to move the result.  Across runs on a shared 2-core host this kept
the spread of throughput at 4-15%, against 12-27% for the whole-list
rate and 15-35% for per-class medians.  Throughput is the work of one
pass over the sum of the best class times, and the latency percentiles
are taken over the best class times (each class weighs the same, as it
does in a pass).

A traced run splits its time in two halves of whole passes: the first
runs untraced (host CPU time and the trace-overhead baseline), the
second runs with the timing shims installed.
"""

from __future__ import annotations

import random
import statistics
import time
from contextlib import nullcontext
from dataclasses import dataclass

from . import harness
from .shims import Tracer


class Context:
    """What an op sees: where to open call-site spans, and which planted
    fault (if any) the run feeds through its checks."""

    def __init__(self, tracer: Tracer | None, plant: str | None) -> None:
        self.tracer = tracer
        self.plant = plant

    def span(self, name: str):
        return self.tracer.span(name) if self.tracer is not None else nullcontext()


@dataclass
class Record:
    op: object
    output: object
    wall_s: float
    cpu_s: float
    units: float


#: Passes every run makes, however short its time.
MIN_PASSES = 2


@dataclass
class BatchState:
    spec: object
    seed: int
    seconds: float
    trace: bool
    plant: str | None
    rng: random.Random
    passes: int = 0

    def next_pass(self) -> list:
        ops = self.spec.make_pass(self.seed, self.rng, self.passes)
        self.passes += 1
        return ops


def setup(spec, seed: int, seconds: float, trace: bool, plant: str | None):
    """Seed the op list and warm the program up."""
    spec.warm_up(random.Random(seed ^ 0x5EED))
    return BatchState(spec, seed, seconds, trace, plant, random.Random(seed))


def teardown(state: BatchState) -> None:
    """Nothing outlives a batch run."""


def _run(state: BatchState, seconds: float, ctx: Context, outcome, records, refs=None):
    """Run whole passes until ``seconds`` of wall time are spent."""
    deadline = time.perf_counter() + seconds
    passes = 0
    while passes < MIN_PASSES or time.perf_counter() < deadline:
        _run_pass(state, state.next_pass(), ctx, outcome, records, refs)
        passes += 1


def _run_pass(state: BatchState, ops: list, ctx: Context, outcome, records, refs):
    spec = state.spec
    for op in ops:
        outcome.attempted += 1
        if refs is not None:
            refs.append(harness.reference_kernel_ms())
        if ctx.tracer is not None:
            ctx.tracer.request_id = outcome.attempted

        def body(op=op):
            if ctx.tracer is None:
                return spec.run_op(op, ctx)
            with ctx.tracer.span(spec.op_span(op), op=True):
                return spec.run_op(op, ctx)

        try:
            output, wall_s, cpu_s = harness.timed(body)
        except Exception as error:  # noqa: BLE001 - any raise is a failed op
            outcome.fail(f"{spec.describe(op)}: {type(error).__name__}: {error}")
            continue
        if ctx.tracer is not None:
            ctx.tracer.request_id = None
        problems = spec.check_op(op, output, ctx)
        if problems:
            outcome.fail(f"{spec.describe(op)}: {'; '.join(problems)}")
            continue
        records.append(Record(op, spec.summarize(op, output), wall_s, cpu_s,
                              spec.units(op, output)))


def per_class(spec, records: list[Record]) -> list[list[Record]]:
    """The records grouped by op class."""
    groups: dict = {}
    for record in records:
        groups.setdefault(spec.op_class(record.op), []).append(record)
    return list(groups.values())


def measure(state: BatchState) -> harness.Outcome:
    spec = state.spec
    outcome = harness.Outcome()
    plain = Context(None, state.plant)
    records: list[Record] = []
    _run(state, state.seconds / 2 if state.trace else state.seconds, plain,
         outcome, records)
    for problem in spec.final_checks(records, plain):
        outcome.fail(problem)

    classes = per_class(spec, records)
    best_s = [min(r.wall_s for r in group) for group in classes]
    pass_units = sum(group[0].units for group in classes)
    outcome.end_to_end = {
        "ops_per_s": (pass_units / sum(best_s) if best_s else 0.0, "1/s"),
        "latency_ms_p50": (harness.percentile([t * 1e3 for t in best_s], 50), "ms"),
        "latency_ms_p99": (harness.percentile([t * 1e3 for t in best_s], 99), "ms"),
    }
    wall = sum(r.wall_s for r in records)
    median_s = sum(statistics.median(r.wall_s for r in group) for group in classes)
    outcome.notes.append(
        f"op = {spec.OP_DEFINITION}; {len(records)} ops timed in "
        f"{len(records) // max(1, len(classes))} passes of {len(classes)} classes; "
        f"{wall:.2f} s of op wall time; whole-list rate "
        f"{sum(r.units for r in records) / wall if wall else 0.0:.4g}/s, "
        f"median-per-class rate {pass_units / median_s if median_s else 0.0:.4g}/s"
    )
    if not state.trace:
        return outcome

    tracer = Tracer()
    traced = Context(tracer, state.plant)
    traced_records: list[Record] = []
    refs: list[float] = []
    tracer.install(spec.SHIMS, count_only=getattr(spec, "COUNT_ONLY", ()))
    try:
        capture = spec.capture() if hasattr(spec, "capture") else nullcontext()
        with capture as session:
            _run(state, state.seconds / 2, traced, outcome, traced_records, refs)
            traced_checks = spec.final_checks(traced_records, traced)
    finally:
        tracer.uninstall()
    for problem in traced_checks:
        outcome.fail(problem)

    untraced_ms = sum(r.wall_s for r in records) * 1e3 / max(1, len(records))
    traced_ms = sum(r.wall_s for r in traced_records) * 1e3 / max(1, len(traced_records))
    layer = {
        "host.cpu_ms_per_op": (
            sum(r.cpu_s for r in records) * 1e3 / max(1, len(records)), "ms"),
        "host.ref_ms": (harness.percentile(refs, 50), "ms"),
        "trace.overhead_frac": (
            traced_ms / untraced_ms - 1.0 if untraced_ms else 0.0, "frac"),
        "trace.absent_shims": (float(len(tracer.absent)), "count"),
    }
    for name in LAYERS:
        layer[f"share.{name}"] = (tracer.layer_share(name), "frac")
    layer.update(spec.layer_metrics(tracer, traced_records, session))
    outcome.per_layer = layer
    if tracer.absent:
        outcome.notes.append(f"absent shims: {', '.join(tracer.absent)}")
    outcome.notes.append(
        "layer shares of op time: "
        + ", ".join(f"{name} {tracer.layer_share(name):.1%}" for name in LAYERS)
    )
    tracer.write(harness.ROOT / ".perfbench" / f"spans-{spec.NAME}.jsonl")
    return outcome


#: Span-name prefixes the per-layer table reports a share of op time for.
LAYERS = (
    "workloads", "synth", "core", "bitgen", "relocation", "faults",
    "multitask", "fabric", "serve", "bench",
)
