"""``runtime`` — one seeded job stream through all three dispatch loops.

The stream is the churn-plus-defragmentation setting of the fabric soak
(after van der Veen et al., arXiv:cs/0505005): narrow modules at a high
Poisson rate and a sparse wide module whose re-admission needs
contiguous free columns, on a one-row, 14-CLB-column strip.  Each op
runs the stream through

* ``multitask.simulate_pr``, stock, on a fixed PRR set;
* ``simulate_pr(faults=, fault_policy=)``, the degraded mode, with
  write-path bit flips;
* ``fabric.simulate_on_fabric`` on a live ``FabricRuntime`` with
  auto-defrag, idle-module churn, permanent column faults and
  ``verify="model"``.

Work is counted in simulated jobs (three per job of the stream).
Multitask, faults and fabric (with ``find_prr`` under forbidden regions)
do the work; bitgen and serve do none.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.core import PRMRequirements, find_prr
from repro.devices import synthetic_device
from repro.fabric import FabricConfig, FabricRuntime, simulate_on_fabric
from repro.faults import DegradedModePolicy, FaultInjector
from repro.multitask import HwTask, Job, poisson_arrivals, simulate_pr

from .batch import Context

NAME = "runtime"
OP_DEFINITION = (
    "one ~480-job stream through simulate_pr, simulate_pr(faults=) and "
    "simulate_on_fabric; units are simulated jobs"
)

DEVICE = synthetic_device(rows=1, clb_runs=(14,), name="perfbench-strip")
HORIZON_S = 1.0
NARROW_WIDTHS = (2, 2, 2, 3)
NARROW_RATE_PER_S = 400.0
WIDE_WIDTH = 5
WIDE_RATE_PER_S = 80.0
EXEC_S = 1e-3
IDLE_RETIRE_S = 0.01
TRANSFER_FAULT_RATE = 0.05
PERMANENT_RATE_PER_S = 2.0
#: The streams of a pass and the fault process's seed are fixed: how
#: many columns the permanent faults retire drives the defrag work, and
#: it swings the cost of one stream by 2-3x from seed to seed.  The run
#: seed names the tasks and orders the streams within each pass.  Six
#: short streams rather than two long ones: the pass time is a sum of six
#: per-class best times, which moves less with the host than two.
STREAM_SEEDS = (1000, 2000, 3000, 4000, 6000, 7000)
FAULT_SEED = 2015

SHIMS = {
    "core.find_prr": ("repro.core.placement_search", "find_prr"),
    "fabric.admit": ("repro.fabric.runtime", "FabricRuntime.admit"),
    "fabric.defrag": ("repro.fabric.runtime", "FabricRuntime.defrag"),
    "fabric.fragmentation_index": (
        "repro.fabric.runtime", "FabricRuntime.fragmentation_index"),
    "relocation.find_compatible_regions": (
        "repro.relocation.relocate", "find_compatible_regions"),
}


def _demand(name: str, columns: int) -> PRMRequirements:
    cells = columns * DEVICE.family.clb_per_col * DEVICE.family.luts_per_clb
    return PRMRequirements(name, cells, cells, cells)


def _tasks(seed: int) -> tuple:
    return tuple(
        HwTask(_demand(f"n{i}_w{width}.{seed}", width), exec_seconds=EXEC_S)
        for i, width in enumerate(NARROW_WIDTHS)
    ) + (HwTask(_demand(f"wide{WIDE_WIDTH}.{seed}", WIDE_WIDTH), exec_seconds=EXEC_S),)
#: The stock loop's fixed PRR set: two narrow PRRs and one wide one.
PRRS = tuple(
    find_prr(DEVICE, _demand(f"prr{i}_w{width}", width)).geometry
    for i, width in enumerate((3, 3, WIDE_WIDTH))
)


@dataclass(frozen=True)
class Op:
    seed: int
    jobs: tuple


def _stream(seed: int, tasks: tuple, horizon_s: float) -> tuple:
    arrivals = [
        (t, tasks[i % len(NARROW_WIDTHS)])
        for i, t in enumerate(poisson_arrivals(NARROW_RATE_PER_S, horizon_s, seed=seed))
    ]
    arrivals += [
        (t, tasks[-1])
        for t in poisson_arrivals(WIDE_RATE_PER_S, horizon_s, seed=seed + 1)
    ]
    arrivals.sort(key=lambda pair: pair[0])
    return tuple(
        Job(task=task, arrival_seconds=t, job_id=index)
        for index, (t, task) in enumerate(arrivals)
    )


def make_pass(seed: int, rng, index: int) -> list[Op]:
    tasks = _tasks(seed)
    ops = [Op(stream, _stream(stream, tasks, HORIZON_S)) for stream in STREAM_SEEDS]
    rng.shuffle(ops)
    return ops


def warm_up(rng) -> None:
    run_op(Op(1, _stream(1, _tasks(0), 0.5)), Context(None, None))


def describe(op: Op) -> str:
    return f"stream {op.seed} ({len(op.jobs)} jobs)"


def op_class(op: Op) -> int:
    return op.seed


def op_span(op: Op) -> str:
    return "bench.runtime_op"


def run_op(op: Op, ctx):
    jobs = list(op.jobs)
    with ctx.span("multitask.simulate_pr"):
        stock = simulate_pr(jobs, list(PRRS))
    with ctx.span("faults.simulate_pr_faults"):
        degraded = simulate_pr(
            jobs, list(PRRS),
            faults=FaultInjector.from_rates(seed=op.seed, fault_rate=TRANSFER_FAULT_RATE),
            fault_policy=DegradedModePolicy(),
            device=DEVICE,
        )
    runtime = FabricRuntime(
        DEVICE,
        config=FabricConfig(auto_defrag=True, verify="model"),
        injector=FaultInjector.from_rates(
            seed=FAULT_SEED, fault_rate=TRANSFER_FAULT_RATE / 10,
            permanent_rate_per_s=PERMANENT_RATE_PER_S,
        ),
    )
    with ctx.span("fabric.simulate_on_fabric"):
        fabric = simulate_on_fabric(jobs, runtime, idle_retire_s=IDLE_RETIRE_S)
    return stock, degraded, fabric, runtime


def counts(output) -> dict:
    """The simulated outcome of one op, which must repeat exactly."""
    stock, degraded, fabric, runtime = output
    return {
        "stock_completed": len(stock.completed),
        "reconfigurations": stock.reconfig_count,
        "stock_makespan_s": stock.makespan_seconds,
        "degraded_retries": degraded.retries,
        "degraded_completion": degraded.completion_rate,
        "completion_rate": fabric.completion_rate,
        "makespan_s": fabric.makespan_seconds,
        **runtime.stats(),
    }


def check_op(op: Op, output, ctx) -> list[str]:
    """The live fabric ends the run with its invariants intact."""
    try:
        output[3].check_invariants()
    except AssertionError as error:
        return [f"fabric invariant violated: {error}"]
    return []


def summarize(op: Op, output) -> dict:
    return counts(output)


def units(op: Op, output) -> float:
    return 3.0 * len(op.jobs)


def final_checks(records, ctx) -> list[str]:
    """Fault-rate 0 gives the stock result on the same stream, and every
    op's simulated counts repeat exactly: in each later pass, and when the
    first op runs once more here."""
    if not records:
        return []
    first = records[0]
    jobs = list(first.op.jobs)
    stock = simulate_pr(jobs, list(PRRS))
    zero = simulate_pr(
        jobs, list(PRRS), faults=FaultInjector.from_rates(seed=first.op.seed))
    problems = []
    if (zero.completed, zero.makespan_seconds, zero.reconfig_count) != (
        stock.completed, stock.makespan_seconds, stock.reconfig_count
    ):
        problems.append("fault-rate-0 run differs from the stock run")
    again = counts(run_op(first.op, Context(None, None)))
    if ctx.plant == "count-change":
        again["migrations"] += 1
    for record in records:
        if record.op.seed == first.op.seed and record.output != again:
            changed = sorted(k for k in again if again[k] != record.output.get(k))
            problems.append(f"simulated counts did not repeat: {', '.join(changed)}")
            break
    return problems


def layer_metrics(tracer, records, session) -> dict:
    ops = max(1, len(records))
    jobs = sum(len(r.op.jobs) for r in records) or 1

    def per_job_us(name):
        return tracer.inclusive_s(name, in_op=True) * 1e6 / jobs

    def per_op(key):
        # Whole passes of the same streams: the mean per op is exact and
        # does not depend on how many passes the run's time allowed.
        return float(sum(r.output[key] for r in records)) / ops

    return {
        "multitask.simulate_pr.us_per_job": (per_job_us("multitask.simulate_pr"), "us"),
        "faults.simulate_pr_faults.us_per_job": (
            per_job_us("faults.simulate_pr_faults"), "us"),
        "fabric.simulate_on_fabric.us_per_job": (
            per_job_us("fabric.simulate_on_fabric"), "us"),
        "fabric.admit.self_ms": (tracer.self_s("fabric.admit", in_op=True) * 1e3 / ops, "ms"),
        "fabric.defrag.self_ms": (tracer.self_s("fabric.defrag", in_op=True) * 1e3 / ops, "ms"),
        "relocation.find_compatible_regions.self_ms": (
            tracer.self_s("relocation.find_compatible_regions", in_op=True) * 1e3 / ops, "ms"),
        "fabric.fragmentation_index.self_ms": (
            tracer.self_s("fabric.fragmentation_index", in_op=True) * 1e3 / ops, "ms"),
        "sim.migrations": (per_op("migrations"), "count"),
        "sim.defrag_passes": (per_op("defrag_passes"), "count"),
        "sim.rollbacks": (per_op("rollbacks"), "count"),
        "sim.evictions": (per_op("evictions"), "count"),
        "sim.reconfigurations": (per_op("reconfigurations"), "count"),
        "sim.completion_rate": (per_op("completion_rate"), "frac"),
        "sim.makespan_s": (per_op("makespan_s"), "s"),
    }
