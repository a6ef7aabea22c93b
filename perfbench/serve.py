"""``serve`` — an open loop of Poisson arrivals into ``ClusterService``.

One generator process with two threads (a sender and a completion
collector) drives a ``ClusterService`` with 2 shards and the memory cache
tier only.  About 3/4 of requests carry first-seen keys and go to the
shards; about 1/5 repeat a recent key and are router cache hits or
coalesce in flight; a small share are oversized PRMs that must come back
as a typed InfeasiblePlacement.  With this mix both p50 and p99 fall on
the shard path.  Each request is timed from its due time, so a stall
also delays the requests queued behind it, and the generator records how
late it ran.

Phases, all sized from ``--seconds``:

* light — a fixed light rate, in two segments: ``latency_ms_p50`` /
  ``latency_ms_p99`` of the better segment;
* saturation — closed-loop bursts with a fixed window of outstanding
  requests: ``ops_per_s``, the requests per second the tier completes
  in the best burst;
* high — a fixed rate near the knee: ``latency_ms_p99_hi`` (a slow host
  can push the knee below it, so sheds here count in ``serve.shed_frac``
  rather than as failed ops);
* ladder — fixed rate steps: ``max_rps``, the highest step whose p99
  stays under the latency limit with nothing shed and no backlog left
  at the end of the step.

The router, cache, IPC and shard hops carry the latency; the cost model
does almost none of the work.  Every served result is compared with a
fresh in-process ``evaluate_prm``; every error must be typed and be
raised, with the same class, in-process too.
"""

from __future__ import annotations

import multiprocessing
import random
import threading
import time
from collections import deque
from dataclasses import dataclass, replace

from repro.core import PRMRequirements, evaluate_prm
from repro.core.reconfig_model import ICAP_VIRTEX5_BYTES_PER_S
from repro.devices import get_device
from repro.errors import Overloaded, ReproError
from repro.serve import (
    ClusterConfig,
    ClusterService,
    EvaluateRequest,
    cache_key,
    decode_result,
    encode_result,
)

from . import harness
from .shims import Tracer

NAME = "serve"
DEVICES = ("xc5vlx110t", "xc6vlx75t")
LIGHT_RPS = 150.0
HIGH_RPS = 450.0
LADDER_RPS = (300.0, 500.0, 700.0, 900.0, 1100.0, 1300.0, 1500.0)
LATENCY_LIMIT_MS = 100.0
SATURATION_WINDOW = 24
#: The light phase runs as separate segments and each latency is the
#: best segment's, so a slow host phase inside one segment does not set it.
LIGHT_SEGMENTS = 2
#: Closed-loop bursts; ``ops_per_s`` is the best one, so a burst that
#: lands in one of the host's slow phases does not set it.
SATURATION_BURSTS = 5
#: Share of each request kind; the rest are first-seen keys.
REPEAT_SHARE = 0.22
OVERSIZED_SHARE = 0.03
#: A repeat picks one of this many most recent keys.
RECENT_KEYS = 8
#: Collector poll interval; bounds how late a completion is stamped.
POLL_S = 0.001
#: A request unresolved this long after the phase's last due time failed.
GIVE_UP_S = 30.0

SHIMS = {
    "serve.submit": ("repro.serve.cluster", "ClusterService.submit"),
    "serve.cache_key": ("repro.serve.cache", "cache_key"),
    "serve.cache.encode": ("repro.serve.cache", "encode_result"),
    "serve.cache.decode": ("repro.serve.cache", "decode_result"),
    "core.evaluate_prm": ("repro.core.api", "evaluate_prm"),
}


@dataclass(frozen=True)
class Request:
    due_s: float  #: offset from the phase start
    prm: PRMRequirements
    device: str
    kind: str  #: "fresh", "repeat" or "oversized"


@dataclass
class Sent:
    request: Request
    due: float
    ticket: object = None
    hit: bool = False
    done_at: float | None = None
    error: BaseException | None = None  #: raised by submit itself


@dataclass
class State:
    trace: bool
    plant: str | None
    phases: dict
    cluster: ClusterService | None = None


def _fresh_prm(rng, name: str) -> PRMRequirements:
    pairs = rng.randint(100, 1600)
    kind = rng.randrange(3)
    return PRMRequirements(
        name, pairs, pairs - rng.randint(0, pairs // 3), rng.randint(pairs // 3, pairs),
        dsps=rng.randint(1, 8) if kind == 0 else 0,
        brams=rng.randint(1, 4) if kind == 1 else 0,
    )


def schedule(rng, tag: str, *, rate: float = 0.0, count: int) -> list[Request]:
    """``count`` requests of the mix; Poisson due times at ``rate`` (all
    due at once when the rate is 0, for the closed loop)."""
    recent: deque = deque(maxlen=RECENT_KEYS)
    due = 0.0
    requests = []
    for index in range(count):
        if rate:
            due += rng.expovariate(rate)
        draw = rng.random()
        device = DEVICES[rng.randrange(len(DEVICES))]
        if draw < OVERSIZED_SHARE:
            pairs = 90_000 + rng.randint(0, 9_999)
            request = Request(due, PRMRequirements(f"{tag}.{index}.big", pairs, pairs, pairs),
                              device, "oversized")
        elif draw < OVERSIZED_SHARE + REPEAT_SHARE and recent:
            prm, device = recent[rng.randrange(len(recent))]
            request = Request(due, prm, device, "repeat")
        else:
            request = Request(due, _fresh_prm(rng, f"{tag}.{index}"), device, "fresh")
            recent.append((request.prm, device))
        requests.append(request)
    return requests


def setup(module, seed: int, seconds: float, trace: bool, plant: str | None) -> State:
    """Seeded schedules for every phase; with ``seconds`` = S the phases
    take about 0.45 S (light), 0.15 S (high), up to 0.35 S (ladder) and
    about 2 s (saturation)."""
    rng = random.Random(seed)
    scale = max(seconds, 0.5)
    phases = {
        "warm": schedule(rng, "warm", count=40),
        "high": schedule(rng, "high", rate=HIGH_RPS, count=round(HIGH_RPS * 0.15 * scale)),
    }
    for segment in range(LIGHT_SEGMENTS):
        phases[f"light{segment}"] = schedule(
            rng, f"light{segment}", rate=LIGHT_RPS,
            count=round(LIGHT_RPS * 0.45 * scale / LIGHT_SEGMENTS))
    for burst in range(SATURATION_BURSTS):
        phases[f"saturation{burst}"] = schedule(rng, f"sat{burst}", count=round(40 * scale))
    for rate in LADDER_RPS:
        phases[f"ladder{rate:g}"] = schedule(
            rng, f"ladder{rate:g}", rate=rate, count=round(rate * 0.05 * scale))
    if trace:
        phases["traced"] = schedule(
            rng, "traced", rate=LIGHT_RPS, count=round(LIGHT_RPS * 0.2 * scale))
    state = State(trace, plant, phases)
    state.cluster = ClusterService(ClusterConfig(shards=2)).start()
    closed_loop(state.cluster, phases["warm"], SATURATION_WINDOW)
    return state


def teardown(state: State) -> None:
    if state.cluster is not None:
        state.cluster.stop()
        state.cluster = None
    for child in multiprocessing.active_children():
        child.join(timeout=10.0)


def _submit(cluster, sent: Sent) -> None:
    request = sent.request
    try:
        sent.ticket = cluster.submit(EvaluateRequest(request.prm, request.device))
    except ReproError as error:  # shed (Overloaded) or rejected up front
        sent.error = error
        sent.done_at = time.perf_counter()
        return
    if sent.ticket.done():
        sent.hit = True
        sent.done_at = time.perf_counter()


def open_loop(cluster, requests: list[Request]) -> tuple[list[Sent], float]:
    """Send each request at its due time; return the sends and how late
    (seconds) the sender ran at worst."""
    start = time.perf_counter() + 0.01
    inbox: deque = deque()
    sending_done = threading.Event()
    worker = threading.Thread(target=_collect, args=(inbox, sending_done), daemon=True)
    worker.start()
    sent_all = []
    lag = 0.0
    for request in requests:
        due = start + request.due_s
        now = time.perf_counter()
        if due > now:
            time.sleep(due - now)
        else:
            lag = max(lag, now - due)
        sent = Sent(request, due)
        _submit(cluster, sent)
        sent_all.append(sent)
        if sent.done_at is None:
            inbox.append(sent)
    sending_done.set()
    worker.join(timeout=GIVE_UP_S + 5.0)
    return sent_all, lag


def _collect(inbox: deque, sending_done: threading.Event) -> None:
    """Stamp each request's completion time as it resolves."""
    pending: list[Sent] = []
    give_up = None
    while True:
        while inbox:
            pending.append(inbox.popleft())
        if not pending:
            if sending_done.is_set() and not inbox:
                return
            time.sleep(POLL_S)
            continue
        if sending_done.is_set() and give_up is None:
            give_up = time.perf_counter() + GIVE_UP_S
        try:
            pending[0].ticket.result(timeout=POLL_S)
        except Exception:  # noqa: BLE001 - only waiting here; outcomes are read later
            pass
        now = time.perf_counter()
        still = []
        for sent in pending:
            if sent.ticket.done():
                sent.done_at = now
            else:
                still.append(sent)
        pending = still
        if give_up is not None and now > give_up:
            return


def closed_loop(cluster, requests: list[Request], window: int) -> tuple[list[Sent], float]:
    """Keep ``window`` requests outstanding; return sends and wall time."""
    start = time.perf_counter()
    outstanding: deque = deque()
    sent_all = []
    for request in requests:
        while len(outstanding) >= window:
            _await(outstanding.popleft())
        sent = Sent(request, time.perf_counter())
        _submit(cluster, sent)
        sent_all.append(sent)
        if sent.done_at is None:
            outstanding.append(sent)
    while outstanding:
        _await(outstanding.popleft())
    return sent_all, time.perf_counter() - start


def _await(sent: Sent) -> None:
    try:
        sent.ticket.result(timeout=GIVE_UP_S)
    except Exception:  # noqa: BLE001 - outcomes are read by the checks
        pass
    if sent.ticket.done():
        sent.done_at = time.perf_counter()


def _latencies_ms(sends: list[Sent], kinds=None, hit=None) -> list[float]:
    return [
        (s.done_at - s.due) * 1e3
        for s in sends
        if s.done_at is not None and s.error is None
        and (kinds is None or s.request.kind in kinds)
        and (hit is None or s.hit == hit)
    ]


def check(sends: list[Sent], outcome: harness.Outcome, plant: str | None = None,
          *, probe: bool = False) -> None:
    """Every served result equals a fresh in-process evaluation; every
    error is typed and the in-process call raises the same class.

    A shed request fails, except in a ``probe`` phase (the high rate and
    the ladder), which runs near or above the knee and may shed.
    """
    expected: dict = {}
    for index, sent in enumerate(sends):
        if probe and isinstance(sent.error, Overloaded):
            continue
        outcome.attempted += 1
        request = sent.request
        label = f"{request.kind} {request.prm.name} on {request.device}"
        if sent.error is not None:
            kind = "shed" if isinstance(sent.error, Overloaded) else "rejected"
            outcome.fail(f"{label}: {kind}: {sent.error}")
            continue
        if not sent.ticket.done():
            outcome.fail(f"{label}: timed out")
            continue
        key = (request.prm, request.device)
        if key not in expected:
            try:
                expected[key] = evaluate_prm(request.prm, request.device)
            except ReproError as error:
                expected[key] = error
        want = expected[key]
        try:
            got = sent.ticket.result(timeout=0)
        except ReproError as error:
            if not isinstance(want, type(error)) or want.code != error.code:
                outcome.fail(f"{label}: served {type(error).__name__}, "
                             f"in-process {type(want).__name__}")
            continue
        except Exception as error:  # noqa: BLE001 - an untyped error is a failure
            outcome.fail(f"{label}: untyped {type(error).__name__}: {error}")
            continue
        if plant == "perturb-result" and index == 0:
            got = replace(got, clb_req=got.clb_req + 1)
        if got != want:
            outcome.fail(f"{label}: served result differs from in-process evaluate_prm")


def _ladder(state: State, outcome: harness.Outcome) -> float:
    best = 0.0
    for rate in LADDER_RPS:
        sends, _ = open_loop(state.cluster, state.phases[f"ladder{rate:g}"])
        check(sends, outcome, probe=True)
        latencies = _latencies_ms(sends)
        last_due = max(s.due for s in sends)
        backlog_ms = (max((s.done_at or float("inf")) for s in sends) - last_due) * 1e3
        if (
            any(s.error is not None for s in sends)
            or harness.percentile(latencies, 99) > LATENCY_LIMIT_MS
            or backlog_ms > LATENCY_LIMIT_MS
        ):
            break
        best = rate
    return best


def measure(state: State) -> harness.Outcome:
    outcome = harness.Outcome()
    cluster = state.cluster
    before = cluster.stats()
    cpu0 = time.process_time()

    segments = []
    light_lag = 0.0
    for segment in range(LIGHT_SEGMENTS):
        sends, lag = open_loop(cluster, state.phases[f"light{segment}"])
        check(sends, outcome, state.plant if segment == 0 else None)
        segments.append(sends)
        light_lag = max(light_lag, lag)
    light = [sent for sends in segments for sent in sends]
    light_cpu_ms = (time.process_time() - cpu0) * 1e3 / max(1, len(light))
    saturation_rps = 0.0
    for burst in range(SATURATION_BURSTS):
        sends, wall_s = closed_loop(
            cluster, state.phases[f"saturation{burst}"], SATURATION_WINDOW)
        check(sends, outcome)
        saturation_rps = max(saturation_rps, len(sends) / wall_s)
    high, high_lag = open_loop(cluster, state.phases["high"])
    check(high, outcome, probe=True)
    max_rps = _ladder(state, outcome)

    latencies = _latencies_ms(light)
    by_segment = [_latencies_ms(sends) for sends in segments]
    outcome.end_to_end = {
        "ops_per_s": (saturation_rps, "1/s"),
        "latency_ms_p50": (min(harness.percentile(x, 50) for x in by_segment), "ms"),
        "latency_ms_p99": (min(harness.percentile(x, 99) for x in by_segment), "ms"),
        "latency_ms_p99_hi": (harness.percentile(_latencies_ms(high), 99), "ms"),
        "max_rps": (max_rps, "1/s"),
        "peak_rss_mb": (
            harness.peak_rss_mb()
            + sum(harness.proc_peak_rss_mb(pid) for pid in cluster.shard_pids()),
            "MB",
        ),
    }
    outcome.notes.append(
        f"open loop, {LIGHT_SEGMENTS} segments of {len(segments[0])} requests at "
        f"{LIGHT_RPS:g}/s (p50/p99 of the best segment), {len(high)} at "
        f"{HIGH_RPS:g}/s (p99_hi), ladder "
        f"{'/'.join(f'{r:g}' for r in LADDER_RPS)}/s with a {LATENCY_LIMIT_MS:g} ms "
        f"p99 limit; closed loop of {SATURATION_WINDOW} outstanding for ops_per_s; "
        f"generator late by at most {max(light_lag, high_lag) * 1e3:.1f} ms"
    )
    if not state.trace:
        return outcome

    stats = cluster.stats()
    delta = {key: stats.get(key, 0) - before.get(key, 0) for key in stats}
    accepted = max(1, delta.get("accepted", 0))
    hits = _latencies_ms(light, hit=True)
    misses = _latencies_ms(light, kinds=("fresh",), hit=False)
    layer = {
        "host.cpu_ms_per_op": (light_cpu_ms, "ms"),
        "host.ref_ms": (harness.percentile(
            [harness.reference_kernel_ms() for _ in range(9)], 50), "ms"),
        "serve.hit_latency_ms_p50": (harness.percentile(hits, 50), "ms"),
        "serve.miss_latency_ms_p50": (harness.percentile(misses, 50), "ms"),
        "serve.miss_latency_ms_p99": (harness.percentile(misses, 99), "ms"),
        "serve.latency_ms_p99_hi": outcome.end_to_end["latency_ms_p99_hi"],
        "serve.max_rps": outcome.end_to_end["max_rps"],
        "serve.cache_hit_ratio": (delta.get("cache_hits", 0) / accepted, "frac"),
        "serve.coalesced_frac": (delta.get("coalesced", 0) / accepted, "frac"),
        "serve.shed_frac": (
            delta.get("shed", 0) / (accepted + delta.get("shed", 0)), "frac"),
        "serve.hedges": (float(delta.get("hedges", 0)), "count"),
        "serve.restarts": (float(delta.get("restarts", 0)), "count"),
        "loadgen.lag_ms_max": (max(light_lag, high_lag) * 1e3, "ms"),
    }

    tracer = Tracer()
    tracer.install(SHIMS)
    try:
        traced, _ = open_loop(cluster, state.phases["traced"])
        _replay(tracer, state.phases["traced"])
    finally:
        tracer.uninstall()
    check(traced, outcome)
    untraced_p50 = harness.percentile(latencies, 50)
    traced_p50 = harness.percentile(_latencies_ms(traced), 50)
    replays = max(1, len(state.phases["traced"]))
    layer.update({
        "trace.overhead_frac": (
            traced_p50 / untraced_p50 - 1.0 if untraced_p50 else 0.0, "frac"),
        "trace.absent_shims": (float(len(tracer.absent)), "count"),
        "serve.submit.us": (tracer.mean_ms("serve.submit") * 1e3, "us"),
        "core.evaluate_prm.ms": (tracer.mean_ms("core.evaluate_prm", in_op=True), "ms"),
        "serve.cache.encode_us": (
            tracer.mean_ms("serve.cache.encode", in_op=True) * 1e3, "us"),
        "serve.cache.decode_us": (
            tracer.mean_ms("serve.cache.decode", in_op=True) * 1e3, "us"),
        "serve.cache_key.us": (tracer.mean_ms("serve.cache_key", in_op=True) * 1e3, "us"),
        "share.core": (tracer.layer_share("core"), "frac"),
        "share.serve": (tracer.layer_share("serve"), "frac"),
        "share.bench": (tracer.layer_share("bench"), "frac"),
    })
    outcome.per_layer = layer
    outcome.notes.append(
        f"in-process replay of {replays} traced requests: cache_key + evaluate_prm "
        f"+ encode + decode; miss latency minus these is the tick and IPC share")
    tracer.write(harness.ROOT / ".perfbench" / "spans-serve.jsonl")
    return outcome


def _replay(tracer: Tracer, requests: list[Request]) -> None:
    """The model-side work of each request, in-process and traced."""
    for index, request in enumerate(requests):
        tracer.request_id = index
        device = get_device(request.device)
        with tracer.span("bench.replay_op", op=True):
            cache_key(request.prm, device, ICAP_VIRTEX5_BYTES_PER_S)
            try:
                result = evaluate_prm(request.prm, device)
            except ReproError:
                continue
            decode_result(encode_result(result, ICAP_VIRTEX5_BYTES_PER_S), device)
