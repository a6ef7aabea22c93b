"""Every metric the benchmark reports, by name, with its unit.

``BENCHMARK.json`` lists the same names; a run prints all of the
end-to-end ones with ``--trace 0`` and all of the per-layer ones with
``--trace 1``.  A per-layer metric of a layer a workload never calls
reads 0 (the traced run found no call), which is itself a check of the
workload's design: explore, for one, must spend no time in bitgen.
"""

END_TO_END = {
    "ops_per_s": "1/s",
    "latency_ms_p50": "ms",
    "latency_ms_p99": "ms",
    "peak_rss_mb": "MB",
    "setup_s": "s",
}

PER_LAYER = {
    # host and tracer
    "host.cpu_ms_per_op": "ms",
    "host.ref_ms": "ms",
    "trace.overhead_frac": "frac",
    "trace.absent_shims": "count",
    # share of op time per layer (self time inside op spans)
    "share.workloads": "frac",
    "share.synth": "frac",
    "share.core": "frac",
    "share.bitgen": "frac",
    "share.relocation": "frac",
    "share.faults": "frac",
    "share.multitask": "frac",
    "share.fabric": "frac",
    "share.serve": "frac",
    "share.bench": "frac",
    # designer
    "synth.synthesize.ms": "ms",
    "core.evaluate_prm.ms": "ms",
    "bitgen.generate.ms": "ms",
    "bitgen.to_bytes.ms": "ms",
    "bitgen.parse.ms": "ms",
    "relocation.configure.ms": "ms",
    "relocation.relocate.ms": "ms",
    "faults.payload_crc.ms": "ms",
    "bitgen.words_per_op": "words",
    "bitgen.ns_per_word": "ns",
    # explore
    "core.explore_exhaustive.ms": "ms",
    "core.explore_beam.ms": "ms",
    "core.find_prr.calls": "count",
    "core.find_prr.self_ms": "ms",
    "core.prr_geometry_for_rows.calls": "count",
    "core.prr_geometry_for_rows.self_ms": "ms",
    "devices.device_hash.calls": "count",
    "explore.cache_hit_ratio": "frac",
    "explore.partitions_evaluated": "count",
    # serve
    "serve.submit.us": "us",
    "serve.hit_latency_ms_p50": "ms",
    "serve.miss_latency_ms_p50": "ms",
    "serve.miss_latency_ms_p99": "ms",
    "serve.latency_ms_p99_hi": "ms",
    "serve.max_rps": "1/s",
    "serve.cache_hit_ratio": "frac",
    "serve.coalesced_frac": "frac",
    "serve.shed_frac": "frac",
    "serve.hedges": "count",
    "serve.restarts": "count",
    "serve.cache.encode_us": "us",
    "serve.cache.decode_us": "us",
    "serve.cache_key.us": "us",
    "loadgen.lag_ms_max": "ms",
    # runtime
    "multitask.simulate_pr.us_per_job": "us",
    "faults.simulate_pr_faults.us_per_job": "us",
    "fabric.simulate_on_fabric.us_per_job": "us",
    "fabric.admit.self_ms": "ms",
    "fabric.defrag.self_ms": "ms",
    "relocation.find_compatible_regions.self_ms": "ms",
    "fabric.fragmentation_index.self_ms": "ms",
    "sim.migrations": "count",
    "sim.defrag_passes": "count",
    "sim.rollbacks": "count",
    "sim.evictions": "count",
    "sim.reconfigurations": "count",
    "sim.completion_rate": "frac",
    "sim.makespan_s": "s",
}
