"""The per-layer metrics of the traced run.

Each entry is ``(name, unit, better, what it should move)``: the last
field names the end-to-end metric the layer should move and the workload
where it is heavy, as predicted before measuring.
"""

PER_LAYER = (
    ("requests.decode_us", "us", "lower", "nothing visible: under 1% of a request, all workloads"),
    ("queries.build_us", "us", "lower", "nothing visible, all workloads"),
    ("engine.dispatch_us", "us", "lower", "nothing visible, all workloads"),
    ("engine.route_crpq", "count", "higher", "none; counts repeat exactly; longtail-closed and live-process are CRPQ only"),
    ("engine.route_simple", "count", "higher", "none; hotkey-burst (70% of its requests)"),
    ("engine.route_vsf", "count", "higher", "none; hotkey-burst"),
    ("engine.route_bounded", "count", "higher", "none; hotkey-burst"),
    ("engine.evaluate_cold_ms", "ms", "lower", "throughput_rps, latency_p50_ms on longtail-closed and live-process"),
    ("kernel.cold_minus_warm_ms", "ms", "lower", "throughput_rps, latency_p50_ms on longtail-closed and live-process"),
    ("cache.relations_miss_share", "ratio", "lower", "throughput_rps on longtail-closed (1.0 by design); warm on hotkey-burst"),
    ("cache.lazy_rows_misses", "count", "lower", "throughput_rps on longtail-closed and live-process"),
    ("cache.lazy_rows_evictions", "count", "lower", "throughput_rps on longtail-closed and live-process"),
    ("cache.csr_misses", "count", "lower", "latency_p90_ms, setup_s on live-process (one per generation)"),
    ("engine.evaluate_warm_ms", "ms", "lower", "latency_p50_ms, throughput_rps on longtail-closed (~3.5k answers per request)"),
    ("engine.answers_per_request", "count", "higher", "workload shape: ~3.5k on longtail-closed, a few on hotkey-burst"),
    ("planner.plans", "count", "lower", "latency_p50_ms on longtail-closed; repeats exactly"),
    ("planner.forced_pairs", "count", "lower", "latency_p50_ms on longtail-closed; repeats exactly"),
    ("encode.us", "us", "lower", "latency_p50_ms on longtail-closed; almost none on hotkey-burst (Boolean replies)"),
    ("encode.bytes_per_reply", "bytes", "lower", "latency_p50_ms on longtail-closed"),
    ("broker.queue_wait_p50_ms", "ms", "lower", "latency_p50_ms on hotkey-burst; empty queue on longtail-closed"),
    ("broker.queue_wait_p90_ms", "ms", "lower", "latency_p90_ms on hotkey-burst"),
    ("broker.dedup_share", "ratio", "higher", "latency_p50_ms, latency_p90_ms on hotkey-burst; 0 on the long-tail workloads"),
    ("broker.batch_size_mean", "count", "higher", "latency_p90_ms on hotkey-burst"),
    ("procpool.item_bytes", "bytes", "lower", "throughput_rps on live-process; 0 on the thread tier"),
    ("procpool.result_bytes", "bytes", "lower", "throughput_rps, latency_p50_ms on live-process; 0 on the thread tier"),
    ("procpool.pickle_us", "us", "lower", "latency_p50_ms on live-process; 0 on the thread tier"),
    ("procpool.requeues", "count", "lower", "validity: 0 unless a worker dies"),
    ("procpool.deaths", "count", "lower", "validity: 0 unless a worker dies"),
    ("storage.snapshot_load_ms", "ms", "lower", "latency_p90_ms, setup_s on live-process; 0 on the thread tier"),
    ("storage.append_delta_ms", "ms", "lower", "latency_p90_ms on live-process; 0 elsewhere"),
    ("registry.refresh_ms", "ms", "lower", "latency_p90_ms on live-process; 0 elsewhere"),
    ("registry.swaps", "count", "higher", "validity: one per write on live-process; 0 elsewhere"),
    ("driver.requests", "count", "higher", "validity: the traced run's fixed request count"),
    ("driver.late_p90_ms", "ms", "lower", "validity: open-loop generator lateness on hotkey-burst; 0 for closed loops"),
    ("driver.trace_overhead_share", "ratio", "lower", "validity: traced over untraced wall time, near 1.0"),
)
