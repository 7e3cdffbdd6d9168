"""One benchmark process: set the service up, drive the load, report.

Run by ``perfbench/run.py`` with an inputs file that holds the shard paths
and the request lines, never the realised graphs themselves.  The clock of
``setup_s`` starts at this process's spawn and stops when every shard has
returned its first correct answer.  Modes:

* ``setup``  - stop after set-up;
* ``run``    - the untraced measured window (end-to-end metrics);
* ``plain``  - an untraced window over the traced run's requests;
* ``trace``  - the same requests with spans, then the layer probes.

The result is written as JSON to ``--out``.
"""

from __future__ import annotations

import argparse
import asyncio
import collections
import json
import multiprocessing
import os
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path[:0] = [os.path.join(ROOT, "src"), ROOT]

from repro.graphdb.storage import append_delta  # noqa: E402
from repro.service.registry import DatabaseRegistry  # noqa: E402
from repro.service.service import QueryService  # noqa: E402

from perfbench.drive import Reply, answer_digest, closed_loop, open_loop  # noqa: E402
from perfbench.procs import stop_resource_tracker  # noqa: E402
from perfbench.spans import NullRecorder, SpanRecorder  # noqa: E402
from perfbench.workloads import WORKLOADS, delta_from_json  # noqa: E402

#: Evaluation workers (threads or processes), as ``repro serve`` defaults.
WORKERS = 2
#: Closed-loop clients on every closed-loop workload.
CLIENTS = 2
WARMUP_ROUNDS = 8


def vm_hwm_kib(pid: str = "self") -> int:
    with open(f"/proc/{pid}/status", encoding="ascii") as handle:
        for line in handle:
            if line.startswith("VmHWM:"):
                return int(line.split()[1])
    raise RuntimeError(f"no VmHWM in /proc/{pid}/status")


def peak_rss_mib() -> float:
    """VmHWM of this process plus every live multiprocessing child."""
    total = vm_hwm_kib()
    for child in multiprocessing.active_children():
        try:
            total += vm_hwm_kib(str(child.pid))
        except FileNotFoundError:
            pass
    return total / 1024.0


class Writer:
    """Appends the scheduled deltas, one per ``write_every`` completed reads."""

    def __init__(self, service: QueryService, paths, writes, write_every, recorder):
        self.service = service
        self.paths = paths
        self.writes = [(shard, delta_from_json(delta)) for shard, delta in writes]
        self.write_every = write_every
        self.recorder = recorder
        self.queue: asyncio.Queue = asyncio.Queue()
        self.completed = 0
        self.log = []  # (shard, deltas on that shard, reported version)
        self.append_s = []
        self.refresh_s = []
        self._per_shard = {}
        self.task = None

    def on_reply(self, reply: Reply) -> None:
        self.completed += 1
        if self.write_every and self.completed % self.write_every == 0:
            index = self.completed // self.write_every - 1
            if index < len(self.writes):
                self.queue.put_nowait(index)

    async def run(self) -> None:
        while True:
            index = await self.queue.get()
            if index is None:
                return
            shard, delta = self.writes[index]
            with self.recorder.span("storage.append_delta"):
                started = time.perf_counter()
                await asyncio.to_thread(append_delta, self.paths[shard], delta)
                self.append_s.append(time.perf_counter() - started)
            with self.recorder.span("registry.refresh"):
                started = time.perf_counter()
                entry = await self.service.refresh(shard)
                self.refresh_s.append(time.perf_counter() - started)
            self._per_shard[shard] = self._per_shard.get(shard, 0) + 1
            self.log.append([shard, self._per_shard[shard], entry.version])

    async def stop(self) -> None:
        self.queue.put_nowait(None)
        await self.task


def cache_report(service: QueryService, names):
    """Cache counters of the served shards, summed (process tier: per worker)."""
    from repro.graphdb.cache import cache_stats
    from repro.service.telemetry import aggregate_cache_stats

    stats = service.stats()
    if "worker_caches" in stats:
        return aggregate_cache_stats(stats["worker_caches"])
    reports = []
    for name in names:
        entry = service.registry.peek(name)
        if entry is not None:
            reports.append(cache_stats(entry.db))
    return aggregate_cache_stats(reports)


async def map_shards_on_every_worker(service: QueryService, warmup):
    """Process tier: send pairs of requests per shard until every worker has
    mapped every shard, so no worker maps a shard after the first write.

    Returns ``(all mapped, every answer correct)``.
    """
    answered = True
    for _round in range(WARMUP_ROUNDS):
        reports = service.stats().get("worker_caches", [])
        if len(reports) == WORKERS and all(
            report["csr"]["preloaded"] >= len(warmup) for report in reports
        ):
            return True, answered
        for _shard, answers in sorted(warmup.items()):
            envelopes = await asyncio.gather(
                *(service.submit_line(line) for line, _digest in answers)
            )
            answered = answered and all(
                envelope.ok and answer_digest(envelope) == digest
                for envelope, (_line, digest) in zip(envelopes, answers)
            )
    return False, answered


async def serve(inputs, mode: str, spawned_at: float):
    workload = WORKLOADS[inputs["workload"]]
    paths = inputs["shards"]
    lines = [line for _offset, line in inputs["requests"]]
    registry = DatabaseRegistry()
    for name, path in paths.items():
        if path.endswith(".rgsnap"):
            registry.register_lazy(name, path)
        else:
            registry.load(name, path)
    service = QueryService(registry, concurrency=WORKERS, pool=workload.tier)
    recorder = SpanRecorder() if mode == "trace" else NullRecorder()
    result = {"mode": mode}
    async with service:
        setup_ok = True
        for _shard, answers in sorted(inputs["warmup"].items()):
            line, digest = answers[0]
            envelope = await service.submit_line(line)
            setup_ok = setup_ok and envelope.ok and answer_digest(envelope) == digest
        if workload.tier == "process":
            mapped, answered = await map_shards_on_every_worker(service, inputs["warmup"])
            result["every_worker_mapped_every_shard"] = mapped
            setup_ok = setup_ok and answered
        result["setup_s"] = time.time() - spawned_at
        result["setup_ok"] = setup_ok
        result["initial_versions"] = {
            name: registry.peek(name).version for name in paths
        }
        if mode == "setup":
            return result
        writer = Writer(
            service, paths, inputs["writes"], workload.write_every, recorder
        )
        writer.task = asyncio.create_task(writer.run())
        start = time.perf_counter()
        if workload.loop == "open":
            replies = await open_loop(
                service, inputs["requests"], start=start, recorder=recorder
            )
        else:
            replies = await closed_loop(
                service,
                lines[: inputs["trace_requests"]] if mode != "run" else lines,
                clients=CLIENTS,
                recorder=recorder,
                on_reply=writer.on_reply,
            )
        await writer.stop()
        result["wall_s"] = max(reply.done for reply in replies) - start
        result["peak_rss_mb"] = peak_rss_mib()
        result["writes"] = writer.log
        result["replies"] = [
            [r.index, r.ok, r.shard, r.version, r.digest] for r in replies
        ]
        result["latency_s"] = [r.latency_s for r in replies]
        result["done_s"] = [r.done - start for r in replies]
        result["late_s"] = [r.late_s for r in replies]
        if mode == "trace":
            result["layers"] = layer_counters(service, paths, replies, writer)
    if mode == "trace":
        result["layers"].update(probe_layers(inputs, workload, recorder, replies))
        recorder.write_jsonl(inputs["spans_path"])
    return result


def layer_counters(service: QueryService, paths, replies, writer):
    """Counters read from the service after the traced window."""
    from perfbench.stats import median, percentile

    stats = service.stats()
    caches = cache_report(service, list(paths))
    relations = caches["relations"]
    lookups = relations["hits"] + relations["misses"]
    broker = stats["broker"]
    workers = stats["workers"]
    waits = [r.queue_wait_s * 1000.0 for r in replies]
    ok = [r for r in replies if r.ok]
    return {
        "cache.relations_miss_share": relations["misses"] / lookups if lookups else 0.0,
        "cache.lazy_rows_misses": caches["lazy_rows"]["misses"],
        "cache.lazy_rows_evictions": caches["lazy_rows"]["evictions"],
        "cache.csr_misses": caches["csr"]["misses"],
        "engine.answers_per_request": sum(r.answers for r in ok) / max(1, len(ok)),
        "encode.bytes_per_reply": sum(r.encoded_bytes for r in replies) / len(replies),
        "broker.queue_wait_p50_ms": percentile(waits, 50),
        "broker.queue_wait_p90_ms": percentile(waits, 90),
        "broker.dedup_share": sum(r.deduplicated for r in replies) / len(replies),
        "broker.batch_size_mean": broker["admitted"] / max(1, broker["batches"]),
        "procpool.requeues": workers.get("requeued", 0),
        "procpool.deaths": workers.get("deaths", 0),
        "storage.append_delta_ms": median(writer.append_s) * 1000.0 if writer.append_s else 0.0,
        "registry.refresh_ms": median(writer.refresh_s) * 1000.0 if writer.refresh_s else 0.0,
        "registry.swaps": stats["registry"]["swaps"],
        "driver.requests": len(replies),
    }


def route_of(query, generic_path_bound) -> str:
    """The engine route the dispatcher takes, as the dispatcher selects it."""
    from repro.engine.engine import _select_cxrpq_engine
    from repro.queries.crpq import CRPQ
    from repro.queries.cxrpq import CXRPQ

    if isinstance(query, CXRPQ):
        return _select_cxrpq_engine(query, generic_path_bound) or "none"
    if isinstance(query, CRPQ):
        return "crpq"
    return type(query).__name__.lower()


def probe_layers(inputs, workload, recorder: SpanRecorder, replies):
    """Calls into each layer, from outside, for the requests served.

    Every served request is classified by route.  The first
    ``probe_requests`` of them, in stream order, are decoded, built,
    dispatched and evaluated twice (cold, then an immediate warm repeat)
    on fresh shard graphs loaded from the pristine shard copies; on the
    process tier their work item and result are pickled as well.
    """
    import pickle

    from repro.engine.engine import can_evaluate, evaluate
    from repro.engine.planner import planner_stats
    from repro.graphdb.io import load_database
    from repro.graphdb.storage import load_snapshot
    from repro.service.procpool.messages import WorkItem, WorkResult
    from repro.service.requests import QueryRequest

    from perfbench.stats import median

    lines = [line for _offset, line in inputs["requests"]]
    routes = collections.Counter()
    parsed = {}
    for reply in replies:
        line = lines[reply.index]
        if line not in parsed:
            spec = QueryRequest.from_json(line).spec
            parsed[line] = route_of(spec.to_query(), spec.generic_path_bound)
        routes[parsed[line]] += 1

    graphs = {
        name: load_database(path) for name, path in inputs["pristine_shards"].items()
    }
    cold, warm, gap = [], [], []
    item_bytes, result_bytes, pickle_us = [], [], []
    planner_before = planner_stats()
    for reply in replies[: inputs["probe_requests"]]:
        rid = str(reply.index)
        line = lines[reply.index]
        with recorder.span("probe", rid):
            with recorder.span("requests.decode", rid):
                request = QueryRequest.from_json(line)
            with recorder.span("queries.build", rid):
                query = request.spec.to_query()
            with recorder.span("engine.dispatch", rid):
                can_evaluate(query, generic_path_bound=request.spec.generic_path_bound)
            db = graphs[request.database]
            options = dict(
                generic_path_bound=request.spec.generic_path_bound,
                boolean_short_circuit=query.is_boolean,
            )
            with recorder.span("engine.evaluate_cold", rid) as span:
                evaluation = evaluate(query, db, **options)
            cold.append(span.duration_ns / 1e6)
            with recorder.span("engine.evaluate_warm", rid) as span:
                evaluate(query, db, **options)
            warm.append(span.duration_ns / 1e6)
            gap.append(cold[-1] - warm[-1])
            if workload.tier == "process":
                item_id = (request.database, 0, 0, repr(request.spec.fingerprint(query)), 1)
                with recorder.span("procpool.pickle", rid) as span:
                    item = pickle.dumps(
                        WorkItem(
                            item_id=item_id,
                            shard=request.database,
                            path=inputs["shards"][request.database],
                            fmt=None,
                            spec=request.spec.to_payload(),
                        )
                    )
                    tuples = None
                    if request.spec.output_variables:
                        tuples = tuple(sorted(evaluation.tuples, key=repr))
                    result = pickle.dumps(
                        WorkResult(
                            item_id=item_id,
                            worker_id=0,
                            ok=True,
                            boolean=evaluation.boolean,
                            tuples=tuples,
                        )
                    )
                pickle_us.append(span.duration_ns / 1e3)
                item_bytes.append(len(item))
                result_bytes.append(len(result))
    planner_after = planner_stats()

    snapshot_ms = []
    if workload.shard_format == "rgsnap":
        for path in inputs["shards"].values():
            started = time.perf_counter()
            load_snapshot(path)
            snapshot_ms.append((time.perf_counter() - started) * 1000.0)

    selfs = recorder.self_times_ns()

    def self_us(name: str) -> float:
        return median(selfs[name]) / 1e3

    return {
        "requests.decode_us": self_us("requests.decode"),
        "queries.build_us": self_us("queries.build"),
        "engine.dispatch_us": self_us("engine.dispatch"),
        "engine.route_crpq": routes["crpq"],
        "engine.route_simple": routes["simple"],
        "engine.route_vsf": routes["vsf"],
        "engine.route_bounded": routes["bounded"],
        "engine.evaluate_cold_ms": median(cold),
        "engine.evaluate_warm_ms": median(warm),
        "kernel.cold_minus_warm_ms": median(gap),
        "planner.plans": planner_after["plans"] - planner_before["plans"],
        "planner.forced_pairs": planner_after["forced_pairs"] - planner_before["forced_pairs"],
        "encode.us": self_us("encode"),
        "procpool.item_bytes": sum(item_bytes) / len(item_bytes) if item_bytes else 0.0,
        "procpool.result_bytes": sum(result_bytes) / len(result_bytes) if result_bytes else 0.0,
        "procpool.pickle_us": median(pickle_us) if pickle_us else 0.0,
        "storage.snapshot_load_ms": median(snapshot_ms) if snapshot_ms else 0.0,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--inputs", required=True)
    parser.add_argument("--mode", choices=("setup", "run", "plain", "trace"), required=True)
    parser.add_argument("--out", required=True)
    parser.add_argument("--spawned-at", type=float, required=True)
    arguments = parser.parse_args(argv)
    with open(arguments.inputs, encoding="utf-8") as handle:
        inputs = json.load(handle)
    try:
        result = asyncio.run(serve(inputs, arguments.mode, arguments.spawned_at))
    finally:
        # Process-tier workers are spawned, which starts a resource tracker.
        stop_resource_tracker()
    with open(arguments.out, "w", encoding="utf-8") as handle:
        json.dump(result, handle)
    return 0


if __name__ == "__main__":
    sys.exit(main())
