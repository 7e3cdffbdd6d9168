"""Self-tests of the serving benchmark.

Run from the repository root with ``python -m pytest perfbench -q``.  The
traced-run test starts benchmark processes and takes about two minutes.
"""

from __future__ import annotations

import asyncio
import os
import shutil
import subprocess
import sys
import time

import pytest

from repro.service.registry import DatabaseRegistry
from repro.service.requests import ServiceResult
from repro.service.service import QueryService

from perfbench.check import Checker
from perfbench.drive import answer_digest, open_loop
from perfbench.run import measure
from perfbench.spans import NullRecorder, SpanRecorder
from perfbench.stats import InsufficientSamples, percentile
from perfbench.workloads import (
    WORKLOADS,
    delta_schedule,
    delta_to_json,
    realise,
    stream_digest,
)

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def _inputs(name: str, seed: int, count: int = 60):
    realised = realise(WORKLOADS[name], seed, count)
    return realised, delta_schedule(realised, seed, 6)


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_seed_fixes_the_request_stream_and_the_deltas(name):
    first = stream_digest(*_inputs(name, 3))
    assert stream_digest(*_inputs(name, 3)) == first
    assert stream_digest(*_inputs(name, 4)) != first


def test_percentile_refuses_a_thin_tail():
    samples = list(range(99))
    assert percentile(samples, 50) == 49
    with pytest.raises(InsufficientSamples):
        percentile(samples, 90)
    assert percentile(list(range(100)), 90) == 89


def test_self_time_subtracts_children():
    recorder = SpanRecorder()
    with recorder.span("outer", "r"):
        time.sleep(0.02)
        with recorder.span("inner", "r"):
            time.sleep(0.03)
    outer, inner = recorder.spans
    assert inner.parent == outer.span_id and inner.request_id == "r"
    selfs = recorder.self_times_ns()
    assert selfs["outer"][0] == outer.duration_ns - inner.duration_ns
    assert selfs["inner"][0] == inner.duration_ns


def _served_envelopes(realised, indices):
    async def run():
        registry = DatabaseRegistry()
        for name, db in realised.databases:
            registry.register(name, db.copy())
        async with QueryService(registry) as service:
            lines = realised.request_lines()
            return [await service.submit_line(lines[index]) for index in indices]

    return asyncio.run(run())


def test_check_flags_a_tampered_reply_and_a_wrong_version():
    realised, schedule = _inputs("live-process", 5, count=8)
    shard, delta = schedule[0]
    index = next(
        i for i, timed in enumerate(realised.requests) if timed.request.database == shard
    )
    (envelope,) = _served_envelopes(realised, [index])
    assert envelope.ok
    good = answer_digest(envelope)
    envelope.tuples = envelope.tuples[1:]
    tampered = answer_digest(envelope)
    base_version = 0
    versions = {shard: {base_version: 0, 1: 1}}
    deltas = {shard: [delta_to_json(delta)]}
    with Checker("live-process", 5, 8, deltas) as checker:
        assert checker.score([[index, True, shard, base_version, good]], versions).share == 1.0
        tampered_score = checker.score([[index, True, shard, base_version, tampered]], versions)
        assert tampered_score.correct == 0 and tampered_score.wrong == 1
        assert not tampered_score.consistent
        # The base answer reported as version 1 (after the delta).
        misversioned = checker.score([[index, True, shard, 1, good]], versions)
        assert misversioned.correct == 0 and misversioned.misversioned == 1
        assert misversioned.wrong == 0 and misversioned.share == 0.0
        unknown = checker.score([[index, True, shard, 7, good]], versions)
        assert unknown.wrong == 1
        failed = checker.score([[index, False, shard, base_version, good]], versions)
        assert failed.failed == 1 and not failed.consistent


class _StallingService:
    """Answers at once, except one request that blocks the event loop."""

    def __init__(self, stall_line: str, stall_s: float):
        self.stall_line = stall_line
        self.stall_s = stall_s
        self.stall_end = None

    async def submit_line(self, line, overflow="raise"):
        if line == self.stall_line:
            time.sleep(self.stall_s)
            self.stall_end = time.perf_counter()
        return ServiceResult(database="shard0", ok=True, boolean=True)


def test_open_loop_charges_a_stall_to_every_request_due_during_it():
    schedule = [(index * 0.02, f"request-{index}") for index in range(20)]
    service = _StallingService("request-3", 0.3)

    async def run():
        start = time.perf_counter()
        return start, await open_loop(
            service, schedule, start=start, recorder=NullRecorder()
        )

    start, replies = asyncio.run(run())
    stall_begin = start + schedule[3][0]
    blocked = [
        reply for reply in replies if stall_begin < reply.due < service.stall_end
    ]
    assert len(blocked) >= 12
    for reply in blocked:
        assert reply.latency_s >= service.stall_end - reply.due - 1e-3
        assert reply.late_s >= service.stall_end - reply.due - 1e-3
    assert all(reply.latency_s < 0.05 for reply in replies if reply.due > service.stall_end)


COUNTS = (
    "engine.route_crpq",
    "engine.route_simple",
    "engine.route_vsf",
    "engine.route_bounded",
    "cache.relations_miss_share",
    "cache.lazy_rows_misses",
    "cache.lazy_rows_evictions",
    "cache.csr_misses",
    "planner.plans",
    "planner.forced_pairs",
    "broker.dedup_share",
    "driver.requests",
)


@pytest.mark.parametrize("name,seconds", [("longtail-closed", 10), ("hotkey-burst", 5)])
def test_traced_counts_repeat_exactly(name, seconds):
    runs = [measure(name, 2, seconds, trace=True) for _ in range(2)]
    for correct, attempted, failed, _metrics, _notes in runs:
        assert correct and failed == 0 and attempted > 0
    first, second = (
        {key: metrics[key]["value"] for key in COUNTS} for _c, _a, _f, metrics, _n in runs
    )
    assert first == second


def test_without_the_program_the_command_fails_fast(tmp_path):
    shutil.copytree(
        os.path.join(ROOT, "perfbench"),
        tmp_path / "perfbench",
        ignore=shutil.ignore_patterns("__pycache__"),
    )
    benchmark = os.path.join(ROOT, "BENCHMARK.json")
    if os.path.isfile(benchmark):
        shutil.copy(benchmark, tmp_path)
    completed = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "longtail-closed",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path,
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert completed.returncode != 0
    assert completed.stdout == ""


def test_benchmark_json_matches_the_code():
    import json

    from perfbench.layers import PER_LAYER
    from perfbench.run import E2E_UNITS

    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as handle:
        spec = json.load(handle)
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == E2E_UNITS
    assert [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]] == [
        (name, unit, better) for name, unit, better, _moves in PER_LAYER
    ]


# A child that records its session id, leaves a sleeping grandchild behind,
# then exits or hangs.
_LEAVES_A_GRANDCHILD = (
    "import os, subprocess, sys, time; "
    "open(sys.argv[1], 'w').write(str(os.getsid(0))); "
    "subprocess.Popen([sys.executable, '-c', 'import time; time.sleep(60)']); "
    "time.sleep(float(sys.argv[2]))"
)


@pytest.mark.parametrize("child_sleeps, timeout", [(0.0, 30.0), (60.0, 2.0)])
def test_run_child_ends_every_process_it_leaves(tmp_path, child_sleeps, timeout):
    from perfbench.procs import run_child, session_members

    sid_file = tmp_path / "sid"
    argv = [sys.executable, "-c", _LEAVES_A_GRANDCHILD, str(sid_file), str(child_sleeps)]
    if child_sleeps:
        with pytest.raises(subprocess.TimeoutExpired):
            run_child(argv, timeout)
    else:
        run_child(argv, timeout)
    assert session_members(int(sid_file.read_text())) == []


def test_a_spawned_pool_leaves_no_resource_tracker():
    completed = subprocess.run(
        [sys.executable, "-c",
         "import concurrent.futures, multiprocessing, os\n"
         "from perfbench.procs import stop_resource_tracker\n"
         "context = multiprocessing.get_context('spawn')\n"
         "with concurrent.futures.ProcessPoolExecutor(1, mp_context=context) as pool:\n"
         "    assert pool.submit(os.getpid).result() != os.getpid()\n"
         "stop_resource_tracker()\n"
         "print(multiprocessing.resource_tracker._resource_tracker._pid)\n"],
        cwd=ROOT,
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert completed.returncode == 0, completed.stderr
    assert completed.stdout.strip() == "None"
