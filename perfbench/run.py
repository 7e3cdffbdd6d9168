"""The serving benchmark: one workload, one seed, end-to-end or per-layer.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload longtail-closed --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --workload hotkey-burst --seconds 20 --steadiness 10

``--trace 0`` prints the end-to-end metrics of an untraced run; ``--trace 1``
prints the per-layer metrics of a traced run.  Every answer is checked.
The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.

``--steadiness N`` runs the workload 2N times as two interleaved, labelled
sets (A and B) with distinct seeds and prints, per end-to-end metric, each
set's median and quartiles and the gap between the sets, against the
bounds in ``BENCHMARK.json``.

The program is built from ``src/`` of the checkout; without it this
command exits with code 2 before measuring anything.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import shutil
import subprocess
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SERVE = os.path.join(ROOT, "perfbench", "serve.py")
WORK_ROOT = os.path.join(ROOT, ".perfbench")

#: Set-up is measured in this many fresh processes per run (the measured
#: one included) and reported as their median.
SETUP_RUNS = 7
#: The measured requests are cut into this many parts for the medians.
QUARTERS = 4
#: Requests probed layer by layer in the traced run.
PROBE_REQUESTS = 40
CHILD_TIMEOUT_S = 150

E2E_UNITS = {
    "throughput_rps": "req/s",
    "latency_p50_ms": "ms",
    "latency_p90_ms": "ms",
    "setup_s": "s",
    "correct_share": "ratio",
    "peak_rss_mb": "MiB",
}


def _program_present() -> bool:
    return os.path.isfile(os.path.join(ROOT, "src", "repro", "__init__.py"))


if _program_present():
    sys.path[:0] = [os.path.join(ROOT, "src"), ROOT]


def _child(inputs_path: str, mode: str, out_path: str) -> dict:
    from perfbench.procs import run_child

    spawned_at = time.time()
    run_child(
        [
            sys.executable,
            SERVE,
            "--inputs",
            inputs_path,
            "--mode",
            mode,
            "--out",
            out_path,
            "--spawned-at",
            repr(spawned_at),
        ],
        timeout=CHILD_TIMEOUT_S,
        cwd=ROOT,
        stdout=sys.stderr,
    )
    with open(out_path, encoding="utf-8") as handle:
        return json.load(handle)


class Run:
    """The inputs of one workload and seed, and the processes that serve them."""

    def __init__(self, workdir: str, workload_name: str, seed: int, seconds: int):
        from repro.workloads.registry import get_scenario

        from perfbench.check import reference_digest
        from perfbench.workloads import (
            WORKLOADS,
            delta_schedule,
            delta_to_json,
            num_requests,
            realise,
            write_shards,
        )

        self.workdir = workdir
        self.workload = WORKLOADS[workload_name]
        self.seed = seed
        self.count = num_requests(self.workload, seconds)
        realised = realise(self.workload, seed, self.count)
        self.pristine = write_shards(
            os.path.join(workdir, "pristine"), self.workload, realised
        )
        self.served = {
            name: os.path.join(workdir, os.path.basename(path))
            for name, path in self.pristine.items()
        }
        writes = 0
        if self.workload.write_every:
            writes = self.count // self.workload.write_every
        self.schedule = delta_schedule(realised, seed, writes)
        # Set-up ends when each shard has answered the first of two warm-up
        # requests.  They come from the scenario's own seed, not ``seed``,
        # so set-up does the same work in every run.
        warmup = {}
        fixed = realise(self.workload, get_scenario(self.workload.scenario).seed, 8)
        graphs = dict(fixed.databases)
        for timed, line in zip(fixed.requests, fixed.request_lines()):
            shard = timed.request.database
            answers = warmup.setdefault(shard, [])
            if len(answers) < 2:
                answers.append([line, reference_digest(timed.request.spec, graphs[shard])])
        # A closed-loop traced run serves the first half of the stream twice
        # (untraced, then traced), so it costs about one untraced run.
        trace_requests = self.count
        if self.workload.loop == "closed":
            trace_requests = math.ceil(self.count / 2)
        self.inputs = {
            "workload": workload_name,
            "shards": self.served,
            "pristine_shards": self.pristine,
            "requests": [
                [timed.offset_s, line]
                for timed, line in zip(realised.requests, realised.request_lines())
            ],
            "warmup": warmup,
            "writes": [[shard, delta_to_json(delta)] for shard, delta in self.schedule],
            "trace_requests": trace_requests,
            "probe_requests": PROBE_REQUESTS,
            "spans_path": os.path.join(
                WORK_ROOT, "spans", f"{workload_name}-seed{seed}.jsonl"
            ),
        }
        self.inputs_path = os.path.join(workdir, "inputs.json")
        with open(self.inputs_path, "w", encoding="utf-8") as handle:
            json.dump(self.inputs, handle)
        self._children = 0

    def child(self, mode: str) -> dict:
        """Serve from fresh copies of the shard files in a new process."""
        for name, path in self.pristine.items():
            shutil.copyfile(path, self.served[name])
        self._children += 1
        out = os.path.join(self.workdir, f"result{self._children}.json")
        return _child(self.inputs_path, mode, out)

    def check(self, results):
        """Score every reply of ``results`` against its generation's reference."""
        from perfbench.check import Checker
        from perfbench.workloads import delta_to_json

        writes = max(len(result["writes"]) for result in results)
        deltas = {}
        for shard, delta in self.schedule[:writes]:
            deltas.setdefault(shard, []).append(delta_to_json(delta))
        scores = []
        with Checker(self.workload.name, self.seed, self.count, deltas) as checker:
            for result in results:
                versions = {
                    shard: {version: 0}
                    for shard, version in result["initial_versions"].items()
                }
                for shard, applied, version in result["writes"]:
                    versions[shard][version] = applied
                scores.append(checker.score(result["replies"], versions))
        return scores


def _end_to_end(run: Run):
    """Set-up replicates and the measured run: the end-to-end metrics."""
    from perfbench.stats import median, percentile

    results = [run.child("setup") for _ in range(SETUP_RUNS - 1)]
    main = run.child("run")
    results.append(main)
    scores = run.check([main])
    # Replies in stream order, cut into QUARTERS consecutive parts: each
    # rate and percentile is the median of its value in every part, so a
    # few slow seconds of the host move one part, not the figure.
    replies = list(zip(main["replies"], main["latency_s"], main["done_s"]))
    size = len(replies) // QUARTERS
    parts = [replies[k * size : (k + 1) * size] for k in range(QUARTERS)]
    rates, p50s, p90s = [], [], []
    previous_end = 0.0
    for part in parts:
        end = max(done for _reply, _latency, done in part)
        ok = [latency for reply, latency, _done in part if reply[1]]
        rates.append(len(ok) / (end - previous_end))
        previous_end = end
        p50s.append(percentile(ok, 50))
        p90s.append(percentile(ok, 90))
    metrics = {
        "throughput_rps": median(rates),
        "latency_p50_ms": median(p50s) * 1000.0,
        "latency_p90_ms": median(p90s) * 1000.0,
        "setup_s": median([result["setup_s"] for result in results]),
        "correct_share": scores[0].share,
        "peak_rss_mb": main["peak_rss_mb"],
    }
    notes = {"latency_samples_per_part": size, "setup_samples": len(results)}
    if run.workload.loop == "open":
        # Every end-to-end metric is reported on every workload, but on an
        # open loop this one only repeats the offered rate until the service
        # saturates, so the run output says so.
        notes["throughput_rps"] = f"open loop: the offered rate ({run.workload.rate:g} req/s)"
    return E2E_UNITS, metrics, results, scores, notes


def _per_layer(run: Run):
    """An untraced and a traced pass over the same requests: layer metrics."""
    from perfbench.layers import PER_LAYER
    from perfbench.stats import percentile

    plain = run.child("plain")
    traced = run.child("trace")
    scores = run.check([plain, traced])
    metrics = dict(traced["layers"])
    metrics["driver.late_p90_ms"] = 0.0
    if run.workload.loop == "open":
        metrics["driver.late_p90_ms"] = percentile(traced["late_s"], 90) * 1000.0
    metrics["driver.trace_overhead_share"] = traced["wall_s"] / plain["wall_s"]
    units = {name: unit for name, unit, _better, _moves in PER_LAYER}
    notes = {"spans": os.path.relpath(run.inputs["spans_path"], ROOT)}
    return units, metrics, [plain, traced], scores, notes


def measure(workload: str, seed: int, seconds: int, trace: bool):
    """One run: ``(correct, attempted, failed, metrics, notes)``."""
    workdir = os.path.join(WORK_ROOT, f"work-{os.getpid()}")
    shutil.rmtree(workdir, ignore_errors=True)
    os.makedirs(workdir)
    os.makedirs(os.path.join(WORK_ROOT, "spans"), exist_ok=True)
    try:
        run = Run(workdir, workload, seed, seconds)
        units, metrics, results, scores, notes = (_per_layer if trace else _end_to_end)(run)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    notes.update(
        every_worker_mapped_every_shard=all(
            result.get("every_worker_mapped_every_shard", True) for result in results
        ),
        misversioned_replies=sum(score.misversioned for score in scores),
        wrong_replies=sum(score.wrong for score in scores),
        writes=len(results[-1]["writes"]),
    )
    correct = all(score.consistent for score in scores) and all(
        result["setup_ok"] for result in results
    )
    attempted = sum(score.attempted for score in scores)
    failed = sum(score.failed for score in scores)
    return correct, attempted, failed, {
        name: {"value": metrics[name], "unit": unit} for name, unit in units.items()
    }, notes


def steadiness(arguments) -> int:
    """Two interleaved labelled sets of the same code; the gap between them."""
    from perfbench.stats import quartiles

    bounds = {}
    benchmark = os.path.join(ROOT, "BENCHMARK.json")
    if os.path.isfile(benchmark):
        with open(benchmark, encoding="utf-8") as handle:
            spec = json.load(handle)
        bounds = {metric["name"]: metric for metric in spec["end_to_end"]}
    sets = {"A": [], "B": []}
    for index in range(arguments.steadiness):
        for label, seed in (("A", 1 + index), ("B", 1001 + index)):
            completed = subprocess.run(
                [
                    sys.executable,
                    os.path.abspath(__file__),
                    "--workload",
                    arguments.workload,
                    "--seed",
                    str(seed),
                    "--seconds",
                    str(arguments.seconds),
                    "--trace",
                    "0",
                ],
                cwd=ROOT,
                stdout=subprocess.PIPE,
                text=True,
                check=True,
            )
            result = json.loads(completed.stdout.strip().splitlines()[-1])
            sets[label].append(result)
            print(f"{label} seed {seed}: " + json.dumps(result), file=sys.stderr)
    names = list(sets["A"][0]["metrics"])
    header = f"{'metric':16} {'set':3} {'median':>10} {'q1':>10} {'q3':>10} {'spread':>7}  {'gap':>7} {'bound':>6}"
    print(f"steadiness of {arguments.workload}: 2 x {arguments.steadiness} runs")
    print(header)
    worst_ok = True
    for name in names:
        medians = {}
        for label in ("A", "B"):
            values = [result["metrics"][name]["value"] for result in sets[label]]
            q = quartiles(values)
            medians[label] = q["median"]
            print(
                f"{name:16} {label:3} {q['median']:10.4f} {q['q1']:10.4f} "
                f"{q['q3']:10.4f} {q['spread']:7.3f}"
            )
        bound = bounds.get(name, {}).get("bound")
        better = bounds.get(name, {}).get("better", "lower")
        gap = (medians["B"] - medians["A"]) / medians["A"] if medians["A"] else 0.0
        worse = gap if better == "lower" else -gap
        verdict = "-" if bound is None else ("ok" if worse <= bound else "WORSE")
        worst_ok = worst_ok and verdict != "WORSE"
        print(f"{'':16} {'B-A':3} {'':32} {'':7}  {gap:+7.3f} {bound if bound is not None else '-':>6} {verdict}")
    correct = all(r["correct"] for runs in sets.values() for r in runs)
    print(f"all runs correct: {correct}")
    return 0 if worst_ok and correct else 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=20)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--steadiness", type=int, default=0, metavar="N",
        help="run the workload 2N times as two interleaved sets and compare them",
    )
    arguments = parser.parse_args(argv)
    if not _program_present():
        print(
            "perfbench: no program to measure: src/repro is missing under " + ROOT,
            file=sys.stderr,
        )
        return 2
    from perfbench.workloads import WORKLOADS

    if arguments.workload not in WORKLOADS:
        parser.error(f"unknown workload {arguments.workload!r} (known: {', '.join(WORKLOADS)})")
    if arguments.seconds < 1:
        parser.error("--seconds must be at least 1")
    if arguments.steadiness:
        return steadiness(arguments)
    from perfbench.procs import stop_resource_tracker

    try:
        correct, attempted, failed, metrics, notes = measure(
            arguments.workload, arguments.seed, arguments.seconds, bool(arguments.trace)
        )
    finally:
        # The answer check's spawned pool started it; it must not outlive us.
        stop_resource_tracker()
    for name, metric in metrics.items():
        print(f"{arguments.workload} {name} = {metric['value']:.6g} {metric['unit']}")
    print(f"{arguments.workload} notes: " + json.dumps(notes, sort_keys=True))
    print(
        json.dumps(
            {"correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics}
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
