"""The benchmark's workloads: realised from the program's scenario registry.

Each workload names a registry scenario, the overrides that size it, the
serving tier and the load pattern; the shard file format follows the
tier.  ``realise`` turns a workload and a seed into the inputs the
program receives: the shard graphs and the request lines.  ``delta_schedule`` gives the writes
of a live workload, also from the seed.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
from dataclasses import dataclass, replace
from typing import Dict, List, Optional, Tuple

from repro.graphdb.delta import EdgeDelta
from repro.graphdb.database import GraphDatabase
from repro.graphdb.io import save_edge_list
from repro.graphdb.storage import save_snapshot
from repro.workloads.registry import RealizedWorkload, get_scenario, realise as realise_config, scaled

#: Scale-free shards of 128 nodes: a request costs about 30 ms, far above
#: the interpreter's 5 ms thread switch interval, so thread-tier timings
#: measure evaluation rather than lock hand-offs.
SCALE = 128

#: Live writes attach to one of this many highest-degree nodes of a shard.
HUBS = 8
LABELS = "abc"

@dataclass(frozen=True)
class Workload:
    name: str
    scenario: str
    tier: str  # "thread" or "process"
    loop: str  # "closed" or "open"
    #: Open loop: the offered mean rate (requests/second), in volleys of 8.
    rate: Optional[float] = None
    #: Live workloads: one write after every this many completed reads.
    write_every: Optional[int] = None
    #: Closed loop: a run serves a fixed count of requests, this many per
    #: second of ``--seconds`` (about the rate the service sustains on a
    #: 2-vCPU host), so every run does the same work.
    reference_rate: Optional[float] = None

    @property
    def shard_format(self) -> str:
        """Process-tier workers map ``.rgsnap`` snapshots; threads load edge lists."""
        return "rgsnap" if self.tier == "process" else "edges"


WORKLOADS: Dict[str, Workload] = {
    workload.name: workload
    for workload in (
        Workload(
            name="longtail-closed",
            scenario="scale-free-longtail",
            tier="thread",
            loop="closed",
            reference_rate=22.0,
        ),
        Workload(
            name="hotkey-burst",
            scenario="scale-free-hotkey",
            tier="thread",
            loop="open",
            rate=24.0,
        ),
        Workload(
            name="live-process",
            scenario="scale-free-longtail",
            tier="process",
            loop="closed",
            write_every=10,
            reference_rate=36.0,
        ),
    )
}


def num_requests(workload: Workload, seconds: float) -> int:
    """The requests of one run: due within ``seconds``, or the fixed count."""
    rate = workload.rate if workload.loop == "open" else workload.reference_rate
    return max(8, math.ceil(seconds * rate))


def realise(workload: Workload, seed: int, count: int) -> RealizedWorkload:
    """The shard graphs of the scenario and a request stream drawn from ``seed``.

    The graphs keep the scenario's registered seed: evaluation cost on a
    128-node scale-free graph varies by about a fifth from one generated
    graph to the next, which would swamp the run-to-run comparison.  The
    seed draws the request stream (and the writes of a live workload).
    """
    scenario = get_scenario(workload.scenario)
    overrides: Dict[str, object] = dict(scale=SCALE, seed=seed, num_requests=count)
    if workload.loop == "open":
        overrides.update(arrival_pattern="burst", rate=workload.rate)
    stream = realise_config(scaled(scenario, **overrides))
    graphs = realise_config(
        scaled(scenario, scale=SCALE, num_requests=1, name=stream.config.name)
    )
    return replace(stream, databases=graphs.databases)


def delta_schedule(
    realised: RealizedWorkload, seed: int, writes: int
) -> List[Tuple[str, EdgeDelta]]:
    """``writes`` deterministic ``(shard, delta)`` writes.

    Writes come in pairs on one shard, rotating over the shards.  The first
    of a pair links a new node between two hub nodes drawn from the seed,
    with one edge per label each way; the second removes those edges again.
    Paths through the hubs then reach the new node, so the write changes
    the answers of nearly every request, and every shard alternates
    between its base edges and a changed graph.  Every write is a new
    database version.
    """
    names = [name for name, _db in realised.databases]
    hubs = {}
    for name, db in realised.databases:
        by_degree = sorted(
            db.nodes,
            key=lambda node: (-len(db.predecessors(node)) - len(db.successors(node)), str(node)),
        )
        hubs[name] = [str(node) for node in by_degree[:HUBS]]
    state = (seed * 6364136223846793005 + 1442695040888963407) & (2**64 - 1)

    def draw(bound: int) -> int:
        nonlocal state
        state = (state * 6364136223846793005 + 1442695040888963407) & (2**64 - 1)
        return (state >> 33) % bound

    schedule: List[Tuple[str, EdgeDelta]] = []
    for index in range(writes):
        shard = names[(index // 2) % len(names)]
        if index % 2 == 0:
            node = f"live{index // 2}"
            entry, exit_ = hubs[shard][draw(HUBS)], hubs[shard][draw(HUBS)]
            added = [(entry, label, node) for label in LABELS]
            added += [(node, label, exit_) for label in LABELS]
            schedule.append((shard, EdgeDelta(additions=added)))
        else:
            schedule.append((shard, EdgeDelta(removals=schedule[-1][1].additions)))
    return schedule


def write_shards(
    directory: str, workload: Workload, realised: RealizedWorkload
) -> Dict[str, str]:
    """Write the shard files in the workload's format; shard name -> path."""
    os.makedirs(directory, exist_ok=True)
    paths: Dict[str, str] = {}
    for name, db in realised.databases:
        path = os.path.join(directory, f"{name}.{workload.shard_format}")
        if workload.shard_format == "rgsnap":
            save_snapshot(db, path)
        else:
            save_edge_list(db, path)
        paths[name] = path
    return paths


def delta_to_json(delta: EdgeDelta) -> Dict[str, List[List[str]]]:
    return {
        "additions": [list(edge) for edge in delta.additions],
        "removals": [list(edge) for edge in delta.removals],
    }


def delta_from_json(payload: Dict[str, List[List[str]]]) -> EdgeDelta:
    return EdgeDelta(
        additions=[tuple(edge) for edge in payload["additions"]],
        removals=[tuple(edge) for edge in payload["removals"]],
    )


def apply_deltas(base: GraphDatabase, deltas: List[EdgeDelta]) -> GraphDatabase:
    """A fresh graph: ``base`` with ``deltas`` applied in order."""
    graph = base.copy()
    for delta in deltas:
        for source, label, target in delta.removals:
            graph.remove_edge(source, label, target)
        for source, label, target in delta.additions:
            graph.add_edge(source, label, target)
    return graph


def stream_digest(realised: RealizedWorkload, schedule: List[Tuple[str, EdgeDelta]]) -> str:
    """A digest of the request lines and the writes (for the self-tests)."""
    body = json.dumps(
        {
            "requests": realised.request_lines(),
            "writes": [[shard, delta_to_json(delta)] for shard, delta in schedule],
        },
        sort_keys=True,
    )
    return hashlib.sha256(body.encode()).hexdigest()
