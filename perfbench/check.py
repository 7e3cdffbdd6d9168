"""The per-generation answer check.

Every reply is scored against a reference answer for the shard and the
``database_version`` its envelope reports.  The reference graph of a
version is rebuilt from the realised base graph plus the deltas the
driver logged, as fresh objects that share no cache with the served
shards, and evaluated with ``engine.evaluate``.  Versions whose graphs
have equal content share one evaluation per query fingerprint.

A reply that differs from its reference but equals the reference of
another generation of its shard is *misversioned*: the service answered
from a graph other than the version it reported.  Such replies count as
wrong in ``correct_share``; any other wrong reply makes the run incorrect.
"""

from __future__ import annotations

import concurrent.futures
import hashlib
import multiprocessing
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

from repro.engine.engine import evaluate
from repro.graphdb.database import GraphDatabase
from repro.service.requests import QuerySpec, ServiceResult

from perfbench.drive import answer_digest
from perfbench.workloads import WORKLOADS, apply_deltas, delta_from_json, realise

#: Fewer evaluations than this run in this process instead of a pool.
POOL_THRESHOLD = 24
POOL_WORKERS = 2


def reference_digest(spec: QuerySpec, db: GraphDatabase) -> str:
    """The digest of the answer a correct service gives for ``spec`` on ``db``."""
    query = spec.to_query()
    evaluation = evaluate(query, db, generic_path_bound=spec.generic_path_bound)
    tuples = None
    if spec.output_variables:
        tuples = sorted(evaluation.tuples, key=repr)
    reference = ServiceResult(
        database="", ok=True, boolean=evaluation.boolean, tuples=tuples
    )
    return answer_digest(reference)


class References:
    """Fresh reference graphs of one realised workload and its logged deltas."""

    def __init__(self, workload: str, seed: int, count: int, deltas: Dict[str, list]):
        realised = realise(WORKLOADS[workload], seed, count)
        self.specs = [timed.request.spec for timed in realised.requests]
        self.base = dict(realised.databases)
        self.deltas = {
            shard: [delta_from_json(delta) for delta in shard_deltas]
            for shard, shard_deltas in deltas.items()
        }
        self._graphs: Dict[Tuple[str, int], GraphDatabase] = {}
        self._contents: Dict[Tuple[str, int], str] = {}

    def graph(self, shard: str, applied: int) -> GraphDatabase:
        key = (shard, applied)
        if key not in self._graphs:
            self._graphs[key] = apply_deltas(
                self.base[shard], self.deltas.get(shard, [])[:applied]
            )
        return self._graphs[key]

    def content(self, shard: str, applied: int) -> str:
        key = (shard, applied)
        if key not in self._contents:
            edges = sorted(map(repr, self.graph(shard, applied).edges))
            self._contents[key] = hashlib.sha256("\n".join(edges).encode()).hexdigest()
        return self._contents[key]

    def digest(self, task: Tuple[str, int, int]) -> str:
        shard, applied, index = task
        return reference_digest(self.specs[index], self.graph(shard, applied))


_WORKER_REFERENCES: Optional[References] = None


def _init_worker(*arguments) -> None:
    global _WORKER_REFERENCES
    _WORKER_REFERENCES = References(*arguments)


def _worker_digest(task: Tuple[str, int, int]) -> str:
    return _WORKER_REFERENCES.digest(task)


@dataclass
class CheckResult:
    attempted: int
    correct: int
    misversioned: int
    wrong: int
    failed: int

    @property
    def share(self) -> float:
        return self.correct / self.attempted if self.attempted else 0.0

    @property
    def consistent(self) -> bool:
        """No failed or unknown-version reply, and no wrong answer from any version."""
        return self.failed == 0 and self.wrong == 0


class Checker:
    """Scores replies; evaluations are shared across versions of equal content.

    Use as a context manager: large batches of evaluations run on a pool of
    spawned processes that lives until the ``with`` block ends.
    """

    def __init__(self, workload: str, seed: int, count: int, deltas: Dict[str, list]):
        self._arguments = (workload, seed, count, deltas)
        self.references = References(workload, seed, count, deltas)
        self._digests: Dict[Tuple[str, str, object], str] = {}
        self._pool: Optional[concurrent.futures.ProcessPoolExecutor] = None

    def __enter__(self) -> "Checker":
        return self

    def __exit__(self, *exc_info) -> None:
        if self._pool is not None:
            self._pool.shutdown(wait=True)
            self._pool = None

    def _key(self, task: Tuple[str, int, int]) -> Tuple[str, str, object]:
        shard, applied, index = task
        spec = self.references.specs[index]
        return (shard, self.references.content(shard, applied), spec.fingerprint())

    def _evaluate(self, tasks: Sequence[Tuple[str, int, int]]) -> None:
        todo: Dict[Tuple[str, str, object], Tuple[str, int, int]] = {}
        for task in tasks:
            key = self._key(task)
            if key not in self._digests and key not in todo:
                todo[key] = task
        if not todo:
            return
        pending = list(todo.items())
        if len(pending) < POOL_THRESHOLD:
            digests = [self.references.digest(task) for _key, task in pending]
        else:
            if self._pool is None:
                self._pool = concurrent.futures.ProcessPoolExecutor(
                    max_workers=POOL_WORKERS,
                    mp_context=multiprocessing.get_context("spawn"),
                    initializer=_init_worker,
                    initargs=self._arguments,
                )
            digests = list(
                self._pool.map(_worker_digest, [task for _key, task in pending], chunksize=4)
            )
        for (key, _task), digest in zip(pending, digests):
            self._digests[key] = digest

    def expected(self, task: Tuple[str, int, int]) -> str:
        self._evaluate([task])
        return self._digests[self._key(task)]

    def _others(self, shard: str, applied: int, found: Dict[str, int]) -> List[int]:
        """The shard's other versions of distinct content, likeliest first.

        Versions whose content explained other replies come first, then
        the nearest versions.
        """
        own = self.references.content(shard, applied)
        versions: Dict[str, int] = {}
        for other in sorted(
            range(len(self.references.deltas.get(shard, ())) + 1),
            key=lambda other: abs(other - applied),
        ):
            versions.setdefault(self.references.content(shard, other), other)
        versions.pop(own, None)
        return sorted(versions.values(), key=lambda other: (
            -found.get(self.references.content(shard, other), 0), abs(other - applied)
        ))

    def score(
        self,
        replies: Sequence[Sequence],
        versions: Dict[str, Dict[int, int]],
    ) -> CheckResult:
        """Score ``[index, ok, shard, version, digest]`` replies.

        ``versions`` maps shard -> reported version -> deltas applied.  A
        reply naming a version the driver never observed is wrong.  A
        mismatched reply is searched for among all other versions of its
        shard.
        """
        failed = 0
        unknown = 0
        scored: List[Tuple[Tuple[str, int, int], str]] = []
        for index, ok, shard, version, digest in replies:
            if not ok:
                failed += 1
                continue
            applied = versions.get(shard, {}).get(version)
            if applied is None:
                unknown += 1
                continue
            scored.append(((shard, applied, index), digest))
        self._evaluate([task for task, _digest in scored])
        mismatched = [
            (task, digest)
            for task, digest in scored
            if self._digests[self._key(task)] != digest
        ]
        found: Dict[str, Dict[str, int]] = {}
        tried: Dict[int, set] = {}
        unresolved = list(range(len(mismatched)))
        misversioned = 0
        while unresolved:
            round_tasks: Dict[int, Tuple[str, int, int]] = {}
            for position in unresolved:
                (shard, applied, index), _digest = mismatched[position]
                done = tried.setdefault(position, set())
                for other in self._others(shard, applied, found.get(shard, {})):
                    if other not in done:
                        round_tasks[position] = (shard, other, index)
                        done.add(other)
                        break
            if not round_tasks:
                break
            self._evaluate(list(round_tasks.values()))
            for position, task in round_tasks.items():
                if self._digests[self._key(task)] == mismatched[position][1]:
                    content = self.references.content(task[0], task[1])
                    counts = found.setdefault(task[0], {})
                    counts[content] = counts.get(content, 0) + 1
                    misversioned += 1
            unresolved = [
                position
                for position in unresolved
                if position in round_tasks
                and self._digests[self._key(round_tasks[position])] != mismatched[position][1]
            ]
        return CheckResult(
            attempted=len(replies),
            correct=len(scored) - len(mismatched),
            misversioned=misversioned,
            wrong=len(mismatched) - misversioned + unknown,
            failed=failed,
        )
