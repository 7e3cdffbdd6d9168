"""Load generators: a closed loop of clients and an open loop on a schedule.

Both drive any object with the ``QueryService.submit_line`` coroutine and
return one :class:`Reply` per request sent.  A request's clock starts when
it was sent (closed loop) or due (open loop) and stops when its envelope
has been encoded with ``to_json``, the bytes ``repro serve`` writes.  The
answer digest is taken after the clock stops.
"""

from __future__ import annotations

import asyncio
import hashlib
import json
import time
from dataclasses import dataclass
from typing import Any, Callable, List, Optional, Sequence, Tuple

from repro.service.requests import ServiceResult
from repro.service.trace import answer_payload


@dataclass
class Reply:
    index: int
    due: float
    sent: float
    done: float
    ok: bool
    shard: str
    version: Optional[int]
    digest: str
    deduplicated: bool
    queue_wait_s: float
    encoded_bytes: int
    answers: int

    @property
    def latency_s(self) -> float:
        return self.done - self.due

    @property
    def late_s(self) -> float:
        return self.sent - self.due


def answer_digest(result: ServiceResult) -> str:
    """A digest of the envelope's comparable answer (``answer_payload``)."""
    body = json.dumps(answer_payload(result), sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(body.encode()).hexdigest()


async def _serve_one(
    service: Any, index: int, line: str, due: float, recorder: Any
) -> Reply:
    rid = str(index)
    with recorder.span("request", rid):
        sent = time.perf_counter()
        with recorder.span("service.submit_line", rid):
            envelope = await service.submit_line(line, overflow="wait")
        with recorder.span("encode", rid):
            encoded = envelope.to_json()
        done = time.perf_counter()
    if envelope.tuples is not None:
        answers = len(envelope.tuples)
    else:
        answers = int(bool(envelope.boolean))
    return Reply(
        index=index,
        due=due,
        sent=sent,
        done=done,
        ok=envelope.ok,
        shard=envelope.database,
        version=envelope.database_version,
        digest=answer_digest(envelope),
        deduplicated=envelope.deduplicated,
        queue_wait_s=envelope.queue_wait_s,
        encoded_bytes=len(encoded),
        answers=answers,
    )


async def closed_loop(
    service: Any,
    lines: Sequence[str],
    *,
    clients: int,
    recorder: Any,
    on_reply: Callable[[Reply], None] = lambda reply: None,
) -> List[Reply]:
    """``clients`` clients, each sending its next request when a reply arrives.

    Client ``c`` sends requests ``c, c + clients, ...`` until the stream is
    spent, so the stream's round-robin shard assignment gives each shard a
    fixed order of requests.
    """
    replies: List[Reply] = []

    async def client(first: int) -> None:
        for index in range(first, len(lines), clients):
            now = time.perf_counter()
            reply = await _serve_one(service, index, lines[index], now, recorder)
            replies.append(reply)
            on_reply(reply)

    await asyncio.gather(*(client(first) for first in range(clients)))
    replies.sort(key=lambda reply: reply.index)
    return replies


async def open_loop(
    service: Any,
    schedule: Sequence[Tuple[float, str]],
    *,
    start: float,
    recorder: Any,
) -> List[Reply]:
    """Send each ``(offset, line)`` at ``start + offset`` whatever the backlog.

    Latency runs from the due time, so a stall that delays sending is
    charged to every request that fell due during it; ``late_s`` records
    how far behind schedule the generator sent each request.
    """

    async def one(index: int, offset: float, line: str) -> Reply:
        due = start + offset
        delay = due - time.perf_counter()
        if delay > 0:
            await asyncio.sleep(delay)
        return await _serve_one(service, index, line, due, recorder)

    tasks = [
        asyncio.create_task(one(index, offset, line))
        for index, (offset, line) in enumerate(schedule)
    ]
    return list(await asyncio.gather(*tasks))
