"""An in-memory span recorder for the traced run.

Each span records its name, ``perf_counter_ns`` start and end, the span
that was open around it (per asyncio task, through a ContextVar) and the
request it served.  Spans stay in memory and are written as JSONL once,
when the run ends.  A span's self time is its duration minus the part of
that interval its children cover.
"""

from __future__ import annotations

import contextvars
import json
import time
from collections import defaultdict
from contextlib import contextmanager
from dataclasses import asdict, dataclass
from typing import Dict, Iterator, List, Optional, Tuple


@dataclass
class Span:
    span_id: int
    name: str
    start_ns: int
    end_ns: int
    parent: Optional[int]
    request_id: Optional[str]

    @property
    def duration_ns(self) -> int:
        return self.end_ns - self.start_ns


class SpanRecorder:
    """Collects spans; ``span()`` is a context manager around one call."""

    def __init__(self) -> None:
        self.spans: List[Span] = []
        self._open: contextvars.ContextVar[Optional[int]] = contextvars.ContextVar(
            "perfbench_open_span", default=None
        )

    @contextmanager
    def span(self, name: str, request_id: Optional[str] = None) -> Iterator[Span]:
        parent = self._open.get()
        record = Span(len(self.spans), name, time.perf_counter_ns(), 0, parent, request_id)
        self.spans.append(record)
        token = self._open.set(record.span_id)
        try:
            yield record
        finally:
            record.end_ns = time.perf_counter_ns()
            self._open.reset(token)

    def self_times_ns(self) -> Dict[str, List[int]]:
        """Span name -> the self time of each span of that name."""
        children: Dict[int, List[Tuple[int, int]]] = defaultdict(list)
        for span in self.spans:
            if span.parent is not None:
                children[span.parent].append((span.start_ns, span.end_ns))
        result: Dict[str, List[int]] = defaultdict(list)
        for span in self.spans:
            covered = 0
            cursor = span.start_ns
            for start, end in sorted(children.get(span.span_id, ())):
                start, end = max(start, cursor, span.start_ns), min(end, span.end_ns)
                if end > start:
                    covered += end - start
                    cursor = end
            result[span.name].append(span.duration_ns - covered)
        return dict(result)

    def write_jsonl(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as handle:
            for span in self.spans:
                handle.write(json.dumps(asdict(span), sort_keys=True) + "\n")


class NullRecorder:
    """The untraced run's recorder: ``span()`` does nothing."""

    @contextmanager
    def span(self, name: str, request_id: Optional[str] = None) -> Iterator[None]:
        yield None
