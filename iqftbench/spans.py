"""Harness spans, summary statistics and the per-layer breakdown table.

A span is ``(name, start, end, parent, request_id)`` in seconds.  The harness
records its own spans around calls into each layer's public functions and
adds the server's ``repro-trace/v1`` spans under the same request ID (the
server trace ID).  Spans stay in memory and are written when the run ends.

Self time is a span's duration minus the part of it that its children
cover.  A span's children are the spans of the same request that it
contains and that no smaller span contains; overlapping siblings (the
server's ``queue.wait`` and ``batch.assemble``) are merged before the
subtraction.
"""

from __future__ import annotations

import json
import statistics
from collections import defaultdict
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

#: Which layer each span belongs to, for the breakdown table.
LAYER_OF = {
    "serve.http_client": "serve.http_client",
    "request": "serve.http",
    "ingress.parse": "serve.http",
    "response.encode": "serve.http",
    "service.submit": "serve.aio",
    "queue.wait": "serve.aio",
    "batch.assemble": "serve.aio",
    "cache.probe": "serve.cache",
    "cache.memory": "serve.cache",
    "cache.l1": "serve.cache",
    "cache.shm": "serve.cache",
    "cache.l2": "serve.cache",
    "engine.compute": "engine",
    "scoring": "core.labels",
    "eval.map": "engine",
    "engine.segment": "engine",
    "pipeline.score": "core.labels",
}


class Span:
    __slots__ = ("name", "start", "end", "parent", "request_id", "fields")

    def __init__(self, name, start, end, parent=None, request_id=None, fields=None):
        self.name = name
        self.start = float(start)
        self.end = float(end)
        self.parent = parent
        self.request_id = request_id
        self.fields = fields or {}

    @property
    def duration(self) -> float:
        return max(0.0, self.end - self.start)

    def as_dict(self) -> Dict:
        return {
            "name": self.name,
            "start": self.start,
            "end": self.end,
            "parent": self.parent,
            "request_id": self.request_id,
            "fields": self.fields,
        }


class SpanRecorder:
    """In-memory span store, written out once when the run ends."""

    def __init__(self):
        self.spans: List[Span] = []

    def add(self, name, start, end, parent=None, request_id=None, **fields) -> None:
        self.spans.append(Span(name, start, end, parent, request_id, fields))

    def add_server_trace(self, document: Dict, client_start: float, client_end: float) -> None:
        """Adopt a server ``repro-trace/v1`` document under its trace ID.

        Server times are relative to the server's trace start; they are placed
        centred inside the client span, which is where the server's work sits
        once the (roughly symmetric) socket time either side is removed.
        """
        trace_id = document.get("trace_id")
        server_total = float(document.get("duration_seconds") or 0.0)
        offset = client_start + max(0.0, (client_end - client_start - server_total) / 2.0)
        for span in document.get("spans", []):
            start = offset + float(span["start"])
            self.add(
                span["name"],
                start,
                start + float(span["duration_seconds"]),
                parent=span.get("parent") or "serve.http_client",
                request_id=trace_id,
                **dict(span.get("fields") or {}),
            )

    def by_request(self) -> Dict[str, List[Span]]:
        grouped: Dict[str, List[Span]] = defaultdict(list)
        for span in self.spans:
            grouped[span.request_id].append(span)
        return grouped

    def named(self, name: str) -> List[Span]:
        return [span for span in self.spans if span.name == name]

    def dump(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            json.dump([span.as_dict() for span in self.spans], fh)


def _covered(intervals: List[Tuple[float, float]]) -> float:
    total, cursor = 0.0, float("-inf")
    for start, end in sorted(intervals):
        start = max(start, cursor)
        if end > start:
            total += end - start
            cursor = end
    return total


def self_times(spans: Sequence[Span]) -> List[Tuple[Span, float]]:
    """``(span, self seconds)`` for the spans of one request."""
    ordered = sorted(spans, key=lambda s: (s.start, -s.duration))
    out = []
    for span in ordered:
        inner = [
            other
            for other in ordered
            if other is not span
            and other.start >= span.start
            and other.end <= span.end
            and other.duration < span.duration
        ]
        # Direct children only: drop spans nested inside another inner span.
        direct = [
            child
            for child in inner
            if not any(
                o is not child
                and o.start <= child.start
                and o.end >= child.end
                and o.duration > child.duration
                for o in inner
            )
        ]
        covered = _covered([(max(c.start, span.start), min(c.end, span.end)) for c in direct])
        out.append((span, max(0.0, span.duration - covered)))
    return out


# --------------------------------------------------------------------------- #
# statistics
# --------------------------------------------------------------------------- #
def median(values: Iterable[float]) -> float:
    values = list(values)
    return float(statistics.median(values)) if values else 0.0


def tail(values: Iterable[float]) -> Tuple[float, float, int]:
    """``(value, percentile, samples)`` of the tail of ``values``.

    The tail is the highest percentile with ten samples beyond it, at most
    p90.  With ``n`` samples that is the ``n - 10``-th smallest value (percentile
    ``100 * (n - 10) / n``) up to ``n`` = 100, and the 90th percentile from
    there on, which keeps a tenth of the samples beyond it: a tail that a few
    requests stalled by a busy host cannot move alone.  With ten or fewer
    samples it is the maximum.
    """
    ordered = sorted(values)
    n = len(ordered)
    if n == 0:
        return 0.0, 0.0, 0
    if n <= 10:
        return float(ordered[-1]), 100.0, n
    beyond = max(10, n // 10)
    return float(ordered[n - beyond - 1]), 100.0 * (n - beyond) / n, n


def layer_breakdown(recorder: SpanRecorder) -> List[Dict]:
    """Per-span-name samples, median duration and mean self time."""
    durations: Dict[str, List[float]] = defaultdict(list)
    selfs: Dict[str, List[float]] = defaultdict(list)
    client_total = 0.0
    for spans in recorder.by_request().values():
        for span, own in self_times(spans):
            durations[span.name].append(span.duration)
            selfs[span.name].append(own)
            if span.name in ("serve.http_client", "eval.map"):
                client_total += span.duration
    rows = []
    for name in sorted(durations, key=lambda n: -sum(selfs[n])):
        rows.append(
            {
                "span": name,
                "layer": LAYER_OF.get(name, name.split(".")[0]),
                "samples": len(durations[name]),
                "p50_ms": 1e3 * median(durations[name]),
                "self_mean_ms": 1e3 * sum(selfs[name]) / len(selfs[name]),
                "self_share": sum(selfs[name]) / client_total if client_total else 0.0,
            }
        )
    return rows


def format_breakdown(
    workload: str, rows: List[Dict], summary: Optional[Dict], overhead: float
) -> str:
    """The breakdown table, then the ROADMAP item-1 row and the tracing overhead."""
    lines = [
        f"traced breakdown: {workload} (self time per span; self_share of client wall time)",
        f"  {'span':<20} {'layer':<18} {'samples':>7} {'p50 ms':>9} {'self ms':>9} {'self %':>7}",
    ]
    for row in rows:
        lines.append(
            f"  {row['span']:<20} {row['layer']:<18} {row['samples']:>7d} "
            f"{row['p50_ms']:>9.3f} {row['self_mean_ms']:>9.3f} {100 * row['self_share']:>6.1f}%"
        )
    if summary is not None:
        lines.append(
            "  | client | server trace | engine.compute | queue.wait (batch fill) "
            "| response.encode | outside |"
        )
        lines.append(
            "  | {client:.2f} | {server:.2f} | {compute:.2f} | {queue:.2f} ({fill:.2f}) "
            "| {encode:.2f} | {outside:.2f} |  (p50 ms, {samples} requests)".format(**summary)
        )
    lines.append(f"  obs.trace_overhead_share = {overhead:.4f}")
    return "\n".join(lines)
