"""One declaration per metric family: its ``metrics()`` path, Prometheus face and fleet reducer.

The services build ``metrics()`` by hand; the fleet :func:`merge`,
:func:`repro.obs.prom.render_prometheus` and the README's
:func:`reference_table` walk :data:`METRICS` instead.  A ``{lane}``,
``{tier}``, ``{reason}`` or ``{code}`` path segment matches every key at
that level and becomes a label; a cache without tiers is tier ``memory``;
a last segment ``a|b`` is one quantity reported under either key.  The
merge skips non-dict input, reads bad numbers as 0 and disjoint sketches
as "unknown", and emits a key only if some worker reported it (or, when
recomputed, its inputs).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable, Dict, Iterator, List, Mapping, Optional, Sequence, Set, Tuple

from ..metrics.runtime import merge_sketches, summarize_sketch

__all__ = ["METRICS", "NAMESPACE", "Metric", "family_names", "leaves", "merge", "reference_table"]

NAMESPACE = "repro"  # the prefix of every Prometheus family
_Samples = List[Tuple[Dict[str, str], Any]]


def _number(value: Any) -> Any:
    """A worker-reported number; anything malformed reads as 0 (NaN as 0.0)."""
    if isinstance(value, (int, float)):
        return 0.0 if value != value else value
    return 0


def _lookup(doc: Any, path: str) -> Any:
    for key in path.split("."):
        if not isinstance(doc, Mapping) or key not in doc:
            return None
        doc = doc[key]
    return doc


class Reducer:
    """How the fleet combines one key: ``fold`` maps the reported values to one.

    :meth:`reduce` writes the merged value into ``merged``, and only if some
    worker reported the key.  A ``derived`` reducer recomputes its key from
    the merged section, after the section's other keys.
    """

    derived = False
    labels: Tuple[str, ...] = ()  # the Prometheus labels :meth:`samples` adds

    def __init__(self, label: str, fold: Optional[Callable[[List[Any]], Any]] = None):
        self.label = label
        self._fold = fold

    def reduce(self, key: str, docs: Sequence[Mapping[str, Any]], merged: Dict[str, Any]) -> None:
        values = [doc[key] for doc in docs if key in doc]
        if self._fold is not None and values:
            merged[key] = self._fold(values)

    def samples(self, value: Any) -> _Samples:
        """One merged value as Prometheus ``(extra labels, number)`` pairs."""
        return [({}, value)]


class WeightedMean(Reducer):
    def __init__(self, weight: str):
        super().__init__(f"mean weighted by `{weight}`")
        self.weight = weight

    def reduce(self, key, docs, merged):
        reporting = [doc for doc in docs if key in doc]
        if reporting:
            weights = [_number(doc.get(self.weight, 0)) for doc in reporting]
            total = sum(_number(doc[key]) * weight for doc, weight in zip(reporting, weights))
            merged[key] = total / sum(weights) if sum(weights) else 0.0


class Ratio(Reducer):
    """The sum of ``numerator`` paths over the sum of ``denominator`` paths."""

    derived = True

    def __init__(self, numerator: Tuple[str, ...], denominator: Tuple[str, ...]):
        super().__init__(f"ratio ({' + '.join(numerator)}) / ({' + '.join(denominator)})")
        self.numerator = numerator
        self.denominator = denominator

    def reduce(self, key, docs, merged):
        below = [_lookup(merged, path) for path in self.denominator]
        if any(value is not None for value in below):
            total = sum(_number(value) for value in below)
            above = sum(_number(_lookup(merged, path)) for path in self.numerator)
            merged[key] = above / total if total else 0.0


class Summary(Reducer):
    """Count, mean, max and percentiles of the section's merged sketch."""

    derived = True

    def __init__(self, sketch: str):
        super().__init__(f"summary of merged `{sketch}`")
        self.sketch = sketch

    def reduce(self, key, docs, merged):
        if self.sketch in merged:
            merged[key] = summarize_sketch(merged[self.sketch])


class Slowest(Reducer):
    """The slowest traced exemplar; ``None`` when no worker has one."""

    labels = ("trace_id",)

    def reduce(self, key, docs, merged):
        valid = [d[key] for d in docs if isinstance(d.get(key), Mapping) and d[key].get("trace_id")]
        merged[key] = max(valid, key=lambda e: _number(e.get("seconds", 0.0))) if valid else None

    def samples(self, value):
        if isinstance(value, Mapping) and value.get("trace_id"):
            return [({"trace_id": str(value["trace_id"])}, value.get("seconds"))]
        return []


def _names(value: Any) -> List[str]:
    names = [value] if isinstance(value, str) else value if isinstance(value, list) else []
    return sorted({str(name) for name in names if name})


class Union(Reducer):
    """Every backend named under ``key``, merged into ``backends``."""

    labels = ("backend",)

    def reduce(self, key, docs, merged):
        if any(key in doc for doc in docs):
            names = {*merged.get("backends", ()), *(n for d in docs for n in _names(d.get(key)))}
            merged["backends"] = sorted(names)

    def samples(self, value):
        return [({"backend": name}, 1) for name in _names(value)]


def _merge_sketches_safe(sketches: List[Any]) -> Dict[str, Any]:
    """Merge sketches; a malformed or disjoint one (mid-upgrade) makes them unknown."""
    valid = [s for s in sketches if isinstance(s, dict) and s.get("bounds")]
    try:
        return merge_sketches(valid)
    except (ValueError, TypeError):
        return merge_sketches([])


def _nonzero_mean(values: List[Any]) -> float:
    calibrated = [number for number in map(_number, values) if number > 0]
    return sum(calibrated) / len(calibrated) if calibrated else 0.0


SUM = Reducer("sum", lambda values: sum(_number(value) for value in values))
MAX = Reducer("max", lambda values: max(_number(value) for value in values))
NONZERO_MEAN = Reducer("mean of non-zero values", _nonzero_mean)
SKETCH = Reducer("sketch merge", _merge_sketches_safe)
SLOWEST = Slowest("slowest exemplar")
UNION = Union("union of backends")
NOT_MERGED = Reducer("not merged")


@dataclass(frozen=True, eq=False)
class Metric:
    """One metric family; ``name=None`` keeps it out of Prometheus."""

    path: str
    merge: Reducer
    name: Optional[str] = None
    help: str = ""

    @property
    def paths(self) -> List[str]:
        stem, _, leaf = self.path.rpartition(".")
        return [f"{stem}.{key}" if stem else key for key in leaf.split("|")]

    @property
    def kind(self) -> str:  # sketches are histograms, ``*_total`` families counters
        if self.merge is SKETCH:
            return "histogram"
        return "counter" if str(self.name).endswith("_total") else "gauge"

    @property
    def labels(self) -> Tuple[str, ...]:
        dims = tuple(segment[1:-1] for segment in self.path.split(".") if segment[:1] == "{")
        return dims + self.merge.labels


def _tier_rate(tier: str) -> Ratio:
    return Ratio((f"{tier}.hits",), (f"{tier}.hits", f"{tier}.misses"))


def _under(path: str, family: str, *rows: Tuple[Any, ...]) -> Tuple[Metric, ...]:
    """``(key, reducer, name, help)`` rows below ``path``, names below ``family``."""
    return tuple(
        Metric(f"{path}.{key}", merge, name and f"{family}_{name}", text)
        for key, merge, name, text in rows
    )


METRICS: Tuple[Metric, ...] = (
    Metric("requests", SUM, "requests_total", "Requests submitted."),
    Metric("completed", SUM, "completed_total", "Requests completed successfully."),
    Metric("failed", SUM, "failed_total", "Requests that raised."),
    Metric("cancelled", SUM, "cancelled_total", "Requests cancelled by the caller."),
    Metric("coalesced", SUM, "coalesced_total", "Requests coalesced onto an in-batch twin."),
    Metric("quota_rejections", SUM, "quota_rejections_total", "Requests over a client quota."),
    Metric("queue_depth", SUM, "queue_depth", "Requests queued across lanes."),
    Metric("uptime_seconds", MAX, "uptime_seconds", "Service uptime."),
    Metric("throughput_rps", SUM, "throughput_rps", "Completed requests per second."),
    Metric("batches", SUM, "batches_total", "Micro-batches processed."),
    Metric("mean_batch_size", WeightedMean("batches"), "mean_batch_size", "Mean batch size."),
    Metric("ewma_request_seconds", NONZERO_MEAN, "ewma_request_seconds", "EWMA service time."),
    Metric("workers_scraped", NOT_MERGED, "fleet_workers_scraped", "Workers merged."),
    Metric("scrape_failures", NOT_MERGED, "fleet_scrape_failures_total", "Failed scrapes."),
    Metric("shed.{reason}", SUM, "shed_total", "Requests shed, by reason."),
    *_under(
        "lanes.{lane}",
        "lane",
        ("depth", SUM, "depth", "Queued requests in this lane."),
        ("submitted", SUM, "submitted_total", "Requests admitted to this lane."),
        ("completed", SUM, "completed_total", "Requests completed from this lane."),
        ("shed_admission", SUM, "shed_admission_total", "Shed at admission."),
        ("shed_expired", SUM, "shed_expired_total", "Shed by in-queue expiry."),
        ("weight", MAX, "weight", "Drain weight of this lane."),
        ("latency_sketch", SKETCH, "latency_seconds", "End-to-end request latency per lane."),
        ("latency_seconds", Summary("latency_sketch"), None, "Count, mean, max, p50/p90/p99."),
        ("delta.frames", SUM, "delta_frames_total", "Stream frames computed via the delta path."),
        ("delta.tiles_reused", SUM, "delta_tiles_reused_total", "Delta tiles reused."),
        ("delta.tiles_recomputed", SUM, "delta_tiles_recomputed_total", "Delta tiles recomputed."),
    ),
    Metric("latency_sketch", SKETCH, "request_latency_seconds", "End-to-end request latency."),
    Metric("latency_seconds", Summary("latency_sketch"), None, "Count, mean, max, p50/p90/p99."),
    Metric(
        "latency_exemplar",
        SLOWEST,
        "request_latency_exemplar_seconds",
        "Latency of the slowest recent traced request (trace_id keys the flight recorder).",
    ),
    Metric("backend|backends", UNION, "backend_info", "Array backends serving (1 each)."),
    *_under(
        "cache.{tier}",
        "cache",
        ("hits", SUM, "hits_total", "Cache hits."),
        ("misses", SUM, "misses_total", "Cache misses."),
        ("evictions", SUM, "evictions_total", "Entries evicted."),
        ("evicted_bytes", SUM, "evicted_bytes_total", "Bytes freed by evictions."),
        ("expirations", SUM, "expirations_total", "Entries expired (TTL)."),
        ("stores", SUM, "puts_total", "Entries written."),
        ("store_skips", SUM, "store_skips_total", "Writes skipped: the value exceeds a slot."),
        ("hit_bytes", SUM, "hit_bytes_total", "Payload bytes returned by cache hits."),
        ("torn_reads", SUM, "torn_reads_total", "Reads that lost a race with a writer."),
        ("corrupt_dropped", SUM, "corrupt_dropped_total", "Corrupt entries dropped."),
        ("errors", SUM, "errors_total", "Cache I/O errors."),
        ("currsize", MAX, "entries", "Entries currently cached."),
        ("maxsize|max_entries", MAX, "max_entries", "Cache capacity in entries."),
        ("current_bytes", MAX, "current_bytes", "Bytes currently cached."),
        ("max_bytes", MAX, "max_bytes", "Cache capacity in bytes."),
        ("size_bytes", MAX, "size_bytes", "Size of the shared-memory segment."),
        ("slot_count", MAX, None, "Slots in the shared-memory ring."),
        ("slot_bytes", MAX, None, "Bytes per shared-memory slot."),
        ("hit_rate", Ratio(("hits",), ("hits", "misses")), "hit_rate", "Hit rate since start."),
    ),
    *_under(
        "cache",
        "cache",
        ("l1_hit_rate", _tier_rate("l1"), None, "L1 hits per lookup."),
        ("shm_hit_rate", _tier_rate("shm"), None, "Shm hits per L1 miss."),
        ("l2_hit_rate", _tier_rate("l2"), None, "L2 hits per L2 lookup."),
        (
            "hit_rate",
            Ratio(("l1.hits", "shm.hits", "l2.hits"), ("l1.hits", "l1.misses")),
            None,
            "A hit in any tier, per lookup.",
        ),
    ),
    *_under(
        "delta",
        "delta",
        ("enabled", MAX, None, "True when the service runs a delta stream engine."),
        ("supported", MAX, None, "True when the segmenter supports tile reuse."),
        ("frames", SUM, "frames_total", "Stream frames computed via the dirty-tile path."),
        ("tiles_reused", SUM, "tiles_reused_total", "Delta tiles reused, not recomputed."),
        ("tiles_recomputed", SUM, "tiles_recomputed_total", "Delta tiles whose content changed."),
        (
            "reuse_ratio",
            Ratio(("tiles_reused",), ("tiles_reused", "tiles_recomputed")),
            "reuse_ratio",
            "Reused tiles over all delta tiles processed.",
        ),
        ("streams", SUM, "streams", "Temporal streams with a committed ancestor."),
        ("tile_shape", NOT_MERGED, None, "Delta grid tile shape (rows, cols)."),
        ("max_streams", NOT_MERGED, None, "Stream ancestors kept before eviction."),
    ),
    *_under(
        "trace",
        "trace",
        ("started", SUM, "started_total", "Traces considered (one per request)."),
        ("recorded", SUM, "recorded_total", "Traces recorded into the flight recorder."),
        ("sampled_out", SUM, "sampled_out_total", "Traces skipped by sampling."),
        ("retained", SUM, "retained", "Traces currently retained in the ring."),
        ("sample_rate", NOT_MERGED, None, "Configured trace sampling rate."),
        ("ring_size", NOT_MERGED, None, "Flight-recorder capacity in traces."),
    ),
    *_under(
        "http",
        "http",
        ("requests", SUM, "requests_total", "HTTP requests parsed."),
        ("responses.{code}", SUM, "responses_total", "HTTP responses, by status code."),
        ("inflight", SUM, "inflight", "HTTP requests currently being handled."),
        ("open_connections", SUM, "open_connections", "Open HTTP connections."),
        ("client_disconnects", SUM, "client_disconnects_total", "Requests the client abandoned."),
        ("request_errors", SUM, "request_errors_total", "Segment requests that raised."),
        ("draining", MAX, "draining", "1 while the server is draining."),
    ),
    Metric("fleet", NOT_MERGED, None, "Fleet supervisor facts (`describe_fleet()`)."),
    Metric("workers", NOT_MERGED, None, "The per-worker documents the fleet merged."),
)


def _tree() -> Dict[str, Any]:
    """``METRICS`` as nested dicts: path segment -> sub-tree or :class:`Metric`."""
    root: Dict[str, Any] = {}
    for metric in METRICS:
        for path in metric.paths:
            *parents, leaf = path.split(".")
            node = root
            for segment in parents:
                node = node.setdefault(segment, {})
            node[leaf] = metric
    return root


_TREE = _tree()


def _split(node: Mapping[str, Any]) -> Tuple[Dict[str, Any], Optional[str]]:
    """A tree level's fixed keys and its label-dimension segment, if any."""
    fixed = {key: child for key, child in node.items() if key[:1] != "{"}
    return fixed, next((key for key in node if key[:1] == "{"), None)


def _flat_cache(dim: Optional[str], docs: Sequence[Mapping[str, Any]]) -> Dict[str, str]:
    """``{"tier": "memory"}`` when ``docs`` are caches without tiers, else ``{}``."""
    if dim != "{tier}" or any(isinstance(v, Mapping) for doc in docs for v in doc.values()):
        return {}
    return {"tier": "memory"}


def leaves(
    doc: Any,
    node: Mapping[str, Any] = _TREE,
    path: str = "",
    labels: Optional[Dict[str, str]] = None,
) -> Iterator[Tuple[str, Optional[Metric], Dict[str, str], Any]]:
    """Yield ``(path, metric, labels, value)`` per leaf of one document.

    ``path`` is the declared pattern (``lanes.{lane}.depth``); an undeclared
    leaf comes back with ``metric=None`` and its literal path.  Declared
    values (sketches, summaries, exemplars) are not walked into.
    """
    labels = labels or {}
    if not isinstance(doc, Mapping):
        return
    fixed, dim = _split(node)
    loose = sorted((key for key in doc if key not in fixed), key=str)
    per_key = dim is not None and isinstance(node[dim], Metric)
    if flat := _flat_cache(dim, [doc]):
        yield from leaves(doc, node[dim], f"{path}{dim}.", {**labels, **flat})
        loose = []
    for key, child in fixed.items():
        if key in doc and isinstance(child, Metric):
            yield f"{path}{key}", child, labels, doc[key]
        elif key in doc:
            yield from leaves(doc[key], child, f"{path}{key}.", labels)
    for key in loose:
        value = doc[key]
        if dim is None or not (per_key or isinstance(value, Mapping)):
            yield from _undeclared(value, f"{path}{key}")
        elif per_key:
            yield f"{path}{dim}", node[dim], {**labels, dim[1:-1]: str(key)}, value
        else:
            yield from leaves(value, node[dim], f"{path}{dim}.", {**labels, dim[1:-1]: str(key)})


def _undeclared(value: Any, path: str) -> Iterator[Tuple[str, None, Dict[str, str], Any]]:
    if isinstance(value, Mapping) and value:
        for key, child in value.items():
            yield from _undeclared(child, f"{path}.{key}")
    else:
        yield path, None, {}, value


def merge(docs: Sequence[Any], node: Mapping[str, Any] = _TREE) -> Dict[str, Any]:
    """Merge several workers' documents, each key by its declared reducer."""
    docs = [doc for doc in docs if isinstance(doc, Mapping)]
    fixed, dim = _split(node)
    merged: Dict[str, Any] = {}
    for key, child in fixed.items():
        if isinstance(child, Metric):
            if not child.merge.derived:
                child.merge.reduce(key, docs, merged)
        elif any(key in doc for doc in docs):
            sections = [doc[key] for doc in docs if isinstance(doc.get(key), Mapping)]
            merged[key] = merge(sections, child) if sections else None
    loose = sorted({key for doc in docs for key in doc if key not in fixed}, key=str)
    if dim is not None and isinstance(node[dim], Metric):
        for key in loose:
            node[dim].merge.reduce(key, docs, merged)
    elif _flat_cache(dim, docs):
        merged.update(merge(docs, node[dim]))
    elif dim is not None:
        for key in loose:
            sections = [doc.get(key) for doc in docs]
            if any(isinstance(section, Mapping) for section in sections):
                merged[key] = merge(sections, node[dim])
    for key, child in fixed.items():
        if isinstance(child, Metric) and child.merge.derived:
            child.merge.reduce(key, docs, merged)
    return merged


def family_names() -> Set[str]:
    """Every declared Prometheus family, namespace included."""
    return {f"{NAMESPACE}_{metric.name}" for metric in METRICS if metric.name}


def reference_table() -> str:
    """The README's metrics reference: one markdown row per declaration."""
    rows = [("Family", "Type", "Labels", "`metrics()` path", "Fleet merge", "Help"), ("---",) * 6]
    for metric in METRICS:
        family = f"`{NAMESPACE}_{metric.name}`" if metric.name else "(JSON only)"
        labels = ", ".join(f"`{label}`" for label in metric.labels) or "—"
        path = " / ".join(f"`{path}`" for path in metric.paths)
        kind = metric.kind if metric.name else "—"
        rows.append((family, kind, labels, path, metric.merge.label, metric.help))
    return "".join("| " + " | ".join(row) + " |\n" for row in rows)
