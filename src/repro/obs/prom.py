"""Prometheus text exposition for the serve metrics tree.

:func:`render_prometheus` walks the dict returned by
``AsyncSegmentationService.metrics()`` or ``ServeFleet.metrics()`` through
the declarations in :mod:`repro.obs.schema` and renders the classic
Prometheus text format — counters, gauges, and the mergeable log-spaced
latency sketches as *native histograms* (cumulative ``le`` buckets,
``_sum``, ``_count``).  The slow-request exemplar (the trace ID of the
slowest recent request) is attached as a separate
``repro_request_latency_exemplar_seconds`` gauge with a ``trace_id`` label,
which stays valid classic exposition (no OpenMetrics extensions required).

:func:`validate_exposition` is the checker CI runs against a live scrape:
``python -m repro.obs.prom <file|->`` exits non-zero listing every violation.
"""

from __future__ import annotations

import math
import re
import sys
from typing import Any, Dict, Iterable, List, Mapping, Optional, Tuple

from .schema import METRICS, NAMESPACE, Metric, leaves

__all__ = ["render_prometheus", "validate_exposition", "main"]

_NAME_RE = re.compile(r"^[a-zA-Z_:][a-zA-Z0-9_:]*$")
_SAMPLE_RE = re.compile(
    r"^(?P<name>[a-zA-Z_:][a-zA-Z0-9_:]*)"
    r"(?:\{(?P<labels>[^{}]*)\})?"
    r" (?P<value>[^ ]+)$"
)
_LABEL_RE = re.compile(r'^[a-zA-Z_][a-zA-Z0-9_]*="(?:[^"\\]|\\.)*"$')


def _escape_label(value: str) -> str:
    return value.replace("\\", "\\\\").replace('"', '\\"').replace("\n", "\\n")


def _format_value(value: float) -> str:
    value = float(value)
    if math.isnan(value):
        return "NaN"
    if math.isinf(value):
        return "+Inf" if value > 0 else "-Inf"
    if value == int(value) and abs(value) < 1e15:
        return str(int(value))
    return repr(value)


class _Writer:
    """Accumulates one metric family at a time (HELP/TYPE then samples)."""

    def __init__(self, namespace: str):
        self.namespace = namespace
        self.lines: List[str] = []

    def family(
        self,
        name: str,
        kind: str,
        help_text: str,
        samples: Iterable[Tuple[Dict[str, str], float]],
    ) -> None:
        rows = [(labels, value) for labels, value in samples if value is not None]
        if not rows:
            return
        full = f"{self.namespace}_{name}"
        self.lines.append(f"# HELP {full} {help_text}")
        self.lines.append(f"# TYPE {full} {kind}")
        for labels, value in rows:
            self.lines.append(_sample_line(full, labels, value))

    def histogram(
        self,
        name: str,
        help_text: str,
        sketches: Iterable[Tuple[Dict[str, str], Mapping[str, Any]]],
    ) -> None:
        """Render mergeable latency sketches as one histogram family."""
        rows = [(labels, sketch) for labels, sketch in sketches if _is_sketch(sketch)]
        if not rows:
            return
        full = f"{self.namespace}_{name}"
        self.lines.append(f"# HELP {full} {help_text}")
        self.lines.append(f"# TYPE {full} histogram")
        for labels, sketch in rows:
            bounds = [float(b) for b in sketch["bounds"]]
            counts = [int(c) for c in sketch["counts"]]
            cumulative = 0
            for bound, count in zip(bounds, counts):
                cumulative += count
                bucket = dict(labels)
                bucket["le"] = _format_value(bound)
                self.lines.append(_sample_line(f"{full}_bucket", bucket, cumulative))
            overflow = counts[-1] if len(counts) > len(bounds) else 0
            total = int(sketch.get("count", cumulative + overflow))
            inf_labels = dict(labels)
            inf_labels["le"] = "+Inf"
            self.lines.append(_sample_line(f"{full}_bucket", inf_labels, total))
            total_sum = float(sketch.get("sum_seconds", 0.0))
            self.lines.append(_sample_line(f"{full}_sum", labels, total_sum))
            self.lines.append(_sample_line(f"{full}_count", labels, total))

    def render(self) -> str:
        return "\n".join(self.lines) + "\n" if self.lines else ""


def _sample_line(name: str, labels: Dict[str, str], value: float) -> str:
    if labels:
        body = ",".join(
            f'{key}="{_escape_label(str(val))}"' for key, val in sorted(labels.items())
        )
        return f"{name}{{{body}}} {_format_value(value)}"
    return f"{name} {_format_value(value)}"


def _is_sketch(sketch: Any) -> bool:
    return (
        isinstance(sketch, Mapping)
        and isinstance(sketch.get("bounds"), (list, tuple))
        and isinstance(sketch.get("counts"), (list, tuple))
        and len(sketch["counts"]) >= len(sketch["bounds"])
    )


def render_prometheus(
    metrics: Mapping[str, Any],
    namespace: str = NAMESPACE,
    extra_labels: Optional[Dict[str, str]] = None,
) -> str:
    """Render a metrics tree: one family per named schema entry that has samples.

    ``extra_labels`` (e.g. ``{"worker": "3"}``) are attached to every sample.
    """
    base = dict(extra_labels or {})
    found: Dict[Metric, List[Tuple[Dict[str, str], Any]]] = {}
    for _, metric, labels, value in leaves(metrics):
        if metric is not None and metric.name:
            found.setdefault(metric, []).append(({**base, **labels}, value))
    out = _Writer(namespace)
    for metric in METRICS:
        rows = found.get(metric, [])
        if metric.kind == "histogram":
            out.histogram(metric.name, metric.help, rows)
        elif metric.name:
            samples = [
                ({**labels, **extra}, number if isinstance(number, (int, float)) else None)
                for labels, value in rows
                for extra, number in metric.merge.samples(value)
            ]
            out.family(metric.name, metric.kind, metric.help, samples)
    return out.render()


# ---------------------------------------------------------------------------
# Exposition validation (CI checker)
# ---------------------------------------------------------------------------


def validate_exposition(text: str) -> List[str]:
    """Return a list of format violations (empty when the text is valid)."""
    errors: List[str] = []
    typed: Dict[str, str] = {}
    histogram_state: Dict[str, Dict[str, Any]] = {}
    if text and not text.endswith("\n"):
        errors.append("exposition must end with a newline")
    for lineno, line in enumerate(text.splitlines(), start=1):
        if not line.strip():
            continue
        if line.startswith("#"):
            parts = line.split(None, 3)
            if len(parts) < 3 or parts[1] not in ("HELP", "TYPE"):
                errors.append(f"line {lineno}: malformed comment: {line!r}")
                continue
            if not _NAME_RE.match(parts[2]):
                errors.append(f"line {lineno}: invalid metric name {parts[2]!r}")
                continue
            if parts[1] == "TYPE":
                kinds = ("counter", "gauge", "histogram", "summary", "untyped")
                if len(parts) < 4 or parts[3] not in kinds:
                    errors.append(f"line {lineno}: invalid TYPE line: {line!r}")
                elif parts[2] in typed:
                    errors.append(f"line {lineno}: duplicate TYPE for {parts[2]}")
                else:
                    typed[parts[2]] = parts[3]
            continue
        match = _SAMPLE_RE.match(line)
        if not match:
            errors.append(f"line {lineno}: malformed sample: {line!r}")
            continue
        name = match.group("name")
        labels_blob = match.group("labels")
        labels: Dict[str, str] = {}
        if labels_blob:
            for part in _split_labels(labels_blob):
                if not _LABEL_RE.match(part):
                    errors.append(f"line {lineno}: malformed label {part!r}")
                    continue
                key, _, raw = part.partition("=")
                labels[key] = raw[1:-1]
        raw_value = match.group("value")
        try:
            value = float(raw_value.replace("+Inf", "inf").replace("-Inf", "-inf"))
        except ValueError:
            errors.append(f"line {lineno}: invalid sample value {raw_value!r}")
            continue
        family = _family_of(name, typed)
        if family is None:
            errors.append(f"line {lineno}: sample {name!r} has no preceding TYPE")
            continue
        if typed[family] == "histogram":
            state = histogram_state.setdefault(
                family, {"buckets": {}, "sums": set(), "counts": {}}
            )
            series = tuple(sorted((k, v) for k, v in labels.items() if k != "le"))
            if name.endswith("_bucket"):
                if "le" not in labels:
                    errors.append(f"line {lineno}: histogram bucket without le label")
                    continue
                buckets = state["buckets"].setdefault(series, [])
                le = labels["le"]
                le_value = math.inf if le == "+Inf" else float(le)
                if buckets and (le_value < buckets[-1][0] or value < buckets[-1][1]):
                    errors.append(
                        f"line {lineno}: histogram {family} buckets not cumulative/ordered"
                    )
                buckets.append((le_value, value))
            elif name.endswith("_sum"):
                state["sums"].add(series)
            elif name.endswith("_count"):
                state["counts"][series] = value
    for family, state in histogram_state.items():
        for series, buckets in state["buckets"].items():
            if not buckets or not math.isinf(buckets[-1][0]):
                errors.append(f"histogram {family}{dict(series)} missing +Inf bucket")
                continue
            count = state["counts"].get(series)
            if count is not None and count != buckets[-1][1]:
                errors.append(
                    f"histogram {family}{dict(series)} +Inf bucket != _count"
                )
            if series not in state["sums"]:
                errors.append(f"histogram {family}{dict(series)} missing _sum")
    return errors


def _split_labels(blob: str) -> List[str]:
    """Split ``k="v",k2="v2"`` at commas outside quoted values."""
    parts: List[str] = []
    current: List[str] = []
    in_quotes = False
    escaped = False
    for ch in blob:
        if escaped:
            current.append(ch)
            escaped = False
            continue
        if ch == "\\":
            current.append(ch)
            escaped = True
            continue
        if ch == '"':
            in_quotes = not in_quotes
            current.append(ch)
            continue
        if ch == "," and not in_quotes:
            parts.append("".join(current))
            current = []
            continue
        current.append(ch)
    if current:
        parts.append("".join(current))
    return parts


def _family_of(name: str, typed: Dict[str, str]) -> Optional[str]:
    if name in typed:
        return name
    for suffix in ("_bucket", "_sum", "_count", "_total"):
        if name.endswith(suffix) and name[: -len(suffix)] in typed:
            return name[: -len(suffix)]
    return None


def main(argv: Optional[List[str]] = None) -> int:
    """``python -m repro.obs.prom [file|-]`` — validate exposition text."""
    argv = list(sys.argv[1:] if argv is None else argv)
    source = argv[0] if argv else "-"
    if source == "-":
        text = sys.stdin.read()
    else:
        with open(source, "r", encoding="utf-8") as fh:
            text = fh.read()
    errors = validate_exposition(text)
    for error in errors:
        print(f"exposition error: {error}", file=sys.stderr)
    if not errors:
        samples = sum(
            1 for line in text.splitlines() if line.strip() and not line.startswith("#")
        )
        print(f"exposition ok: {samples} samples")
    return 1 if errors else 0


if __name__ == "__main__":  # pragma: no cover - exercised by CI smoke
    raise SystemExit(main())
