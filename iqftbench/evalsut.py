"""The eval-voc system under test: one engine in a fresh process.

Usage: ``python3 iqftbench/evalsut.py INPUTS.npz OUT.json TRACE``.

Runs the paper's offline use: ``BatchSegmentationEngine.map(images, masks,
voids)`` with the engine's defaults, one image per call, over every image of
the set once.  A fresh process starts with cold table caches, so every pass
sees the set as distinct images.  Set-up is engine construction up to the
first correct answer on a warm-up image.  With ``TRACE`` = 1 the harness
wraps ``engine.segment`` and ``pipeline.score`` in spans and reads the LUT
cache counters around every call.
"""

import json
import sys
import time

import numpy as np

from inputs import label_digest, segmenter
from spans import SpanRecorder
from sut import status_kb


def _traced(engine, recorder: SpanRecorder, current: dict) -> None:
    """Wrap the engine's segment and score calls in harness spans."""
    segment, score = engine.segment, engine.pipeline.score

    def traced_segment(image):
        start = time.perf_counter()
        result = segment(image)
        recorder.add(
            "engine.segment",
            start,
            time.perf_counter(),
            parent="eval.map",
            request_id=current["id"],
            strategy=result.extras.get("fast_path"),
            palette_size=result.extras.get("palette_size", 0),
            palette_cached=result.extras.get("palette_cached", False),
        )
        return result

    def traced_score(result, ground_truth=None, void_mask=None):
        start = time.perf_counter()
        scored = score(result, ground_truth, void_mask)
        end = time.perf_counter()
        recorder.add("pipeline.score", start, end, parent="eval.map", request_id=current["id"])
        return scored

    engine.segment = traced_segment
    engine.pipeline.score = traced_score


def main(argv) -> int:
    inputs_path, out_path, trace = argv[0], argv[1], argv[2] == "1"
    with np.load(inputs_path) as data:
        images, masks, voids = data["images"], data["masks"], data["voids"]
        digests = [str(d) for d in data["digests"]]
        mious = [float(m) for m in data["mious"]]
        warm = (data["warm_image"], data["warm_mask"], data["warm_void"])
        warm_digest = str(data["warm_digest"])
    from repro.core.lut import lut_cache_info
    from repro.engine import BatchSegmentationEngine

    pre_rss_kb = status_kb("VmRSS")
    start = time.perf_counter()
    engine = BatchSegmentationEngine(segmenter())
    first = engine.map([warm[0]], [warm[1]], [warm[2]])[0]
    setup_s = time.perf_counter() - start
    if label_digest(first.segmentation.labels) != warm_digest:
        raise SystemExit("warm-up answer differs from the matrix-path reference")

    recorder = SpanRecorder()
    current = {"id": None}
    if trace:
        _traced(engine, recorder, current)
    latencies, statuses, served_miou = [], [], []
    classified = palette_hits = palette_lookups = 0
    for index in range(len(images)):
        current["id"] = f"eval-{index}"
        before = lut_cache_info().palette
        t0 = time.perf_counter()
        result = engine.map([images[index]], [masks[index]], [voids[index]])[0]
        t1 = time.perf_counter()
        after = lut_cache_info().palette
        latencies.append(t1 - t0)
        ok = label_digest(result.segmentation.labels) == digests[index]
        miou = float(result.metrics["miou"])
        statuses.append("ok" if ok and miou == mious[index] else "wrong")
        served_miou.append(miou)
        if trace:
            recorder.add("eval.map", t0, t1, request_id=current["id"])
            hits, misses = after.hits - before.hits, after.misses - before.misses
            palette_hits += hits
            palette_lookups += hits + misses
            if misses or not result.segmentation.extras.get("palette_cached", False):
                classified += int(result.segmentation.extras.get("palette_size", 0))
    doc = {
        "setup_s": setup_s,
        "latencies": latencies,
        "statuses": statuses,
        "miou": served_miou,
        "rss_mb": (status_kb("VmHWM") - pre_rss_kb) / 1024.0,
        "colours_classified": classified,
        "palette_hits": palette_hits,
        "palette_lookups": palette_lookups,
        "spans": [span.as_dict() for span in recorder.spans],
    }
    with open(out_path, "w", encoding="utf-8") as fh:
        json.dump(doc, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
