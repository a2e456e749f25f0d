"""The metrics schema (``repro.obs.schema``) against a fully configured stack.

One service runs every optional producer — a memory + shm + disk tiered
cache, delta streams and tracing at 1.0 — behind a real HTTP server, so
these checks see every key the serve stack emits: the service's
``metrics()``, the server's ``http_metrics()``, a two-worker merge and the
fleet supervisor's own keys.
"""

import asyncio
from pathlib import Path

import numpy as np
import pytest

from repro import BatchSegmentationEngine, IQFTSegmenter
from repro.obs import Tracer, render_prometheus, schema, validate_exposition
from repro.serve import (
    AsyncSegmentationService,
    DiskResultCache,
    HttpSegmentationServer,
    ResultCache,
    SegmentClient,
    ServeFleet,
    SharedMemoryResultCache,
    TieredResultCache,
    WorkerSpec,
    merge_worker_metrics,
)

README = Path(__file__).resolve().parents[1] / "README.md"


def _frames(seed=0):
    rng = np.random.default_rng(seed)
    palette = (rng.random((8, 3)) * 255).astype(np.uint8)
    first = palette[rng.integers(0, 8, size=(16, 16))]
    second = first.copy()
    second[:8, :8] = palette[0]  # one dirty tile on an 8x8 grid
    return first, second


async def _drive(cache_dir):
    shm = SharedMemoryResultCache.create(2 * 1024 * 1024, slot_bytes=256 * 1024)
    cache = TieredResultCache(ResultCache(max_entries=8), DiskResultCache(cache_dir), shm=shm)
    service = AsyncSegmentationService(
        BatchSegmentationEngine(IQFTSegmenter(thetas=np.pi)),
        cache=cache,
        tracer=Tracer(sample_rate=1.0),
        delta_tile_shape=(8, 8),
    )
    first, second = _frames()
    try:
        async with service:
            server = HttpSegmentationServer(service, host="127.0.0.1", port=0)
            await server.start()
            try:
                await service.submit(first)
                await service.submit(first)  # a cache hit
                for frame in (first, second):
                    await service.submit(frame, stream_id="cam-0")

                def over_http():
                    with SegmentClient("127.0.0.1", server.port, timeout=30) as client:
                        client.segment(first, priority="high")

                await asyncio.get_running_loop().run_in_executor(None, over_http)
                return service.metrics(), server.http_metrics()
            finally:
                await server.aclose(drain=True, close_service=False)
    finally:
        shm.close()


@pytest.fixture(scope="module")
def documents(tmp_path_factory):
    metrics, http = asyncio.run(_drive(str(tmp_path_factory.mktemp("l2"))))
    service = {**metrics, "http": http}
    merged = merge_worker_metrics([service, service])
    fleet = ServeFleet(WorkerSpec(), workers=2).metrics()  # never started: no workers
    return {"service": service, "merged": merged, "fleet": fleet}


def _families(text):
    return [line.split()[2] for line in text.splitlines() if line.startswith("# TYPE ")]


def test_configured_service_renders_every_produced_family(documents):
    text = render_prometheus(documents["service"])
    assert validate_exposition(text) == []
    assert "# TYPE repro_http_request_errors_total " in text
    for sample in (
        'repro_cache_corrupt_dropped_total{tier="l2"}',
        'repro_cache_evicted_bytes_total{tier="l2"}',
        'repro_cache_current_bytes{tier="l2"}',
        'repro_cache_max_bytes{tier="l2"}',
        'repro_cache_max_entries{tier="l2"}',
        'repro_cache_torn_reads_total{tier="shm"}',
        'repro_cache_store_skips_total{tier="shm"}',
    ):
        assert f"\n{sample} " in text, sample


def test_every_emitted_key_is_declared_and_every_declared_key_emitted(documents):
    emitted = {path for doc in documents.values() for path, *_ in schema.leaves(doc)}
    assert emitted == {path for metric in schema.METRICS for path in metric.paths}


def test_every_declared_family_renders_exactly_once(documents):
    rendered = []
    for doc in documents.values():
        text = render_prometheus(doc)
        assert validate_exposition(text) == []
        families = _families(text)
        assert len(families) == len(set(families))
        rendered.extend(families)
    assert set(rendered) == schema.family_names()


def test_merge_sums_worker_http_counters(documents):
    http = documents["service"]["http"]
    merged = merge_worker_metrics([documents["service"], documents["service"]])["http"]
    assert http["requests"] >= 1
    assert merged["requests"] == 2 * http["requests"]
    assert merged["responses"] == {code: 2 * n for code, n in http["responses"].items()}
    assert merged["request_errors"] == 2 * http["request_errors"]
    assert merged["draining"] is http["draining"]


def test_merged_fleet_view_keeps_the_workers_derived_values(documents):
    service, merged = documents["service"], documents["merged"]
    assert merged["workers_scraped"] == 2
    assert merged["completed"] == 2 * service["completed"]
    assert merged["cache"]["hit_rate"] == pytest.approx(service["cache"]["hit_rate"])
    assert merged["cache"]["shm"]["slot_count"] == service["cache"]["shm"]["slot_count"]
    assert merged["delta"]["reuse_ratio"] == pytest.approx(service["delta"]["reuse_ratio"])
    assert merged["delta"]["enabled"] is True
    assert merged["backends"] == [service["backend"]]
    assert merged["latency_exemplar"] == service["latency_exemplar"]
    assert "tile_shape" not in merged["delta"]  # static config is not merged


def test_merge_unions_backend_names_under_either_key():
    merged = merge_worker_metrics([{"backend": "numpy"}, {"backends": ["cupy", "numpy"]}])
    assert merged["backends"] == ["cupy", "numpy"]
    assert "backend" not in merged


def test_readme_metrics_reference_matches_the_schema():
    table = schema.reference_table()
    assert table in README.read_text(encoding="utf-8"), (
        "README metrics reference is stale; replace it with "
        "repro.obs.schema.reference_table()"
    )
    for family in schema.family_names():
        assert f"`{family}`" in table
