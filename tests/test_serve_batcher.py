"""Micro-batching in the serving core.

Batches are assembled by :class:`repro.serve.AsyncSegmentationService` — a
batch flushes when it reaches ``max_batch_size`` or ``max_wait_seconds``
after traffic started accumulating, at most ``queue_size`` requests wait,
and :class:`repro.serve.SegmentationService` is the blocking view of the
same queue.  These tests pin the batching contract through both.
"""

import asyncio
import threading
import time

import numpy as np
import pytest

from repro.base import BaseSegmenter
from repro.core.rgb_segmenter import IQFTSegmenter
from repro.engine import BatchSegmentationEngine
from repro.errors import ParameterError, ServiceClosedError, ServiceOverloadedError
from repro.serve import AsyncSegmentationService, SegmentationService


class GatedSegmenter(BaseSegmenter):
    """A segmenter that blocks until released — holds the consumer busy."""

    name = "gated"

    def __init__(self):
        super().__init__()
        self.gate = threading.Event()
        self.entered = threading.Event()

    def _segment(self, image):
        self.entered.set()
        assert self.gate.wait(30.0), "gate never released"
        return np.zeros(np.asarray(image).shape[:2], dtype=np.int64)


def _engine():
    return BatchSegmentationEngine(IQFTSegmenter(thetas=np.pi))


def _images(count):
    """Distinct images, so no two requests coalesce into one computation."""
    return [np.full((12, 14, 3), value, dtype=np.uint8) for value in range(count)]


def _batch_sizes(service):
    """The ``batch_size`` of the batch each traced request was flushed in."""
    return [
        span["fields"]["batch_size"]
        for trace in service.traces(slowest=64)
        for span in trace["spans"]
        if span["name"] == "batch.assemble"
    ]


def test_flush_on_size_returns_full_batch_immediately():
    service = SegmentationService(
        _engine(), max_batch_size=4, max_wait_seconds=30.0, queue_size=16, cache=None
    )
    start = time.perf_counter()
    futures = [service.submit(image) for image in _images(4)]
    results = [future.result(timeout=10) for future in futures]
    elapsed = time.perf_counter() - start
    assert len(results) == 4
    # a size flush must not wait out the (deliberately huge) deadline
    assert elapsed < 5.0
    metrics = service.metrics()
    assert metrics["batches"] == 1
    assert metrics["mean_batch_size"] == 4
    service.close()


def test_flush_on_deadline_returns_partial_batch():
    service = SegmentationService(
        _engine(), max_batch_size=64, max_wait_seconds=0.05, queue_size=16, cache=None
    )
    start = time.perf_counter()
    result = service.submit(_images(1)[0]).result(timeout=10)
    elapsed = time.perf_counter() - start
    assert result is not None
    assert 0.02 <= elapsed < 5.0  # waited for the deadline, not forever
    metrics = service.metrics()
    assert metrics["batches"] == 1
    assert metrics["mean_batch_size"] == 1
    service.close()


def test_zero_wait_still_flushes_queued_backlog_as_one_batch():
    async def scenario():
        service = AsyncSegmentationService(
            _engine(), max_batch_size=16, max_wait_seconds=0.0, queue_size=16, cache=None
        )
        # every submit queues before the worker first runs
        await asyncio.gather(*(service.submit(image) for image in _images(5)))
        await service.aclose()
        return service.metrics()

    metrics = asyncio.run(scenario())
    # a zero deadline must not degrade a waiting backlog into singletons
    assert metrics["batches"] == 1
    assert metrics["mean_batch_size"] == 5


def test_batches_preserve_fifo_order_across_flushes():
    service = SegmentationService(
        _engine(), max_batch_size=3, max_wait_seconds=0.01, queue_size=16, cache=None
    )
    collected = []
    futures = []
    for index, image in enumerate(_images(7)):
        future = service.submit(image)
        future.add_done_callback(lambda _, index=index: collected.append(index))
        futures.append(future)
    for future in futures:
        future.result(timeout=10)
    service.close()
    assert collected == list(range(7))
    assert service.metrics()["batches"] >= 3


def test_backpressure_bounded_queue():
    segmenter = GatedSegmenter()
    service = SegmentationService(
        BatchSegmentationEngine(segmenter),
        max_batch_size=1,
        max_wait_seconds=0.0,
        queue_size=2,
        cache=None,
    )
    images = _images(4)
    futures = [service.submit(images[0])]
    assert segmenter.entered.wait(10.0)  # the consumer is busy with it
    futures += [service.submit(image) for image in images[1:3]]
    with pytest.raises(ServiceOverloadedError):
        service.submit(images[3], block=False)
    with pytest.raises(ServiceOverloadedError):
        service.submit(images[3], timeout=0.01)
    assert service.metrics()["queue_depth"] == 2
    # letting the consumer drain frees the queue again
    segmenter.gate.set()
    for future in futures:
        future.result(timeout=10)
    service.submit(images[3], block=False).result(timeout=10)
    service.close()
    assert service.metrics()["requests"] == 4  # the rejected submits were not admitted


def test_blocking_put_waits_for_consumer():
    segmenter = GatedSegmenter()
    service = SegmentationService(
        BatchSegmentationEngine(segmenter),
        max_batch_size=1,
        max_wait_seconds=0.0,
        queue_size=1,
        cache=None,
    )
    images = _images(3)
    first = service.submit(images[0])
    assert segmenter.entered.wait(10.0)
    second = service.submit(images[1])  # fills the queue
    unblocked = threading.Event()
    blocked = {}

    def producer():
        blocked["future"] = service.submit(images[2])  # waits for queue space
        unblocked.set()

    thread = threading.Thread(target=producer, daemon=True)
    thread.start()
    assert not unblocked.wait(0.05)  # still blocked: queue is full
    segmenter.gate.set()
    assert unblocked.wait(5.0)
    thread.join(5.0)
    for future in (first, second, blocked["future"]):
        assert future.result(timeout=10) is not None
    service.close()


def test_close_drains_then_returns_none():
    service = SegmentationService(
        _engine(), max_batch_size=2, max_wait_seconds=5.0, queue_size=8, cache=None
    )
    futures = [service.submit(image) for image in _images(3)]
    start = time.perf_counter()
    service.close()
    # the close flushes the partial batch without waiting out its deadline
    assert time.perf_counter() - start < 2.0
    assert all(future.result(timeout=0) is not None for future in futures)
    assert service.closed
    assert service.metrics()["batches"] == 2
    with pytest.raises(ServiceClosedError):
        service.submit(_images(1)[0])


def test_put_after_close_is_rejected():
    service = SegmentationService(_engine())
    service.close()
    with pytest.raises(ServiceClosedError):
        service.submit(_images(1)[0])
    assert service.metrics()["requests"] == 0


def test_drain_empties_queue_without_batching():
    service = SegmentationService(
        _engine(), max_batch_size=8, max_wait_seconds=30.0, queue_size=8, cache=None
    )
    futures = [service.submit(image) for image in _images(5)]
    assert service.metrics()["queue_depth"] == 5  # still filling the batch
    service.close(drain=False)
    assert all(future.cancelled() for future in futures)
    metrics = service.metrics()
    assert metrics["queue_depth"] == 0
    assert metrics["batches"] == 0
    assert metrics["cancelled"] == 5


def test_stats_track_batch_shapes():
    async def scenario():
        service = AsyncSegmentationService(
            _engine(), max_batch_size=2, max_wait_seconds=0.01, queue_size=8, cache=None
        )
        await asyncio.gather(*(service.submit(image) for image in _images(5)))
        await service.aclose()
        return service

    service = asyncio.run(scenario())
    assert sorted(_batch_sizes(service), reverse=True) == [2, 2, 2, 2, 1]
    metrics = service.metrics()
    assert metrics["batches"] == 3
    assert metrics["completed"] == 5
    assert service.describe()["max_batch_size"] == 2
    assert metrics["mean_batch_size"] == pytest.approx(5 / 3)


def test_constructor_validation():
    with pytest.raises(ParameterError):
        SegmentationService(_engine(), max_batch_size=0)
    with pytest.raises(ParameterError):
        SegmentationService(_engine(), max_wait_seconds=-0.1)
    with pytest.raises(ParameterError):
        SegmentationService(_engine(), queue_size=0)
