"""Micro-batching in the serving core.

Batches are assembled by :class:`repro.serve.AsyncSegmentationService`.
Batching is work-conserving: a free worker takes everything queued, up to
``max_batch_size``, and computes it at once, so a batch holds the requests
that queued while the previous batch computed and a lone request never waits
for company.  At most ``queue_size`` requests wait, and
:class:`repro.serve.SegmentationService` is the blocking view of the same
queue.  These tests pin the batching contract through both; multi-request
batches are built by queueing behind a batch held on a gate, never by timing.
"""

import asyncio
import concurrent.futures
import threading

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


def _assemble_spans(service):
    """The ``batch.assemble`` span of every traced request."""
    return [
        span
        for trace in service.traces(slowest=64)
        for span in trace["spans"]
        if span["name"] == "batch.assemble"
    ]


def _batch_sizes(service):
    """The ``batch_size`` of the batch each traced request was flushed in."""
    return [span["fields"]["batch_size"] for span in _assemble_spans(service)]


def _held_service(max_batch_size, queue_size=16):
    """A service whose worker is busy computing a gated one-request batch.

    Everything submitted before ``segmenter.gate.set()`` queues behind that
    batch, so the next batches' shapes depend only on the queue.
    """
    segmenter = GatedSegmenter()
    service = SegmentationService(
        BatchSegmentationEngine(segmenter),
        max_batch_size=max_batch_size,
        queue_size=queue_size,
        cache=None,
    )
    blocker = service.submit(np.full((12, 14, 3), 255, dtype=np.uint8))
    assert segmenter.entered.wait(10.0)  # the worker is computing the blocker
    return service, segmenter, blocker


def test_flush_on_size_returns_full_batch_immediately():
    service, segmenter, blocker = _held_service(max_batch_size=4)
    futures = [service.submit(image) for image in _images(6)]
    assert service.metrics()["queue_depth"] == 6
    segmenter.gate.set()
    results = [future.result(timeout=10) for future in [blocker, *futures]]
    assert len(results) == 7
    service.close()
    # the backlog leaves as a full batch, then the remainder
    assert sorted(_batch_sizes(service)) == [1, 2, 2, 4, 4, 4, 4]
    metrics = service.metrics()
    assert metrics["batches"] == 3
    assert metrics["mean_batch_size"] == pytest.approx(7 / 3)


def test_lone_request_leaves_at_once_as_a_batch_of_one():
    service = SegmentationService(_engine(), max_batch_size=16, queue_size=16, cache=None)
    assert service.submit(_images(1)[0]).result(timeout=10) is not None
    service.close()
    (span,) = _assemble_spans(service)
    assert span["fields"]["batch_size"] == 1
    # no fill window: assembling the batch is a queue drain, not a wait
    assert span["duration_seconds"] < 0.002
    metrics = service.metrics()
    assert metrics["batches"] == 1
    assert metrics["mean_batch_size"] == 1


def test_requests_queued_while_a_batch_computes_leave_as_one_batch():
    service, segmenter, blocker = _held_service(max_batch_size=16)
    futures = [service.submit(image) for image in _images(5)]
    segmenter.gate.set()
    for future in [blocker, *futures]:
        assert future.result(timeout=10) is not None
    service.close()
    assert sorted(_batch_sizes(service)) == [1, 5, 5, 5, 5, 5]
    assert service.metrics()["batches"] == 2
    assert all(span["duration_seconds"] < 0.002 for span in _assemble_spans(service))


def test_zero_wait_still_flushes_queued_backlog_as_one_batch():
    async def scenario():
        service = AsyncSegmentationService(_engine(), max_batch_size=16, queue_size=16, cache=None)
        # every submit queues before the worker first runs
        await asyncio.gather(*(service.submit(image) for image in _images(5)))
        await service.aclose()
        return service.metrics()

    metrics = asyncio.run(scenario())
    # with no fill timer, a backlog queued before the worker runs still leaves whole
    assert metrics["batches"] == 1
    assert metrics["mean_batch_size"] == 5


def test_batches_preserve_fifo_order_across_flushes():
    service = SegmentationService(_engine(), max_batch_size=3, queue_size=16, cache=None)
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
    service, segmenter, blocker = _held_service(max_batch_size=2, queue_size=8)
    futures = [service.submit(image) for image in _images(3)]
    segmenter.gate.set()
    service.close()
    # the close drains the whole backlog before returning
    assert all(future.result(timeout=0) is not None for future in [blocker, *futures])
    assert service.closed
    assert service.metrics()["batches"] == 3
    with pytest.raises(ServiceClosedError):
        service.submit(_images(1)[0])


def test_put_after_close_is_rejected():
    service = SegmentationService(_engine())
    service.close()
    with pytest.raises(ServiceClosedError):
        service.submit(_images(1)[0])
    assert service.metrics()["requests"] == 0


def test_drain_empties_queue_without_batching():
    service, segmenter, blocker = _held_service(max_batch_size=8, queue_size=8)
    futures = [service.submit(image) for image in _images(5)]
    assert service.metrics()["queue_depth"] == 5  # queued behind the held batch
    closer = threading.Thread(target=service.close, kwargs={"drain": False})
    closer.start()
    for future in futures:
        with pytest.raises(concurrent.futures.CancelledError):
            future.result(timeout=10)
    segmenter.gate.set()  # only the batch being computed still finishes
    closer.join(10.0)
    assert blocker.result(timeout=0) is not None
    metrics = service.metrics()
    assert metrics["queue_depth"] == 0
    assert metrics["batches"] == 1
    assert metrics["cancelled"] == 5


def test_stats_track_batch_shapes():
    service, segmenter, blocker = _held_service(max_batch_size=2, queue_size=8)
    futures = [service.submit(image) for image in _images(5)]
    segmenter.gate.set()
    for future in [blocker, *futures]:
        future.result(timeout=10)
    service.close()
    assert sorted(_batch_sizes(service), reverse=True) == [2, 2, 2, 2, 1, 1]
    metrics = service.metrics()
    assert metrics["batches"] == 4
    assert metrics["completed"] == 6
    assert service.describe()["max_batch_size"] == 2
    assert metrics["mean_batch_size"] == pytest.approx(6 / 4)


def test_constructor_validation():
    with pytest.raises(ParameterError):
        SegmentationService(_engine(), max_batch_size=0)
    with pytest.raises(ParameterError):
        SegmentationService(_engine(), queue_size=0)
