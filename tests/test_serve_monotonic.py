"""Monotonic-clock regression tests for the serving layer.

Every time source in the request path (cache TTLs, service latency/uptime,
async deadlines) must be a *monotonic* clock, never
``time.time()`` — a wall-clock step (NTP correction, DST, manual reset) must
not shed queued requests early, expire cache entries, or distort latency
percentiles.  These tests pin that down with injected fake clocks and a
source audit.
"""

import asyncio
import sys
import threading
import time
from pathlib import Path

import numpy as np
import pytest

from repro.base import BaseSegmenter
from repro.core.rgb_segmenter import IQFTSegmenter
from repro.engine import BatchSegmentationEngine, PipelineResult
from repro.errors import DeadlineExceededError
from repro.serve import AsyncSegmentationService, ResultCache, SegmentationService


class FakeClock:
    """Deterministic monotonic clock."""

    def __init__(self):
        self.now = 0.0

    def __call__(self):
        return self.now

    def advance(self, seconds):
        self.now += seconds


def test_no_wall_clock_on_the_serve_path():
    """Reprolint rule RL002 is the single source of truth for this invariant.

    The old textual ``time.time()`` audit lived here; it is now an AST rule
    (which also catches naive ``datetime.now()``/``utcnow()`` and covers
    ``repro.obs`` + the latency recorder) with the disk-cache modules
    allowlisted because they legitimately compare against file mtimes.
    """
    repo_root = Path(__file__).resolve().parent.parent
    sys.path.insert(0, str(repo_root))
    try:
        from tools.reprolint.engine import analyze_paths
    finally:
        sys.path.pop(0)

    findings = analyze_paths(repo_root, rule_ids=["RL002"])
    rendered = [f.render() for f in findings]
    assert not rendered, "wall-clock reads on the serve path:\n" + "\n".join(rendered)


class GatedSegmenter(BaseSegmenter):
    """A segmenter that blocks until released — holds the batch worker busy."""

    name = "gated"

    def __init__(self):
        super().__init__()
        self.gate = threading.Event()
        self.entered = threading.Event()

    def _segment(self, image):
        self.entered.set()
        assert self.gate.wait(30.0), "gate never released"
        return np.zeros(np.asarray(image).shape[:2], dtype=np.int64)


def _frame(value):
    return np.full((10, 12, 3), value, dtype=np.uint8)


def _queued_deadline_outcome(advance):
    """Queue a 0.1 s-deadline request behind a held batch; the clock moves ``advance``."""
    clock = FakeClock()
    segmenter = GatedSegmenter()

    async def scenario():
        service = AsyncSegmentationService(
            BatchSegmentationEngine(segmenter),
            max_batch_size=4,
            cache=None,
            clock=clock,
        )
        running = asyncio.ensure_future(service.submit(_frame(0)))
        await asyncio.get_running_loop().run_in_executor(None, segmenter.entered.wait, 10.0)
        request = asyncio.ensure_future(service.submit(_frame(1), deadline=0.1))
        await asyncio.sleep(0.15)  # more *real* time than the deadline allows...
        assert not request.done(), "request left the queue while the worker was busy"
        clock.advance(advance)  # ...but only the injected clock can expire it
        segmenter.gate.set()  # the worker drains the queue
        (outcome,) = await asyncio.gather(request, return_exceptions=True)
        await running
        await service.aclose()
        return outcome, service.metrics()

    return asyncio.run(scenario())


def test_batcher_deadline_flush_follows_the_injected_clock():
    """The batch drain sheds a queued request on the injected clock only."""
    outcome, metrics = _queued_deadline_outcome(advance=0.0)
    assert isinstance(outcome, PipelineResult)
    assert metrics["completed"] == 2 and metrics["shed"]["expired"] == 0
    outcome, metrics = _queued_deadline_outcome(advance=0.2)
    assert isinstance(outcome, DeadlineExceededError)
    assert metrics["completed"] == 1 and metrics["shed"]["expired"] == 1


def _blocked_submit_outcome(advance):
    """Block a 0.1 s-deadline submit on a full queue; the clock moves ``advance``."""
    clock = FakeClock()
    segmenter = GatedSegmenter()

    async def scenario():
        service = AsyncSegmentationService(
            BatchSegmentationEngine(segmenter),
            max_batch_size=1,
            queue_size=1,
            cache=None,
            clock=clock,
        )
        running = asyncio.ensure_future(service.submit(_frame(0)))
        await asyncio.get_running_loop().run_in_executor(None, segmenter.entered.wait, 10.0)
        queued = asyncio.ensure_future(service.submit(_frame(1)))  # fills the queue
        await asyncio.sleep(0)
        blocked = asyncio.ensure_future(service.submit(_frame(2), deadline=0.1))
        await asyncio.sleep(0.15)  # more *real* time than the deadline allows...
        assert not blocked.done(), "submit gave up on wall time instead of the injected clock"
        clock.advance(advance)  # ...but only the injected clock can expire it
        segmenter.gate.set()  # the worker drains and frees queue space
        (outcome,) = await asyncio.gather(blocked, return_exceptions=True)
        await asyncio.gather(running, queued)
        await service.aclose()
        return outcome

    return asyncio.run(scenario())


def test_batcher_put_timeout_follows_the_injected_clock():
    """A submit blocked on a full queue times out on the injected clock only."""
    assert isinstance(_blocked_submit_outcome(advance=0.0), PipelineResult)
    assert isinstance(_blocked_submit_outcome(advance=0.2), DeadlineExceededError)


def test_cache_ttl_expires_on_injected_clock_only():
    clock = FakeClock()
    cache = ResultCache(max_entries=4, ttl_seconds=10.0, clock=clock)
    key = ("img", "cfg")
    cache.put(key, "value")
    # real time passing does nothing — only the injected clock ages entries
    time.sleep(0.05)
    assert cache.get(key) == "value"
    clock.advance(10.5)
    assert cache.get(key) is None
    assert cache.stats.expirations == 1


def test_cache_ttl_is_immune_to_wall_clock_jumps(monkeypatch):
    cache = ResultCache(max_entries=4, ttl_seconds=3600.0)  # default monotonic clock
    key = ("img", "cfg")
    cache.put(key, "value")
    # a huge forward wall-clock step (NTP correction) must not expire entries
    monkeypatch.setattr(time, "time", lambda: 4102444800.0)  # year 2100
    assert cache.get(key) == "value"
    assert cache.stats.expirations == 0


def test_service_latency_and_uptime_follow_the_injected_clock(rng):
    clock = FakeClock()
    engine = BatchSegmentationEngine(IQFTSegmenter(thetas=np.pi))
    service = SegmentationService(engine, clock=clock)
    try:
        image = (rng.random((10, 12, 3)) * 255).astype(np.uint8)
        service.submit(image).result(timeout=30)
        # the request completed while the injected clock stood still, so its
        # recorded latency must be exactly zero — real elapsed time must not
        # leak into the percentiles
        latency = service.metrics()["latency_seconds"]
        assert latency["count"] == 1.0
        assert latency["max"] == 0.0
        clock.advance(7.0)
        assert service.metrics()["uptime_seconds"] == pytest.approx(7.0)
    finally:
        service.close()
