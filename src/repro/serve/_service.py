"""The blocking serving API: a facade over the asyncio serving core.

:class:`SegmentationService` gives threaded callers ``submit(image) ->
concurrent.futures.Future`` without a second implementation of the request
path.  It owns one private event-loop thread and one
:class:`~repro.serve.AsyncSegmentationService`, so every request takes the
core's batching, coalescing, caching and scoring path — the same one the
HTTP server and the spool driver use.

* **submit** — admission runs on the loop while the caller waits: a cache
  hit comes back as an already-resolved future, a miss as the queued
  request's future.  Admission errors (full queue, closed service) raise
  from :meth:`~SegmentationService.submit` itself.
* **cancel** — a caller's ``Future.cancel()`` is forwarded to the core,
  which skips the request if it is still queued and counts it once.
* **shutdown** — :meth:`~SegmentationService.close` drains (or, with
  ``drain=False``, cancels) queued work and stops the loop thread; the
  service is a context manager.
"""

from __future__ import annotations

import asyncio
import concurrent.futures
import functools
import threading
import time
from typing import Any, Callable, Dict, List, Optional

import numpy as np

from ..engine import BatchSegmentationEngine, PipelineResult
from ..errors import ServiceClosedError, ServiceOverloadedError
from ..obs.trace import Tracer
from ._aio import AsyncSegmentationService, Priority

__all__ = ["SegmentationService"]


def _deliver(target: concurrent.futures.Future, source: asyncio.Future) -> None:
    """Copy a settled core future onto the caller's future (loop thread).

    A request shed by ``close(drain=False)`` never ran, so the caller sees
    it cancelled rather than failed.
    """
    error = None if source.cancelled() else source.exception()
    if source.cancelled() or isinstance(error, ServiceClosedError):
        target.cancel()
    elif target.set_running_or_notify_cancel():
        if error is not None:
            target.set_exception(error)
        else:
            target.set_result(source.result())


class SegmentationService:
    """A micro-batching, caching segmentation server with a blocking API.

    Parameters
    ----------
    engine:
        The :class:`~repro.engine.BatchSegmentationEngine` that does the
        actual work (its executor scatters each micro-batch).
    max_batch_size, queue_size:
        A free worker computes whatever is queued as one batch of at most
        ``max_batch_size`` (no fill timer); at most ``queue_size`` requests
        wait in the queue.
    cache:
        ``None`` to disable caching, the string ``"default"`` for a
        256-entry in-memory LRU, or any object with ``get(key) ->
        value|None`` and ``put(key, value)`` — a
        :class:`~repro.serve.ResultCache`, a
        :class:`~repro.serve.DiskResultCache`, or the two stacked as a
        :class:`~repro.serve.TieredResultCache`.
    clock:
        Monotonic time source for every latency/uptime measurement,
        injectable for deterministic tests.  Never wall-clock.
    tracer:
        The :class:`~repro.obs.trace.Tracer` recording per-request traces
        (default: one on ``clock`` at sample rate 1.0).

    The loop thread starts lazily on the first :meth:`submit` (or explicitly
    via :meth:`start`); ``with SegmentationService(...) as svc:`` guarantees
    a drained shutdown.  Future callbacks run on the loop thread and must
    not block on this service.
    """

    def __init__(
        self,
        engine: BatchSegmentationEngine,
        max_batch_size: int = 16,
        queue_size: int = 64,
        cache: Any = "default",
        clock: Callable[[], float] = time.monotonic,
        tracer: Optional[Tracer] = None,
    ):
        self._core = AsyncSegmentationService(
            engine,
            max_batch_size=max_batch_size,
            queue_size=queue_size,
            cache=cache,
            clock=clock,
            tracer=tracer,
        )
        self._lock = threading.Lock()
        self._thread: Optional[threading.Thread] = None
        self._loop: Optional[asyncio.AbstractEventLoop] = None
        self._stop: Optional[asyncio.Event] = None
        self._closed = False
        self._drain = True

    @property
    def engine(self) -> BatchSegmentationEngine:
        return self._core.engine

    @property
    def cache(self) -> Any:
        return self._core.cache

    @property
    def tracer(self) -> Tracer:
        return self._core.tracer

    # ------------------------------------------------------------------ #
    # lifecycle
    # ------------------------------------------------------------------ #
    def start(self) -> "SegmentationService":
        """Start the loop thread (idempotent); returns ``self``."""
        with self._lock:
            self._start_locked()
        return self

    def _start_locked(self) -> None:
        if self._closed:
            raise ServiceClosedError("cannot submit to a closed service")
        if self._thread is not None:
            return
        ready = threading.Event()
        self._thread = threading.Thread(
            target=asyncio.run, args=(self._serve(ready),), name="repro-serve-loop", daemon=True
        )
        self._thread.start()
        ready.wait()

    async def _serve(self, ready: threading.Event) -> None:
        self._loop = asyncio.get_running_loop()
        self._stop = asyncio.Event()
        await self._core.__aenter__()
        ready.set()
        await self._stop.wait()
        await self._core.aclose(drain=self._drain)

    def close(self, drain: bool = True, timeout: Optional[float] = None) -> None:
        """Shut down: reject new submits, then drain or cancel queued work.

        With ``drain=True`` (default) every accepted request is still
        processed.  With ``drain=False`` queued requests are cancelled (their
        futures report ``cancelled()``) and only the batch being computed
        finishes.  Idempotent; ``timeout`` bounds the wait for the loop
        thread, which finishes the shutdown on its own if that runs out.
        """
        with self._lock:
            if self._closed:
                return
            self._closed = True
            self._drain = drain
            thread = self._thread
        if thread is not None:
            self._loop.call_soon_threadsafe(self._stop.set)
            thread.join(timeout)

    @property
    def closed(self) -> bool:
        """True once :meth:`close` has been called."""
        return self._closed

    def __enter__(self) -> "SegmentationService":
        return self.start()

    def __exit__(self, exc_type, exc, tb) -> None:
        self.close(drain=exc_type is None)

    # ------------------------------------------------------------------ #
    # request path
    # ------------------------------------------------------------------ #
    def submit(
        self,
        image: np.ndarray,
        ground_truth: Optional[np.ndarray] = None,
        void_mask: Optional[np.ndarray] = None,
        block: bool = True,
        timeout: Optional[float] = None,
    ) -> "concurrent.futures.Future[PipelineResult]":
        """Submit one image; returns a future resolving to a scored result.

        ``block=True`` waits for queue space (backpressure); ``block=False``
        or an expired ``timeout`` raises
        :class:`~repro.errors.ServiceOverloadedError` instead.  The image is
        snapshotted before it is queued, so callers may reuse their buffer
        as soon as this returns.
        """
        with self._lock:
            self._start_locked()
            admission = asyncio.run_coroutine_threadsafe(
                self._admit(image, ground_truth, void_mask, block), self._loop
            )
        try:
            return admission.result(timeout)
        except concurrent.futures.TimeoutError:
            if not admission.cancel():
                return admission.result()  # admitted just as the wait ran out
            raise ServiceOverloadedError(
                f"service queue is full ({self._core.queue_size} pending requests)"
            ) from None

    async def _admit(self, image, ground_truth, void_mask, block: bool):
        future = await self._core._admit(
            image,
            ground_truth,
            void_mask,
            priority=Priority.NORMAL,
            deadline=None,
            client_id=None,
            block=block,
            trace=None,
            stream_id=None,
        )
        result: concurrent.futures.Future = concurrent.futures.Future()
        future.add_done_callback(functools.partial(_deliver, result))
        result.add_done_callback(functools.partial(self._forward_cancel, future))
        return result

    def _forward_cancel(self, future: asyncio.Future, result: concurrent.futures.Future) -> None:
        if result.cancelled() and not future.done():
            try:
                self._loop.call_soon_threadsafe(self._core._cancel, future)
            except RuntimeError:
                pass  # the loop already finished; nothing is left to cancel

    def map(self, images, ground_truths=None, void_masks=None) -> List[PipelineResult]:
        """Segment a whole batch concurrently and return the results in order.

        The first failure is re-raised once every request has settled.
        """
        with self._lock:
            self._start_locked()
            batch = asyncio.run_coroutine_threadsafe(
                self._core.map(images, ground_truths, void_masks), self._loop
            )
        return batch.result()

    # ------------------------------------------------------------------ #
    # observability
    # ------------------------------------------------------------------ #
    def metrics(self) -> Dict[str, Any]:
        """The core's JSON-friendly snapshot of service health and performance."""
        return self._core.metrics()

    def trace(self, trace_id: str) -> Optional[Dict[str, Any]]:
        """A completed trace from the flight recorder, or ``None``."""
        return self._core.trace(trace_id)

    def traces(self, slowest: int = 10) -> List[Dict[str, Any]]:
        """The slowest retained traces, slowest first."""
        return self._core.traces(slowest)

    def describe(self) -> Dict[str, Any]:
        """Static configuration (engine + service knobs), JSON-friendly."""
        return self._core.describe()

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"SegmentationService({self._core!r}, closed={self._closed})"
