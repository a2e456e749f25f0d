"""Dirty-tile incremental segmentation for temporal streams.

Frame N+1 of a video, satellite-revisit or sensor stream usually differs
from frame N only in a small region.  Because the IQFT rule is strictly
per-pixel — the same property that makes :func:`repro.parallel.tiling.tile_map`
exact — a tile whose bytes did not change segments to exactly the same
labels, so re-running the segmenter on unchanged tiles is pure waste.

:class:`DeltaStreamEngine` exploits that: each *prepared* frame is cut on a
fixed tile grid, every tile is content-digested
(:func:`repro.parallel.tiling.tile_digest`), the digests are compared
against the cached ancestor frame of the same stream, and only *dirty*
tiles are re-segmented through the wrapped engine's normal strategies
(LUT / palette-LUT / tiled / direct, via
``BatchSegmentationEngine._label_prepared``).  Fresh tiles are stitched
into a copy of the ancestor's label map — bit-identical to a full
recompute, a property the Hypothesis suite asserts over grayscale and RGB
frames on every available backend.

Preprocessing runs on the **whole frame before tiling** (``target_shape``
resizing is not tile-local), so the digests address prepared content — the
same content the labels are a pure function of.

Stream state lives in a bounded thread-safe LRU keyed by a caller-chosen
stream ID (the serve stack forwards ``X-Repro-Stream-Id`` into it).  An
optional per-tile cache hook additionally lets dirty tiles hit tiles
computed by other streams or other fleet workers — the serve layer adapts
its tiered result cache into this hook (see ``repro.serve._cache`` for the
on-disk key format).

Failure isolation: stream state is committed only after *every* dirty tile
of a frame segmented successfully, so a corrupt mid-stream frame (bad
shape, bad dtype, values that make the segmenter raise) never poisons the
cached ancestor — the next good frame diffs against the last good one.
Out-of-order arrival is likewise safe: a frame diffs against whatever
ancestor is committed, and the stitched result is bit-identical to a full
recompute regardless of which ancestor that was.
"""

from __future__ import annotations

import threading
import time
from collections import OrderedDict
from dataclasses import dataclass
from typing import Any, Dict, Optional, Tuple

import numpy as np

from ..base import SegmentationResult
from ..core.labels import count_segments
from ..errors import ParameterError
from ..parallel.tiling import Tile, assemble_tiles, grid_digests
from .engine import BatchSegmentationEngine

__all__ = [
    "DEFAULT_DELTA_TILE_SHAPE",
    "DEFAULT_MAX_STREAMS",
    "DeltaStats",
    "StreamState",
    "StreamStateStore",
    "DeltaStreamEngine",
]

#: Delta grid tile shape.  Much finer than the engine's compute tiles
#: (512×512): delta tiles bound the *blast radius* of a localized change,
#: and digesting is cheap relative to segmenting.
DEFAULT_DELTA_TILE_SHAPE: Tuple[int, int] = (64, 64)

#: Streams tracked per store before the least-recently-updated is dropped.
DEFAULT_MAX_STREAMS = 256


@dataclass(frozen=True)
class DeltaStats:
    """Per-frame accounting of the dirty-tile comparison."""

    tiles_total: int
    tiles_reused: int
    tiles_recomputed: int
    had_ancestor: bool

    @property
    def reuse_ratio(self) -> float:
        """Reused tiles over all tiles (0.0 for an empty grid)."""
        return self.tiles_reused / self.tiles_total if self.tiles_total else 0.0

    def as_dict(self) -> Dict[str, Any]:
        """JSON-friendly form, merged into result extras and serve metrics."""
        return {
            "tiles_total": self.tiles_total,
            "tiles_reused": self.tiles_reused,
            "tiles_recomputed": self.tiles_recomputed,
            "reuse_ratio": self.reuse_ratio,
            "had_ancestor": self.had_ancestor,
        }


@dataclass
class StreamState:
    """The committed ancestor of one stream: digests + stitched label map.

    ``digests`` are positional (row-major grid order), so comparing frame
    N+1 against the ancestor is a tuple walk; ``labels`` is the full stitched
    ``int64`` label map clean tiles are copied out of.
    """

    frame_shape: Tuple[int, ...]
    frame_dtype: str
    tile_shape: Tuple[int, int]
    digests: Tuple[str, ...]
    labels: np.ndarray


class StreamStateStore:
    """Bounded, thread-safe LRU of per-stream ancestors.

    The store holds one full label map per stream, so the bound is a memory
    cap, not a correctness knob: a dropped stream simply pays one full
    recompute on its next frame.
    """

    def __init__(self, max_streams: int = DEFAULT_MAX_STREAMS):
        if int(max_streams) < 1:
            raise ParameterError("max_streams must be >= 1")
        self.max_streams = int(max_streams)
        self._states: "OrderedDict[str, StreamState]" = OrderedDict()
        self._lock = threading.Lock()

    def get(self, stream_id: str) -> Optional[StreamState]:
        """The committed ancestor for ``stream_id``, or ``None``."""
        with self._lock:
            state = self._states.get(stream_id)
            if state is not None:
                self._states.move_to_end(stream_id)
            return state

    def put(self, stream_id: str, state: StreamState) -> None:
        """Commit a new ancestor, evicting the LRU stream on overflow."""
        with self._lock:
            self._states[stream_id] = state
            self._states.move_to_end(stream_id)
            while len(self._states) > self.max_streams:
                self._states.popitem(last=False)

    def forget(self, stream_id: str) -> bool:
        """Drop one stream's ancestor; True if it existed."""
        with self._lock:
            return self._states.pop(stream_id, None) is not None

    def clear(self) -> None:
        """Drop every stream."""
        with self._lock:
            self._states.clear()

    def __len__(self) -> int:
        with self._lock:
            return len(self._states)

    def __contains__(self, stream_id: str) -> bool:
        with self._lock:
            return stream_id in self._states


class DeltaStreamEngine:
    """Dirty-tile incremental segmentation over a :class:`BatchSegmentationEngine`.

    Parameters
    ----------
    engine:
        The wrapped engine.  Its preprocessing, LUT/tiling strategies and
        backend are used unchanged for the tiles that do need recomputing.
    tile_shape:
        ``(H, W)`` of the fixed delta grid.
    max_streams:
        Capacity of the internal :class:`StreamStateStore` (ignored when
        ``store`` is passed).
    store:
        An explicit :class:`StreamStateStore`, e.g. one shared across
        engines in tests.
    tile_cache:
        Optional cross-stream per-tile cache hook: an object with
        ``get(digest) -> Optional[labels]`` and ``put(digest, labels)``.
        The serve layer adapts its tiered result cache into this protocol
        so one worker's tiles become another worker's hits.

    Delta reuse requires a *pointwise* segmenter (the same gate whole-image
    tiling uses — stitching is only exact for pure per-pixel rules).  For
    non-pointwise segmenters :meth:`segment` transparently degrades to the
    wrapped engine's full path and reports zero reuse.
    """

    def __init__(
        self,
        engine: BatchSegmentationEngine,
        tile_shape: Tuple[int, int] = DEFAULT_DELTA_TILE_SHAPE,
        max_streams: int = DEFAULT_MAX_STREAMS,
        store: Optional[StreamStateStore] = None,
        tile_cache: Optional[Any] = None,
    ):
        if not isinstance(engine, BatchSegmentationEngine):
            raise ParameterError("engine must be a BatchSegmentationEngine instance")
        th, tw = int(tile_shape[0]), int(tile_shape[1])
        if th < 1 or tw < 1:
            raise ParameterError("tile_shape must be positive")
        if tile_cache is not None and not (
            callable(getattr(tile_cache, "get", None))
            and callable(getattr(tile_cache, "put", None))
        ):
            raise ParameterError("tile_cache must provide get(digest) and put(digest, labels)")
        self.engine = engine
        self.tile_shape = (th, tw)
        self.store = store if store is not None else StreamStateStore(max_streams)
        self.tile_cache = tile_cache

    @property
    def supports_delta(self) -> bool:
        """True when tile-local recompute is exact for the wrapped segmenter."""
        return bool(getattr(self.engine.pipeline.segmenter, "pointwise", False))

    def describe(self) -> Dict[str, Any]:
        """JSON-friendly configuration summary."""
        return {
            "tile_shape": list(self.tile_shape),
            "max_streams": self.store.max_streams,
            "streams": len(self.store),
            "supports_delta": self.supports_delta,
            "tile_cache": self.tile_cache is not None,
        }

    def forget(self, stream_id: str) -> bool:
        """Drop one stream's committed ancestor."""
        return self.store.forget(str(stream_id))

    # ------------------------------------------------------------------ #
    def segment(self, image: np.ndarray, stream_id: str) -> SegmentationResult:
        """Segment one frame of ``stream_id`` through the dirty-tile path.

        The returned result is **bit-identical** to ``engine.segment(image)``
        in its ``labels`` and ``num_segments``; ``extras["delta"]`` carries
        the :class:`DeltaStats` accounting and ``extras["fast_path"]`` is
        ``"delta"`` whenever at least one tile was reused.
        """
        if not self.supports_delta:
            result = self.engine.segment(image)
            result.extras["delta"] = DeltaStats(0, 0, 0, False).as_dict()
            return result

        start = time.perf_counter()
        prepared = self.engine.pipeline._prepare(np.asarray(image))
        tiles, digests = grid_digests(prepared, self.tile_shape)
        stream_id = str(stream_id)
        state = self.store.get(stream_id)
        compatible = (
            state is not None
            and state.frame_shape == prepared.shape
            and state.frame_dtype == str(prepared.dtype)
            and state.tile_shape == self.tile_shape
            and len(state.digests) == len(digests)
        )

        reused = recomputed = 0
        out_tiles = []
        for index, (tile, digest) in enumerate(zip(tiles, digests)):
            height, width = tile.data.shape[:2]
            if compatible and state.digests[index] == digest:
                block = state.labels[
                    tile.row : tile.row + height, tile.col : tile.col + width
                ]
                out_tiles.append(Tile(data=block, row=tile.row, col=tile.col))
                reused += 1
                continue
            cached = self.tile_cache.get(digest) if self.tile_cache is not None else None
            if cached is not None:
                block = np.asarray(cached).astype(np.int64, copy=False)
                out_tiles.append(Tile(data=block, row=tile.row, col=tile.col))
                reused += 1
                continue
            labels_tile, _extras, _fast_path = self.engine._label_prepared(tile.data)
            if self.tile_cache is not None:
                self.tile_cache.put(digest, labels_tile)
            out_tiles.append(Tile(data=labels_tile, row=tile.row, col=tile.col))
            recomputed += 1

        labels = assemble_tiles(out_tiles, prepared.shape[:2], dtype=np.int64)
        # Commit only now: every tile of this frame succeeded, so a raise
        # anywhere above leaves the previous ancestor untouched.
        self.store.put(
            stream_id,
            StreamState(
                frame_shape=prepared.shape,
                frame_dtype=str(prepared.dtype),
                tile_shape=self.tile_shape,
                digests=digests,
                labels=labels,
            ),
        )

        stats = DeltaStats(
            tiles_total=len(tiles),
            tiles_reused=reused,
            tiles_recomputed=recomputed,
            had_ancestor=bool(compatible),
        )
        extras: Dict[str, Any] = {
            "fast_path": "delta" if reused else "delta-cold",
            "backend": self.engine.backend.name,
            "delta": stats.as_dict(),
            "tile_shape": self.tile_shape,
            "stream_id": stream_id,
        }
        return SegmentationResult(
            labels=labels,
            num_segments=count_segments(labels),
            runtime_seconds=time.perf_counter() - start,
            method=self.engine.pipeline.segmenter.name,
            extras=extras,
        )

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"DeltaStreamEngine(engine={self.engine!r}, "
            f"tile_shape={self.tile_shape}, streams={len(self.store)})"
        )
