"""Shared segmenter interface used by the core algorithm and the baselines.

Every segmentation method in the library — the IQFT-inspired algorithms, the
K-means and Otsu baselines, and the extra region-based methods — implements the
:class:`BaseSegmenter` interface: ``segment(image) -> SegmentationResult``.
This is what lets the experiment harness sweep over methods uniformly
(Table III, the win-rate analysis, the per-image figures).
"""

from __future__ import annotations

import abc
import dataclasses
import time
from typing import Any, Dict, Optional

import numpy as np

from .errors import SegmentationError

__all__ = ["SegmentationResult", "BaseSegmenter"]


@dataclasses.dataclass
class SegmentationResult:
    """Output of a segmentation run.

    Attributes
    ----------
    labels:
        ``(H, W)`` integer label map.  Labels are small non-negative integers;
        they are *not* guaranteed to be consecutive (use
        :func:`repro.core.labels.relabel_consecutive` when that matters).
    num_segments:
        Number of distinct labels present in ``labels``.
    runtime_seconds:
        Wall-clock time spent inside ``segment()`` (set by the base class).
    method:
        Name of the producing segmenter.
    extras:
        Method-specific diagnostics (per-pixel probabilities, cluster centres,
        the threshold used, ...), never required by downstream code.
    """

    labels: np.ndarray
    num_segments: int
    runtime_seconds: float = 0.0
    method: str = ""
    extras: Dict[str, Any] = dataclasses.field(default_factory=dict)

    def __post_init__(self) -> None:
        self.labels = np.asarray(self.labels)
        if self.labels.ndim != 2:
            raise SegmentationError(
                f"label map must be 2-D, got shape {self.labels.shape}"
            )

    @property
    def shape(self) -> tuple:
        """Shape of the label map."""
        return self.labels.shape


class BaseSegmenter(abc.ABC):
    """Abstract base class for all segmentation methods.

    Subclasses implement :meth:`_segment`; the public :meth:`segment` wraps it
    with input validation, wall-clock timing and result packaging so that all
    methods report runtimes the same way (the paper's Table III compares
    per-image runtimes across methods).
    """

    #: Human-readable method name (overridden by subclasses).
    name: str = "base"

    #: True when the labelling rule is a pure per-pixel function of that
    #: pixel's value.  Pointwise methods can be tiled and stitched with
    #: results identical to whole-image processing; methods with global or
    #: neighbourhood state (clustering, global thresholds, region growing)
    #: must leave this False so the batch engine never tiles them.
    pointwise: bool = False

    def __init__(self, name: Optional[str] = None):
        if name is not None:
            self.name = name

    @abc.abstractmethod
    def _segment(self, image: np.ndarray) -> np.ndarray:
        """Return an ``(H, W)`` integer label map for ``image``."""

    def segment(self, image: np.ndarray) -> SegmentationResult:
        """Segment ``image`` and return a timed :class:`SegmentationResult`."""
        arr = np.asarray(image)
        if arr.ndim not in (2, 3):
            raise SegmentationError(
                f"expected an (H, W) or (H, W, C) image, got shape {arr.shape}"
            )
        start = time.perf_counter()
        labels = self._segment(arr)
        elapsed = time.perf_counter() - start
        labels = np.asarray(labels)
        if labels.shape != arr.shape[:2]:
            raise SegmentationError(
                f"{self.name}: label map shape {labels.shape} does not match "
                f"image shape {arr.shape[:2]}"
            )
        labels = labels.astype(np.int64, copy=False)
        # Deferred: repro.core's segmenters import this module.
        from .core.labels import count_segments

        return SegmentationResult(
            labels=labels,
            num_segments=count_segments(labels),
            runtime_seconds=elapsed,
            method=self.name,
            extras=self._extras(),
        )

    def _extras(self) -> Dict[str, Any]:
        """Method-specific diagnostics attached to the result (default: none)."""
        return {}

    def __call__(self, image: np.ndarray) -> SegmentationResult:
        return self.segment(image)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"{type(self).__name__}(name={self.name!r})"
