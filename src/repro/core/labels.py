"""Label-map utilities: relabeling, counting, and binarization for evaluation.

The IQFT RGB segmenter (and the K-means baseline with ``k > 2``) produce
multi-way label maps, while the paper's evaluation is binary
foreground/background mIOU.  The mapping from predicted segments to the two
evaluation classes is done by **majority overlap with the ground truth**
(:func:`binarize_by_overlap`) — each predicted segment is assigned to whichever
ground-truth class covers the larger share of its (non-void) pixels.  This is
the standard protocol for scoring unsupervised segmentations against binary
masks and is applied identically to every method, so the comparison stays fair.

An unsupervised alternative (:func:`binarize_largest_background`) is provided
for applications with no ground truth at all: the largest segment is declared
background and everything else foreground.
"""

from __future__ import annotations

from typing import Dict, Optional

import numpy as np

from ..errors import MetricError, ShapeError

__all__ = [
    "relabel_consecutive",
    "count_segments",
    "segment_sizes",
    "binarize_by_overlap",
    "binarize_largest_background",
]


def _check_label_map(labels: np.ndarray) -> np.ndarray:
    arr = np.asarray(labels)
    if arr.ndim != 2:
        raise ShapeError(f"label map must be 2-D, got shape {arr.shape}")
    if not np.issubdtype(arr.dtype, np.integer):
        if not np.all(np.equal(np.mod(arr, 1), 0)):
            raise ShapeError("label map must contain integers")
        arr = arr.astype(np.int64)
    return arr.astype(np.int64, copy=False)


def relabel_consecutive(labels: np.ndarray) -> np.ndarray:
    """Map the labels present in the map onto ``0..K-1`` preserving order."""
    arr = _check_label_map(labels)
    _, inverse = np.unique(arr, return_inverse=True)
    return inverse.reshape(arr.shape).astype(np.int64)


#: Labels below this bound are counted with ``np.bincount`` (one O(N) pass
#: over a table of at most this many slots); other maps sort via ``np.unique``.
_BINCOUNT_LABELS = 65536


def _bincount_size(arr: np.ndarray) -> int:
    """Bincount table size for a label map, or 0 when the map needs ``np.unique``."""
    if arr.size == 0:
        return 0
    low, high = int(arr.min()), int(arr.max())
    return high + 1 if low >= 0 and high < _BINCOUNT_LABELS else 0


def count_segments(labels: np.ndarray) -> int:
    """Number of distinct labels present in the map."""
    arr = _check_label_map(labels)
    if _bincount_size(arr):
        return int(np.count_nonzero(np.bincount(arr.ravel())))
    return int(np.unique(arr).size)


def segment_sizes(labels: np.ndarray) -> Dict[int, int]:
    """Mapping ``label -> pixel count`` for every label present."""
    arr = _check_label_map(labels)
    values, counts = np.unique(arr, return_counts=True)
    return {int(v): int(c) for v, c in zip(values, counts)}


def binarize_by_overlap(
    predicted: np.ndarray,
    ground_truth: np.ndarray,
    void_mask: Optional[np.ndarray] = None,
) -> np.ndarray:
    """Collapse a multi-way prediction to binary fg/bg by majority overlap.

    Parameters
    ----------
    predicted:
        ``(H, W)`` integer label map from any segmenter.
    ground_truth:
        ``(H, W)`` binary mask (0 = background, non-zero = foreground).
    void_mask:
        Optional boolean mask of pixels to ignore when computing overlaps
        (the VOC 'void' border band).  Void pixels still receive a label in
        the output (whatever their segment majority is), but they do not
        influence the segment-to-class assignment and are excluded again by
        the mIOU computation.

    Returns
    -------
    binary:
        ``(H, W)`` array of 0/1 labels.
    """
    pred = _check_label_map(predicted)
    gt = np.asarray(ground_truth)
    if gt.shape != pred.shape:
        raise MetricError(
            f"prediction shape {pred.shape} does not match ground truth {gt.shape}"
        )
    gt_binary = (gt != 0).astype(np.int64)
    valid = np.ones(pred.shape, dtype=bool)
    if void_mask is not None:
        void = np.asarray(void_mask, dtype=bool)
        if void.shape != pred.shape:
            raise MetricError("void mask shape does not match the prediction")
        valid &= ~void

    index = pred
    size = _bincount_size(pred)
    if not size:
        # Negative or very large labels: vote on their ranks instead.
        index = np.unique(pred, return_inverse=True)[1].reshape(pred.shape)
        size = int(index.max(initial=-1)) + 1
    # Votes per (segment, class) as one bincount over segment*2 + class:
    # column 0 counts background pixels, column 1 foreground.
    codes = index * 2 + gt_binary
    votes = np.bincount(codes[valid], minlength=2 * size).reshape(size, 2)
    void_only = votes.sum(axis=1) == 0
    if void_only.any():
        # A segment living entirely inside the void band: fall back to the
        # unscoped majority so the pixel still gets a sensible class.  Such a
        # segment's pixels are all void, so the void pixels alone give it.
        unscoped = np.bincount(codes[~valid], minlength=2 * size).reshape(size, 2)
        votes[void_only] = unscoped[void_only]
    decision = (votes[:, 1] > votes[:, 0]).astype(np.int64)
    return decision[index]


def binarize_largest_background(predicted: np.ndarray) -> np.ndarray:
    """Unsupervised binarization: the largest segment becomes background (0).

    Every other segment is marked foreground (1).  Useful when no ground truth
    exists; not used for the paper-comparison tables.
    """
    pred = _check_label_map(predicted)
    sizes = segment_sizes(pred)
    if not sizes:
        raise MetricError("empty label map")
    background_label = max(sizes, key=lambda k: sizes[k])
    return (pred != background_label).astype(np.int64)
