"""Unit tests for label-map utilities and evaluation binarization."""

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from repro.core.labels import (
    binarize_by_overlap,
    binarize_largest_background,
    count_segments,
    relabel_consecutive,
    segment_sizes,
)
from repro.errors import MetricError, ShapeError


def test_relabel_consecutive_preserves_partition():
    labels = np.array([[5, 5, 9], [9, 2, 2]])
    out = relabel_consecutive(labels)
    assert set(np.unique(out)) == {0, 1, 2}
    # Same-label pixels stay together, different-label pixels stay apart.
    assert out[0, 0] == out[0, 1]
    assert out[0, 2] == out[1, 0]
    assert out[1, 1] == out[1, 2]
    assert len({out[0, 0], out[0, 2], out[1, 1]}) == 3


def test_count_segments_and_sizes():
    labels = np.array([[0, 0, 1], [1, 1, 3]])
    assert count_segments(labels) == 3
    assert segment_sizes(labels) == {0: 2, 1: 3, 3: 1}


def test_label_map_must_be_2d_integers():
    with pytest.raises(ShapeError):
        count_segments(np.zeros(5))
    with pytest.raises(ShapeError):
        count_segments(np.array([[0.5, 1.2]]))


def test_binarize_by_overlap_majority_assignment():
    predicted = np.array([[0, 0, 1, 1], [0, 0, 1, 1]])
    gt = np.array([[0, 0, 1, 1], [0, 0, 1, 0]])
    # Segment 1 overlaps foreground in 3 of 4 pixels -> foreground.
    binary = binarize_by_overlap(predicted, gt)
    assert np.array_equal(binary, np.array([[0, 0, 1, 1], [0, 0, 1, 1]]))


def test_binarize_by_overlap_multiway_prediction():
    predicted = np.array([[0, 1, 2], [0, 1, 2]])
    gt = np.array([[0, 1, 1], [0, 1, 1]])
    binary = binarize_by_overlap(predicted, gt)
    assert np.array_equal(binary, gt)


def test_binarize_by_overlap_respects_void_mask():
    predicted = np.array([[0, 0, 1], [0, 0, 1]])
    gt = np.array([[0, 1, 1], [0, 1, 1]])
    # Without the void mask, segment 0 is half foreground -> ties go background.
    void = np.array([[False, True, False], [False, True, False]])
    binary = binarize_by_overlap(predicted, gt, void_mask=void)
    assert np.array_equal(binary[:, 0], [0, 0])
    assert np.array_equal(binary[:, 2], [1, 1])


def test_binarize_by_overlap_segment_entirely_in_void():
    predicted = np.array([[0, 1], [0, 1]])
    gt = np.array([[0, 1], [0, 1]])
    void = np.array([[False, True], [False, True]])
    binary = binarize_by_overlap(predicted, gt, void_mask=void)
    # Segment 1 only exists inside the void band; it falls back to its
    # unscoped majority (foreground here).
    assert np.array_equal(binary, gt)


def test_binarize_by_overlap_shape_mismatch():
    with pytest.raises(MetricError):
        binarize_by_overlap(np.zeros((2, 2), dtype=int), np.zeros((3, 3), dtype=int))
    with pytest.raises(MetricError):
        binarize_by_overlap(
            np.zeros((2, 2), dtype=int),
            np.zeros((2, 2), dtype=int),
            void_mask=np.zeros((3, 3), dtype=bool),
        )


def test_binarize_largest_background():
    predicted = np.array([[0, 0, 0, 1], [0, 0, 2, 1]])
    binary = binarize_largest_background(predicted)
    assert np.array_equal(binary, np.array([[0, 0, 0, 1], [0, 0, 1, 1]]))


def test_binarize_by_overlap_perfect_prediction_is_identity(rng):
    gt = (rng.random((10, 10)) > 0.6).astype(np.int64)
    assert np.array_equal(binarize_by_overlap(gt, gt), gt)


def _binarize_reference(pred, gt, void):
    """The per-label loop the bincount route must reproduce."""
    valid = np.ones(pred.shape, dtype=bool) if void is None else ~void
    out = np.zeros_like(pred)
    for label in np.unique(pred):
        segment = pred == label
        scoped = segment & valid
        if not scoped.any():
            scoped = segment
        foreground = int((gt[scoped] != 0).sum())
        out[segment] = 1 if foreground > int(scoped.sum()) - foreground else 0
    return out


@st.composite
def _scored_maps(draw):
    shape = draw(st.tuples(st.integers(1, 12), st.integers(1, 12)))
    low = draw(st.sampled_from((0, -3)))  # negative labels vote on their ranks
    pred = draw(hnp.arrays(np.int64, shape, elements=st.integers(low, 6)))
    pred = pred << draw(st.sampled_from((0, 20)))  # so do very large ones
    gt = draw(hnp.arrays(np.uint8, shape, elements=st.integers(0, 1)))
    void = draw(st.none() | hnp.arrays(np.bool_, shape))
    return pred, gt, void


@given(maps=_scored_maps())
@example(  # segment 2 lives entirely in the void band
    maps=(
        np.array([[1, 1, 2], [1, 1, 2]]),
        np.array([[0, 1, 1], [1, 1, 1]], dtype=np.uint8),
        np.array([[False, False, True], [False, False, True]]),
    )
)
@example(  # a 2-2 vote tie goes to background
    maps=(np.array([[4, 4], [4, 4]]), np.array([[1, 0], [0, 1]], dtype=np.uint8), None)
)
@example(maps=(np.full((3, 5), 3), np.ones((3, 5), dtype=np.uint8), None))  # one label
@settings(max_examples=150, deadline=None)
def test_binarize_by_overlap_equals_the_per_label_loop(maps):
    pred, gt, void = maps
    out = binarize_by_overlap(pred, gt, void)
    assert out.dtype == np.int64
    assert np.array_equal(out, _binarize_reference(pred, gt, void))


def test_count_segments_handles_negative_and_large_labels():
    assert count_segments(np.array([[-2, 0], [0, 7]])) == 3
    assert count_segments(np.array([[0, 1 << 20], [1 << 20, 5]])) == 3
    assert count_segments(np.zeros((4, 4), dtype=np.int64)) == 1
