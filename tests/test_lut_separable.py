"""The separable palette kernel is exact: certified colours plus deferral.

The encoded state of equation (11) is a product state, so the IQFT class
probabilities factorise per qubit and a colour's label is the argmax of three
per-channel table lookups.  The kernel trusts that argmax only when the top
probability beats the runner-up by more than a margin; every other colour
goes through the exact classifier.  These tests pin the result to the matrix
path: over random colours and angles, on a colour the margin defers, past the
phase guard, and (property-marked) over every 8-bit colour at θ = π.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from repro import BatchSegmentationEngine, IQFTSegmenter
from repro.core.lut import (
    _palette_labels,
    clear_lut_cache,
    lut_eligible,
    pack_rgb_codes,
    rgb_palette_label_lut,
    unpack_rgb_codes,
)

_THETAS = st.one_of(
    st.sampled_from((np.pi, 4 * np.pi)),
    st.tuples(st.floats(0, 16), st.floats(0, 16), st.floats(0, 16)),
)


@pytest.fixture(autouse=True)
def _fresh_cache():
    clear_lut_cache()
    yield
    clear_lut_cache()


@given(
    codes=hnp.arrays(np.int64, st.integers(1, 64), elements=st.integers(0, (1 << 24) - 1)),
    thetas=_THETAS,
    normalize=st.booleans(),
    dtype=st.sampled_from((np.uint8, np.uint16)),
)
@settings(max_examples=80, deadline=None)
def test_separable_labels_equal_the_exact_classifier(codes, thetas, normalize, dtype):
    segmenter = IQFTSegmenter(thetas=thetas, normalize=normalize)
    image = unpack_rgb_codes(codes).astype(dtype).reshape(-1, 1, 3)
    fast = segmenter.labels_from_lut(image)
    if not lut_eligible(image, normalize=normalize):
        assert fast is None
        return
    assert fast is not None  # every phase here is inside the guard
    assert np.array_equal(fast, segmenter.segment(image).labels)


def test_a_tied_colour_is_deferred_to_the_exact_classifier():
    # At θ = π a colour with R = G = 0 gives classes 1 and 7 equal closed-form
    # probabilities: the margin cannot certify it, and the exact path (whose
    # rounding breaks the tie towards class 1) decides.
    image = np.array([[[0, 0, 162], [10, 200, 30]]], dtype=np.uint8)
    segmenter = IQFTSegmenter(thetas=np.pi)
    extras = {}
    fast = segmenter.labels_from_lut(image, extras=extras)
    assert extras["colours_deferred"] == 1
    assert extras["palette_size"] == 2
    assert np.array_equal(fast, segmenter.segment(image).labels)
    assert fast[0, 0] == 1


def test_a_deferred_colour_keeps_the_image_normalization():
    # uint16 divides by max_value whenever the image's maximum exceeds 1.  The
    # deferred colour (0, 0, 1) alone has maximum 1, so re-normalizing it on
    # its own would take the "already normalized" branch and a phase 255x
    # too large; its phases must come from the image-level ramp instead.
    image = np.array([[[0, 0, 1], [200, 100, 50]]], dtype=np.uint16)
    segmenter = IQFTSegmenter(thetas=200 * np.pi)
    extras = {}
    fast = segmenter.labels_from_lut(image, extras=extras)
    assert extras["colours_deferred"] == 1
    assert np.array_equal(fast, segmenter.segment(image).labels)


def test_palette_api_labels_float_storage_like_the_matrix_path(rng):
    image = rng.integers(0, 256, size=(6, 7, 3)).astype(np.float64)
    image[0, 0] = 255.0  # the float image's maximum exceeds 1: divide by max_value
    palette, inverse = np.unique(pack_rgb_codes(image), return_inverse=True)
    labels = rgb_palette_label_lut((1.0, 2.5, 4.0), palette, dtype=np.float64)
    exact = IQFTSegmenter(thetas=(1.0, 2.5, 4.0)).segment(image).labels
    assert np.array_equal(labels[inverse].reshape(exact.shape), exact)


@pytest.mark.parametrize("thetas, normalize", [(5000.0, True), (20.0, False)])
def test_phases_past_the_guard_take_the_matrix_path(rng, thetas, normalize):
    image = (rng.random((9, 11, 3)) * 255).astype(np.uint8)
    segmenter = IQFTSegmenter(thetas=thetas, normalize=normalize)
    assert segmenter.labels_from_lut(image) is None
    exact = segmenter.segment(image).labels
    result = BatchSegmentationEngine(segmenter).segment(image)
    assert result.extras["fast_path"] == "direct"
    assert np.array_equal(result.labels, exact)
    # the standalone palette API still answers, through the exact classifier
    codes = pack_rgb_codes(image)
    palette, inverse = np.unique(codes, return_inverse=True)
    labels = rgb_palette_label_lut(thetas, palette, normalize=normalize)
    assert np.array_equal(labels[inverse].reshape(exact.shape), exact)


@pytest.mark.property
def test_every_uint8_colour_matches_the_matrix_path_at_pi():
    segmenter = IQFTSegmenter(thetas=np.pi)
    slab = 1 << 20
    deferred = 0
    for start in range(0, 1 << 24, slab):
        codes = np.arange(start, start + slab, dtype=np.int64)
        labels, slab_deferred = _palette_labels(segmenter, codes, np.uint8)
        image = unpack_rgb_codes(codes).astype(np.uint8).reshape(-1, 1, 3)
        assert np.array_equal(labels, segmenter.segment(image).labels.reshape(-1))
        deferred += slab_deferred
    # ties (R = G = 0 and the like) are deferred, and they stay rare
    assert 0 < deferred < (1 << 24) // 100
