"""Tests for the RGB channel-table cache in ``repro.core.lut``.

The palette path labels colours through three per-channel ``(256, 8)``
tables cached per ``(θ triple, normalize, max_value, dtype)``; the palette
itself is never cached, so any two images with equal parameters share one
entry whatever their colours.
"""

import numpy as np
import pytest

from repro.core.lut import (
    clear_lut_cache,
    lut_cache_info,
    pack_rgb_codes,
    rgb_palette_label_lut,
)
from repro.core.rgb_segmenter import IQFTSegmenter
from repro.errors import ParameterError


@pytest.fixture(autouse=True)
def _fresh_cache():
    clear_lut_cache()
    yield
    clear_lut_cache()


def _palette_image(rng, palette, shape=(16, 18)):
    """An image whose pixels are drawn from ``palette`` ((K, 3) uint8 rows)."""
    indices = rng.integers(0, len(palette), size=shape)
    return np.asarray(palette, dtype=np.uint8)[indices]


def test_identical_palettes_across_images_hit_the_cache(rng):
    palette = (rng.random((12, 3)) * 255).astype(np.uint8)
    first = _palette_image(rng, palette)
    second = _palette_image(rng, palette)  # different pixels, same colour set
    # make both images use the *full* palette so the distinct-colour sets match
    first[:12, 0] = palette
    second[:12, 0] = palette
    segmenter = IQFTSegmenter(thetas=np.pi)
    assert segmenter.labels_from_lut(first) is not None
    after_first = lut_cache_info().palette
    assert (after_first.misses, after_first.hits) == (1, 0)
    assert segmenter.labels_from_lut(second) is not None
    after_second = lut_cache_info().palette
    assert (after_second.misses, after_second.hits) == (1, 1)
    # the tables do not depend on the palette: a new colour set hits too
    other = _palette_image(rng, (rng.random((7, 3)) * 255).astype(np.uint8))
    assert IQFTSegmenter(thetas=np.pi).labels_from_lut(other) is not None
    after_other = lut_cache_info().palette
    assert (after_other.misses, after_other.hits) == (1, 2)


def test_cached_palette_labels_match_matrix_path(rng):
    image = (rng.random((14, 15, 3)) * 255).astype(np.uint8)
    segmenter = IQFTSegmenter(thetas=(np.pi, 2 * np.pi, np.pi / 2))
    # segment() always takes the matrix path — the LUT hook is engine-driven
    exact = segmenter.segment(image).labels
    for _ in range(2):  # cold (miss) then warm (hit): both must stay exact
        extras = {}
        fast = segmenter.labels_from_lut(image, extras=extras)
        assert fast is not None
        assert extras["palette_size"] == len(np.unique(image.reshape(-1, 3), axis=0))
        assert np.array_equal(fast, exact)
    assert lut_cache_info().palette.hits == 1


def test_cache_key_separates_thetas_normalize_and_dtype(rng):
    image = (rng.random((8, 9, 3)) * 255).astype(np.uint8)
    IQFTSegmenter(thetas=np.pi).labels_from_lut(image)
    IQFTSegmenter(thetas=2 * np.pi).labels_from_lut(image)
    IQFTSegmenter(thetas=np.pi, normalize=False).labels_from_lut(image)
    IQFTSegmenter(thetas=np.pi).labels_from_lut(image.astype(np.int32))
    info = lut_cache_info().palette
    assert info.misses == 4  # four distinct keys, no false sharing
    a = IQFTSegmenter(thetas=np.pi).labels_from_lut(image)
    b = IQFTSegmenter(thetas=np.pi, normalize=False).labels_from_lut(image)
    assert not np.array_equal(a, b)  # distinct entries really differ


def test_large_palettes_stay_exact():
    # more distinct colours than any one image of the benchmark sets: one
    # pixel per packed code, all labelled through one cached table entry
    codes = np.arange(70000, dtype=np.int64)
    rows = np.stack(
        ((codes >> 16) & 0xFF, (codes >> 8) & 0xFF, codes & 0xFF), axis=1
    ).astype(np.uint8)
    image = rows.reshape(-1, 1, 3)
    segmenter = IQFTSegmenter(thetas=np.pi)
    extras = {}
    labels = segmenter.labels_from_lut(image, extras=extras)
    assert labels is not None
    assert extras["palette_size"] == codes.size
    assert "palette_cached" not in extras
    assert lut_cache_info().palette.currsize == 1  # the tables, not the palette
    assert np.array_equal(labels, segmenter.segment(image).labels)


def test_rgb_palette_label_lut_direct_api(rng):
    image = (rng.random((10, 10, 3)) * 255).astype(np.uint8)
    palette = np.unique(pack_rgb_codes(image))
    lut = rgb_palette_label_lut(np.pi, palette)
    assert lut.shape == palette.shape
    assert not lut.flags.writeable
    # scalar theta and explicit triple agree
    triple = rgb_palette_label_lut((np.pi, np.pi, np.pi), palette)
    assert np.array_equal(lut, triple)


def test_rgb_palette_label_lut_validation():
    with pytest.raises(ParameterError):
        rgb_palette_label_lut(np.pi, np.array([], dtype=np.int64))
    with pytest.raises(ParameterError):
        rgb_palette_label_lut(np.pi, np.array([-1]))
    with pytest.raises(ParameterError):
        rgb_palette_label_lut(np.pi, np.array([1 << 24]))
    with pytest.raises(ParameterError):
        rgb_palette_label_lut((np.pi, np.pi), np.array([0]))
    with pytest.raises(ParameterError):
        rgb_palette_label_lut(np.pi, np.array([0]), max_value=0)


def test_clear_lut_cache_resets_palette_cache(rng):
    image = (rng.random((8, 8, 3)) * 255).astype(np.uint8)
    IQFTSegmenter(thetas=np.pi).labels_from_lut(image)
    assert lut_cache_info().palette.currsize == 1
    clear_lut_cache()
    assert lut_cache_info().palette.currsize == 0
    assert lut_cache_info().currsize == 0
