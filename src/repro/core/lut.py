"""Value-level lookup tables: the analytical fast path of the batch engine.

Equation (15) of the paper shows that the grayscale classifier is a pure
function of the *intensity value*: the label only depends on the sign pattern
of ``cos(I·θ)``, so two pixels with equal raw value always receive equal
labels.  For 8-bit storage there are at most 256 distinct values per channel,
which means an entire image can be labelled by (1) evaluating the exact
classifier once per distinct value and (2) fancy-indexing the resulting table
with the raw image.  Because step (1) runs the *same* code path as the exact
segmenter (same normalization, same phase encoding, same chunked matmul, same
argmax tie-breaking), the fast path is bit-identical to the matrix path — the
property tests in ``tests/test_engine_lut_property.py`` assert exactly that.

RGB images are labelled per distinct colour, and the colours go through a
closed form rather than the matmul.  The encoded state of equation (11) is a
product state, ``F = ⊗_q (1, e^{iφ_q})``, so its IQFT probabilities factorise
per qubit::

    P_j = Π_q cos²(φ_q/2 − π·j·2^{n−1−q}/2^n)

Each factor depends on one channel's raw value, so three read-only
``(256, 8)`` tables per ``(θ triple, normalize, max_value, dtype)`` give any
colour's eight probabilities as three gathers and two multiplies.  The table
phases come from the segmenter's own normalization and phase encoding on a
0..255 ramp in the image's raw dtype, so they are bit-equal to the matrix
path's.  The closed form and the matmul round differently (by ~1e-15), so a
closed-form argmax is only trusted when it is *certified*: its probability
beats the runner-up by more than 1e-9.  Every other colour (true ties, such
as ``R = G = 0`` at θ = π) is deferred to the exact classifier, which keeps
the labels bit-identical; over all 2²⁴ 8-bit colours at θ = π, 22,974 are
deferred.  Tables whose phases exceed 4096 rad are declined and the matrix
path runs.

This module owns the table construction and its LRU caches; the segmenters
expose the fast path through their ``labels_from_lut`` hooks and
:class:`repro.engine.BatchSegmentationEngine` decides when to take it.
"""

from __future__ import annotations

import functools
from typing import NamedTuple, Optional, Sequence, Tuple, Union

import numpy as np

from ..backend.base import ArrayBackend
from ..config import get_config
from ..errors import ParameterError

__all__ = [
    "DEFAULT_NUM_LEVELS",
    "grayscale_label_lut",
    "grayscale_probability_lut",
    "rgb_palette_label_lut",
    "lut_eligible",
    "apply_lut",
    "unique_codes",
    "pack_rgb_codes",
    "unpack_rgb_codes",
    "lut_cache_info",
    "clear_lut_cache",
    "LutCacheInfo",
]

#: Number of distinct raw values covered by a default lookup table (8-bit).
DEFAULT_NUM_LEVELS = 256


# --------------------------------------------------------------------------- #
# Eligibility
# --------------------------------------------------------------------------- #
def lut_eligible(
    image: np.ndarray, num_levels: int = DEFAULT_NUM_LEVELS, normalize: bool = True
) -> bool:
    """True when ``image`` can be labelled through a value lookup table.

    Eligible inputs are integer-typed arrays whose values lie in
    ``[0, num_levels)``.  Float images fall back to the exact classifier (the
    continuum of values defeats a table).  One subtlety: with ``normalize``
    enabled, :func:`repro.core.phase_encoding.normalize_pixels` treats a
    non-``uint8`` array whose maximum is ≤ 1 as *already normalized*, a branch
    the value table (built from the full ``0..num_levels-1`` ramp) cannot
    reproduce — such degenerate images are declared ineligible and take the
    exact path instead.
    """
    arr = np.asarray(image)
    if arr.size == 0:
        return False
    if arr.dtype == np.uint8:
        return num_levels >= 256
    if not np.issubdtype(arr.dtype, np.integer):
        return False
    vmin = int(arr.min())
    vmax = int(arr.max())
    if vmin < 0 or vmax >= num_levels:
        return False
    if normalize and vmax <= 1:
        return False
    return True


# --------------------------------------------------------------------------- #
# Backend dispatch (table *apply*; table *construction* stays on the exact CPU
# reference path regardless of backend, since it runs the exact classifier)
# --------------------------------------------------------------------------- #
def _dispatchable(backend: Optional[ArrayBackend], npixels: int) -> bool:
    """True when the gather is worth routing to ``backend``'s substrate.

    The reference backend is never "dispatched to" — its gather *is* plain
    fancy indexing, and skipping the indirection keeps the default path's
    cost byte-for-byte what it was before backends existed.  Accelerators
    additionally set a ``gather_min_pixels`` cost hint: below it, transfer
    overhead dwarfs the gather and the host does it faster.
    """
    if backend is None or backend.name == "numpy":
        return False
    return npixels >= backend.cost_hints().get("gather_min_pixels", 0.0)


def apply_lut(
    table: np.ndarray, indices: np.ndarray, backend: Optional[ArrayBackend] = None
) -> np.ndarray:
    """Apply a value table to an integer image, optionally on a backend.

    Bit-exact on every backend (the integer-gather contract of
    :class:`~repro.backend.base.ArrayBackend`); ``backend=None`` — or any
    image below the backend's ``gather_min_pixels`` cost hint — gathers on
    the host.
    """
    arr = np.asarray(indices)
    if _dispatchable(backend, arr.size):
        return backend.gather(table, arr)
    return table[arr]


def unique_codes(
    codes: np.ndarray, backend: Optional[ArrayBackend] = None
) -> Tuple[np.ndarray, np.ndarray]:
    """``(sorted unique, inverse)`` of packed colour codes, optionally on a backend.

    The RGB palette path's dedup — the sort over one int64 code per pixel —
    is its memory-bound half; the same dispatch rule as :func:`apply_lut`
    applies, and the result is bit-exact everywhere.
    """
    arr = np.asarray(codes)
    if _dispatchable(backend, arr.size):
        return backend.unique_inverse(arr)
    unique, inverse = np.unique(arr, return_inverse=True)
    return unique, np.asarray(inverse).reshape(-1)


# --------------------------------------------------------------------------- #
# Grayscale tables (256 entries per (θ, normalize, max_value, multiband) key)
# --------------------------------------------------------------------------- #
@functools.lru_cache(maxsize=64)
def _grayscale_tables(
    theta: float,
    normalize: bool,
    max_value: float,
    multiband: bool,
    num_levels: int,
    uint8_values: bool,
) -> Tuple[np.ndarray, np.ndarray]:
    # Local import: the grayscale segmenter imports this module for its hook.
    from .grayscale_segmenter import IQFTGrayscaleSegmenter

    segmenter = IQFTGrayscaleSegmenter(
        theta=theta, normalize=normalize, max_value=max_value, multiband=multiband
    )
    # The value ramp is fed through the segmenter's own code path (as an
    # (num_levels, 1) image) so every per-value float operation — division,
    # phase encoding, matmul, argmax — is the one the exact path performs.
    values = np.arange(num_levels, dtype=np.int64).reshape(-1, 1)
    if uint8_values:
        values = values.astype(np.uint8)
    labels = segmenter._segment(values).reshape(-1).astype(np.int64)
    probs = segmenter.pixel_probabilities(values).reshape(num_levels, 2)
    labels.flags.writeable = False
    probs.flags.writeable = False
    return labels, probs


def _validated_key(theta, max_value, num_levels):
    if theta <= 0:
        raise ParameterError("theta must be positive")
    if max_value <= 0:
        raise ParameterError("max_value must be positive")
    if num_levels < 2:
        raise ParameterError("num_levels must be >= 2")
    return float(theta), float(max_value), int(num_levels)


def grayscale_label_lut(
    theta: float,
    normalize: bool = True,
    max_value: float = 255.0,
    multiband: bool = False,
    num_levels: int = DEFAULT_NUM_LEVELS,
    uint8_values: bool = True,
) -> np.ndarray:
    """The ``(num_levels,)`` value → label table for the grayscale segmenter.

    ``uint8_values`` selects which raw storage the table models: ``uint8``
    input is always divided by 255 by the normalization, while wider integer
    input is divided by ``max_value`` — the two tables differ whenever
    ``max_value != 255``.  Tables are cached (LRU, shared process-wide) and
    returned as read-only views.
    """
    theta, max_value, num_levels = _validated_key(theta, max_value, num_levels)
    labels, _ = _grayscale_tables(
        theta, bool(normalize), max_value, bool(multiband), num_levels, bool(uint8_values)
    )
    return labels


def grayscale_probability_lut(
    theta: float,
    normalize: bool = True,
    max_value: float = 255.0,
    num_levels: int = DEFAULT_NUM_LEVELS,
    uint8_values: bool = True,
) -> np.ndarray:
    """The ``(num_levels, 2)`` value → class-probability table (equation (14))."""
    theta, max_value, num_levels = _validated_key(theta, max_value, num_levels)
    _, probs = _grayscale_tables(
        theta, bool(normalize), max_value, False, num_levels, bool(uint8_values)
    )
    return probs


# --------------------------------------------------------------------------- #
# RGB channel tables: the separable closed form of the 3-qubit rule
# --------------------------------------------------------------------------- #
ThetaTriple = Union[float, Sequence[float]]

#: Largest table phase (radians, in magnitude) the separable kernel accepts.
#: Past it the rounding of the phases themselves creeps towards the
#: certificate's margin, so the tables are declined and the matrix path runs.
_MAX_TABLE_PHASE = 4096.0

#: A colour's closed-form label is certified when its largest class
#: probability beats the runner-up by more than this.  Inside the phase guard
#: the closed form and the exact matmul each sit within ~1e-11 of the true
#: probabilities, so a certified argmax is the exact path's argmax.
_CERTIFICATE_MARGIN = 1e-9


@functools.lru_cache(maxsize=32)
def _rgb_channel_tables(
    thetas: Tuple[float, float, float],
    normalize: bool,
    max_value: float,
    dtype_str: str,
) -> Tuple[np.ndarray, Optional[Tuple[np.ndarray, np.ndarray, np.ndarray]]]:
    # Local import: the RGB segmenter imports this module for its hook.
    from .rgb_segmenter import IQFTSegmenter

    segmenter = IQFTSegmenter(thetas=thetas, normalize=normalize, max_value=max_value)
    dtype = np.dtype(dtype_str)
    # A 0..255 ramp in all three channels, in the image's raw dtype, goes
    # through the segmenter's own normalization and phase encoding, so every
    # ramp phase is bit-equal to the one the matrix path computes for that
    # raw value.  Levels the dtype cannot hold (int8 past 127) repeat its
    # maximum; no image of that dtype indexes those rows.
    top = DEFAULT_NUM_LEVELS - 1
    if np.issubdtype(dtype, np.integer):
        top = min(top, int(np.iinfo(dtype).max))
    ramp = np.minimum(np.arange(DEFAULT_NUM_LEVELS), top).astype(dtype)
    phases = segmenter._phases(np.repeat(ramp, 3).reshape(-1, 1, 3)).reshape(-1, 3)
    phases.flags.writeable = False
    if float(np.abs(phases).max()) > _MAX_TABLE_PHASE:
        return phases, None
    num_qubits = phases.shape[1]
    dim = 2**num_qubits
    classes = np.arange(dim)
    tables = []
    for qubit in range(num_qubits):
        shift = np.pi * classes * 2 ** (num_qubits - 1 - qubit) / dim
        # Column-major: each class's 256 factors are contiguous for the gather.
        table = np.asfortranarray(np.cos(phases[:, qubit, None] / 2 - shift) ** 2)
        table.flags.writeable = False
        tables.append(table)
    # Phases run most significant qubit first, (α, β, γ) = (B, G, R); packed
    # codes run (R, G, B).
    return phases, (tables[2], tables[1], tables[0])


def _channel_tables(segmenter, dtype: Union[str, np.dtype, type]):
    """``(ramp phases, channel tables or None)`` for a segmenter and raw dtype."""
    return _rgb_channel_tables(
        segmenter.thetas, segmenter.normalize, segmenter.max_value, str(np.dtype(dtype))
    )


def _colour_phases(ramp_phases: np.ndarray, codes: np.ndarray) -> np.ndarray:
    """The ``(U, 3)`` phases of packed colours, gathered from the ramp's.

    Each entry is the matrix path's phase for that channel value, bit for
    bit, with the image's normalization branch rather than one re-decided
    from the gathered subset.
    """
    return np.stack(
        (
            ramp_phases[codes & 0xFF, 0],
            ramp_phases[(codes >> 8) & 0xFF, 1],
            ramp_phases[codes >> 16, 2],
        ),
        axis=1,
    )


def _separable_labels(
    tables: Tuple[np.ndarray, np.ndarray, np.ndarray], codes: np.ndarray, chunk: int
) -> Tuple[np.ndarray, np.ndarray]:
    """Closed-form argmax per packed colour, and whether the margin certifies it."""
    red, green, blue = tables
    labels = np.zeros(codes.size, dtype=np.int64)
    certified = np.empty(codes.size, dtype=bool)
    for start in range(0, codes.size, chunk):
        block = codes[start : start + chunk]
        r, g, b = block >> 16, (block >> 8) & 0xFF, block & 0xFF

        def probability(j: int) -> np.ndarray:
            p = red[:, j].take(r)
            p *= green[:, j].take(g)
            p *= blue[:, j].take(b)
            return p

        label = labels[start : start + chunk]
        best = probability(0)
        runner_up = np.zeros_like(best)
        for j in range(1, red.shape[1]):
            p = probability(j)
            np.maximum(runner_up, np.minimum(best, p), out=runner_up)
            # Strict: a tie keeps the smaller index, as numpy.argmax does.
            np.copyto(label, j, where=p > best)
            np.maximum(best, p, out=best)
        best -= runner_up
        np.greater(best, _CERTIFICATE_MARGIN, out=certified[start : start + chunk])
    return labels, certified


def _palette_labels(
    segmenter, palette: np.ndarray, dtype: Union[str, np.dtype, type]
) -> Optional[Tuple[np.ndarray, int]]:
    """Exact labels of packed colours for an :class:`~repro.core.IQFTSegmenter`.

    Returns ``(labels, colours_deferred)``: every colour costs three table
    gathers, two multiplies and an argmax, and the few colours whose top two
    probabilities lie within the certificate's margin go through the
    segmenter's exact classifier on their ramp-gathered phases.  ``dtype`` is
    the raw storage dtype of the source image.  Returns ``None`` when a table
    phase exceeds the guard (the caller runs the matrix path instead).
    """
    ramp_phases, tables = _channel_tables(segmenter, dtype)
    if tables is None:
        return None
    codes = np.asarray(palette, dtype=np.int64).reshape(-1)
    labels, certified = _separable_labels(tables, codes, get_config().chunk_pixels)
    deferred = np.flatnonzero(~certified)
    if deferred.size:
        labels[deferred] = segmenter._classifier.classify(
            _colour_phases(ramp_phases, codes[deferred])
        )
    return labels, int(deferred.size)


def rgb_palette_label_lut(
    thetas: ThetaTriple,
    palette: np.ndarray,
    normalize: bool = True,
    max_value: float = 255.0,
    dtype: Union[str, np.dtype, type] = np.uint8,
) -> np.ndarray:
    """Exact labels for a palette of packed 24-bit colour codes.

    ``palette`` is a 1-D array of :func:`pack_rgb_codes` codes (the distinct
    colours of an image, in any order).  ``dtype`` must be the raw storage
    dtype of the source image: it selects the normalization branch (uint8
    always divides by 255, any other dtype by ``max_value``), whatever the
    palette's own maximum.  The labels come from the separable kernel (the
    channel tables are cached, the palette is not), or from the exact
    classifier over every colour when the phase guard declines the tables.
    The result is read-only.
    """
    from .rgb_segmenter import IQFTSegmenter

    # The segmenter validates θ and max_value exactly as the matrix path does.
    segmenter = IQFTSegmenter(thetas=thetas, normalize=normalize, max_value=max_value)
    codes = np.asarray(palette, dtype=np.int64).reshape(-1)
    if codes.size == 0:
        raise ParameterError("palette must contain at least one colour code")
    if int(codes.min()) < 0 or int(codes.max()) >= (1 << 24):
        raise ParameterError("palette codes must be packed 24-bit values")
    found = _palette_labels(segmenter, codes, dtype)
    if found is None:
        ramp_phases, _ = _channel_tables(segmenter, dtype)
        labels = segmenter._classifier.classify(_colour_phases(ramp_phases, codes))
    else:
        labels = found[0]
    labels.flags.writeable = False
    return labels


class LutCacheInfo(NamedTuple):
    """Aggregate cache statistics across the value and channel table caches.

    The first four fields mirror :class:`functools` ``CacheInfo`` (summed over
    both caches) so existing callers keep working; ``grayscale`` carries the
    ``CacheInfo`` of the value tables and ``palette`` that of the RGB channel
    tables (one entry per θ triple, normalization, ``max_value`` and dtype).
    """

    hits: int
    misses: int
    maxsize: int
    currsize: int
    grayscale: object
    palette: object


def lut_cache_info() -> LutCacheInfo:
    """Hit/miss statistics of the shared table caches (value + channel)."""
    gray = _grayscale_tables.cache_info()
    pal = _rgb_channel_tables.cache_info()
    return LutCacheInfo(
        hits=gray.hits + pal.hits,
        misses=gray.misses + pal.misses,
        maxsize=(gray.maxsize or 0) + (pal.maxsize or 0),
        currsize=gray.currsize + pal.currsize,
        grayscale=gray,
        palette=pal,
    )


def clear_lut_cache() -> None:
    """Drop every cached lookup table (used by tests and benchmarks)."""
    _grayscale_tables.cache_clear()
    _rgb_channel_tables.cache_clear()


# --------------------------------------------------------------------------- #
# RGB palette codes (the 3-channel analogue: dedupe on 24-bit colour codes)
# --------------------------------------------------------------------------- #
def pack_rgb_codes(image: np.ndarray) -> np.ndarray:
    """Pack an integer ``(H, W, 3)`` image into flat 24-bit colour codes."""
    arr = np.asarray(image)
    if arr.ndim != 3 or arr.shape[2] != 3:
        raise ParameterError(f"expected an (H, W, 3) image, got shape {arr.shape}")
    flat = arr.reshape(-1, 3).astype(np.int64)
    return (flat[:, 0] << 16) | (flat[:, 1] << 8) | flat[:, 2]


def unpack_rgb_codes(codes: np.ndarray) -> np.ndarray:
    """Invert :func:`pack_rgb_codes`: ``(U,)`` codes → ``(U, 3)`` channel values."""
    codes = np.asarray(codes, dtype=np.int64).reshape(-1)
    return np.stack(((codes >> 16) & 0xFF, (codes >> 8) & 0xFF, codes & 0xFF), axis=1)
