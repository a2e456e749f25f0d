"""Global configuration and deterministic random-number handling.

The library never touches :mod:`numpy.random`'s global state.  Every stochastic
component accepts either an integer seed or a :class:`numpy.random.Generator`;
:func:`as_generator` normalizes those into a ``Generator`` instance.

:class:`ReproConfig` collects the handful of knobs that affect numerical
behaviour globally (dtype used for complex arithmetic, chunk sizes for the
vectorized kernels, default number of workers).  A module-level default
instance is available through :func:`get_config`, and :func:`configure` updates
it in place.  The defaults are chosen so that a laptop-scale run of the full
benchmark suite completes in minutes.
"""

from __future__ import annotations

import dataclasses
import os
from typing import Optional, Union

import numpy as np

from .errors import ParameterError

__all__ = [
    "ReproConfig",
    "get_config",
    "configure",
    "as_generator",
    "SeedLike",
    "DEFAULT_CHUNK_PIXELS",
    "DEFAULT_COMPLEX_DTYPE",
    "DEFAULT_FLOAT_DTYPE",
]

#: Either ``None`` (fresh entropy), an ``int`` seed, or an existing Generator.
SeedLike = Union[None, int, np.random.Generator]

#: Number of pixels processed per chunk by the vectorized IQFT kernel.  The
#: working set per chunk is ``chunk * 8 * 16`` bytes (complex128), i.e. 512 KiB
#: for the default, which stays in L2 on commodity hardware.  Measured on a
#: 2-vCPU VM (94k palette rows / 512x512 matrix path): 2048 43-57 / 130-170 ms,
#: 4096 48-60 / 155-187 ms, 8192 49-60 / 162-188 ms, 65536 88-92 / 262 ms;
#: 4096 also keeps the separable palette kernel near its best.  A classifier
#: running on an accelerator backend never goes below that backend's
#: ``gather_min_pixels`` cost hint, since each chunk is a device round trip.
DEFAULT_CHUNK_PIXELS = 4096

#: Complex dtype used by the IQFT kernels.
DEFAULT_COMPLEX_DTYPE = np.complex128

#: Floating dtype used for intensities, probabilities and metrics.
DEFAULT_FLOAT_DTYPE = np.float64


@dataclasses.dataclass
class ReproConfig:
    """Library-wide configuration.

    Attributes
    ----------
    chunk_pixels:
        Maximum number of pixels handed to a single complex matmul in the
        vectorized segmentation kernels.  Larger values reduce Python overhead
        but increase peak memory; smaller values improve cache locality.
    complex_dtype:
        Complex dtype for phase vectors and IQFT matrices.
    float_dtype:
        Floating dtype for intensities and probabilities.
    default_workers:
        Default worker count for the process/thread executors.  ``None`` means
        "use ``os.cpu_count()``".
    strict:
        When True, numerical sanity checks (e.g. probability normalization)
        raise instead of warn.
    """

    chunk_pixels: int = DEFAULT_CHUNK_PIXELS
    complex_dtype: type = DEFAULT_COMPLEX_DTYPE
    float_dtype: type = DEFAULT_FLOAT_DTYPE
    default_workers: Optional[int] = None
    strict: bool = True

    def __post_init__(self) -> None:
        if self.chunk_pixels <= 0:
            raise ParameterError("chunk_pixels must be a positive integer")
        if self.default_workers is not None and self.default_workers <= 0:
            raise ParameterError("default_workers must be positive or None")

    def resolved_workers(self) -> int:
        """Return the effective worker count (never ``None`` or zero)."""
        if self.default_workers is not None:
            return int(self.default_workers)
        return max(1, os.cpu_count() or 1)


_CONFIG = ReproConfig()


def get_config() -> ReproConfig:
    """Return the process-wide configuration object (mutable, shared)."""
    return _CONFIG


def configure(**kwargs) -> ReproConfig:
    """Update fields of the global :class:`ReproConfig` and return it.

    Parameters
    ----------
    **kwargs:
        Any subset of the :class:`ReproConfig` fields.

    Raises
    ------
    ParameterError
        If an unknown field name is supplied or a value is invalid.
    """
    valid = {f.name for f in dataclasses.fields(ReproConfig)}
    for key, value in kwargs.items():
        if key not in valid:
            raise ParameterError(f"unknown configuration field: {key!r}")
        setattr(_CONFIG, key, value)
    # Re-run validation.
    ReproConfig.__post_init__(_CONFIG)
    return _CONFIG


def as_generator(seed: SeedLike = None) -> np.random.Generator:
    """Normalize ``seed`` into a :class:`numpy.random.Generator`.

    ``None`` creates a generator from OS entropy, an ``int`` seeds a new
    PCG64-based generator, and an existing ``Generator`` is returned as-is
    (so that callers can thread one generator through a pipeline).
    """
    if isinstance(seed, np.random.Generator):
        return seed
    if seed is None:
        return np.random.default_rng()
    if isinstance(seed, (int, np.integer)):
        return np.random.default_rng(int(seed))
    raise ParameterError(
        f"seed must be None, an int, or a numpy Generator; got {type(seed).__name__}"
    )
