"""The :class:`ArrayBackend` contract: compute kernels the engine dispatches to.

The segmentation engine's hot paths reduce to three array kernels — an
integer table gather (the LUT fast path), an integer dedup (the RGB palette
path), and the complex phase/IQFT matrix product (the exact classifier).  A
backend is an object that implements those kernels on some substrate (NumPy
on the host, a CUDA device through CuPy, any device torch can drive) behind
one uniform, host-array-in / host-array-out signature, so the engine, the
serving stack and the caches never see device arrays.

Exactness contract
------------------
Every backend MUST satisfy, and the parity suite
(``tests/test_backend_parity.py``) enforces:

* **Integer kernels are bit-exact.**  :meth:`ArrayBackend.gather` and
  :meth:`ArrayBackend.unique_inverse` operate on integer arrays and must
  return results bit-identical to the NumPy reference — same values, same
  dtype, same ordering (``unique_inverse`` returns the unique values in
  ascending order, like :func:`numpy.unique`).  There is no tolerance: the
  LUT fast path's promise is "bit-identical to the matrix path", and that
  promise must hold on every backend.
* **Float kernels are tolerance-exact.**  :meth:`ArrayBackend.phase_amplitudes`
  may reassociate sums and fuse multiplies, so its output is only required
  to match the reference within :attr:`ArrayBackend.float_rtol` /
  :attr:`ArrayBackend.float_atol` (documented per backend, asserted by the
  parity suite).  Backends whose float kernels are bit-identical to the
  reference (the NumPy backend itself) set :attr:`bit_exact_float` so the
  engine-config digest can treat them as result-invariant.

Because integer kernels are bit-exact everywhere, switching backends never
changes the labels produced by the LUT fast paths — which is why the serving
caches deliberately exclude the backend name from the engine-config digest
(warm caches survive a backend switch, and mixed-backend fleets share one
cache).  Float compute is only routed through a non-reference backend when
the engine is explicitly configured for it (``float_compute="backend"``),
and in that case the digest *does* incorporate the backend identity.

Writing a backend
-----------------
Subclass :class:`ArrayBackend`, implement the three kernels plus
:meth:`is_available`, and register a factory with
:func:`repro.backend.register_backend`.  Keep imports of the optional
dependency inside the class or factory so the registry can *list* the
backend without importing it.  Device placement, streams and memory pools
are internal to the backend; the contract is purely functional.
"""

from __future__ import annotations

import abc
from typing import Any, Dict, Tuple

import numpy as np

__all__ = ["ArrayBackend"]


class ArrayBackend(abc.ABC):
    """Abstract compute backend for the segmentation engine's array kernels.

    Kernels accept and return **host** :class:`numpy.ndarray` objects; any
    transfer to and from a device is the backend's internal business.  This
    keeps the contract trivially composable with the rest of the system —
    caches digest host bytes, HTTP responses serialize host arrays — at the
    cost of one transfer per kernel call, which the chunked call sites
    amortize over large blocks.
    """

    #: Registry name (``"numpy"``, ``"torch"``, ``"cupy"``, ...).
    name: str = "abstract"

    #: True when the float kernels are bit-identical to the NumPy reference
    #: (then the backend can never change any result and is invisible to the
    #: engine-config digest even for float compute).
    bit_exact_float: bool = False

    #: Documented parity tolerances for :meth:`phase_amplitudes` against the
    #: NumPy reference; the parity suite asserts them.
    float_rtol: float = 1e-9
    float_atol: float = 1e-12

    # ------------------------------------------------------------------ #
    # availability / identity
    # ------------------------------------------------------------------ #
    @classmethod
    @abc.abstractmethod
    def is_available(cls) -> bool:
        """True when the backend's substrate can actually run here.

        Must be cheap and must never raise: a missing optional dependency or
        an absent device returns ``False`` (skip-not-fail).
        """

    def describe(self) -> Dict[str, Any]:
        """JSON-friendly identity: name, device, substrate version."""
        return {"name": self.name, "device": "cpu", "bit_exact_float": self.bit_exact_float}

    # ------------------------------------------------------------------ #
    # kernels
    # ------------------------------------------------------------------ #
    @abc.abstractmethod
    def gather(self, table: np.ndarray, indices: np.ndarray) -> np.ndarray:
        """Integer LUT apply: ``table[indices]`` (bit-exact contract).

        ``table`` is a 1-D (or 2-D, for probability tables) array;
        ``indices`` is any integer array whose values index ``table``'s
        first axis.  The result has ``indices``' shape (plus ``table``'s
        trailing axes) and ``table``'s dtype, bit-identical to NumPy fancy
        indexing.
        """

    @abc.abstractmethod
    def unique_inverse(self, codes: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
        """Integer dedup: ``(unique_sorted, inverse)`` (bit-exact contract).

        Equivalent to ``np.unique(codes, return_inverse=True)`` for a 1-D
        integer array: unique values ascending, ``unique[inverse]`` rebuilds
        ``codes`` exactly, ``inverse`` is 1-D of the same length.
        """

    @abc.abstractmethod
    def phase_amplitudes(
        self, phases: np.ndarray, bits: np.ndarray, matrix: np.ndarray
    ) -> np.ndarray:
        """The classifier's float kernel (tolerance contract).

        Computes ``exp(1j · phases @ bits.T) @ matrix / matrix.shape[0]`` —
        the equation-(11) amplitudes for one chunk: ``phases`` is ``(N, n)``
        float64, ``bits`` the ``(2^n, n)`` basis bit matrix, ``matrix`` the
        ``(2^n, 2^n)`` symmetric IQFT classification matrix.  Returns an
        ``(N, 2^n)`` complex128 host array matching the NumPy reference
        within :attr:`float_rtol` / :attr:`float_atol`.
        """

    # ------------------------------------------------------------------ #
    # strategy hints
    # ------------------------------------------------------------------ #
    def cost_hints(self) -> Dict[str, float]:
        """Relative-cost hints for the engine's strategy picker.

        Keys (all optional — absent means the NumPy default):

        ``gather_min_pixels``
            Smallest image (in pixels) for which the device gather beats the
            host gather once transfers are counted.  Below it the engine
            applies LUTs with plain NumPy even when this backend is active,
            so tiny images never pay a device round-trip; the classifier
            also never hands this backend a smaller float-kernel chunk.
        ``tile_pixels_scale``
            Multiplier on the engine's auto-tiling threshold.  Accelerators
            amortize launch overhead over big batches, so they prefer larger
            untiled images (scale > 1).
        """
        return {"gather_min_pixels": 0.0, "tile_pixels_scale": 1.0}

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"{type(self).__name__}(name={self.name!r})"
