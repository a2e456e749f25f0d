"""Unit tests for the generic IQFT phase-pattern classifier."""

import numpy as np
import pytest

from repro.core.classifier import IQFTClassifier
from repro.core.phase_encoding import phase_vector
from repro.errors import ParameterError, ShapeError
from repro.quantum.encoding import phase_product_state
from repro.quantum.qft import iqft_matrix


def test_probabilities_sum_to_one(rng):
    clf = IQFTClassifier(3)
    phases = rng.uniform(0, 2 * np.pi, size=(50, 3))
    probs = clf.probabilities(phases)
    assert probs.shape == (50, 8)
    assert np.allclose(probs.sum(axis=1), 1.0)
    assert np.all(probs >= 0)


def test_zero_phases_classify_to_all_ones_pattern():
    clf = IQFTClassifier(3)
    probs = clf.probabilities(np.zeros(3))
    # With all phases 0 the input is exactly the |000⟩ IQFT pattern.
    assert np.isclose(probs[0], 1.0)
    assert clf.classify(np.zeros((1, 3)))[0] == 0


def test_basis_patterns_classify_to_themselves():
    """Feeding the phases of basis pattern j recovers label j exactly.

    The phase vector of basis state j is ω^{jk}: choosing phases
    (α, β, γ) = 2πj·(4, 2, 1)/8 reproduces it, so the classifier must return j
    with probability 1.
    """
    clf = IQFTClassifier(3)
    for j in range(8):
        alpha = 2 * np.pi * j * 4 / 8
        beta = 2 * np.pi * j * 2 / 8
        gamma = 2 * np.pi * j * 1 / 8
        probs = clf.probabilities(np.array([alpha, beta, gamma]))
        assert np.isclose(probs[j], 1.0, atol=1e-12)
        assert clf.classify(np.array([[alpha, beta, gamma]]))[0] == j


def test_amplitudes_match_quantum_statevector(rng):
    """The classical amplitudes equal ⟨basis|IQFT|ψ(phases)⟩ from the simulator."""
    clf = IQFTClassifier(3)
    phases = rng.uniform(0, 2 * np.pi, size=3)
    classical = clf.amplitudes(phases)
    state = phase_product_state(phases)
    quantum = iqft_matrix(3) @ state.amplitudes
    assert np.allclose(classical, quantum, atol=1e-12)


def test_single_sample_and_batch_shapes():
    clf = IQFTClassifier(2)
    single = clf.probabilities(np.array([0.1, 0.2]))
    assert single.shape == (4,)
    batch = clf.probabilities(np.array([[0.1, 0.2], [0.3, 0.4]]))
    assert batch.shape == (2, 4)
    assert np.allclose(batch[0], single)


def test_chunked_equals_unchunked(rng):
    phases = rng.uniform(0, 2 * np.pi, size=(257, 3))
    whole = IQFTClassifier(3, chunk_size=10_000).classify(phases)
    chunked = IQFTClassifier(3, chunk_size=16).classify(phases)
    assert np.array_equal(whole, chunked)


def test_reference_loop_matches_vectorized(rng):
    clf = IQFTClassifier(3)
    phases = rng.uniform(0, 2 * np.pi, size=(40, 3))
    assert np.array_equal(clf.classify(phases), clf.classify_reference(phases))


def test_classifier_one_qubit_threshold_behaviour():
    clf = IQFTClassifier(1)
    # Phase below π/2 -> class 0; above π/2 -> class 1.
    assert clf.classify(np.array([[0.3]]))[0] == 0
    assert clf.classify(np.array([[np.pi - 0.3]]))[0] == 1


def test_matrix_property_read_only():
    clf = IQFTClassifier(2)
    with pytest.raises(ValueError):
        clf.matrix[0, 0] = 0


def test_invalid_constructor_and_shapes():
    with pytest.raises(ParameterError):
        IQFTClassifier(0)
    clf = IQFTClassifier(3)
    with pytest.raises(ShapeError):
        clf.probabilities(np.zeros((5, 2)))
    with pytest.raises(ParameterError):
        IQFTClassifier(3, chunk_size=0).probabilities(np.zeros((1, 3)))


def test_probability_formula_matches_direct_evaluation(rng):
    """probabilities == |W F / N|² evaluated directly from equation (11)."""
    clf = IQFTClassifier(3)
    phases = rng.uniform(0, 2 * np.pi, size=3)
    f_vec = phase_vector(phases)
    direct = np.abs(clf.matrix @ f_vec / 8.0) ** 2
    assert np.allclose(clf.probabilities(phases), direct)


def test_accelerator_chunks_stay_at_the_backend_transfer_size(rng):
    from repro.backend.numpy_backend import NumpyBackend

    calls = []

    class Counting(NumpyBackend):  # a backend whose transfers pay from 65536 px
        def cost_hints(self):
            return {"gather_min_pixels": 65536.0, "tile_pixels_scale": 8.0}

        def phase_amplitudes(self, phases, bits, matrix):
            calls.append(phases.shape[0])
            return super().phase_amplitudes(phases, bits, matrix)

    phases = rng.uniform(0, 2 * np.pi, size=(70000, 3))
    labels = IQFTClassifier(3, backend=Counting()).classify(phases)
    assert calls == [65536, 70000 - 65536]
    assert np.array_equal(labels, IQFTClassifier(3).classify(phases))
    # an explicit chunk size is still honoured
    calls.clear()
    IQFTClassifier(3, chunk_size=50000, backend=Counting()).classify(phases)
    assert calls == [50000, 20000]
