"""Seeded workload inputs, their matrix-path references and input properties.

Every input is a pure function of the ``--seed`` argument.  Streams and Zipf
popularity come from ``benchmarks/loadgen.py``; the quantized-VOC generator
below turns :class:`~repro.datasets.SyntheticVOCDataset` samples into the
8-bit RGB images a real dataset ships (``x 255``, rounded).

References are computed by the *matrix path*
(``BatchSegmentationEngine(..., use_lut=False)``) before anything is timed.
A label map is compared by digest, after widening to ``int64``, so a change
of label dtype on the wire or in a cache tier never reads as a wrong answer.
Generation and references run on a two-process spawn pool: one 375x500
sample costs ~0.17 s to generate and ~0.24 s to reference on a 2-vCPU VM.
"""

from __future__ import annotations

import hashlib
import multiprocessing
import os
from concurrent.futures import ProcessPoolExecutor
from typing import Dict, List, Sequence, Tuple

import numpy as np

#: Seed offsets keep the image sets of different workloads disjoint.
_SEED_STRIDE = 100_003

#: Processes used to generate inputs and references (the benchmark is sized for 2 CPUs).
POOL_WORKERS = 2


def segmenter():
    """The segmenter a default server or engine runs (``WorkerSpec()`` defaults)."""
    from repro.baselines.registry import get_segmenter
    from repro.serve import WorkerSpec

    spec = WorkerSpec()
    return get_segmenter(spec.method, **spec.segmenter_kwargs())


def label_digest(labels: np.ndarray) -> str:
    """Digest of a label map's values and shape, independent of its dtype."""
    arr = np.ascontiguousarray(np.asarray(labels), dtype=np.int64)
    hasher = hashlib.blake2b(digest_size=16)
    hasher.update(str(arr.shape).encode("ascii"))
    hasher.update(arr.tobytes())
    return hasher.hexdigest()


def voc_seed(seed: int, salt: int) -> int:
    """Dataset base seed for one workload's image set."""
    return 2012 + _SEED_STRIDE * int(seed) + 1_000 * int(salt)


def quantized_voc(base_seed: int, indices: Sequence[int], shape: Tuple[int, int]):
    """Quantized VOC-like samples: ``(uint8 RGB image, mask, void)`` per index."""
    from repro.datasets import SyntheticVOCDataset

    dataset = SyntheticVOCDataset(num_samples=max(indices) + 1, seed=base_seed, size=tuple(shape))
    out = []
    for index in indices:
        sample = dataset[int(index)]
        image = np.clip(np.rint(sample.image * 255.0), 0, 255).astype(np.uint8)
        out.append((image, sample.mask, sample.void))
    return out


def _voc_chunk(args):
    base_seed, indices, shape, scored = args
    from repro.engine import BatchSegmentationEngine

    samples = quantized_voc(base_seed, indices, shape)
    reference = BatchSegmentationEngine(segmenter(), use_lut=False)
    digests, mious = [], []
    for image, mask, void in samples:
        if scored:
            result = reference.run(image, mask, void)
            labels = result.segmentation.labels
            mious.append(float(result.metrics["miou"]))
        else:
            labels = reference.segment(image).labels
        digests.append(label_digest(labels))
    return samples, digests, mious


def _reference_chunk(frames):
    from repro.engine import BatchSegmentationEngine

    reference = BatchSegmentationEngine(segmenter(), use_lut=False)
    return [label_digest(reference.segment(frame).labels) for frame in frames]


def _split(items: Sequence, parts: int) -> List[list]:
    size = -(-len(items) // parts)
    return [list(items[i : i + size]) for i in range(0, len(items), size)]


def _pool_map(func, chunks) -> list:
    """``func`` over ``chunks`` on a spawn pool, leaving no process behind.

    The pool's processes run single-threaded BLAS: one process per CPU with
    a BLAS thread per CPU each would oversubscribe the CPUs.  The setting
    is restored before any system under test starts.
    """
    from multiprocessing import resource_tracker

    context = multiprocessing.get_context("spawn")
    saved = os.environ.get("OPENBLAS_NUM_THREADS")
    os.environ["OPENBLAS_NUM_THREADS"] = "1"
    try:
        with ProcessPoolExecutor(max_workers=POOL_WORKERS, mp_context=context) as pool:
            results = list(pool.map(func, chunks))
    finally:
        if saved is None:
            del os.environ["OPENBLAS_NUM_THREADS"]
        else:
            os.environ["OPENBLAS_NUM_THREADS"] = saved
    # The pool started multiprocessing's resource tracker; stop it as well.
    stop = getattr(resource_tracker._resource_tracker, "_stop", None)
    if stop is not None:
        stop()
    return results


def voc_set(base_seed: int, count: int, shape: Tuple[int, int], scored: bool) -> Dict:
    """``count`` quantized VOC samples with reference digests (and mIoU)."""
    chunks = [
        (base_seed, chunk, tuple(shape), scored)
        for chunk in _split(list(range(count)), POOL_WORKERS)
    ]
    parts = _pool_map(_voc_chunk, chunks)
    samples = [s for part in parts for s in part[0]]
    return {
        "images": [s[0] for s in samples],
        "masks": [s[1] for s in samples],
        "voids": [s[2] for s in samples],
        "digests": [d for part in parts for d in part[1]],
        "mious": [m for part in parts for m in part[2]],
    }


def frame_references(frames: Sequence[np.ndarray]) -> List[str]:
    """Matrix-path reference digests for stream frames."""
    parts = _pool_map(_reference_chunk, _split(list(frames), POOL_WORKERS))
    return [d for part in parts for d in part]


def stream_events(seed: int, count: int, shape=(256, 256), tile=(64, 64), streams=4):
    """A 90%-static Zipf-popular RGB stream replay from ``benchmarks/loadgen.py``."""
    from loadgen import StreamReplay

    replay = StreamReplay(
        streams=streams,
        shape=shape,
        channels=3,
        dirty_fraction=0.1,
        tile_shape=tile,
        seed=voc_seed(seed, 9),
    )
    return replay.materialize(count)


def zipf_sequence(seed: int, population: int, count: int) -> np.ndarray:
    """``count`` indices into a population, Zipf-popular (``loadgen.zipf_weights``)."""
    from loadgen import zipf_weights

    rng = np.random.default_rng(voc_seed(seed, 7))
    return rng.choice(population, size=int(count), p=zipf_weights(population))


# --------------------------------------------------------------------------- #
# input properties
# --------------------------------------------------------------------------- #
def _codes(image: np.ndarray) -> np.ndarray:
    flat = image.reshape(-1, 3).astype(np.int64)
    return np.unique((flat[:, 0] << 16) | (flat[:, 1] << 8) | flat[:, 2])


def colour_properties(images: Sequence[np.ndarray]) -> Dict:
    """Distinct colours per image and the share already seen in earlier images."""
    seen = np.zeros(1 << 24, dtype=bool)
    counts, seen_shares = [], []
    for index, image in enumerate(images):
        codes = _codes(image)
        counts.append(int(codes.size))
        if index:
            seen_shares.append(float(seen[codes].mean()))
        seen[codes] = True
    late = seen_shares[len(seen_shares) // 2 :] or [0.0]
    return {
        "images": len(counts),
        "colours_per_image_median": float(np.median(counts)) if counts else 0.0,
        "colours_per_image_min": min(counts, default=0),
        "colours_per_image_max": max(counts, default=0),
        "seen_colour_share_second_half_min": min(late),
        "seen_colour_share_second_half_max": max(late),
        "seen_colour_share_last": seen_shares[-1] if seen_shares else 0.0,
    }


def repeat_properties(sequence: Sequence, l1_entries: int = 256, shm_slots: int = 15) -> Dict:
    """Repeat share of a request sequence and its working set against the caches."""
    distinct = len(set(int(k) for k in sequence))
    total = len(sequence)
    return {
        "requests": total,
        "distinct_images": distinct,
        "repeat_share": 1.0 - distinct / total if total else 0.0,
        "working_set_over_l1_entries": distinct / l1_entries,
        "working_set_over_shm_slots": distinct / shm_slots,
    }


def static_tile_share(events, tile=(64, 64)) -> Dict:
    """Share of delta-grid tiles equal to the same tile of the stream's last frame."""
    last: Dict[str, np.ndarray] = {}
    static = total = 0
    th, tw = tile
    for event in events:
        previous = last.get(event.stream_id)
        frame = event.frame
        if previous is not None:
            for r in range(0, frame.shape[0], th):
                for c in range(0, frame.shape[1], tw):
                    total += 1
                    tile_now = frame[r : r + th, c : c + tw]
                    static += bool(np.array_equal(tile_now, previous[r : r + th, c : c + tw]))
        last[event.stream_id] = frame
    return {
        "frames": len(events),
        "streams": len(last),
        "static_tile_share": static / total if total else 0.0,
    }
