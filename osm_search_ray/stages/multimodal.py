"""Multimodal column stages (training-data operators): image / audio / video
as opaque ``binary`` columns with typed metadata.

This container has no image/audio codecs (no PIL / ffmpeg / torchvision),
so the DECODE step is a DETERMINISTIC fake derived from the payload bytes;
the Ray-side plumbing (schema, batch sizing, output layout) is real and
tested. Real codecs are out of scope.

Scale notes baked into the stage defaults:
  * small ``batch_size`` (64) — large binary payloads × batch must fit
    the worker heap (ray_guide.md 'Memory-aware')
  * the binary column is DROPPED from the output (features only) so blocks
    shrink immediately after the expensive stage
  * plain per-batch functions (``map_batches(fn)``), no actor pool: the
    fake decode has no state to load, and an actor pool could hold a
    one-CPU cluster's only CPU before the read task that feeds it runs
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa
import ray.data

from ..functions.hashing import splitmix64

IMAGE_FEATURE_DIM = 16


def _fake_bases(payloads: list) -> np.ndarray:
    """Per-payload stream base for the deterministic fake decode."""
    n = len(payloads)
    seed = np.empty(n, dtype=np.uint64)
    head = np.empty(n, dtype=np.uint64)
    for i, p in enumerate(payloads):
        p = p or b""
        seed[i] = len(p)
        head[i] = np.frombuffer(p[:8].ljust(8, b"\0"), dtype=np.uint64)[0]
    return splitmix64(seed ^ head)


def _fake_pixels_batch(payloads: list, h: int, w: int) -> np.ndarray:
    """(n, h*w) uint8 — the whole batch decoded in ONE numpy broadcast:
    per payload, a counter-based stream seeded from its bytes (the
    per-payload Python work is just the 8-byte header read)."""
    if not payloads:
        return np.empty((0, h * w), dtype=np.uint8)
    base = _fake_bases(payloads)
    with np.errstate(over="ignore"):
        stream = splitmix64(np.arange(h * w, dtype=np.uint64)[None, :] + base[:, None])
    return (stream & np.uint64(0xFF)).astype(np.uint8)


def image_features_batch(
    batch: pa.Table, bin_col: str = "payload", id_col: str = "item_id", hw: tuple = (32, 32)
) -> pa.Table:
    """binary image column → fixed-dim feature vector + (h, w) metadata."""
    h, w = hw
    payloads = batch.column(bin_col).to_pylist()
    n = len(payloads)
    px = _fake_pixels_batch(payloads, h, w)
    # 16-bin intensity histogram per doc, L1-normalized — one bincount
    # over (doc, bin) flat indices for the whole batch
    bins = (px >> 4).astype(np.int64)
    idx = (np.arange(n, dtype=np.int64)[:, None] * IMAGE_FEATURE_DIM + bins).ravel()
    hist = np.bincount(idx, minlength=n * IMAGE_FEATURE_DIM).reshape(n, IMAGE_FEATURE_DIM).astype(np.float64)
    feats = hist / np.maximum(hist.sum(axis=1, keepdims=True), 1.0)
    return pa.table(
        {
            id_col: batch.column(id_col),
            "height": pa.array(np.full(n, h, np.int32)),
            "width": pa.array(np.full(n, w, np.int32)),
            "features": pa.array(feats.tolist(), pa.list_(pa.float64(), IMAGE_FEATURE_DIM)),
        }
    )


def audio_frames_batch(
    batch: pa.Table, bin_col: str = "payload", id_col: str = "item_id", frame_bytes: int = 256, stride: int = 4
) -> pa.Table:
    """binary audio column → every k-th 'frame' (fixed-size byte windows) as
    list<binary> + frame count metadata; deterministic, codec-free."""
    n_frames_out, samples = [], []
    for payload in batch.column(bin_col).to_pylist():
        payload = payload or b""
        frames = [payload[i : i + frame_bytes] for i in range(0, len(payload), frame_bytes)]
        n_frames_out.append(len(frames))
        samples.append(frames[::stride])
    return pa.table(
        {
            id_col: batch.column(id_col),
            "n_frames": pa.array(n_frames_out, pa.int32()),
            "sampled_frames": pa.array(samples, pa.list_(pa.binary())),
        }
    )


def image_feature_stage(ds: "ray.data.Dataset", batch_size: int = 64):
    return ds.map_batches(image_features_batch, batch_format="pyarrow", batch_size=batch_size)


def audio_sample_stage(ds: "ray.data.Dataset", batch_size: int = 64):
    return ds.map_batches(audio_frames_batch, batch_format="pyarrow", batch_size=batch_size)


def make_binary_items(n: int = 64, payload_bytes: int = 4096, seed: int = 3) -> pa.Table:
    """Deterministic synthetic binary items table (item_id, kind, payload)."""
    rng = np.random.default_rng(seed)
    payloads = [rng.integers(0, 256, payload_bytes, dtype=np.uint8).tobytes() for _ in range(n)]
    return pa.table(
        {
            "item_id": pa.array(np.arange(n, dtype=np.int64)),
            "kind": pa.array(["image" if i % 2 == 0 else "audio" for i in range(n)]),
            "payload": pa.array(payloads, pa.binary()),
        }
    )
