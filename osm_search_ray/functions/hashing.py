"""Deterministic hashing kernels for dedup / fingerprinting.

Python's builtin ``hash`` is salted per process (PYTHONHASHSEED) and MUST NOT
be used in a distributed shuffle key — every hash here is a pure function of
bytes, stable across processes and nodes (required for hash-partitioned
dedup and for resumable, re-entrant runs).
"""

from __future__ import annotations

import zlib

import numpy as np

_MASK64 = np.uint64(0xFFFFFFFFFFFFFFFF)


def splitmix64(x: np.ndarray) -> np.ndarray:
    """SplitMix64 finalizer — public-domain integer mixer (Steele et al.)."""
    x = x.astype(np.uint64)
    with np.errstate(over="ignore"):
        x = (x + np.uint64(0x9E3779B97F4A7C15)) & _MASK64
        x = ((x ^ (x >> np.uint64(30))) * np.uint64(0xBF58476D1CE4E5B9)) & _MASK64
        x = ((x ^ (x >> np.uint64(27))) * np.uint64(0x94D049BB133111EB)) & _MASK64
        return x ^ (x >> np.uint64(31))


def hash64_str(values) -> np.ndarray:
    """Stable 64-bit hash of each string (crc32 of utf-8 + crc32 of reversed,
    mixed through splitmix64). Vector entry point for shingles/tokens."""
    n = len(values)
    lo = np.empty(n, dtype=np.uint64)
    hi = np.empty(n, dtype=np.uint64)
    crc = zlib.crc32
    for i, v in enumerate(values):
        b = v.encode("utf-8", "surrogatepass") if isinstance(v, str) else bytes(v)
        lo[i] = crc(b)
        hi[i] = crc(b[::-1], 0x9E3779B9)
    return splitmix64((hi << np.uint64(32)) | lo)


def hash64_md5(values) -> np.ndarray:
    """Stable 64-bit hash: first 8 bytes (big-endian) of md5(utf-8).

    Slower than hash64_str but SQL-TWINNED: DuckDB computes the identical
    value as CAST('0x' || substr(md5(s), 1, 16) AS UBIGINT), which is what
    makes Bloom-filter membership oracle-checkable end-to-end
    (sources/derived.py SQL_HASH64_MD5)."""
    import hashlib

    out = np.empty(len(values), dtype=np.uint64)
    for i, v in enumerate(values):
        b = v.encode("utf-8", "surrogatepass") if isinstance(v, str) else bytes(v)
        out[i] = int.from_bytes(hashlib.md5(b).digest()[:8], "big")
    return out


def minhash_signature(token_hashes: np.ndarray, num_perm: int, seed: int = 7) -> np.ndarray:
    """MinHash signature of one document's token/shingle hash set.

    Universal-hash permutations h_i(x) = a_i*x + b_i (mod 2^64), min over the
    set (Broder 1997). Returns shape (num_perm,) uint64.
    """
    if len(token_hashes) == 0:
        return np.full(num_perm, _MASK64, dtype=np.uint64)
    a, b = perm_coeffs(num_perm, seed)
    with np.errstate(over="ignore"):
        # (P, T) = a[:,None]*x[None,:] + b[:,None]
        m = (a[:, None] * token_hashes[None, :].astype(np.uint64) + b[:, None]) & _MASK64
    return m.min(axis=1)


def perm_coeffs(num_perm: int, seed: int = 7) -> tuple[np.ndarray, np.ndarray]:
    base = splitmix64(np.arange(seed * 1000, seed * 1000 + 2 * num_perm, dtype=np.uint64))
    a = base[:num_perm] | np.uint64(1)  # odd → bijective mod 2^64
    b = base[num_perm:]
    return a, b


def simhash64(token_hashes: np.ndarray, weights: np.ndarray | None = None) -> np.uint64:
    """64-bit SimHash (Charikar 2002): sign of per-bit weighted sums."""
    if len(token_hashes) == 0:
        return np.uint64(0)
    th = token_hashes.astype(np.uint64)
    bits = (th[:, None] >> np.arange(64, dtype=np.uint64)[None, :]) & np.uint64(1)
    w = np.ones(len(th)) if weights is None else np.asarray(weights, dtype=np.float64)
    score = (np.where(bits == 1, 1.0, -1.0) * w[:, None]).sum(axis=0)
    out = np.uint64(0)
    for i in range(64):
        if score[i] > 0:
            out |= np.uint64(1) << np.uint64(i)
    return out


def hamming64(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Vectorized Hamming distance between uint64 arrays."""
    x = np.bitwise_xor(a.astype(np.uint64), b.astype(np.uint64))
    # popcount via bit tricks (no np.bit_count before numpy 2.0 guarantees)
    x = x - ((x >> np.uint64(1)) & np.uint64(0x5555555555555555))
    x = (x & np.uint64(0x3333333333333333)) + ((x >> np.uint64(2)) & np.uint64(0x3333333333333333))
    x = (x + (x >> np.uint64(4))) & np.uint64(0x0F0F0F0F0F0F0F0F)
    with np.errstate(over="ignore"):
        return ((x * np.uint64(0x0101010101010101)) >> np.uint64(56)).astype(np.int64)


def rolling_fingerprint(text: str, window: int = 16) -> int:
    """Karp–Rabin rolling-hash document fingerprint: min over byte windows
    of splitmix64(Σ byte·257^k mod 2^64) — a cheap content fingerprint for
    exact-ish dedup. Every operation (polynomial window hash, splitmix64,
    md5-hash64 short-text fallback) has a bit-identical DuckDB twin, so the
    dedup_fingerprint driver query is oracle-checked exactly (r04)."""
    data = text.encode("utf-8", "surrogatepass")
    if len(data) < window:
        return int(hash64_md5([text])[0])
    arr = np.frombuffer(data, dtype=np.uint8).astype(np.uint64)
    base = np.uint64(257)
    # hash of every window via prefix powers (vectorized)
    with np.errstate(over="ignore"):
        pows = np.empty(window, dtype=np.uint64)
        pows[0] = 1
        for i in range(1, window):
            pows[i] = (pows[i - 1] * base) & _MASK64
        # windows matrix trick: stride view
        from numpy.lib.stride_tricks import sliding_window_view

        wins = sliding_window_view(arr, window)
        h = (wins * pows[::-1][None, :]).sum(axis=1, dtype=np.uint64)
    return int(splitmix64(h).min())


def minhash_signature_batch(
    texts: list, num_perm: int = 128, shingle_k: int = 5, seed: int = 7
) -> np.ndarray:
    """Vectorized MinHash over a BATCH of texts: (N, num_perm) uint64.

    One concatenated byte buffer for the whole batch; all character shingles
    hashed in a handful of numpy passes (sliding windows → polynomial hash →
    splitmix64); per-row minima via ``np.minimum.reduceat`` with
    cross-row-boundary windows masked out. Replaces a per-document Python
    loop that costs ~100µs/doc with ~2µs/doc of cache-resident numpy.
    Rows shorter than ``shingle_k`` use their whole text as one shingle.
    """
    from numpy.lib.stride_tricks import sliding_window_view

    n = len(texts)
    if n == 0:
        return np.empty((0, num_perm), dtype=np.uint64)
    payloads = [
        (t.encode("utf-8", "surrogatepass") if isinstance(t, str) else bytes(t or b"")) for t in texts
    ]
    # rows shorter than the shingle → pad to k so they contribute one window
    payloads = [p if len(p) >= shingle_k else p.ljust(shingle_k, b"\0") for p in payloads]
    lens = np.asarray([len(p) for p in payloads], dtype=np.int64)
    buf = np.frombuffer(b"".join(payloads), dtype=np.uint8)
    starts = np.concatenate([[0], np.cumsum(lens)[:-1]])

    wins = sliding_window_view(buf, shingle_k)  # (T-k+1, k) view, zero-copy
    pows = np.array([257**j for j in range(shingle_k)], dtype=np.uint64)
    with np.errstate(over="ignore"):
        h = splitmix64((wins.astype(np.uint64) * pows[None, :]).sum(axis=1, dtype=np.uint64))

    # compress out the cross-row-boundary windows ONCE (a row's valid
    # windows are its first len-k+1 positions) so the permutation passes
    # never touch them — min over the survivors is unchanged
    valid_counts = lens - shingle_k + 1  # per row (≥ 1 after padding)
    idx = np.arange(len(h), dtype=np.int64)
    row_of = np.searchsorted(starts, idx, side="right") - 1
    h = h[idx - starts[row_of] < valid_counts[row_of]]
    row_starts = np.concatenate([[0], np.cumsum(valid_counts)[:-1]])

    a, b = perm_coeffs(num_perm, seed)
    a2, b2 = a[:, None], b[:, None]
    out = np.full((num_perm, n), _MASK64, dtype=np.uint64)
    # cache-blocked permutation passes: one (num_perm × CHUNK) tile of
    # a·h+b at a time, reduced per in-tile row segment in a single
    # reduceat(axis=1), partial minima folded into `out`. A per-perm pass
    # over the full window array streams |windows|·num_perm·24 bytes
    # through DRAM (~4.6 GB per 1.5M windows) and ran ~10× slower on this
    # bandwidth-starved host; the 2 MB tile stays cache-resident.
    CHUNK = 8192  # ~8 MB tile — swept 1k-16k on this host, 8k fastest
    with np.errstate(over="ignore"):
        for s in range(0, len(h), CHUNK):
            e = min(s + CHUNK, len(h))
            r0 = int(np.searchsorted(row_starts, s, side="right") - 1)
            r1 = int(np.searchsorted(row_starts, e, side="left"))
            local = np.maximum(row_starts[r0:r1] - s, 0)  # only r0 clamps
            tile = a2 * h[None, s:e] + b2  # (num_perm, CHUNK)
            mins = np.minimum.reduceat(tile, local, axis=1)
            out[:, r0:r1] = np.minimum(out[:, r0:r1], mins)
    return np.ascontiguousarray(out.T)


def minhash_batch_from_arrow(col, num_perm: int = 16, shingle_k: int = 5, seed: int = 7) -> np.ndarray:
    """Zero-copy batch MinHash straight from an Arrow string column: the
    column's UTF-8 data buffer IS the concatenated payload, its offsets ARE
    the row starts — no per-row Python objects at all.

    Rows shorter than ``shingle_k`` get the all-ones degenerate signature
    (callers with short rows should use :func:`minhash_signature_batch`)."""
    from numpy.lib.stride_tricks import sliding_window_view

    import pyarrow as pa

    if isinstance(col, pa.ChunkedArray):
        col = col.combine_chunks()
    n = len(col)
    if n == 0:
        return np.empty((0, num_perm), dtype=np.uint64)
    offsets = np.frombuffer(col.buffers()[1], dtype=np.int32, count=n + 1, offset=col.offset * 4).astype(np.int64)
    data = np.frombuffer(col.buffers()[2], dtype=np.uint8)
    lo, hi = offsets[0], offsets[-1]
    buf = data[lo:hi]
    starts = offsets[:-1] - lo
    lens = np.diff(offsets)

    if len(buf) < shingle_k:
        return np.full((n, num_perm), _MASK64, dtype=np.uint64)
    wins = sliding_window_view(buf, shingle_k)
    pows = np.array([257**j for j in range(shingle_k)], dtype=np.uint64)
    with np.errstate(over="ignore"):
        h = splitmix64((wins.astype(np.uint64) * pows[None, :]).sum(axis=1, dtype=np.uint64))
    valid_counts = lens - shingle_k + 1
    idx = np.arange(len(h), dtype=np.int64)
    row_of = np.searchsorted(starts, idx, side="right") - 1
    valid = idx - starts[row_of] < valid_counts[row_of]
    a, b = perm_coeffs(num_perm, seed)
    out = np.empty((n, num_perm), dtype=np.uint64)
    reduce_starts = np.minimum(starts, len(h) - 1)
    with np.errstate(over="ignore"):
        for p in range(num_perm):
            vals = a[p] * h + b[p]
            vals[~valid] = _MASK64
            out[:, p] = np.minimum.reduceat(vals, reduce_starts)
    # rows with no valid window → degenerate all-ones signature
    out[valid_counts <= 0] = _MASK64
    return out


# --------------------------------------------------------------------------
# Varint codec (reference M11 parity — pkg/compress/compress.go:28-48,104-133)
# Parquet's encodings make this unnecessary in the engine's storage path;
# provided for bit-compat parity with the reference's posting-list files.
# --------------------------------------------------------------------------


def encode_uvarints(values: np.ndarray) -> bytes:
    """LEB128 unsigned varint encoding of an int array (compress.go:28-48)."""
    out = bytearray()
    for v in np.asarray(values, dtype=np.uint64):
        v = int(v)
        while True:
            b = v & 0x7F
            v >>= 7
            if v:
                out.append(b | 0x80)
            else:
                out.append(b)
                break
    return bytes(out)


def decode_uvarints(data: bytes) -> np.ndarray:
    """Inverse of encode_uvarints (compress.go:104-133 / binary.Uvarint)."""
    out = []
    cur = 0
    shift = 0
    for b in data:
        cur |= (b & 0x7F) << shift
        if b & 0x80:
            shift += 7
        else:
            out.append(cur)
            cur = 0
            shift = 0
    return np.asarray(out, dtype=np.uint64)


def delta_encode_postings(doc_ids: np.ndarray) -> bytes:
    """Gap + varint encoding of a sorted posting list (the reference's
    on-disk posting format shape)."""
    doc_ids = np.asarray(doc_ids, dtype=np.int64)
    gaps = np.diff(doc_ids, prepend=0)
    return encode_uvarints(gaps.astype(np.uint64))


def delta_decode_postings(data: bytes) -> np.ndarray:
    return np.cumsum(decode_uvarints(data).astype(np.int64))
