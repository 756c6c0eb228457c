"""Multi-format pages readers: the ``pages`` schema from Parquet, JSON-lines,
or CSV, coerced to one canonical Arrow schema (source-format coverage; the
reference reads only its custom PBF/binary formats).

Canonical schema (BASELINE.json input_hint):
    url: string, warc_ts: timestamp[us], html: binary, text: string,
    lang: string
CSV cannot carry binary — ``html`` is base64 there; JSON carries it base64
too. The coercion stage decodes both.
"""

from __future__ import annotations

import base64

import numpy as np
import pyarrow as pa
import ray.data

PAGES_SCHEMA = pa.schema(
    [
        ("url", pa.string()),
        ("warc_ts", pa.timestamp("us")),
        ("html", pa.binary()),
        ("text", pa.string()),
        ("lang", pa.string()),
    ]
)


def _coerce(batch: pa.Table, html_is_b64: bool) -> pa.Table:
    cols = {}
    cols["url"] = batch.column("url").cast(pa.string())
    ts = batch.column("warc_ts")
    if pa.types.is_timestamp(ts.type):
        cols["warc_ts"] = ts.cast(pa.timestamp("us"))
    else:
        # integer epoch-us or ISO string
        if pa.types.is_integer(ts.type):
            cols["warc_ts"] = ts.cast(pa.int64()).cast(pa.timestamp("us"))
        else:
            import pandas as pd

            parsed = pd.to_datetime(ts.to_pandas(), utc=False)
            cols["warc_ts"] = pa.array(parsed.astype("datetime64[us]"))
    html = batch.column("html")
    if html_is_b64 or pa.types.is_string(html.type):
        decoded = [base64.b64decode(h) if h else b"" for h in html.to_pylist()]
        cols["html"] = pa.array(decoded, pa.binary())
    else:
        cols["html"] = html.cast(pa.binary())
    cols["text"] = batch.column("text").cast(pa.string())
    cols["lang"] = batch.column("lang").cast(pa.string())
    return pa.table(cols)


def read_pages(path: str, fmt: str = "parquet") -> "ray.data.Dataset":
    """Read a pages table in any supported format → canonical schema."""
    if fmt == "parquet":
        ds = read_pq(path)
        return ds.map_batches(lambda t: _coerce(t, html_is_b64=False), batch_format="pyarrow")
    if fmt == "json":
        ds = ray.data.read_json(path)
        return ds.map_batches(lambda t: _coerce(t, html_is_b64=True), batch_format="pyarrow")
    if fmt == "csv":
        ds = ray.data.read_csv(path)
        return ds.map_batches(lambda t: _coerce(t, html_is_b64=True), batch_format="pyarrow")
    raise ValueError(f"unsupported format: {fmt}")


def write_pages_as(table: pa.Table, path: str, fmt: str) -> str:
    """Test helper: materialize a pages table in the given format."""
    if fmt == "parquet":
        import pyarrow.parquet as pq

        pq.write_table(table, path)
        return path
    import pandas as pd

    df = table.to_pandas()
    df["html"] = [base64.b64encode(h).decode() for h in df["html"]]
    if fmt == "json":
        df["warc_ts"] = df["warc_ts"].astype("datetime64[us]").astype(np.int64)  # epoch us
        df.to_json(path, orient="records", lines=True)
    elif fmt == "csv":
        df["warc_ts"] = df["warc_ts"].dt.strftime("%Y-%m-%dT%H:%M:%S.%f")
        df.to_csv(path, index=False)
    else:
        raise ValueError(fmt)
    return path


# ------------------------------------------------------------------
# data-proportional parquet reads
#
# Ray's read autodetection floors block count at 2× the cluster's CPUs
# (ray.data._internal.util._autodetect_parallelism) regardless of file
# size, sharding a few-MB table into 64+ confetti blocks whose fixed
# per-block cost then dominates EVERY downstream exchange (sort-shuffle
# wall time scales with input block count: 0.15 s at 16 blocks vs 1.8 s
# at 192 on this host for the same 260k rows). At 100 TB the byte-based
# splitting wins and we leave Ray's default alone; for small inputs we
# pass override_num_blocks sized to the data.

_SMALL_FILE_BYTES = 64 * 1024 * 1024
_SMALL_TARGET_BLOCK_BYTES = 128 * 1024


def _input_bytes(path) -> int | None:
    """Bytes of parquet data under ``path`` (a file, a directory or a list
    of either). Under a directory only ``*.parquet`` files count: sidecars
    such as a write manifest or ``_SUCCESS`` are not read as data."""
    import os

    paths = path if isinstance(path, (list, tuple)) else [path]
    total = 0
    try:
        for p in paths:
            if os.path.isdir(p):
                for root, _dirs, files in os.walk(p):
                    for f in files:
                        if f.endswith(".parquet"):
                            total += os.stat(os.path.join(root, f)).st_size
            else:
                total += os.stat(p).st_size
    except OSError:
        return None
    return total


def read_pq(path, **kw) -> "ray.data.Dataset":
    """``ray.data.read_parquet`` with a data-proportional block count:
    small inputs get ceil(bytes / 128 KiB) blocks capped at half the
    cluster CPUs (floor 8); inputs over 64 MiB use Ray's own splitting."""
    if "override_num_blocks" not in kw:
        size = _input_bytes(path)
        if size is not None and size < _SMALL_FILE_BYTES:
            try:
                cpus = int(ray.cluster_resources().get("CPU", 8))
            except Exception:
                cpus = 8
            cap = max(8, cpus // 2)
            kw["override_num_blocks"] = max(1, min(cap, -(-size // _SMALL_TARGET_BLOCK_BYTES)))
    return ray.data.read_parquet(path, **kw)
