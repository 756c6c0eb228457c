"""Common-Crawl-style pages table (the charter's ``input_hint``):

    pages(url: string, warc_ts: timestamp[us], html: binary, text: string,
          lang: string)

Contract pieces made real here:

  * ``extract_text`` — a DETERMINISTIC pure-function HTML→text extractor
    (drops script/style/head, strips tags, normalizes whitespace). The
    per-row invariant "extracted text byte-identical per url" holds
    because the extractor depends only on the html bytes — tested by
    double extraction and by the fixture's text column. The reference
    semantics are the stdlib html.parser's (``_TextExtractor``), which
    makes a Python call per token. Most pages instead take a fast path,
    ``_fast_text``: one ``re.split`` over the markup, then one pass over
    the skip tags, then one entity decode. It accepts a strict subset
    of markup: comments, doctypes, end tags, whole script/style elements,
    and start tags whose attribute values are all quoted. Any other "<"
    (bare "<", ``<?``, ``<![CDATA[``, ``</>``, unquoted values, a
    self-closing skip tag, an unterminated script/style, …) sends that
    page to ``_TextExtractor``, which is unchanged.
    tests/test_extract_fastpath.py checks that the fast path is
    byte-identical to the parser on fixture, crawl-like and fuzzed pages.
    The fast path mirrors the installed Python 3.11 ``html.parser``, and
    that test is what keeps the two in step.
  * ``read_pages`` — column-pruned read: the ``html`` binary column (which
    dominates row width) is read ONLY when extraction is requested and is
    PROJECTED AWAY in the same batch that consumes it, so wide rows never
    travel past the first stage (SURVEY.md §7.4 'Very wide rows').
  * ``pages_to_geo`` — the web-ingest head of the flagship pipeline:
    text → coordinate extraction (Arrow regex kernel) → grid cells;
    output carries (url, lat, lon, cells, lang) only.

The driver's sf dirs ship a ``documents`` table instead of pages; the
fixture generator below synthesizes a deterministic pages.parquet at small
scale for tests and benchmarks (charter: "synthesise it deterministically
at small scale ... no external data").
"""

from __future__ import annotations

import functools
import re
from html import unescape
from html.parser import HTMLParser
from io import StringIO

import numpy as np
import pyarrow as pa
import ray.data
from .readers import read_pq

_WS_RE = re.compile(r"\s+")
_SKIP_TAGS = {"script", "style", "head", "title", "noscript", "template"}


class _TextExtractor(HTMLParser):
    def __init__(self):
        super().__init__(convert_charrefs=True)
        self._out = StringIO()
        self._skip_depth = 0

    def handle_starttag(self, tag, attrs):
        if tag in _SKIP_TAGS:
            self._skip_depth += 1

    def handle_endtag(self, tag):
        if tag in _SKIP_TAGS and self._skip_depth > 0:
            self._skip_depth -= 1

    def handle_data(self, data):
        if self._skip_depth == 0:
            self._out.write(data)
            self._out.write(" ")

    def text(self) -> str:
        return _WS_RE.sub(" ", self._out.getvalue()).strip()


def _parser_text(html: str) -> str:
    """The reference extraction: stdlib ``HTMLParser`` via ``_TextExtractor``."""
    p = _TextExtractor()
    p.feed(html)
    p.close()
    return p.text()


def _ci(word: str) -> str:
    """ASCII case-insensitive pattern for ``word``. html.parser compares
    ``name.lower()``, and ``str.lower`` maps no non-ASCII character onto
    the letters of these tag names, so the two agree."""
    return "".join(f"[{c}{c.upper()}]" for c in word)


def _alt(tags) -> str:
    return "(?:%s)" % "|".join(map(_ci, sorted(tags)))


# One token per "<", in html.parser's own terms (3.11). Only skip-tag start
# and end tags fill the capture group; a "<" that starts none of these
# captures "" and sends the page to the parser.
_CDATA = HTMLParser.CDATA_CONTENT_ELEMENTS  # ("script", "style")
_NAME_END = r"(?![^\t\n\r\f />\x00])"  # where tagfind_tolerant's name stops
_ATTRS = r"""(?:\s+[^\s/>"'=<]+(?:\s*=\s*(?:"[^"]*"|'[^']*'))?)*\s*"""  # quoted values only
_SKIP = _alt(_SKIP_TAGS)
_MARKUP = re.compile(
    "<(?:%s)"
    % "|".join(
        [
            r"!--.*?--\s*>",  # comment, closed by commentclose
            rf"!{_ci('doctype')}[^>]*>",
            # a whole script/style element: set_cdata_mode reads raw text up
            # to the first </\s*tag\s*> that endtagfind (ASCII names) accepts
            *(rf"{_ci(t)}{_NAME_END}{_ATTRS}>.*?</\s*{_ci(t)}\s*>" for t in _CDATA),
            rf"/\s*(?!{_SKIP}\s*>)[a-zA-Z][-.a-zA-Z0-9:_]*\s*>",  # other end tag (endtagfind)
            rf"(?!{_SKIP}{_NAME_END})[a-zA-Z][^\t\n\r\f />\x00]*+{_ATTRS}/?>",  # other start tag
            rf"(/\s*{_SKIP}\s*>|{_alt(_SKIP_TAGS - set(_CDATA))}{_NAME_END}{_ATTRS}>|)",
        ]
    ),
    re.S,
)


# html.unescape's character-reference pattern (3.11 ``html._charref``;
# tests/test_extract_fastpath.py pins the copy to the installed one)
_CHARREF = re.compile(r"&(#[0-9]+;?|#[xX][0-9a-fA-F]+;?|[^\t\n\f <&#;]{1,32};?)")


@functools.lru_cache(maxsize=4096)
def _decode_ref(ref: str) -> str:
    return unescape("&" + ref)


def _unescape(s: str) -> str:
    """``html.unescape(s)`` without a Python callback per reference: one
    ``split`` on the same pattern (it never matches "", so split and sub
    cut ``s`` at the same places) and a cached decode per distinct
    reference (a greedy match decodes the same alone as in context)."""
    parts = _CHARREF.split(s)
    parts[1::2] = map(_decode_ref, parts[1::2])
    return "".join(parts)


def _fast_text(html: str) -> str | None:
    """``_parser_text(html)`` from one ``re.split`` over the markup, or None
    when a "<" starts anything outside ``_MARKUP``'s subset (bare "<",
    ``<?``, ``<![CDATA[``, ``</>``, unquoted attribute values, a
    self-closing skip tag, a script/style element without its end tag, …).

    ``_skip_depth`` is replayed over the skip tags only: every other token
    just ends a data chunk. Depth-0 chunks are joined with " " as
    ``handle_data`` writes them and unescaped once, which equals
    unescaping each chunk: a char ref cannot run past a " ". ``str.split``
    splits on exactly the characters ``_WS_RE``'s ``\\s`` matches."""
    parts = _MARKUP.split(html)
    skips = parts[1::2]
    if "" in skips:
        return None
    data = parts[0::2]
    kept = []
    depth = start = 0
    for i, tag in enumerate(skips):
        if tag is None:
            continue
        if tag[0] == "/":
            if depth:
                depth -= 1
                if not depth:
                    start = i + 1
        else:
            if not depth:
                kept += data[start : i + 1]
            depth += 1
    if not depth:
        kept += data[start:]
    return " ".join(_unescape(" ".join(kept)).split())


def extract_text(html: bytes | str | None) -> str:
    """Pure deterministic HTML→text: tags stripped, script/style/head
    content dropped, entities decoded, whitespace normalized to single
    spaces. Identical bytes in → identical string out, always.

    Pages whose markup stays inside ``_MARKUP``'s subset take the one-scan
    ``_fast_text``; any other page goes through the stdlib parser
    (``_parser_text``). Both give the same string on every page the fast
    path accepts: tests/test_extract_fastpath.py checks that against the
    parser on generated, benchmark-style and fuzzed pages."""
    if html is None:
        return ""
    if isinstance(html, (bytes, bytearray)):
        html = html.decode("utf-8", errors="replace")
    text = _fast_text(html)
    return _parser_text(html) if text is None else text


def extract_text_batch(batch: pa.Table, html_col: str = "html", out_col: str = "text") -> pa.Table:
    """Batch extraction stage: html consumed and PROJECTED AWAY in the same
    batch (wide binary rows never leave this operator)."""
    texts = [extract_text(h) for h in batch.column(html_col).to_pylist()]
    out = batch.drop_columns([html_col])
    if out_col in out.column_names:
        out = out.drop_columns([out_col])
    return out.append_column(out_col, pa.array(texts, pa.string()))


def read_pages(
    path: str,
    extract: bool = False,
    keep_cols: list[str] | None = None,
) -> "ray.data.Dataset":
    """Pruned pages read. With ``extract=False`` the stored ``text`` column
    is trusted and the html BINARY IS NEVER READ from storage (columns
    pushdown). With ``extract=True`` html is read and immediately replaced
    by the extracted text."""
    keep = keep_cols or ["url", "warc_ts", "text", "lang"]
    if not extract:
        return read_pq(path, columns=keep)
    cols = [c for c in keep if c != "text"] + ["html"]
    ds = read_pq(path, columns=cols)
    # small batches: html payloads × batch × concurrency must fit the heap
    return ds.map_batches(extract_text_batch, batch_format="pyarrow", batch_size=256)


def pages_to_geo(pages: "ray.data.Dataset", res: int | None = None) -> "ray.data.Dataset":
    """text → (lat, lon) via the Arrow regex kernel → grid-cell assignment;
    rows without coordinates are dropped. Output
    (url, lang, lat, lon, cell_r12)."""
    from ..functions.cells import RES_COARSE, cell_of
    from .fixtures import extract_coords_arrow

    res = res or RES_COARSE

    def fn(batch: pa.Table) -> pa.Table:
        lat, lon, ok = extract_coords_arrow(batch.column("text"))
        t = batch.append_column("lat", pa.array(lat)).append_column("lon", pa.array(lon))
        t = t.filter(pa.array(ok))
        cells = cell_of(t.column("lat").to_numpy(), t.column("lon").to_numpy(), res)
        keep = [c for c in ("url", "lang") if c in t.column_names]
        out = t.select(keep + ["lat", "lon"])
        return out.append_column("cell_r12", pa.array(cells))

    return pages.map_batches(fn, batch_format="pyarrow")


def make_pages_table(n: int = 256, geo_every: int = 2, seed: int = 5) -> pa.Table:
    """Deterministic synthetic pages fixture in the input_hint schema:
    every ``geo_every``-th page embeds a 'geo: lat, lon' marker in its body
    (the coordinate extractor's contract); html wraps the text with markup,
    script noise and entities so extraction is non-trivial."""
    rng = np.random.default_rng(seed)
    urls, ts, htmls, texts, langs = [], [], [], [], []
    langs_pool = ["en", "de", "fr", "es", "zh"]
    for i in range(n):
        url = f"https://example.org/page/{i}"
        body = f"Article {i} body words alpha beta gamma {int(rng.integers(0, 999))}"
        if i % geo_every == 0:
            lat = -6.4 + (i * 7919 % 1000) * 4e-4
            lon = 106.5 + (i * 104729 % 1000) * 5e-4
            body += f" geo: {round(lat, 6)}, {round(lon, 6)}"
        html = (
            "<html><head><title>skip me</title><script>var x=1;</script></head>"
            f"<body><h1>Header &amp; more</h1><p>{body}</p></body></html>"
        )
        urls.append(url)
        ts.append(1_700_000_000_000_000 + i * 1_000_000)
        htmls.append(html.encode())
        texts.append(extract_text(html))  # the byte-identical invariant
        langs.append(langs_pool[i % len(langs_pool)])
    return pa.table(
        {
            "url": pa.array(urls, pa.string()),
            "warc_ts": pa.array(ts, pa.timestamp("us")),
            "html": pa.array(htmls, pa.binary()),
            "text": pa.array(texts, pa.string()),
            "lang": pa.array(langs, pa.string()),
        }
    )
