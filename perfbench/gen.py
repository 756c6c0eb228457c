"""Seeded input generators for the benchmark workloads.

Everything here is a pure function of ``seed``: the same seed writes the
same files. Each generator also returns (or writes) the ground truth the
oracles check against — coordinates, polygons and the visible text each
page was built from — so no check depends on the code under test.
"""

from __future__ import annotations

import json
import os
import re

import numpy as np
import pyarrow as pa
import pyarrow.parquet as pq

URL_PREFIX = "https://bench.example/p/"

WORDS = (
    "market harbor station bridge garden temple museum river street square "
    "north south east west old new city village tower hall park school "
    "library stadium canal island forest valley hill lake beach road avenue "
    "central grand royal green silver golden little upper lower district "
    "coffee bakery hotel hostel clinic pharmacy cinema theatre gallery mall "
    "bus train ferry airport terminal plaza court palace fountain monument"
).split()

# html entities the generator writes and what they decode to
_ENTITIES = [("&amp;", "&"), ("&lt;", "<"), ("&gt;", ">"), ("&quot;", '"'), ("&#39;", "'"), ("&eacute;", "é"), ("&nbsp;", " ")]
_WS = re.compile(r"\s+")

_CSS = (
    "body{margin:0;font-family:Helvetica,Arial,sans-serif;color:#222}"
    "nav ul{list-style:none;display:flex;gap:1rem}nav a{color:#036;text-decoration:none}"
    ".content p{line-height:1.5;max-width:42rem}.footer{font-size:.8rem;color:#777}"
    "h1,h2{font-weight:600}.ad{display:none}@media(max-width:600px){nav ul{flex-direction:column}}"
)
_NAV = ["Home", "News", "Places", "Events", "Travel", "Food", "About us", "Contact"]


def visible(chunks: list[str]) -> str:
    """The text an HTML→text extractor must produce from ``chunks`` of
    visible data separated by tags: whitespace runs collapse to one space."""
    return _WS.sub(" ", " ".join(chunks)).strip()


# per word id: the token as written and as decoded, plain and followed by
# an entity (chosen by word id)
_TOK_HTML = np.asarray(WORDS, dtype=object)
_TOK_ENT_HTML = np.asarray([f"{w} {_ENTITIES[k % len(_ENTITIES)][0]}" for k, w in enumerate(WORDS)], dtype=object)
_TOK_ENT_TEXT = np.asarray([f"{w} {_ENTITIES[k % len(_ENTITIES)][1]}" for k, w in enumerate(WORDS)], dtype=object)


def _sentence(rng: np.random.Generator, n: int) -> tuple[str, str]:
    """(html, decoded) sentence of ``n`` words, an entity after every
    fifth word."""
    ids = rng.integers(0, len(WORDS), n)
    ent = np.arange(n) % 5 == 3
    html = np.where(ent, _TOK_ENT_HTML[ids], _TOK_HTML[ids])
    plain = np.where(ent, _TOK_ENT_TEXT[ids], _TOK_HTML[ids])
    return " ".join(html), " ".join(plain)


def _page_html(i: int, rng: np.random.Generator, geo: tuple[str, str] | None) -> tuple[str, str]:
    """One ~5 KB page: head with style/script, nav boilerplate, comments,
    entities, article paragraphs, an inline script, footer. Returns
    (html, visible text)."""
    title_h, title_p = _sentence(rng, 5)
    chunks: list[str] = []
    parts = [
        "<!DOCTYPE html>\n<html lang=\"en\"><head><meta charset=\"utf-8\">",
        f"<title>{title_h}</title><style>{_CSS}</style>",
        "<script>window.dataLayer=window.dataLayer||[];function gtag(){dataLayer.push(arguments)}"
        f"gtag('js',new Date());gtag('config','UA-{i % 9973}');</script></head>\n<body>",
        "<!-- header: generated page template v3 -->\n<nav class=\"top\"><ul>",
    ]
    for label in _NAV:
        parts.append(f"<li><a href=\"/{label.lower().replace(' ', '-')}\">{label}</a></li>")
        chunks.append(label)
    parts.append("</ul></nav>\n<div class=\"content\">")
    parts.append(f"<h1>{title_h}</h1>")
    chunks.append(title_p)
    n_par = int(rng.integers(6, 9))
    geo_at = int(rng.integers(1, n_par)) if geo else -1
    for k in range(n_par):
        h, p = _sentence(rng, int(rng.integers(55, 80)))
        if k == geo_at:
            # a decoy marker inside a script: an extractor that keeps script
            # text would find it first and report the wrong place
            parts.append("<script type=\"text/javascript\">var meta={\"geo: 1.000000, 2.000000\":1};</script>")
            h = f"{h} geo: {geo[0]}, {geo[1]} {WORDS[k]}"
            p = f"{p} geo: {geo[0]}, {geo[1]} {WORDS[k]}"
        if k == 2:
            parts.append("<!-- advert slot: geo: 3.000000, 4.000000 -->")
        parts.append(f"<p>{h}</p>\n")
        chunks.append(p)
    parts.append("</div>\n<footer class=\"footer\"><p>")
    chunks.append(f"© 2024 Bench Example page {i}")
    parts.append(f"&copy; 2024 Bench Example page {i}</p>")
    parts.append("<noscript>Enable JavaScript for the full site.</noscript></footer>")
    parts.append("<script>(function(){var s=document.createElement('script');s.async=true;"
                 "s.src='/static/app.js';document.head.appendChild(s)})();</script></body></html>")
    return "".join(parts), visible(chunks)


def _coords(rng: np.random.Generator, n: int, lat0: float, lon0: float, span_lat: float, span_lon: float):
    lat = lat0 + rng.uniform(0.0, span_lat, n)
    lon = lon0 + rng.uniform(0.0, span_lon, n)
    # the coordinates the page text carries, parsed back: what an exact
    # extractor must recover
    return np.round(lat, 6), np.round(lon, 6)


def _fmt(x: float) -> str:
    return f"{x:.6f}"


def _write_pages(path: str, urls, htmls, texts, n: int, seed: int) -> None:
    langs = np.array(["en", "de", "fr", "es", "id"], dtype=object)
    t = pa.table(
        {
            "url": pa.array(urls, pa.string()),
            "warc_ts": pa.array(1_700_000_000_000_000 + np.arange(n, dtype=np.int64) * 1_000_000, pa.timestamp("us")),
            "html": pa.array(htmls, pa.binary()),
            "text": pa.array(texts, pa.string()),
            "lang": pa.array(langs[(np.arange(n) + seed) % len(langs)], pa.string()),
        }
    )
    pq.write_table(t, path, row_group_size=16384)


def write_nation(sf_dir: str) -> None:
    """The 25-row ``nation`` table the job's ``admin_rects`` derives its
    polygons from (only the key and name columns are read)."""
    os.makedirs(sf_dir, exist_ok=True)
    pq.write_table(
        pa.table(
            {
                "n_nationkey": pa.array(np.arange(25, dtype=np.int32)),
                "n_name": pa.array([f"NATION{k:02d}" for k in range(25)], pa.string()),
                "n_regionkey": pa.array(np.arange(25, dtype=np.int32) % 5),
            }
        ),
        os.path.join(sf_dir, "nation.parquet"),
    )


def admin_rect_polys() -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Ground truth for the 25 admin rectangles the job derives from
    ``nation``: (ids, ring_lat (P, 4), ring_lon (P, 4))."""
    key = np.arange(25, dtype=np.int64)
    lat0 = -6.605 + (key % 5).astype(np.float64) * 0.16
    lon0 = 106.395 + (key // 5).astype(np.float64) * 0.18
    lat1, lon1 = lat0 + 0.16, lon0 + 0.18
    rlat = np.stack([lat0, lat0, lat1, lat1], axis=1)
    rlon = np.stack([lon0, lon1, lon1, lon0], axis=1)
    return key, rlat, rlon


def gen_html(out_dir: str, seed: int, n_pages: int) -> dict:
    """``ingest_html`` inputs: ~5 KB realistic pages, a geo marker on half,
    coordinates over one metro area (~50 ``cell_r12`` cells, about nine of
    the admin rectangles)."""
    rng = np.random.default_rng(seed)
    has_geo = rng.random(n_pages) < 0.5
    lat, lon = _coords(rng, n_pages, -6.45, 106.60, 0.40, 0.40)
    urls, htmls, texts = [], [], []
    for i in range(n_pages):
        geo = (_fmt(lat[i]), _fmt(lon[i])) if has_geo[i] else None
        h, t = _page_html(i, rng, geo)
        urls.append(f"{URL_PREFIX}{i}")
        htmls.append(h.encode())
        texts.append(t)
    _write_pages(os.path.join(out_dir, "pages.parquet"), urls, htmls, texts, n_pages, seed)
    write_nation(os.path.join(out_dir, "sf"))
    ids, rlat, rlon = admin_rect_polys()
    np.savez(
        os.path.join(out_dir, "truth.npz"),
        has_geo=has_geo, lat=lat, lon=lon, poly_id=ids, ring_lat=rlat, ring_lon=rlon,
    )
    # a fixed sample of pages whose visible text the extraction check compares
    sample = np.sort(rng.choice(n_pages, size=min(200, n_pages), replace=False))
    with open(os.path.join(out_dir, "text_sample.json"), "w") as f:
        json.dump({"rows": sample.tolist(), "text": [texts[i] for i in sample]}, f)
    return {"pages": n_pages, "html_bytes": int(sum(len(h) for h in htmls))}


def convex_polys(rng: np.random.Generator, n: int, lat0: float, lon0: float, span: float, radius: float):
    """``n`` convex 8-vertex polygons: vertices at sorted random angles on
    an ellipse around a random centre (counter-clockwise). The oracle's
    sign test is checked against the program's polygon kernel on these."""
    c_lat = lat0 + rng.uniform(0.0, span, n)
    c_lon = lon0 + rng.uniform(0.0, span, n)
    r = radius * rng.uniform(0.6, 1.4, n)
    ang = np.sort(rng.uniform(0.0, 2 * np.pi, (n, 8)), axis=1)
    rlat = c_lat[:, None] + r[:, None] * np.sin(ang)
    rlon = c_lon[:, None] + 1.3 * r[:, None] * np.cos(ang)
    return np.arange(1, n + 1, dtype=np.int64) * 7, rlat, rlon


DOC_WORDS = (
    "spark join table stream window merge sort hash filter group query scan "
    "order value column batch vector index shard replica cache buffer page "
    "block commit rollback snapshot ledger cursor packet socket thread kernel "
    "driver schema tuple record bucket partition cluster server client router "
    "gateway tunnel signal sensor metric gauge counter monitor alert pipeline"
).split()


def gen_docs(out_dir: str, seed: int, n_docs: int, n_requests: int) -> dict:
    """``serve_mixed`` inputs: a ``documents`` table (doc_id, text, lang,
    source, n_chars) with Zipf-skewed word use, per-doc coordinates for
    reverse geocoding, and the seeded request sequence."""
    rng = np.random.default_rng(seed)
    nw = len(DOC_WORDS)
    pop = 1.0 / np.arange(1, nw + 1) ** 0.9
    pop /= pop.sum()
    perm = rng.permutation(nw)
    lens = rng.integers(8, 60, n_docs)
    flat = perm[rng.choice(nw, size=int(lens.sum()), p=pop)]
    off = np.concatenate([[0], np.cumsum(lens)])
    texts = [" ".join(DOC_WORDS[j] for j in flat[off[i] : off[i + 1]]) for i in range(n_docs)]
    pq.write_table(
        pa.table(
            {
                "doc_id": pa.array(np.arange(n_docs, dtype=np.int64)),
                "text": pa.array(texts, pa.string()),
                "lang": pa.array(["en"] * n_docs, pa.string()),
                "source": pa.array([f"src{int(k)}" for k in rng.integers(0, 20, n_docs)], pa.string()),
                "n_chars": pa.array(np.array([len(t) for t in texts], dtype=np.int64)),
            }
        ),
        os.path.join(out_dir, "documents.parquet"),
    )
    lat = np.round(-6.6 + rng.uniform(0, 0.8, n_docs), 6)
    lon = np.round(106.4 + rng.uniform(0, 0.9, n_docs), 6)
    np.savez(os.path.join(out_dir, "geo.npz"), doc_id=np.arange(n_docs, dtype=np.int64), lat=lat, lon=lon)

    # phrase pool: 2-3 consecutive words from random docs, Zipf popularity
    n_pool = 300
    pool = []
    for d in rng.integers(0, n_docs, n_pool):
        toks = texts[d].split()
        k = int(rng.integers(2, 4))
        s = int(rng.integers(0, max(1, len(toks) - k)))
        pool.append(" ".join(toks[s : s + k]))
    zipf = 1.0 / np.arange(1, n_pool + 1) ** 1.1
    zipf /= zipf.sum()

    def typo(phrase: str) -> str:
        toks = phrase.split()
        j = int(rng.integers(0, len(toks)))
        t = toks[j]
        p = int(rng.integers(1, len(t)))
        toks[j] = t[:p] + t[p + 1 :] if rng.random() < 0.5 else t[:p] + "x" + t[p:]
        return " ".join(toks)

    kinds = rng.choice(6, size=n_requests, p=[0.35, 0.15, 0.20, 0.10, 0.10, 0.10])
    reqs = []
    n_points = 0
    for i, kd in enumerate(kinds):
        if kd in (0, 1, 2):
            phrase = pool[int(rng.choice(n_pool, p=zipf))]
            if kd == 0:
                reqs.append({"route": "search", "q": phrase, "kind": "invocab"})
            elif kd == 1:
                reqs.append({"route": "search", "q": typo(phrase), "kind": "typo"})
            else:
                toks = phrase.split()
                cut = int(rng.integers(1, len(toks[-1]) + 1))
                reqs.append({"route": "autocomplete", "q": " ".join(toks[:-1] + [toks[-1][:cut]])})
        elif kd == 3:
            reqs.append({"route": "reverse", "lat": float(rng.uniform(-6.65, -5.75)), "lon": float(rng.uniform(106.35, 107.35))})
        elif kd == 4:
            reqs.append({
                "route": "fence_status", "lat": round(float(rng.uniform(-6.4, -6.0)), 6),
                "lon": round(float(rng.uniform(106.6, 107.0)), 6), "qp": f"q{int(rng.integers(0, 20))}",
            })
        else:
            reqs.append({
                "route": "fence_add", "name": f"p{n_points % 400}", "lat": round(float(rng.uniform(-6.4, -6.0)), 6),
                "lon": round(float(rng.uniform(106.6, 107.0)), 6), "radius": round(float(rng.uniform(0.5, 5.0)), 3),
            })
            n_points += 1
    # fence points present before the first request (set-up writes)
    initial = [
        {"route": "fence_add", "name": f"init{k}", "lat": round(float(rng.uniform(-6.4, -6.0)), 6),
         "lon": round(float(rng.uniform(106.6, 107.0)), 6), "radius": 2.0}
        for k in range(20)
    ]
    with open(os.path.join(out_dir, "requests.json"), "w") as f:
        json.dump({"initial": initial, "requests": reqs}, f)
    return {"docs": n_docs, "requests": n_requests}
