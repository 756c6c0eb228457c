"""Differential test of the one-scan HTML→text fast path (``_fast_text``)
against the stdlib-parser extraction it replaces (``_parser_text``, i.e.
``_TextExtractor`` alone).

The fast path re-implements the installed ``html.parser``'s tokenizer on a
strict subset of markup and hands every other page back to the parser.
These tests keep the two locked: on every page the fast path accepts, its
string must equal the parser's exactly. Three sources of pages:

  * every ``make_pages_table`` page (all must take the fast path);
  * crawl-like pages with nav, <style>, <script>, comments, entities,
    &copy;, &nbsp; and <noscript> (all must take the fast path);
  * Hypothesis splices of adversarial fragments and invalid UTF-8 (the
    fallback must be hit, and the fast path must still be taken often).

The fast path's entity decode (``_unescape``) is checked against
``html.unescape`` on its own, and its pattern against the installed one.
"""

from __future__ import annotations

import html

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from osm_search_ray.sources.pages import _CHARREF, _fast_text, _parser_text, _unescape, extract_text, make_pages_table


def _check(html: bytes | str) -> bool:
    """Assert the fast path (when taken) and ``extract_text`` both equal the
    parser; return whether the fast path took the page."""
    s = html.decode("utf-8", errors="replace") if isinstance(html, bytes) else html
    ref = _parser_text(s)
    fast = _fast_text(s)
    if fast is not None:
        assert fast == ref, (s, fast, ref)
    assert extract_text(html) == ref, s
    return fast is not None


def test_fixture_pages_all_fast_and_identical():
    for n, geo_every, seed in ((300, 2, 5), (97, 3, 11)):
        tbl = make_pages_table(n, geo_every=geo_every, seed=seed)
        taken = [_check(h) for h in tbl.column("html").to_pylist()]
        assert all(taken)


_WORDS = "market harbor station bridge garden temple museum river north city park".split()
_ENTITIES = ["&amp;", "&lt;", "&gt;", "&quot;", "&#39;", "&eacute;", "&nbsp;", "&copy;", "&#x41;", "&mdash;"]


def _crawl_page(i: int, rng: np.random.Generator) -> str:
    def words(n: int) -> str:
        toks = [str(rng.choice(_WORDS)) for _ in range(n)]
        for k in range(2, n, 5):
            toks[k] += " " + str(rng.choice(_ENTITIES))
        return " ".join(toks)

    nav = "".join(f'<li><a href="/s/{w}" class=\'nav\'>{w.title()}</a></li>' for w in _WORDS[:6])
    paras = "\n".join(f"<p>{words(int(rng.integers(10, 40)))}</p>" for _ in range(int(rng.integers(2, 6))))
    return (
        "<!DOCTYPE html>\n<html lang=\"en\"><head><meta charset=\"utf-8\">"
        f"<title>{words(4)}</title><style>body{{margin:0}} a > b {{color:#036}}</style>"
        f"<script>if (a < b && c > d) {{ x = '</p>'; }} // geo: 1.0, 2.0</script></head>\n<BODY>"
        f"<!-- header v{i} <p>not text</p> -->\n<nav class=\"top\"><ul>{nav}</ul></nav>"
        f"<div class=\"content\" data-x=\"a>b\"><h1>{words(5)}</h1>{paras}"
        f"<script type=\"text/javascript\">var meta = {{\"geo: 3.0, 4.0\": 1}};</SCRIPT >"
        f"<img src=\"/i/{i}.png\" alt=\"\"/><br/></div>\n<footer><p>&copy; 2024 page {i}&nbsp;end</p>"
        "<noscript>Enable JavaScript.</noscript><template><p>hidden</p></template></footer></body></html>"
    )


def test_crawl_like_pages_all_fast_and_identical():
    rng = np.random.default_rng(7)
    taken = [_check(_crawl_page(i, rng)) for i in range(200)]
    assert all(taken)


# (page, whether the fast path takes it): the edges of the accepted subset
_CASES = [
    ("<script>x</ſcript>y</script>z", True),  # only an ASCII end tag closes CDATA
    ("<style>a</scrİpt>b</STYLE >c", True),
    ("<script>never closed", False),
    ("<headx>a</headx>b</ HEAD\n>c", True),
    ('<head\x0ba="1 2">x', False),  # the tag name is 'head\x0ba="1', not head
    ("<head\x0b>a</head>b", True),
    ("</head>a<head>b</head>c</head>d", True),
    ("<template><noscript>a</template>b</noscript>c", True),
    ("<p>a<!-- x -- >b<!---->c<!-- <p>d</p> -->e", True),
    ("<title>t</ title>u", True),
    ("<!DOCTYPE x>a&amp b &notit; &#x41; &#65 &ampx; c", True),
    ("a<br/>b<head/>c", False),
    ("a < b", False),
    ("a<![CDATA[b]]>c", False),
    ("a<?pi?>b</>c", False),
    ("<a href=x>b</a>", False),
]


def test_subset_edges():
    for html, fast in _CASES:
        assert _check(html) is fast, html


# fragments the fast path must tokenize exactly as html.parser does
_EDGE = [
    "<p>", "</p>", "<div class=\"c\">", "</div>", "<br/>", "<br />", "<img src='x'/>", "<p/>",
    "<head>", "</head>", "<HEAD>", "</Head >", "<title>", "</title>", "<TiTlE>", "</ title>",
    "<script>", "</script>", "</ script>", "</SCRIPT >", "<Script type='t'>", "<style>", "</style>",
    "<STYLE>", "</style\n>", "<noscript>", "</noscript>", "<template>", "</template>",
    "<headx>", "</scriptx>", "<ſcript>", "</ſcript>", "</scrİpt>", "<a\x0bb>", "<head\x0b>",
    "<!-- c -->", "<!-- c -- >", "<!---->", "-->", "-- >", "<!DOCTYPE html>", "<!doctype>",
    '<a title="x>y">', "<a title='x\"y'>", '<a b = "1" c>', "<a b=\"1\"　c=''>", "<x-y:z>", "<a<b>",
    "&amp", "&amp;", "&notit;", "&#x41;", "&#65", "&#", "&", "&ampx;", "&AMP;", "&#0;", "&#128;",
    "&#x110000;", "&lt;script&gt;", "&copy;", "&nbsp;", ">", "\xa0", "　", "\x0b", "\x1c", "\n",
]
# fragments outside the fast path's subset: each sends the page to the parser
_BREAKERS = [
    "a < b", "<", "<?pi?>", "<![CDATA[x]]>", "</>", "<!x>", "<head/>", "<script/>", "<a href=x>",
    "<!--", "<!-->", "<1>", "</a b>", "<a/b>", "<a\x00>", '<a b="1"c>', "<a =\"x\">", '<head\x0ba="1 2">',
]
_BAD_UTF8 = [b"\xff", b"\xc3", b"\xe2\x82", b"\xed\xa0\x80", b"\x80abc"]

_pieces = st.lists(st.one_of(st.sampled_from(_EDGE), st.text(" \t\nabcé&;#>/", max_size=6)), max_size=30)
_inserts = st.lists(st.tuples(st.integers(0, 30), st.sampled_from(_BREAKERS)), max_size=1)
_raw = st.lists(st.tuples(st.integers(0, 30), st.sampled_from(_BAD_UTF8)), max_size=2)


def test_fuzzed_fragments_identical_and_both_paths_hit():
    taken = []

    @settings(max_examples=600, deadline=None, derandomize=True)
    @given(_pieces, _inserts, _raw)
    def check(pieces, inserts, raw):
        parts = [p.encode() for p in pieces]
        for at, frag in inserts:
            parts.insert(at, frag.encode())
        for at, b in raw:
            parts.insert(at, b)
        taken.append(_check(b"".join(parts)))

    check()
    assert any(taken) and not all(taken), (sum(taken), len(taken))


def test_charref_pattern_is_the_installed_one():
    assert _CHARREF.pattern == html._charref.pattern


_REFS = ["&amp;", "&amp", "&ampx;", "&AMP;", "&notit;", "&notin;", "&lt", "&nbsp;", "&copy", "&eacute;",
         "&#65", "&#x41;", "&#X41", "&#0;", "&#128;", "&#xd800;", "&#x110000", "&#", "&#x", "&", "&;", "&" + "a" * 40]


@settings(max_examples=2000, deadline=None, derandomize=True)
@given(st.lists(st.one_of(st.sampled_from(_REFS), st.text("&#;xX0123456789abflmnopt \t\n<é", max_size=5)), max_size=12))
def test_unescape_equals_html_unescape(pieces):
    s = "".join(pieces)
    assert _unescape(s) == html.unescape(s)
