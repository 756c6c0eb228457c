"""Every top-level def in the library has a caller outside the tests.

A def counts as referenced when its name appears (word-bounded) anywhere in
the library, ``tools``, ``jobs``, ``perfbench``, ``bench.py`` or
``__ray_entry__.py`` outside its own definition; test modules there are
not searched. ``ALLOWED`` lists the defs that only tests call; it may only
shrink: a listed def that is gone, or that gained a caller, fails the test
until it is taken off the list."""

import ast
import os
import re

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
LIB = os.path.join(ROOT, "osm_search_ray")

ALLOWED = {
    "functions/geometry.py:destination_point",
    "functions/geometry.py:segment_intersects_circle",
    "functions/hashing.py:delta_decode_postings",
    "pipelines/scoring.py:rank_scores",
    "pipelines/search.py:boolean_and_search",
    "pipelines/tiling.py:write_tiles",
    "serving.py:start_ann_session",
    "sources/doc_store.py:get_docs",
    "sources/doc_store.py:write_doc_store",
    "sources/fixtures.py:make_pages",
    "sources/fixtures.py:pages_to_points",
    "sources/pages.py:make_pages_table",
    "sources/readers.py:write_pages_as",
    "stages/annindex.py:ivf_cosine_topk",
    "stages/geofence.py:fence_status_incremental",
    "stages/multimodal.py:make_binary_items",
    "stages/sketches.py:mg_merge",
    "state/lm.py:load_ngram_lm_ds",
    "state/spell.py:edit_distance_candidates",
}


def _py_files(d: str) -> list[str]:
    """The program files under ``d``: test modules and ``conftest.py`` are not callers."""
    out = []
    for dirpath, dirnames, filenames in os.walk(d):
        dirnames[:] = [n for n in dirnames if n != "__pycache__"]
        out += [
            os.path.join(dirpath, f)
            for f in filenames
            if f.endswith(".py") and not f.startswith("test_") and f != "conftest.py"
        ]
    return sorted(out)


def unreferenced_defs() -> set[str]:
    searched = [*_py_files(LIB)] + [
        f for d in ("tools", "jobs", "perfbench") for f in _py_files(os.path.join(ROOT, d))
    ] + [os.path.join(ROOT, "bench.py"), os.path.join(ROOT, "__ray_entry__.py")]
    sources, seen = {}, {}  # seen: word -> every (file, line number) it is on
    for f in searched:
        sources[f] = open(f).read()
        for i, line in enumerate(sources[f].splitlines(), 1):
            for word in set(re.findall(r"\w+", line)):
                seen.setdefault(word, []).append((f, i))
    found = set()
    for path in _py_files(LIB):
        for node in ast.parse(sources[path]).body:
            if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                continue
            start = min([node.lineno] + [d.lineno for d in node.decorator_list])
            if all(f == path and start <= i <= node.end_lineno for f, i in seen[node.name]):
                found.add(f"{os.path.relpath(path, LIB)}:{node.name}")
    return found


def test_no_new_unreferenced_defs():
    found = unreferenced_defs()
    assert found <= ALLOWED, f"defs with no caller outside the tests: {sorted(found - ALLOWED)}"
    assert ALLOWED <= found, f"gone or now called; take them off ALLOWED: {sorted(ALLOWED - found)}"
