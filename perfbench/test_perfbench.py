"""Tests of the benchmark itself: its oracles catch a corrupted output, its
metric list matches BENCHMARK.json, it refuses to run without the code it
measures, and it runs end to end from a working directory other than the
repository root.

    python3 -m pytest perfbench -q
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys

import numpy as np
import pyarrow as pa
import pytest

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
REPO = os.path.dirname(BENCH_DIR)
sys.path.insert(0, BENCH_DIR)
sys.path.insert(0, REPO)

import gen  # noqa: E402
import oracle  # noqa: E402
import run  # noqa: E402


def _truth() -> dict:
    """Ground truth shaped like the generator's: 3,000 pages, 80% with
    coordinates, 30% of those in one hot cluster, 60 convex 8-gons."""
    rng = np.random.default_rng(3)
    n = 3000
    lat = np.round(-6.65 + rng.uniform(0.0, 0.9, n), 6)
    lon = np.round(106.40 + rng.uniform(0.0, 0.9, n), 6)
    hot = rng.random(n) < 0.3
    lat[hot] = np.round(-6.2012 + rng.uniform(-0.0045, 0.0045, hot.sum()), 6)
    lon[hot] = np.round(106.8219 + rng.uniform(-0.0045, 0.0045, hot.sum()), 6)
    ids, rlat, rlon = gen.convex_polys(rng, 60, -6.65, 106.40, 0.9, 0.1)
    return {"has_geo": rng.random(n) < 0.8, "lat": lat, "lon": lon, "poly_id": ids, "ring_lat": rlat, "ring_lon": rlon}


def _output_from(truth: dict, expected: np.ndarray) -> pa.Table:
    """The rows a correct job writes: one per (page, polygon) pair."""
    k = len(truth["poly_id"])
    page, pos = expected // k, expected % k
    return pa.table({
        "url": pa.array([f"{gen.URL_PREFIX}{p}" for p in page], pa.string()),
        "lat": pa.array(truth["lat"][page]),
        "lon": pa.array(truth["lon"][page]),
        "poly_id": pa.array(truth["poly_id"][pos]),
    })


def test_oracle_accepts_correct_and_catches_each_corruption():
    truth = _truth()
    expected = oracle.expected_pairs(truth)
    assert len(expected) > 100
    good = _output_from(truth, expected)
    assert oracle.count_wrong_pages(good, truth, expected, "poly_id") == 0
    # rows in another order are still correct
    shuffled = good.take(pa.array(np.random.default_rng(0).permutation(good.num_rows)))
    assert oracle.count_wrong_pages(shuffled, truth, expected, "poly_id") == 0

    def corrupt(col: str, value) -> pa.Table:
        arr = good.column(col).to_pylist()
        arr[7] = value
        return good.set_column(good.schema.get_field_index(col), col, pa.array(arr, good.schema.field(col).type))

    other_poly = int(truth["poly_id"][0] if good.column("poly_id")[7].as_py() != truth["poly_id"][0] else truth["poly_id"][1])
    cases = {
        "wrong polygon": corrupt("poly_id", other_poly),
        "unknown polygon": corrupt("poly_id", -5),
        "wrong latitude": corrupt("lat", good.column("lat")[7].as_py() + 1e-6),
        "unknown url": corrupt("url", "https://elsewhere.example/x"),
        "missing row": good.slice(1),
        "duplicated row": pa.concat_tables([good, good.slice(0, 1)]),
    }
    for name, table in cases.items():
        assert oracle.count_wrong_pages(table, truth, expected, "poly_id") >= 1, name


def test_oracle_matches_the_program_pip():
    """The sign-test oracle agrees with the program's polygon kernel on the
    generated convex polygons (the benchmark's two sides of the check)."""
    from osm_search_ray.stages.spatial_join import PolygonSet

    truth = _truth()
    has = truth["has_geo"]
    polys = PolygonSet.from_rings(truth["poly_id"], [(truth["ring_lat"][i], truth["ring_lon"][i]) for i in range(len(truth["poly_id"]))])
    page = np.nonzero(has)[0]
    pt, pl = polys.locate(truth["lat"][page], truth["lon"][page])
    got = np.sort(page[pt] * len(truth["poly_id"]) + pl)
    assert np.array_equal(got, oracle.expected_pairs(truth))


def test_generated_html_visible_text_matches_extractor(tmp_path):
    from osm_search_ray.sources.pages import extract_text
    import pyarrow.parquet as pq

    gen.gen_html(str(tmp_path), seed=4, n_pages=40)
    sample = json.loads((tmp_path / "text_sample.json").read_text())
    html = pq.read_table(tmp_path / "pages.parquet").column("html").to_pylist()
    got = [extract_text(html[r]) for r in sample["rows"]]
    assert got == sample["text"]
    # the check notices a page whose text differs
    assert sum(g != e for g, e in zip(got, sample["text"][:-1] + ["tampered"])) == 1


def test_benchmark_json_matches_run_py():
    with open(os.path.join(REPO, "BENCHMARK.json")) as f:
        b = json.load(f)
    assert {w["name"] for w in b["workloads"]} <= set(run.SIZES)
    assert {m["name"]: m["unit"] for m in b["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in b["per_layer"]} == run.PER_LAYER
    setup = [m for m in b["end_to_end"] if m["name"] == "setup_s"][0]
    assert setup["bound"] == max(m["bound"] for m in b["end_to_end"])


def test_refuses_to_run_without_the_program(tmp_path):
    """A tree holding only BENCHMARK.json and the benchmark exits non-zero
    without printing a result."""
    shutil.copy(os.path.join(REPO, "BENCHMARK.json"), tmp_path)
    shutil.copytree(BENCH_DIR, tmp_path / "perfbench", ignore=shutil.ignore_patterns("data", "runs", "traces", "__pycache__"))
    p = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "ingest_html", "--seed", "1", "--seconds", "1", "--trace", "0"],
                       cwd=tmp_path, capture_output=True, text=True, timeout=180)
    assert p.returncode != 0
    assert '"metrics"' not in p.stdout


@pytest.mark.parametrize("workload", list(run.SIZES))
def test_runs_from_another_working_directory(tmp_path, workload):
    p = subprocess.run([sys.executable, os.path.join(BENCH_DIR, "run.py"), "--workload", workload, "--seed", "7",
                        "--seconds", "1", "--trace", "0"], cwd=tmp_path, capture_output=True, text=True, timeout=240)
    assert p.returncode == 0, p.stderr[-3000:]
    res = json.loads(p.stdout.strip().splitlines()[-1])
    assert set(res) == {"correct", "attempted", "failed", "metrics"}
    assert res["correct"] and res["failed"] == 0 and res["attempted"] > 0
    assert set(res["metrics"]) == set(run.END_TO_END)
    assert all(m["value"] > 0 for m in res["metrics"].values())
    runs = os.path.join(BENCH_DIR, "runs")
    assert not os.path.isdir(runs) or not os.listdir(runs)  # the run removed its directory
