"""Every map_batches stage finishes on a one-CPU Ray.

An actor pool can take a one-CPU cluster's only CPU before the task that
feeds it runs, and then neither ever runs. Each case runs one stage (or
the build_index job) at sf0.001 in its own process on
``ray.init(num_cpus=1)``, behind a ``read_pq`` task where the stage reads
a table, under a timeout; the process group is killed afterwards, so the
Ray processes it started go with it."""

import os
import signal
import subprocess
import sys
import textwrap

import pyarrow.parquet as pq
import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SF = "/root/testdata/sf0.001"
TIMEOUT_S = 180

# each body runs after ray.init and binds ``n``, a row count of the stage's output
CASES = {
    "image_features": "from osm_search_ray.pipelines.textops import image_features as f\nn = f(SF).count()",
    "audio_features": "from osm_search_ray.pipelines.textops import audio_features as f\nn = f(SF).count()",
    "quality_model": "from osm_search_ray.pipelines.textops import quality_model as f\nn = f(SF).count()",
    "langid": "from osm_search_ray.pipelines.textops import langid as f\nn = f(SF).count()",
    "lm_doc_scores": "from osm_search_ray.pipelines.search_docs import lm_doc_scores as f\nn = f(SF).count()",
    "ann_pq_topk": "from osm_search_ray.pipelines.simsearch import ann_pq_topk as f\nn = f(SF).count()",
    "ann_cosine_topk": "from osm_search_ray.pipelines.simsearch import ann_cosine_topk as f\nn = f(SF).count()",
    "ann_quantized_topk": "from osm_search_ray.pipelines.simsearch import ann_quantized_topk as f\nn = f(SF).count()",
    "knn_nearest_docs": "from osm_search_ray.pipelines.tiling import knn_nearest_docs as f\nn = f(SF).count()",
    "spell_search": "from osm_search_ray.pipelines.search_docs import spell_search_docs as f\nn = len(f(SF))",
    "autocomplete": "from osm_search_ray.pipelines.search_docs import autocomplete_docs as f\nn = len(f(SF))",
    "boolean_and": """
        import pyarrow.parquet as pq
        from osm_search_ray.pipelines.search import boolean_and_search
        from osm_search_ray.pipelines.text_index import build_text_index
        docs = pq.read_table(f"{SF}/documents.parquet", columns=["doc_id", "text"]).slice(0, 8)
        pq.write_table(docs.rename_columns(["query_id", "text"]), f"{TMP}/queries.parquet")
        index = build_text_index(read_pq(f"{SF}/documents.parquet", columns=["doc_id", "text"]), {"text": 0})
        n = boolean_and_search(index, read_pq(f"{TMP}/queries.parquet")).count()
    """,
    "raster_coverage": """
        import numpy as np, pyarrow as pa, pyarrow.parquet as pq
        from osm_search_ray.pipelines.raster_pipeline import RES
        from osm_search_ray.functions.cells import cell_of
        from osm_search_ray.sources import derived
        from osm_search_ray.stages.raster import rasterize_coverage
        from osm_search_ray.stages.spatial_join import PolygonSet
        rects = derived.admin_rects(SF)
        polys = PolygonSet.from_rects(rects.select(["rect_id", "lat0", "lon0", "lat1", "lon1"]))
        lat, lon = rects.column("lat0").to_numpy(), rects.column("lon0").to_numpy()
        pq.write_table(pa.table({"cell": np.unique(cell_of(lat, lon, RES))}), f"{TMP}/cells.parquet")
        n = rasterize_coverage(read_pq(f"{TMP}/cells.parquet"), polys, res=RES).count()
    """,
    "index_segments": """
        import json
        import pyarrow.compute as pc
        from osm_search_ray.pipelines.index_segments import add_segment, merge_segments
        docs = read_pq(f"{SF}/documents.parquet", columns=["doc_id", "text"])
        for p in (0, 1):
            half = docs.map_batches(
                lambda t, p=p: t.filter(pc.equal(pc.bit_wise_and(t.column("doc_id"), 1), p)), batch_format="pyarrow"
            )
            add_segment(f"{TMP}/segs", half, {"text": 0})
        merge_segments(f"{TMP}/segs", f"{TMP}/merged")
        n = json.load(open(f"{TMP}/merged/globals.json"))["docs_count"]
    """,
}


def _run(cmd: list[str], timeout: int) -> tuple[str, str]:
    """stdout and stderr of ``cmd`` in its own process group; fails the
    test if it runs past ``timeout`` seconds."""
    p = subprocess.Popen(
        cmd, cwd=ROOT, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True, start_new_session=True
    )
    try:
        return p.communicate(timeout=timeout)
    except subprocess.TimeoutExpired:
        pytest.fail(f"did not finish within {timeout} s on num_cpus=1")
    finally:
        try:
            os.killpg(p.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass
        p.wait()


@pytest.mark.parametrize("name", sorted(CASES))
def test_stage_finishes_on_one_cpu(name, tmp_path):
    script = "\n".join(
        [
            "import sys",
            f"sys.path.insert(0, {ROOT!r})",
            "import ray",
            'ray.init(address="local", num_cpus=1, include_dashboard=False, logging_level="ERROR",',
            f'         runtime_env={{"env_vars": {{"PYTHONPATH": {ROOT!r}}}}})',
            "from ray.data import DataContext",
            "DataContext.get_current().enable_progress_bars = False",
            "from osm_search_ray.sources.readers import read_pq",
            f"SF, TMP = {SF!r}, {str(tmp_path)!r}",
            textwrap.dedent(CASES[name]).strip(),
            'print("ROWS", n)',
        ]
    )
    out, err = _run([sys.executable, "-c", script], TIMEOUT_S)
    last = out.strip().splitlines()[-1:]
    assert last and last[0].startswith("ROWS ") and int(last[0].split()[1]) > 0, err[-2000:]


def test_build_index_job_on_one_cpu(tmp_path):
    from osm_search_ray.sources.fixtures import make_osm_tables

    osm = tmp_path / "osm"
    osm.mkdir()
    for name, tbl in make_osm_tables().items():
        pq.write_table(tbl, osm / f"{name}.parquet")
    cmd = [sys.executable, "jobs/build_index.py", "--osm-dir", str(osm), "--out", str(tmp_path / "out"), "--num-cpus", "1"]
    out, err = _run(cmd, TIMEOUT_S)
    assert "BUILD COMPLETE" in out, err[-2000:]
