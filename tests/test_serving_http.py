"""HTTP facade e2e: the reference's /api/search, /api/autocomplete and
/api/reverse routes (pkg/http/http-router/controllers/searcher.go:46-57)
served over a live QuerySession — response content must equal the certified
batch paths (the facade adds parsing/serialization only)."""

import json
import urllib.error
import urllib.request

import numpy as np
import pandas as pd
import pytest
import ray.data

from osm_search_ray import serving
from osm_search_ray.pipelines import text_index as ti
from osm_search_ray.serving_http import GeofenceRegistry, ServingApp, start_http_server
from osm_search_ray.state.lm import count_ngrams
from osm_search_ray.state.spell import SpellCorrector

DOCS = pd.DataFrame(
    {
        "doc_id": np.arange(4, dtype=np.int64),
        "name": [
            "Dunia Fantasi",
            "Kebun Binatang Ragunan",
            "Jalan Pantai Ancol",
            "Jalan Kebun Jeruk",
        ],
        "address": [
            "Jalan Lodan Timur Ancol",
            "Jalan Harsono Ragunan",
            "Jalan Pantai Ancol",
            "Jalan Kebun Jeruk",
        ],
    }
)


@pytest.fixture(scope="module")
def server():
    index = ti.build_text_index(ray.data.from_pandas(DOCS))
    corpus = [(n + " " + a).lower().split() for n, a in zip(DOCS["name"], DOCS["address"])]
    lm = count_ngrams(corpus)
    sc = SpellCorrector.build(lm.full_vocab, lm)
    session = serving.start_session(index, corrector=sc, name="http-test")
    app = ServingApp(
        session,
        geofences=GeofenceRegistry(),
        geo=(
            DOCS["doc_id"].to_numpy(),
            np.array([-6.12, -6.30, -6.12, -6.19]),
            np.array([106.83, 106.82, 106.84, 106.78]),
        ),
    )
    srv, port = start_http_server(app)
    yield session, port
    srv.shutdown()
    session.stop()


def _get(port: int, path: str):
    with urllib.request.urlopen(f"http://127.0.0.1:{port}{path}", timeout=30) as r:
        return r.status, json.loads(r.read())


class TestHttpFacade:
    def test_search_matches_session(self, server):
        session, port = server
        status, body = _get(port, "/api/search?q=pantai%20ancol")
        assert status == 200
        want = session.search(
            pd.DataFrame({"query_id": [0], "text": ["pantai ancol"]})
        ).sort_values("rank")
        got_ids = [r["doc_id"] for r in body["results"]]
        assert got_ids == want["doc_id"].astype(int).tolist()

    def test_search_offset_keeps_rank_order_and_types(self, server):
        session, port = server
        status, body = _get(port, "/api/search?q=jalan&offset=2")
        assert status == 200
        want = session.search(pd.DataFrame({"query_id": [0], "text": ["jalan"]})).sort_values("rank")
        want = want[want["rank"] >= 3]
        assert len(want) >= 1
        res = body["results"]
        assert [list(r) for r in res] == [["doc_id", "score", "rank"]] * len(res)
        assert [r["rank"] for r in res] == list(range(3, 3 + len(want)))
        assert [r["doc_id"] for r in res] == want["doc_id"].tolist()
        assert [r["score"] for r in res] == want["score"].tolist()
        assert all(type(r["doc_id"]) is int and type(r["rank"]) is int and type(r["score"]) is float for r in res)

    def test_autocomplete_matches_session(self, server):
        session, port = server
        status, body = _get(port, "/api/autocomplete?q=kebun%20bina")
        assert status == 200
        want = session.autocomplete(
            pd.DataFrame({"query_id": [0], "text": ["kebun bina"]}), top_n=3
        )
        assert body["completions"] == want.sort_values("rank")["completion"].tolist()

    def test_reverse_nearest_doc(self, server):
        _, port = server
        status, body = _get(port, "/api/reverse?lat=-6.121&lon=106.831")
        assert status == 200
        assert body["doc_id"] == 0  # nearest of the four fixture points
        # haversine tie-break / distance sanity
        assert body["dist_km"] < 2.0

    def test_bad_requests(self, server):
        _, port = server
        for path in ("/api/search", "/api/reverse?lat=x&lon=1"):
            try:
                status, body = _get(port, path)
            except urllib.error.HTTPError as e:
                status, body = e.code, json.loads(e.read())
            assert status == 400 and "error" in body
        try:
            status, body = _get(port, "/api/nope")
        except urllib.error.HTTPError as e:
            status, body = e.code, json.loads(e.read())
        assert status == 404


class TestGeofenceCrud:
    @pytest.fixture()
    def gport(self, server):
        """Server fixture extended with a live geofence registry."""
        session, port = server
        return port

    def _req(self, port, method, path, body=None):
        data = json.dumps(body).encode() if body is not None else None
        req = urllib.request.Request(
            f"http://127.0.0.1:{port}{path}", data=data, method=method,
            headers={"Content-Type": "application/json"},
        )
        try:
            with urllib.request.urlopen(req, timeout=30) as r:
                return r.status, json.loads(r.read())
        except urllib.error.HTTPError as e:
            return e.code, json.loads(e.read())

    def test_crud_and_transitions(self, gport):
        port = gport
        # create fence + point (searcher.go:52-57 routes)
        st, b = self._req(port, "POST", "/api/geofence", {"fence_name": "office"})
        assert st == 200 and "success" in b["message"]
        st, b = self._req(
            port, "POST", "/api/geofence/office/point",
            {"fence_point_name": "hq", "lat": -6.2, "lon": 106.8, "radius": 1.0},
        )
        assert st == 200
        # first sighting inside → ENTER (+ INSIDE transition row)
        st, b = self._req(port, "GET", "/api/geofence/office?lat=-6.2&lon=106.8&query_point_id=car1")
        assert st == 200
        statuses = {s["status"] for s in b["statuses"]}
        assert "ENTER" in statuses and "INSIDE" in statuses
        # stay inside → INSIDE only
        st, b = self._req(port, "GET", "/api/geofence/office?lat=-6.2001&lon=106.8&query_point_id=car1")
        assert {s["status"] for s in b["statuses"]} == {"INSIDE"}
        # leave → EXIT (+ OUTSIDE)
        st, b = self._req(port, "GET", "/api/geofence/office?lat=-6.5&lon=106.8&query_point_id=car1")
        statuses = {s["status"] for s in b["statuses"]}
        assert "EXIT" in statuses and "OUTSIDE" in statuses

    def test_validation(self, gport):
        port = gport
        st, b = self._req(port, "POST", "/api/geofence", {"fence_name": "bad name!"})
        assert st == 400
        self._req(port, "POST", "/api/geofence", {"fence_name": "f1"})
        st, b = self._req(
            port, "POST", "/api/geofence/f1/point",
            {"fence_point_name": "p", "lat": 0, "lon": 0, "radius": 100.0},
        )
        assert st == 400 and "radius" in b["error"]
        st, b = self._req(port, "GET", "/api/geofence/nope?lat=0&lon=0")
        assert st == 400
        st, b = self._req(port, "DELETE", "/api/geofence/f1")
        assert st == 200
