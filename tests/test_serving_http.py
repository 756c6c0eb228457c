"""HTTP facade: the reference's /api/search, /api/autocomplete and
/api/reverse routes (pkg/http/http-router/controllers/searcher.go:46-57)
served over a live session — response content must equal the certified
batch paths (the facade adds parsing/serialization only). ``ServingApp.handle``
is tested without sockets; the e2e tests go through the HTTP server."""

import json
import math
import socket
import threading
import time
import urllib.error
import urllib.request

import numpy as np
import pandas as pd
import pytest
import ray.data
from hypothesis import given, settings
from hypothesis import strategies as st

from osm_search_ray import serving, serving_http
from osm_search_ray.functions.geometry import haversine_km
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


GEO = (DOCS["doc_id"].to_numpy(), np.array([-6.12, -6.30, -6.12, -6.19]), np.array([106.83, 106.82, 106.84, 106.78]))


@pytest.fixture(scope="module")
def built():
    index = ti.build_text_index(ray.data.from_pandas(DOCS))
    corpus = [(n + " " + a).lower().split() for n, a in zip(DOCS["name"], DOCS["address"])]
    lm = count_ngrams(corpus)
    return index, SpellCorrector.build(lm.full_vocab, lm)


@pytest.fixture(scope="module")
def server(built):
    session = serving.start_session(*built, name="http-test")
    app = ServingApp(session, geofences=GeofenceRegistry(), geo=GEO)
    srv, port = start_http_server(app)
    yield session, port
    srv.shutdown()
    srv.server_close()
    session.stop()


@pytest.fixture()
def app(built):
    """A fresh app over an in-process session and an empty registry."""
    return ServingApp(serving.start_session(*built), geofences=GeofenceRegistry(), geo=GEO)


def _get(port: int, path: str):
    with urllib.request.urlopen(f"http://127.0.0.1:{port}{path}", timeout=30) as r:
        return r.status, json.loads(r.read())


class TestHttpFacade:
    def test_search_matches_session(self, server):
        session, port = server
        status, body = _get(port, "/api/search?q=pantai%20ancol")
        assert status == 200
        want = session.search([{"query_id": 0, "text": "pantai ancol"}])
        got_ids = [r["doc_id"] for r in body["results"]]
        assert got_ids == want["doc_id"].tolist()

    def test_search_offset_keeps_rank_order_and_types(self, server):
        session, port = server
        status, body = _get(port, "/api/search?q=jalan&offset=2")
        assert status == 200
        want = pd.DataFrame(session.search([{"query_id": 0, "text": "jalan"}]))
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
        want = session.autocomplete([{"query_id": 0, "text": "kebun bina"}], top_n=3)
        assert body["completions"] == want["completion"]

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

    def test_response_has_content_length_and_connection_closes(self, server):
        _, port = server
        with socket.create_connection(("127.0.0.1", port), timeout=30) as c:
            c.sendall(b"GET /api/search?q=jalan HTTP/1.1\r\nHost: localhost\r\n\r\n")
            raw = b""
            while chunk := c.recv(65536):  # b"" once the server has closed
                raw += chunk
        head, _, body = raw.partition(b"\r\n\r\n")
        lines = head.decode().split("\r\n")
        headers = dict(line.split(": ", 1) for line in lines[1:])
        assert lines[0] == "HTTP/1.0 200 OK"
        assert headers["Content-Type"] == "application/json"
        assert int(headers["Content-Length"]) == len(body)
        assert json.loads(body)["query"] == "jalan"


class TestHandle:
    """``ServingApp.handle`` without sockets: every route, 404 and 400."""

    def test_search_and_autocomplete(self, app):
        st_, body = app.handle("GET", "/api/search", "q=jalan+ancol&offset=1")
        want = app.session.search([{"query_id": 0, "text": "jalan ancol"}])
        assert st_ == 200 and body["query"] == "jalan ancol"
        assert [r["doc_id"] for r in body["results"]] == want["doc_id"][1:].tolist()
        assert [r["rank"] for r in body["results"]] == want["rank"][1:].tolist()
        st_, body = app.handle("GET", "/api/autocomplete", "q=kebun%20bina")
        assert st_ == 200
        assert body["completions"] == app.session.autocomplete([{"query_id": 0, "text": "kebun bina"}])["completion"]
        assert app.handle("GET", "/api/search", "q=") == (400, {"error": "missing q"})

    def test_search_negative_offset_is_bad_request(self, app):
        assert len(app.session.search([{"query_id": 0, "text": "jalan"}])["doc_id"]) > 3
        assert app.handle("GET", "/api/search", "q=jalan&offset=-3") == (400, {"error": "offset must be >= 0"})
        assert app.handle("GET", "/api/search", "q=jalan&offset=x")[0] == 400

    def test_reverse(self, app):
        assert app.handle("GET", "/api/reverse", "lat=-6.121&lon=106.831")[1]["doc_id"] == 0
        assert app.handle("GET", "/api/reverse", "lat=x&lon=1")[0] == 400

    def test_geofence_routes(self, app):
        assert app.handle("POST", "/api/geofence", "", b'{"fence_name": "f"}')[0] == 200
        point = {"fence_point_name": "hq", "lat": -6.2, "lon": 106.8, "radius": 1.0}
        assert app.handle("POST", "/api/geofence/f/point", "", json.dumps(point).encode())[0] == 200
        st_, body = app.handle("GET", "/api/geofence/f", "lat=-6.2&lon=106.8&query_point_id=car")
        assert st_ == 200 and {s["status"] for s in body["statuses"]} == {"ENTER", "INSIDE"}
        assert app.handle("DELETE", "/api/geofence/f")[0] == 200
        assert app.handle("DELETE", "/api/geofence/f")[0] == 400

    def test_not_found_and_malformed_body(self, app):
        assert app.handle("GET", "/api/nope") == (404, {"error": "no route GET /api/nope"})
        assert app.handle("POST", "/api/search")[0] == 404
        for body in (b"{", b"not json", b"[1, 2]", b"\xff"):
            st_, payload = app.handle("POST", "/api/geofence", "", body)
            assert st_ == 400 and "error" in payload, body
        app.handle("POST", "/api/geofence", "", b'{"fence_name": "f"}')
        assert app.handle("POST", "/api/geofence/f/point", "", b'{"lat": 1')[0] == 400

    def test_add_point_non_number_fields(self, app):
        app.handle("POST", "/api/geofence", "", b'{"fence_name": "f"}')
        good = {"fence_point_name": "p", "lat": -6.2, "lon": 106.8, "radius": 1.0}
        for field in ("lat", "lon", "radius"):
            for bad in (None, [1.0], "1.0", {"v": 1.0}, True):
                body = json.dumps({**good, field: bad}).encode()
                want = (400, {"error": f"{field} must be a number"})
                assert app.handle("POST", "/api/geofence/f/point", "", body) == want, (field, bad)
        assert app.handle("POST", "/api/geofence/f/point", "", json.dumps({**good, "lat": -6}).encode())[0] == 200


class TestBadCoordinates:
    """Non-finite or out-of-range coordinates get 400 on every route that
    takes a point, and a rejected status request stores no position."""

    BAD = ("lat=nan&lon=0", "lat=0&lon=nan", "lat=999&lon=0", "lat=0&lon=-181", "lat=inf&lon=0")

    def test_reverse(self, app):
        for q in self.BAD:
            assert app.handle("GET", "/api/reverse", q) == (400, {"error": "lat/lon out of range"}), q

    def test_geofence_status(self, app):
        app.handle("POST", "/api/geofence", "", b'{"fence_name": "f"}')
        point = {"fence_point_name": "hq", "lat": 0.0, "lon": 0.0, "radius": 1.0}
        app.handle("POST", "/api/geofence/f/point", "", json.dumps(point).encode())
        for q in self.BAD:
            assert app.handle("GET", "/api/geofence/f", q + "&query_point_id=car")[0] == 400, q
        # the first accepted sighting is still a first sighting: ENTER
        st_, body = app.handle("GET", "/api/geofence/f", "lat=0&lon=0&query_point_id=car")
        assert st_ == 200 and {s["status"] for s in body["statuses"]} == {"ENTER", "INSIDE"}

    def test_add_point(self, app):
        app.handle("POST", "/api/geofence", "", b'{"fence_name": "f"}')
        for lat, lon in ((math.nan, 0.0), (0.0, math.nan), (91.0, 0.0), (0.0, math.inf)):
            body = json.dumps({"fence_point_name": "p", "lat": lat, "lon": lon, "radius": 1.0}).encode()
            assert app.handle("POST", "/api/geofence/f/point", "", body)[0] == 400, (lat, lon)


_COORD = st.sampled_from([-6.2, -6.1, 0.0, 45.0, 90.0, -90.0])


@settings(max_examples=200, deadline=None)
@given(
    geo=st.lists(
        st.tuples(st.integers(0, 4), st.sampled_from([-6.2, -6.1, 0.0, 45.0, math.nan]), st.sampled_from([106.8, 0.0, 180.0, -180.0, math.nan])),
        min_size=1,
        max_size=12,
    ),
    lat=_COORD,
    lon=st.sampled_from([106.8, 0.0, 90.0, 180.0, -180.0]),
)
def test_reverse_equals_lexsort(geo, lat, lon):
    """The reverse route's min-then-smallest-doc_id pick equals the full
    lexsort by (distance, doc_id) it replaced, over tied distances,
    duplicate doc_ids and NaN coordinates (a NaN distance sorts last)."""
    ids, lats, lons = (np.array(c) for c in zip(*geo))
    app = ServingApp(None, geo=(ids, lats, lons))
    status, got = app.handle("GET", "/api/reverse", f"lat={lat!r}&lon={lon!r}")
    d = haversine_km(lat, lon, lats.astype(np.float64), lons.astype(np.float64))
    if np.isnan(d).all():
        assert status == 400
        return
    best = np.lexsort((ids, d))[0]
    assert status == 200
    assert got == {"doc_id": int(ids[best]), "lat": float(lats[best]), "lon": float(lons[best]), "dist_km": float(d[best])}


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


def _raw(port: int, *chunks: bytes, pause: float = 0.2) -> tuple[int, dict, dict]:
    """Send ``chunks`` on one connection (pausing between them), read until
    the server closes; return (status, headers, JSON body)."""
    with socket.create_connection(("127.0.0.1", port), timeout=30) as c:
        for i, chunk in enumerate(chunks):
            if i:
                time.sleep(pause)
            c.sendall(chunk)
        raw = b""
        while chunk := c.recv(65536):
            raw += chunk
    head, _, body = raw.partition(b"\r\n\r\n")
    lines = head.decode().split("\r\n")
    headers = dict(line.split(": ", 1) for line in lines[1:])
    assert lines[0].startswith("HTTP/1.0 ") and int(headers["Content-Length"]) == len(body)
    return int(lines[0].split(" ")[1]), headers, json.loads(body)


class TestRawRequests:
    """The request reader over raw sockets. Each request sends exactly the
    bytes the server reads before it answers, so no unread byte turns the
    close into a reset."""

    @pytest.fixture()
    def served(self, app):
        srv, port = start_http_server(app)
        yield app, port
        srv.shutdown()
        srv.server_close()

    def test_malformed_request_line_is_400(self, served):
        _, port = served
        for line in (b"GARBAGE\r\n", b"\r\n", b"GET /api/search\r\n", b"GET /a b HTTP/1.0\r\n",
                     b"GET /api/search HTTP/2.0\r\n", b"GET /api/search FTP/1.0\r\n", b"GET / HTTP/1.x\r\n"):
            assert _raw(port, line)[::2] == (400, {"error": "malformed request line"}), line

    def test_unsupported_method_is_501(self, served):
        _, port = served
        for method in (b"PUT", b"HEAD", b"get"):
            status, _, body = _raw(port, method + b" /api/search?q=x HTTP/1.0\r\n\r\n")
            assert status == 501 and "error" in body, method

    def test_long_lines_and_too_many_headers(self, served):
        _, port = served
        line = b"GET /api/reverse?lat=0&lon=0 HTTP/1.0\r\n"
        # one byte over the 65,536-byte limit, with no newline
        assert _raw(port, b"GET /" + b"a" * (65537 - 5))[0] == 414
        assert _raw(port, line + b"X: " + b"a" * (65537 - 3))[0] == 431
        assert _raw(port, line + b"X: 1\r\n" * 101)[0] == 431
        assert _raw(port, line + b"X: 1\r\n" * 100 + b"\r\n")[0] == 200

    def test_bad_content_length_is_400(self, served):
        _, port = served
        for value in (b"abc", b"-1", b"1.5", b"+3", b"", b"\xb2"):
            req = b"POST /api/geofence HTTP/1.0\r\nContent-Length: " + value + b"\r\n\r\n"
            status, _, body = _raw(port, req)
            assert (status, body) == (400, {"error": "Content-Length must be a non-negative integer"}), value

    def test_body_after_a_pause_and_lower_case_content_length(self, served):
        app, port = served
        body = b'{"fence_name": "late"}'
        head = b"POST /api/geofence HTTP/1.0\r\ncontent-length: %d\r\n\r\n" % len(body)
        assert _raw(port, head, body)[::2] == (200, {"message": "add geofence success"})
        assert app.handle("DELETE", "/api/geofence/late")[0] == 200  # the fence exists

    def test_closed_connection_then_request(self, served):
        _, port = served
        socket.create_connection(("127.0.0.1", port), timeout=30).close()
        assert _raw(port, b"GET /api/reverse?lat=-6.121&lon=106.831 HTTP/1.0\r\n\r\n")[2]["doc_id"] == 0

    def test_held_partial_request_does_not_block_others(self, app, monkeypatch):
        """A client that sends part of a request and goes silent is dropped
        after the read timeout, so the single-threaded server answers the
        next client."""
        monkeypatch.setattr(serving_http, "_READ_TIMEOUT_S", 0.5)
        srv, port = start_http_server(app)
        try:
            with socket.create_connection(("127.0.0.1", port), timeout=30) as held:
                held.sendall(b"GET /api/rev")
                t0 = time.monotonic()
                with socket.create_connection(("127.0.0.1", port), timeout=3) as c:
                    c.sendall(b"GET /api/reverse?lat=-6.121&lon=106.831 HTTP/1.0\r\n\r\n")
                    raw = b""
                    while chunk := c.recv(65536):
                        raw += chunk
                assert raw.startswith(b"HTTP/1.0 200 ") and time.monotonic() - t0 < 3
                assert held.recv(65536) == b""  # dropped without an answer
        finally:
            srv.shutdown()
            srv.server_close()

    def test_trickled_request_does_not_block_others(self, app, monkeypatch):
        """A client that sends one byte more often than the read timeout
        still has one deadline for its whole request, so it is dropped and
        the single-threaded server answers the next client."""
        monkeypatch.setattr(serving_http, "_READ_TIMEOUT_S", 0.5)
        srv, port = start_http_server(app)
        stop = threading.Event()

        def trickle(sock):
            for b in b"GET /api/reverse?lat=-6.121&lon=106.831" * 4:
                if stop.wait(0.1):
                    return
                try:
                    sock.send(bytes([b]))
                except OSError:  # dropped by the server
                    return

        try:
            with socket.create_connection(("127.0.0.1", port), timeout=30) as held:
                feeder = threading.Thread(target=trickle, args=(held,))
                feeder.start()
                time.sleep(0.2)  # the server is reading the trickled request
                t0 = time.monotonic()
                with socket.create_connection(("127.0.0.1", port), timeout=3) as c:
                    c.sendall(b"GET /api/reverse?lat=-6.121&lon=106.831 HTTP/1.0\r\n\r\n")
                    raw = b""
                    while chunk := c.recv(65536):
                        raw += chunk
                assert raw.startswith(b"HTTP/1.0 200 ") and time.monotonic() - t0 < 3
                stop.set()
                feeder.join()
        finally:
            stop.set()
            srv.shutdown()
            srv.server_close()

    def test_fault_in_app_is_500_with_traceback(self, served, capfd):
        app, port = served
        app.session = None  # search now raises AttributeError: a program fault, not a 400
        status, _, body = _raw(port, b"GET /api/search?q=jalan HTTP/1.0\r\n\r\n")
        assert status == 500 and "AttributeError" in body["error"]
        assert "Traceback" in capfd.readouterr().err
        assert _raw(port, b"GET /api/reverse?lat=-6.121&lon=106.831 HTTP/1.0\r\n\r\n")[0] == 200

    def test_socket_equals_handle(self, served, built):
        """One request per route plus a 404 and a 400: status and JSON over
        the socket equal ``handle``'s on a twin app fed the same requests."""
        _, port = served
        twin = ServingApp(serving.start_session(*built), geofences=GeofenceRegistry(), geo=GEO)
        point = json.dumps({"fence_point_name": "hq", "lat": -6.2, "lon": 106.8, "radius": 1.0}).encode()
        reqs = [
            ("GET", "/api/search", "q=jalan%20ancol&offset=1", b""),
            ("GET", "/api/autocomplete", "q=kebun+bina", b""),
            ("GET", "/api/reverse", "lat=-6.121&lon=106.831", b""),
            ("POST", "/api/geofence", "", b'{"fence_name": "f"}'),
            ("POST", "/api/geofence/f/point", "", point),
            ("GET", "/api/geofence/f", "lat=-6.2&lon=106.8&query_point_id=car", b""),
            ("GET", "/api/geofence/f", "lat=-6.5&lon=106.8&query_point_id=car", b""),
            ("DELETE", "/api/geofence/f", "", b""),
            ("GET", "/api/nope", "", b""),
            ("GET", "/api/reverse", "lat=x&lon=1", b""),
        ]
        for method, path, query, body in reqs:
            target = f"{path}?{query}" if query else path
            head = f"{method} {target} HTTP/1.0\r\nContent-Length: {len(body)}\r\n\r\n".encode()
            status, headers, payload = _raw(port, head + body)
            assert headers["Content-Type"] == "application/json"
            assert (status, payload) == twin.handle(method, path, query, body), (method, target)
