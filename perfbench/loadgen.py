"""Single-connection HTTP load generator for ``serve_mixed``.

One process, one thread, one request in flight at a time. The facade
speaks HTTP/1.0 (``wsgiref``), so each request opens its own TCP
connection to the server.

    python3 perfbench/loadgen.py --port P --requests requests.json \
        --out records.json --start 0 --rate 30 --open-s 9 --closed-s 6

Open loop: request i is due at ``t0 + i / rate``; it is sent when due, or
as soon as the previous one finishes if the generator is late. Closed
loop: the next request is sent when the previous one completes, for
``--closed-s`` seconds or ``--closed-n`` requests. Every record carries
due/sent/done times (``time.perf_counter``, comparable across processes
on one host), the status and the body.
"""

from __future__ import annotations

import argparse
import http.client
import json
import time
from urllib.parse import quote

FENCE = "bench"


def http_request(port: int, req: dict) -> tuple[int, bytes]:
    """Send one request of the mix; return (status, body)."""
    route = req["route"]
    headers = {}
    body = None
    method = "GET"
    if route in ("search", "autocomplete"):
        path = f"/api/{route}?q={quote(req['q'])}"
    elif route == "reverse":
        path = f"/api/reverse?lat={req['lat']}&lon={req['lon']}"
    elif route == "fence_status":
        path = f"/api/geofence/{FENCE}?lat={req['lat']}&lon={req['lon']}&query_point_id={req['qp']}"
    elif route == "fence_add":
        method, path = "POST", f"/api/geofence/{FENCE}/point"
        body = json.dumps({"fence_point_name": req["name"], "lat": req["lat"], "lon": req["lon"], "radius": req["radius"]})
        headers["Content-Type"] = "application/json"
    elif route == "fence_create":
        method, path = "POST", "/api/geofence"
        body = json.dumps({"fence_name": FENCE})
        headers["Content-Type"] = "application/json"
    else:
        raise ValueError(f"unknown route {route}")
    conn = http.client.HTTPConnection("127.0.0.1", port, timeout=30)
    try:
        conn.request(method, path, body=body, headers=headers)
        resp = conn.getresponse()
        return resp.status, resp.read()
    finally:
        conn.close()


def run(port: int, reqs: list[dict], start: int, rate: float, open_s: float, closed_s: float, closed_n: int) -> list[dict]:
    out = []
    i = start

    def one(phase: str, due: float) -> None:
        nonlocal i
        req = reqs[i % len(reqs)]
        sent = time.perf_counter()
        try:
            status, body = http_request(port, req)
        except OSError as e:
            status, body = 0, str(e).encode()
        done = time.perf_counter()
        out.append({"seq": i, "phase": phase, "route": req["route"], "due": due, "sent": sent,
                    "done": done, "status": status, "body": body.decode("utf-8", "replace")})
        i += 1

    t0 = time.perf_counter()
    n_open = int(open_s * rate)
    for k in range(n_open):
        due = t0 + k / rate
        wait = due - time.perf_counter()
        if wait > 0:
            time.sleep(wait)
        one("open", due)
    t1 = time.perf_counter()
    while (closed_n and len(out) - n_open < closed_n) or (not closed_n and time.perf_counter() - t1 < closed_s):
        now = time.perf_counter()
        one("closed", now)
    return out


def main() -> None:
    ap = argparse.ArgumentParser()
    ap.add_argument("--port", type=int, required=True)
    ap.add_argument("--requests", required=True)
    ap.add_argument("--out", required=True)
    ap.add_argument("--start", type=int, default=0)
    ap.add_argument("--rate", type=float, required=True)
    ap.add_argument("--open-s", type=float, default=0.0)
    ap.add_argument("--closed-s", type=float, default=0.0)
    ap.add_argument("--closed-n", type=int, default=0)
    a = ap.parse_args()
    with open(a.requests) as f:
        reqs = json.load(f)["requests"]
    recs = run(a.port, reqs, a.start, a.rate, a.open_s, a.closed_s, a.closed_n)
    with open(a.out, "w") as f:
        json.dump(recs, f)


if __name__ == "__main__":
    main()
