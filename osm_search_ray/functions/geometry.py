"""Vectorized geometry kernels (numpy), reproducing the reference semantics.

Reference algorithms (citations into /root/reference/):
  - haversine km, R=6371           pkg/datastructure/distance.go:19-28
  - equirectangular approx         pkg/datastructure/distance.go:31-35
      (quirk: lat/lon in DEGREES fed into a radians-shaped formula; kept
       verbatim because the reference uses it as the NN ranking metric)
  - winding-number point-in-polygon with on-segment short-circuit
                                   pkg/geo/geometry.go:86-122
  - median "centroid": sort each axis independently, take element len/2
                                   pkg/index/indexer.go:168-181 (ways),
                                   pkg/geo/parse_osm.go:370-387 (relations)
  - great-circle midpoint          pkg/geo/geometry.go:63-76
  - line-segment × circle test     pkg/datastructure/circle.go:54-96
"""

from __future__ import annotations

import numpy as np

EARTH_RADIUS_KM = 6371.0
KM_PER_DEG_LAT = EARTH_RADIUS_KM * np.pi / 180.0  # 111.19492664455873


def haversine_km(lat1, lon1, lat2, lon2) -> np.ndarray:
    """Great-circle distance in km (R=6371), fully vectorized.

    Parity: pkg/datastructure/distance.go:19-28.
    """
    lat1, lon1, lat2, lon2 = (np.radians(np.asarray(a, dtype=np.float64)) for a in (lat1, lon1, lat2, lon2))
    dlat = lat2 - lat1
    dlon = lon2 - lon1
    h = np.sin(dlat / 2.0) ** 2 + np.cos(lat1) * np.cos(lat2) * np.sin(dlon / 2.0) ** 2
    return 2.0 * EARTH_RADIUS_KM * np.arcsin(np.sqrt(h))


def equirect_approx(lat1, lon1, lat2, lon2) -> np.ndarray:
    """Reference's NN ranking metric — degrees fed into a radians formula
    (pkg/datastructure/distance.go:31-35). Monotone enough for ranking;
    intentionally NOT 'fixed' so orderings match the reference."""
    lat1, lon1, lat2, lon2 = (np.asarray(a, dtype=np.float64) for a in (lat1, lon1, lat2, lon2))
    x = (lon2 - lon1) * np.cos(0.5 * (lat2 + lat1))
    y = lat2 - lat1
    return EARTH_RADIUS_KM * np.sqrt(x * x + y * y)


def point_on_segment(px, py, ax, ay, bx, by, eps: float = 1e-12) -> np.ndarray:
    """True where point P lies on segment AB (collinear + within bbox).

    DELIBERATE DEVIATION from pkg/geo/geometry.go:100-106 (ADVICE r01): the
    reference's isPointOnSegment has NO collinearity test — it returns true
    for ANY point inside an edge's bounding box, so its winding number marks
    such points "inside" even when they are far from the edge (a bug for
    non-axis-aligned edges). We add the cross-product collinearity check so
    only genuinely on-edge points short-circuit to inside. Also recorded in
    SURVEY.md §7.4.
    """
    px, py, ax, ay, bx, by = (np.asarray(v, dtype=np.float64) for v in (px, py, ax, ay, bx, by))
    cross = (bx - ax) * (py - ay) - (by - ay) * (px - ax)
    within = (
        (px >= np.minimum(ax, bx) - eps)
        & (px <= np.maximum(ax, bx) + eps)
        & (py >= np.minimum(ay, by) - eps)
        & (py <= np.maximum(ay, by) + eps)
    )
    return (np.abs(cross) <= eps) & within


def points_in_polygon(lat: np.ndarray, lon: np.ndarray, ring_lat: np.ndarray, ring_lon: np.ndarray) -> np.ndarray:
    """Winding-number PIP of many points against ONE polygon ring, vectorized
    over the points. Points exactly on an edge count as inside (the
    reference's short-circuit, pkg/geo/geometry.go:100-106).

    The ring need not be closed or oriented — mirrors the reference's loose
    ring assembly (pkg/geo/parse_osm.go:348-368).
    """
    lat = np.asarray(lat, dtype=np.float64)
    lon = np.asarray(lon, dtype=np.float64)
    rlat = np.asarray(ring_lat, dtype=np.float64)
    rlon = np.asarray(ring_lon, dtype=np.float64)
    if rlat[0] != rlat[-1] or rlon[0] != rlon[-1]:
        rlat = np.append(rlat, rlat[0])
        rlon = np.append(rlon, rlon[0])
    # vertices of each edge: (x=lon, y=lat), shape (E, 1) broadcast vs (P,)
    x0 = rlon[:-1, None]
    y0 = rlat[:-1, None]
    x1 = rlon[1:, None]
    y1 = rlat[1:, None]
    px = lon[None, :]
    py = lat[None, :]

    on_edge = point_on_segment(px, py, x0, y0, x1, y1).any(axis=0)

    # winding number (nonzero rule), vectorized: same algorithm family as the
    # reference's isLeft-based winding loop (pkg/geo/geometry.go:86-122)
    is_left = (x1 - x0) * (py - y0) - (px - x0) * (y1 - y0)
    upward = (y0 <= py) & (y1 > py) & (is_left > 0)
    downward = (y0 > py) & (y1 <= py) & (is_left < 0)
    wn = upward.sum(axis=0).astype(np.int64) - downward.sum(axis=0).astype(np.int64)
    return (wn != 0) | on_edge


def median_centroid(lat: np.ndarray, lon: np.ndarray) -> tuple[float, float]:
    """Reference 'centroid': sort each axis INDEPENDENTLY, take element
    ``len // 2`` of each (pkg/index/indexer.go:168-181) — upper median for
    even lengths, axes decoupled. Reproduced exactly.
    """
    lat = np.sort(np.asarray(lat, dtype=np.float64))
    lon = np.sort(np.asarray(lon, dtype=np.float64))
    return float(lat[len(lat) // 2]), float(lon[len(lon) // 2])


def midpoint(lat1: float, lon1: float, lat2: float, lon2: float) -> tuple[float, float]:
    """Great-circle midpoint (street midpoint M7, pkg/geo/geometry.go:63-76)."""
    p1, l1, p2, l2 = map(np.radians, (lat1, lon1, lat2, lon2))
    bx = np.cos(p2) * np.cos(l2 - l1)
    by = np.cos(p2) * np.sin(l2 - l1)
    lat3 = np.arctan2(np.sin(p1) + np.sin(p2), np.sqrt((np.cos(p1) + bx) ** 2 + by**2))
    lon3 = l1 + np.arctan2(by, np.cos(p1) + bx)
    return float(np.degrees(lat3)), float(np.degrees(lon3))


def bbox_contains(outer: tuple[float, float, float, float], inner: tuple[float, float, float, float]) -> bool:
    """Outer MBR fully contains inner MBR (dedup rule D1,
    pkg/index/indexer.go:603-635)."""
    return outer[0] <= inner[0] and outer[1] <= inner[1] and outer[2] >= inner[2] and outer[3] >= inner[3]


def segment_intersects_circle(
    ax, ay, bx, by, cx: float, cy: float, r: float
) -> np.ndarray:
    """True where segment AB intersects / touches circle (C, r), in the same
    planar coordinates the caller supplies (the reference feeds lat/lon
    degrees with radius converted to degrees; pkg/datastructure/circle.go:54-96
    solves the projected quadratic the same way)."""
    ax, ay, bx, by = (np.asarray(v, dtype=np.float64) for v in (ax, ay, bx, by))
    dx = bx - ax
    dy = by - ay
    fx = ax - cx
    fy = ay - cy
    a = dx * dx + dy * dy
    b = 2.0 * (fx * dx + fy * dy)
    c = fx * fx + fy * fy - r * r
    disc = b * b - 4.0 * a * c
    hit = np.zeros(np.broadcast(ax, bx).shape, dtype=bool)
    ok = (disc >= 0) & (a > 0)
    sq = np.sqrt(np.where(ok, disc, 0.0))
    with np.errstate(divide="ignore", invalid="ignore"):
        t1 = np.where(ok, (-b - sq) / (2.0 * a), np.nan)
        t2 = np.where(ok, (-b + sq) / (2.0 * a), np.nan)
    hit |= ok & (((t1 >= 0) & (t1 <= 1)) | ((t2 >= 0) & (t2 <= 1)))
    return hit


def destination_point(lat: float, lon: float, bearing_deg: float, dist_km: float) -> tuple[float, float]:
    """Great-circle destination (M17). NOTE: the reference's version has a
    `+` vs `*` typo (pkg/geo/geometry.go:131) and is dead code; this is the
    CORRECT formula, provided as a utility."""
    p1, l1, br = map(np.radians, (lat, lon, bearing_deg))
    ad = dist_km / EARTH_RADIUS_KM
    p2 = np.arcsin(np.sin(p1) * np.cos(ad) + np.cos(p1) * np.sin(ad) * np.cos(br))
    l2 = l1 + np.arctan2(np.sin(br) * np.sin(ad) * np.cos(p1), np.cos(ad) - np.sin(p1) * np.sin(p2))
    return float(np.degrees(p2)), float(np.degrees(l2))
