"""Geofence parity tests (reference pkg/datastructure/circle_test.go and
pkg/geofence/geofence.go transition rules)."""

import numpy as np
import pandas as pd
import pytest
import ray.data
from hypothesis import given, settings
from hypothesis import strategies as st

from osm_search_ray.functions.geometry import haversine_km
from osm_search_ray.serving_http import GeofenceRegistry
from osm_search_ray.stages.geofence import fence_status_flow, line_circle_intersect


CENTER = (-7.5680, 110.8117)  # circle_test.go fixture, r = 1 km
RADIUS = 1.0


class TestCircle:
    def test_contains(self):
        # a point ~500 m away is inside; ~2 km away is outside
        inside = haversine_km(CENTER[0], CENTER[1], -7.5680, 110.8117 + 0.0045) <= RADIUS
        outside = haversine_km(CENTER[0], CENTER[1], -7.5680, 110.8117 + 0.02) <= RADIUS
        assert bool(inside) and not bool(outside)

    def test_line_circle_crossing(self):
        # segment passing straight through the center crosses
        hit = line_circle_intersect(
            np.array([CENTER[0]]), np.array([CENTER[1] - 0.05]),
            np.array([CENTER[0]]), np.array([CENTER[1] + 0.05]),
            CENTER[0], CENTER[1], RADIUS,
        )
        assert hit[0]
        # far-away parallel segment does not
        miss = line_circle_intersect(
            np.array([CENTER[0] + 0.5]), np.array([CENTER[1] - 0.05]),
            np.array([CENTER[0] + 0.5]), np.array([CENTER[1] + 0.05]),
            CENTER[0], CENTER[1], RADIUS,
        )
        assert not miss[0]


class TestTransitions:
    @pytest.fixture()
    def fences(self):
        return pd.DataFrame({"key": [1], "lat": [CENTER[0]], "lon": [CENTER[1]], "radius_km": [RADIUS]})

    def _run(self, pts, fences):
        ds = ray.data.from_pandas(pts)
        return fence_status_flow(ds, fences, k_nearest=1).to_pandas()

    def test_enter_inside_exit(self, fences):
        ts = pd.to_datetime(["2024-01-01 00:00", "2024-01-01 00:01", "2024-01-01 00:02", "2024-01-01 00:03"])
        pts = pd.DataFrame(
            {
                "event_id": [0, 1, 2, 3],
                "point_id": [7, 7, 7, 7],
                "ts": ts,
                "lat": [CENTER[0], CENTER[0], CENTER[0], CENTER[0]],
                "lon": [CENTER[1] + 0.05, CENTER[1], CENTER[1] + 0.001, CENTER[1] + 0.05],
            }
        )
        out = self._run(pts, fences)
        by_ev = out.groupby("event_id")["status"].apply(list).to_dict()
        assert by_ev[0] == ["OUTSIDE"]  # first point: sentinel prev, outside
        assert by_ev[1] == ["ENTER", "INSIDE"]
        assert by_ev[2] == ["INSIDE"]
        assert by_ev[3] == ["EXIT", "OUTSIDE"]

    def test_cross_without_entering_sample(self, fences):
        # both endpoints outside, segment passes through the circle → CROSS
        ts = pd.to_datetime(["2024-01-01 00:00", "2024-01-01 00:01"])
        pts = pd.DataFrame(
            {
                "event_id": [0, 1],
                "point_id": [8, 8],
                "ts": ts,
                "lat": [CENTER[0], CENTER[0]],
                "lon": [CENTER[1] - 0.05, CENTER[1] + 0.05],
            }
        )
        out = self._run(pts, fences)
        assert out[out["event_id"] == 1]["status"].tolist() == ["CROSS"]


class TestIncrementalState:
    def test_incremental_equals_full_replay(self):
        """Processing the event log in two batches with the carried last-value
        table gives the SAME statuses as one full replay (the kvdb
        last-point-store semantics, fence_index.go:56-71)."""
        import ray.data

        from osm_search_ray.stages.geofence import fence_status_incremental

        fences = pd.DataFrame({"key": [1], "lat": [CENTER[0]], "lon": [CENTER[1]], "radius_km": [RADIUS]})
        ts = pd.to_datetime(
            ["2024-01-01 00:00", "2024-01-01 00:01", "2024-01-01 00:02", "2024-01-01 00:03"]
        )
        pts = pd.DataFrame(
            {
                "event_id": [0, 1, 2, 3],
                "point_id": [7, 7, 7, 7],
                "ts": ts,
                "lat": [CENTER[0]] * 4,
                "lon": [CENTER[1] + 0.05, CENTER[1], CENTER[1] + 0.001, CENTER[1] + 0.05],
            }
        )
        full = fence_status_flow(ray.data.from_pandas(pts), fences, k_nearest=1).to_pandas()

        s1, state = fence_status_incremental(ray.data.from_pandas(pts.iloc[:2]), fences, None, k_nearest=1)
        s2, state2 = fence_status_incremental(ray.data.from_pandas(pts.iloc[2:]), fences, state, k_nearest=1)
        inc = pd.concat([s1.to_pandas(), s2.to_pandas()], ignore_index=True)

        key = ["event_id", "fence_key", "status"]
        pd.testing.assert_frame_equal(
            full[key].sort_values(key).reset_index(drop=True), inc[key].sort_values(key).reset_index(drop=True)
        )
        # the carried state holds the LAST position
        assert state2[state2["point_id"] == 7]["lon"].iloc[0] == pytest.approx(CENTER[1] + 0.05)


_CENTERS = [(-6.2, 106.8), (-6.21, 106.8), (-6.2, 106.82)]


@settings(max_examples=25, deadline=None, derandomize=True)
@given(
    fences=st.lists(
        st.tuples(st.sampled_from("abcde"), st.sampled_from(_CENTERS), st.sampled_from([0.2, 1.0, 2.5])),
        min_size=1,
        max_size=7,
    ),
    track=st.lists(
        st.tuples(st.sampled_from([-6.23, -6.21, -6.2, -6.19, -6.17]), st.sampled_from([106.77, 106.8, 106.81, 106.84])),
        min_size=1,
        max_size=5,
    ),
)
def test_registry_equals_batch_flow(fences, track):
    """Replaying one point's track through ``GeofenceRegistry.search`` gives
    the same (fence_key, status) rows, in the same order, as the batch
    ``fence_status_flow`` over that track. Fences share centers (distance
    ties broken by key) and re-adding a name gives it a new key."""
    reg = GeofenceRegistry()
    reg.add_fence("f")
    table = {}  # point name → (key, lat, lon, radius_km), keyed as the registry keys them
    for key, (name, (lat, lon), radius) in enumerate(fences, start=1):
        reg.add_point("f", name, lat, lon, radius)
        table[name] = (key, lat, lon, radius)
    key_of = {name: v[0] for name, v in table.items()}
    got = []
    for lat, lon in track:
        rows = reg.search("f", lat, lon, "car")["statuses"]
        got.append([(key_of[r["fence_point_name"]], r["status"]) for r in rows])
    fence_df = pd.DataFrame(list(table.values()), columns=["key", "lat", "lon", "radius_km"])
    pts = pd.DataFrame(
        {
            "event_id": np.arange(len(track), dtype=np.int64),
            "point_id": np.ones(len(track), dtype=np.int64),
            "ts": pd.date_range("2024-01-01", periods=len(track), freq="min"),
            "lat": [p[0] for p in track],
            "lon": [p[1] for p in track],
        }
    )
    out = fence_status_flow(ray.data.from_pandas(pts), fence_df).to_pandas()
    want = [list(zip(g["fence_key"], g["status"])) for _, g in out.groupby("event_id", sort=True)]
    assert got == want
