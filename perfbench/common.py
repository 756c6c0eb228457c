"""Shared pieces of one benchmark run: the Ray session, the in-memory
tracer, and small statistics helpers.

A run is one fresh process (``perfbench/run.py`` starts it). It owns one
Ray session whose workers import the repository through the session's
runtime env, so the benchmark works from any working directory.
"""

from __future__ import annotations

import json
import os
import statistics
import subprocess
import sys
import tempfile
import threading
import time
from contextlib import contextmanager

import numpy as np

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
REPO = os.path.dirname(BENCH_DIR)

# AF_UNIX socket paths are limited to 107 bytes; Ray puts its sockets at
# <temp_dir>/session_<timestamp>_<pid>/sockets/plasma_store (~62 bytes
# after the temp dir)
_MAX_RAY_TMP = 44


def import_repo() -> None:
    """Make the repository importable in this process."""
    if REPO not in sys.path:
        sys.path.insert(0, REPO)


def cpu_count() -> int:
    """Cores this process may run on."""
    return len(os.sched_getaffinity(0))


def nproc() -> int:
    """What ``nproc`` reports (it also honours OMP_NUM_THREADS): the core
    count the benchmark gives Ray as logical CPUs."""
    try:
        return int(subprocess.run(["nproc"], capture_output=True, text=True, check=True).stdout)
    except (OSError, ValueError, subprocess.CalledProcessError):
        return cpu_count()


def ray_temp_dir(run_dir: str) -> str:
    """Ray's temp dir inside the run's own directory, unless that path is
    too long for Ray's Unix sockets; then a short private temp dir."""
    path = os.path.join(run_dir, "ray")
    if len(path) <= _MAX_RAY_TMP:
        os.makedirs(path, exist_ok=True)
        return path
    return tempfile.mkdtemp(prefix="pb-ray-")


def ray_init(temp_dir: str) -> None:
    """Start this run's Ray session: logical CPUs = ``nproc``, workers
    import the repository via the runtime env."""
    import ray

    ray.init(
        address="local",
        num_cpus=nproc(),
        include_dashboard=False,
        logging_level="ERROR",
        log_to_driver=False,
        object_store_memory=768 * 1024 * 1024,
        runtime_env={"env_vars": {"PYTHONPATH": REPO}},
        _temp_dir=temp_dir,
    )
    from ray.data import DataContext

    ctx = DataContext.get_current()
    ctx.enable_progress_bars = False
    ctx.print_on_execution_start = False


class Tracer:
    """Spans (name, start, end, parent, attributes) kept in memory and
    written out once, at the end of the run. A disabled tracer records
    nothing and costs one branch per span. The parent of a span is the
    innermost open span of the same thread."""

    def __init__(self, enabled: bool):
        self.enabled = enabled
        self.spans: list[dict] = []
        self._local = threading.local()
        self._lock = threading.Lock()
        self.extra: dict = {}

    def _stack(self) -> list[int]:
        if not hasattr(self._local, "stack"):
            self._local.stack = []
        return self._local.stack

    @contextmanager
    def span(self, name: str, **attrs):
        if not self.enabled:
            yield attrs
            return
        stack = self._stack()
        rec = {"id": None, "name": name, "parent": stack[-1] if stack else None,
               "start": time.perf_counter(), "end": None, "attrs": attrs}
        with self._lock:
            rec["id"] = len(self.spans)
            self.spans.append(rec)
        stack.append(rec["id"])
        try:
            yield attrs
        finally:
            stack.pop()
            rec["end"] = time.perf_counter()

    def add(self, name: str, start: float, end: float, **attrs) -> None:
        """Record a span measured elsewhere (e.g. by the load generator)."""
        if self.enabled:
            with self._lock:
                self.spans.append({"id": len(self.spans), "name": name, "parent": None,
                                   "start": start, "end": end, "attrs": attrs})

    def durations(self, name: str) -> list[float]:
        return [s["end"] - s["start"] for s in self.spans if s["name"] == name]

    def self_times(self) -> dict[str, float]:
        """Per span name: total duration minus the time its direct children
        cover (children of one span run one after another here)."""
        child = [0.0] * len(self.spans)
        for s in self.spans:
            if s["parent"] is not None:
                child[s["parent"]] += s["end"] - s["start"]
        out: dict[str, float] = {}
        for s in self.spans:
            out[s["name"]] = out.get(s["name"], 0.0) + (s["end"] - s["start"]) - child[s["id"]]
        return out

    def write(self, path: str) -> None:
        if not self.enabled:
            return
        os.makedirs(os.path.dirname(path), exist_ok=True)
        with open(path, "w") as f:
            json.dump({"spans": self.spans, "self_s": self.self_times(), **self.extra}, f)


def median(xs) -> float:
    xs = list(xs)
    return float(statistics.median(xs)) if xs else 0.0


def percentile(xs, q: float) -> float:
    """Nearest-rank percentile (q in 0..100); 0 for no samples."""
    xs = np.asarray(xs, dtype=np.float64)
    return float(np.percentile(xs, q, method="inverted_cdf")) if len(xs) else 0.0
