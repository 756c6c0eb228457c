"""Repository benchmark: HTML-extract ingest and mixed HTTP serving, end
to end and per layer.

    python3 perfbench/run.py --workload ingest_html --seed 1 --seconds 40 --trace 0

Workloads (see WORKLOADS.md): ``ingest_html``, ``serve_mixed``. Inputs are generated from ``--seed`` into
``perfbench/data`` and reused by later runs with the same seed. Each run
measures in a fresh child process with its own Ray session, in its own
process group, killed if it overruns. The last line of stdout is one JSON
object ``{"correct", "attempted", "failed", "metrics"}``: the end-to-end
metrics with ``--trace 0``, the per-layer metrics with ``--trace 1``.
Exits non-zero, printing no result, when a run fails or the repository's
code is missing.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import shutil
import signal
import subprocess
import sys
import time

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
REPO = os.path.dirname(BENCH_DIR)
sys.path.insert(0, BENCH_DIR)

from common import ray_temp_dir  # noqa: E402

# input sizes per workload (receipts in WORKLOADS.md)
SIZES = {
    "ingest_html": {"pages": 3000},
    "serve_mixed": {"docs": 5000, "requests": 8000},
}
TIME_LIMIT_S = 160  # the whole run, generation included; stopping takes the rest of 180 s
KEEP_SEEDS = 2  # generated inputs kept per workload

END_TO_END = {
    "throughput_per_s": "1/s",
    "latency_p50_ms": "ms",
    "setup_s": "s",
}
INGEST_LAYERS = {
    "readers.busy_s": "s", "readers.rows": "count", "readers.bytes": "bytes", "readers.blocks": "count",
    "pages.extract.busy_s": "s", "pages.extract.html_mb": "MB",
    "pages.geo.busy_s": "s", "pages.geo.hit_ratio": "ratio",
    "spatial_join.busy_s": "s", "spatial_join.points_in": "count", "spatial_join.rows_out": "count",
    "checkpoint.busy_s": "s", "checkpoint.exchange_s": "s", "checkpoint.partitions": "count",
    "checkpoint.bytes_written": "bytes", "checkpoint.part_wall_ms_max": "ms",
    "checkpoint.part_rows_max_over_mean": "ratio",
    "ingest.wall_s": "s",
}
SERVE_LAYERS = {
    "text_index.build_s": "s", "lm.build_s": "s", "serving.session_start_s": "s",
    "serving.actor_ms_p50": "ms", "serving.ping_ms_p50": "ms",
    "serving_http.overhead_ms_p50.search": "ms", "serving_http.overhead_ms_p50.autocomplete": "ms",
    "search.core_ms_p50.invocab": "ms", "search.core_ms_p50.typo": "ms",
    "spell.autocomplete_ms_p50": "ms", "geofence.add_point_ms_p50": "ms", "geofence.search_ms_p50": "ms",
    "loadgen.late_ms_p99": "ms",
}
PER_LAYER = {**INGEST_LAYERS, **SERVE_LAYERS, "trace_overhead_s": "s"}


def prepare_inputs(workload: str, seed: int) -> str:
    """Generate the workload's inputs for ``seed`` unless a previous run
    already did with the same generator and sizes; keep the inputs of the
    KEEP_SEEDS newest seeds."""
    import gen

    root = os.path.join(BENCH_DIR, "data")
    _remove_stale(root, lambda d: int(d.rsplit(".tmp", 1)[1]) if ".tmp" in d else None)
    final = os.path.join(root, f"{workload}-{seed}")
    with open(gen.__file__, "rb") as f:
        key = hashlib.sha256(f.read() + json.dumps(SIZES[workload]).encode()).hexdigest()
    try:
        with open(os.path.join(final, "meta.json")) as f:
            if json.load(f)["key"] == key:
                os.utime(final)
                return final
    except (OSError, ValueError, KeyError):
        pass
    tmp = f"{final}.tmp{os.getpid()}"
    shutil.rmtree(tmp, ignore_errors=True)
    os.makedirs(tmp)
    size = SIZES[workload]
    if workload == "ingest_html":
        meta = gen.gen_html(tmp, seed, size["pages"])
    else:
        meta = gen.gen_docs(tmp, seed, size["docs"], size["requests"])
    with open(os.path.join(tmp, "meta.json"), "w") as f:
        json.dump({**meta, "key": key}, f)
    shutil.rmtree(final, ignore_errors=True)
    os.replace(tmp, final)
    mine = sorted(
        (d for d in os.listdir(root) if d.startswith(f"{workload}-") and ".tmp" not in d),
        key=lambda d: os.path.getmtime(os.path.join(root, d)),
    )
    for old in mine[:-KEEP_SEEDS]:
        shutil.rmtree(os.path.join(root, old), ignore_errors=True)
    return final


def _stop(p: subprocess.Popen) -> None:
    """SIGKILL every process left in the child's process group (the child
    and the Ray processes it started) and wait until they are gone."""
    try:
        os.killpg(p.pid, signal.SIGKILL)
    except ProcessLookupError:
        pass
    p.wait()
    for _ in range(200):
        try:
            os.killpg(p.pid, 0)
        except ProcessLookupError:
            return
        time.sleep(0.05)


def _alive(pid: int) -> bool:
    try:
        os.kill(pid, 0)
    except ProcessLookupError:
        return False
    except PermissionError:
        pass
    return True


def _remove_stale(root: str, pid_of) -> None:
    """Remove entries of ``root`` left by runs that were killed outright;
    ``pid_of(name)`` gives the pid that owns an entry, or None."""
    for d in os.listdir(root) if os.path.isdir(root) else []:
        pid = pid_of(d)
        if pid is not None and not _alive(pid):
            shutil.rmtree(os.path.join(root, d), ignore_errors=True)


def run_child(args, data_dir: str, deadline: float) -> dict | None:
    runs = os.path.join(BENCH_DIR, "runs")
    _remove_stale(runs, lambda d: int(d) if d.isdigit() else None)
    run_dir = os.path.join(runs, str(os.getpid()))
    shutil.rmtree(run_dir, ignore_errors=True)
    os.makedirs(run_dir)
    ray_tmp = ray_temp_dir(run_dir)
    trace_file = os.path.join(BENCH_DIR, "traces", f"{args.workload}-{args.seed}.json")
    cmd = [sys.executable, os.path.join(BENCH_DIR, "child.py"), "--workload", args.workload,
           "--data-dir", data_dir, "--run-dir", run_dir, "--ray-tmp", ray_tmp,
           "--trace-file", trace_file, "--seconds", str(args.seconds), "--trace", str(args.trace)]
    env = dict(os.environ, RAY_TMPDIR=ray_tmp)
    p = None
    try:
        # the child leads its own process group, so every process it starts
        # (Ray's included) can be found and stopped
        p = subprocess.Popen(cmd, cwd=run_dir, env=env, stdout=sys.stderr, start_new_session=True)
        try:
            rc = p.wait(timeout=max(1.0, deadline - time.monotonic()))
        except subprocess.TimeoutExpired:
            print(f"run exceeded its {TIME_LIMIT_S} s limit: recorded as failed", file=sys.stderr)
            return None
        if rc != 0:
            print(f"measuring process failed with exit code {rc}", file=sys.stderr)
            return None
        with open(os.path.join(run_dir, "result.json")) as f:
            return json.load(f)
    finally:
        if p is not None:
            _stop(p)
        shutil.rmtree(run_dir, ignore_errors=True)
        shutil.rmtree(ray_tmp, ignore_errors=True)


def main() -> int:
    t_start = time.monotonic()
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(SIZES))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    # a terminated run still stops its processes and removes its files
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    if not os.path.isdir(os.path.join(REPO, "osm_search_ray")):
        print(f"no osm_search_ray package beside {BENCH_DIR}: nothing to measure", file=sys.stderr)
        return 2
    data_dir = prepare_inputs(args.workload, args.seed)
    res = run_child(args, data_dir, t_start + TIME_LIMIT_S)
    if res is None:
        return 1
    names = PER_LAYER if args.trace else END_TO_END
    if args.trace:
        # the layers of the other workload family do no work in this run
        idle = SERVE_LAYERS if args.workload == "ingest_html" else INGEST_LAYERS
        res["metrics"].update({n: 0.0 for n in idle})
    missing = [n for n in names if n not in res["metrics"]]
    if missing:
        print(f"run produced no value for {missing}", file=sys.stderr)
        return 1
    metrics = {n: {"value": float(res["metrics"][n]), "unit": u} for n, u in names.items()}
    attempted, failed = int(res["attempted"]), int(res["failed"])
    print(f"workload={args.workload} seed={args.seed} trace={args.trace} cpus={res['cpus']} "
          f"ray_cpus={res['ray_cpus']} measured_s={res['measured_s']:.1f}")
    for n, m in metrics.items():
        print(f"  {n:44s} {m['value']:14.4f} {m['unit']}")
    for n, v in res["info"].items():
        print(f"  info {n:39s} {v}")
    for n, v in sorted(res["self_s"].items()):
        print(f"  self_s {n:37s} {v:14.4f} s")
    print(f"  {'failed_share':44s} {failed / max(1, attempted):14.4f} ratio ({failed} of {attempted})")
    print(json.dumps({"correct": failed == 0 and attempted > 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
