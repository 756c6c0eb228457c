"""One measured run in a fresh process (started by ``run.py``): set up,
measure, check, tear down, and write ``result.json`` into the run
directory. Ray shuts down on every exit path."""

from __future__ import annotations

import argparse
import json
import os
import time

from common import Tracer, cpu_count, import_repo

def main() -> None:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--data-dir", required=True)
    ap.add_argument("--run-dir", required=True)
    ap.add_argument("--ray-tmp", required=True)
    ap.add_argument("--trace-file", required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    a = ap.parse_args()
    import_repo()
    import ray

    with open(os.path.join(a.data_dir, "meta.json")) as f:
        meta = json.load(f)
    tracer = Tracer(bool(a.trace))
    if a.workload == "serve_mixed":
        from serve import ServeWorkload as W
    else:
        from ingest import IngestWorkload as W
    w = W(a.workload, a.data_dir, a.run_dir, tracer, meta)
    try:
        # one set-up per run: it costs 8-16 s on the 4-vCPU sizing host (Ray
        # start, runtime env, builds), a third of the measured time
        setup = w.setup(a.ray_tmp)
        ray_cpus = int(ray.cluster_resources().get("CPU", 0))
        t0 = time.perf_counter()
        metrics = w.measure_traced(a.seconds) if a.trace else w.measure(a.seconds)
        measured_s = time.perf_counter() - t0
    finally:
        w.teardown()
        ray.shutdown()
    if a.trace:
        metrics.update({k: v for k, v in setup.items() if k != "setup_s"})
    else:
        metrics["setup_s"] = setup["setup_s"]
    tracer.extra.update({"workload": a.workload, "setup": setup, "cpus": cpu_count(), "ray_cpus": ray_cpus})
    tracer.write(a.trace_file)
    with open(os.path.join(a.run_dir, "result.json"), "w") as f:
        json.dump({"metrics": metrics, "attempted": w.attempted, "failed": w.failed,
                   "cpus": cpu_count(), "ray_cpus": ray_cpus, "measured_s": measured_s,
                   "self_s": tracer.self_times() if a.trace else {}, "info": w.info}, f)


if __name__ == "__main__":
    main()
