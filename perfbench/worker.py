"""One timed pass of one workload in a fresh process; prints one JSON line.

Started by run.py with BLAS thread variables already fixed in the
environment, so they hold before numpy is first imported here.  The pass:
import the package, warm up once at the workload's sizes, empty every
package cache, time the job (traced or not), then check the outputs
untimed.  A pass that raises fails every check it would have made.  A
pass whose outputs are bit-identical to those of a fully checked earlier
pass of the same run (same seed) reuses that pass's check outcome.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import resource
import sys
import time
import traceback

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def clear_package_caches(guedyn) -> None:
    """Empty every functools cache of the package (F matrices, index
    tables, Weingarten values, characters) so the timed job starts as one
    CLI invocation does."""
    for mod in (guedyn.cli, guedyn.haar, guedyn.models, guedyn.sim, guedyn.spectral,
                guedyn.symgroup):
        for obj in vars(mod).values():
            if callable(getattr(obj, "cache_clear", None)):
                obj.cache_clear()


def f_cache_hit_ratio(guedyn) -> float:
    """Hit ratio of the F-matrix cache over the job; 0 when there is no such cache."""
    cached = getattr(guedyn.spectral, "_f_matrix_cached", None)
    if cached is None or not hasattr(cached, "cache_info"):
        return 0.0
    info = cached.cache_info()
    total = info.hits + info.misses
    return info.hits / total if total else 0.0


def dir_bytes(path: str) -> int:
    return sum(os.path.getsize(os.path.join(path, f)) for f in os.listdir(path))


def inject(value, mode: str):
    """Corrupt every float array of a job's outputs (self-test only)."""
    import numpy as np

    if isinstance(value, dict):
        return {k: inject(v, mode) for k, v in value.items()}
    if isinstance(value, np.ndarray) and value.dtype.kind in "fc":
        return value * 1.25 if mode == "wrong" else np.full_like(value, np.nan)
    return value


def run_pass(args) -> dict:
    sys.path.insert(0, os.path.join(ROOT, "src"))
    sys.path.insert(0, ROOT)
    import guedyn
    import guedyn.cli

    from perfbench import trace, workloads

    job_dir = os.path.join(args.out_dir, "job")
    warm_dir = os.path.join(args.out_dir, "warm")
    os.makedirs(job_dir, exist_ok=True)
    os.makedirs(warm_dir, exist_ok=True)
    make = workloads.WORKLOADS[args.workload]
    workload = make(args.size, args.seed, warm_dir, args.nproc)
    workload.warmup(guedyn)
    clear_package_caches(guedyn)
    workload.out_dir = job_dir
    setup_s = (time.monotonic_ns() - args.spawn_ns) / 1e9

    checks = workloads.Checks()
    result = {"setup_s": setup_s}
    tracer = trace.Tracer().install(guedyn) if args.trace else None
    try:
        start = time.perf_counter()
        out = workload.run(guedyn)
        wall_s = time.perf_counter() - start
    finally:
        if tracer is not None:
            tracer.uninstall()
    result["wall_s"] = wall_s
    result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    result["samples"] = workload.samples()
    walls = out.get("wall_by_threads")
    if walls:
        t_one, t_all = walls[1], walls[max(walls)]
        result["samples_per_s"] = result["samples"] / t_all
        result["scaling_eff"] = t_one / (max(walls) * t_all)
    else:
        result["samples_per_s"] = result["samples"] / wall_s
    if tracer is not None:
        result["layers"] = trace.layer_metrics(
            tracer, wall_s, f_cache_hit_ratio(guedyn), dir_bytes(job_dir),
            workloads.McD256.families)

    start = time.perf_counter()
    out = workload.load(out)
    if args.inject != "none":
        out = inject(out, args.inject)
    result["digest"] = digest(out)
    if result["digest"] == args.checked_digest:
        # Bit-identical to outputs that an earlier pass of this run checked:
        # every check has the same outcome, so it is not recomputed.
        result.update(attempted=workload.n_checks(), failed=0, reused=True)
    else:
        workload.check(out, checks)
        result.update(attempted=checks.attempted, failed=checks.failed,
                      err_max=checks.err_max, z_max=checks.z_max, failures=checks.failures)
    result["check_s"] = time.perf_counter() - start
    return result


def digest(value) -> str:
    """SHA-256 over the job's outputs (keys, exit codes, array bytes)."""
    import numpy as np

    h = hashlib.sha256()

    def feed(v):
        if isinstance(v, dict):
            for k in sorted(v, key=str):
                h.update(repr(k).encode())
                feed(v[k])
        elif isinstance(v, np.ndarray):
            h.update(repr((v.dtype.str, v.shape)).encode())
            h.update(np.ascontiguousarray(v).tobytes())
        else:
            h.update(repr(v).encode())

    feed({k: v for k, v in value.items() if k != "wall_by_threads"})
    return h.hexdigest()


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=("full", "tiny"), default="full")
    parser.add_argument("--inject", choices=("none", "wrong", "nan"), default="none")
    parser.add_argument("--nproc", type=int, required=True)
    parser.add_argument("--out-dir", required=True)
    parser.add_argument("--checked-digest", default="",
                        help="digest of outputs an earlier pass of this run fully checked")
    parser.add_argument("--spawn-ns", type=int, required=True,
                        help="time.monotonic_ns() of the parent just before it started this process")
    args = parser.parse_args()
    try:
        result = run_pass(args)
    except Exception:
        traceback.print_exc()
        result = {"error": traceback.format_exc(limit=3)}
    for key in ("err_max", "z_max"):
        if result.get(key) is not None and not math.isfinite(result[key]):
            result[key] = None  # strict JSON; the failed checks carry the news
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
