"""Benchmark of guedyn's exact-curve and Monte Carlo paths.

Run from the root of a source checkout:

    python3 perfbench/run.py --workload curves --seed 1 --seconds 30 --trace 0

Each pass runs in a fresh process (worker.py), so no package cache carries
over between passes and set-up time and peak memory are those of one run of
the job.  Passes repeat until ``--seconds`` have been spent (at least
MIN_PASSES); every metric is the median over passes.  With ``--trace 1``
untraced and traced passes alternate, and the per-layer metrics come from the
traced ones.

The second-to-last line of standard output is the full report (all metrics,
check counts, provenance); the last line is the result object.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, ROOT)

MIN_PASSES = 3
# A run must end within 180 s; no pass starts or runs past this.
RUN_LIMIT_S = 165

# Fixed before numpy loads in each worker.  With the package's own threads
# argument this keeps total threads at or below nproc.
BLAS_ENV = {
    "OPENBLAS_NUM_THREADS": "1",
    "OMP_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
    "NUMEXPR_NUM_THREADS": "1",
    "VECLIB_MAXIMUM_THREADS": "1",
}

END_TO_END = ("setup_s", "wall_s", "samples_per_s", "peak_rss_mb")
# Printed in the report but not in BENCHMARK.json: each is defined on some
# workloads only, varies with the seed-chosen check points, or is 0.
REPORT_ONLY = {"scaling_eff": "ratio", "err_max": "rel", "z_max": "sigma", "fail_frac": "ratio"}


def load_spec() -> dict:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        return json.load(fh)


def units(spec: dict) -> dict[str, str]:
    out = {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}
    out.update(REPORT_ONLY)
    return out


def nproc() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:
        return os.cpu_count() or 1


def provenance(seed: int, threads: int) -> dict:
    import numpy
    import scipy

    blas = numpy.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {
        "nproc": threads,
        "blas": {k: blas.get(k) for k in ("name", "version", "openblas configuration")},
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "revision": revision(),
        "thread_env": BLAS_ENV,
        "mc_threads": sorted({1, threads}),
        "seed": seed,
    }


def revision() -> str:
    """git revision when the checkout is a repository, else a hash of src/."""
    if os.path.isdir(os.path.join(ROOT, ".git")):
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                              text=True, timeout=30)
        if proc.returncode == 0:
            return proc.stdout.strip()
    import hashlib

    digest = hashlib.sha256()
    src = os.path.join(ROOT, "src")
    for base, dirs, files in sorted(os.walk(src)):
        dirs.sort()
        for name in sorted(files):
            if name.endswith(".py"):
                path = os.path.join(base, name)
                digest.update(os.path.relpath(path, src).encode())
                with open(path, "rb") as fh:
                    digest.update(fh.read())
    return "src-sha256:" + digest.hexdigest()[:16]


def run_worker(args, trace: int, out_dir: str, threads: int, checked_digest: str,
               timeout: float) -> dict:
    env = dict(os.environ, **BLAS_ENV, PYTHONHASHSEED="0")
    env.pop("PYTHONPATH", None)
    os.makedirs(out_dir, exist_ok=True)
    cmd = [sys.executable, os.path.join(HERE, "worker.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--trace", str(trace), "--size", args.size,
           "--inject", args.inject, "--nproc", str(threads), "--out-dir", out_dir,
           "--checked-digest", checked_digest]
    spawn_ns = time.monotonic_ns()
    try:
        proc = subprocess.run(cmd + ["--spawn-ns", str(spawn_ns)], cwd=ROOT, env=env,
                              capture_output=True, text=True, timeout=timeout)
    except subprocess.TimeoutExpired:
        return {"error": f"pass stopped after {timeout:.0f} s"}
    finally:
        shutil.rmtree(out_dir, ignore_errors=True)
    lines = proc.stdout.strip().splitlines()
    try:
        result = json.loads(lines[-1])
    except (IndexError, json.JSONDecodeError):
        result = {}
    if proc.returncode != 0 or not result:
        result.setdefault("error", f"worker exit {proc.returncode}: {proc.stderr[-2000:]}")
    return result


def median(values):
    values = [v for v in values if v is not None]
    return statistics.median(values) if values else None


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=("full", "tiny"), default="full",
                        help="tiny: small sizes for the self-test")
    parser.add_argument("--inject", choices=("none", "wrong", "nan"), default="none",
                        help="corrupt outputs before checking (self-test only)")
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join(ROOT, "src", "guedyn", "__init__.py")):
        print("error: run from a guedyn source checkout (src/guedyn not found)", file=sys.stderr)
        return 2
    from perfbench.workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        print(f"error: unknown workload {args.workload!r}", file=sys.stderr)
        return 2
    spec = load_spec()
    unit_of = units(spec)
    threads = nproc()
    n_checks = WORKLOADS[args.workload](args.size, args.seed, "", threads).n_checks()

    scratch = os.path.join(ROOT, ".perfbench", f"{os.getpid()}")
    plain, traced, errors = [], [], []
    checked: dict = {}  # first pass whose outputs passed every check
    attempted = failed = 0
    failures: list[str] = []
    start = time.monotonic()
    try:
        while True:
            modes = [0, 1] if args.trace else [0]
            for mode in modes:
                res = run_worker(args, mode, os.path.join(scratch, str(len(plain) + len(traced))),
                                 threads, checked.get("digest", ""),
                                 max(1.0, RUN_LIMIT_S - (time.monotonic() - start)))
                attempted += n_checks
                if "error" in res:
                    failed += n_checks
                    errors.append(res["error"])
                    continue
                failed += res["failed"] + (n_checks - res["attempted"])
                if not res.get("reused"):
                    failures.extend(res["failures"])
                    if res["failed"] == 0 and not checked:
                        checked = res
                (traced if mode else plain).append(res)
            passes = len(plain) + len(traced) + len(errors)
            elapsed = time.monotonic() - start
            per_round = elapsed / max(1, passes) * len(modes)
            if passes >= MIN_PASSES and elapsed + per_round > args.seconds:
                break
            if elapsed + per_round > RUN_LIMIT_S:
                break
            if passes >= 4 * MIN_PASSES and not (plain or traced):
                break  # nothing succeeds; stop early
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
        if os.path.isdir(os.path.dirname(scratch)) and not os.listdir(os.path.dirname(scratch)):
            os.rmdir(os.path.dirname(scratch))

    if not plain or (args.trace and not traced):
        print(json.dumps({"error": "no pass completed", "details": errors[-3:]}), file=sys.stderr)
        return 1

    report = {name: median(r.get(name) for r in plain) for name in END_TO_END + ("scaling_eff",)}
    # Passes that reused a check outcome have the same deviations.
    fully_checked = [r for r in plain + traced if not r.get("reused")]
    for name in ("err_max", "z_max"):
        values = [r.get(name) for r in fully_checked]
        report[name] = None if None in values or not values else max(values)
    report["fail_frac"] = failed / attempted
    layers = {}
    if args.trace:
        # Layers of one pass (the median traced wall), so that its self times
        # plus bench.other_s still add up to its traced wall time.
        ranked = sorted(traced, key=lambda r: r["wall_s"])
        layers = dict(ranked[(len(ranked) - 1) // 2]["layers"])
        layers["bench.trace_overhead"] = (
            median(r["wall_s"] for r in traced) / report["wall_s"] - 1.0)
        metrics = {m["name"]: layers[m["name"]] for m in spec["per_layer"]}
    else:
        metrics = {m["name"]: report[m["name"]] for m in spec["end_to_end"]}

    summary = {
        "workload": args.workload,
        "passes": {"untraced": len(plain), "traced": len(traced), "errored": len(errors)},
        "wall_s_each": [r["wall_s"] for r in plain],
        "setup_s_each": [r["setup_s"] for r in plain],
        "check_s_each": [r["check_s"] for r in plain],
        "checks": {"attempted": attempted, "failed": failed, "first_failures": failures[:5]},
        "metrics": {k: {"value": v, "unit": unit_of[k]} for k, v in report.items()},
        "layers": layers,
        "provenance": provenance(args.seed, threads),
        "errors": errors[-3:],
    }
    print(json.dumps(summary))
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": unit_of[k]} for k, v in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
