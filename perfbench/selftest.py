"""Smoke test of the benchmark itself, at tiny sizes (about a minute).

    python3 perfbench/selftest.py

Asserts that
* every metric named in BENCHMARK.json is emitted with its unit, untraced
  (end-to-end) and traced (per-layer), and the report line carries the
  report-only metrics;
* the traced self times plus bench.other_s add up to the traced wall time;
* an injected wrong or NaN output is counted in fail_frac and makes the run
  incorrect;
* run.py fails without printing a result where there is no package source.
"""

from __future__ import annotations

import json
import math
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, ROOT)

from perfbench.run import REPORT_ONLY, load_spec  # noqa: E402
from perfbench.workloads import WORKLOADS  # noqa: E402

LAYER_TOTALS = ("cli.main.self_s", "spectral.self_s", "haar.self_s", "symgroup.self_s",
                "sim.self_s", "models.self_s", "linalg.self_s", "bench.other_s")


def run(workload: str, trace: int, *extra: str, cwd: str = ROOT):
    cmd = [sys.executable, os.path.join(cwd, "perfbench", "run.py"), "--workload", workload,
           "--seed", "5", "--seconds", "0", "--trace", str(trace), "--size", "tiny", *extra]
    proc = subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=170)
    return proc


def parse(proc):
    if proc.returncode != 0:
        raise AssertionError(f"exit {proc.returncode}: {proc.stderr[-2000:]}")
    lines = proc.stdout.strip().splitlines()
    return json.loads(lines[-2]), json.loads(lines[-1])


def check_metrics(result: dict, wanted: list[dict]) -> None:
    assert set(result) == {"correct", "attempted", "failed", "metrics"}, set(result)
    names = [m["name"] for m in wanted]
    assert sorted(result["metrics"]) == sorted(names), set(names) ^ set(result["metrics"])
    for m in wanted:
        got = result["metrics"][m["name"]]
        assert got["unit"] == m["unit"], (m["name"], got["unit"], m["unit"])
        assert isinstance(got["value"], (int, float)) and math.isfinite(got["value"]), (m, got)


def main() -> int:
    spec = load_spec()
    for name in WORKLOADS:
        report, result = parse(run(name, 0))
        check_metrics(result, spec["end_to_end"])
        assert result["correct"] and result["failed"] == 0, report["checks"]
        for metric, unit in REPORT_ONLY.items():
            assert report["metrics"][metric]["unit"] == unit, metric
        assert report["metrics"]["fail_frac"]["value"] == 0.0

        report, result = parse(run(name, 1))
        check_metrics(result, spec["per_layer"])
        layers = report["layers"]
        total = sum(layers[k] for k in LAYER_TOTALS)
        assert abs(total - layers["bench.traced_wall_s"]) <= 1e-9 * max(1.0, total), (
            total, layers["bench.traced_wall_s"])

        for mode in ("wrong", "nan"):
            report, result = parse(run(name, 0, "--inject", mode))
            assert not result["correct"] and result["failed"] > 0, (name, mode, result)
            assert report["metrics"]["fail_frac"]["value"] > 0, (name, mode)
        print(f"{name}: ok")

    bare = os.path.join(ROOT, ".perfbench", f"selftest-{os.getpid()}")
    try:
        shutil.copytree(HERE, os.path.join(bare, "perfbench"),
                        ignore=shutil.ignore_patterns("__pycache__"))
        shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
        proc = run("curves", 0, cwd=bare)
        assert proc.returncode != 0 and not proc.stdout.strip(), (proc.returncode, proc.stdout)
    finally:
        shutil.rmtree(bare, ignore_errors=True)
    print("no source checkout: refused, as required")
    print("selftest: ok")
    return 0


if __name__ == "__main__":
    sys.exit(main())
