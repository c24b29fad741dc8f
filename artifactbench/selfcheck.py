#!/usr/bin/env python3
"""Quick self-check of the benchmark (about three minutes on 2 cores).

    python3 artifactbench/selfcheck.py

* ``BENCHMARK.json`` is exactly what :func:`common.benchmark_manifest`
  describes, and each workload's ``why`` names the tail percentile the
  benchmark computes at ``run_seconds``.
* Every workload runs at a tiny length, untraced and traced, with
  ``REPRO_JOBS``, ``REPRO_CACHE_DIR`` and ``REPRO_FAULT_PLAN`` set to
  values that would break or redirect the program if they reached it:
  each run must pass every output check and print every metric of
  ``BENCHMARK.json`` by name with its unit.
* The traced launcher skips a wrapper target that does not exist, and
  the per-layer report marks the metrics it fed as absent.
"""

from __future__ import annotations

import json
import os
import re
import subprocess
import sys

from common import ROOT, SRC, WORK, benchmark_manifest

HOSTILE_ENV = {"REPRO_JOBS": "not-a-number",
               "REPRO_CACHE_DIR": str(WORK / "must-not-be-used"),
               "REPRO_FAULT_PLAN": str(WORK / "no-such-plan.json")}


def check_manifest() -> dict:
    manifest = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert manifest == benchmark_manifest(), \
        "BENCHMARK.json is stale: run run.py --write-benchmark-json"
    from run import SERVE_REQUESTS_PER_S, passes_for, tail_percentile
    seconds = manifest["run_seconds"]
    counts = {"artifact-cold": 12 * passes_for(seconds),
              "artifact-warm": 12 * passes_for(seconds),
              "serve-sweeps": round(seconds * SERVE_REQUESTS_PER_S)}
    for workload in manifest["workloads"]:
        n = counts[workload["name"]]
        pct = tail_percentile([0.0] * n)[1]
        stated = f"latency_tail_s is p{pct} of {n} requests"
        assert stated in workload["why"], (workload["name"], stated)
    return manifest


def run_workload(manifest: dict, name: str, trace: int) -> None:
    env = dict(os.environ, **HOSTILE_ENV)
    out = subprocess.run(
        [sys.executable, "artifactbench/run.py", "--workload", name,
         "--seed", "7", "--seconds", "1", "--trace", str(trace)],
        cwd=ROOT, env=env, capture_output=True, text=True, timeout=600)
    assert out.returncode == 0, (name, trace, out.stderr[-2000:])
    lines = out.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0, out.stdout[-2000:]
    assert result["attempted"] >= 1
    wanted = manifest["per_layer" if trace else "end_to_end"]
    assert set(result["metrics"]) == {m["name"] for m in wanted}
    for metric in wanted:
        entry = result["metrics"][metric["name"]]
        assert entry["unit"] == metric["unit"], metric
        assert isinstance(entry["value"], (int, float)), (metric, entry)
        printed = re.compile(rf"^{re.escape(metric['name'])} = \S+ "
                             rf"{re.escape(metric['unit'])}$", re.M)
        assert printed.search(out.stdout), metric["name"]
    print(f"ok  {name} --trace {trace}: {result['attempted']} requests")


def check_missing_target() -> None:
    sys.path.insert(0, str(SRC))
    import launcher
    import repro.cli  # noqa: F401 - install() wraps the loaded modules
    from run import per_layer
    launcher.TARGETS += (("cache.get", "repro.harness.executor",
                          "NoSuchCache.get"),)
    rec = launcher.Recorder()
    launcher.install(rec, serve=False)
    assert "repro.harness.executor:NoSuchCache.get" in rec.missing
    assert rec.installed["cache.get"] == 1  # the real target still wraps
    trace = rec.dump()
    trace["installed"]["cache.get"] = 0  # as if ResultCache were deleted
    metrics = per_layer([trace], 0.0, 1.0, 0, 0)
    for name in ("cache.get_calls", "cache.get_s", "cache.hit_ratio"):
        assert metrics[name]["value"] is None and metrics[name]["absent"]
    assert metrics["cache.put_calls"]["value"] == 0
    print("ok  launcher skips missing targets; their metrics are absent")


def main() -> int:
    manifest = check_manifest()
    print("ok  BENCHMARK.json matches the benchmark")
    check_missing_target()
    for workload in manifest["workloads"]:
        for trace in (0, 1):
            run_workload(manifest, workload["name"], trace)
    return 0


if __name__ == "__main__":
    sys.exit(main())
