#!/usr/bin/env python3
"""Artifact-level benchmark of the ``repro`` CLI and sweep service.

Run from the root of a checkout::

    python3 artifactbench/run.py --workload artifact-cold --seed 1 \\
        --seconds 20 --trace 0
    python3 artifactbench/run.py --write-benchmark-json

Workloads (see ``artifactbench/NOTES.md`` for why each exists):

* ``artifact-cold``: every ``repro figure`` id as its own process, in
  seeded order, each pass on a fresh empty ``--cache-dir``;
* ``artifact-warm``: the same commands on a cache an untimed pass
  filled;
* ``serve-sweeps``: ``repro serve --engine vector`` answering seeded
  ``POST /sweep`` grids from two closed-loop client threads.

The program only ever runs from outside: CLI subprocesses and HTTP.
Every program process gets the checkout's ``src`` on ``PYTHONPATH``, no
``REPRO_JOBS``/``REPRO_CACHE_DIR``/``REPRO_FAULT_PLAN``, and a per-run
cache directory under ``.bench_work/`` that is deleted afterwards.

``--trace 0`` prints the end-to-end metrics.  ``--trace 1`` sends the
requests (one pass, for the artifact workloads) untraced, through
``artifactbench/launcher.py``, and untraced again, and prints the
per-layer metrics.  Every output is checked: figure
stdout (``[sweep]`` lines dropped) against pinned digests for the
program's default seed, else against an untimed ``--no-cache``
rendering; every sweep record against an in-process vector
``SweepExecutor``.  The last stdout line is one JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import json
import os
import random
import re
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import threading
import time
import urllib.error
import urllib.request
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, List, Optional

from common import (ARTIFACT_PASSES_PER_S, DEFAULT_SEED, DIGESTS, END_TO_END,
                    ENGINE, FIGURE_IDS, LAUNCHER, NO_MEGA, PER_LAYER,
                    REFERENCE, ROOT, SERVE_REQUESTS_PER_S, SERVE_SIZES,
                    SERVE_WORKLOADS, SRC, TAIL_BEYOND, WORK, WORKLOADS,
                    benchmark_manifest, output_digest, program_env,
                    record_digest, spec_label)

PY = sys.executable
FIGURE_TIMEOUT_S = 150.0
SERVER_TIMEOUT_S = 60.0
HTTP_TIMEOUT_S = 120.0
SETUP_SAMPLES = 3
SERVE_SETUP_SAMPLES = 3
CLIENTS = 2
READY_LINE = re.compile(r"\[serve\] listening on http://[^:]+:(\d+)")
CLK_TCK = os.sysconf("SC_CLK_TCK")


class BenchError(RuntimeError):
    """The benchmark could not measure (as opposed to a failed request)."""


@dataclass
class Request:
    """One timed request: a figure process or one POST /sweep."""

    label: str
    latency_s: float
    ok: bool
    detail: str = ""


# ----------------------------------------------------------------------
# Program processes
# ----------------------------------------------------------------------
def run_process(cmd: List[str], stdout_path: Path, stderr_path: Path,
                timeout_s: float):
    """Run one program process to completion; returns
    ``(elapsed_s, exit_code, rusage)`` with the child's own rusage."""
    with open(stdout_path, "wb") as out, open(stderr_path, "wb") as err:
        start = time.perf_counter()
        proc = subprocess.Popen(cmd, stdout=out, stderr=err,
                                env=program_env(), cwd=ROOT)
        timer = threading.Timer(timeout_s, proc.kill)
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        finally:
            timer.cancel()
        elapsed = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    return elapsed, proc.returncode, usage


def tail_text(path: Path, lines: int = 3) -> str:
    try:
        return " | ".join(path.read_text(errors="replace")
                          .strip().splitlines()[-lines:])
    except OSError:
        return ""


def import_setup_s(tmp: Path) -> float:
    """Median spawn-to-exit of a fresh ``import repro.cli`` (after one
    untimed spawn, so bytecode compilation is not counted)."""
    samples = []
    for index in range(SETUP_SAMPLES + 1):
        elapsed, code, _ = run_process(
            [PY, "-c", "import repro.cli"], tmp / "setup.out",
            tmp / "setup.err", SERVER_TIMEOUT_S)
        if code != 0:
            raise BenchError("import repro.cli failed: "
                             + tail_text(tmp / "setup.err"))
        if index:
            samples.append(elapsed)
    return statistics.median(samples)


class Server:
    """One ``repro serve --engine vector`` process (optionally traced)."""

    def __init__(self, cache_dir: Path, tmp: Path,
                 trace_out: Optional[Path] = None):
        args = ["serve", "--engine", ENGINE, "--port", "0",
                "--cache-dir", str(cache_dir)]
        self.cmd = ([PY, "-m", "repro", *args] if trace_out is None
                    else [PY, str(LAUNCHER), str(trace_out), *args])
        self.stderr_path = tmp / "serve.err"
        self.proc: Optional[subprocess.Popen] = None
        self.port: Optional[int] = None
        self._ready = threading.Event()
        self._reader: Optional[threading.Thread] = None

    def start(self) -> float:
        """Spawn and wait for the ready line; returns spawn-to-ready."""
        start = time.perf_counter()
        with open(self.stderr_path, "wb") as err:
            self.proc = subprocess.Popen(
                self.cmd, stdout=subprocess.PIPE, stderr=err,
                env=program_env(), cwd=ROOT, text=True)
        self._reader = threading.Thread(target=self._read, daemon=True)
        self._reader.start()
        if not self._ready.wait(SERVER_TIMEOUT_S) or self.port is None:
            self.stop()
            raise BenchError("repro serve never announced its port: "
                             + tail_text(self.stderr_path))
        return time.perf_counter() - start

    def _read(self) -> None:
        # Drains stdout to EOF so the server never blocks on a full pipe.
        for line in self.proc.stdout:
            match = READY_LINE.search(line)
            if match and self.port is None:
                self.port = int(match.group(1))
                self._ready.set()
        self._ready.set()

    def stop(self):
        """SIGTERM (graceful drain), wait; returns the rusage of the
        server and every child it reaped, or None if never started."""
        if self.proc is None:
            return None
        proc, self.proc = self.proc, None
        if proc.returncode is None:
            proc.send_signal(signal.SIGTERM)
        timer = threading.Timer(SERVER_TIMEOUT_S, proc.kill)
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
            proc.returncode = os.waitstatus_to_exitcode(status)
        finally:
            timer.cancel()
        self._reader.join(SERVER_TIMEOUT_S)
        proc.stdout.close()
        return usage

    def get(self, path: str) -> dict:
        with urllib.request.urlopen(f"http://127.0.0.1:{self.port}{path}",
                                    timeout=HTTP_TIMEOUT_S) as response:
            return json.loads(response.read())


def tree_cpu_s(root_pid: int) -> float:
    """user+sys CPU of a process, its reaped children, and every live
    descendant, from ``/proc/<pid>/stat``."""
    stats: Dict[int, List[str]] = {}
    for entry in os.listdir("/proc"):
        if not entry.isdigit():
            continue
        try:
            text = Path(f"/proc/{entry}/stat").read_text()
        except OSError:
            continue
        stats[int(entry)] = text[text.rindex(")") + 2:].split()
    children: Dict[int, List[int]] = {}
    for pid, fields in stats.items():
        children.setdefault(int(fields[1]), []).append(pid)
    ticks = 0
    stack = [root_pid]
    while stack:
        pid = stack.pop()
        fields = stats.get(pid)
        if fields is None:
            continue
        # utime, stime, cutime, cstime are fields 14-17 of stat(5).
        ticks += sum(int(value) for value in fields[11:15])
        stack.extend(children.get(pid, ()))
    return ticks / CLK_TCK


def dir_stats(path: Path):
    files = size = 0
    for dirpath, _, names in os.walk(path):
        for name in names:
            try:
                size += os.stat(os.path.join(dirpath, name)).st_size
            except OSError:
                continue
            files += 1
    return files, size


# ----------------------------------------------------------------------
# Statistics
# ----------------------------------------------------------------------
def tail_percentile(samples: List[float]):
    """``(value, percentile)``: the highest percentile with at least
    :data:`TAIL_BEYOND` samples beyond it (the maximum when there are
    too few samples for that)."""
    ordered = sorted(samples)
    keep = len(ordered) - TAIL_BEYOND
    if keep < 1:
        return ordered[-1], 100
    return ordered[keep - 1], (100 * keep) // len(ordered)


def end_to_end(setup_s: float, wall_s: float, requests: List[Request],
               cpu_s: float, peak_rss_mb: float) -> dict:
    latencies = [r.latency_s for r in requests]
    tail, pct = tail_percentile(latencies)
    ok = sum(r.ok for r in requests)
    print(f"latency_tail_s is p{pct} of {len(latencies)} requests")
    print(f"error_rate = {(len(requests) - ok) / len(requests):.4f} "
          f"({len(requests) - ok}/{len(requests)} failed)")
    values = {"setup_s": setup_s, "wall_s": wall_s,
              "latency_p50_s": statistics.median(latencies),
              "latency_tail_s": tail, "cpu_s": cpu_s,
              "peak_rss_mb": peak_rss_mb,
              "success_rate": ok / len(requests)}
    return {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
            for m in END_TO_END}


# ----------------------------------------------------------------------
# Artifact workloads
# ----------------------------------------------------------------------
def passes_for(seconds: int) -> int:
    return max(1, round(seconds * ARTIFACT_PASSES_PER_S))


def figure_pass(order, seed: int, cache_dir: Path, tmp: Path,
                trace_dir: Optional[Path] = None):
    """One pass over ``order``; returns ``(wall_s, results)`` where each
    result is ``(figure, latency_s, exit_code, rusage, digest, err)``."""
    results = []
    start = time.perf_counter()
    for fig in order:
        args = ["figure", fig, "--engine", ENGINE, "--seed", str(seed),
                "--cache-dir", str(cache_dir)]
        cmd = ([PY, "-m", "repro", *args] if trace_dir is None
               else [PY, str(LAUNCHER), str(trace_dir / f"{fig}.json"),
                     *args])
        out, err = tmp / "figure.out", tmp / "figure.err"
        latency, code, usage = run_process(cmd, out, err, FIGURE_TIMEOUT_S)
        digest = (output_digest(out.read_text(errors="replace"))
                  if code == 0 else None)
        results.append((fig, latency, code, usage, digest,
                        "" if code == 0 else tail_text(err)))
    return time.perf_counter() - start, results


def render_figures(seed: int, tmp: Path, cache_dir: Optional[Path] = None):
    """Every figure rendered in one untimed process (``reference.py``):
    ``{figure: (exit_code, digest)}``."""
    cmd = [PY, str(REFERENCE), "figures", str(seed)]
    if cache_dir is not None:
        cmd.append(str(cache_dir))
    _, code, _ = run_process(cmd, tmp / "ref.out", tmp / "ref.err",
                             FIGURE_TIMEOUT_S)
    if code != 0:
        raise BenchError("reference rendering failed: "
                         + tail_text(tmp / "ref.err"))
    rendered = json.loads((tmp / "ref.out").read_text())
    return {fig: (entry["code"], entry["sha256"])
            for fig, entry in rendered.items()}


def expected_figures(seed: int, tmp: Path) -> Dict[str, str]:
    """Figure digests the outputs must match for ``seed``."""
    if seed == DEFAULT_SEED:
        return json.loads(DIGESTS.read_text())["figures"]
    rendered = render_figures(seed, tmp)
    bad = [fig for fig, (code, _) in rendered.items() if code != 0]
    if bad:
        raise BenchError(f"--no-cache rendering of figure(s) {bad} "
                         "exited non-zero")
    return {fig: digest for fig, (_, digest) in rendered.items()}


def check_figures(results, expected: Dict[str, str]) -> List[Request]:
    requests = []
    for fig, latency, code, _, digest, err in results:
        if code != 0:
            detail = f"figure {fig} exited {code}: {err}"
        elif digest != expected.get(fig):
            detail = f"figure {fig} output differs from the reference"
        else:
            detail = ""
        requests.append(Request(f"figure {fig}", latency, not detail, detail))
    return requests


def artifact(warm: bool, seed: int, seconds: int, trace: bool, tmp: Path):
    rng = random.Random(seed)
    orders = []
    for _ in range(1 if trace else passes_for(seconds)):
        order = list(FIGURE_IDS)
        rng.shuffle(order)
        orders.append(order)
    setup_s = None if trace else import_setup_s(tmp)
    cache = tmp / "cache"
    filled = {}
    if warm:  # benchmark preparation, not setup: one untimed process
        filled = render_figures(seed, tmp, cache)

    def fresh_cache() -> Path:
        if not warm:
            shutil.rmtree(cache, ignore_errors=True)
        cache.mkdir(exist_ok=True)
        return cache

    walls, results = [], []

    def untraced(order) -> None:
        wall, done = figure_pass(order, seed, fresh_cache(), tmp)
        walls.append(wall)
        results.extend(done)

    for order in orders:
        untraced(order)
    if trace:
        # Untraced passes on both sides of the traced one, so the
        # overhead estimate carries no first-pass-versus-second bias.
        trace_dir = tmp / "trace"
        trace_dir.mkdir()
        traced_wall, done = figure_pass(orders[0], seed, fresh_cache(),
                                        tmp, trace_dir)
        results.extend(done)
        files, size = dir_stats(cache)
        untraced(orders[0])
        traces = [json.loads(p.read_text())
                  for p in sorted(trace_dir.glob("*.json"))]
        if len(traces) != len(orders[0]):
            raise BenchError("a traced figure process wrote no trace")

    expected = expected_figures(seed, tmp)
    requests = check_figures(results, expected)
    prep_ok = all(code == 0 and digest == expected[fig]
                  for fig, (code, digest) in filled.items())
    if not trace:
        metrics = end_to_end(
            setup_s, sum(walls), requests,
            sum(u.ru_utime + u.ru_stime for _, _, _, u, _, _ in results),
            max(u.ru_maxrss for _, _, _, u, _, _ in results) / 1024.0)
    else:
        metrics = per_layer(traces, traced_wall - statistics.mean(walls),
                            traced_wall, files, size)
    return requests, prep_ok, metrics


# ----------------------------------------------------------------------
# Service workload
# ----------------------------------------------------------------------
def make_grids(seed: int, count: int) -> List[dict]:
    """Seeded sweep grids.  Every third request repeats (or, half the
    time, overlaps with another iteration count) one of the four before
    it, so hot-cache hits happen, and in-flight dedup when the original
    is still running on the other client.  The others are fresh: the
    n-th has ``base_seed`` seed + n, so it shares no spec with another
    fresh grid.  Fresh grids cycle through the sizes and, in seeded
    order, through every (workload count, iterations) pair, so the
    request-size mix barely depends on the seed."""
    rng = random.Random(seed)
    pairs = [(k, iterations) for k in (1, 2, 3)
             for iterations in range(1, 11)]
    grids: List[dict] = []
    for index in range(count):
        if index % 3 == 2:
            grid = dict(rng.choice(grids[-4:]))
            if rng.random() < 0.5:
                grid["iterations"] = rng.randint(1, 10)
        else:
            fresh = index - index // 3
            if fresh % len(pairs) == 0:
                rng.shuffle(pairs)
            k, iterations = pairs[fresh % len(pairs)]
            size = SERVE_SIZES[fresh % len(SERVE_SIZES)]
            names = [w for w in SERVE_WORKLOADS
                     if size != "mega" or w not in NO_MEGA]
            grid = {"workloads": rng.sample(names, k), "sizes": [size],
                    "iterations": iterations, "base_seed": seed + fresh}
        grids.append(grid)
    return grids


def post_sweep(port: int, tenant: str, grid: dict):
    """One closed-loop request; returns (latency_s, status, payload)."""
    body = json.dumps({"tenant": tenant, "grid": grid,
                       "deadline_s": 60.0}).encode()
    request = urllib.request.Request(
        f"http://127.0.0.1:{port}/sweep", data=body, method="POST",
        headers={"Content-Type": "application/json"})
    start = time.perf_counter()
    try:
        with urllib.request.urlopen(request,
                                    timeout=HTTP_TIMEOUT_S) as response:
            raw, status = response.read(), response.status
    except urllib.error.HTTPError as error:
        raw, status = error.read(), error.code
    except OSError as error:
        return time.perf_counter() - start, 0, {"error": str(error)}
    latency = time.perf_counter() - start
    try:
        return latency, status, json.loads(raw)
    except ValueError:
        return latency, status, {"error": "response is not JSON"}


def serve_session(grids, tmp: Path, name: str, trace_out=None,
                  setups: int = 1):
    """Start a server (``setups`` times, keeping the last), run every
    grid through two closed-loop clients, stop it.  Returns a dict of
    what was measured."""
    setup_samples = []
    server = None
    try:
        for index in range(setups):
            if server is not None:
                server.stop()
            cache = tmp / f"{name}-cache-{index}"
            server = Server(cache, tmp, trace_out)
            setup_samples.append(server.start())
        replies: List[Optional[tuple]] = [None] * len(grids)
        cursor = iter(range(len(grids)))
        lock = threading.Lock()

        def client(tenant: str) -> None:
            while True:
                with lock:
                    index = next(cursor, None)
                if index is None:
                    return
                replies[index] = post_sweep(server.port, tenant,
                                            grids[index])

        cpu_start = tree_cpu_s(server.proc.pid)
        start = time.perf_counter()
        threads = [threading.Thread(target=client, args=(f"client{i}",))
                   for i in range(CLIENTS)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        wall = time.perf_counter() - start
        cpu = tree_cpu_s(server.proc.pid) - cpu_start
        try:
            stats = server.get("/stats")
        except (OSError, ValueError) as error:
            raise BenchError(f"GET /stats failed: {error}") from None
        usage = server.stop()
        files, size = dir_stats(cache)
    finally:
        if server is not None:
            server.stop()
    return {"setup": setup_samples, "wall": wall, "cpu": cpu,
            "rss_mb": usage.ru_maxrss / 1024.0, "replies": replies,
            "stats": stats, "files": files, "bytes": size}


def check_sweeps(grids, replies, expected) -> List[Request]:
    requests = []
    for index, (grid, (latency, status, payload)) in enumerate(
            zip(grids, replies)):
        want = expected["specs"][index]
        detail = ""
        if status != 200:
            detail = f"HTTP {status}: {payload.get('error', '')}"
        else:
            entries = payload.get("specs", [])
            got = [spec_label(e["workload"], e["size"], e["mode"],
                              e["iteration"], grid["base_seed"])
                   for e in entries]
            if got != want:
                detail = "spec list differs from expand_grid"
            elif any(e.get("status") != "ok" or "record" not in e
                     or record_digest(e["record"])
                     != expected["records"][label]
                     for e, label in zip(entries, got)):
                detail = "record differs from the in-process executor"
        requests.append(Request(f"POST /sweep #{index}", latency,
                                not detail, detail))
    return requests


def serve(seed: int, seconds: int, trace: bool, tmp: Path):
    grids = make_grids(seed, max(4, round(seconds * SERVE_REQUESTS_PER_S)))
    plain = serve_session(grids, tmp, "plain",
                          setups=1 if trace else SERVE_SETUP_SAMPLES)
    sessions = [plain]
    if trace:  # untraced sessions on both sides of the traced one
        trace_out = tmp / "serve-trace.json"
        traced = serve_session(grids, tmp, "traced", trace_out)
        traced["trace"] = json.loads(trace_out.read_text())
        sessions += [traced, serve_session(grids, tmp, "again")]

    grids_path = tmp / "grids.json"
    grids_path.write_text(json.dumps(grids))
    _, code, _ = run_process(
        [PY, str(REFERENCE), "sweeps", str(grids_path)], tmp / "ref.out",
        tmp / "ref.err", FIGURE_TIMEOUT_S)
    if code != 0:
        raise BenchError("reference sweep failed: "
                         + tail_text(tmp / "ref.err"))
    expected = json.loads((tmp / "ref.out").read_text())
    requests = []
    for session in sessions:
        requests.extend(check_sweeps(grids, session["replies"], expected))
    if not trace:
        metrics = end_to_end(
            statistics.median(plain["setup"]), plain["wall"],
            requests, plain["cpu"], plain["rss_mb"])
    else:
        plain_wall = statistics.mean((plain["wall"], sessions[2]["wall"]))
        metrics = per_layer([traced["trace"]], traced["wall"] - plain_wall,
                            traced["trace"]["wall_s"], traced["files"],
                            traced["bytes"], traced["stats"])
    return requests, True, metrics


# ----------------------------------------------------------------------
# Per-layer metrics from the launcher's traces
# ----------------------------------------------------------------------
def covered(interval, union) -> float:
    start, end = interval
    return sum(max(0.0, min(end, b) - max(start, a)) for a, b in union)


def merge_intervals(intervals):
    union: List[List[float]] = []
    for start, end in sorted(intervals):
        if union and start <= union[-1][1]:
            union[-1][1] = max(union[-1][1], end)
        else:
            union.append([start, end])
    return union


def per_layer(traces: List[dict], overhead_s: float, wall_s: float,
              files: int, size: int, stats: Optional[dict] = None) -> dict:
    """Per-layer metrics summed over the traced processes.  A metric
    whose every source target is gone from the program is reported with
    a null value and the reason."""
    spans: Dict[str, List[float]] = {}
    counters: Dict[str, int] = {}
    installed: Dict[str, int] = {}
    missing: Dict[str, str] = {}
    for trace in traces:
        for span, agg in trace["spans"].items():
            acc = spans.setdefault(span, [0, 0.0, 0.0])
            acc[0] += agg["calls"]
            acc[1] += agg["total_s"]
            acc[2] += agg["self_s"]
        for name, value in trace["counters"].items():
            counters[name] = counters.get(name, 0) + value
        for span, count in trace["installed"].items():
            installed[span] = max(installed.get(span, 0), count)
        missing.update(trace["missing"])
    values: Dict[str, object] = {}
    absent: Dict[str, str] = {}

    def why_absent(span: str) -> str:
        return "; ".join(sorted(reason for reason in missing.values()
                                if reason.startswith(f"{span}: ")))

    def from_span(metric: str, span: str, field: int) -> None:
        if not installed.get(span):
            absent[metric] = why_absent(span) or f"no target for {span}"
            return
        values[metric] = spans.get(span, [0, 0.0, 0.0])[field]

    calls, self_s = 0, 2
    for span in ("workloads.build", "cache.get", "cache.put",
                 "journal.record", "execution.event"):
        from_span(f"{span}_calls", span, calls)
    for span in ("cli.import", "cli.render", "workloads.build", "cache.get",
                 "cache.put", "journal.record", "execution.event"):
        from_span(f"{span}_s", span, self_s)
    from_span("executor.self_s", "executor", self_s)
    from_span("executor.key_s", "executor.key", self_s)
    from_span("vecgrid.prewarm_s", "vecgrid.prewarm", self_s)
    from_span("vecgrid.compile_s", "vecgrid.compile", self_s)
    from_span("vecgrid.replay_s", "vecgrid.replay", self_s)
    if "executor.self_s" in values:
        values["executor.specs"] = counters.get("executor.specs", 0)
    else:
        absent["executor.specs"] = absent["executor.self_s"]
    if "cache.get_s" in values:
        gets = values["cache.get_calls"]
        values["cache.hit_ratio"] = (counters.get("cache.hits", 0) / gets
                                     if gets else 0.0)
    else:
        absent["cache.hit_ratio"] = absent["cache.get_s"]
    family = "repro.sim.vecgrid:compile_family"
    for metric in ("vecgrid.families_fused", "vecgrid.families_rerouted"):
        if family in missing:
            absent[metric] = missing[family]
        else:
            values[metric] = counters.get(metric, 0)
    values["cache.files"] = files
    values["cache.bytes"] = size
    service_metrics(values, absent, traces, stats, why_absent)
    values["trace.overhead_s"] = overhead_s
    # Wall time no top-level span covers.  With one thread this is wall
    # minus the sum of self times; the server's concurrent batch slots
    # would count overlapping time twice in that sum.
    values["trace.unattributed_s"] = wall_s - sum(
        sum(b - a for a, b in merge_intervals(trace["intervals"]["top"]))
        for trace in traces)

    out = {}
    for name, unit, _ in PER_LAYER:
        if name in values:
            out[name] = {"value": values[name], "unit": unit}
        else:
            out[name] = {"value": None, "unit": unit,
                         "absent": absent.get(name, "not measured")}
    return out


def service_metrics(values, absent, traces, stats, why_absent) -> None:
    names = ("service.requests", "service.shed", "service.hot_hit_ratio",
             "service.dedup_hits", "service.batches",
             "service.batch_specs_mean", "service.batch_s",
             "service.wait_s")
    if stats is None:  # no service process in this workload
        values.update({name: 0 for name in names})
        return
    scheduler = stats.get("scheduler", {})
    admission = stats.get("admission", {})
    hot = stats.get("hot_cache")
    values["service.requests"] = stats.get("sweep_requests", 0)
    values["service.shed"] = admission.get("rejected", 0)
    values["service.dedup_hits"] = scheduler.get("dedup_hits", 0)
    batches = scheduler.get("batches", 0)
    values["service.batches"] = batches
    values["service.batch_specs_mean"] = (
        scheduler.get("executed", 0) / batches if batches else 0.0)
    if hot is None:
        absent["service.hot_hit_ratio"] = "GET /stats has no hot_cache"
    else:
        lookups = hot.get("hits", 0) + hot.get("misses", 0)
        values["service.hot_hit_ratio"] = (hot.get("hits", 0) / lookups
                                           if lookups else 0.0)
    intervals = traces[0]["intervals"]
    batch_union = merge_intervals(intervals["batch"])
    if traces[0]["installed"].get("executor"):
        values["service.batch_s"] = sum(b - a for a, b in
                                        intervals["batch"])
    else:
        absent["service.batch_s"] = why_absent("executor")
    if traces[0]["installed"].get("service.request"):
        values["service.wait_s"] = sum(
            (end - start) - covered((start, end), batch_union)
            for start, end in intervals["request"])
    else:
        absent["service.wait_s"] = why_absent("service.request")


# ----------------------------------------------------------------------
def print_metrics(metrics: dict) -> None:
    for name, entry in metrics.items():
        value = entry["value"]
        shown = "absent (" + entry["absent"] + ")" if value is None \
            else f"{value:.6g}"
        print(f"{name} = {shown} {entry['unit']}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload",
                        choices=[w["name"] for w in WORKLOADS])
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=int, default=20)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--write-benchmark-json", action="store_true",
                        help="write BENCHMARK.json at the checkout root")
    args = parser.parse_args(argv)
    if args.write_benchmark_json:
        (ROOT / "BENCHMARK.json").write_text(
            json.dumps(benchmark_manifest(), indent=2) + "\n")
        return 0
    if args.workload is None:
        parser.error("--workload is required")
    if not (SRC / "repro" / "cli.py").is_file():
        print(f"error: no program source at {SRC}; run from a checkout",
              file=sys.stderr)
        return 2
    # A SIGTERM unwinds like an exception, so the finally blocks stop
    # every server this run started and delete its cache directories.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(128 + signal.SIGTERM))
    WORK.mkdir(exist_ok=True)
    tmp = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=WORK))
    try:
        if args.workload == "serve-sweeps":
            requests, prep_ok, metrics = serve(args.seed, args.seconds,
                                               bool(args.trace), tmp)
        else:
            requests, prep_ok, metrics = artifact(
                args.workload == "artifact-warm", args.seed, args.seconds,
                bool(args.trace), tmp)
    except BenchError as error:
        print(f"error: {error}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
    failed = [r for r in requests if not r.ok]
    for request in failed[:10]:
        print(f"FAILED {request.label}: {request.detail}")
    if not prep_ok:
        print("FAILED: the untimed cache-filling pass gave wrong output")
    print_metrics(metrics)
    print(json.dumps({"correct": not failed and prep_ok,
                      "attempted": len(requests), "failed": len(failed),
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
