"""Traced launcher: run one ``repro`` CLI command with spans around the
public functions of each program layer.

Usage::

    python artifactbench/launcher.py TRACE_OUT <repro arguments...>

The launcher times ``import repro.cli``, wraps the layer functions
listed in :data:`TARGETS` (plus every workload's ``program`` and
``program_with_geometry``), calls :func:`repro.cli.main` in this
process and, when it returns, writes per-layer call counts, total and
self times, counters and (for ``serve``) request and batch intervals to
``TRACE_OUT`` as JSON.  A target that no longer exists is skipped and
listed under ``missing``, so deleting a layer cannot break the traced
run.  Untraced benchmark runs never load this file.

A span's self time is its duration minus the durations of the spans it
directly caused on the same thread.  A call into a layer already open on
the thread's span stack (a layer calling itself) opens no second span.
The intervals of top-level spans are kept, so the benchmark can tell
how much wall time no span covers even when threads overlap.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import sys
import threading
import time

#: (span, module, qualified attribute) for every wrapped function.
TARGETS = (
    ("executor", "repro.harness.executor", "SweepExecutor.run_outcomes"),
    ("executor.key", "repro.harness.executor", "fingerprint"),
    ("executor.key", "repro.harness.executor", "program_fingerprint"),
    ("executor.key", "repro.harness.executor", "environment_fingerprint"),
    ("cache.get", "repro.harness.executor", "ResultCache.get"),
    ("cache.put", "repro.harness.executor", "ResultCache.put"),
    ("journal.record", "repro.harness.resilience", "SweepJournal.record"),
    ("vecgrid.prewarm", "repro.sim.vecgrid", "prewarm_phase_memo"),
    ("vecgrid.compile", "repro.core.execution", "compile_program"),
    ("vecgrid.compile", "repro.core.execution", "derive_compiled"),
    ("vecgrid.compile", "repro.sim.vecgrid", "compile_family"),
    ("vecgrid.replay", "repro.sim.vecgrid", "replay_family"),
    ("vecgrid.replay", "repro.core.execution", "replay_result"),
    ("execution.event", "repro.harness.executor", "execute_program"),
)
#: The service's request handler: intervals only, because asyncio
#: handlers interleave on one thread and cannot nest on a span stack.
REQUEST_TARGET = ("repro.service.server", "ReproService._handle_sweep")
RENDER_PREFIX = "render_"


class Recorder:
    """In-memory span aggregates, counters and intervals."""

    def __init__(self) -> None:
        self._local = threading.local()
        self._lock = threading.Lock()
        self.spans = {}      # span -> [calls, total_s, self_s]
        self.counters = {}   # name -> int
        # Top-level spans (nothing open on their thread) cover the
        # attributed wall time; requests and batches are the service's.
        self.intervals = {"top": [], "request": [], "batch": []}
        self.installed = {}  # span -> number of wrapped targets
        self.missing = {}    # "module:attr" -> "span: reason"

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def count(self, name: str, amount: int = 1) -> None:
        with self._lock:
            self.counters[name] = self.counters.get(name, 0) + amount

    def add(self, span: str, total: float, own: float) -> None:
        with self._lock:
            agg = self.spans.setdefault(span, [0, 0.0, 0.0])
            agg[0] += 1
            agg[1] += total
            agg[2] += own

    def call(self, span, fn, args, kwargs, hook=None):
        stack = self._stack()
        if stack and stack[-1][0] == span:
            return fn(*args, **kwargs)
        frame = [span, 0.0]
        stack.append(frame)
        error = None
        start = time.perf_counter()
        try:
            result = fn(*args, **kwargs)
        except BaseException as exc:
            error = exc
            raise
        finally:
            end = time.perf_counter()
            stack.pop()
            total = end - start
            if stack:
                stack[-1][1] += total
            else:
                with self._lock:
                    self.intervals["top"].append((start, end))
            self.add(span, total, total - frame[1])
            if hook is not None:
                hook(args, None if error else result, error, start, end)
        return result

    def wrap(self, span, fn, hook=None):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            return self.call(span, fn, args, kwargs, hook)
        return wrapper

    def wrap_interval(self, kind, fn):
        @functools.wraps(fn)
        async def wrapper(*args, **kwargs):
            start = time.perf_counter()
            try:
                return await fn(*args, **kwargs)
            finally:
                with self._lock:
                    self.intervals[kind].append(
                        (start, time.perf_counter()))
        return wrapper

    def dump(self) -> dict:
        return {"spans": {span: {"calls": c, "total_s": t, "self_s": s}
                          for span, (c, t, s) in self.spans.items()},
                "counters": dict(self.counters),
                "intervals": self.intervals,
                "installed": dict(self.installed),
                "missing": dict(self.missing)}


def _resolve(module_name: str, qualname: str):
    """(owner, attribute, current value) or raise LookupError."""
    try:
        owner = importlib.import_module(module_name)
    except ImportError as error:
        raise LookupError(f"cannot import {module_name}: {error}") from None
    *path, attr = qualname.split(".")
    for part in path:
        owner = getattr(owner, part, None)
        if owner is None:
            raise LookupError(f"{module_name}.{'.'.join(path)} not found")
    value = owner.__dict__.get(attr) if isinstance(owner, type) \
        else getattr(owner, attr, None)
    if value is None or not callable(value):
        raise LookupError(f"{module_name}.{qualname} not found")
    return owner, attr, value


def _hooks(rec: Recorder, serve: bool) -> dict:
    def executor_hook(args, result, error, start, end):
        specs = args[1] if len(args) > 1 else ()
        rec.count("executor.specs", len(specs))
        if serve:
            with rec._lock:
                rec.intervals["batch"].append((start, end))

    def cache_get_hook(args, result, error, start, end):
        if result is not None:
            rec.count("cache.hits")

    def family_hook(args, result, error, start, end):
        if error is None:
            rec.count("vecgrid.families_fused")
        elif type(error).__name__ == "FamilyRerouted":
            rec.count("vecgrid.families_rerouted")

    return {"SweepExecutor.run_outcomes": executor_hook,
            "ResultCache.get": cache_get_hook,
            "compile_family": family_hook}


def install(rec: Recorder, serve: bool) -> None:
    hooks = _hooks(rec, serve)
    for span, module_name, qualname in TARGETS:
        try:
            owner, attr, value = _resolve(module_name, qualname)
        except LookupError as error:
            rec.missing[f"{module_name}:{qualname}"] = f"{span}: {error}"
            rec.installed.setdefault(span, 0)
            continue
        setattr(owner, attr, rec.wrap(span, value, hooks.get(qualname)))
        rec.installed[span] = rec.installed.get(span, 0) + 1

    rec.installed.setdefault("workloads.build", 0)
    try:
        registry = importlib.import_module("repro.workloads.registry")
        workloads = registry.all_workloads()
    except (ImportError, AttributeError) as error:
        rec.missing["repro.workloads.registry:all_workloads"] = \
            f"workloads.build: {error}"
        workloads = []
    seen = set()
    for workload in workloads:
        for cls in type(workload).__mro__:
            for attr in ("program", "program_with_geometry"):
                value = cls.__dict__.get(attr)
                if value is None or (cls, attr) in seen \
                        or not inspect.isfunction(value):
                    continue
                seen.add((cls, attr))
                setattr(cls, attr, rec.wrap("workloads.build", value))
                rec.installed["workloads.build"] += 1

    cli = sys.modules["repro.cli"]
    rec.installed.setdefault("cli.render", 0)
    for name, value in list(vars(cli).items()):
        if name.startswith(RENDER_PREFIX) and inspect.isfunction(value):
            setattr(cli, name, rec.wrap("cli.render", value))
            rec.installed["cli.render"] += 1

    if serve:
        rec.installed["service.request"] = 0
        try:
            owner, attr, value = _resolve(*REQUEST_TARGET)
        except LookupError as error:
            rec.missing[":".join(REQUEST_TARGET)] = \
                f"service.request: {error}"
        else:
            setattr(owner, attr, rec.wrap_interval("request", value))
            rec.installed["service.request"] = 1


def main(argv) -> int:
    trace_out, args = argv[0], argv[1:]
    rec = Recorder()
    start = time.perf_counter()
    code = 1
    try:
        import_start = time.perf_counter()
        import repro.cli
        import_end = time.perf_counter()
        rec.add("cli.import", import_end - import_start,
                import_end - import_start)
        rec.intervals["top"].append((import_start, import_end))
        rec.installed["cli.import"] = 1
        install(rec, serve=bool(args) and args[0] == "serve")
        code = repro.cli.main(args)
    except SystemExit as stop:
        code = stop.code if isinstance(stop.code, int) else 1
    finally:
        sys.stdout.flush()
        payload = rec.dump()
        payload["wall_s"] = time.perf_counter() - start
        payload["exit_code"] = code
        with open(trace_out, "w") as handle:
            json.dump(payload, handle)
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
