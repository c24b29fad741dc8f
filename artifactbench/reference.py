"""Untimed reference outputs the benchmark checks the program against.

Runs in its own process, with the program imported from the checkout::

    python artifactbench/reference.py figures SEED [CACHE_DIR]
        # {"<figure id>": {"code": rc, "sha256": digest}} of a
        # ``--no-cache`` rendering of every figure, [sweep] lines dropped;
        # with CACHE_DIR, a rendering through that cache, which fills it
    python artifactbench/reference.py sweeps GRIDS.json
        # {"specs": [[label, ...] per grid], "records": {label: digest}}
        # from expand_grid and an in-process vector SweepExecutor

Both print one JSON object on stdout.
"""

from __future__ import annotations

import contextlib
import io
import json
import sys

from common import (ENGINE, FIGURE_IDS, output_digest, record_digest,
                    spec_label)


def figures(seed: int, cache_dir=None) -> dict:
    import repro.cli
    cache = ["--no-cache"] if cache_dir is None else ["--cache-dir",
                                                      cache_dir]
    out = {}
    for fig in FIGURE_IDS:
        text = io.StringIO()
        with contextlib.redirect_stdout(text), \
                contextlib.redirect_stderr(io.StringIO()):
            code = repro.cli.main(["figure", fig, "--engine", ENGINE,
                                   "--seed", str(seed), *cache])
        out[fig] = {"code": code, "sha256": output_digest(text.getvalue())}
    return out


def sweeps(grids: list) -> dict:
    """Expected spec lists and record digests for every grid.

    One executor run per base seed, as a CLI sweep makes: an in-process
    vector batch that mixes base seeds returns other seeds' records (a
    known program defect, see NOTES.md), while the service's
    process-pool path runs each spec on its own."""
    from repro.harness.executor import SweepExecutor, expand_grid
    from repro.harness.store import run_to_record
    per_grid = []
    by_seed = {}
    for grid in grids:
        specs = expand_grid(grid["workloads"], grid["sizes"],
                            iterations=grid["iterations"],
                            base_seed=grid["base_seed"])
        per_grid.append([spec_label(s.workload, s.size, s.mode.value,
                                    s.iteration, s.base_seed)
                         for s in specs])
        union = by_seed.setdefault(grid["base_seed"], {})
        for spec in specs:
            union.setdefault(spec, None)
    records = {}
    for union in by_seed.values():
        specs = list(union)
        results = SweepExecutor(jobs=1, engine=ENGINE).run(specs)
        for s, r in zip(specs, results):
            records[spec_label(s.workload, s.size, s.mode.value,
                               s.iteration, s.base_seed)] = record_digest(
                json.loads(json.dumps(run_to_record(r, with_counters=True))))
    return {"specs": per_grid, "records": records}


def main(argv) -> int:
    if argv[0] == "figures":
        payload = figures(int(argv[1]), *argv[2:3])
    elif argv[0] == "sweeps":
        with open(argv[1]) as handle:
            payload = sweeps(json.load(handle))
    else:
        raise SystemExit(f"unknown reference {argv[0]!r}")
    json.dump(payload, sys.stdout)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
