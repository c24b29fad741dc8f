"""Data generators for the paper's figures 4-10.

Each ``figN_*`` function runs the experiments behind one figure and
returns plain data structures (dicts keyed by workload / mode / size),
plus a ``render_*`` helper that prints the same rows/series the figure
shows. Benchmarks under ``benchmarks/`` call these.

Partial sweeps: every generator goes through
:meth:`SweepExecutor.run_outcomes`, so with a non-strict executor a
failed cell becomes a *gap* rather than an exception — renderers print
``-`` for missing cells and the CLI appends the executor's failure
summary (exit code 3). A strict executor restores fail-fast.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence

from ..core.configs import ALL_MODES, TransferMode
from ..core.results import ModeComparison
from ..core.stats import coefficient_of_variation, geomean, mean
from ..workloads.registry import APP_NAMES, MICRO_NAMES
from ..workloads.sizes import SizeClass
from .executor import (SweepExecutor, collect_comparisons, collect_runsets,
                       ensure_executor, expand_grid)
from .report import render_table

COUNTER_WORKLOADS = ("gemm", "lud", "yolov3")

#: Placeholder renderers print for cells a partial sweep is missing.
GAP = "-"


def _run_partial(executor: Optional[SweepExecutor], specs):
    """Run specs through the resilience layer; ``None`` marks gaps.

    Returns results in spec order. With a strict executor this raises
    at the first permanent failure (fail-fast); otherwise failed /
    timed-out / skipped cells come back as ``None`` and the caller
    renders them as annotated gaps.
    """
    return ensure_executor(executor).run_outcomes(specs).results


# ----------------------------------------------------------------------
# Fig. 4 / Fig. 5: execution-time distributions vs input size
# ----------------------------------------------------------------------
def fig4_distributions(iterations: int = 30,
                       sizes: Sequence[SizeClass] = SizeClass.ordered(),
                       workloads: Sequence[str] = MICRO_NAMES,
                       modes: Sequence[TransferMode] = ALL_MODES,
                       base_seed: int = 1234,
                       executor: Optional[SweepExecutor] = None) -> Dict:
    """30-run total-time distributions per size/workload/mode (Fig. 4).

    Workloads that decline a size class (`Workload.supports`) — the
    explicit-mode Mega allocations that exceed HBM — are skipped for
    that size, exactly as the paper's sweep omits those cells. The
    whole grid goes through one :class:`SweepExecutor` pass, so
    ``--jobs``/caching apply across every cell at once.
    """
    specs = expand_grid(workloads, sizes, modes, iterations=iterations,
                        base_seed=base_seed, skip_unsupported=True)
    results = _run_partial(executor, specs)
    runsets = collect_runsets(run for run in results if run is not None)
    data: Dict = {size.label: {} for size in sizes}
    for (name, size_label, mode), runs in runsets.items():
        data[size_label].setdefault(name, {})[mode.value] = runs.totals()
    return data


def fig5_stability(distributions: Dict) -> Dict[str, Dict[str, float]]:
    """std/mean per workload per size, averaged over the 5 setups (Fig. 5).

    Adds a ``Geo-mean`` pseudo-workload row, as the paper plots. The
    grid may be ragged — a workload missing at a size (e.g. gemm at
    Mega, where explicit allocation exceeds HBM) simply has no cell
    there, and the Geo-mean for that size covers the present workloads.
    """
    stability: Dict[str, Dict[str, float]] = {}
    sizes = list(distributions)
    workloads: List[str] = []
    for by_workload in distributions.values():
        for name in by_workload:
            if name not in workloads:
                workloads.append(name)
    for name in workloads:
        stability[name] = {}
        for size in sizes:
            if name not in distributions[size]:
                continue
            cvs = [coefficient_of_variation(totals)
                   for totals in distributions[size][name].values()]
            stability[name][size] = mean(cvs)
    stability["Geo-mean"] = {
        size: geomean([stability[name][size] for name in workloads
                       if size in stability[name]])
        for size in sizes
    }
    return stability


def render_fig5(stability: Dict[str, Dict[str, float]]) -> str:
    """Figure 5's std/mean-per-size table ("-" marks skipped cells)."""
    sizes: List[str] = []
    for by_size in stability.values():
        for size in by_size:
            if size not in sizes:
                sizes.append(size)
    rows = [(name, *(f"{stability[name][size]:.4f}"
                     if size in stability[name] else "-"
                     for size in sizes))
            for name in stability]
    return render_table(("workload", *sizes), rows,
                        title="Fig. 5: std/mean of 30 runs per input size")


# ----------------------------------------------------------------------
# Fig. 6: Mega-input breakdown instability
# ----------------------------------------------------------------------
def fig6_mega_breakdown(iterations: int = 30, workload: str = "vector_seq",
                        mode: TransferMode = TransferMode.STANDARD,
                        base_seed: int = 1234,
                        executor: Optional[SweepExecutor] = None
                        ) -> List[Optional[Dict[str, float]]]:
    """Per-run breakdown for the Mega input (Fig. 6).

    Positional: entry *i* is run *i*'s breakdown, or ``None`` if that
    run failed in a partial (non-strict) sweep.
    """
    specs = expand_grid((workload,), (SizeClass.MEGA,), (mode,),
                        iterations=iterations, base_seed=base_seed,
                        skip_unsupported=False)
    runs = _run_partial(executor, specs)
    return [run.breakdown() if run is not None else None for run in runs]


def render_fig6(breakdowns: List[Optional[Dict[str, float]]]) -> str:
    """Figure 6's per-run Mega breakdown table (``-`` marks failed runs)."""
    rows = [(index, f"{b['gpu_kernel'] / 1e6:.1f}",
             f"{b['allocation'] / 1e6:.1f}", f"{b['memcpy'] / 1e6:.1f}")
            if b is not None else (index, GAP, GAP, GAP)
            for index, b in enumerate(breakdowns)]
    return render_table(("run", "gpu_kernel (ms)", "allocation (ms)",
                         "memcpy (ms)"), rows,
                        title="Fig. 6: Mega-input breakdown per run")


# ----------------------------------------------------------------------
# Fig. 7 / Fig. 8: normalized comparisons
# ----------------------------------------------------------------------
def comparison_sweep(workloads: Sequence[str], size: SizeClass,
                     iterations: int = 30,
                     base_seed: int = 1234,
                     executor: Optional[SweepExecutor] = None
                     ) -> Dict[str, ModeComparison]:
    """Five-config comparison for each named workload at one size.

    Partial sweeps: a workload whose cells all failed is absent from
    the returned dict; one with some surviving modes appears with the
    modes it has (renderers print ``-`` where normalization is
    impossible).
    """
    return comparison_sweeps(workloads, (size,), iterations, base_seed,
                             executor)[size.label]


def comparison_sweeps(workloads: Sequence[str],
                      sizes: Sequence[SizeClass],
                      iterations: int = 30,
                      base_seed: int = 1234,
                      executor: Optional[SweepExecutor] = None
                      ) -> Dict[str, Dict[str, ModeComparison]]:
    """:func:`comparison_sweep` for several sizes, keyed by size label.

    Every size runs in one executor pass, so a journal attached to the
    executor records the whole grid. Workloads that decline a size are
    skipped there.
    """
    specs = expand_grid(workloads, sizes, ALL_MODES,
                        iterations=iterations, base_seed=base_seed)
    results = _run_partial(executor, specs)
    comparisons = collect_comparisons(r for r in results if r is not None)
    return {size.label: {name: comparisons[(name, size.label)]
                         for name in workloads
                         if (name, size.label) in comparisons}
            for size in sizes}


def fig7_micro(size: SizeClass = SizeClass.SUPER, iterations: int = 30,
               base_seed: int = 1234,
               executor: Optional[SweepExecutor] = None
               ) -> Dict[str, ModeComparison]:
    """Micro comparison at one stable size (Fig. 7a = Large, 7b = Super)."""
    return comparison_sweep(MICRO_NAMES, size, iterations, base_seed,
                            executor=executor)


def fig8_apps(iterations: int = 30,
              base_seed: int = 1234,
              executor: Optional[SweepExecutor] = None
              ) -> Dict[str, ModeComparison]:
    """Real-world application comparison at Super (Fig. 8)."""
    return comparison_sweep(APP_NAMES, SizeClass.SUPER, iterations,
                            base_seed, executor=executor)


def _maybe_normalized(comparison: ModeComparison,
                      mode: TransferMode) -> Optional[float]:
    """``normalized_total`` or ``None`` when the cell/baseline is a gap."""
    try:
        return comparison.normalized_total(mode)
    except (KeyError, ValueError, ZeroDivisionError):
        return None


def render_comparison(comparisons: Dict[str, ModeComparison],
                      title: str) -> str:
    """Figure 7/8-style normalized-total table with a geo-mean row.

    Cells a partial sweep could not produce (missing mode, or missing
    standard baseline) render as ``-`` and are excluded from the
    geo-mean, which covers whatever survived.
    """
    headers = ["workload"] + [m.value for m in ALL_MODES]
    rows = []
    for name, comparison in comparisons.items():
        values = [_maybe_normalized(comparison, m) for m in ALL_MODES]
        rows.append((name, *(f"{v:.3f}" if v is not None else GAP
                             for v in values)))
    geo_cells = []
    for mode in ALL_MODES:
        values = [v for v in (_maybe_normalized(c, mode)
                              for c in comparisons.values())
                  if v is not None]
        geo_cells.append(f"{geomean(values):.3f}" if values else GAP)
    rows.append(("geo-mean", *geo_cells))
    return render_table(headers, rows, title=title)


def geomean_improvements(comparisons: Dict[str, ModeComparison]) -> Dict[str, float]:
    """Percent overall-time improvement over standard, geomean'd.

    Partial sweeps: each mode's geomean covers the comparisons that
    have both the mode and the baseline; a mode with no surviving
    cells is omitted from the result.
    """
    out = {}
    for mode in ALL_MODES:
        values = [v for v in (_maybe_normalized(c, mode)
                              for c in comparisons.values())
                  if v is not None]
        if values:
            out[mode.value] = (1.0 - geomean(values)) * 100.0
    return out


# ----------------------------------------------------------------------
# Fig. 9 / Fig. 10: performance counters
# ----------------------------------------------------------------------
def counter_sweep(workloads: Sequence[str] = COUNTER_WORKLOADS,
                  size: SizeClass = SizeClass.SUPER,
                  base_seed: int = 1234,
                  executor: Optional[SweepExecutor] = None
                  ) -> Dict[str, Dict[str, Dict]]:
    """One run per mode per workload; counters are deterministic.

    The cache persists per-kernel counters (store schema's optional
    ``counters`` field), so warm replays reproduce Figs. 9/10 exactly.
    """
    specs = expand_grid(workloads, (size,), ALL_MODES, iterations=1,
                        base_seed=base_seed, skip_unsupported=False)
    results = [run for run in _run_partial(executor, specs)
               if run is not None]
    data: Dict[str, Dict[str, Dict]] = {name: {} for name in workloads}
    for run in results:
        mix = run.counters.instructions
        misses = run.counters.mean_miss_rates()
        data[run.workload][run.mode.value] = {
            "control": mix.control,
            "integer": mix.integer,
            "fp": mix.fp,
            "memory": mix.memory,
            "load_miss": misses.load,
            "store_miss": misses.store,
        }
    return data


def fig9_instruction_mix(**kwargs) -> Dict[str, Dict[str, Dict]]:
    """Control / integer instruction counts (Fig. 9)."""
    return counter_sweep(**kwargs)


def fig10_cache_miss(**kwargs) -> Dict[str, Dict[str, Dict]]:
    """Unified-L1 global load/store miss rates (Fig. 10)."""
    return counter_sweep(**kwargs)


def render_counters(data: Dict[str, Dict[str, Dict]], keys: Sequence[str],
                    title: str) -> str:
    """Figure 9/10-style counter table for the selected counter keys."""
    headers = ["workload", "mode", *keys]
    rows = []
    for name, by_mode in data.items():
        for mode, counters in by_mode.items():
            rows.append((name, mode,
                         *(f"{counters[key]:.4g}" for key in keys)))
    return render_table(headers, rows, title=title)
