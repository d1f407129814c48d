"""Replicated experiments over (n, p, m, population) grids.

Each grid cell is simulated under the null for a number of replicates;
per replicate the maximum entry statistic is computed, centered, and
recorded.  The report aggregates the empirical CDF of the centered
statistic on a z grid, its exact Kolmogorov-Smirnov distance to the
limit law, an empirical type-I error table at the fixed levels, and the
mean/sd of W / sqrt(log p).

Replicates run in stacks: a cell's replicates are cut into chunks of at
most ``_STACK_VALUES`` data values (at least one replicate each), and
into at least as many chunks as there are usable workers, each chunk is
drawn into one (R, n, p) array and enumerated by one
:func:`statcore.max_entries` call, and chunks are the tasks spread over
workers.

Reproducibility contract: replicate r of every cell draws from stream
(master_seed, r) into its own row of a stack, and its result does not
depend on the stack it shares; cells run in declared order, and records
come in (cell, replicate) order, so records.csv is byte-identical for
any worker count and any chunking.
"""

from __future__ import annotations

import csv
import json
import math
import time
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from . import statcore
from .asymptotics import (
    MAX_ORDER, ONE_SIDED, TWO_SIDED, GumbelLimit, center, check_int, check_real, check_sided, normalize,
)
from .hypotest import LEVELS
from .populations import PopulationSpec, SeedSpec, parallel_map, sample_matrix, usable_workers
from .serial import JsonRecord

DEFAULT_Z_GRID = tuple(float(z) for z in np.linspace(-6.0, 12.0, 101))

RECORD_COLUMNS = ("cell_id", "replicate", "w_abs", "w_signed", "t_value", "ratio")

# Data values per stack of replicates (1 MB of float64).
_STACK_VALUES = 2**17


@dataclass(frozen=True)
class CellConfig(JsonRecord):
    """One experiment cell: dimensions, order, population and sidedness."""

    n: int
    p: int
    m: int
    spec: PopulationSpec
    sided: str = TWO_SIDED

    def __post_init__(self):
        p = check_int("p", self.p, 3)
        # every replicate is enumerated (m <= p) and centred by the limit law (m <= 20)
        check_int("m", self.m, 2, min(p, MAX_ORDER))
        check_int("n", self.n, 1)
        check_sided(self.sided)

    def cell_id(self, index: int) -> str:
        return f"c{index:02d}_{self.spec.family}_m{self.m}_n{self.n}_p{self.p}"


@dataclass(frozen=True)
class ExperimentConfig(JsonRecord):
    grid: tuple[CellConfig, ...]
    reps: int
    master_seed: int
    z_grid: tuple[float, ...] = DEFAULT_Z_GRID
    output_path: str | None = None

    def __post_init__(self):
        check_int("reps", self.reps, 1)
        if not self.grid:
            raise ValueError("grid must contain at least one cell")
        if len(self.z_grid) < 2:
            raise ValueError(f"z_grid must hold at least two points, got {self.z_grid}")
        for z in self.z_grid:
            check_real("z_grid", z)

    def total_cost(self) -> int:
        return sum(
            self.reps * statcore.enumeration_cost(c.p, c.m, c.n).multiply_adds for c in self.grid
        )


@dataclass(frozen=True)
class ReplicateRecord:
    cell_id: str
    replicate: int
    w_abs: float
    w_signed: float
    t_value: float
    ratio: float


@dataclass(frozen=True)
class CellReport(JsonRecord):
    cell_id: str
    cell: CellConfig
    reps: int
    ecdf: tuple[float, ...]
    ks_distance: float
    type1: dict[float, float]
    ratio_mean: float
    ratio_sd: float
    flagged_nonpositive: int
    runtime_seconds: float


@dataclass(frozen=True)
class ExperimentReport:
    config: ExperimentConfig
    cells: tuple[CellReport, ...]
    records: tuple[ReplicateRecord, ...]


def ks_distance(samples, limit: GumbelLimit) -> float:
    """Exact one-sample Kolmogorov-Smirnov statistic against the limit law.

    Evaluates both one-sided envelopes at the sorted sample points, where
    the supremum of |F_hat - F| over the whole line is attained.
    """
    xs = np.sort(np.asarray(samples, dtype=np.float64))
    if xs.size == 0 or not np.isfinite(xs).all():
        raise ValueError("samples must be non-empty and finite")
    r = xs.size
    grid = np.arange(1, r + 1, dtype=np.float64)
    cdf = limit.cdf_array(xs)
    d_plus = np.max(grid / r - cdf)
    d_minus = np.max(cdf - (grid - 1.0) / r)
    return float(max(d_plus, d_minus))


def _chunks(cell: CellConfig, reps: int, workers: int) -> list[tuple[int, int]]:
    """Replicate ranges [lo, hi) of a cell, as even as they come.

    Each range fits one stack (or is one replicate), and there are at
    least ``workers`` of them when there are the replicates.
    """
    per_stack = max(1, _STACK_VALUES // (cell.n * cell.p))
    count = max(min(workers, reps), -(-reps // per_stack))
    bounds = [k * reps // count for k in range(count + 1)]
    return list(zip(bounds, bounds[1:]))


def _run_chunk(args) -> np.ndarray:
    """The (w_abs, w_signed) rows of replicates [lo, hi) of a cell."""
    cell, master_seed, lo, hi = args
    X = np.empty((hi - lo, cell.n, cell.p))
    for r in range(lo, hi):
        X[r - lo] = sample_matrix(cell.spec, cell.n, cell.p, SeedSpec(master_seed, r))
    return np.array([(res.w_abs, res.w_signed) for res in statcore.max_entries(X, cell.m)])


def _summarize_cell(
    cell_index: int,
    cell: CellConfig,
    w_signed: np.ndarray,
    t_abs: np.ndarray,
    ratios: np.ndarray,
    z_grid: tuple[float, ...],
    runtime: float,
) -> CellReport:
    limit = GumbelLimit(cell.m, cell.sided)
    flagged = 0
    if cell.sided == ONE_SIDED:
        # Centered signed statistic, recomputable from the w_signed column.
        positive = w_signed > 0.0
        flagged = int(np.count_nonzero(~positive))
        t_cell = center(w_signed[positive], cell.p, cell.m)
        if t_cell.size == 0:
            t_cell = np.array([normalize(0.0, cell.n, cell.p, cell.m).t_value])
    else:
        t_cell = t_abs
    ecdf = tuple((np.searchsorted(np.sort(t_cell), z_grid, side="right") / t_cell.size).tolist())
    ks = ks_distance(t_cell, limit)
    pvals = np.array([limit.sf(t) for t in t_cell])
    type1 = {lvl: float(np.count_nonzero(pvals < lvl) / t_cell.size) for lvl in LEVELS}
    return CellReport(
        cell_id=cell.cell_id(cell_index),
        cell=cell,
        reps=ratios.size,
        ecdf=ecdf,
        ks_distance=ks,
        type1=type1,
        ratio_mean=float(np.mean(ratios)),
        ratio_sd=float(np.std(ratios, ddof=1)) if ratios.size > 1 else 0.0,
        flagged_nonpositive=flagged,
        runtime_seconds=runtime,
    )


def run_experiment(
    config: ExperimentConfig,
    workers: int = 1,
    budget: int = statcore.DEFAULT_COST_CEILING,
) -> ExperimentReport:
    """Run every cell of the grid for the configured replicate count.

    Cells run sequentially; a cell's replicates (stream id = replicate
    index) run in chunks, at least one per usable worker, and the chunks
    are independent tasks that may run in parallel.  The returned report is identical for every
    worker count.  If ``config.output_path`` is set the report is
    persisted there.
    """
    check_real("budget", budget, 0.0)
    total = config.total_cost()
    if total > budget:
        raise statcore.BudgetError(
            f"experiment needs an estimated {total:,} multiply-adds, above the budget of {budget:,}"
        )
    procs = usable_workers(workers)
    all_records: list[ReplicateRecord] = []
    cell_reports: list[CellReport] = []
    for cell_index, cell in enumerate(config.grid):
        t0 = time.perf_counter()
        tasks = [(cell, config.master_seed, lo, hi) for lo, hi in _chunks(cell, config.reps, procs)]
        w_abs, w_signed = np.concatenate(parallel_map(_run_chunk, tasks, workers)).T
        runtime = time.perf_counter() - t0
        t_abs = center(w_abs, cell.p, cell.m)
        ratios = w_abs / math.sqrt(math.log(cell.p))
        cid = cell.cell_id(cell_index)
        all_records.extend(
            ReplicateRecord(cid, *row)
            for row in zip(range(config.reps), w_abs.tolist(), w_signed.tolist(), t_abs.tolist(), ratios.tolist())
        )
        cell_reports.append(_summarize_cell(cell_index, cell, w_signed, t_abs, ratios, config.z_grid, runtime))
    report = ExperimentReport(config=config, cells=tuple(cell_reports), records=tuple(all_records))
    if config.output_path is not None:
        persist(report, config.output_path)
    return report


def persist(report: ExperimentReport, path) -> None:
    """Write records.csv and summary.json under ``path``.

    The CSV uses LF line endings, '.' decimals and 17 significant digits,
    which round-trips float64 exactly; identical (config, seed) runs
    produce identical bytes regardless of worker count.
    """
    out = Path(path)
    try:
        out.mkdir(parents=True, exist_ok=True)
        with open(out / "records.csv", "w", newline="", encoding="ascii") as fh:
            writer = csv.writer(fh, lineterminator="\n")
            writer.writerow(RECORD_COLUMNS)
            for rec in report.records:
                writer.writerow(
                    (
                        rec.cell_id,
                        rec.replicate,
                        f"{rec.w_abs:.17g}",
                        f"{rec.w_signed:.17g}",
                        f"{rec.t_value:.17g}",
                        f"{rec.ratio:.17g}",
                    )
                )
        summary = {
            "config": report.config.to_json(),
            "cells": [c.to_json() for c in report.cells],
        }
        with open(out / "summary.json", "w", encoding="ascii") as fh:
            json.dump(summary, fh, indent=2, sort_keys=False)
            fh.write("\n")
    except OSError as exc:
        raise OSError(f"failed to persist report under {out}: {exc}") from exc


def load_report(path) -> ExperimentReport:
    """Rebuild an ExperimentReport from a persisted directory."""
    out = Path(path)
    try:
        with open(out / "summary.json", encoding="ascii") as fh:
            summary = json.load(fh)
        records = []
        with open(out / "records.csv", newline="", encoding="ascii") as fh:
            reader = csv.reader(fh)
            header = next(reader)
            if tuple(header) != RECORD_COLUMNS:
                raise ValueError(f"unexpected records.csv header {header}")
            for row in reader:
                if len(row) != len(RECORD_COLUMNS):
                    raise ValueError(f"records.csv line {reader.line_num} has {len(row)} fields, "
                                     f"expected {len(RECORD_COLUMNS)}")
                records.append(
                    ReplicateRecord(
                        cell_id=row[0],
                        replicate=int(row[1]),
                        w_abs=float(row[2]),
                        w_signed=float(row[3]),
                        t_value=float(row[4]),
                        ratio=float(row[5]),
                    )
                )
    except OSError as exc:
        raise OSError(f"failed to load report from {out}: {exc}") from exc
    return ExperimentReport(
        config=ExperimentConfig.from_json(summary["config"]),
        cells=tuple(CellReport.from_json(c) for c in summary["cells"]),
        records=tuple(records),
    )
