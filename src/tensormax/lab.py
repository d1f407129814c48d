"""Replicated experiments over (n, p, m, population) grids.

Each grid cell is simulated under the null for a number of replicates;
per replicate the maximum entry statistic is computed, centered, and
recorded.  The statistic is the one ``test_independence`` reads
(:func:`tensormax.hypotest.sided_statistic`): w_abs in a two-sided
cell, w_signed clipped at 0 in a one-sided one, which counts the
clipped replicates in ``flagged_nonpositive``.  Its centred value is
the record's ``t_value``, and the report aggregates those values: their
empirical CDF on a z grid, exact Kolmogorov-Smirnov distance to the
limit law and type-I error table at the fixed levels, besides the
mean/sd of w_abs / sqrt(log p).

Replicates run in stacks: a cell's replicates are cut into chunks of at
most ``_STACK_VALUES`` data values (at least one replicate each), and
into at least as many chunks as there are usable workers, each chunk is
drawn into one (R, n, p) array and enumerated by one engine call, and
chunks are the tasks spread over workers.  A run keys its streams once:
the Philox keys of streams 0 .. reps - 1 are hashed in one pass, each
chunk carries its slice of them, and
:func:`tensormax.populations.sample_stack` re-keys one generator per
matrix, byte-identical to a ``make_generator`` per replicate.  The run
is held to its budget once, before any draw, by
:func:`tensormax.statcore.check_budget` over every cell's reps
enumerations; a total that reaches 2**63 - 1 is refused whatever the
budget.

Reproducibility contract: replicate r of every cell draws from stream
(master_seed, r) into its own row of a stack, and its result does not
depend on the stack it shares; cells run in declared order, and records
come in (cell, replicate) order, so records.csv is byte-identical for
any worker count and any chunking.
"""

from __future__ import annotations

import contextlib
import csv
import json
import math
import operator
import time
import typing
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from . import statcore
from .asymptotics import MAX_ORDER, TWO_SIDED, GumbelLimit, check_int, check_real_array, check_sided, normalize
from .hypotest import LEVELS, sided_statistic
from .populations import PopulationSpec, _philox_keys, parallel_map, sample_stack, usable_workers
from .populations import sample_matrix  # noqa: F401  (not called here; perfbench's tracer wraps it by this name)
from .serial import JsonRecord

DEFAULT_Z_GRID = tuple(float(z) for z in np.linspace(-6.0, 12.0, 101))

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
        check_int("master_seed", self.master_seed, 0, 2**64 - 1)
        if not self.grid:
            raise ValueError("grid must contain at least one cell")
        z_grid = check_real_array("z_grid", self.z_grid)
        if z_grid.ndim != 1 or z_grid.size < 2:
            raise ValueError(f"z_grid must be a flat sequence of at least two points, got {self.z_grid}")
        # the path is written into summary.json, which the codec reads back only as a string
        if self.output_path is not None and not isinstance(self.output_path, str):
            raise ValueError(f"ExperimentConfig.output_path must be a string, got {self.output_path!r}")


@dataclass(frozen=True)
class ReplicateRecord:
    cell_id: str
    replicate: int
    w_abs: float
    w_signed: float
    t_value: float
    ratio: float


# records.csv has one column per ReplicateRecord field, read back by its type.
_RECORD_TYPES = typing.get_type_hints(ReplicateRecord)
RECORD_COLUMNS = tuple(_RECORD_TYPES)
# float columns carry 17 significant digits, which round-trips float64
_RECORD_FORMATS = tuple(("{:.17g}" if tp is float else "{}").format for tp in _RECORD_TYPES.values())


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
    the supremum of |F_hat - F| over the whole line is attained.  F is
    ``limit.cdf``, the form every p-value reads, built on ``math`` so that
    its bits do not depend on the kernels numpy dispatches to.  The
    samples are held to ``check_real_array``: finite reals, never a bool,
    a string or a complex number.
    """
    xs = np.sort(check_real_array("samples", samples))
    if xs.size == 0:
        raise ValueError("samples must be non-empty")
    r = xs.size
    grid = np.arange(1, r + 1, dtype=np.float64)
    cdf = np.array([limit.cdf(x) for x in xs.tolist()])
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
    """The (2, R) array of w_abs and w_signed of a cell's replicates keyed by ``keys``."""
    cell, keys = args
    X = sample_stack(cell.spec, cell.n, cell.p, keys)
    # X is finite float64 by construction and run_experiment checked the budget, so X enters the screen as it is
    return statcore._screen([X] * cell.m).w


def _summarize_cell(
    cell_id: str, cell: CellConfig, t: np.ndarray, ratios: np.ndarray, flagged: int, z_grid, runtime: float
) -> CellReport:
    """The report of a cell from its centred statistics ``t`` and ratios."""
    limit = GumbelLimit(cell.m, cell.sided)
    ecdf = tuple((np.searchsorted(np.sort(t), z_grid, side="right") / t.size).tolist())
    pvals = np.array([limit.sf(x) for x in t.tolist()])
    type1 = {lvl: float(np.count_nonzero(pvals < lvl) / t.size) for lvl in LEVELS}
    return CellReport(
        cell_id=cell_id,
        cell=cell,
        reps=t.size,
        ecdf=ecdf,
        ks_distance=ks_distance(t, limit),
        type1=type1,
        ratio_mean=float(np.mean(ratios)),
        ratio_sd=float(np.std(ratios, ddof=1)) if ratios.size > 1 else 0.0,
        flagged_nonpositive=flagged,
        runtime_seconds=runtime,
    )


def run_experiment(
    config: ExperimentConfig, workers: int = 1, budget: int = statcore.DEFAULT_COST_CEILING
) -> ExperimentReport:
    """Run every cell of the grid for the configured replicate count.

    Cells run sequentially; a cell's replicates (stream id = replicate
    index) run in chunks, at least one per usable worker, and the chunks
    are independent tasks that may run in parallel.  The returned report is identical for every
    worker count.  If ``config.output_path`` is set, its directory is
    made before the first draw and the report is persisted there.
    """
    statcore.check_budget([(c.p, c.m, c.n, config.reps) for c in config.grid], budget, "budget")
    procs = usable_workers(workers)
    if config.output_path is not None:
        # an output path that cannot be a directory fails before the first draw, not after the run
        out = Path(config.output_path)
        with _naming(f"failed to persist report under {out}"):
            out.mkdir(parents=True, exist_ok=True)
    # replicate r draws from stream (master_seed, r) in every cell
    keys = _philox_keys(config.master_seed, np.arange(config.reps))
    all_records: list[ReplicateRecord] = []
    cell_reports: list[CellReport] = []
    for cell_index, cell in enumerate(config.grid):
        t0 = time.perf_counter()
        tasks = [(cell, keys[lo:hi]) for lo, hi in _chunks(cell, config.reps, procs)]
        w_abs, w_signed = np.concatenate(parallel_map(_run_chunk, tasks, workers), axis=1)
        runtime = time.perf_counter() - t0
        w, flagged = sided_statistic(w_abs, w_signed, cell.sided)
        t = normalize(w, cell.p, cell.m)
        ratios = w_abs / math.sqrt(math.log(cell.p))
        cid = cell.cell_id(cell_index)
        all_records.extend(
            ReplicateRecord(cid, *row)
            for row in zip(range(config.reps), w_abs.tolist(), w_signed.tolist(), t.tolist(), ratios.tolist())
        )
        cell_reports.append(_summarize_cell(cid, cell, t, ratios, flagged, config.z_grid, runtime))
    report = ExperimentReport(config=config, cells=tuple(cell_reports), records=tuple(all_records))
    if config.output_path is not None:
        persist(report, config.output_path)
    return report


@contextlib.contextmanager
def _naming(what: str):
    """Re-raise any error of the body with ``what``, a file or directory, in front.

    An OSError stays an OSError.  Text that is not JSON, a field that a decoder finds
    missing or mistyped (KeyError or TypeError) and any other ValueError raise ValueError.
    """
    try:
        yield
    except OSError as exc:
        raise OSError(f"{what}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ValueError(f"{what} is not valid JSON: {exc}") from exc
    except (KeyError, TypeError) as exc:
        raise ValueError(f"{what} is missing or mistypes a field: {exc}") from exc
    except ValueError as exc:
        raise ValueError(f"{what}: {exc}") from exc


def persist(report: ExperimentReport, path) -> None:
    """Write records.csv and summary.json under ``path``.

    The CSV uses LF line endings, '.' decimals and 17 significant digits,
    which round-trips float64 exactly; identical (config, seed) runs
    produce identical bytes regardless of worker count.
    """
    out = Path(path)
    with _naming(f"failed to persist report under {out}"):
        out.mkdir(parents=True, exist_ok=True)
        with open(out / "records.csv", "w", newline="", encoding="ascii") as fh:
            writer = csv.writer(fh, lineterminator="\n")
            writer.writerow(RECORD_COLUMNS)
            columns = [map(fmt, map(operator.attrgetter(name), report.records))
                       for name, fmt in zip(RECORD_COLUMNS, _RECORD_FORMATS)]
            writer.writerows(zip(*columns))
        # a summary that does not serialize fails before its file is opened, so none is left cut short
        summary = {"config": report.config.to_json(), "cells": [c.to_json() for c in report.cells]}
        text = json.dumps(summary, indent=2, sort_keys=False) + "\n"
        (out / "summary.json").write_text(text, encoding="ascii")


def _parse_record(row: list[str], line: int) -> ReplicateRecord:
    """Read one records.csv row; a ValueError names the line, and the column that does not parse.

    A field must be its value as ``persist`` formats it, so ``1_0``, ``+2`` or
    ``1E3`` is refused; and ``persist`` never writes nan or inf, so a float
    column refuses them.
    """
    if len(row) != len(RECORD_COLUMNS):
        raise ValueError(f"records.csv line {line} has {len(row)} fields, expected {len(RECORD_COLUMNS)}")
    values = []
    for (name, tp), fmt, text in zip(_RECORD_TYPES.items(), _RECORD_FORMATS, row):
        try:
            values.append(tp(text))
            if fmt(values[-1]) != text or (tp is float and not math.isfinite(values[-1])):
                raise ValueError
        except ValueError:
            what = "finite float" if tp is float else tp.__name__
            raise ValueError(f"records.csv line {line} column {name} must be {what} as persist writes it, "
                             f"got {text!r}") from None
    return ReplicateRecord(*values)


def read_json(path, what: str, decode):
    """``decode`` applied to the JSON value read from ``path``.

    Every error names ``what``, as :func:`_naming` words it.
    """
    with _naming(what), open(path, encoding="utf-8") as fh:
        return decode(json.load(fh))


def _decode_summary(summary: dict) -> tuple[ExperimentConfig, tuple[CellReport, ...]]:
    config = ExperimentConfig.from_json(summary["config"])
    cells = tuple(map(CellReport.from_json, summary["cells"]))
    # run_experiment writes one report per grid cell, in grid order
    expected = [(cell.cell_id(i), cell, config.reps) for i, cell in enumerate(config.grid)]
    if [(c.cell_id, c.cell, c.reps) for c in cells] != expected:
        raise ValueError("summary.json's cells are not one report of reps replicates per grid cell, in grid order")
    return config, cells


def load_report(path) -> ExperimentReport:
    """Rebuild an ExperimentReport from a persisted directory.

    Every error names the directory.  A summary.json that does not read or
    whose cells are not the grid's, a records.csv without its header, a
    record that does not parse (named by its line), or records other than
    reps per grid cell in (cell, replicate) order raise ValueError.
    """
    out = Path(path)
    config, cells = read_json(out / "summary.json", f"report {out}", _decode_summary)
    with _naming(f"report {out}"), open(out / "records.csv", newline="", encoding="ascii") as fh:
        reader = csv.reader(fh)
        header = next(reader, [])
        if header != list(RECORD_COLUMNS):
            raise ValueError(f"records.csv header is {','.join(header)!r}, not {','.join(RECORD_COLUMNS)}")
        records = tuple(_parse_record(row, reader.line_num) for row in reader)
        expected = [(cell.cell_id(i), r) for i, cell in enumerate(config.grid) for r in range(config.reps)]
        if [(rec.cell_id, rec.replicate) for rec in records] != expected:
            raise ValueError(f"records.csv holds {len(records)} records, not reps x cells = "
                             f"{config.reps} x {len(config.grid)} of its grid in (cell, replicate) order")
    return ExperimentReport(config=config, cells=cells, records=records)
