#!/usr/bin/env python3
"""Replicated grid experiment: empirical law of T against the limit.

Runs a small grid (a few seconds), prints per-cell KS distances,
type-I error rates and ratio summaries, and persists records.csv +
summary.json to a temporary directory, which is removed at the end.
Exits 1 unless the persisted copy reads back exactly.
"""

import dataclasses
import sys
import tempfile
from pathlib import Path

from tensormax import (
    CellConfig,
    ExperimentConfig,
    PopulationSpec,
    load_report,
    run_experiment,
)

NORMAL = PopulationSpec("standard_normal")

config = ExperimentConfig(
    grid=(
        CellConfig(n=500, p=20, m=2, spec=NORMAL),
        CellConfig(n=500, p=100, m=2, spec=NORMAL),
        CellConfig(n=300, p=40, m=3, spec=NORMAL),
    ),
    reps=300,
    master_seed=20250809,
)

with tempfile.TemporaryDirectory(prefix="tensormax_demo_") as tmp:
    out_dir = Path(tmp)
    config = dataclasses.replace(config, output_path=str(out_dir))

    print(f"Running {len(config.grid)} cells x {config.reps} replicates ...")
    report = run_experiment(config, workers=2)

    print()
    print(f"{'cell':<28} {'KS':>7} {'type-I@.05':>11} {'ratio mean':>11} {'target':>7} {'secs':>6}")
    for cell in report.cells:
        target = (2.0 * cell.cell.m) ** 0.5
        print(
            f"{cell.cell_id:<28} {cell.ks_distance:>7.4f} {cell.type1[0.05]:>11.4f} "
            f"{cell.ratio_mean:>11.4f} {target:>7.4f} {cell.runtime_seconds:>6.1f}"
        )

    print()
    print("Reading the persisted copy back (round trip is exact):")
    loaded = load_report(out_dir)
    same_records, same_cells = loaded.records == report.records, loaded.cells == report.cells
    print(f"  {out_dir.name}/records.csv: {len(loaded.records)} rows")
    print(f"  identical records: {same_records}")
    print(f"  identical summaries: {same_cells}")

print()
print("Note the m=3 cell: at n=300 the empirical law still sits right of the")
print("limit (heavy product tails), so its KS stays near 0.2; rerunning with")
print("n=3000 brings it under 0.07.  Convergence needs n and p to grow together.")

if not (same_records and same_cells and loaded.config == report.config):
    sys.exit("the persisted report does not read back exactly")
