"""Command line interface: simulate / test / diagnose / quantile.

Results go to stdout as JSON (or a bare number for quantile), never
with NaN or Infinity in it (a report that holds one exits 2); the
resolved configuration, including the seed, is logged to stderr as
strict JSON too.  Seeds default to the fixed constant
DEFAULT_MASTER_SEED so that repeated invocations are reproducible; pass
--seed for fresh randomness.

Exit codes: 0 success, 2 usage or validation error, 3 budget error,
4 I/O error.
"""

from __future__ import annotations

import argparse
import dataclasses
import functools
import json
import math
import sys

import numpy as np

from . import diagnostics, hypotest, lab, statcore
from .asymptotics import ONE_SIDED, TWO_SIDED, GumbelLimit, check_int, check_real
from .populations import FAMILIES, PopulationSpec, SeedSpec
from .statcore import BudgetError

DEFAULT_MASTER_SEED = 12345

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_BUDGET = 3
EXIT_IO = 4

_SIDED = {"two": TWO_SIDED, "one": ONE_SIDED}

# what a user of each command that enumerates or draws can do about a budget error
_BUDGET_REMEDY = {"test": "pass a larger --cost-ceiling to allow more, up to 9.2e18",
                  "simulate": "run fewer reps or a smaller grid, as no flag raises this limit",
                  "diagnose": "pass fewer --reps or a smaller --n or --m, as no flag raises this limit"}

# The flags each diagnose mode reads: all are required, and all go into
# the logged config.  Listed in the order they are checked.
_DIAGNOSE_FLAGS = {
    "lambda": ("z", "n", "p", "m"),
    "b1": ("p", "m", "single_tail"),
    "pairtail": ("s", "a", "n", "p", "m"),
    "mdr": ("n", "m", "x"),
}


def _log_config(name: str, resolved: dict) -> None:
    # a valid request may hold a non-finite flag (--z inf), logged as the string "inf"
    resolved = {k: repr(v) if isinstance(v, float) and not math.isfinite(v) else v for k, v in resolved.items()}
    print(f"tensormax {name} config: {json.dumps(resolved, sort_keys=True, allow_nan=False)}", file=sys.stderr)


def _flags(args) -> dict:
    """The request as argparse parsed it: every flag by its dest, without the command."""
    return {k: v for k, v in vars(args).items() if k != "command"}


def _add_seed_flags(sub) -> None:
    sub.add_argument("--seed", type=int, default=DEFAULT_MASTER_SEED,
                     help=f"master seed, unsigned 64-bit (default {DEFAULT_MASTER_SEED})")
    sub.add_argument("--stream", type=int, default=0,
                     help="stream id / replicate index (default 0)")
    sub.add_argument("--workers", type=int, default=1,
                     help="worker threads, >= 1, capped at the CPUs available; results "
                          "are identical for any value (default 1)")


@functools.cache  # one parser per process: main may run many requests
def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="tensormax",
        description="Largest off-diagonal entry of sample random tensors: "
                    "statistics, limit law, tests and diagnostics.",
    )
    subs = parser.add_subparsers(dest="command", required=True)

    q = subs.add_parser("quantile", help="closed-form quantile or CDF of the limit law")
    q.add_argument("--m", type=int, required=True, help="tensor order, 2..20")
    q.add_argument("--sided", choices=("two", "one"), default="two",
                   help="two-sided (absolute max) or one-sided (signed max) law (default two)")
    group = q.add_mutually_exclusive_group(required=True)
    group.add_argument("--q", type=float, help="probability in (0,1); prints the quantile")
    group.add_argument("--z", type=float, help="point at which to print the CDF")

    t = subs.add_parser("test", help="independence test from CSV data")
    t.add_argument("--input", nargs="+", required=True, metavar="CSV",
                   help="headerless CSV matrix; several files run the multi-population test")
    t.add_argument("--m", type=int, help="tensor order (required for a single input; "
                                         "defaults to the number of inputs otherwise)")
    t.add_argument("--sided", choices=("two", "one"), default="two",
                   help="sidedness of the statistic and limit (default two)")
    t.add_argument("--studentize", action="store_true",
                   help="center/scale columns empirically first; heuristic, "
                        "outside the variance-1 theory")
    t.add_argument("--cost-ceiling", type=int, default=statcore.DEFAULT_COST_CEILING,
                   help="multiply-add budget for the enumeration (default 1e10)")
    t.add_argument("--workers", type=int, default=1,
                   help="validated as >= 1 and otherwise unused for now; BLAS threading "
                        "follows the environment (default 1)")

    d = subs.add_parser("diagnose", help="Monte Carlo diagnostics of the limit ingredients")
    d.add_argument("--what", choices=("lambda", "b1", "pairtail", "mdr"), required=True)
    d.add_argument("--z", type=float, default=0.0, help="tail parameter z (lambda; default 0)")
    d.add_argument("--n", type=int, help="sample size per replicate")
    d.add_argument("--p", type=int, help="number of coordinates")
    d.add_argument("--m", type=int, help="tensor order")
    d.add_argument("--population", choices=FAMILIES, default="standard_normal",
                   help="population family (default standard_normal)")
    d.add_argument("--df", type=int, default=None, help="degrees of freedom (student t only)")
    d.add_argument("--reps", type=int, default=10**5, help="Monte Carlo replicates (default 1e5)")
    d.add_argument("--s", type=int, help="shared-coordinate count, 1..m-1 (pairtail)")
    d.add_argument("--a", type=float, help="threshold multiplier a_n > 0 (pairtail)")
    d.add_argument("--x", type=float, help="tail point x >= 0 (mdr)")
    d.add_argument("--single-tail", type=float, dest="single_tail",
                   help="tail probability in [0,1] (b1)")
    _add_seed_flags(d)

    s = subs.add_parser("simulate", help="run a replicated experiment grid from a JSON config",
                        description="Run a replicated experiment grid from a JSON config.  A run above "
                                    "1e10 multiply-adds in all exits 3; only the library's "
                                    "run_experiment(budget=...) raises that limit.")
    s.add_argument("--config", required=True, help="path to the experiment config JSON")
    s.add_argument("--output", help="output directory (overrides the config's output_path)")
    s.add_argument("--workers", type=int, default=1,
                   help="worker threads per cell, >= 1, capped at the CPUs available; "
                        "output bytes identical for any value")
    return parser


def _cmd_quantile(args) -> int:
    # --q and --z are exclusive: the one left unset is not logged
    _log_config("quantile", {k: v for k, v in _flags(args).items() if v is not None})
    limit = GumbelLimit(args.m, _SIDED[args.sided])
    print(f"{limit.cdf(args.z) if args.q is None else limit.quantile(args.q):.12g}")
    return EXIT_OK


def _studentized(A: np.ndarray) -> np.ndarray:
    if A.shape[0] < 2:
        raise ValueError(f"cannot studentize: a sample variance needs at least 2 rows, got {A.shape[0]}")
    sd = np.std(A, axis=0, ddof=1)
    if np.any(sd == 0.0):
        raise ValueError("cannot studentize: some column has zero sample variance")
    return (A - np.mean(A, axis=0)) / sd


def _cmd_test(args) -> int:
    _log_config("test", _flags(args))
    # every flag is checked before any input is read
    check_int("workers", args.workers, 1)
    check_real("cost_ceiling", args.cost_ceiling, 0.0)
    k = len(args.input)
    if k == 1 and args.m is None:
        raise ValueError("--m is required when testing a single input matrix")
    if k > 1 and args.m is not None and args.m != k:
        raise ValueError(f"--m {args.m} conflicts with {k} input matrices "
                         "(the multi-population order is the number of matrices)")
    # m <= 20 and m <= p stay with the test, which has the data
    check_int("m", k if args.m is None else args.m, 2)
    matrices = [statcore.load_matrix_csv(path) for path in args.input]
    if args.studentize:
        matrices = [_studentized(A) for A in matrices]
    if k == 1:
        result = hypotest.test_independence(
            matrices[0], args.m, sided=_SIDED[args.sided], cost_ceiling=args.cost_ceiling
        )
    else:
        result = hypotest.test_independence_multi(
            matrices, sided=_SIDED[args.sided], cost_ceiling=args.cost_ceiling
        )
    print(json.dumps(result.to_json(), indent=2, allow_nan=False))
    return EXIT_OK


def _cmd_diagnose(args) -> int:
    flags = {name: getattr(args, name) for name in _DIAGNOSE_FLAGS[args.what]}
    # logged from the raw flags before any is checked, so a bad one still
    # leaves a config line; df is written only when set, as to_json does
    population = {"family": args.population, **({} if args.df is None else {"df": args.df})}
    resolved = {
        "what": args.what,
        "population": population,
        "seed": {"master_seed": args.seed, "stream_id": args.stream},
        "reps": args.reps,
        "workers": args.workers,
        **flags,
    }
    _log_config("diagnose", resolved)
    spec = PopulationSpec(family=args.population, df=args.df)
    seed = SeedSpec(master_seed=args.seed, stream_id=args.stream)
    for name, value in flags.items():
        if value is None:
            raise ValueError(f"--{name.replace('_', '-')} is required for this diagnose mode")
    check_int("reps", args.reps, 1)
    check_int("workers", args.workers, 1)
    if args.what == "lambda":
        out = diagnostics.estimate_lambda(
            args.z, args.n, args.p, args.m, spec, args.reps, seed, workers=args.workers
        ).to_json()
    elif args.what == "b1":
        value = diagnostics.b1_bound(args.p, args.m, args.single_tail)
        out = {"p": args.p, "m": args.m, "single_tail": args.single_tail, "b1_bound": value}
    elif args.what == "pairtail":
        pspec = diagnostics.PairTailSpec(s=args.s, a_n=args.a, n=args.n, p=args.p,
                                         m=args.m, spec=spec)
        est = diagnostics.estimate_pair_tail(pspec, args.reps, seed, workers=args.workers)
        out = {
            "spec": {"s": args.s, "a_n": args.a, "n": args.n, "p": args.p, "m": args.m,
                     "population": spec.to_json()},
            "estimate": est.to_json(),
            "analytic_decay": diagnostics.pair_tail_decay_exponents(pspec),
        }
    else:  # mdr
        out = diagnostics.moderate_deviation_ratio(
            spec, args.m, args.n, args.x, args.reps, seed, workers=args.workers
        ).to_json()
    print(json.dumps(out, indent=2, allow_nan=False))
    return EXIT_OK


def _cmd_simulate(args) -> int:
    config = lab.read_json(args.config, f"config {args.config}", lab.ExperimentConfig.from_json)
    if args.output is not None:
        config = dataclasses.replace(config, output_path=args.output)
    _log_config("simulate", {"config": config.to_json(), "workers": args.workers})
    report = lab.run_experiment(config, workers=args.workers)
    print(json.dumps({"cells": [c.to_json() for c in report.cells],
                      "records": len(report.records),
                      "output_path": config.output_path}, indent=2, allow_nan=False))
    return EXIT_OK


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    handlers = {
        "quantile": _cmd_quantile,
        "test": _cmd_test,
        "diagnose": _cmd_diagnose,
        "simulate": _cmd_simulate,
    }
    try:
        return handlers[args.command](args)
    except BudgetError as exc:
        print(f"tensormax: budget error: {exc}; {_BUDGET_REMEDY[args.command]}", file=sys.stderr)
        return EXIT_BUDGET
    except ValueError as exc:
        print(f"tensormax: error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except OSError as exc:
        print(f"tensormax: io error: {exc}", file=sys.stderr)
        return EXIT_IO


if __name__ == "__main__":
    sys.exit(main())
