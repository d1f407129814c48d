"""The benchmark's workloads: inputs made from the seed, the request cycle, output checks.

Each workload is a fixed list of ``tensormax`` command lines that the
harness sends in order, one at a time, for as many whole cycles as the
run allows.  Inputs are CSVs and JSON configs written by this module with
numpy's own generator, so they depend on the workload seed only and never
on the program under test.  The checks run after the timed loop.
"""

from __future__ import annotations

import csv
import hashlib
import io
import itertools
import json
import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

GOLDENS_PATH = Path(__file__).with_name("goldens.json")

# |estimate - reference| may reach this many combined standard errors.
SE_TOLERANCE = 4.5

UNIT_ROUNDOFF = 2.0**-53


@dataclass(frozen=True)
class Request:
    kind: str
    argv: tuple[str, ...]  # "{out}" stands for a fresh output directory per request
    work: float  # units of the workload's work per second metric


@dataclass(frozen=True)
class Response:
    kind: str
    code: object  # exit code, or the traceback text of an exception
    stdout: str
    out_dir: str | None


def load_goldens() -> dict:
    with open(GOLDENS_PATH, encoding="utf-8") as fh:
        return json.load(fh)


def _csv(path: Path, X: np.ndarray) -> str:
    # 17 significant digits round-trip float64 exactly through the parser.
    np.savetxt(path, X, fmt="%.17g", delimiter=",")
    return str(path)


def _rng(seed: int, stream: int) -> np.random.Generator:
    return np.random.default_rng([seed, stream])


def _parsed(errors: list[str], code, stdout):
    """Common exit-code and JSON checks; returns the parsed output or None."""
    if code != 0:
        errors.append(f"exit code {code!r}")
        return None
    try:
        return json.loads(stdout)
    except json.JSONDecodeError as exc:
        errors.append(f"stdout is not JSON: {exc}")
        return None


# ---------------------------------------------------------------- cli_test

def tuple_entry(X: np.ndarray, tup) -> float:
    """The entry at a 1-based tuple, built as ``max_entry_bruteforce`` builds it."""
    prod = X[:, tup[0] - 1].copy()
    for j in tup[1:]:
        prod = prod * X[:, j - 1]
    return float(np.sum(prod) / math.sqrt(X.shape[0]))


def blas_excess(X: np.ndarray, m: int, w_abs: float, w_signed: float) -> tuple[float, float]:
    """How far the largest BLAS-computed entry exceeds the reported maxima.

    Every increasing m-tuple is evaluated as ``(X * prefix)^T X`` for each
    prefix of depth m-2.  Each entry is lowered by twice the rounding bound
    gamma_k * ||x_prefix * x_a|| * ||x_b|| / sqrt(n), k = n + m + 2 (Higham,
    Accuracy and Stability of Numerical Algorithms, 3.1, with Cauchy-Schwarz
    on the sum of absolute terms), which covers both the BLAS value and the
    program's own rounding.  A positive result means some tuple beats the
    reported maximum by more than rounding can explain.
    """
    n, p = X.shape
    k = n + m + 2
    gamma = k * UNIT_ROUNDOFF / (1.0 - k * UNIT_ROUNDOFF)
    sqrt_n = math.sqrt(n)
    norms = np.linalg.norm(X, axis=0)
    worst_abs = worst_signed = -math.inf
    for prefix in itertools.combinations(range(p - 2), m - 2):
        start = prefix[-1] + 1 if prefix else 0
        B = X[:, start:]
        A = B * np.prod(X[:, list(prefix)], axis=1)[:, None] if prefix else B
        G = (A.T @ B) / sqrt_n
        slack = 2.0 * gamma * np.outer(np.linalg.norm(A, axis=0), norms[start:]) / sqrt_n
        upper = np.triu_indices(G.shape[0], 1)
        G, slack = G[upper], slack[upper]
        worst_abs = max(worst_abs, float(np.max(np.abs(G) - slack)) - w_abs)
        worst_signed = max(worst_signed, float(np.max(G - slack)) - w_signed)
    return worst_abs, worst_signed


def check_test_output(X: np.ndarray, m: int, code, stdout: str, golden: dict | None) -> list[str]:
    """Problems with one ``tensormax test`` response; empty when it is right."""
    errors: list[str] = []
    out = _parsed(errors, code, stdout)
    if out is None:
        return errors
    stat = out["stat"]
    w_abs, w_signed = stat["w_abs"], stat["w_signed"]
    arg_abs, arg_signed = tuple(stat["argmax_abs"]), tuple(stat["argmax_signed"])
    if golden is not None:
        for key, want in golden.items():
            got = float.hex(stat[key]) if key.startswith("w_") else stat[key]
            if got != want:
                errors.append(f"{key} = {got}, golden {want}")
    for name, tup in (("argmax_abs", arg_abs), ("argmax_signed", arg_signed)):
        if len(tup) != m or list(tup) != sorted(set(tup)) or tup[0] < 1 or tup[-1] > X.shape[1]:
            errors.append(f"{name} {tup} is not an increasing {m}-tuple in 1..{X.shape[1]}")
            return errors
    if abs(tuple_entry(X, arg_abs)) != w_abs:
        errors.append(f"entry at argmax_abs {arg_abs} is {abs(tuple_entry(X, arg_abs))!r}, not w_abs {w_abs!r}")
    if tuple_entry(X, arg_signed) != w_signed:
        errors.append(f"entry at argmax_signed {arg_signed} is {tuple_entry(X, arg_signed)!r}, not w_signed {w_signed!r}")
    excess_abs, excess_signed = blas_excess(X, m, w_abs, w_signed)
    if excess_abs > 0.0:
        errors.append(f"a tuple exceeds w_abs by {excess_abs:.3g} beyond the rounding bound")
    if excess_signed > 0.0:
        errors.append(f"a tuple exceeds w_signed by {excess_signed:.3g} beyond the rounding bound")
    return errors


class CliTest:
    """``tensormax test`` on three fixed headerless CSVs, one per tensor order."""

    name = "cli_test"
    # kind -> (n, p, m): a matmul-friendly last level, a one-level prefix,
    # and deep prefix recursion.
    SHAPES = {"m2": (2000, 400, 2), "m3": (300, 60, 3), "m4": (120, 40, 4)}
    WARMUP_SHAPE = (40, 8)
    PROBE_REFERENCE_S = 0.006

    def __init__(self):
        rng = _rng(0, 99)
        self._probe_csv = "\n".join(",".join(f"{v:.17g}" for v in row) for row in rng.standard_normal((60, 40)))
        self._probe_wide = np.ascontiguousarray(rng.standard_normal((2000, 120)).T)
        self._probe_narrow = np.ascontiguousarray(rng.standard_normal((120, 24)).T)

    def probe(self) -> None:
        """CSV parsing, long multiply-sums and many short ones, as in the three tests."""
        np.loadtxt(io.StringIO(self._probe_csv), delimiter=",")
        wide, narrow = self._probe_wide, self._probe_narrow
        for i in range(0, len(wide) - 1, 6):
            (wide[i + 1:] * wide[i]).sum(axis=1).argmax()
        for i in range(len(narrow) - 2):
            for j in range(i + 1, len(narrow) - 1):
                (narrow[j + 1:] * (narrow[i] * narrow[j])).sum(axis=1).argmax()

    def prepare(self, seed: int, workdir: Path):
        self.data = {}
        requests = []
        for stream, (kind, (n, p, m)) in enumerate(self.SHAPES.items()):
            X = _rng(seed, stream).standard_normal((n, p))
            self.data[kind] = (X, m)
            path = _csv(workdir / f"{kind}.csv", X)
            requests.append(Request(kind, ("test", "--input", path, "--m", str(m), "--workers", "1"), 1.0))
        small = _csv(workdir / "warmup.csv", _rng(seed, len(self.SHAPES)).standard_normal(self.WARMUP_SHAPE))
        warmups = [("test", "--input", small, "--m", str(m), "--workers", "1") for m in (2, 3, 4)]
        return requests, warmups

    def check(self, responses: list[Response], seed: int) -> list[list[str]]:
        golden = load_goldens()["cli_test"].get(str(seed), {})
        verdicts: dict[tuple, list[str]] = {}
        out = []
        for r in responses:
            key = (r.kind, r.code, r.stdout)
            if key not in verdicts:
                X, m = self.data[r.kind]
                verdicts[key] = check_test_output(X, m, r.code, r.stdout, golden.get(r.kind))
            out.append(verdicts[key])
        return out

    def golden_entry(self, responses: list[Response]) -> dict:
        entry = {}
        for r in responses:
            stat = json.loads(r.stdout)["stat"]
            entry[r.kind] = {"w_abs": float.hex(stat["w_abs"]), "w_signed": float.hex(stat["w_signed"]),
                             "argmax_abs": stat["argmax_abs"], "argmax_signed": stat["argmax_signed"]}
        return entry

    def named_metrics(self, p50: dict, cycle_s: float) -> list[tuple[str, float, str]]:
        return [("tests_per_s", len(self.SHAPES) / cycle_s, "1/s")] + [
            (f"test_{kind}_ms_p50", p50[kind] * 1e3, "ms") for kind in self.SHAPES]


# ----------------------------------------------------------- simulate_grid

def _cell(n, p, m, family, sided):
    return {"n": n, "p": p, "m": m, "spec": {"family": family}, "sided": sided}


def w_columns(out_dir: str) -> tuple[str, list[tuple[str, ...]]]:
    """Digest of the w_abs and w_signed columns of records.csv, and its rows."""
    with open(Path(out_dir) / "records.csv", newline="", encoding="ascii") as fh:
        rows = list(csv.DictReader(fh))
    text = "".join(f"{row['w_abs']},{row['w_signed']}\n" for row in rows)
    keyed = [(row["cell_id"], row["replicate"], row["w_abs"], row["w_signed"]) for row in rows]
    return hashlib.sha256(text.encode("ascii")).hexdigest(), keyed


class SimulateGrid:
    """``tensormax simulate`` over the acceptance cells and a many-small-calls config."""

    name = "simulate_grid"
    CONFIGS = {
        "accept": ([_cell(500, 100, 2, "standard_normal", "two_sided"),
                    _cell(300, 40, 3, "standard_normal", "two_sided")], 50),
        "smallp": ([_cell(200, 20, 2, "rademacher", "one_sided"),
                    _cell(500, 20, 2, "centered_exponential", "two_sided")], 1000),
    }
    WARMUP = ([_cell(30, 8, 2, "standard_normal", "two_sided"), _cell(30, 8, 3, "rademacher", "one_sided"),
               _cell(30, 8, 2, "centered_exponential", "two_sided")], 3)
    PROBE_REFERENCE_S = 0.0045

    def __init__(self):
        self._probe_wide = np.ascontiguousarray(_rng(0, 99).standard_normal((500, 100)).T)

    def probe(self) -> None:
        """Seeded generators, small draws and short enumerations per replicate, plus one wider matrix."""
        for r in range(12):
            g = np.random.Generator(np.random.Philox(np.random.SeedSequence((7, r))))
            xt = np.ascontiguousarray(g.standard_normal((200, 20)).T)
            for i in range(len(xt) - 1):
                abs(float(((xt[i + 1:] * xt[i]).sum(axis=1) / 14.0).max())) ** 2
        wide = self._probe_wide
        for i in range(0, len(wide) - 1, 3):
            (wide[i + 1:] * wide[i]).sum(axis=1).argmax()

    def prepare(self, seed: int, workdir: Path):
        self.configs = {}
        requests = []
        for kind, (grid, reps) in self.CONFIGS.items():
            self.configs[kind] = {"grid": grid, "reps": reps, "master_seed": seed}
            path = workdir / f"{kind}.json"
            path.write_text(json.dumps(self.configs[kind]), encoding="ascii")
            requests.append(Request(kind, ("simulate", "--config", str(path), "--output", "{out}",
                                           "--workers", "1"), float(reps * len(grid))))
        warm = workdir / "warmup.json"
        warm.write_text(json.dumps({"grid": self.WARMUP[0], "reps": self.WARMUP[1], "master_seed": seed}),
                        encoding="ascii")
        return requests, [("simulate", "--config", str(warm), "--output", str(workdir / "warmup-out"),
                           "--workers", "1")]

    def _spot_check(self, kind: str, rows) -> list[str]:
        """Recompute the first and last replicate of every cell with the bruteforce oracle."""
        from tensormax import PopulationSpec, SeedSpec, max_entry_bruteforce, sample_matrix

        config = self.configs[kind]
        # Cells run and persist in declared order.
        groups = [list(g) for _, g in itertools.groupby(rows, key=lambda r: r[0])]
        if [len(g) for g in groups] != [config["reps"]] * len(config["grid"]):
            return [f"records per cell {[len(g) for g in groups]}, expected {config['reps']} "
                    f"for each of {len(config['grid'])} cells"]
        errors = []
        for index, (cell, cell_rows) in enumerate(zip(config["grid"], groups)):
            for _, replicate, w_abs, w_signed in (cell_rows[0], cell_rows[-1]):
                X = sample_matrix(PopulationSpec(cell["spec"]["family"]), cell["n"], cell["p"],
                                  SeedSpec(config["master_seed"], int(replicate)))
                res = max_entry_bruteforce(X, cell["m"])
                if (f"{res.w_abs:.17g}", f"{res.w_signed:.17g}") != (w_abs, w_signed):
                    errors.append(f"cell {index} replicate {replicate}: records ({w_abs}, {w_signed}), "
                                  f"oracle ({res.w_abs:.17g}, {res.w_signed:.17g})")
        return errors

    def check(self, responses: list[Response], seed: int) -> list[list[str]]:
        golden = load_goldens()["simulate_grid"].get(str(seed), {})
        first: dict[str, str] = {}
        verdicts: dict[str, list[str]] = {}
        out = []
        for r in responses:
            errors: list[str] = []
            if _parsed(errors, r.code, r.stdout) is None:
                out.append(errors)
                continue
            digest, rows = w_columns(r.out_dir)
            if digest not in verdicts:
                verdicts[digest] = self._spot_check(r.kind, rows)
                if r.kind in golden and digest != golden[r.kind]:
                    verdicts[digest].append(f"w columns digest {digest} differs from golden {golden[r.kind]}")
            errors.extend(verdicts[digest])
            if first.setdefault(r.kind, digest) != digest:
                errors.append("w columns differ from the first response of this config")
            out.append(errors)
        return out

    def golden_entry(self, responses: list[Response]) -> dict:
        return {r.kind: w_columns(r.out_dir)[0] for r in responses}

    def named_metrics(self, p50: dict, cycle_s: float) -> list[tuple[str, float, str]]:
        return [(f"{kind}_reps_per_s", reps * len(grid) / p50[kind], "1/s")
                for kind, (grid, reps) in self.CONFIGS.items()]


# ------------------------------------------------------------- diagnose_mc

def rademacher_tail(n: int, x: float) -> float:
    """Exact P(S_n / sqrt(n) >= x) for S_n = 2 Bin(n, 1/2) - n.

    A product of Rademachers is Rademacher, so this is the exact law of
    the m-fold product sum.  The threshold is compared in floating point
    the way the estimator compares it.
    """
    sqrt_n = math.sqrt(n)
    b0 = next((b for b in range(n + 1) if (2 * b - n) / sqrt_n >= x), n + 1)
    total, c = 0, math.comb(n, b0) if b0 <= n else 0
    for b in range(b0, n + 1):
        total += c
        c = c * (n - b) // (b + 1)
    return total / 2**n


def _hits(kind: str, out: dict) -> tuple[int, int]:
    src = out["single_tail"] if kind == "lambda" else out["estimate"] if kind == "pairtail" else out
    return int(src["hits"]), int(src["reps"])


def se_distance(hits: int, reps: int, p_ref: float, reps_ref: float) -> float:
    """|hits/reps - p_ref| in combined binomial standard errors at p_ref."""
    se = math.sqrt(p_ref * (1.0 - p_ref) * (1.0 / reps + 1.0 / reps_ref))
    diff = abs(hits / reps - p_ref)
    if se == 0.0:
        return 0.0 if diff == 0.0 else math.inf
    return diff / se


class DiagnoseMc:
    """Four ``tensormax diagnose`` requests: the proof checker's Monte Carlo path."""

    name = "diagnose_mc"
    # kind -> (flags, reps, scalars per replicate = n * factors)
    KINDS = {
        "lambda": (("--what", "lambda", "--z", "0", "--n", "500", "--p", "30", "--m", "2",
                    "--population", "standard_normal"), 50000, 500 * 2),
        "mdr_rademacher": (("--what", "mdr", "--x", "2", "--n", "10000", "--m", "2",
                            "--population", "rademacher"), 5000, 10000 * 2),
        "mdr_t": (("--what", "mdr", "--x", "2", "--n", "1000", "--m", "3",
                   "--population", "student_t_standardized", "--df", "8"), 5000, 1000 * 3),
        "pairtail": (("--what", "pairtail", "--s", "1", "--a", "1.0", "--n", "200", "--p", "20", "--m", "2",
                      "--population", "standard_normal"), 50000, 200 * 3),
    }
    WARMUP_REPS = 200
    PROBE_REFERENCE_S = 0.009

    def probe(self) -> None:
        """Bulk normal, Rademacher and Student t draws with products, row sums and tail counts."""
        g = np.random.Generator(np.random.Philox(11))
        a = g.standard_normal((100, 1000))
        a *= g.standard_normal((100, 1000))
        int(np.count_nonzero(np.abs(a.sum(axis=1)) > 40.0))
        b = g.integers(0, 2, size=(50, 4000), dtype=np.int8).astype(np.float64) * 2.0 - 1.0
        b *= g.integers(0, 2, size=(50, 4000), dtype=np.int8).astype(np.float64) * 2.0 - 1.0
        int(np.count_nonzero(b.sum(axis=1) >= 100.0))
        t = g.standard_t(8, size=(30, 1000)) / math.sqrt(8.0 / 6.0)
        int(np.count_nonzero(t.sum(axis=1) > 40.0))

    def prepare(self, seed: int, workdir: Path):
        common = ("--seed", str(seed), "--workers", "1")
        requests = [Request(kind, ("diagnose", *flags, "--reps", str(reps), *common), float(reps * per_rep))
                    for kind, (flags, reps, per_rep) in self.KINDS.items()]
        warmups = [("diagnose", *flags, "--reps", str(self.WARMUP_REPS), *common)
                   for flags, _, _ in self.KINDS.values()]
        return requests, warmups

    def reference(self, kind: str) -> tuple[float, float] | None:
        """(probability, replicates behind it) the estimate is compared against.

        The Rademacher ratio has an exact reference; the others pool the
        estimates stored for the committed seeds, so that an estimator that
        draws differently but targets the same quantity still passes.
        None only while no golden exists yet, when goldens are being written.
        """
        if kind == "mdr_rademacher":
            flags = dict(zip(self.KINDS[kind][0][::2], self.KINDS[kind][0][1::2]))
            return rademacher_tail(int(flags["--n"]), float(flags["--x"])), math.inf
        pooled = [g[kind] for g in load_goldens()["diagnose_mc"].values()]
        if not pooled:
            return None
        hits, reps = sum(h for h, _ in pooled), sum(r for _, r in pooled)
        return hits / reps, float(reps)

    def check(self, responses: list[Response], seed: int) -> list[list[str]]:
        first: dict[str, str] = {}
        verdicts: dict[tuple, list[str]] = {}
        out = []
        for r in responses:
            key = (r.kind, r.code, r.stdout)
            if key not in verdicts:
                errors: list[str] = []
                parsed = _parsed(errors, r.code, r.stdout)
                ref = self.reference(r.kind)
                if parsed is not None and ref is not None:
                    hits, reps = _hits(r.kind, parsed)
                    p_ref, reps_ref = ref
                    dist = se_distance(hits, reps, p_ref, reps_ref)
                    if not dist <= SE_TOLERANCE:
                        errors.append(f"estimate {hits}/{reps} is {dist:.2f} SE from reference {p_ref:.6g}")
                verdicts[key] = errors
            errors = list(verdicts[key])
            if first.setdefault(r.kind, r.stdout) != r.stdout:
                errors.append("output differs from the first response of this kind")
            out.append(errors)
        return out

    def golden_entry(self, responses: list[Response]) -> dict:
        return {r.kind: list(_hits(r.kind, json.loads(r.stdout))) for r in responses if r.kind != "mdr_rademacher"}

    def named_metrics(self, p50: dict, cycle_s: float) -> list[tuple[str, float, str]]:
        work = sum(reps * per_rep for _, reps, per_rep in self.KINDS.values())
        return [("scalars_per_s", work / cycle_s, "1/s")] + [
            (f"diag_{kind}_s_p50", p50[kind], "s") for kind in self.KINDS]


WORKLOADS = {cls.name: cls for cls in (CliTest, SimulateGrid, DiagnoseMc)}
