"""tensormax benchmark: one workload per run, closed loop, one client.

    python3 perfbench/run.py --workload cli_test --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all          # every workload, one process each

Run from anywhere; the program is imported from ``src/`` beside this
directory and nowhere else.  Each request calls ``tensormax.cli.main``
in-process with stdout and stderr captured; the next request starts when
the previous one returns, cycling through the workload's request list in
a fixed order for whole cycles until ``--seconds`` would be exceeded.

``--trace 0`` prints the end-to-end metrics, ``--trace 1`` the per-layer
metrics of a separate traced run (see tracer.py).  Human-readable lines
come first; the last line of stdout is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  A full record,
with the machine description, goes to ``.perfbench_out/`` in the checkout.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import itertools
import json
import math
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import traceback
from collections import defaultdict
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT_ROOT = ROOT / ".perfbench_out"
SPEC_PATH = ROOT / "BENCHMARK.json"

DEFAULT_SEED = 1
HELD_OUT_SEED = 2
SETUP_REPEATS = 7
CHILD_TIMEOUT_S = 120

# A shared machine changes speed by up to half over minutes as other
# tenants come and go, which no amount of work per run averages away.  A
# probe kernel runs right after every request, outside the timed region,
# and every request time the run reports is scaled by (reference time /
# median probe time): it reads as if the machine ran at the speed where
# the probe takes its reference time.  Each workload brings its own probe,
# numpy only and never tensormax, with the same mix of work as its
# requests, because parsing, small numpy calls and bulk draws slow down
# by different amounts.  Raw times are kept in the result record.
# Requests get one probe per PROBE_EVERY_S of their own time, so the
# probes weigh the run's stretches as the requests do.
PROBE_EVERY_S = 0.25


# Imports tensormax in a fresh interpreter, sends the warm-up requests and
# prints the seconds that took.  argv: src directory, JSON list of argvs.
SETUP_CHILD = r"""
import contextlib, io, json, sys, time
t0 = time.perf_counter()
sys.path.insert(0, sys.argv[1])
from tensormax import cli
for argv in json.loads(sys.argv[2]):
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        if cli.main(argv) != 0:
            sys.exit(3)
print(repr(time.perf_counter() - t0))
"""


def limit_blas_threads() -> int:
    """Cap BLAS and OpenMP threads at the CPUs this process may use; returns the cap."""
    cpus = len(os.sched_getaffinity(0))
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        current = os.environ.get(var, "")
        if not current.isdigit() or not 1 <= int(current) <= cpus:
            os.environ[var] = str(cpus)
    return int(os.environ["OPENBLAS_NUM_THREADS"])


class SpeedProbe:
    """Times a workload's probe kernel; see the note on speed scaling above."""

    def __init__(self, kernel, reference_s: float):
        self._kernel = kernel
        self._reference_s = reference_s
        self.samples: list[float] = []

    def after(self, busy_s: float) -> None:
        """Probe in proportion to the request time just measured."""
        for _ in range(min(50, max(1, round(busy_s / PROBE_EVERY_S)))):
            t0 = perf_counter()
            self._kernel()
            self.samples.append(perf_counter() - t0)

    def scale(self) -> float:
        """Multiply a time measured in this run by this to express it at reference speed."""
        return self._reference_s / statistics.median(self.samples)


def import_program():
    """Import tensormax from the checkout's src/ and refuse any other copy."""
    sys.path.insert(0, str(SRC))
    import tensormax
    from tensormax import cli

    if Path(tensormax.__file__).resolve().parent != SRC / "tensormax":
        raise RuntimeError(f"imported tensormax from {tensormax.__file__}, not from {SRC}")
    return cli


def call_cli(cli, argv) -> tuple[object, str]:
    """One request: ``cli.main(argv)`` with stdout and stderr captured."""
    sink_out, sink_err = io.StringIO(), io.StringIO()
    try:
        with contextlib.redirect_stdout(sink_out), contextlib.redirect_stderr(sink_err):
            code = cli.main(list(argv))
    except SystemExit as exc:
        code = exc.code
    except Exception:  # a failed request is counted, never fatal to the run
        code = traceback.format_exc()
    return code, sink_out.getvalue()


@dataclass
class Run:
    """What the closed loop saw: per request its kind, cycle, latency and response."""

    kinds: list = field(default_factory=list)
    cycle_of: list = field(default_factory=list)
    latency_s: list = field(default_factory=list)
    traced_cycles: set = field(default_factory=set)
    responses: list = field(default_factory=list)

    def by_kind(self) -> dict[str, list[float]]:
        out = defaultdict(list)
        for kind, lat in zip(self.kinds, self.latency_s):
            out[kind].append(lat)
        return out

    def cycles(self, traced: bool | None = None) -> list[float]:
        sums = defaultdict(float)
        for c, lat in zip(self.cycle_of, self.latency_s):
            if traced is None or (c in self.traced_cycles) == traced:
                sums[c] += lat
        return [sums[c] for c in sorted(sums)]


def measure(cli, requests, seconds: float, workdir: Path, probe: SpeedProbe, tracer=None) -> Run:
    """Closed loop over whole cycles of ``requests`` until ``seconds`` would be exceeded.

    With a tracer, every second cycle runs with the wrappers installed, so
    traced and untraced cycles share the same stretch of machine time and
    their ratio is the tracing overhead.
    """
    from workloads import Response

    run = Run()
    send = tracer.span("request", call_cli) if tracer else call_cli
    walls = []
    start = perf_counter()
    for cycle in itertools.count():
        traced_now = tracer is not None and cycle % 2 == 1
        if traced_now:
            run.traced_cycles.add(cycle)
            tracer.install()
        cycle_start = perf_counter()
        try:
            for req in requests:
                out_dir = None
                argv = req.argv
                if "{out}" in argv:
                    out_dir = str(workdir / f"out-{len(run.responses)}")
                    argv = tuple(out_dir if a == "{out}" else a for a in argv)
                if tracer is not None:
                    tracer.request_id = len(run.responses)
                    tracer.recording = traced_now
                t0 = perf_counter()
                try:
                    code, stdout = send(cli, argv)
                finally:
                    latency = perf_counter() - t0
                    if tracer is not None:
                        tracer.recording = False
                run.kinds.append(req.kind)
                run.cycle_of.append(cycle)
                run.latency_s.append(latency)
                run.responses.append(Response(req.kind, code, stdout, out_dir))
                probe.after(latency)
        finally:
            if traced_now:
                tracer.remove()
        walls.append(perf_counter() - cycle_start)
        enough = tracer is None or cycle >= 1
        if enough and perf_counter() - start + statistics.median(walls) > seconds:
            return run


def setup_times(warmups) -> list[float]:
    """Seconds to import tensormax and send the warm-up requests, each in a fresh interpreter."""
    samples = []
    for _ in range(SETUP_REPEATS):
        proc = subprocess.run(
            [sys.executable, "-c", SETUP_CHILD, str(SRC), json.dumps([list(w) for w in warmups])],
            capture_output=True, text=True, timeout=CHILD_TIMEOUT_S, cwd=ROOT,
        )
        if proc.returncode != 0:
            raise RuntimeError(f"set-up child failed ({proc.returncode}): {proc.stderr[-2000:]}")
        samples.append(float(proc.stdout.strip().splitlines()[-1]))
    return samples


def tail_percentile(samples) -> tuple[float, float] | None:
    """The highest percentile above the median with at least ten samples beyond it."""
    for q in (99.0, 95.0, 90.0, 75.0):
        if len(samples) * (1.0 - q / 100.0) >= 10:
            ordered = sorted(samples)
            return q, ordered[min(len(ordered) - 1, math.ceil(q / 100.0 * len(ordered)) - 1)]
    return None


def machine_record(workload: str, seed: int, blas_threads: int) -> dict:
    import numpy as np

    cpu_model = None
    with contextlib.suppress(OSError):
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu_model = next((line.split(":", 1)[1].strip() for line in fh if line.startswith("model name")), None)
    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    commit = None
    with contextlib.suppress(OSError, subprocess.SubprocessError):
        if not (ROOT / ".git").exists():
            raise OSError("not a git checkout")
        proc = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"], capture_output=True,
                              text=True, timeout=10)
        commit = proc.stdout.strip() or None
    return {
        "nproc": os.cpu_count(),
        "affinity": sorted(os.sched_getaffinity(0)),
        "cpu_model": cpu_model,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": {"name": blas.get("name"), "version": blas.get("version")},
        "blas_threads": blas_threads,
        "commit": commit,
        "workload": workload,
        "seed": seed,
    }


def declared_metrics(trace: int) -> dict[str, str]:
    with open(SPEC_PATH, encoding="utf-8") as fh:
        spec = json.load(fh)
    return {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}


def design_checks(workload: str, layer: dict, shares: dict) -> list[tuple[str, float, str, bool]]:
    """The traced run's confirmations that each workload stresses the layers it was built for."""
    at_least = {
        "cli_test": {"statcore busy share of wall": (shares.get("statcore", 0.0), 0.9)},
        "simulate_grid": {"statcore.max_entry busy share of wall": (shares.get("statcore.max_entry", 0.0), 0.6)},
        "diagnose_mc": {"populations.draw + diagnostics.self_s share of wall":
                        (shares.get("draw+diagnostics.self", 0.0), 0.9)},
    }[workload]
    zero = {
        "cli_test": ("populations.draw.values",),
        "simulate_grid": (),
        "diagnose_mc": ("statcore.max_entry.calls", "statcore.load_matrix_csv.calls"),
    }[workload]
    return ([(n, v, f">= {lo}", v >= lo) for n, (v, lo) in at_least.items()]
            + [(n, layer[n], "== 0", layer[n] == 0) for n in zero])


def run_workload(name: str, seed: int, seconds: float, trace: int, write_golden: bool, blas_threads: int) -> int:
    import workloads
    import tracer as tracing

    wl = workloads.WORKLOADS[name]()
    OUT_ROOT.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix=f"{name}-", dir=OUT_ROOT))
    try:
        t0 = perf_counter()
        requests, warmups = wl.prepare(seed, workdir)
        input_s = perf_counter() - t0

        cli = import_program()
        for argv in warmups:
            code, _ = call_cli(cli, argv)
            if code != 0:
                raise RuntimeError(f"warm-up request {argv} failed: {code}")
        probe = SpeedProbe(wl.probe, wl.PROBE_REFERENCE_S)
        setup = [] if trace else setup_times(warmups)

        tracer = tracing.Tracer() if trace else None
        run = measure(cli, requests, seconds, workdir, probe, tracer)
        responses = run.responses

        t0 = perf_counter()
        verdicts = wl.check(responses, seed)
        check_s = perf_counter() - t0
        failed = sum(1 for v in verdicts if v)
        for i, problems in enumerate(verdicts):
            for problem in problems[:3]:
                print(f"wrong response {i} ({responses[i].kind}): {problem}", file=sys.stderr)
        if write_golden:
            if failed:
                raise RuntimeError("refusing to write goldens from wrong responses; "
                                   "delete a stale entry from goldens.json first")
            goldens = workloads.load_goldens()
            goldens[name][str(seed)] = wl.golden_entry(responses[:len(requests)])
            workloads.GOLDENS_PATH.write_text(json.dumps(goldens, indent=2, sort_keys=True) + "\n")

        cycles = len(set(run.cycle_of))
        record = {
            "machine": machine_record(name, seed, blas_threads),
            "trace": trace,
            "cycles": cycles,
            "traced_cycles": len(run.traced_cycles),
            "requests": len(responses),
            "input_generation_s": input_s,
            "check_s": check_s,
            "requests_log": [{"kind": k, "cycle": c, "latency_s": lat}
                             for k, c, lat in zip(run.kinds, run.cycle_of, run.latency_s)],
            "probe_s": probe.samples,
            "speed_scale": probe.scale(),
        }
        human = []
        if trace:
            # Raw times: the traced and untraced cycles share the machine's speed.
            overhead = statistics.median(run.cycles(True)) / statistics.median(run.cycles(False)) - 1.0
            metrics = tracing.layer_metrics(tracer.spans, len(run.traced_cycles), overhead)
            shares = tracing.design_shares(tracer.spans)
            for check_name, value, want, ok in design_checks(name, metrics, shares):
                human.append(f"design check  {check_name} = {value:.4g} (want {want}) {'PASS' if ok else 'FAIL'}")
            for shape, ms in tracing.max_entry_by_shape(tracer.spans).items():
                human.append(f"reconcile     statcore.max_entry median ms/call at {shape}: {ms:.3f}")
            trace_path = OUT_ROOT / f"trace-{name}.jsonl"
            tracer.write(trace_path)
            record.update(design_shares=shares, trace_file=str(trace_path))
        else:
            work = sum(r.work for r in requests)
            latencies = run.by_kind()

            def end_to_end(scale: float) -> dict[str, float]:
                p50 = {kind: statistics.median(v) * scale for kind, v in latencies.items()}
                return {
                    # Not scaled: start-up and imports are file-system and
                    # allocation work that the compute probe does not track.
                    "setup_s": statistics.median(setup),
                    "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
                    "work_per_s": work / sum(p50.values()),
                    "kind_p50_geomean_ms": math.exp(statistics.fmean(math.log(v * 1e3) for v in p50.values())),
                }

            scale = probe.scale()
            metrics = end_to_end(scale)
            record.update(setup_raw_s=setup, raw_metrics=end_to_end(1.0))
            p50 = {kind: statistics.median(v) * scale for kind, v in latencies.items()}
            named = wl.named_metrics(p50, sum(p50.values())) + [
                ("setup_s", metrics["setup_s"], "s"), ("peak_rss_mb", metrics["peak_rss_mb"], "MB"),
                ("error_rate", failed / len(responses), "ratio")]
            human.append(f"speed         scale {scale:.4f}: median of {len(probe.samples)} probes "
                         f"{statistics.median(probe.samples) * 1e3:.3f} ms, reference {wl.PROBE_REFERENCE_S * 1e3:g} ms; "
                         f"times below are scaled")
            for metric, value, unit in named:
                human.append(f"metric        {metric} = {value:.6g} {unit}")
            for kind, samples in latencies.items():
                tail = tail_percentile(samples)
                extra = f", p{tail[0]:g} {tail[1] * 1e3 * scale:.4g} ms" if tail else ""
                human.append(f"latency       {kind}: p50 {p50[kind] * 1e3:.4g} ms (raw {p50[kind] / scale * 1e3:.4g}) "
                             f"over {len(samples)} requests{extra}")
            record["named_metrics"] = {m: {"value": v, "unit": u} for m, v, u in named}

        units = declared_metrics(trace)
        if set(units) != set(metrics):
            raise RuntimeError(f"metrics {sorted(metrics)} differ from BENCHMARK.json {sorted(units)}")
        result = {
            "correct": failed == 0,
            "attempted": len(responses),
            "failed": failed,
            "metrics": {k: {"value": float(metrics[k]), "unit": units[k]} for k in units},
        }
        record["result"] = result
        (OUT_ROOT / f"result-{name}-seed{seed}-trace{trace}.json").write_text(json.dumps(record, indent=1))
        print(f"workload      {name} seed={seed} cycles={cycles} requests={len(responses)} "
              f"failed={failed} inputs={input_s:.2f}s checks={check_s:.2f}s")
        print("machine       " + json.dumps(record["machine"], sort_keys=True))
        for line in human:
            print(line)
        print(json.dumps(result))
        return 0
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def run_all(seed: int, seconds: float, trace: int) -> int:
    """Every workload in its own fresh process, one after the other."""
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in ("cli_test", "simulate_grid", "diagnose_mc"):
        proc = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--workload", name, "--seed", str(seed),
             "--seconds", str(seconds), "--trace", str(trace)],
            capture_output=True, text=True, timeout=CHILD_TIMEOUT_S + 20 * seconds,
        )
        sys.stderr.write(proc.stderr)
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or not lines:
            print(f"workload {name} failed with exit code {proc.returncode}", file=sys.stderr)
            return 1
        for line in lines[:-1]:
            print(line)
        result = json.loads(lines[-1])
        combined["correct"] = combined["correct"] and result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        combined["metrics"].update({f"{name}.{k}": v for k, v in result["metrics"].items()})
    print(json.dumps(combined))
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, help="cli_test, simulate_grid, diagnose_mc or all")
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED,
                        help=f"workload seed; goldens exist for {DEFAULT_SEED} and the held-out {HELD_OUT_SEED}")
    parser.add_argument("--seconds", type=float, default=30.0, help="measured seconds per run")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0,
                        help="1: per-layer metrics from a traced run instead of end-to-end metrics")
    parser.add_argument("--write-golden", action="store_true",
                        help="store this run's outputs as the goldens for (workload, seed)")
    args = parser.parse_args(argv)
    if not (SRC / "tensormax" / "__init__.py").is_file():
        print(f"perfbench: program source {SRC / 'tensormax'} not found", file=sys.stderr)
        return 2
    if not SPEC_PATH.is_file():
        print(f"perfbench: {SPEC_PATH} not found", file=sys.stderr)
        return 2
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be >= 0 and --seconds > 0")
    blas_threads = limit_blas_threads()
    if args.workload == "all":
        return run_all(args.seed, args.seconds, args.trace)
    sys.path.insert(0, str(HERE))
    import workloads

    if args.workload not in workloads.WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}")
    return run_workload(args.workload, args.seed, args.seconds, args.trace, args.write_golden, blas_threads)


if __name__ == "__main__":
    sys.exit(main())
