"""Outside-in tracing of tensormax's layers.

The tracer replaces a layer's public functions with wrappers at the name
the caller looks up (``lab.sample_matrix``, ``diagnostics.draw``,
``statcore.max_entry`` ...), records one span per call in memory and
restores the originals afterwards.  Nothing inside ``src/`` changes.

A span is ``[name, start, end, parent, request, attrs]``: perf_counter
times, the index of the enclosing span (-1 for none), the request id set
by the harness and an optional dict of work counters taken from the
call's arguments and result.  Everything runs at workers=1, so spans of
one request nest strictly and the stack of open spans is the call stack.
"""

from __future__ import annotations

import importlib
import json
import math
import os
import statistics
from collections import defaultdict
from time import perf_counter

# Bytes the enumeration touches per multiply-add: read the factor and the
# partial product, write the product, read it back in the sum.  A cost
# model, not a measurement; cache effects are ignored.
BYTES_PER_MULTIPLY_ADD = 32

DRAW_FAMILIES = ("standard_normal", "rademacher", "student_t_standardized", "centered_exponential")


def _arg(args, kwargs, index, name):
    return args[index] if len(args) > index else kwargs[name]


def _count_max_entry(args, kwargs, result):
    from tensormax import statcore

    n, p = _arg(args, kwargs, 0, "X").shape
    m = int(_arg(args, kwargs, 1, "m"))
    return {"n": n, "p": p, "m": m, "multiply_adds": statcore.enumeration_cost(p, m, n).multiply_adds}


def _count_load(args, kwargs, result):
    return {"bytes": os.path.getsize(_arg(args, kwargs, 0, "path"))}


def _count_draw(args, kwargs, result):
    return {"family": _arg(args, kwargs, 0, "spec").family, "values": int(result.size)}


def _count_persist(args, kwargs, result):
    out = _arg(args, kwargs, 1, "path")
    return {"bytes": sum(os.path.getsize(os.path.join(out, f)) for f in ("records.csv", "summary.json"))}


def _count_lambda(args, kwargs, result):
    # The hits the asymptotic single tail m!/p**m * exp(-z/2) predicts.
    z, n, p, m = (float(_arg(args, kwargs, i, k)) for i, k in enumerate(("z", "n", "p", "m")))
    reps = int(_arg(args, kwargs, 5, "reps"))
    expected = reps * math.exp(math.lgamma(m + 1) - m * math.log(p) - 0.5 * z)
    return {"scalars": reps * int(n) * int(m), "hits": result.single_tail.hits, "expected_hits": expected}


def _count_mdr(args, kwargs, result):
    # The hits the Gaussian tail 1 - Phi(x) predicts.
    m, n, reps = (int(_arg(args, kwargs, i, k)) for i, k in ((1, "m"), (2, "n"), (4, "reps")))
    return {"scalars": reps * n * m, "hits": result.hits, "expected_hits": reps * result.gaussian_tail}


def _count_pair_tail(args, kwargs, result):
    # The hits two independent Gaussian sums would give at the threshold
    # a*sqrt(n log p): the square of the two-sided tail at a*sqrt(log p).
    pspec = _arg(args, kwargs, 0, "pspec")
    reps = int(_arg(args, kwargs, 1, "reps"))
    single = math.erfc(pspec.a_n * math.sqrt(math.log(pspec.p)) / math.sqrt(2.0))
    return {
        "scalars": reps * pspec.n * (2 * pspec.m - pspec.s),
        "hits": result.hits,
        "expected_hits": reps * single * single,
    }


# (module, attribute path at the caller's lookup, span name, counter).
# A module-level function called from another module is wrapped in the
# caller's namespace when the caller imported it by name.
TARGETS = (
    ("tensormax.cli", "main", "cli.main", None),
    ("tensormax.hypotest", "test_independence", "hypotest.test_independence", None),
    ("tensormax.hypotest", "normalize", "asymptotics.normalize", None),
    ("tensormax.statcore", "max_entry", "statcore.max_entry", _count_max_entry),
    ("tensormax.statcore", "load_matrix_csv", "statcore.load_matrix_csv", _count_load),
    ("tensormax.asymptotics", "GumbelLimit.sf", "asymptotics.sf", None),
    ("tensormax.lab", "run_experiment", "lab.run_experiment", None),
    ("tensormax.lab", "sample_matrix", "populations.sample_matrix", None),
    ("tensormax.lab", "normalize", "asymptotics.normalize", None),
    ("tensormax.lab", "ks_distance", "lab.ks_distance", None),
    ("tensormax.lab", "persist", "lab.persist", _count_persist),
    ("tensormax.populations", "draw", "populations.draw", _count_draw),
    ("tensormax.diagnostics", "draw", "populations.draw", _count_draw),
    ("tensormax.diagnostics", "estimate_lambda", "diagnostics.estimate_lambda", _count_lambda),
    ("tensormax.diagnostics", "moderate_deviation_ratio", "diagnostics.moderate_deviation_ratio", _count_mdr),
    ("tensormax.diagnostics", "estimate_pair_tail", "diagnostics.estimate_pair_tail", _count_pair_tail),
)


class Tracer:
    """Records spans while ``recording`` is set; wrappers installed by ``install``."""

    def __init__(self):
        self.spans: list[list] = []
        self.recording = False
        self.request_id = -1
        self._stack: list[int] = []
        self._saved: list[tuple[object, str, object]] = []

    def span(self, name: str, fn, counter=None):
        """Return ``fn`` wrapped so that each call while recording makes a span."""
        spans, stack = self.spans, self._stack

        def traced(*args, **kwargs):
            if not self.recording:
                return fn(*args, **kwargs)
            index = len(spans)
            record = [name, 0.0, 0.0, stack[-1] if stack else -1, self.request_id, None]
            spans.append(record)
            stack.append(index)
            record[1] = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                record[2] = perf_counter()
                stack.pop()
            if counter is not None:
                record[5] = counter(args, kwargs, result)
            return result

        traced.__wrapped__ = fn
        traced.__name__ = getattr(fn, "__name__", name)
        traced.__doc__ = getattr(fn, "__doc__", None)
        return traced

    def install(self, targets=TARGETS) -> None:
        """Wrap every target; raises if one no longer exists in the program."""
        if self._saved:
            raise RuntimeError("tracer is already installed")
        try:
            for module_name, path, name, counter in targets:
                owner = importlib.import_module(module_name)
                *parents, attr = path.split(".")
                for part in parents:
                    owner = getattr(owner, part)
                original = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
                self._saved.append((owner, attr, original))
                setattr(owner, attr, self.span(name, original, counter))
        except BaseException:
            self.remove()
            raise

    def remove(self) -> None:
        """Put every original back, in reverse order of wrapping."""
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)

    def write(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for name, start, end, parent, request, attrs in self.spans:
                fh.write(json.dumps({"name": name, "start": start, "end": end, "parent": parent,
                                     "request": request, "attrs": attrs}) + "\n")


def self_times(spans) -> list[float]:
    """Each span's duration minus the part of its interval its children cover."""
    children = defaultdict(list)
    for span in spans:
        if span[3] >= 0:
            children[span[3]].append((span[1], span[2]))
    out = []
    for index, (_, start, end, *_rest) in enumerate(spans):
        covered, reach = 0.0, start
        for c_start, c_end in sorted(children.get(index, ())):
            c_start, c_end = max(c_start, reach), min(c_end, end)
            if c_end > c_start:
                covered += c_end - c_start
                reach = c_end
        out.append((end - start) - covered)
    return out


def busy_times(spans) -> dict[str, float]:
    """Per span name, total duration of the calls not nested in a call of the same name."""
    busy: dict[str, float] = defaultdict(float)
    for span in spans:
        parent = span[3]
        while parent >= 0 and spans[parent][0] != span[0]:
            parent = spans[parent][3]
        if parent < 0:
            busy[span[0]] += span[2] - span[1]
    return busy


def layer_busy(spans, prefix: str) -> float:
    """Total duration of the outermost spans whose name starts with ``prefix``."""
    total = 0.0
    for span in spans:
        if not span[0].startswith(prefix):
            continue
        parent = span[3]
        while parent >= 0 and not spans[parent][0].startswith(prefix):
            parent = spans[parent][3]
        if parent < 0:
            total += span[2] - span[1]
    return total


def layer_metrics(spans, cycles: int, overhead_frac: float) -> dict[str, float]:
    """Per-layer metrics: counts and busy times per cycle of the request list, rates over all cycles."""
    selfs = self_times(spans)
    busy = busy_times(spans)
    calls: dict[str, int] = defaultdict(int)
    self_by_name: dict[str, float] = defaultdict(float)
    sums: dict[str, float] = defaultdict(float)
    for span, self_s in zip(spans, selfs):
        name, attrs = span[0], span[5]
        calls[name] += 1
        self_by_name[name] += self_s
        if not attrs:
            continue
        dur = span[2] - span[1]
        if name == "statcore.max_entry":
            sums["madds"] += attrs["multiply_adds"]
            sums[f"madds.m{attrs['m']}"] += attrs["multiply_adds"]
            sums[f"busy.m{attrs['m']}"] += dur
        elif name == "populations.draw":
            sums["values"] += attrs["values"]
            sums[f"values.{attrs['family']}"] += attrs["values"]
            sums[f"busy.{attrs['family']}"] += dur
        else:
            for key in ("bytes", "scalars", "hits", "expected_hits"):
                if key in attrs:
                    sums[f"{name}.{key}"] += attrs[key]

    def rate(num, den, scale):
        return num / den / scale if den > 0 else 0.0

    def per_name(field):
        return sum(v for k, v in sums.items() if k.endswith(field))

    madds = sums["madds"]
    load_bytes = sums["statcore.load_matrix_csv.bytes"]
    hits, expected = per_name(".hits"), per_name(".expected_hits")
    totals = {
        "statcore.max_entry.busy_s": busy["statcore.max_entry"],
        "statcore.max_entry.calls": calls["statcore.max_entry"],
        "statcore.max_entry.multiply_adds": madds,
        "statcore.max_entry.bytes_computed": BYTES_PER_MULTIPLY_ADD * madds,
        "statcore.load_matrix_csv.busy_s": busy["statcore.load_matrix_csv"],
        "statcore.load_matrix_csv.calls": calls["statcore.load_matrix_csv"],
        "statcore.load_matrix_csv.bytes": load_bytes,
        "populations.draw.busy_s": busy["populations.draw"],
        "populations.draw.values": sums["values"],
        "populations.sample_matrix.self_s": self_by_name["populations.sample_matrix"],
        "diagnostics.self_s": sum(v for k, v in self_by_name.items() if k.startswith("diagnostics.")),
        "diagnostics.scalars": per_name(".scalars"),
        "diagnostics.hits": hits,
        "diagnostics.expected_hits": expected,
        "lab.run_experiment.self_s": self_by_name["lab.run_experiment"],
        "lab.ks_distance.busy_s": busy["lab.ks_distance"],
        "lab.persist.busy_s": busy["lab.persist"],
        "lab.persist.bytes": sums["lab.persist.bytes"],
        "asymptotics.normalize.calls": calls["asymptotics.normalize"],
        "asymptotics.normalize.busy_s": busy["asymptotics.normalize"],
        "asymptotics.sf.calls": calls["asymptotics.sf"],
        "asymptotics.sf.busy_s": busy["asymptotics.sf"],
        "hypotest.test_independence.self_s": self_by_name["hypotest.test_independence"],
        "cli.main.self_s": self_by_name["cli.main"],
    }
    out = {k: v / cycles for k, v in totals.items()}
    out.update({f"statcore.max_entry.gma_per_s.m{m}": rate(sums[f"madds.m{m}"], sums[f"busy.m{m}"], 1e9)
                for m in (2, 3, 4)})
    out["statcore.load_matrix_csv.mb_per_s"] = rate(load_bytes, busy["statcore.load_matrix_csv"], 1e6)
    out.update({f"populations.draw.mvalues_per_s.{f}": rate(sums[f"values.{f}"], sums[f"busy.{f}"], 1e6)
                for f in DRAW_FAMILIES})
    out["diagnostics.hit_ratio"] = rate(hits, expected, 1.0)
    out["trace.overhead_frac"] = overhead_frac
    return out


def design_shares(spans) -> dict[str, float]:
    """Shares of traced request wall time spent in the layers the workloads target."""
    wall = sum(s[2] - s[1] for s in spans if s[0] == "request")
    if wall <= 0:
        return {}
    busy = busy_times(spans)
    selfs = self_times(spans)
    diag_self = sum(t for s, t in zip(spans, selfs) if s[0].startswith("diagnostics."))
    return {
        "statcore": layer_busy(spans, "statcore.") / wall,
        "statcore.max_entry": busy["statcore.max_entry"] / wall,
        "draw+diagnostics.self": (busy["populations.draw"] + diag_self) / wall,
    }


def max_entry_by_shape(spans) -> dict[str, float]:
    """Median milliseconds per max_entry call for each (n, p, m)."""
    by_shape = defaultdict(list)
    for s in spans:
        if s[0] == "statcore.max_entry" and s[5]:
            a = s[5]
            by_shape[f"n={a['n']},p={a['p']},m={a['m']}"].append((s[2] - s[1]) * 1e3)
    return {k: statistics.median(v) for k, v in sorted(by_shape.items())}
