"""Every public entry point rejects a bad argument with ValueError before any work.

The enumeration engine, both generator factories (data streams and
Monte Carlo blocks) and the stack route of the data streams (key hash
and stack draw) are patched to raise, so a check that comes after a
draw or an enumeration shows up as ``Worked`` instead of ValueError.
The Monte Carlo counter ``_count`` runs its own checks, so it is left
as it is and stops at its first block's generator.
"""

import contextlib
import functools
import math

import numpy as np
import pytest

import tensormax as tm
from tensormax import asymptotics, diagnostics, lab, populations, statcore

NORMAL = tm.PopulationSpec("standard_normal")
SEED = tm.SeedSpec(1)
X = np.ones((4, 5))
# p = 22 leaves room for m = 21 within the default budget
WIDE = np.ones((3, 22))

BAD_TYPES = (2.5, True, "3", None)


class Worked(Exception):
    """Raised by the patched engine and generator factories."""


@pytest.fixture(autouse=True)
def no_work(monkeypatch):
    def refuse(*args, **kwargs):
        raise Worked("work started before validation")

    monkeypatch.setattr(statcore, "_screen", refuse)
    monkeypatch.setattr(populations, "make_generator", refuse)
    monkeypatch.setattr(diagnostics, "_block_generator", refuse)
    # lab imports the stack route by name, so it is refused where lab looks it up
    monkeypatch.setattr(lab, "_philox_keys", refuse)
    monkeypatch.setattr(lab, "sample_stack", refuse)


def _experiment(n=10, p=21, m=2, reps=2, master_seed=1, workers=1, z_grid=lab.DEFAULT_Z_GRID,
                budget=statcore.DEFAULT_COST_CEILING):
    cell = tm.CellConfig(n=n, p=p, m=m, spec=NORMAL)
    config = tm.ExperimentConfig(grid=(cell,), reps=reps, master_seed=master_seed, z_grid=z_grid)
    return tm.run_experiment(config, workers=workers, budget=budget)


def _report(n=10, p=10, m=3, reps=10, a_n=0.5, budget=statcore.DEFAULT_COST_CEILING):
    return tm.stein_chen_report(0.0, n, p, m, NORMAL, reps, SEED, a_n=a_n, budget=budget)


def _pair_tail(s=1, n=10, p=5, m=2, reps=10, a_n=1.0, budget=statcore.DEFAULT_COST_CEILING):
    return tm.estimate_pair_tail(tm.PairTailSpec(s=s, a_n=a_n, n=n, p=p, m=m, spec=NORMAL), reps, SEED, budget=budget)


# entry point: (call whose defaults are valid, {integer argument: values out of its range})
TABLE = {
    "max_entry": (lambda m=2: tm.max_entry(X, m), {"m": (1, 6)}),
    "sample_matrix": (lambda n=4, p=5: tm.sample_matrix(NORMAL, n, p, SEED), {"n": (0,), "p": (2,)}),
    # df / (df - 2.0) raises OverflowError past the float range
    "PopulationSpec": (lambda df=3: tm.sample_matrix(tm.PopulationSpec("student_t_standardized", df), 4, 5, SEED),
                       {"df": (10**400,)}),
    "estimate_single_tail": (
        lambda n=10, m=2, reps=10: tm.estimate_single_tail(NORMAL, n, m, 1.0, reps, SEED),
        {"n": (0,), "m": (1,), "reps": (0,)},
    ),
    "moderate_deviation_ratio": (
        lambda m=2, n=10, reps=10: tm.moderate_deviation_ratio(NORMAL, m, n, 1.0, reps, SEED),
        {"m": (1,), "n": (0,), "reps": (0,)},
    ),
    "estimate_pair_tail": (_pair_tail, {"s": (0, 2), "n": (0,), "p": (2,), "m": (1,), "reps": (0,)}),
    "estimate_lambda": (
        lambda n=10, p=10, m=2, reps=10: tm.estimate_lambda(0.0, n, p, m, NORMAL, reps, SEED),
        # C(10**160, 2) is past the float range
        {"n": (0,), "p": (2, 10**160), "m": (1, 21), "reps": (0,)},
    ),
    "b1_bound": (lambda p=10, m=2: tm.b1_bound(p, m, 0.5), {"p": (1, 10**150), "m": (1, 11)}),
    # float(10**400) overflows
    "check_regime": (lambda n=100, p=50, m=2: tm.check_regime(n, p, m),
                     {"n": (0, 10**400), "p": (2, 10**400), "m": (1, 51)}),
    "run_experiment": (
        _experiment,
        {"n": (0,), "p": (2,), "m": (1, 21), "reps": (0,), "master_seed": (-1, 2**64), "workers": (0,)},
    ),
    "test_independence": (lambda m=2: tm.test_independence(WIDE, m), {"m": (1, 21)}),
    "stein_chen_report": (_report, {"n": (0,), "p": (2, 10**160), "m": (1, 21), "reps": (0,)}),
}


def _show(value) -> str:
    return f"10**{len(str(value)) - 1}" if type(value) is int and value > 10**6 else repr(value)


CASES = [
    pytest.param(functools.partial(call, **{arg: bad}), id=f"{entry}-{arg}={_show(bad)}")
    for entry, (call, ranges) in TABLE.items()
    for arg, out_of_range in ranges.items()
    for bad in (*BAD_TYPES, *out_of_range)
] + [
    # the order of the multi-population tensor is the number of matrices
    pytest.param(lambda: tm.max_entry_multi([X]), id="max_entry_multi-m=1"),
    pytest.param(lambda: tm.max_entry_multi([X] * 6), id="max_entry_multi-m=6"),
    pytest.param(functools.partial(_report, a_n=-1.0), id="stein_chen_report-a_n=-1.0"),
    # a data matrix is 2-dimensional and non-empty
    pytest.param(lambda: tm.max_entry(np.ones(5), 2), id="max_entry-X=1-D"),
    pytest.param(lambda: tm.max_entry(np.ones((0, 5)), 2), id="max_entry-X=empty"),
    # an experiment has a cell, and a z grid of two points or more
    pytest.param(lambda: tm.ExperimentConfig(grid=(), reps=2, master_seed=1), id="ExperimentConfig-grid=()"),
    pytest.param(functools.partial(_experiment, z_grid=(0.0,)), id="ExperimentConfig-z_grid=(0.0,)"),
    pytest.param(functools.partial(_experiment, z_grid=((0.0,), (1.0,))), id="ExperimentConfig-z_grid=2-D"),
]


@pytest.mark.parametrize("call", CASES)
def test_rejected_before_any_work(call):
    with pytest.raises(ValueError):
        call()


@pytest.mark.parametrize("entry", sorted(TABLE))
def test_the_defaults_reach_the_work(entry):
    # so that each rejection above is owed to the bad value alone
    call, _ = TABLE[entry]
    if entry == "b1_bound":
        assert math.isfinite(call())
    elif entry == "check_regime":
        assert call().ultra_high
    else:
        with pytest.raises(Worked):
            call()


def test_check_regime_takes_any_p_a_float_holds():
    assert tm.check_regime(10, 10**100, 2).log_p == math.log(10**100)


def test_a_huge_integer_is_not_spelled_out():
    # spelt out, 10**400 and the 309-digit bound made a 729-character message
    with pytest.raises(ValueError, match=r"^n must be <=") as exc:
        tm.check_regime(10**400, 50, 2)
    assert len(str(exc.value)) < 120


def test_max_entry_multi_defaults_reach_the_work():
    with pytest.raises(Worked):
        tm.max_entry_multi([X, X])


BAD_REALS = (math.nan, "1", None, True)
INF = math.inf
# the nearest floats outside a closed end
BELOW_0 = math.nextafter(0.0, -INF)
ABOVE_1 = math.nextafter(1.0, INF)
# w**2 and a_n**2 overflow past about 1.34e154
SQUARE_OVERFLOWS = 1e155
CEILING = statcore.DEFAULT_COST_CEILING

# entry point: (call whose defaults are valid, {real argument: values out of its range})
REAL_TABLE = {
    "GumbelLimit.cdf": (lambda z=0.0: tm.GumbelLimit(2).cdf(z), {"z": ()}),
    "GumbelLimit.sf": (lambda z=0.0: tm.GumbelLimit(2).sf(z), {"z": ()}),
    "GumbelLimit.quantile": (lambda q=0.5: tm.GumbelLimit(2).quantile(q), {"q": (0.0, 1.0, -INF, INF)}),
    "nu_p": (lambda z=0.0: tm.nu_p(z, 100, 2), {"z": (-INF, INF)}),
    # exp(-z/2) overflows below z = -1419.56
    "lambda_limit": (lambda z=0.0: tm.lambda_limit(z), {"z": (math.nextafter(-1419.0, -INF), -INF)}),
    "normalize": (lambda w=1.0: tm.normalize(w, 10, 2), {"w": (BELOW_0, -INF, INF, SQUARE_OVERFLOWS)}),
    # the centring of a cell's replicates: normalize on one numpy array, as run_experiment calls it
    "center": (lambda w=1.0: tm.normalize(np.array([w]), 10, 2), {"w": (BELOW_0, -INF, INF, SQUARE_OVERFLOWS)}),
    "normal_upper_tail": (lambda x=1.0: tm.normal_upper_tail(x), {"x": ()}),
    "moderate_deviation_ratio": (
        lambda x=1.0, budget=CEILING: tm.moderate_deviation_ratio(NORMAL, 2, 10, x, 10, SEED, budget=budget),
        # 1 - Phi(x) is subnormal past x ~ 37.5, where one hit overflows the ratio
        {"x": (BELOW_0, -INF, INF, 38.0), "budget": (BELOW_0, INF)},
    ),
    "estimate_single_tail": (
        lambda threshold=1.0, budget=CEILING: tm.estimate_single_tail(NORMAL, 10, 2, threshold, 10, SEED,
                                                                      budget=budget),
        {"threshold": (), "budget": (BELOW_0, INF)},
    ),
    "estimate_lambda": (lambda z=0.0, budget=CEILING: tm.estimate_lambda(z, 10, 10, 2, NORMAL, 10, SEED, budget=budget),
                        {"z": (-INF, INF), "budget": (BELOW_0, INF)}),
    "PairTailSpec": (_pair_tail, {"a_n": (0.0, -INF, INF, SQUARE_OVERFLOWS)}),
    "estimate_pair_tail": (_pair_tail, {"budget": (BELOW_0, INF)}),
    "stein_chen_report": (
        lambda z=0.0, budget=CEILING: tm.stein_chen_report(z, 10, 10, 3, NORMAL, 10, SEED, a_n=0.5, budget=budget),
        {"z": (-INF, INF), "budget": (BELOW_0, INF)},
    ),
    "b1_bound": (
        lambda single_tail=0.5: tm.b1_bound(10, 2, single_tail),
        {"single_tail": (BELOW_0, ABOVE_1, -INF, INF)},
    ),
    "check_regime": (lambda alpha=1.0: tm.check_regime(100, 50, 2, alpha), {"alpha": (0.0, ABOVE_1, -INF, INF)}),
    "ExperimentConfig": (lambda z_grid=0.0: _experiment(z_grid=(z_grid, 1.0)), {"z_grid": (-INF, INF)}),
    "run_experiment": (lambda budget=CEILING: _experiment(budget=budget), {"budget": (BELOW_0, INF)}),
    "max_entry": (lambda cost_ceiling=CEILING: tm.max_entry(X, 2, cost_ceiling=cost_ceiling),
                  {"cost_ceiling": (BELOW_0, INF)}),
    "max_entry_multi": (lambda cost_ceiling=CEILING: tm.max_entry_multi([X, X], cost_ceiling=cost_ceiling),
                        {"cost_ceiling": (BELOW_0, INF)}),
    "test_independence": (lambda cost_ceiling=CEILING: tm.test_independence(WIDE, 2, cost_ceiling=cost_ceiling),
                          {"cost_ceiling": (BELOW_0, INF)}),
}

REAL_CASES = [
    pytest.param(functools.partial(call, **{arg: bad}), id=f"{entry}-{arg}={bad!r}")
    for entry, (call, ranges) in REAL_TABLE.items()
    for arg, out_of_range in ranges.items()
    for bad in (*BAD_REALS, *out_of_range)
] + [
    # a_n=None is the default, the asymptotically exact multiplier
    *(pytest.param(functools.partial(_report, a_n=bad), id=f"stein_chen_report-a_n={bad!r}")
      for bad in (math.nan, "1", True, 0.0, -INF, INF)),
    # the number of coordinates is an integer, at least 3
    *(pytest.param(functools.partial(tm.normalize, 1.0, bad, 2), id=f"normalize-p={bad!r}")
      for bad in (*BAD_TYPES, 2)),
]


@pytest.mark.parametrize("call", REAL_CASES)
def test_real_rejected_before_any_work(call):
    with pytest.raises(ValueError):
        call()


@pytest.mark.parametrize("entry", sorted(REAL_TABLE))
def test_the_real_defaults_are_accepted(entry):
    # a closed-form entry point returns; the others reach the work
    call, _ = REAL_TABLE[entry]
    with contextlib.suppress(Worked):
        call()


@pytest.mark.parametrize("call", [
    pytest.param(lambda z: tm.GumbelLimit(2).cdf(z), id="GumbelLimit.cdf"),
    pytest.param(lambda z: tm.GumbelLimit(2).sf(z), id="GumbelLimit.sf"),
    pytest.param(tm.normal_upper_tail, id="normal_upper_tail"),
])
def test_the_limit_law_takes_both_infinities_and_numpy_reals(call):
    assert (call(-INF), call(INF)) in ((0.0, 1.0), (1.0, 0.0))
    assert call(np.float32(2.5)) == call(np.float64(2.5)) == call(2.5)
    assert call(np.int64(2)) == call(2) == call(2.0)


EXPONENTIAL = tm.PopulationSpec("centered_exponential")


@pytest.mark.parametrize("call", [
    pytest.param(lambda: tm.estimate_single_tail(NORMAL, 10**13, 3, 1.0, 1, SEED), id="estimate_single_tail"),
    pytest.param(lambda: tm.moderate_deviation_ratio(EXPONENTIAL, 2, 10**13, 1.0, 1, SEED),
                 id="moderate_deviation_ratio"),
    pytest.param(lambda: tm.moderate_deviation_ratio(EXPONENTIAL, 2, 10**20, 1.0, 1, SEED),
                 id="moderate_deviation_ratio-past-9.2e18"),
    pytest.param(lambda: tm.estimate_lambda(0.0, 10**13, 10, 3, NORMAL, 1, SEED), id="estimate_lambda"),
    # a normal pair at m = 2 draws one chi2 and two normals per replicate, whatever n is
    pytest.param(lambda: _pair_tail(reps=4 * 10**9), id="estimate_pair_tail"),
    pytest.param(lambda: _report(n=10**13), id="stein_chen_report"),
    # the lambda draws (210 values) fit, the whole report (750) does not: nothing is drawn
    pytest.param(lambda: _report(budget=749), id="stein_chen_report-whole"),
    pytest.param(lambda: tm.estimate_single_tail(NORMAL, 10, 2, 1.0, 10, SEED, budget=0), id="budget=0"),
])
def test_a_request_above_its_budget_draws_nothing(call):
    with pytest.raises(tm.BudgetError, match="drawn values"):
        call()


def test_a_report_at_its_budget_reaches_the_draws():
    with pytest.raises(Worked):
        _report(budget=750)


RADEMACHER = tm.PopulationSpec("rademacher")
# A binomial or chi2 sum draws O(1) values whatever n is, so no budget
# stops a huge n: n is bounded by numpy's binomial, which takes an int64.
# A pair tail's threshold reads n * log(p) before ``_count`` runs.
HUGE_N_CALLS = [
    pytest.param(lambda n: tm.moderate_deviation_ratio(RADEMACHER, 3, n, 1.0, 1, SEED), id="mdr-rademacher"),
    pytest.param(lambda n: tm.moderate_deviation_ratio(NORMAL, 2, n, 1.0, 1, SEED), id="mdr-normal"),
    pytest.param(lambda n: tm.estimate_single_tail(RADEMACHER, n, 2, 1.0, 1, SEED), id="estimate_single_tail"),
    pytest.param(lambda n: tm.estimate_lambda(0.0, n, 10, 2, NORMAL, 1, SEED), id="estimate_lambda"),
    pytest.param(lambda n: _pair_tail(n=n, reps=1), id="estimate_pair_tail"),
    pytest.param(lambda n: _report(n=n, m=2, reps=1), id="stein_chen_report"),
]


@pytest.mark.parametrize("n", [2**63, 2**64, 10**400], ids=["2**63", "2**64", "10**400"])
@pytest.mark.parametrize("call", HUGE_N_CALLS)
def test_an_n_past_int64_is_refused_before_any_draw(call, n):
    with pytest.raises(ValueError, match=r"^n must be <= 9223372036854775807, got "):
        call(n)


@pytest.mark.parametrize("call", HUGE_N_CALLS)
def test_the_largest_int64_n_reaches_the_draws(call):
    with pytest.raises(Worked):
        call(2**63 - 1)


def _two_rows(values):
    """A matrix of two rows of ``values``, as a list or an array as given, so no refusal is owed to its shape."""
    return np.stack([values, values]) if isinstance(values, np.ndarray) else [values, values]


# array form: (call, argument name, values out of its range); test_asymptotics has normalize's
ARRAY_FORMS = {
    "normalize": (lambda w: tm.normalize(w, 10, 2), "w", (np.array([1.0, SQUARE_OVERFLOWS]),)),
    "max_entry": (lambda values: tm.max_entry(_two_rows(values), 2), "data matrix", (np.array([1.0, math.nan]),)),
    "ks_distance": (lambda samples: lab.ks_distance(samples, tm.GumbelLimit(2)), "samples", ()),
    "ExperimentConfig": (lambda z_grid: _experiment(z_grid=z_grid), "z_grid", ()),
}
BAD_ARRAYS = (
    [math.nan, "1"], [1.0, None], [1.0, True], [[1.0], [1j]],
    np.array([True, False]), np.array(["1"]), np.array([1.0 + 0j]), np.array([1.0], dtype=object),
)


@pytest.mark.parametrize("call,name,bad", [
    pytest.param(call, name, bad, id=f"{entry}-{name}={bad!r}")
    for entry, (call, name, out_of_range) in ARRAY_FORMS.items()
    for bad in (*BAD_ARRAYS, *out_of_range)
])
def test_array_forms_reject_with_the_argument_name(call, name, bad):
    with pytest.raises(ValueError, match=f"^{name} must"):
        call(bad)


# a matrix of bools, digit strings or complex numbers, which numpy would read as floats
NOT_REAL = {"bool": X.astype(bool), "str": X.astype(int).astype(str), "complex": X.astype(complex)}


@pytest.mark.parametrize("dtype", sorted(NOT_REAL))
@pytest.mark.parametrize("call", [
    pytest.param(lambda M: tm.max_entry_multi([X, M]), id="max_entry_multi"),
    pytest.param(lambda M: tm.test_independence(M, 2), id="test_independence"),
])
def test_a_matrix_of_other_values_than_reals_is_refused(call, dtype):
    with pytest.raises(ValueError, match=r"^data matrix must be a real number, got dtype"):
        call(NOT_REAL[dtype])


def test_a_refused_array_is_named_by_its_dtype_in_one_line():
    with pytest.raises(ValueError) as exc:
        tm.max_entry(np.ones((50, 6), dtype=bool), 2)
    assert str(exc.value) == "data matrix must be a real number, got dtype('bool')"


def test_array_forms_take_lists_and_integer_arrays_as_float64():
    t_value = [tm.normalize(w, 10, 2).tolist() for w in (np.arange(4), [0.0, 1.0, 2.0, 3.0])]
    assert t_value[0] == t_value[1]


@pytest.mark.parametrize("bad", [math.nan, INF, -INF, BELOW_0], ids=repr)
def test_an_array_is_refused_in_the_words_of_a_scalar(bad):
    with pytest.raises(ValueError) as scalar:
        asymptotics.check_real("w", bad, 0.0)
    with pytest.raises(ValueError) as array:
        asymptotics.check_real_array("w", np.array([1.0, bad]), 0.0)
    assert str(array.value) == str(scalar.value)
