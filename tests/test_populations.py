"""Population families: analytic standardization, determinism, regimes."""

import concurrent.futures
import glob
import json
import math
import os
import subprocess
import sys
import threading
from pathlib import Path

import numpy as np
import pytest

import tensormax
from tensormax import (
    CellConfig,
    ExperimentConfig,
    PopulationSpec,
    SeedSpec,
    check_regime,
    estimate_single_tail,
    populations,
    run_experiment,
    sample_matrix,
    sample_values,
)
from tensormax.populations import (
    CENTERED_EXPONENTIAL,
    OUTSIDE,
    POLYNOMIAL,
    RADEMACHER,
    STANDARD_NORMAL,
    STUDENT_T_STANDARDIZED,
    ULTRA_HIGH,
    UNIFORM_SCALED,
    _philox_keys,
    draw,
    make_generator,
    sample_stack,
)

SEED = SeedSpec(master_seed=2024, stream_id=0)

# (spec, analytic 4th moment) for the variance-of-variance oracle; the
# Student t df is chosen > 4 so the 4th moment exists: 3(df-2)/(df-4).
MOMENT_CASES = [
    (PopulationSpec(STANDARD_NORMAL), 3.0),
    (PopulationSpec(RADEMACHER), 1.0),
    (PopulationSpec(UNIFORM_SCALED), 9.0 / 5.0),
    (PopulationSpec(CENTERED_EXPONENTIAL), 9.0),
    (PopulationSpec(STUDENT_T_STANDARDIZED, df=8), 3.0 * 6.0 / 4.0),
]


def spec_id(value):
    """A spec's family, with its df when set; pytest's own id for anything else."""
    if isinstance(value, PopulationSpec):
        return value.family if value.df is None else f"{value.family}(df={value.df})"
    return None


class TestSpecValidation:
    def test_family_names(self):
        with pytest.raises(ValueError, match="family"):
            PopulationSpec("cauchy")

    def test_student_df(self):
        for df in (None, 1, 2):
            with pytest.raises(ValueError, match="df"):
                PopulationSpec(STUDENT_T_STANDARDIZED, df=df)
        PopulationSpec(STUDENT_T_STANDARDIZED, df=3)

    def test_df_rejected_for_other_families(self):
        with pytest.raises(ValueError, match="df"):
            PopulationSpec(STANDARD_NORMAL, df=5)

    def test_json_round_trip(self):
        for spec, _ in MOMENT_CASES:
            assert PopulationSpec.from_json(spec.to_json()) == spec
        seed = SeedSpec(12, 34)
        assert SeedSpec.from_json(seed.to_json()) == seed

    def test_seed_bounds(self):
        with pytest.raises(ValueError):
            SeedSpec(-1, 0)
        with pytest.raises(ValueError):
            SeedSpec(0, 2**64)


class TestSampling:
    def test_rademacher_support(self):
        X = sample_matrix(PopulationSpec(RADEMACHER), 2, 3, SEED)
        assert set(np.unique(X)) <= {-1.0, 1.0}

    @pytest.mark.parametrize("bit_generator", [np.random.Philox, np.random.SFC64])
    @pytest.mark.parametrize("spec", [spec for spec, _ in MOMENT_CASES], ids=spec_id)
    def test_every_family_fills_out_in_place(self, spec, bit_generator):
        # each family writes into an out array the very bits it returns without one
        shape = (50, 41)
        want = draw(spec, np.random.Generator(bit_generator(3)), shape)
        out = np.full(shape, np.nan)
        assert draw(spec, np.random.Generator(bit_generator(3)), shape, out=out) is out
        assert want.dtype == np.float64 and want.shape == shape
        assert out.tobytes() == want.tobytes()
        if spec.family == UNIFORM_SCALED:
            # -a + 2a * random() is numpy's uniform(-a, a) value by value
            a = math.sqrt(3.0)
            assert want.tobytes() == np.random.Generator(bit_generator(3)).uniform(-a, a, shape).tobytes()

    def test_uniform_support(self):
        X = sample_values(PopulationSpec(UNIFORM_SCALED), 10_000, SEED)
        s3 = math.sqrt(3.0)
        assert np.all(X >= -s3) and np.all(X <= s3)

    def test_normal_column_moments(self):
        n = 10**5
        X = sample_matrix(PopulationSpec(STANDARD_NORMAL), n, 3, SEED)
        for j in range(3):
            assert abs(X[:, j].mean()) <= 4.0 / math.sqrt(n)
            assert abs(X[:, j].var() - 1.0) <= 0.02

    @pytest.mark.parametrize("spec,m4", MOMENT_CASES, ids=spec_id)
    def test_moments_converge_within_5_se(self, spec, m4):
        n = 2 * 10**6
        x = sample_values(spec, n, SeedSpec(99, 7))
        se_mean = 1.0 / math.sqrt(n)
        assert abs(x.mean()) <= 5.0 * se_mean
        se_var = math.sqrt(max(m4 - 1.0, 0.0) / n)
        if se_var > 0.0:
            assert abs(x.var() - 1.0) <= 5.0 * se_var
        else:
            # Rademacher squares to 1 exactly, so the sample variance is
            # 1 - mean**2 and the mean bound above controls it.
            assert abs(x.var() - 1.0) <= 25.0 / n

    def test_reproducible_bytes(self):
        spec = PopulationSpec(CENTERED_EXPONENTIAL)
        a = sample_matrix(spec, 50, 20, SeedSpec(5, 17))
        b = sample_matrix(spec, 50, 20, SeedSpec(5, 17))
        assert a.tobytes() == b.tobytes()

    def test_streams_differ_and_decorrelate(self):
        spec = PopulationSpec(STANDARD_NORMAL)
        n = 10**6
        x = sample_values(spec, n, SeedSpec(5, 0))
        y = sample_values(spec, n, SeedSpec(5, 1))
        assert not np.array_equal(x, y)
        r = float(np.corrcoef(x, y)[0, 1])
        assert abs(r) < 5.0 / math.sqrt(n)

    def test_dimension_errors(self):
        spec = PopulationSpec(STANDARD_NORMAL)
        with pytest.raises(ValueError, match="p"):
            sample_matrix(spec, 10, 2, SEED)
        with pytest.raises(ValueError, match="n"):
            sample_matrix(spec, 0, 5, SEED)


# a seed word and a stream word at each end of the 32- and 64-bit ranges
SEED_EDGES = (0, 1, 2**32 - 1, 2**32, 2**63, 2**64 - 1)
STACK_SPECS = [PopulationSpec(STANDARD_NORMAL), PopulationSpec(RADEMACHER), PopulationSpec(UNIFORM_SCALED),
               PopulationSpec(CENTERED_EXPONENTIAL), PopulationSpec(STUDENT_T_STANDARDIZED, df=5)]


class TestStackRoute:
    """The stack route keys and draws the very streams that make_generator does."""

    @pytest.mark.parametrize("master_seed", SEED_EDGES)
    def test_keys_match_seed_sequence(self, master_seed):
        expected = [np.random.SeedSequence((master_seed, s)).generate_state(2, np.uint64) for s in SEED_EDGES]
        keys = _philox_keys(master_seed, SEED_EDGES)
        assert keys.dtype == np.uint64 and keys.shape == (len(SEED_EDGES), 2)
        assert np.array_equal(keys, expected)
        for s, row in zip(SEED_EDGES, expected):
            assert np.array_equal(_philox_keys(master_seed, [s]), [row])

    def test_an_odd_rademacher_draw_leaves_a_half_used_state(self):
        # so that the stack tests below would see a re-key that keeps it
        rng = make_generator(SEED)
        draw(PopulationSpec(RADEMACHER), rng, (7, 5))
        state = rng.bit_generator.state
        assert state["has_uint32"] == 1 and state["buffer_pos"] < 4

    @pytest.mark.parametrize("spec", STACK_SPECS, ids=spec_id)
    @pytest.mark.parametrize("master_seed", [7, 2**64 - 1])
    def test_stack_matches_sample_matrix(self, spec, master_seed):
        streams = [3, 0, 2**32 + 1, 3, 2**64 - 1]
        X = sample_stack(spec, 7, 5, _philox_keys(master_seed, streams))
        expected = np.stack([sample_matrix(spec, 7, 5, SeedSpec(master_seed, s)) for s in streams])
        assert X.dtype == np.float64 and X.flags.c_contiguous
        assert X.tobytes() == expected.tobytes()

    @pytest.mark.parametrize("spec", STACK_SPECS, ids=spec_id)
    def test_each_matrix_is_drawn_into_its_row(self, monkeypatch, spec):
        outs = []

        def spy(*args, out=None):
            outs.append(out)
            return draw(*args, out=out)

        monkeypatch.setattr(populations, "draw", spy)
        X = sample_stack(spec, 7, 5, _philox_keys(7, range(3)))
        assert len(outs) == 3
        assert all(out.base is X and np.shares_memory(out, X[i]) for i, out in enumerate(outs))


class TestCheckRegime:
    def test_ultra_high_example(self):
        rep = check_regime(500, 100, 2)
        assert rep.regime == ULTRA_HIGH
        assert rep.ultra_high and rep.log_p == pytest.approx(4.60517, abs=1e-5)
        assert rep.n_pow_beta == pytest.approx(500 ** (1 / 3), abs=1e-9)

    def test_outside_example(self):
        rep = check_regime(10, 10**100, 2)
        assert rep.regime == OUTSIDE
        assert not rep.ultra_high and not rep.polynomial
        assert rep.log_p == pytest.approx(230.2585, abs=1e-3)

    def test_polynomial_example(self):
        rep = check_regime(100, 100, 3)
        assert rep.regime == POLYNOMIAL
        assert not rep.ultra_high and rep.polynomial
        assert rep.tau1 == 14.0 and rep.tau2 == 7.5

    def test_derived_quantities(self):
        # (m, alpha) -> (beta, tau1, tau2)
        cases = {(2, 1.0): (1.0 / 3.0, 10.0, 5.5), (3, 1.0): (0.2, 14.0, 7.5), (2, 0.5): (1.0 / 7.0, 6.0, 3.5)}
        for (m, alpha), (beta, tau1, tau2) in cases.items():
            rep = check_regime(500, 100, m, alpha)
            assert rep.alpha == alpha
            assert rep.beta == pytest.approx(beta, abs=1e-15)
            assert (rep.tau1, rep.tau2) == (tau1, tau2)
            assert rep.n_pow_alpha == pytest.approx(500**alpha, rel=1e-15)

    def test_alpha_range(self):
        for alpha in (0.0, -0.5, 1.5):
            with pytest.raises(ValueError, match="alpha"):
                check_regime(500, 100, 2, alpha)

    def test_threshold_growth_constant(self):
        rep = check_regime(500, 100, 2)
        expected = math.sqrt(4.0 / math.log(500)) * 1.8486028298836414
        assert rep.c_n == pytest.approx(expected, abs=1e-9)

    def test_no_threshold_growth_constant_past_the_largest_order(self):
        # nu_p is defined for every p >= max(3, m) up to m = 20, so c_n is
        # None only past it; check_regime itself takes any m <= p
        assert check_regime(100, 30, 20).c_n is not None
        assert check_regime(100, 30, 21).c_n is None


@pytest.fixture
def four_cpus(monkeypatch):
    """An affinity of 4 CPUs, so a map of 2 to 4 workers starts a pool."""
    monkeypatch.setattr(populations.os, "sched_getaffinity", lambda pid: {0, 1, 2, 3}, raising=False)


@pytest.fixture
def pool_sizes(monkeypatch, four_cpus):
    """Replace the thread pool by a serial stub on a 4-CPU affinity.

    Returns the list of ``max_workers`` values the stub was built with;
    no thread is ever started.
    """
    sizes = []

    class StubPool:
        def __init__(self, max_workers):
            sizes.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, tasks):
            return map(fn, tasks)

    monkeypatch.setattr(concurrent.futures, "ThreadPoolExecutor", StubPool)
    return sizes


@pytest.fixture
def blas_count(monkeypatch, four_cpus):
    """The thread-count getter of the BLAS that parallel_map caps, set to 4 threads for the test.

    Where numpy's OpenBLAS has no thread-count call, a counter stands in for it.
    """
    blas = populations._openblas_threads()
    if blas is None:
        count = [0]
        blas = (lambda: count[0], lambda k: count.__setitem__(0, k))
        monkeypatch.setattr(populations, "_openblas_threads", lambda: blas)
    get, set_ = blas
    before = get()
    set_(4)
    yield get
    set_(before)


class TestParallelMap:
    @pytest.mark.parametrize("workers, tasks, expected", [
        (10**6, 3, [3]),      # capped by the task count
        (10**6, 10, [4]),     # capped by the available CPUs
        (2, 10, [2]),
        (8, 1, []),           # one task: no pool at all
        (1, 10, []),
    ])
    def test_process_count_is_capped(self, pool_sizes, workers, tasks, expected):
        assert populations.parallel_map(abs, range(-tasks, 0), workers) == list(range(tasks, 0, -1))
        assert pool_sizes == expected

    @pytest.mark.parametrize("workers", [0, -1, 1.5, "2", None])
    def test_workers_must_be_a_positive_integer(self, pool_sizes, workers):
        with pytest.raises(ValueError, match="workers"):
            populations.parallel_map(abs, [1, 2], workers)

    def test_single_block_estimate_starts_no_pool(self, pool_sizes):
        spec = PopulationSpec(STANDARD_NORMAL)
        one = estimate_single_tail(spec, 20, 2, 1.0, 1000, SEED)
        assert estimate_single_tail(spec, 20, 2, 1.0, 1000, SEED, workers=64) == one
        assert pool_sizes == []

    def test_requests_never_import_a_process_pool(self, tmp_path):
        # a fresh interpreter: this one may have imported multiprocessing for other tests
        config = {"grid": [{"n": 10, "p": 5, "m": 2, "spec": {"family": "rademacher"}}],
                  "reps": 3, "master_seed": 1, "output_path": "out"}
        (tmp_path / "cfg.json").write_text(json.dumps(config))
        code = ("import contextlib, io, sys, tensormax.cli\n"
                "with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):\n"
                "    for workers in ('1', '2'):\n"
                "        assert tensormax.cli.main(['diagnose', '--what', 'lambda', '--z', '0', '--n', '20', '--p',\n"
                "                                   '10', '--m', '2', '--reps', '1000', '--workers', workers]) == 0\n"
                "        assert tensormax.cli.main(['simulate', '--config', 'cfg.json', '--workers', workers]) == 0\n"
                "print(sorted({'multiprocessing', 'concurrent.futures.process'} & set(sys.modules)))\n"
                "print('concurrent.futures.thread' in sys.modules)")
        path = [str(Path(tensormax.__file__).parents[1]), *filter(None, [os.environ.get("PYTHONPATH")])]
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(path)}
        done = subprocess.run([sys.executable, "-c", code], cwd=tmp_path, env=env,
                              capture_output=True, text=True, check=True)
        # the workers-2 simulate run splits its 3 replicates over a thread pool where 2 CPUs are usable
        assert done.stdout == f"[]\n{populations.usable_workers(2) > 1}\n"
        assert (tmp_path / "out" / "records.csv").exists()

    def test_experiment_pool_is_capped_and_records_unchanged(self, pool_sizes):
        cfg = ExperimentConfig(grid=(CellConfig(n=10, p=5, m=2, spec=PopulationSpec(RADEMACHER)),),
                               reps=6, master_seed=3)
        one = run_experiment(cfg)
        assert pool_sizes == []
        many = run_experiment(cfg, workers=10**6)
        assert pool_sizes == [4]
        assert many.records == one.records

    @pytest.mark.parametrize("workers", [0, 1.5])
    def test_experiment_rejects_bad_workers(self, workers, tmp_path):
        # refused before the output directory is made, so nothing is left on disk
        out = tmp_path / "out"
        cfg = ExperimentConfig(grid=(CellConfig(n=10, p=5, m=2, spec=PopulationSpec(RADEMACHER)),),
                               reps=2, master_seed=3, output_path=str(out))
        with pytest.raises(ValueError, match="workers"):
            run_experiment(cfg, workers=workers)
        assert not out.exists()


class TestBlasShare:
    @pytest.mark.parametrize("threads, workers, share", [(4, 2, 2), (5, 2, 2), (4, 3, 1), (1, 2, 1)])
    def test_tasks_run_under_the_planned_share(self, four_cpus, threads, workers, share):
        blas = populations._openblas_threads()
        if blas is None:
            pytest.skip("numpy's BLAS has no thread-count call to read back")
        get, set_ = blas
        before = get()
        set_(threads)
        try:
            assert populations.parallel_map(lambda t: get(), range(workers), workers) == [share] * workers
            assert get() == threads
        finally:
            set_(before)

    def test_count_is_restored_after_the_map(self, blas_count):
        assert populations.parallel_map(lambda t: (abs(t), blas_count()), range(-4, 0), 2) == [
            (4, 2), (3, 2), (2, 2), (1, 2)]
        assert blas_count() == 4

    def test_count_is_restored_when_a_task_raises(self, blas_count):
        error = KeyError("task 3")

        def task(t):
            if t == 3:
                raise error
            return t

        with pytest.raises(KeyError) as raised:
            populations.parallel_map(task, range(6), 2)
        assert raised.value is error
        assert blas_count() == 4

    def test_a_map_started_during_another_waits_for_it(self, blas_count):
        # B starts while a task of A holds.  Were B not to wait, its tasks would read A's cut
        # count 2 and cut it to 1, and B would restore 2 after A had restored 4.
        a_held, release, b_started, a_done = (threading.Event() for _ in range(4))
        results = {}

        def task_a(t):
            if t == 0:
                a_held.set()
                assert release.wait(0.9)
            return blas_count()

        def task_b(t):
            count = blas_count()
            b_started.set()
            a_done.wait(0.9)
            return count

        def run(name, task):
            results[name] = populations.parallel_map(task, range(2), 2)

        a = threading.Thread(target=run, args=("a", task_a))
        b = threading.Thread(target=run, args=("b", task_b))
        a.start()
        assert a_held.wait(0.9)
        b.start()
        b_started.wait(0.2)  # B's tasks start here only without the wait
        release.set()
        a.join(0.9)
        a_done.set()
        b.join(0.9)
        assert not a.is_alive() and not b.is_alive()
        assert results == {"a": [2, 2], "b": [2, 2]}
        assert blas_count() == 4

    def test_maps_from_many_threads_each_run_under_the_full_share(self, blas_count):
        # 6 callers of 3 maps each, 12 pool threads at once on any machine, switching often
        reads = []

        def caller():
            for _ in range(3):
                reads.extend(populations.parallel_map(lambda t: blas_count(), range(4), 2))

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            callers = [threading.Thread(target=caller) for _ in range(6)]
            for thread in callers:
                thread.start()
            for thread in callers:
                thread.join(5.0)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in callers)
        assert reads == [2] * 72
        assert blas_count() == 4

    def test_a_file_that_is_no_loaded_library_gives_no_call(self, monkeypatch, four_cpus, tmp_path):
        # RTLD_NOLOAD refuses a file that is not loaded, so the lookup finds no call and the map runs uncapped
        stray = tmp_path / "libscipy_openblas64_-stray.so"
        stray.write_bytes(b"not a library")
        monkeypatch.setattr(glob, "glob", lambda pattern: [str(stray)])
        populations._openblas_threads.cache_clear()
        try:
            assert populations._openblas_threads() is None
            assert populations.parallel_map(lambda t: -t, range(5), 2) == [0, -1, -2, -3, -4]
        finally:
            populations._openblas_threads.cache_clear()  # later tests look up the real library

    def test_without_the_call_the_map_runs_uncapped(self, monkeypatch, four_cpus):
        blas = populations._openblas_threads()
        monkeypatch.setattr(populations, "_openblas_threads", lambda: None)
        cfg = ExperimentConfig(grid=(CellConfig(n=30, p=8, m=3, spec=PopulationSpec(STANDARD_NORMAL)),),
                               reps=6, master_seed=5)
        assert run_experiment(cfg, workers=2).records == run_experiment(cfg).records
        if blas is not None:
            get = blas[0]
            assert populations.parallel_map(lambda t: get(), range(2), 2) == [get()] * 2
