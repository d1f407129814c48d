"""Maximum entry computation: worked examples, oracle identity, invariants."""

import itertools
import math
import re
import time

import numpy as np
import pytest

from tensormax import (
    BudgetError,
    PopulationSpec,
    SeedSpec,
    enumeration_cost,
    max_entry,
    max_entry_bruteforce,
    max_entry_multi,
    sample_matrix,
    statcore,
)
from tensormax.populations import RADEMACHER, STANDARD_NORMAL, UNIFORM_SCALED

MIXED = [
    PopulationSpec(STANDARD_NORMAL),
    PopulationSpec(RADEMACHER),
    PopulationSpec(UNIFORM_SCALED),
]


def multi_bruteforce(matrices):
    """Independent reference for the multi-population maximum."""
    m = len(matrices)
    n, p = matrices[0].shape
    sqrt_n = math.sqrt(n)
    best_abs, best_sig = -1.0, -math.inf
    arg_abs = arg_sig = None
    for combo in itertools.combinations(range(p), m):
        prod = matrices[0][:, combo[0]].copy()
        for depth, j in enumerate(combo[1:], start=1):
            prod = prod * matrices[depth][:, j]
        val = float(np.sum(prod) / sqrt_n)
        if abs(val) > best_abs:
            best_abs, arg_abs = abs(val), combo
        if val > best_sig:
            best_sig, arg_sig = val, combo
    return best_abs, tuple(i + 1 for i in arg_abs), best_sig, tuple(i + 1 for i in arg_sig)


class TestWorkedExamples:
    def test_single_tuple(self):
        r = max_entry([[1.0, 2.0]], 2)
        assert r.w_abs == 2.0
        assert r.argmax_abs == (1, 2)
        assert r.tuple_count == 1
        assert r.n == 1 and r.p == 2 and r.m == 2

    def test_three_pairs_by_hand(self):
        # pair sums: (1,2) -> -2, (1,3) -> 3, (2,3) -> -6
        r = max_entry([[1.0, -2.0, 3.0]], 2)
        assert r.w_abs == 6.0
        assert r.argmax_abs == (2, 3)
        assert r.w_signed == 3.0
        assert r.argmax_signed == (1, 3)

    def test_bruteforce_same_examples(self):
        assert max_entry_bruteforce([[1.0, 2.0]], 2).w_abs == 2.0
        assert max_entry_bruteforce([[1.0, -2.0, 3.0]], 2).w_abs == 6.0

    def test_zero_matrix(self):
        r = max_entry(np.zeros((4, 5)), 2)
        assert r.w_abs == 0.0
        assert r.argmax_abs == (1, 2)

    def test_multi_single_tuple(self):
        r = max_entry_multi([[[1.0, 2.0]], [[3.0, 4.0]]])
        assert r.w_abs == 4.0
        assert r.argmax_abs == (1, 2)

    def test_multi_identical_reduces_to_single(self):
        X = sample_matrix(PopulationSpec(STANDARD_NORMAL), 12, 7, SeedSpec(1, 2))
        assert max_entry_multi([X, X, X]) == max_entry(X, 3)

    def test_multi_zero_factor_annihilates(self):
        X2 = np.array([[3.0, -4.0]])
        r = max_entry_multi([np.zeros((1, 2)), X2])
        assert r.w_abs == 0.0


class TestOracleEquivalence:
    def test_random_instances_exact(self):
        rng = np.random.default_rng(20240801)
        for trial in range(60):
            m = int(rng.choice([2, 3, 4]))
            p = int(rng.integers(max(m, 3), 13))
            n = int(rng.integers(1, 21))
            spec = MIXED[trial % len(MIXED)]
            X = sample_matrix(spec, n, p, SeedSpec(77, trial))
            fast = max_entry(X, m)
            slow = max_entry_bruteforce(X, m)
            assert fast == slow, f"trial {trial}: n={n} p={p} m={m}"

    def test_tie_breaking_lexicographic(self):
        # duplicated columns force exact ties; the smallest tuple wins
        col = np.array([[1.0], [2.0], [-1.0]])
        X = np.hstack([col, col, col, col])
        r = max_entry(X, 2)
        assert r.argmax_abs == (1, 2)
        assert r == max_entry_bruteforce(X, 2)

    def test_multi_against_reference(self):
        rng = np.random.default_rng(5)
        for trial in range(20):
            m = int(rng.choice([2, 3]))
            p = int(rng.integers(m, 9))
            n = int(rng.integers(1, 12))
            mats = [np.asarray(rng.standard_normal((n, p))) for _ in range(m)]
            got = max_entry_multi(mats)
            w_abs, arg_abs, w_sig, arg_sig = multi_bruteforce(mats)
            assert got.w_abs == w_abs and got.argmax_abs == arg_abs
            assert got.w_signed == w_sig and got.argmax_signed == arg_sig


class TestInvariants:
    def test_signed_below_absolute(self):
        rng = np.random.default_rng(8)
        for _ in range(30):
            X = rng.standard_normal((int(rng.integers(1, 15)), 8))
            r = max_entry(X, 2)
            assert -r.w_abs <= r.w_signed <= r.w_abs

    def test_power_of_two_scaling_exact(self):
        rng = np.random.default_rng(9)
        X = rng.standard_normal((10, 7))
        for m in (2, 3):
            base = max_entry(X, m)
            for c in (2.0, 0.25):
                scaled = max_entry(c * X, m)
                assert scaled.w_abs == (c**m) * base.w_abs
                assert scaled.w_signed == (c**m) * base.w_signed
                assert scaled.argmax_abs == base.argmax_abs
                assert scaled.argmax_signed == base.argmax_signed

    def test_generic_scaling_close(self):
        rng = np.random.default_rng(10)
        X = rng.standard_normal((12, 6))
        base = max_entry(X, 3)
        scaled = max_entry(1.7 * X, 3)
        assert scaled.w_abs == pytest.approx(1.7**3 * base.w_abs, rel=1e-12)
        assert scaled.argmax_abs == base.argmax_abs

    def test_column_permutation_equivariance(self):
        rng = np.random.default_rng(11)
        X = rng.standard_normal((9, 8))
        perm = rng.permutation(8)
        base = max_entry(X, 2)
        permuted = max_entry(X[:, perm], 2)
        assert permuted.w_abs == base.w_abs
        # m = 2 products are a single commutative multiply, so exact
        mapped = tuple(sorted(int(np.where(perm == i - 1)[0][0]) + 1 for i in base.argmax_abs))
        assert permuted.argmax_abs == mapped

    def test_negation_leaves_absolute_max_fixed(self):
        rng = np.random.default_rng(12)
        for m in (2, 3):
            X = rng.standard_normal((11, 7))
            a, b = max_entry(X, m), max_entry(-X, m)
            assert a.w_abs == b.w_abs
            assert a.argmax_abs == b.argmax_abs
            if m % 2 == 0:
                assert a.w_signed == b.w_signed

    def test_row_of_positives_n1_m2(self):
        X = np.array([[0.5, 2.0, 1.5]])
        r = max_entry(X, 2)
        assert r.w_signed == r.w_abs


class TestValidationAndBudget:
    def test_m_out_of_range(self):
        X = np.ones((3, 4))
        for m in (1, 5):
            with pytest.raises(ValueError, match="m"):
                max_entry(X, m)

    def test_non_finite_rejected(self):
        X = np.ones((3, 4))
        X[1, 2] = np.nan
        with pytest.raises(ValueError, match="finite"):
            max_entry(X, 2)

    def test_budget_error_names_cost(self):
        X = np.ones((2, 60))
        with pytest.raises(BudgetError, match="multiply-adds"):
            max_entry(X, 30)

    def test_budget_override(self):
        X = np.ones((2, 12))
        cost = enumeration_cost(12, 6, 2).multiply_adds
        with pytest.raises(BudgetError):
            max_entry(X, 6, cost_ceiling=cost - 1)
        assert max_entry(X, 6, cost_ceiling=cost).w_abs == pytest.approx(2.0 / math.sqrt(2.0))

    def test_drawn_values_are_a_budget_item_kind(self):
        statcore.check_budget([statcore.Draws(6), statcore.Draws(4)], 10, "budget")
        with pytest.raises(BudgetError, match=r"^Monte Carlo sampling needs an estimated 11 drawn values, "
                                              r"above the budget of 10$"):
            statcore.check_budget([statcore.Draws(6), statcore.Draws(5)], 10, "budget")
        with pytest.raises(BudgetError, match="more than 9.2e18 drawn values"):
            statcore.check_budget([statcore.Draws(2**63)], 1e30, "budget")

    def test_oracle_scale_guard(self):
        X = np.ones((200, 40))
        with pytest.raises(BudgetError, match="oracle"):
            max_entry_bruteforce(X, 4)

    def test_oracle_guard_refuses_a_huge_binomial_at_once(self):
        # math.comb(300000, 150000) took 1.4 s and its 90,000 digits overflowed the message
        start = time.perf_counter()
        with pytest.raises(BudgetError, match="oracle ceiling"):
            max_entry_bruteforce(np.ones((1, 300000)), 150000)
        assert time.perf_counter() - start < 1.0

    def test_multi_shape_mismatch(self):
        with pytest.raises(ValueError, match="shape"):
            max_entry_multi([np.ones((3, 4)), np.ones((3, 5))])

    @pytest.mark.parametrize("m", [2, 3])
    def test_integer_and_float32_matrices_give_the_result_of_their_float64_copy(self, m):
        rng = np.random.default_rng(29)
        for X in (rng.integers(-5, 6, size=(30, 8)), rng.standard_normal((30, 8)).astype(np.float32)):
            assert max_entry(X, m) == max_entry(X.astype(np.float64), m)
            assert max_entry_multi([X] * m) == max_entry_multi([X.astype(np.float64)] * m)


class TestLoadMatrixCsv:
    """A refused CSV is explained by a rescan that follows numpy's parser, not float()."""

    @pytest.mark.parametrize("space", ["\u2003", "\u00a0"], ids=["em-space", "no-break-space"])
    def test_csv_padded_with_unicode_spaces_loads_as_its_ascii_twin(self, tmp_path, space):
        (tmp_path / "ascii.csv").write_text("1,2,3\n4.5,-6,7e1\n")
        padded = f"1,{space}2,3{space}\n4.5,-6,{space}7e1{space}\n"
        (tmp_path / "padded.csv").write_text(padded, encoding="utf-8")
        twin = statcore.load_matrix_csv(tmp_path / "ascii.csv")
        assert twin.shape == (2, 3)
        np.testing.assert_array_equal(statcore.load_matrix_csv(tmp_path / "padded.csv"), twin)
        # the rescan strips the same spaces, so it passes over the padded lines to the bad one
        (tmp_path / "padded.csv").write_text(padded + "7,8,x\n", encoding="utf-8")
        with pytest.raises(ValueError, match="padded.csv line 3 column 3: 'x' is not a finite float$"):
            statcore.load_matrix_csv(tmp_path / "padded.csv")

    def test_csv_of_only_comments_and_blank_lines_holds_no_values(self, tmp_path):
        path = tmp_path / "notes.csv"
        path.write_text("# a comment\n\n# another\n\n")
        with pytest.raises(ValueError, match=f"^{re.escape(str(path))} holds no values$"):
            statcore.load_matrix_csv(path)


class TestEnumerationCost:
    def test_worked_values(self):
        c = enumeration_cost(100, 2, 500)
        assert c.tuples == 4950
        assert c.multiply_adds == 500 * (100 + 4950)
        assert not c.saturated

    def test_single_full_tuple(self):
        assert enumeration_cost(5, 5, 123).tuples == 1

    def test_c_30_3(self):
        assert enumeration_cost(30, 3, 1).tuples == 4060

    def test_saturation_flag(self):
        c = enumeration_cost(500, 60, 10**6)
        assert c.saturated
        assert c.tuples == 2**63 - 1

    @pytest.mark.parametrize("n", [1, 7, 10**6])
    def test_matches_math_comb_below_the_clamp(self, n):
        clamp = 2**63 - 1
        for p in range(1, 80):
            for m in range(1, p + 1):
                tuples, ops = math.comb(p, m), n * sum(math.comb(p, s) for s in range(1, m + 1))
                assert enumeration_cost(p, m, n) == statcore.EnumerationCost(
                    min(tuples, clamp), min(ops, clamp), tuples > clamp or ops > clamp), (p, m)

    def test_wide_requests_saturate_at_once(self):
        # summing math.comb(p, s) over s <= m took 47 s at (20000, 10000)
        start = time.perf_counter()
        for p, m in ((20000, 10000), (60000, 30000), (10**6, 5 * 10**5), (10**9, 10**9 - 3)):
            assert enumeration_cost(p, m, 1).saturated
            with pytest.raises(BudgetError, match="more than 9.2e18"):
                statcore.check_budget([(p, m, 1, 1)], statcore.DEFAULT_COST_CEILING)
        assert time.perf_counter() - start < 1.0
        assert enumeration_cost(10**9, 10**9, 1) == statcore.EnumerationCost(1, 2**63 - 1, True)


def _as_tuple(r):
    return r.w_abs, r.argmax_abs, r.w_signed, r.argmax_signed


class TestEngineOracle:
    """The BLAS screen plus canonical recheck matches the oracles bit for bit.

    Sizes reach past 128 observations so numpy's pairwise summation, not a
    plain loop, produces the canonical sums.
    """

    SHAPES = {2: (300, 14), 3: (160, 11), 4: (130, 9), 5: (130, 10), 6: (130, 10)}

    def _check(self, X, m):
        assert max_entry(X, m) == max_entry_bruteforce(X, m)

    @pytest.mark.parametrize("m", [2, 3, 4, 5, 6])
    def test_near_ties_from_permuted_duplicate(self, m):
        # Columns duplicated with their rows permuted: every tuple inside
        # the copy has a twin whose sum is equal in exact arithmetic but is
        # summed in another order, so the two round differently.
        rng = np.random.default_rng(100 + m)
        n, p = self.SHAPES[m]
        for trial in range(8):
            Y = rng.standard_normal((n, p // 2))
            self._check(np.hstack([Y, Y[rng.permutation(n)]]), m)

    @pytest.mark.parametrize("m", [2, 3, 4, 5, 6])
    def test_exact_ties_rademacher_and_small_integers(self, m):
        rng = np.random.default_rng(200 + m)
        n, p = self.SHAPES[m]
        for size in (1, 2, 7, n):
            self._check(rng.choice([-1.0, 1.0], (size, p)), m)
            self._check(rng.integers(-2, 3, (size, p)).astype(float), m)

    @pytest.mark.parametrize("m", [2, 3, 4, 5, 6])
    @pytest.mark.parametrize("scale", [1e-150, 1e60])
    def test_extreme_scales(self, m, scale):
        # 1e-150: products are subnormal or zero; 1e60: entries near 1e240,
        # the scale lowered for m > 4 so that the entries stay there.
        rng = np.random.default_rng(300 + m)
        n, p = self.SHAPES[m]
        scale = min(scale, 10.0 ** (240 / m))
        for trial in range(3):
            self._check(rng.standard_normal((n, p)) * scale, m)
            self._check(rng.standard_t(3, (n, p)) * scale, m)

    @pytest.mark.parametrize("m", [2, 3, 4, 5, 6])
    def test_multi_population(self, m):
        rng = np.random.default_rng(400 + m)
        n, p = self.SHAPES[m]
        for trial in range(3):
            mats = [rng.standard_normal((n, p)) for _ in range(m)]
            mats[-1][:, p - 1] = mats[0][rng.permutation(n), 0]
            if trial == 1:
                mats = [np.round(M) for M in mats]
            if trial == 2:
                mats = [M * 1e-150 for M in mats]
            assert _as_tuple(max_entry_multi(mats)) == multi_bruteforce(mats)

    @pytest.mark.parametrize("m", [2, 3, 4, 5, 6])
    def test_tiles_and_early_rechecks(self, m, monkeypatch):
        # Tiny tiles and a tiny candidate pool exercise the row tiling, the
        # prefix chunks and the early recheck that bounds memory on ties.
        monkeypatch.setattr(statcore, "_TILE_ENTRIES", 64)
        monkeypatch.setattr(statcore, "_PENDING_LIMIT", 3)
        rng = np.random.default_rng(500 + m)
        n, p = self.SHAPES[m]
        self._check(rng.standard_normal((n, p)), m)
        self._check(rng.choice([-1.0, 1.0], (5, p)), m)
        self._check(np.zeros((3, p)), m)

    @pytest.mark.parametrize("m", [5, 6])
    def test_prefix_chunks(self, m, monkeypatch):
        # Mid-sized tiles split a prefix group into chunks of several
        # prefixes and a shorter last one.
        monkeypatch.setattr(statcore, "_TILE_ENTRIES", 4096)
        rng = np.random.default_rng(550 + m)
        n, p = self.SHAPES[m]
        self._check(rng.standard_normal((n, p)), m)
        self._check(rng.choice([-1.0, 1.0], (n, p)), m)

    def test_ties_across_prefix_groups(self):
        # Several 4-tuples share the maximum; the smallest of them,
        # (1, 4, 5, 6), has a later last prefix index than (2, 3, 5, 6).
        X = np.array([[1.0, 2.0, 1.0, 1.0, 1.0, 2.0, 2.0, 2.0],
                      [1.0, 1.0, 2.0, 2.0, 2.0, 1.0, 1.0, 2.0]])
        self._check(X, 4)

    def test_envelope_overflow_without_overflowing_sums(self):
        # ||x_1|| ||x_2|| exceeds the float64 range but the (1, 2) sum is
        # 1e308 - 1e308 = 0; the engine recomputes it and agrees.
        X = np.array([[1e154, 1e154, 1.0], [1e154, -1e154, 1.0]])
        self._check(X, 2)
        assert max_entry(X, 2).argmax_abs == (1, 3)
        # the settled tile's three tuples are recomputed once, the winner not again
        assert statcore._screen([X[None]] * 2).rechecked.tolist() == [3]

    def test_finite_envelope_past_the_limit_settles_the_tile(self):
        # ||x_1|| ||x_2|| is 6e307: finite, and at least _ENVELOPE_LIMIT,
        # while the top entry (1, 2), 4.2e307, is below it.  The guard must
        # settle the tile on the envelope and recompute all three tuples; a
        # guard on the top alone gives the tile a finite slack of about
        # 1e293, and only the winner is rechecked.
        a = math.sqrt(3e307)
        X = np.array([[a, a, 1.0], [a, a, -1.0]])
        assert statcore._ENVELOPE_LIMIT <= 2.0 * a * a < math.inf
        assert statcore._screen([X[None]] * 2).rechecked.tolist() == [3]
        self._check(X, 2)

    def test_overflowing_tile_is_folded_before_the_rest_is_screened(self):
        # Columns 1 and 2 at +-2.7e153 give the tile of prefix (1,) an
        # envelope past the limit.  Its 45 tuples are folded exactly at
        # once, and their maximum, the winner, prunes every later
        # candidate: no other tuple is recomputed.
        X = np.random.default_rng(0).standard_normal((2, 11))
        X[:, 0], X[:, 1] = math.sqrt(3e307) / 2, -math.sqrt(3e307) / 2
        assert statcore._screen([X[None]] * 3).rechecked.tolist() == [45]
        self._check(X, 3)

    @pytest.mark.parametrize("m", [3, 4])
    def test_recheck_reads_only_the_data(self, m, monkeypatch):
        # Prefix products one ulp above the true ones move the screen by
        # far less than its slack, and no canonical value at all: the
        # recheck rebuilds each entry from the input columns alone.
        prefix_groups = statcore._prefix_groups

        def nudged(rows, p, n):
            for prefixes, s, Q in prefix_groups(rows, p, n):
                yield prefixes, s, np.nextafter(Q, np.inf)

        monkeypatch.setattr(statcore, "_prefix_groups", nudged)
        rng = np.random.default_rng(640 + m)
        for trial in range(20):
            self._check(rng.standard_normal((30, 9)), m)

    def test_gaussian_rechecks_a_handful(self):
        rng = np.random.default_rng(600)
        for (n, p, m) in ((500, 60, 2), (200, 30, 3), (100, 16, 4)):
            for trial in range(3):
                X = rng.standard_normal((n, p))
                (rechecked,) = statcore._screen([X[None]] * m).rechecked
                assert rechecked <= 6

    @pytest.mark.parametrize("m", [3, 4])
    def test_near_ties_behind_a_large_prefix(self, m):
        # Every tuple through column 1 (all 1e6) has a twin, in the
        # permuted copy, that rounds differently: the slack must grow with
        # the prefix products q, not only with the column norms.
        rng = np.random.default_rng(620 + m)
        n, p = self.SHAPES[m]
        for trial in range(8):
            Y = rng.standard_normal((n, (p - 1) // 2))
            self._check(np.hstack([np.full((n, 1), 1e6), Y, Y[rng.permutation(n)]]), m)

    @pytest.mark.parametrize("m", [2, 3])
    def test_huge_orthogonal_columns_recheck_every_tuple(self, m):
        # The last two columns have norm 1e9, and their products with
        # every other column are 1e-3 at most: the one slack of each tile
        # covers them, so every tuple is a candidate, an early recheck runs
        # at m = 3, and the winner still comes from the canonical values.
        rng = np.random.default_rng(610 + m)
        n, p = (200, 60) if m == 2 else (200, 32)
        X = rng.standard_normal((n, p))
        X[:2] *= 1e-12
        X[:, -2:] = 0.0
        X[0, -2] = X[1, -1] = 1e9
        assert statcore._screen([X[None]] * m).rechecked.tolist() == [math.comb(p, m)]
        self._check(X, m)


class TestOverflow:
    X = [[1e200, 1e200, 1.0], [1e200, -1e200, 1.0]]

    def test_engine_raises(self):
        with pytest.raises(ValueError, match="tuple sums overflow float64"):
            max_entry(self.X, 2)

    def test_oracle_raises(self):
        with pytest.raises(ValueError, match="tuple sums overflow float64"):
            max_entry_bruteforce(self.X, 2)

    def test_multi_raises(self):
        with pytest.raises(ValueError, match="tuple sums overflow float64"):
            max_entry_multi([self.X, self.X])

    def test_nan_entries_are_not_skipped(self):
        # The prefix product overflows to inf, and every (1, 2, b) sum is
        # inf * 0 + finite = nan; only the (2, 3, 4) and (1, 3, 4) style
        # entries are finite.  A screen that let nan compare false would
        # report a finite maximum.
        X = np.array([[1e200, 1e200, 0.0, 0.0], [1.0, 1.0, 1.0, 2.0]])
        with pytest.raises(ValueError, match="tuple sums overflow float64"):
            max_entry_bruteforce(X, 3)
        with pytest.raises(ValueError, match="tuple sums overflow float64"):
            max_entry(X, 3)

    def test_deeper_order_raises(self):
        X = np.full((4, 5), 1e120)
        with pytest.raises(ValueError, match="overflow"):
            max_entry(X, 3)


def test_cost_ceiling_is_keyword_only():
    # A positional third argument, such as a stale worker count, is not
    # read as a ceiling.
    X = np.ones((3, 4))
    with pytest.raises(TypeError):
        max_entry(X, 2, 1)
    with pytest.raises(TypeError):
        max_entry_multi([X, X], 1)


class TestSharedCopies:
    """A matrix repeated at several depths is one array to the engine."""

    @staticmethod
    def spy(monkeypatch):
        """Record every screen built, and the row copies every prefix walk gets."""
        screens, walks = [], []
        prefix_groups = statcore._prefix_groups

        class Screen(statcore._Screen):
            def __init__(self, *args):
                super().__init__(*args)
                screens.append(self)

        def groups(rows, p, n):
            walks.append(rows)
            return prefix_groups(rows, p, n)

        monkeypatch.setattr(statcore, "_Screen", Screen)
        monkeypatch.setattr(statcore, "_prefix_groups", groups)
        return screens, walks

    def test_m2_product_is_x_transpose_x(self, monkeypatch):
        screens, _ = self.spy(monkeypatch)
        X = np.random.default_rng(14).standard_normal((20, 9))
        max_entry(X, 2)
        max_entry_multi([X, X])
        assert len(screens) == 2
        assert all(s.pen is s.last for s in screens)

    @pytest.mark.parametrize("m", [3, 4])
    def test_transposed_once(self, m, monkeypatch):
        screens, walks = self.spy(monkeypatch)
        X = np.random.default_rng(15).standard_normal((20, 9))
        for run in (lambda: max_entry(X, m), lambda: max_entry_multi([X] * m)):
            screens.clear()
            walks.clear()
            run()
            (screen,), (rows,) = screens, walks
            assert screen.pen is screen.last
            assert len(rows) == m - 2 and all(r is screen.pen_rows for r in rows)


class TestMaxEntries:
    """A stack of replicates through one screen, as ``lab`` sends it, gives each replicate the oracle's answer."""

    SHAPES = {2: (300, 14), 3: (160, 11), 4: (130, 9), 5: (130, 10), 6: (130, 10)}

    @staticmethod
    def mixed_stack(rng, n, p):
        """Replicates that stress the screen differently, side by side in one stack."""
        Y = rng.standard_normal((n, p // 2))
        duplicated = np.hstack([Y, Y[rng.permutation(n)], rng.standard_normal((n, p % 2))])
        return np.stack([
            rng.standard_normal((n, p)),
            rng.choice([-1.0, 1.0], (n, p)),
            np.round(rng.standard_normal((n, p))),
            rng.standard_normal((n, p)) * 1e-150,
            np.zeros((n, p)),
            duplicated,
        ])

    @staticmethod
    def maxima(X, m):
        """Each replicate's (w_abs, w_signed) and 1-based (argmax_abs, argmax_signed) from one screen of X."""
        screen = statcore._screen([X] * m)
        return [(tuple(screen.w[:, r].tolist()), tuple(map(tuple, (screen.arg[:, r] + 1).tolist())))
                for r in range(len(X))]

    @staticmethod
    def oracle(X, m):
        return [((ref.w_abs, ref.w_signed), (ref.argmax_abs, ref.argmax_signed))
                for ref in (max_entry_bruteforce(M, m) for M in X)]

    @pytest.mark.parametrize("small_tiles", [False, True])
    @pytest.mark.parametrize("m", [2, 3, 4, 5, 6])
    def test_each_replicate_matches_the_oracle(self, m, small_tiles, monkeypatch):
        if small_tiles:
            monkeypatch.setattr(statcore, "_TILE_ENTRIES", 64)
            monkeypatch.setattr(statcore, "_PENDING_LIMIT", 3)
        rng = np.random.default_rng(700 + m)
        n, p = self.SHAPES[m]
        X = self.mixed_stack(rng, n, p)
        got = self.maxima(X, m)
        assert len(got) == len(X)
        for r, (res, ref) in enumerate(zip(got, self.oracle(X, m))):
            assert res == ref, f"replicate {r}"
        # R = 1, and every replicate alone in its own stack
        for r in (0, 1, 5):
            assert self.maxima(X[r:r + 1], m) == [got[r]]

    @pytest.mark.parametrize("small_tiles", [False, True])
    @pytest.mark.parametrize("m", [2, 3, 4, 5, 6])
    def test_tied_replicates_keep_the_smallest_tuple(self, m, small_tiles, monkeypatch):
        if small_tiles:
            monkeypatch.setattr(statcore, "_TILE_ENTRIES", 64)
            monkeypatch.setattr(statcore, "_PENDING_LIMIT", 3)
        # Identical columns tie everywhere.  In the second replicate the
        # smallest of the tied 4-tuples, (1, 4, 5, 6), has a later last
        # prefix index than (2, 3, 5, 6), so its prefix group comes later.
        col = np.array([[1.0], [2.0], [-1.0]])
        X = np.zeros((3, 3, 8))
        X[0] = X[2] = np.hstack([col] * 8)
        X[1, :2] = [[1.0, 2.0, 1.0, 1.0, 1.0, 2.0, 2.0, 2.0],
                    [1.0, 1.0, 2.0, 2.0, 2.0, 1.0, 1.0, 2.0]]
        got = self.maxima(X, m)
        assert got == self.oracle(X, m)
        _, (argmax_abs, _) = got[0]
        assert argmax_abs == tuple(range(1, m + 1))

    def test_one_overflowing_replicate_raises(self):
        X = np.ones((3, 2, 3))
        X[1] = [[1e200, 1e200, 1.0], [1e200, -1e200, 1.0]]
        with pytest.raises(ValueError, match="tuple sums overflow float64"):
            statcore._screen([X] * 2)
        with pytest.raises(ValueError, match="tuple sums overflow float64"):
            statcore._screen([np.stack([np.ones((4, 5)), np.full((4, 5), 1e120)])] * 3)

    @pytest.mark.parametrize("small_tiles", [False, True])
    @pytest.mark.parametrize("m", [2, 3])
    def test_one_replicate_settles_whole_tiles(self, m, small_tiles, monkeypatch):
        # In replicate 1, ||x_1|| ||x_2|| is past the float64 range while
        # every sum stays finite, (1, 2, ...) being 1e308 - 1e308 plus
        # normal terms: every tuple of its tiles that meet columns 1 and 2
        # is a candidate for the recheck, and the other replicates are
        # screened as usual.  Small tiles spread those tuples over many
        # tiles and early rechecks.
        if small_tiles:
            monkeypatch.setattr(statcore, "_TILE_ENTRIES", 64)
            monkeypatch.setattr(statcore, "_PENDING_LIMIT", 3)
        rng = np.random.default_rng(710 + m)
        X = rng.standard_normal((3, 40, 12))
        X[1, :2] = 1.0
        X[1, :2, :2] = [[1e154, 1e154], [1e154, -1e154]]
        assert self.maxima(X, m) == self.oracle(X, m)

    def test_gaussian_stack_rechecks_a_handful_per_replicate(self):
        rng = np.random.default_rng(601)
        for (n, p, m) in ((500, 60, 2), (200, 30, 3), (100, 16, 4)):
            X = rng.standard_normal((4, n, p))
            assert statcore._screen([X] * m).rechecked.max() <= 6


class TestFloat32Window:
    """Order m >= 3 stacks inside the float32 window are screened in float32, the rest in float64.

    The window: every nonzero |x| at least 2**(-125/m), and n max|x|**m
    at most 2**126.  Whichever dtype screens a stack, every replicate
    gets the oracle's answer.
    """

    N, P = 130, 9

    @pytest.fixture
    def gemms(self, monkeypatch):
        """The operand dtypes of every GEMM the screen runs."""
        dtypes = []
        matmul = np.matmul

        def spy(a, b, **kwargs):
            dtypes.append({a.dtype.name, b.dtype.name})
            return matmul(a, b, **kwargs)

        monkeypatch.setattr(np, "matmul", spy)
        return dtypes

    @pytest.fixture
    def slack_checked(self, monkeypatch):
        """Check that every screened entry of every tile lies within its slack of the canonical entry."""
        tile = statcore._Screen._tile

        def checked(screen, prefixes, o, GG, envelope):
            S = envelope * screen.scale + screen.tiny
            for r, k, i, j in np.ndindex(GG.shape[1:]):
                if j > i:
                    cols = (*prefixes[k], o + i, o + j)
                    prod = screen.mats[0][r, :, cols[0]].copy()
                    for d in range(1, len(cols)):
                        prod = prod * screen.mats[d][r, :, cols[d]]
                    assert abs(GG[1, r, k, i, j] - np.sum(prod) / screen.sqrt_n) <= S[r]
            return tile(screen, prefixes, o, GG, envelope)

        monkeypatch.setattr(statcore._Screen, "_tile", checked)

    def edges(self, m):
        """The smallest nonzero |x| and the largest |x| inside the window, with a relative margin of 1e-9."""
        return 2.0 ** (-125 / m) * (1 + 1e-9), (2.0**126 / self.N) ** (1 / m) * (1 - 1e-9)

    def edge_matrices(self, m, inside):
        """Matrices at the overflow edge and at the underflow edge, just inside the window or just outside."""
        lo, hi = self.edges(m)
        if not inside:
            lo, hi = lo * (1 - 1e-6), hi * (1 + 1e-6)
        rng = np.random.default_rng(800 + m)
        signs = rng.choice([-1.0, 1.0], (self.N, self.P))
        # the top tuple (1, ..., m) sums to n max|x|**m, a quarter of the float32 range;
        # the other columns spread on the same scale, so that the range alone decides
        big = rng.uniform(0.5, 1.0, (self.N, self.P)) * hi * signs
        big[:, :m] = hi
        # every nonzero |x| at or just above the smallest, and zeros, which stay exact
        small = lo * (1 + rng.exponential(size=(self.N, self.P))) * signs
        small[0, 0] = lo * signs[0, 0]
        small[rng.random((self.N, self.P)) < 0.05] = 0.0
        # standard data with one column at the smallest |x|
        column = rng.standard_normal((self.N, self.P))
        column[:, 1] = lo * signs[:, 1]
        return {"overflow": big, "underflow": small, "column": column}

    @pytest.mark.parametrize("inside", [True, False], ids=["inside", "outside"])
    @pytest.mark.parametrize("m", [3, 4])
    def test_edges_match_the_oracle(self, m, inside, gemms, slack_checked):
        for name, X in self.edge_matrices(m, inside).items():
            gemms.clear()
            assert max_entry(X, m) == max_entry_bruteforce(X, m), name
            assert gemms and all(d == ({"float32"} if inside else {"float64"}) for d in gemms), name

    @pytest.mark.parametrize("m", [3, 4])
    def test_a_stack_across_the_window_matches_the_oracle(self, m, gemms):
        # One replicate just inside the overflow edge and one just outside:
        # the stack is screened in float64, the inside replicate alone in
        # float32, and all three screens agree with the oracle.
        X = np.stack([self.edge_matrices(m, True)["overflow"], self.edge_matrices(m, False)["overflow"]])
        got = TestMaxEntries.maxima(X, m)
        assert gemms and all(d == {"float64"} for d in gemms)
        assert got == TestMaxEntries.oracle(X, m)
        gemms.clear()
        assert TestMaxEntries.maxima(X[:1], m) == got[:1]
        assert gemms and all(d == {"float32"} for d in gemms)

    @pytest.mark.parametrize("m", [2, 3, 4])
    def test_standard_stacks_reach_a_float32_gemm_from_order_3(self, m, gemms):
        X = np.random.default_rng(810 + m).standard_normal((4, 60, 12))
        statcore._screen([X] * m)
        assert max_entry_multi(list(X[:m])).m == m
        assert gemms and all(d == ({"float64"} if m == 2 else {"float32"}) for d in gemms)

    @pytest.mark.parametrize(("m", "n_inside", "n_outside"), [(3, 2000, 30000), (4, 800, 6000)])
    def test_long_stacks_leave_the_window(self, m, n_inside, n_outside, gemms):
        # The float32 slack grows like n**1.5.  At n_outside it would reach
        # the whole top of the tensor and make every tuple a candidate, so
        # the stack is screened in float64 and rechecks a handful.
        rng = np.random.default_rng(830 + m)
        for n, dtype in ((n_inside, "float32"), (n_outside, "float64")):
            X = rng.standard_normal((n, 12))
            gemms.clear()
            assert statcore._screen([X[None]] * m).rechecked.max() <= 6, n
            assert gemms and all(d == {dtype} for d in gemms), n
            assert max_entry(X, m) == max_entry_bruteforce(X, m), n

    def test_heavy_tails_leave_the_window(self, gemms):
        # Student t(3): max|x| far above the spread makes the float32 slack
        # reach every tuple at n = 10000, m = 3.
        X = np.random.default_rng(840).standard_t(3, (10000, 12)) / math.sqrt(3)
        assert statcore._screen([X[None]] * 3).rechecked.max() <= 6
        assert gemms and all(d == {"float64"} for d in gemms)
        assert max_entry(X, 3) == max_entry_bruteforce(X, 3)
