import math

import numpy as np
import pytest
from scipy.stats import binom

from thermocap import (
    Distribution,
    binary_entropy,
    entropy,
    hypothesis_testing_entropy,
    hypothesis_testing_entropy_iid_binary,
    min_positive_prob,
    min_relative_entropy,
    relative_entropy,
    smoothed_renyi0,
    stein_series,
    tensor_power,
)
from thermocap.core import InfiniteValueError, SupportViolationError, ThermocapError
from thermocap.entropy import brute_force_renyi0, dense_lp_oracle

from conftest import random_distribution


class TestRelativeEntropy:
    def test_identical_is_zero(self):
        p = Distribution([0.3, 0.7])
        assert relative_entropy(p, p) == 0.0

    def test_point_mass_vs_uniform(self):
        assert relative_entropy(Distribution([1, 0]), Distribution([0.5, 0.5])) == 1.0

    def test_closed_form_binary(self):
        val = relative_entropy(Distribution([0.7, 0.3]), Distribution([0.5, 0.5]))
        assert abs(val - (1.0 - binary_entropy(0.3))) < 1e-12

    def test_support_violation(self):
        with pytest.raises(SupportViolationError):
            relative_entropy(Distribution([0.5, 0.5]), Distribution([1.0, 0.0]))


class TestBinaryEntropy:
    def test_endpoints(self):
        assert binary_entropy(0.0) == 0.0
        assert binary_entropy(1.0) == 0.0

    def test_half(self):
        assert binary_entropy(0.5) == 1.0

    def test_value_at_tenth(self):
        assert abs(binary_entropy(0.1) - 0.4690) < 1e-4

    def test_symmetry(self, rng):
        for _ in range(50):
            x = rng.random()
            assert abs(binary_entropy(x) - binary_entropy(1 - x)) < 1e-12

    def test_domain(self):
        with pytest.raises(Exception):
            binary_entropy(1.5)


class TestMinRelativeEntropy:
    def test_point_mass_vs_uniform(self):
        for d in (2, 4, 8):
            val = min_relative_entropy(Distribution.point_mass(0, d), Distribution.uniform(d))
            assert abs(val - math.log2(d)) < 1e-12

    def test_full_support_gives_zero(self, rng):
        p = random_distribution(rng, 5)
        q = random_distribution(rng, 5)
        assert abs(min_relative_entropy(p, q)) < 1e-9

    def test_partial_support(self):
        val = min_relative_entropy(
            Distribution([0.5, 0.5, 0.0]), Distribution([0.25, 0.25, 0.5])
        )
        assert abs(val - 1.0) < 1e-12

    def test_infinite_signal(self):
        with pytest.raises(InfiniteValueError):
            min_relative_entropy(Distribution([1.0, 0.0]), Distribution([0.0, 1.0]))

    def test_full_mass_is_positive_zero(self):
        p = Distribution([0.5, 0.5, 0.0])
        val = min_relative_entropy(p, Distribution([0.5, 0.5, 0.0]))
        assert val == 0.0 and math.copysign(1.0, val) == 1.0


class TestMinPositiveProb:
    def test_examples(self):
        assert min_positive_prob(Distribution([1.0, 0.0])) == 1.0
        assert min_positive_prob(Distribution([0.5, 0.3, 0.2])) == pytest.approx(0.2)
        assert min_positive_prob(Distribution.uniform(8)) == pytest.approx(1 / 8)


def all_masses(vals):
    """Subset masses of one half by a DP over bit prefixes: the per-half DP
    that the stacked one replaced, kept verbatim as a reference."""
    size = vals.size
    masses = np.zeros(1 << size)
    for b in range(size):
        half = 1 << b
        masses[half : 2 * half] = masses[:half] + vals[b]
    return masses


def table_best_subset(q, r, threshold):
    """The whole 2^lo x 2^hi outer-sum table of the two halves' subset masses,
    searched by one row-major argmin: the enumeration the sorted halves
    replaced, kept verbatim as a reference for its witness."""
    d = q.size
    lo = d // 2
    hi = d - lo
    q_lo, q_hi = all_masses(q[:lo]), all_masses(q[lo:])
    r_lo, r_hi = all_masses(r[:lo]), all_masses(r[lo:])

    q_all = q_lo[:, None] + q_hi[None, :]
    r_all = r_lo[:, None] + r_hi[None, :]
    feasible = q_all > threshold
    if not feasible.any():
        raise ThermocapError("no feasible index set (eps <= 0?)")
    r_masked = np.where(feasible, r_all, np.inf)
    flat = int(np.argmin(r_masked))
    mask_lo, mask_hi = divmod(flat, 1 << hi)
    indices = [b for b in range(lo) if (mask_lo >> b) & 1]
    indices += [lo + b for b in range(hi) if (mask_hi >> b) & 1]
    return tuple(indices)


def _near_tie(rng, d):
    """Every r/q ratio within about 0.1% of 1: the branch-and-bound's hard case."""
    p = rng.dirichlet(np.ones(d))
    q = p * np.exp(1e-3 * rng.standard_normal(d))
    return Distribution(p), Distribution(q / q.sum())


class TestSmoothedRenyi0:
    def test_point_mass_vs_uniform(self):
        for d in (2, 4, 8):
            res = smoothed_renyi0(Distribution.point_mass(0, d), Distribution.uniform(d), 0.1)
            assert res.bits == math.log2(d)
            assert res.witness.indices == (0,)

    def test_small_eps_forces_full_support(self, rng):
        p = random_distribution(rng, 5)
        eps = 0.5 * min_positive_prob(p)
        res = smoothed_renyi0(p, p, eps)
        assert abs(res.bits) < 1e-12
        assert res.witness.indices == tuple(range(5))

    def test_derived_three_outcome_example(self):
        p = Distribution([0.5, 0.3, 0.2])
        q = Distribution([0.1, 0.2, 0.7])
        res = smoothed_renyi0(p, q, 0.25)
        assert res.witness.indices == (0, 1)
        assert abs(res.bits - math.log2(1 / 0.3)) < 1e-12

    def test_matches_brute_force(self, rng):
        for _ in range(100):
            dim = int(rng.integers(2, 7))
            p = random_distribution(rng, dim, allow_zeros=True)
            q = random_distribution(rng, dim, allow_zeros=True)
            eps = float(rng.uniform(0.05, 0.6))
            res = smoothed_renyi0(p, q, eps)
            assert res.bits == brute_force_renyi0(p, q, eps)

    def test_branch_and_bound_matches_enumeration(self, rng):
        from thermocap.entropy import _branch_and_bound_subset, _feasibility_threshold, _subset_value

        for _ in range(200):
            dim = int(rng.integers(2, 15))
            p = random_distribution(rng, dim, allow_zeros=True)
            q = random_distribution(rng, dim, allow_zeros=True)
            eps = float(rng.uniform(0.02, 0.6))
            enum = smoothed_renyi0(p, q, eps)
            bnb_indices, _ = _branch_and_bound_subset(
                p.probs, q.probs, _feasibility_threshold(eps)
            )
            assert _subset_value(q.probs, bnb_indices) == enum.bits

    @pytest.mark.parametrize("seed", range(40))
    def test_branch_and_bound_with_tiny_masses(self, seed):
        # Dirichlet(0.02) laws put most entries far below any absolute
        # tolerance, so the search must compare r-masses relative to them;
        # smoothed_renyi0 enumerates d = 21, so the search is called directly
        rng = np.random.default_rng([seed, 21, 2])
        p, q = (Distribution(rng.dirichlet(np.full(21, 0.02))) for _ in range(2))
        eps = float(rng.uniform(0.01, 0.5))
        res = smoothed_renyi0(p, q, eps)
        assert res.method == "enumeration"
        best, bound = entropy._branch_and_bound_subset(
            p.probs, q.probs, entropy._feasibility_threshold(eps))
        assert bound is None
        assert entropy._subset_value(q.probs, best) == pytest.approx(res.bits, rel=1e-12)

    def test_branch_and_bound_above_thirty(self, rng):
        p = random_distribution(rng, 35)
        q = random_distribution(rng, 35)
        res = smoothed_renyi0(p, q, 0.2)
        assert res.method == "branch_and_bound"
        assert res.exact
        assert res.bracket == (res.bits, res.bits)
        assert res.witness.q_mass > (1 - 0.2) - 1e-12
        dh, _ = hypothesis_testing_entropy(p, q, 0.2)
        assert res.bits <= dh + 1e-12

    def test_ratio_order_matches_loop_reference(self, rng):
        def loop_order(q, r):
            group, ratio = np.empty(q.size, dtype=np.int64), np.zeros(q.size)
            for j in range(q.size):
                if r[j] == 0.0:
                    group[j] = 0 if q[j] == 0.0 else 1
                elif q[j] > 0.0:
                    group[j], ratio[j] = 2, r[j] / q[j]
                else:
                    group[j] = 3
            return np.lexsort((np.arange(q.size), ratio, group))

        # zeros in both vectors reach all four groups; r = q makes every ratio tie
        for _ in range(300):
            dim = int(rng.integers(1, 40))
            q = rng.dirichlet(np.ones(dim))
            r = q.copy() if rng.random() < 0.3 else rng.dirichlet(np.ones(dim))
            q[rng.random(dim) < 0.3] = 0.0
            r[rng.random(dim) < 0.3] = 0.0
            assert np.array_equal(entropy._ratio_order(q, r), loop_order(q, r))

    def test_uniform_ties_are_exact(self):
        # all items are identical, so only prefixes are branched and the
        # first feasible leaf ends the search; k of d equal outcomes are the
        # fewest with mass above 0.9
        for d, k in ((64, 58), (256, 231)):
            u = Distribution(np.full(d, 1 / d))
            res = smoothed_renyi0(u, u, 0.1)
            assert res.method == "branch_and_bound"
            assert len(res.witness.indices) == k
            assert res.bracket == (res.bits, res.bits)
            assert abs(res.bits - math.log2(d / k)) <= 1e-12

    def test_node_budget_bracket_contains_exact_value(self, monkeypatch):
        # near-tie pair above ENUM_LIMIT, where the branch-and-bound runs
        p, q = _near_tie(np.random.default_rng(2), 34)
        exact = smoothed_renyi0(p, q, 0.15)
        assert exact.method == "branch_and_bound"
        monkeypatch.setattr(entropy, "NODE_BUDGET", 200)
        res = smoothed_renyi0(p, q, 0.15)
        assert res.method == "node_budget_bracket"
        assert not res.exact
        assert res.bits == res.bracket[0]
        assert res.witness.q_mass > (1 - 0.15) - 1e-12
        assert res.bracket[0] <= exact.bits <= res.bracket[1]

    def test_branch_and_bound_dimension_band(self, rng):
        # dims just above the enumeration limit
        p = random_distribution(rng, 36)
        q = random_distribution(rng, 36)
        res = smoothed_renyi0(p, q, 0.3)
        assert res.method == "branch_and_bound"
        assert res.witness.q_mass > (1 - 0.3) - 1e-9
        assert abs(-math.log2(res.witness.r_mass) - res.bits) < 1e-12
        dh, _ = hypothesis_testing_entropy(p, q, 0.3)
        assert res.bits <= dh + 1e-9


class TestEnumeration:
    def test_witness_matches_table_oracle(self):
        rng = np.random.default_rng(12)
        count = 0
        for trial in range(3000):
            d = int(rng.integers(1, 17))
            p = rng.dirichlet(np.ones(d) * rng.choice([0.1, 1.0, 5.0]))
            q = p.copy() if rng.random() < 0.2 else rng.dirichlet(np.ones(d))
            kind = trial % 6
            if kind == 1:  # rounded masses tie many subset sums
                p, q = np.round(p, 2), np.round(q, 1)
            elif kind == 2:
                p[rng.random(d) < 0.3] = 0.0
            elif kind == 3:
                q[rng.random(d) < 0.3] = 0.0
            elif kind == 4:
                p = q = np.full(d, 1.0 / d)
            elif kind == 5:  # dyadic masses: sums are exact, ties are exact
                p, q = np.round(p * 8) / 8, np.round(q * 16) / 16
            if p.sum() == 0.0 or q.sum() == 0.0:
                continue
            P, Q = Distribution(p / p.sum()), Distribution(q / q.sum())
            p, q = P.probs, Q.probs
            eps = float(rng.choice([rng.uniform(0.001, 0.95), 0.1, 0.25, 0.5]))
            threshold = entropy._feasibility_threshold(eps)
            assert smoothed_renyi0(P, Q, eps).witness.indices == table_best_subset(p, q, threshold)
            # a threshold on a subset sum, a few ulps either side: rounding
            # then decides feasibility, and the sorted search must agree
            mask = rng.random(d) < 0.7
            edge = float(np.sum(p[mask]) if rng.random() < 0.5 else np.sum(p[mask][::-1]))
            edge = float(np.nextafter(edge, math.inf * rng.choice([-1, 1]))) if rng.random() < 0.5 else edge
            edge += float(rng.integers(-3, 4)) * np.finfo(float).eps
            try:
                want = table_best_subset(p, q, edge)
            except ThermocapError:
                with pytest.raises(ThermocapError):
                    entropy._enumerate_best_subset(p, q, edge)
            else:
                assert entropy._enumerate_best_subset(p, q, edge) == want
            count += 1
        assert count > 2900

    @pytest.mark.parametrize("d", range(1, 33))
    def test_stacked_masses_match_the_per_half_dp(self, d):
        # every subset mass is the same chain of additions, odd d included
        rng = np.random.default_rng([d, 16])
        lo = d // 2
        p = rng.dirichlet(np.ones(d))
        with_zeros = np.where(rng.random(d) < 0.4, 0.0, p)
        dyadic = np.round(p * 16) / 16
        for q, r in ((p, rng.dirichlet(np.ones(d))), (with_zeros, p), (dyadic, with_zeros),
                     (np.zeros(d), dyadic)):
            got = entropy._half_masses(q, r)
            want = (all_masses(q[:lo]), all_masses(q[lo:]), all_masses(r[:lo]), all_masses(r[lo:]))
            for g, w in zip(got, want):
                assert g.tobytes() == w.tobytes()

    @pytest.mark.parametrize("d", range(21, 33))
    def test_matches_branch_and_bound(self, d):
        rng = np.random.default_rng([d, 7])
        for p, q in (_near_tie(rng, d), (random_distribution(rng, d), random_distribution(rng, d))):
            eps = float(rng.uniform(0.05, 0.25))
            res = smoothed_renyi0(p, q, eps)
            assert res.method == "enumeration"
            best, bound = entropy._branch_and_bound_subset(
                p.probs, q.probs, entropy._feasibility_threshold(eps))
            assert bound is None
            assert entropy._subset_value(q.probs, best) == pytest.approx(res.bits, rel=1e-12)

    def test_no_bracket_up_to_the_limit(self, monkeypatch):
        # with no branch-and-bound nodes to spend, d = 32 is still exact and
        # d = 33 is the first dimension that brackets
        rng = np.random.default_rng(32)
        p, q = _near_tie(rng, 32)
        best, bound = entropy._branch_and_bound_subset(
            p.probs, q.probs, entropy._feasibility_threshold(0.15))
        assert bound is None
        monkeypatch.setattr(entropy, "NODE_BUDGET", 0)
        res = smoothed_renyi0(p, q, 0.15)
        assert res.method == "enumeration"
        assert res.exact
        assert res.bracket == (res.bits, res.bits)
        assert res.bits == pytest.approx(entropy._subset_value(q.probs, best), rel=1e-12)
        p, q = _near_tie(rng, 33)
        assert smoothed_renyi0(p, q, 0.15).method == "node_budget_bracket"


class TestHypothesisTesting:
    def test_eps_to_zero_full_support(self, rng):
        p = random_distribution(rng, 4)
        bits, _ = hypothesis_testing_entropy(p, p, 1e-9)
        assert abs(bits) < 1e-7

    def test_derived_greedy_example(self):
        p = Distribution([0.5, 0.3, 0.2])
        q = Distribution([0.1, 0.2, 0.7])
        bits, test = hypothesis_testing_entropy(p, q, 0.25)
        expected = math.log2(1.0 / (0.1 + (5 / 6) * 0.2))
        assert abs(bits - expected) < 1e-12
        assert abs(bits - math.log2(3.75)) < 1e-12
        assert test.weights[0] == 1.0 and abs(test.weights[1] - 5 / 6) < 1e-12

    def test_dominates_renyi0(self):
        p = Distribution([0.5, 0.3, 0.2])
        q = Distribution([0.1, 0.2, 0.7])
        d0 = smoothed_renyi0(p, q, 0.25).bits
        dh, _ = hypothesis_testing_entropy(p, q, 0.25)
        assert dh >= d0 - 1e-12

    def test_matches_dense_lp(self, rng):
        for _ in range(200):
            dim = int(rng.integers(2, 9))
            p = random_distribution(rng, dim, allow_zeros=True)
            q = random_distribution(rng, dim, allow_zeros=True)
            eps = float(rng.uniform(0.02, 0.6))
            bits, test = hypothesis_testing_entropy(p, q, eps)
            oracle = dense_lp_oracle(p, q, eps)
            if math.isinf(bits):
                assert math.isinf(oracle)
            else:
                assert abs(bits - oracle) < 1e-9
            # the returned test is feasible and achieves the value
            assert np.dot(test.weights, p.probs) >= (1 - eps) - 1e-9
            cost = float(np.dot(test.weights, q.probs))
            if cost > 0:
                assert abs(-math.log2(cost) - bits) < 1e-9


class TestTypeClasses:
    def test_matches_direct_at_n1(self):
        p, q = Distribution([0.7, 0.3]), Distribution([0.5, 0.5])
        fast = hypothesis_testing_entropy_iid_binary(p, q, 0.05, 1)
        slow, _ = hypothesis_testing_entropy(p, q, 0.05)
        assert abs(fast - slow) < 1e-12

    def test_matches_explicit_tensor_powers(self, rng):
        for _ in range(20):
            p = random_distribution(rng, 2)
            q = random_distribution(rng, 2)
            eps = float(rng.uniform(0.02, 0.5))
            n = int(rng.integers(2, 11))
            fast = hypothesis_testing_entropy_iid_binary(p, q, eps, n)
            slow, _ = hypothesis_testing_entropy(tensor_power(p, n), tensor_power(q, n), eps)
            assert abs(fast - slow) < 1e-9

    def test_equal_laws_value(self):
        # exact optimum at p == q is -log2(1 - eps), shrinking per copy
        p = Distribution([0.4, 0.6])
        for n in (1, 7, 40):
            val = hypothesis_testing_entropy_iid_binary(p, p, 0.01, n)
            assert abs(val - (-math.log2(0.99))) < 1e-9

    @pytest.mark.parametrize(
        "p, q", [([1, 0], [1, 0]), ([0, 1], [0, 1]), ([1, 0], [0.5, 0.5]), ([0, 1], [0.3, 0.7])]
    )
    def test_degenerate_laws_match_tensor_powers(self, p, q):
        # a symbol p never emits leaves whole type classes without mass;
        # their log-ratios are never formed, so no invalid-value warning
        p, q = Distribution(p), Distribution(q)
        for eps in (0.05, 0.3, 0.9):
            fast = hypothesis_testing_entropy_iid_binary(p, q, eps, 10)
            slow, _ = hypothesis_testing_entropy(tensor_power(p, 10), tensor_power(q, 10), eps)
            assert fast == pytest.approx(slow, abs=1e-12)

    @pytest.mark.parametrize("n", [1, 3])
    def test_reference_mass_below_rounding_of_one(self, n):
        # q0 = 1e-20 vanishes in 1 - q1; the classes must use q0 itself
        p, q = Distribution([0.5, 0.5]), Distribution([1e-20, 1.0])
        fast = hypothesis_testing_entropy_iid_binary(p, q, 0.6, n)
        slow, _ = hypothesis_testing_entropy(tensor_power(p, n), tensor_power(q, n), 0.6)
        assert math.isfinite(fast)
        assert fast == pytest.approx(slow, abs=1e-12)

    @pytest.mark.parametrize("n", [2.5, 3.0, True, False, "4", 0, -2])
    def test_n_must_be_an_integer(self, n):
        p, q = Distribution([0.7, 0.3]), Distribution([0.5, 0.5])
        with pytest.raises(ThermocapError, match="n must be an integer"):
            hypothesis_testing_entropy_iid_binary(p, q, 0.1, n)

    @pytest.mark.parametrize("kind", [np.int64, np.int32, np.uint8])
    def test_numpy_integer_n(self, kind):
        p, q = Distribution([0.7, 0.3]), Distribution([0.5, 0.5])
        assert hypothesis_testing_entropy_iid_binary(p, q, 0.1, kind(40)) == (
            hypothesis_testing_entropy_iid_binary(p, q, 0.1, 40))

    def test_stein_convergence_direction(self):
        p, q = Distribution([0.7, 0.3]), Distribution([0.5, 0.5])
        target = relative_entropy(p, q)
        dev20 = abs(hypothesis_testing_entropy_iid_binary(p, q, 0.01, 20) / 20 - target)
        dev200 = abs(hypothesis_testing_entropy_iid_binary(p, q, 0.01, 200) / 200 - target)
        assert dev200 < dev20


def log_binomial_pmf(prob0, prob1, n):
    """log P(k ones in n draws) for k = 0..n under the binary law (prob0,
    prob1), each entry used as given, from a fresh table of ln k!."""
    log_binom = entropy._log_binomial(entropy._log_factorials(n), n)
    return entropy._log_law(log_binom, *entropy._log_probs(prob0, prob1))


class TestLogBinomial:
    @pytest.mark.parametrize("n", [1, 2, 31, 32, 33, 200, 1000, 10_000])
    def test_log_binomial_coefficients_exact(self, n):
        # with both entries 1 only log C(n, k) remains; 31/32 is the seam
        # between the lgamma table and Stirling's series
        got = log_binomial_pmf(1.0, 1.0, n)
        # the exact integers C(n, k), built along the row: C(n, k+1) = C(n, k)(n-k)/(k+1)
        comb = [1]
        for k in range(n):
            comb.append(comb[-1] * (n - k) // (k + 1))
        exact = np.array([math.log(c) for c in comb])
        assert np.max(np.abs(got - exact)) <= 1e-15 * math.lgamma(n + 1.0) + 1e-14

    @pytest.mark.parametrize("n", [1, 5, 40])
    def test_degenerate_laws(self, n):
        # -inf exactly where a class needs the absent symbol, without warnings
        ones = np.full(n + 1, -np.inf)
        ones[n] = 0.0
        assert np.array_equal(log_binomial_pmf(0.0, 1.0, n), ones)
        assert np.array_equal(log_binomial_pmf(1.0, 0.0, n), ones[::-1])

    def test_matches_scipy_logpmf(self, rng):
        for _ in range(60):
            n = int(rng.choice([1, 2, 7, 31, 32, 33, 200, 1000, 10_000]))
            p1 = float(rng.uniform(0.001, 0.999))
            got = log_binomial_pmf(1.0 - p1, p1, n)
            np.testing.assert_allclose(got, binom.logpmf(np.arange(n + 1), n, p1), rtol=1e-12)


class TestSharedTables:
    @pytest.mark.parametrize("n_max", [1000, 10_000])
    def test_stein_grid_slices_match_fresh_tables(self, n_max):
        # each point of a Stein series reads a prefix of one table of ln k!
        p, q = Distribution([0.7, 0.3]), Distribution([0.5, 0.5])
        grid = [n for n, _ in stein_series(p, q, 0.1, n_max).points]
        assert grid[0] == 1 and grid[-1] == n_max
        table = entropy._log_factorials(n_max)
        for n in grid:
            log_binom = entropy._log_binomial(table, n)
            for p0, p1 in ((1.0, 1.0), (0.7, 0.3), (0.5, 0.5), (0.0, 1.0)):
                got = entropy._log_law(log_binom, *entropy._log_probs(p0, p1))
                assert got.tobytes() == log_binomial_pmf(p0, p1, n).tobytes()

    @pytest.mark.parametrize("n_max", [1000, 10_000])
    def test_stein_points_match_the_public_function(self, n_max):
        rng = np.random.default_rng(n_max)
        for _ in range(3):
            p1, q1 = rng.uniform(0.05, 0.95, size=2)
            p, q = Distribution([1 - p1, p1]), Distribution([1 - q1, q1])
            eps = float(rng.uniform(0.01, 0.3))
            for n, value in stein_series(p, q, eps, n_max).points:
                assert value == hypothesis_testing_entropy_iid_binary(p, q, eps, n) / n

    def test_exp_matches_numpy_bit_for_bit(self, rng):
        # log-masses whose exp underflows at one end, both ends or not at
        # all, results in the subnormal range, and -inf classes
        for _ in range(200):
            n = int(rng.choice([1, 5, 50, 300, 1000, 10_000]))
            p1 = float(rng.uniform(0.001, 0.999))
            x = log_binomial_pmf(1.0 - p1, p1, n)
            for y in (x, x - x.max(), x[::-1], np.append(x, -np.inf),
                      np.linspace(-760.0, -700.0, 61), np.full(3, -800.0)):
                assert entropy._exp(y).tobytes() == np.exp(y).tobytes()

    @pytest.mark.parametrize("p, q, monotone", [
        ([0.6, 0.4], [0.3, 0.7], True),  # log-ratio increasing in k
        ([0.3, 0.7], [0.6, 0.4], True),  # decreasing
        ([0.4, 0.6], [0.4 + 1e-15, 0.6 - 1e-15], True),  # p ~ q: falls by 4e-15 a class
        ([0.4, 0.6], [0.4, 0.6], False),  # p == q: every class tied
        ([1.0, 0.0], [0.5, 0.5], False),  # +inf classes from k = 1 on
        ([0.0, 1.0], [0.3, 0.7], False),  # +inf classes below k = n
    ])
    @pytest.mark.parametrize("n", [2, 7, 200, 10_000])
    def test_class_order_matches_lexsort(self, p, q, monotone, n):
        # the log-ratios as hypothesis_testing_entropy_iid_binary forms them
        (p0, p1), (q0, q1) = p, q
        k = np.arange(n + 1)
        log_ratio = k * (np.log(q1) - np.log(p1) if p1 > 0.0 else 0.0)
        log_ratio[:n] += (n - k[:n]) * (np.log(q0) - np.log(p0) if p0 > 0.0 else 0.0)
        log_ratio[np.isneginf(log_binomial_pmf(p0, p1, n))] = np.inf
        rises, falls = log_ratio[1:] > log_ratio[:-1], log_ratio[1:] < log_ratio[:-1]
        assert bool(rises.all() or falls.all()) == monotone
        # a slice (k or k reversed) for a monotone order, else the permutation
        assert isinstance(entropy._class_order(log_ratio), slice) == monotone
        assert np.array_equal(k[entropy._class_order(log_ratio)], np.lexsort((k, log_ratio)))
        for edge in (np.inf, -np.inf):  # an infinite class at either end
            for at in (0, n):
                shifted = log_ratio.copy()
                shifted[at] = edge
                assert np.array_equal(k[entropy._class_order(shifted)], np.lexsort((k, shifted)))


# The sequential greedy loops that the shared cover helper replaced, kept
# verbatim as references: the helper must reproduce them bit for bit.
def loop_hypothesis_testing(p, q, eps):
    qv, rv = p.probs, q.probs
    order = entropy._ratio_order(qv, rv)
    target = 1.0 - eps
    weights = np.zeros(p.dim)
    cost = 0.0
    covered = 0.0
    for j in order:
        need = target - covered
        if need <= 1e-15:
            break
        if qv[j] == 0.0 or qv[j] <= need:
            weights[j] = 1.0
            covered += qv[j]
            cost += rv[j]
        else:
            frac = need / qv[j]
            weights[j] = frac
            covered += need
            cost += frac * rv[j]
    return entropy._bits(cost), weights


def loop_iid_binary(p, q, eps, n):
    # pins the greedy over the type classes, not their log-masses
    (p0, p1), (q0, q1) = p.probs.tolist(), q.probs.tolist()
    k = np.arange(n + 1)
    log_pmass = log_binomial_pmf(p0, p1, n)
    log_rmass = log_binomial_pmf(q0, q1, n)
    pmass = np.exp(log_pmass)
    with np.errstate(divide="ignore"):
        lr_one = np.log(q1) - np.log(p1)
        lr_zero = np.log(q0) - np.log(p0)
    log_ratio = np.where(k > 0, k * lr_one, 0.0) + np.where(k < n, (n - k) * lr_zero, 0.0)
    order = np.lexsort((k, log_ratio))

    target = 1.0 - eps
    covered = 0.0
    log_cost_terms = []
    for j in order:
        need = target - covered
        if need <= 1e-15:
            break
        if pmass[j] <= need:
            covered += pmass[j]
            log_cost_terms.append(log_rmass[j])
        else:
            frac = need / pmass[j]
            covered += need
            if frac > 0.0:
                log_cost_terms.append(math.log(frac) + log_rmass[j])
    terms = np.array([t for t in log_cost_terms if np.isfinite(t)])
    if terms.size == 0:
        return math.inf
    log_cost = float(terms.max() + np.log(np.sum(np.exp(terms - terms.max()))))
    return -log_cost / math.log(2.0)


def loop_cover_cost(q_sorted, r_sorted, start, need):
    cost = 0.0
    for j in range(start, q_sorted.size):
        if need <= 1e-15:
            return cost
        if q_sorted[j] >= need:
            return cost + (need / q_sorted[j]) * r_sorted[j]
        cost += r_sorted[j]
        need -= q_sorted[j]
    return cost if need <= 1e-15 else math.inf


def _branched_items(q, r):
    """Positive items in ratio order, as the branch-and-bound branches them."""
    order = entropy._ratio_order(q, r)
    order = order[(q[order] > 0.0) & (r[order] > 0.0)]
    return q[order], r[order]


class TestGreedyCover:
    def test_hypothesis_testing_matches_loop_reference(self, rng):
        def cases():
            for _ in range(600):
                d = int(rng.choice([1, 2, 3, 5, 16, 64, 256, 1024]))
                p = rng.dirichlet(np.ones(d) * rng.choice([0.2, 1.0, 5.0]))
                q = p.copy() if rng.random() < 0.25 else rng.dirichlet(np.ones(d))
                p[rng.random(d) < 0.2 * (rng.random() < 0.5)] = 0.0
                q[rng.random(d) < 0.2 * (rng.random() < 0.5)] = 0.0
                # masses far below the cover tolerance
                if rng.random() < 0.2:
                    p[rng.random(d) < 0.3] = 1e-17
                if p.sum() > 0.0 and q.sum() > 0.0:
                    yield p / p.sum(), q / q.sum(), float(rng.uniform(0.001, 0.999))
            # equal masses put running sums on the goal itself
            for d in (2, 3, 7, 10, 64, 100, 1000, 1024):
                u = np.full(d, 1.0 / d)
                for j in range(1, d, 1 + d // 60):
                    yield u, u, j / d
                    yield u, rng.dirichlet(np.ones(d)), j / d
            # a tiny item after each equal one: the running sum can end an
            # equal item just under the goal, where the cover is complete
            for m in (10, 64, 100):
                v = np.zeros(2 * m)
                v[::2], v[1::2] = 1.0 / m, 1e-17
                for j in range(1, m):
                    yield v, v, j / m

        count = 0
        for p, q, eps in cases():
            p, q = Distribution(p), Distribution(q)
            bits, test = hypothesis_testing_entropy(p, q, eps)
            ref_bits, ref_weights = loop_hypothesis_testing(p, q, eps)
            assert bits == ref_bits
            assert np.array_equal(test.weights, ref_weights)
            count += 1
        assert count > 1000

    @pytest.mark.parametrize("n", [1, 2, 20, 200, 1000, 10_000])
    def test_iid_binary_matches_loop_reference(self, rng, n):
        for _ in range(25):
            p1, q1 = rng.uniform(0.01, 0.99, size=2)
            if rng.random() < 0.2:
                q1 = p1
            p, q = Distribution([1 - p1, p1]), Distribution([1 - q1, q1])
            eps = float(rng.uniform(0.001, 0.999))
            assert hypothesis_testing_entropy_iid_binary(p, q, eps, n) == loop_iid_binary(
                p, q, eps, n
            )

    def test_bound_matches_loop_reference(self, rng):
        # prefix differences and the loop's running subtraction round apart
        # by a few ulps per summed item, scaled by r/q of the fractional item
        ulp = np.finfo(float).eps
        for _ in range(60):
            d = int(rng.choice([2, 5, 24, 64, 256]))
            q = rng.dirichlet(np.ones(d) * rng.choice([0.3, 1.0, 5.0]))
            r = q.copy() if rng.random() < 0.3 else rng.dirichlet(np.ones(d))
            qs, rs = _branched_items(q, r * np.exp(1e-3 * rng.standard_normal(d)))
            cum_q, cum_r = entropy._running_sum(qs), entropy._running_sum(rs)
            suffix = np.concatenate([np.cumsum(qs[::-1])[::-1], [0.0]])
            for start in range(qs.size):
                # the branch-and-bound only asks for what the items can cover
                for need in (0.0, 1e-16, suffix[start] * rng.random(), suffix[start] * 0.999):
                    # the cost as the branch-and-bound's relaxation forms it
                    k, frac = entropy._greedy_cover(cum_q, qs, start, need)
                    bound = cum_r[k] - cum_r[start] + (frac * rs[k] if frac else 0.0)
                    last = min(k + 1, qs.size - 1)
                    tol = 4 * ulp * (k + 2) * (1.0 + rs[last] / qs[last])
                    assert abs(bound - loop_cover_cost(qs, rs, start, need)) <= tol

    def test_root_bound_matches_loop_reference(self, rng, monkeypatch):
        # with no nodes to spend the search returns the root relaxation
        monkeypatch.setattr(entropy, "NODE_BUDGET", 0)
        ulp = np.finfo(float).eps
        for _ in range(100):
            d = int(rng.choice([24, 64, 256]))
            p, q = random_distribution(rng, d), random_distribution(rng, d)
            threshold = entropy._feasibility_threshold(float(rng.uniform(0.01, 0.9)))
            _, root = entropy._branch_and_bound_subset(p.probs, q.probs, threshold)
            qs, rs = _branched_items(p.probs, q.probs)
            ref = loop_cover_cost(qs, rs, 0, threshold)
            assert abs(root - ref) <= 4 * ulp * (d + 1) * (1.0 + float(np.max(rs / qs)))
