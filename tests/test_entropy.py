import math

import numpy as np
import pytest

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
    tensor_power,
)
from thermocap.core import InfiniteValueError, SupportViolationError
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


class TestMinPositiveProb:
    def test_examples(self):
        assert min_positive_prob(Distribution([1.0, 0.0])) == 1.0
        assert min_positive_prob(Distribution([0.5, 0.3, 0.2])) == pytest.approx(0.2)
        assert min_positive_prob(Distribution.uniform(8)) == pytest.approx(1 / 8)


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
        rng = np.random.default_rng(2)
        probs = rng.dirichlet(np.ones(24))
        near = probs * np.exp(1e-3 * rng.standard_normal(24))
        p, q = Distribution(probs), Distribution(near / near.sum())
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
        # dims between the enumeration and branch-and-bound limits
        p = random_distribution(rng, 25)
        q = random_distribution(rng, 25)
        res = smoothed_renyi0(p, q, 0.3)
        assert res.method == "branch_and_bound"
        assert res.witness.q_mass > (1 - 0.3) - 1e-9
        assert abs(-math.log2(res.witness.r_mass) - res.bits) < 1e-12
        dh, _ = hypothesis_testing_entropy(p, q, 0.3)
        assert res.bits <= dh + 1e-9


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

    def test_stein_convergence_direction(self):
        p, q = Distribution([0.7, 0.3]), Distribution([0.5, 0.5])
        target = relative_entropy(p, q)
        dev20 = abs(hypothesis_testing_entropy_iid_binary(p, q, 0.01, 20) / 20 - target)
        dev200 = abs(hypothesis_testing_entropy_iid_binary(p, q, 0.01, 200) / 200 - target)
        assert dev200 < dev20
