import math

import numpy as np
import pytest

from thermocap import (
    Distribution,
    Hamiltonian,
    JointDistribution,
    StochasticChannel,
    ThermocapError,
    apply_local,
    gibbs_state,
    maximally_correlated,
    tensor_power,
    tensor_power_channel,
    trace_distance,
)
from thermocap.core import DimensionMismatchError, DimensionTooLargeError, _gibbs_probs

from conftest import random_channel, random_distribution


class TestConstruction:
    def test_rejects_negative_entries(self):
        with pytest.raises(ThermocapError):
            Distribution([0.5, -0.1, 0.6])

    def test_rejects_bad_normalisation(self):
        with pytest.raises(ThermocapError):
            Distribution([0.5, 0.6])

    def test_renormalises_exactly(self):
        p = Distribution([0.1 + 2e-10, 0.9])
        assert p.probs.sum() == 1.0

    def test_channel_columns_must_be_stochastic(self):
        with pytest.raises(ThermocapError):
            StochasticChannel([[0.5, 0.2], [0.4, 0.8]])

    def test_joint_marginals(self):
        j = JointDistribution([[0.2, 0.3], [0.4, 0.1]])
        assert np.allclose(j.marginal_a().probs, [0.5, 0.5])
        assert np.allclose(j.marginal_b().probs, [0.6, 0.4])

    def test_immutability(self):
        p = Distribution([0.5, 0.5])
        with pytest.raises(ValueError):
            p.probs[0] = 1.0

    def test_json_round_trip(self):
        ch = StochasticChannel.binary_symmetric(0.1)
        again = StochasticChannel.from_dict(ch.to_dict())
        assert np.allclose(ch.matrix, again.matrix)
        h = Hamiltonian([0.0, 1.5])
        assert Hamiltonian.from_dict(h.to_dict()).levels[1] == 1.5
        with pytest.raises(ThermocapError):
            Hamiltonian.from_dict({"levels": [0.0], "units": "eV"})


class TestTraceDistance:
    def test_identical(self):
        p = Distribution([0.3, 0.7])
        assert trace_distance(p, p) == 0.0

    def test_orthogonal_point_masses(self):
        assert trace_distance(Distribution([1, 0]), Distribution([0, 1])) == 2.0

    def test_direct_summation(self):
        p = Distribution([0.5, 0.3, 0.2])
        q = Distribution([0.1, 0.2, 0.7])
        assert abs(trace_distance(p, q) - 1.0) < 1e-12

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionMismatchError):
            trace_distance(Distribution([1.0]), Distribution([0.5, 0.5]))

    def test_metric_on_random_triples(self, rng):
        for _ in range(200):
            dim = int(rng.integers(2, 7))
            p, q, r = (random_distribution(rng, dim) for _ in range(3))
            assert abs(trace_distance(p, q) - trace_distance(q, p)) < 1e-12
            assert trace_distance(p, r) <= trace_distance(p, q) + trace_distance(q, r) + 1e-12
            assert trace_distance(p, p) < 1e-12


class TestGibbsState:
    def test_degenerate_gives_uniform(self):
        g = gibbs_state(Hamiltonian([0.0, 0.0, 0.0, 0.0]))
        assert np.allclose(g.probs, 0.25)

    def test_closed_form_two_level(self):
        g = gibbs_state(Hamiltonian([0.0, math.log(2.0)]))
        assert np.allclose(g.probs, [2 / 3, 1 / 3], atol=1e-12)

    def test_log_prob_levels_reproduce_state(self, rng):
        for _ in range(20):
            p = rng.dirichlet(np.ones(4)) + 1e-3
            p /= p.sum()
            g = gibbs_state(Hamiltonian(-np.log(p)))
            assert np.allclose(g.probs, p, atol=1e-12)

    def test_gauge_invariance(self, rng):
        for _ in range(50):
            levels = rng.normal(size=5)
            shift = rng.normal() * 10
            g1 = gibbs_state(Hamiltonian(levels))
            g2 = gibbs_state(Hamiltonian(levels + shift))
            assert np.abs(g1.probs - g2.probs).max() < 1e-12

    def test_raw_helper_matches_validated_state(self, rng):
        # the work pipeline's object-free occupancy must carry the same bits
        for _ in range(200):
            levels = rng.normal(scale=float(rng.uniform(0.1, 30.0)), size=int(rng.integers(1, 40)))
            levels[rng.random(levels.size) < 0.2] = 50.0
            assert _gibbs_probs(levels).tobytes() == gibbs_state(Hamiltonian(levels)).probs.tobytes()


class TestMaximallyCorrelated:
    def test_m1(self):
        assert maximally_correlated(1).probs.tolist() == [[1.0]]

    def test_m2(self):
        j = maximally_correlated(2)
        assert np.allclose(j.probs, [[0.5, 0.0], [0.0, 0.5]])

    def test_m4_marginals_uniform(self):
        j = maximally_correlated(4)
        assert np.allclose(j.marginal_a().probs, 0.25)
        assert np.allclose(j.marginal_b().probs, 0.25)


class TestApplyLocal:
    def test_identity_leaves_joint(self):
        j = maximally_correlated(3)
        out = apply_local(StochasticChannel.identity(3), j)
        assert np.allclose(out.probs, j.probs)

    def test_column_collapse(self):
        out = apply_local(StochasticChannel.constant(2), maximally_correlated(2))
        assert np.allclose(out.probs, [[0.5, 0.5], [0.0, 0.0]])

    def test_marginal_b_preserved(self, rng):
        for _ in range(100):
            da, db = int(rng.integers(2, 5)), int(rng.integers(2, 5))
            j = JointDistribution(rng.dirichlet(np.ones(da * db)).reshape(da, db))
            ch = random_channel(rng, da, int(rng.integers(2, 5)))
            out = apply_local(ch, j)
            assert np.allclose(out.marginal_b().probs, j.marginal_b().probs, atol=1e-12)
            pushed = ch.apply(j.marginal_a())
            assert np.allclose(out.marginal_a().probs, pushed.probs, atol=1e-12)


class TestTensorPowers:
    def test_power_one_is_identity(self):
        p = Distribution([0.7, 0.3])
        assert np.allclose(tensor_power(p, 1).probs, p.probs)

    def test_outer_product_order(self):
        p = Distribution([0.7, 0.3])
        assert np.allclose(tensor_power(p, 2).probs, [0.49, 0.21, 0.21, 0.09])

    def test_identity_channel_power(self):
        chn = tensor_power_channel(StochasticChannel.identity(3), 2)
        assert np.allclose(chn.matrix, np.eye(9))

    def test_dimension_cap(self):
        with pytest.raises(DimensionTooLargeError):
            tensor_power(Distribution([0.5, 0.5]), 25)

    def test_channel_factorises_on_products(self, rng):
        ch = random_channel(rng, 2, 3)
        p = random_distribution(rng, 2)
        big = tensor_power_channel(ch, 2).apply(tensor_power(p, 2))
        small = ch.apply(p)
        assert np.allclose(big.probs, np.kron(small.probs, small.probs), atol=1e-12)
