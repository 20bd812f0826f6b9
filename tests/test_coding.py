import itertools
import math

import numpy as np
import pytest

from thermocap import (
    Codebook,
    StochasticChannel,
    classical_version,
    gibbs_deviation,
    ml_decoder,
    one_shot_capacity,
    success_probability,
    theta_equilibrium_capacity,
)
from thermocap.coding import (
    _codebook_batches,
    _ml_composed,
    _ml_success,
    _uniform_deviation,
)
from thermocap.core import SearchSpaceTooLargeError, ThermocapError, tensor_power_channel

from conftest import random_channel


def _codebook(ch, inputs):
    return Codebook(inputs=tuple(inputs), decoder=ml_decoder(ch, inputs))


def enumeration_channels():
    """Seeded random channels (square, wide and tall outputs), identities,
    BSC^2 and a channel with a repeated input symbol, whose exact ties pin
    the tie-break."""
    rng = np.random.default_rng(11)
    chans = [random_channel(rng, d_in, d_out)
             for d_in, d_out in [(2, 2), (3, 3), (4, 4), (5, 3), (4, 7), (6, 9), (7, 5)]]
    chans += [StochasticChannel.identity(d) for d in (1, 3, 5)]
    chans.append(tensor_power_channel(StochasticChannel.binary_symmetric(0.1), 2))
    chans.append(StochasticChannel(np.eye(3)[:, [0, 1, 2, 0]]))
    return chans


class TestSuccessProbability:
    def test_identity_composition(self):
        ch = StochasticChannel.identity(3)
        cv = classical_version(ch, _codebook(ch, (0, 1, 2)))
        assert success_probability(cv) == 1.0

    def test_constant_channel_two_messages(self):
        ch = StochasticChannel.constant(2)
        cv = classical_version(ch, _codebook(ch, (0, 1)))
        assert success_probability(cv) == 0.5

    def test_bsc_diagonal_average(self):
        ch = StochasticChannel.binary_symmetric(0.1)
        cv = classical_version(ch, _codebook(ch, (0, 1)))
        assert abs(success_probability(cv) - 0.9) < 1e-12


class TestMlDecoder:
    def test_identity(self):
        ch = StochasticChannel.identity(2)
        assert ml_decoder(ch, (0, 1)) == (0, 1)

    def test_bsc(self):
        ch = StochasticChannel.binary_symmetric(0.1)
        assert ml_decoder(ch, (0, 1)) == (0, 1)

    def test_constant_ties_to_message_zero(self):
        ch = StochasticChannel.constant(3)
        assert ml_decoder(ch, (0, 1, 2)) == (0, 0, 0)

    def test_never_beaten_by_any_decoder(self, rng):
        # exhaustive decoder search on random small instances
        for _ in range(40):
            dim = int(rng.integers(2, 5))
            ch = random_channel(rng, dim, dim)
            m = int(rng.integers(2, min(4, dim) + 1))
            inputs = tuple(rng.choice(dim, size=m, replace=False))
            ml_cb = _codebook(ch, inputs)
            ml_ps = success_probability(classical_version(ch, ml_cb))
            for decoder in itertools.product(range(m), repeat=ch.dim_out):
                ps = success_probability(
                    classical_version(ch, Codebook(inputs=inputs, decoder=decoder))
                )
                assert ps <= ml_ps + 1e-12


class TestOneShotCapacity:
    def test_identity_dims(self):
        for d in range(2, 9):
            res = one_shot_capacity(StochasticChannel.identity(d), 0.0)
            assert res.bits == math.log2(d)
            assert res.codebook.inputs == tuple(range(d))

    def test_constant_channel(self):
        assert one_shot_capacity(StochasticChannel.constant(2), 0.4).bits == 0.0

    def test_bsc_thresholds(self):
        ch = StochasticChannel.binary_symmetric(0.1)
        assert one_shot_capacity(ch, 0.05).bits == 0.0
        assert one_shot_capacity(ch, 0.15).bits == 1.0

    def test_monotone_in_eps(self, rng):
        for _ in range(20):
            ch = random_channel(rng, 4, 4)
            values = [one_shot_capacity(ch, e).bits for e in (0.05, 0.15, 0.3, 0.45)]
            assert all(b >= a for a, b in zip(values, values[1:]))

    def test_capacity_capped_by_log_dim(self, rng):
        for _ in range(20):
            ch = random_channel(rng, 5, 3)
            assert one_shot_capacity(ch, 0.3).bits <= math.log2(5) + 1e-12

    def test_budget_error_and_randomized_bracket(self, rng):
        ch = random_channel(rng, 12, 12)
        with pytest.raises(SearchSpaceTooLargeError):
            one_shot_capacity(ch, 0.3, codebook_budget=10)
        res = one_shot_capacity(ch, 0.3, randomized=True, samples=500, seed=1)
        assert not res.exact
        exact = one_shot_capacity(ch, 0.3)
        assert res.bits <= exact.bits + 1e-12

    def test_deterministic_encoders_suffice(self, rng):
        # stochastic encoders never beat the deterministic optimum: the
        # success probability is affine in each encoder column, so grid and
        # random interior points stay below the best vertex
        for _ in range(10):
            dim = int(rng.integers(2, 5))
            ch = random_channel(rng, dim, dim)
            m = int(rng.integers(2, min(3, dim) + 1))
            best_det = 0.0
            for inputs in itertools.combinations(range(dim), m):
                best_det = max(
                    best_det, success_probability(classical_version(ch, _codebook(ch, inputs)))
                )
            best_soft = 0.0
            grid = np.linspace(0.0, 1.0, 5)
            for w0 in grid:  # two-symbol mixes on a fine grid
                for w1 in grid:
                    enc = np.zeros((dim, m))
                    enc[0, 0], enc[1, 0] = w0, 1 - w0
                    enc[0, 1], enc[1, 1] = w1, 1 - w1
                    for col in range(2, m):
                        enc[col % dim, col] = 1.0
                    ps = float((ch.matrix @ enc).max(axis=1).sum() / m)
                    best_soft = max(best_soft, ps)
            for _ in range(200):  # random interior encoders
                enc = rng.dirichlet(np.ones(dim), size=m).T
                ps = float((ch.matrix @ enc).max(axis=1).sum() / m)
                best_soft = max(best_soft, ps)
            assert best_soft <= best_det + 1e-6


class TestGibbsDeviation:
    def test_identity_is_gibbs_preserving(self):
        ch = StochasticChannel.identity(4)
        cv = classical_version(ch, _codebook(ch, (0, 1, 2, 3)))
        assert gibbs_deviation(cv) == 0.0

    def test_constant_two_messages(self):
        ch = StochasticChannel.constant(2)
        cv = classical_version(ch, _codebook(ch, (0, 1)))
        assert abs(gibbs_deviation(cv) - 1.0) < 1e-12

    def test_bounded_by_twice_failure(self, rng):
        # deviation <= 2 * (1 - success probability) for every codebook
        for _ in range(100):
            dim = int(rng.integers(2, 6))
            ch = random_channel(rng, dim, dim)
            m = int(rng.integers(1, dim + 1))
            inputs = tuple(rng.choice(dim, size=m, replace=False))
            cv = classical_version(ch, _codebook(ch, inputs))
            ps = success_probability(cv)
            assert gibbs_deviation(cv) <= 2.0 * (1.0 - ps) + 1e-9


class TestThetaEquilibrium:
    def test_never_below_unconstrained_when_theta_matches(self, rng):
        # theta >= eps makes every eps-feasible codebook theta-feasible
        for _ in range(20):
            ch = random_channel(rng, 4, 4)
            eps = float(rng.uniform(0.05, 0.4))
            theta = float(rng.uniform(eps, 0.49))
            plain = one_shot_capacity(ch, eps).bits
            constrained = theta_equilibrium_capacity(ch, eps, theta).bits
            assert constrained >= plain - 1e-12

    def test_identity_unaffected(self):
        ch = StochasticChannel.identity(4)
        assert theta_equilibrium_capacity(ch, 0.1, 0.1).bits == 2.0

    def test_bsc_symmetric_codebook(self):
        ch = StochasticChannel.binary_symmetric(0.1)
        res = theta_equilibrium_capacity(ch, 0.15, 0.15)
        assert res.bits == 1.0
        assert gibbs_deviation(classical_version(ch, res.codebook)) < 1e-12

    def test_parameter_domain(self):
        ch = StochasticChannel.identity(2)
        with pytest.raises(ThermocapError):
            theta_equilibrium_capacity(ch, 0.3, 0.2)

    @pytest.mark.parametrize("ch", enumeration_channels())
    def test_first_feasible_codebook_in_search_order(self, ch):
        # reference: M descending, combinations in lexicographic order, the
        # first codebook that meets both constraints wins
        for eps, theta in [(0.1, 0.1), (0.2, 0.25), (0.3, 0.45)]:
            expected = None
            for m in range(ch.dim_in, 0, -1):
                for combo in itertools.combinations(range(ch.dim_in), m):
                    cv = classical_version(ch, _codebook(ch, combo))
                    if (success_probability(cv) >= 1.0 - eps - 1e-12
                            and gibbs_deviation(cv) <= 2.0 * theta + 1e-12):
                        expected = combo
                        break
                if expected is not None:
                    break
            assert theta_equilibrium_capacity(ch, eps, theta).codebook.inputs == expected


class TestBatchedEnumerator:
    def test_lexicographic_order_in_batches(self):
        ch = random_channel(np.random.default_rng(2), 6, 4)
        seen = [tuple(c) for combos, _ in _codebook_batches(ch, [4, 2], batch=4)
                for c in combos.tolist()]
        expected = (list(itertools.combinations(range(6), 4))
                    + list(itertools.combinations(range(6), 2)))
        assert seen == expected

    def test_budget_covers_every_size(self):
        ch = StochasticChannel.identity(5)
        with pytest.raises(SearchSpaceTooLargeError):
            next(_codebook_batches(ch, range(1, 6), budget=30))
        assert sum(len(c) for c, _ in _codebook_batches(ch, range(1, 6), budget=31)) == 31

    @pytest.mark.parametrize("ch", enumeration_channels())
    def test_helpers_match_classical_version(self, ch):
        for combos, cols in _codebook_batches(ch, range(1, ch.dim_in + 1)):
            ps = _ml_success(cols)
            t = _ml_composed(cols)
            deviation = _uniform_deviation(t)
            for b, combo in enumerate(combos.tolist()):
                cv = classical_version(ch, _codebook(ch, combo))
                assert abs(ps[b] - success_probability(cv)) <= 1e-12
                assert np.abs(t[b] - cv.composed.matrix).max() <= 1e-12
                assert abs(deviation[b] - gibbs_deviation(cv)) <= 1e-12
