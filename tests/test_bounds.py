import itertools
import math

import numpy as np
import pytest

from thermocap import (
    ErrorParams,
    StochasticChannel,
    capacity_entropic_bounds,
    capacity_work_bounds,
    equilibrium_capacity_bounds,
    error_terms,
    landauer_scenario,
    tensor_power_channel,
)
from thermocap.bounds import _best_codebooks_per_size
from thermocap.core import LN2, NoFeasibleCodebookError, ThermocapError

from conftest import random_channel


def fixture_channels():
    rng = np.random.default_rng(3)
    return {
        "identity2": StochasticChannel.identity(2),
        "identity4": StochasticChannel.identity(4),
        "bsc01": StochasticChannel.binary_symmetric(0.1),
        "bsc025": StochasticChannel.binary_symmetric(0.25),
        "constant4": StochasticChannel.constant(4),
        "random3": random_channel(rng, 3, 3),
    }


class TestErrorTerms:
    def test_sandwich_penalty_value(self):
        terms = error_terms(ErrorParams(eps=0.5, omega=0.25))
        assert terms["sandwich_penalty_bits"] == pytest.approx(5.0)

    def test_divergence_as_omega_approaches_eps(self):
        terms = error_terms(ErrorParams(eps=0.3, omega=0.3))
        assert math.isinf(terms["sandwich_penalty_bits"])
        assert math.isinf(terms["work_penalty_kT"])

    def test_extraction_slack_at_work_limit(self):
        eps = 1.0 - 1.0 / math.sqrt(2.0)
        terms = error_terms(ErrorParams(eps=eps))
        assert terms["extraction_slack_kT"] == pytest.approx(math.log(math.sqrt(2.0)))
        assert terms["extraction_slack_kT"] == pytest.approx(LN2 / 2.0)


class TestEntropicSandwich:
    @pytest.mark.parametrize("params", [(0.15, 0.075, 0.05), (0.3, 0.15, 0.1)])
    def test_all_fixtures_consistent(self, params):
        eps, omega, delta = params
        for name, ch in fixture_channels().items():
            report = capacity_entropic_bounds(ch, ErrorParams(eps=eps, omega=omega, delta=delta))
            assert report.consistent, (name, report.verdict)
            assert report.lower_estimate <= report.capacity + 1e-6
            assert report.capacity <= report.upper_witness_value + 1e-6

    def test_identity2_witness_value(self):
        # both diagonal cells of the correlated input are needed, so the
        # witness value is exactly one bit
        report = capacity_entropic_bounds(
            StochasticChannel.identity(2), ErrorParams(eps=0.3, omega=0.15, delta=0.1)
        )
        assert report.capacity == 1.0
        assert report.upper_witness_value == pytest.approx(1.0)

    def test_constant_channel_degenerate(self):
        report = capacity_entropic_bounds(
            StochasticChannel.constant(4), ErrorParams(eps=0.15, omega=0.075, delta=0.05)
        )
        assert report.capacity == 0.0
        assert abs(report.upper_witness_value) < 1e-12
        assert report.lower_estimate <= 0.0

    def test_domain_validation(self):
        with pytest.raises(ThermocapError):
            capacity_entropic_bounds(
                StochasticChannel.identity(2), ErrorParams(eps=0.3, omega=0.4, delta=0.1)
            )


class TestWorkSandwich:
    def test_all_fixtures_consistent(self):
        for name, ch in fixture_channels().items():
            report = capacity_work_bounds(ch, ErrorParams(eps=0.2, omega=0.1, delta=0.05))
            assert report.consistent, (name, report.verdict)

    def test_noisy_identity_four(self):
        # symmetric dim-4 channel with 0.95 fidelity
        mat = np.full((4, 4), 0.05 / 3) + (0.95 - 0.05 / 3) * np.eye(4)
        ch = StochasticChannel(mat)
        report = capacity_work_bounds(ch, ErrorParams(eps=0.2, omega=0.1, delta=0.05))
        assert report.consistent, report.verdict
        assert report.capacity == pytest.approx(2.0 * math.log(2.0))

    def test_identity2_brackets_ln2(self):
        report = capacity_work_bounds(
            StochasticChannel.identity(2), ErrorParams(eps=0.2, omega=0.1, delta=0.05)
        )
        assert report.capacity == pytest.approx(LN2)
        assert report.lower_estimate <= LN2 <= report.upper_witness_value

    def test_per_copy_gap_shrinks_on_tensor_powers(self):
        params = ErrorParams(eps=0.2, omega=0.1, delta=0.05)
        gaps = []
        for k in (1, 2):
            ch = tensor_power_channel(StochasticChannel.identity(2), k)
            report = capacity_work_bounds(ch, params)
            assert report.consistent
            gaps.append((report.upper_witness_value - report.lower_estimate) / k)
        assert gaps[1] < gaps[0]


class TestEquilibriumChain:
    def test_identity_chain(self):
        report = equilibrium_capacity_bounds(StochasticChannel.identity(4), 0.1, 0.25)
        assert report.consistent
        assert report.lower_estimate == report.capacity == 2.0

    def test_bsc_symmetric_codebook(self):
        report = equilibrium_capacity_bounds(StochasticChannel.binary_symmetric(0.1), 0.1, 0.1)
        assert report.consistent
        assert report.capacity == 1.0

    def test_constant_channel(self):
        report = equilibrium_capacity_bounds(StochasticChannel.constant(4), 0.1, 0.2)
        assert report.consistent
        assert report.capacity == 0.0

    def test_domain(self):
        with pytest.raises(ThermocapError):
            equilibrium_capacity_bounds(StochasticChannel.identity(2), 0.2, 0.25)


class TestLandauerScenario:
    def test_identity4_round_trip(self):
        report = landauer_scenario(StochasticChannel.identity(4), 0.01, 20_000, seed=0)
        assert report.bits == 2.0
        assert report.verdict == "consistent"
        assert report.empirical_success == 1.0
        assert abs(report.work_value - 2.0 * LN2) < 0.1
        assert report.max_message_distance == 0.0

    def test_constant_channel_rejected(self):
        with pytest.raises(NoFeasibleCodebookError):
            landauer_scenario(StochasticChannel.constant(4), 0.3, 1000)

    def test_noisy_channel_band(self):
        ch = StochasticChannel.binary_symmetric(0.05)
        report = landauer_scenario(ch, 0.1, 40_000, seed=1)
        assert report.bits == 1.0
        assert abs(report.empirical_success - report.exact_success) <= report.three_sigma + 1e-9
        # per-message distance of the composed channel is twice the flip rate
        assert report.max_message_distance == pytest.approx(0.1)

    def test_seeded_reproducibility(self):
        a = landauer_scenario(StochasticChannel.identity(3), 0.05, 5000, seed=7)
        b = landauer_scenario(StochasticChannel.identity(3), 0.05, 5000, seed=7)
        assert a.to_dict() == b.to_dict()


class TestSearchFamily:
    @pytest.mark.parametrize("ch", [
        *(random_channel(np.random.default_rng(5), d_in, d_out)
          for d_in, d_out in [(3, 3), (5, 4), (6, 9)]),
        StochasticChannel.identity(4),
        tensor_power_channel(StochasticChannel.binary_symmetric(0.1), 2),
        StochasticChannel(np.eye(3)[:, [0, 1, 2, 0]]),  # duplicate symbol: tied witnesses
    ])
    def test_best_codebook_per_size_matches_brute_force(self, ch):
        # reference: per-combination ML success, the first maximum wins
        expected = []
        for m in range(1, ch.dim_in + 1):
            best = None
            for combo in itertools.combinations(range(ch.dim_in), m):
                ps = float(ch.matrix[:, list(combo)].max(axis=1).sum() / m)
                if best is None or ps > best[0]:
                    best = (ps, combo)
            expected.append(best[1])
        assert [cb.inputs for cb in _best_codebooks_per_size(ch)] == expected
