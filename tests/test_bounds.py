import itertools
import math

import numpy as np
import pytest

from thermocap import (
    ErrorParams,
    StochasticChannel,
    capacity_entropic_bounds,
    capacity_work_bounds,
    constrained_holevo,
    equilibrium_capacity_bounds,
    error_terms,
    landauer_scenario,
    one_shot_capacity,
    regularized_capacity_series,
    tensor_power_channel,
    theta_equilibrium_capacity,
)
from thermocap import bounds, coding
from thermocap.bounds import _best_codebooks_per_size
from thermocap.core import (
    LN2,
    NoFeasibleCodebookError,
    SearchSpaceTooLargeError,
    ThermocapError,
)

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

    def test_one_capacity_search_per_call(self, monkeypatch):
        calls = []
        search = coding._search_exact

        def counting(*args):
            calls.append(args)
            return search(*args)

        monkeypatch.setattr(coding, "_search_exact", counting)
        ch = random_channel(np.random.default_rng(8), 5, 5)
        report = equilibrium_capacity_bounds(ch, 0.1, 0.2)
        assert len(calls) == 1
        assert report.lower_estimate == report.capacity == one_shot_capacity(ch, 0.1).bits


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

    @pytest.mark.parametrize("trials", [1, 0, -4, 20.5, 2000.0, True, "2000"])
    def test_bad_trials_rejected(self, trials):
        with pytest.raises(ThermocapError, match="trials must be an integer >= 2"):
            landauer_scenario(StochasticChannel.identity(3), 0.05, trials)

    def test_numpy_integer_trials_accepted(self):
        ch = StochasticChannel.identity(3)
        got = landauer_scenario(ch, 0.05, np.int64(2000), seed=7).to_dict()
        assert got == landauer_scenario(ch, 0.05, 2000, seed=7).to_dict()
        assert type(got["trials"]) is int


THM2 = ErrorParams(eps=0.15, omega=0.075, delta=0.05)
THM4 = ErrorParams(eps=0.2, omega=0.1, delta=0.05)

#: every public function that takes a seed, called on a small input
SEEDED = {
    "capacity_entropic_bounds": lambda seed: capacity_entropic_bounds(
        StochasticChannel.identity(2), THM2, seed=seed).to_dict(),
    "capacity_work_bounds": lambda seed: capacity_work_bounds(
        StochasticChannel.identity(2), THM4, seed=seed).to_dict(),
    "landauer_scenario": lambda seed: landauer_scenario(
        StochasticChannel.identity(2), 0.05, 200, seed=seed).to_dict(),
    "constrained_holevo": lambda seed: constrained_holevo(
        StochasticChannel.identity(2), 0.25, seed=seed),
    "regularized_capacity_series": lambda seed: regularized_capacity_series(
        StochasticChannel.binary_symmetric(0.1), 0.1, k_max=1, theta=0.25, seed=seed),
}


class TestNodeBudget:
    # every checker reports a capacity with no bracket field, so a capacity
    # search that runs out of nodes is an error that names the budget
    @pytest.mark.parametrize("check", [
        lambda ch: capacity_entropic_bounds(ch, THM2),
        lambda ch: capacity_work_bounds(ch, THM4),
        lambda ch: equilibrium_capacity_bounds(ch, 0.1, 0.1),
        lambda ch: landauer_scenario(ch, 0.1, 200),
    ], ids=["thm2", "thm4", "prop2", "landauer"])
    def test_exhausted_search_raises(self, monkeypatch, check):
        ch = StochasticChannel.identity(3)
        check(ch)
        monkeypatch.setattr(coding, "NODE_BUDGET", 3)
        with pytest.raises(SearchSpaceTooLargeError, match="NODE_BUDGET = 3 nodes"):
            check(ch)


#: the capacity searches, which lost their seed with the random codebook sampler
UNSEEDED = {
    "one_shot_capacity": lambda seed: one_shot_capacity(
        StochasticChannel.identity(3), 0.1, seed=seed),
    "theta_equilibrium_capacity": lambda seed: theta_equilibrium_capacity(
        StochasticChannel.identity(3), 0.1, 0.2, seed=seed),
}


class TestSeedValidation:
    # a seed of -1 raised numpy's bare ValueError, 2.5 a TypeError; the
    # capacity searches now reject every seed
    @pytest.mark.parametrize("seed", [-1, 2.5, True, "3"])
    @pytest.mark.parametrize("name", sorted(SEEDED) + sorted(UNSEEDED))
    def test_bad_seed_rejected(self, name, seed):
        if name in UNSEEDED:
            with pytest.raises(TypeError, match="unexpected keyword argument 'seed'"):
                UNSEEDED[name](seed)
            return
        with pytest.raises(ThermocapError, match="seed must be an integer >= 0"):
            SEEDED[name](seed)

    @pytest.mark.parametrize("name", sorted(SEEDED))
    def test_numpy_integer_seed_accepted(self, name):
        assert SEEDED[name](np.int64(7)) == SEEDED[name](7)

    def test_landauer_echoes_a_python_int(self):
        assert type(SEEDED["landauer_scenario"](np.int64(7))["seed"]) is int


def lower_estimate(checker, ch, params, draws):
    """The checker's lower estimate with RANDOM_INPUTS = draws for this one call."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(bounds, "RANDOM_INPUTS", draws)
        return checker(ch, params).lower_estimate


class TestNRandomValidation:
    # the draw count is bounds.RANDOM_INPUTS, no longer an argument
    @pytest.mark.parametrize("n_random", [2.5, -3, True])
    @pytest.mark.parametrize("checker, params", [(capacity_entropic_bounds, THM2),
                                                 (capacity_work_bounds, THM4)])
    def test_bad_n_random_rejected(self, checker, params, n_random):
        with pytest.raises(TypeError, match="n_random"):
            checker(StochasticChannel.identity(2), params, n_random=n_random)

    @pytest.mark.parametrize("checker, params", [(capacity_entropic_bounds, THM2),
                                                 (capacity_work_bounds, THM4)])
    def test_numpy_integer_n_random_accepted(self, monkeypatch, checker, params):
        ch = StochasticChannel.identity(2)
        monkeypatch.setattr(bounds, "RANDOM_INPUTS", 3)
        want = checker(ch, params).to_dict()
        monkeypatch.setattr(bounds, "RANDOM_INPUTS", np.int64(3))
        assert checker(ch, params).to_dict() == want

    @pytest.mark.parametrize("checker, params, ch", [
        # seeded draws win on a three-input random channel for thm2 and on a
        # two-input noisy channel for thm4, so the estimates need them
        (capacity_entropic_bounds, THM2, random_channel(np.random.default_rng(4), 3, 3)),
        (capacity_work_bounds, THM4, StochasticChannel.binary_symmetric(0.25)),
    ])
    def test_random_draws_raise_the_lower_estimate(self, checker, params, ch):
        assert lower_estimate(checker, ch, params, bounds.RANDOM_INPUTS) \
            > lower_estimate(checker, ch, params, 0) + 0.05

    @pytest.mark.parametrize("n_random", [0, 3, 4, 9])
    def test_work_checker_draws_at_most_n_random_inputs(self, monkeypatch, n_random):
        # RANDOM_INPUTS // dim_in Dirichlet draws per codebook, one codebook
        # per size: 0 and 3 draw none on four inputs
        monkeypatch.setattr(bounds, "RANDOM_INPUTS", n_random)
        joints = []
        output_joint = bounds._output_joint

        def recording(t, eta):
            joints.append(eta)
            return output_joint(t, eta)

        monkeypatch.setattr(bounds, "_output_joint", recording)
        capacity_work_bounds(StochasticChannel.identity(4), THM4)
        # beside the draws: the uniform input of each of the four codebooks
        # and of the upper witness
        drawn = len(joints) - 4 - 1
        assert drawn == 4 * (n_random // 4) <= n_random


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

    @pytest.mark.parametrize("check", [
        lambda ch: capacity_entropic_bounds(ch, THM2),
        lambda ch: capacity_work_bounds(ch, THM4),
    ], ids=["thm2", "thm4"])
    def test_walk_stops_at_the_codebook_budget(self, monkeypatch, check):
        # identity(6) has 6 + 15 + 20 + 15 codebooks of sizes 1..4: at a budget
        # of 56 the lower search scores those alone, and the checker answers
        ch = StochasticChannel.identity(6)
        full = check(ch)
        assert "largest_size_scored" not in full.witnesses
        monkeypatch.setattr(coding, "CODEBOOK_BUDGET", 56)
        assert [cb.message_count for cb in _best_codebooks_per_size(ch)] == [1, 2, 3, 4]
        report = check(ch)
        assert report.witnesses["largest_size_scored"] == 4
        assert report.verdict == "consistent"
        assert report.capacity == full.capacity
        assert report.lower_estimate <= full.lower_estimate
