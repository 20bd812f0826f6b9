import itertools
import math

import numpy as np
import pytest

from thermocap import (
    Codebook,
    ConvergenceSeries,
    Distribution,
    StochasticChannel,
    binary_entropy,
    classical_version,
    constrained_holevo,
    ml_decoder,
    regularized_capacity_series,
    relative_entropy,
    shannon_capacity,
    stein_series,
    tensor_power_channel,
)
from thermocap import asymptotics, coding
from thermocap.asymptotics import _flat_dirichlet, _mutual_information_bits
from thermocap.coding import _codebook_batches, _uniform_deviation
from thermocap.core import (
    DimensionMismatchError,
    SupportViolationError,
    ThermocapError,
)

from conftest import random_channel


def chi_bar(ch, theta, pairs, **kwargs):
    """constrained_holevo with RANDOM_PAIRS = pairs for this one call."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(asymptotics, "RANDOM_PAIRS", pairs)
        return constrained_holevo(ch, theta, **kwargs)


def reference_constrained_holevo(ch, theta, n_random, seed):
    """The per-pair random search: one pair of rng.dirichlet calls and one
    scoring call per pair, after the deterministic witness; only a strictly
    better value replaces the incumbent."""
    res = chi_bar(ch, theta, 0)
    best, witness = res.bits, res.witness
    rng = np.random.default_rng(seed)
    cap = max(ch.dim_in, ch.dim_out)
    for _ in range(n_random):
        m = int(rng.integers(1, cap + 1))
        k = rng.dirichlet(np.ones(ch.dim_in), size=m).T
        l = rng.dirichlet(np.ones(m), size=ch.dim_out).T
        t = (l @ ch.matrix @ k)[None]
        dev = float(_uniform_deviation(t)[0])
        if dev <= 2.0 * theta + 1e-12:
            value = _mutual_information_bits(t)[0]
            if value > best:
                best = float(value)
                witness = {"kind": "random", "message_count": m, "deviation": dev}
    return best, witness


class TestSteinSeries:
    def test_identical_laws_shrink_to_zero(self):
        p = Distribution([0.4, 0.6])
        series = stein_series(p, p, 0.05, 100)
        assert series.target == 0.0
        # exact per-copy value is -log2(1-eps)/n
        for n, v in series.points:
            assert abs(v - (-math.log2(0.95) / n)) < 1e-9

    def test_convergence_toward_relative_entropy(self):
        p, q = Distribution([0.7, 0.3]), Distribution([0.5, 0.5])
        series = stein_series(p, q, 0.01, 200)
        assert series.target == pytest.approx(relative_entropy(p, q))
        devs = [abs(v - series.target) for _, v in series.points]
        assert devs[-1] < devs[0]

    def test_target_independent_of_eps(self):
        p, q = Distribution([0.7, 0.3]), Distribution([0.5, 0.5])
        s1 = stein_series(p, q, 0.01, 50)
        s2 = stein_series(p, q, 0.1, 50)
        assert s1.target == s2.target

    def test_converse_envelope_pointwise(self):
        # per-copy values stay below (S + H_b(eps)) / (1 - eps)
        p, q = Distribution([0.7, 0.3]), Distribution([0.5, 0.5])
        eps = 0.01
        series = stein_series(p, q, eps, 200)
        cap = (series.target + binary_entropy(eps)) / (1.0 - eps)
        for _, v in series.points:
            assert v <= cap + 1e-9

    def test_support_and_size_checks(self):
        p = Distribution([0.5, 0.5])
        with pytest.raises(DimensionMismatchError, match="binary"):
            stein_series(Distribution([0.5, 0.25, 0.25]), p, 0.1, 50)
        with pytest.raises(SupportViolationError):
            stein_series(p, Distribution([1.0, 0.0]), 0.1, 50)
        for n_max in (0, 100_000):
            with pytest.raises(ThermocapError):
                stein_series(p, p, 0.1, n_max)

    @pytest.mark.parametrize("n_max", [2.5, 50.0, True, "50"])
    def test_n_max_must_be_an_integer(self, n_max):
        # 2.5 used to run silently to n = 2
        p, q = Distribution([0.7, 0.3]), Distribution([0.5, 0.5])
        with pytest.raises(ThermocapError, match="n_max must be an integer"):
            stein_series(p, q, 0.1, n_max)

    def test_numpy_integer_n_max(self):
        p, q = Distribution([0.7, 0.3]), Distribution([0.5, 0.5])
        assert stein_series(p, q, 0.1, np.int64(50)) == stein_series(p, q, 0.1, 50)

    @pytest.mark.parametrize("n_points", [0, -1, 2.5, 24.0, True, "24"])
    def test_bad_n_points_rejected(self, n_points):
        # the grid size is asymptotics.STEIN_POINTS, no longer an argument:
        # every value is refused, by position or by name
        p, q = Distribution([0.7, 0.3]), Distribution([0.5, 0.5])
        with pytest.raises(TypeError):
            stein_series(p, q, 0.1, 50, n_points)
        with pytest.raises(TypeError, match="n_points"):
            stein_series(p, q, 0.1, 50, n_points=n_points)

    def test_n_points_limits_and_numpy_integers_accepted(self, monkeypatch):
        p, q = Distribution([0.7, 0.3]), Distribution([0.5, 0.5])
        monkeypatch.setattr(asymptotics, "STEIN_POINTS", 1)
        assert [n for n, _ in stein_series(p, q, 0.1, 50).points] == [1]
        monkeypatch.setattr(asymptotics, "STEIN_POINTS", 5)
        five = stein_series(p, q, 0.1, 50)
        monkeypatch.setattr(asymptotics, "STEIN_POINTS", np.int32(5))
        assert stein_series(p, q, 0.1, 50) == five
        # more points than copy numbers: the grid keeps each n once
        monkeypatch.setattr(asymptotics, "STEIN_POINTS", 40)
        assert [n for n, _ in stein_series(p, q, 0.1, 3).points] == [1, 2, 3]

    @pytest.mark.parametrize("n_max,n_points", [
        (1, 1), (1, 24), (2, 5), (7, 40), (50, 3), (200, 24), (200, 300), (10_000, 24),
    ])
    def test_grid_is_the_sorted_distinct_rounded_log_grid(self, monkeypatch, n_max, n_points):
        p, q = Distribution([0.7, 0.3]), Distribution([0.5, 0.5])
        monkeypatch.setattr(asymptotics, "STEIN_POINTS", n_points)
        raw = np.round(np.logspace(0.0, math.log10(n_max), n_points)).astype(int)
        assert [n for n, _ in stein_series(p, q, 0.1, n_max).points] \
            == sorted(set(raw.tolist()))

    def test_series_rejects_a_grid_that_is_not_strictly_increasing(self):
        for ns in ((1, 1), (2, 1)):
            with pytest.raises(ThermocapError, match="strictly increasing"):
                ConvergenceSeries(points=tuple((n, 0.0) for n in ns), target=0.0,
                                  target_label="")

    @pytest.mark.parametrize("eps", [0.0, 1.0, -0.5, math.nan])
    def test_eps_checked_once_before_any_point(self, eps):
        p, q = Distribution([0.7, 0.3]), Distribution([0.5, 0.5])
        with pytest.raises(ThermocapError, match="eps must lie in"):
            stein_series(p, q, eps, 50)


class TestShannonCapacity:
    def test_identity(self):
        for d in (2, 3, 8):
            res = shannon_capacity(StochasticChannel.identity(d))
            assert abs(res.bits - math.log2(d)) < 1e-9

    def test_constant(self):
        assert shannon_capacity(StochasticChannel.constant(3)).bits == 0.0

    @pytest.mark.parametrize("flip", [0.05, 0.1, 0.25])
    def test_bsc_closed_form(self, flip):
        res = shannon_capacity(StochasticChannel.binary_symmetric(flip))
        assert abs(res.bits - (1.0 - binary_entropy(flip))) < 1e-6

    def test_bracket_width_certified(self, rng, monkeypatch):
        for tol in (1e-9, 1e-4):
            monkeypatch.setattr(asymptotics, "CAPACITY_TOL", tol)
            for _ in range(10):
                ch = random_channel(rng, int(rng.integers(2, 5)), int(rng.integers(2, 5)))
                res = shannon_capacity(ch)
                assert res.bracket[1] - res.bracket[0] < tol

    def test_iteration_budget_returns_the_last_bracket_open(self, monkeypatch):
        # a Z channel: the uniform input is not optimal, so the bracket
        # closes only after some steps
        ch = StochasticChannel([[1.0, 0.4], [0.0, 0.6]])
        closed = shannon_capacity(ch)
        assert closed.exact and closed.iterations > 2
        monkeypatch.setattr(asymptotics, "ITERATION_BUDGET", 2)
        res = shannon_capacity(ch)
        lower, upper = res.bracket
        assert not res.exact and res.iterations == 2
        assert 0.0 < lower < upper and upper - lower >= asymptotics.CAPACITY_TOL
        assert res.bits == lower < closed.bits
        # no step at all: the trivial bracket [0, log2 min(dim_in, dim_out)]
        monkeypatch.setattr(asymptotics, "ITERATION_BUDGET", 0)
        res = shannon_capacity(ch)
        assert res.bracket == (0.0, 1.0)
        assert not res.exact and res.iterations == 0 and res.bits == 0.0
        # a budget of exactly the steps needed still closes, with the same bits
        monkeypatch.setattr(asymptotics, "ITERATION_BUDGET", closed.iterations)
        res = shannon_capacity(ch)
        assert (res.bits, res.iterations, res.bracket, res.exact) == (
            closed.bits, closed.iterations, closed.bracket, True)
        assert res.optimal_input.probs.tobytes() == closed.optimal_input.probs.tobytes()

    def test_degraded_channel_never_gains(self, rng):
        for _ in range(10):
            ch = random_channel(rng, 3, 3)
            post = random_channel(rng, 3, 3)
            degraded = StochasticChannel(post.matrix @ ch.matrix)
            assert shannon_capacity(degraded).bits <= shannon_capacity(ch).bits + 1e-7


class TestConstrainedHolevo:
    def test_identity_attains_log_dim(self):
        for d in (2, 4):
            res = constrained_holevo(StochasticChannel.identity(d), 0.25)
            assert res.bits == pytest.approx(math.log2(d))

    def test_bsc_symmetric_witness(self):
        res = constrained_holevo(StochasticChannel.binary_symmetric(0.1), 0.25)
        assert res.bits >= 1.0 - binary_entropy(0.1) - 1e-6

    def test_never_exceeds_capacity(self, rng):
        for _ in range(8):
            ch = random_channel(rng, 3, 3)
            cap = shannon_capacity(ch).bits
            res = chi_bar(ch, 0.3, 50)
            assert res.bits <= cap + 1e-9

    def test_nondecreasing_in_theta(self, rng):
        ch = random_channel(rng, 3, 3)
        values = [chi_bar(ch, th, 50).bits for th in (0.05, 0.15, 0.3, 0.45)]
        assert all(b >= a - 1e-12 for a, b in zip(values, values[1:]))

    @pytest.mark.parametrize("max_messages", [0, -1])
    def test_max_messages_below_one_rejected(self, max_messages):
        with pytest.raises(ThermocapError, match="max_messages"):
            constrained_holevo(StochasticChannel.binary_symmetric(0.1), 0.25,
                               max_messages=max_messages)

    @pytest.mark.parametrize("max_messages", [2.5, 2.0, True])
    def test_non_integral_max_messages_rejected(self, max_messages):
        with pytest.raises(ThermocapError, match="max_messages"):
            constrained_holevo(StochasticChannel.binary_symmetric(0.1), 0.25,
                               max_messages=max_messages)

    def test_enumeration_stops_at_the_budget(self, monkeypatch):
        # identity(6) has 6 + 15 + 20 codebooks of sizes 1..3: at a budget of
        # 41 the walk scores those alone, answers, and names where it stopped
        ch = StochasticChannel.identity(6)
        full = constrained_holevo(ch, 0.25)
        assert full.bits == math.log2(6) and "largest_size_scored" not in full.witness
        monkeypatch.setattr(coding, "CODEBOOK_BUDGET", 41)
        res = constrained_holevo(ch, 0.25)
        assert math.log2(3) <= res.bits < full.bits
        assert res.witness["largest_size_scored"] == 3

    @pytest.mark.parametrize("ch", [
        *(random_channel(np.random.default_rng(9), d_in, d_out)
          for d_in, d_out in [(3, 3), (4, 6), (6, 4)]),
        StochasticChannel.identity(3),
        tensor_power_channel(StochasticChannel.binary_symmetric(0.1), 2),
        StochasticChannel(np.eye(3)[:, [0, 1, 2, 0]]),  # duplicate symbol: tied witnesses
    ])
    def test_deterministic_witness_matches_reference_loop(self, ch):
        # reference: one classical version per combination, and only a
        # strictly better value replaces the incumbent
        for theta in (0.05, 0.25, 0.45):
            best, witness = 0.0, None
            for m in range(1, ch.dim_in + 1):
                uniform = np.full(m, 1.0 / m)
                for combo in itertools.combinations(range(ch.dim_in), m):
                    cb = Codebook(inputs=combo, decoder=ml_decoder(ch, combo))
                    t = classical_version(ch, cb).matrix
                    deviation = float(np.abs(t @ uniform - uniform).sum())
                    if deviation > 2.0 * theta + 1e-12:
                        continue
                    out = np.broadcast_to(t.mean(axis=1)[:, None], t.shape)
                    terms = np.zeros_like(t)
                    mask = t > 0.0
                    terms[mask] = t[mask] * np.log2(t[mask] / out[mask])
                    value = float(terms.sum(axis=0).sum() / m)
                    if value > best:
                        best, witness = value, (list(combo), deviation)
            res = chi_bar(ch, theta, 0)
            assert res.bits == pytest.approx(best, abs=1e-12)
            if witness is None:
                assert res.witness == {"kind": "trivial", "message_count": 1}
            else:
                assert res.witness["kind"] == "deterministic"
                assert res.witness["inputs"] == witness[0]
                assert res.message_count == len(witness[0])
                assert res.witness["deviation"] == pytest.approx(witness[1], abs=1e-12)

    @pytest.mark.parametrize("n_random", [2.5, -3, True, "3"])
    def test_bad_n_random_rejected(self, n_random):
        # the draw count is asymptotics.RANDOM_PAIRS, no longer an argument
        with pytest.raises(TypeError, match="n_random"):
            constrained_holevo(StochasticChannel.binary_symmetric(0.1), 0.25,
                               n_random=n_random)

    @pytest.mark.parametrize("seed", [0, 5, 7919])
    @pytest.mark.parametrize("ch, random_wins", [
        # theta = 0.05 leaves the random pairs to win; at (2, 5) with M = 3
        *((random_channel(np.random.default_rng(11), d_in, d_out), True)
          for d_in, d_out in [(3, 3), (2, 5), (5, 3)]),
        (StochasticChannel.identity(3), False),  # no random pair beats log2(3)
        (tensor_power_channel(StochasticChannel.binary_symmetric(0.1), 2), False),
    ])
    def test_random_pairs_match_reference_loop(self, ch, random_wins, seed):
        kinds = set()
        for theta in (0.05, 0.25, 0.45):
            for n_random in (0, 1, 200):
                res = chi_bar(ch, theta, n_random, seed=seed)
                best, witness = reference_constrained_holevo(ch, theta, n_random, seed)
                assert res.bits == best
                assert res.witness == witness
                assert res.message_count == witness["message_count"]
                kinds.add(witness["kind"])
        assert ("random" in kinds) == random_wins

    def test_random_pairs_raise_the_estimate(self):
        # at theta = 0.1 on three inputs the default draws beat every
        # deterministic codebook, so the estimate needs them
        ch = random_channel(np.random.default_rng(11), 3, 3)
        res = constrained_holevo(ch, 0.1)
        assert res.witness["kind"] == "random"
        assert res.bits > chi_bar(ch, 0.1, 0).bits + 0.01

    def test_tied_random_pairs_keep_the_incumbent(self):
        # with one message every pair scores exactly 0, as the trivial witness does
        res = chi_bar(random_channel(np.random.default_rng(4), 3, 3), 0.25, 50,
                      max_messages=1)
        assert res.bits == 0.0
        assert res.witness == {"kind": "trivial", "message_count": 1}

    def test_one_scoring_call_per_batch(self, monkeypatch):
        # one call per deterministic batch and per M drawn (at most 4 of
        # them); a per-pair scoring loop would make 200 more
        ch = random_channel(np.random.default_rng(3), 3, 4)
        calls = []

        def counted(t):
            calls.append(t.shape)
            return _mutual_information_bits(t)

        monkeypatch.setattr(asymptotics, "_mutual_information_bits", counted)
        constrained_holevo(ch, 0.25)
        deterministic = sum(1 for _ in _codebook_batches(ch, range(1, ch.dim_in + 1)))
        assert len(calls) <= deterministic + max(ch.dim_in, ch.dim_out)

    def test_matches_unconstrained_at_loose_theta(self, rng):
        # reported consistency: loose constraints recover the capacity
        # within search slack
        for _ in range(5):
            ch = random_channel(rng, 3, 3)
            cap = shannon_capacity(ch).bits
            loose = chi_bar(ch, 0.45, 400).bits
            assert loose >= cap - 0.15


@pytest.mark.parametrize("seed", [0, 1, 7919])
def test_flat_dirichlet_matches_numpy(seed):
    # k >= 9 rows tell the running sum numpy uses from a pairwise sum
    ours, theirs = np.random.default_rng(seed), np.random.default_rng(seed)
    for k in range(1, 21):
        for n in range(1, 21):
            assert ours.integers(1, 21) == theirs.integers(1, 21)
            got = _flat_dirichlet(ours.standard_exponential(n * k).reshape(n, k))
            want = theirs.dirichlet(np.ones(k), size=n)
            assert got.tobytes() == want.tobytes()
            assert ours.random() == theirs.random()


class TestRegularizedSeries:
    def test_identity_flat(self):
        series = regularized_capacity_series(StochasticChannel.identity(2), 0.1, k_max=3)
        assert [v for _, v in series.points] == [1.0, 1.0, 1.0]
        assert series.target == pytest.approx(1.0)

    def test_constant_flat_zero(self):
        series = regularized_capacity_series(StochasticChannel.constant(2), 0.1, k_max=3)
        assert [v for _, v in series.points] == [0.0, 0.0, 0.0]

    def test_bsc_envelope(self):
        eps = 0.1
        series = regularized_capacity_series(StochasticChannel.binary_symmetric(0.1), eps, k_max=3)
        chi = shannon_capacity(StochasticChannel.binary_symmetric(0.1)).bits
        for k, v in series.points:
            envelope = chi + binary_entropy(eps) / ((1.0 - eps) * k)
            assert v <= envelope + 1e-9
        assert series.labels == ("exact", "exact", "exact")

    def test_exhausted_search_is_a_lower_bracket(self, monkeypatch):
        # BSC(0.1)^k at eps 0.2 takes 3, 5 and 25 nodes: a budget of 12 stops
        # only k = 3, whose greedy point has the exact M = 4 but no certificate
        ch = StochasticChannel.binary_symmetric(0.1)
        exact = regularized_capacity_series(ch, 0.2, k_max=3)
        assert exact.labels == ("exact", "exact", "exact")
        monkeypatch.setattr(coding, "NODE_BUDGET", 12)
        series = regularized_capacity_series(ch, 0.2, k_max=3)
        assert series.labels == ("exact", "exact", "lower_bracket")
        assert series.points[:2] == exact.points[:2]
        assert series.points[2][1] <= exact.points[2][1]
        # the capacity series takes no seed of its own: seed only moves chi-bar
        assert regularized_capacity_series(ch, 0.2, k_max=3, seed=9) == series

    @pytest.mark.parametrize("eps, theta, match", [
        (1.5, None, "eps must lie in"), (-0.1, None, "eps must lie in"),
        (0.1, 0.7, "need 0 < theta < 1/2"), (0.1, 0.0, "need 0 < theta < 1/2"),
    ])
    def test_bad_eps_or_theta_rejected_before_any_search(self, monkeypatch, eps, theta, match):
        # eps = 1.5 once ran Blahut-Arimoto for seconds before the eps error
        def no_search(*args, **kwargs):
            raise AssertionError("searched before checking the arguments")

        monkeypatch.setattr(asymptotics, "shannon_capacity", no_search)
        monkeypatch.setattr(asymptotics, "one_shot_capacity", no_search)
        with pytest.raises(ThermocapError, match=match):
            regularized_capacity_series(StochasticChannel.identity(2), eps, theta=theta)

    def test_chi_series_alongside(self):
        series, chi_series = regularized_capacity_series(
            StochasticChannel.binary_symmetric(0.1), 0.1, k_max=2, theta=0.25
        )
        assert len(chi_series.points) == 2
        for (_, v), (_, c) in zip(series.points, chi_series.points):
            assert c <= series.target + 1e-6
        assert "target_bracket" not in series.to_dict()

    def test_open_target_bracket_rides_on_both_series(self, monkeypatch):
        monkeypatch.setattr(asymptotics, "ITERATION_BUDGET", 2)
        ch = StochasticChannel([[1.0, 0.4], [0.0, 0.6]])
        cap = shannon_capacity(ch)
        assert not cap.exact
        for series in regularized_capacity_series(ch, 0.1, k_max=1, theta=0.25):
            assert (series.target, series.target_bracket) == (cap.bits, cap.bracket)
            assert series.to_dict()["target_bracket"] == list(cap.bracket)

    @pytest.mark.parametrize("k_max", [0, -1, 2.5, 2.0, True, "2", None])
    def test_bad_copy_count_rejected(self, k_max):
        # 2.5 raised a bare TypeError and True ran as one copy
        with pytest.raises(ThermocapError, match="k_max must be an integer >= 1"):
            regularized_capacity_series(StochasticChannel.identity(2), 0.1, k_max=k_max)

    def test_copy_count_limits(self):
        with pytest.raises(ThermocapError, match="k_max must lie in 1..3"):
            regularized_capacity_series(StochasticChannel.identity(2), 0.1, k_max=4)
        series = regularized_capacity_series(StochasticChannel.identity(2), 0.1, k_max=np.int64(2))
        assert series == regularized_capacity_series(StochasticChannel.identity(2), 0.1, k_max=2)

    def test_strictly_increasing_n_guard(self):
        with pytest.raises(ThermocapError):
            ConvergenceSeries(points=((2, 1.0), (2, 1.0)), target=0.0, target_label="x")
