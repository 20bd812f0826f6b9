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
from thermocap.core import SearchSpaceTooLargeError, SupportViolationError, ThermocapError

from conftest import random_channel


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
        with pytest.raises(SupportViolationError):
            stein_series(p, Distribution([1.0, 0.0]), 0.1, 50)
        with pytest.raises(ThermocapError):
            stein_series(p, p, 0.1, 100_000)

    def test_csv_rows(self):
        p = Distribution([0.6, 0.4])
        series = stein_series(p, p, 0.1, 10)
        rows = series.to_csv_rows()
        assert rows[0] == ("n", "value", "target")
        assert len(rows) == len(series.points) + 1


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

    def test_bracket_width_certified(self, rng):
        for _ in range(10):
            ch = random_channel(rng, int(rng.integers(2, 5)), int(rng.integers(2, 5)))
            res = shannon_capacity(ch, tol=1e-9)
            assert res.bracket[1] - res.bracket[0] < 1e-9

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
            res = constrained_holevo(ch, 0.3, n_random=50)
            assert res.bits <= cap + 1e-9

    def test_nondecreasing_in_theta(self, rng):
        ch = random_channel(rng, 3, 3)
        values = [constrained_holevo(ch, th, n_random=50).bits for th in (0.05, 0.15, 0.3, 0.45)]
        assert all(b >= a - 1e-12 for a, b in zip(values, values[1:]))

    def test_enumeration_budget_raises_at_once(self):
        # 2^24 - 1 deterministic codebooks exceed the default budget
        with pytest.raises(SearchSpaceTooLargeError):
            constrained_holevo(StochasticChannel.identity(24), 0.25)

    @pytest.mark.parametrize("ch", [
        *(random_channel(np.random.default_rng(9), d_in, d_out)
          for d_in, d_out in [(3, 3), (4, 6), (6, 4)]),
        StochasticChannel.identity(3),
        tensor_power_channel(StochasticChannel.binary_symmetric(0.1), 2),
        StochasticChannel(np.eye(3)[:, [0, 1, 2, 0]]),  # duplicate symbol: tied witnesses
    ])
    def test_deterministic_witness_matches_reference_loop(self, ch):
        # reference: one ClassicalVersion per combination, and only a
        # strictly better value replaces the incumbent
        for theta in (0.05, 0.25, 0.45):
            best, witness = 0.0, None
            for m in range(1, ch.dim_in + 1):
                uniform = np.full(m, 1.0 / m)
                for combo in itertools.combinations(range(ch.dim_in), m):
                    cb = Codebook(inputs=combo, decoder=ml_decoder(ch, combo))
                    t = classical_version(ch, cb).composed.matrix
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
            res = constrained_holevo(ch, theta, n_random=0)
            assert res.bits == pytest.approx(best, abs=1e-12)
            if witness is None:
                assert res.witness == {"kind": "trivial", "message_count": 1}
            else:
                assert res.witness["kind"] == "deterministic"
                assert res.witness["inputs"] == witness[0]
                assert res.message_count == len(witness[0])
                assert res.witness["deviation"] == pytest.approx(witness[1], abs=1e-12)

    def test_matches_unconstrained_at_loose_theta(self, rng):
        # reported consistency: loose constraints recover the capacity
        # within search slack
        for _ in range(5):
            ch = random_channel(rng, 3, 3)
            cap = shannon_capacity(ch).bits
            loose = constrained_holevo(ch, 0.45, n_random=400).bits
            assert loose >= cap - 0.15


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

    def test_chi_series_alongside(self):
        series, chi_series = regularized_capacity_series(
            StochasticChannel.binary_symmetric(0.1), 0.1, k_max=2, theta=0.25
        )
        assert len(chi_series.points) == 2
        for (_, v), (_, c) in zip(series.points, chi_series.points):
            assert c <= series.target + 1e-6

    def test_strictly_increasing_n_guard(self):
        with pytest.raises(ThermocapError):
            ConvergenceSeries(points=((2, 1.0), (2, 1.0)), target=0.0, target_label="x")
