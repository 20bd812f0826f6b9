"""Acceptance gate: every criterion at its stated tolerance.

Each test prints one pass/fail line.  Criterion 8's deviation tolerance is
known-red: the exact per-copy hypothesis-testing value at n=200, eps=0.01 is
0.060274 against the 0.118709 target (deviation 0.058436, cross-checked by
explicit tensor-power evaluation and an independent dense LP), so the 0.05
tolerance cannot be met by any correct implementation; it first holds near
n=350.  The assertion is kept at the stated tolerance anyway.
"""
import json
import math
import time

import numpy as np
import pytest

import thermocap.cli as cli
from thermocap import (
    Codebook,
    Distribution,
    ErrorParams,
    Hamiltonian,
    StochasticChannel,
    binary_entropy,
    capacity_entropic_bounds,
    capacity_work_bounds,
    classical_version,
    constrained_holevo,
    extractable_work,
    gibbs_deviation,
    hypothesis_testing_entropy,
    hypothesis_testing_entropy_iid_binary,
    landauer_scenario,
    maximally_correlated,
    min_positive_prob,
    min_relative_entropy,
    ml_decoder,
    one_shot_capacity,
    regularized_capacity_series,
    relative_entropy,
    shannon_capacity,
    smoothed_renyi0,
    success_probability,
    trace_distance,
    work_from_correlation,
)
from thermocap.core import LN2, JointDistribution
from thermocap.entropy import (
    _branch_and_bound_subset,
    _feasibility_threshold,
    _subset_value,
    dense_lp_oracle,
)

from conftest import random_channel, random_distribution


def _line(num, ok, detail):
    print(f"[criterion {num:2d}] {'PASS' if ok else 'FAIL'}  {detail}")
    assert ok, f"criterion {num}: {detail}"


def _fixture_channels():
    rng = np.random.default_rng(3)
    return {
        "identity2": StochasticChannel.identity(2),
        "identity4": StochasticChannel.identity(4),
        "bsc01": StochasticChannel.binary_symmetric(0.1),
        "bsc025": StochasticChannel.binary_symmetric(0.25),
        "constant4": StochasticChannel.constant(4),
        "random3": random_channel(rng, 3, 3),
    }


def test_criterion_1_entropic_oracle_equivalence():
    rng = np.random.default_rng(101)
    start = time.monotonic()
    for _ in range(500):
        dim = int(rng.integers(2, 9))
        p = random_distribution(rng, dim, allow_zeros=True)
        q = random_distribution(rng, dim, allow_zeros=True)
        eps = float(rng.uniform(1e-6, 0.45))
        enum = smoothed_renyi0(p, q, eps)
        bnb, _ = _branch_and_bound_subset(p.probs, q.probs, _feasibility_threshold(eps))
        assert _subset_value(q.probs, bnb) == enum.bits
        dh, _ = hypothesis_testing_entropy(p, q, eps)
        lp = dense_lp_oracle(p, q, eps)
        if math.isinf(dh) or math.isinf(lp):
            assert dh == lp
        else:
            assert abs(dh - lp) < 1e-9
    elapsed = time.monotonic() - start
    _line(1, elapsed < 30.0, f"500 pairs, both oracles agree, {elapsed:.1f}s < 30s")


def test_criterion_2_property_suite():
    rng = np.random.default_rng(202)
    checks = 0
    for _ in range(200):
        dim = int(rng.integers(2, 8))
        p = random_distribution(rng, dim, allow_zeros=True)
        q = random_distribution(rng, dim, allow_zeros=True)
        mu = min_positive_prob(p)

        # agreement with the min-relative entropy below the smallest mass
        eps = float(rng.uniform(0.05, 0.95)) * mu
        try:
            dmin = min_relative_entropy(p, q)
        except Exception:
            dmin = None
        if dmin is not None:
            assert abs(smoothed_renyi0(p, q, eps).bits - dmin) < 1e-9

        # insensitivity to the smoothing parameter in that window
        e2 = float(rng.uniform(0.05, 0.95)) * mu
        v1, v2 = smoothed_renyi0(p, q, eps).bits, smoothed_renyi0(p, q, e2).bits
        assert (v1 == v2) if math.isinf(v1) or math.isinf(v2) else abs(v1 - v2) < 1e-9

        # data processing under stochastic post-maps
        ch = random_channel(rng, dim, int(rng.integers(2, 8)))
        lp_, lq_ = ch.apply(p), ch.apply(q)
        eps_dp = float(rng.uniform(0.05, 0.95)) * min(mu, min_positive_prob(lp_))
        before = smoothed_renyi0(p, q, eps_dp).bits
        after = smoothed_renyi0(lp_, lq_, eps_dp).bits
        assert math.isinf(before) if math.isinf(after) else after <= before + 1e-9

        # smoothness under L1 perturbation of the first argument
        if np.all(p.probs > 0):
            eps_s = float(rng.uniform(0.1, 0.45))
            noise = rng.dirichlet(np.ones(dim))
            lam = min(0.5 * eps_s / max(trace_distance(p, Distribution(noise)), 1e-9), 1.0)
            p2 = Distribution((1 - lam) * p.probs + lam * noise)
            delta = trace_distance(p, p2)
            if 0.0 < delta < eps_s:
                mid = smoothed_renyi0(p2, q, eps_s).bits
                assert smoothed_renyi0(p, q, eps_s - delta).bits <= mid + 1e-9
                assert mid <= smoothed_renyi0(p, q, eps_s + delta).bits + 1e-9
                checks += 1

        # Lipschitz continuity in the second argument
        q2 = random_distribution(rng, dim, allow_zeros=True)
        eps_l = float(rng.uniform(0.05, 0.9))
        lhs = abs(
            2.0 ** (-smoothed_renyi0(p, q, eps_l).bits)
            - 2.0 ** (-smoothed_renyi0(p, q2, eps_l).bits)
        )
        assert lhs <= trace_distance(q, q2) + 1e-9
    _line(2, checks > 50, f"five property families on 200 seeded instances ({checks} sandwich hits)")


def test_criterion_3_capacity_oracle():
    for d in range(2, 9):
        assert one_shot_capacity(StochasticChannel.identity(d), 0.0).bits == math.log2(d)
    bsc = StochasticChannel.binary_symmetric(0.1)
    assert one_shot_capacity(bsc, 0.05).bits == 0.0
    assert one_shot_capacity(bsc, 0.15).bits == 1.0

    # every feasible codebook encountered keeps the uniform state nearly fixed
    import itertools

    for ch, eps in [(bsc, 0.05), (bsc, 0.15), (StochasticChannel.identity(4), 0.2)]:
        for m in range(1, ch.dim_in + 1):
            for combo in itertools.combinations(range(ch.dim_in), m):
                cb = Codebook(inputs=combo, decoder=ml_decoder(ch, combo))
                cv = classical_version(ch, cb)
                if success_probability(cv) >= 1.0 - eps - 1e-12:
                    assert gibbs_deviation(cv) <= 2.0 * eps + 1e-9
    _line(3, True, "identity/bsc oracles exact; deviation bound holds on every feasible codebook")


def test_criterion_4_entropic_sandwich():
    start = time.monotonic()
    for eps, omega, delta in [(0.15, 0.075, 0.05), (0.3, 0.15, 0.1)]:
        for name, ch in _fixture_channels().items():
            rep = capacity_entropic_bounds(ch, ErrorParams(eps=eps, omega=omega, delta=delta))
            assert rep.lower_estimate <= rep.capacity + 1e-6, (name, eps)
            assert rep.capacity <= rep.upper_witness_value + 1e-6, (name, eps)
            assert rep.consistent, (name, eps, rep.verdict)
    elapsed = time.monotonic() - start
    _line(4, elapsed < 120.0, f"two-sided chain on 6 fixtures x 2 parameter sets, {elapsed:.1f}s < 2min")


def test_criterion_5_extraction_bracket():
    rng = np.random.default_rng(42)
    worst_slack = 0.0
    for _ in range(50):
        dim = int(rng.integers(2, 6))
        eta = Distribution(rng.dirichlet(np.ones(dim)))
        h = Hamiltonian(rng.uniform(0.0, 2.0, size=dim))
        eps = float(rng.uniform(0.01, 1.0 - 1.0 / math.sqrt(2.0)))
        res = extractable_work(eta, h, eps, e_cut=50.0, k_steps=400)
        ideal, upper = res.bracket
        slack = max(ideal - res.value, 0.0)
        assert slack <= 0.05, (eta.probs, h.levels, eps, slack)
        assert res.value <= upper + 1e-6
        res2 = extractable_work(eta, h, eps, e_cut=50.0, k_steps=800)
        slack2 = max(ideal - res2.value, 0.0)
        assert slack2 <= slack + 1e-9, "doubling the step count increased the slack"
        worst_slack = max(worst_slack, slack)
    _line(5, True, f"50 seeded instances inside the bracket, worst slack {worst_slack:.4f} <= 0.05")


def test_criterion_6_work_from_correlation():
    res = work_from_correlation(maximally_correlated(4), eps=0.05)
    lo = 2.0 * LN2 - 0.1
    hi = 2.0 * LN2 + math.log(1.0 / 0.95) + 1e-6
    assert lo <= res.value <= hi, res.value

    rng = np.random.default_rng(66)
    for _ in range(5):
        p = random_distribution(rng, int(rng.integers(2, 4)))
        q = random_distribution(rng, int(rng.integers(2, 4)))
        prod = JointDistribution.from_outer(p, q)
        eps = 0.2
        out = work_from_correlation(prod, eps=eps)
        assert out.value <= math.log(1.0 / (1.0 - eps)) + 1e-6
    _line(6, True, f"correlated pairs give {res.value:.3f} in [{lo:.3f}, {hi:.3f}]; products stay below the slack")


def test_criterion_7_work_sandwich():
    params = ErrorParams(eps=0.2, omega=0.1, delta=0.05)
    for name, ch in _fixture_channels().items():
        rep = capacity_work_bounds(ch, params)
        assert rep.consistent, (name, rep.verdict)
        if name == "identity2":
            assert rep.lower_estimate <= LN2 <= rep.upper_witness_value
            assert rep.capacity == pytest.approx(LN2)
    _line(7, True, "work-transmission chain consistent on all fixtures; ln2 bracketed for identity2")


def test_criterion_8_stein_tolerance():
    # known-red: the exact value at n=200 deviates by 0.058436 (> 0.05); see
    # the module docstring.  The stated tolerance is asserted unchanged.
    p, q = Distribution([0.7, 0.3]), Distribution([0.5, 0.5])
    target = relative_entropy(p, q)
    dev200 = abs(hypothesis_testing_entropy_iid_binary(p, q, 0.01, 200) / 200 - target)
    _line(8, dev200 <= 0.05, f"deviation at n=200 is {dev200:.6f} (stated tolerance 0.05)")


def test_criterion_8_stein_improvement_and_runtime():
    p, q = Distribution([0.7, 0.3]), Distribution([0.5, 0.5])
    start = time.monotonic()
    target = relative_entropy(p, q)
    dev20 = abs(hypothesis_testing_entropy_iid_binary(p, q, 0.01, 20) / 20 - target)
    dev200 = abs(hypothesis_testing_entropy_iid_binary(p, q, 0.01, 200) / 200 - target)
    elapsed = time.monotonic() - start
    ok = dev200 < dev20 and elapsed < 5.0
    _line(8, ok, f"deviation shrinks {dev20:.4f} -> {dev200:.4f}, {elapsed:.2f}s < 5s")


def test_criterion_9_capacity_asymptotics():
    for flip in (0.05, 0.1, 0.25):
        got = shannon_capacity(StochasticChannel.binary_symmetric(flip)).bits
        assert abs(got - (1.0 - binary_entropy(flip))) < 1e-6

    eps = 0.1
    bsc = StochasticChannel.binary_symmetric(0.1)
    series = regularized_capacity_series(bsc, eps, k_max=3)
    chi = shannon_capacity(bsc).bits
    for k, v in series.points:
        assert v <= chi + binary_entropy(eps) / ((1.0 - eps) * k) + 1e-9

    res = constrained_holevo(bsc, 0.25)
    assert res.bits >= 1.0 - binary_entropy(0.1) - 1e-6
    _line(9, True, "closed-form capacities, converse envelope, and constrained witness all hold")


def test_criterion_10_landauer_scenario(tmp_path, capsys):
    report = landauer_scenario(StochasticChannel.identity(4), 0.01, 100_000, seed=0)
    assert abs(report.empirical_success - report.exact_success) <= report.three_sigma + 1e-12
    assert abs(report.work_value - 2.0 * LN2) <= 0.1

    channel_file = tmp_path / "identity4.json"
    channel_file.write_text(json.dumps(StochasticChannel.identity(4).to_dict()))
    argv = ["--seed", "0", "landauer", "--channel", str(channel_file),
            "--eps", "0.01", "--trials", "100000"]
    assert cli.main(argv) == 0
    out1 = capsys.readouterr().out
    assert cli.main(argv) == 0
    out2 = capsys.readouterr().out
    assert out1.encode() == out2.encode()
    _line(10, True, f"success in band, work {report.work_value:.3f} within 0.1 of 2ln2, byte-identical reruns")
