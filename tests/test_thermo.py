import math

import numpy as np
import pytest

from thermocap import (
    Distribution,
    Hamiltonian,
    JointDistribution,
    LevelTransformation,
    Thermalisation,
    WorkProcess,
    eps_delta_work,
    extractable_work,
    extraction_protocol,
    gibbs_state,
    locally_thermal_hamiltonians,
    maximally_correlated,
    smoothed_renyi0,
    work_distribution,
    work_from_correlation,
)
from thermocap import thermo
from thermocap.core import LN2, AtomBudgetExceededError, ThermocapError, ZeroMarginalError
from thermocap.thermo import WorkDistribution, restrict_support, shortest_confidence_interval

from conftest import random_distribution


def _quench(levels):
    return LevelTransformation(Hamiltonian(levels))


def _random_quench_process():
    """Twelve seeded random quenches on three levels, each thermalised: far
    more work atoms than small budgets admit."""
    rng = np.random.default_rng(5)
    steps = []
    for _ in range(12):
        steps += [_quench(rng.normal(size=3)), Thermalisation()]
    steps += [_quench([0.0, 0.0, 0.0])]
    proc = WorkProcess(initial=Hamiltonian([0.0, 0.0, 0.0]), steps=tuple(steps))
    return proc, Distribution([0.5, 0.3, 0.2])


class TestWorkDistribution:
    def test_single_quench_deterministic(self):
        h = Hamiltonian([0.0, 0.0])
        proc = WorkProcess(initial=h, steps=(_quench([3.0, 0.0]), _quench([0.0, 0.0])))
        wd = work_distribution(proc, Distribution([1.0, 0.0]))
        # state sits in level 0 throughout; the two quenches cancel exactly
        assert wd.values.tolist() == [0.0]

    def test_quench_up_only_point_mass(self):
        h = Hamiltonian([0.0, 0.0])
        proc = WorkProcess(
            initial=h,
            steps=(_quench([3.0, 0.0]), Thermalisation(), _quench([0.0, 0.0])),
        )
        wd = work_distribution(proc, Distribution([1.0, 0.0]))
        assert wd.mode == "exact"
        # first increment: +3 with prob 1 (level 0 occupied); second: -3 with
        # the quenched-state Gibbs weight of level 0
        g = gibbs_state(Hamiltonian([3.0, 0.0])).probs
        expected = {0.0: g[0], 3.0: g[1]}
        got = dict(zip(wd.values.tolist(), wd.probs.tolist()))
        assert set(got) == set(expected)
        for k in expected:
            assert abs(got[k] - expected[k]) < 1e-12

    def test_cancelling_quenches_zero_work(self, rng):
        # transformations composing to the identity with no thermalisation
        # in between cost exactly nothing on every branch
        h = Hamiltonian([0.0, 1.0, 2.0])
        proc = WorkProcess(
            initial=h,
            steps=(
                _quench([5.0, 1.0, 0.5]),
                _quench([2.0, 2.0, 2.0]),
                _quench([0.0, 1.0, 2.0]),
            ),
        )
        wd = work_distribution(proc, random_distribution(rng, 3))
        assert wd.values.tolist() == [0.0]
        assert wd.probs.tolist() == [1.0]

    def test_two_bernoulli_increments_enumerated(self):
        e = 2.0
        h = Hamiltonian([0.0, 0.0])
        eta = Distribution([0.6, 0.4])
        proc = WorkProcess(
            initial=h,
            steps=(_quench([e, 0.0]), Thermalisation(), _quench([0.0, 0.0])),
        )
        wd = work_distribution(proc, eta)
        g = gibbs_state(Hamiltonian([e, 0.0])).probs
        # increments: +e*1{n=0 initially}, -e*1{n=0 after thermalisation}
        expected = {
            0.0: eta.probs[0] * g[0] + eta.probs[1] * g[1],
            e: eta.probs[0] * g[1],
            -e: eta.probs[1] * g[0],
        }
        got = dict(zip(wd.values.tolist(), wd.probs.tolist()))
        assert set(got) == set(expected)
        for k in expected:
            assert abs(got[k] - expected[k]) < 1e-12

    def test_process_must_return_to_initial(self):
        h = Hamiltonian([0.0, 0.0])
        with pytest.raises(ThermocapError):
            WorkProcess(initial=h, steps=(_quench([1.0, 0.0]),))

    def test_export_round_trip(self):
        h = Hamiltonian([0.0, 0.0])
        proc = WorkProcess(
            initial=h,
            steps=(_quench([2.0, 0.0]), Thermalisation(), _quench([0.0, 0.0])),
        )
        wd = work_distribution(proc, Distribution([0.6, 0.4]))
        payload = wd.to_dict()
        assert payload["mode"] == "exact"
        assert sum(p for _, p in payload["atoms"]) == pytest.approx(1.0)
        rows = wd.to_csv_rows()
        assert rows[0] == ("value", "prob")
        assert len(rows) == wd.values.size + 1

    def test_monte_carlo_fallback_is_seeded(self):
        proc, eta = _random_quench_process()
        wd1 = work_distribution(proc, eta, atom_budget=50, mc_trajectories=2000, seed=3)
        wd2 = work_distribution(proc, eta, atom_budget=50, mc_trajectories=2000, seed=3)
        assert wd1.mode in ("binned", "monte_carlo")
        assert wd1.values.tolist() == wd2.values.tolist()
        assert wd1.probs.tolist() == wd2.probs.tolist()

    def test_monte_carlo_branch(self, monkeypatch):
        # a grid cap this small sends the binned convolution to Monte-Carlo
        monkeypatch.setattr(thermo, "_DENSE_CAP", 100)
        proc, eta = _random_quench_process()
        n = 2000
        wd = work_distribution(proc, eta, atom_budget=50, mc_trajectories=n, seed=3)
        assert wd.mode == "monte_carlo"
        again = work_distribution(proc, eta, atom_budget=50, mc_trajectories=n, seed=3)
        assert wd.values.tolist() == again.values.tolist()
        assert wd.probs.tolist() == again.probs.tolist()
        other = work_distribution(proc, eta, atom_budget=50, mc_trajectories=n, seed=4)
        assert wd.probs.tolist() != other.probs.tolist()
        assert wd.cdf_error == math.sqrt(math.log(200.0) / (2 * n))
        payload = wd.to_dict()
        assert payload["n_samples"] == n
        assert payload["seed"] == 3
        assert payload["cdf_error_99"] == wd.cdf_error
        with pytest.raises(AtomBudgetExceededError):
            work_distribution(proc, eta, atom_budget=50, mc_trajectories=0)

    @pytest.mark.parametrize("resolution", [0.0, -1e-3, math.nan, math.inf])
    def test_resolution_must_be_finite_and_positive(self, resolution):
        proc, eta = _random_quench_process()
        with pytest.raises(ThermocapError):
            work_distribution(proc, eta, atom_budget=50, resolution=resolution)


class TestEpsDeltaWork:
    def test_point_mass_gain(self):
        wd = WorkDistribution(values=np.array([-1.5]), probs=np.array([1.0]), mode="exact")
        assert eps_delta_work(wd, 0.3, 0.0) == 1.5

    def test_majority_atom(self):
        wd = WorkDistribution(
            values=np.array([-1.0, 5.0]), probs=np.array([0.9, 0.1]), mode="exact"
        )
        assert eps_delta_work(wd, 0.15, 0.0) == 1.0

    def test_no_deterministic_value_then_interval_cover(self):
        wd = WorkDistribution(
            values=np.array([-1.0, 5.0]), probs=np.array([0.9, 0.1]), mode="exact"
        )
        assert eps_delta_work(wd, 0.05, 0.0) == -math.inf
        assert eps_delta_work(wd, 0.05, 3.0) == -2.0
        assert eps_delta_work(wd, 0.05, 2.9) == -math.inf

    def test_monotone_in_eps_fixed_delta(self, rng):
        for _ in range(50):
            n = int(rng.integers(2, 8))
            wd = WorkDistribution(
                values=rng.normal(size=n), probs=rng.dirichlet(np.ones(n)), mode="exact"
            )
            delta = float(rng.uniform(0.0, 2.0))
            v1 = eps_delta_work(wd, 0.1, delta)
            v2 = eps_delta_work(wd, 0.2, delta)
            assert v2 >= v1 - 1e-12


class TestWorkInputs:
    @pytest.mark.parametrize("delta", [math.nan, math.inf, -0.1])
    def test_bad_delta_rejected_before_the_protocol(self, monkeypatch, delta):
        def never(*args, **kwargs):
            raise AssertionError("protocol built for an invalid delta")

        monkeypatch.setattr(thermo, "extraction_protocol", never)
        with pytest.raises(ThermocapError):
            extractable_work(Distribution([0.9, 0.1]), Hamiltonian([0.0, 0.0]), 0.15, delta)
        with pytest.raises(ThermocapError):
            work_from_correlation(maximally_correlated(2), 0.15, delta)
        wd = WorkDistribution(values=np.array([-1.0]), probs=np.array([1.0]), mode="exact")
        with pytest.raises(ThermocapError):
            eps_delta_work(wd, 0.15, delta)


class TestExtractionProtocol:
    def test_equilibrium_state_trivial_protocol(self):
        h = Hamiltonian([0.0, 0.7, 1.3])
        g = gibbs_state(h)
        eps = 0.5 * float(g.probs.min())
        proc, d0 = extraction_protocol(g, h, eps)
        assert len(proc.steps) == 0
        assert abs(d0.bits) < 1e-12

    def test_pure_bit_concentrates_near_ln2(self):
        res = extractable_work(Distribution([1.0, 0.0]), Hamiltonian([0.0, 0.0]), eps=0.15)
        assert res.entropy_bits == 1.0
        assert abs(res.value - LN2) < 0.05
        assert res.bracket[0] == pytest.approx(LN2)

    def test_named_instance_bound(self):
        # 0.9/0.1 bit at eps=0.15: one-bit target within 0.1 kT
        res = extractable_work(
            Distribution([0.9, 0.1]), Hamiltonian([0.0, 0.0]), eps=0.15, k_steps=200
        )
        assert res.entropy_bits == 1.0
        assert res.value >= LN2 - 0.1

    def test_sandwich_on_random_instances(self, rng):
        for _ in range(8):
            dim = int(rng.integers(2, 7))
            eta = random_distribution(rng, dim)
            h = Hamiltonian(rng.uniform(0.0, 2.0, size=dim))
            eps = float(rng.uniform(0.02, 1.0 - 1.0 / math.sqrt(2.0)))
            res = extractable_work(eta, h, eps, k_steps=400)
            assert res.value <= res.bracket[1] + 1e-6
            slack = max(res.bracket[0] - res.value, 0.0)
            res4 = extractable_work(eta, h, eps, k_steps=1600)
            assert res4.value <= res4.bracket[1] + 1e-6
            slack4 = max(res4.bracket[0] - res4.value, 0.0)
            # quadrupling the step count at least halves the slack
            assert slack4 <= 0.5 * slack + 2e-3

    def test_equilibrium_state_bounded_by_slack(self):
        # starting from thermal equilibrium the gain stays inside
        # [0, ln(1/(1-eps))] even when eps allows excluding levels
        h = Hamiltonian([0.0, 0.4, 1.1])
        g = gibbs_state(h)
        for eps in (0.1, 0.25):
            res = extractable_work(g, h, eps)
            assert -1e-9 <= res.value <= math.log(1.0 / (1.0 - eps)) + 1e-6

    def test_pure_state_approaches_log_dim(self):
        # point mass on degenerate levels: gain converges to ln(d)
        d = 4
        eta = Distribution.point_mass(0, d)
        h = Hamiltonian.degenerate(d)
        res = extractable_work(eta, h, 0.2, k_steps=400)
        res2 = extractable_work(eta, h, 0.2, k_steps=1600)
        target = math.log(d)
        assert abs(res.value - target) < 0.05
        assert abs(res2.value - target) <= abs(res.value - target)

    def test_quasistatic_mean_improves_with_steps(self):
        # exact mean of the work gain is monotone in the step count
        eta = Distribution([0.85, 0.15, 0.0])
        h = Hamiltonian([0.0, 0.4, 1.0])
        means = []
        for k in (50, 100, 200, 400):
            proc, _ = extraction_protocol(eta, h, 0.2, k_steps=k)
            wd = work_distribution(proc, eta)
            means.append(-wd.mean)
        assert all(b >= a - 1e-12 for a, b in zip(means, means[1:]))

    def test_monotone_in_eps_with_tolerance(self, rng):
        for _ in range(8):
            dim = int(rng.integers(2, 6))
            eta = random_distribution(rng, dim)
            h = Hamiltonian(rng.uniform(0.0, 1.5, size=dim))
            v1 = extractable_work(eta, h, 0.1).value
            v2 = extractable_work(eta, h, 0.2).value
            assert v2 >= v1 - 0.05


class TestLocallyThermal:
    def test_uniform_marginals_degenerate(self):
        ha, hb = locally_thermal_hamiltonians(maximally_correlated(4))
        assert np.allclose(ha.levels, ha.levels[0])
        assert np.allclose(hb.levels, hb.levels[0])

    def test_reproduces_marginals(self):
        j = JointDistribution([[0.5, 1 / 6], [1 / 6, 1 / 6]])
        ha, hb = locally_thermal_hamiltonians(j)
        assert np.allclose(gibbs_state(ha).probs, j.marginal_a().probs, atol=1e-12)
        assert np.allclose(gibbs_state(hb).probs, j.marginal_b().probs, atol=1e-12)

    def test_zero_marginal_raises(self):
        j = JointDistribution([[0.5, 0.5], [0.0, 0.0]])
        with pytest.raises(ZeroMarginalError):
            locally_thermal_hamiltonians(j)
        restricted, keep_a, keep_b = restrict_support(j)
        assert keep_a.tolist() == [0]
        assert restricted.probs.shape == (1, 2)


class TestWorkFromCorrelation:
    def test_product_state_no_correlation(self, rng):
        p = random_distribution(rng, 3)
        q = random_distribution(rng, 2)
        res = work_from_correlation(JointDistribution.from_outer(p, q), eps=0.2)
        assert res.value <= math.log(1.0 / 0.8) + 1e-6

    def test_maximally_correlated_pairs(self):
        res = work_from_correlation(maximally_correlated(2), eps=0.05)
        assert res.entropy_bits == 1.0
        assert abs(res.value - LN2) < 0.1

    def test_noisy_correlated_inside_bracket(self):
        base = maximally_correlated(2).probs
        noisy = JointDistribution(0.95 * base + 0.05 * np.full((2, 2), 0.25))
        res = work_from_correlation(noisy, eps=0.2)
        flat = noisy.flatten()
        ref = JointDistribution.from_outer(noisy.marginal_a(), noisy.marginal_b()).flatten()
        d0 = smoothed_renyi0(flat, ref, 0.2)
        assert res.entropy_bits == pytest.approx(d0.bits)
        assert res.bracket[0] - 0.05 <= res.value <= res.bracket[1] + 1e-6


def test_shortest_interval_feeds_eps_delta_work():
    rng = np.random.default_rng(21)
    for _ in range(50):
        n = int(rng.integers(2, 30))
        wd = WorkDistribution(
            values=rng.normal(size=n), probs=rng.dirichlet(np.ones(n)), mode="exact"
        )
        eps = float(rng.uniform(0.05, 0.5))
        lo, hi, mean = shortest_confidence_interval(wd, eps)
        assert lo - 1e-12 <= mean <= hi + 1e-12
        # the interval itself holds the mass, so its midpoint qualifies
        half = (hi - lo) / 2.0
        value = eps_delta_work(wd, eps, half)
        assert value >= (lo + hi) / 2.0 - 1e-9
        # no narrower window can qualify anywhere
        if half > 1e-9:
            assert eps_delta_work(wd, eps, half * 0.45) == -math.inf


def _loop_interval(wd, eps):
    """The two-pointer scan the vectorised window search replaced, kept as
    its reference; None where it finds no window."""
    order = np.argsort(-wd.values)
    gains = -wd.values[order]
    probs = wd.probs[order]
    cum = np.concatenate([[0.0], np.cumsum(probs)])
    weighted = np.concatenate([[0.0], np.cumsum(gains * probs)])
    need = (1.0 - eps) - 1e-12
    best = None
    j = 0
    for i in range(gains.size):
        j = max(j, i)
        while j < gains.size and cum[j + 1] - cum[i] <= need:
            j += 1
        if j == gains.size:
            break
        width = gains[j] - gains[i]
        if best is None or width < best[0]:
            best = (width, i, j)
    if best is None:
        return None
    _, i, j = best
    mean = (weighted[j + 1] - weighted[i]) / (cum[j + 1] - cum[i])
    return float(gains[i]), float(gains[j]), float(mean)


def test_shortest_interval_matches_loop_reference():
    rng = np.random.default_rng(8)
    for case in range(3000):
        n = int(rng.integers(1, 60))
        # repeated values, equal masses and atoms of 1e-17 stress ties and
        # cumulative sums that stall or round
        values = rng.integers(-6, 6, size=n) * 0.25 if case % 3 == 0 else rng.normal(size=n)
        probs = np.full(n, 1.0 / n) if case % 5 == 0 else rng.dirichlet(np.full(n, 0.3))
        probs[rng.random(n) < 0.3] = 1e-17
        wd = WorkDistribution(values=values, probs=probs / probs.sum(), mode="exact")
        if case % 2:
            # put the required mass on an attainable window mass, to the ulp
            cum = np.concatenate([[0.0], np.cumsum(wd.probs[::-1])])
            i, j = np.sort(rng.integers(0, n + 1, size=2))
            eps = 1.0 - 1e-12 - float(cum[j] - cum[i]) + float(rng.integers(-2, 3)) * 2.0**-53
        else:
            eps = float(rng.uniform(0.005, 0.95))
        if not 0.0 < eps < 1.0:
            continue
        want = _loop_interval(wd, eps)
        if want is None:
            with pytest.raises(ThermocapError):
                shortest_confidence_interval(wd, eps)
        else:
            assert shortest_confidence_interval(wd, eps) == want
