import math

import numpy as np
import pytest

from thermocap import (
    Distribution,
    Hamiltonian,
    JointDistribution,
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
from thermocap.core import (
    LN2,
    DimensionMismatchError,
    ThermocapError,
    ZeroMarginalError,
)
from thermocap.thermo import WorkDistribution, restrict_support, shortest_confidence_interval

from conftest import random_distribution

#: the atom budget work_distribution reads, before any test patches it
DEFAULT_ATOM_BUDGET = thermo.ATOM_BUDGET


def _random_quench_process():
    """Twelve seeded random quenches on three levels, each thermalised: far
    more work atoms than small budgets admit."""
    rng = np.random.default_rng(5)
    quenches = [rng.normal(size=3) for _ in range(12)]
    proc = WorkProcess([np.zeros(3), *quenches, np.zeros(3)])
    return proc, Distribution([0.5, 0.3, 0.2])


class TestWorkProcess:
    @pytest.mark.parametrize("levels", [
        [0.0, 1.0],
        [[0.0, 1.0]],
        np.zeros((2, 0)),
        [[0.0, 1.0], [0.0]],
        [[0.0, math.nan], [0.0, math.nan]],
        [[0.0, math.inf], [0.0, math.inf]],
        [["a", "b"], ["a", "b"]],
    ], ids=["1-D", "one-row", "no-columns", "ragged", "nan", "inf", "not-numeric"])
    def test_malformed_levels_raise_a_library_error(self, levels):
        with pytest.raises(ThermocapError):
            WorkProcess(levels)

    def test_process_must_return_to_initial(self):
        with pytest.raises(ThermocapError, match="initial"):
            WorkProcess([[0.0, 0.0], [1.0, 0.0]])
        with pytest.raises(ThermocapError, match="initial"):
            WorkProcess([[0.0, 0.0], [3.0, 0.0], [0.0, 2e-9]])
        # the tolerance is absolute: a relative one would pass 4e-4 at level 50
        with pytest.raises(ThermocapError, match="initial"):
            WorkProcess([[0.0, 50.0], [3.0, 0.0], [0.0, 50.0004]])
        WorkProcess([[0.0, 0.0], [3.0, 0.0], [0.0, 5e-10]])

    def test_state_of_another_dimension_raises(self):
        proc = WorkProcess([[0.0, 0.0], [3.0, 0.0], [0.0, 0.0]])
        with pytest.raises(DimensionMismatchError):
            work_distribution(proc, Distribution([0.5, 0.3, 0.2]))

    def test_levels_are_a_read_only_copy(self):
        levels = np.array([[0.0, 0.0], [3.0, 0.0], [0.0, 0.0]])
        proc = WorkProcess(levels)
        assert not proc.levels.flags.writeable
        assert not np.shares_memory(proc.levels, levels)
        levels[1, 0] = 7.0
        assert proc.levels[1, 0] == 3.0
        with pytest.raises(ValueError):
            proc.levels[1, 0] = 7.0


class TestWorkDistribution:
    def test_single_quench_deterministic(self):
        # quenching to [3, 0] and back without a thermalisation costs the net
        # gap, zero; the state sits in level 0 throughout
        proc = WorkProcess([[0.0, 0.0], [0.0, 0.0]])
        wd = work_distribution(proc, Distribution([1.0, 0.0]))
        assert wd.values.tolist() == [0.0]

    def test_quench_up_only_point_mass(self):
        proc = WorkProcess([[0.0, 0.0], [3.0, 0.0], [0.0, 0.0]])
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
        # (quenches through [5, 1, 0.5] and [2, 2, 2] leave no row behind)
        proc = WorkProcess([[0.0, 1.0, 2.0], [0.0, 1.0, 2.0]])
        wd = work_distribution(proc, random_distribution(rng, 3))
        assert wd.values.tolist() == [0.0]
        assert wd.probs.tolist() == [1.0]

    def test_two_bernoulli_increments_enumerated(self):
        e = 2.0
        eta = Distribution([0.6, 0.4])
        proc = WorkProcess([[0.0, 0.0], [e, 0.0], [0.0, 0.0]])
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

    def test_export_round_trip(self):
        proc = WorkProcess([[0.0, 0.0], [2.0, 0.0], [0.0, 0.0]])
        wd = work_distribution(proc, Distribution([0.6, 0.4]))
        payload = wd.to_dict()
        assert payload["mode"] == "exact"
        assert sum(p for _, p in payload["atoms"]) == pytest.approx(1.0)

    def test_monte_carlo_results_carry_the_dkw_band(self, monkeypatch):
        eta = Distribution([0.6, 0.3, 0.1])
        h = Hamiltonian([0.0, 0.7, 1.5])
        joint = JointDistribution([[0.4, 0.1], [0.1, 0.4]])
        keys = ["value_kT", "delta_kT", "eps", "entropy_bits", "bracket_kT", "e_cut",
                "k_steps", "distribution_mode", "witness_indices", "window_kT"]
        corr_keys = ["value_kT", "delta_kT", "eps", "entropy_bits", "bracket_kT",
                     "support_a", "support_b", "distribution_mode"]
        # exact and binned payloads keep exactly their keys
        for k_steps, budget in ((2, DEFAULT_ATOM_BUDGET), (20, 50)):
            monkeypatch.setattr(thermo, "ATOM_BUDGET", budget)
            res = extractable_work(eta, h, 0.1, k_steps=k_steps)
            assert res.distribution_mode in ("exact", "binned")
            assert list(res.to_dict()) == keys
            corr = work_from_correlation(joint, 0.1, k_steps=k_steps)
            assert list(corr.to_dict()) == corr_keys

    def test_grid_far_from_zero(self, monkeypatch):
        # every trajectory pays a 1e19 quench first: 1e22 cells of the grid,
        # past int64, while the window spans a few thousand cells
        levels = [[0.0, 0.0], [0.0, 1e19], [0.0, 0.5]]
        levels += [[0.3 * (i % 3), 0.5 + 0.2 * (i % 2)] for i in range(1, 8)] + [[0.0, 0.0]]
        proc, eta = WorkProcess(levels), Distribution([0.0, 1.0])
        exact = work_distribution(proc, eta)
        monkeypatch.setattr(thermo, "ATOM_BUDGET", 1)
        wd = work_distribution(proc, eta)
        assert (exact.mode, wd.mode) == ("exact", "binned")
        assert wd.mean == pytest.approx(exact.mean, rel=1e-15)

    @pytest.mark.parametrize("resolution", [0.0, -1e-3, math.nan, math.inf])
    def test_resolution_must_be_finite_and_positive(self, monkeypatch, resolution):
        monkeypatch.setattr(thermo, "ATOM_BUDGET", 50)
        proc, eta = _random_quench_process()
        with pytest.raises(ThermocapError):
            work_distribution(proc, eta, resolution=resolution)


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


class TestWorkDistributionValidation:
    # a negative atom once summed to 1 with the rest and eps_delta_work read
    # it as probability; an unknown mode was printed by to_dict
    @pytest.mark.parametrize("values, probs, mode", [
        ([0.0, 1.0], [1.5, -0.5], "exact"),
        ([0.0, 1.0], [math.nan, 1.0], "exact"),
        ([0.0, 1.0], [math.nan, math.nan], "exact"),
        ([0.0, math.nan], [0.5, 0.5], "exact"),
        ([0.0, math.inf], [0.5, 0.5], "binned"),
        ([-math.inf, 0.0], [0.5, 0.5], "exact"),
        ([0.0, 1.0], [0.5, 0.5], "bogus"),
        ([0.0, 1.0], [0.5, 0.5], None),
    ])
    def test_bad_input_rejected(self, values, probs, mode):
        with pytest.raises(ThermocapError):
            WorkDistribution(values=np.array(values), probs=np.array(probs), mode=mode)

    @pytest.mark.parametrize("mode", ["exact", "binned", "coarsened"])
    def test_every_mode_accepted(self, mode):
        wd = WorkDistribution(values=np.array([1.0, 0.0]), probs=np.array([0.25, 0.75]),
                              mode=mode, resolution=1e-3, grid_error=5e-4)
        assert wd.values.tolist() == [0.0, 1.0]
        assert wd.probs.tolist() == [0.75, 0.25]


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

    def test_budget_limits_and_numpy_integers_accepted(self, monkeypatch):
        proc, eta = _random_quench_process()
        monkeypatch.setattr(thermo, "ATOM_BUDGET", 50)
        want = work_distribution(proc, eta)
        for budget in (np.int64(50), np.int32(50)):
            monkeypatch.setattr(thermo, "ATOM_BUDGET", budget)
            got = work_distribution(proc, eta)
            assert got.values.tobytes() == want.values.tobytes()
            assert got.probs.tobytes() == want.probs.tobytes()
        monkeypatch.setattr(thermo, "ATOM_BUDGET", 1)
        assert work_distribution(proc, eta).mode == "binned"

    @pytest.mark.parametrize("e_cut", [math.nan, math.inf, 0.0, -1.0])
    def test_bad_e_cut_rejected(self, e_cut):
        with pytest.raises(ThermocapError, match="e_cut"):
            extraction_protocol(Distribution([1.0, 0.0]), Hamiltonian([0.0, 0.0]), 0.15,
                                e_cut=e_cut)


class TestExtractionProtocol:
    def test_equilibrium_state_trivial_protocol(self):
        h = Hamiltonian([0.0, 0.7, 1.3])
        g = gibbs_state(h)
        eps = 0.5 * float(g.probs.min())
        proc, d0 = extraction_protocol(g, h, eps)
        assert proc.levels.tolist() == [h.levels.tolist()] * 2
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

    def test_zero_work_is_positive_zero(self):
        # the state is the Gibbs state, so every work atom is zero
        res = extractable_work(Distribution([0.5, 0.5]), Hamiltonian([0.0, 0.0]), 0.1)
        assert res.value == 0.0 and math.copysign(1.0, res.value) == 1.0
        assert [math.copysign(1.0, w) for w in res.window] == [1.0, 1.0]

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

    def test_uniform_product_extracts_positive_zero(self):
        uniform = Distribution([0.5, 0.5])
        res = work_from_correlation(JointDistribution.from_outer(uniform, uniform), eps=0.1)
        assert res.value == 0.0 and math.copysign(1.0, res.value) == 1.0

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


def loop_convolve_exact(values, probs, seg_values, seg_probs):
    """The np.unique/bincount convolution the merge of sorted runs replaced,
    kept as its reference."""
    vv = (values[:, None] + seg_values[None, :]).ravel()
    pp = (probs[:, None] * seg_probs[None, :]).ravel()
    out_values, inverse = np.unique(vv, return_inverse=True)
    out_probs = np.bincount(inverse, weights=pp, minlength=out_values.size)
    keep = out_probs > thermo._PRUNE_TOL
    return out_values[keep], out_probs[keep]


def _assert_convolution_matches(values, probs, seg_values, seg_probs):
    got = thermo._convolve_exact(values, probs, seg_values, seg_probs)
    want = loop_convolve_exact(values, probs, seg_values, seg_probs)
    assert got[0].tobytes() == want[0].tobytes()
    assert got[1].tobytes() == want[1].tobytes()
    return want


class TestConvolveExact:
    def test_random_ascending_inputs(self):
        # distinct sums: kills a merge that leaves probs in row-major order
        # or pairs them with the wrong permutation
        rng = np.random.default_rng(11)
        for _ in range(300):
            n, s = int(rng.integers(1, 400)), int(rng.integers(1, 7))
            values = np.unique(rng.normal(scale=3.0, size=n))
            seg_values = np.unique(rng.normal(size=s))
            _assert_convolution_matches(values, rng.dirichlet(np.ones(values.size)),
                                        seg_values, rng.dirichlet(np.ones(seg_values.size)))

    def test_integer_gaps_share_almost_every_sum(self):
        # as on the energy schedule: kills summing a group in merge order or
        # in the seg-major layout, and group ids not scattered back
        rng = np.random.default_rng(12)
        for _ in range(300):
            values = np.unique(rng.integers(-40, 40, size=int(rng.integers(1, 60)))) * 0.25
            seg_values = np.unique(rng.integers(-4, 5, size=int(rng.integers(1, 7)))) * 0.25
            _assert_convolution_matches(values, rng.dirichlet(np.ones(values.size)),
                                        seg_values, rng.dirichlet(np.ones(seg_values.size)))

    def test_rounding_collisions(self):
        # at 1e16 the float spacing is 2, so sums of different runs round
        # together in groups of two to ten whose merge order is neither
        # row-major nor its reverse; kills a sum in sorted order
        values = np.arange(8) * 0.5
        seg_values = 1e16 + np.array([0.0, 2.0, 4.0])
        rng = np.random.default_rng(13)
        merge_order_differs = False
        for _ in range(20):
            probs, seg_probs = rng.dirichlet(np.ones(8)), rng.dirichlet(np.ones(3))
            want = _assert_convolution_matches(values, probs, seg_values, seg_probs)
            runs = (seg_values[:, None] + values[None, :]).ravel()
            order = np.argsort(runs, kind="stable")
            _, group = np.unique(runs[order], return_inverse=True)
            products = (seg_probs[:, None] * probs[None, :]).ravel()
            merged = np.bincount(group, weights=products[order])
            merge_order_differs |= merged.tobytes() != want[1].tobytes()
        # the case can tell the two summation orders apart
        assert merge_order_differs

    def test_single_atoms(self):
        # one run, one-atom runs and lone sums: kills a first-of-group mask
        # that does not open a group at the first atom
        for values, seg_values in [([0.0], [1.5]), ([0.0], [-1.0, 2.0]), ([-1.0, 2.0], [0.5]),
                                   ([-1.0, 2.0], [1.0]), ([3.0], [0.0])]:
            values, seg_values = np.array(values), np.array(seg_values)
            _assert_convolution_matches(values, np.full(values.size, 1.0 / values.size),
                                        seg_values, np.full(seg_values.size, 1.0 / seg_values.size))

    def test_atoms_straddling_the_prune_tolerance(self):
        # products at, just below and just above _PRUNE_TOL, alone and in
        # groups: kills a prune with >= or before the groups are summed
        tol = thermo._PRUNE_TOL
        values = np.array([0.0, 1.0, 2.0, 3.0])
        probs = np.array([tol, np.nextafter(tol, 0.0), np.nextafter(tol, 1.0), 1.0])
        for seg_values in ([0.0], [0.0, 10.0], [0.0, 1.0], [0.0, 1.0, 2.0]):
            seg_values = np.array(seg_values)
            _assert_convolution_matches(values, probs, seg_values, np.ones(seg_values.size))


def loop_segments(proc, eta):
    """The per-row segment builder the batched pass replaced, with the
    spread ordering work_distribution applied, kept as its reference."""
    segments = []
    occupancy = eta.probs
    for start, current in zip(proc.levels[:-1], proc.levels[1:]):
        values, inverse = np.unique(current - start, return_inverse=True)
        probs = np.bincount(inverse, weights=occupancy, minlength=values.size)
        keep = probs > 0.0
        values, probs = values[keep], probs[keep]
        if values.size > 1 or values[0] != 0.0:
            segments.append((values, probs))
        occupancy = gibbs_state(Hamiltonian(current)).probs
    return sorted(segments, key=lambda s: np.ptp(s[0]))


def _assert_segments_match(proc, eta):
    got, want = thermo._segments(proc, eta), loop_segments(proc, eta)
    assert len(got) == len(want)
    for (gv, gp), (wv, wp) in zip(got, want):
        assert gv.tobytes() == wv.tobytes()
        assert gp.tobytes() == wp.tobytes()


def _random_process(rng, d):
    """Seeded thermalisation levels with zero-gap runs (repeated
    thermalisations at the current levels), tied gaps (levels on a coarse
    grid) and levels whose Gibbs occupancy underflows to zero."""
    initial = rng.integers(0, 4, size=d) * 0.5
    rows = [initial]
    for _ in range(int(rng.integers(0, 16))):
        kind = int(rng.integers(5))
        if kind < 2:
            levels = rows[-1]
        elif kind == 2:
            levels = rng.integers(0, 4, size=d) * 0.5
        elif kind == 3:
            levels = np.where(rng.random(d) < 0.5, 1000.0, rng.normal(size=d))
        else:
            levels = rng.normal(size=d)
        rows.append(levels)
    return WorkProcess([*rows, initial])


class TestSegments:
    def test_random_processes_match_the_loop(self):
        rng = np.random.default_rng(14)
        for case in range(400):
            d = 1 if case % 10 == 0 else int(rng.integers(2, 7))
            eta = random_distribution(rng, d, allow_zeros=d > 1)
            _assert_segments_match(_random_process(rng, d), eta)

    def test_no_steps(self):
        proc = WorkProcess([[0.0, 1.0], [0.0, 1.0]])
        assert thermo._segments(proc, Distribution([0.5, 0.5])) == []

    @pytest.mark.parametrize("schedule", ["angle", "weight", "energy"])
    def test_extraction_schedules_match_the_loop(self, schedule):
        rng = np.random.default_rng(15)
        for d in (2, 4, 6):
            # a peaked state, so the protocol quenches some levels
            probs = rng.dirichlet(np.full(d, 0.2))
            probs[-1] = 0.0
            eta = Distribution(probs / probs.sum())
            h = Hamiltonian(rng.uniform(0.0, 3.0, size=d))
            proc, _ = extraction_protocol(eta, h, 0.1, k_steps=400, schedule=schedule)
            assert proc.levels.shape == (400 + 3, d)
            _assert_segments_match(proc, eta)


def loop_protocol_levels(eta, h, eps, e_cut, k_steps, schedule):
    """The per-step schedule loop the array build of extraction_protocol
    replaced, kept as its reference: [h, quenched, inter_1..k, h]."""
    d0 = smoothed_renyi0(eta, gibbs_state(h), eps)
    retained = sorted(d0.witness.indices)
    excluded = [n for n in range(h.dim) if n not in set(retained)]
    if not excluded:
        return np.stack([h.levels, h.levels])

    quenched = h.levels.copy()
    quenched[excluded] = e_cut
    w_end = np.exp(-h.levels)
    w_start = np.exp(-quenched)
    z_retained = float(w_end[retained].sum())
    w_exc = w_end[excluded]
    share = w_exc / w_exc.sum()
    u_final = float(w_exc.sum() / (z_retained + w_exc.sum()))
    theta_final = math.asin(math.sqrt(u_final))

    rows = [h.levels, quenched]
    for j in range(1, k_steps + 1):
        frac = j / (k_steps + 1)
        inter = quenched.copy()
        if schedule == "angle":
            u = math.sin(frac * theta_final) ** 2
            w = z_retained * share * (u / (1.0 - u))
            with np.errstate(divide="ignore"):
                inter[excluded] = np.minimum(-np.log(w), e_cut)
        elif schedule == "weight":
            w = w_start[excluded] + frac * (w_end[excluded] - w_start[excluded])
            inter[excluded] = -np.log(w)
        else:
            inter = quenched + frac * (h.levels - quenched)
        rows.append(inter)
    rows.append(h.levels)
    return np.stack(rows)


def _assert_protocol_matches(eta, h, eps, e_cut, k_steps, schedule):
    proc, _ = extraction_protocol(eta, h, eps, e_cut=e_cut, k_steps=k_steps, schedule=schedule)
    want = loop_protocol_levels(eta, h, eps, e_cut, k_steps, schedule)
    assert proc.levels.shape == want.shape
    assert proc.levels.tobytes() == want.tobytes()
    return proc.levels


class TestProtocolLevels:
    @pytest.mark.parametrize("schedule", ["angle", "weight", "energy"])
    def test_schedules_match_the_loop_bit_for_bit(self, schedule):
        rng = np.random.default_rng(16)
        for d in (2, 4, 6):
            for k in (1, 2, 400):
                # a peaked state, so the protocol quenches some levels
                probs = rng.dirichlet(np.full(d, 0.2))
                probs[-1] = 0.0
                eta = Distribution(probs / probs.sum())
                h = Hamiltonian(rng.uniform(0.0, 3.0, size=d))
                levels = _assert_protocol_matches(eta, h, 0.1, 50.0, k, schedule)
                assert levels.shape == (k + 3, d)

    def test_angle_schedule_clipped_at_e_cut(self):
        eta = Distribution([0.7, 0.3, 0.0, 0.0])
        h = Hamiltonian([0.0, 0.5, 1.0, 1.5])
        levels = _assert_protocol_matches(eta, h, 0.05, 4.0, 400, "angle")
        # the first steps regain so little occupancy that -ln(w) passes e_cut
        assert (levels[2:-1] == 4.0).any()
        assert (levels[2:-1] < 4.0).any()

    def test_nothing_to_quench(self):
        h = Hamiltonian([0.0, 0.7, 1.3])
        g = gibbs_state(h)
        levels = _assert_protocol_matches(g, h, 0.5 * float(g.probs.min()), 50.0, 400, "angle")
        assert levels.shape == (2, 3)

    @pytest.mark.parametrize("k_steps", [2.5, 400.0, 0, True])
    def test_k_steps_must_be_a_positive_integer(self, k_steps):
        with pytest.raises(ThermocapError, match="k_steps"):
            extraction_protocol(Distribution([1.0, 0.0]), Hamiltonian([0.0, 0.0]), 0.15,
                                k_steps=k_steps)

    def test_no_hamiltonian_per_step(self, monkeypatch):
        built = []
        init = Hamiltonian.__init__

        def counting_init(self, levels):
            built.append(1)
            init(self, levels)

        monkeypatch.setattr(Hamiltonian, "__init__", counting_init)
        eta, h = Distribution([0.9, 0.1, 0.0]), Hamiltonian([0.0, 0.4, 1.0])
        counts = []
        for k in (1, 400):
            built.clear()
            proc, _ = extraction_protocol(eta, h, 0.2, k_steps=k)
            assert proc.levels.shape == (k + 3, 3)
            counts.append(len(built))
        assert counts[0] == counts[1]


def loop_dense_convolve(offset, dense, shifts, weights):
    """The grid stage the one-pass shifts and the index-free trim replaced,
    kept as its reference: shifts and weights are the increment's arrays."""
    lo, hi = int(shifts.min()), int(shifts.max())
    out = np.zeros(dense.size + (hi - lo))
    for s, w in zip(shifts, weights):
        start = int(s) - lo
        out[start : start + dense.size] += w * dense
    nz = np.flatnonzero(out > thermo._PRUNE_TOL)
    if nz.size == 0:
        raise ThermocapError("work distribution lost all mass; pruning bug")
    out = out[nz[0] : nz[-1] + 1]
    return offset + lo + int(nz[0]), out


def loop_merge_pairs(offset, dense):
    """The window on a grid of twice the step, by a bincount of each cell's
    floor-halved index."""
    cells = (offset + np.arange(dense.size)) // 2
    return int(cells[0]), np.bincount(cells - cells[0], weights=dense)


def argsort_atoms(values, probs):
    """What WorkDistribution stored before sorted values skipped the sort."""
    values, probs = np.asarray(values, dtype=np.float64), np.asarray(probs, dtype=np.float64)
    order = np.argsort(values)
    return values[order], probs[order] / probs.sum()


def loop_work_distribution(proc, eta, resolution=None):
    """work_distribution with each grid stage rounding its own shifts, as
    before the one-pass grid phase, and coarsening stage by stage, at the
    atom budget thermo.ATOM_BUDGET holds when it is called; returns
    (values, probs, mode, resolution, grid error, grid stages run).  The
    exact phase is thermo._convolve_exact, which TestConvolveExact pins to
    its own reference."""
    res = step = resolution if resolution is not None else 1e-3
    segments = thermo._segments(proc, eta)
    values, probs = np.zeros(1), np.ones(1)
    for n_exact, (seg_values, seg_probs) in enumerate(segments):
        if values.size * seg_values.size > thermo.ATOM_BUDGET:
            break
        values, probs = thermo._convolve_exact(values, probs, seg_values, seg_probs)
    else:
        return (*argsort_atoms(values, probs), "exact", None, None, 0)
    cells = np.round(values / res)
    while cells.max() - cells.min() + 1 > thermo._DENSE_CAP:
        res *= 2.0
        cells = np.round(values / res)
    idx = cells.astype(np.int64)
    offset = int(idx.min())
    dense = np.bincount(idx - offset, weights=probs)
    # half the snap's step, one step before each merge, half each stage's step
    error = res / 2
    rest = segments[n_exact:]
    for seg_values, seg_probs in rest:
        cells = np.round(seg_values / res)
        while dense.size + (cells.max() - cells.min()) > thermo._DENSE_CAP:
            error += res
            res *= 2.0
            offset, dense = loop_merge_pairs(offset, dense)
            cells = np.round(seg_values / res)
        offset, dense = loop_dense_convolve(offset, dense, cells.astype(np.int64), seg_probs)
        error += res / 2
    keep = dense > 0.0
    grid = (offset + np.flatnonzero(keep)) * res
    if res == step:
        return (*argsort_atoms(grid, dense[keep]), "binned", res, None, len(rest))
    return (*argsort_atoms(grid, dense[keep]), "coarsened", res, error, len(rest))


def loop_gain_cdf(wd, eps):
    """_gain_cdf's gains, probs and cumulative mass by argsort(-values)."""
    order = np.argsort(-wd.values)
    gains, probs = 0.0 - wd.values[order], wd.probs[order]
    return gains, probs, np.concatenate([[0.0], np.cumsum(probs)])


def _exact_prefix(proc, eta, atom_budget):
    """The exact atoms work_distribution snaps to the grid, and how many
    increments they hold."""
    values, probs = np.zeros(1), np.ones(1)
    for n_exact, (seg_values, seg_probs) in enumerate(thermo._segments(proc, eta)):
        if values.size * seg_values.size > atom_budget:
            return values, n_exact
        values, probs = thermo._convolve_exact(values, probs, seg_values, seg_probs)
    raise AssertionError("no grid phase")


def _count_grid_stages(monkeypatch):
    calls = []
    dense_convolve = thermo._dense_convolve

    def counting(*args):
        calls.append(None)
        return dense_convolve(*args)

    monkeypatch.setattr(thermo, "_dense_convolve", counting)
    return calls


def _assert_pipeline_matches(monkeypatch, proc, eta, eps, atom_budget, resolution=None):
    monkeypatch.setattr(thermo, "ATOM_BUDGET", atom_budget)
    stages = _count_grid_stages(monkeypatch)
    wd = work_distribution(proc, eta, resolution=resolution)
    values, probs, *labels = loop_work_distribution(proc, eta, resolution=resolution)
    assert wd.values.tobytes() == values.tobytes()
    assert wd.probs.tobytes() == probs.tobytes()
    assert [wd.mode, wd.resolution, wd.grid_error, len(stages)] == labels
    for got, want in zip(thermo._gain_cdf(wd, eps), loop_gain_cdf(wd, eps)):
        assert got.tobytes() == want.tobytes()
    return wd


class TestWorkPipeline:
    """The work pipeline against the per-stage reference, bit for bit."""

    @pytest.mark.parametrize("schedule", ["angle", "weight", "energy"])
    def test_extraction_processes_match_the_reference(self, monkeypatch, schedule):
        rng = np.random.default_rng(16)
        modes = set()
        for d in (2, 5, 16):
            for k_steps in (400, 800):
                eta = Distribution(rng.dirichlet(np.full(d, 0.5)))
                h = Hamiltonian(rng.uniform(0.0, 3.0, size=d))
                eps = float(rng.uniform(0.05, 0.25))
                proc, _ = extraction_protocol(eta, h, eps, k_steps=k_steps, schedule=schedule)
                # the grids extractable_work uses with delta=None and with delta
                for resolution in (1e-4, float(rng.uniform(0.2, 0.5)) / 10.0):
                    # forced binning early and late, and the default budget
                    # where it stays cheap
                    budgets = (10, 1000) + ((DEFAULT_ATOM_BUDGET,) if d == 2 else ())
                    for atom_budget in budgets:
                        wd = _assert_pipeline_matches(monkeypatch, proc, eta, eps,
                                                      atom_budget=atom_budget,
                                                      resolution=resolution)
                        modes.add(wd.mode)
        assert "binned" in modes

    def test_random_quench_process_matches_the_reference(self, monkeypatch):
        proc, eta = _random_quench_process()
        short = WorkProcess(proc.levels[[0, 1, 2, 3, 4, -1]])
        modes = [_assert_pipeline_matches(monkeypatch, p, eta, 0.1, atom_budget=budget).mode
                 for p in (proc, short) for budget in (1, 10, 50, 1000, DEFAULT_ATOM_BUDGET)]
        assert modes == ["binned"] * 5 + ["binned"] * 3 + ["exact"] * 2

    @pytest.mark.parametrize("cap", [2_000, 6_000])
    def test_small_grid_cap_switches_at_the_same_stage(self, monkeypatch, cap):
        monkeypatch.setattr(thermo, "_DENSE_CAP", cap)
        eta = Distribution([0.55, 0.25, 0.15, 0.05])
        h = Hamiltonian([0.0, 0.4, 1.1, 2.0])
        proc, _ = extraction_protocol(eta, h, 0.1, k_steps=400)
        wd = _assert_pipeline_matches(monkeypatch, proc, eta, 0.1, atom_budget=1000,
                                      resolution=1e-4)
        assert wd.mode == "coarsened"
        assert wd.resolution > 1e-4
        # the snapped exact atoms fit the cap; the window outgrew it part way
        # through the grid phase
        values, _ = _exact_prefix(proc, eta, 1000)
        assert np.ptp(np.round(values / 1e-4)) < cap

    def test_wide_exact_prefix_is_rounded_at_the_coarser_step(self, monkeypatch):
        monkeypatch.setattr(thermo, "_DENSE_CAP", 100)
        proc, eta = _random_quench_process()
        values, _ = _exact_prefix(proc, eta, 50)
        assert np.ptp(np.round(values / 1e-3)) >= 100
        wd = _assert_pipeline_matches(monkeypatch, proc, eta, 0.1, atom_budget=50)
        assert wd.mode == "coarsened"

    @pytest.mark.parametrize("cap, atom_budget", [(40, 1), (100, 1), (100, 10), (2_000, 10)])
    def test_coarsened_atoms_move_within_the_grid_error(self, monkeypatch, cap, atom_budget):
        # the exact distribution and the coarsened one, shifted by the grid
        # error either way, bracket each other's CDF: a coupling moves no
        # trajectory further than that
        proc, eta = _random_quench_process()
        proc = WorkProcess(proc.levels[[0, 1, 2, 3, 4, -1]])
        exact = work_distribution(proc, eta)
        assert exact.mode == "exact"
        monkeypatch.setattr(thermo, "_DENSE_CAP", cap)
        monkeypatch.setattr(thermo, "ATOM_BUDGET", atom_budget)
        wd = work_distribution(proc, eta)
        assert wd.mode == "coarsened"
        assert wd.grid_error < np.ptp(exact.values)
        for x in np.concatenate([exact.values, wd.values]):
            want = exact.probs[exact.values <= x].sum()
            assert wd.probs[wd.values <= x - wd.grid_error].sum() <= want + 1e-12
            assert wd.probs[wd.values <= x + wd.grid_error].sum() >= want - 1e-12

    @pytest.mark.parametrize("shifts, weights", [
        ([0, 4, 8], [1e-20, 1.0 - 2e-20, 1e-20]),  # both tails trimmed
        ([0, 4, 8], [1e-20, 0.5, 0.5]),  # left tail only
        ([0, 4, 8], [0.5, 0.5, 1e-20]),  # right tail only
        ([3, 3, 5], [0.25, 0.25, 0.5]),  # tied shifts, nothing trimmed
        ([-2], [1.0]),
    ])
    def test_trim_matches_the_flatnonzero_reference(self, shifts, weights):
        tol = thermo._PRUNE_TOL
        # interior cells below the tolerance stay, only the tails go
        dense = np.array([0.3, 0.2 * tol, 0.4, 0.0, 0.3 - 0.2 * tol])
        got = thermo._dense_convolve(7, dense, shifts, weights)
        want = loop_dense_convolve(7, dense, np.array(shifts), np.array(weights))
        assert got[0] == want[0]
        assert got[1].tobytes() == want[1].tobytes()

    def test_lost_mass_raises(self):
        with pytest.raises(ThermocapError, match="lost all mass"):
            thermo._dense_convolve(0, np.array([1e-10]), [0, 1], [1e-10, 1e-10])


_FOUR_LEVELS = (Distribution([0.55, 0.25, 0.15, 0.05]), Hamiltonian([0.0, 0.4, 1.1, 2.0]))
_EXTRACTION_KEYS = ["value_kT", "delta_kT", "eps", "entropy_bits", "bracket_kT", "e_cut",
                    "k_steps", "distribution_mode", "witness_indices", "window_kT"]


class TestCoarsenedResults:
    """A grid that would pass its cap answers "coarsened" with a grid error."""

    def test_wide_grid_coarsens_at_the_default_cap(self):
        eta, h = _FOUR_LEVELS
        proc, _ = extraction_protocol(eta, h, 0.1, e_cut=2000.0)
        wd = work_distribution(proc, eta, resolution=1e-4)
        assert (wd.mode, wd.resolution) == ("coarsened", 2e-4)
        _, n_exact = _exact_prefix(proc, eta, thermo.ATOM_BUDGET)
        n_grid = len(thermo._segments(proc, eta)) - n_exact
        # the snap and every stage but the quench at 1e-4, one merge of 1e-4
        # cells, the quench at 2e-4
        assert wd.grid_error == pytest.approx((n_grid + 4) * 1e-4 / 2, rel=1e-12)
        assert wd.grid_error == pytest.approx(0.0193, rel=1e-12)
        assert wd.to_dict()["grid_error"] == wd.grid_error
        payload = extractable_work(eta, h, 0.1, e_cut=2000.0).to_dict()
        assert list(payload) == _EXTRACTION_KEYS + ["grid_error_kT"]
        assert payload["distribution_mode"] == "coarsened"
        assert payload["grid_error_kT"] == wd.grid_error
        assert payload == extractable_work(eta, h, 0.1, e_cut=2000.0).to_dict()

    def test_correlation_payload_carries_the_grid_error(self):
        joint = JointDistribution([[0.4, 0.1], [0.1, 0.4]])
        payload = work_from_correlation(joint, 0.1, e_cut=2000.0).to_dict()
        assert list(payload) == ["value_kT", "delta_kT", "eps", "entropy_bits", "bracket_kT",
                                 "support_a", "support_b", "distribution_mode", "grid_error_kT"]
        assert payload["distribution_mode"] == "coarsened"
        assert 0.0 < payload["grid_error_kT"] < 1.0

    @pytest.mark.parametrize("delta", [None, 0.1])
    def test_huge_cut_energy_answers_with_a_bracket(self, delta):
        # the quench cost, 1e16 kT, is 1e20 cells of the starting grid: more
        # than an int64 holds
        eta, h = _FOUR_LEVELS
        res = extractable_work(eta, h, 0.1, delta, e_cut=1e16)
        assert res.distribution_mode == "coarsened"
        assert 0.0 < res.grid_error < math.inf
        assert math.isfinite(res.value)
        assert res.value <= res.bracket[1] + res.grid_error
        assert res.to_dict()["grid_error_kT"] == res.grid_error


class TestSortedValues:
    @pytest.mark.parametrize("values", [
        [0.3, -1.0, 2.0, 0.5],
        [0.5, 0.5, -1.0, 0.5, 2.0],
        [0.0, -0.0, 1.0, -0.0, 0.0],
        [-0.0, 0.0],
        [2.0, 1.0, 0.5, -1.0],  # a NaN value, which this row held, is now rejected
        [-1.0, 0.25, 2.0],
        [7.0],
    ])
    def test_matches_the_argsort_path(self, values):
        probs = np.arange(1.0, len(values) + 1.0)
        probs /= probs.sum()
        wd = WorkDistribution(values=np.array(values), probs=probs, mode="exact")
        want_values, want_probs = argsort_atoms(values, probs)
        assert wd.values.tobytes() == want_values.tobytes()
        assert wd.probs.tobytes() == want_probs.tobytes()

    def test_many_ties_match_the_argsort_path(self):
        rng = np.random.default_rng(17)
        for n in (2, 20, 500):
            values = np.round(rng.normal(size=n), 1) * rng.choice([1.0, -1.0], size=n)
            values[rng.random(n) < 0.2] = 0.0 * -1.0
            probs = rng.dirichlet(np.ones(n))
            wd = WorkDistribution(values=values, probs=probs, mode="exact")
            want_values, want_probs = argsort_atoms(values, probs)
            assert wd.values.tobytes() == want_values.tobytes()
            assert wd.probs.tobytes() == want_probs.tobytes()
            for got, want in zip(thermo._gain_cdf(wd, 0.1), loop_gain_cdf(wd, 0.1)):
                assert got.tobytes() == want.tobytes()

    @pytest.mark.parametrize("values", [[-1.0, 0.5, 2.0], [2.0, -1.0, 0.5]])
    def test_values_are_a_copy(self, values):
        values, probs = np.array(values), np.array([0.2, 0.3, 0.5])
        wd = WorkDistribution(values=values, probs=probs, mode="exact")
        stored = wd.values.tobytes(), wd.probs.tobytes()
        values[:] = 9.0
        probs[:] = 1.0 / 3.0
        assert (wd.values.tobytes(), wd.probs.tobytes()) == stored
        assert wd.values.tolist() == [-1.0, 0.5, 2.0]

    @pytest.mark.parametrize("values", [
        [-1.0, 0.5, 0.5, 0.5, 2.0],
        [-0.0, 0.0, 0.0, -0.0, 1.0],
        [3.0, 3.0],
    ])
    def test_gain_cdf_on_ties_matches_the_argsort_path(self, values):
        probs = np.arange(1.0, len(values) + 1.0)
        probs /= probs.sum()
        wd = WorkDistribution(values=np.array(values), probs=probs, mode="exact")
        gains, got_probs, cum, _ = thermo._gain_cdf(wd, 0.1)
        want = loop_gain_cdf(wd, 0.1)
        assert gains.tobytes() == want[0].tobytes()
        assert got_probs.tobytes() == want[1].tobytes()
        assert cum.tobytes() == want[2].tobytes()
