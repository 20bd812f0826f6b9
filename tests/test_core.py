import importlib
import inspect
import math
import pkgutil

import numpy as np
import pytest

import thermocap
from thermocap import core
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
from thermocap.core import (
    DimensionMismatchError,
    DimensionTooLargeError,
    _gibbs_probs,
    _running_sum,
)

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


class TestConstructorArguments:
    # 2.5 raised a bare numpy TypeError, 1.5 as an index a bare IndexError,
    # point_mass(True, 3) "must sum to 1 (got 3.0)", and constant(3, -1)
    # put all mass on the last output
    @pytest.mark.parametrize("dim", [0, -1, 2.5, 2.0, True, "2"])
    def test_bad_dimension_rejected(self, dim):
        for make in (Distribution.uniform, Hamiltonian.degenerate, StochasticChannel.identity,
                     maximally_correlated, StochasticChannel.constant,
                     lambda d: StochasticChannel.constant(2, 0, d),
                     lambda d: Distribution.point_mass(0, d)):
            with pytest.raises(ThermocapError, match=r"(dim|dim_in|dim_out|m) must be an integer >= 1"):
                make(dim)

    @pytest.mark.parametrize("index", [-1, 3, 1.5, 1.0, True, "1"])
    def test_bad_index_rejected(self, index):
        with pytest.raises(ThermocapError, match=r"point mass index must be an integer in 0\.\.2"):
            Distribution.point_mass(index, 3)
        with pytest.raises(ThermocapError, match=r"target must be an integer in 0\.\.2"):
            StochasticChannel.constant(3, index)

    def test_target_ranges_over_the_outputs(self):
        assert StochasticChannel.constant(2, 3, dim_out=4).matrix[3].tolist() == [1.0, 1.0]
        with pytest.raises(ThermocapError, match=r"target must be an integer in 0\.\.1"):
            StochasticChannel.constant(4, 2, dim_out=2)

    def test_numpy_integers_accepted(self):
        two, one = np.int64(2), np.int32(1)
        assert Distribution.uniform(two).probs.tolist() == [0.5, 0.5]
        assert Distribution.point_mass(one, two).probs.tolist() == [0.0, 1.0]
        assert Hamiltonian.degenerate(two).levels.tolist() == [0.0, 0.0]
        assert StochasticChannel.identity(two).matrix.tolist() == [[1.0, 0.0], [0.0, 1.0]]
        assert StochasticChannel.constant(two, one).matrix.tolist() == [[0.0, 0.0], [1.0, 1.0]]
        assert maximally_correlated(two).probs.tolist() == [[0.5, 0.0], [0.0, 0.5]]


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
        # the work pipeline's object-free occupancy must carry the same bits,
        # and so must each row of a stack of Hamiltonians
        for _ in range(200):
            rows = int(rng.choice([1, 2, 9, 40, 801]))
            levels = rng.normal(scale=float(rng.uniform(0.1, 30.0)),
                                size=(rows, int(rng.integers(1, 40))))
            levels[rng.random(levels.shape) < 0.2] = 50.0
            want = gibbs_state(Hamiltonian(levels[0])).probs
            assert _gibbs_probs(levels[0]).tobytes() == want.tobytes()
            for row, lv in zip(_gibbs_probs(levels), levels):
                assert row.tobytes() == _gibbs_probs(lv).tobytes()


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

    def test_dimension_cap_is_read_at_call_time(self, monkeypatch):
        p, ch = Distribution([0.5, 0.5]), StochasticChannel.binary_symmetric(0.1)
        monkeypatch.setattr(core, "DEFAULT_DIM_CAP", 8)
        assert tensor_power(p, 3).dim == 8
        assert tensor_power_channel(ch, 3).dim_in == 8
        with pytest.raises(DimensionTooLargeError, match=r"2\^4 exceeds DEFAULT_DIM_CAP = 8"):
            tensor_power(p, 4)
        with pytest.raises(DimensionTooLargeError, match=r"2\^4 exceeds DEFAULT_DIM_CAP = 8"):
            tensor_power_channel(ch, 4)

    @pytest.mark.parametrize("n", [0, -1, 2.5, 2.0, True, "2", None])
    def test_bad_copy_count_rejected(self, n):
        # 2.5 raised a bare TypeError and True ran as one copy
        with pytest.raises(ThermocapError, match="n must be an integer >= 1"):
            tensor_power(Distribution([0.7, 0.3]), n)
        with pytest.raises(ThermocapError, match="n must be an integer >= 1"):
            tensor_power_channel(StochasticChannel.binary_symmetric(0.1), n)

    def test_numpy_integer_copy_count_accepted(self):
        p, ch = Distribution([0.7, 0.3]), StochasticChannel.binary_symmetric(0.1)
        assert tensor_power(p, np.int64(3)).probs.tobytes() == tensor_power(p, 3).probs.tobytes()
        assert (tensor_power_channel(ch, np.int32(2)).matrix.tobytes()
                == tensor_power_channel(ch, 2).matrix.tobytes())

    def test_channel_factorises_on_products(self, rng):
        ch = random_channel(rng, 2, 3)
        p = random_distribution(rng, 2)
        big = tensor_power_channel(ch, 2).apply(tensor_power(p, 2))
        small = ch.apply(p)
        assert np.allclose(big.probs, np.kron(small.probs, small.probs), atol=1e-12)


class TestRunningSum:
    @pytest.mark.parametrize("n", [0, 1, 7, 1000])
    def test_matches_the_concatenate_form(self, rng, n):
        x = rng.dirichlet(np.ones(n)) if n else np.zeros(0)
        for view in (x, x[::-1], x[::2]):
            want = np.concatenate([[0.0], np.cumsum(view)])
            got = _running_sum(view)
            assert got.dtype == want.dtype
            assert got.tobytes() == want.tobytes()


def _exported_callables():
    """Every public function and class, exceptions aside, that a thermocap
    module defines."""
    for info in pkgutil.iter_modules(thermocap.__path__):
        module = importlib.import_module(f"thermocap.{info.name}")
        for name, obj in vars(module).items():
            if (not name.startswith("_") and callable(obj)
                    and getattr(obj, "__module__", None) == module.__name__
                    and not (isinstance(obj, type) and issubclass(obj, Exception))):
                yield f"{module.__name__}.{name}", obj


def test_search_budgets_are_module_constants():
    # each budget is one constant its module reads at call time, so no
    # exported signature may carry one
    seen = 0
    for qualname, obj in _exported_callables():
        params = inspect.signature(obj).parameters
        bad = [p for p in params
               if "budget" in p or p in ("samples", "max_dim", "max_iter")]
        assert not bad, f"{qualname} takes {bad}"
        seen += 1
    assert seen > 40
