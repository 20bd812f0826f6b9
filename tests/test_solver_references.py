"""The branch-and-bound and the binomial type-class kernel reproduce their
earlier forms (tests/solver_references.py) bit for bit."""
import math

import numpy as np
import pytest

from thermocap import (
    Distribution,
    entropy,
    hypothesis_testing_entropy_iid_binary,
    smoothed_renyi0,
    stein_series,
)

import solver_references as ref


def _pair(rng, kind):
    """A seeded d = 33-256 pair of one kind: independent Dirichlet laws, a
    near-tie (every r/q within about 0.1 % of 1), zero masses in both, or
    runs of identical (p, q) entries."""
    d = int(rng.integers(33, 257))
    p = rng.dirichlet(np.ones(d) * rng.choice([0.2, 1.0, 5.0]))
    q = rng.dirichlet(np.ones(d))
    if kind == "near_tie":
        q = p * np.exp(1e-3 * rng.standard_normal(d))
    elif kind == "zeros":
        p[rng.integers(0, d, size=4)] = 0.0
        q[rng.integers(0, d, size=4)] = 0.0
        q[np.flatnonzero(p)[:2]] += 0.1  # keep p's support coverable
    elif kind == "runs":
        cut = d // 3
        p[:cut], q[:cut] = p[0], q[0]
    return Distribution(p / p.sum()), Distribution(q / q.sum())


def _same_result(got, want):
    assert got.bits == want.bits or (math.isinf(got.bits) and math.isinf(want.bits))
    assert got.witness == want.witness
    assert got.method == want.method
    assert np.array(got.bracket).tobytes() == np.array(want.bracket).tobytes()


class TestBranchAndBound:
    #: budgets that stop the search early (brackets) and one that lets the
    #: non-tie kinds finish
    @pytest.mark.parametrize("budget", [40, 300, None])
    @pytest.mark.parametrize("kind", ["dirichlet", "near_tie", "zeros", "runs"])
    def test_matches_reference(self, monkeypatch, kind, budget):
        if budget is None and kind == "near_tie":
            budget = 5000  # near-ties can spend the whole default budget
        if budget is not None:
            monkeypatch.setattr(entropy, "NODE_BUDGET", budget)
        rng = np.random.default_rng([budget or 0, len(kind), 29])
        methods = set()
        for _ in range(12):
            p, q = _pair(rng, kind)
            eps = float(rng.uniform(0.01, 0.6))
            threshold = entropy._feasibility_threshold(eps)
            got = entropy._branch_and_bound_subset(p.probs, q.probs, threshold)
            want = ref.branch_and_bound_subset(p.probs, q.probs, threshold)
            assert got[0] == want[0]
            assert np.float64(got[1]).tobytes() == np.float64(want[1]).tobytes()
            # and through the public function: bits, witness, method, bracket
            res = smoothed_renyi0(p, q, eps)
            with monkeypatch.context() as patch:
                patch.setattr(entropy, "_branch_and_bound_subset", ref.branch_and_bound_subset)
                _same_result(res, smoothed_renyi0(p, q, eps))
            methods.add(res.method)
        if budget in (40, 300):
            assert "node_budget_bracket" in methods

    def test_infeasible_raises_alike(self):
        p = Distribution(np.full(40, 1 / 40))
        for fn in (entropy._branch_and_bound_subset, ref.branch_and_bound_subset):
            with pytest.raises(entropy.ThermocapError):
                fn(p.probs, p.probs, 1.5)


#: binary laws (p0, p1), zero-probability symbols included
LAWS = [(0.7, 0.3), (0.5, 0.5), (0.3, 0.7), (0.0, 1.0), (1.0, 0.0), (1e-20, 1.0),
        (0.999, 0.001), (0.4, 0.6), (0.4 + 1e-15, 0.6 - 1e-15)]
NS = [1, 2, 3, 7, 31, 32, 33, 200, 1000, 2154, 10_000]


class TestTypeClassKernel:
    @pytest.mark.parametrize("p", LAWS)
    def test_matches_reference(self, p):
        rng = np.random.default_rng([int(p[1] * 1000), 29])
        table = entropy._log_factorials(NS[-1])
        for q in LAWS:
            if (p[0] > 0 and q[0] == 0) or (p[1] > 0 and q[1] == 0):
                continue  # support(p) must lie inside support(q)
            logs_p, logs_q = entropy._log_probs(*p), entropy._log_probs(*q)
            for n in NS:
                for eps in (0.01, 0.5, float(rng.uniform(0.001, 0.999)), 1e-16, 1.0 - 1e-16):
                    got = entropy._iid_binary_bits(logs_p, logs_q, eps, n, table)
                    want = ref.iid_binary_bits(logs_p, logs_q, eps, n, table)
                    assert np.float64(got).tobytes() == np.float64(want).tobytes(), (q, n, eps)

    @pytest.mark.parametrize("n", [2, 200, 10_000])
    def test_ties_take_the_sort(self, n):
        # p = q ties every class; a zero symbol in p leaves +inf classes: both
        # order the classes by the permutation, not a slice
        for p, q in (((0.4, 0.6), (0.4, 0.6)), ((0.0, 1.0), (0.3, 0.7)), ((1.0, 0.0), (0.5, 0.5))):
            logs_p, logs_q = entropy._log_probs(*p), entropy._log_probs(*q)
            k = np.arange(n + 1)
            log_ratio = k * (logs_q[1] - logs_p[1] if p[1] > 0 else 0.0)
            log_ratio[:n] += k[::-1][:n] * (logs_q[0] - logs_p[0] if p[0] > 0 else 0.0)
            log_ratio[np.isneginf(entropy._log_law(entropy._log_binomial(
                entropy._log_factorials(n), n), *logs_p))] = np.inf
            assert not isinstance(entropy._class_order(log_ratio), slice)
            table = entropy._log_factorials(n)
            for eps in (0.01, 0.3, 0.9):
                got = entropy._iid_binary_bits(logs_p, logs_q, eps, n, table)
                want = ref.iid_binary_bits(logs_p, logs_q, eps, n, table)
                assert np.float64(got).tobytes() == np.float64(want).tobytes()

    def test_stein_points_match_reference(self):
        rng = np.random.default_rng(29)
        for n_max in (1000, 10_000):
            p1, q1 = rng.uniform(0.05, 0.95, size=2)
            p, q = Distribution([1 - p1, p1]), Distribution([1 - q1, q1])
            logs_p, logs_q = entropy._log_probs(1 - p1, p1), entropy._log_probs(1 - q1, q1)
            table = entropy._log_factorials(n_max)
            for n, value in stein_series(p, q, 0.1, n_max).points:
                assert value == ref.iid_binary_bits(logs_p, logs_q, 0.1, n, table) / n
                assert value == hypothesis_testing_entropy_iid_binary(p, q, 0.1, n) / n


class TestLogFactorialTable:
    def test_grows_prefix_stable_and_read_only(self, monkeypatch):
        fresh = {}
        for n in (0, 5, 31, 32, 33, 100, 10_000):
            monkeypatch.setattr(entropy, "_log_fact_table", entropy._LOG_FACT_SMALL)
            fresh[n] = entropy._log_factorials(n).copy()
        monkeypatch.setattr(entropy, "_log_fact_table", entropy._LOG_FACT_SMALL)
        for n in (33, 10_000, 100, 0):  # grows, then slices
            table = entropy._log_factorials(n)
            assert not table.flags.writeable
            assert table.tobytes() == fresh[n].tobytes()
        assert entropy._log_fact_table.size == 10_001

    def test_keeps_no_table_past_the_cap(self, monkeypatch):
        monkeypatch.setattr(entropy, "_log_fact_table", entropy._LOG_FACT_SMALL)
        monkeypatch.setattr(entropy, "_LOG_FACT_KEEP", 1000)
        assert entropy._log_factorials(1000).size == 1001
        assert entropy._log_fact_table.size == 32
        entropy._log_factorials(998)
        assert entropy._log_fact_table.size == 999
