import inspect
import itertools
import math
import tracemalloc

import numpy as np
import pytest
from scipy.optimize import linprog

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
from thermocap import coding
from thermocap.coding import (
    CapacityResult,
    _codebook_batches,
    _converse,
    _feasible,
    _ml_composed,
    _ml_success,
    _search_exact,
    _uniform_deviation,
)
from thermocap.core import (
    MASS_SLACK,
    DimensionMismatchError,
    ThermocapError,
    tensor_power_channel,
)

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


def first_feasible_reference(ch, eps, theta=None):
    """M descending, combinations in lexicographic order: the first codebook
    whose classical version meets the success (and, with theta, the uniform
    deviation) constraint."""
    for m in range(ch.dim_in, 0, -1):
        for combo in itertools.combinations(range(ch.dim_in), m):
            cv = classical_version(ch, _codebook(ch, combo))
            if (success_probability(cv) >= 1.0 - eps - 1e-12
                    and (theta is None or gibbs_deviation(cv) <= 2.0 * theta + 1e-12)):
                return combo
    return None


def first_feasible_enumerated(ch, eps, theta=None):
    """The same order walked with the batched enumerator and `_feasible`,
    with theta given also filtered by the uniform deviation of each
    codebook's classical version."""
    for combos, cols in _codebook_batches(ch, range(ch.dim_in, 0, -1)):
        hits = _feasible(cols, eps)
        if theta is not None:
            hits = hits[_uniform_deviation(_ml_composed(cols[hits])) <= 2.0 * theta + MASS_SLACK]
        if hits.size:
            return tuple(combos[hits[0]].tolist())
    return None


def tie_heavy_cases():
    """(channel, eps) pairs whose codebooks tie in success probability."""
    bsc3 = tensor_power_channel(StochasticChannel.binary_symmetric(0.1), 3)
    dup = random_channel(np.random.default_rng(5), 4, 5).matrix
    return [
        (bsc3, 0.1),
        (bsc3, 0.2),
        (StochasticChannel(dup[:, [0, 1, 1, 2, 3, 0, 2]]), 0.2),
        (StochasticChannel.identity(6), 0.0),
        (StochasticChannel.constant(5), 0.1),
        (StochasticChannel.constant(5), 0.6),
    ]


def theta_cases():
    """(channel, eps) pairs with 0 < eps < 1/2: seeded random channels, and
    channels with entries in sixteenths where a 2- or 4-message codebook has
    success exactly 1 - eps.  On the Z channels, whose one leaky input leaks
    k/16 to another input's output, the deviation is exactly 2 * eps too."""
    rng = np.random.default_rng(31)
    cases = [(random_channel(rng, d_in, d_out), float(rng.uniform(0.05, 0.45)))
             for d_in, d_out in [(3, 3), (4, 4), (5, 3), (4, 6), (6, 6), (7, 4)]]
    for d, k in [(2, 1), (2, 5), (2, 15), (4, 3), (4, 16)]:
        mat = np.eye(d)
        mat[0, -1], mat[-1, -1] = k / 16, 1.0 - k / 16
        cases.append((StochasticChannel(mat), k / (16 * d)))
    while len(cases) < 24:
        d_in, d_out = (int(x) for x in rng.integers(2, 7, size=2))
        mat = np.array([rng.multinomial(16, np.ones(d_out) / d_out) for _ in range(d_in)]).T / 16
        ch = StochasticChannel(mat)
        m = int(rng.choice([2, 4]))
        if m > d_in:
            continue
        inputs = tuple(sorted(rng.choice(d_in, size=m, replace=False).tolist()))
        eps = 1.0 - float(_ml_success(ch.matrix.T[np.array([inputs])])[0])
        if 0.0 < eps < 0.5:
            cases.append((ch, eps))
    return cases


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


class TestCodebookDecoder:
    @pytest.mark.parametrize("decoder", [(0.5, 1), (True, 0), (0, 2), (-1, 0), (0, "1")])
    def test_entries_must_be_message_indices(self, decoder):
        # (0.5, 1) used to pass and then fail in classical_version with a
        # bare IndexError; (True, 0) ran as message 1
        with pytest.raises(ThermocapError, match=r"message indices 0\.\.1"):
            Codebook(inputs=(0, 1), decoder=decoder)

    def test_numpy_integer_entries_accepted(self):
        ch = StochasticChannel([[0.9, 0.2, 0.0], [0.1, 0.8, 1.0]])
        cb = Codebook(inputs=(0, 1), decoder=tuple(np.array([0, 1])))
        want = classical_version(ch, Codebook(inputs=(0, 1), decoder=(0, 1)))
        assert np.array_equal(classical_version(ch, cb).matrix, want.matrix)


class TestCodebookAgainstChannel:
    # three inputs, two outputs: symbol -1 used to wrap round to symbol 2
    # (success 0.95, the value of inputs (2, 0)), symbol 5 and a long
    # decoder raised a bare IndexError, and a short decoder "channel columns
    # must sum to 1"
    CH = StochasticChannel([[0.9, 0.2, 0.0], [0.1, 0.8, 1.0]])

    @pytest.mark.parametrize("inputs", [(-1, 0), (0, 5), (0, 3), (0, 1.0), (True, 0)])
    def test_symbols_outside_the_input_alphabet_rejected(self, inputs):
        with pytest.raises(DimensionMismatchError, match=r"integers in 0\.\.2"):
            ml_decoder(self.CH, inputs)
        with pytest.raises(DimensionMismatchError, match=r"integers in 0\.\.2"):
            classical_version(self.CH, Codebook(inputs=inputs, decoder=(0, 1)))

    @pytest.mark.parametrize("decoder", [(0,), (0, 1, 0)])
    def test_decoder_length_must_match_the_outputs(self, decoder):
        with pytest.raises(DimensionMismatchError, match=f"decoder has {len(decoder)} entries"):
            classical_version(self.CH, Codebook(inputs=(0, 1), decoder=decoder))

    def test_numpy_integer_symbols_accepted(self):
        inputs = np.array([2, 0])
        assert ml_decoder(self.CH, inputs) == ml_decoder(self.CH, (2, 0)) == (1, 0)
        cv = classical_version(self.CH, Codebook(inputs=tuple(inputs), decoder=(1, 0)))
        assert success_probability(cv) == 0.95

    def test_one_channel_built(self, monkeypatch):
        built = []

        def counting(matrix):
            built.append(matrix)
            return StochasticChannel(matrix)

        monkeypatch.setattr(coding, "StochasticChannel", counting)
        cv = classical_version(self.CH, Codebook(inputs=(2, 0), decoder=(1, 0)))
        assert len(built) == 1
        assert isinstance(cv, StochasticChannel) and cv.matrix.shape == (2, 2)


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

    def test_node_budget_gives_a_seedless_lower_bracket(self, monkeypatch):
        # exact M = 3 in 18 nodes; one node fewer stops the search, and greedy
        # plus swaps finds only 2 messages: a labelled lower bracket
        ch = StochasticChannel(np.random.default_rng(21).dirichlet(np.full(6, 0.5), size=6).T)
        exact = one_shot_capacity(ch, 0.3)
        assert (exact.exact, exact.method, exact.codebook.message_count) == (True, "exhaustive", 3)
        monkeypatch.setattr(coding, "NODE_BUDGET", 17)
        res = one_shot_capacity(ch, 0.3)
        assert (res.exact, res.method) == (False, "greedy_swap")
        assert res.bits == 1.0 < exact.bits
        assert success_probability(classical_version(ch, res.codebook)) >= 0.7 - MASS_SLACK
        assert res.codebook.decoder == ml_decoder(ch, res.codebook.inputs)
        # no seed to pick, and numpy's global generator does not move it
        for search in (one_shot_capacity, theta_equilibrium_capacity):
            assert not {"seed", "randomized"} & set(inspect.signature(search).parameters)
        np.random.seed(5)
        assert one_shot_capacity(ch, 0.3) == res == theta_equilibrium_capacity(ch, 0.3, 0.4)

    @pytest.mark.parametrize("ch", enumeration_channels())
    def test_first_feasible_codebook_in_search_order(self, ch):
        for eps in (0.0, 0.1, 0.2, 0.3):
            expected = first_feasible_reference(ch, eps)
            assert one_shot_capacity(ch, eps).codebook.inputs == expected

    @pytest.mark.parametrize("ch, eps", tie_heavy_cases())
    def test_first_feasible_codebook_under_ties(self, ch, eps):
        res = one_shot_capacity(ch, eps)
        assert res.codebook.inputs == first_feasible_reference(ch, eps)
        assert res.codebook.decoder == ml_decoder(ch, res.codebook.inputs)

    @pytest.mark.parametrize("max_messages", [2.5, 2.0, "2", True])
    def test_non_integral_max_messages_rejected(self, max_messages):
        with pytest.raises(ThermocapError, match="max_messages"):
            one_shot_capacity(StochasticChannel.identity(4), 0.1, max_messages=max_messages)

    def test_numpy_integer_max_messages_accepted(self):
        ch = StochasticChannel.identity(4)
        assert one_shot_capacity(ch, 0.1, max_messages=np.int64(2)).bits == 1.0

    def test_node_budget_limits_and_numpy_integers_accepted(self, monkeypatch):
        ch = StochasticChannel.identity(3)
        # no node to spend: the greedy codebook is the answer, tight here
        # but not certified
        monkeypatch.setattr(coding, "NODE_BUDGET", 0)
        res = one_shot_capacity(ch, 0.1)
        assert (res.bits, res.exact, res.method) == (math.log2(3), False, "greedy_swap")
        monkeypatch.setattr(coding, "NODE_BUDGET", np.int32(4))
        got = one_shot_capacity(ch, 0.1)
        assert got == CapacityResult(res.bits, res.codebook, True, "exhaustive")
        assert got.exact is True

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

    @pytest.mark.parametrize("ch, eps", theta_cases())
    def test_same_result_as_one_shot_capacity(self, ch, eps):
        # for 0 < eps <= theta < 1/2 the theta condition never binds: an ML
        # codebook's deviation is at most 2 (1 - success) <= 2 eps, and the
        # theta-aware enumeration agrees with the unconstrained search
        plain = one_shot_capacity(ch, eps)
        for theta in (eps, (eps + 0.49) / 2.0, 0.49):
            assert theta_equilibrium_capacity(ch, eps, theta) == plain
            assert first_feasible_enumerated(ch, eps, theta) == plain.codebook.inputs

    def test_z_channels_sit_on_the_boundary(self):
        # success exactly 1 - eps and deviation exactly 2 * eps: the bound is
        # attained, and theta = eps admits the codebook with no slack
        hits = 0
        for ch, eps in theta_cases():
            cv = classical_version(ch, one_shot_capacity(ch, eps).codebook)
            hits += success_probability(cv) == 1.0 - eps and gibbs_deviation(cv) == 2.0 * eps
        assert hits >= 5

    @pytest.mark.parametrize("ch", enumeration_channels())
    def test_first_feasible_codebook_in_search_order(self, ch):
        # the first codebook that meets both constraints wins
        for eps, theta in [(0.1, 0.1), (0.2, 0.25), (0.3, 0.45)]:
            expected = first_feasible_reference(ch, eps, theta)
            assert theta_equilibrium_capacity(ch, eps, theta).codebook.inputs == expected


class TestBatchedEnumerator:
    def test_lexicographic_order_in_batches(self):
        # C(15, 7) = 6435 codebooks span two batches of at most 4096
        ch = random_channel(np.random.default_rng(2), 15, 3)
        batches = list(_codebook_batches(ch, [7, 2]))
        assert [len(combos) for combos, _ in batches] == [4096, 6435 - 4096, 105]
        seen = [tuple(c) for combos, _ in batches for c in combos.tolist()]
        expected = (list(itertools.combinations(range(15), 7))
                    + list(itertools.combinations(range(15), 2)))
        assert seen == expected

    def test_budget_covers_every_size(self, monkeypatch):
        # identity(5) has 5, 10, 10, 5, 1 codebooks of sizes 1..5: the walk
        # takes the sizes in the given order, and whole, while the running
        # count stays within the budget, and stops before the first past it
        ch = StochasticChannel.identity(5)
        for budget, sizes, walked in [(31, range(1, 6), [1, 2, 3, 4, 5]),
                                      (30, range(1, 6), [1, 2, 3, 4]),
                                      (24, range(1, 6), [1, 2]),
                                      (4, range(1, 6), []),
                                      (6, [5, 1, 2, 3], [5, 1])]:
            monkeypatch.setattr(coding, "CODEBOOK_BUDGET", budget)
            batches = list(_codebook_batches(ch, sizes))
            assert [c.shape[1] for c, _ in batches] == walked
            assert sum(len(c) for c, _ in batches) == sum(math.comb(5, m) for m in walked)

    @pytest.mark.parametrize("ch", enumeration_channels())
    def test_helpers_match_classical_version(self, ch):
        for combos, cols in _codebook_batches(ch, range(1, ch.dim_in + 1)):
            ps = _ml_success(cols)
            t = _ml_composed(cols)
            deviation = _uniform_deviation(t)
            for b, combo in enumerate(combos.tolist()):
                cv = classical_version(ch, _codebook(ch, combo))
                assert abs(ps[b] - success_probability(cv)) <= 1e-12
                assert np.array_equal(t[b], cv.matrix)
                assert abs(deviation[b] - gibbs_deviation(cv)) <= 1e-12


class TestBranchAndBound:
    @pytest.mark.parametrize("theta", [None, 0.25])
    def test_matches_enumeration_on_dirichlet_channels(self, theta):
        # Dirichlet(0.2) columns are sparse, so the bound prunes hard and a
        # pruning slip would change the codebook; the last ten channels repeat
        # columns exactly (drawn with replacement from dim_in // 2), so whole
        # subtrees tie and the converse's cover-all level is at its tightest
        rng = np.random.default_rng(2024)
        for trial in range(40):
            dim_in = int(rng.integers(10, 15))
            if trial < 30:
                ch = StochasticChannel(rng.dirichlet(np.full(dim_in, 0.2), size=dim_in).T)
            else:
                distinct = rng.dirichlet(np.full(dim_in, 0.2), size=dim_in // 2).T
                ch = StochasticChannel(distinct[:, rng.integers(0, dim_in // 2, size=dim_in)])
            eps = float(rng.choice([0.05, 0.1, 0.2]))
            if theta is None:
                cb, _ = _search_exact(ch, eps, dim_in)
            else:
                cb = theta_equilibrium_capacity(ch, eps, theta).codebook
            assert cb.inputs == first_feasible_enumerated(ch, eps, theta)
            assert cb.decoder == ml_decoder(ch, cb.inputs)

    def test_node_ceiling_dirichlet_d16(self):
        rng = np.random.default_rng(1)
        ch = StochasticChannel(rng.dirichlet(np.full(16, 0.2), size=16).T)
        cb, nodes = _search_exact(ch, 0.1, 16)
        assert cb.inputs == (0, 2, 3, 4)
        # 304 nodes since the converse refutes sizes up front (474 before);
        # a full walk in the same order scores 63,111 codebooks up to this one
        assert nodes <= 400

    def test_node_ceiling_bsc4(self):
        ch = tensor_power_channel(StochasticChannel.binary_symmetric(0.035), 4)
        cb, nodes = _search_exact(ch, 0.1, 16)
        assert cb.inputs == tuple(range(7))
        # 80 nodes since the converse refutes M = 8..16 up front (12,610 before)
        assert nodes <= 100

    def test_unreachable_sizes_cost_one_node_each(self):
        # a constant channel has success at most 1/M, so the cover-all bound
        # (the converse at v = the row maxima) refutes every M >= 2
        cb, nodes = _search_exact(StochasticChannel.constant(12), 0.1, 12)
        assert cb.inputs == (0,)
        assert nodes == 11 + 1 + 12

    def test_size_the_converse_refutes_costs_one_node(self):
        # on BSC(0.035)^4 at eps 0.1 the cover-all bound sum_y max_x W(y|x)
        # = 16 * 0.965^4 = 13.87 reaches M (1 - eps) for M <= 15, but the
        # converse refutes M = 8..15: each costs its root alone
        ch = tensor_power_channel(StochasticChannel.binary_symmetric(0.035), 4)
        cover_all = ch.matrix.max(axis=1).sum()
        assert all(cover_all >= 0.9 * m for m in range(8, 16))
        assert all(_converse(ch, 16)[8:] < 0.9 * np.arange(8, 17))
        cb, nodes = _search_exact(ch, 0.1, 16)
        cb7, nodes7 = _search_exact(ch, 0.1, 7)
        assert cb == cb7
        assert nodes == nodes7 + 9

    @pytest.mark.parametrize("n, eps", [(1, 0.1), (2, 0.1), (2, 0.2), (3, 0.1), (3, 0.2),
                                        (4, 0.1), (4, 0.2)])
    def test_matches_enumeration_near_bsc_flips(self, n, eps):
        # bisect the flip probability where the searched M changes, to within
        # 1e-10, and compare with the enumeration on both sides: agreement
        # there means the enumeration's M changes in between too
        def search(f):
            ch = tensor_power_channel(StochasticChannel.binary_symmetric(f), n)
            return ch, _search_exact(ch, eps, ch.dim_in)[0]

        grid = np.linspace(0.005, 0.3, 10)
        sizes = [search(f)[1].message_count for f in grid]
        edges = 0
        for lo, hi, s_lo, s_hi in zip(grid, grid[1:], sizes, sizes[1:]):
            if s_lo == s_hi:
                continue
            while hi - lo > 1e-10:
                mid = (lo + hi) / 2.0
                lo, hi = (mid, hi) if search(mid)[1].message_count == s_lo else (lo, mid)
            for f in (lo, hi):
                ch, cb = search(f)
                assert cb.inputs == first_feasible_enumerated(ch, eps)
                assert cb.decoder == ml_decoder(ch, cb.inputs)
            edges += 1
        assert edges >= 1

    def test_matches_enumeration_on_the_dyadic_boundary(self):
        # entries in sixteenths and eps = 1 - the success of some codebook of
        # M >= 2 symbols: the best M-codebook meets 1 - eps exactly (or
        # within MASS_SLACK), where the converse can equal M (1 - eps) and
        # only the rounding slack keeps it from refuting M
        rng = np.random.default_rng(77)
        on_boundary = 0
        for _ in range(120):
            d_in, d_out = (int(x) for x in rng.integers(2, 8, size=2))
            mat = np.array([rng.multinomial(16, np.ones(d_out) / d_out)
                            for _ in range(d_in)]).T / 16
            ch = StochasticChannel(mat)
            m = int(rng.integers(2, d_in + 1))
            combo = np.sort(rng.choice(d_in, size=m, replace=False))
            success = float(_ml_success(ch.matrix.T[combo][None])[0])
            for eps in (1.0 - success, 1.0 - success - MASS_SLACK):
                eps = max(eps, 0.0)
                cb, _ = _search_exact(ch, eps, d_in)
                assert cb.inputs == first_feasible_enumerated(ch, eps)
                assert cb.decoder == ml_decoder(ch, cb.inputs)
                best = _ml_success(ch.matrix.T[np.array([cb.inputs])])[0]
                on_boundary += cb.message_count == m and best == success
        assert on_boundary >= 40

    def test_matches_enumeration_when_the_target_is_a_codebook_success(self):
        # eps nudged so that the leaf target (1 - eps) - MASS_SLACK is some
        # codebook's computed success: that codebook passes with no slack,
        # and the converse, summed in another order, may sit an ulp below
        # M times it; the rounding slack keeps such an M from being refuted
        rng = np.random.default_rng(5)
        chans = [tensor_power_channel(StochasticChannel.binary_symmetric(f), n)
                 for n in (1, 2, 3) for f in rng.uniform(0.01, 0.2, 12)]
        chans += [StochasticChannel(rng.dirichlet(np.full(d_out, alpha), size=d_in).T)
                  for alpha in (0.2, 1.0) for d_in, d_out in [(4, 4), (6, 5), (8, 3)]
                  for _ in range(6)]
        hit = 0
        for ch in chans:
            for m in range(2, ch.dim_in + 1):
                combo = np.sort(rng.choice(ch.dim_in, size=m, replace=False))
                success = float(_ml_success(ch.matrix.T[combo][None])[0])
                eps = 1.0 - success - MASS_SLACK
                for _ in range(64):
                    target = (1.0 - eps) - MASS_SLACK
                    if target == success:
                        break
                    eps = float(np.nextafter(eps, 1.0 if target > success else 0.0))
                else:
                    continue
                cb, _ = _search_exact(ch, eps, ch.dim_in)
                assert cb.inputs == first_feasible_enumerated(ch, eps)
                hit += 1
        assert hit >= 150

    def test_budget_counts_every_size(self, monkeypatch):
        # 80 nodes on BSC(0.035)^4 at eps 0.1, 9 of them the roots of the
        # sizes the converse refutes: a budget of 80 keeps the search exact
        ch = tensor_power_channel(StochasticChannel.binary_symmetric(0.035), 4)
        cb, nodes = _search_exact(ch, 0.1, 16)
        monkeypatch.setattr(coding, "NODE_BUDGET", nodes)
        assert one_shot_capacity(ch, 0.1) == CapacityResult(math.log2(7), cb, True, "exhaustive")
        monkeypatch.setattr(coding, "NODE_BUDGET", nodes - 1)
        assert not one_shot_capacity(ch, 0.1).exact


def _peak_bytes(call):
    tracemalloc.start()
    try:
        call()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


class TestSearchMemory:
    def test_single_message_search_builds_no_converse(self):
        # max_messages=1 visits no size the converse serves: the leaf batch
        # (the 2000 x 1 x 2000 likelihoods and their row maxima) sets the peak,
        # where one converse table over every order statistic would take 64 GB
        ch = StochasticChannel.identity(2000)
        peak = _peak_bytes(lambda: one_shot_capacity(ch, 0.1, max_messages=1))
        assert peak < 3.5 * ch.matrix.nbytes

    def test_interior_nodes_and_converse_stay_within_a_few_matrices(self):
        # the root's 299 children once took one 299 x 300 x 300 gains table
        # (432 MB for a 0.7 MB matrix); both the gains and the converse are
        # now built in slices of one matrix each
        ch = StochasticChannel.identity(300)
        peak = _peak_bytes(lambda: one_shot_capacity(ch, 0.1, max_messages=2))
        assert peak < 8 * ch.matrix.nbytes

    def test_gain_slices_keep_their_bits(self, monkeypatch):
        # one child or order statistic per slice gives the same search
        rng = np.random.default_rng(3)
        chans = [StochasticChannel(rng.dirichlet(np.full(d, 0.3), size=d).T) for d in (9, 12, 14)]
        chans.append(tensor_power_channel(StochasticChannel.binary_symmetric(0.05), 3))
        want = [(_search_exact(ch, 0.1, ch.dim_in), _converse(ch, ch.dim_in)) for ch in chans]
        chunked = coding._gain_chunks

        def one_per_slice(rows, levels):
            for i in range(len(levels)):
                (_, g), = chunked(rows, levels[i:i + 1])
                yield slice(i, i + 1), g

        monkeypatch.setattr(coding, "_gain_chunks", one_per_slice)
        for ch, (search, bound) in zip(chans, want):
            assert _search_exact(ch, 0.1, ch.dim_in) == search
            assert np.array_equal(_converse(ch, ch.dim_in), bound)


def _best_success_per_size(ch):
    """best[m]: the largest ML success over codebooks of m distinct symbols."""
    best = np.zeros(ch.dim_in + 1)
    for combos, cols in _codebook_batches(ch, range(1, ch.dim_in + 1)):
        m = combos.shape[1]
        best[m] = max(best[m], _ml_success(cols).max())
    return best


def _ns_success(ch, m):
    """The best success of an m-message non-signalling code (Matthews 2012):
    max sum_{x,y} W(y|x) r_xy over p, r >= 0 with sum_x p_x = 1,
    r_xy <= p_x and sum_x r_xy <= 1/m, solved by scipy's HiGHS."""
    n, d = ch.dim_in, ch.dim_out
    # variables: p (n), then r[x, y] row-major (n * d)
    cost = np.concatenate([np.zeros(n), -ch.matrix.T.ravel()])
    r_below_p = np.hstack([-np.repeat(np.eye(n), d, axis=0), np.eye(n * d)])
    per_output = np.hstack([np.zeros((d, n)), np.tile(np.eye(d), n)])
    res = linprog(cost, A_ub=np.vstack([r_below_p, per_output]),
                  b_ub=np.concatenate([np.zeros(n * d), np.full(d, 1.0 / m)]),
                  A_eq=np.concatenate([np.ones(n), np.zeros(n * d)])[None], b_eq=[1.0],
                  bounds=(0, None), method="highs")
    assert res.status == 0
    return -res.fun


def converse_channels():
    """Seeded sparse (Dirichlet 0.2) and dense channels, channels with
    entries in sixteenths, and BSC^n for n = 1..4."""
    rng = np.random.default_rng(4)
    chans = [StochasticChannel(rng.dirichlet(np.full(d_out, alpha), size=d_in).T)
             for alpha in (0.2, 1.0) for d_in, d_out in [(3, 5), (6, 4), (8, 8), (10, 6)]]
    for d_in, d_out in [(4, 4), (6, 3), (7, 7)]:
        chans.append(StochasticChannel(np.array(
            [rng.multinomial(16, np.ones(d_out) / d_out) for _ in range(d_in)]).T / 16))
    chans += [tensor_power_channel(StochasticChannel.binary_symmetric(f), n)
              for n, f in [(1, 0.1), (2, 0.05), (3, 0.1), (4, 0.035)]]
    return chans


class TestConverse:
    @pytest.mark.parametrize("ch", converse_channels())
    def test_never_below_the_best_codebook(self, ch):
        bound = _converse(ch, ch.dim_in)
        best = _best_success_per_size(ch)
        for m in range(1, ch.dim_in + 1):
            assert bound[m] >= m * best[m] - 1e-12 * m

    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_equals_the_ns_lp_on_bsc_powers(self, n):
        # BSC^n is symmetric, so the best v is constant over the outputs and
        # sits at one of the entries: the order statistics reach the LP value
        ch = tensor_power_channel(StochasticChannel.binary_symmetric(0.1), n)
        bound = _converse(ch, ch.dim_in)
        for m in range(1, ch.dim_in + 1):
            assert abs(bound[m] / m - _ns_success(ch, m)) <= 1e-7

    def test_exact_past_the_old_codebook_count(self):
        # 2^32 - 1 codebooks, which the up-front count once refused: the
        # search is exact in 844 nodes, and the non-signalling LP refutes M = 8
        ch = tensor_power_channel(StochasticChannel.binary_symmetric(0.1), 5)
        res = one_shot_capacity(ch, 0.2)
        assert (res.exact, res.codebook.message_count) == (True, 7)
        assert _search_exact(ch, 0.2, 32)[1] <= 1000
        assert _ns_success(ch, 8) < 0.8 - 1e-6

    def test_computed_only_for_searched_sizes(self):
        assert np.all(np.isinf(_converse(StochasticChannel.identity(5), 1)))
        bound = _converse(StochasticChannel.identity(5), 3)
        # v = 0 from j = 2 on: success <= 1, below the cover-all bound 5
        assert np.isinf(bound[0]) and list(bound[1:]) == [1.0, 2.0, 3.0]
