import itertools
import math

import numpy as np
import pytest

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
    SUCCESS_TOL,
    _codebook_batches,
    _feasible,
    _ml_composed,
    _ml_success,
    _search_exact,
    _uniform_deviation,
)
from thermocap.core import (
    DimensionMismatchError,
    SearchSpaceTooLargeError,
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
            hits = hits[_uniform_deviation(_ml_composed(cols[hits])) <= 2.0 * theta + SUCCESS_TOL]
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

    def test_budget_error_and_randomized_bracket(self, rng, monkeypatch):
        ch = random_channel(rng, 12, 12)
        with monkeypatch.context() as patch:
            patch.setattr(coding, "CODEBOOK_BUDGET", 10)
            with pytest.raises(SearchSpaceTooLargeError):
                one_shot_capacity(ch, 0.3)
        monkeypatch.setattr(coding, "SAMPLE_BUDGET", 500)
        res = one_shot_capacity(ch, 0.3, randomized=True, seed=1)
        assert not res.exact
        exact = one_shot_capacity(ch, 0.3)
        assert res.bits <= exact.bits + 1e-12

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

    def test_sample_budget_limits_and_numpy_integers_accepted(self, monkeypatch):
        ch = StochasticChannel.identity(3)
        # no draw at all leaves the one-message codebook
        monkeypatch.setattr(coding, "SAMPLE_BUDGET", 0)
        assert one_shot_capacity(ch, 0.1, randomized=True).bits == 0.0
        monkeypatch.setattr(coding, "SAMPLE_BUDGET", 50)
        want = one_shot_capacity(ch, 0.1, randomized=True, seed=2)
        monkeypatch.setattr(coding, "SAMPLE_BUDGET", np.int32(50))
        got = one_shot_capacity(ch, 0.1, randomized=True, seed=2)
        assert got == want

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
        ch = random_channel(np.random.default_rng(2), 6, 4)
        seen = [tuple(c) for combos, _ in _codebook_batches(ch, [4, 2], batch=4)
                for c in combos.tolist()]
        expected = (list(itertools.combinations(range(6), 4))
                    + list(itertools.combinations(range(6), 2)))
        assert seen == expected

    def test_budget_covers_every_size(self, monkeypatch):
        ch = StochasticChannel.identity(5)
        monkeypatch.setattr(coding, "CODEBOOK_BUDGET", 30)
        with pytest.raises(SearchSpaceTooLargeError, match="CODEBOOK_BUDGET = 30"):
            next(_codebook_batches(ch, range(1, 6)))
        monkeypatch.setattr(coding, "CODEBOOK_BUDGET", 31)
        assert sum(len(c) for c, _ in _codebook_batches(ch, range(1, 6))) == 31

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
        # Dirichlet(0.2) columns are sparse, so the bounds prune hard and a
        # pruning slip would change the codebook
        rng = np.random.default_rng(2024)
        for _ in range(30):
            dim_in = int(rng.integers(10, 15))
            ch = StochasticChannel(rng.dirichlet(np.full(dim_in, 0.2), size=dim_in).T)
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
        # 474 nodes when this ceiling was set; a full walk in the same order
        # scores 63,111 codebooks up to this one
        assert nodes <= 600

    def test_node_ceiling_bsc4(self):
        ch = tensor_power_channel(StochasticChannel.binary_symmetric(0.035), 4)
        cb, nodes = _search_exact(ch, 0.1, 16)
        assert cb.inputs == tuple(range(7))
        # 12,610 nodes when this ceiling was set
        assert nodes <= 16_000

    def test_unreachable_sizes_cost_one_node_each(self):
        # a constant channel has success at most 1/M, so the cover-all bound
        # at the root refutes every M >= 2
        cb, nodes = _search_exact(StochasticChannel.constant(12), 0.1, 12)
        assert cb.inputs == (0,)
        assert nodes == 11 + 1 + 12

    def test_budget_counts_every_size(self, monkeypatch):
        # the search raises on exactly the enumeration's budget: 2^12 - 1
        ch = StochasticChannel.identity(12)
        monkeypatch.setattr(coding, "CODEBOOK_BUDGET", 4094)
        with pytest.raises(SearchSpaceTooLargeError,
                           match="4095 codebooks exceed CODEBOOK_BUDGET = 4094"):
            one_shot_capacity(ch, 0.1)
        monkeypatch.setattr(coding, "CODEBOOK_BUDGET", 4095)
        assert one_shot_capacity(ch, 0.1).bits == math.log2(12)
