"""Desk-scale asymptotic experiments.

Everything here reports one-sided or bracketed evidence: exact oracles run
where the dimensions allow it, and anything beyond the module budgets is
labelled as a bracket rather than silently trusted.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .coding import (
    _codebook_batches,
    _ml_composed,
    _uniform_deviation,
    one_shot_capacity,
)
from .core import (
    _count,
    DimensionMismatchError,
    Distribution,
    StochasticChannel,
    ThermocapError,
    tensor_power_channel,
)
from .entropy import (
    _binary_laws,
    _iid_binary_bits,
    _log_factorials,
    relative_entropy,
)

#: alternating-maximisation steps shannon_capacity takes before it returns an open bracket
ITERATION_BUDGET = 200_000
#: width at which shannon_capacity's dual bracket counts as closed (bits)
CAPACITY_TOL = 1e-9
#: log-spaced copy numbers stein_series asks for (repeats after rounding drop)
STEIN_POINTS = 24
#: seeded random encoder/decoder pairs constrained_holevo tries
RANDOM_PAIRS = 200
#: slack on constrained_holevo's test of a uniform deviation against 2 theta
DEVIATION_SLACK = 1e-12


@dataclass(frozen=True)
class ConvergenceSeries:
    """Values indexed by copy number with the asymptotic target (and its bracket, if open)."""

    points: tuple
    target: float
    target_label: str
    labels: tuple = ()
    target_bracket: tuple = ()

    def __post_init__(self):
        ns = [n for n, _ in self.points]
        if any(b <= a for a, b in zip(ns, ns[1:])):
            raise ThermocapError("copy numbers must be strictly increasing")

    def to_dict(self) -> dict:
        out = {
            "points": [[int(n), float(v)] for n, v in self.points],
            "target": self.target,
            "target_label": self.target_label,
        }
        if self.labels:
            out["labels"] = list(self.labels)
        if self.target_bracket:
            out["target_bracket"] = list(self.target_bracket)
        return out


def stein_series(p: Distribution, q: Distribution, eps: float, n_max: int) -> ConvergenceSeries:
    """Per-copy hypothesis-testing entropy of binary product laws on a grid
    of STEIN_POINTS log-spaced copy numbers; the target is the relative
    entropy."""
    if p.dim != 2 or q.dim != 2:
        raise DimensionMismatchError("binary distributions required")
    n_max = _count(n_max, "n_max")
    if n_max > 10_000:
        raise ThermocapError("n_max is capped at 10^4")
    logs_p, logs_q = _binary_laws(p, q, eps)
    # the grid starts at 10^0 = 1, so it is never empty; rounding leaves it
    # ascending, and only neighbours can repeat
    grid = np.round(np.logspace(0.0, math.log10(n_max), STEIN_POINTS)).astype(int)
    grid = grid[np.append(True, grid[1:] != grid[:-1])].tolist()
    # one table of ln k! for the largest n; each point reads a prefix of it
    log_fact = _log_factorials(grid[-1])
    points = tuple(
        (n, _iid_binary_bits(logs_p, logs_q, eps, n, log_fact) / float(n)) for n in grid
    )
    return ConvergenceSeries(
        points=points,
        target=relative_entropy(p, q),
        target_label="relative entropy (bits)",
    )


@dataclass(frozen=True)
class ShannonCapacityResult:
    bits: float
    optimal_input: Distribution
    iterations: int
    bracket: tuple
    exact: bool


def _input_divergences(matrix: np.ndarray, out: np.ndarray) -> np.ndarray:
    """D(column_x || out) in bits for every input symbol, batched over leading axes."""
    terms = np.zeros_like(matrix)
    mask = matrix > 0.0
    expanded = np.broadcast_to(out[..., None], matrix.shape)
    terms[mask] = matrix[mask] * np.log2(matrix[mask] / expanded[mask])
    return terms.sum(axis=-2)


def shannon_capacity(ch: StochasticChannel) -> ShannonCapacityResult:
    """Input-optimised mutual information via alternating maximisation.

    Terminates on the standard dual bracket: the current mutual information
    is achievable, the largest per-symbol divergence is an upper bound, and
    iteration stops once they agree to within CAPACITY_TOL (`exact`), or
    after ITERATION_BUDGET steps with the bracket open.  `bits` is the
    bracket's lower end, the mutual information of `optimal_input`; before
    the first step the bracket is [0, log2 min(dim_in, dim_out)].
    """
    matrix = ch.matrix
    r = np.full(ch.dim_in, 1.0 / ch.dim_in)
    lower, upper = 0.0, math.log2(min(ch.dim_in, ch.dim_out))
    iterations, exact = 0, False
    for iterations in range(1, ITERATION_BUDGET + 1):
        d = _input_divergences(matrix, matrix @ r)
        lower, upper = float(np.dot(r, d)), float(d.max())
        exact = upper - lower < CAPACITY_TOL
        if exact or iterations == ITERATION_BUDGET:
            break
        r = r * np.exp2(d)
        r /= r.sum()
    return ShannonCapacityResult(
        bits=max(lower, 0.0),
        optimal_input=Distribution(r),
        iterations=iterations,
        bracket=(lower, upper),
        exact=exact,
    )


@dataclass(frozen=True)
class ConstrainedHolevoResult:
    """Lower estimate of the equilibrium-constrained correlation measure."""

    bits: float
    message_count: int
    witness: dict


def _mutual_information_bits(t: np.ndarray) -> np.ndarray:
    """Mutual information (bits, uniform input) of every channel in a batch."""
    return _input_divergences(t, t.mean(axis=-1)).sum(axis=-1) / t.shape[-1]


def _flat_dirichlet(e: np.ndarray) -> np.ndarray:
    """Dirichlet(1, ..., 1) samples from rows of standard exponentials.

    The same bits as `Generator.dirichlet(np.ones(k))` draws from the same
    exponentials: gamma(1) is the standard exponential, and each row is
    scaled by the reciprocal of its running (not pairwise) sum.
    """
    return e * (1.0 / np.cumsum(e, axis=-1)[..., -1:])


def constrained_holevo(
    ch: StochasticChannel,
    theta: float,
    max_messages: int | None = None,
    seed: int = 0,
) -> ConstrainedHolevoResult:
    """Best found correlation value over encoder/decoder pairs whose induced
    classical version moves the uniform state by at most 2*theta in L1.

    Deterministic encoders (distinct input symbols with merge-by-likelihood
    decoding) are enumerated size by size within CODEBOOK_BUDGET (a walk
    stopped there names its last size as largest_size_scored in the
    witness), then RANDOM_PAIRS seeded random stochastic pairs are tried;
    the result is always a lower estimate of the true supremum.  The random
    pairs are drawn one after another in seeded order, exactly as per-pair
    `Generator.dirichlet` calls would draw them, and scored in one batch per
    message count; a random witness is the first pair in draw order
    attaining the best value.
    """
    if not 0.0 < theta < 0.5:
        raise ThermocapError("need 0 < theta < 1/2")
    cap = max(ch.dim_in, ch.dim_out)
    if max_messages is not None:
        cap = _count(max_messages, "max_messages")
    n_pairs = RANDOM_PAIRS
    rng = np.random.default_rng(_count(seed, "seed", low=0))
    best = 0.0
    best_witness = {"kind": "trivial", "message_count": 1}

    def score(t: np.ndarray):
        """Uniform deviation of every M-to-M channel in a batch, the indices
        of those within 2*theta, and their mutual information."""
        dev = _uniform_deviation(t)
        ok = np.flatnonzero(dev <= 2.0 * theta + DEVIATION_SLACK)
        return dev, ok, _mutual_information_bits(t[ok])

    top, scored = min(cap, ch.dim_in), 0
    for combos, cols in _codebook_batches(ch, range(1, top + 1)):
        scored = combos.shape[1]
        t = _ml_composed(cols)
        dev, ok, values = score(t)
        if values.size and values.max() > best:
            i = ok[np.argmax(values)]
            best = float(values.max())
            best_witness = {"kind": "deterministic", "inputs": combos[i].tolist(),
                            "message_count": t.shape[-1], "deviation": float(dev[i])}

    # each pair draws as k = dirichlet(ones(dim_in), size=m) followed by
    # l = dirichlet(ones(m), size=dim_out) would
    sizes = np.empty(n_pairs, dtype=np.intp)
    draws = []
    for index in range(n_pairs):
        sizes[index] = m = int(rng.integers(1, cap + 1))
        draws.append(rng.standard_exponential(m * ch.dim_in + ch.dim_out * m))
    # one batch per M, in the per-pair strides (k and l are transposes of
    # row-sampled arrays), so every product has the bits of the pair's own
    scores = np.full(n_pairs, -np.inf)
    deviations = np.empty(n_pairs)
    # the M drawn, by bincount: np.unique imports numpy.ma (3 MB) on first use
    for m in np.flatnonzero(np.bincount(sizes)):
        indices = np.flatnonzero(sizes == m)
        e = np.array([draws[i] for i in indices])
        k = _flat_dirichlet(e[:, :m * ch.dim_in].reshape(-1, m, ch.dim_in)).transpose(0, 2, 1)
        l = _flat_dirichlet(e[:, m * ch.dim_in:].reshape(-1, ch.dim_out, m)).transpose(0, 2, 1)
        dev, ok, values = score(l @ ch.matrix @ k)
        deviations[indices] = dev
        scores[indices[ok]] = values
    # the first pair in draw order, and only a strictly better value
    if n_pairs and scores.max() > best:
        i = int(np.argmax(scores))
        best = float(scores[i])
        best_witness = {"kind": "random", "message_count": int(sizes[i]),
                        "deviation": float(deviations[i])}
    if scored < top:
        best_witness["largest_size_scored"] = scored

    return ConstrainedHolevoResult(bits=best, message_count=best_witness["message_count"],
                                   witness=best_witness)


def regularized_capacity_series(
    ch: StochasticChannel,
    eps: float,
    k_max: int = 3,
    theta: float | None = None,
    seed: int = 0,
):
    """Per-copy one-shot capacities on tensor powers, with the alternating-
    maximisation capacity as the asymptotic target.

    Exact values are labelled "exact", and the lower brackets of searches
    past `coding.NODE_BUDGET` "lower_bracket"; an open target bracket is
    attached.  With theta given, a second series of constrained correlation
    lower estimates is returned alongside.
    """
    k_max = _count(k_max, "k_max")
    if k_max > 3:
        raise ThermocapError("k_max must lie in 1..3")
    if not 0.0 <= eps <= 1.0:
        raise ThermocapError("eps must lie in [0, 1]")
    if theta is not None and not 0.0 < theta < 0.5:
        raise ThermocapError("need 0 < theta < 1/2")
    seed = _count(seed, "seed", low=0)
    capacity = shannon_capacity(ch)
    target = dict(target=capacity.bits, target_label="alternating-maximisation capacity (bits)",
                  target_bracket=() if capacity.exact else capacity.bracket)
    points, labels, chi_points = [], [], []
    for k in range(1, k_max + 1):
        chk = tensor_power_channel(ch, k)
        res = one_shot_capacity(chk, eps)
        labels.append("exact" if res.exact else "lower_bracket")
        points.append((k, res.bits / k))
        if theta is not None:
            chi = constrained_holevo(chk, theta, seed=seed + 100 + k)
            chi_points.append((k, chi.bits / k))
    series = ConvergenceSeries(points=tuple(points), labels=tuple(labels), **target)
    if theta is None:
        return series
    chi_series = ConvergenceSeries(points=tuple(chi_points),
                                   labels=tuple("lower_estimate" for _ in chi_points), **target)
    return series, chi_series
