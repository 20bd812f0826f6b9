"""Codebooks, maximum-likelihood decoding, and one-shot capacity oracles.

For a classical channel the average success probability is affine in each
encoding distribution and each decoder column, so deterministic input symbols
plus maximum-likelihood decoding are optimal; the capacity searches below
therefore enumerate input-symbol combinations exactly.
"""
from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .core import (
    Distribution,
    DimensionMismatchError,
    SearchSpaceTooLargeError,
    StochasticChannel,
    ThermocapError,
    trace_distance,
)

#: slack when comparing success probabilities against 1 - eps
SUCCESS_TOL = 1e-12
#: default cap on the number of codebooks one enumeration may visit
CODEBOOK_BUDGET = 10_000_000


@dataclass(frozen=True)
class Codebook:
    """Messages -> input symbols, plus a total decoder on output symbols."""

    inputs: tuple
    decoder: tuple

    def __post_init__(self):
        if len(self.inputs) == 0:
            raise ThermocapError("codebook needs at least one message")
        if any(d < 0 or d >= len(self.inputs) for d in self.decoder):
            raise ThermocapError("decoder must map onto message indices")

    @property
    def message_count(self) -> int:
        return len(self.inputs)


@dataclass(frozen=True, eq=False)
class ClassicalVersion:
    """Classical M-to-M realisation pre -> base -> post of a channel."""

    pre: StochasticChannel
    post: StochasticChannel
    base: StochasticChannel

    def __post_init__(self):
        if self.pre.dim_out != self.base.dim_in or self.base.dim_out != self.post.dim_in:
            raise DimensionMismatchError("pre/base/post dimensions do not chain")

    @cached_property
    def composed(self) -> StochasticChannel:
        return StochasticChannel(self.post.matrix @ self.base.matrix @ self.pre.matrix)

    @property
    def message_count(self) -> int:
        return self.pre.dim_in


def encoder_channel(codebook: Codebook, dim_in: int) -> StochasticChannel:
    mat = np.zeros((dim_in, codebook.message_count))
    for m, x in enumerate(codebook.inputs):
        mat[x, m] = 1.0
    return StochasticChannel(mat)


def decoder_channel(codebook: Codebook, dim_out: int) -> StochasticChannel:
    mat = np.zeros((codebook.message_count, dim_out))
    for y, m in enumerate(codebook.decoder):
        mat[m, y] = 1.0
    return StochasticChannel(mat)


def classical_version(ch: StochasticChannel, codebook: Codebook) -> ClassicalVersion:
    return ClassicalVersion(
        pre=encoder_channel(codebook, ch.dim_in),
        post=decoder_channel(codebook, ch.dim_out),
        base=ch,
    )


def success_probability(cv: ClassicalVersion) -> float:
    """Average diagonal of the composed M-to-M channel."""
    t = cv.composed.matrix
    if t.shape[0] != t.shape[1]:
        raise DimensionMismatchError("composed channel must be square")
    return float(np.trace(t) / t.shape[0])


def ml_decoder(ch: StochasticChannel, inputs) -> tuple:
    """Per-output argmax of the codeword likelihoods, ties to the lowest
    message index; optimal on average for the uniform message prior."""
    if len(inputs) == 0:
        raise ThermocapError("inputs must be nonempty")
    cols = ch.matrix[:, list(inputs)]
    return tuple(int(i) for i in np.argmax(cols, axis=1))


def gibbs_deviation(cv: ClassicalVersion) -> float:
    """L1 distance between the composed channel's image of the uniform
    message distribution and uniform itself."""
    m = cv.message_count
    uniform = Distribution.uniform(m)
    return trace_distance(cv.composed.apply(uniform), uniform)


@dataclass(frozen=True)
class CapacityResult:
    bits: float
    codebook: Codebook
    exact: bool
    method: str


def _codebook_from_combo(ch: StochasticChannel, combo) -> Codebook:
    return Codebook(inputs=tuple(int(x) for x in combo), decoder=ml_decoder(ch, combo))


def _codebook_batches(ch: StochasticChannel, sizes, budget: int = CODEBOOK_BUDGET,
                      batch: int = 4096):
    """Codebooks of distinct input symbols for each message count in `sizes`,
    lexicographic within a size, in batches (combos, cols) where cols[b, j]
    is the likelihood column of symbol combos[b, j].  The whole enumeration
    is checked against `budget` before it starts."""
    total = sum(math.comb(ch.dim_in, m) for m in sizes)
    if total > budget:
        raise SearchSpaceTooLargeError(f"{total} codebooks exceed the configured budget {budget}")
    for m in sizes:
        it = itertools.combinations(range(ch.dim_in), m)
        while chunk := list(itertools.islice(it, batch)):
            combos = np.array(chunk, dtype=np.intp)
            yield combos, ch.matrix.T[combos]


def _ml_success(cols: np.ndarray) -> np.ndarray:
    """ML success probability of every codebook in a batch."""
    return cols.max(axis=1).sum(axis=1) / cols.shape[1]


def _ml_composed(cols: np.ndarray) -> np.ndarray:
    """ClassicalVersion.composed of every codebook in a batch, in the same float order."""
    decoded = cols.argmax(axis=1)[:, None, :] == np.arange(cols.shape[1])[:, None]
    t = decoded @ cols.transpose(0, 2, 1)
    return t / t.sum(axis=1, keepdims=True)


def _uniform_deviation(t: np.ndarray) -> np.ndarray:
    """L1 distance of each channel's image of uniform from uniform (batched)."""
    uniform = np.full(t.shape[-1], 1.0 / t.shape[-1])
    return np.abs(t @ uniform - uniform).sum(axis=-1)


def _feasible(cols: np.ndarray, eps: float, theta: float | None) -> np.ndarray:
    """Indices of the batch's codebooks with success at least 1 - eps and,
    with theta given, uniform deviation at most 2*theta."""
    ok = np.flatnonzero(_ml_success(cols) >= (1.0 - eps) - SUCCESS_TOL)
    if theta is not None:
        ok = ok[_uniform_deviation(_ml_composed(cols[ok])) <= 2.0 * theta + SUCCESS_TOL]
    return ok


def _search_exact(ch, eps, theta, m_cap, codebook_budget):
    """Largest message count admitting a feasible codebook, searched with M
    descending and combinations in lexicographic order (first hit wins)."""
    for combos, cols in _codebook_batches(ch, range(m_cap, 0, -1), codebook_budget):
        hits = _feasible(cols, eps, theta)
        if hits.size:
            return _codebook_from_combo(ch, combos[hits[0]])
    raise ThermocapError("single-message codebooks are always feasible; this is a bug")


def _search_randomized(ch, eps, theta, m_cap, samples, seed):
    rng = np.random.default_rng(seed)
    best = None
    for _ in range(samples):
        m = int(rng.integers(1, m_cap + 1))
        combo = np.sort(rng.choice(ch.dim_in, size=m, replace=False))
        if best is None or m > best.message_count:
            if _feasible(ch.matrix.T[combo][None], eps, theta).size:
                best = _codebook_from_combo(ch, combo)
    return best or _codebook_from_combo(ch, (0,))


def _capacity(ch, eps, theta, max_messages, codebook_budget, randomized, samples, seed):
    m_cap = ch.dim_in if max_messages is None else min(max_messages, ch.dim_in)
    if randomized:
        cb = _search_randomized(ch, eps, theta, m_cap, samples, seed)
    else:
        cb = _search_exact(ch, eps, theta, m_cap, codebook_budget)
    return CapacityResult(bits=math.log2(cb.message_count), codebook=cb, exact=not randomized,
                          method="randomized" if randomized else "exhaustive")


def one_shot_capacity(
    ch: StochasticChannel,
    eps: float,
    max_messages: int | None = None,
    codebook_budget: int = CODEBOOK_BUDGET,
    randomized: bool = False,
    samples: int = 100_000,
    seed: int = 0,
) -> CapacityResult:
    """One-shot classical capacity at average error eps, in bits.

    Exact mode enumerates every codebook of distinct input symbols with ML
    decoding (optimal for classical channels) and returns log2 of the largest
    feasible message count together with an achieving codebook.  Randomized
    mode samples codebooks and its result is only a lower bracket.
    """
    if not 0.0 <= eps <= 1.0:
        raise ThermocapError("eps must lie in [0, 1]")
    return _capacity(ch, eps, None, max_messages, codebook_budget, randomized, samples, seed)


def theta_equilibrium_capacity(
    ch: StochasticChannel,
    eps: float,
    theta: float,
    max_messages: int | None = None,
    codebook_budget: int = CODEBOOK_BUDGET,
    randomized: bool = False,
    samples: int = 100_000,
    seed: int = 0,
) -> CapacityResult:
    """One-shot capacity restricted to codebooks whose induced classical
    version moves the uniform message state by at most 2*theta in L1."""
    if not (0.0 < eps <= theta < 0.5):
        raise ThermocapError("need 0 < eps <= theta < 1/2")
    return _capacity(ch, eps, theta, max_messages, codebook_budget, randomized, samples, seed)
