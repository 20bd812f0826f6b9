"""Desk-scale asymptotic experiments.

Everything here reports one-sided or bracketed evidence: exact oracles run
where the dimensions allow it, and anything beyond the configured budgets is
labelled as a bracket rather than silently trusted.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .coding import (
    CODEBOOK_BUDGET,
    _codebook_batches,
    _ml_composed,
    _uniform_deviation,
    one_shot_capacity,
)
from .core import (
    ConvergenceError,
    Distribution,
    SearchSpaceTooLargeError,
    StochasticChannel,
    SupportViolationError,
    ThermocapError,
    tensor_power_channel,
)
from .entropy import (
    hypothesis_testing_entropy_iid_binary,
    relative_entropy,
)


@dataclass(frozen=True)
class ConvergenceSeries:
    """Values indexed by copy number with the asymptotic target attached."""

    points: tuple
    target: float
    target_label: str
    labels: tuple = ()

    def __post_init__(self):
        ns = [n for n, _ in self.points]
        if any(b <= a for a, b in zip(ns, ns[1:])):
            raise ThermocapError("copy numbers must be strictly increasing")

    def to_csv_rows(self) -> list:
        rows = [("n", "value", "target")]
        rows += [(n, v, self.target) for n, v in self.points]
        return rows

    def to_dict(self) -> dict:
        out = {
            "points": [[int(n), float(v)] for n, v in self.points],
            "target": self.target,
            "target_label": self.target_label,
        }
        if self.labels:
            out["labels"] = list(self.labels)
        return out


def stein_series(
    p: Distribution, q: Distribution, eps: float, n_max: int, n_points: int = 24
) -> ConvergenceSeries:
    """Per-copy hypothesis-testing entropy of binary product laws on a
    log-spaced copy grid; the target is the relative entropy."""
    if p.dim != 2 or q.dim != 2:
        raise ThermocapError("binary distributions required")
    if n_max > 10_000:
        raise ThermocapError("n_max is capped at 10^4")
    if np.any((p.probs > 0) & (q.probs == 0)):
        raise SupportViolationError("support(p) must lie inside support(q)")
    grid = np.unique(np.round(np.logspace(0.0, math.log10(n_max), n_points)).astype(int))
    grid = grid[grid >= 1]
    points = tuple(
        (int(n), hypothesis_testing_entropy_iid_binary(p, q, eps, int(n)) / float(n))
        for n in grid
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


def _input_divergences(matrix: np.ndarray, out: np.ndarray) -> np.ndarray:
    """D(column_x || out) in bits for every input symbol, batched over leading axes."""
    terms = np.zeros_like(matrix)
    mask = matrix > 0.0
    expanded = np.broadcast_to(out[..., None], matrix.shape)
    terms[mask] = matrix[mask] * np.log2(matrix[mask] / expanded[mask])
    return terms.sum(axis=-2)


def shannon_capacity(
    ch: StochasticChannel, tol: float = 1e-9, max_iter: int = 200_000
) -> ShannonCapacityResult:
    """Input-optimised mutual information via alternating maximisation.

    Terminates on the standard dual bracket: the current mutual information
    is achievable, the largest per-symbol divergence is an upper bound, and
    iteration stops once they agree to within tol.
    """
    if tol <= 0.0:
        raise ThermocapError("tol must be positive")
    matrix = ch.matrix
    r = np.full(ch.dim_in, 1.0 / ch.dim_in)
    for iteration in range(1, max_iter + 1):
        out = matrix @ r
        d = _input_divergences(matrix, out)
        lower = float(np.dot(r, d))
        upper = float(d.max())
        if upper - lower < tol:
            return ShannonCapacityResult(
                bits=max(lower, 0.0),
                optimal_input=Distribution(r),
                iterations=iteration,
                bracket=(lower, upper),
            )
        r = r * np.exp2(d)
        r /= r.sum()
    raise ConvergenceError(
        f"alternating maximisation did not close the bracket in {max_iter} iterations",
        bracket=(lower, upper),
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


def constrained_holevo(
    ch: StochasticChannel,
    theta: float,
    max_messages: int | None = None,
    n_random: int = 200,
    seed: int = 0,
) -> ConstrainedHolevoResult:
    """Best found correlation value over encoder/decoder pairs whose induced
    classical version moves the uniform state by at most 2*theta in L1.

    Deterministic encoders (distinct input symbols with merge-by-likelihood
    decoding) are enumerated within the default codebook budget, then seeded
    random stochastic pairs are tried; the result is always a lower estimate
    of the true supremum.
    """
    if not 0.0 < theta < 0.5:
        raise ThermocapError("need 0 < theta < 1/2")
    cap = max(ch.dim_in, ch.dim_out) if max_messages is None else max_messages
    cap = max(1, cap)
    rng = np.random.default_rng(seed)
    best = 0.0
    best_witness = {"kind": "trivial", "message_count": 1}

    def consider(t: np.ndarray, witness):
        """Offer a batch of M-to-M channels; witness(i) describes channel i."""
        nonlocal best, best_witness
        dev = _uniform_deviation(t)
        ok = np.flatnonzero(dev <= 2.0 * theta + 1e-12)
        values = _mutual_information_bits(t[ok])
        if values.size and values.max() > best:
            i = ok[np.argmax(values)]
            best = float(values.max())
            best_witness = dict(witness(i), message_count=t.shape[-1], deviation=float(dev[i]))

    for combos, cols in _codebook_batches(ch, range(1, min(cap, ch.dim_in) + 1)):
        consider(_ml_composed(cols),
                 lambda i: {"kind": "deterministic", "inputs": combos[i].tolist()})

    for _ in range(n_random):
        m = int(rng.integers(1, cap + 1))
        k = rng.dirichlet(np.ones(ch.dim_in), size=m).T
        l = rng.dirichlet(np.ones(m), size=ch.dim_out).T
        t = l @ ch.matrix @ k
        consider(t[None], lambda i: {"kind": "random"})

    return ConstrainedHolevoResult(bits=best, message_count=best_witness["message_count"],
                                   witness=best_witness)


def regularized_capacity_series(
    ch: StochasticChannel,
    eps: float,
    k_max: int = 3,
    theta: float | None = None,
    codebook_budget: int = CODEBOOK_BUDGET,
    samples: int = 100_000,
    seed: int = 0,
):
    """Per-copy one-shot capacities on tensor powers, with the alternating-
    maximisation capacity as the asymptotic target.

    Exact values are labelled "exact"; anything that fell back to randomized
    search is labelled "lower_bracket".  With theta given, a second series of
    constrained correlation lower estimates is returned alongside.
    """
    if k_max < 1 or k_max > 3:
        raise ThermocapError("k_max must lie in 1..3")
    target = shannon_capacity(ch).bits
    points = []
    labels = []
    chi_points = []
    for k in range(1, k_max + 1):
        chk = tensor_power_channel(ch, k)
        try:
            res = one_shot_capacity(chk, eps, codebook_budget=codebook_budget)
            labels.append("exact")
        except SearchSpaceTooLargeError:
            res = one_shot_capacity(chk, eps, randomized=True, samples=samples, seed=seed + k)
            labels.append("lower_bracket")
        points.append((k, res.bits / k))
        if theta is not None:
            chi = constrained_holevo(chk, theta, seed=seed + 100 + k)
            chi_points.append((k, chi.bits / k))
    series = ConvergenceSeries(
        points=tuple(points),
        target=target,
        target_label="alternating-maximisation capacity (bits)",
        labels=tuple(labels),
    )
    if theta is None:
        return series
    chi_series = ConvergenceSeries(
        points=tuple(chi_points),
        target=target,
        target_label="alternating-maximisation capacity (bits)",
        labels=tuple("lower_estimate" for _ in chi_points),
    )
    return series, chi_series
