"""Entropic quantities for commuting (diagonal) states.

The smoothed Renyi-0 entropy is a subset-selection problem solved exactly by
enumeration or branch-and-bound, or bracketed when the branch-and-bound node
budget runs out; the hypothesis-testing entropy is a fractional-knapsack
linear program solved greedily.  All values are in bits.
"""
from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np
from scipy.stats import binom

from .core import (
    Distribution,
    DimensionMismatchError,
    DimensionTooLargeError,
    InfiniteValueError,
    SupportViolationError,
    ThermocapError,
)

#: slack on the strict feasibility inequality sum_{j in set} q_j > 1 - eps,
#: so exact-boundary analytic cases are not lost to rounding noise
FEASIBILITY_SLACK = 1e-12

#: exact subset enumeration up to this dimension, branch-and-bound above it
ENUM_LIMIT = 20
#: branch-and-bound nodes visited before the search stops with a bracket
NODE_BUDGET = 1_000_000


@dataclass(frozen=True)
class SubsetWitness:
    """Optimal index set for the smoothed Renyi-0 entropy."""

    indices: tuple
    q_mass: float
    r_mass: float


@dataclass(frozen=True)
class Renyi0Result:
    bits: float
    witness: SubsetWitness
    method: str
    #: (lower, upper) bracket on the true value; collapses for exact methods
    bracket: tuple

    @property
    def exact(self) -> bool:
        return self.method in ("enumeration", "branch_and_bound")


@dataclass(frozen=True)
class FractionalTest:
    """Diagonal test 0 <= t_j <= 1 achieving the hypothesis-testing optimum."""

    weights: np.ndarray


def relative_entropy(p: Distribution, q: Distribution) -> float:
    """KL divergence sum p_j log2(p_j / q_j), with 0 log 0 := 0."""
    if p.dim != q.dim:
        raise DimensionMismatchError("distributions must share a dimension")
    pv, qv = p.probs, q.probs
    mask = pv > 0.0
    if np.any(qv[mask] == 0.0):
        raise SupportViolationError("support(p) must lie inside support(q)")
    return float(np.sum(pv[mask] * np.log2(pv[mask] / qv[mask])))


def binary_entropy(x: float) -> float:
    """-x log2 x - (1-x) log2(1-x), with the 0 log 0 = 0 convention."""
    if not 0.0 <= x <= 1.0:
        raise ThermocapError("binary entropy argument must lie in [0, 1]")
    if x in (0.0, 1.0):
        return 0.0
    return float(-x * math.log2(x) - (1.0 - x) * math.log2(1.0 - x))


def min_relative_entropy(p: Distribution, q: Distribution) -> float:
    """log2 of 1 over the q-mass of p's support."""
    if p.dim != q.dim:
        raise DimensionMismatchError("distributions must share a dimension")
    mass = float(q.probs[p.probs > 0.0].sum())
    if mass == 0.0:
        raise InfiniteValueError("q assigns no mass to the support of p")
    return -math.log2(mass)


def min_positive_prob(p: Distribution) -> float:
    """Smallest strictly positive entry of p."""
    positive = p.probs[p.probs > 0.0]
    return float(positive.min())


def _feasibility_threshold(eps: float) -> float:
    return (1.0 - eps) - FEASIBILITY_SLACK


def _bits(mass: float) -> float:
    """-log2 of a reference mass; an empty mass is worth infinitely many bits."""
    return math.inf if mass <= 0.0 else -math.log2(mass)


def _subset_value(r: np.ndarray, indices) -> float:
    """Canonical bits value of a witness set (index-order summation)."""
    mass = float(np.sum(r[np.asarray(indices, dtype=np.intp)])) if len(indices) else 0.0
    return _bits(mass)


def _enumerate_best_subset(q: np.ndarray, r: np.ndarray, threshold: float):
    """Exact minimum r-mass over subsets with q-mass above threshold.

    Meet-in-the-middle: subset masses of each half combine by outer sums.
    """
    d = q.size
    lo = d // 2
    hi = d - lo

    # subset masses of one half by DP over bit prefixes
    def all_masses(vals):
        size = vals.size
        masses = np.zeros(1 << size)
        for b in range(size):
            half = 1 << b
            masses[half : 2 * half] = masses[:half] + vals[b]
        return masses

    q_lo, q_hi = all_masses(q[:lo]), all_masses(q[lo:])
    r_lo, r_hi = all_masses(r[:lo]), all_masses(r[lo:])

    q_all = q_lo[:, None] + q_hi[None, :]
    r_all = r_lo[:, None] + r_hi[None, :]
    feasible = q_all > threshold
    if not feasible.any():
        raise ThermocapError("no feasible index set (eps <= 0?)")
    r_masked = np.where(feasible, r_all, np.inf)
    flat = int(np.argmin(r_masked))
    mask_lo, mask_hi = divmod(flat, 1 << hi)
    indices = [b for b in range(lo) if (mask_lo >> b) & 1]
    indices += [lo + b for b in range(hi) if (mask_hi >> b) & 1]
    return tuple(indices)


def _ratio_order(q: np.ndarray, r: np.ndarray) -> np.ndarray:
    """Greedy processing order: free outcomes (r == 0) first, with the
    vacuous q == 0 ones leading; then ascending r/q; unreachable q == 0,
    r > 0 outcomes last.  Ties break toward the lower index."""
    free, reachable = r == 0.0, q > 0.0
    group = np.where(free, reachable.astype(np.int64), np.where(reachable, 2, 3))
    ratio = np.divide(r, q, out=np.zeros(q.size), where=~free & reachable)
    return np.lexsort((np.arange(q.size), ratio, group))


def hypothesis_testing_entropy(p: Distribution, q: Distribution, eps: float):
    """Optimal hypothesis-testing entropy for commuting states.

    Solves min sum t_j r_j subject to sum t_j q_j >= 1 - eps, 0 <= t <= 1
    by the fractional-knapsack greedy (provably optimal for this LP) and
    returns (bits, FractionalTest).
    """
    if p.dim != q.dim:
        raise DimensionMismatchError("distributions must share a dimension")
    if not 0.0 < eps < 1.0:
        raise ThermocapError("eps must lie in (0, 1)")
    qv, rv = p.probs, q.probs
    order = _ratio_order(qv, rv)
    target = 1.0 - eps
    weights = np.zeros(p.dim)
    cost = 0.0
    covered = 0.0
    for j in order:
        need = target - covered
        if need <= 1e-15:
            break
        if qv[j] == 0.0 or qv[j] <= need:
            weights[j] = 1.0
            covered += qv[j]
            cost += rv[j]
        else:
            frac = need / qv[j]
            weights[j] = frac
            covered += need
            cost += frac * rv[j]
    return _bits(cost), FractionalTest(weights=weights)


def _fractional_cover_cost(q_sorted, r_sorted, start, need):
    """Cheapest r-cost to cover q-mass `need` using items from `start` on
    (already in ratio order); relaxation used as the branch-and-bound bound."""
    cost = 0.0
    for j in range(start, q_sorted.size):
        if need <= 1e-15:
            return cost
        if q_sorted[j] >= need:
            return cost + (need / q_sorted[j]) * r_sorted[j]
        cost += r_sorted[j]
        need -= q_sorted[j]
    return cost if need <= 1e-15 else math.inf


def _branch_and_bound_subset(q: np.ndarray, r: np.ndarray, threshold: float):
    """Best subset via depth-first branch-and-bound, within NODE_BUDGET nodes.

    Outcomes with r == 0 are always included (free), outcomes with q == 0
    and r > 0 never are; the rest are branched in ratio order with the
    fractional-cover relaxation as the pruning bound.  Returns the best index
    set found and None when the search finished, so the set is optimal; when
    the budget ran out first, the root relaxation cost in place of None, a
    lower bound on the r-mass of every feasible set.
    """
    free = np.flatnonzero(r == 0.0)
    order = _ratio_order(q, r)
    order = order[(r[order] > 0.0) & (q[order] > 0.0)]
    base_q = float(np.sum(q[free])) if free.size else 0.0
    qs, rs = q[order], r[order]
    suffix_q = np.concatenate([np.cumsum(qs[::-1])[::-1], [0.0]])

    # the full candidate set is the always-feasible starting incumbent
    if not base_q + suffix_q[0] > threshold:
        raise ThermocapError("no feasible index set (eps <= 0?)")
    best_cost = float(np.sum(rs))
    best_set = list(range(order.size))

    stack = [(0, 0.0, 0.0, [])]
    nodes = 0
    while stack and nodes < NODE_BUDGET:
        nodes += 1
        idx, q_acc, r_acc, chosen = stack.pop()
        if base_q + q_acc > threshold:
            if r_acc < best_cost - 1e-18:
                best_cost = r_acc
                best_set = chosen
            continue
        if idx == order.size:
            continue
        if base_q + q_acc + suffix_q[idx] <= threshold:
            continue  # cannot become feasible
        need = threshold - (base_q + q_acc)
        bound = r_acc + _fractional_cover_cost(qs, rs, idx, need)
        if bound > best_cost + 1e-12:
            continue
        # explore inclusion first: drives toward feasible incumbents quickly
        stack.append((idx + 1, q_acc, r_acc, chosen))
        stack.append((idx + 1, q_acc + qs[idx], r_acc + rs[idx], chosen + [idx]))

    indices = tuple(sorted([int(j) for j in free] + [int(order[i]) for i in best_set]))
    if not stack:
        return indices, None
    return indices, _fractional_cover_cost(qs, rs, 0, threshold - base_q)


def smoothed_renyi0(p: Distribution, q: Distribution, eps: float) -> Renyi0Result:
    """Smoothed Renyi-0 entropy of p relative to q.

    Maximises log2(1 / sum_{j in S} q_j-reference-mass) over index sets S whose
    p-mass strictly exceeds 1 - eps.  Exact by enumeration for dim <= 20 and
    by branch-and-bound above; a search that exhausts NODE_BUDGET returns its
    incumbent as the value and the bracket (incumbent, root relaxation bound),
    labelled "node_budget_bracket".
    """
    if p.dim != q.dim:
        raise DimensionMismatchError("distributions must share a dimension")
    if not 0.0 < eps < 1.0:
        raise ThermocapError("eps must lie in (0, 1)")
    qv, rv = p.probs, q.probs
    threshold = _feasibility_threshold(eps)

    if p.dim <= ENUM_LIMIT:
        indices, bound = _enumerate_best_subset(qv, rv, threshold), None
        method = "enumeration"
    else:
        indices, bound = _branch_and_bound_subset(qv, rv, threshold)
        method = "branch_and_bound" if bound is None else "node_budget_bracket"

    idx = np.asarray(indices, dtype=np.intp)
    witness = SubsetWitness(
        indices=tuple(int(i) for i in indices),
        q_mass=float(np.sum(qv[idx])) if idx.size else 0.0,
        r_mass=float(np.sum(rv[idx])) if idx.size else 0.0,
    )
    bits = _subset_value(rv, indices)
    bracket = (bits, bits if bound is None else _bits(bound))
    return Renyi0Result(bits=bits, witness=witness, method=method, bracket=bracket)


def hypothesis_testing_entropy_iid_binary(
    p: Distribution, q: Distribution, eps: float, n: int
) -> float:
    """Hypothesis-testing entropy between n-fold products of two binary laws.

    Collapses the 2^n outcomes into the n+1 binomial type classes (every
    string in a class shares one likelihood ratio), so the greedy LP runs on
    n+1 items; masses are handled in the log domain to survive large n.
    """
    if p.dim != 2 or q.dim != 2:
        raise DimensionMismatchError("binary distributions required")
    if n < 1:
        raise ThermocapError("n must be >= 1")
    if not 0.0 < eps < 1.0:
        raise ThermocapError("eps must lie in (0, 1)")
    p1, q1 = float(p.probs[1]), float(q.probs[1])
    if (p.probs[0] > 0 and q.probs[0] == 0) or (p1 > 0 and q1 == 0):
        raise SupportViolationError("support(p) must lie inside support(q)")

    k = np.arange(n + 1)
    log_pmass = binom.logpmf(k, n, p1)
    log_rmass = binom.logpmf(k, n, q1)
    pmass = np.exp(log_pmass)

    # per-string log likelihood ratio of reference to state, class k;
    # guard the k = 0 / k = n ends against 0 * inf
    with np.errstate(divide="ignore"):
        lr_one = np.log(q1) - np.log(p1)
        lr_zero = np.log(1.0 - q1) - np.log(1.0 - p1)
    log_ratio = np.where(k > 0, k * lr_one, 0.0) + np.where(k < n, (n - k) * lr_zero, 0.0)
    order = np.lexsort((k, log_ratio))

    target = 1.0 - eps
    covered = 0.0
    log_cost_terms = []
    for j in order:
        need = target - covered
        if need <= 1e-15:
            break
        if pmass[j] <= need:
            covered += pmass[j]
            log_cost_terms.append(log_rmass[j])
        else:
            frac = need / pmass[j]
            covered += need
            if frac > 0.0:
                log_cost_terms.append(math.log(frac) + log_rmass[j])
    terms = np.array([t for t in log_cost_terms if np.isfinite(t)])
    if terms.size == 0:
        return math.inf
    log_cost = float(terms.max() + np.log(np.sum(np.exp(terms - terms.max()))))
    return -log_cost / math.log(2.0)


def dense_lp_oracle(p: Distribution, q: Distribution, eps: float) -> float:
    """Independent dense-LP evaluation of the hypothesis-testing entropy.

    Kept free of the greedy path on purpose: used in tests to certify it.
    """
    from scipy.optimize import linprog

    res = linprog(
        c=q.probs,
        A_ub=-p.probs[None, :],
        b_ub=[-(1.0 - eps)],
        bounds=[(0.0, 1.0)] * p.dim,
        method="highs",
    )
    if not res.success:
        raise ThermocapError(f"LP oracle failed: {res.message}")
    cost = float(res.fun)
    return math.inf if cost <= 0.0 else -math.log2(cost)


def brute_force_renyi0(p: Distribution, q: Distribution, eps: float) -> float:
    """Direct loop over all index sets; test oracle for the fast solvers."""
    if p.dim > 22:
        raise DimensionTooLargeError("brute force oracle limited to dim <= 22")
    threshold = _feasibility_threshold(eps)
    best = math.inf
    best_bits = None
    for size in range(p.dim + 1):
        for combo in itertools.combinations(range(p.dim), size):
            idx = list(combo)
            q_mass = float(np.sum(p.probs[idx])) if idx else 0.0
            if q_mass > threshold:
                r_mass = float(np.sum(q.probs[idx])) if idx else 0.0
                if r_mass < best:
                    best = r_mass
                    best_bits = _subset_value(q.probs, idx)
    if best_bits is None:
        raise ThermocapError("no feasible index set")
    return best_bits
