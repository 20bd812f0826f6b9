"""Entropic quantities for commuting (diagonal) states.

The smoothed Renyi-0 entropy is a subset-selection problem.  Up to ENUM_LIMIT
= 32 outcomes it is solved exactly by a meet-in-the-middle search over all
2^d subsets (the two halves' subset masses, one half sorted); above that by
branch-and-bound, or bracketed when its node budget runs out.  The
hypothesis-testing entropy is a fractional-knapsack linear program solved
greedily.  All values are in bits.
"""
from __future__ import annotations

import bisect
import itertools
import math
from dataclasses import dataclass

import numpy as np

from .core import (
    PRUNE_SLACK,
    _count,
    _feasibility_threshold,
    _freeze,
    _running_sum,
    Distribution,
    DimensionMismatchError,
    DimensionTooLargeError,
    InfiniteValueError,
    SupportViolationError,
    ThermocapError,
)

#: exact subset enumeration up to this dimension, branch-and-bound above it
ENUM_LIMIT = 32
#: branch-and-bound nodes visited before the search stops with a bracket
NODE_BUDGET = 1_000_000
#: a fractional cover is complete once the mass still to cover is at most this
COVER_TOL = 1e-15
#: the cover bisects past items whose running sum ends this far short of the
#: goal, far beyond any rounding of a sum of masses up to 1
_BISECT_MARGIN = 1e-13
#: floor of the meet-in-the-middle search's rounding window, which keeps the
#: window open when the threshold and the masses are zero
_WINDOW_FLOOR = 1e-300


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
    return 0.0 - math.log2(mass)  # +0.0, not -0.0, at mass 1


def min_positive_prob(p: Distribution) -> float:
    """Smallest strictly positive entry of p."""
    positive = p.probs[p.probs > 0.0]
    return float(positive.min())


def _bits(mass: float) -> float:
    """-log2 of a reference mass; an empty mass is worth infinitely many bits.
    A mass of 1 is worth +0.0 bits: 0.0 - x is -x except at x = 0."""
    return math.inf if mass <= 0.0 else 0.0 - math.log2(mass)


def _subset_value(r: np.ndarray, indices) -> float:
    """Canonical bits value of a witness set (index-order summation)."""
    mass = float(np.sum(r[np.asarray(indices, dtype=np.intp)])) if len(indices) else 0.0
    return _bits(mass)


def _half_masses(q: np.ndarray, r: np.ndarray) -> tuple:
    """Subset masses q_lo, q_hi, r_lo, r_hi of the halves q[:d // 2] and
    q[d // 2:] (and of r), subset a at entry a, by one DP over bit prefixes
    of all four rows.  At odd d the lo half gets a zero last item, so its
    masses are the first 2^lo entries, each the same chain of additions as
    in a DP of its own."""
    lo = q.size // 2
    hi = q.size - lo
    vals = np.zeros((4, hi))
    vals[0, :lo], vals[1], vals[2, :lo], vals[3] = q[:lo], q[lo:], r[:lo], r[lo:]
    # every entry past the empty subset's is written before it is read
    masses = np.empty((4, 1 << hi))
    masses[:, 0] = 0.0
    for b in range(hi):
        half = 1 << b
        np.add(masses[:, :half], vals[:, b : b + 1], out=masses[:, half : 2 * half])
    return masses[0, : 1 << lo], masses[1], masses[2, : 1 << lo], masses[3]


def _enumerate_best_subset(q: np.ndarray, r: np.ndarray, threshold: float):
    """Exact minimum r-mass over subsets with q-mass above threshold.

    Meet in the middle over sorted halves (Horowitz and Sahni): every subset
    is a lo-half subset a joined with a hi-half subset b, with masses
    q_lo[a] + q_hi[b] and r_lo[a] + r_hi[b].  With the hi half sorted by
    q-mass, the b that make a feasible are a suffix of that order, so a's
    best r-mass is r_lo[a] plus the suffix minimum of r_hi.  O(2^(d/2) d)
    time and O(2^(d/2)) memory; the witness is the one the full outer-sum
    table's row-major argmin picks.
    """
    lo = q.size // 2
    hi = q.size - lo
    q_lo, q_hi, r_lo, r_hi = _half_masses(q, r)

    # the test fl(q_lo[a] + q_hi[b]) > threshold is monotone in each mass: a
    # hi subset that fails with the heaviest lo subset fails with all, and a
    # lo subset that fails with the heaviest hi subset fails with all
    order = np.flatnonzero(q_lo.max() + q_hi > threshold)
    if not order.size:
        raise ThermocapError("no feasible index set (eps <= 0?)")
    order = order[np.argsort(q_hi[order])]
    qs = q_hi[order]
    # suffix_min[s] = least r_hi over sorted positions s.., inf past the end
    suffix_min = np.append(np.minimum.accumulate(r_hi[order][::-1])[::-1], np.inf)
    rows = np.flatnonzero(q_lo + qs[-1] > threshold)

    # start = first sorted position that passes with q_lo[row].  Away from
    # t = threshold - q_lo[row] the test is decided by qs alone, so
    # searchsorted finds start unless rounding flips a mass within a few ulps
    # of t; those rows are bracketed past every rounding error (t -+ w) and
    # settled by a binary search on the exact test.
    x = q_lo[rows]
    t = threshold - x
    n = qs.size
    start = np.searchsorted(qs, t, side="right")
    below = start > 0
    below[below] = x[below] + qs[start[below] - 1] > threshold
    above = start < n
    above[above] = ~(x[above] + qs[start[above]] > threshold)
    open_ = np.flatnonzero(below | above)
    if open_.size:
        w = 16.0 * np.finfo(float).eps * (abs(threshold) + x[open_] + qs[-1]) + _WINDOW_FLOOR
        start[open_] = np.searchsorted(qs, t[open_] - w, side="left")
        end = np.full(start.size, n)
        end[open_] = np.searchsorted(qs, t[open_] + w, side="right")
        open_ = open_[start[open_] < end[open_]]
        while open_.size:
            mid = (start[open_] + end[open_]) // 2
            passes = x[open_] + qs[mid] > threshold
            end[open_[passes]] = mid[passes]
            start[open_[~passes]] = mid[~passes] + 1
            open_ = open_[start[open_] < end[open_]]

    # rows ascend, so argmin picks the least lo mask that reaches the minimum
    value = r_lo[rows] + suffix_min[start]
    best_row = int(np.argmin(value))
    mask_lo, best = int(rows[best_row]), value[best_row]
    # the least hi mask of that row that is feasible and reaches the value
    hits = (q_lo[mask_lo] + q_hi > threshold) & (r_lo[mask_lo] + r_hi == best)
    mask_hi = int(np.argmax(hits))
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


def _greedy_cover(cum, mass, start, need):
    """Fractional-knapsack greedy over items start, start + 1, ... of `mass`
    until they cover `need`; cum = [0, *np.cumsum(mass)] is bit for bit the
    sequential greedy's covered mass before each item.  Returns (k, frac):
    items start..k-1 whole and item k at fraction frac, which is 0.0 when
    the cover completes (within COVER_TOL) before item k or the items run
    out (k = len(mass))."""
    goal = cum[start] + need
    # items whose running sum stays clearly short of the goal are whole
    first = max(start, bisect.bisect_left(cum, goal - _BISECT_MARGIN) - 1)
    for k in range(first, len(mass)):
        left = goal - cum[k]
        if left <= COVER_TOL:
            return k, 0.0
        if mass[k] > left:
            return k, left / mass[k]
    return len(mass), 0.0


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
    order = _ratio_order(p.probs, q.probs)
    qs, rs = p.probs[order], q.probs[order]
    k, frac = _greedy_cover(_running_sum(qs), qs, 0, 1.0 - eps)
    weights = np.zeros(p.dim)
    weights[order[:k]] = 1.0
    cost = _running_sum(rs)[k]
    if frac:
        weights[order[k]] = frac
        cost += frac * rs[k]
    return _bits(cost), FractionalTest(weights=weights)


def _branch_and_bound_subset(q: np.ndarray, r: np.ndarray, threshold: float):
    """Best subset via depth-first branch-and-bound, within NODE_BUDGET nodes.

    Outcomes with r == 0 are always included (free), outcomes with q == 0
    and r > 0 never are; the rest are branched in ratio order with the
    fractional-cover relaxation as the pruning bound; within a run of
    identical items only prefixes are branched.  Returns the best index
    set found and None when the search finished, so the set is optimal; when
    the budget ran out first, the root relaxation cost in place of None, a
    lower bound on the r-mass of every feasible set.

    The node loop works on Python floats and lists, and a node's chosen
    items are a linked chain (item, parent chain), so a push copies nothing.
    """
    free = np.flatnonzero(r == 0.0)
    order = _ratio_order(q, r)
    order = order[(r[order] > 0.0) & (q[order] > 0.0)]
    base_q = float(np.sum(q[free])) if free.size else 0.0
    qs, rs = q[order], r[order]
    m = order.size
    suffix_q = np.concatenate([np.cumsum(qs[::-1])[::-1], [0.0]])
    # items with identical (q, r) are interchangeable: excluding one skips
    # the rest of its run, so only prefixes of a run are explored
    run_ends = np.flatnonzero(np.append((qs[1:] != qs[:-1]) | (rs[1:] != rs[:-1]), True)) + 1
    skip_to = np.repeat(run_ends, np.diff(run_ends, prepend=0)).tolist()

    # the full candidate set is the always-feasible starting incumbent
    if not base_q + suffix_q[0] > threshold:
        raise ThermocapError("no feasible index set (eps <= 0?)")
    best_cost = float(np.sum(rs))
    best_chain, best_is_all = None, True
    cum_r = _running_sum(rs)
    # rounding of a relaxation that stops at item k: a few ulps per summed
    # item of the r running sums, and of the q running sums and `need`
    # priced at r/q of the fractional item
    ratios = rs / qs
    rounding_at = (4.0 * np.finfo(float).eps * (np.arange(m + 1) + 2)
                   * (cum_r + np.append(ratios, ratios[-1:]))).tolist()
    cum_q, cum_r = _running_sum(qs).tolist(), cum_r.tolist()
    qs, rs, suffix_q = qs.tolist(), rs.tolist(), suffix_q.tolist()
    slack = 1.0 + PRUNE_SLACK
    budget = NODE_BUDGET
    bisect_left = bisect.bisect_left

    stack = [(0, 0.0, 0.0, None)]
    push, pop = stack.append, stack.pop
    nodes = 0
    while stack and nodes < budget:
        nodes += 1
        idx, q_acc, r_acc, chain = pop()
        have = base_q + q_acc
        if have > threshold:
            if r_acc < best_cost:
                best_cost, best_chain, best_is_all = r_acc, chain, False
            continue
        if idx == m:
            continue
        if have + suffix_q[idx] <= threshold:
            continue  # cannot become feasible
        # the fractional-cover relaxation from item idx on: _greedy_cover
        # (`need` = threshold - have) and the cost of items idx..k-1 and
        # frac of item k
        goal = cum_q[idx] + (threshold - have)
        k = bisect_left(cum_q, goal - _BISECT_MARGIN) - 1
        if k < idx:
            k = idx
        frac = 0.0
        while k < m:
            left = goal - cum_q[k]
            if left <= COVER_TOL:
                break
            if qs[k] > left:
                frac = left / qs[k]
                break
            k += 1
        cost = cum_r[k] - cum_r[idx] + (frac * rs[k] if frac else 0.0)
        # prune only past the rounding of both sides: masses can be far
        # below any absolute tolerance
        if r_acc + cost > best_cost * slack + rounding_at[k]:
            continue
        # explore inclusion first: drives toward feasible incumbents quickly
        push((skip_to[idx], q_acc, r_acc, chain))
        push((idx + 1, q_acc + qs[idx], r_acc + rs[idx], (idx, chain)))

    chosen = []
    while best_chain is not None:
        item, best_chain = best_chain
        chosen.append(item)
    picked = order if best_is_all else order[chosen]
    indices = tuple(sorted(free.tolist() + picked.tolist()))
    if not stack:
        return indices, None
    k, frac = _greedy_cover(cum_q, qs, 0, threshold - base_q)
    return indices, cum_r[k] - cum_r[0] + (frac * rs[k] if frac else 0.0)


def smoothed_renyi0(p: Distribution, q: Distribution, eps: float) -> Renyi0Result:
    """Smoothed Renyi-0 entropy of p relative to q.

    Maximises log2(1 / sum_{j in S} q_j-reference-mass) over index sets S whose
    p-mass strictly exceeds 1 - eps.  Exact for dim <= ENUM_LIMIT (32) by a
    meet-in-the-middle search over every subset, labelled "enumeration",
    which never brackets; above that by branch-and-bound.  A branch-and-bound
    search that exhausts NODE_BUDGET returns its incumbent as the value and
    the bracket (incumbent, root relaxation bound), labelled
    "node_budget_bracket".
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


#: ln k! for k = 0..31 by math.lgamma; Stirling's series takes over at 32
_LOG_FACT_SMALL = _freeze(np.array([math.lgamma(j + 1.0) for j in range(32)]))
#: the longest table of ln k! built so far, up to _LOG_FACT_KEEP entries
_log_fact_table = _LOG_FACT_SMALL
_LOG_FACT_KEEP = 1 << 16
#: np.exp rounds every argument at or below this to 0.0
_EXP_FLOOR = -746.0


def _log_factorials(n: int) -> np.ndarray:
    """ln k! for k = 0..n, read-only.  Every entry depends on k alone, so the
    table for a larger n starts with the table for a smaller one, bit for
    bit: one grow-only table is kept, and each call reads a prefix of it."""
    global _log_fact_table
    if n < _log_fact_table.size:
        return _log_fact_table[: n + 1]
    # ln k! = ln Gamma(z), z = k + 1: Stirling's series through z^-7 from 32 on
    z = np.arange(33.0, n + 2.0)
    zi2 = 1.0 / (z * z)
    series = (1 / 12 - zi2 * (1 / 360 - zi2 * (1 / 1260 - zi2 / 1680))) / z
    stirling = (z - 0.5) * np.log(z) - z + 0.5 * math.log(2.0 * math.pi) + series
    table = _freeze(np.concatenate((_LOG_FACT_SMALL, stirling)))
    if table.size <= _LOG_FACT_KEEP:
        _log_fact_table = table
    return table


def _log_binomial(log_fact: np.ndarray, n: int) -> np.ndarray:
    """ln C(n, k) for k = 0..n from a table of ln k! that reaches n."""
    log_fact = log_fact[: n + 1]
    # ln n! - (ln k! + ln (n-k)!), grouped as scipy.stats.binom groups it: the
    # rounding then stays closest to the values recorded with it
    return log_fact[n] - (log_fact + log_fact[::-1])


def _log_probs(prob0: float, prob1: float) -> tuple:
    """(np.log(prob0), np.log(prob1)), with -inf for a zero probability and
    no divide warning."""
    return tuple(np.log(prob) if prob > 0.0 else -math.inf for prob in (prob0, prob1))


def _log_law(log_binom: np.ndarray, log0: float, log1: float, ones=None) -> np.ndarray:
    """log P(k ones in n draws) for the classes k in `ones` (an index array;
    every k = 0..n by default) from ln C(n, k), k = 0..n, and the binary
    law's log-probabilities (log0, log1); 0 log 0 = 0, and a class that
    needs a symbol of zero mass gets -inf.  Each entry is the same sum
    whichever classes are asked for."""
    n = log_binom.size - 1
    if ones is None:
        ones = np.arange(n + 1)
        out, zeros = log_binom.copy(), ones[::-1]  # k reversed is n - k
    else:
        out, zeros = log_binom[ones], n - ones
    for count, log_prob in ((ones, log1), (zeros, log0)):
        if log_prob > -math.inf:
            out += count * log_prob
        else:
            out[count > 0] = -np.inf
    return out


def _exp(x: np.ndarray) -> np.ndarray:
    """np.exp(x) bit for bit, for x without NaN.  numpy's vector exp is
    several times slower on an argument whose result underflows (below
    about -708.4) than on the rest; the entries outside the span of
    arguments above _EXP_FLOOR, whose exp rounds to 0.0, are not computed."""
    if x.min() > _EXP_FLOOR:
        return np.exp(x)
    live = np.flatnonzero(x > _EXP_FLOOR)
    out = np.zeros(x.size)
    if live.size:
        span = slice(live[0], live[-1] + 1)
        out[span] = np.exp(x[span])
    return out


def _class_order(log_ratio: np.ndarray):
    """An index that puts the classes in the order np.lexsort((k,
    log_ratio)): a slice, k or k reversed, when log_ratio is strictly
    monotone in k, else that permutation.  Neighbours are compared, never
    subtracted: two +inf classes would warn in inf - inf."""
    if (log_ratio[1:] > log_ratio[:-1]).all():
        return slice(None)
    if (log_ratio[1:] < log_ratio[:-1]).all():
        return slice(None, None, -1)
    return np.lexsort((np.arange(log_ratio.size), log_ratio))


def _ordered_cover(log_mass: np.ndarray, order, need: float) -> tuple:
    """_greedy_cover(cum, mass, 0, need) for mass = _exp(log_mass)[order],
    bit for bit.  For a slice order only the live span is exponentiated
    (contiguous, as _exp does: numpy's exp can round a strided view
    differently) and summed.  The masses outside it are exact zeros: the
    running sum passes leading zeros unchanged and the sequential greedy
    takes none of them, and past the span the cover completes at once or
    never."""
    if not isinstance(order, slice):
        mass = _exp(log_mass)[order]
        return _greedy_cover(_running_sum(mass), mass, 0, need)
    if need <= COVER_TOL:
        return 0, 0.0  # complete before the first item
    live = np.flatnonzero(log_mass > _EXP_FLOOR)
    lo, hi = (int(live[0]), int(live[-1]) + 1) if live.size else (0, 0)
    mass = np.exp(log_mass[lo:hi])[order]
    # the span's first and last position in processing order
    first, end = (lo, hi) if order.step is None else (log_mass.size - hi, log_mass.size - lo)
    cum = _running_sum(mass)
    k, frac = _greedy_cover(cum, mass, 0, need)
    if k < mass.size:
        return first + k, frac
    return (end if need - cum[-1] <= COVER_TOL else log_mass.size), 0.0


def _iid_binary_bits(logs_p, logs_q, eps: float, n: int, log_fact: np.ndarray) -> float:
    """hypothesis_testing_entropy_iid_binary on validated inputs: the binary
    laws as _log_probs pairs and a table of ln k! that reaches n.  The
    state's class masses are exponentiated over their live span only, in
    ratio order through a view when that order is k or k reversed, and the
    reference's log-masses are formed on the covered classes only."""
    (lp0, lp1), (lq0, lq1) = logs_p, logs_q
    k = np.arange(n + 1)
    log_binom = _log_binomial(log_fact, n)
    log_pmass = _log_law(log_binom, lp0, lp1)

    # per-string log likelihood ratio of reference to state, class k, from
    # the symbols the class holds; classes p gives no mass go last
    lr_one = lq1 - lp1 if lp1 > -math.inf else 0.0
    lr_zero = lq0 - lp0 if lp0 > -math.inf else 0.0
    log_ratio = k * lr_one
    log_ratio[:n] += k[::-1][:n] * lr_zero
    if -math.inf in (lp0, lp1):
        log_ratio[log_pmass == -np.inf] = np.inf
    order = _class_order(log_ratio)

    cut, frac = _ordered_cover(log_pmass, order, 1.0 - eps)
    terms = _log_law(log_binom, lq0, lq1, k[order][: cut + (frac > 0.0)])
    if frac > 0.0:
        terms[-1] = math.log(frac) + terms[-1]
    # classes the reference gives no mass add nothing to the cost
    if -math.inf in (lq0, lq1):
        terms = terms[np.isfinite(terms)]
    if terms.size == 0:
        return math.inf
    top = terms.max()
    log_cost = float(top + np.log(np.sum(_exp(terms - top))))
    return -log_cost / math.log(2.0)


def _binary_laws(p: Distribution, q: Distribution, eps: float) -> tuple:
    """The _log_probs pairs of two binary laws, once eps lies in (0, 1) and
    support(p) inside support(q)."""
    if not 0.0 < eps < 1.0:
        raise ThermocapError("eps must lie in (0, 1)")
    (p0, p1), (q0, q1) = p.probs.tolist(), q.probs.tolist()
    if (p0 > 0 and q0 == 0) or (p1 > 0 and q1 == 0):
        raise SupportViolationError("support(p) must lie inside support(q)")
    return _log_probs(p0, p1), _log_probs(q0, q1)


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
    n = _count(n, "n")
    logs_p, logs_q = _binary_laws(p, q, eps)
    return _iid_binary_bits(logs_p, logs_q, eps, n, _log_factorials(n))


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
