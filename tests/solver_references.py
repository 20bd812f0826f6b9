"""Earlier forms of two entropy hot loops, kept outside the package as test
references: the fast forms in `thermocap.entropy` must reproduce them bit
for bit (bits, witness, bracket, method and node-budget bracket).

`branch_and_bound_subset` carries numpy-scalar masses and copies its chosen
list at every push; `iid_binary_bits` works on all n + 1 type classes.
Both read `entropy.NODE_BUDGET` and the shared helpers at call time.
"""
import math

import numpy as np

from thermocap import entropy
from thermocap.core import _running_sum


def branch_and_bound_subset(q: np.ndarray, r: np.ndarray, threshold: float):
    """`entropy._branch_and_bound_subset` as it was: same DFS order, prune
    test and node count, the relaxation a helper call."""
    free = np.flatnonzero(r == 0.0)
    order = entropy._ratio_order(q, r)
    order = order[(r[order] > 0.0) & (q[order] > 0.0)]
    base_q = float(np.sum(q[free])) if free.size else 0.0
    qs, rs = q[order], r[order]
    suffix_q = np.concatenate([np.cumsum(qs[::-1])[::-1], [0.0]])
    run_ends = np.flatnonzero(np.append((qs[1:] != qs[:-1]) | (rs[1:] != rs[:-1]), True)) + 1
    skip_to = np.repeat(run_ends, np.diff(run_ends, prepend=0)).tolist()

    if not base_q + suffix_q[0] > threshold:
        raise entropy.ThermocapError("no feasible index set (eps <= 0?)")
    best_cost = float(np.sum(rs))
    best_set = list(range(order.size))
    qs_list, rs_list = qs.tolist(), rs.tolist()
    cum_r = _running_sum(rs)
    ratios = rs / qs
    rounding_at = (4.0 * np.finfo(float).eps * (np.arange(qs.size + 1) + 2)
                   * (cum_r + np.append(ratios, ratios[-1:]))).tolist()
    cum_q, cum_r = _running_sum(qs).tolist(), cum_r.tolist()

    def relaxation(start, need):
        k, frac = entropy._greedy_cover(cum_q, qs_list, start, need)
        return cum_r[k] - cum_r[start] + (frac * rs_list[k] if frac else 0.0), rounding_at[k]

    stack = [(0, 0.0, 0.0, [])]
    nodes = 0
    while stack and nodes < entropy.NODE_BUDGET:
        nodes += 1
        idx, q_acc, r_acc, chosen = stack.pop()
        if base_q + q_acc > threshold:
            if r_acc < best_cost:
                best_cost = r_acc
                best_set = chosen
            continue
        if idx == order.size:
            continue
        if base_q + q_acc + suffix_q[idx] <= threshold:
            continue
        cost, rounding = relaxation(idx, threshold - (base_q + q_acc))
        if r_acc + cost > best_cost * (1.0 + 1e-12) + rounding:
            continue
        stack.append((skip_to[idx], q_acc, r_acc, chosen))
        stack.append((idx + 1, q_acc + qs[idx], r_acc + rs[idx], chosen + [idx]))

    indices = tuple(sorted([int(j) for j in free] + [int(order[i]) for i in best_set]))
    if not stack:
        return indices, None
    return indices, relaxation(0, threshold - base_q)[0]


def iid_binary_bits(logs_p, logs_q, eps: float, n: int, log_fact: np.ndarray) -> float:
    """`entropy._iid_binary_bits` as it was: every class's log-masses, a
    gather into ratio order (ties by k) and one running sum over all n + 1."""
    (lp0, lp1), (lq0, lq1) = logs_p, logs_q
    k = np.arange(n + 1)
    log_binom = entropy._log_binomial(log_fact, n)
    log_pmass = entropy._log_law(log_binom, lp0, lp1)
    log_rmass = entropy._log_law(log_binom, lq0, lq1)

    lr_one = lq1 - lp1 if lp1 > -math.inf else 0.0
    lr_zero = lq0 - lp0 if lp0 > -math.inf else 0.0
    log_ratio = k * lr_one
    log_ratio[:n] += k[::-1][:n] * lr_zero
    if -math.inf in (lp0, lp1):
        log_ratio[log_pmass == -np.inf] = np.inf
    order = np.lexsort((k, log_ratio))

    pmass = entropy._exp(log_pmass)[order]
    cut, frac = entropy._greedy_cover(_running_sum(pmass), pmass, 0, 1.0 - eps)
    if frac > 0.0:
        terms = log_rmass[order[: cut + 1]]
        terms[-1] = math.log(frac) + terms[-1]
    else:
        terms = log_rmass[order[:cut]]
    if -math.inf in (lq0, lq1):
        terms = terms[np.isfinite(terms)]
    if terms.size == 0:
        return math.inf
    top = terms.max()
    log_cost = float(top + np.log(np.sum(entropy._exp(terms - top))))
    return -log_cost / math.log(2.0)
