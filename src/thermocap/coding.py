"""Codebooks, maximum-likelihood decoding, and one-shot capacity oracles.

For a classical channel the average success probability is affine in each
encoding distribution and each decoder column, so deterministic input symbols
plus maximum-likelihood decoding are optimal; the capacity search below
therefore ranges over codebooks of distinct input symbols, by a
branch-and-bound that returns the codebook a full enumeration would, or a
labelled lower bracket past NODE_BUDGET nodes.  The batched enumerator
`_codebook_batches` serves the callers that score every codebook.
"""
from __future__ import annotations

import itertools
import math
import numbers
from dataclasses import dataclass

import numpy as np

from .core import (
    Distribution,
    DimensionMismatchError,
    SearchSpaceTooLargeError,
    StochasticChannel,
    ThermocapError,
    PRUNE_SLACK,
    _count,
    _feasibility_threshold,
    trace_distance,
)

#: cap on the number of codebooks one enumeration may range over
CODEBOOK_BUDGET = 10_000_000
#: branch-and-bound nodes a capacity search visits before it settles for a lower bracket
NODE_BUDGET = 100_000


@dataclass(frozen=True)
class Codebook:
    """Messages -> input symbols, plus a total decoder on output symbols."""

    inputs: tuple
    decoder: tuple

    def __post_init__(self):
        m = len(self.inputs)
        if m == 0:
            raise ThermocapError("codebook needs at least one message")
        if not all(_is_index(d, m) for d in self.decoder):
            raise ThermocapError(f"decoder must map onto message indices 0..{m - 1}")

    @property
    def message_count(self) -> int:
        return len(self.inputs)


def _is_index(x, n: int) -> bool:
    """Whether x is an integer in 0..n-1 (numpy integers too, bool not)."""
    return isinstance(x, numbers.Integral) and not isinstance(x, bool) and 0 <= x < n


def _symbols(inputs, dim_in: int) -> list:
    """`inputs` as a list, when every entry is an integer in 0..dim_in-1;
    anything else raises DimensionMismatchError."""
    symbols = list(inputs)
    if not all(_is_index(x, dim_in) for x in symbols):
        raise DimensionMismatchError(f"input symbols must be integers in 0..{dim_in - 1}")
    return symbols


def classical_version(ch: StochasticChannel, codebook: Codebook) -> StochasticChannel:
    """The classical version of a codebook: the M-to-M channel
    decoder o ch o encoder, from one-hot encoder and decoder matrices."""
    inputs = _symbols(codebook.inputs, ch.dim_in)
    if len(codebook.decoder) != ch.dim_out:
        raise DimensionMismatchError(
            f"decoder has {len(codebook.decoder)} entries for {ch.dim_out} channel outputs")
    m = codebook.message_count
    pre = np.zeros((ch.dim_in, m))
    pre[inputs, np.arange(m)] = 1.0
    post = np.zeros((m, ch.dim_out))
    post[list(codebook.decoder), np.arange(ch.dim_out)] = 1.0
    return StochasticChannel(post @ ch.matrix @ pre)


def success_probability(cv: StochasticChannel) -> float:
    """Average diagonal of a classical version."""
    t = cv.matrix
    if t.shape[0] != t.shape[1]:
        raise DimensionMismatchError("composed channel must be square")
    return float(np.trace(t) / t.shape[0])


def ml_decoder(ch: StochasticChannel, inputs) -> tuple:
    """Per-output argmax of the codeword likelihoods, ties to the lowest
    message index; optimal on average for the uniform message prior."""
    if len(inputs) == 0:
        raise ThermocapError("inputs must be nonempty")
    cols = ch.matrix[:, _symbols(inputs, ch.dim_in)]
    return tuple(int(i) for i in np.argmax(cols, axis=1))


def gibbs_deviation(cv: StochasticChannel) -> float:
    """L1 distance between a classical version's image of the uniform
    message distribution and uniform itself."""
    uniform = Distribution.uniform(cv.dim_in)
    return trace_distance(cv.apply(uniform), uniform)


@dataclass(frozen=True)
class CapacityResult:
    bits: float
    codebook: Codebook
    exact: bool
    method: str


def _codebook_from_combo(ch: StochasticChannel, combo) -> Codebook:
    return Codebook(inputs=tuple(int(x) for x in combo), decoder=ml_decoder(ch, combo))


def _codebook_batches(ch: StochasticChannel, sizes):
    """Codebooks of distinct input symbols for each message count in `sizes`,
    lexicographic within a size, in batches (combos, cols) of at most 4096
    codebooks where cols[b, j] is the likelihood column of symbol
    combos[b, j].  The walk takes the sizes in order while the running
    codebook count stays within CODEBOOK_BUDGET, and stops before the first
    size that would pass it; a caller sees where from combos.shape[1]."""
    total = 0
    for m in sizes:
        if (total := total + math.comb(ch.dim_in, m)) > CODEBOOK_BUDGET:
            return
        it = itertools.combinations(range(ch.dim_in), m)
        while chunk := list(itertools.islice(it, 4096)):
            combos = np.array(chunk, dtype=np.intp)
            yield combos, ch.matrix.T[combos]


def _ml_success(cols: np.ndarray) -> np.ndarray:
    """ML success probability of every codebook in a batch."""
    return cols.max(axis=1).sum(axis=1) / cols.shape[1]


def _ml_composed(cols: np.ndarray) -> np.ndarray:
    """classical_version(ch, cb).matrix of every ML codebook cb in a batch,
    with the same bits."""
    decoded = cols.argmax(axis=1)[:, None, :] == np.arange(cols.shape[1])[:, None]
    t = decoded @ cols.transpose(0, 2, 1)
    return t / t.sum(axis=1, keepdims=True)


def _uniform_deviation(t: np.ndarray) -> np.ndarray:
    """L1 distance of each channel's image of uniform from uniform (batched)."""
    uniform = np.full(t.shape[-1], 1.0 / t.shape[-1])
    return np.abs(t @ uniform - uniform).sum(axis=-1)


def _feasible(cols: np.ndarray, eps: float) -> np.ndarray:
    """Indices of the batch's codebooks with success at least 1 - eps."""
    return np.flatnonzero(_ml_success(cols) >= _feasibility_threshold(eps))


def _gain_chunks(rows: np.ndarray, levels: np.ndarray):
    """(part, g) for consecutive slices `part` of `levels`, where
    g[i, x] = sum_y (rows[x, y] - levels[part][i, y])^+.  Each slice's
    temporary holds at most 2^16 entries, or one copy of `rows` when that
    is larger; a row of g does not depend on the slicing."""
    step = max(1, (1 << 16) // rows.size)
    for i in range(0, len(levels), step):
        diff = rows - levels[i:i + step, None, :]
        yield slice(i, i + step), np.maximum(diff, 0.0, out=diff).sum(axis=2)


def _converse(ch: StochasticChannel, m_cap: int) -> np.ndarray:
    """bound[m] >= sum_y max_{x in C} W(y|x) = m * success(C) for every
    codebook C of m distinct symbols, m = 1..m_cap (inf where not computed:
    m = 0, and every m when m_cap < 2).

    For any v >= 0 on the outputs, max_{x in C} W(y|x) <= v_y +
    sum_{x in C} (W(y|x) - v_y)^+, so m * success(C) <= sum_y v_y plus the m
    largest g_x = sum_y (W(y|x) - v_y)^+: the dual of the non-signalling LP
    (Matthews 2012), with the m largest g_x in place of m max_x g_x.  The
    bound is the least over v = the j-th largest entry of each output row,
    j = 1..dim_in; j = 1 gives the cover-all bound sum_y max_x W(y|x).
    """
    bound = np.full(m_cap + 1, np.inf)
    if m_cap < 2:
        return bound
    rows = ch.matrix.T
    levels = np.sort(ch.matrix, axis=1)[:, ::-1].T  # levels[j - 1][y]: j-th largest W(y|.)
    for part, g in _gain_chunks(rows, levels):
        top = np.cumsum(np.sort(g, axis=1)[:, ::-1][:, :m_cap], axis=1)  # top[:, m - 1]
        bound[1:] = np.minimum(bound[1:], (levels[part].sum(axis=1)[:, None] + top).min(axis=0))
    return bound


def _search_exact(ch, eps, m_cap):
    """First feasible codebook of the largest feasible message count, and the
    number of search nodes: one root per M, plus every child bounded or judged.
    Past NODE_BUDGET nodes the search stops and returns `_greedy_swap`'s
    codebook from the M it was at down, so it is exact iff nodes <= NODE_BUDGET.

    Depth-first branch-and-bound with M descending and combinations in
    lexicographic order within each M, so the first feasible leaf is the
    first feasible codebook of a full enumeration in that order.  An M whose
    `_converse` bound is below M (1 - eps), less a rounding slack, costs its
    root alone.  With cur the row maxima of a prefix, M * success =
    sum_y max_{x in C} W(y|x) is monotone submodular (Nemhauser, Wolsey &
    Fisher 1978), and a prefix ending in symbol a is pruned when its top-r
    gain bound, sum_y cur_y plus the r largest gains sum_y (W(y|x) - cur_y)^+
    over x > a for r symbols still to choose (Nemhauser & Wolsey 1981), does
    not reach the same level.  Leaves are judged by `_feasible`.
    """
    converse = _converse(ch, m_cap)
    n = ch.dim_in
    rows = ch.matrix.T  # rows[x] is the likelihood column of input symbol x
    target = _feasibility_threshold(eps)
    nodes = 0
    for m in range(m_cap, 0, -1):
        # prune or refute only past the rounding of the bounds (the converse's
        # included) and leaf sums: a few ulps per summed output and chosen
        # symbol, relative to the m * target the leaf sums are compared with
        need = m * target
        floor = need - PRUNE_SLACK * abs(need) - 4.0 * np.finfo(float).eps * (ch.dim_out + m + 4) * m
        nodes += 1
        if converse[m] < floor:
            continue  # no m-codebook can reach it
        stack = [((), np.zeros(ch.dim_out))]
        while stack:
            prefix, cur = stack.pop()
            left = m - len(prefix)  # symbols still to choose, the next one included
            cand = np.arange(prefix[-1] + 1 if prefix else 0, n - left + 1)
            nodes += cand.size
            if nodes > NODE_BUDGET:
                return _greedy_swap(ch, eps, m), nodes
            if left == 1:
                combos = np.empty((cand.size, m), dtype=np.intp)
                combos[:, :-1], combos[:, -1] = prefix, cand
                hits = _feasible(rows[combos], eps)
                if hits.size:
                    return _codebook_from_combo(ch, combos[hits[0]]), nodes
                continue
            child = np.maximum(cur, rows[cand])
            top = np.empty(cand.size)
            for part, gains in _gain_chunks(rows, child):
                gains[cand[part, None] >= np.arange(n)] = 0.0  # only symbols after a
                top[part] = np.sort(gains, axis=1)[:, n - left + 1:].sum(axis=1)
            bound = child.sum(axis=1) + top
            for i in np.flatnonzero(bound >= floor)[::-1].tolist():
                stack.append((prefix + (int(cand[i]),), child[i]))
    raise ThermocapError("single-message codebooks are always feasible; this is a bug")


def _greedy_swap(ch, eps, m_top):
    """A lower bracket: for M from m_top down, the first M symbols of the
    greedy chain on sum_y max_{x in C} W(y|x) (ties to the lowest symbol),
    improved by best single swaps until they meet 1 - eps or no swap raises
    the sum; the first M that meets 1 - eps wins."""
    rows = ch.matrix.T
    chain = []
    for _ in range(m_top):
        gains = np.maximum(rows, rows[chain].max(axis=0, initial=0.0)).sum(axis=1)
        gains[chain] = -np.inf
        chain.append(int(np.argmax(gains)))
    for m in range(m_top, 1, -1):
        chosen = chain[:m]
        value = rows[chosen].max(axis=0).sum()  # carried, so each swap strictly raises it
        while not _feasible(rows[chosen][None], eps).size:
            # sums[i, j]: the sum with chosen[i] swapped for outside[j]
            outside = np.setdiff1d(np.arange(ch.dim_in), chosen)
            rest = [np.delete(rows[chosen], i, axis=0).max(axis=0) for i in range(m)]
            sums = np.array([np.maximum(rows[outside], r).sum(axis=1) for r in rest])
            if sums.max(initial=value) <= value:
                break
            i, j = np.unravel_index(np.argmax(sums), sums.shape)
            value, chosen[i] = sums[i, j], int(outside[j])
        else:
            return _codebook_from_combo(ch, sorted(chosen))
    return _codebook_from_combo(ch, (0,))


def _capacity(ch, eps, max_messages):
    m_cap = ch.dim_in
    if max_messages is not None:
        m_cap = min(_count(max_messages, "max_messages"), ch.dim_in)
    cb, nodes = _search_exact(ch, eps, m_cap)
    exact = bool(nodes <= NODE_BUDGET)
    return CapacityResult(bits=math.log2(cb.message_count), codebook=cb, exact=exact,
                          method="exhaustive" if exact else "greedy_swap")


def _exact_or_raise(res: CapacityResult) -> CapacityResult:
    """`res` for the callers that report a capacity with no bracket, if exact."""
    if not res.exact:
        raise SearchSpaceTooLargeError(f"capacity search ran out of NODE_BUDGET = {NODE_BUDGET} "
                                       f"nodes; {res.bits} bits is only a lower bracket")
    return res


def one_shot_capacity(ch: StochasticChannel, eps: float,
                      max_messages: int | None = None) -> CapacityResult:
    """One-shot classical capacity at average error eps, in bits.

    A branch-and-bound over codebooks of distinct input symbols with ML
    decoding (optimal for classical channels), M descending and lexicographic
    within M, gives log2 of the largest feasible M and the first achieving
    codebook (method "exhaustive").  Past NODE_BUDGET nodes the result is a
    greedy-and-swap lower bracket, exact False (method "greedy_swap").
    """
    if not 0.0 <= eps <= 1.0:
        raise ThermocapError("eps must lie in [0, 1]")
    return _capacity(ch, eps, max_messages)


def theta_equilibrium_capacity(ch: StochasticChannel, eps: float, theta: float,
                               max_messages: int | None = None) -> CapacityResult:
    """One-shot capacity restricted to codebooks whose induced classical
    version moves the uniform message state by at most 2*theta in L1; that
    never binds here, so it runs `one_shot_capacity`'s search.  An ML
    codebook's T has unit column sums and success s >= 1 - eps, so ||Tu - u||_1
    = (1/M) sum_i |sum_j (T_ij - delta_ij)| <= (1/M) sum_j 2 (1 - T_jj) = 2 (1 - s)
    <= 2 eps <= 2 theta."""
    if not (0.0 < eps <= theta < 0.5):
        raise ThermocapError("need 0 < eps <= theta < 1/2")
    return _capacity(ch, eps, max_messages)
