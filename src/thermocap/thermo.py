"""Single-shot work extraction on finite classical systems.

Processes alternate instantaneous level transformations (work cost equal to
the energy-gap random variable) with free thermalisations; a process is kept
as the levels it thermalises at.  Work random variables are computed exactly
by convolving the independent per-stage increments.  Once the atoms outgrow
their budget the convolution moves to a value grid, and a grid window that
would outgrow its cap doubles the grid step until it fits; such an answer
carries the bound on how far the grid moved the work.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .core import (
    LN2,
    SUM_TOL,
    Distribution,
    DimensionMismatchError,
    ErrorParams,
    Hamiltonian,
    JointDistribution,
    ThermocapError,
    ZeroMarginalError,
    _count,
    _feasibility_threshold,
    _freeze,
    _gibbs_probs,
    _running_sum,
    gibbs_state,
)
from .entropy import smoothed_renyi0

#: default quench energy for levels pushed out of the retained set; their
#: occupation e^-50 is below double-precision relevance
DEFAULT_E_CUT = 50.0
DEFAULT_K_STEPS = 400
#: atoms the exact work convolution may hold before it moves to a grid
ATOM_BUDGET = 1_000_000
#: pad on each closed end of eps_delta_work's windows, so that an atom on
#: an edge survives the rounding of the edge
WINDOW_PAD = 1e-12

_PRUNE_TOL = 1e-18
_DENSE_CAP = 20_000_000


@dataclass(frozen=True)
class WorkProcess:
    """Quenches and free thermalisations as an (r + 1) x d array: row 0 holds
    the initial levels, each interior row the levels at one thermalisation
    and the last row the final levels, back at row 0.  A run of quenches
    leaves the state alone, so only its net gap costs work."""

    levels: np.ndarray

    def __post_init__(self):
        try:
            levels = np.array(self.levels, dtype=np.float64)
        except (TypeError, ValueError):
            raise ThermocapError("process levels must be a rectangular numeric array") from None
        if levels.ndim != 2 or len(levels) < 2 or not levels.size or not np.isfinite(levels).all():
            raise ThermocapError("process levels must be finite, in two or more rows of levels")
        if not np.allclose(levels[-1], levels[0], rtol=0.0, atol=SUM_TOL):
            raise ThermocapError("process must end at the initial Hamiltonian")
        object.__setattr__(self, "levels", _freeze(levels))


def _strictly_ascending(values: np.ndarray) -> bool:
    """True when each value exceeds the one before it (False at a tie,
    -0.0 beside 0.0, or a NaN)."""
    return bool((values[1:] > values[:-1]).all())


@dataclass(frozen=True)
class WorkDistribution:
    """Distribution of the total work cost, in units of k_B*T.

    mode is one of "exact", "binned" (exact convolution on a value grid of
    the given resolution) or "coarsened" (binned on a grid whose step was
    doubled to keep the window within its cap; every trajectory's work is
    within grid_error of its value on the grid).
    """

    values: np.ndarray
    probs: np.ndarray
    mode: str
    resolution: float | None = None
    grid_error: float | None = None

    def __post_init__(self):
        values = np.asarray(self.values, dtype=np.float64)
        probs = np.asarray(self.probs, dtype=np.float64)
        if values.shape != probs.shape or values.ndim != 1:
            raise ThermocapError("values and probs must be matching vectors")
        total = probs.sum()
        if abs(float(total) - 1.0) > SUM_TOL:
            raise ThermocapError("work distribution must be normalised")
        if _strictly_ascending(values):
            # what every internal producer hands over: the argsort below
            # would be the identity
            object.__setattr__(self, "values", values.copy())
            object.__setattr__(self, "probs", probs / total)
        else:
            order = np.argsort(values)
            object.__setattr__(self, "values", values[order])
            object.__setattr__(self, "probs", probs[order] / total)

    @property
    def mean(self) -> float:
        return float(np.dot(self.values, self.probs))

    @property
    def variance(self) -> float:
        return float(np.dot((self.values - self.mean) ** 2, self.probs))

    def to_dict(self) -> dict:
        out = {
            "atoms": [[float(v), float(p)] for v, p in zip(self.values, self.probs)],
            "mode": self.mode,
        }
        if self.resolution is not None:
            out["resolution"] = self.resolution
        if self.mode == "coarsened":
            out["grid_error"] = self.grid_error
        return out


def _segments(proc: WorkProcess, eta: Distribution) -> list:
    """Split the process at thermalisations into (values, probs) increments:
    each pair of consecutive rows of its levels adds the gap between them
    under one draw from the occupancy at the first row (eta for row 0, the
    Gibbs state of the row's levels after that).
    Each increment's values are ascending and distinct, its probs positive.
    Runs whose gap is zero on every occupied level are dropped; the rest
    come in a stable order of increasing spread, values[-1] - values[0]."""
    if eta.dim != proc.levels.shape[1]:
        raise DimensionMismatchError("state dimension must match the Hamiltonian")
    gaps = np.diff(proc.levels, axis=0)
    occupancy = np.vstack([eta.probs, _gibbs_probs(proc.levels[1:-1])])

    # a unique per row; the stable sort keeps each group in index order, the
    # order a per-row bincount adds it in
    order = np.argsort(gaps, axis=1, kind="stable")
    sorted_gaps = np.take_along_axis(gaps, order, axis=1)
    first = np.ones(gaps.shape, dtype=bool)
    np.not_equal(sorted_gaps[:, 1:], sorted_gaps[:, :-1], out=first[:, 1:])
    run = np.nonzero(first)[0]
    first = first.ravel()
    values = sorted_gaps.ravel()[first]
    probs = np.bincount(
        np.cumsum(first) - 1, weights=np.take_along_axis(occupancy, order, axis=1).ravel()
    )
    keep = probs > 0.0
    # a run costs work when some occupied level's gap is nonzero
    moving = np.zeros(gaps.shape[0], dtype=bool)
    moving[run[keep & (values != 0.0)]] = True
    keep &= moving[run]
    values, probs, run = values[keep], probs[keep], run[keep]

    sizes = np.bincount(run, minlength=gaps.shape[0])[moving]
    ends = np.cumsum(sizes)
    spread = values[ends - 1] - values[ends - sizes]
    bounds = ends.tolist()
    starts = [0] + bounds[:-1]
    return [(values[starts[i]:bounds[i]], probs[starts[i]:bounds[i]])
            for i in np.argsort(spread, kind="stable").tolist()]


def _convolve_exact(values, probs, seg_values, seg_probs):
    """Atoms of the sum of (values, probs) and one increment, both with
    ascending values; the result's values are ascending and distinct too.

    The sums come as seg_values.size ascending runs, which a stable argsort
    merges.  Equal sums are added in the row-major order of
    values[:, None] + seg_values[None, :], so the atoms carry the bits of an
    np.unique/bincount convolution; atoms at or below _PRUNE_TOL are pruned.
    """
    sums = (seg_values[:, None] + values[None, :]).ravel()
    order = np.argsort(sums, kind="stable")
    sums = sums[order]
    first = np.ones(sums.size, dtype=bool)
    np.not_equal(sums[1:], sums[:-1], out=first[1:])
    if first.all():
        # each atom is its one product, the bits of 0.0 + w, without the
        # scatter and the transposed bincount below
        out_probs = (seg_probs[:, None] * probs[None, :]).ravel()[order]
    else:
        group = np.empty(sums.size, dtype=np.int64)
        group[order] = np.cumsum(first) - 1
        sums = sums[first]
        # a rounding collision of three or more sums can merge out of
        # row-major order, so each group is summed in that layout
        out_probs = np.bincount(group.reshape(seg_values.size, -1).T.ravel(),
                                weights=(probs[:, None] * seg_probs[None, :]).ravel())
    if out_probs.min() > _PRUNE_TOL:
        return sums, out_probs
    keep = out_probs > _PRUNE_TOL
    return sums[keep], out_probs[keep]


def _dense_convolve(offset: int, dense: np.ndarray, shifts: list, weights: list):
    """Grid convolution of the window `dense`, which starts at cell `offset`,
    with one increment: ascending whole-number cell shifts (ints or floats)
    and their float weights."""
    lo = shifts[0]
    n = dense.size
    out = np.zeros(n + int(shifts[-1] - lo))
    for s, w in zip(shifts, weights):
        start = int(s - lo)
        out[start : start + n] += w * dense
    # trim negligible tails, tracking the window offset
    live = out > _PRUNE_TOL
    first = int(live.argmax())
    if not live[first]:
        raise ThermocapError("work distribution lost all mass; pruning bug")
    stop = out.size - int(live[::-1].argmax())
    return offset + int(lo) + first, out[first:stop]


def _merge_pairs(offset: int, dense: np.ndarray):
    """The window `dense`, which starts at cell `offset`, on a grid of twice
    the step: cell c becomes cell c // 2, so no mass moves by more than one
    old step."""
    pad = offset % 2
    pairs = np.zeros(pad + dense.size + (pad + dense.size) % 2)
    pairs[pad : pad + dense.size] = dense
    return offset // 2, pairs[0::2] + pairs[1::2]


def work_distribution(
    proc: WorkProcess,
    eta: Distribution,
    resolution: float | None = None,
) -> WorkDistribution:
    """Distribution of the total work cost of `proc` started in `eta`.

    Exact while the convolution stays inside ATOM_BUDGET atoms; after that
    values are snapped to a grid of the given resolution (default 1e-3) and
    the convolution continues exactly on the grid ("binned").  Where the
    grid window would pass _DENSE_CAP cells, the step doubles until it fits
    ("coarsened"): the window's cells merge in pairs and the increments still
    to come are rounded at the new step.  The snap and each grid stage move
    the work by at most half the step they round at, and each merge by at
    most one step before it (all merges together by less than the final
    step); a coarsened result reports the sum of these as grid_error.
    """
    if resolution is not None and not 0.0 < resolution < math.inf:
        raise ThermocapError("resolution must be finite and positive")
    res = resolution if resolution is not None else 1e-3
    segments = _segments(proc, eta)

    values = np.zeros(1)
    probs = np.ones(1)
    for n_exact, (seg_values, seg_probs) in enumerate(segments):
        if values.size * seg_values.size > ATOM_BUDGET:
            break
        values, probs = _convolve_exact(values, probs, seg_values, seg_probs)
    else:
        return WorkDistribution(values=values, probs=probs, mode="exact")

    # cell counts stay floats until they fit the cap, so no cast overflows;
    # the exact values ascend, and so do their cells
    first_res = res
    cells = np.round(values / res)
    while cells[-1] - cells[0] >= _DENSE_CAP:
        res *= 2.0
        cells = np.round(values / res)
    offset = int(cells[0])
    dense = np.bincount((cells - cells[0]).astype(np.int64), weights=probs)
    grid_error = res / 2.0
    # the grid cells of every remaining increment in one pass; rounding is
    # monotone, so each increment's shifts ascend like its values
    rest = segments[n_exact:]
    stops = np.cumsum([seg_values.size for seg_values, _ in rest]).tolist()
    rest_values = np.concatenate([v for v, _ in rest])
    shifts = np.round(rest_values / res).tolist()
    weights = np.concatenate([p for _, p in rest]).tolist()
    for start, stop in zip([0] + stops[:-1], stops):
        while dense.size + (shifts[stop - 1] - shifts[start]) > _DENSE_CAP:
            grid_error += res
            res *= 2.0
            offset, dense = _merge_pairs(offset, dense)
            shifts[start:] = np.round(rest_values[start:] / res).tolist()
        offset, dense = _dense_convolve(offset, dense, shifts[start:stop], weights[start:stop])
        grid_error += res / 2.0
    keep = dense > 0.0
    # offset, a Python int, can pass int64 where every value is far from zero
    grid = (np.flatnonzero(keep) + float(offset)) * res
    if res == first_res:
        return WorkDistribution(values=grid, probs=dense[keep], mode="binned", resolution=res)
    return WorkDistribution(values=grid, probs=dense[keep], mode="coarsened", resolution=res,
                            grid_error=grid_error)


def _check_delta(delta: float) -> None:
    if not 0.0 <= delta < math.inf:
        raise ThermocapError("delta must be finite and nonnegative")


def _gain_cdf(wd: WorkDistribution, eps: float):
    """Gains in ascending order, their probabilities, the cumulative mass
    (led by 0) and the mass a qualifying window must exceed."""
    if not 0.0 < eps < 1.0:
        raise ThermocapError("eps must lie in (0, 1)")
    # 0.0 - w, not -w: a zero-work atom is the gain +0.0
    if _strictly_ascending(wd.values):
        # argsort(-values) would be the reversal
        gains, probs = 0.0 - wd.values[::-1], wd.probs[::-1]
    else:
        order = np.argsort(-wd.values)
        gains, probs = 0.0 - wd.values[order], wd.probs[order]
    cum = _running_sum(probs)
    return gains, probs, cum, _feasibility_threshold(eps)


def eps_delta_work(wd: WorkDistribution, eps: float, delta: float = 0.0) -> float:
    """Largest work level w such that the work gain lands within delta of w
    with probability exceeding 1 - eps; -inf when no level qualifies."""
    gains, _, cum, need = _gain_cdf(wd, eps)
    _check_delta(delta)

    # the supremum over qualifying centers is attained with the window's left
    # edge exactly on an atom; closed windows are padded by WINDOW_PAD so edge
    # atoms survive rounding
    lo_idx = np.searchsorted(gains, gains - WINDOW_PAD, side="left")
    hi_idx = np.searchsorted(gains, gains + 2.0 * delta + WINDOW_PAD, side="right")
    masses = cum[hi_idx] - cum[lo_idx]
    qualifying = np.flatnonzero(masses > need)
    if qualifying.size == 0:
        return -math.inf
    return float(gains[qualifying[-1]] + delta)


def shortest_confidence_interval(wd: WorkDistribution, eps: float):
    """Shortest gain interval holding more than 1 - eps of the mass.

    Returns (lo, hi, conditional_mean); the conditional mean is a work level
    qualifying under the (eps, delta) criterion at delta = its largest
    distance to the interval's edges, since its window covers the interval.
    """
    gains, probs, cum, need = _gain_cdf(wd, eps)
    weighted = _running_sum(gains * probs)

    # window [i, j] qualifies when cum[j + 1] - cum[i] > need.  Rounding is
    # monotone, so for each i the qualifying cum[j + 1] are the floats from
    # the least one passing that test, `reach`.  No float below the rounded
    # sum cum[i] + need passes, so reach is that sum stepped up one ulp at a
    # time until it passes, and the window is the one the test picks.
    start = cum[:-1]
    reach = start + need
    while (short := ~(reach - start > need)).any():
        reach[short] = np.nextafter(reach[short], math.inf)
    ends = np.maximum(np.searchsorted(cum, reach, side="left") - 1, np.arange(gains.size))
    starts = np.flatnonzero(ends < gains.size)
    if starts.size == 0:
        raise ThermocapError("no finite window captures the required mass")
    ends = ends[starts]
    # the first of equally short windows, as a scan from the left finds it
    best = int(np.argmin(gains[ends] - gains[starts]))
    i, j = starts[best], ends[best]
    mean = (weighted[j + 1] - weighted[i]) / (cum[j + 1] - cum[i])
    return float(gains[i]), float(gains[j]), float(mean)


def extraction_protocol(
    eta: Distribution,
    h: Hamiltonian,
    eps: float,
    e_cut: float = DEFAULT_E_CUT,
    k_steps: int = DEFAULT_K_STEPS,
    schedule: str = "angle",
):
    """Work-extraction process achieving the smoothed Renyi-0 target.

    Quenches every level outside the optimal retained set to +e_cut,
    thermalises, then walks the quenched levels back over k_steps
    intermediate Hamiltonians with a thermalisation between consecutive
    quenches.  The default "angle" schedule moves uniformly in
    arcsin(sqrt(U)), U being the total occupancy the quenched levels will
    regain: every step then dissipates the same 2*(d theta)^2, which is the
    variance-optimal allocation and makes the work random variable
    concentrate.  "weight" interpolates the Boltzmann weights e^-E
    linearly; "energy" interpolates the levels linearly.  Returns the
    process and the entropy result it is built from.
    """
    if not 0.0 < eps <= ErrorParams.WORK_EPS_MAX:
        raise ThermocapError("need 0 < eps <= 1 - 1/sqrt(2)")
    if not 0.0 < e_cut < math.inf:
        raise ThermocapError("e_cut must be finite and positive")
    k_steps = _count(k_steps, "k_steps")
    if schedule not in ("angle", "weight", "energy"):
        raise ThermocapError("schedule must be 'angle', 'weight' or 'energy'")
    if eta.dim != h.dim:
        raise DimensionMismatchError("state dimension must match the Hamiltonian")

    d0 = smoothed_renyi0(eta, gibbs_state(h), eps)
    retained = sorted(d0.witness.indices)
    excluded = [n for n in range(h.dim) if n not in set(retained)]
    if not excluded:
        return WorkProcess(np.stack([h.levels, h.levels])), d0

    quenched = h.levels.copy()
    quenched[excluded] = e_cut
    w_end = np.exp(-h.levels)
    w_start = np.exp(-quenched)
    z_retained = float(w_end[retained].sum())
    w_exc = w_end[excluded]
    share = w_exc / w_exc.sum()
    u_final = float(w_exc.sum() / (z_retained + w_exc.sum()))
    theta_final = math.asin(math.sqrt(u_final))

    frac = (np.arange(1, k_steps + 1) / (k_steps + 1))[:, None]
    inter = np.tile(quenched, (k_steps, 1))
    if schedule == "angle":
        # math.sin per step: np.sin need not round the same way
        u = np.array([math.sin(f * theta_final) ** 2 for f in frac[:, 0]])[:, None]
        w = z_retained * share * (u / (1.0 - u))
        with np.errstate(divide="ignore"):
            inter[:, excluded] = np.minimum(-np.log(w), e_cut)
    elif schedule == "weight":
        w = w_start[excluded] + frac * (w_end[excluded] - w_start[excluded])
        inter[:, excluded] = -np.log(w)
    else:
        inter = quenched + frac * (h.levels - quenched)
    return WorkProcess(np.vstack([h.levels, quenched, inter, h.levels])), d0


@dataclass(frozen=True)
class WorkExtractionResult:
    """Extractable-work estimate with its analytic bracket attached."""

    value: float
    delta: float
    eps: float
    entropy_bits: float
    #: (ln2 * entropy, ln2 * entropy + ln(1/(1-eps))) in k_B*T, the upper end
    #: taken from the upper end of the entropy's bracket
    bracket: tuple
    e_cut: float
    k_steps: int
    distribution_mode: str
    witness_indices: tuple
    window: tuple | None = None
    #: bound on how far the coarsened grid moved the work, in that mode only
    grid_error: float | None = None

    def to_dict(self) -> dict:
        out = {
            "value_kT": self.value,
            "delta_kT": self.delta,
            "eps": self.eps,
            "entropy_bits": self.entropy_bits,
            "bracket_kT": list(self.bracket),
            "e_cut": self.e_cut,
            "k_steps": self.k_steps,
            "distribution_mode": self.distribution_mode,
            "witness_indices": list(self.witness_indices),
            "window_kT": list(self.window) if self.window is not None else None,
        }
        if self.distribution_mode == "coarsened":
            out["grid_error_kT"] = self.grid_error
        return out


def extractable_work(
    eta: Distribution,
    h: Hamiltonian,
    eps: float,
    delta: float | None = None,
    e_cut: float = DEFAULT_E_CUT,
    k_steps: int = DEFAULT_K_STEPS,
    schedule: str = "angle",
) -> WorkExtractionResult:
    """Simulated extractable work of the quench/thermalise protocol.

    With an explicit delta the value is the best work level under the
    (eps, delta) criterion.  With delta=None the shortest gain interval of
    mass above 1 - eps is located and its conditional mean reported as the
    work level, together with the delta it realises (its largest distance
    to the interval's edges).  The analytic bracket travels in the result,
    and so does the grid error of a coarsened work distribution.
    """
    if delta is not None:
        _check_delta(delta)
    proc, d0 = extraction_protocol(eta, h, eps, e_cut=e_cut, k_steps=k_steps, schedule=schedule)
    resolution = min(delta / 10.0, 1e-3) if delta else 1e-4
    wd = work_distribution(proc, eta, resolution=resolution)
    window = None
    if delta is None:
        lo, hi, value = shortest_confidence_interval(wd, eps)
        realised = max(value - lo, hi - value)
        window = (lo, hi)
    else:
        value, realised = eps_delta_work(wd, eps, delta), delta
    ideal = LN2 * d0.bits
    return WorkExtractionResult(
        value=value,
        delta=realised,
        eps=eps,
        entropy_bits=d0.bits,
        bracket=(ideal, LN2 * d0.bracket[1] + math.log(1.0 / (1.0 - eps))),
        e_cut=e_cut,
        k_steps=k_steps,
        distribution_mode=wd.mode,
        witness_indices=d0.witness.indices,
        window=window,
        grid_error=wd.grid_error,
    )


def locally_thermal_hamiltonians(j: JointDistribution):
    """Local Hamiltonians rendering both marginals thermal (Z = 1 gauge)."""
    pa, pb = j.marginal_a().probs, j.marginal_b().probs
    if np.any(pa == 0.0) or np.any(pb == 0.0):
        raise ZeroMarginalError("marginals must have full support; restrict first")
    return Hamiltonian(-np.log(pa)), Hamiltonian(-np.log(pb))


def restrict_support(j: JointDistribution):
    """Drop zero-mass rows/columns; returns the restriction and kept indices."""
    pa = j.probs.sum(axis=1)
    pb = j.probs.sum(axis=0)
    keep_a = np.flatnonzero(pa > 0.0)
    keep_b = np.flatnonzero(pb > 0.0)
    return JointDistribution(j.probs[np.ix_(keep_a, keep_b)]), keep_a, keep_b


@dataclass(frozen=True, kw_only=True)
class WorkCorrelationResult(WorkExtractionResult):
    """An extraction result on the restricted joint, plus the kept rows and columns."""

    support_a: tuple
    support_b: tuple

    def to_dict(self) -> dict:
        items = [(key, value) for key, value in super().to_dict().items()
                 if key not in ("e_cut", "k_steps", "witness_indices", "window_kT")]
        items[5:5] = [("support_a", list(self.support_a)),  # after bracket_kT
                      ("support_b", list(self.support_b))]
        return dict(items)


def work_from_correlation(
    j: JointDistribution,
    eps: float,
    delta: float | None = None,
    e_cut: float = DEFAULT_E_CUT,
    k_steps: int = DEFAULT_K_STEPS,
    schedule: str = "angle",
) -> WorkCorrelationResult:
    """Extractable work from a bipartite table's correlation.

    Local Hamiltonians are chosen to make both marginals thermal, so the
    product Hamiltonian's Gibbs state is exactly the product of marginals;
    extraction then runs on the flattened joint against that reference.
    """
    jr, keep_a, keep_b = restrict_support(j)
    ha, hb = locally_thermal_hamiltonians(jr)
    levels = (ha.levels[:, None] + hb.levels[None, :]).reshape(-1)
    res = extractable_work(
        jr.flatten(),
        Hamiltonian(levels),
        eps,
        delta,
        e_cut=e_cut,
        k_steps=k_steps,
        schedule=schedule,
    )
    return WorkCorrelationResult(
        **vars(res),
        support_a=tuple(int(i) for i in keep_a),
        support_b=tuple(int(i) for i in keep_b),
    )
