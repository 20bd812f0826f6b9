"""Single-shot work extraction on finite classical systems.

Processes alternate instantaneous level transformations (work cost equal to
the energy-gap random variable) with free thermalisations.  Work random
variables are computed exactly by convolving the independent per-stage
increments, with grid binning and a seeded Monte-Carlo fallback once atom
counts get out of hand.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .core import (
    LN2,
    AtomBudgetExceededError,
    Distribution,
    DimensionMismatchError,
    Hamiltonian,
    JointDistribution,
    ThermocapError,
    ZeroMarginalError,
    _gibbs_probs,
    gibbs_state,
)
from .entropy import smoothed_renyi0

#: default quench energy for levels pushed out of the retained set; their
#: occupation e^-50 is below double-precision relevance
DEFAULT_E_CUT = 50.0
DEFAULT_K_STEPS = 400

_PRUNE_TOL = 1e-18
_DENSE_CAP = 20_000_000


@dataclass(frozen=True)
class LevelTransformation:
    """Instantaneous quench to new energy levels; the state is untouched."""

    new_levels: Hamiltonian


@dataclass(frozen=True)
class Thermalisation:
    """Replace the state by the Gibbs state of the current levels; free."""


@dataclass(frozen=True)
class WorkProcess:
    """Finite sequence of allowed operations returning to the initial levels."""

    initial: Hamiltonian
    steps: tuple

    def __post_init__(self):
        current = self.initial.levels
        for step in self.steps:
            if isinstance(step, LevelTransformation):
                if step.new_levels.dim != self.initial.dim:
                    raise DimensionMismatchError("level transformations must preserve dimension")
                current = step.new_levels.levels
        if not np.allclose(current, self.initial.levels, atol=1e-9):
            raise ThermocapError("process must end at the initial Hamiltonian")


@dataclass(frozen=True)
class WorkDistribution:
    """Distribution of the total work cost, in units of k_B*T.

    mode is one of "exact", "binned" (exact convolution on a value grid of
    the given resolution) or "monte_carlo" (empirical histogram; the DKW
    99%-confidence sup-CDF error is attached).
    """

    values: np.ndarray
    probs: np.ndarray
    mode: str
    resolution: float | None = None
    n_samples: int | None = None
    seed: int | None = None
    cdf_error: float | None = None

    def __post_init__(self):
        values = np.asarray(self.values, dtype=np.float64)
        probs = np.asarray(self.probs, dtype=np.float64)
        if values.shape != probs.shape or values.ndim != 1:
            raise ThermocapError("values and probs must be matching vectors")
        if abs(float(probs.sum()) - 1.0) > 1e-9:
            raise ThermocapError("work distribution must be normalised")
        order = np.argsort(values)
        object.__setattr__(self, "values", values[order])
        object.__setattr__(self, "probs", probs[order] / probs.sum())

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
        if self.mode == "monte_carlo":
            out["n_samples"] = self.n_samples
            out["seed"] = self.seed
            out["cdf_error_99"] = self.cdf_error
        return out

    def to_csv_rows(self) -> list:
        rows = [("value", "prob")]
        rows += [(float(v), float(p)) for v, p in zip(self.values, self.probs)]
        return rows


def _segments(proc: WorkProcess, eta: Distribution) -> list:
    """Split the process at thermalisations into (values, probs) increments:
    each run of level transformations adds the energy gap between its
    boundary Hamiltonians under one draw from the occupancy at its start.
    Runs whose gap is zero on every occupied level are dropped."""
    if eta.dim != proc.initial.dim:
        raise DimensionMismatchError("state dimension must match the Hamiltonian")
    segments = []
    occupancy = eta.probs
    start = current = proc.initial.levels
    # a closing thermalisation ends the last run; it costs no work
    for step in (*proc.steps, Thermalisation()):
        if isinstance(step, LevelTransformation):
            current = step.new_levels.levels
            continue
        values, inverse = np.unique(current - start, return_inverse=True)
        probs = np.bincount(inverse, weights=occupancy, minlength=values.size)
        keep = probs > 0.0
        values, probs = values[keep], probs[keep]
        if values.size > 1 or values[0] != 0.0:
            segments.append((values, probs))
        occupancy, start = _gibbs_probs(current), current
    return segments


def _convolve_exact(values, probs, seg_values, seg_probs):
    vv = (values[:, None] + seg_values[None, :]).ravel()
    pp = (probs[:, None] * seg_probs[None, :]).ravel()
    out_values, inverse = np.unique(vv, return_inverse=True)
    out_probs = np.bincount(inverse, weights=pp, minlength=out_values.size)
    keep = out_probs > _PRUNE_TOL
    return out_values[keep], out_probs[keep]


def _dense_convolve(offset: int, dense: np.ndarray, shifts: np.ndarray, weights: np.ndarray):
    lo, hi = int(shifts.min()), int(shifts.max())
    out = np.zeros(dense.size + (hi - lo))
    for s, w in zip(shifts, weights):
        start = int(s) - lo
        out[start : start + dense.size] += w * dense
    # trim negligible tails, tracking the window offset
    nz = np.flatnonzero(out > _PRUNE_TOL)
    if nz.size == 0:
        raise ThermocapError("work distribution lost all mass; pruning bug")
    out = out[nz[0] : nz[-1] + 1]
    return offset + lo + int(nz[0]), out


def work_distribution(
    proc: WorkProcess,
    eta: Distribution,
    atom_budget: int = 1_000_000,
    resolution: float | None = None,
    mc_trajectories: int = 100_000,
    seed: int = 0,
) -> WorkDistribution:
    """Distribution of the total work cost of `proc` started in `eta`.

    Exact while the convolution stays inside `atom_budget` atoms; after that
    values are snapped to a grid of the given resolution (default 1e-3) and
    the convolution continues exactly on the grid.  If even the grid window
    explodes, a seeded Monte-Carlo histogram is returned instead.
    """
    if resolution is not None and not 0.0 < resolution < math.inf:
        raise ThermocapError("resolution must be finite and positive")
    res = resolution if resolution is not None else 1e-3
    segments = sorted(_segments(proc, eta), key=lambda s: np.ptp(s[0]))

    values = np.zeros(1)
    probs = np.ones(1)
    for n_exact, (seg_values, seg_probs) in enumerate(segments):
        if values.size * seg_values.size > atom_budget:
            break
        values, probs = _convolve_exact(values, probs, seg_values, seg_probs)
    else:
        return WorkDistribution(values=values, probs=probs, mode="exact")

    idx = np.round(values / res).astype(np.int64)
    offset = int(idx.min())
    dense = np.zeros(int(idx.max()) - offset + 1)
    np.add.at(dense, idx - offset, probs)
    for seg_values, seg_probs in segments[n_exact:]:
        shifts = np.round(seg_values / res).astype(np.int64)
        if dense.size + int(shifts.max() - shifts.min()) > _DENSE_CAP:
            if mc_trajectories < 1:
                raise AtomBudgetExceededError(
                    "grid convolution outgrew the cap and Monte-Carlo is disabled"
                )
            return _monte_carlo_distribution(segments, res, mc_trajectories, seed)
        offset, dense = _dense_convolve(offset, dense, shifts, seg_probs)
    keep = dense > 0.0
    grid = (offset + np.flatnonzero(keep)) * res
    return WorkDistribution(values=grid, probs=dense[keep], mode="binned", resolution=res)


def _monte_carlo_distribution(segments, res, n, seed):
    rng = np.random.default_rng(seed)
    totals = np.zeros(n)
    for seg_values, seg_probs in segments:
        draws = rng.choice(seg_values.size, size=n, p=seg_probs / seg_probs.sum())
        totals += seg_values[draws]
    idx = np.round(totals / res).astype(np.int64)
    uniq, counts = np.unique(idx, return_counts=True)
    dkw = math.sqrt(math.log(2.0 / 0.01) / (2.0 * n))
    return WorkDistribution(
        values=uniq * res,
        probs=counts / n,
        mode="monte_carlo",
        resolution=res,
        n_samples=n,
        seed=seed,
        cdf_error=dkw,
    )


def _check_delta(delta: float) -> None:
    if not 0.0 <= delta < math.inf:
        raise ThermocapError("delta must be finite and nonnegative")


def _gain_cdf(wd: WorkDistribution, eps: float):
    """Gains in ascending order, their probabilities, the cumulative mass
    (led by 0) and the mass a qualifying window must exceed."""
    if not 0.0 < eps < 1.0:
        raise ThermocapError("eps must lie in (0, 1)")
    order = np.argsort(-wd.values)
    gains = -wd.values[order]
    probs = wd.probs[order]
    cum = np.concatenate([[0.0], np.cumsum(probs)])
    return gains, probs, cum, (1.0 - eps) - 1e-12


def eps_delta_work(wd: WorkDistribution, eps: float, delta: float = 0.0) -> float:
    """Largest work level w such that the work gain lands within delta of w
    with probability exceeding 1 - eps; -inf when no level qualifies."""
    gains, _, cum, need = _gain_cdf(wd, eps)
    _check_delta(delta)

    # the supremum over qualifying centers is attained with the window's left
    # edge exactly on an atom; closed windows are padded by 1e-12 so edge
    # atoms survive rounding
    lo_idx = np.searchsorted(gains, gains - 1e-12, side="left")
    hi_idx = np.searchsorted(gains, gains + 2.0 * delta + 1e-12, side="right")
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
    weighted = np.concatenate([[0.0], np.cumsum(gains * probs)])

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
    if not 0.0 < eps <= 1.0 - 1.0 / math.sqrt(2.0):
        raise ThermocapError("need 0 < eps <= 1 - 1/sqrt(2)")
    if e_cut <= 0.0:
        raise ThermocapError("e_cut must be positive")
    if k_steps < 1:
        raise ThermocapError("k_steps must be >= 1")
    if schedule not in ("angle", "weight", "energy"):
        raise ThermocapError("schedule must be 'angle', 'weight' or 'energy'")
    if eta.dim != h.dim:
        raise DimensionMismatchError("state dimension must match the Hamiltonian")

    d0 = smoothed_renyi0(eta, gibbs_state(h), eps)
    retained = sorted(d0.witness.indices)
    excluded = [n for n in range(h.dim) if n not in set(retained)]
    if not excluded:
        return WorkProcess(initial=h, steps=()), d0

    quenched = h.levels.copy()
    quenched[excluded] = e_cut
    w_end = np.exp(-h.levels)
    w_start = np.exp(-quenched)
    z_retained = float(w_end[retained].sum())
    w_exc = w_end[excluded]
    share = w_exc / w_exc.sum()
    u_final = float(w_exc.sum() / (z_retained + w_exc.sum()))
    theta_final = math.asin(math.sqrt(u_final))

    steps = [LevelTransformation(Hamiltonian(quenched)), Thermalisation()]
    for j in range(1, k_steps + 1):
        frac = j / (k_steps + 1)
        inter = quenched.copy()
        if schedule == "angle":
            u = math.sin(frac * theta_final) ** 2
            w = z_retained * share * (u / (1.0 - u))
            with np.errstate(divide="ignore"):
                inter[excluded] = np.minimum(-np.log(w), e_cut)
        elif schedule == "weight":
            w = w_start[excluded] + frac * (w_end[excluded] - w_start[excluded])
            inter[excluded] = -np.log(w)
        else:
            inter = quenched + frac * (h.levels - quenched)
        steps.append(LevelTransformation(Hamiltonian(inter)))
        steps.append(Thermalisation())
    steps.append(LevelTransformation(Hamiltonian(h.levels.copy())))
    return WorkProcess(initial=h, steps=tuple(steps)), d0


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

    def to_dict(self) -> dict:
        return {
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


def extractable_work(
    eta: Distribution,
    h: Hamiltonian,
    eps: float,
    delta: float | None = None,
    e_cut: float = DEFAULT_E_CUT,
    k_steps: int = DEFAULT_K_STEPS,
    schedule: str = "angle",
    atom_budget: int = 1_000_000,
    mc_trajectories: int = 100_000,
    seed: int = 0,
) -> WorkExtractionResult:
    """Simulated extractable work of the quench/thermalise protocol.

    With an explicit delta the value is the best work level under the
    (eps, delta) criterion.  With delta=None the shortest gain interval of
    mass above 1 - eps is located and its conditional mean reported as the
    work level, together with the delta it realises (its largest distance
    to the interval's edges).  The analytic bracket travels in the result.
    """
    if delta is not None:
        _check_delta(delta)
    proc, d0 = extraction_protocol(eta, h, eps, e_cut=e_cut, k_steps=k_steps, schedule=schedule)
    resolution = min(delta / 10.0, 1e-3) if delta else 1e-4
    wd = work_distribution(
        proc,
        eta,
        atom_budget=atom_budget,
        resolution=resolution,
        mc_trajectories=mc_trajectories,
        seed=seed,
    )
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


@dataclass(frozen=True)
class WorkCorrelationResult:
    value: float
    delta: float
    eps: float
    entropy_bits: float
    bracket: tuple
    support_a: tuple
    support_b: tuple
    distribution_mode: str

    def to_dict(self) -> dict:
        return {
            "value_kT": self.value,
            "delta_kT": self.delta,
            "eps": self.eps,
            "entropy_bits": self.entropy_bits,
            "bracket_kT": list(self.bracket),
            "support_a": list(self.support_a),
            "support_b": list(self.support_b),
            "distribution_mode": self.distribution_mode,
        }


def work_from_correlation(
    j: JointDistribution,
    eps: float,
    delta: float | None = None,
    e_cut: float = DEFAULT_E_CUT,
    k_steps: int = DEFAULT_K_STEPS,
    schedule: str = "angle",
    atom_budget: int = 1_000_000,
    mc_trajectories: int = 100_000,
    seed: int = 0,
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
        atom_budget=atom_budget,
        mc_trajectories=mc_trajectories,
        seed=seed,
    )
    return WorkCorrelationResult(
        value=res.value,
        delta=res.delta,
        eps=eps,
        entropy_bits=res.entropy_bits,
        bracket=res.bracket,
        support_a=tuple(int(i) for i in keep_a),
        support_b=tuple(int(i) for i in keep_b),
        distribution_mode=res.distribution_mode,
    )
