"""Witness-based verifiers for the capacity/work sandwich inequalities.

Suprema over infinite families are never chased: searches only ever produce
valid lower estimates, while upper bounds come from the capacity-achieving
codebook itself, which is a feasible point of the bounding expression and
provably dominates the capacity; a smoothed Renyi-0 value enters an upper
bound through the upper end of its bracket, so a node-budget bracket cannot
fake a violation.  A "violation" verdict therefore always signals an
implementation bug, not new physics.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .coding import (
    _codebook_batches,
    _codebook_from_combo,
    _exact_or_raise,
    _ml_success,
    classical_version,
    gibbs_deviation,
    one_shot_capacity,
    success_probability,
    theta_equilibrium_capacity,
)
from .core import (
    LN2,
    Distribution,
    ErrorParams,
    JointDistribution,
    NoFeasibleCodebookError,
    StochasticChannel,
    ThermocapError,
    _count,
)
from .entropy import binary_entropy, hypothesis_testing_entropy, smoothed_renyi0
from .thermo import work_from_correlation

_CHAIN_TOL = 1e-6
#: slack on the sandwich chain's test of the upper witness's deviation against its
#: limit: 2(eps + delta) in thm2 and thm4, 2 theta in prop2
WITNESS_DEVIATION_TOL = 1e-9
#: slack on landauer_scenario's test of the empirical success against its 3-sigma band
BAND_SLACK = 1e-12
#: seeded random inputs of thm2's lower search; thm4 draws RANDOM_INPUTS // dim_in per codebook
RANDOM_INPUTS = 32


@dataclass(frozen=True)
class BoundReport:
    lower_estimate: float
    capacity: float
    upper_witness_value: float
    error_terms: dict
    witnesses: dict
    verdict: str

    @property
    def consistent(self) -> bool:
        return self.verdict == "consistent"

    def to_dict(self) -> dict:
        return {
            "lower_estimate": self.lower_estimate,
            "capacity": self.capacity,
            "upper_witness_value": self.upper_witness_value,
            "error_terms": dict(self.error_terms),
            "witnesses": dict(self.witnesses),
            "verdict": self.verdict,
        }


def error_terms(params: ErrorParams) -> dict:
    """Named one-shot error terms shared by every checker."""
    eps = params.eps
    out = {"extraction_slack_kT": math.log(1.0 / (1.0 - eps)) if eps < 1.0 else math.inf}
    if 0.0 < eps < 1.0:
        out["converse_offset_bits"] = binary_entropy(eps) / (1.0 - eps)
    if params.omega is not None:
        omega = params.omega
        gap = eps - omega
        if gap <= 0.0:
            out["sandwich_penalty_bits"] = math.inf
            out["work_penalty_kT"] = math.inf
        else:
            out["sandwich_penalty_bits"] = math.log2(4.0 * eps / gap**2)
            out["work_penalty_kT"] = math.log(4.0 * eps / (gap**2 * (1.0 - omega)))
    return out


def _output_joint(t: np.ndarray, eta: np.ndarray):
    """Joint law and product reference after the first leg of eta passes
    through the square channel t; both flattened row-major."""
    joint = t @ eta
    marg_a = eta.sum(axis=1)
    marg_b = eta.sum(axis=0)
    reference = np.outer(t @ marg_a, marg_b)
    return Distribution(joint.reshape(-1)), Distribution(reference.reshape(-1))


def _encoded_joint(ch: StochasticChannel, inputs, weights):
    """Joint of channel output with the message register for the separable
    input sum_m p_m (input x_m) x (flag m), plus its product reference."""
    idx = np.asarray(inputs, dtype=np.intp)
    joint = ch.matrix[:, idx] * weights
    avg_in = np.bincount(idx, weights, minlength=ch.dim_in)
    reference = np.outer(ch.matrix @ avg_in, weights)
    return Distribution(joint.reshape(-1)), Distribution(reference.reshape(-1))


def _codebook_renyi0(ch: StochasticChannel, codebook, eps: float, draws: int = 0, rng=None):
    """The codebook's classical version, and the smoothed Renyi-0 results of
    its output on the maximally correlated input and then on `draws` flat
    Dirichlet inputs from rng."""
    cv = classical_version(ch, codebook)
    m = codebook.message_count
    etas = [np.eye(m) / m] + [rng.dirichlet(np.ones(m * m)).reshape(m, m) for _ in range(draws)]
    return cv, [smoothed_renyi0(*_output_joint(cv.matrix, eta), eps) for eta in etas]


def _best_codebooks_per_size(ch: StochasticChannel):
    """Highest-success codebook for message counts 1, 2, ... as far as the
    walk gets within CODEBOOK_BUDGET; the first maximum of each size wins."""
    best = {}
    for combos, cols in _codebook_batches(ch, range(1, ch.dim_in + 1)):
        ps = _ml_success(cols)
        i = int(np.argmax(ps))
        m = combos.shape[1]
        if m not in best or ps[i] > best[m][0]:
            best[m] = (ps[i], combos[i])
    return [_codebook_from_combo(ch, combo) for _, combo in best.values()]


def _sandwich(ch: StochasticChannel, cap, level: float, limit: float, scale: float,
              slack: float, lower: float, terms: dict, **extra) -> BoundReport:
    """The chain lower <= capacity <= upper witness shared by the checkers.

    The upper witness is scale times the upper end of the smoothed Renyi-0
    bracket, at `level`, of the capacity codebook's classical version on the
    maximally correlated input, plus `slack`; the codebook may move the
    uniform state by at most `limit` in L1.  scale is 1 in bits and ln2 in
    k_B*T.  `extra` joins the witnesses.
    """
    cv, (d0,) = _codebook_renyi0(ch, cap.codebook, level)
    deviation = gibbs_deviation(cv)
    capacity = scale * cap.bits
    # no zero slack is added: -0.0 + 0.0 would print a -0.0 bracket as 0.0
    upper = scale * d0.bracket[1] + slack if slack else scale * d0.bracket[1]
    problems = []
    if deviation > limit + WITNESS_DEVIATION_TOL:
        problems.append(f"witness deviation {deviation} exceeds {limit}")
    if lower > capacity + _CHAIN_TOL:
        problems.append(f"lower estimate {lower} exceeds capacity {capacity}")
    if capacity > upper + _CHAIN_TOL:
        problems.append(f"capacity {capacity} exceeds upper witness {upper}")
    return BoundReport(
        lower_estimate=lower,
        capacity=capacity,
        upper_witness_value=upper,
        error_terms=terms,
        witnesses={"codebook_inputs": list(cap.codebook.inputs), "gibbs_deviation": deviation,
                   "renyi0_witness": list(d0.witness.indices), **extra},
        verdict="consistent" if not problems else "violation: " + "; ".join(problems),
    )


def capacity_entropic_bounds(
    ch: StochasticChannel,
    params: ErrorParams,
    seed: int = 0,
) -> BoundReport:
    """Two-sided entropic check on the one-shot capacity (CLI: bounds thm2).

    Lower: best hypothesis-testing value over separable inputs (the best
    codebook of each size, uniformly weighted, and RANDOM_INPUTS seeded
    draws) minus the one-shot penalty.  Upper: the upper end of the smoothed
    Renyi-0 bracket of the capacity codebook's classical version on the
    maximally correlated input.
    """
    params.require_sandwich()
    seed = _count(seed, "seed", low=0)
    eps, omega, delta = params.eps, params.omega, params.delta
    terms = error_terms(params)

    cap = _exact_or_raise(one_shot_capacity(ch, eps))
    best_dh = 0.0
    best_inputs = None
    per_size = _best_codebooks_per_size(ch)
    candidates = [(cb.inputs, np.full(len(cb.inputs), 1.0 / len(cb.inputs))) for cb in per_size]
    rng = np.random.default_rng(seed)
    for _ in range(RANDOM_INPUTS):
        m = int(rng.integers(1, ch.dim_in + 1))
        inputs = tuple(int(x) for x in rng.integers(0, ch.dim_in, size=m))
        candidates.append((inputs, rng.dirichlet(np.ones(m))))
    for inputs, weights in candidates:
        q, r = _encoded_joint(ch, inputs, weights)
        bits, _ = hypothesis_testing_entropy(q, r, omega)
        if bits > best_dh:
            best_dh, best_inputs = bits, inputs
    return _sandwich(
        ch, cap, eps + delta, 2.0 * (eps + delta), 1.0, 0.0,
        best_dh - terms["sandwich_penalty_bits"], terms,
        codebook_decoder=list(cap.codebook.decoder),
        best_lower_inputs=list(best_inputs) if best_inputs is not None else None,
        best_lower_dh_bits=best_dh,
        **({"largest_size_scored": len(per_size)} if len(per_size) < ch.dim_in else {}),
    )


def capacity_work_bounds(
    ch: StochasticChannel,
    params: ErrorParams,
    seed: int = 0,
) -> BoundReport:
    """Work-transmission check on the one-shot capacity (CLI: bounds thm4).

    All three quantities are in k_B*T: searched correlation-work lower
    estimates minus the one-shot work penalty, ln2 times the capacity, and
    the witness-based transmitted-work upper bracket.  The search scores the
    best codebook of each size its walk reaches on the maximally correlated
    input and on RANDOM_INPUTS // dim_in seeded Dirichlet inputs, so it
    draws at most RANDOM_INPUTS inputs in all, and none when RANDOM_INPUTS <
    dim_in.
    """
    params.require_work_sandwich()
    seed = _count(seed, "seed", low=0)
    eps, omega, delta = params.eps, params.omega, params.delta
    terms = error_terms(params)

    cap = _exact_or_raise(one_shot_capacity(ch, eps))
    best_d0 = 0.0
    best_desc = None
    rng = np.random.default_rng(seed)
    per_size = _best_codebooks_per_size(ch)
    for cb in per_size:
        for d0 in _codebook_renyi0(ch, cb, omega, RANDOM_INPUTS // ch.dim_in, rng)[1]:
            if d0.bits > best_d0:
                best_d0, best_desc = d0.bits, list(cb.inputs)
    return _sandwich(
        ch, cap, eps + delta, 2.0 * (eps + delta), LN2, math.log(1.0 / (1.0 - eps - delta)),
        LN2 * best_d0 - terms["work_penalty_kT"], terms,
        best_lower_codebook=best_desc,
        best_lower_d0_bits=best_d0,
        lower_surrogate_bracket_kT=[LN2 * best_d0, LN2 * best_d0 + math.log(1.0 / (1.0 - omega))],
        **({"largest_size_scored": len(per_size)} if len(per_size) < ch.dim_in else {}),
    )


def equilibrium_capacity_bounds(ch: StochasticChannel, eps: float, theta: float) -> BoundReport:
    """Chain check for the equilibrium-constrained capacity (CLI: bounds prop2).

    Verifies constrained capacity (= capacity, one search) <= correlation-work
    surrogate, the upper end of the doubled-error smoothed Renyi-0 bracket
    of the constrained witness (its own work bracket is attached), and that
    the witness moves the uniform state by at most 2*theta, which
    `theta_equilibrium_capacity` proves of every feasible codebook.
    """
    limit = ErrorParams.WORK_EPS_MAX / 2.0
    if not 0.0 < eps < limit:
        raise ThermocapError(f"need 0 < eps < {limit:.6f}")
    cap = _exact_or_raise(theta_equilibrium_capacity(ch, eps, theta))
    report = _sandwich(ch, cap, 2.0 * eps, 2.0 * theta, 1.0, 0.0, cap.bits, {})
    surrogate = report.upper_witness_value
    return replace(report, error_terms={
        "surrogate_bracket_bits": [surrogate, surrogate + math.log2(1.0 / (1.0 - 2.0 * eps))],
        "doubled_eps": 2.0 * eps,
    })


@dataclass(frozen=True)
class LandauerScenarioReport:
    bits: float
    message_count: int
    trials: int
    seed: int
    exact_success: float
    empirical_success: float
    three_sigma: float
    work_value: float
    work_bracket: tuple
    target_work: float
    entropy_bits: float
    max_message_distance: float
    verdict: str

    def to_dict(self) -> dict:
        return {
            "bits": self.bits,
            "message_count": self.message_count,
            "trials": self.trials,
            "seed": self.seed,
            "exact_success": self.exact_success,
            "empirical_success": self.empirical_success,
            "three_sigma": self.three_sigma,
            "work_value_kT": self.work_value,
            "work_bracket_kT": list(self.work_bracket),
            "target_work_kT": self.target_work,
            "entropy_bits": self.entropy_bits,
            "max_message_distance": self.max_message_distance,
            "verdict": self.verdict,
        }


def landauer_scenario(
    ch: StochasticChannel,
    eps: float,
    trials: int,
    seed: int = 0,
) -> LandauerScenarioReport:
    """Referee/sender/receiver round trip on the maximally correlated input.

    Half the trials decode messages (empirical success rate), half feed the
    empirical bipartite output into correlation work extraction; the report
    compares the extracted work against bits * ln2.
    """
    trials = _count(trials, "trials", low=2)
    seed = _count(seed, "seed", low=0)
    cap = _exact_or_raise(one_shot_capacity(ch, eps))
    m = cap.codebook.message_count
    if m < 2:
        raise NoFeasibleCodebookError("no codebook with at least two messages is feasible")

    cv = classical_version(ch, cap.codebook)
    t = cv.matrix
    exact_ps = success_probability(cv)

    rng = np.random.default_rng(seed)
    decode_trials = trials // 2
    work_trials = trials - decode_trials

    def sample_outputs(messages):
        cums = np.cumsum(t, axis=0)
        u = rng.random(messages.size)
        return (cums[:, messages] < u[None, :]).sum(axis=0)

    msgs = rng.integers(0, m, size=decode_trials)
    outs = sample_outputs(msgs)
    empirical_ps = float(np.mean(outs == msgs))

    msgs_w = rng.integers(0, m, size=work_trials)
    outs_w = sample_outputs(msgs_w)
    counts = np.zeros((m, m))
    np.add.at(counts, (outs_w, msgs_w), 1.0)
    joint = JointDistribution(counts / work_trials)
    work = work_from_correlation(joint, eps)

    sigma = math.sqrt(max(exact_ps * (1.0 - exact_ps), 0.0) / decode_trials)
    three_sigma = 3.0 * sigma
    max_dist = float(np.abs(t - np.eye(m)).sum(axis=0).max())
    verdict = (
        "consistent"
        if abs(empirical_ps - exact_ps) <= three_sigma + BAND_SLACK
        else "violation: empirical success left the 3-sigma band"
    )

    return LandauerScenarioReport(
        bits=cap.bits,
        message_count=m,
        trials=trials,
        seed=seed,
        exact_success=exact_ps,
        empirical_success=empirical_ps,
        three_sigma=three_sigma,
        work_value=work.value,
        work_bracket=work.bracket,
        target_work=cap.bits * LN2,
        entropy_bits=work.entropy_bits,
        max_message_distance=max_dist,
        verdict=verdict,
    )
