"""Witness-based verifiers for the capacity/work sandwich inequalities.

Suprema over infinite families are never chased: searches only ever produce
valid lower estimates, while upper bounds come from the capacity-achieving
codebook itself, which is a feasible point of the bounding expression and
provably dominates the capacity.  A "violation" verdict therefore always
signals an implementation bug, not new physics.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .coding import (
    _codebook_batches,
    _codebook_from_combo,
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
)
from .entropy import binary_entropy, hypothesis_testing_entropy, smoothed_renyi0
from .thermo import work_from_correlation

_CHAIN_TOL = 1e-6


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
    m = len(inputs)
    joint = np.zeros((ch.dim_out, m))
    for k, x in enumerate(inputs):
        joint[:, k] = weights[k] * ch.matrix[:, x]
    avg_in = np.zeros(ch.dim_in)
    for k, x in enumerate(inputs):
        avg_in[x] += weights[k]
    reference = np.outer(ch.matrix @ avg_in, weights)
    return Distribution(joint.reshape(-1)), Distribution(reference.reshape(-1))


def _best_codebooks_per_size(ch: StochasticChannel):
    """Highest-success codebook for every message count (search family);
    the first maximum of each size wins."""
    best = {}
    for combos, cols in _codebook_batches(ch, range(1, ch.dim_in + 1)):
        ps = _ml_success(cols)
        i = int(np.argmax(ps))
        m = combos.shape[1]
        if m not in best or ps[i] > best[m][0]:
            best[m] = (ps[i], combos[i])
    return [_codebook_from_combo(ch, combo) for _, combo in best.values()]


def _random_separable_inputs(ch: StochasticChannel, n_random: int, seed: int):
    rng = np.random.default_rng(seed)
    for _ in range(n_random):
        m = int(rng.integers(1, ch.dim_in + 1))
        inputs = tuple(int(x) for x in rng.integers(0, ch.dim_in, size=m))
        weights = rng.dirichlet(np.ones(m))
        yield inputs, weights


def capacity_entropic_bounds(
    ch: StochasticChannel,
    params: ErrorParams,
    n_random: int = 32,
    seed: int = 0,
) -> BoundReport:
    """Two-sided entropic check on the one-shot capacity (CLI: bounds thm2).

    Lower: best hypothesis-testing value over separable inputs minus the
    one-shot penalty.  Upper: the smoothed Renyi-0 value of the capacity
    codebook's classical version on the maximally correlated input.
    """
    params.require_sandwich()
    eps, omega, delta = params.eps, params.omega, params.delta
    terms = error_terms(params)

    cap = one_shot_capacity(ch, eps)
    best_dh = 0.0
    best_inputs = None
    candidates = [(cb.inputs, np.full(len(cb.inputs), 1.0 / len(cb.inputs)))
                  for cb in _best_codebooks_per_size(ch)]
    candidates += list(_random_separable_inputs(ch, n_random, seed))
    for inputs, weights in candidates:
        q, r = _encoded_joint(ch, inputs, weights)
        bits, _ = hypothesis_testing_entropy(q, r, omega)
        if bits > best_dh:
            best_dh, best_inputs = bits, inputs
    lower = best_dh - terms["sandwich_penalty_bits"]

    cv = classical_version(ch, cap.codebook)
    deviation = gibbs_deviation(cv)
    m = cap.codebook.message_count
    q, r = _output_joint(cv.composed.matrix, np.eye(m) / m)
    d0 = smoothed_renyi0(q, r, eps + delta)
    upper = d0.bits

    problems = []
    if deviation > 2.0 * (eps + delta) + 1e-9:
        problems.append(f"witness deviation {deviation} exceeds 2(eps+delta)")
    if lower > cap.bits + _CHAIN_TOL:
        problems.append(f"lower estimate {lower} exceeds capacity {cap.bits}")
    if cap.bits > upper + _CHAIN_TOL:
        problems.append(f"capacity {cap.bits} exceeds upper witness {upper}")
    verdict = "consistent" if not problems else "violation: " + "; ".join(problems)

    return BoundReport(
        lower_estimate=lower,
        capacity=cap.bits,
        upper_witness_value=upper,
        error_terms=terms,
        witnesses={
            "codebook_inputs": list(cap.codebook.inputs),
            "codebook_decoder": list(cap.codebook.decoder),
            "gibbs_deviation": deviation,
            "best_lower_inputs": list(best_inputs) if best_inputs is not None else None,
            "best_lower_dh_bits": best_dh,
            "renyi0_witness": list(d0.witness.indices),
        },
        verdict=verdict,
    )


def capacity_work_bounds(
    ch: StochasticChannel,
    params: ErrorParams,
    n_random: int = 32,
    seed: int = 0,
) -> BoundReport:
    """Work-transmission check on the one-shot capacity (CLI: bounds thm4).

    All three quantities are in k_B*T: searched correlation-work lower
    estimates minus the one-shot work penalty, ln2 times the capacity, and
    the witness-based transmitted-work upper bracket.
    """
    params.require_work_sandwich()
    eps, omega, delta = params.eps, params.omega, params.delta
    terms = error_terms(params)

    cap = one_shot_capacity(ch, eps)
    center = LN2 * cap.bits

    best_d0 = 0.0
    best_desc = None
    rng = np.random.default_rng(seed)
    for cb in _best_codebooks_per_size(ch):
        t = classical_version(ch, cb).composed.matrix
        m = cb.message_count
        inputs = [np.eye(m) / m]
        for _ in range(max(1, n_random // max(1, ch.dim_in))):
            raw = rng.dirichlet(np.ones(m * m)).reshape(m, m)
            inputs.append(raw)
        for eta in inputs:
            q, r = _output_joint(t, eta)
            val = smoothed_renyi0(q, r, omega).bits
            if val > best_d0:
                best_d0, best_desc = val, list(cb.inputs)
    lower = LN2 * best_d0 - terms["work_penalty_kT"]
    lower_bracket = (LN2 * best_d0, LN2 * best_d0 + math.log(1.0 / (1.0 - omega)))

    cv = classical_version(ch, cap.codebook)
    deviation = gibbs_deviation(cv)
    m = cap.codebook.message_count
    q, r = _output_joint(cv.composed.matrix, np.eye(m) / m)
    d0_upper = smoothed_renyi0(q, r, eps + delta)
    upper = LN2 * d0_upper.bits + math.log(1.0 / (1.0 - eps - delta))

    problems = []
    if deviation > 2.0 * (eps + delta) + 1e-9:
        problems.append(f"witness deviation {deviation} exceeds 2(eps+delta)")
    if lower > center + _CHAIN_TOL:
        problems.append(f"lower estimate {lower} exceeds ln2 * capacity {center}")
    if center > upper + _CHAIN_TOL:
        problems.append(f"ln2 * capacity {center} exceeds upper estimate {upper}")
    verdict = "consistent" if not problems else "violation: " + "; ".join(problems)

    return BoundReport(
        lower_estimate=lower,
        capacity=center,
        upper_witness_value=upper,
        error_terms=terms,
        witnesses={
            "codebook_inputs": list(cap.codebook.inputs),
            "gibbs_deviation": deviation,
            "best_lower_codebook": best_desc,
            "best_lower_d0_bits": best_d0,
            "lower_surrogate_bracket_kT": list(lower_bracket),
            "renyi0_witness": list(d0_upper.witness.indices),
        },
        verdict=verdict,
    )


def equilibrium_capacity_bounds(ch: StochasticChannel, eps: float, theta: float) -> BoundReport:
    """Chain check for the equilibrium-constrained capacity (CLI: bounds prop2).

    Verifies capacity <= constrained capacity <= correlation-work surrogate,
    where the surrogate is the doubled-error smoothed Renyi-0 value of the
    constrained witness (its own work bracket is attached).
    """
    limit = (1.0 - 1.0 / math.sqrt(2.0)) / 2.0
    if not 0.0 < eps < limit:
        raise ThermocapError(f"need 0 < eps < {limit:.6f}")
    if not eps <= theta < 0.5:
        raise ThermocapError("need eps <= theta < 1/2")

    cap = one_shot_capacity(ch, eps)
    cap_equi = theta_equilibrium_capacity(ch, eps, theta)
    cv = classical_version(ch, cap_equi.codebook)
    m = cap_equi.codebook.message_count
    q, r = _output_joint(cv.composed.matrix, np.eye(m) / m)
    d0 = smoothed_renyi0(q, r, 2.0 * eps)
    surrogate = d0.bits
    surrogate_upper = surrogate + math.log2(1.0 / (1.0 - 2.0 * eps))

    problems = []
    if cap.bits > cap_equi.bits + _CHAIN_TOL:
        problems.append("unconstrained capacity exceeds the constrained one")
    if cap_equi.bits > surrogate + _CHAIN_TOL:
        problems.append("constrained capacity exceeds the work surrogate")
    verdict = "consistent" if not problems else "violation: " + "; ".join(problems)

    return BoundReport(
        lower_estimate=cap.bits,
        capacity=cap_equi.bits,
        upper_witness_value=surrogate,
        error_terms={
            "surrogate_bracket_bits": [surrogate, surrogate_upper],
            "doubled_eps": 2.0 * eps,
        },
        witnesses={
            "codebook_inputs": list(cap_equi.codebook.inputs),
            "gibbs_deviation": gibbs_deviation(cv),
            "renyi0_witness": list(d0.witness.indices),
        },
        verdict=verdict,
    )


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
    e_cut: float = 50.0,
    k_steps: int = 400,
) -> LandauerScenarioReport:
    """Referee/sender/receiver round trip on the maximally correlated input.

    Half the trials decode messages (empirical success rate), half feed the
    empirical bipartite output into correlation work extraction; the report
    compares the extracted work against bits * ln2.
    """
    if trials < 2:
        raise ThermocapError("needs at least two trials")
    cap = one_shot_capacity(ch, eps)
    m = cap.codebook.message_count
    if m < 2:
        raise NoFeasibleCodebookError("no codebook with at least two messages is feasible")

    cv = classical_version(ch, cap.codebook)
    t = cv.composed.matrix
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
    work = work_from_correlation(joint, eps, e_cut=e_cut, k_steps=k_steps, seed=seed)

    sigma = math.sqrt(max(exact_ps * (1.0 - exact_ps), 0.0) / decode_trials)
    three_sigma = 3.0 * sigma
    max_dist = float(np.abs(t - np.eye(m)).sum(axis=0).max())
    verdict = (
        "consistent"
        if abs(empirical_ps - exact_ps) <= three_sigma + 1e-12
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
