"""Command-line front end.

Every run prints a single JSON object (or CSV rows) echoing the tool
version, the seed, and the full parameter set; identical invocations are
byte-identical.  Exit code 0 means success (and a consistent verdict where
one applies), 2 flags a verdict violation, 1 is a usage or I/O failure.
"""
from __future__ import annotations

import argparse
import json
import math
import sys

import numpy as np

from . import __version__
from .asymptotics import (
    constrained_holevo,
    regularized_capacity_series,
    shannon_capacity,
    stein_series,
)
from .bounds import (
    capacity_entropic_bounds,
    capacity_work_bounds,
    equilibrium_capacity_bounds,
    landauer_scenario,
)
from .coding import CODEBOOK_BUDGET, one_shot_capacity, theta_equilibrium_capacity
from .core import (
    Distribution,
    ErrorParams,
    Hamiltonian,
    JointDistribution,
    StochasticChannel,
    ThermocapError,
)
from .entropy import hypothesis_testing_entropy, relative_entropy, smoothed_renyi0
from .thermo import extractable_work, work_from_correlation


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise _UsageError(message)


def _load_json(path: str) -> dict:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        raise _UsageError(f"cannot read {path}: {exc}") from exc


def load_distribution(path: str) -> Distribution:
    return Distribution.from_dict(_load_json(path))


def load_channel(path: str) -> StochasticChannel:
    return StochasticChannel.from_dict(_load_json(path))


def load_hamiltonian(path: str) -> Hamiltonian:
    return Hamiltonian.from_dict(_load_json(path))


def load_joint(path: str) -> JointDistribution:
    return JointDistribution.from_dict(_load_json(path))


def _sanitize(obj):
    """Make a report JSON-serialisable and deterministic."""
    if isinstance(obj, dict):
        return {str(k): _sanitize(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_sanitize(v) for v in obj]
    if isinstance(obj, (np.integer,)):
        return int(obj)
    if isinstance(obj, (np.floating,)):
        obj = float(obj)
    if isinstance(obj, float):
        if math.isinf(obj):
            return "inf" if obj > 0 else "-inf"
        if math.isnan(obj):
            return "nan"
        return obj
    if isinstance(obj, np.ndarray):
        return [_sanitize(v) for v in obj.tolist()]
    return obj


def _report(command: str, params: dict, result: dict, seed: int) -> dict:
    return {
        "tool": "thermocap",
        "version": __version__,
        "command": command,
        "seed": seed,
        "params": _sanitize(params),
        "result": _sanitize(result),
    }


def _emit(report: dict, fmt: str, out_path: str | None) -> None:
    if fmt == "json":
        text = json.dumps(report, sort_keys=True, indent=2) + "\n"
    else:
        text = _to_csv(report)
    if out_path:
        with open(out_path, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _flatten(prefix, obj, rows):
    if isinstance(obj, dict):
        for k in sorted(obj):
            _flatten(f"{prefix}.{k}" if prefix else str(k), obj[k], rows)
    elif isinstance(obj, list):
        rows.append((prefix, json.dumps(obj)))
    else:
        rows.append((prefix, obj))


def _to_csv(report: dict) -> str:
    result = report.get("result", {})
    lines = []
    if "points" in result:  # convergence series render as data rows
        lines.append("n,value,target")
        for n, v in result["points"]:
            lines.append(f"{n},{v},{result['target']}")
    else:
        rows = []
        _flatten("", report, rows)
        lines.append("key,value")
        lines += [f"{k},{v}" for k, v in rows]
    return "\n".join(lines) + "\n"


def _scale_work_fields(result: dict, temperature: float) -> dict:
    """Rescale values reported in k_B*T by a user temperature."""
    scaled = dict(result)
    for key, val in result.items():
        if key.endswith("_kT"):
            new_key = key[: -len("_kT")] + "_kBT_units"
            if isinstance(val, list):
                scaled[new_key] = [v * temperature if isinstance(v, float) else v for v in val]
            elif isinstance(val, float):
                scaled[new_key] = val * temperature
    scaled["temperature"] = temperature
    return scaled


def build_parser() -> _Parser:
    parser = _Parser(prog="thermocap", description=__doc__)
    parser.add_argument("--format", choices=("json", "csv"), default="json")
    parser.add_argument("--out", default=None, help="write the report here instead of stdout")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--temperature", type=float, default=1.0,
                        help="rescale k_B*T work outputs by this temperature")
    parser.add_argument("--budget-codebooks", type=int, default=CODEBOOK_BUDGET)
    parser.add_argument("--budget-atoms", type=int, default=1_000_000)
    parser.add_argument("--budget-samples", type=int, default=100_000)
    sub = parser.add_subparsers(dest="command", required=True)

    entropy = sub.add_parser("entropy", help="entropic quantities of two distributions")
    entropy.add_argument("which", choices=("d0", "dh", "rel"))
    entropy.add_argument("--p", required=True)
    entropy.add_argument("--q", required=True)
    entropy.add_argument("--eps", type=float, default=None)

    capacity = sub.add_parser("capacity", help="one-shot capacity oracle")
    capacity.add_argument("--channel", required=True)
    capacity.add_argument("--eps", type=float, required=True)
    capacity.add_argument("--theta", type=float, default=None)
    capacity.add_argument("--max-m", type=int, default=None)
    capacity.add_argument("--randomized", action="store_true")

    workext = sub.add_parser("workext", help="single-shot extractable work")
    workext.add_argument("--state", required=True)
    workext.add_argument("--hamiltonian", required=True)
    workext.add_argument("--eps", type=float, required=True)
    workext.add_argument("--delta", type=float, default=None)
    workext.add_argument("--ecut", type=float, default=50.0)
    workext.add_argument("--ksteps", type=int, default=400)
    workext.add_argument("--schedule", choices=("angle", "weight", "energy"), default="angle")

    wcorr = sub.add_parser("wcorr", help="extractable work from correlation")
    wcorr.add_argument("--joint", required=True)
    wcorr.add_argument("--eps", type=float, required=True)
    wcorr.add_argument("--delta", type=float, default=None)
    wcorr.add_argument("--ecut", type=float, default=50.0)
    wcorr.add_argument("--ksteps", type=int, default=400)
    wcorr.add_argument("--schedule", choices=("angle", "weight", "energy"), default="angle")

    bounds = sub.add_parser("bounds", help="sandwich-inequality checkers")
    bounds.add_argument("which", choices=("thm2", "thm4", "prop2"))
    bounds.add_argument("--channel", required=True)
    bounds.add_argument("--eps", type=float, required=True)
    bounds.add_argument("--omega", type=float, default=None)
    bounds.add_argument("--delta", type=float, default=None)
    bounds.add_argument("--theta", type=float, default=None)

    landauer = sub.add_parser("landauer", help="decode/extract round-trip simulation")
    landauer.add_argument("--channel", required=True)
    landauer.add_argument("--eps", type=float, required=True)
    landauer.add_argument("--trials", type=int, required=True)

    asym = sub.add_parser("asymptotics", help="convergence experiments")
    asym.add_argument("which", choices=("stein", "capacity-series", "chi-bar"))
    asym.add_argument("--p", default=None)
    asym.add_argument("--q", default=None)
    asym.add_argument("--channel", default=None)
    asym.add_argument("--eps", type=float, default=None)
    asym.add_argument("--nmax", type=int, default=200)
    asym.add_argument("--kmax", type=int, default=3)
    asym.add_argument("--theta", type=float, default=None)
    asym.add_argument("--max-m", type=int, default=None)

    return parser


def _require(args, names):
    for name in names:
        if getattr(args, name.replace("-", "_")) is None:
            raise _UsageError(f"--{name} is required for this subcommand")


def _run_entropy(args):
    p, q = load_distribution(args.p), load_distribution(args.q)
    params = {"p": args.p, "q": args.q, "eps": args.eps}
    if args.which == "rel":
        return params, {"bits": relative_entropy(p, q)}
    _require(args, ["eps"])
    if args.which == "d0":
        res = smoothed_renyi0(p, q, args.eps)
        return params, {
            "bits": res.bits,
            "witness": list(res.witness.indices),
            "method": res.method,
            "bracket": list(res.bracket),
        }
    bits, test = hypothesis_testing_entropy(p, q, args.eps)
    return params, {"bits": bits, "test_weights": [float(w) for w in test.weights]}


def _run_capacity(args):
    ch = load_channel(args.channel)
    params = {"channel": args.channel, "eps": args.eps, "theta": args.theta,
              "max_m": args.max_m, "randomized": args.randomized}
    kwargs = dict(
        max_messages=args.max_m,
        codebook_budget=args.budget_codebooks,
        randomized=args.randomized,
        samples=args.budget_samples,
        seed=args.seed,
    )
    if args.theta is None:
        res = one_shot_capacity(ch, args.eps, **kwargs)
    else:
        res = theta_equilibrium_capacity(ch, args.eps, args.theta, **kwargs)
    return params, {
        "bits": res.bits,
        "message_count": res.codebook.message_count,
        "codebook_inputs": list(res.codebook.inputs),
        "codebook_decoder": list(res.codebook.decoder),
        "exact": res.exact,
        "method": res.method,
    }


def _run_workext(args):
    eta = load_distribution(args.state)
    h = load_hamiltonian(args.hamiltonian)
    params = {"state": args.state, "hamiltonian": args.hamiltonian, "eps": args.eps,
              "delta": args.delta, "ecut": args.ecut, "ksteps": args.ksteps,
              "schedule": args.schedule}
    res = extractable_work(
        eta, h, args.eps, args.delta,
        e_cut=args.ecut, k_steps=args.ksteps, schedule=args.schedule,
        atom_budget=args.budget_atoms, mc_trajectories=args.budget_samples, seed=args.seed,
    )
    result = res.to_dict()
    if args.temperature != 1.0:
        result = _scale_work_fields(result, args.temperature)
    return params, result


def _run_wcorr(args):
    joint = load_joint(args.joint)
    params = {"joint": args.joint, "eps": args.eps, "delta": args.delta,
              "ecut": args.ecut, "ksteps": args.ksteps, "schedule": args.schedule}
    res = work_from_correlation(
        joint, args.eps, args.delta,
        e_cut=args.ecut, k_steps=args.ksteps, schedule=args.schedule,
        atom_budget=args.budget_atoms, mc_trajectories=args.budget_samples, seed=args.seed,
    )
    result = res.to_dict()
    if args.temperature != 1.0:
        result = _scale_work_fields(result, args.temperature)
    return params, result


def _run_bounds(args):
    ch = load_channel(args.channel)
    params = {"channel": args.channel, "eps": args.eps, "omega": args.omega,
              "delta": args.delta, "theta": args.theta}
    if args.which == "prop2":
        _require(args, ["theta"])
        report = equilibrium_capacity_bounds(ch, args.eps, args.theta)
    else:
        _require(args, ["omega", "delta"])
        ep = ErrorParams(eps=args.eps, omega=args.omega, delta=args.delta)
        if args.which == "thm2":
            report = capacity_entropic_bounds(ch, ep, seed=args.seed)
        else:
            report = capacity_work_bounds(ch, ep, seed=args.seed)
    return params, report.to_dict()


def _run_landauer(args):
    ch = load_channel(args.channel)
    params = {"channel": args.channel, "eps": args.eps, "trials": args.trials}
    report = landauer_scenario(ch, args.eps, args.trials, seed=args.seed)
    result = report.to_dict()
    if args.temperature != 1.0:
        result = _scale_work_fields(result, args.temperature)
    return params, result


def _run_asymptotics(args):
    if args.which == "stein":
        _require(args, ["p", "q", "eps"])
        p, q = load_distribution(args.p), load_distribution(args.q)
        series = stein_series(p, q, args.eps, args.nmax)
        params = {"p": args.p, "q": args.q, "eps": args.eps, "nmax": args.nmax}
        return params, series.to_dict()
    _require(args, ["channel"])
    ch = load_channel(args.channel)
    if args.which == "chi-bar":
        _require(args, ["theta"])
        res = constrained_holevo(ch, args.theta, max_messages=args.max_m, seed=args.seed)
        cap = shannon_capacity(ch)
        params = {"channel": args.channel, "theta": args.theta, "max_m": args.max_m}
        return params, {
            "bits_lower_estimate": res.bits,
            "message_count": res.message_count,
            "witness": res.witness,
            "unconstrained_capacity_bits": cap.bits,
        }
    _require(args, ["eps"])
    params = {"channel": args.channel, "eps": args.eps, "kmax": args.kmax, "theta": args.theta}
    out = regularized_capacity_series(
        ch, args.eps, k_max=args.kmax, theta=args.theta,
        codebook_budget=args.budget_codebooks, samples=args.budget_samples, seed=args.seed,
    )
    if args.theta is None:
        return params, out.to_dict()
    series, chi_series = out
    return params, {"capacity_series": series.to_dict(), "chi_series": chi_series.to_dict()}


_RUNNERS = {
    "entropy": _run_entropy,
    "capacity": _run_capacity,
    "workext": _run_workext,
    "wcorr": _run_wcorr,
    "bounds": _run_bounds,
    "landauer": _run_landauer,
    "asymptotics": _run_asymptotics,
}


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        sub = getattr(args, "which", None)
        command = args.command if sub is None else f"{args.command} {sub}"
        params, result = _RUNNERS[args.command](args)
        report = _report(command, params, result, args.seed)
        _emit(report, args.format, args.out)
    except (_UsageError, ThermocapError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    verdict = result.get("verdict")
    if verdict is not None and verdict != "consistent":
        return 2
    return 0


def entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entry()
