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
from .coding import one_shot_capacity, theta_equilibrium_capacity
from .core import (
    Distribution,
    ErrorParams,
    Hamiltonian,
    JointDistribution,
    StochasticChannel,
    ThermocapError,
)
from .entropy import hypothesis_testing_entropy, relative_entropy, smoothed_renyi0
from .thermo import DEFAULT_E_CUT, DEFAULT_K_STEPS, extractable_work, work_from_correlation


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise _UsageError(message)


def _load(path: str, cls):
    """Build a `cls` from the JSON file at `path`; a file that cannot be read,
    parsed or shaped into `cls` is a usage error, a failed validation is not."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return cls.from_dict(json.load(fh))
    except (OSError, ValueError, TypeError, KeyError, AttributeError) as exc:
        raise _UsageError(f"cannot read {path}: {exc}") from exc


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


def _emit(args, params: dict, result: dict) -> None:
    which = getattr(args, "which", None)
    report = {
        "tool": "thermocap",
        "version": __version__,
        "command": args.command if which is None else f"{args.command} {which}",
        "seed": args.seed,
        "params": _sanitize(params),
        "result": _sanitize(result),
    }
    if args.format == "json":
        text = json.dumps(report, sort_keys=True, indent=2) + "\n"
    else:
        text = _to_csv(report)
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
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
        # a label column when the points carry labels, the target's bracket
        # when it is open
        labels, bracket = result.get("labels", ()), result.get("target_bracket", [])
        lines.append("n,value,target" + (",label" if labels else "")
                     + (",target_lower,target_upper" if bracket else ""))
        for j, (n, v) in enumerate(result["points"]):
            row = [n, v, result["target"], *labels[j : j + 1], *bracket]
            lines.append(",".join(map(str, row)))
    else:
        rows = []
        _flatten("", report, rows)
        lines.append("key,value")
        lines += [f"{k},{v}" for k, v in rows]
    return "\n".join(lines) + "\n"


def _scale_work_fields(result: dict, temperature: float):
    """`result` with a `*_kBT_units` twin, rescaled by a user temperature, beside
    each `*_kT` value at any depth of nested dicts; and whether there was one."""
    scaled, found = dict(result), False
    for key, val in result.items():
        if isinstance(val, dict):
            scaled[key], nested = _scale_work_fields(val, temperature)
            found |= nested
        elif key.endswith("_kT"):
            found = True
            new_key = key[: -len("_kT")] + "_kBT_units"
            if isinstance(val, list):
                scaled[new_key] = [v * temperature if isinstance(v, float) else v for v in val]
            elif isinstance(val, float):
                scaled[new_key] = val * temperature
    return scaled, found


def build_parser() -> _Parser:
    """Every subcommand declares its flags once; `main` echoes them all as
    the report's params, loads the input files and rescales work outputs."""
    parser = _Parser(prog="thermocap", description=__doc__)
    parser.add_argument("--format", choices=("json", "csv"), default="json")
    parser.add_argument("--out", default=None, help="write the report here instead of stdout")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--temperature", type=float, default=1.0,
                        help="rescale k_B*T work outputs by this temperature")
    sub = parser.add_subparsers(dest="command", required=True)

    entropy = sub.add_parser("entropy", help="entropic quantities of two distributions")
    entropy.set_defaults(run=_run_entropy)
    entropy.add_argument("which", choices=("d0", "dh", "rel"))
    entropy.add_argument("--p", required=True)
    entropy.add_argument("--q", required=True)
    entropy.add_argument("--eps", type=float, default=None)

    capacity = sub.add_parser("capacity", help="one-shot capacity oracle")
    capacity.set_defaults(run=_run_capacity)
    capacity.add_argument("--channel", required=True)
    capacity.add_argument("--eps", type=float, required=True)
    capacity.add_argument("--theta", type=float, default=None)
    capacity.add_argument("--max-m", type=int, default=None)
    capacity.add_argument("--randomized", action="store_true")  # echoed in params; an error

    work = _Parser(add_help=False)
    work.add_argument("--eps", type=float, required=True)
    work.add_argument("--delta", type=float, default=None)
    work.add_argument("--ecut", type=float, default=DEFAULT_E_CUT)
    work.add_argument("--ksteps", type=int, default=DEFAULT_K_STEPS)
    work.add_argument("--schedule", choices=("angle", "weight", "energy"), default="angle")

    workext = sub.add_parser("workext", parents=[work], help="single-shot extractable work")
    workext.set_defaults(run=_run_workext)
    workext.add_argument("--state", required=True)
    workext.add_argument("--hamiltonian", required=True)

    wcorr = sub.add_parser("wcorr", parents=[work], help="extractable work from correlation")
    wcorr.set_defaults(run=_run_wcorr)
    wcorr.add_argument("--joint", required=True)

    bounds = sub.add_parser("bounds", help="sandwich-inequality checkers")
    bounds.set_defaults(run=_run_bounds)
    bounds.add_argument("which", choices=("thm2", "thm4", "prop2"))
    bounds.add_argument("--channel", required=True)
    bounds.add_argument("--eps", type=float, required=True)
    bounds.add_argument("--omega", type=float, default=None)
    bounds.add_argument("--delta", type=float, default=None)
    bounds.add_argument("--theta", type=float, default=None)

    landauer = sub.add_parser("landauer", help="decode/extract round-trip simulation")
    landauer.set_defaults(run=_run_landauer)
    landauer.add_argument("--channel", required=True)
    landauer.add_argument("--eps", type=float, required=True)
    landauer.add_argument("--trials", type=int, required=True)

    asym = sub.add_parser("asymptotics", help="convergence experiments")
    leaves = asym.add_subparsers(dest="which", required=True)
    stein = leaves.add_parser("stein", help="per-copy hypothesis-testing entropy")
    stein.set_defaults(run=_run_stein)
    stein.add_argument("--p", required=True)
    stein.add_argument("--q", required=True)
    stein.add_argument("--eps", type=float, required=True)
    stein.add_argument("--nmax", type=int, default=200)
    series = leaves.add_parser("capacity-series", help="regularized capacity series")
    series.set_defaults(run=_run_capacity_series)
    series.add_argument("--channel", required=True)
    series.add_argument("--eps", type=float, required=True)
    series.add_argument("--kmax", type=int, default=3)
    series.add_argument("--theta", type=float, default=None)
    chi_bar = leaves.add_parser("chi-bar", help="equilibrium-constrained correlation")
    chi_bar.set_defaults(run=_run_chi_bar)
    chi_bar.add_argument("--channel", required=True)
    chi_bar.add_argument("--theta", type=float, required=True)
    chi_bar.add_argument("--max-m", type=int, default=None)

    return parser


#: namespace entries that are not echoed as params: the global flags, the
#: subcommand selectors and the runner
_NOT_PARAMS = {"format", "out", "seed", "temperature", "command", "which", "run"}

#: input file flags and the class each file holds
_INPUTS = {"p": Distribution, "q": Distribution, "state": Distribution, "joint": JointDistribution,
           "channel": StochasticChannel, "hamiltonian": Hamiltonian}


def _require(args, names):
    for name in names:
        if getattr(args, name) is None:
            raise _UsageError(f"--{name} is required for this subcommand")


def _run_entropy(args):
    if args.which == "rel":
        return {"bits": relative_entropy(args.p, args.q)}
    _require(args, ["eps"])
    if args.which == "d0":
        res = smoothed_renyi0(args.p, args.q, args.eps)
        return {
            "bits": res.bits,
            "witness": list(res.witness.indices),
            "method": res.method,
            "bracket": list(res.bracket),
        }
    bits, test = hypothesis_testing_entropy(args.p, args.q, args.eps)
    return {"bits": bits, "test_weights": [float(w) for w in test.weights]}


def _run_capacity(args):
    if args.randomized:
        raise _UsageError("--randomized is gone: the search labels its own lower brackets")
    res = (one_shot_capacity(args.channel, args.eps, args.max_m) if args.theta is None
           else theta_equilibrium_capacity(args.channel, args.eps, args.theta, args.max_m))
    return {
        "bits": res.bits,
        "message_count": res.codebook.message_count,
        "codebook_inputs": list(res.codebook.inputs),
        "codebook_decoder": list(res.codebook.decoder),
        "exact": res.exact,
        "method": res.method,
    }


def _work_options(args) -> dict:
    return dict(e_cut=args.ecut, k_steps=args.ksteps, schedule=args.schedule)


def _run_workext(args):
    return extractable_work(args.state, args.hamiltonian, args.eps, args.delta,
                            **_work_options(args)).to_dict()


def _run_wcorr(args):
    return work_from_correlation(args.joint, args.eps, args.delta, **_work_options(args)).to_dict()


def _run_bounds(args):
    if args.which == "prop2":
        _require(args, ["theta"])
        return equilibrium_capacity_bounds(args.channel, args.eps, args.theta).to_dict()
    _require(args, ["omega", "delta"])
    ep = ErrorParams(eps=args.eps, omega=args.omega, delta=args.delta)
    checker = capacity_entropic_bounds if args.which == "thm2" else capacity_work_bounds
    return checker(args.channel, ep, seed=args.seed).to_dict()


def _run_landauer(args):
    return landauer_scenario(args.channel, args.eps, args.trials, seed=args.seed).to_dict()


def _run_stein(args):
    return stein_series(args.p, args.q, args.eps, args.nmax).to_dict()


def _run_capacity_series(args):
    out = regularized_capacity_series(args.channel, args.eps, k_max=args.kmax, theta=args.theta,
                                      seed=args.seed)
    if args.theta is None:
        return out.to_dict()
    series, chi_series = out
    return {"capacity_series": series.to_dict(), "chi_series": chi_series.to_dict()}


def _run_chi_bar(args):
    res = constrained_holevo(args.channel, args.theta, max_messages=args.max_m, seed=args.seed)
    cap = shannon_capacity(args.channel)
    open_bracket = {} if cap.exact else {"unconstrained_capacity_bracket": list(cap.bracket)}
    return {
        "bits_lower_estimate": res.bits,
        "message_count": res.message_count,
        "witness": res.witness,
        "unconstrained_capacity_bits": cap.bits,
        **open_bracket,
    }


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
        if not (math.isfinite(args.temperature) and args.temperature > 0.0):
            raise _UsageError("--temperature must be finite and positive")
        if args.seed < 0:
            raise _UsageError("--seed must be an integer >= 0")
        params = {k: v for k, v in vars(args).items() if k not in _NOT_PARAMS}
        for name, cls in _INPUTS.items():
            if name in params:
                setattr(args, name, _load(params[name], cls))
        result = args.run(args)
        scaled, found = _scale_work_fields(result, args.temperature)
        if found and args.temperature != 1.0:
            result = dict(scaled, temperature=args.temperature)
        _emit(args, params, result)
    except (_UsageError, ThermocapError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    return 0 if result.get("verdict", "consistent") == "consistent" else 2


def entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entry()
