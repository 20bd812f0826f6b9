"""The four workloads: seeded inputs, the timed operation, and the checks.

Every workload is a cycle over instance families.  A family's catalogue is
fixed: instance i is drawn from `CATALOGUE_SEED`, the family name and i, and
its answer at the commit that defined the benchmark is kept in
`goldens.json`.  The run seed only chooses which catalogue instances a run
uses and in which order, so any seed has goldens.  Instance i belongs to
stratum i % len(strata); a run visits the strata of a family in turn, so
every seed gets the same mix of sizes and kinds.

All calls go through `thermocap.<module>.<function>` attribute lookups so
that the tracer's wrappers, when installed, see them.
"""
from __future__ import annotations

import hashlib
import json
import math
import zlib
from dataclasses import dataclass
from typing import Callable

import numpy as np

import thermocap
from thermocap import core, entropy
from thermocap.entropy import brute_force_renyi0, dense_lp_oracle

CATALOGUE_SEED = 20250205

#: float answers must agree with their golden to this relative tolerance
REL_TOL = 1e-9
ABS_TOL = 1e-12
#: work values agree within one step of the grid they were computed on
GRID_KEYS = ("value_kT", "delta_kT", "window_kT", "work_value_kT")
#: independent oracles solve the same LP/subset problem to this accuracy
ORACLE_TOL = 1e-6
#: resolution extractable_work uses when delta is None
SHORTEST_GRID = 1e-4


@dataclass(frozen=True)
class Family:
    name: str
    size: int
    make: Callable  # (rng, stratum) -> instance dict
    call: Callable  # instance -> result; the timed operation
    answer: Callable  # (result, instance) -> JSON-able answer
    check: Callable | None = None  # (answer, instance) -> list of problems
    strata: tuple = (None,)


def instance(fam: Family, i: int) -> dict:
    rng = np.random.default_rng([CATALOGUE_SEED, zlib.crc32(fam.name.encode()), i])
    return fam.make(rng, fam.strata[i % len(fam.strata)])


def digest(inst: dict) -> str:
    """Hash of an instance's raw inputs (arrays and scalars), to catch drift
    between the generator and the recorded goldens."""
    h = hashlib.sha1()
    for key in sorted(inst):
        val = inst[key]
        if isinstance(val, np.ndarray):
            h.update(key.encode() + np.ascontiguousarray(val, dtype=np.float64).tobytes())
        elif isinstance(val, (dict, list)):
            h.update(f"{key}={dumps(val)}".encode())
        elif isinstance(val, (int, float, str, bool)) or val is None:
            h.update(f"{key}={val!r}".encode())
    return h.hexdigest()[:16]


def run_order(fam: Family, seed: int) -> list:
    """Catalogue indices in the order a run visits them: strata in turn, a
    seeded permutation of members within each stratum."""
    rng = np.random.default_rng([seed, zlib.crc32(fam.name.encode())])
    k = len(fam.strata)
    members = [rng.permutation(np.arange(s, fam.size, k)) for s in range(k)]
    depth = min(len(m) for m in members)
    return [int(members[s][j]) for j in range(depth) for s in range(k)]


# ---------------------------------------------------------------- comparison

def compare(got, want, grid=None, key="") -> list:
    """Problems found comparing an answer with its golden.  Integers,
    strings and booleans (indices, counts, verdicts, modes, exit codes) must
    match exactly; floats to REL_TOL, or within `grid` for GRID_KEYS."""
    if isinstance(want, dict):
        if not isinstance(got, dict) or set(got) != set(want):
            return [f"{key}: keys differ"]
        return [p for k in want for p in compare(got[k], want[k], grid, k)]
    if isinstance(want, list):
        if not isinstance(got, list) or len(got) != len(want):
            return [f"{key}: length differs"]
        return [p for g, w in zip(got, want) for p in compare(g, w, grid, key)]
    if isinstance(want, float) and isinstance(got, (int, float)) and not isinstance(got, bool):
        if math.isinf(want) or math.isnan(want):
            ok = got == want or (math.isnan(want) and math.isnan(got))
        elif key in GRID_KEYS and grid is not None:
            ok = abs(got - want) <= grid * (1.0 + 1e-6)
        else:
            ok = abs(got - want) <= REL_TOL * abs(want) + ABS_TOL
        return [] if ok else [f"{key}: {got!r} != golden {want!r}"]
    if type(got) is not type(want) or got != want:
        return [f"{key}: {got!r} != golden {want!r}"]
    return []


def near(a, b, tol=ORACLE_TOL) -> bool:
    return a == b or abs(a - b) <= tol * max(1.0, abs(b))


# ---------------------------------------------------------------- generators

def _dist(rng, d):
    return rng.dirichlet(np.ones(d))


def _pair(rng, d):
    p, q = _dist(rng, d), _dist(rng, d)
    return {"p": p, "q": q, "eps": float(rng.uniform(0.05, 0.25)),
            "P": core.Distribution(p), "Q": core.Distribution(q)}


def _near_tie(rng, d):
    """Every r/q ratio within about 0.1% of 1: subset-sum-like for B&B."""
    p = _dist(rng, d)
    q = p * np.exp(1e-3 * rng.standard_normal(d))
    q /= q.sum()
    return {"p": p, "q": q, "eps": float(rng.uniform(0.05, 0.25)),
            "P": core.Distribution(p), "Q": core.Distribution(q)}


def _channel(rng, d, kind):
    """Column-stochastic d x d matrix of the given kind."""
    if kind == "identity":
        return np.eye(d)
    if kind == "sparse":  # most mass on x, a little leaked to x+1
        leak = rng.uniform(0.01, 0.05, size=d)
        m = np.diag(1.0 - leak)
        m[(np.arange(d) + 1) % d, np.arange(d)] += leak
        return m
    noise = rng.dirichlet(np.full(d, 0.3), size=d).T
    return noise if kind == "random" else 0.75 * np.eye(d) + 0.25 * noise  # "noisy"


def _bsc(flip):
    return np.array([[1.0 - flip, flip], [flip, 1.0 - flip]])


def _with_channel(mat, **extra):
    return dict(extra, matrix=mat, CH=core.StochasticChannel(mat))


# ---------------------------------------------------------------- answers

def _renyi0_answer(r, inst):
    return {"bits": r.bits, "witness": list(r.witness.indices), "bracket": list(r.bracket),
            "exact": r.exact}


def _renyi0_check(ans, inst):
    """Invariants of any d0 answer, plus brute force where it is cheap."""
    p, q, eps = inst["P"].probs, inst["Q"].probs, inst["eps"]
    idx = np.asarray(ans["witness"], dtype=np.intp)
    problems = []
    if not float(p[idx].sum()) > (1.0 - eps) - 1e-12:
        problems.append("witness p-mass does not exceed 1 - eps")
    r_mass = float(q[idx].sum())
    if r_mass <= 0.0 or not near(ans["bits"], -math.log2(r_mass), REL_TOL):
        problems.append("bits differ from -log2 of the witness r-mass")
    if not ans["bracket"][0] <= ans["bracket"][1]:
        problems.append("bracket is not ordered")
    dh, _ = entropy.hypothesis_testing_entropy(inst["P"], inst["Q"], eps)
    if ans["bits"] > dh + 1e-9:
        problems.append("d0 value exceeds the D_H value")
    if p.size <= 8 and not near(ans["bits"], brute_force_renyi0(inst["P"], inst["Q"], eps)):
        problems.append("disagrees with brute_force_renyi0")
    return problems


def _dh_answer(res, inst):
    bits, test = res
    w = test.weights
    ones = np.flatnonzero(w == 1.0)
    frac = np.flatnonzero((w > 0.0) & (w < 1.0))
    return {"bits": bits, "ones": int(ones.size),
            "ones_digest": hashlib.sha1(ones.astype(np.int64).tobytes()).hexdigest()[:16],
            "fractional": [[int(i), float(w[i])] for i in frac]}


def _dh_check(ans, inst):
    if inst["p"].size > 256:  # the dense LP is checked on these when goldens are recorded
        return []
    lp = dense_lp_oracle(inst["P"], inst["Q"], inst["eps"])
    return [] if near(ans["bits"], lp) else ["disagrees with dense_lp_oracle"]


def _series_answer(s):
    return {"points": [[int(n), float(v)] for n, v in s.points], "target": s.target,
            "labels": list(s.labels)}


def _capacity_answer(r, inst):
    return {"bits": r.bits, "message_count": r.codebook.message_count,
            "inputs": list(r.codebook.inputs), "decoder": list(r.codebook.decoder),
            "exact": r.exact}


def _rcs_answer(r, inst):
    series, chi = r
    return {"series": _series_answer(series), "chi": _series_answer(chi)}


def _rcs_check(ans, inst):
    target = 1.0 - entropy.binary_entropy(inst["flip"])
    ok = near(ans["series"]["target"], target)
    return [] if ok else ["Shannon capacity of the BSC differs from 1 - h(p)"]


def _chol_answer(r, inst):
    return {"bits": r.bits, "message_count": r.message_count, "kind": r.witness["kind"],
            "inputs": r.witness.get("inputs")}


def _bound_answer(r, inst):
    return {"verdict": r.verdict, "lower": r.lower_estimate, "capacity": r.capacity,
            "upper": r.upper_witness_value,
            "codebook_inputs": r.witnesses.get("codebook_inputs"),
            "renyi0_witness": r.witnesses.get("renyi0_witness")}


def _bound_check(scale):
    def check(ans, inst):
        problems = []
        if ans["verdict"] != "consistent":
            problems.append(f"verdict {ans['verdict']}")
        if not ans["lower"] <= ans["capacity"] + 1e-6 <= ans["upper"] + 2e-6:
            problems.append("lower <= capacity <= upper does not hold")
        if inst["kind"] == "identity" and not near(ans["capacity"], scale * math.log2(inst["dim"])):
            problems.append("identity capacity differs from log2 d")
        return problems
    return check


def _landauer_answer(r, inst):
    d = r.to_dict()
    return {k: d[k] for k in ("verdict", "message_count", "bits", "exact_success",
                              "empirical_success", "work_value_kT", "work_bracket_kT")}


def _landauer_check(ans, inst):
    problems = [] if ans["verdict"] == "consistent" else [f"verdict {ans['verdict']}"]
    if inst["kind"] == "identity" and not near(ans["bits"], math.log2(inst["dim"])):
        problems.append("identity capacity differs from log2 d")
    return problems


# ---------------------------------------------------------------- workloads

def _entropy_families():
    fams = []
    for d in (8, 16, 20, 24, 30):
        fams.append(Family(f"d0_dirichlet_d{d}", 128, lambda rng, s, d=d: _pair(rng, d),
                           lambda x: thermocap.smoothed_renyi0(x["P"], x["Q"], x["eps"]),
                           _renyi0_answer, _renyi0_check))
    for d in (20, 24, 28):
        fams.append(Family(f"d0_near_tie_d{d}", 128, lambda rng, s, d=d: _near_tie(rng, d),
                           lambda x: thermocap.smoothed_renyi0(x["P"], x["Q"], x["eps"]),
                           _renyi0_answer, _renyi0_check))
    for d in (64, 256):  # default arguments: no allow_heuristic
        fams.append(Family(f"d0_default_d{d}", 128, lambda rng, s, d=d: _pair(rng, d),
                           lambda x: thermocap.smoothed_renyi0(x["P"], x["Q"], x["eps"]),
                           _renyi0_answer, _renyi0_check))
    for d in (64, 256, 1024):
        fams.append(Family(f"dh_d{d}", 128, lambda rng, s, d=d: _pair(rng, d),
                           lambda x: thermocap.hypothesis_testing_entropy(x["P"], x["Q"], x["eps"]),
                           _dh_answer, _dh_check))

    def binary(rng, n):
        p1, q1 = rng.uniform(0.05, 0.95, size=2)
        p, q = np.array([1 - p1, p1]), np.array([1 - q1, q1])
        return {"p": p, "q": q, "eps": float(rng.uniform(0.01, 0.3)), "n": n,
                "P": core.Distribution(p), "Q": core.Distribution(q)}

    for n in (1000, 10_000):
        fams.append(Family(f"dh_iid_binary_n{n}", 128, lambda rng, s, n=n: binary(rng, n),
                           lambda x: thermocap.hypothesis_testing_entropy_iid_binary(
                               x["P"], x["Q"], x["eps"], x["n"]),
                           lambda r, x: {"bits": r}))
        fams.append(Family(f"stein_nmax{n}", 128, lambda rng, s, n=n: binary(rng, n),
                           lambda x: thermocap.stein_series(x["P"], x["Q"], x["eps"], x["n"]),
                           lambda r, x: _series_answer(r)))
    return fams


#: (dim_in, kind), ordered so that any few consecutive cycles mix sizes and kinds
_BOUND_STRATA = tuple(((3, 6, 4, 8)[j % 4], ("noisy", "identity", "sparse")[(j + j // 4) % 3])
                      for j in range(12))


def _bounds_instance(rng, stratum, **extra):
    d, kind = stratum
    return _with_channel(_channel(rng, d, kind), dim=d, kind=kind, **extra)


def _capacity_families():
    fams = []
    for d in (8, 12, 16):
        mk = lambda rng, s, d=d: _with_channel(rng.dirichlet(np.full(d, 0.2), size=d).T, dim=d)
        fams.append(Family(f"capacity_d{d}", 48, mk,
                           lambda x: thermocap.one_shot_capacity(x["CH"], 0.1), _capacity_answer))
        fams.append(Family(f"theta_capacity_d{d}", 48, mk,
                           lambda x: thermocap.theta_equilibrium_capacity(x["CH"], 0.1, 0.25),
                           _capacity_answer))

    def bsc4(rng, s):
        # above flip 0.026 all 16 codewords miss eps = 0.1, so the search runs
        flip = float(rng.uniform(0.03, 0.1))
        mat = np.kron(np.kron(_bsc(flip), _bsc(flip)), np.kron(_bsc(flip), _bsc(flip)))
        return _with_channel(mat, flip=flip)

    fams.append(Family("capacity_bsc4", 48, bsc4,
                       lambda x: thermocap.one_shot_capacity(x["CH"], 0.1), _capacity_answer))
    fams.append(Family("theta_capacity_bsc4", 48, bsc4,
                       lambda x: thermocap.theta_equilibrium_capacity(x["CH"], 0.1, 0.2),
                       _capacity_answer))

    def bsc(rng, s):
        flip = float(rng.uniform(0.01, 0.2))
        return _with_channel(_bsc(flip), flip=flip, eps=float(rng.uniform(0.05, 0.2)))

    fams.append(Family("capacity_series_bsc_theta", 48, bsc,
                       lambda x: thermocap.regularized_capacity_series(x["CH"], x["eps"], 3,
                                                                      theta=0.25),
                       _rcs_answer, _rcs_check))
    for d in (6, 8, 10, 12):
        fams.append(Family(f"constrained_holevo_d{d}", 48,
                           lambda rng, s, d=d: _with_channel(_channel(rng, d, "random")),
                           lambda x: thermocap.constrained_holevo(x["CH"], 0.25), _chol_answer))
    thm2 = core.ErrorParams(eps=0.15, omega=0.075, delta=0.05)
    thm4 = core.ErrorParams(eps=0.2, omega=0.1, delta=0.05)
    fams += [
        Family("bounds_thm2", 36, _bounds_instance,
               lambda x: thermocap.capacity_entropic_bounds(x["CH"], thm2),
               _bound_answer, _bound_check(1.0), _BOUND_STRATA),
        Family("bounds_thm4", 36, _bounds_instance,
               lambda x: thermocap.capacity_work_bounds(x["CH"], thm4),
               _bound_answer, _bound_check(core.LN2), _BOUND_STRATA),
        Family("bounds_prop2", 36, _bounds_instance,
               lambda x: thermocap.equilibrium_capacity_bounds(x["CH"], 0.1, 0.1),
               _bound_answer, _bound_check(1.0), _BOUND_STRATA),
        Family("landauer", 36,
               lambda rng, s: _bounds_instance(rng, s, seed=int(rng.integers(1 << 16))),
               lambda x: thermocap.landauer_scenario(x["CH"], 0.25, 2000, seed=x["seed"]),
               _landauer_answer, _landauer_check, _BOUND_STRATA),
    ]
    return fams


#: (dim, k_steps, schedule); the energy schedule only at sizes where one call
#: stays under ~0.25 s (at d >= 3 with k = 800 it takes 1-14 s).  A stride
#: of 7 through the 24 combinations mixes sizes within any few cycles.
_WORK_COMBOS = (
    [(d, k, s) for d in (2, 4, 8, 12, 16) for k in (400, 800) for s in ("angle", "weight")]
    + [(2, 400, "energy"), (2, 800, "energy"), (3, 400, "energy"), (4, 400, "energy")]
)
_WORK_STRATA = tuple(_WORK_COMBOS[(7 * j) % 24] for j in range(24))


def _work_instance(rng, stratum, explicit_delta):
    d, k, schedule = stratum
    eta = _dist(rng, d)
    levels = rng.uniform(0.0, 3.0, size=d)
    eps = float(rng.uniform(0.01, 0.29))
    delta = float(rng.uniform(0.2, 0.5)) if explicit_delta else None
    grid = min(delta / 10.0, 1e-3) if delta else SHORTEST_GRID
    return {"eta": eta, "levels": levels, "eps": eps, "delta": delta, "k_steps": k,
            "schedule": schedule, "grid": grid,
            "ETA": core.Distribution(eta), "H": core.Hamiltonian(levels)}


def _wcorr_instance(rng, stratum):
    kind, m = stratum
    table = np.eye(m) / m if kind == "max" else rng.dirichlet(np.ones(m * m)).reshape(m, m)
    return {"table": table, "eps": float(rng.uniform(0.01, 0.29)), "grid": SHORTEST_GRID,
            "J": core.JointDistribution(table)}


def _work_families():
    def work(x):
        return thermocap.extractable_work(x["ETA"], x["H"], x["eps"], x["delta"],
                                          k_steps=x["k_steps"], schedule=x["schedule"])

    return [
        Family("work_shortest_interval", 48, lambda rng, s: _work_instance(rng, s, False),
               work, lambda r, x: r.to_dict(), strata=_WORK_STRATA),
        Family("work_eps_delta", 48, lambda rng, s: _work_instance(rng, s, True),
               work, lambda r, x: r.to_dict(), strata=_WORK_STRATA),
        Family("work_from_correlation", 48, _wcorr_instance,
               lambda x: thermocap.work_from_correlation(x["J"], x["eps"]),
               lambda r, x: r.to_dict(),
               strata=tuple((k, m) for k in ("max", "random") for m in (2, 3, 4))),
    ]


# ---------------------------------------------------------------- CLI

#: fixtures live here, relative to the checkout root; the paths appear in
#: the CLI's output, so they must be the same when goldens are recorded
FIXTURE_DIR = ".bench_out/fixtures"


def _cli_instance(name, rng, stratum):
    """Fixture files (as JSON-able dicts) and argv for one CLI variant."""
    files, args = {}, []

    def fixture(role, data):
        tag = hashlib.sha1(dumps(data).encode()).hexdigest()[:12]
        path = f"{FIXTURE_DIR}/{name}-{role}-{tag}.json"
        files[path] = data
        return path

    def ch(mat):
        return {"matrix": mat.tolist(), "dim_in": mat.shape[1], "dim_out": mat.shape[0]}

    cmd = name.split("_", 1)
    if cmd[0] == "entropy":
        d = int(rng.integers(4, 9))
        args = ["entropy", cmd[1], "--p", fixture("p", {"probs": _dist(rng, d).tolist()}),
                "--q", fixture("q", {"probs": _dist(rng, d).tolist()})]
        if cmd[1] != "rel":
            args += ["--eps", repr(round(float(rng.uniform(0.05, 0.3)), 4))]
    elif name.startswith("capacity"):
        d = int(rng.integers(3, 6))
        args = ["capacity", "--channel", fixture("ch", ch(_channel(rng, d, "random"))),
                "--eps", "0.1"] + (["--theta", "0.25"] if name.endswith("theta") else [])
    elif name == "workext":
        d = int(rng.integers(2, 5))
        args = ["workext", "--state", fixture("state", {"probs": _dist(rng, d).tolist()}),
                "--hamiltonian", fixture("ham", {"levels": rng.uniform(0, 3, d).tolist(),
                                                 "units": "kT"}),
                "--eps", repr(round(float(rng.uniform(0.05, 0.25)), 4))]
    elif name == "wcorr":
        m = int(rng.integers(2, 4))
        args = ["wcorr", "--joint",
                fixture("joint", {"probs": rng.dirichlet(np.ones(m * m)).reshape(m, m).tolist()}),
                "--eps", repr(round(float(rng.uniform(0.05, 0.25)), 4))]
    elif cmd[0] == "bounds":
        d = int(rng.integers(3, 5))
        path = fixture("ch", ch(_channel(rng, d, ("random", "sparse")[int(rng.integers(2))])))
        args = {"thm2": ["--eps", "0.15", "--omega", "0.075", "--delta", "0.05"],
                "thm4": ["--eps", "0.2", "--omega", "0.1", "--delta", "0.05"],
                "prop2": ["--eps", "0.1", "--theta", "0.1"]}[cmd[1]]
        args = ["bounds", cmd[1], "--channel", path] + args
    elif name == "landauer":
        d = int(rng.integers(3, 5))
        args = ["landauer", "--channel", fixture("ch", ch(_channel(rng, d, "sparse"))),
                "--eps", "0.05", "--trials", "1000"]
    elif name == "asymptotics_stein":
        p1, q1 = rng.uniform(0.1, 0.9, size=2)
        args = ["asymptotics", "stein", "--p", fixture("p", {"probs": [1 - p1, p1]}),
                "--q", fixture("q", {"probs": [1 - q1, q1]}),
                "--eps", repr(round(float(rng.uniform(0.01, 0.2)), 4))]
    elif name == "asymptotics_capacity-series":
        args = ["asymptotics", "capacity-series", "--channel",
                fixture("ch", ch(_bsc(float(rng.uniform(0.01, 0.2))))), "--eps", "0.1"]
    elif name == "asymptotics_chi-bar":
        args = ["asymptotics", "chi-bar", "--channel",
                fixture("ch", ch(_channel(rng, int(rng.integers(2, 4)), "random"))),
                "--theta", "0.25"]
    return {"files": files, "argv": args}


def write_fixtures(inst: dict, root) -> None:
    """Write a CLI instance's fixture files under the checkout root."""
    for path, data in inst["files"].items():
        target = root / path
        target.parent.mkdir(parents=True, exist_ok=True)
        target.write_text(json.dumps(data))


CLI_VARIANTS = ("entropy_d0", "entropy_dh", "entropy_rel", "capacity", "capacity_theta", "workext",
                "wcorr", "bounds_thm2", "bounds_thm4", "bounds_prop2", "landauer",
                "asymptotics_stein", "asymptotics_capacity-series", "asymptotics_chi-bar")


def _cli_families():
    """The call itself is made by the runner (a child process per op)."""
    return [Family(f"cli_{v}", 8, lambda rng, s, v=v: _cli_instance(f"{v}", rng, s), None, None)
            for v in CLI_VARIANTS]


WORKLOADS = {
    "cli_cold": _cli_families,
    "entropy_solver": _entropy_families,
    "capacity_search": _capacity_families,
    "work_extraction": _work_families,
}


def families(workload: str) -> list:
    return WORKLOADS[workload]()


def dumps(obj) -> str:
    return json.dumps(obj, sort_keys=True, separators=(",", ":"))
