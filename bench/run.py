"""thermocap benchmark: one seeded workload, timed end to end or traced.

    python3 bench/run.py --workload entropy_solver --seed 0 --seconds 24 --trace 0

Run from the root of a checkout that holds `src/thermocap`.  The workload is
a closed loop with one client and no think time: the next operation starts
when the previous one has returned (in-process), or its process has exited
(`cli_cold`, at most one child at a time).  Operations are timed for
`--seconds` seconds of operation time; every answer is checked outside the
timed region (see workloads.py).  The last line of stdout is the result:
end-to-end metrics with `--trace 0`, per-layer metrics with `--trace 1`.
The line before it, and `.bench_out/result-*.json`, hold the details: the
failure ledger, the tail percentile used, host drift and versions.
"""
from __future__ import annotations

import argparse
import gzip
import hashlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import threading
import time
from collections import Counter, defaultdict
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"
GOLDENS = HERE / "goldens.json"

WORKLOADS = ("cli_cold", "entropy_solver", "capacity_search", "work_extraction")
#: the default seed, and a second one kept for checking that a claim holds
DEFAULT_SEED = 0
CHECK_SEED = 7919
#: fresh interpreters timed per run for setup_s
SETUP_PROBES = 3
#: op_tail_ms percentile per workload: the highest of 50/75/90/95/99 that
#: leaves at least thirty samples beyond it at the defining commit's
#: throughput, fixed so that a run with a few more or fewer operations does
#: not switch percentile.  With only ten beyond, the estimate rests on a
#: handful of operations and moved by 17-28 % between runs of the same code.
TAIL_PERCENTILE = {"cli_cold": 50, "entropy_solver": 95, "capacity_search": 75,
                   "work_extraction": 75}
#: a child process that runs longer than this is killed and counted failed
CHILD_TIMEOUT_S = 20
#: the measuring loop stops at this wall time whatever --seconds says
WALL_LIMIT_S = 150
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")

PROBE_CODE = ("import time; t0 = time.perf_counter(); import thermocap; "
              "t1 = time.perf_counter(); print(t1, t1 - t0)")
CLI_CODE = "from thermocap.cli import entry; entry()"


def fail(message: str) -> None:
    print(f"error: {message}", file=sys.stderr)
    sys.exit(2)


def spawn(cmd, env, stderr_path):
    """Run one child to completion; returns (stdout bytes, exit code,
    peak RSS in KiB, start perf_counter, end perf_counter)."""
    with open(stderr_path, "wb") as err:
        start = time.perf_counter()
        proc = subprocess.Popen(cmd, cwd=ROOT, env=env, stdout=subprocess.PIPE, stderr=err)
        timer = threading.Timer(CHILD_TIMEOUT_S, proc.kill)
        timer.start()
        try:
            out = proc.stdout.read()
            proc.stdout.close()
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            timer.cancel()
        end = time.perf_counter()
    proc.returncode = os.waitstatus_to_exitcode(status)
    return out, proc.returncode, usage.ru_maxrss, start, end


def calibrate(np) -> float:
    """Fixed pure-Python plus numpy kernel; its time shows host drift only."""
    start = time.perf_counter()
    acc = 0
    for i in range(200_000):
        acc += (i * i) % 7
    a = np.linspace(0.0, 1.0, 160 * 160).reshape(160, 160)
    for _ in range(20):
        a = np.tanh(a @ a.T / 160.0)
    return (time.perf_counter() - start) * 1e3


def plain(obj):
    """JSON-able copy with numpy scalars and tuples turned into Python ones."""
    if isinstance(obj, dict):
        return {str(k): plain(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [plain(v) for v in obj]
    if hasattr(obj, "tolist"):
        return plain(obj.tolist())
    return obj


def family_medians(samples) -> dict:
    """Median latency of each family's (latency, family) samples."""
    by_family = defaultdict(list)
    for latency, family in samples:
        by_family[family].append(latency)
    return {f: statistics.median(v) for f, v in sorted(by_family.items())}


def family_median(samples):
    """Median over families of each family's median latency: the typical
    operation of the stated mix (one per family).  A median of the pooled
    samples can fall in a sparse gap between fast and slow families, where
    which instances a seed drew moves it by tens of percent; each family's
    median is steady, and so is their median."""
    if not samples:
        return float("nan")
    return statistics.median(family_medians(samples).values())


def percentile(samples, p):
    """p-th percentile of (latency, family) samples, every family weighted
    equally: the latency of an operation drawn from the stated mix (one per
    family).  Plain percentiles of the pooled samples would jump between
    families whenever a few more operations of one of them succeed."""
    if not samples:
        return float("nan")
    counts = Counter(f for _, f in samples)
    target = p / 100.0 * len(counts)
    acc = 0.0
    for latency, family in sorted(samples):
        acc += 1.0 / counts[family]
        if acc >= target - 1e-9:
            return latency
    return latency


class Runner:
    def __init__(self, workload, seed, env, deadline):
        import workloads

        self.w = workloads
        self.workload = workload
        self.cli = workload == "cli_cold"
        self.fams = workloads.families(workload)
        self.orders = {f.name: workloads.run_order(f, seed) for f in self.fams}
        self.goldens = json.loads(GOLDENS.read_text())["families"]
        self.env = env
        self.deadline = deadline
        self.instances = {}
        self.verified = {}
        self.child_rss_kb = []
        self.next_op = 0

    def instance(self, fam, i):
        key = (fam.name, i)
        if key not in self.instances:
            inst = self.w.instance(fam, i)
            gold = self.goldens.get(fam.name, [])
            gold = gold[i] if i < len(gold) else None
            drift = gold is None or gold["h"] != self.w.digest(inst)
            if self.cli:
                self.w.write_fixtures(inst, ROOT)
            self.instances[key] = (inst, gold, drift)
        return self.instances[key]

    def phase(self, seconds, tracer=None) -> dict:
        """Closed loop over the families until `seconds` of operation time.
        In-process workloads finish the cycle they are in, so every run has
        the same mix; a `cli_cold` cycle (14 processes) is longer than a run."""
        st = {"attempted": 0, "ok": 0, "op_s": 0.0, "latencies": [], "raised": Counter(),
              "wrong": Counter(), "cli_calls": 0, "identical": 0,
              "variant_ms": defaultdict(list), "op_family": {}}
        n_fams = len(self.fams)
        c = 0
        while ((st["op_s"] < seconds or (c % n_fams and not self.cli))
               and time.monotonic() < self.deadline):
            fam = self.fams[c % n_fams]
            order = self.orders[fam.name]
            i = order[(c // n_fams) % len(order)]
            c += 1
            inst, gold, drift = self.instance(fam, i)
            op = self.next_op
            self.next_op += 1
            st["op_family"][op] = fam.name
            if self.cli:
                dt, outcome, detail = self.cli_op(fam, inst, gold, op, tracer, st)
            else:
                dt, outcome, detail = self.call_op(fam, i, inst, gold, op, tracer)
            if drift:
                outcome, detail = "wrong", "instance differs from the recorded catalogue"
            st["attempted"] += 1
            st["op_s"] += dt
            if outcome == "ok":
                st["ok"] += 1
                st["latencies"].append((dt, fam.name))
            else:
                st[outcome][f"{fam.name}: {detail}"] += 1
        return st

    def call_op(self, fam, i, inst, gold, op, tracer):
        error = None
        result = None
        if tracer is not None:
            tracer.enabled = True
            root = tracer.begin(f"op.{fam.name}", op)
        start = time.perf_counter()
        try:
            result = fam.call(inst)
        except Exception as exc:  # the failure is the measurement: ledger it
            error = type(exc).__name__
        dt = time.perf_counter() - start
        if tracer is not None:
            tracer.end(root, error)
            tracer.enabled = False
        if gold is None:
            return dt, "wrong", "no golden"
        if error is not None:
            if gold.get("raises") == error:
                return dt, "raised", error
            return dt, "wrong", f"raised {error}"
        answer = plain(fam.answer(result, inst))
        key = (fam.name, i)
        grid = inst.get("grid")
        if key in self.verified:
            problems = self.w.compare(answer, self.verified[key], grid)
        else:
            problems = self.w.compare(answer, gold["answer"], grid) if "answer" in gold else []
            if fam.check is not None:
                problems += fam.check(answer, inst)
            if not problems:
                self.verified[key] = answer
        return (dt, "ok", None) if not problems else (dt, "wrong", problems[0])

    def cli_op(self, fam, inst, gold, op, tracer, st):
        stderr_path = OUT / "cli-stderr.txt"
        if tracer is None:
            cmd = [sys.executable, "-c", CLI_CODE, *inst["argv"]]
        else:
            spans_path = OUT / "cli-spans.json"
            spans_path.unlink(missing_ok=True)
            cmd = [sys.executable, str(HERE / "launch.py"), str(spans_path), *inst["argv"]]
            root = tracer.begin(f"op.{fam.name}", op)
        out, rc, rss_kb, start, end = spawn(cmd, self.env, stderr_path)
        dt = end - start
        self.child_rss_kb.append(rss_kb)
        st["cli_calls"] += 1
        st["variant_ms"][fam.name].append(dt * 1e3)
        if tracer is not None:
            tracer.spans[root][1] = start
            if spans_path.exists():
                base = len(tracer.spans)
                for name, s0, s1, parent, _, error, note in json.loads(spans_path.read_text()):
                    tracer.add(name, s0, s1, root if parent < 0 else base + parent, error, note)
            tracer.end(root, None if rc == 0 else f"exit {rc}")
            tracer.spans[root][2] = end
        if gold is None:
            return dt, "wrong", "no golden"
        if rc != gold["rc"]:
            message = stderr_path.read_text(errors="replace").strip().splitlines()
            return dt, "wrong", f"exit {rc}: {message[-1] if message else ''}"
        if hashlib.sha256(out).hexdigest() == gold["sha"]:
            st["identical"] += 1
        try:
            parsed = json.loads(out)
        except ValueError:
            return dt, "wrong", "stdout is not JSON"
        problems = self.w.compare(parsed, gold["out"], self.w.SHORTEST_GRID)
        return (dt, "ok", None) if not problems else (dt, "wrong", problems[0])


def host_info(np, scipy) -> dict:
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]["name"]
    except (KeyError, TypeError):
        blas = "unknown"
    return {"nproc": os.cpu_count(), "affinity_cpus": len(os.sched_getaffinity(0)),
            "python": platform.python_version(), "numpy": np.__version__,
            "scipy": scipy.__version__, "blas": blas,
            "blas_threads": {v: os.environ.get(v) for v in THREAD_VARS}}


def end_to_end(workload, st, setup_s, peak_rss_mb) -> tuple:
    lat = st["latencies"]
    p = TAIL_PERCENTILE[workload]
    tail = percentile(lat, p)
    tail_info = {"percentile": p, "samples": len(lat),
                 "beyond": sum(1 for x, _ in lat if x > tail)}
    metrics = {
        "ops_per_s": (st["ok"] / st["op_s"], "1/s"),
        "op_p50_ms": (family_median(lat) * 1e3, "ms"),
        "op_tail_ms": (tail * 1e3, "ms"),
        "ops_ok_frac": (st["ok"] / st["attempted"], "ratio"),
        "peak_rss_mb": (peak_rss_mb, "MB"),
        "setup_s": (setup_s, "s"),
    }
    return metrics, tail_info


TRACED_SELF = (
    "entropy.smoothed_renyi0", "entropy.hypothesis_testing_entropy",
    "entropy.hypothesis_testing_entropy_iid_binary",
    "coding.one_shot_capacity", "coding.theta_equilibrium_capacity",
    "bounds.capacity_entropic_bounds", "bounds.capacity_work_bounds",
    "bounds.equilibrium_capacity_bounds", "bounds.landauer_scenario",
    "asymptotics.constrained_holevo", "asymptotics.regularized_capacity_series",
    "asymptotics.shannon_capacity", "asymptotics.stein_series",
    "thermo.extraction_protocol", "thermo.work_distribution",
    "thermo.shortest_confidence_interval", "thermo.eps_delta_work", "thermo.extractable_work",
)
LAYERS = ("cli", "core", "entropy", "coding", "thermo", "bounds", "asymptotics")


def per_layer(summary, st, untraced, import_ms, calib_ms) -> tuple:
    """Per-layer metrics for the result line, and the fuller table (with
    self times in ms) for the details."""
    import tracing

    total = summary["op_s"]
    self_s, calls, errors = summary["self_s"], summary["calls"], summary["errors"]
    traced_rate = st["ok"] / st["op_s"]
    untraced_rate = untraced["ok"] / untraced["op_s"]
    renyi_ok = calls["entropy.smoothed_renyi0"] - errors["entropy.smoothed_renyi0"]
    bounds_failed = sum(n for name, n in errors.items() if name.startswith("bounds."))
    m = {
        "host.calib_ms": (calib_ms, "ms"),
        "trace.overhead_frac": (1.0 - traced_rate / untraced_rate, "ratio"),
        "cli.import_ms": (import_ms, "ms"),
        "cli.byte_identical_frac": (st["identical"] / max(st["cli_calls"], 1), "ratio"),
        "entropy.smoothed_renyi0.self_ms": (self_s["entropy.smoothed_renyi0"] * 1e3, "ms"),
        "entropy.smoothed_renyi0.calls": (calls["entropy.smoothed_renyi0"], "count"),
        "entropy.smoothed_renyi0.failed": (errors["entropy.smoothed_renyi0"], "count"),
        "entropy.smoothed_renyi0.exact_frac": (summary["renyi0_exact"] / max(renyi_ok, 1), "ratio"),
        "entropy.smoothed_renyi0.near_tie.self_frac": (summary["near_tie_self_s"] / total, "ratio"),
        "coding.ml_decoder.calls": (calls["coding.ml_decoder"], "count"),
        "coding.gibbs_deviation.calls": (calls["coding.gibbs_deviation"], "count"),
        "coding.codebooks_in_space": (summary["codebooks_in_space"], "count"),
        "bounds.failed": (bounds_failed, "count"),
        "thermo.work_distribution.atoms": (summary["wd_atoms"], "count"),
    }
    for mode in ("exact", "binned", "monte_carlo"):
        m[f"thermo.work_distribution.{mode}"] = (summary["wd_modes"][mode], "count")
    for cls in tracing.CLASSES:
        m[f"core.{cls}.built"] = (calls[f"core.{cls}"], "count")
    for layer in LAYERS:
        m[f"{layer}.self_frac"] = (summary["module_self_s"][layer] / total, "ratio")
    for name in TRACED_SELF:
        m[f"{name}.self_frac"] = (self_s[name] / total, "ratio")
    table = {f"{name}.self_ms": self_s[name] * 1e3 for name in TRACED_SELF}
    table.update({f"{name}.calls": calls[name] for name in TRACED_SELF})
    table["core.build.self_ms"] = summary["module_self_s"]["core"] * 1e3
    table["bench.self_ms"] = summary["module_self_s"]["bench"] * 1e3
    table["traced_op_ms"] = total * 1e3
    table["entropy.smoothed_renyi0.near_tie.self_ms"] = summary["near_tie_self_s"] * 1e3
    table["layer_self_frac"] = {k: v / total for k, v in summary["module_self_s"].items()}
    if st["cli_calls"]:
        table["cli.import_frac_of_call"] = summary["import_s"] / total
        table["cli.wall_ms"] = {k: statistics.median(v) for k, v in st["variant_ms"].items()}
    return m, table


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=24.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if not (SRC / "thermocap" / "__init__.py").is_file():
        fail(f"no thermocap sources under {SRC}; run from the root of a checkout")
    if not GOLDENS.is_file():
        fail(f"missing {GOLDENS}; regenerate it with bench/record_goldens.py")

    t_begin = time.monotonic()
    for var in THREAD_VARS:  # single-threaded BLAS, here and in every child
        os.environ.setdefault(var, "1")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [str(SRC)] + ([os.environ["PYTHONPATH"]] if os.environ.get("PYTHONPATH") else [])))
    OUT.mkdir(exist_ok=True)

    probes = []
    for _ in range(SETUP_PROBES):
        out, rc, _, start, _ = spawn([sys.executable, "-c", PROBE_CODE], env,
                                     OUT / "probe-stderr.txt")
        if rc != 0:
            fail("a fresh interpreter could not import thermocap")
        done, import_s = map(float, out.split())
        probes.append((done - start, import_s))
    setup_s = statistics.median(p[0] for p in probes)
    import_ms = statistics.median(p[1] for p in probes) * 1e3

    sys.path.insert(0, str(SRC))
    import numpy as np
    import scipy

    import tracing

    calib = [calibrate(np) for _ in range(3)]
    runner = Runner(args.workload, args.seed, env, t_begin + WALL_LIMIT_S)
    details = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
               "trace": args.trace, "host": host_info(np, scipy),
               "setup": {"probes_s": [p[0] for p in probes],
                         "import_ms": [p[1] * 1e3 for p in probes]}}
    if args.trace:
        untraced = runner.phase(args.seconds / 2)
        tracer = tracing.Tracer()
        tracer.install()
        tracer.enabled = False
        st = runner.phase(args.seconds / 2, tracer)
    else:
        st = runner.phase(args.seconds)
    calib_end = [calibrate(np) for _ in range(3)]
    details["host"]["calib_ms"] = {"start": calib, "end": calib_end}
    calib_ms = statistics.median(calib + calib_end)

    phases = [st] if not args.trace else [untraced, st]
    attempted = sum(p["attempted"] for p in phases)
    wrong = sum(sum(p["wrong"].values()) for p in phases)
    raised = sum(sum(p["raised"].values()) for p in phases)
    ledger = {"raised_as_recorded": dict(sum((p["raised"] for p in phases), Counter())),
              "wrong": dict(sum((p["wrong"] for p in phases), Counter()))}
    details["ledger"] = ledger
    details["ops_failed_frac"] = {"value": (raised + wrong) / attempted, "failed": raised + wrong,
                                  "attempted": attempted}
    if runner.cli:  # a typical CLI process: the largest one depends on which fixtures a seed drew
        peak_kb = statistics.median(runner.child_rss_kb)
        details["cli_child_peak_rss_mb"] = {"median": peak_kb / 1024.0,
                                            "max": max(runner.child_rss_kb) / 1024.0}
    else:
        peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    measured = untraced if args.trace else st
    e2e, tail_info = end_to_end(args.workload, measured, setup_s, peak_kb / 1024.0)
    details["end_to_end"] = {k: v[0] for k, v in e2e.items()}
    details["tail"] = tail_info
    details["family_p50_ms"] = {f: v * 1e3
                                for f, v in family_medians(measured["latencies"]).items()}
    details["ops"] = {"attempted": measured["attempted"], "ok": measured["ok"],
                      "op_s": measured["op_s"]}
    if st["cli_calls"]:
        details["cli.byte_identical"] = {"identical": st["identical"], "calls": st["cli_calls"]}

    if args.trace:
        summary = tracing.summarize(tracer.spans, st["op_family"])
        metrics, details["layers"] = per_layer(summary, st, untraced, import_ms, calib_ms)
        names = sorted({s[0] for s in tracer.spans})
        index = {n: k for k, n in enumerate(names)}
        spans_file = OUT / f"spans-{args.workload}-seed{args.seed}.json.gz"
        with gzip.open(spans_file, "wt") as fh:
            json.dump({"names": names,
                       "fields": ["name", "start", "end", "parent", "op", "error", "note"],
                       "spans": [[index[s[0]], *s[1:]] for s in tracer.spans]}, fh)
    else:
        metrics = e2e
    (OUT / f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(details, indent=1, sort_keys=True))
    print(json.dumps(details, sort_keys=True))
    print(json.dumps({
        "correct": wrong == 0,
        "attempted": attempted,
        "failed": wrong,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))


if __name__ == "__main__":
    main()
