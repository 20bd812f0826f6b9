"""Record bench/goldens.json: the answer to every catalogue instance.

    python3 bench/record_goldens.py [workload ...]

Run at the commit whose answers the benchmark checks against.  Each answer
is also cross-checked here against the independent oracles that are too
slow to run on every benchmark pass (brute force up to d = 16, the dense LP
at every size).  Only DimensionTooLargeError may be raised, and it is
recorded as that instance's expected outcome.
"""
import hashlib
import json
import os
import sys
import time
from collections import Counter

from run import CLI_CODE, GOLDENS, OUT, ROOT, SRC, WORKLOADS, plain, spawn

sys.path.insert(0, str(SRC))
import workloads as w  # noqa: E402
from thermocap.entropy import brute_force_renyi0, dense_lp_oracle  # noqa: E402

KNOWN_DEFECT = "DimensionTooLargeError"


def deep_check(fam, answer, inst):
    if fam.name.startswith("d0_") and inst["p"].size <= 16 and "bits" in answer:
        if not w.near(answer["bits"], brute_force_renyi0(inst["P"], inst["Q"], inst["eps"])):
            return ["disagrees with brute_force_renyi0"]
    if fam.name.startswith("dh_d"):
        if not w.near(answer["bits"], dense_lp_oracle(inst["P"], inst["Q"], inst["eps"])):
            return ["disagrees with dense_lp_oracle"]
    return []


def record_cli(fam, inst, env):
    w.write_fixtures(inst, ROOT)
    out, rc, _, start, end = spawn([sys.executable, "-c", CLI_CODE, *inst["argv"]], env,
                                   OUT / "cli-stderr.txt")
    if rc != 0:
        sys.exit(f"{fam.name}: exit {rc} on {inst['argv']}")
    return {"rc": rc, "sha": hashlib.sha256(out).hexdigest(), "out": json.loads(out)}, end - start


def record_call(fam, inst):
    start = time.perf_counter()
    try:
        result = fam.call(inst)
    except Exception as exc:  # recorded, and only the known defect is allowed
        if type(exc).__name__ != KNOWN_DEFECT:
            sys.exit(f"{fam.name}: unexpected {type(exc).__name__}: {exc}")
        return {"raises": type(exc).__name__}, time.perf_counter() - start
    elapsed = time.perf_counter() - start
    answer = plain(fam.answer(result, inst))
    problems = (fam.check(answer, inst) if fam.check else []) + deep_check(fam, answer, inst)
    if problems:
        sys.exit(f"{fam.name}: {problems}")
    return {"answer": answer}, elapsed


def main():
    chosen = sys.argv[1:] or list(WORKLOADS)
    data = json.loads(GOLDENS.read_text()) if GOLDENS.is_file() else {"families": {}}
    env = dict(os.environ, PYTHONPATH=str(SRC), OMP_NUM_THREADS="1", OPENBLAS_NUM_THREADS="1",
               MKL_NUM_THREADS="1")
    OUT.mkdir(exist_ok=True)
    for workload in chosen:
        for fam in w.families(workload):
            entries, times, raised = [], [], Counter()
            for i in range(fam.size):
                inst = w.instance(fam, i)
                if workload == "cli_cold":
                    entry, elapsed = record_cli(fam, inst, env)
                else:
                    entry, elapsed = record_call(fam, inst)
                raised.update([entry.get("raises")] if "raises" in entry else [])
                entries.append(dict(entry, h=w.digest(inst)))
                times.append(elapsed)
            data["families"][fam.name] = entries
            mean_ms = 1e3 * sum(times) / len(times)
            print(f"{workload:16s} {fam.name:32s} n={fam.size:4d} mean={mean_ms:9.2f} ms "
                  f"max={1e3 * max(times):9.2f} ms raised={dict(raised)}", flush=True)
    defined = {fam.name for workload in WORKLOADS for fam in w.families(workload)}
    data["families"] = {k: v for k, v in data["families"].items() if k in defined}
    data["catalogue_seed"] = w.CATALOGUE_SEED
    GOLDENS.write_text(json.dumps(data, sort_keys=True, separators=(",", ":")) + "\n")


if __name__ == "__main__":
    main()
