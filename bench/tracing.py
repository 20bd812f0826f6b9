"""Span recording around thermocap's public functions, from outside the package.

`Tracer.install()` replaces each traced function wherever a `thermocap.*`
module binds it (the package re-exports included) and wraps the constructors
of the core classes.  Every call then appends one span
(name, start, end, parent, op, error, note) to an in-memory list; nothing is
written until the run ends.  Self time is a span's duration minus the part
its child spans cover, so time spent in private helpers counts toward the
public caller.
"""
from __future__ import annotations

import functools
import importlib
import math
import time
from collections import defaultdict

MODULES = ("core", "entropy", "coding", "thermo", "bounds", "asymptotics", "cli")

#: traced public functions, by the module that defines them
FUNCTIONS = {
    "entropy": ("smoothed_renyi0", "hypothesis_testing_entropy",
                "hypothesis_testing_entropy_iid_binary"),
    "coding": ("one_shot_capacity", "theta_equilibrium_capacity", "ml_decoder", "gibbs_deviation"),
    "thermo": ("extraction_protocol", "work_distribution", "shortest_confidence_interval",
               "eps_delta_work", "extractable_work", "work_from_correlation"),
    "bounds": ("capacity_entropic_bounds", "capacity_work_bounds", "equilibrium_capacity_bounds",
               "landauer_scenario"),
    "asymptotics": ("constrained_holevo", "regularized_capacity_series", "shannon_capacity",
                    "stein_series"),
    "cli": ("main",),
}

#: core classes whose constructions are counted and timed
CLASSES = ("Distribution", "Hamiltonian", "StochasticChannel")


def _codebooks_in_space(args, kwargs, result):
    """Sum over m of C(dim_in, m): the exhaustive search space (computed)."""
    if kwargs.get("randomized"):
        return 0
    ch = args[0]
    cap = kwargs.get("max_messages")
    m_cap = ch.dim_in if cap is None else min(cap, ch.dim_in)
    return sum(math.comb(ch.dim_in, m) for m in range(1, m_cap + 1))


#: per-function notes kept on successful spans
NOTES = {
    "entropy.smoothed_renyi0": lambda a, k, r: int(r.exact),
    "thermo.work_distribution": lambda a, k, r: (r.mode, int(r.values.size)),
    "coding.one_shot_capacity": _codebooks_in_space,
    "coding.theta_equilibrium_capacity": _codebooks_in_space,
}


class Tracer:
    def __init__(self):
        self.spans = []
        self._stack = []
        self.op = -1
        #: wrappers pass straight through while this is False (answer checks)
        self.enabled = True

    def begin(self, name: str, op: int) -> int:
        """Open a root span for one benchmark operation."""
        self.op = op
        idx = len(self.spans)
        self.spans.append([name, time.perf_counter(), None, -1, op, None, None])
        self._stack.append(idx)
        return idx

    def end(self, idx: int, error: str | None = None) -> None:
        self.spans[idx][2] = time.perf_counter()
        self.spans[idx][5] = error
        self._stack.pop()

    def add(self, name, start, end, parent, error=None, note=None) -> int:
        """Append a finished span (used for spans measured in a child process)."""
        self.spans.append([name, start, end, parent, self.op, error, note])
        return len(self.spans) - 1

    def wrap(self, name: str, fn):
        spans, stack, note = self.spans, self._stack, NOTES.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not self.enabled:
                return fn(*args, **kwargs)
            idx = len(spans)
            parent = stack[-1] if stack else -1
            span = [name, time.perf_counter(), None, parent, self.op, None, None]
            spans.append(span)
            stack.append(idx)
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                span[5] = type(exc).__name__
                raise
            finally:
                span[2] = time.perf_counter()
                stack.pop()
            if note is not None:
                span[6] = note(args, kwargs, result)
            return result

        return traced

    def install(self) -> None:
        """Wrap every traced function at every thermocap binding."""
        import thermocap

        mods = {name: importlib.import_module(f"thermocap.{name}") for name in MODULES}
        replace = {}
        for mod_name, names in FUNCTIONS.items():
            for fn_name in names:
                original = getattr(mods[mod_name], fn_name)
                replace[id(original)] = self.wrap(f"{mod_name}.{fn_name}", original)
        for mod in (thermocap, *mods.values()):
            for attr, value in list(vars(mod).items()):
                wrapped = replace.get(id(value))
                if wrapped is not None and callable(value):
                    setattr(mod, attr, wrapped)
        for cls_name in CLASSES:
            cls = getattr(mods["core"], cls_name)
            cls.__init__ = self.wrap(f"core.{cls_name}", cls.__init__)


def self_times(spans) -> list:
    """Self time in seconds of every span: duration minus its children's."""
    covered = [0.0] * len(spans)
    for name, start, end, parent, *_ in spans:
        if parent >= 0:
            covered[parent] += end - start
    return [s[2] - s[1] - covered[i] for i, s in enumerate(spans)]


def module_of(name: str) -> str:
    """Layer a span belongs to; root operation spans belong to the harness."""
    head = name.split(".", 1)[0]
    return head if head in MODULES else "bench"


def summarize(spans, op_family: dict) -> dict:
    """Per-layer totals from the spans of one traced phase.

    Returns self time by module and by span name (seconds), call and error
    counts by name, self time of `entropy.smoothed_renyi0` on near-tie
    families, and the notes gathered by `NOTES`.
    """
    own = self_times(spans)
    out = {
        "op_s": 0.0,
        "module_self_s": defaultdict(float),
        "self_s": defaultdict(float),
        "calls": defaultdict(int),
        "errors": defaultdict(int),
        "near_tie_self_s": 0.0,
        "renyi0_exact": 0,
        "codebooks_in_space": 0,
        "wd_atoms": 0,
        "wd_modes": defaultdict(int),
        "import_s": 0.0,
    }
    for span, self_s in zip(spans, own):
        name, start, end, parent, op, error, note = span
        if parent < 0:
            out["op_s"] += end - start
        out["module_self_s"][module_of(name)] += self_s
        out["self_s"][name] += self_s
        out["calls"][name] += 1
        if error is not None:
            out["errors"][name] += 1
        if name == "cli.import":
            out["import_s"] += end - start
        if name == "entropy.smoothed_renyi0":
            if op_family.get(op, "").startswith("d0_near_tie"):
                out["near_tie_self_s"] += self_s
            if note is not None:
                out["renyi0_exact"] += note
        elif name in ("coding.one_shot_capacity", "coding.theta_equilibrium_capacity") and note:
            out["codebooks_in_space"] += note
        elif name == "thermo.work_distribution" and note is not None:
            out["wd_modes"][note[0]] += 1
            out["wd_atoms"] += note[1]
    return out
