"""README's lists of module constants and seeded functions agree with the code."""
import ast
import importlib
import inspect
import re
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
README = (ROOT / "README.md").read_text()
NAMED = set(re.findall(r"\bthermocap\.(\w+)\.([A-Z][A-Z0-9_]*)\b", README))
#: every backticked `thermocap.<module>.<name>`, lower-case and private names too
DOTTED = set(re.findall(r"`thermocap\.(\w+)\.(\w+)", README))

MODULES = ("core", "entropy", "coding", "thermo", "bounds", "asymptotics")
#: public numeric constants that are neither budgets nor tolerances: ln 2,
#: and the defaults of the e_cut and k_steps arguments (CLI --ecut, --ksteps)
NOT_BUDGETS = {("core", "LN2"), ("thermo", "DEFAULT_E_CUT"), ("thermo", "DEFAULT_K_STEPS")}


def defined_constants(mod):
    """Public upper-case names a module assigns a number to at top level."""
    tree = ast.parse((ROOT / "src" / "thermocap" / f"{mod}.py").read_text())
    module = importlib.import_module(f"thermocap.{mod}")
    return {(mod, target.id) for node in tree.body if isinstance(node, ast.Assign)
            for target in node.targets
            if isinstance(target, ast.Name) and re.fullmatch(r"[A-Z][A-Z0-9_]*", target.id)
            and isinstance(getattr(module, target.id), (int, float))}


def test_every_named_constant_exists():
    missing = [f"thermocap.{mod}.{name}" for mod, name in sorted(NAMED)
               if not hasattr(importlib.import_module(f"thermocap.{mod}"), name)]
    assert not missing


def test_every_dotted_name_resolves():
    assert ("entropy", "_greedy_cover") in DOTTED
    missing = [f"thermocap.{mod}.{name}" for mod, name in sorted(DOTTED)
               if not hasattr(importlib.import_module(f"thermocap.{mod}"), name)]
    assert not missing


def test_every_budget_and_tolerance_is_named():
    constants = set().union(*map(defined_constants, MODULES))
    assert {("bounds", "RANDOM_INPUTS"), ("core", "LN2")} <= constants
    unnamed = [f"thermocap.{mod}.{name}" for mod, name in sorted(constants - NOT_BUDGETS - NAMED)]
    assert not unnamed


def test_no_small_float_literal_outside_a_module_constant():
    # a tolerance or slack written inline escapes the list above: every float
    # literal below 1e-6 must sit in a module-level constant assignment
    found = []
    for path in sorted((ROOT / "src" / "thermocap").glob("*.py")):
        tree = ast.parse(path.read_text())
        named = {id(sub) for node in tree.body if isinstance(node, (ast.Assign, ast.AnnAssign))
                 for sub in ast.walk(node)}
        found += [f"{path.name}:{node.lineno} {node.value!r}" for node in ast.walk(tree)
                  if isinstance(node, ast.Constant) and isinstance(node.value, float)
                  and 0.0 < abs(node.value) < 1e-6 and id(node) not in named]
    assert not found


def test_seed_bullet_lists_every_seeded_function():
    bullet = re.search(r"^- Every `seed` argument \(([^)]*)\)", README, re.M)
    listed = set(re.findall(r"`(\w+)`", bullet.group(1)))
    package = importlib.import_module("thermocap")
    seeded = {name for name, obj in vars(package).items()
              if not name.startswith("_") and inspect.isfunction(obj)
              and "seed" in inspect.signature(obj).parameters}
    assert listed == seeded
    assert len(seeded) == 5
