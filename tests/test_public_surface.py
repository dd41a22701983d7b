"""Every public name in `src/outercolor` has a caller in the program.

A public top-level function or class, or a public method of one, that
no other code in `src/` references is surface the program carries only
for its tests; such a value belongs in the test that builds it. Names
are matched by identifier: a `Name` or an attribute anywhere in `src/`
outside the definition itself counts as a reference, and an import
alone does not.

Exempt are the entry point `cli.main` and the functions that
`perfbench/tracing.py` binds in `SITES` and `PEEL_SITE`: the benchmark's
tracer wraps them by name, so they must exist whether or not the program
calls them. Each is exempt at the module it is bound on and at the one
that defines it, which differ for a name that a module hands out from
another (`subcubic.find_reducible_config` is defined in `peel`). The
tracer file is read with `ast`, not run.
"""

import ast
import importlib
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "outercolor"
TRACING = ROOT / "perfbench" / "tracing.py"


def bound_by_tracer() -> set[tuple[str, str]]:
    pairs = set()
    for node in ast.parse(TRACING.read_text()).body:
        if not isinstance(node, ast.Assign):
            continue
        target = node.targets[0]
        if isinstance(target, ast.Name) and target.id in ("SITES", "PEEL_SITE"):
            sites = node.value.elts if target.id == "SITES" else [node.value]
            for site in sites:
                module, attr = (e.value for e in site.elts[:2])
                pairs.add((module.removeprefix("outercolor."), attr))
                home = getattr(importlib.import_module(module), attr).__module__
                pairs.add((home.removeprefix("outercolor."), attr))
    return pairs


def public_names_and_references():
    defined: list[tuple[str, str]] = []  # (module, name or Class.method)
    referenced: set[str] = set()
    for path in sorted(SRC.glob("*.py")):
        for node in ast.parse(path.read_text()).body:
            own = None
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                own = node.name
                if not own.startswith("_"):
                    defined.append((path.stem, own))
                    if isinstance(node, ast.ClassDef):
                        defined += [
                            (path.stem, f"{own}.{item.name}")
                            for item in node.body
                            if isinstance(item, ast.FunctionDef) and not item.name.startswith("_")
                        ]
            for sub in ast.walk(node):
                if isinstance(sub, ast.Name):
                    name = sub.id
                elif isinstance(sub, ast.Attribute):
                    name = sub.attr
                else:
                    continue
                if name != own:
                    referenced.add(name)
    return defined, referenced


def test_every_public_name_has_a_caller_in_the_program():
    defined, referenced = public_names_and_references()
    exempt = bound_by_tracer() | {("cli", "main")}
    uncalled = [
        f"{module}.{name}"
        for module, name in defined
        if name.rsplit(".", 1)[-1] not in referenced and (module, name) not in exempt
    ]
    assert uncalled == [], f"public names no code in src/ references: {uncalled}"
