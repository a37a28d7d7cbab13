"""The deterministic layers do not depend on the simulator or scipy."""

import ast
from pathlib import Path

import pytest

import revolve

PACKAGE = Path(revolve.__file__).resolve().parent
FORBIDDEN = {"simulator", "stats", "cli", "scipy"}


def imported_names(source: str) -> set[str]:
    """Every module a source imports, reduced to its first component.

    Modules of this package count by their own name, so that `from .stats
    import x`, `import revolve.stats` and `from revolve import stats` all
    give 'stats'.
    """
    names = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            modules = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom):
            base = "revolve." if node.level > 0 else ""
            if node.module is None or node.module == "revolve":
                # from . import x / from revolve import x: each x is a module
                modules = [f"revolve.{alias.name}" for alias in node.names]
            else:
                modules = [base + node.module]
        else:
            continue
        for module in modules:
            parts = module.split(".")
            if parts[0] == "revolve" and len(parts) > 1:
                parts = parts[1:]
            names.add(parts[0])
    return names


@pytest.mark.parametrize(
    "source, expected",
    [
        ("from .stats import fit_loglog", {"stats"}),
        ("from . import simulator", {"simulator"}),
        ("from revolve.stats import fit_loglog", {"stats"}),
        ("import revolve.simulator", {"simulator"}),
        ("from revolve import stats", {"stats"}),
        ("from scipy.stats import norm", {"scipy"}),
        ("import numpy as np", {"numpy"}),
    ],
)
def test_imported_names_sees_every_import_form(source, expected):
    assert imported_names(source) == expected


@pytest.mark.parametrize("module", ["sphere", "profiles", "limits", "operator_lab", "rates"])
def test_deterministic_layer_imports(module):
    source = (PACKAGE / f"{module}.py").read_text()
    assert imported_names(source) & FORBIDDEN == set()

