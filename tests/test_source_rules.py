"""Source rules of the package: standard library only, and no asserts.

`python -O` strips assert statements, so an invariant written as one is
silently unchecked; every check in the package raises instead.
"""
import ast
import sys
from pathlib import Path

import pytest

SOURCES = sorted((Path(__file__).parents[1] / "src" / "borelcell").glob("*.py"))


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_stdlib_imports_and_no_asserts(path):
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    for node in ast.walk(tree):
        where = f"{path.name}:{getattr(node, 'lineno', '?')}"
        assert not isinstance(node, ast.Assert), f"assert statement at {where}"
        if isinstance(node, ast.Import):
            tops = [alias.name.partition(".")[0] for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            tops = [node.module.partition(".")[0]]
        else:
            continue
        for top in tops:
            assert top in sys.stdlib_module_names, f"non-stdlib import {top} at {where}"


def test_koszul_oracle_is_independent_of_the_builders():
    """The Koszul oracle shares no code with the complexes it cross-checks."""
    path = Path(__file__).parents[1] / "src" / "borelcell" / "koszul.py"
    forbidden = {"builders", "complexes", "resolution", "borel"}
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if isinstance(node, ast.Import):
            paths = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom):
            paths = [f"{node.module or ''}.{alias.name}" for alias in node.names]
        else:
            continue
        for p in paths:
            hit = forbidden.intersection(p.split("."))
            assert not hit, f"koszul.py:{node.lineno} imports {sorted(hit)}"


def test_verify_never_computes_lattice_covers():
    """verify finds a lower cover of each degree from its cell masks.

    `LcmLattice.covers` costs as much as the whole acyclicity kernel, so
    resolution.py must not read it under any name or attribute.
    """
    path = Path(__file__).parents[1] / "src" / "borelcell" / "resolution.py"
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        # attributes, names, imported names and strings (getattr, __dict__)
        names = [getattr(node, k, None) for k in ("attr", "id", "name", "value")]
        assert "covers" not in names, f"resolution.py:{getattr(node, 'lineno', '?')}"
