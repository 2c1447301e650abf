"""Source rules of the package: standard library only, no asserts, a
package namespace that exports the documented library alone, a cold
import that loads neither dataclasses nor hashlib, and `Cell` objects only
in complexes.py.

`python -O` strips assert statements, so an invariant written as one is
silently unchecked; every check in the package raises instead.
"""
import ast
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

import borelcell

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


def test_cold_import_loads_no_dataclasses_and_no_hashlib():
    """`import borelcell` runs before every command: dataclasses (with
    inspect) costs code generation at import, hashlib loads OpenSSL, and
    only a report needs the latter."""
    heavy = ["dataclasses", "inspect", "hashlib", "_hashlib"]
    code = (
        "import sys, borelcell.cli, borelcell.serialize\n"
        f"print(sorted(set({heavy!r}) & set(sys.modules)))"
    )
    # -S: no site module, so no .pth file of the environment imports anything
    env = {**os.environ, "PYTHONPATH": str(Path(__file__).parents[1] / "src")}
    argv = [sys.executable, "-S", "-c", code]
    out = subprocess.run(argv, capture_output=True, text=True, env=env, check=True).stdout
    assert out == "[]\n"
    for path in SOURCES:
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom):
                names = [node.module or ""]
            else:
                continue
            assert "dataclasses" not in names, f"{path.name}:{node.lineno}"


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

    `LcmLattice.lower_covers` computes every cover of the lattice and
    `lattice._lower_covers` those of one element, which verify does not
    need, so resolution.py must not read either under any name or attribute,
    nor `covers`, the name of their former inverse.
    """
    path = Path(__file__).parents[1] / "src" / "borelcell" / "resolution.py"
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        # attributes, names, imported names and strings (getattr, __dict__)
        names = [getattr(node, k, None) for k in ("attr", "id", "name", "value")]
        for name in ("covers", "lower_covers", "_lower_covers"):
            assert name not in names, f"resolution.py:{getattr(node, 'lineno', '?')}"


def cell_view_uses(source: str) -> list[int]:
    """Lines of source that name `Cell` (imported, as an attribute or a
    getattr string) or read a `cells` attribute."""
    lines = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Name):
            hit = node.id == "Cell"
        elif isinstance(node, ast.alias):
            hit = node.name == "Cell"
        elif isinstance(node, ast.Attribute):
            hit = node.attr in ("Cell", "cells")
        elif isinstance(node, ast.Call) and getattr(node.func, "id", None) in (
            "getattr", "hasattr"
        ):
            hit = getattr(node.args[1], "value", None) in ("Cell", "cells")
        else:
            hit = False
        if hit:
            lines.append(node.lineno)
    return lines


def test_cell_objects_only_at_the_edge():
    """Every module but complexes.py reads the finished complex's arrays,
    never the `cells` view or its `Cell` objects."""
    for path in SOURCES:
        if path.name != "complexes.py":
            assert cell_view_uses(path.read_text(encoding="utf-8")) == [], path.name
    # the rule catches each way of reaching the view
    for bad in (
        "from .complexes import Cell",
        "from .complexes import Cell as C",
        "import borelcell.complexes as m\nm.Cell",
        "X.cells",
        "getattr(X, 'cells')",
    ):
        assert cell_view_uses(bad), bad
    assert cell_view_uses('cells = data["cells"]\nchain_complex(X)') == []


def test_package_exports_the_readme_library():
    """borelcell.__all__ is __version__ plus the README's Library names."""
    readme = (Path(__file__).parents[1] / "README.md").read_text(encoding="utf-8")
    block = re.search(r"from borelcell import \((.*?)\)", readme, re.S)
    documented = [name.strip() for name in block.group(1).split(",") if name.strip()]
    assert borelcell.__all__ == ["__version__", *documented]
    for name in documented:
        assert callable(getattr(borelcell, name)), name
