"""Declared dependencies cover every top-level third-party import.

An import at module top level runs on ``import repro`` (or on test
collection), so a package it names must be installed by
``pip install .`` (``[project] dependencies``) or, for test modules, by
the ``test`` extra.  Imports inside functions or ``try`` blocks are the
import-gated optional backends (numba, torch) and are not checked.
"""

from __future__ import annotations

import ast
import importlib.util
import os
import re
import sys
import sysconfig
from pathlib import Path
from typing import Dict, Set

import pytest

ROOT = Path(__file__).resolve().parent.parent
#: Top-level packages that live in this repository.
LOCAL = {"repro", "tests", "benchmarks", "perfbench", "conftest"}


def _is_stdlib(name: str) -> bool:
    if hasattr(sys, "stdlib_module_names"):  # Python >= 3.10
        return name in sys.stdlib_module_names
    spec = importlib.util.find_spec(name)
    if spec is None or spec.origin is None:
        return False
    if spec.origin in ("built-in", "frozen"):
        return True
    stdlib = os.path.realpath(sysconfig.get_paths()["stdlib"])
    origin = os.path.realpath(spec.origin)
    return origin.startswith(stdlib) and "-packages" not in origin


def _top_level_imports(root: Path) -> Dict[str, Set[str]]:
    """Third-party package name -> files importing it at module level."""
    found: Dict[str, Set[str]] = {}
    for path in sorted(root.rglob("*.py")):
        for node in ast.parse(path.read_text()).body:
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                names = [node.module]
            else:
                continue
            for name in names:
                top = name.split(".")[0]
                if top not in LOCAL and not _is_stdlib(top):
                    found.setdefault(top, set()).add(
                        str(path.relative_to(ROOT))
                    )
    return found


def _declared(key: str) -> Set[str]:
    """Import names of the requirements in the pyproject array ``key``."""
    text = (ROOT / "pyproject.toml").read_text()
    match = re.search(rf"^{key}\s*=\s*\[(.*?)\]", text, re.M | re.S)
    assert match, f"pyproject.toml has no {key} array"
    return {
        req.lower().replace("-", "_")
        for req in re.findall(r'"\s*([A-Za-z0-9_.\-]+)', match.group(1))
    }


@pytest.mark.parametrize(
    "tree, keys",
    [
        ("src", ("dependencies",)),
        ("tests", ("dependencies", "test")),
        ("benchmarks", ("dependencies", "test")),
    ],
)
def test_top_level_imports_are_declared(tree, keys):
    declared = set().union(*(_declared(k) for k in keys))
    missing = {
        name: files
        for name, files in _top_level_imports(ROOT / tree).items()
        if name not in declared
    }
    assert not missing, (
        f"{tree}/ imports undeclared packages at module level: {missing}; "
        f"declare them in pyproject.toml ({' / '.join(keys)})"
    )
