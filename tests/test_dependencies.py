"""Every third-party module the library imports is a declared dependency, and every
module parses at the declared Python floor."""

import ast
import re
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]


def imported_modules(source):
    """The top-level names of the absolute imports in ``source``."""
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            yield from (alias.name.partition(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            yield node.module.partition(".")[0]


def test_every_third_party_import_is_a_declared_dependency():
    tomllib = pytest.importorskip("tomllib")
    project = tomllib.loads((ROOT / "pyproject.toml").read_text())["project"]
    # A requirement's name ends at its first version, marker or extras character.
    declared = {re.match(r"[\w.-]+", requirement)[0].lower().replace("-", "_")
                for requirement in project["dependencies"]}
    third_party = {}
    for path in sorted((ROOT / "src" / "alpha_spectra").glob("*.py")):
        for module in imported_modules(path.read_text()):
            if module not in sys.stdlib_module_names and module != "alpha_spectra":
                third_party.setdefault(module, path.name)
    assert {"numpy", "orjson"} <= third_party.keys()
    assert {module: name for module, name in third_party.items() if module not in declared} == {}


def test_every_module_parses_at_the_declared_python_floor():
    # Syntax newer than the floor fails here; a library API newer than it does not.
    tomllib = pytest.importorskip("tomllib")
    requires = tomllib.loads((ROOT / "pyproject.toml").read_text())["project"]["requires-python"]
    floor = tuple(int(part) for part in re.fullmatch(r">=\s*(\d+)\.(\d+)", requires).groups())
    paths = sorted((ROOT / "src" / "alpha_spectra").glob("*.py"))
    assert paths
    for path in paths:
        ast.parse(path.read_text(), filename=str(path), feature_version=floor)
