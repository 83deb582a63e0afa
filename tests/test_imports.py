"""Package modules' imports and exports: each import is used or re-exported, each export is defined."""

import ast
import importlib
import subprocess
import sys
from pathlib import Path

import pytest

import ntlpipe

PACKAGE = Path(ntlpipe.__file__).parent
# (module, name) pairs imported for a reader elsewhere: bench/tracing.py's test looks
# read_grid up as ntlpipe.cli.read_grid
IMPORTED_FOR_OTHERS = {("cli", "read_grid")}


def imported_names(tree):
    """The names the module's import statements bind."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            yield from (alias.asname or alias.name.partition(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            yield from (alias.asname or alias.name for alias in node.names)


def exported_names(tree):
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(getattr(t, "id", None) == "__all__" for t in node.targets):
            return set(ast.literal_eval(node.value))
    return set()


MODULES = sorted(set(PACKAGE.glob("*.py")) - {PACKAGE / "__init__.py"})


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.stem)
def test_every_import_is_used_or_exported(path):
    tree = ast.parse(path.read_text(), filename=str(path))
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    unused = [
        name
        for name in imported_names(tree)
        if name not in used and name not in exported_names(tree) and (path.stem, name) not in IMPORTED_FOR_OTHERS
    ]
    assert unused == []


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.stem)
def test_every_exported_name_is_defined(path):
    module = importlib.import_module(f"ntlpipe.{path.stem}")
    assert [name for name in getattr(module, "__all__", ()) if not hasattr(module, name)] == []


def test_importing_the_cli_does_not_load_orjson():
    # orjson loads on the first grid row written or long-spelled body read, so report, which touches no grid, never
    # pays for it, nor does a command whose grids are all spelled short
    code = "import sys, ntlpipe.cli; print('orjson' in sys.modules)"
    done = subprocess.run([sys.executable, "-c", code], cwd=PACKAGE.parent, capture_output=True, text=True, check=True)
    assert done.stdout == "False\n"
