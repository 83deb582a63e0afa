"""Package modules' imports and exports: each import is used or re-exported, each export is defined."""

import ast
import importlib
import json
import os
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


# numpy loads at its first use (ntlpipe._numpy): report does no array work, so it never pays for numpy's import.
# numpy._core is the first module numpy's own code imports, so it is in sys.modules once numpy has run.
LOADED = "import sys; {statement}; print('numpy._core' in sys.modules)"
COMMAND = "import sys; from ntlpipe.cli import main; code = main(sys.argv[1:]); print(code, 'numpy._core' in sys.modules)"
SCENE = {
    "seed": 3,
    "dataset": "VSC-NTL",
    "grid": {"ncols": 6, "nrows": 6, "x_origin": 0.0, "y_origin": 0.0, "cell_size": 1.0},
    "event_month": "2018-10",
    "zones": {"nx": 2, "ny": 2, "damage_ratios": [0.1, 0.2, 0.3, 0.4]},
    "base_radiance": 20.0,
}
RUN = {
    "datasets": [{"kind": "VSC-NTL", "raster_dir": "sim/VSC-NTL"}],
    "zones": "sim/zones.geojson",
    "hurricanes": [{"name": "Storm", "event_month": "2018-10"}],
    "configs": ["raw", "clip+quality"],
    "output_dir": "out",
    "case_study_k": 1,
}


def fresh(code, *argv, cwd=PACKAGE.parent, check=True):
    """The stdout of code run in a fresh interpreter that finds this ntlpipe first; its stderr where not check."""
    path = os.pathsep.join(filter(None, [str(PACKAGE.parent), os.environ.get("PYTHONPATH")]))
    command = [sys.executable, "-c", code, *argv]
    done = subprocess.run(command, cwd=cwd, env={**os.environ, "PYTHONPATH": path}, capture_output=True, text=True)
    if not check:
        return done.stderr
    assert done.returncode == 0, done.stderr
    return done.stdout


@pytest.mark.parametrize("statement", ["import ntlpipe", "import ntlpipe.cli"])
def test_importing_the_package_runs_no_numpy(statement):
    assert fresh(LOADED.format(statement=statement)) == "False\n"


def test_report_runs_no_numpy_and_the_other_commands_load_it(tmp_path):
    (tmp_path / "scene.json").write_text(json.dumps(SCENE))
    (tmp_path / "run.json").write_text(json.dumps(RUN))
    simulate = ["simulate", "--config", "scene.json", "--out", "sim"]
    assert fresh(COMMAND, *simulate, cwd=tmp_path).splitlines()[-1] == "0 True"
    for command in ("validate", "extract"):
        assert fresh(COMMAND, command, "--config", "run.json", cwd=tmp_path).splitlines()[-1] == "0 True"
    assert fresh(COMMAND, "report", "--config", "run.json", cwd=tmp_path).splitlines()[-1] == "0 False"
    assert (tmp_path / "out" / "report.csv").read_text().count("\n") == 3  # the header and both configs


# extract alone starts threads, its series writers, from concurrent.futures (about 5 ms to import); each has ended
# when main returns
POOL = "import sys, threading; {statement}; print({code}'concurrent.futures' in sys.modules, threading.active_count())"


def test_only_extract_loads_the_pool_and_no_thread_outlives_a_command(tmp_path):
    assert fresh(POOL.format(statement="import ntlpipe.cli", code="")) == "False 1\n"
    (tmp_path / "scene.json").write_text(json.dumps(SCENE))
    (tmp_path / "run.json").write_text(json.dumps(RUN))
    command = POOL.format(statement="from ntlpipe.cli import main; code = main(sys.argv[1:])", code="code, ")
    assert fresh(command, "simulate", "--config", "scene.json", "--out", "sim", cwd=tmp_path).endswith("0 False 1\n")
    assert fresh(command, "extract", "--config", "run.json", cwd=tmp_path).endswith("0 True 1\n")
    assert fresh(command, "report", "--config", "run.json", cwd=tmp_path).endswith("0 False 1\n")


def test_numpy_imported_first_is_the_module_every_module_binds():
    code = "import numpy, ntlpipe.grid, ntlpipe.zones; print(ntlpipe.grid.np is numpy is ntlpipe.zones.np)"
    assert fresh(code) == "True\n"


def test_the_lazy_module_becomes_numpy_at_its_first_use():
    code = (
        "import sys, types, ntlpipe.grid as grid; lazy = grid.np; lazy.zeros(1); import numpy; "
        "print(lazy is numpy, type(numpy) is types.ModuleType, 'numpy._core' in sys.modules)"
    )
    assert fresh(code) == "True True True\n"


def test_without_numpy_importing_the_package_is_an_import_error():
    stderr = fresh("import sys; sys.modules['numpy'] = None; import ntlpipe", check=False)
    assert stderr.splitlines()[-1] == "ModuleNotFoundError: No module named 'numpy'"
