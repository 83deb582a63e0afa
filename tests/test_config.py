"""The config readers' key tables: README renders them, and every shipped config passes them."""

import json
import re
import sys
from pathlib import Path

import pytest

from ntlpipe import config
from ntlpipe.cli import main
from ntlpipe.config import parse_run_config, parse_scene_spec

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "bench"))
import workloads  # noqa: E402  (bench/workloads.py writes the benchmark's inputs)

README = (ROOT / "README.md").read_text()
# each file's JSON objects, as (the prefix README gives their keys, their key table)
RUN_OBJECTS = (
    ("", config._RUN),
    ("datasets[].", config._DATASET),
    ("datasets[].grid.", config._GRID),
    ("hurricanes[].", config._HURRICANE),
)
SCENE_OBJECTS = (
    ("", config._SCENE),
    ("grid.", config._GRID),
    ("zones.", config._TILING),
    ("zones[].", config._ZONE),
    ("noise.", config._NOISE),
)


def shown(default):
    """A key table default as README shows it."""
    if default is config._REQUIRED:
        return "required"
    if default is None:
        return "none"
    if isinstance(default, config._Same):
        return f"`{default}`"
    return f"`{json.dumps(default)}`"


def key_table(objects):
    """README's key table of one config file, rendered from the key tables its reader reads through."""
    rows = ["| key | value | default |", "|---|---|---|"]
    for prefix, table in objects:
        rows += [f"| `{prefix}{key}` | {doc} | {shown(default)} |" for key, (_, default, doc) in table.items()]
    return "\n".join(rows) + "\n"


def test_readme_key_tables_are_rendered_from_the_key_tables():
    readme_tables = re.findall(r"^\| key \| value \| default \|\n(?:\|.*\n)+", README, re.M)
    assert readme_tables == [key_table(RUN_OBJECTS), key_table(SCENE_OBJECTS)]


def test_readme_examples_parse_and_simulate(tmp_path, capsys):
    run_text, scene_text = re.findall(r"^```json\n(.*?)^```", README, re.M | re.S)
    run = tmp_path / "run.json"
    run.write_text(run_text)
    scene = tmp_path / "scene.json"
    scene.write_text(scene_text)
    assert parse_run_config(run).datasets
    assert parse_scene_spec(scene).zones
    assert main(["simulate", "--config", str(scene), "--out", str(tmp_path / "sim")]) == 0
    assert capsys.readouterr().err == ""


@pytest.mark.parametrize("name", list(workloads.WORKLOADS))
def test_benchmark_configs_parse(tmp_path, name):
    inputs = tmp_path / name
    workloads.write_inputs(name, 0, inputs)
    run = parse_run_config(inputs / "run.json")
    assert [h.window.months_before for h in run.hurricanes] == [workloads.WORKLOADS[name].months_before]
    assert len(parse_scene_spec(inputs / "scene.json").zones) == workloads.WORKLOADS[name].n_zones
