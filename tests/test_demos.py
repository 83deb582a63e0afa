"""Every demo script, and the README's quick start, runs to completion as a standalone program."""

import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
DEMOS = sorted((ROOT / "demos").glob("*.py"))


def run_python(args, tmp_path):
    env = dict(os.environ, TMPDIR=str(tmp_path))
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    return subprocess.run(
        [sys.executable, *args], cwd=tmp_path, env=env, capture_output=True, text=True, timeout=120
    )


@pytest.mark.parametrize("demo", DEMOS, ids=[d.name for d in DEMOS])
def test_demo_exits_zero(demo, tmp_path):
    proc = run_python([str(demo)], tmp_path)
    assert proc.returncode == 0, proc.stderr


def test_config_parses_the_cli_demo_configs_without_the_cli(tmp_path):
    proc = run_python([str(ROOT / "demos" / "05_cli_pipeline.py")], tmp_path)
    assert proc.returncode == 0, proc.stderr
    (demo_root,) = tmp_path.glob("ntl_cli_*")
    probe = (
        "import sys\n"
        "from ntlpipe.config import parse_run_config, parse_scene_spec\n"
        "run = parse_run_config(sys.argv[1])\n"
        "spec = parse_scene_spec(sys.argv[2])\n"
        "print(len(run.datasets), len(spec.zones), 'ntlpipe.cli' in sys.modules)\n"
    )
    proc = run_python(["-c", probe, str(demo_root / "run.json"), str(demo_root / "scene.json")], tmp_path)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "1 6 False\n"


def test_method_comparison_scores_every_config_against_one_truth(tmp_path):
    proc = run_python([str(ROOT / "demos" / "04_method_comparison.py")], tmp_path)
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.splitlines()
    assert lines.count("truth pcc: 1.000") == 1
    table = lines[lines.index("methods          recovered") + 1 :]
    labels = [line.split()[0] for line in table[: table.index("")]]
    assert labels == ["raw", "built", "quality", "built+quality"]


def test_readme_quick_start_scores_every_vnp46a2_config(tmp_path):
    readme = (ROOT / "README.md").read_text()
    example = re.search(r"^```python\n(.*?)^```", readme, re.M | re.S).group(1)
    proc = run_python(["-c", example], tmp_path)
    assert proc.returncode == 0, proc.stderr
    labels = [line.split()[0] for line in proc.stdout.splitlines()]
    assert labels == ["raw", "built", "quality", "built+quality"]
