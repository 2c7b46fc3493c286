"""Every script in demos/, and the README's quick start, runs to completion
against the package in src/."""

import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

from sentimen import cli

from conftest import NEGATIVE_TEXTS, POSITIVE_TEXTS

ROOT = Path(__file__).resolve().parents[1]
DEMOS = ROOT / "demos"


def run_demo(argv, cwd, path_dirs=()):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    env["PATH"] = os.pathsep.join([*map(str, path_dirs), env.get("PATH", "")])
    done = subprocess.run(argv, cwd=cwd, env=env, capture_output=True,
                          text=True, timeout=300)
    assert done.returncode == 0, done.stdout + done.stderr


@pytest.mark.parametrize("name", sorted(p.name for p in DEMOS.glob("*.py")))
def test_python_demo(tmp_path, name):
    # demo 04 writes its heatmap into the working directory
    run_demo([sys.executable, str(DEMOS / name)], tmp_path)


def test_cli_workflow_demo(tmp_path):
    bin_dir = tmp_path / "bin"
    bin_dir.mkdir()
    shim = bin_dir / "sentimen"
    shim.write_text(f'#!/bin/sh\nexec "{sys.executable}" -m sentimen.cli "$@"\n',
                    "utf-8")
    shim.chmod(0o755)
    run_demo(["sh", str(DEMOS / "06_cli_workflow.sh")], tmp_path, [bin_dir])


def test_readme_quick_start(tmp_path):
    readme = (ROOT / "README.md").read_text("utf-8")
    blocks = re.findall(r"^```python\n(.*?)^```$", readme, re.S | re.M)
    assert len(blocks) == 1
    script = tmp_path / "quick_start.py"
    # the block reads ``texts`` and ``labels``: a toy corpus
    script.write_text(
        f"texts = {POSITIVE_TEXTS + NEGATIVE_TEXTS!r}\n"
        f"labels = {[1] * len(POSITIVE_TEXTS) + [0] * len(NEGATIVE_TEXTS)!r}\n"
        + blocks[0], "utf-8")
    run_demo([sys.executable, str(script)], tmp_path)


def test_readme_config_table_matches_the_schema():
    readme = (ROOT / "README.md").read_text("utf-8")
    table = re.search(r"^\| key \| default \| accepted values \|\n"
                      r"\|---\|---\|---\|\n((?:\|.*\n)+)", readme, re.M)
    assert table is not None
    keys = {key for row in table.group(1).splitlines()
            for key in re.findall(r"`(\w+)`", row.split("|")[1])}
    assert keys == set(cli.SCHEMA)
