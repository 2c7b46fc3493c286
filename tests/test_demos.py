"""Every script in demos/ runs to completion against the package in src/."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

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
