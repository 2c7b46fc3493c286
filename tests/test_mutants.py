"""Every committed mutant of ``tools/mutants.py`` still applies exactly
once, and every test it names is still collected, so a refactor that moves
the code a mutant targets, or merges or renames a test a mutant names,
must carry the mutant forward.  Running the mutants is
``python tools/mutants.py``."""

import importlib.util
import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
_spec = importlib.util.spec_from_file_location("mutants",
                                               ROOT / "tools" / "mutants.py")
mutants = importlib.util.module_from_spec(_spec)
sys.modules["mutants"] = mutants  # dataclasses look their module up
_spec.loader.exec_module(mutants)


@pytest.mark.parametrize("mutant", mutants.MUTANTS, ids=lambda m: m.name)
def test_mutant_applies_exactly_once(tmp_path, mutant):
    target = tmp_path / mutant.path
    target.parent.mkdir(parents=True)
    shutil.copy(ROOT / mutant.path, target)
    mutants.apply(mutant, tmp_path)
    assert target.read_text("utf-8") != (ROOT / mutant.path).read_text("utf-8")


def test_every_named_test_is_collected():
    # one collection of every named file, in the environment the runner
    # gives its pytest: no PYTHONPATH, so pyproject.toml's pythonpath holds
    named = {node for m in mutants.MUTANTS for node in m.tests}
    files = sorted({node.split("::")[0] for node in named})
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    proc = subprocess.run(
        [sys.executable, "-m", "pytest", "--collect-only", "-q", "-p",
         "no:cacheprovider", *files],
        cwd=ROOT, env=env, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stdout[-2000:] + proc.stderr[-2000:]
    missing = sorted(named - set(proc.stdout.splitlines()))
    assert not missing, f"named by a mutant but not collected: {missing}"
