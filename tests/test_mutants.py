"""Every committed mutant of ``tools/mutants.py`` still applies exactly
once, so a refactor that moves the code a mutant targets must carry the
mutant forward.  Running the mutants is ``python tools/mutants.py``."""

import importlib.util
import shutil
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
    for node in mutant.tests:
        assert (ROOT / node.split("::")[0]).is_file(), node
