"""The benchmark tracer's targets must name functions the program has.

``perfbench/tracing.py`` wraps each of its ``TARGETS`` by name at run time,
and only the benchmark's smoke test runs it.  This loads the file by path
(it imports only the standard library) so a rename in ``sentimen`` that
leaves a target behind fails here.
"""

import importlib
from pathlib import Path

import pytest

from conftest import load_by_path

TRACING = Path(__file__).resolve().parent.parent / "perfbench" / "tracing.py"
tracing = load_by_path("perfbench_tracing", TRACING)
PACKAGE, TARGETS = tracing.PACKAGE, tracing.TARGETS


@pytest.mark.parametrize("module_name,attr", TARGETS,
                         ids=[f"{m}.{a}" for m, a in TARGETS])
def test_target_resolves(module_name, attr):
    # by path, as the tracer does: ``import sentimen`` does not load every
    # submodule (``sentimen.train``, once loaded, is the module itself)
    module = importlib.import_module(f"{PACKAGE}.{module_name}")
    if "." in attr:
        cls_name, meth = attr.split(".")
        assert meth in vars(getattr(module, cls_name))
    else:
        assert callable(getattr(module, attr))
