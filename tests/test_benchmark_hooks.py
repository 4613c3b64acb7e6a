"""The benchmark's layer trace wraps package functions by name.

perfbench/layertrace.py lists them in SPANS as (module, function) pairs and
looks each one up on condmoments.<module> when it installs its wrappers.  A
change that deletes or renames one of them breaks `perfbench/run.py --trace 1`
without touching the benchmark's files, so this test names the break.
"""

import importlib
import importlib.util
from pathlib import Path

import pytest

_LAYERTRACE = Path(__file__).resolve().parents[1] / "perfbench" / "layertrace.py"


def _spans() -> dict:
    spec = importlib.util.spec_from_file_location("_layertrace", _LAYERTRACE)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.SPANS


@pytest.mark.parametrize("module, function", sorted(_spans()))
def test_traced_function_exists(module, function):
    owner = importlib.import_module(f"condmoments.{module}")
    assert callable(getattr(owner, function, None)), f"condmoments.{module}.{function} is gone"
