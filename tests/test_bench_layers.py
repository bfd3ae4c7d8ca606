"""The traced bench (`perfbench/spans.py`) wraps sidelab functions by name;
every name it wraps must still exist, so a fold that drops one fails here."""

import importlib
import importlib.util
from pathlib import Path

import pytest

from sidelab.noise import NoisePlan

SPANS = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"


def _load_spans():
    # spans.py imports only the standard library
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


SPANS_MODULE = _load_spans()


@pytest.mark.parametrize("module, attr", [(m, a) for m, a, _ in SPANS_MODULE.LAYERS],
                         ids=[name for _, _, name in SPANS_MODULE.LAYERS])
def test_wrapped_layer_resolves(module, attr):
    assert callable(getattr(importlib.import_module(f"sidelab.{module}"), attr))


@pytest.mark.parametrize("method", SPANS_MODULE.NOISE_METHODS)
def test_wrapped_noise_method_exists(method):
    assert callable(getattr(NoisePlan, method))
