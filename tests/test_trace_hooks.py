"""The benchmark's tracer wraps package functions by name: each name it
lists must still resolve, or `perfbench/run.py --trace 1` stops working.

The tracer is loaded from its file and only read; nothing is installed.
"""

import importlib
import importlib.util
from pathlib import Path

import pytest

TRACING = Path(__file__).resolve().parent.parent / "perfbench" / "tracing.py"


def load_tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


tracing = load_tracing()
HOOKS = ([(layer, path) for layer, path, _, _ in tracing.TIMED]
         + [(layer, path) for layer, path, _ in tracing.COUNTED]
         + [("semantics", "enumerate_models"),
            ("forcing", "enumerate_sentences")])


@pytest.mark.parametrize("layer,path", HOOKS,
                         ids=[f"{layer}.{path}" for layer, path in HOOKS])
def test_traced_name_resolves(layer, path):
    assert layer in tracing.LAYERS
    module = importlib.import_module(f"talgebra.{layer}")
    owner, attr = tracing._resolve(module, path)
    assert callable(getattr(owner, attr))
