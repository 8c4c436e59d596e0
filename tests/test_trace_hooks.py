"""The benchmark's tracer wraps package functions by name: each name it
lists must still resolve, or `perfbench/run.py --trace 1` stops working.
So must each package name the benchmark's sources read.

The tracer is loaded from its file and only read; nothing is installed.
The other benchmark sources are only parsed.
"""

import ast
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


PERFBENCH = TRACING.parent
SOURCES = sorted([*PERFBENCH.glob("*.py"), *PERFBENCH.glob("tests/*.py")])


def talgebra_names(tree) -> set:
    """The dotted talgebra names a module reads: each name imported from a
    talgebra module, and each attribute chain on `talgebra` or on a name
    bound to a talgebra module or object."""
    bound, names = {}, set()

    def dotted(node):
        if isinstance(node, ast.Name):
            return bound.get(node.id)
        if isinstance(node, ast.Attribute):
            owner = dotted(node.value)
            return owner and f"{owner}.{node.attr}"
        return None

    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                if alias.name.split(".")[0] == "talgebra":
                    names.add(alias.name)
                    if alias.asname:
                        bound[alias.asname] = alias.name
                    else:
                        bound["talgebra"] = "talgebra"
        elif (isinstance(node, ast.ImportFrom) and node.module
              and node.module.split(".")[0] == "talgebra"):
            for alias in node.names:
                bound[alias.asname or alias.name] = f"{node.module}.{alias.name}"
    for node in ast.walk(tree):          # `syntax = talgebra.syntax` and so on
        if (isinstance(node, ast.Assign) and len(node.targets) == 1
                and isinstance(node.targets[0], ast.Name)
                and dotted(node.value)):
            bound[node.targets[0].id] = dotted(node.value)
    names |= set(bound.values())
    names |= {dotted(node) for node in ast.walk(tree)
              if isinstance(node, ast.Attribute) and dotted(node)}
    return names


def resolves(name: str) -> bool:
    parts = name.split(".")
    owner = importlib.import_module(parts[0])
    for i, part in enumerate(parts[1:], 2):
        if hasattr(owner, part):
            owner = getattr(owner, part)
            continue
        try:
            owner = importlib.import_module(".".join(parts[:i]))
        except ImportError:
            return False
    return True


@pytest.mark.parametrize("source", SOURCES,
                         ids=[str(p.relative_to(PERFBENCH)) for p in SOURCES])
def test_benchmark_sources_read_defined_names(source):
    names = talgebra_names(ast.parse(source.read_text()))
    assert [n for n in sorted(names) if not resolves(n)] == []


def test_benchmark_name_scan_sees_imports_and_attributes():
    names = set().union(*(talgebra_names(ast.parse(p.read_text()))
                          for p in SOURCES))
    assert {"talgebra.syntax.sentence_labels", "talgebra.ccs.certify_word",
            "talgebra.ccs.institute_process", "talgebra.syntax.Star"} <= names
    assert not resolves("talgebra.syntax.no_such_name")
    assert not resolves("talgebra.no_such_module.name")
