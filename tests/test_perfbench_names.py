"""The functions the benchmark traces or calls by name exist in coxheaps.

``perfbench/spans.py`` wraps each name in ``TARGETS``, and a name that no
longer resolves is only listed in ``Tracer.missing``, so its per-layer
metric would vanish without an error.  ``perfbench/workloads.py`` calls
the library through module aliases (``W.``, ``CY.``, ...) inside its
operations and the ``classify_steps`` replay, where a name that no longer
resolves shows only as failed benchmark operations.  This test reads
perfbench and changes nothing in it.
"""

import ast
import importlib
import importlib.util
import os

PERFBENCH = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "perfbench")


def _traced_names():
    spec = importlib.util.spec_from_file_location("perfbench_spans", os.path.join(PERFBENCH, "spans.py"))
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    return list(spans.TARGETS)


def _names_run_imports():
    with open(os.path.join(PERFBENCH, "run.py"), encoding="utf-8") as fh:
        tree = ast.parse(fh.read())
    return [
        f"{node.module.split('.', 1)[1]}.{alias.name}"
        for node in ast.walk(tree)
        if isinstance(node, ast.ImportFrom) and (node.module or "").startswith("coxheaps.")
        for alias in node.names
    ]


def _names_workloads_read():
    """Each attribute workloads.py reads off a coxheaps module it imports,
    as module.name, by the alias each import gives the module."""
    with open(os.path.join(PERFBENCH, "workloads.py"), encoding="utf-8") as fh:
        tree = ast.parse(fh.read())
    aliases = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "coxheaps":
            for alias in node.names:
                assert aliases.setdefault(alias.asname or alias.name, alias.name) == alias.name, alias.name
    return aliases, [
        f"{aliases[node.value.id]}.{node.attr}"
        for node in ast.walk(tree)
        if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name) and node.value.id in aliases
    ]


def test_workload_names_resolve():
    aliases, names = _names_workloads_read()
    assert set(aliases) == {"W", "C", "CY", "H", "T", "catalog", "cli"}
    assert {"cyclic.toric_reduction_witness", "classifier.classify", "cli.main"} <= set(names)
    for name in names:
        module, attr = name.split(".")
        assert hasattr(importlib.import_module(f"coxheaps.{module}"), attr), name


def test_benchmark_names_resolve():
    names = _traced_names() + _names_run_imports()
    assert "words.braid_moves" in names
    for name in names:
        module, function = name.split(".")
        assert callable(getattr(importlib.import_module(f"coxheaps.{module}"), function, None)), name
