"""The package exports its names lazily, and a CLI call loads only the
modules its command runs."""

import importlib
import json
import os
import subprocess
import sys

import pytest

import coxheaps

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
B3 = os.path.join(ROOT, "graphs", "b3.json")

# the names ``coxheaps`` exported when it imported every submodule up front
EAGER_EXPORTS = {
    "coxgraph": "INF CoxeterGraph Word load_coxeter_graph parse_word format_word support",
    "words": "NormalForm commutativity_class commutativity_classes conjugate elements_up_to inverse is_fc"
             " is_reduced multiply normal_form reduced_words",
    "heaps": "Heap closure_edges hasse_edges heap_of_word heaps_isomorphic is_chain linear_extensions"
             " word_graph word_orientation",
    "toric": "AcyclicOrientation Graph ToricPoset all_acyclic_orientations flip_sink flip_source"
             " is_toric_chain is_toric_directed_path is_toric_extension toric_class toric_classes toric_hasse"
             " toric_transitive_closure total_toric_extensions tutte",
    "cyclic": "CyclicWord ToricHeap ctor_class cyclic_decomposition cyclic_word is_cyclically_reduced_element"
              " is_cyclically_reduced_word is_torically_reduced ltor rotations rtor_cyclic_class rtor_words"
              " toric_heap_of_word toric_heaps_isomorphic toric_reduction_witness torically_equivalent_elements",
    "classifier": "ClassificationReport classify conjecture_probe coxeter_conjugacy_classes coxeter_elements"
                  " coxeter_to_orientation is_cfc is_faux_cfc is_tfc logarithmic_probe odd_braid_obstruction"
                  " orientation_to_coxeter tfc_constructor",
}
EXPORTS = {name: module for module, names in EAGER_EXPORTS.items() for name in names.split()}

# prints the modules that one cli.main call adds to a fresh interpreter
PROBE = """
import contextlib, io, json, sys
before = set(sys.modules)
from coxheaps import cli
with contextlib.redirect_stdout(io.StringIO()):
    code = cli.main(sys.argv[1:])
print(json.dumps({"code": code, "added": sorted(set(sys.modules) - before)}))
"""


def _python(code, *argv):
    """What a fresh interpreter on this checkout's ``src/`` prints for the code."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [os.path.join(ROOT, "src"), env.get("PYTHONPATH")]))
    return subprocess.run([sys.executable, "-c", code, *argv], capture_output=True, text=True, env=env,
                          timeout=60, check=True).stdout


def _added_modules(*argv):
    report = json.loads(_python(PROBE, *argv))
    assert report["code"] == 0, argv
    return set(report["added"])


@pytest.mark.parametrize("argv", [
    ("graph", "validate", "-g", B3),
    ("graph", "toric-classes", "-g", B3),
    ("heap", "linexts", "-g", B3, "s3 s1 s2 s1 s2"),
    ("word", "reduce", "-g", B3, "s3 s1 s2 s1 s2 s2"),
    ("word", "classify", "-g", B3, "s3 s1 s2 s1 s2"),
], ids=lambda argv: " ".join(argv[:2]))
def test_a_command_loads_only_what_it_runs(argv):
    added = _added_modules(*argv)
    ours = {name.removeprefix("coxheaps.") for name in added if name.split(".")[0] == "coxheaps"}
    assert "dataclasses" not in added
    if argv[:2] == ("graph", "validate"):
        assert ours == {"coxheaps", "cli", "coxgraph", "errors"}
    if argv[0] in ("graph", "heap"):
        assert not ours & {"words", "cyclic", "classifier"}, ours
    if argv[:2] == ("word", "reduce"):
        assert not ours & {"heaps", "orders", "toric", "cyclic", "classifier"}, ours
    if argv[:2] == ("word", "classify"):
        assert "classifier" in ours


def test_import_loads_no_submodule_and_a_name_only_its_home():
    code = ("import sys, coxheaps\n"
            "ours = lambda: sorted(m for m in sys.modules if m.startswith('coxheaps'))\n"
            "print(ours())\n"
            "coxheaps.CoxeterGraph\n"
            "print(ours())\n")
    assert _python(code).splitlines() == [
        "['coxheaps']", "['coxheaps', 'coxheaps.coxgraph', 'coxheaps.errors']"]


@pytest.mark.parametrize("name", sorted(EXPORTS))
def test_every_former_export_resolves_to_its_home(name):
    home = importlib.import_module(f"coxheaps.{EXPORTS[name]}")
    assert getattr(coxheaps, name) is getattr(home, name)


def test_catalog_dir_all_and_star_import():
    assert coxheaps.catalog is importlib.import_module("coxheaps.catalog")
    assert set(coxheaps.__all__) == set(EXPORTS) | {"catalog"}
    assert set(coxheaps.__all__) <= set(dir(coxheaps))
    namespace = {}
    exec("from coxheaps import *", namespace)
    assert {name for name in namespace if name != "__builtins__"} == set(coxheaps.__all__)
    assert namespace["classify"] is coxheaps.classify


def test_unknown_name_raises_attribute_error():
    with pytest.raises(AttributeError, match="no attribute 'not_a_name'"):
        coxheaps.not_a_name
    assert getattr(coxheaps, "toric_heap", None) is None  # a name of no module's export
