"""Cyclic reducibility in Coxeter groups.

Words, braid orbits and elements, heaps of words, acyclic orientations and toric
posets, cyclic words and toric heaps, and the FC / CFC / TFC / faux-CFC
classification, with a CLI (``python -m coxheaps`` or the ``coxheaps``
entry point).

The names below are exported lazily (PEP 562): ``import coxheaps`` loads no
submodule, and the first use of a name imports its home module, listed in
``_EXPORTS``, and keeps the name here.  ``catalog`` is exported the same
way, as the module itself.  So the CLI, whose commands import only what
they run, pays for no module it does not use.
"""

from importlib import import_module

__version__ = "0.1.0"

# home module -> the names it exports through the package
_EXPORTS = {
    "coxgraph": ("INF", "CoxeterGraph", "Word", "load_coxeter_graph", "parse_word", "format_word", "support"),
    "words": ("NormalForm", "commutativity_class", "commutativity_classes", "conjugate", "elements_up_to",
              "inverse", "is_fc", "is_reduced", "multiply", "normal_form", "reduced_words"),
    "heaps": ("Heap", "closure_edges", "hasse_edges", "heap_of_word", "heaps_isomorphic", "is_chain",
              "linear_extensions", "word_graph", "word_orientation"),
    "toric": ("AcyclicOrientation", "Graph", "ToricPoset", "all_acyclic_orientations", "flip_sink",
              "flip_source", "is_toric_chain", "is_toric_directed_path", "is_toric_extension", "toric_class",
              "toric_classes", "toric_hasse", "toric_transitive_closure", "total_toric_extensions", "tutte"),
    "cyclic": ("CyclicWord", "ToricHeap", "ctor_class", "cyclic_decomposition", "cyclic_word",
               "is_cyclically_reduced_element", "is_cyclically_reduced_word", "is_torically_reduced", "ltor",
               "rotations", "rtor_cyclic_class", "rtor_words", "toric_heap_of_word", "toric_heaps_isomorphic",
               "toric_reduction_witness", "torically_equivalent_elements"),
    "classifier": ("ClassificationReport", "classify", "conjecture_probe", "coxeter_conjugacy_classes",
                   "coxeter_elements", "coxeter_to_orientation", "is_cfc", "is_faux_cfc", "is_tfc",
                   "logarithmic_probe", "odd_braid_obstruction", "orientation_to_coxeter", "tfc_constructor"),
    "catalog": ("catalog",),
}
_HOME = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = list(_HOME)


def __getattr__(name: str):
    module = _HOME.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    home = import_module(f"{__name__}.{module}")
    value = home if name == module else getattr(home, name)
    globals()[name] = value
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__})
