"""Cyclic reducibility in Coxeter groups.

Words, braid orbits and elements, heaps of words, acyclic orientations and toric
posets, cyclic words and toric heaps, and the FC / CFC / TFC / faux-CFC
classification, with a CLI (``python -m coxheaps`` or the ``coxheaps``
entry point).
"""

from .coxgraph import INF, CoxeterGraph, Word, load_coxeter_graph, parse_word, format_word, support
from .words import (
    NormalForm,
    commutativity_class,
    commutativity_classes,
    conjugate,
    elements_up_to,
    inverse,
    is_fc,
    is_reduced,
    multiply,
    normal_form,
    reduced_words,
)
from .heaps import (
    Heap,
    closure_edges,
    hasse_edges,
    heap_of_word,
    heaps_isomorphic,
    is_chain,
    linear_extensions,
    word_graph,
    word_orientation,
)
from .toric import (
    AcyclicOrientation,
    Graph,
    ToricPoset,
    all_acyclic_orientations,
    flip_sink,
    flip_source,
    is_toric_chain,
    is_toric_directed_path,
    is_toric_extension,
    toric_class,
    toric_classes,
    toric_hasse,
    toric_transitive_closure,
    total_toric_extensions,
    tutte,
)
from .cyclic import (
    CyclicWord,
    ToricHeap,
    ctor_class,
    cyclic_decomposition,
    cyclic_word,
    is_cyclically_reduced_element,
    is_cyclically_reduced_word,
    is_torically_reduced,
    ltor,
    rotations,
    rtor_cyclic_class,
    rtor_words,
    toric_heap_of_word,
    toric_heaps_isomorphic,
    toric_reduction_witness,
    torically_equivalent_elements,
)
from .classifier import (
    ClassificationReport,
    classify,
    conjecture_probe,
    coxeter_conjugacy_classes,
    coxeter_elements,
    coxeter_to_orientation,
    is_cfc,
    is_faux_cfc,
    is_tfc,
    logarithmic_probe,
    odd_braid_obstruction,
    orientation_to_coxeter,
    tfc_constructor,
)
from . import catalog

__version__ = "0.1.0"
