"""Which Coxeter graphs each workload uses, and how they are built.

Kept apart from the workloads so the set-up probe can import it without
importing anything else.
"""

GRAPH_FILES = {
    "A3": "graphs/a3.json",
    "B3": "graphs/b3.json",
    "H3": "graphs/h3.json",
    "A~2": "graphs/affine_a2.json",
    "A~3": "graphs/affine_a3.json",
    "C~3": "graphs/affine_c3.json",
    "C~4": "graphs/affine_c4.json",
    "E~6": "graphs/affine_e6.json",
}

# Groups each workload draws from.  A4 has no graph file and comes from
# the catalog.
GROUPS = {
    "word_problem": ("A4", "B3", "H3", "A~3", "C~3", "C~4", "E~6"),
    "classify_sweep": ("B3", "H3", "A4", "A~2", "A~3", "C~3", "C~4"),
    "heaps_toric": ("B3", "H3", "A4", "A~2", "A~3", "C~3", "C~4", "E~6"),
    "cli_oneshot": ("A3", "B3", "H3", "A~2", "A~3", "C~3", "C~4", "E~6"),
}


def load_graphs(names):
    """Build the workload's Coxeter graphs the way a user would."""
    from coxheaps import catalog
    from coxheaps.coxgraph import load_coxeter_graph

    return {
        name: load_coxeter_graph(GRAPH_FILES[name]) if name in GRAPH_FILES else catalog.coxeter_graph(name)
        for name in names
    }
