"""Set-up cost of one workload in a fresh process.

Times ``import coxheaps`` plus building the workload's Coxeter graphs and
prints the seconds taken.  Run from the checkout root:

    python3 perfbench/setup_probe.py word_problem
"""

import os
import sys
from time import perf_counter

HERE = os.path.dirname(os.path.abspath(__file__))


def main() -> None:
    root = os.path.dirname(HERE)
    sys.path[:0] = [os.path.join(root, "src"), HERE]
    os.chdir(root)
    from groups import GROUPS, load_graphs

    start = perf_counter()
    import coxheaps  # noqa: F401  (the import is what is timed)

    load_graphs(GROUPS[sys.argv[1]])
    print(perf_counter() - start)


if __name__ == "__main__":
    main()
