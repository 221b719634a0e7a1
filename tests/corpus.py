"""Exhaustive small-scale property sweeps shared by the acceptance suite.

A SystemCorpus holds every reduced word up to a length bound in one Coxeter
system (enumerated through the exact matrix oracle, so the word list itself
does not depend on the code under test) and evaluates each structural law
with the library, returning violation strings instead of asserting, so the
acceptance test can report them per criterion.
"""

from __future__ import annotations

from coxheaps import cyclic as CY
from coxheaps import heaps as H
from coxheaps import toric as T
from coxheaps import words as W
from coxheaps.classifier import (
    coxeter_graph_skeleton,
    is_cfc,
    odd_braid_obstruction,
)
from coxheaps.coxgraph import CoxeterGraph, Word, support
from coxheaps.errors import NotToricallyReduced
from oracles import GroupOracle


class SystemCorpus:
    def __init__(self, name: str, graph: CoxeterGraph, max_len: int, oracle_radius: int):
        self.name = name
        self.graph = graph
        self.max_len = max_len
        self.oracle = GroupOracle(graph, oracle_radius)
        self.words: list[Word] = self.oracle.all_reduced_words(max_len)
        self.by_element: dict = {}
        for w in self.words:
            self.by_element.setdefault(self.oracle.element(w), []).append(w)
        # library verdict caches, filled lazily
        self._comm_class: dict[Word, frozenset[Word]] = {}
        self._ctor: dict[CY.CyclicWord, frozenset[CY.CyclicWord]] = {}
        self._ltor: dict[Word, frozenset[CY.CyclicWord]] = {}
        self._torically: dict[Word, bool] = {}
        self._fc: dict = {}
        self._cfc: dict = {}

    # -- cached library computations ----------------------------------

    def comm_class(self, w: Word) -> frozenset[Word]:
        if w not in self._comm_class:
            cls = W.commutativity_class(self.graph, w)
            for u in cls:
                self._comm_class[u] = cls
        return self._comm_class[w]

    def torically_reduced(self, w: Word) -> bool:
        if w not in self._torically:
            try:
                for u in CY.rtor_words(self.graph, w):
                    self._torically[u] = True
            except NotToricallyReduced:
                self._torically[w] = False
        return self._torically[w]

    def ctor(self, w: Word) -> frozenset[CY.CyclicWord]:
        key = CY.cyclic_word(w)
        if key not in self._ctor:
            cls = CY.ctor_class(self.graph, w)
            for cw in cls:
                self._ctor[cw] = cls
        return self._ctor[key]

    def ltor(self, w: Word) -> frozenset[CY.CyclicWord]:
        if w not in self._ltor:
            self._ltor[w] = CY.ltor(CY.toric_heap_of_word(self.graph, w))
        return self._ltor[w]

    def fc(self, w: Word) -> bool:
        key = self.oracle.element(w)
        if key not in self._fc:
            self._fc[key] = len(self.comm_class(w)) == len(self.by_element[key])
        return self._fc[key]

    def cfc(self, w: Word) -> bool:
        key = self.oracle.element(w)
        if key not in self._cfc:
            self._cfc[key] = is_cfc(self.graph, w)
        return self._cfc[key]

    def is_coxeter_word(self, w: Word) -> bool:
        return len(w) == self.graph.rank and len(support(w)) == self.graph.rank

    def fmt(self, w: Word) -> str:
        return f"{self.name}: {self.graph.format(w)}"

    # -- property sweeps ------------------------------------------------

    def check_matsumoto(self) -> list[str]:
        """The library and the matrix oracle agree on R(w) and normal forms."""
        bad = []
        for key, group in self.by_element.items():
            rep = group[0]
            forms = {W.normal_form(self.graph, u) for u in group}
            if len(forms) != 1:
                bad.append(f"{self.fmt(rep)}: inconsistent normal forms")
            if W.reduced_words(self.graph, rep) != frozenset(group):
                bad.append(f"{self.fmt(rep)}: R(w) differs from oracle enumeration")
        return bad

    def check_stembridge(self) -> list[str]:
        """L(H(w)) equals the commutativity class; FC iff R(w) = L(H(w))."""
        bad = []
        for key, group in self.by_element.items():
            for w in group:
                linexts = H.linear_extensions(H.heap_of_word(self.graph, w))
                if linexts != self.comm_class(w):
                    bad.append(f"{self.fmt(w)}: L(H(w)) != C(w)")
                if (linexts == frozenset(group)) != self.fc(w):
                    bad.append(f"{self.fmt(w)}: FC mismatch with order-theoretic test")
        return bad

    def check_element_level_toric_reducedness(self) -> list[str]:
        """All reduced words of one element agree on toric reducedness."""
        bad = []
        for key, group in self.by_element.items():
            verdicts = {self.torically_reduced(w) for w in group}
            if len(verdicts) != 1:
                bad.append(f"{self.fmt(group[0])}: words disagree on toric reducedness")
        return bad

    def check_hierarchy(self) -> list[str]:
        """Torically reduced implies cyclically reduced (word and element)."""
        bad = []
        for w in self.words:
            if self.torically_reduced(w):
                if not all(
                    self.oracle.is_reduced(w[k:] + w[:k]) for k in range(len(w))
                ):
                    bad.append(f"{self.fmt(w)}: torically reduced but a rotation is not reduced")
        return bad

    def check_thm_6_12(self) -> list[str]:
        """L_tor(T(w)) = C_tor([w]) for every torically reduced word, the two
        sides computed by independent code paths."""
        bad = []
        for w in self.words:
            if not self.torically_reduced(w):
                continue
            lt = self.ltor(w)
            ct = self.ctor(w)
            if lt != ct:
                bad.append(f"{self.fmt(w)}: L_tor != C_tor")
        return bad

    def rtor_classes(self) -> dict[CY.CyclicWord, frozenset[CY.CyclicWord]]:
        """R_tor classes of the torically reduced corpus words, keyed by
        least cyclic word."""
        out: dict[CY.CyclicWord, frozenset[CY.CyclicWord]] = {}
        seen = set()
        for w in self.words:
            if not self.torically_reduced(w):
                continue
            cw = CY.cyclic_word(w)
            if cw in seen:
                continue
            cls = CY.rtor_cyclic_class(self.graph, w)
            seen |= cls
            out[min(cls)] = cls
        return out

    def check_thm_7_2(self) -> list[str]:
        """TFC iff R_tor([w]) = L_tor(T(u)) for some iff for every u."""
        bad = []
        for least, cls in self.rtor_classes().items():
            rep = least.canonical
            tfc = len(CY.cyclic_decomposition(self.graph, rep)) == 1
            words = [rot for cw in cls for rot in CY.rotations(cw)]
            equal = [self.ltor(u) == cls for u in words]
            if any(equal) != all(equal):
                bad.append(f"{self.fmt(rep)}: 'some' and 'every' quantifiers disagree")
            if tfc != all(equal):
                bad.append(f"{self.fmt(rep)}: TFC != torically order-theoretic")
        return bad

    def check_inclusions(self) -> list[str]:
        """Coxeter => FC, CFC => FC, CFC => TFC, faux CFC = TFC minus CFC."""
        bad = []
        for key, group in self.by_element.items():
            rep = min(group)
            fc = self.fc(rep)
            cfc = self.cfc(rep)
            tor = self.torically_reduced(rep)
            tfc = tor and len(CY.cyclic_decomposition(self.graph, rep)) == 1
            if self.is_coxeter_word(rep) and not fc:
                bad.append(f"{self.fmt(rep)}: Coxeter element not FC")
            if cfc and not fc:
                bad.append(f"{self.fmt(rep)}: CFC but not FC")
            if cfc and not tfc:
                bad.append(f"{self.fmt(rep)}: CFC but not TFC")
        return bad

    def faux_cfc_elements(self) -> list[Word]:
        out = []
        for key, group in self.by_element.items():
            rep = min(group)
            if not self.torically_reduced(rep):
                continue
            if len(CY.cyclic_decomposition(self.graph, rep)) == 1 and not self.cfc(rep):
                out.append(rep)
        return out

    def check_prop_7_4(self) -> list[str]:
        """No torically reduced word of a faux-CFC element contains an odd
        long braid factor."""
        bad = []
        for rep in self.faux_cfc_elements():
            if odd_braid_obstruction(self.graph, rep):
                bad.append(f"{self.fmt(rep)}: faux CFC with an odd braid factor")
        return bad

    def check_count_laws(self) -> list[str]:
        skel = coxeter_graph_skeleton(self.graph)
        bad = []
        if len(T.all_acyclic_orientations(skel)) != T.tutte(skel, 2, 0):
            bad.append(f"{self.name}: |Acyc| != T(2,0)")
        if len(T.toric_classes(skel)) != T.tutte(skel, 1, 0):
            bad.append(f"{self.name}: |Acyc/~| != T(1,0)")
        return bad

    def run_all(self) -> dict[str, list[str]]:
        return {
            "matsumoto": self.check_matsumoto(),
            "stembridge": self.check_stembridge(),
            "element_toric_reducedness": self.check_element_level_toric_reducedness(),
            "hierarchy": self.check_hierarchy(),
            "thm_6_12": self.check_thm_6_12(),
            "thm_7_2": self.check_thm_7_2(),
            "inclusions": self.check_inclusions(),
            "prop_7_4": self.check_prop_7_4(),
            "count_laws": self.check_count_laws(),
        }
