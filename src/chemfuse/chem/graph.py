"""Core molecular data types: tokens, atoms, bonds, and the molecular graph.

A molecule is carried around in two synchronized views: a ``TokenSequence``
(the lexical view of the SMILES string) and a ``MolecularGraph`` (atoms and
bonds). Provenance links run both ways: atom-bearing tokens know their atom
index, atoms know their source token.
"""

from __future__ import annotations

import functools
from collections.abc import Collection
from dataclasses import dataclass, field
from enum import Enum


class TokenKind(Enum):
    ATOM = "Atom"
    RING_DIGIT = "RingDigit"
    BOND_SYMBOL = "BondSymbol"
    BRANCH = "Branch"
    BRACKET_ATOM = "BracketAtom"
    DOT = "Dot"
    STEREO_MARK = "StereoMark"
    OTHER = "Other"

    __hash__ = object.__hash__  # by identity, in C; Enum's hash runs in Python


#: Token kinds that correspond to exactly one atom in the parsed graph.
ATOM_BEARING = (TokenKind.ATOM, TokenKind.BRACKET_ATOM)


@dataclass(frozen=True, slots=True)
class Token:
    """One lexical token of a SMILES string.

    ``char_span`` is a half-open byte range into the source string;
    ``atom_index`` is set exactly for atom-bearing tokens (kind Atom or
    BracketAtom) and equals the index of the atom in the parsed graph.
    """

    text: str
    kind: TokenKind
    char_span: tuple[int, int]
    atom_index: int | None = None

    @property
    def is_atom(self) -> bool:
        return self.kind in ATOM_BEARING


@dataclass(frozen=True)
class TokenSequence:
    """Ordered tokens of one SMILES string; ``n`` is the token count."""

    tokens: tuple[Token, ...]

    @property
    def n(self) -> int:
        return len(self.tokens)

    @property
    def texts(self) -> list[str]:
        return [t.text for t in self.tokens]


class Chirality(Enum):
    NONE = "None"
    CW = "CW"    # '@@'
    CCW = "CCW"  # '@'


class BondOrder(Enum):
    SINGLE = 1
    DOUBLE = 2
    TRIPLE = 3
    AROMATIC = 4

    __hash__ = object.__hash__  # by identity, in C; Enum's hash runs in Python


#: Each order's contribution to the bonded valence sum (aromatic counts 1.5).
BOND_VALENCE = {BondOrder.SINGLE: 1.0, BondOrder.DOUBLE: 2.0,
                BondOrder.TRIPLE: 3.0, BondOrder.AROMATIC: 1.5}


@dataclass(slots=True)
class Atom:
    """One heavy atom with its chemistry attributes.

    ``implicit_h`` is filled from the valence table for organic-subset atoms;
    bracket atoms carry ``explicit_h`` instead (implicit stays 0). ``degree``
    counts the bonds ``add_bond`` has made; ``in_ring`` is set only by
    ``MolecularGraph.mark_rings``, which ``parse_smiles`` runs once all bonds
    are in.
    """

    element: str
    aromatic: bool = False
    formal_charge: int = 0
    explicit_h: int | None = None
    implicit_h: int = 0
    degree: int = 0
    chirality: Chirality = Chirality.NONE
    in_ring: bool = False
    source_token: int = -1

    @property
    def total_h(self) -> int:
        """Hydrogen count: explicit wins when present."""
        return self.explicit_h if self.explicit_h is not None else self.implicit_h


@dataclass(slots=True)
class Bond:
    """Covalent bond between atoms ``a`` and ``b`` (a != b)."""

    a: int
    b: int
    order: BondOrder = BondOrder.SINGLE
    in_ring: bool = False

    def other(self, atom: int) -> int:
        return self.b if atom == self.a else self.a

    def key(self) -> tuple[int, int]:
        return (self.a, self.b) if self.a < self.b else (self.b, self.a)


@dataclass
class MolecularGraph:
    """Atoms plus bonds plus the per-atom incidence lists.

    The graph may be disconnected (dot-separated SMILES components).
    ``adjacency[i]`` lists bond indices incident to atom ``i``; the
    neighbour table beside it holds the matching ``(neighbor, bond)`` pairs
    in the same order, built once by ``add_bond``.
    """

    atoms: list[Atom] = field(default_factory=list)
    bonds: list[Bond] = field(default_factory=list)
    adjacency: list[list[int]] = field(default_factory=list)
    _pairs: list[list[tuple[int, Bond]]] = field(
        default_factory=list, init=False, repr=False, compare=False)
    #: What ``once_per_graph`` functions made of this graph, by function.
    facts: dict = field(default_factory=dict, init=False, repr=False, compare=False)

    @property
    def m(self) -> int:
        return len(self.atoms)

    def add_atom(self, atom: Atom) -> int:
        self.atoms.append(atom)
        self.adjacency.append([])
        self._pairs.append([])
        return len(self.atoms) - 1

    def add_bond(self, bond: Bond) -> int:
        if bond.a == bond.b:
            raise ValueError(f"self-bond on atom {bond.a}")
        # A bondless atom, as a chain bond's new atom is, has no duplicate.
        if self._pairs[bond.b] and self.bond_between(bond.a, bond.b) is not None:
            raise ValueError(f"duplicate bond {bond.key()}")
        self.bonds.append(bond)
        idx = len(self.bonds) - 1
        for i, j in ((bond.a, bond.b), (bond.b, bond.a)):
            self.adjacency[i].append(idx)
            self._pairs[i].append((j, bond))
            self.atoms[i].degree += 1
        return idx

    def neighbors(self, i: int) -> list[tuple[int, Bond]]:
        """(neighbor atom index, bond) pairs for atom ``i``, in
        ``adjacency[i]`` order. The list is the graph's own: do not mutate."""
        return self._pairs[i]

    def bond_between(self, a: int, b: int) -> Bond | None:
        for j, bond in self._pairs[a]:
            if j == b:
                return bond
        return None

    def valence_sum(self, i: int) -> float:
        return sum(BOND_VALENCE[bond.order] for _, bond in self._pairs[i])

    def mark_rings(self) -> None:
        """Set ``in_ring`` on bonds and atoms.

        A bond is in a ring iff it is not a bridge; bridges are found with one
        iterative DFS per component. An atom is in a ring iff one of its
        bonds is.
        """
        m = self.m
        for bond in self.bonds:
            bond.in_ring = False
        disc = [-1] * m
        low = [0] * m
        timer = 0
        for root in range(m):
            if disc[root] != -1:
                continue
            disc[root] = low[root] = timer
            timer += 1
            # Iterative Tarjan bridge search: stack entries are (atom, the
            # tree bond it was reached by, iterator over its neighbours).
            stack = [(root, None, iter(self._pairs[root]))]
            while stack:
                node, in_bond, pairs = stack[-1]
                for nxt, bond in pairs:
                    if bond is in_bond:
                        continue
                    if disc[nxt] == -1:
                        disc[nxt] = low[nxt] = timer
                        timer += 1
                        stack.append((nxt, bond, iter(self._pairs[nxt])))
                        break
                    # Non-tree edge: always on a cycle.
                    bond.in_ring = True
                    low[node] = min(low[node], disc[nxt])
                else:
                    stack.pop()
                    if stack:
                        parent = stack[-1][0]
                        low[parent] = min(low[parent], low[node])
                        if low[node] <= disc[parent]:
                            in_bond.in_ring = True
        ring_atoms = {i for bond in self.bonds if bond.in_ring for i in (bond.a, bond.b)}
        for i, atom in enumerate(self.atoms):
            atom.in_ring = i in ring_atoms

    def connected_components(self, cut: Collection[int] = ()) -> list[list[int]]:
        """Atom index lists, one per component, in first-atom order, with the
        bonds whose indices are in ``cut`` left out."""
        seen = [False] * self.m
        comps = []
        for start in range(self.m):
            if seen[start]:
                continue
            comp = [start]
            seen[start] = True
            queue = [start]
            while queue:
                node = queue.pop()
                for bi, (nxt, _) in zip(self.adjacency[node], self._pairs[node]):
                    if not seen[nxt] and bi not in cut:
                        seen[nxt] = True
                        comp.append(nxt)
                        queue.append(nxt)
            comps.append(sorted(comp))
        return comps


def once_per_graph(make):
    """Decorate ``make(graph)`` so that each graph computes it on its first
    call and returns the kept value after: a parsed graph does not change
    after ``parse_smiles`` returns it. The value is shared: do not mutate it."""
    @functools.wraps(make)
    def get(graph: MolecularGraph):
        try:
            return graph.facts[get]
        except KeyError:
            value = graph.facts[get] = make(graph)
            return value
    return get
