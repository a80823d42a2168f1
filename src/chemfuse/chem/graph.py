"""Core molecular data types: tokens, atoms, bonds, and the molecular graph.

A molecule is carried around in two synchronized views: a ``TokenSequence``
(the lexical view of the SMILES string) and a ``MolecularGraph`` (atoms and
bonds). Provenance links run both ways: atom-bearing tokens know their atom
index, atoms know their source token.
"""

from __future__ import annotations

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
    source: str

    @property
    def n(self) -> int:
        return len(self.tokens)


class Chirality(Enum):
    NONE = "None"
    CW = "CW"    # '@@'
    CCW = "CCW"  # '@'


class BondOrder(Enum):
    SINGLE = 1
    DOUBLE = 2
    TRIPLE = 3
    AROMATIC = 4

    @property
    def valence(self) -> float:
        """Contribution to the bonded valence sum (aromatic counts 1.5)."""
        return 1.5 if self is BondOrder.AROMATIC else float(self.value)


class BondStereo(Enum):
    NONE = "None"
    UP = "Up"     # '/'
    DOWN = "Down"  # '\\'


@dataclass(slots=True)
class Atom:
    """One heavy atom with its chemistry attributes.

    ``implicit_h`` is filled from the valence table for organic-subset atoms;
    bracket atoms carry ``explicit_h`` instead (implicit stays 0). ``degree``
    and ``in_ring`` are recomputed whenever bonds change.
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
    stereo: BondStereo = BondStereo.NONE

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
        if self.bond_between(bond.a, bond.b) is not None:
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
        return sum(bond.order.valence for _, bond in self._pairs[i])

    def mark_rings(self) -> None:
        """Set ``in_ring`` on bonds and atoms.

        A bond is in a ring iff it is not a bridge; bridges are found with one
        iterative DFS per component.
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
            # Iterative Tarjan bridge search: stack entries are
            # (atom, incoming bond index, iterator position).
            stack = [(root, -1, 0)]
            disc[root] = low[root] = timer
            timer += 1
            while stack:
                node, in_bond, ptr = stack.pop()
                if ptr < len(self.adjacency[node]):
                    stack.append((node, in_bond, ptr + 1))
                    bi = self.adjacency[node][ptr]
                    if bi == in_bond:
                        continue
                    nxt = self.bonds[bi].other(node)
                    if disc[nxt] == -1:
                        disc[nxt] = low[nxt] = timer
                        timer += 1
                        stack.append((nxt, bi, 0))
                    else:
                        # Non-tree edge: always on a cycle.
                        self.bonds[bi].in_ring = True
                        low[node] = min(low[node], disc[nxt])
                else:
                    if in_bond != -1:
                        parent = self.bonds[in_bond].other(node)
                        low[parent] = min(low[parent], low[node])
                        if low[node] <= disc[parent]:
                            self.bonds[in_bond].in_ring = True
        for i, atom in enumerate(self.atoms):
            atom.in_ring = any(self.bonds[bi].in_ring for bi in self.adjacency[i])

    def connected_components(self) -> list[list[int]]:
        """Atom index lists, one per component, in first-atom order."""
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
                for nxt, _ in self._pairs[node]:
                    if not seen[nxt]:
                        seen[nxt] = True
                        comp.append(nxt)
                        queue.append(nxt)
            comps.append(sorted(comp))
        return comps
