"""SMILES parser: token stream to molecular graph with provenance.

Supported grammar: organic-subset atoms, bracket atoms with a charge of at
most two digits or ``++`` / ``--``, one H digit and chirality (OpenSMILES),
ring closures (including ``%nn``), branches, bond symbols ``- = # : / \\``,
dots, and bare ``@`` / ``@@`` marks. Isotopes, wildcard atoms and quadruple
bonds are rejected with a clear error.

Aromaticity is taken as written (lowercase atoms, ``:`` bonds); there is no
kekulization or perception pass. Implicit hydrogens come from a fixed
valence table; for aromatic atoms the bonded-valence sum is rounded up and
the count clamped at zero.
"""

from __future__ import annotations

import functools
import math
import re

from .errors import (
    DanglingBond,
    SmilesError,
    UnclosedRing,
    UnknownElement,
    UnsupportedFeature,
    ValenceOverflow,
)
from .graph import (
    Atom,
    Bond,
    BondOrder,
    BondStereo,
    Chirality,
    MolecularGraph,
    Token,
    TokenKind,
    TokenSequence,
)
from .tokenizer import tokenize, unsupported

#: Fixed implicit-hydrogen valence table for the organic subset.
VALENCE_TABLE = {
    "B": 3, "C": 4, "N": 3, "O": 2, "P": 3, "S": 2,
    "F": 1, "Cl": 1, "Br": 1, "I": 1,
}

_AROMATIC_SUBSET = {"b", "c", "n", "o", "p", "s", "se", "as"}

#: All element symbols accepted inside brackets.
PERIODIC_SYMBOLS = frozenset(
    "H He Li Be B C N O F Ne Na Mg Al Si P S Cl Ar K Ca Sc Ti V Cr Mn Fe Co Ni "
    "Cu Zn Ga Ge As Se Br Kr Rb Sr Y Zr Nb Mo Tc Ru Rh Pd Ag Cd In Sn Sb Te I "
    "Xe Cs Ba La Ce Pr Nd Pm Sm Eu Gd Tb Dy Ho Er Tm Yb Lu Hf Ta W Re Os Ir Pt "
    "Au Hg Tl Pb Bi Po At Rn Fr Ra Ac Th Pa U Np Pu".split()
)

_BOND_FOR_SYMBOL = {
    "-": (BondOrder.SINGLE, BondStereo.NONE),
    "=": (BondOrder.DOUBLE, BondStereo.NONE),
    "#": (BondOrder.TRIPLE, BondStereo.NONE),
    ":": (BondOrder.AROMATIC, BondStereo.NONE),
    "/": (BondOrder.SINGLE, BondStereo.UP),
    "\\": (BondOrder.SINGLE, BondStereo.DOWN),
}

_BRACKET_RE = re.compile(
    r"\[(?P<isotope>\d+)?(?P<symbol>[A-Za-z][a-z]?|\*)(?P<chiral>@{1,2})?"
    r"(?P<hcount>H\d?)?(?P<charge>[+-]\d{1,2}|\+\+?|--?)?(?P<map>:\d+)?\]"
)


def _parse_bracket(token: Token) -> Atom:
    match = _BRACKET_RE.fullmatch(token.text)
    if match is None:
        raise SmilesError(f"malformed bracket atom {token.text!r}")
    if match.group("isotope"):
        raise UnsupportedFeature(f"isotopes are not supported: {token.text!r}")
    if match.group("map"):
        raise UnsupportedFeature(f"atom maps are not supported: {token.text!r}")
    symbol = match.group("symbol")
    if symbol == "*":
        raise UnsupportedFeature("wildcard atoms are not supported")
    aromatic = symbol[0].islower()
    if aromatic:
        if symbol not in _AROMATIC_SUBSET:
            raise UnknownElement(f"unknown aromatic symbol {symbol!r}")
        element = symbol.capitalize()
    else:
        element = symbol
    if element not in PERIODIC_SYMBOLS:
        raise UnknownElement(f"unknown element {symbol!r}")

    chiral = match.group("chiral")
    chirality = Chirality.NONE
    if chiral == "@":
        chirality = Chirality.CCW
    elif chiral == "@@":
        chirality = Chirality.CW

    hcount = match.group("hcount")
    explicit_h = 0
    if hcount is not None:
        explicit_h = int(hcount[1:]) if len(hcount) > 1 else 1

    charge_text = match.group("charge")
    charge = 0
    if charge_text:
        if charge_text[-1].isdigit():
            charge = int(charge_text)
        else:
            charge = len(charge_text) * (1 if charge_text[0] == "+" else -1)

    return Atom(element=element, aromatic=aromatic, formal_charge=charge,
                explicit_h=explicit_h, chirality=chirality)


@functools.cache  # only the tokenizer's fixed organic texts reach it
def _organic_symbol(text: str) -> tuple[str, bool]:
    """(element, aromatic) of an organic-subset atom token's text."""
    aromatic = text.islower()
    element = text.capitalize() if aromatic else text
    if element not in VALENCE_TABLE:
        raise UnknownElement(f"{text!r} is not an organic-subset atom")
    if aromatic and element not in {"B", "C", "N", "O", "P", "S"}:
        raise UnknownElement(f"{text!r} cannot be aromatic outside brackets")
    return element, aromatic


def _fill_implicit_h(graph: MolecularGraph) -> None:
    for i, atom in enumerate(graph.atoms):
        if atom.explicit_h is not None:
            continue  # bracket atoms trust their explicit count
        valence = VALENCE_TABLE[atom.element]
        bonded = graph.valence_sum(i)
        if atom.aromatic:
            atom.implicit_h = max(0, valence - math.ceil(bonded - 1e-9))
            continue
        bonded = int(bonded)
        if bonded > valence:
            raise ValenceOverflow(
                f"atom {i} ({atom.element}) has bonded valence {bonded} > {valence}"
            )
        atom.implicit_h = valence - bonded


class _Parser:
    def __init__(self, tokens: TokenSequence):
        self.tokens = tokens
        self.graph = MolecularGraph()
        self.prev: int | None = None
        self.pending: tuple[BondOrder, BondStereo] | None = None
        #: Per open branch: the atom it hangs from and the atom count at '('.
        self.branch_stack: list[tuple[int, int]] = []
        self.open_rings: dict[str, tuple[int, tuple[BondOrder, BondStereo] | None]] = {}

    def run(self) -> MolecularGraph:
        handlers = {
            TokenKind.ATOM: self._on_atom,
            TokenKind.BRACKET_ATOM: self._on_atom,
            TokenKind.BOND_SYMBOL: self._on_bond,
            TokenKind.RING_DIGIT: self._on_ring,
            TokenKind.BRANCH: self._on_branch,
            TokenKind.DOT: self._on_dot,
            TokenKind.STEREO_MARK: self._on_stereo,
            TokenKind.OTHER: self._on_other,
        }
        for idx, token in enumerate(self.tokens.tokens):
            handlers[token.kind](idx, token)
        if self.pending is not None:
            raise DanglingBond("bond symbol at end of input")
        if self.branch_stack:
            raise SmilesError("branch '(' never closed")
        if self.open_rings:
            digits = ", ".join(sorted(self.open_rings))
            raise UnclosedRing(f"ring closure digit(s) never closed: {digits}")
        _fill_implicit_h(self.graph)
        self.graph.mark_rings()
        return self.graph

    def _bond(self, a: int, b: int,
              spec: tuple[BondOrder, BondStereo] | None) -> None:
        """Bond atoms ``a`` and ``b`` as ``spec`` says; an unset order is
        aromatic between two aromatic atoms and single otherwise."""
        order, stereo = spec if spec else (None, BondStereo.NONE)
        aromatic = self.graph.atoms[a].aromatic and self.graph.atoms[b].aromatic
        if order is None:
            order = BondOrder.AROMATIC if aromatic else BondOrder.SINGLE
        if order is BondOrder.AROMATIC and not aromatic:
            raise SmilesError("aromatic bond between non-aromatic atoms")
        try:
            self.graph.add_bond(Bond(a=a, b=b, order=order, stereo=stereo))
        except ValueError as exc:
            raise DanglingBond(str(exc)) from exc
        self.pending = None

    def _on_atom(self, idx: int, token: Token) -> None:
        if token.kind is TokenKind.BRACKET_ATOM:
            atom = _parse_bracket(token)
            atom.source_token = idx
        else:
            atom = Atom(*_organic_symbol(token.text), source_token=idx)
        new_atom = self.graph.add_atom(atom)
        if token.atom_index != new_atom:
            raise SmilesError("token/atom provenance got out of sync")
        if self.prev is not None:  # no bond is pending without a previous atom
            self._bond(self.prev, new_atom, self.pending)
        self.prev = new_atom

    def _on_bond(self, idx: int, token: Token) -> None:
        if token.text == "$":
            raise UnsupportedFeature("quadruple bonds are not supported")
        if self.pending is not None:
            raise DanglingBond(f"two bond symbols in a row at token {idx}")
        if self.prev is None:
            raise DanglingBond("bond symbol with no preceding atom")
        self.pending = _BOND_FOR_SYMBOL[token.text]

    def _on_ring(self, idx: int, token: Token) -> None:
        if self.prev is None:
            raise DanglingBond("ring closure with no preceding atom")
        digit = token.text
        if digit not in self.open_rings:
            self.open_rings[digit] = (self.prev, self.pending)
            self.pending = None
            return
        other, other_pending = self.open_rings.pop(digit)
        if other == self.prev:
            raise DanglingBond(f"ring digit {digit} closes onto its own atom")
        specs = [s for s in (self.pending, other_pending) if s is not None]
        if len(specs) == 2 and specs[0][0] is not specs[1][0]:
            raise DanglingBond(f"conflicting bond orders on ring digit {digit}")
        self._bond(other, self.prev, specs[0] if specs else None)

    def _on_branch(self, idx: int, token: Token) -> None:
        if self.pending is not None:
            raise DanglingBond(f"bond symbol before {token.text!r}")
        if token.text == "(":
            if self.prev is None:
                raise DanglingBond("branch '(' with no preceding atom")
            self.branch_stack.append((self.prev, self.graph.m))
        else:
            if not self.branch_stack:
                raise SmilesError("branch ')' without matching '('")
            self.prev, atoms_before = self.branch_stack.pop()
            if self.graph.m == atoms_before:  # OpenSMILES: a branch holds a chain
                raise SmilesError("empty branch '()'")

    def _on_dot(self, idx: int, token: Token) -> None:
        if self.pending is not None:
            raise DanglingBond("bond symbol before '.'")
        if self.graph.m == 0:
            raise DanglingBond("'.' with no preceding atom")
        self.prev = None

    def _on_stereo(self, idx: int, token: Token) -> None:
        if self.prev is None:
            raise DanglingBond("stereo mark with no preceding atom")
        mark = Chirality.CCW if token.text == "@" else Chirality.CW
        self.graph.atoms[self.prev].chirality = mark

    def _on_other(self, idx: int, token: Token) -> None:
        raise unsupported(token)


def parse_smiles(smiles: str) -> tuple[MolecularGraph, TokenSequence]:
    """Parse a SMILES string into a graph plus its token sequence.

    Atoms appear in token order and every atom-bearing token's
    ``atom_index`` matches its atom's index in the graph.
    """
    tokens = tokenize(smiles)
    graph = _Parser(tokens).run()
    if graph.m == 0:
        raise SmilesError(f"no atoms in {smiles!r}")
    return graph, tokens
