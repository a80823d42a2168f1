"""Fragment decomposition on the graph plus label propagation to tokens.

Cleavage follows a BRICS-style link-environment table: a bond may be cut
only if it is a single acyclic bond whose two end atoms match a compatible
pair of environments. The table below is the reference data for this
package; matching an external implementation bond-for-bond is a non-goal.
Environment ids keep the conventional L-numbering of retrosynthetic link
atoms (merged entries are omitted).

After cleavage, every atom carries the id of its connected component.
Token labels are then derived with four rules:

1. Atom-bearing tokens inherit their atom's fragment id.
2. Bond symbols, dots, ring-closure digits and stereo marks take the label
   of the nearest atom-bearing token to their left.
3. ``(`` takes the label of the next atom-bearing token inside the branch;
   ``)`` takes the label of the last atom-bearing token it encloses.
4. Bracket atoms are single tokens, so their content is labeled atomically.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from typing import Callable

from .chem.errors import SmilesError
from .chem.graph import BondOrder, MolecularGraph, TokenKind, TokenSequence
from .features import is_carbonyl_carbon, is_sulfonyl_sulfur


class OrphanSymbol(SmilesError):
    """A non-atom token has no qualifying neighbor atom to inherit from,
    as the ``(`` of an empty branch at the end of ``B()``."""


class FragmentOutOfRange(IndexError):
    """Fragment id outside [0, K)."""


def _all_single(graph: MolecularGraph, i: int) -> bool:
    return all(graph.bonds[bi].order is BondOrder.SINGLE for bi in graph.adjacency[i])


def _ring_neighbors(graph: MolecularGraph, i: int) -> list[int]:
    return [j for j, bond in graph.neighbors(i) if bond.in_ring]


def _is_ether_oxygen(g: MolecularGraph, i: int) -> bool:
    a = g.atoms[i]
    return (a.element == "O" and not a.aromatic and not a.in_ring
            and a.degree == 2 and a.formal_charge == 0 and _all_single(g, i))


def _is_alkyl_carbon(g: MolecularGraph, i: int) -> bool:
    a = g.atoms[i]
    return (a.element == "C" and not a.aromatic and not a.in_ring
            and a.degree >= 2 and a.formal_charge == 0 and _all_single(g, i))


def _is_amine_nitrogen(g: MolecularGraph, i: int) -> bool:
    a = g.atoms[i]
    return (a.element == "N" and not a.aromatic and not a.in_ring
            and a.degree >= 2 and a.formal_charge == 0 and _all_single(g, i)
            and all(g.atoms[j].element in ("C", "S") for j, _ in g.neighbors(i)))


def _is_aromatic_nitrogen(g: MolecularGraph, i: int) -> bool:
    a = g.atoms[i]
    return a.element == "N" and a.aromatic and a.formal_charge == 0


def _is_ring_amine_nitrogen(g: MolecularGraph, i: int) -> bool:
    a = g.atoms[i]
    return (a.element == "N" and not a.aromatic and a.in_ring
            and a.formal_charge == 0 and _all_single(g, i))


def _is_thioether_sulfur(g: MolecularGraph, i: int) -> bool:
    a = g.atoms[i]
    return (a.element == "S" and not a.aromatic and not a.in_ring
            and a.degree == 2 and a.formal_charge == 0 and _all_single(g, i))


def _is_hetero_ring_carbon(g: MolecularGraph, i: int) -> bool:
    a = g.atoms[i]
    return (a.element == "C" and not a.aromatic and a.in_ring
            and any(g.atoms[j].element in ("N", "O", "S") for j in _ring_neighbors(g, i)))


def _is_heteroaromatic_carbon(g: MolecularGraph, i: int) -> bool:
    a = g.atoms[i]
    return (a.element == "C" and a.aromatic
            and any(
                g.atoms[j].element in ("N", "O", "S") and g.atoms[j].aromatic
                for j, bond in g.neighbors(i) if bond.order is BondOrder.AROMATIC
            ))


def _is_carbocycle_carbon(g: MolecularGraph, i: int) -> bool:
    a = g.atoms[i]
    return (a.element == "C" and not a.aromatic and a.in_ring
            and sum(1 for j in _ring_neighbors(g, i) if g.atoms[j].element == "C") >= 2)


def _is_aromatic_carbon(g: MolecularGraph, i: int) -> bool:
    a = g.atoms[i]
    if a.element != "C" or not a.aromatic:
        return False
    count = sum(
        1
        for j, bond in g.neighbors(i)
        if bond.order is BondOrder.AROMATIC
        and g.atoms[j].element == "C" and g.atoms[j].aromatic
    )
    return count >= 2


@dataclass(frozen=True)
class CleavageRule:
    """One link environment: a named structural predicate over (graph, atom)."""

    rule_id: str
    name: str
    matches: Callable[[MolecularGraph, int], bool]


#: The link-environment table. Order is documentation only.
ENVIRONMENTS: tuple[CleavageRule, ...] = (
    CleavageRule("L1", "acyl carbon", is_carbonyl_carbon),
    CleavageRule("L3", "ether/ester oxygen", _is_ether_oxygen),
    CleavageRule("L4", "alkyl carbon", _is_alkyl_carbon),
    CleavageRule("L5", "amine nitrogen", _is_amine_nitrogen),
    CleavageRule("L9", "aromatic nitrogen", _is_aromatic_nitrogen),
    CleavageRule("L10", "ring amine nitrogen", _is_ring_amine_nitrogen),
    CleavageRule("L11", "thioether sulfur", _is_thioether_sulfur),
    CleavageRule("L12", "sulfonyl sulfur", is_sulfonyl_sulfur),
    CleavageRule("L13", "ring carbon next to ring heteroatom", _is_hetero_ring_carbon),
    CleavageRule("L14", "heteroaromatic carbon", _is_heteroaromatic_carbon),
    CleavageRule("L15", "carbocycle carbon", _is_carbocycle_carbon),
    CleavageRule("L16", "aromatic carbon", _is_aromatic_carbon),
)

#: Environment pairs across which a single acyclic bond is cleaved.
COMPATIBLE_PAIRS: frozenset[frozenset[str]] = frozenset(
    frozenset(p) for p in [
        ("L1", "L3"), ("L1", "L5"), ("L1", "L10"),
        ("L3", "L4"), ("L3", "L13"), ("L3", "L14"), ("L3", "L15"), ("L3", "L16"),
        ("L4", "L5"), ("L4", "L9"), ("L4", "L10"), ("L4", "L11"),
        ("L4", "L13"), ("L4", "L14"), ("L4", "L15"), ("L4", "L16"),
        ("L5", "L12"), ("L5", "L13"), ("L5", "L14"), ("L5", "L15"), ("L5", "L16"),
        ("L9", "L13"), ("L9", "L14"), ("L9", "L15"), ("L9", "L16"),
        ("L10", "L13"), ("L10", "L14"), ("L10", "L15"), ("L10", "L16"),
        ("L11", "L13"), ("L11", "L14"), ("L11", "L15"), ("L11", "L16"),
        ("L13", "L14"), ("L13", "L15"), ("L13", "L16"),
        ("L14", "L14"), ("L14", "L15"), ("L14", "L16"),
        ("L15", "L16"),
        ("L16", "L16"),
    ]
)


def atom_environments(graph: MolecularGraph, i: int) -> set[str]:
    """Ids of all environments atom ``i`` matches."""
    return {rule.rule_id for rule in ENVIRONMENTS if rule.matches(graph, i)}


def brics_cleave(graph: MolecularGraph) -> tuple[int, list[int], list[int]]:
    """Cut every cleavable bond and label atoms by connected component.

    Returns ``(K, l_g, cleaved)`` where ``l_g[i]`` is the fragment id of atom
    ``i`` and ``cleaved`` lists the removed bond indices. Fragment ids are
    numbered by the smallest atom index each fragment contains; a molecule
    with no cleavable bond gets K=1 and all-zero labels.

    A bond is cleavable when it is single, acyclic, and its end atoms match
    a compatible pair of environments; each atom's environments are
    computed at most once.
    """
    environments = functools.cache(functools.partial(atom_environments, graph))
    cleaved = []
    for bi, bond in enumerate(graph.bonds):
        if bond.order is not BondOrder.SINGLE or bond.in_ring:
            continue
        envs_a = environments(bond.a)
        if not envs_a:
            continue
        envs_b = environments(bond.b)
        if any(frozenset((ea, eb)) in COMPATIBLE_PAIRS for ea in envs_a for eb in envs_b):
            cleaved.append(bi)
    removed = set(cleaved)
    l_g = [-1] * graph.m
    k = 0
    for start in range(graph.m):
        if l_g[start] != -1:
            continue
        queue = [start]
        l_g[start] = k
        while queue:
            node = queue.pop()
            for bi in graph.adjacency[node]:
                if bi in removed:
                    continue
                nxt = graph.bonds[bi].other(node)
                if l_g[nxt] == -1:
                    l_g[nxt] = k
                    queue.append(nxt)
        k += 1
    return k, l_g, cleaved


@dataclass(frozen=True)
class FragmentMap:
    """Fragment count plus per-atom and per-token fragment labels."""

    K: int
    l_g: tuple[int, ...]
    l_s: tuple[int, ...]


def label_smiles_tokens(tokens: TokenSequence, graph: MolecularGraph,
                        l_g: list[int]) -> list[int]:
    """Propagate per-atom fragment labels to every SMILES token.

    Implements the four labeling rules in the module docstring. Requires
    the provenance links between ``tokens`` and ``graph`` to be intact.

    Raises:
        OrphanSymbol: if a non-atom token has no qualifying neighbor atom
            (e.g. a bond symbol as the first token).
    """
    if len(l_g) != graph.m:
        raise ValueError(f"l_g has {len(l_g)} labels for {graph.m} atoms")
    n = tokens.n
    l_s: list[int | None] = [None] * n
    for idx, token in enumerate(tokens.tokens):
        if token.is_atom:
            l_s[idx] = l_g[token.atom_index]

    def left_atom_label(idx: int) -> int:
        for j in range(idx - 1, -1, -1):
            if tokens.tokens[j].is_atom:
                return l_g[tokens.tokens[j].atom_index]
        raise OrphanSymbol(
            f"token {idx} ({tokens.tokens[idx].text!r}) has no atom to its left"
        )

    def right_atom_label(idx: int) -> int:
        for j in range(idx + 1, n):
            if tokens.tokens[j].is_atom:
                return l_g[tokens.tokens[j].atom_index]
        raise OrphanSymbol(
            f"token {idx} ({tokens.tokens[idx].text!r}) has no atom to its right"
        )

    for idx, token in enumerate(tokens.tokens):
        if l_s[idx] is not None:
            continue
        if token.kind is TokenKind.BRANCH and token.text == "(":
            l_s[idx] = right_atom_label(idx)
        else:
            # Bond symbols, dots, ring digits, stereo marks, ')' and any
            # leftover printable character follow their left nearest atom.
            l_s[idx] = left_atom_label(idx)
    return l_s  # type: ignore[return-value]


def build_fragment_map(tokens: TokenSequence, graph: MolecularGraph) -> FragmentMap:
    """Cleave the graph and label both views; the one-stop entry point."""
    k, l_g, _ = brics_cleave(graph)
    l_s = label_smiles_tokens(tokens, graph, l_g)
    return FragmentMap(K=k, l_g=tuple(l_g), l_s=tuple(l_s))

