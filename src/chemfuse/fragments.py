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

from .chem.errors import SmilesError
from .chem.graph import BondOrder, MolecularGraph, TokenKind, TokenSequence
from .features import AtomRule, is_carbonyl_carbon, is_sulfonyl_sulfur


class OrphanSymbol(SmilesError):
    """A non-atom token has no qualifying neighbor atom to inherit from, as
    a leading ``=``; no token sequence that parses has one."""


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


#: The link-environment table. Order is documentation only.
ENVIRONMENTS: tuple[AtomRule, ...] = (
    AtomRule("L1", "C", is_carbonyl_carbon),  # acyl carbon
    AtomRule("L3", "O", _is_ether_oxygen),  # ether/ester oxygen
    AtomRule("L4", "C", _is_alkyl_carbon),  # alkyl carbon
    AtomRule("L5", "N", _is_amine_nitrogen),  # amine nitrogen
    AtomRule("L9", "N", _is_aromatic_nitrogen),  # aromatic nitrogen
    AtomRule("L10", "N", _is_ring_amine_nitrogen),  # ring amine nitrogen
    AtomRule("L11", "S", _is_thioether_sulfur),  # thioether sulfur
    AtomRule("L12", "S", is_sulfonyl_sulfur),  # sulfonyl sulfur
    AtomRule("L13", "C", _is_hetero_ring_carbon),  # ring carbon next to ring heteroatom
    AtomRule("L14", "C", _is_heteroaromatic_carbon),  # heteroaromatic carbon
    AtomRule("L15", "C", _is_carbocycle_carbon),  # carbocycle carbon
    AtomRule("L16", "C", _is_aromatic_carbon),  # aromatic carbon
)

_RULES_BY_ELEMENT: dict[str | None, tuple[AtomRule, ...]] = {
    element: tuple(rule for rule in ENVIRONMENTS if rule.element == element)
    for element in {rule.element for rule in ENVIRONMENTS}
}

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
    """Ids of all environments atom ``i`` matches; only the rules for its
    element are tried."""
    return {rule.name for rule in _RULES_BY_ELEMENT.get(graph.atoms[i].element, ())
            if rule.matches(graph, i)}


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
    components = graph.connected_components(cut=set(cleaved))
    l_g = [0] * graph.m
    for k, atoms in enumerate(components):
        for i in atoms:
            l_g[i] = k
    return len(components), l_g, cleaved


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
    # Left to right, every token takes the label of the last atom seen: an
    # atom its own, the rest their nearest atom to the left.
    l_s: list[int | None] = []
    label = None
    for token in tokens.tokens:
        if token.is_atom:
            label = l_g[token.atom_index]
        l_s.append(label)
    # Right to left, each '(' takes the label of the next atom instead.
    label = None
    for idx in range(tokens.n - 1, -1, -1):
        token = tokens.tokens[idx]
        if token.is_atom:
            label = l_s[idx]
        elif token.kind is TokenKind.BRANCH and token.text == "(":
            l_s[idx] = label
    if None in l_s:
        idx = l_s.index(None)
        token = tokens.tokens[idx]
        side = "right" if token.kind is TokenKind.BRANCH and token.text == "(" else "left"
        raise OrphanSymbol(f"token {idx} ({token.text!r}) has no atom to its {side}")
    return l_s  # type: ignore[return-value]


def build_fragment_map(tokens: TokenSequence, graph: MolecularGraph) -> FragmentMap:
    """Cleave the graph and label both views; the one-stop entry point."""
    k, l_g, _ = brics_cleave(graph)
    l_s = label_smiles_tokens(tokens, graph, l_g)
    return FragmentMap(K=k, l_g=tuple(l_g), l_s=tuple(l_s))

