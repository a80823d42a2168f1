"""Serialize a molecular graph back to a SMILES string.

The output is deterministic for a given graph and reparses to an isomorphic
molecule. The graph keeps no bond direction (the parser reads ``/`` and
``\\`` as single bonds), so none is written; chirality and explicit
hydrogen counts are preserved via bracket atoms. Disconnected components
are joined with dots.
"""

from __future__ import annotations

from .graph import Atom, Bond, BondOrder, Chirality, MolecularGraph
from .parser import VALENCE_TABLE

_AROMATIC_BARE = {"B", "C", "N", "O", "P", "S"}


def _atom_text(atom: Atom) -> str:
    bare = atom.element.lower() if atom.aromatic else atom.element
    plain_ok = (
        atom.formal_charge == 0
        and atom.explicit_h is None
        and atom.chirality is Chirality.NONE
        and atom.element in VALENCE_TABLE
        and (not atom.aromatic or atom.element in _AROMATIC_BARE)
    )
    if plain_ok:
        return bare
    parts = [bare]
    if atom.chirality is Chirality.CCW:
        parts.append("@")
    elif atom.chirality is Chirality.CW:
        parts.append("@@")
    h = atom.total_h
    if h == 1:
        parts.append("H")
    elif h > 1:
        parts.append(f"H{h}")
    charge = atom.formal_charge
    if charge == 1:
        parts.append("+")
    elif charge == -1:
        parts.append("-")
    elif charge > 1:
        parts.append(f"+{charge}")
    elif charge < -1:
        parts.append(f"-{abs(charge)}")
    return "[" + "".join(parts) + "]"


def _bond_text(bond: Bond, graph: MolecularGraph) -> str:
    if bond.order is BondOrder.DOUBLE:
        return "="
    if bond.order is BondOrder.TRIPLE:
        return "#"
    if bond.order is BondOrder.SINGLE:
        a, b = graph.atoms[bond.a], graph.atoms[bond.b]
        # An unmarked bond between aromatic atoms would reparse as aromatic.
        if a.aromatic and b.aromatic:
            return "-"
    return ""


def _digit_text(n: int) -> str:
    return str(n) if n < 10 else f"%{n:02d}"


def _write_component(graph: MolecularGraph, start: int) -> str:
    # Tree edges found by DFS; every remaining edge becomes a ring closure.
    parent_bond: dict[int, int] = {}
    visited = {start}
    dfs_children: dict[int, list[tuple[int, int]]] = {start: []}
    stack = [start]
    ring_bonds: set[int] = set()
    while stack:
        node = stack.pop()
        for bi in graph.adjacency[node]:
            nxt = graph.bonds[bi].other(node)
            if nxt not in visited:
                visited.add(nxt)
                parent_bond[nxt] = bi
                dfs_children.setdefault(node, []).append((nxt, bi))
                dfs_children.setdefault(nxt, [])
                stack.append(nxt)
            elif bi not in ring_bonds and parent_bond.get(node) != bi and parent_bond.get(nxt) != bi:
                ring_bonds.add(bi)

    # Ring digits are handed out at the first endpoint reached during
    # emission and freed when closed, so digits get reused.
    open_digits: dict[int, int] = {}

    def take_digit() -> int:
        in_use = set(open_digits.values())
        d = 1
        while d in in_use:
            d += 1
        return d

    # Emission runs off an explicit stack, so chain length is not bounded by
    # Python's recursion limit. An entry is an atom to emit or text to append.
    out: list[str] = []
    todo: list[int | str] = [start]
    while todo:
        item = todo.pop()
        if isinstance(item, str):
            out.append(item)
            continue
        out.append(_atom_text(graph.atoms[item]))
        for bi in graph.adjacency[item]:
            if bi not in ring_bonds:
                continue
            if bi in open_digits:
                out.append(_digit_text(open_digits.pop(bi)))
            else:
                digit = take_digit()
                open_digits[bi] = digit
                out.append(_bond_text(graph.bonds[bi], graph) + _digit_text(digit))
        # Every child but the last is a parenthesised branch; pushed in
        # reverse so they pop in order.
        children = dfs_children.get(item, [])
        for pos in reversed(range(len(children))):
            child, bi = children[pos]
            last = pos == len(children) - 1
            if not last:
                todo.append(")")
            todo.append(child)
            todo.append(_bond_text(graph.bonds[bi], graph))
            if not last:
                todo.append("(")
    return "".join(out)


def write_smiles(graph: MolecularGraph) -> str:
    """Serialize ``graph``; the result reparses to an isomorphic graph."""
    if graph.m == 0:
        return ""
    parts = []
    for comp in graph.connected_components():
        parts.append(_write_component(graph, comp[0]))
    return ".".join(parts)
