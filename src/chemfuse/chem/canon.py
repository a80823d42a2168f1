"""Morgan-style canonical ranks, graph isomorphism, and canonical keys.

Ranks come from iterative neighborhood refinement seeded with
(element, degree, charge, H-count, aromatic, ring) tuples, so they are
invariant under atom-index permutation. Isomorphism is a backtracking
search over refinement-compatible candidates, adequate for molecules of
at most 64 heavy atoms.
"""

from __future__ import annotations

from itertools import accumulate

import numpy as np

from .errors import SizeLimitExceeded
from .graph import MolecularGraph

#: Heavy-atom limit for the isomorphism search.
ISO_ATOM_LIMIT = 64


def _refine(graphs: list[MolecularGraph]) -> list[list[int]]:
    """Jointly refine one or more graphs so ids are comparable across them.

    Returns one dense-rank list per input graph. Joint refinement over the
    disjoint union is what makes cross-graph comparison (isomorphism
    candidate filtering) sound.

    Each round ranks atoms by (rank, ascending (bond order, neighbour rank)
    pairs), a pair coded as ``order * (total + 1) + rank`` in an int64 row.
    An empty slot codes past every pair, and atoms of one rank have one
    degree (the seed holds it), so their empty slots fill the same columns. Rounds stop once the
    number of distinct ranks stops growing.
    """
    atoms = [a for g in graphs for a in g.atoms]
    seeds = [(a.element, a.degree, a.formal_charge, a.total_h, a.aromatic, a.in_ring)
             for a in atoms]
    rank_of = {t: r for r, t in enumerate(sorted(set(seeds)))}
    ids = np.array([rank_of[t] for t in seeds], dtype=np.int64)
    total = len(atoms)
    offsets = list(accumulate((g.m for g in graphs), initial=0))
    width = max((a.degree for a in atoms), default=0)
    neighbor = np.zeros((total, width), dtype=np.int64)
    bond_code = np.full((total, width), np.iinfo(np.int64).max - total)
    for g, offset in zip(graphs, offsets):
        for i in range(g.m):
            for slot, (j, bond) in enumerate(g.neighbors(i)):
                neighbor[offset + i, slot] = offset + j
                bond_code[offset + i, slot] = bond.order.value * (total + 1)

    table = np.empty((total, 1 + width), dtype=np.int64)
    distinct = len(rank_of)
    for _ in range(total):
        table[:, 0] = ids
        np.add(bond_code, ids[neighbor], out=table[:, 1:])
        table[:, 1:].sort(axis=1)
        by_signature = np.lexsort(table.T[::-1])
        rows = table[by_signature]
        rank = np.cumsum(np.concatenate(([0], (rows[1:] != rows[:-1]).any(axis=1))))
        ids[by_signature] = rank
        if rank[-1] + 1 == distinct:
            break
        distinct = rank[-1] + 1
    ranks = ids.tolist()
    return [ranks[offset:offset + g.m] for g, offset in zip(graphs, offsets)]


def canonical_ranks(graph: MolecularGraph) -> list[int]:
    """Dense per-atom ranks, identical across isomorphic atom relabelings.

    Automorphic atoms (e.g. the two carbons of ethane) share a rank.
    """
    return _refine([graph])[0]


def canonical_key(graph: MolecularGraph) -> str:
    """Permutation-invariant text key used to group identical structures."""
    if graph.m == 0:
        return ""
    ranks = canonical_ranks(graph)
    atoms = sorted(
        (ranks[i], a.element, a.aromatic, a.formal_charge, a.total_h)
        for i, a in enumerate(graph.atoms)
    )
    bonds = sorted(
        (min(ranks[b.a], ranks[b.b]), max(ranks[b.a], ranks[b.b]), b.order.value)
        for b in graph.bonds
    )
    return repr((atoms, bonds))


def are_isomorphic(g1: MolecularGraph, g2: MolecularGraph) -> bool:
    """True iff an element/bond-order preserving bijection exists.

    The match also requires aromatic flags, formal charges, and hydrogen
    counts to agree, so a round-tripped molecule must preserve them.

    Raises:
        SizeLimitExceeded: if either graph has more than 64 atoms.
    """
    if g1.m > ISO_ATOM_LIMIT or g2.m > ISO_ATOM_LIMIT:
        raise SizeLimitExceeded(
            f"isomorphism limited to {ISO_ATOM_LIMIT} atoms ({g1.m} vs {g2.m})"
        )
    if g1.m != g2.m or len(g1.bonds) != len(g2.bonds):
        return False
    sig1, sig2 = _refine([g1, g2])
    if sorted(sig1) != sorted(sig2):
        return False

    candidates = {i: [j for j in range(g2.m) if sig2[j] == sig1[i]] for i in range(g1.m)}
    mapping: dict[int, int] = {}
    used: set[int] = set()

    # Visit g1 atoms most-constrained first, preferring atoms adjacent to
    # already-mapped ones so bond checks prune early.
    def pick_next() -> int | None:
        best, best_score = None, None
        for i in range(g1.m):
            if i in mapping:
                continue
            adjacent = any(j in mapping for j, _ in g1.neighbors(i))
            score = (not adjacent, len(candidates[i]))
            if best_score is None or score < best_score:
                best, best_score = i, score
        return best

    def backtrack() -> bool:
        i = pick_next()
        if i is None:
            return True
        for j in candidates[i]:
            if j in used:
                continue
            ok = True
            for nb, bond in g1.neighbors(i):
                if nb in mapping:
                    other = g2.bond_between(j, mapping[nb])
                    if other is None or other.order is not bond.order:
                        ok = False
                        break
            if not ok:
                continue
            mapping[i] = j
            used.add(j)
            if backtrack():
                return True
            del mapping[i]
            used.discard(j)
        return False

    return backtrack()
