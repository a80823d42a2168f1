"""Reference implementations the tests compare the library against.

Each is a plain, loop-by-loop version of something the library now does
faster or no longer needs outside the tests. They are kept verbatim in
behaviour: a difference from the library is a bug in the library.
"""

from __future__ import annotations

import importlib.util
from pathlib import Path

import numpy as np

from chemfuse.chem import BondOrder, MolecularGraph
from chemfuse.features import Fingerprint, check_fingerprint_shape
from chemfuse.fragments import (
    COMPATIBLE_PAIRS,
    FragmentMap,
    FragmentOutOfRange,
    atom_environments,
)

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def generated_corpus(seed: int, count: int) -> list[str]:
    """``count`` seeded 40-100 atom molecules from the benchmark's generator,
    loaded from its file without putting the benchmark on ``sys.path``."""
    spec = importlib.util.spec_from_file_location("perfbench_gen", PERFBENCH / "gen.py")
    gen = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(gen)
    return gen.large_corpus(seed, count)


# --------------------------------------------------------------- fingerprint

_MIX_CONST = 0x9E3779B97F4A7C15
_MASK64 = (1 << 64) - 1
_ELEMENT_CODE = {sym: i for i, sym in enumerate(
    "H B C N O F Na Mg Si P S Cl K Ca Se Br I".split(), start=1)}


def _mix64(value: int) -> int:
    z = (value + _MIX_CONST) & _MASK64
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
    return (z ^ (z >> 31)) & _MASK64


def _hash_tuple(items: tuple) -> int:
    h = 0x51AFD7ED558CCD25
    for item in items:
        h = _mix64(h ^ _mix64(item))
    return h


def _seed_atom_id(graph: MolecularGraph, i: int) -> int:
    a = graph.atoms[i]
    code = _ELEMENT_CODE.get(a.element, 0)
    return _hash_tuple((code, a.degree, a.formal_charge + 16, a.total_h,
                        int(a.aromatic)))


def morgan_fingerprint(graph: MolecularGraph, radius: int = 2,
                       width: int = 2048) -> Fingerprint:
    """The fingerprint hashed one Python integer at a time."""
    check_fingerprint_shape(radius, width)
    bits = np.zeros(width, dtype=np.uint8)
    ids = [_seed_atom_id(graph, i) for i in range(graph.m)]
    for aid in ids:
        bits[aid % width] = 1
    bond_envs: list[frozenset[int]] = [frozenset() for _ in range(graph.m)]
    alive = [True] * graph.m
    for _ in range(radius):
        new_ids = []
        new_envs = []
        for i in range(graph.m):
            neighborhood = tuple(sorted(
                (bond.order.value, ids[j]) for j, bond in graph.neighbors(i)
            ))
            new_ids.append(_hash_tuple((ids[i],) + tuple(
                x for pair in neighborhood for x in pair)))
            env = set(bond_envs[i])
            env.update(graph.adjacency[i])
            for j, _ in graph.neighbors(i):
                env.update(bond_envs[j])
            new_envs.append(frozenset(env))
        for i in range(graph.m):
            if alive[i] and new_envs[i] != bond_envs[i]:
                bits[new_ids[i] % width] = 1
            elif new_envs[i] == bond_envs[i]:
                alive[i] = False
        ids = new_ids
        bond_envs = new_envs
    return Fingerprint(bits=bits, radius=radius)


def popcount(fp: Fingerprint) -> int:
    return int(fp.bits.sum())


# ----------------------------------------------------------------- fragments

def brics_cleave(graph: MolecularGraph) -> tuple[int, list[int], list[int]]:
    """Cleavage with each bond's end-atom environments recomputed per bond."""
    cleaved = []
    for bi, bond in enumerate(graph.bonds):
        if bond.order is not BondOrder.SINGLE or bond.in_ring:
            continue
        envs_a = atom_environments(graph, bond.a)
        if not envs_a:
            continue
        envs_b = atom_environments(graph, bond.b)
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


def fragment_members(fmap: FragmentMap, k: int) -> tuple[list[int], list[int]]:
    """Atom ids and token ids belonging to fragment ``k``.

    Raises:
        FragmentOutOfRange: if ``k`` is not in [0, K).
    """
    if not 0 <= k < fmap.K:
        raise FragmentOutOfRange(f"fragment {k} out of range [0, {fmap.K})")
    atoms = [i for i, label in enumerate(fmap.l_g) if label == k]
    toks = [i for i, label in enumerate(fmap.l_s) if label == k]
    return atoms, toks
