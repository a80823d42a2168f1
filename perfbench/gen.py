"""Seeded SMILES generator for the embed_mixed and ingest_large workloads.

Large molecules are chains of building blocks. Every block parses on its
own, and its first atom and its last top-level atom each keep at least one
implicit hydrogen, so writing block B right after block A bonds A's tail
atom to B's head atom without overflowing a valence. Every block closes
the ring digits it opens, so blocks can reuse digits. (A start block such
as ``C#N`` would fail: its nitrogen has no hydrogen left to give up.)
"""

from __future__ import annotations

import random
import re

#: Caps that only need an open valence on their last top-level atom.
STARTS = ("C", "CC(C)", "FC(F)(F)", "N#C", "Clc1ccc(cc1)", "COc1ccc(cc1)",
          "CN(C)", "c1ccccc1", "CC(=O)N")

#: Blocks that need an open valence at both ends.
LINKERS = ("CC", "CCC", "c1ccc(cc1)", "c1ccccc1", "C(=O)N", "C(=O)O", "O",
           "N", "C1CCC(CC1)", "C1CCN(CC1)", "N1CCN(CC1)", "c1ccncc1",
           "c1ccc(o1)", "S", "C(F)(F)", "C(Cl)", "c1ccc2ccccc2c1", "C=C",
           "C#C", "C(=O)", "C(C)(C)", "NC(=O)N", "c1cc(F)ccc1", "CC(O)C")

#: Caps that only need an open valence on their first atom.
ENDS = ("C", "F", "Cl", "C#N", "C(=O)O", "O", "N", "c1ccccc1", "C(F)(F)F",
        "N(C)C", "C(=O)N", "c1ccncc1")

MIN_ATOMS, MAX_ATOMS = 40, 100

_ATOM_RE = re.compile(r"Cl|Br|[BCNOPSFI]|[bcnops]")


def heavy_atoms(smiles: str) -> int:
    """Heavy-atom count of a bracket-free SMILES string."""
    return len(_ATOM_RE.findall(smiles))


_MAX_TAIL = max(heavy_atoms(b) for b in LINKERS) + max(heavy_atoms(b) for b in ENDS)


def large_molecule(rng: random.Random) -> str:
    """One chained molecule with MIN_ATOMS..MAX_ATOMS heavy atoms."""
    target = rng.randint(MIN_ATOMS, MAX_ATOMS - _MAX_TAIL)
    parts = [rng.choice(STARTS)]
    atoms = heavy_atoms(parts[0])
    while atoms < target:
        parts.append(rng.choice(LINKERS))
        atoms += heavy_atoms(parts[-1])
    parts.append(rng.choice(ENDS))
    return "".join(parts)


def large_corpus(seed: int, count: int) -> list[str]:
    rng = random.Random(f"large-{seed}")
    return [large_molecule(rng) for _ in range(count)]


#: Lines per shuffled block of a mixed corpus; each block holds exactly
#: round(MIX_BLOCK * large_share) large molecules, so every stretch of the
#: corpus has the same share and a run's throughput does not hinge on it.
MIX_BLOCK = 10


def mixed_corpus(seed: int, count: int, small_pool: list[str],
                 large_share: float) -> list[str]:
    """Small molecules drawn from ``small_pool`` mixed with large ones."""
    rng = random.Random(f"mixed-{seed}")
    n_large = round(MIX_BLOCK * large_share)
    out: list[str] = []
    while len(out) < count:
        kinds = [True] * n_large + [False] * (MIX_BLOCK - n_large)
        rng.shuffle(kinds)
        out.extend(large_molecule(rng) if large else rng.choice(small_pool)
                   for large in kinds)
    return out[:count]
