"""Featurization, circular fingerprints, functional groups, and scaffolds.

Everything here is deterministic: the fingerprint hash is a fixed 64-bit
mixing function (no process salt), functional groups are explicit graph
predicates, and scaffold keys come from canonical ranks.
"""

from __future__ import annotations

from collections.abc import Sequence
from itertools import chain

import numpy as np

from .chem.canon import canonical_key
from .chem.graph import Atom, Bond, BondOrder, Chirality, MolecularGraph, once_per_graph
from .chem.parser import _fill_implicit_h
from .errors import InputError, allocating

# ------------------------------------------------------------------ features

#: Fixed element list for the one-hot block; anything else maps to Other.
ELEMENTS = ("C", "N", "O", "S", "P", "F", "Cl", "Br", "I",
            "B", "Si", "Se", "Na", "K", "Li", "Ca")

_N_ELEM = len(ELEMENTS) + 1          # + Other
_N_DEGREE = 6                        # 0..5, clamped
_N_CHARGE = 5                        # -2..2, clamped
_N_H = 5                             # 0..4, clamped
_N_CHIRAL = 3                        # None, CW, CCW

#: Total width of one atom feature row (last slot is the mask flag).
ATOM_FEATURE_DIM = _N_ELEM + _N_DEGREE + _N_CHARGE + 1 + _N_H + _N_CHIRAL + 1

#: Bond feature width: order one-hot {single,double,triple,aromatic} +
#: ring flag + mask flag.
BOND_FEATURE_DIM = 4 + 1 + 1

_CHIRAL_SLOT = {Chirality.NONE: 0, Chirality.CW: 1, Chirality.CCW: 2}
_ORDER_SLOT = {BondOrder.SINGLE: 0, BondOrder.DOUBLE: 1,
               BondOrder.TRIPLE: 2, BondOrder.AROMATIC: 3}


def atom_feature_row(atom: Atom) -> np.ndarray:
    row = np.zeros(ATOM_FEATURE_DIM, dtype=np.float64)
    try:
        row[ELEMENTS.index(atom.element)] = 1.0
    except ValueError:
        row[_N_ELEM - 1] = 1.0
    base = _N_ELEM
    row[base + min(atom.degree, _N_DEGREE - 1)] = 1.0
    base += _N_DEGREE
    row[base + min(max(atom.formal_charge, -2), 2) + 2] = 1.0
    base += _N_CHARGE
    row[base] = 1.0 if atom.aromatic else 0.0
    base += 1
    row[base + min(atom.total_h, _N_H - 1)] = 1.0
    base += _N_H
    row[base + _CHIRAL_SLOT[atom.chirality]] = 1.0
    return row


def bond_feature_row(bond: Bond) -> np.ndarray:
    row = np.zeros(BOND_FEATURE_DIM, dtype=np.float64)
    row[_ORDER_SLOT[bond.order]] = 1.0
    row[4] = 1.0 if bond.in_ring else 0.0
    return row


def masked_atom_row() -> np.ndarray:
    row = np.zeros(ATOM_FEATURE_DIM, dtype=np.float64)
    row[-1] = 1.0
    return row


def masked_bond_row() -> np.ndarray:
    row = np.zeros(BOND_FEATURE_DIM, dtype=np.float64)
    row[-1] = 1.0
    return row


@once_per_graph
def featurize(graph: MolecularGraph) -> tuple[np.ndarray, np.ndarray]:
    """One feature row per atom and per bond (unmasked), made once per graph
    and shared: the arrays are read-only."""
    atoms = np.stack([atom_feature_row(a) for a in graph.atoms]) if graph.m else \
        np.zeros((0, ATOM_FEATURE_DIM))
    bonds = np.stack([bond_feature_row(b) for b in graph.bonds]) if graph.bonds else \
        np.zeros((0, BOND_FEATURE_DIM))
    atoms.flags.writeable = bonds.flags.writeable = False
    return atoms, bonds


# --------------------------------------------------------------- fingerprint

_MASK64 = (1 << 64) - 1
_MIX_CONST = np.uint64(0x9E3779B97F4A7C15)
_MIX_MUL1 = np.uint64(0xBF58476D1CE4E5B9)
_MIX_MUL2 = np.uint64(0x94D049BB133111EB)
_HASH_START = np.uint64(0x51AFD7ED558CCD25)


def _mix64(z: np.ndarray) -> np.ndarray:
    """splitmix64 finalizer over a ``uint64`` array, wrapping mod 2**64:
    deterministic across platforms and runs."""
    z = z + _MIX_CONST
    z = (z ^ (z >> np.uint64(30))) * _MIX_MUL1
    z = (z ^ (z >> np.uint64(27))) * _MIX_MUL2
    return z ^ (z >> np.uint64(31))


_ELEMENT_CODE = {sym: i for i, sym in enumerate(
    "H B C N O F Na Mg Si P S Cl K Ca Se Br I".split(), start=1)}


def _seed_atom_ids(atoms: list[Atom]) -> np.ndarray:
    """Hash of (element code, degree, charge + 16, H count, aromatic) per
    atom. Items wrap to 64 bits, so a charge below -16 hashes as its two's
    complement."""
    items = np.fromiter(chain.from_iterable(
        (_ELEMENT_CODE.get(a.element, 0), a.degree, (a.formal_charge + 16) & _MASK64,
         a.total_h & _MASK64, int(a.aromatic))
        for a in atoms), dtype=np.uint64, count=5 * len(atoms)).reshape(len(atoms), 5)
    h = np.full(len(atoms), _HASH_START, dtype=np.uint64)
    for column in _mix64(items).T:
        h = _mix64(h ^ column)
    return h


class BadFingerprintShape(InputError):
    """A fingerprint radius below 0, or a width that is not a power of two
    of at least 64."""


def check_fingerprint_shape(radius: int, width: int) -> None:
    if radius < 0:
        raise BadFingerprintShape(f"radius must be at least 0, got {radius}")
    if width < 64 or width & (width - 1):
        raise BadFingerprintShape(f"width must be a power of two >= 64, got {width}")


def morgan_fingerprint(graphs: Sequence[MolecularGraph], radius: int = 2,
                       width: int = 2048) -> np.ndarray:
    """Iterative neighborhood-hash fingerprints of a block of molecules: a
    ``(len(graphs), width)`` uint8 array of zeros and ones, row ``i`` for
    ``graphs[i]``.

    Atom identifiers start from (element, degree, charge, H-count, aromatic)
    and are rehashed ``radius`` times over sorted (bond order, neighbor id)
    tuples. An environment whose bond set stopped growing is a duplicate of
    the previous radius and sets no new bit; once no environment grows, the
    loop stops, so a radius past the largest molecule costs nothing more.
    Bit index = id mod width.

    Every atom of the block is hashed at once, its index offset by the atoms
    of the molecules before it: one sort of the directed edges by (source,
    bond order, neighbor id) per radius lays out each atom's sorted
    neighborhood, which is then folded in rank by rank. Bond environments
    are rows of packed bits indexed by each molecule's own bond numbers, so
    a row is as wide as the block's largest bond count, not its total.
    """
    check_fingerprint_shape(radius, width)
    sizes = np.array([g.m for g in graphs], dtype=np.intp)
    n_bonds = np.array([len(g.bonds) for g in graphs], dtype=np.intp)
    m = int(sizes.sum())
    mol = np.repeat(np.arange(len(graphs)), sizes)  # molecule of each atom
    with allocating(f"fingerprints of width {width}"):
        bits = np.zeros((len(graphs), width), dtype=np.uint8)
    ids = _seed_atom_ids([a for g in graphs for a in g.atoms])
    bits[mol, (ids % np.uint64(width)).astype(np.intp)] = 1

    # Directed edges: bond k runs a -> b as edge k and b -> a as edge k + bonds,
    # its ends offset to block atom indices; `local` is k within its molecule.
    ends = np.fromiter(chain.from_iterable((b.a, b.b, b.order.value)
                                           for g in graphs for b in g.bonds),
                       dtype=np.int64, count=3 * int(n_bonds.sum())).reshape(-1, 3)
    ends[:, :2] += np.repeat(np.cumsum(sizes) - sizes, n_bonds)[:, None]
    local = np.arange(len(ends)) - np.repeat(np.cumsum(n_bonds) - n_bonds, n_bonds)
    src = np.concatenate([ends[:, 0], ends[:, 1]])
    dst = np.concatenate([ends[:, 1], ends[:, 0]])
    order = np.concatenate([ends[:, 2], ends[:, 2]])
    mixed_order = _mix64(order.astype(np.uint64))
    degree = np.bincount(src, minlength=m)
    first = np.cumsum(degree) - degree  # atom i's edges once sorted by source
    ranks = []  # (atoms with more than r neighbors, their r-th sorted edge)
    for r in range(int(degree.max(initial=0))):
        atoms = np.flatnonzero(degree > r)
        ranks.append((atoms, first[atoms] + r))
    # env[i] = packed bits of the bonds within the current radius of atom i;
    # each radius ORs in i's own bonds and its neighbours' environments.
    own = np.zeros((m, int(n_bonds.max(initial=0))), dtype=bool)
    own[src, np.tile(local, 2)] = True
    own = np.packbits(own, axis=1)
    env = np.zeros_like(own)
    bonded = degree > 0
    alive = np.ones(m, dtype=bool)
    for _ in range(radius):
        edge = np.lexsort((ids[dst], order, src))
        edge_order = mixed_order[edge]
        neighbor = dst[edge]
        mixed_ids = _mix64(ids)
        edge_id = mixed_ids[neighbor]
        new_ids = _mix64(_HASH_START ^ mixed_ids)
        for atoms, pos in ranks:
            h = _mix64(new_ids[atoms] ^ edge_order[pos])
            new_ids[atoms] = _mix64(h ^ edge_id[pos])
        new_env = env | own
        if len(ends):
            new_env[bonded] |= np.bitwise_or.reduceat(env[neighbor], first[bonded])
        alive &= (new_env != env).any(axis=1)
        if not alive.any():
            break
        bits[mol[alive], (new_ids[alive] % np.uint64(width)).astype(np.intp)] = 1
        ids = new_ids
        env = new_env
    return bits


# ---------------------------------------------------------- functional groups

@once_per_graph
def acyl_carbons(g: MolecularGraph) -> tuple[int, ...]:
    """Indices of the non-aromatic carbons with a double bond to oxygen (the
    acyl carbons), made once per graph."""
    return tuple(i for i, a in enumerate(g.atoms) if a.element == "C" and not a.aromatic
                 and any(bond.order is BondOrder.DOUBLE and g.atoms[j].element == "O"
                         for j, bond in g.neighbors(i)))


def is_carbonyl_carbon(g: MolecularGraph, i: int) -> bool:
    """A non-aromatic carbon with a double bond to oxygen (an acyl carbon)."""
    return i in acyl_carbons(g)


def _hydroxyl_o(g: MolecularGraph, i: int) -> bool:
    a = g.atoms[i]
    return (a.element == "O" and not a.aromatic and a.formal_charge == 0
            and a.degree == 1 and a.total_h >= 1)


def _single_c_neighbors(g: MolecularGraph, i: int) -> list[int]:
    return [j for j, bond in g.neighbors(i)
            if bond.order is BondOrder.SINGLE and g.atoms[j].element == "C"]


def _has_hydroxyl(g):
    for idx, a in enumerate(g.atoms):
        if not _hydroxyl_o(g, idx):
            continue
        j = g.neighbors(idx)[0][0]
        nb = g.atoms[j]
        if nb.element == "C" and not nb.aromatic and not is_carbonyl_carbon(g, j):
            return True
    return False


def _has_phenol(g):
    for idx in range(g.m):
        if _hydroxyl_o(g, idx):
            j = g.neighbors(idx)[0][0]
            if g.atoms[j].element == "C" and g.atoms[j].aromatic:
                return True
    return False


def _has_carboxylic_acid(g):
    for i in acyl_carbons(g):
        for j, bond in g.neighbors(i):
            if bond.order is BondOrder.SINGLE and g.atoms[j].element == "O":
                o = g.atoms[j]
                if o.degree == 1 and (o.total_h >= 1 or o.formal_charge == -1):
                    return True
    return False


def _has_ester(g):
    for i in acyl_carbons(g):
        for j, bond in g.neighbors(i):
            if (bond.order is BondOrder.SINGLE and g.atoms[j].element == "O"
                    and g.atoms[j].degree == 2):
                return True
    return False


def _has_amide(g):
    return any(
        bond.order is BondOrder.SINGLE and g.atoms[j].element == "N"
        for i in acyl_carbons(g) for j, bond in g.neighbors(i)
    )


def _has_aldehyde(g):
    return any(g.atoms[i].total_h >= 1 for i in acyl_carbons(g))


def _has_ketone(g):
    return any(not g.atoms[i].total_h and len(_single_c_neighbors(g, i)) == 2
               for i in acyl_carbons(g))


def _has_ether(g):
    for i, a in enumerate(g.atoms):
        if a.element != "O" or a.aromatic or a.degree != 2 or a.formal_charge:
            continue
        nbrs = g.neighbors(i)
        if all(bond.order is BondOrder.SINGLE and g.atoms[j].element == "C"
               and not is_carbonyl_carbon(g, j) for j, bond in nbrs):
            return True
    return False


def _plain_amine_n(g, i):
    a = g.atoms[i]
    if a.element != "N" or a.aromatic or a.formal_charge != 0:
        return False
    nbrs = g.neighbors(i)
    if any(bond.order is not BondOrder.SINGLE for _, bond in nbrs):
        return False
    if any(g.atoms[j].element != "C" or is_carbonyl_carbon(g, j) for j, _ in nbrs):
        return False
    return True


def _has_amine_of_degree(g, degree):
    return any(
        g.atoms[i].degree == degree and _plain_amine_n(g, i)
        for i in range(g.m)
    )


def _has_nitro(g):
    for i, a in enumerate(g.atoms):
        if a.element != "N":
            continue
        terminal_o = [
            (j, bond) for j, bond in g.neighbors(i)
            if g.atoms[j].element == "O" and g.atoms[j].degree == 1
        ]
        if len(terminal_o) >= 2 and any(
                bond.order is BondOrder.DOUBLE for _, bond in terminal_o):
            return True
    return False


def _has_nitrile(g):
    return any(
        bond.order is BondOrder.TRIPLE
        and {g.atoms[bond.a].element, g.atoms[bond.b].element} == {"C", "N"}
        for bond in g.bonds
    )


def _has_thiol(g):
    return any(
        a.element == "S" and not a.aromatic and a.degree == 1 and a.total_h >= 1
        for a in g.atoms
    )


def is_sulfonyl_sulfur(g: MolecularGraph, i: int) -> bool:
    """A sulfur with at least two double bonds to oxygen."""
    return g.atoms[i].element == "S" and sum(
        1 for j, bond in g.neighbors(i)
        if bond.order is BondOrder.DOUBLE and g.atoms[j].element == "O"
    ) >= 2


def _has_thioether(g):
    for i, a in enumerate(g.atoms):
        if (a.element == "S" and not a.aromatic and a.degree == 2
                and not is_sulfonyl_sulfur(g, i)
                and all(bond.order is BondOrder.SINGLE and g.atoms[j].element == "C"
                        for j, bond in g.neighbors(i))):
            return True
    return False


def _has_sulfonamide(g):
    return any(
        is_sulfonyl_sulfur(g, i) and any(
            bond.order is BondOrder.SINGLE and g.atoms[j].element == "N"
            for j, bond in g.neighbors(i))
        for i in range(g.m)
    )


def _has_sulfone(g):
    for i in range(g.m):
        if not is_sulfonyl_sulfur(g, i):
            continue
        single = [(j, b) for j, b in g.neighbors(i) if b.order is BondOrder.SINGLE]
        if len(single) == 2 and all(g.atoms[j].element == "C" for j, _ in single):
            return True
    return False


def _has_halogen(elem):
    def check(g):
        return any(a.element == elem for a in g.atoms)
    return check


def _has_aromatic_ring(g):
    return any(a.aromatic and a.in_ring for a in g.atoms)


def _has_nonaromatic_ring(g):
    return any(b.in_ring and b.order is not BondOrder.AROMATIC for b in g.bonds)


def _has_alkene(g):
    return any(
        b.order is BondOrder.DOUBLE
        and g.atoms[b.a].element == "C" and g.atoms[b.b].element == "C"
        and not (g.atoms[b.a].aromatic or g.atoms[b.b].aromatic)
        for b in g.bonds
    )


#: Group name -> predicate, in fixed bit order (width 24).
FUNCTIONAL_GROUPS = (
    ("hydroxyl", _has_hydroxyl),
    ("phenol", _has_phenol),
    ("carboxylic_acid", _has_carboxylic_acid),
    ("ester", _has_ester),
    ("amide", _has_amide),
    ("aldehyde", _has_aldehyde),
    ("ketone", _has_ketone),
    ("ether", _has_ether),
    ("primary_amine", lambda g: _has_amine_of_degree(g, 1)),
    ("secondary_amine", lambda g: _has_amine_of_degree(g, 2)),
    ("tertiary_amine", lambda g: _has_amine_of_degree(g, 3)),
    ("nitro", _has_nitro),
    ("nitrile", _has_nitrile),
    ("thiol", _has_thiol),
    ("thioether", _has_thioether),
    ("sulfonamide", _has_sulfonamide),
    ("sulfone", _has_sulfone),
    ("fluoro", _has_halogen("F")),
    ("chloro", _has_halogen("Cl")),
    ("bromo", _has_halogen("Br")),
    ("iodo", _has_halogen("I")),
    ("aromatic_ring", _has_aromatic_ring),
    ("nonaromatic_ring", _has_nonaromatic_ring),
    ("alkene", _has_alkene),
)

GROUP_NAMES = tuple(name for name, _ in FUNCTIONAL_GROUPS)
N_GROUPS = len(FUNCTIONAL_GROUPS)


def detect_functional_groups(graph: MolecularGraph) -> np.ndarray:
    """Presence bit per catalog group (width 24, dtype uint8)."""
    return np.array([1 if pred(graph) else 0 for _, pred in FUNCTIONAL_GROUPS],
                    dtype=np.uint8)


def group_names_present(graph: MolecularGraph) -> list[str]:
    bits = detect_functional_groups(graph)
    return [name for name, bit in zip(GROUP_NAMES, bits) if bit]


# ------------------------------------------------------------------ scaffold

def murcko_scaffold(graph: MolecularGraph) -> MolecularGraph:
    """Ring systems plus linkers: prune degree-1 non-ring atoms to fixpoint.

    Acyclic molecules reduce to the empty graph. Leaves are pruned from a
    queue: pruning only lowers degrees, so any order reaches that fixpoint.
    """
    degree = [a.degree for a in graph.atoms]
    leaves = [i for i, a in enumerate(graph.atoms) if a.degree <= 1 and not a.in_ring]
    keep = [True] * graph.m
    while leaves:
        i = leaves.pop()
        keep[i] = False
        for j, _ in graph.neighbors(i):
            if keep[j]:
                degree[j] -= 1
                if degree[j] == 1 and not graph.atoms[j].in_ring:
                    leaves.append(j)
    remap = {old: new for new, old in enumerate(i for i in range(graph.m) if keep[i])}
    out = MolecularGraph()
    for old in remap:
        a = graph.atoms[old]
        out.add_atom(Atom(element=a.element, aromatic=a.aromatic,
                          formal_charge=a.formal_charge, explicit_h=a.explicit_h,
                          chirality=a.chirality))
    for b in graph.bonds:
        if b.a in remap and b.b in remap:
            out.add_bond(Bond(a=remap[b.a], b=remap[b.b], order=b.order))
    out.mark_rings()
    # Hydrogens are refilled for the pruned bond pattern so that, e.g.,
    # the scaffold of toluene keys identically to benzene.
    _fill_implicit_h(out)
    return out


def scaffold_key(graph: MolecularGraph) -> str:
    """Canonical grouping key of a molecule's scaffold ('' when acyclic)."""
    return canonical_key(murcko_scaffold(graph))


class EmptyCorpus(InputError):
    """Raised when a split or vocabulary build receives no molecules."""


#: Train, validation and test shares of a fine-tuning task.
SPLIT_FRACTIONS = (0.8, 0.1, 0.1)


def scaffold_split(keys: list[str]) -> tuple[list[int], list[int], list[int]]:
    """Partition indices so no scaffold key spans two splits.

    Groups are sorted by descending size then key, and assigned greedily:
    train until it holds at least the train share of SPLIT_FRACTIONS, then
    valid, then test.
    """
    if not keys:
        raise EmptyCorpus("cannot split an empty corpus")
    groups: dict[str, list[int]] = {}
    for idx, key in enumerate(keys):
        groups.setdefault(key, []).append(idx)
    ordered = sorted(groups.values(), key=lambda g: (-len(g), keys[g[0]]))
    n = len(keys)
    n_train = SPLIT_FRACTIONS[0] * n
    n_valid = SPLIT_FRACTIONS[1] * n
    train: list[int] = []
    valid: list[int] = []
    test: list[int] = []
    for group in ordered:
        if len(train) < n_train:
            train.extend(group)
        elif len(valid) < n_valid:
            valid.extend(group)
        else:
            test.extend(group)
    return sorted(train), sorted(valid), sorted(test)
