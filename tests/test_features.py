"""Featurizer, fingerprint, functional-group, and scaffold tests."""

import random

import numpy as np
import pytest

from chemfuse.chem import parse_smiles
from chemfuse.features import (
    ATOM_FEATURE_DIM,
    BOND_FEATURE_DIM,
    BadFingerprintShape,
    EmptyCorpus,
    GROUP_NAMES,
    detect_functional_groups,
    featurize,
    group_names_present,
    morgan_fingerprint,
    murcko_scaffold,
    scaffold_key,
    scaffold_split,
)

import oracles
from conftest import DATA_DIR, permute_graph


# ----------------------------------------------------------------- featurizer

def test_featurize_methane():
    g, _ = parse_smiles("C")
    atoms, bonds = featurize(g)
    assert atoms.shape == (1, ATOM_FEATURE_DIM)
    row = atoms[0]
    assert row[0] == 1.0            # carbon slot
    assert row.sum() == 5.0         # five active one-hot blocks, aromatic off
    assert row[-1] == 0.0           # mask flag off for real atoms


def test_featurize_one_hot_blocks(golden_smiles):
    for s in golden_smiles[:60]:
        g, _ = parse_smiles(s)
        atoms, bonds = featurize(g)
        # element(17) degree(6) charge(5) aromatic(1) h(5) chirality(3) mask(1)
        for row in atoms:
            assert row[0:17].sum() == 1
            assert row[17:23].sum() == 1
            assert row[23:28].sum() == 1
            assert row[29:34].sum() == 1
            assert row[34:37].sum() == 1
            assert row[37] == 0        # mask slot
        for brow in bonds:
            assert brow[0:4].sum() == 1
            assert brow[5] == 0


def test_featurize_double_bond_and_benzene():
    g, _ = parse_smiles("C=C")
    _, bonds = featurize(g)
    assert bonds.shape == (1, BOND_FEATURE_DIM)
    assert bonds[0, 1] == 1.0
    g, _ = parse_smiles("c1ccccc1")
    atoms, bonds = featurize(g)
    assert all(atoms[:, 28] == 1.0)          # aromatic flag
    assert all(bonds[:, 3] == 1.0)           # aromatic order slot
    assert all(bonds[:, 4] == 1.0)           # ring flag


# ---------------------------------------------------------------- fingerprint

def test_fp_lone_atom_single_bit():
    g, _ = parse_smiles("C")
    assert oracles.popcount(morgan_fingerprint([g], radius=2)[0]) == 1


def _enumerate_environments(graph, radius):
    """Independent oracle: canonical rooted subgraphs within each radius."""
    from chemfuse.chem.canon import canonical_ranks
    from chemfuse.chem.graph import MolecularGraph, Atom, Bond

    def subgraph_signature(root, rad):
        # Atoms within distance rad of root.
        dist = {root: 0}
        frontier = [root]
        while frontier:
            nxt = []
            for node in frontier:
                for j, _ in graph.neighbors(node):
                    if j not in dist and dist[node] + 1 <= rad:
                        dist[j] = dist[node] + 1
                        nxt.append(j)
            frontier = nxt
        bonds = set()
        for bi, bond in enumerate(graph.bonds):
            if bond.a in dist and bond.b in dist and min(dist[bond.a], dist[bond.b]) < rad:
                bonds.add(bi)
        sub = MolecularGraph()
        keep = sorted(dist)
        remap = {old: new for new, old in enumerate(keep)}
        for old in keep:
            a = graph.atoms[old]
            # Root gets a charge offset as a distinguishing marker; degree and
            # H-count are copied from the parent molecule (ECFP semantics).
            sub.add_atom(Atom(element=a.element, aromatic=a.aromatic,
                              formal_charge=a.formal_charge + (100 if old == root else 0),
                              explicit_h=a.total_h))
        for bi in bonds:
            bond = graph.bonds[bi]
            sub.add_bond(Bond(a=remap[bond.a], b=remap[bond.b], order=bond.order))
        for new, old in enumerate(keep):
            sub.atoms[new].degree = graph.atoms[old].degree
        ranks = canonical_ranks(sub)
        atoms_part = sorted(
            (ranks[i], sub.atoms[i].element, sub.atoms[i].aromatic,
             sub.atoms[i].formal_charge, sub.atoms[i].total_h, sub.atoms[i].degree)
            for i in range(sub.m))
        bonds_part = sorted(
            (min(ranks[b.a], ranks[b.b]), max(ranks[b.a], ranks[b.b]), b.order.value)
            for b in sub.bonds)
        return repr((atoms_part, bonds_part))

    seen = set()
    for rad in range(radius + 1):
        for root in range(graph.m):
            seen.add(subgraph_signature(root, rad))
    return len(seen)


def test_fp_popcount_matches_environment_oracle(golden_smiles):
    small = [s for s in golden_smiles if parse_smiles(s)[0].m <= 12]
    assert len(small) >= 20
    for s in small:
        g, _ = parse_smiles(s)
        fp = morgan_fingerprint([g], radius=2, width=2048)[0]
        oracle = _enumerate_environments(g, 2)
        assert oracles.popcount(fp) <= oracle, s
        assert oracles.popcount(fp) >= oracle - 2, s


def test_fp_permutation_invariance(golden_smiles):
    rng = random.Random(9)
    for s in golden_smiles[:50]:
        g, _ = parse_smiles(s)
        ref = morgan_fingerprint([g])[0]
        for _ in range(20):
            perm = permute_graph(g, rng)
            np.testing.assert_array_equal(morgan_fingerprint([perm])[0], ref)


def test_fp_width_validation():
    g, _ = parse_smiles("CC")
    with pytest.raises(ValueError):
        morgan_fingerprint([g], width=100)
    with pytest.raises(ValueError, match="radius"):
        morgan_fingerprint([g], radius=-1)



#: (radius, width) pairs covering radii 0-3 and widths 64 to 4096.
FP_SHAPES = ((0, 64), (1, 1024), (2, 2048), (3, 4096), (3, 64))


def _assert_fp_matches_oracle(graphs):
    for g in graphs:
        for radius, width in FP_SHAPES:
            np.testing.assert_array_equal(
                morgan_fingerprint([g], radius, width)[0],
                oracles.morgan_fingerprint(g, radius, width))


@pytest.mark.filterwarnings("error")
def test_fp_matches_loop_oracle_on_golden(golden_smiles):
    _assert_fp_matches_oracle(parse_smiles(s)[0] for s in golden_smiles)


@pytest.mark.filterwarnings("error")
def test_fp_matches_loop_oracle_on_large_molecules():
    _assert_fp_matches_oracle(parse_smiles(s)[0] for s in oracles.generated_corpus(3, 80))


@pytest.mark.filterwarnings("error")
def test_fp_matches_loop_oracle_on_extreme_items():
    # A charge below -16 makes a negative hash item, which wraps to 64 bits;
    # so do counts past 2**64, which only atoms built outside the SMILES
    # grammar can hold. The empty scaffold has no atoms at all.
    smiles = ("[C-20]", "[C-20]C(=O)[N+3]", "[Na+].[Cl-]", "C.C")
    graphs = [parse_smiles(s)[0] for s in smiles]
    huge_charge, huge_h = parse_smiles("[C]")[0], parse_smiles("[CH]C")[0]
    huge_charge.atoms[0].formal_charge = -10**23
    huge_h.atoms[0].explicit_h = 10**20
    graphs += [huge_charge, huge_h, murcko_scaffold(parse_smiles("CCO")[0])]
    assert graphs[-1].m == 0
    _assert_fp_matches_oracle(graphs)



def _mixed_chunks():
    """Random chunks of generated molecules mixed with a zero-bond molecule,
    disconnected and lone ions, and the 1,506-atom chain."""
    odd = [parse_smiles(s)[0] for s in
           ("C", "[Na+].[Cl-]", "[NH4+]", "C1CC1" + "C" * 1500 + "C1CC1")]
    pool = odd + [parse_smiles(s)[0] for s in oracles.generated_corpus(4, 30)]
    rng = random.Random(17)
    chunks = [odd, odd[::-1]]
    for size in (1, 2, 5, 9, 16):
        chunks.append([rng.choice(pool) for _ in range(size)])
    return chunks


@pytest.mark.parametrize("radius,width", FP_SHAPES)
def test_fp_block_rows_match_loop_oracle(radius, width):
    oracle = {}
    for chunk in _mixed_chunks():
        bits = morgan_fingerprint(chunk, radius, width)
        assert bits.shape == (len(chunk), width) and bits.dtype == np.uint8
        for g, row in zip(chunk, bits):
            if id(g) not in oracle:
                oracle[id(g)] = oracles.morgan_fingerprint(g, radius, width)
            np.testing.assert_array_equal(row, oracle[id(g)])


def test_fp_row_is_the_same_alone_and_in_any_chunk(golden_smiles):
    graphs = [parse_smiles(s)[0] for s in golden_smiles[:40]]
    alone = [morgan_fingerprint([g])[0] for g in graphs]
    rng = random.Random(3)
    for _ in range(10):
        picks = rng.sample(range(len(graphs)), rng.randint(2, 12))
        bits = morgan_fingerprint([graphs[i] for i in picks])
        for i, row in zip(picks, bits):
            np.testing.assert_array_equal(row, alone[i])


@pytest.mark.parametrize("radius,width", FP_SHAPES)
def test_fp_empty_block(radius, width):
    assert morgan_fingerprint([], radius, width).shape == (0, width)


@pytest.mark.parametrize("graphs", [[], ["C", "CCO"]])
def test_fp_bad_shape_raises_for_any_block(graphs):
    graphs = [parse_smiles(s)[0] for s in graphs]
    with pytest.raises(BadFingerprintShape, match="width"):
        morgan_fingerprint(graphs, width=100)
    with pytest.raises(BadFingerprintShape, match="radius"):
        morgan_fingerprint(graphs, radius=-1)

# ----------------------------------------------------------- functional groups

def test_groups_examples():
    g, _ = parse_smiles("CCO")
    bits = detect_functional_groups(g)
    names = group_names_present(g)
    assert names == ["hydroxyl"]
    assert bits.shape == (24,)
    g, _ = parse_smiles("CC(=O)O")
    assert "carboxylic_acid" in group_names_present(g)
    g, _ = parse_smiles("C")
    assert detect_functional_groups(g).sum() == 0


def test_groups_against_golden_file():
    for raw in (DATA_DIR / "functional_groups_golden.tsv").read_text().splitlines():
        if not raw or raw.startswith("#"):
            continue
        smiles, label_field = raw.split("\t")
        expected = set(label_field.split(","))
        g, _ = parse_smiles(smiles)
        assert set(group_names_present(g)) == expected, smiles


def test_group_catalog_width():
    assert len(GROUP_NAMES) == 24


# ------------------------------------------------------------------- scaffold

def test_scaffold_prunes_to_ring():
    g, _ = parse_smiles("CCc1ccccc1")
    sc = murcko_scaffold(g)
    assert sc.m == 6
    assert all(a.aromatic for a in sc.atoms)


def test_scaffold_acyclic_empty():
    g, _ = parse_smiles("CCO")
    assert murcko_scaffold(g).m == 0


def test_scaffold_ring_fixpoint():
    g, _ = parse_smiles("c1ccccc1")
    sc = murcko_scaffold(g)
    assert sc.m == 6
    assert scaffold_key(g) == scaffold_key(sc)


def test_scaffold_keeps_linkers():
    g, _ = parse_smiles("c1ccccc1CCc1ccccc1")
    assert murcko_scaffold(g).m == 14


def _assert_scaffold_keeps(graph, keep):
    """The scaffold is ``graph``'s atoms ``keep`` in order, with the bonds
    among them in bond order."""
    sc = murcko_scaffold(graph)
    assert [(a.element, a.aromatic, a.formal_charge, a.chirality) for a in sc.atoms] == \
        [(a.element, a.aromatic, a.formal_charge, a.chirality)
         for a in (graph.atoms[i] for i in keep)]
    new = {old: k for k, old in enumerate(keep)}
    assert [(b.a, b.b, b.order) for b in sc.bonds] == \
        [(new[b.a], new[b.b], b.order) for b in graph.bonds if b.a in new and b.b in new]


def test_scaffold_keeps_the_fixpoint_oracles_atoms(golden_smiles):
    for s in golden_smiles + oracles.generated_corpus(3, 500):
        g, _ = parse_smiles(s)
        _assert_scaffold_keeps(g, oracles.murcko_keep(g))


@pytest.mark.parametrize("smiles", [
    "C" * 400, "C1CC1" + "C" * 400 + "C1CC1", "c1ccccc1" + "C" * 2000,
    "c1ccccc1" + "C(C)" * 200 + "c1ccccc1", "C(CC)(CC)(CC)C1CC1" + "C(=O)" * 50,
    "[Na+].[Cl-].c1ccccc1", "C1CC1.CCCC"])
def test_scaffold_of_chains_and_tails_keeps_the_oracles_atoms(smiles):
    g, _ = parse_smiles(smiles)
    _assert_scaffold_keeps(g, oracles.murcko_keep(g))


def test_scaffold_split_one_group():
    tr, va, te = scaffold_split(["k"] * 7)
    assert (len(tr), len(va), len(te)) == (7, 0, 0)


def test_scaffold_split_singletons():
    tr, va, te = scaffold_split([str(i) for i in range(10)])
    assert (len(tr), len(va), len(te)) == (8, 1, 1)


def test_scaffold_split_partition_and_purity(golden_smiles):
    keys = [scaffold_key(parse_smiles(s)[0]) for s in golden_smiles[:150]]
    tr, va, te = scaffold_split(keys)
    all_idx = sorted(tr + va + te)
    assert all_idx == list(range(len(keys)))
    split_of = {}
    for name, part in (("tr", tr), ("va", va), ("te", te)):
        for i in part:
            split_of[i] = name
    for key in set(keys):
        members = {split_of[i] for i, k in enumerate(keys) if k == key}
        assert len(members) == 1, key


def test_scaffold_split_deterministic(golden_smiles):
    keys = [scaffold_key(parse_smiles(s)[0]) for s in golden_smiles[:80]]
    assert scaffold_split(keys) == scaffold_split(list(keys))


def test_scaffold_split_errors():
    with pytest.raises(EmptyCorpus):
        scaffold_split([])
