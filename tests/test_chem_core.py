"""Tokenizer, parser, writer, and canonical-rank tests."""

import random

import pytest
from hypothesis import given, strategies as st

from chemfuse.chem import (
    BondOrder,
    DanglingBond,
    EmptyInput,
    MolecularGraph,
    SizeLimitExceeded,
    SmilesError,
    UnbalancedBracket,
    UnclosedRing,
    UnknownElement,
    UnsupportedFeature,
    VALENCE_TABLE,
    ValenceOverflow,
    are_isomorphic,
    canonical_ranks,
    parse_smiles,
    tokenize,
    write_smiles,
)
from chemfuse.chem.canon import _refine

import oracles
from conftest import permute_graph


# ---------------------------------------------------------------- tokenizer

def test_tokenize_furan_example():
    seq = tokenize("c1ccc(CO)o1")
    assert [t.text for t in seq.tokens] == ["c", "1", "c", "c", "c", "(", "C", "O", ")", "o", "1"]
    assert seq.n == 11


def test_tokenize_simple_chain():
    assert [t.text for t in tokenize("CCO").tokens] == ["C", "C", "O"]


def test_tokenize_bracket_and_halogen():
    seq = tokenize("C[C@@H](N)Cl")
    assert [t.text for t in seq.tokens] == ["C", "[C@@H]", "(", "N", ")", "Cl"]
    assert seq.n == 6


def test_tokenize_spans_and_reassembly():
    s = "C%12CCCCCCCCCCC%12Br"
    seq = tokenize(s)
    assert "".join(t.text for t in seq.tokens) == s
    # Spans are contiguous and non-overlapping.
    pos = 0
    for t in seq.tokens:
        assert t.char_span == (pos, pos + len(t.text))
        pos += len(t.text)


def test_tokenize_atom_indices_in_order():
    seq = tokenize("CC(=O)OC")
    atom_tokens = [t for t in seq.tokens if t.is_atom]
    assert [t.atom_index for t in atom_tokens] == [0, 1, 2, 3, 4]
    assert all(t.atom_index is None for t in seq.tokens if not t.is_atom)


def test_tokenize_errors():
    with pytest.raises(EmptyInput):
        tokenize("")
    with pytest.raises(UnbalancedBracket):
        tokenize("C[NH2")


@given(st.text(alphabet="CNOSPclnos()[]1234567890=#-+@/\\.%Br", min_size=1, max_size=40))
def test_tokenize_totality(s):
    try:
        seq = tokenize(s)
    except (EmptyInput, UnbalancedBracket):
        return
    assert "".join(t.text for t in seq.tokens) == s


# ------------------------------------------------------------------- parser

def test_parse_ethanol():
    g, seq = parse_smiles("CCO")
    assert g.m == 3
    assert len(g.bonds) == 2
    assert all(b.order is BondOrder.SINGLE for b in g.bonds)
    assert [a.implicit_h for a in g.atoms] == [3, 2, 1]


def test_parse_benzene():
    g, _ = parse_smiles("c1ccccc1")
    assert g.m == 6
    assert len(g.bonds) == 6
    assert all(b.order is BondOrder.AROMATIC for b in g.bonds)
    assert all(b.in_ring for b in g.bonds)
    assert all(a.in_ring and a.aromatic for a in g.atoms)


def test_parse_ammonium():
    g, _ = parse_smiles("[NH4+]")
    assert g.m == 1
    a = g.atoms[0]
    assert a.formal_charge == 1
    assert a.explicit_h == 4
    assert len(g.bonds) == 0


@pytest.mark.parametrize("smiles, charge, hydrogens", [
    ("[C-20]", -20, 0), ("[Fe++]", 2, 0), ("[O--]", -2, 0), ("[NH4+]", 1, 4),
    ("[CH]", 0, 1), ("[Co+3]", 3, 0)])
def test_parse_bracket_charge_and_hcount(smiles, charge, hydrogens):
    atom = parse_smiles(smiles)[0].atoms[0]
    assert (atom.formal_charge, atom.explicit_h) == (charge, hydrogens)


@pytest.mark.parametrize("smiles", ["[C-100]", "[C+999]", "[C+++]", "[O---]",
                                    "[NH10]", "[CH99999999999999999999]"])
def test_parse_rejects_brackets_outside_the_grammar(smiles):
    with pytest.raises(SmilesError, match="malformed bracket atom"):
        parse_smiles(smiles)


def test_parse_provenance_bijection():
    g, seq = parse_smiles("CC(=O)N[C@H]1CCCC1.O")
    atom_tokens = [i for i, t in enumerate(seq.tokens) if t.is_atom]
    assert len(atom_tokens) == g.m
    for atom_id, tok_idx in enumerate(atom_tokens):
        assert seq.tokens[tok_idx].atom_index == atom_id
        assert g.atoms[atom_id].source_token == tok_idx


def test_parse_ring_bond_order_and_percent():
    g, _ = parse_smiles("C%10CCCC%10")
    assert len(g.bonds) == 5
    g2, _ = parse_smiles("C=1CCCCC=1")
    closure = g2.bond_between(0, 5)
    assert closure is not None and closure.order is BondOrder.DOUBLE


def test_parse_charges_and_dots():
    g, _ = parse_smiles("[Na+].[O-]C(=O)C")
    assert g.m == 5
    charges = sorted(a.formal_charge for a in g.atoms)
    assert charges == [-1, 0, 0, 0, 1]
    assert len(g.connected_components()) == 2


def test_connected_components_leave_out_cut_bonds():
    g, _ = parse_smiles("CCOC(=O)C.N")
    assert g.connected_components() == [[0, 1, 2, 3, 4, 5], [6]]
    assert g.connected_components(cut={1, 4}) == [[0, 1], [2, 3, 4], [5], [6]]


def test_parse_stereo_bonds():
    g, _ = parse_smiles("C/C=C/C")
    assert g.bond_between(1, 2).order is BondOrder.DOUBLE


def test_parse_errors():
    with pytest.raises(UnclosedRing):
        parse_smiles("C1CCC")
    with pytest.raises(DanglingBond):
        parse_smiles("CC=")
    with pytest.raises(DanglingBond):
        parse_smiles("=CC")
    with pytest.raises(DanglingBond):
        parse_smiles(".C")
    with pytest.raises(UnknownElement):
        parse_smiles("CXC")
    with pytest.raises(ValenceOverflow):
        parse_smiles("C(C)(C)(C)(C)C")
    with pytest.raises(UnsupportedFeature):
        parse_smiles("[13CH4]")
    with pytest.raises(UnsupportedFeature):
        parse_smiles("C$C")
    with pytest.raises(UnsupportedFeature):
        parse_smiles("C*")
    # OpenSMILES: a branch holds a chain, so one that adds no atom is empty.
    for empty_branch in ("B()", "C()C", "C(C)()C", "C(.)", "CC(.)", "C(.)C", "C(1)CC1"):
        with pytest.raises(SmilesError, match="empty branch"):
            parse_smiles(empty_branch)


def test_implicit_h_conservation_aliphatic():
    g, _ = parse_smiles("NC(=O)c1ccccc1SC#N")
    for i, atom in enumerate(g.atoms):
        if atom.explicit_h is not None or atom.aromatic:
            continue
        assert atom.implicit_h + int(g.valence_sum(i)) == VALENCE_TABLE[atom.element]



def test_neighbors_follow_adjacency_order(golden_smiles):
    # The neighbour table is built beside adjacency as bonds are added; it
    # must list the same bonds in the same order, for parsed graphs and for
    # graphs rebuilt from a subset of atoms.
    from chemfuse.features import murcko_scaffold

    for s in golden_smiles:
        g, _ = parse_smiles(s)
        for graph in (g, murcko_scaffold(g)):
            for i in range(graph.m):
                pairs = graph.neighbors(i)
                assert [j for j, _ in pairs] == [
                    graph.bonds[bi].other(i) for bi in graph.adjacency[i]], s
                assert all(bond is graph.bonds[bi]
                           for (_, bond), bi in zip(pairs, graph.adjacency[i])), s


def test_parse_rejects_a_second_bond_between_two_atoms():
    with pytest.raises(DanglingBond, match="duplicate bond"):
        parse_smiles("C12CC12")


# ------------------------------------------------------------------- writer

def test_write_roundtrip_small():
    g, _ = parse_smiles("CCO")
    g2, _ = parse_smiles(write_smiles(g))
    assert g2.m == 3 and len(g2.bonds) == 2
    assert are_isomorphic(g, g2)


def test_write_single_carbon():
    g, _ = parse_smiles("C")
    assert write_smiles(g) == "C"


def test_write_phenol_roundtrip():
    g, _ = parse_smiles("c1ccccc1O")
    g2, _ = parse_smiles(write_smiles(g))
    assert g2.m == 7 and len(g2.bonds) == 7
    assert are_isomorphic(g, g2)


def test_write_preserves_biphenyl_single_bond():
    g, _ = parse_smiles("c1ccccc1-c1ccccc1")
    g2, _ = parse_smiles(write_smiles(g))
    assert are_isomorphic(g, g2)
    singles = [b for b in g2.bonds if b.order is BondOrder.SINGLE]
    assert len(singles) == 1


def test_write_charged_and_bracket():
    for s in ("[NH4+]", "[O-]C(=O)C", "C[C@@H](N)Cl", "[Na+].[Cl-]"):
        g, _ = parse_smiles(s)
        g2, _ = parse_smiles(write_smiles(g))
        assert are_isomorphic(g, g2), s


# ------------------------------------------------------------ canonical ranks

def test_ranks_oxygen_stable_under_order():
    g1, _ = parse_smiles("CCO")
    g2, _ = parse_smiles("OCC")
    r1, r2 = canonical_ranks(g1), canonical_ranks(g2)
    # Oxygen receives the same rank regardless of input order.
    assert r1[2] == r2[0]
    assert sorted(r1) == sorted(r2)


def test_ranks_symmetric_atoms_share():
    g, _ = parse_smiles("CC")
    r = canonical_ranks(g)
    assert r[0] == r[1]


def test_ranks_permutation_invariant_benzene():
    g, _ = parse_smiles("c1ccccc1")
    rng = random.Random(7)
    base = sorted(canonical_ranks(g))
    for _ in range(25):
        assert sorted(canonical_ranks(permute_graph(g, rng))) == base


def test_ranks_permutation_invariance_many(golden_smiles):
    rng = random.Random(11)
    mols = golden_smiles[:20]
    for s in mols:
        g, _ = parse_smiles(s)
        ref = sorted(canonical_ranks(g))
        for _ in range(5):
            assert sorted(canonical_ranks(permute_graph(g, rng))) == ref, s


@pytest.fixture(scope="module")
def rank_graphs(golden_smiles):
    """golden_500.smi plus 500 generated 40-100 atom molecules."""
    return [parse_smiles(s)[0] for s in golden_smiles + oracles.generated_corpus(3, 500)]


def test_ranks_equal_the_tuple_oracle(rank_graphs):
    for g in rank_graphs:
        assert _refine([g]) == oracles.refine([g])


def test_joint_ranks_equal_the_tuple_oracle(rank_graphs):
    rng = random.Random(5)
    for _ in range(750):
        pair = rng.sample(rank_graphs, 2)
        assert _refine(pair) == oracles.refine(pair)


@pytest.mark.parametrize("smiles", [
    "C", "CC", "[Na+].[Cl-]", "C1CC1" + "C" * 300 + "C1CC1", "c1ccccc1" + "C(C)" * 80,
    "C1CC2CCC1CC2", "C12C3C4C1C5C2C3C45"])
def test_ranks_of_chains_and_cages_equal_the_tuple_oracle(smiles):
    g, _ = parse_smiles(smiles)
    assert _refine([g]) == oracles.refine([g])
    assert _refine([g, MolecularGraph(), g]) == oracles.refine([g, MolecularGraph(), g])
    assert _refine([]) == [] and _refine([MolecularGraph()]) == [[]]


# --------------------------------------------------------------- isomorphism

def test_iso_trivial_cases():
    a, _ = parse_smiles("CCO")
    b, _ = parse_smiles("OCC")
    c, _ = parse_smiles("CCN")
    assert are_isomorphic(a, b)
    assert not are_isomorphic(a, c)


def test_iso_ring_translation():
    a, _ = parse_smiles("C1CC1C")
    b, _ = parse_smiles("CC1CC1")
    assert are_isomorphic(a, b)


def test_iso_respects_bond_orders():
    a, _ = parse_smiles("C=CCC")
    b, _ = parse_smiles("CC=CC")
    assert not are_isomorphic(a, b)


def test_iso_size_limit():
    big = "C" * 65
    a, _ = parse_smiles(big)
    with pytest.raises(SizeLimitExceeded):
        are_isomorphic(a, a)


def test_iso_permutation(golden_smiles):
    rng = random.Random(3)
    for s in golden_smiles[:15]:
        g, _ = parse_smiles(s)
        assert are_isomorphic(g, permute_graph(g, rng)), s
