"""Fragment cleavage and token-labeling tests."""

import pytest
from hypothesis import given, settings, strategies as st

from chemfuse.chem import BondOrder, SmilesError, parse_smiles
from chemfuse.fragments import (
    COMPATIBLE_PAIRS,
    FragmentOutOfRange,
    OrphanSymbol,
    atom_environments,
    brics_cleave,
    build_fragment_map,
    label_smiles_tokens,
)

import oracles
from oracles import fragment_members


def test_single_atom_one_fragment():
    g, _ = parse_smiles("C")
    k, l_g, cleaved = brics_cleave(g)
    assert (k, l_g, cleaved) == (1, [0], [])


def test_amide_cleavage_n_methylbenzamide():
    g, _ = parse_smiles("c1ccccc1C(=O)NC")
    k, l_g, cleaved = brics_cleave(g)
    assert k == 2
    assert l_g == [0] * 8 + [1, 1]
    assert len(cleaved) == 1
    bond = g.bonds[cleaved[0]]
    elems = {g.atoms[bond.a].element, g.atoms[bond.b].element}
    assert elems == {"C", "N"}


def test_ether_cleavage_both_sides():
    g, _ = parse_smiles("CCOCC")
    k, l_g, cleaved = brics_cleave(g)
    assert k == 3
    assert l_g == [0, 0, 1, 2, 2]
    assert len(cleaved) == 2


def test_ester_cleavage_acyl_oxygen():
    g, _ = parse_smiles("CC(=O)OC")
    k, l_g, _ = brics_cleave(g)
    assert k == 2
    assert l_g == [0, 0, 0, 1, 1]


def test_cleavage_never_splits_rings(golden_smiles):
    for s in golden_smiles:
        g, _ = parse_smiles(s)
        _, _, cleaved = brics_cleave(g)
        for bi in cleaved:
            bond = g.bonds[bi]
            assert not bond.in_ring, s
            assert bond.order is BondOrder.SINGLE, s


def test_fragments_connected_and_ordered(golden_smiles):
    for s in golden_smiles[:120]:
        g, _ = parse_smiles(s)
        k, l_g, cleaved = brics_cleave(g)
        assert len(l_g) == g.m
        assert set(l_g) == set(range(k))
        # Ids are ordered by smallest contained atom index.
        first_atom = [min(i for i in range(g.m) if l_g[i] == frag) for frag in range(k)]
        assert first_atom == sorted(first_atom)
        # Each fragment stays connected once cleaved bonds are removed.
        removed = set(cleaved)
        for frag in range(k):
            members = {i for i in range(g.m) if l_g[i] == frag}
            seen = {min(members)}
            queue = [min(members)]
            while queue:
                node = queue.pop()
                for bi in g.adjacency[node]:
                    if bi in removed:
                        continue
                    nxt = g.bonds[bi].other(node)
                    if nxt in members and nxt not in seen:
                        seen.add(nxt)
                        queue.append(nxt)
            assert seen == members, s


def test_environment_pair_walkthrough_oracle():
    # Re-derive cleavability bond by bond, straight from the table.
    for s in ("CC(=O)OC", "CCOCC", "c1ccccc1C(=O)NC", "CC(=O)N1CCCCC1",
              "c1ccc(cc1)n1cccc1", "C[S](=O)(=O)NC", "CCc1ccccc1"):
        g, _ = parse_smiles(s)
        _, _, cleaved = brics_cleave(g)
        expected = []
        for bi, bond in enumerate(g.bonds):
            if bond.order is not BondOrder.SINGLE or bond.in_ring:
                continue
            ea = atom_environments(g, bond.a)
            eb = atom_environments(g, bond.b)
            if any(frozenset((x, y)) in COMPATIBLE_PAIRS for x in ea for y in eb):
                expected.append(bi)
        assert cleaved == expected, s



def test_cleave_matches_per_bond_oracle(golden_smiles):
    # Each atom's environments are computed once per molecule; the oracle
    # recomputes them for every bond and must agree.
    for s in golden_smiles + oracles.generated_corpus(5, 40):
        g, _ = parse_smiles(s)
        assert brics_cleave(g) == oracles.brics_cleave(g), s


def test_atom_environments_match_all_rules_oracle(golden_smiles):
    # Only the rules for an atom's element are tried; trying all gives the same.
    for s in golden_smiles + oracles.generated_corpus(5, 200):
        g, _ = parse_smiles(s)
        for i in range(g.m):
            assert atom_environments(g, i) == oracles.atom_environments(g, i), (s, i)


# ----------------------------------------------------------------- token labels

def test_label_rule_example_ester():
    g, t = parse_smiles("CC(=O)OC")
    l_s = label_smiles_tokens(t, g, [0, 0, 0, 1, 1])
    assert l_s == [0, 0, 0, 0, 0, 0, 1, 1]


def test_label_single_fragment_all_zero():
    g, t = parse_smiles("CCCC")
    assert label_smiles_tokens(t, g, [0, 0, 0, 0]) == [0, 0, 0, 0]


def test_label_ring_digits_follow_left_atom():
    g, t = parse_smiles("c1ccccc1O")
    l_s = label_smiles_tokens(t, g, [0, 0, 0, 0, 0, 0, 1])
    # tokens: c 1 c c c c c 1 O
    assert l_s == [0, 0, 0, 0, 0, 0, 0, 0, 1]


def test_label_parentheses_rules():
    g, t = parse_smiles("CC(=O)OC")
    l_s = label_smiles_tokens(t, g, [0, 0, 1, 2, 3])
    # '(' takes the next atom inside; ')' the last atom enclosed; '=' its
    # left nearest atom (the bond starts there).
    assert l_s == [0, 0, 1, 0, 1, 1, 2, 3]


def test_label_stereo_and_dot():
    g, t = parse_smiles("C[C@@H](N)Cl.O")
    k, l_g, _ = brics_cleave(g)
    l_s = label_smiles_tokens(t, g, l_g)
    texts = [tok.text for tok in t.tokens]
    dot_label = l_s[texts.index(".")]
    # '.' follows its left nearest atom (the Cl).
    assert dot_label == l_g[3]


def test_label_orphan_symbol():
    g, t = parse_smiles("CC")
    from chemfuse.chem import tokenize
    bad = tokenize("=CC")  # unparseable, but labeling is its own contract
    g2, _ = parse_smiles("CC")
    with pytest.raises(OrphanSymbol):
        label_smiles_tokens(bad, g2, [0, 0])


@pytest.mark.parametrize("text, message", [
    ("=CC", "token 0 ('=') has no atom to its left"),
    ("C(", "token 1 ('(') has no atom to its right"),
    ("=C(", "token 0 ('=') has no atom to its left"),
    ("(=C", "token 1 ('=') has no atom to its left"),
    ("((", "token 0 ('(') has no atom to its right"),
    ("(=", "token 0 ('(') has no atom to its right"),
])
def test_label_first_orphan_message(text, message):
    from chemfuse.chem import MolecularGraph, tokenize
    tokens = tokenize(text)
    atoms = sum(tok.is_atom for tok in tokens.tokens)
    graph = parse_smiles("C" * atoms)[0] if atoms else MolecularGraph()
    with pytest.raises(OrphanSymbol) as info:
        label_smiles_tokens(tokens, graph, [0] * atoms)
    assert str(info.value) == message


def test_label_totality_and_heavy_atom_agreement(golden_smiles):
    for s in golden_smiles:
        g, t = parse_smiles(s)
        fmap = build_fragment_map(t, g)
        assert len(fmap.l_s) == t.n
        assert len(fmap.l_g) == g.m
        assert all(0 <= x < fmap.K for x in fmap.l_s)
        assert all(0 <= x < fmap.K for x in fmap.l_g)
        for k in range(fmap.K):
            atoms, toks = fragment_members(fmap, k)
            atom_elems = sorted(g.atoms[i].element for i in atoms)
            token_elems = []
            for ti in toks:
                tok = t.tokens[ti]
                if tok.is_atom:
                    token_elems.append(g.atoms[tok.atom_index].element)
            assert atom_elems == sorted(token_elems), (s, k)


def test_determinism_across_runs(golden_smiles):
    for s in golden_smiles[:80]:
        a = build_fragment_map(*parse_smiles(s)[::-1])
        b = build_fragment_map(*parse_smiles(s)[::-1])
        assert a == b


def test_fragment_members_bounds():
    g, t = parse_smiles("CCO")
    fmap = build_fragment_map(t, g)
    atoms, toks = fragment_members(fmap, 0)
    assert atoms == [0, 1, 2] and toks == [0, 1, 2]
    with pytest.raises(FragmentOutOfRange):
        fragment_members(fmap, fmap.K)


#: Branch, dot and ring-bond cases around the parser's branch rule; some
#: parse and some do not.
HAND_WRITTEN = ["C(.)", "CC(.)", "C()", "C(.)C", "C(.C)C", "C(C)(.O)C", "C(1)CC1", "C1CC(C1)",
                "C1.C1", "CC(=O)(O)", "C(C(C(C)))", "c1ccccc1.Cl", "C.(C)", "(C)C", "C(C)C.",
                "C=(C)", "C(=C)", "C(-1)CC1", "C%10CC%10", "[NH4+].[Cl-]", "C(C).C(.N)O"]


def test_every_molecule_that_parses_labels(golden_smiles):
    """Labelling cannot fail on a parsed molecule: every token finds the
    atom its rule names."""
    parsed = 0
    for s in golden_smiles + HAND_WRITTEN:
        try:
            g, t = parse_smiles(s)
        except SmilesError:
            continue
        fmap = build_fragment_map(t, g)
        assert len(fmap.l_s) == t.n and len(fmap.l_g) == g.m
        parsed += 1
    assert parsed > len(golden_smiles) // 2


@settings(max_examples=300, deadline=None)
@given(st.text(alphabet="CNOcn()=#.%0123456789[]H+-", min_size=1, max_size=14))
def test_random_text_that_parses_labels(text):
    try:
        g, t = parse_smiles(text)
    except SmilesError:
        return
    build_fragment_map(t, g)
