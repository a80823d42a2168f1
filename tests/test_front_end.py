"""The front end's outputs equal the loop-by-loop references in ``oracles``.

Tokens, graphs (ring flags included), context classes, functional-group
bits and fragment maps are compared on the golden corpus plus generated
40-100 atom molecules; fingerprints are compared in ``test_features``.
"""

import copy
import gc
from dataclasses import astuple

import pytest

from chemfuse import features, pipeline
from chemfuse.chem import parse_smiles, tokenize
from chemfuse.chem.errors import (
    UnbalancedBracket,
    UnclosedRing,
    UnknownElement,
    UnsupportedFeature,
)
from chemfuse.features import detect_functional_groups
from chemfuse.fragments import build_fragment_map, label_smiles_tokens
from chemfuse.masking import build_context_vocab, context_keys

import oracles


#: Hand-written cases the corpora lack: an aromatic carbon with a double
#: bond to oxygen, thio- and bis-carbonyls, two-digit ring closures, bridged
#: rings, charges, dots and stereo marks; then groups the corpora hold rarely
#: or never (aldehydes, thiols, sulfonamides, sulfones) and near-misses of
#: the acyl, sulfur and nitrile rules: formates, an acyl chloride, a
#: carboxylate, a diaryl ketone, an isocyanide, a ring ether, formaldehyde
#: (the one aldehyde carbon with two hydrogens), and bracket atoms that give
#: a sulfonyl S a double-bonded N or one single bond, and an acyl carbon a
#: C=C bond.
EDGE_CASES = ["O=c1cccc[nH]1", "Cc(=O)NC", "CC(=O)OC(=O)C", "NC(=O)N", "CC(=S)N",
              "O=C1CCCC1=O", "C%10CC%10", "C1CC2CCC1C2", "[O-][N+](=O)c1ccccc1",
              "C=C.C#N", "OC(=O)C(=O)O", "CC(C)(C)OC(=O)N[C@@H](C)C(=O)O",
              "C/C=C/C", "CCO.CC(=O)[O-]",
              "OC(=O)CC(=O)OCC(C=O)NC(=O)c1ccc(O)cc1", "CC(=O)[O-]", "NC=O", "OC=O",
              "CC(=O)Cl", "C[S](=O)(=O)N", "C[S](=O)(=O)C", "CS", "CSC", "[C-]#[N+]C",
              "c1ccccc1C(=O)c1ccccc1", "C1CCOC1", "C=O", "C[S](=O)(=O)=NC", "C[S](=O)=O",
              "C[C](=C)=O"]


@pytest.fixture(scope="module")
def front_end_corpus(golden_smiles):
    return golden_smiles + oracles.generated_corpus(11, 60) + EDGE_CASES


def test_tokens_match_oracle(front_end_corpus):
    for s in front_end_corpus:
        assert tokenize(s).tokens == oracles.tokenize(s).tokens, s


def test_graph_fields_match_oracle_ring_flags(front_end_corpus):
    for s in front_end_corpus:
        graph, _ = parse_smiles(s)
        ref = copy.deepcopy(graph)
        for item in ref.atoms + ref.bonds:
            item.in_ring = not item.in_ring
        oracles.mark_rings(ref)
        assert [astuple(a) for a in graph.atoms] == [astuple(a) for a in ref.atoms], s
        assert [astuple(b) for b in graph.bonds] == [astuple(b) for b in ref.bonds], s


def test_context_ids_match_oracle(front_end_corpus):
    graphs = [parse_smiles(s)[0] for s in front_end_corpus]
    vocab = build_context_vocab(graphs)
    assert [vocab.ids_for(context_keys(g)) for g in graphs] == oracles.context_ids(graphs)


def _groups_and_fragments(smiles):
    graph, tokens = parse_smiles(smiles)
    return detect_functional_groups(graph).tolist(), build_fragment_map(tokens, graph)


def test_groups_and_fragments_match_oracle_acyl_carbons(front_end_corpus, monkeypatch):
    got = [_groups_and_fragments(s) for s in front_end_corpus]
    for s, (groups, _) in zip(front_end_corpus, got):
        assert groups == oracles.functional_groups(parse_smiles(s)[0]), s
    monkeypatch.setattr(features, "acyl_carbons", lambda g: tuple(
        i for i in range(g.m) if oracles.is_carbonyl_carbon(g, i)))
    for s, (groups, fmap) in zip(front_end_corpus, got):
        graph, tokens = parse_smiles(s)
        assert groups == detect_functional_groups(graph).tolist(), s
        k, l_g, _ = oracles.brics_cleave(graph)
        assert (fmap.K, list(fmap.l_g)) == (k, l_g), s
        assert list(fmap.l_s) == label_smiles_tokens(tokens, graph, l_g), s


@pytest.mark.parametrize("smiles, error, message", [
    ("[C", UnbalancedBracket, "'[' at byte 0 never closed in '[C'"),
    ("C C", UnsupportedFeature, "unsupported character ' '"),
    ("C$C", UnsupportedFeature, "quadruple bonds are not supported"),
    ("Xx", UnknownElement, "unknown atom symbol 'X'"),
    ("C%1", UnclosedRing, "ring closure digit(s) never closed: %, 1"),
])
def test_malformed_input_errors_are_unchanged(smiles, error, message):
    with pytest.raises(error) as caught:
        parse_smiles(smiles)
    assert type(caught.value) is error and str(caught.value) == message


@pytest.mark.parametrize("enabled", [True, False])
def test_ingest_and_prepare_records_restore_the_collector(enabled, tmp_path):
    good = tmp_path / "good.smi"
    good.write_text("CCO\nc1ccccc1\n")
    bad = tmp_path / "bad.smi"
    bad.write_text("C(\n")
    was = gc.isenabled()
    (gc.enable if enabled else gc.disable)()
    try:
        corpus = pipeline.ingest(good)
        assert gc.isenabled() is enabled
        vocab = pipeline.build_vocabulary(m.tokens for m in corpus.molecules)
        context = build_context_vocab(m.graph for m in corpus.molecules)
        pipeline.prepare_records(corpus, vocab, context, fingerprint_width=64)
        assert gc.isenabled() is enabled
        with pytest.raises(pipeline.AllLinesFailed):
            pipeline.ingest(bad)
        assert gc.isenabled() is enabled
    finally:
        (gc.enable if was else gc.disable)()
