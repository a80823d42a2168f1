"""Masking sampler and context-vocabulary tests."""

import numpy as np
import pytest

from chemfuse.chem import parse_smiles
from chemfuse.features import EmptyCorpus
from chemfuse.fragments import build_fragment_map
from chemfuse.masking import (
    MaskConfig,
    Modality,
    Strategy,
    StrategyMismatch,
    build_context_vocab,
    context_key,
    context_keys,
    mask_count,
    sample_ablation_mask,
    sample_fragment_mask,
    sample_token_mask,
)

import oracles


class Record:
    """Minimal stand-in for a pipeline MoleculeRecord."""

    def __init__(self, smiles):
        self.graph, self.tokens = parse_smiles(smiles)
        self.fragment_map = build_fragment_map(self.tokens, self.graph)
        self.token_ids = [3 + i for i in range(self.tokens.n)]
        self.context_ids = [1 + (i % 4) for i in range(self.graph.m)]


def rng(seed=0):
    return np.random.default_rng(seed)


def test_mask_count_formula():
    assert mask_count(10, 0.2) == 2
    assert mask_count(3, 0.2) == 1          # min-1 rule
    assert mask_count(5, 0.6) == 3
    assert mask_count(1, 0.6) == 1
    assert mask_count(0, 0.5) == 0


def test_token_mask_counts_and_targets():
    rec = Record("CC(=O)OCCN")     # 10 tokens, 7 atoms
    cfg = MaskConfig(r_t=0.2)
    sample = sample_token_mask(rec, cfg, rng(1))
    assert len(sample.masked_token_positions) == mask_count(rec.tokens.n, 0.2)
    assert len(sample.masked_atom_positions) == mask_count(rec.graph.m, 0.2)
    assert sample.masked_modality is Modality.NONE
    for pos in sample.masked_token_positions:
        assert sample.token_targets[pos] == rec.token_ids[pos]
    for pos in sample.masked_atom_positions:
        assert sample.atom_context_targets[pos] == rec.context_ids[pos]
    # No targets outside masked positions.
    assert set(sample.token_targets) == set(sample.masked_token_positions)
    assert set(sample.atom_context_targets) == set(sample.masked_atom_positions)


def test_token_mask_deterministic_with_seed():
    rec = Record("c1ccccc1CCO")
    cfg = MaskConfig()
    a = sample_token_mask(rec, cfg, rng(7))
    b = sample_token_mask(rec, cfg, rng(7))
    assert a == b


def test_fragment_mask_modality_exclusive():
    rec = Record("CC(=O)OCC")
    cfg = MaskConfig(r_f=0.6)
    smiles_seen = graph_seen = False
    for seed in range(30):
        s = sample_fragment_mask(rec, cfg, rng(seed))
        assert len(s.masked_fragment_ids) == mask_count(rec.fragment_map.K, 0.6)
        if s.masked_modality is Modality.SMILES:
            smiles_seen = True
            assert s.masked_atom_positions == ()
            assert s.atom_context_targets == {}
            chosen = set(s.masked_fragment_ids)
            expect = tuple(i for i, lab in enumerate(rec.fragment_map.l_s)
                           if lab in chosen)
            assert s.masked_token_positions == expect
        else:
            graph_seen = True
            assert s.masked_token_positions == ()
            assert s.token_targets == {}
    assert smiles_seen and graph_seen


def test_fragment_mask_k1_min_one():
    rec = Record("CCCC")
    assert rec.fragment_map.K == 1
    s = sample_fragment_mask(rec, MaskConfig(), rng(3))
    assert s.masked_fragment_ids == (0,)


def test_ablation_conditional_single_modality_per_sample():
    rec = Record("CCOCC")
    cfg = MaskConfig(strategy=Strategy.CONDITIONAL)
    for seed in range(20):
        s = sample_ablation_mask(rec, cfg, rng(seed))
        has_tokens = bool(s.masked_token_positions)
        has_atoms = bool(s.masked_atom_positions)
        assert has_tokens != has_atoms
        assert s.masked_modality in (Modality.SMILES, Modality.GRAPH)


def test_one_modality_samples_hold_positions_on_their_side_only(golden_smiles):
    """Why the fragment-level loss may read every masked position."""
    records = [Record(s) for s in golden_smiles + oracles.generated_corpus(6, 40)]
    samplers = [(sample_fragment_mask, MaskConfig()),
                (sample_ablation_mask, MaskConfig(strategy=Strategy.CONDITIONAL))]
    for seed in range(5):
        for i, rec in enumerate(records):
            for sampler, cfg in samplers:
                s = sampler(rec, cfg, rng([seed, i]))
                if s.masked_modality is Modality.SMILES:
                    assert s.masked_atom_positions == (), rec.tokens
                else:
                    assert s.masked_modality is Modality.GRAPH
                    assert s.masked_token_positions == (), rec.tokens


def test_ablation_single_modality_masks_both():
    rec = Record("CC(=O)OCCNC")    # n=12 tokens, m=8 atoms
    cfg = MaskConfig(strategy=Strategy.SINGLE_MODALITY, r_t=0.2)
    s = sample_ablation_mask(rec, cfg, rng(11))
    assert len(s.masked_token_positions) == mask_count(rec.tokens.n, 0.2)
    assert len(s.masked_atom_positions) == mask_count(rec.graph.m, 0.2)


def test_ablation_rejects_cmm():
    rec = Record("CC")
    with pytest.raises(StrategyMismatch):
        sample_ablation_mask(rec, MaskConfig(strategy=Strategy.CMM), rng(0))


def test_mask_config_validation():
    with pytest.raises(ValueError):
        MaskConfig(r_t=1.5)


# ------------------------------------------------------------- context vocab

def test_context_vocab_single_carbon():
    g, _ = parse_smiles("C")
    vocab = build_context_vocab([g])
    assert vocab.size == 2      # one key plus Other
    assert vocab.key_to_id == {context_key(g, 0): 0}
    assert vocab.unknown == 1   # Other, the last id
    assert vocab.ids_for(context_keys(parse_smiles("O")[0])) == [vocab.unknown]


def test_context_vocab_ethanol_keys():
    g, _ = parse_smiles("CCO")
    vocab = build_context_vocab([g])
    assert vocab.size == 4      # CH3-C, CH2-(C,O), OH-C, Other
    assert vocab.ids_for(context_keys(g)) == [0, 1, 2]


def test_context_vocab_deterministic(golden_smiles):
    graphs = [parse_smiles(s)[0] for s in golden_smiles[:40]]
    v1 = build_context_vocab(graphs)
    v2 = build_context_vocab(graphs)
    assert v1.key_to_id == v2.key_to_id


def test_context_vocab_empty_corpus():
    with pytest.raises(EmptyCorpus):
        build_context_vocab([])
