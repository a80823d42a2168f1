"""Encoder assembly tests: joint encoding, pooling, attention dumps."""

import re

import numpy as np
import pytest

from chemfuse.chem import parse_smiles
from chemfuse.encoder import (
    MASK_ID,
    JointEncoding,
    ModelConfig,
    MoleculeEncoder,
    ParamFactory,
    PositionOverflow,
)
from chemfuse.errors import ConfigError
from chemfuse.fragments import FragmentMap, FragmentOutOfRange, build_fragment_map
from chemfuse.nn import CheckpointCorrupt, concat_rows, constant, mean_rows

from conftest import load_corpus_lines

CFG = ModelConfig(vocab_size=24, context_vocab_size=12, dim=16, transformer_layers=2,
                  heads=4, gnn_layers=2, gnn_width=8, max_positions=64,
                  fingerprint_width=32, n_groups=6)


def make_encoder(seed=0):
    return MoleculeEncoder(CFG, seed=seed)


def ids_for(tokens):
    return [3 + (i % 10) for i in range(tokens.n)]


def test_config_validation():
    with pytest.raises(ValueError):
        ModelConfig(vocab_size=24, context_vocab_size=4, dim=10, heads=4)


def test_param_factory_raises_config_error_when_a_shape_cannot_be_allocated():
    class NoMemory:
        """A generator whose every draw fails as numpy's does for an array
        larger than the machine can hold."""

        def normal(self, *args, **kwargs):
            raise MemoryError("Unable to allocate 8.00 PiB")

        uniform = normal

    factory = ParamFactory({}, NoMemory())
    with pytest.raises(ConfigError, match=r"parameter emb of shape \(17592186044416, 64\)"):
        factory.embedding("emb", 2 ** 44, 64)
    with pytest.raises(ConfigError, match="parameter lin_w of shape"):
        factory.linear("lin", 64, 2 ** 44)
    # numpy refuses a dimension past its largest before allocating anything.
    with pytest.raises(ConfigError, match="Maximum allowed dimension exceeded"):
        ParamFactory({}, np.random.default_rng(0)).layer_norm("ln", 2 ** 70)
    assert factory.store == {}


class NoDraws:
    """A generator whose every method fails: a table-fed factory draws nothing."""

    def __getattr__(self, name):
        raise AssertionError(f"drew from the RNG: {name}")


def test_param_factory_takes_each_parameter_from_its_table():
    table = {"lin_w": np.arange(6.0).reshape(2, 3), "lin_b": np.zeros((1, 3)),
             "emb": np.full((4, 2), 0.25), "ln_g": np.ones((1, 2)), "ln_b": np.zeros((1, 2))}
    factory = ParamFactory({}, NoDraws(), table)
    w, b = factory.linear("lin", 2, 3)
    emb = factory.embedding("emb", 4, 2)
    factory.layer_norm("ln", 2)
    assert list(factory.store) == ["lin_w", "lin_b", "emb", "ln_g", "ln_b"]
    for name, param in factory.store.items():
        assert param.data.tobytes() == table[name].tobytes()
    assert w.data.shape == (2, 3) and emb.data.shape == (4, 2)


@pytest.mark.parametrize("table,refused", [
    ({}, "'lin_w' of shape (2, 3)"),
    ({"lin_w": np.zeros((3, 2))}, "'lin_w' of shape (2, 3)"),
    ({"lin_w": np.zeros((2, 3)), "lin_b": np.array([[0.0, np.nan, 0.0]])},
     "'lin_b' of shape (1, 3)"),
])
def test_param_factory_refuses_a_table_tensor_at_its_name(table, refused):
    """A missing name, a transposed shape or a NaN is refused at that tensor."""
    factory = ParamFactory({}, NoDraws(), table)
    with pytest.raises(CheckpointCorrupt, match=re.escape(f"no finite tensor {refused}")):
        factory.linear("lin", 2, 3)


def test_embed_smiles_position_term():
    enc = make_encoder()
    rows = enc.embed_smiles([[5, 5]]).data
    assert not np.allclose(rows[0], rows[1])


def test_embed_smiles_mask_independence():
    enc = make_encoder()
    a = enc.embed_smiles([[5, 6]], masked_positions=[(1,)]).data
    b = enc.embed_smiles([[5, 9]], masked_positions=[(1,)]).data
    np.testing.assert_array_equal(a, b)
    np.testing.assert_array_equal(
        a[1], (enc.tok_emb.data[MASK_ID] + enc.pos_emb.data[1]))


def test_embed_smiles_overflow():
    enc = make_encoder()
    with pytest.raises(PositionOverflow):
        enc.embed_smiles([[3] * (CFG.max_positions + 1)])


def test_embed_graph_deterministic_and_mask_perturbs():
    enc = make_encoder()
    g, _ = parse_smiles("CCO")
    base = enc.embed_graph([g]).data
    np.testing.assert_array_equal(base, enc.embed_graph([g]).data)
    masked = enc.embed_graph([g], masked_atoms=[(0,)]).data
    assert not np.allclose(base[0], masked[0])
    # With >= 1 message-passing layer the neighbor row moves too.
    assert not np.allclose(base[1], masked[1])


def test_embed_graph_equivariant():
    import random
    from conftest import permute_graph

    enc = make_encoder()
    g, _ = parse_smiles("NC(=O)c1ccccc1O")
    base = enc.embed_graph([g]).data
    perm = permute_graph(g, random.Random(3))
    mapping = {
        new: next(old for old in range(g.m)
                  if g.atoms[old].source_token == perm.atoms[new].source_token)
        for new in range(perm.m)
    }
    out = enc.embed_graph([perm]).data
    for new, old in mapping.items():
        np.testing.assert_allclose(out[new], base[old], atol=1e-10)


def test_joint_encode_x_cls_is_row_mean():
    np.testing.assert_allclose(
        mean_rows(constant([[1.0, 3.0], [3.0, 1.0]])).data, [[2.0, 2.0]], atol=0)
    enc = make_encoder()
    g, t = parse_smiles("CC(=O)OC")
    encoding = enc.encode([ids_for(t)], [g])
    np.testing.assert_allclose(encoding.x_cls.data[0],
                               encoding.x.data.mean(axis=0), atol=1e-12)


@pytest.mark.parametrize("layers", [0, 1, 2])
def test_encode_keeps_only_the_read_rows(layers):
    """A view given read positions keeps their rows, in the order given and
    bitwise as the all-rows forward computes them, and has no x_cls row;
    a view given None keeps every row and its x_cls."""
    from dataclasses import replace

    enc = MoleculeEncoder(replace(CFG, transformer_layers=layers), seed=2)
    mols = [parse_smiles(s) for s in ("CC(=O)OC", "c1ccccc1O", "CCN")]
    ids = [ids_for(t) for _, t in mols]
    graphs = [g for g, _ in mols]
    masked_tokens, masked_atoms = [(1,), (), (0, 2)], [(0,), (3,), ()]
    read = [(1, 8 + 0), None, (2, 0)]       # token 1 and atom 0 of view 0
    full = enc.encode(ids, graphs, masked_tokens, masked_atoms)
    kept = enc.encode(ids, graphs, masked_tokens, masked_atoms, read=read)
    assert kept.x.shape[0] == 2 + len(ids[1]) + graphs[1].m + 2
    assert kept.x_cls.shape[0] == 1
    np.testing.assert_array_equal(kept.x_cls.data[0], full.x_cls.data[1])
    for k, positions in enumerate(read):
        positions = positions or range(len(ids[k]) + graphs[k].m)
        np.testing.assert_array_equal(kept.x.data[kept.rows(k, positions)],
                                      full.x.data[full.rows(k, positions)])
    assert kept.rows(2, (0, 2)) == [kept.starts[2] + 1, kept.starts[2]]
    assert kept.views(range(0, 1)).x_cls is None
    with pytest.raises(FragmentOutOfRange):
        enc.pool_fragments(kept, [build_fragment_map(t, g) for g, t in mols])


def test_encode_embeds_a_repeated_side_once(monkeypatch):
    """Views that hold the same token-id list or graph object under the same
    mask share one embedded side, and their rows are bitwise those of the
    same views given as distinct copies."""
    calls = {"embed_smiles": [], "embed_graph": []}
    for name in calls:
        original = getattr(MoleculeEncoder, name)

        def counted(self, sides, *args, _original=original, _name=name):
            calls[_name].append(len(sides))
            return _original(self, sides, *args)

        monkeypatch.setattr(MoleculeEncoder, name, counted)
    enc = make_encoder()
    smiles = ["CC(=O)OC", "c1ccccc1N", "CC(=O)OC", "CC(=O)OC"]
    masked_tokens = [(1,), (), (), (1,)]
    masked_atoms = [(), (0,), (), ()]
    g, t = parse_smiles(smiles[0])
    h, u = parse_smiles(smiles[1])
    ids = ids_for(t)
    shared = enc.encode([ids, ids_for(u), ids, ids], [g, h, g, g],
                        masked_tokens, masked_atoms)
    assert calls == {"embed_smiles": [3], "embed_graph": [2]}
    graphs, token_lists = zip(*(parse_smiles(s) for s in smiles))
    copies = enc.encode([ids_for(tokens) for tokens in token_lists], list(graphs),
                        masked_tokens, masked_atoms)
    assert calls == {"embed_smiles": [3, 4], "embed_graph": [2, 4]}
    assert (shared.n, shared.m, shared.starts) == (copies.n, copies.m, copies.starts)
    np.testing.assert_array_equal(shared.x.data, copies.x.data)
    np.testing.assert_array_equal(shared.x_cls.data, copies.x_cls.data)


def _joint_input(enc, tokens, graph):
    """One view's joint input rows: its token rows, then its atom rows."""
    return concat_rows([enc.embed_smiles([ids_for(tokens)]), enc.embed_graph([graph])])


def test_joint_encode_cross_modality_reach():
    enc = make_encoder()
    g, t = parse_smiles("CCO")
    z = _joint_input(enc, t, g)
    base = enc.joint_encode(z, (t.n,), (g.m,), [False]).x.data
    bumped = constant(z.data.copy())
    bumped.data[t.n] += 0.1     # the first atom row
    after = enc.joint_encode(bumped, (t.n,), (g.m,), [False]).x.data
    n = t.n
    for i in range(n):     # every SMILES row feels the graph perturbation
        assert np.abs(after[i] - base[i]).max() > 0


def test_joint_encode_block_mask_isolates_modalities():
    enc = make_encoder()
    g, t = parse_smiles("CCO")
    z = _joint_input(enc, t, g)
    base = enc.joint_encode(z, (t.n,), (g.m,), [True]).x.data
    bumped = constant(z.data.copy())
    bumped.data[t.n + 1] += 0.5     # the second atom row
    after = enc.joint_encode(bumped, (t.n,), (g.m,), [True]).x.data
    np.testing.assert_array_equal(after[:t.n], base[:t.n])
    assert not np.allclose(after[t.n:], base[t.n:])


def test_blocked_view_modalities_are_bitwise_independent():
    """In a blocked view the token rows do not depend on the graph and the
    atom rows do not depend on the tokens, to the last bit; each view
    retains its token maps and then its atom maps."""
    enc = make_encoder()
    parsed = [parse_smiles(s) for s in load_corpus_lines("toy_200.smi")[:40]]
    tokens = [[3 + sum(map(ord, tok.text)) % 21 for tok in t.tokens] for _, t in parsed]
    graphs = [g for g, _ in parsed]
    pairs = range(len(parsed) - 1)
    blocked = [True] * len(pairs)
    own = enc.encode([tokens[i] for i in pairs], [graphs[i] for i in pairs],
                     block_cross_modality=blocked, retain_attention=True)
    next_graph = enc.encode([tokens[i] for i in pairs], [graphs[i + 1] for i in pairs],
                            block_cross_modality=blocked)
    next_tokens = enc.encode([tokens[i + 1] for i in pairs], [graphs[i] for i in pairs],
                             block_cross_modality=blocked)
    for i in pairs:
        n, m = own.n[i], own.m[i]
        start = own.starts[i]
        rows = own.x.data[start:start + n + m]
        other = next_graph.starts[i]
        np.testing.assert_array_equal(next_graph.x.data[other:other + n], rows[:n])
        other = next_tokens.starts[i] + next_tokens.n[i]
        np.testing.assert_array_equal(next_tokens.x.data[other:other + m], rows[n:])
    for layer in own.attention:
        shapes = [mat.shape for mat in layer]
        assert shapes == [shape for n, m in zip(own.n, own.m)
                          for shape in [(n, n)] * CFG.heads + [(m, m)] * CFG.heads]


def test_attention_rows_sum_to_one():
    enc = make_encoder()
    g, t = parse_smiles("CC(=O)N")
    encoding = enc.encode([ids_for(t)], [g], retain_attention=True)
    for layer in range(CFG.transformer_layers):
        mats = np.stack(encoding.attention[layer])
        assert mats.shape == (CFG.heads, t.n + g.m, t.n + g.m)
        np.testing.assert_allclose(mats.sum(axis=2), 1.0, atol=1e-9)


def test_attention_dump_errors():
    # attn-dump reads JointEncoding.attention: None unless the forward retained
    # it, else one list of maps per layer, so a layer past the stack is out of
    # range (the CLI's LayerOutOfRange check is len(attention)).
    enc = make_encoder()
    g, t = parse_smiles("CC")
    assert enc.encode([ids_for(t)], [g]).attention is None
    retained = enc.encode([ids_for(t)], [g], retain_attention=True)
    assert len(retained.attention) == CFG.transformer_layers
    assert all(len(layer) == CFG.heads for layer in retained.attention)
    with pytest.raises(IndexError):
        retained.attention[CFG.transformer_layers]


# ----------------------------------------------------------- fragment pooling

def test_pool_fragments_graph_mean_oracle():
    enc = make_encoder()
    g, t = parse_smiles("CC(=O)OC")
    fmap = build_fragment_map(t, g)
    encoding = enc.encode([ids_for(t)], [g])
    _, f_g = enc.pool_fragments(encoding, [fmap])
    assert f_g.shape == (fmap.K, CFG.dim)
    for k in range(fmap.K):
        rows = [encoding.x.data[encoding.n[0] + j]
                for j, lab in enumerate(fmap.l_g) if lab == k]
        np.testing.assert_allclose(f_g.data[k],
                                   np.mean(rows, axis=0), atol=1e-12)


def test_pool_fragments_k1_mean_all_graph_rows():
    enc = make_encoder()
    g, t = parse_smiles("CCCC")
    fmap = build_fragment_map(t, g)
    assert fmap.K == 1
    encoding = enc.encode([ids_for(t)], [g])
    _, f_g = enc.pool_fragments(encoding, [fmap])
    np.testing.assert_allclose(f_g.data[0],
                               encoding.x.data[encoding.n[0]:].mean(axis=0), atol=1e-12)


def test_pool_fragments_locality():
    enc = make_encoder()
    g, t = parse_smiles("CC(=O)OC")
    fmap = build_fragment_map(t, g)
    encoding = enc.encode([ids_for(t)], [g])
    f_s, f_g = enc.pool_fragments(encoding, [fmap])
    # Zero all rows outside fragment 0; its pooled embeddings must not move.
    doctored = encoding.x.data.copy()
    for i, lab in enumerate(fmap.l_s):
        if lab != 0:
            doctored[i] = 0.0
    for j, lab in enumerate(fmap.l_g):
        if lab != 0:
            doctored[encoding.n[0] + j] = 0.0
    fake = JointEncoding(x=constant(doctored),
                         x_cls=mean_rows(constant(doctored)),
                         n=encoding.n, m=encoding.m)
    f_s2, f_g2 = enc.pool_fragments(fake, [fmap])
    np.testing.assert_allclose(f_g2.data[0], f_g.data[0], atol=0)
    np.testing.assert_allclose(f_s2.data[0], f_s.data[0], atol=0)


def test_pool_fragments_single_token_single_atom():
    enc = make_encoder()
    g, t = parse_smiles("CO")      # cleaves into two one-atom fragments? no: K=1
    fmap = FragmentMap(K=2, l_g=(0, 1), l_s=(0, 1))
    encoding = enc.encode([ids_for(t)], [g])
    _, f_g = enc.pool_fragments(encoding, [fmap])
    # Graph side of a one-atom fragment is exactly that atom's row.
    np.testing.assert_allclose(f_g.data[1],
                               encoding.x.data[encoding.n[0] + 1], atol=1e-12)


def test_pool_fragments_map_mismatch():
    enc = make_encoder()
    g, t = parse_smiles("CCO")
    encoding = enc.encode([ids_for(t)], [g])
    with pytest.raises(FragmentOutOfRange):
        enc.pool_fragments(encoding, [FragmentMap(K=1, l_g=(0,), l_s=(0, 0, 0))])


def test_encoder_seeded_determinism():
    a = make_encoder(seed=5)
    b = make_encoder(seed=5)
    for name in a.params:
        np.testing.assert_array_equal(a.params[name].data, b.params[name].data)
    g, t = parse_smiles("CCN")
    np.testing.assert_array_equal(
        a.encode([ids_for(t)], [g]).x.data,
        b.encode([ids_for(t)], [g]).x.data)


def test_encode_molecule_tape_node_budget():
    """Attention and the GCN layer are one tape node each; a per-head or
    per-op decomposition would roughly double the tape."""
    enc = make_encoder()
    graph, tokens = parse_smiles("CC(=O)Nc1ccc(O)cc1")
    x_cls = enc.encode([ids_for(tokens)], [graph]).x_cls
    seen = set()
    stack = [x_cls]
    while stack:
        node = stack.pop()
        if id(node) not in seen:
            seen.add(id(node))
            stack.extend(node._parents)
    assert len(seen) <= 85
