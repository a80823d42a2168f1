"""Joint SMILES/graph encoder: embeddings, shared transformer, pooling.

The joint input is the SMILES token embeddings (plus learned positions)
with the GCN atom states concatenated after them; graph rows carry no
positional term. A stack of post-norm transformer blocks with full
cross-modality attention produces the contextual rows ``x``; the molecule
embedding ``x_cls`` is the arithmetic mean of all rows. Fragment
embeddings pool token rows through one shared attention module (SMILES
side) and average atom rows directly (graph side).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .chem.graph import MolecularGraph
from .features import (
    ATOM_FEATURE_DIM,
    BOND_FEATURE_DIM,
    featurize,
    masked_atom_row,
    masked_bond_row,
)
from .fragments import FragmentMap, FragmentOutOfRange
from .nn.layers import AttentionParams, GcnLayerParams, affine, gcn_layer, multi_head_attention
from .nn.tensor import (
    Parameter,
    Tensor,
    add,
    concat_rows,
    constant,
    embedding_lookup,
    gather_rows,
    gelu,
    layer_norm_rows,
    mean_rows,
)

#: Reserved vocabulary ids (fixed by the vocabulary builder).
PAD_ID, MASK_ID, UNK_ID = 0, 1, 2

#: Additive attention bias used to block positions.
BLOCK = -1e30


class PositionOverflow(ValueError):
    """Token sequence longer than the configured position table."""


class RetentionDisabled(RuntimeError):
    """Attention maps were requested but not retained during the forward."""


class LayerOutOfRange(IndexError):
    """Attention dump asked for a layer the model does not have."""


@dataclass(frozen=True)
class ModelConfig:
    """Encoder dimensions; desk-scale defaults, larger scales reachable."""

    vocab_size: int
    context_vocab_size: int
    dim: int = 64
    transformer_layers: int = 2
    heads: int = 4
    gnn_layers: int = 3
    gnn_width: int = 32
    max_positions: int = 256
    ffn_multiplier: int = 4
    fingerprint_width: int = 2048
    n_groups: int = 24

    def __post_init__(self):
        if self.dim % self.heads:
            raise ValueError(f"dim {self.dim} not divisible by heads {self.heads}")
        if self.vocab_size < 3:
            raise ValueError("vocabulary must include PAD/MASK/UNK")


@dataclass
class JointEncoding:
    """Transformer output rows, pooled molecule embedding, attention maps."""

    x: Tensor
    x_cls: Tensor
    n: int
    m: int
    attention: list[list[np.ndarray]] | None = None


@dataclass
class FragmentEmbeddings:
    """Per-fragment embeddings, one row per fragment id, both modalities."""

    f_s: Tensor
    f_g: Tensor
    K: int


class ParamFactory:
    """Registers parameters in creation order with the documented init rules:
    weights uniform within +-1/sqrt(fan_in), embeddings normal(0, 0.02),
    layer-norm affine at identity, biases zero."""

    def __init__(self, store: dict[str, Parameter], rng: np.random.Generator):
        self.store = store
        self.rng = rng

    def matrix(self, name: str, fan_in: int, fan_out: int) -> Parameter:
        limit = 1.0 / np.sqrt(fan_in)
        w = Parameter(name, self.rng.uniform(-limit, limit, size=(fan_in, fan_out)))
        self.store[name] = w
        return w

    def linear(self, name: str, fan_in: int, fan_out: int) -> tuple[Parameter, Parameter]:
        w = self.matrix(name + "_w", fan_in, fan_out)
        b = Parameter(name + "_b", np.zeros((1, fan_out)))
        self.store[b.name] = b
        return w, b

    def embedding(self, name: str, rows: int, cols: int) -> Parameter:
        p = Parameter(name, self.rng.normal(0.0, 0.02, size=(rows, cols)))
        self.store[name] = p
        return p

    def layer_norm(self, name: str, width: int) -> tuple[Parameter, Parameter]:
        g = Parameter(name + "_g", np.ones((1, width)))
        b = Parameter(name + "_b", np.zeros((1, width)))
        self.store[g.name] = g
        self.store[b.name] = b
        return g, b

    def attention(self, name: str, width: int) -> AttentionParams:
        wq, bq = self.linear(name + "_q", width, width)
        wk, bk = self.linear(name + "_k", width, width)
        wv, bv = self.linear(name + "_v", width, width)
        wo, bo = self.linear(name + "_o", width, width)
        return AttentionParams(wq, bq, wk, bk, wv, bv, wo, bo)


@dataclass
class _Block:
    attn: AttentionParams
    ln1: tuple[Parameter, Parameter]
    ffn_w1: Parameter
    ffn_b1: Parameter
    ffn_w2: Parameter
    ffn_b2: Parameter
    ln2: tuple[Parameter, Parameter]


class MoleculeEncoder:
    """Owns the encoder parameters and runs forward passes."""

    def __init__(self, config: ModelConfig, seed: int = 0,
                 params: dict[str, Parameter] | None = None):
        self.config = config
        self.params: dict[str, Parameter] = params if params is not None else {}
        factory = ParamFactory(self.params, np.random.default_rng(seed))
        d, w = config.dim, config.gnn_width

        self.tok_emb = factory.embedding("tok_emb", config.vocab_size, d)
        self.pos_emb = factory.embedding("pos_emb", config.max_positions, d)

        self.gnn_in_w, self.gnn_in_b = factory.linear("gnn_in", ATOM_FEATURE_DIM, w)
        self.gnn_blocks: list[GcnLayerParams] = []
        for i in range(config.gnn_layers):
            layer_w = factory.matrix(f"gnn{i}_w", w, w)
            bond_w = factory.matrix(f"gnn{i}_bond_w", BOND_FEATURE_DIM, w)
            ln_g, ln_b = factory.layer_norm(f"gnn{i}_ln", w)
            self.gnn_blocks.append(GcnLayerParams(layer_w, bond_w, ln_g, ln_b))
        self.gnn_out_w, self.gnn_out_b = factory.linear("gnn_out", w, d)

        self.blocks: list[_Block] = []
        hidden = d * config.ffn_multiplier
        for layer in range(config.transformer_layers):
            name = f"enc{layer}"
            attn = factory.attention(name + "_attn", d)
            ln1 = factory.layer_norm(name + "_ln1", d)
            w1, b1 = factory.linear(name + "_ffn1", d, hidden)
            w2, b2 = factory.linear(name + "_ffn2", hidden, d)
            ln2 = factory.layer_norm(name + "_ln2", d)
            self.blocks.append(_Block(attn, ln1, w1, b1, w2, b2, ln2))

        self.frag_attn = factory.attention("frag_attn", d)

    # ------------------------------------------------------------ embeddings

    def embed_smiles(self, token_ids: list[int],
                     masked_positions: tuple[int, ...] = ()) -> Tensor:
        """Token embedding + learned position embedding, masks applied."""
        n = len(token_ids)
        if n > self.config.max_positions:
            raise PositionOverflow(
                f"{n} tokens exceed max_positions={self.config.max_positions}")
        masked = set(masked_positions)
        ids = [MASK_ID if i in masked else t for i, t in enumerate(token_ids)]
        tok = embedding_lookup(self.tok_emb, ids)
        pos = embedding_lookup(self.pos_emb, list(range(n)))
        return add(tok, pos)

    def embed_graph(self, graph: MolecularGraph,
                    masked_atoms: tuple[int, ...] = ()) -> Tensor:
        """GCN over (possibly masked) atom/bond features, projected to dim.

        The neighbour-sum operator and the per-atom summed bond features
        are built here once and shared by every GCN layer.
        """
        atom_feats, bond_feats = featurize(graph)
        masked = set(masked_atoms)
        for i in masked:
            atom_feats[i] = masked_atom_row()
        adj = np.zeros((graph.m, graph.m))
        edge_sum = np.zeros((graph.m, bond_feats.shape[1]))
        for bi, bond in enumerate(graph.bonds):
            if bond.a in masked or bond.b in masked:
                bond_feats[bi] = masked_bond_row()
            adj[bond.a, bond.b] = adj[bond.b, bond.a] = 1.0
            edge_sum[bond.a] += bond_feats[bi]
            edge_sum[bond.b] += bond_feats[bi]
        h = affine(constant(atom_feats), self.gnn_in_w, self.gnn_in_b)
        for block in self.gnn_blocks:
            h = gcn_layer(h, adj, edge_sum, block)
        return affine(h, self.gnn_out_w, self.gnn_out_b)

    # --------------------------------------------------------------- encoder

    def joint_encode(self, smiles_emb: Tensor, graph_emb: Tensor,
                     block_cross_modality: bool = False,
                     retain_attention: bool = False) -> JointEncoding:
        """Concatenate modalities and run the transformer stack.

        ``block_cross_modality`` applies a block-diagonal attention bias so
        each modality attends only to itself (the single-modality-masking
        ablation); default is full cross-modality attention.
        """
        n, m = smiles_emb.shape[0], graph_emb.shape[0]
        z = concat_rows([smiles_emb, graph_emb])
        bias = None
        if block_cross_modality:
            bias = np.zeros((n + m, n + m))
            bias[:n, n:] = BLOCK
            bias[n:, :n] = BLOCK
        maps: list[list[np.ndarray]] | None = [] if retain_attention else None
        for block in self.blocks:
            retain = [] if retain_attention else None
            attn_out = multi_head_attention(z, z, self.config.heads, block.attn,
                                            attn_bias=bias, retain=retain)
            h = layer_norm_rows(add(z, attn_out), *block.ln1)
            ffn = affine(gelu(affine(h, block.ffn_w1, block.ffn_b1)),
                         block.ffn_w2, block.ffn_b2)
            z = layer_norm_rows(add(h, ffn), *block.ln2)
            if maps is not None:
                maps.append(retain)
        return JointEncoding(x=z, x_cls=mean_rows(z), n=n, m=m, attention=maps)

    def encode_molecule(self, token_ids: list[int], graph: MolecularGraph,
                        masked_tokens: tuple[int, ...] = (),
                        masked_atoms: tuple[int, ...] = (),
                        block_cross_modality: bool = False,
                        retain_attention: bool = False) -> JointEncoding:
        return self.joint_encode(
            self.embed_smiles(token_ids, masked_tokens),
            self.embed_graph(graph, masked_atoms),
            block_cross_modality=block_cross_modality,
            retain_attention=retain_attention,
        )

    # ---------------------------------------------------------------- pooling

    def pool_fragments(self, encoding: JointEncoding,
                       fmap: FragmentMap) -> FragmentEmbeddings:
        """Per-fragment embeddings from both modalities.

        Graph side: plain mean of each fragment's atom rows. SMILES side:
        the shared fragment attention runs over each fragment's token rows,
        then the rows are averaged.
        """
        if len(fmap.l_s) != encoding.n or len(fmap.l_g) != encoding.m:
            raise FragmentOutOfRange(
                f"fragment map ({len(fmap.l_s)} tokens / {len(fmap.l_g)} atoms) "
                f"does not fit encoding ({encoding.n} / {encoding.m})")
        s_rows = []
        g_rows = []
        for k in range(fmap.K):
            token_rows = [i for i, lab in enumerate(fmap.l_s) if lab == k]
            atom_rows = [encoding.n + j for j, lab in enumerate(fmap.l_g) if lab == k]
            tokens = gather_rows(encoding.x, token_rows)
            attended = multi_head_attention(tokens, tokens, self.config.heads,
                                            self.frag_attn)
            s_rows.append(mean_rows(attended))
            g_rows.append(mean_rows(gather_rows(encoding.x, atom_rows)))
        return FragmentEmbeddings(f_s=concat_rows(s_rows),
                                  f_g=concat_rows(g_rows), K=fmap.K)


def dump_attention(encoding: JointEncoding, layer: int) -> np.ndarray:
    """Per-head attention matrices of one layer as (heads, n+m, n+m).

    Raises:
        RetentionDisabled: if the forward pass did not retain attention.
        LayerOutOfRange: if ``layer`` is outside the stack.
    """
    if encoding.attention is None:
        raise RetentionDisabled("forward pass ran without retain_attention")
    if not 0 <= layer < len(encoding.attention):
        raise LayerOutOfRange(
            f"layer {layer} outside [0, {len(encoding.attention)})")
    return np.stack(encoding.attention[layer])
