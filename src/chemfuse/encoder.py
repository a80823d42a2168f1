"""Joint SMILES/graph encoder: embeddings, shared transformer, pooling.

The joint input of a view is its SMILES token embeddings (plus learned
positions) with its GCN atom states concatenated after them; graph rows
carry no positional term. A stack of post-norm transformer blocks with
full cross-modality attention produces the contextual rows ``x``; the
molecule embedding ``x_cls`` is the arithmetic mean of the view's rows.
Fragment embeddings pool token rows through one shared attention module
(SMILES side) and average atom rows directly (graph side).

Every forward is packed: any number of views run as one pass, their rows
concatenated without padding. Row-wise layers see one matrix, attention
runs each view (a blocked view: each modality) within itself, and the GCN
runs over the disjoint union of the graphs, so encoding one molecule is
the one-view case. The GCN sums each atom's neighbours in ascending order
from the union's neighbour table, so a view's rows are bitwise the same in
any pack as alone (a one-atom molecule alone takes numpy's matrix-vector
path, so its last bits may differ).
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import accumulate
from typing import Sequence

import numpy as np

from .chem.graph import MolecularGraph, once_per_graph
from .errors import ConfigError, InputError, allocating, check_at_least
from .features import (
    ATOM_FEATURE_DIM,
    BOND_FEATURE_DIM,
    N_GROUPS,
    featurize,
    masked_atom_row,
    masked_bond_row,
)
from .fragments import FragmentMap, FragmentOutOfRange
from .nn.layers import (AttentionParams, GcnLayerParams, affine, feed_forward, gcn_layer,
                        multi_head_attention)
from .nn.checkpoint import CheckpointCorrupt
from .nn.tensor import (
    Parameter,
    Tensor,
    add,
    add_layer_norm,
    concat_rows,
    constant,
    gather_rows,
    layer_norm_rows,
    scatter_add_rows,
    segment_mean,
)

#: Reserved vocabulary ids (fixed by the vocabulary builder).
PAD_ID, MASK_ID, UNK_ID = 0, 1, 2


class PositionOverflow(InputError):
    """Token sequence longer than the configured position table."""


class LayerOutOfRange(InputError, IndexError):
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
    fingerprint_width: int = 1024
    n_groups: int = N_GROUPS

    def __post_init__(self):
        # A token vocabulary holds [PAD], [MASK] and [UNK]; a context one, Other.
        check_at_least(self, {"vocab_size": 3, "context_vocab_size": 1, "dim": 1, "heads": 1,
                              "gnn_width": 1, "max_positions": 1, "ffn_multiplier": 1,
                              "fingerprint_width": 1, "transformer_layers": 0,
                              "gnn_layers": 0, "n_groups": 0})
        if self.dim % self.heads:
            raise ConfigError(f"dim {self.dim} not divisible by heads {self.heads}")


@dataclass
class JointEncoding:
    """Transformer output rows of one or more views, packed without padding.

    View k owns the rows ``starts[k]`` onwards of ``x``. ``read[k]`` is None
    when they are all its ``n[k]`` token rows and then its ``m[k]`` atom
    rows, or else the positions (token i is position i, atom j is
    ``n[k] + j``) whose rows, in that order, are all the view keeps; see
    ``rows``. ``x_cls`` holds the mean of each full view's rows, one row per
    full view in view order: a partial view has none. ``attention`` holds,
    per layer, each view's per-head maps in view order; a view blocked
    across modalities holds its token maps and then its atom maps.
    """

    x: Tensor
    x_cls: Tensor | None
    n: tuple[int, ...]
    m: tuple[int, ...]
    attention: list[list[np.ndarray]] | None = None
    starts: tuple[int, ...] = ()
    read: tuple[tuple[int, ...] | None, ...] = ()

    def __post_init__(self):
        if not self.read:
            self.read = (None,) * len(self.n)
        if not self.starts:
            kept = [a + b if r is None else len(r) for a, b, r in zip(self.n, self.m, self.read)]
            self.starts = tuple(accumulate(kept[:-1], initial=0))

    def rows(self, view: int, positions: Sequence[int]) -> list[int]:
        """The rows of ``x`` that hold ``positions`` of view ``view``."""
        start, read = self.starts[view], self.read[view]
        if read is None:
            return [start + p for p in positions]
        row_of = {p: start + r for r, p in enumerate(read)}
        return [row_of[p] for p in positions]

    def views(self, picked: range) -> JointEncoding:
        """The views ``picked``; they still read the shared rows ``x``, and
        their ``x_cls`` holds the rows of those kept in full."""
        full = list(accumulate((r is None for r in self.read), initial=0))
        cls_rows = [full[k] for k in picked if self.read[k] is None]
        return JointEncoding(x=self.x,
                             x_cls=gather_rows(self.x_cls, cls_rows) if cls_rows else None,
                             n=tuple(self.n[k] for k in picked),
                             m=tuple(self.m[k] for k in picked),
                             starts=tuple(self.starts[k] for k in picked),
                             read=tuple(self.read[k] for k in picked))


class ParamFactory:
    """Registers parameters in creation order with the documented init rules:
    weights uniform within +-1/sqrt(fan_in), embeddings normal(0, 0.02),
    layer-norm affine at identity, biases zero; or takes each from a ``table``."""

    def __init__(self, store: dict[str, Parameter], rng: np.random.Generator,
                 table: dict[str, np.ndarray] | None = None):
        self.store = store
        self.rng = rng
        self.table = table

    def _add(self, name: str, make, *shape: int) -> Parameter:
        """Register ``make(shape)``, or with a table its array ``name``, as parameter ``name``."""
        if self.table is not None:
            value = self.table.get(name)
            if value is None or value.shape != shape or not np.all(np.isfinite(value)):
                raise CheckpointCorrupt(f"no finite tensor {name!r} of shape {shape} in the checkpoint")
            make = lambda _: value
        with allocating(f"parameter {name} of shape {shape}"):
            p = self.store[name] = Parameter(name, make(shape))
        return p

    def matrix(self, name: str, fan_in: int, fan_out: int) -> Parameter:
        limit = 1.0 / np.sqrt(fan_in)
        return self._add(name, lambda shape: self.rng.uniform(-limit, limit, size=shape),
                         fan_in, fan_out)

    def linear(self, name: str, fan_in: int, fan_out: int) -> tuple[Parameter, Parameter]:
        return (self.matrix(name + "_w", fan_in, fan_out),
                self._add(name + "_b", np.zeros, 1, fan_out))

    def embedding(self, name: str, rows: int, cols: int) -> Parameter:
        return self._add(name, lambda shape: self.rng.normal(0.0, 0.02, size=shape), rows, cols)

    def layer_norm(self, name: str, width: int) -> tuple[Parameter, Parameter]:
        return (self._add(name + "_g", np.ones, 1, width),
                self._add(name + "_b", np.zeros, 1, width))

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
                 params: dict[str, Parameter] | None = None, table: dict | None = None):
        self.config = config
        self.params: dict[str, Parameter] = params if params is not None else {}
        factory = ParamFactory(self.params, np.random.default_rng(seed), table)
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

    def embed_smiles(self, token_ids: Sequence[Sequence[int]],
                     masked_positions: Sequence[tuple[int, ...]] = ()) -> Tensor:
        """Token + learned position embeddings of each sequence, packed.

        ``masked_positions[k]`` (default: none) lists the positions of
        sequence k that read the [MASK] embedding.
        """
        masked_positions = masked_positions or [()] * len(token_ids)
        ids: list[int] = []
        positions: list[int] = []
        for seq, masked in zip(token_ids, masked_positions):
            n = len(seq)
            if n > self.config.max_positions:
                raise PositionOverflow(
                    f"{n} tokens exceed max_positions={self.config.max_positions}")
            masked = set(masked)
            ids.extend(MASK_ID if i in masked else t for i, t in enumerate(seq))
            positions.extend(range(n))
        return add(gather_rows(self.tok_emb, ids), gather_rows(self.pos_emb, positions))

    def embed_graph(self, graphs: Sequence[MolecularGraph],
                    masked_atoms: Sequence[tuple[int, ...]] = ()) -> Tensor:
        """GCN over the disjoint union of ``graphs``, projected to dim.

        Atom rows come graph after graph; ``masked_atoms[k]`` (default:
        none) lists the masked atoms of graph k. The union's neighbour
        table and bond sums are built once and shared by every GCN layer.
        """
        atom_feats, neighbours, edge_sum = graph_union(graphs, masked_atoms)
        h = affine(constant(atom_feats), self.gnn_in_w, self.gnn_in_b)
        for block in self.gnn_blocks:
            h = gcn_layer(h, neighbours, edge_sum, block)
        return affine(h, self.gnn_out_w, self.gnn_out_b)

    # --------------------------------------------------------------- encoder

    def joint_encode(self, z: Tensor, n: tuple[int, ...], m: tuple[int, ...],
                     block_cross_modality: Sequence[bool],
                     retain_attention: bool = False,
                     read: Sequence[tuple[int, ...] | None] = ()) -> JointEncoding:
        """Run the transformer stack over packed views.

        View k owns the next ``n[k]`` token rows and then ``m[k]`` atom rows
        of ``z``. Where ``block_cross_modality[k]`` is set, view k attends as
        two sequences, its tokens and then its atoms, so each modality
        attends only to itself (the single-modality-masking ablation) and
        the retained maps are its token maps and then its atom maps;
        elsewhere attention crosses modalities. ``read[k]`` (default: None
        for every view) is None to keep every row of view k, or the
        positions its caller reads: the last block's attention still runs
        over every row, and its layer norms and feed-forward over the read
        rows only (see ``JointEncoding``).
        """
        read = tuple(read) or (None,) * len(n)
        sequences = [length for a, b, blocked in zip(n, m, block_cross_modality)
                    for length in ((a, b) if blocked else (a + b,))]
        lengths = [a + b for a, b in zip(n, m)]
        kept = None
        if any(r is not None for r in read):
            kept = np.concatenate([
                np.arange(s, s + length) if r is None else s + np.asarray(r, dtype=np.int64)
                for s, length, r in zip(accumulate(lengths, initial=0), lengths, read)])
        maps: list[list[np.ndarray]] | None = [] if retain_attention else None
        for layer, block in enumerate(self.blocks):
            retain = [] if retain_attention else None
            attn_out = multi_head_attention(z, self.config.heads, block.attn, sequences,
                                            retain=retain)
            if kept is not None and layer == len(self.blocks) - 1:
                h = layer_norm_rows(gather_rows(add(z, attn_out), kept), *block.ln1)
            else:
                h = add_layer_norm(z, attn_out, *block.ln1)
            ffn = feed_forward(h, block.ffn_w1, block.ffn_b1, block.ffn_w2, block.ffn_b2)
            z = add_layer_norm(h, ffn, *block.ln2)
            if maps is not None:
                maps.append(retain)
        if kept is not None and not self.blocks:
            z = gather_rows(z, kept)
        encoding = JointEncoding(x=z, x_cls=None, n=n, m=m, attention=maps, read=read)
        full = [range(s, s + a + b) for s, a, b, r in zip(encoding.starts, n, m, read)
                if r is None]
        encoding.x_cls = segment_mean(z, full) if full else None
        return encoding

    def encode(self, token_ids: Sequence[Sequence[int]], graphs: Sequence[MolecularGraph],
               masked_tokens: Sequence[tuple[int, ...]] = (),
               masked_atoms: Sequence[tuple[int, ...]] = (),
               block_cross_modality: Sequence[bool] = (),
               retain_attention: bool = False,
               read: Sequence[tuple[int, ...] | None] = ()) -> JointEncoding:
        """One packed forward over views, view k being ``token_ids[k]`` with
        ``graphs[k]``; the mask, block and read arguments hold one entry per
        view (default: nothing masked or blocked, every row kept; see
        ``joint_encode``). A side, one token-id list or graph object under
        one mask, is embedded once however many views hold it, and the views
        read its rows through one gather."""
        views = len(token_ids)
        s_sides, s_starts = _sides(token_ids, masked_tokens or [()] * views, len)
        g_sides, g_starts = _sides(graphs, masked_atoms or [()] * views, lambda g: g.m)
        smiles = self.embed_smiles([ids for ids, _ in s_sides], [mask for _, mask in s_sides])
        atoms = self.embed_graph([g for g, _ in g_sides], [mask for _, mask in g_sides])
        n = tuple(len(ids) for ids in token_ids)
        m = tuple(graph.m for graph in graphs)
        # View k's token rows, then its atom rows, which follow all token rows.
        offset = smiles.shape[0]
        order = _ranges([start for s, g in zip(s_starts, g_starts) for start in (s, offset + g)],
                        [count for a, b in zip(n, m) for count in (a, b)])
        return self.joint_encode(
            gather_rows(concat_rows([smiles, atoms]), order), n=n, m=m,
            block_cross_modality=block_cross_modality or [False] * views,
            retain_attention=retain_attention, read=read)

    # ---------------------------------------------------------------- pooling

    def pool_fragments(self, encoding: JointEncoding,
                       fmaps: Sequence[FragmentMap]) -> tuple[Tensor, Tensor]:
        """Per-fragment embeddings ``(f_s, f_g)`` of the SMILES and graph
        sides, one row per fragment id, view after view; ``fmaps[k]`` is the
        fragment map of view k.

        Graph side: plain mean of each fragment's atom rows. SMILES side:
        the shared fragment attention runs over each fragment's token rows,
        then the rows are averaged.
        """
        if len(fmaps) != len(encoding.n):
            raise FragmentOutOfRange(
                f"{len(fmaps)} fragment maps for {len(encoding.n)} views")
        if any(r is not None for r in encoding.read):
            raise FragmentOutOfRange("fragments are pooled from views kept in full")
        token_groups: list[list[int]] = []
        atom_groups: list[list[int]] = []
        for start, n, m, fmap in zip(encoding.starts, encoding.n, encoding.m, fmaps):
            if len(fmap.l_s) != n or len(fmap.l_g) != m:
                raise FragmentOutOfRange(
                    f"fragment map ({len(fmap.l_s)} tokens / {len(fmap.l_g)} atoms) "
                    f"does not fit encoding ({n} / {m})")
            for k in range(fmap.K):
                token_groups.append([start + i for i, lab in enumerate(fmap.l_s)
                                     if lab == k])
                atom_groups.append([start + n + j for j, lab in enumerate(fmap.l_g)
                                    if lab == k])
        lengths = [len(rows) for rows in token_groups]
        tokens = gather_rows(encoding.x, [i for rows in token_groups for i in rows])
        attended = multi_head_attention(tokens, self.config.heads, self.frag_attn, lengths)
        f_s = segment_mean(attended, [range(s, s + length) for s, length
                                      in zip(accumulate(lengths, initial=0), lengths)])
        return f_s, segment_mean(encoding.x, atom_groups)


def _ranges(starts: Sequence[int], counts: Sequence[int]) -> np.ndarray:
    """``range(starts[i], starts[i] + counts[i])`` for each i, concatenated."""
    counts = np.asarray(counts, dtype=np.int64)
    shift = np.asarray(starts, dtype=np.int64) - (np.cumsum(counts) - counts)
    return np.repeat(shift, counts) + np.arange(counts.sum())


def _sides(items: Sequence, masks: Sequence[tuple[int, ...]], rows
           ) -> tuple[list[tuple], list[int]]:
    """The distinct ``(item, mask)`` sides, keyed on the item's identity, in
    first-seen order, and the first packed row of each view's side;
    ``rows(item)`` counts an item's rows."""
    sides: dict[tuple, tuple] = {}
    for item, mask in zip(items, masks):
        sides.setdefault((id(item), mask), (item, mask))
    starts = dict(zip(sides, accumulate((rows(item) for item, _ in sides.values()),
                                        initial=0)))
    return list(sides.values()), [starts[id(item), mask] for item, mask in zip(items, masks)]


def graph_union(graphs: Sequence[MolecularGraph],
                masked_atoms: Sequence[tuple[int, ...]] = ()
                ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Atom features, neighbour table and per-atom summed bond features of
    the disjoint union of ``graphs``.

    Atoms are numbered graph after graph. ``masked_atoms[k]`` (default:
    none) lists atoms of graph k whose features, and whose bonds' features,
    are replaced by the mask rows. Row i of the neighbour table lists atom
    i's neighbours in ascending order, padded with the atom count.
    """
    masked_atoms = masked_atoms or [()] * len(graphs)
    atom_rows, bond_rows, ends, masked = [], [], [], []
    offset = 0
    for graph, atoms in zip(graphs, masked_atoms):
        atom_feats, bond_feats = featurize(graph)
        atom_rows.append(atom_feats)
        bond_rows.append(bond_feats)
        ends.append(_bond_ends(graph) + offset)
        masked.extend(offset + i for i in atoms)
        offset += graph.m
    atom_feats = np.concatenate(atom_rows)
    bond_feats = np.concatenate(bond_rows)
    ends = np.concatenate(ends)
    if masked:
        is_masked = np.zeros(offset, dtype=bool)
        is_masked[masked] = True
        atom_feats[is_masked] = masked_atom_row()
        bond_feats[is_masked[ends].any(axis=1)] = masked_bond_row()
    atoms, others = np.divmod(np.sort((ends @ [[offset, 1], [1, offset]]).ravel()), offset)
    neighbours = np.full((offset, np.bincount(atoms).max(initial=0)), offset)
    neighbours[atoms, np.arange(atoms.size) - np.searchsorted(atoms, atoms)] = others
    # One scatter over the endpoints interleaved in bond order (a0, b0, a1,
    # ...) adds each row's terms in the order the bonds list them.
    edge_sum = scatter_add_rows(ends.ravel(), np.repeat(bond_feats, 2, axis=0), offset)
    return atom_feats, neighbours, edge_sum


@once_per_graph
def _bond_ends(graph: MolecularGraph) -> np.ndarray:
    """(bonds, 2) int64 end atoms of each bond, made once per graph."""
    return np.array([(b.a, b.b) for b in graph.bonds], dtype=np.int64).reshape(-1, 2)

