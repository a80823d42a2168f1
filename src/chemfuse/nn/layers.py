"""Neural layers: affine, plus the transformer feed-forward block,
multi-head attention and the residual GCN layer, each fused into one tape
node with a hand-written backward."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .tensor import (
    ShapeMismatch,
    Tensor,
    _accumulate,
    _by_length,
    _gelu,
    _layer_norm_backward,
    _layer_norm_forward,
    _node,
    _taping,
    add,
    matmul,
)

#: Elements per row tile of the feed-forward GELU: 256 KiB of float64, so a
#: tile's temporaries stay in cache; wider layers take fewer rows per tile.
FFN_TILE = 32768


def affine(x: Tensor, w: Tensor, b: Tensor) -> Tensor:
    return add(matmul(x, w), b)


def feed_forward(x: Tensor, w1: Tensor, b1: Tensor, w2: Tensor, b2: Tensor) -> Tensor:
    """``affine(gelu(affine(x, w1, b1)), w2, b2)`` as one tape node, bit for
    bit. The matmuls run whole and the biases are added in place; the GELU
    runs over row tiles of ``FFN_TILE`` elements, and so does its
    derivative, made in the forward while the tile is in cache."""
    if (x.shape[1], w1.shape[1], w2.shape[1]) != (w1.shape[0], w2.shape[0], b2.shape[1]) \
            or b1.shape != (1, w1.shape[1]) or b2.shape[0] != 1:
        raise ShapeMismatch(f"feed_forward {x.shape} through {w1.shape}, {b1.shape}, "
                            f"{w2.shape}, {b2.shape}")
    hidden = x.data @ w1.data
    hidden += b1.data
    deriv = np.empty_like(hidden) if _taping((x, w1, b1, w2, b2)) else None
    step = max(1, FFN_TILE // hidden.shape[1])
    for lo in range(0, hidden.shape[0], step):
        tile = hidden[lo:lo + step]
        _gelu(tile, tile, None if deriv is None else deriv[lo:lo + step])
    out_data = hidden @ w2.data
    out_data += b2.data

    def bwd(g):
        _accumulate(w2, hidden.T @ g)
        _accumulate(b2, g.sum(axis=0, keepdims=True))
        d_hidden = g @ w2.data.T
        d_hidden *= deriv
        _accumulate(w1, x.data.T @ d_hidden)
        _accumulate(b1, d_hidden.sum(axis=0, keepdims=True))
        _accumulate(x, d_hidden @ w1.data.T)

    return _node(out_data, (x, w1, b1, w2, b2), bwd)


@dataclass
class AttentionParams:
    """Query/key/value/output projections of one attention module."""

    wq: Tensor
    bq: Tensor
    wk: Tensor
    bk: Tensor
    wv: Tensor
    bv: Tensor
    wo: Tensor
    bo: Tensor


def _split_heads(rows: np.ndarray, length: int, heads: int) -> np.ndarray:
    """(G * length, heads * hd) -> (G, heads, length, hd) as a view: only
    axes are split, so column slices of a wider array stay views too."""
    return rows.reshape(-1, length, heads, rows.shape[1] // heads).transpose(0, 2, 1, 3)


def _t(x: np.ndarray) -> np.ndarray:
    return x.swapaxes(-1, -2)


def multi_head_attention(x: Tensor, heads: int, params: AttentionParams,
                         lengths: Sequence[int],
                         attn_bias: Sequence[np.ndarray | None] | None = None,
                         retain: list | None = None) -> Tensor:
    """Self-attention over packed sequences: scaled dot-product attention
    per head, concatenated and projected.

    The rows of ``x`` are sequences of ``lengths``, each attending only
    within itself. ``attn_bias`` is None or holds, per sequence, an
    (L x L) array added to every head's scores, or None; use large
    negatives to block positions. The rows are permuted once so that the
    sequences of each length lie together (not at all when they already
    do), and each such group runs as one (G, heads, L, head_dim) batch read
    from its block of rows; the output is permuted back. Q, K and V come
    from one product with the three weights side by side. Each sequence's
    arithmetic is the same as when it runs alone (a single row alone takes
    numpy's matrix-vector path, so its last bits may differ). When
    ``retain`` is a list, each sequence's per-head probability matrices are
    appended to it as plain data, sequence by sequence.
    """
    p = params
    width = p.wq.shape[1]
    if width % heads:
        raise ShapeMismatch(f"model width {width} not divisible by {heads} heads")
    if x.shape[1] != p.wq.shape[0] or sum(lengths) != x.shape[0]:
        raise ShapeMismatch(f"attention input {x.shape} vs width {p.wq.shape[0]} "
                            f"and {sum(lengths)} rows of sequences")
    starts = np.cumsum(lengths) - lengths
    biases = attn_bias or [None] * len(lengths)
    groups = list(_by_length(lengths).items())
    order = np.concatenate([(starts[members][:, None] + np.arange(length)).ravel()
                            for length, members in groups] or [np.arange(0)])
    grouped = np.array_equal(order, np.arange(order.size))
    x_rows = x.data if grouped else x.data[order]
    w_qkv = np.concatenate([p.wq.data, p.wk.data, p.wv.data], axis=1)
    qkv = x_rows @ w_qkv
    qkv += np.concatenate([p.bq.data, p.bk.data, p.bv.data], axis=1)
    factor = 1.0 / np.sqrt(width // heads)
    context = np.empty((order.size, width))
    saved = []
    lo = 0
    for length, members in groups:
        block = slice(lo, lo + len(members) * length)
        lo = block.stop
        qh, kh, vh = (_split_heads(qkv[block, i * width:(i + 1) * width], length, heads)
                      for i in range(3))
        probs = qh @ _t(kh)
        probs *= factor
        if any(biases[k] is not None for k in members):
            probs += np.stack([np.zeros((length, length)) if biases[k] is None
                               else biases[k] for k in members])[:, None]
        probs -= probs.max(axis=3, keepdims=True)
        np.exp(probs, out=probs)
        probs /= probs.sum(axis=3, keepdims=True)
        _split_heads(context[block], length, heads)[...] = probs @ vh
        saved.append((block, length, qh, kh, vh, probs))
    if retain is not None:
        by_sequence = {s: seq for (_, members), (*_, probs) in zip(groups, saved)
                       for s, seq in zip(members, probs)}
        retain.extend(head.copy() for s in sorted(by_sequence) for head in by_sequence[s])
    out_data = context @ p.wo.data
    out_data += p.bo.data
    if not grouped:
        inverse = np.argsort(order)
        out_data = out_data[inverse]

    def bwd(g):
        g_rows = g if grouped else g[order]
        _accumulate(p.wo, context.T @ g_rows)
        _accumulate(p.bo, g_rows.sum(axis=0, keepdims=True))
        d_context = g_rows @ p.wo.data.T
        # Every row belongs to exactly one sequence, so each is written once.
        d_qkv = np.empty_like(qkv)
        for block, length, qh, kh, vh, probs in saved:
            d_ctx = _split_heads(d_context[block], length, heads)
            d_scores = d_ctx @ _t(vh)
            d_scores -= (d_scores * probs).sum(axis=3, keepdims=True)
            d_scores *= probs
            d_scores *= factor
            d_q, d_k, d_v = (_split_heads(d_qkv[block, i * width:(i + 1) * width],
                                          length, heads) for i in range(3))
            d_q[...] = d_scores @ kh
            d_k[...] = _t(d_scores) @ qh
            d_v[...] = _t(probs) @ d_ctx
        d_w = x_rows.T @ d_qkv
        d_b = d_qkv.sum(axis=0, keepdims=True)
        for i, (w, b) in enumerate(((p.wq, p.bq), (p.wk, p.bk), (p.wv, p.bv))):
            _accumulate(w, d_w[:, i * width:(i + 1) * width])
            _accumulate(b, d_b[:, i * width:(i + 1) * width])
        if x.requires:
            d_x = d_qkv @ w_qkv.T
            _accumulate(x, d_x if grouped else d_x[inverse])

    return _node(out_data, (x, p.wq, p.bq, p.wk, p.bk, p.wv, p.bv, p.wo, p.bo), bwd)


@dataclass
class GcnLayerParams:
    """Weights of one residual message-passing layer."""

    w: Tensor
    bond_w: Tensor
    ln_gamma: Tensor
    ln_beta: Tensor


def gcn_layer(atom_states: Tensor, adj: np.ndarray, edge_sum: np.ndarray,
              params: GcnLayerParams) -> Tensor:
    """h_i' = LayerNorm(h_i + ReLU(W (h_i + sum_j (h_j + proj(e_ij))))).

    ``adj`` is the molecule's (m x m) neighbour-sum operator and
    ``edge_sum`` holds each atom's summed bond features (m x bond width),
    both built once per graph view; isolated atoms see only the self term.
    """
    if atom_states.shape[0] != adj.shape[0]:
        raise ShapeMismatch(
            f"{atom_states.shape[0]} state rows for {adj.shape[0]} atoms")
    p = params
    h = atom_states.data
    inner = h + (adj @ h + edge_sum @ p.bond_w.data)
    pre = inner @ p.w.data
    active = pre > 0
    out_data, xhat, inv = _layer_norm_forward(h + pre * active, p.ln_gamma.data,
                                              p.ln_beta.data)

    def bwd(g):
        _accumulate(p.ln_gamma, (g * xhat).sum(axis=0, keepdims=True))
        _accumulate(p.ln_beta, g.sum(axis=0, keepdims=True))
        d_res = _layer_norm_backward(g, xhat, inv, p.ln_gamma.data)
        d_pre = d_res * active
        _accumulate(p.w, inner.T @ d_pre)
        d_inner = d_pre @ p.w.data.T
        _accumulate(p.bond_w, edge_sum.T @ d_inner)
        if atom_states.requires:
            _accumulate(atom_states, d_res + d_inner + adj.T @ d_inner)

    return _node(out_data, (atom_states, p.w, p.bond_w, p.ln_gamma, p.ln_beta), bwd)
