"""Neural layers: affine, plus multi-head attention and the residual GCN
layer, each fused into one tape node with a hand-written backward."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .tensor import (
    ShapeMismatch,
    Tensor,
    _accumulate,
    _layer_norm_backward,
    _layer_norm_forward,
    _node,
    add,
    matmul,
)


def affine(x: Tensor, w: Tensor, b: Tensor) -> Tensor:
    return add(matmul(x, w), b)


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


def _split_heads(x: np.ndarray, heads: int) -> np.ndarray:
    """(L, heads * hd) -> (heads, L, hd)."""
    return x.reshape(x.shape[0], heads, -1).transpose(1, 0, 2)


def _merge_heads(x: np.ndarray) -> np.ndarray:
    """(heads, L, hd) -> (L, heads * hd)."""
    return x.transpose(1, 0, 2).reshape(x.shape[1], -1)


def multi_head_attention(q_in: Tensor, kv_in: Tensor, heads: int,
                         params: AttentionParams,
                         attn_bias: np.ndarray | None = None,
                         retain: list | None = None) -> Tensor:
    """Scaled dot-product attention, per head, concatenated and projected.

    ``attn_bias`` (n_q x n_kv) is added to every head's scores before the
    softmax; use large negatives to block positions. When ``retain`` is a
    list, each head's probability matrix is appended to it as plain data.
    All heads run as one batched (heads, L, head_dim) computation.
    """
    p = params
    width = p.wq.shape[1]
    if width % heads:
        raise ShapeMismatch(f"model width {width} not divisible by {heads} heads")
    if q_in.shape[1] != p.wq.shape[0] or kv_in.shape[1] != p.wk.shape[0]:
        raise ShapeMismatch(
            f"attention inputs {q_in.shape}/{kv_in.shape} vs width {p.wq.shape[0]}")
    factor = 1.0 / np.sqrt(width // heads)
    x_q, x_kv = q_in.data, kv_in.data
    qh = _split_heads(x_q @ p.wq.data + p.bq.data, heads)
    kh = _split_heads(x_kv @ p.wk.data + p.bk.data, heads)
    vh = _split_heads(x_kv @ p.wv.data + p.bv.data, heads)
    scores = (qh @ kh.transpose(0, 2, 1)) * factor
    if attn_bias is not None:
        scores = scores + attn_bias
    e = np.exp(scores - scores.max(axis=2, keepdims=True))
    probs = e / e.sum(axis=2, keepdims=True)
    if retain is not None:
        retain.extend(head.copy() for head in probs)
    context = _merge_heads(probs @ vh)
    out_data = context @ p.wo.data + p.bo.data

    def bwd(g):
        _accumulate(p.wo, context.T @ g)
        _accumulate(p.bo, g.sum(axis=0, keepdims=True))
        d_ctx = _split_heads(g @ p.wo.data.T, heads)
        d_probs = d_ctx @ vh.transpose(0, 2, 1)
        d_scores = probs * (d_probs - (d_probs * probs).sum(axis=2, keepdims=True))
        d_scores *= factor
        d_q = _merge_heads(d_scores @ kh)
        d_k = _merge_heads(d_scores.transpose(0, 2, 1) @ qh)
        d_v = _merge_heads(probs.transpose(0, 2, 1) @ d_ctx)
        for x, w, b, d in ((x_q, p.wq, p.bq, d_q), (x_kv, p.wk, p.bk, d_k),
                           (x_kv, p.wv, p.bv, d_v)):
            _accumulate(w, x.T @ d)
            _accumulate(b, d.sum(axis=0, keepdims=True))
        if q_in.requires:
            _accumulate(q_in, d_q @ p.wq.data.T)
        if kv_in.requires:
            _accumulate(kv_in, d_k @ p.wk.data.T + d_v @ p.wv.data.T)

    return _node(out_data, (q_in, kv_in, p.wq, p.bq, p.wk, p.bk,
                            p.wv, p.bv, p.wo, p.bo), bwd)


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
                                              p.ln_beta.data, 1e-5)

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
