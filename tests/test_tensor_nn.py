"""Autodiff op tests: finite-difference checks, oracles, optimizer behavior."""

import numpy as np
import pytest

from chemfuse.chem import parse_smiles
from chemfuse.encoder import graph_union
from chemfuse.features import BOND_FEATURE_DIM, featurize
from chemfuse.nn import (
    AdamState,
    AttentionParams,
    GcnLayerParams,
    NonFiniteInput,
    NotScalarLoss,
    Parameter,
    ShapeMismatch,
    Tensor,
    adam_step,
    add,
    add_layer_norm,
    affine,
    backward,
    concat_cols,
    concat_rows,
    constant,
    feed_forward,
    gather_rows,
    gcn_layer,
    gelu,
    layer_norm_rows,
    log_softmax_rows,
    matmul,
    mean_all,
    mean_rows,
    mul,
    multi_head_attention,
    no_grad,
    normalize_rows,
    pick,
    relu,
    scale,
    segment_mean,
    softmax_rows,
    softplus,
    sub,
    sum_all,
    transpose,
)

from chemfuse.nn.layers import FFN_TILE, _neighbour_sum
from chemfuse.nn.tensor import scatter_add_rows

import oracles

RNG = np.random.default_rng(42)
EPS = 1e-5
TOL = 1e-4


def rand_param(name, *shape):
    return Parameter(name, RNG.normal(0.0, 1.0, size=shape))


def fd_check(build_loss, params, eps=EPS, tol=TOL):
    """Central finite differences against the tape's analytic gradients."""
    for p in params:
        p.zero_grad()
    backward(build_loss())
    for p in params:
        analytic = p.grad.copy()
        numeric = np.zeros_like(p.data)
        it = np.nditer(p.data, flags=["multi_index"])
        for _ in it:
            ij = it.multi_index
            orig = p.data[ij]
            p.data[ij] = orig + eps
            up = build_loss().item()
            p.data[ij] = orig - eps
            down = build_loss().item()
            p.data[ij] = orig
            numeric[ij] = (up - down) / (2 * eps)
        denom = np.maximum(1e-6, np.abs(analytic) + np.abs(numeric))
        rel = np.abs(analytic - numeric) / denom
        assert rel.max() < tol, f"{p.name}: max rel err {rel.max():.3e}"


# ------------------------------------------------------------ per-op gradients

@pytest.mark.parametrize("trial", range(5))
def test_grad_elementwise_ops(trial):
    w = rand_param(f"w{trial}", 4, 5)
    x = constant(RNG.normal(size=(4, 5)))
    for op in (relu, gelu, softplus, softmax_rows, log_softmax_rows, normalize_rows):
        fd_check(lambda op=op: mean_all(op(mul(w, x))), [w])


@pytest.mark.parametrize("trial", range(5))
def test_grad_matmul_add_scale(trial):
    a = rand_param("a", 3, 4)
    b = rand_param("b", 4, 2)
    bias = rand_param("bias", 1, 2)
    fd_check(lambda: sum_all(add(scale(matmul(a, b), 0.7), bias)), [a, b, bias])


@pytest.mark.parametrize("trial", range(5))
def test_grad_layer_norm(trial):
    x = rand_param("x", 4, 6)
    gamma = rand_param("g", 1, 6)
    beta = rand_param("be", 1, 6)
    fd_check(lambda: mean_all(layer_norm_rows(x, gamma, beta)), [x, gamma, beta])


@pytest.mark.parametrize("trial", range(5))
def test_grad_gather_pick_concat(trial):
    table = rand_param("emb", 7, 4)
    w = rand_param("w", 4, 3)

    def loss():
        rows = gather_rows(table, [0, 3, 3, 6])
        h = matmul(rows, w)
        picked = pick(h, [0, 2, 1, 0])
        stacked = concat_rows([picked, picked])
        return mean_all(stacked)

    fd_check(loss, [table, w])


@pytest.mark.parametrize("trial", range(5))
def test_grad_reductions_and_cosine(trial):
    u = rand_param("u", 1, 5)
    v = rand_param("v", 1, 5)
    fd_check(lambda: mean_all(matmul(normalize_rows(u), transpose(normalize_rows(v)))),
             [u, v])
    x = rand_param("x", 4, 5)
    fd_check(lambda: sum_all(mean_rows(mul(x, x))), [x])
    fd_check(lambda: mean_all(transpose(sub(x, scale(x, 0.3)))), [x])


def test_grad_linear_loss_equals_input():
    x_data = RNG.normal(size=(3, 4))
    w = rand_param("w", 3, 4)
    loss = sum_all(mul(w, constant(x_data)))
    w.zero_grad()
    backward(loss)
    np.testing.assert_allclose(w.grad, x_data, rtol=0, atol=1e-15)


def test_grad_constant_loss_is_zero():
    w = rand_param("w", 2, 2)
    loss = mean_all(constant(np.ones((2, 2))))
    w.zero_grad()
    backward(loss)
    assert np.all(w.grad == 0)


def test_backward_accumulates_until_zeroed():
    w = rand_param("w", 2, 2)
    w.zero_grad()
    backward(sum_all(w))
    backward(sum_all(w))
    np.testing.assert_allclose(w.grad, 2 * np.ones((2, 2)))
    w.zero_grad()
    assert np.all(w.grad == 0)


def test_zero_grad_zeroes_the_buffer_in_place():
    w = rand_param("w", 2, 3)
    backward(sum_all(w))
    buffer = w.grad
    w.zero_grad()
    assert w.grad is buffer
    assert buffer.tobytes() == np.zeros((2, 3)).tobytes()


@pytest.mark.filterwarnings("error")
def test_softplus_backward_far_below_zero_is_zero_without_a_warning():
    x = Parameter("x", np.full((1, 2), -1000.0))
    backward(sum_all(softplus(x)))
    assert x.grad.tobytes() == np.zeros((1, 2)).tobytes()


def test_backward_rejects_nonscalar_and_nonfinite():
    w = rand_param("w", 2, 2)
    with pytest.raises(NotScalarLoss):
        backward(add(w, w))
    with pytest.raises(NonFiniteInput):
        constant(np.array([[np.inf]]))


# ------------------------------------------------------------------ op oracles

def test_matmul_matches_triple_loop():
    a = RNG.normal(size=(3, 4))
    b = RNG.normal(size=(4, 2))
    got = matmul(constant(a), constant(b)).data
    want = np.zeros((3, 2))
    for i in range(3):
        for j in range(2):
            for k in range(4):
                want[i, j] += a[i, k] * b[k, j]
    np.testing.assert_allclose(got, want, atol=1e-12)


def test_softmax_rows_properties():
    x = constant(RNG.normal(size=(5, 7)))
    p = softmax_rows(x).data
    np.testing.assert_allclose(p.sum(axis=1), np.ones(5), atol=1e-12)
    np.testing.assert_allclose(softmax_rows(constant([[0.0, 0.0]])).data,
                               [[0.5, 0.5]], atol=1e-15)


def test_layer_norm_statistics():
    x = constant(RNG.normal(size=(6, 9)))
    gamma = constant(np.ones((1, 9)))
    beta = constant(np.zeros((1, 9)))
    y = layer_norm_rows(x, gamma, beta).data
    assert np.abs(y.mean(axis=1)).max() < 1e-10
    np.testing.assert_allclose(y.var(axis=1), np.ones(6), rtol=1e-4)


@pytest.mark.parametrize("width", [1, 2, 7, 8, 9, 16, 64, 127, 128, 129, 300])
def test_layer_norm_is_bitwise_the_mean_var_oracle(width):
    """Widths that numpy sums sequentially, 8-way unrolled and in 128-wide
    pairwise blocks; 1 to 300 rows at scales 1e-3 to 1e3, with constant
    rows (variance 0). Output and all three gradients match bit for bit."""
    for rows, size in ((1, 1e-3), (2, 1e3), (5, 1.0), (33, 1e-2), (128, 1e2), (300, 10.0)):
        x = RNG.normal(size=(rows, width)) * size + RNG.normal() * size
        x[2::3] = x[2::3, :1]
        a = Tensor(x.copy(), requires=True)
        gamma, beta = rand_param("lng", 1, width), rand_param("lnb", 1, width)
        out = layer_norm_rows(a, gamma, beta)
        g = RNG.normal(size=x.shape)
        out._backward(g)
        want, xhat, inv = oracles.layer_norm_forward(x, gamma.data, beta.data)
        assert out.data.tobytes() == want.tobytes()
        assert a.grad.tobytes() == \
            oracles.layer_norm_backward(g, xhat, inv, gamma.data).tobytes()
        assert gamma.grad.tobytes() == (0.0 + (g * xhat).sum(axis=0, keepdims=True)).tobytes()
        assert beta.grad.tobytes() == (0.0 + g.sum(axis=0, keepdims=True)).tobytes()


@pytest.mark.parametrize("same", [False, True], ids=["a-and-b", "a-is-b"])
def test_add_layer_norm_is_bitwise_the_unfused_chain(same):
    """Value and all four gradients equal those of add -> layer_norm_rows,
    with and without a tape. ``a`` and ``b`` are intermediates, as in the
    encoder, so each keeps the gradient it is handed."""
    x = rand_param("aln_x", 37, 9)
    y = x if same else rand_param("aln_y", 37, 9)
    gamma, beta = rand_param("aln_g", 1, 9), rand_param("aln_be", 1, 9)
    weights = constant(RNG.normal(size=(37, 9)))
    params = (x, y, gamma, beta)
    results = []
    for op in (lambda a, b, g, be: layer_norm_rows(add(a, b), g, be), add_layer_norm):
        for p in params:
            p.zero_grad()
        a = scale(x, 0.5)
        out = op(a, a if same else scale(y, 0.5), gamma, beta)
        backward(sum_all(mul(out, weights)))
        results.append([out.data] + [p.grad.copy() for p in params])
    for got, want in zip(results[1], results[0]):
        assert got.tobytes() == want.tobytes()
    with no_grad():
        inferred = add_layer_norm(scale(x, 0.5), scale(y, 0.5), gamma, beta)
    assert inferred.data.tobytes() == results[0][0].tobytes()


@pytest.mark.parametrize("trial", range(3))
def test_grad_add_layer_norm(trial):
    a, b = rand_param(f"ala{trial}", 4, 6), rand_param(f"alb{trial}", 4, 6)
    gamma, beta = rand_param("alg", 1, 6), rand_param("albe", 1, 6)
    loss = _weighted_loss((4, 6))
    fd_check(lambda: loss(add_layer_norm(a, b, gamma, beta)), [a, b, gamma, beta])


def test_shape_mismatch_raised():
    with pytest.raises(ShapeMismatch):
        matmul(constant(np.ones((2, 3))), constant(np.ones((2, 3))))
    with pytest.raises(ShapeMismatch):
        add(constant(np.ones((2, 3))), constant(np.ones((3, 2))))
    with pytest.raises(ShapeMismatch):
        multi_head_attention(constant(np.ones((5, 4))), 2, _attn_params(4), [2, 2])
    ones = constant(np.ones((1, 3)))
    with pytest.raises(ShapeMismatch):
        add_layer_norm(constant(np.ones((2, 3))), ones, ones, ones)
    with pytest.raises(ShapeMismatch):
        add_layer_norm(ones, ones, constant(np.ones((1, 2))), ones)


# ------------------------------------------------------------------- attention

def _attn_params(dim, prefix="a"):
    mk = lambda nm, fi, fo: rand_param(f"{prefix}_{nm}", fi, fo)
    return AttentionParams(
        wq=mk("wq", dim, dim), bq=rand_param(f"{prefix}_bq", 1, dim),
        wk=mk("wk", dim, dim), bk=rand_param(f"{prefix}_bk", 1, dim),
        wv=mk("wv", dim, dim), bv=rand_param(f"{prefix}_bv", 1, dim),
        wo=mk("wo", dim, dim), bo=rand_param(f"{prefix}_bo", 1, dim),
    )


def _naive_attention(x_q, x_kv, p, heads):
    dim = p.wq.data.shape[1]
    hd = dim // heads
    q = x_q @ p.wq.data + p.bq.data
    k = x_kv @ p.wk.data + p.bk.data
    v = x_kv @ p.wv.data + p.bv.data
    outs = []
    for h in range(heads):
        sl = slice(h * hd, (h + 1) * hd)
        scores = q[:, sl] @ k[:, sl].T / np.sqrt(hd)
        e = np.exp(scores - scores.max(axis=1, keepdims=True))
        probs = e / e.sum(axis=1, keepdims=True)
        outs.append(probs @ v[:, sl])
    return np.concatenate(outs, axis=1) @ p.wo.data + p.bo.data


def test_attention_matches_naive_oracle():
    p = _attn_params(8)
    x = RNG.normal(size=(5, 8))
    got = multi_head_attention(constant(x), 2, p, [5]).data
    np.testing.assert_allclose(got, _naive_attention(x, x, p, 2), atol=1e-10)


def test_attention_single_position_weight_is_one():
    p = _attn_params(4)
    x = RNG.normal(size=(1, 4))
    retained = []
    multi_head_attention(constant(x), 2, p, [1], retain=retained)
    for mat in retained:
        np.testing.assert_allclose(mat, [[1.0]], atol=1e-15)


def test_attention_key_permutation_permutes_columns():
    """Permuting the rows of ``x`` permutes the keys, so each map's
    columns, and the queries, so its rows and the output rows."""
    p = _attn_params(8)
    x = RNG.normal(size=(4, 8))
    perm = [2, 0, 3, 1]
    r1, r2 = [], []
    out = multi_head_attention(constant(x), 2, p, [4], retain=r1).data
    out_perm = multi_head_attention(constant(x[perm]), 2, p, [4], retain=r2).data
    for a, b in zip(r1, r2):
        np.testing.assert_allclose(a[np.ix_(perm, perm)], b, atol=1e-12)
    np.testing.assert_allclose(out[perm], out_perm, atol=1e-12)


@pytest.mark.parametrize("trial", range(5))
def test_grad_attention(trial):
    p = _attn_params(4, prefix=f"t{trial}")
    x = constant(RNG.normal(size=(3, 4)))
    params = [p.wq, p.bq, p.wk, p.bk, p.wv, p.bv, p.wo, p.bo]
    fd_check(lambda: mean_all(multi_head_attention(x, 2, p, [3])), params)


def _weighted_loss(out_shape):
    """mean_all(out * w) for a fixed random w, so no input gradient cancels."""
    w = constant(RNG.normal(size=out_shape))
    return lambda out: mean_all(mul(out, w))


def _attn_param_list(p):
    return [p.wq, p.bq, p.wk, p.bk, p.wv, p.bv, p.wo, p.bo]


@pytest.mark.parametrize("trial", range(3))
def test_grad_attention_self_input(trial):
    p = _attn_params(4, prefix=f"s{trial}")
    x = rand_param("x", 4, 4)
    loss = _weighted_loss((4, 4))
    fd_check(lambda: loss(multi_head_attention(x, 2, p, [4])),
             [x] + _attn_param_list(p))


#: Five packed sequences of three lengths; the 2 and 3 after the first two
#: are one view's tokens and atoms, as the encoder packs a view blocked across
#: modalities. No sequence is a single row: numpy sends a one-row product to a
#: different BLAS routine, whose last bits differ.
PACKED_LENGTHS = [3, 2, 2, 3, 4]


@pytest.mark.parametrize("trial", range(3))
def test_grad_packed_attention(trial):
    p = _attn_params(4, prefix=f"pk{trial}")
    lengths = PACKED_LENGTHS
    x = rand_param("x", sum(lengths), 4)
    loss = _weighted_loss((sum(lengths), 4))
    fd_check(lambda: loss(multi_head_attention(x, 2, p, lengths)),
             [x] + _attn_param_list(p))


def test_packed_attention_matches_each_sequence_alone():
    p = _attn_params(8)
    lengths = PACKED_LENGTHS
    x = RNG.normal(size=(sum(lengths), 8))
    retained = []
    packed = multi_head_attention(constant(x), 2, p, lengths, retain=retained).data
    start = 0
    for k, length in enumerate(lengths):
        alone_maps = []
        alone = multi_head_attention(constant(x[start:start + length]), 2, p, [length],
                                     retain=alone_maps)
        np.testing.assert_array_equal(packed[start:start + length], alone.data)
        for got, want in zip(retained[2 * k:2 * k + 2], alone_maps):
            np.testing.assert_array_equal(got, want)
        start += length


#: Eight packed sequences whose equal lengths are not neighbours, so the rows
#: must be permuted into length groups and back; sequences 1-2 and 6-7 are the
#: tokens and atoms of a blocked view each, as the encoder packs them.
LENGTHS_OUT_OF_GROUP_ORDER = [2, 2, 2, 3, 2, 4, 2, 3]


@pytest.mark.parametrize("trial", range(3))
def test_grad_attention_lengths_out_of_group_order(trial):
    p = _attn_params(4, prefix=f"og{trial}")
    lengths = LENGTHS_OUT_OF_GROUP_ORDER
    x = rand_param("x", sum(lengths), 4)
    loss = _weighted_loss((sum(lengths), 4))
    fd_check(lambda: loss(multi_head_attention(x, 2, p, lengths)),
             [x] + _attn_param_list(p))


def test_attention_rows_out_of_group_order_match_each_sequence_alone():
    p = _attn_params(8)
    lengths = LENGTHS_OUT_OF_GROUP_ORDER
    x = RNG.normal(size=(sum(lengths), 8))
    packed = multi_head_attention(constant(x), 2, p, lengths).data
    start = 0
    for length in lengths:
        alone = multi_head_attention(constant(x[start:start + length]), 2, p, [length]).data
        np.testing.assert_array_equal(packed[start:start + length], alone)
        start += length


@pytest.mark.parametrize("n, m", [(3, 4), (2, 2), (5, 3), (4, 4)])
def test_two_sequences_match_one_sequence_with_a_blocking_bias(n, m):
    """Attending as two sequences, n rows then m rows, is the block-diagonal
    additive bias the encoder once used for a blocked view: the outputs
    agree, the biased maps are exactly zero across the blocks, and their
    diagonal blocks are the two sequences' maps."""
    heads = 2
    p = _attn_params(8)
    x = constant(RNG.normal(size=(n + m, 8)))
    bias = np.zeros((n + m, n + m))
    bias[:n, n:] = oracles.BLOCK
    bias[n:, :n] = oracles.BLOCK
    split_maps, biased_maps = [], []
    split = multi_head_attention(x, heads, p, [n, m], retain=split_maps).data
    biased = oracles.biased_attention(x, heads, p, [n + m], [bias], retain=biased_maps)
    np.testing.assert_allclose(split, biased, rtol=0, atol=1e-12)
    for h, mat in enumerate(biased_maps):
        assert np.all(mat[:n, n:] == 0.0) and np.all(mat[n:, :n] == 0.0)
        np.testing.assert_allclose(mat[:n, :n], split_maps[h], rtol=0, atol=1e-12)
        np.testing.assert_allclose(mat[n:, n:], split_maps[heads + h], rtol=0, atol=1e-12)


@pytest.mark.parametrize("ids", [
    [3, 0, 3, 1, 3, 0],       # repeated and unsorted
    [0, 1, 2, 4],             # sorted, one row untouched
    [],                       # nothing gathered
    [2, 2, 2, 2],             # one row only
], ids=["repeated", "sorted", "empty", "one-row"])
@pytest.mark.parametrize("cols", [1, 3])
def test_scatter_add_rows_is_bitwise_the_add_at_oracle(ids, cols):
    idx = np.asarray(ids, dtype=np.int64)
    g = RNG.normal(size=(len(ids), cols))
    if len(ids) >= 4:
        g[0, 0] = g[2, 0] = -0.0             # two -0.0 into one row
        g[3, -1] = -0.0                      # a -0.0 beside values
    want = oracles.add_at_rows(idx, g, 5)
    assert scatter_add_rows(idx, g, 5).tobytes() == want.tobytes()
    table = Tensor(RNG.normal(size=(5, cols)), requires=True)
    out = gather_rows(table, ids)
    out._backward(g)
    assert table.grad.tobytes() == want.tobytes()


@pytest.mark.parametrize("ids, sorts", [
    ([4, 0, 3, 1, 2], False),  # a permutation
    ([3, 0, 4], False),        # a strict subset, unsorted
    ([], False),               # nothing gathered
    ([3, 0, 3, 1], True),      # a repeated id takes the sorted path
], ids=["permutation", "subset", "empty", "repeated"])
@pytest.mark.parametrize("cols", [1, 4])
def test_one_to_one_gather_backward_assigns_rows(ids, sorts, cols, monkeypatch):
    """A gather backward whose ids do not repeat assigns its rows, without
    a sort, and is still bitwise ``np.add.at``: a -0.0 row comes out 0.0."""
    idx = np.asarray(ids, dtype=np.int64)
    g = RNG.normal(size=(len(ids), cols))
    if len(ids):
        g[0] = -0.0
    want = oracles.add_at_rows(idx, g, 5)
    sorted_calls = []
    argsort = np.argsort
    monkeypatch.setattr(np, "argsort",
                        lambda *args, **kw: sorted_calls.append(1) or argsort(*args, **kw))
    table = Tensor(RNG.normal(size=(5, cols)), requires=True)
    gather_rows(table, ids)._backward(g)
    assert table.grad.tobytes() == want.tobytes()
    assert bool(sorted_calls) == sorts
    if len(ids) and not sorts:
        assert not np.signbit(table.grad[ids[0]]).any()


def test_scatter_add_rows_sums_long_runs_in_order():
    """Runs of up to 40 rows, where a pairwise or reduceat order would
    change the last bits of a sum of mixed magnitudes."""
    idx = RNG.integers(0, 4, size=120)
    for cols in (1, 2, 64):
        g = RNG.normal(size=(120, cols)) * 10.0 ** RNG.integers(-8, 8, size=(120, 1))
        assert scatter_add_rows(idx, g, 4).tobytes() == \
            oracles.add_at_rows(idx, g, 4).tobytes()


@pytest.mark.parametrize("trial", range(3))
def test_grad_segment_mean(trial):
    x = rand_param(f"sm{trial}", 6, 3)
    segments = [[0, 1, 2], [5, 3], [4], [1, 4], [3, 0]]
    loss = _weighted_loss((len(segments), 3))
    fd_check(lambda: loss(segment_mean(x, segments)), [x])


@pytest.mark.parametrize("segments", [
    [[0, 1, 2], [5, 3], [4], [7, 6]],                   # disjoint, one row unused
    [[0, 1, 2], [5, 3], [4], [1, 4], [3, 0], [2, 2]],   # overlapping
])
def test_segment_mean_grad_is_bitwise_the_add_at_oracle(segments):
    x = Tensor(RNG.normal(size=(8, 3)), requires=True)
    out = segment_mean(x, segments)
    g = RNG.normal(size=out.shape)
    g[0, 1] = g[2, 0] = -0.0
    out._backward(g)
    assert x.grad.tobytes() == oracles.segment_mean_grad(8, segments, g).tobytes()


def test_segment_mean_grad_adds_a_row_shares_in_length_group_order():
    """Row 4 takes three shares, from segments 0 and 2 (length 1) and then
    segment 1 (length 2): the oracle's order, not the segments' order, whose
    sum differs in the last bits for these values."""
    segments = [[4], [4, 0], [4], [1]]
    x = Tensor(np.zeros((5, 4)), requires=True)
    out = segment_mean(x, segments)
    g = np.array([[0.1, 1e16, 3.3, -7.1], [0.7, 1.0, 1e-3, 2.2],
                  [0.2, -1e16, 1.1, 5.9], [1.0, 1.0, 1.0, 1.0]])
    out._backward(g)
    want = oracles.segment_mean_grad(5, segments, g)
    by_segment = ((g[0] + g[1] / 2) + g[2])
    assert want[4].tobytes() != by_segment.tobytes()
    assert x.grad.tobytes() == want.tobytes()


def test_segment_mean_is_each_segment_mean():
    x = RNG.normal(size=(9, 4))
    segments = [range(0, 3), [8, 2, 5], range(3, 6), [7]]
    out = segment_mean(constant(x), segments).data
    for k, rows in enumerate(segments):
        np.testing.assert_array_equal(out[k], x[list(rows)].mean(axis=0))
    with pytest.raises(ShapeMismatch):
        segment_mean(constant(x), [[0], []])


# ------------------------------------------------------------------------- gcn

def _gcn_params(width, fbond, prefix="g"):
    return GcnLayerParams(
        w=rand_param(f"{prefix}_w", width, width),
        bond_w=rand_param(f"{prefix}_bw", fbond, width),
        ln_gamma=rand_param(f"{prefix}_lg", 1, width),
        ln_beta=rand_param(f"{prefix}_lb", 1, width),
    )


def _naive_gcn(h, graph, bond_feats, p):
    m = graph.m
    width = h.shape[1]
    inner = h.copy()
    for i in range(m):
        for bi in graph.adjacency[i]:
            j = graph.bonds[bi].other(i)
            inner[i] += h[j] + bond_feats[bi] @ p.bond_w.data
    msg = np.maximum(0.0, inner @ p.w.data)
    pre = h + msg
    mu = pre.mean(axis=1, keepdims=True)
    var = pre.var(axis=1, keepdims=True)
    xhat = (pre - mu) / np.sqrt(var + 1e-5)
    return xhat * p.ln_gamma.data + p.ln_beta.data


def test_gcn_matches_naive_oracle():
    graph, _ = parse_smiles("CC(=O)NC1CC1")
    _, bond_feats = featurize(graph)
    p = _gcn_params(6, bond_feats.shape[1])
    h = RNG.normal(size=(graph.m, 6))
    got = gcn_layer(constant(h), *graph_union([graph])[1:], p).data
    np.testing.assert_allclose(got, _naive_gcn(h, graph, bond_feats, p), atol=1e-10)


def test_gcn_single_atom_self_term_only():
    graph, _ = parse_smiles("C")
    p = _gcn_params(5, BOND_FEATURE_DIM)
    h = RNG.normal(size=(1, 5))
    got = gcn_layer(constant(h), *graph_union([graph])[1:], p).data
    msg = np.maximum(0.0, h @ p.w.data)
    pre = h + msg
    xhat = (pre - pre.mean()) / np.sqrt(pre.var() + 1e-5)
    np.testing.assert_allclose(got, xhat * p.ln_gamma.data + p.ln_beta.data, atol=1e-10)


def test_gcn_equivariance_under_relabeling():
    import random as pyrandom
    from conftest import permute_graph

    graph, _ = parse_smiles("NC(=O)c1ccccc1O")
    _, bond_feats = featurize(graph)
    p = _gcn_params(6, bond_feats.shape[1])
    h = RNG.normal(size=(graph.m, 6))
    out = gcn_layer(constant(h), *graph_union([graph])[1:], p).data

    rng = pyrandom.Random(5)
    permuted = permute_graph(graph, rng)
    # Recover the atom mapping via source tokens (unique per atom).
    mapping = {}
    for new_idx in range(permuted.m):
        for old_idx in range(graph.m):
            if graph.atoms[old_idx].source_token == permuted.atoms[new_idx].source_token:
                mapping[new_idx] = old_idx
    h_perm = np.stack([h[mapping[i]] for i in range(permuted.m)])
    out_perm = gcn_layer(constant(h_perm), *graph_union([permuted])[1:], p).data
    for i in range(permuted.m):
        np.testing.assert_allclose(out_perm[i], out[mapping[i]], atol=1e-10)


@pytest.mark.parametrize("trial", range(5))
def test_grad_gcn(trial):
    graph, _ = parse_smiles("CC=O")
    _, bond_feats = featurize(graph)
    p = _gcn_params(4, bond_feats.shape[1], prefix=f"gc{trial}")
    h = constant(RNG.normal(size=(graph.m, 4)))
    ops = graph_union([graph])[1:]
    fd_check(lambda: mean_all(gcn_layer(h, *ops, p)),
             [p.w, p.bond_w, p.ln_gamma, p.ln_beta])


#: A ring molecule; two isolated ions, whose union has no bonds and a
#: neighbour table of width 0; an ion isolated beside bonded atoms, whose row
#: is all padding; and a carbon of degree 8.
GCN_GRAPHS = ["CC(=O)NC1CC1", "[Na+].[Cl-]", "CC(=O)[O-].[Na+]", "[C](C)(C)(C)(C)(C)(C)(C)C"]


@pytest.mark.parametrize("trial", range(3))
def test_grad_gcn_atom_states(trial):
    for smiles in GCN_GRAPHS:
        graph, _ = parse_smiles(smiles)
        p = _gcn_params(4, BOND_FEATURE_DIM, prefix=f"gh{trial}")
        h = rand_param("h", graph.m, 4)
        loss = _weighted_loss((graph.m, 4))
        ops = graph_union([graph])[1:]
        fd_check(lambda: loss(gcn_layer(h, *ops, p)),
                 [h, p.w, p.bond_w, p.ln_gamma, p.ln_beta])


def _two_graph_union():
    graphs = [parse_smiles("CC(=O)N")[0], parse_smiles("C1CC1O")[0]]
    masked = [(), (1,)]
    return graphs, masked, graph_union(graphs, masked)


def test_graph_union_is_block_diagonal():
    """A graph's rows of the union's neighbour table are its own table's,
    offset by the graph's first atom and padded with the union's atom count."""
    graphs, masked, (feats, neighbours, edge_sum) = _two_graph_union()
    total, width = neighbours.shape
    offset = 0
    for graph, atoms in zip(graphs, masked):
        alone_feats, alone_neighbours, alone_edge_sum = graph_union([graph], [atoms])
        block = slice(offset, offset + graph.m)
        np.testing.assert_array_equal(feats[block], alone_feats)
        want = np.full((graph.m, width), total)
        want[:, :alone_neighbours.shape[1]] = np.where(
            alone_neighbours == graph.m, total, alone_neighbours + offset)
        np.testing.assert_array_equal(neighbours[block], want)
        np.testing.assert_array_equal(edge_sum[block], alone_edge_sum)
        offset += graph.m
    unmasked = graph_union(graphs[1:])[2]
    assert not np.array_equal(edge_sum[graphs[0].m:], unmasked)


def test_graph_union_matches_loop_oracle_bitwise(golden_smiles):
    """The union's arrays, and its neighbour sum of random rows, equal the
    bond-by-bond oracle's bit for bit, on unions of 16 molecules and on
    unions of about 1,700 atoms, past where BLAS sums a dense product in
    blocks."""
    graphs = [parse_smiles(s)[0] for s in golden_smiles]
    rng = np.random.default_rng(0)
    for size in (16, 200):
        for lo in range(0, len(graphs), size):
            sides = graphs[lo:lo + size]
            masked = [tuple(np.flatnonzero(rng.random(g.m) < 0.3).tolist()) for g in sides]
            for mask in ((), masked):
                got = graph_union(sides, mask)
                want = oracles.graph_union(sides, mask)
                for a, b in zip(got, want):
                    assert a.dtype == b.dtype and a.shape == b.shape
                    assert a.tobytes() == b.tobytes()
            rows = rng.normal(size=(len(got[1]), 32))
            assert _neighbour_sum(rows, got[1]).tobytes() == \
                oracles.neighbour_sum(rows, want[1]).tobytes()


@pytest.mark.parametrize("trial", range(3))
def test_grad_gcn_union_of_graphs(trial):
    _, _, (_, neighbours, edge_sum) = _two_graph_union()
    p = _gcn_params(4, edge_sum.shape[1], prefix=f"gu{trial}")
    h = rand_param("h", len(neighbours), 4)
    loss = _weighted_loss((len(neighbours), 4))
    fd_check(lambda: loss(gcn_layer(h, neighbours, edge_sum, p)),
             [h, p.w, p.bond_w, p.ln_gamma, p.ln_beta])


# ---------------------------------------------------------------- feed-forward

def _ffn_params(dim, hidden, prefix="f"):
    return [rand_param(f"{prefix}_w1", dim, hidden), rand_param(f"{prefix}_b1", 1, hidden),
            rand_param(f"{prefix}_w2", hidden, dim), rand_param(f"{prefix}_b2", 1, dim)]


def _unfused_ffn(x, w1, b1, w2, b2):
    return affine(gelu(affine(x, w1, b1)), w2, b2)


def test_gelu_is_bitwise_the_reference():
    x = RNG.normal(scale=3.0, size=(7, 33))
    a = Parameter("gelu_in", x)
    out = gelu(a)
    g = RNG.normal(size=x.shape)
    out._backward(g)
    want, deriv = oracles.gelu_and_derivative(x)
    assert out.data.tobytes() == want.tobytes()
    assert a.grad.tobytes() == (0.0 + deriv * g).tobytes()


@pytest.mark.parametrize("trial", range(3))
def test_grad_feed_forward(trial):
    x = rand_param(f"ffx{trial}", 5, 4)
    params = _ffn_params(4, 6)
    loss = _weighted_loss((5, 4))
    fd_check(lambda: loss(feed_forward(x, *params)), [x, *params])


@pytest.mark.parametrize("tiles", [(0, 1), (1, -1), (1, 0), (1, 1), (3, 5)])
def test_feed_forward_is_bitwise_the_unfused_chain(tiles):
    """Rows 1, tile - 1, tile, tile + 1 and 3 * tile + 5: output and all five
    gradients equal the chain's bit for bit, with and without a tape."""
    hidden = 256
    tile = FFN_TILE // hidden
    rows = tiles[0] * tile + tiles[1]
    x = rand_param("ffx", rows, 8)
    params = _ffn_params(8, hidden)
    weights = constant(RNG.normal(size=(rows, 8)))
    results = []
    for op in (_unfused_ffn, feed_forward):
        for p in (x, *params):
            p.zero_grad()
        out = op(x, *params)
        backward(sum_all(mul(out, weights)))
        results.append([out.data] + [p.grad.copy() for p in (x, *params)])
    for got, want in zip(results[1], results[0]):
        assert got.tobytes() == want.tobytes()
    with no_grad():
        inferred = feed_forward(x, *params)
    assert inferred.data.tobytes() == results[0][0].tobytes()


def test_feed_forward_rejects_mismatched_shapes():
    w1, b1, w2, b2 = _ffn_params(4, 6)
    with pytest.raises(ShapeMismatch):
        feed_forward(rand_param("x", 3, 5), w1, b1, w2, b2)
    with pytest.raises(ShapeMismatch):
        feed_forward(rand_param("x", 3, 4), w1, b2, w2, b2)


# ------------------------------------------------------------ gradient ownership

def test_no_backward_writes_into_its_gradient():
    """Every op's backward, fused ones included, runs on a read-only ``g``:
    an in-place write into it, or into a gradient handed on from it, raises."""
    args = _no_grad_params()
    w, b = args[0], args[1]
    a = rand_param("own_a", 3, 8)
    stack = _forward_ops(*args) + [
        mul(a, a), sub(a, scale(a, 0.5)), transpose(a), relu(a), softmax_rows(a),
        pick(a, [0, 3, 7]), concat_cols([a, a]), sum_all(a), gather_rows(a, [2, 0]),
        segment_mean(a, [[0, 1], [1, 2]]), feed_forward(a, *_ffn_params(8, 16, "own")),
        add_layer_norm(a, scale(a, 0.5), args[2], args[3]),
        add(matmul(a, transpose(w)), constant(np.ones((1, 6)))), mean_rows(add(w, b)),
    ]
    seen, ops = set(), set()
    while stack:
        node = stack.pop()
        if id(node) in seen:
            continue
        seen.add(id(node))
        stack.extend(node._parents)
        if node._backward is None:
            continue
        ops.add(node._backward.__qualname__.split(".")[0])
        g = RNG.normal(size=node.shape)
        g.flags.writeable = False
        node._backward(g)
    assert ops >= {
        "add", "mul", "scale", "matmul", "transpose", "relu", "gelu", "softplus",
        "softmax_rows", "log_softmax_rows", "layer_norm_rows", "gather_rows",
        "_concat", "pick", "sum_all", "mean_all", "segment_mean",
        "normalize_rows", "multi_head_attention", "gcn_layer", "feed_forward",
        "add_layer_norm"}


@pytest.mark.parametrize("build, x_grad, y_grad", [
    (lambda h, k: add(h, h), lambda w: w + w, None),
    (lambda h, k: concat_rows([h, h]), lambda w: w[:4] + w[4:], None),
    # add hands one array to both inputs: h's later share must not change k's.
    (lambda h, k: add(add(h, k), h), lambda w: w + w, lambda w: w),
])
def test_grad_of_an_intermediate_used_twice(build, x_grad, y_grad):
    x, y = rand_param("hx", 4, 6), rand_param("hy", 4, 6)
    out = build(scale(x, 0.5), scale(y, 0.5))
    weights = RNG.normal(size=out.shape)
    x.zero_grad()
    y.zero_grad()
    backward(sum_all(mul(out, constant(weights))))
    assert x.grad.tobytes() == (0.5 * x_grad(weights)).tobytes()
    if y_grad is None:
        assert not y.grad.any()
    else:
        assert y.grad.tobytes() == (0.5 * y_grad(weights)).tobytes()


@pytest.mark.parametrize("trial", range(2))
def test_grad_one_tensor_feeding_two_feed_forwards(trial):
    x = rand_param(f"two{trial}", 3, 4)
    first, second = _ffn_params(4, 6, "one"), _ffn_params(4, 6, "two")
    loss = _weighted_loss((3, 4))

    def build():
        h = scale(x, 0.5)
        return loss(add(feed_forward(h, *first), feed_forward(h, *second)))

    fd_check(build, [x, *first, *second])


def test_two_backward_calls_accumulate():
    x = rand_param("acc_x", 3, 4)
    params = _ffn_params(4, 6, "acc")
    loss = _weighted_loss((3, 4))(feed_forward(scale(x, 0.5), *params))
    for p in (x, *params):
        p.zero_grad()
    backward(loss)
    once = [p.grad.copy() for p in (x, *params)]
    backward(loss)
    for p, g in zip((x, *params), once):
        assert p.grad.tobytes() == (g + g).tobytes()


# ------------------------------------------------------------------------ adam

def test_adam_zero_grad_no_move():
    w = Parameter("w", np.array([[1.0, -2.0]]))
    w.zero_grad()
    state = AdamState(lr=0.1)
    adam_step([w], state)
    np.testing.assert_allclose(w.data, [[1.0, -2.0]])


def test_adam_descends_quadratic():
    w = Parameter("w", np.array([[1.0]]))
    state = AdamState(lr=0.1)
    w.zero_grad()
    backward(sum_all(mul(w, w)))
    before = w.data[0, 0]
    adam_step([w], state)
    assert abs(w.data[0, 0]) < abs(before)


def test_adam_converges_2d_quadratic():
    w = Parameter("w", np.array([[1.5, -2.0]]))
    state = AdamState(lr=0.05)
    for _ in range(200):
        w.zero_grad()
        backward(sum_all(mul(w, w)))
        adam_step([w], state)
    assert np.abs(w.data).max() < 1e-3


def test_adam_zero_grad_after_a_step_still_moves():
    w = Parameter("w", np.array([[1.0, -2.0]]))
    state = AdamState(lr=0.1)
    w.grad = np.array([[0.5, -0.5]])
    adam_step([w], state)
    after_first = w.data.copy()
    w.zero_grad()
    adam_step([w], state)
    assert np.all(w.data != after_first)
    assert np.all(np.abs(w.data - after_first) > 0.05)


@pytest.mark.parametrize("weight_decay", [0.0, 0.01])
def test_adam_is_bitwise_the_reference(weight_decay):
    rng = np.random.default_rng(5)
    shapes = {"a": (3, 4), "b": (1, 4), "c": (2, 2)}
    mine = [Parameter(n, rng.normal(size=s)) for n, s in shapes.items()]
    ref = [Parameter(n, p.data.copy()) for n, p in zip(shapes, mine)]
    states = AdamState(lr=0.01, weight_decay=weight_decay), \
        AdamState(lr=0.01, weight_decay=weight_decay)
    for step in range(5):
        grads = [rng.normal(size=s) for s in shapes.values()]
        grads[1] = None if step == 2 else grads[1]
        grads[2] = np.zeros(shapes["c"]) if step >= 3 else grads[2]
        for params in (mine, ref):
            for p, g in zip(params, grads):
                p.grad = None if g is None else g.copy()
        adam_step(mine, states[0])
        oracles.adam_step(ref, states[1])
        for p, q in zip(mine, ref):
            assert p.data.tobytes() == q.data.tobytes()
            assert states[0].m[p.name].tobytes() == states[1].m[q.name].tobytes()
            assert states[0].v[p.name].tobytes() == states[1].v[q.name].tobytes()


def test_adam_weight_decay_decoupled():
    w = Parameter("w", np.array([[1.0]]))
    state = AdamState(lr=0.1, weight_decay=0.5)
    w.zero_grad()  # zero gradient: only decay moves the weight
    adam_step([w], state)
    assert w.data[0, 0] == pytest.approx(1.0 - 0.1 * 0.5)


# -------------------------------------------------------------------- no_grad

def _forward_ops(w, b, g, beta, attn, gcn, graph):
    """One result of each kind of op, from parameters."""
    atom_feats, neighbours, edge_sum = graph_union([graph])
    h = add(matmul(constant(atom_feats[:, :w.shape[0]]), w), b)
    x = layer_norm_rows(gelu(h), g, beta)
    return [h, x, gather_rows(w, [0, 2, 2]), concat_rows([x, x]),
            multi_head_attention(x, 2, attn, [2, graph.m - 2]),
            gcn_layer(x, neighbours, edge_sum, gcn), segment_mean(x, [[0, 1], [2]]),
            mean_all(softplus(x)), log_softmax_rows(x), normalize_rows(x)]


def _no_grad_params(width=8):
    graph, _ = parse_smiles("CC(=O)OC")
    fbond = graph_union([graph])[2].shape[1]
    return [rand_param("w", 6, width), rand_param("b", 1, width),
            rand_param("g", 1, width), rand_param("beta", 1, width),
            _attn_params(width, "ng"), _gcn_params(width, fbond, "ng"), graph]


def test_no_grad_ops_have_no_parents_and_no_backward():
    args = _no_grad_params()
    recorded = _forward_ops(*args)
    assert all(t._backward is not None and t._parents for t in recorded)
    with no_grad():
        outs = _forward_ops(*args)
    for rec, out in zip(recorded, outs):
        assert out._parents == () and out._backward is None and not out.requires
        np.testing.assert_array_equal(out.data, rec.data)


def test_no_grad_leaves_parameter_grads_untouched():
    args = _no_grad_params()
    params = args[:4] + [*vars(args[4]).values(), *vars(args[5]).values()]
    before = []
    for p in params:
        p.grad = RNG.normal(size=p.data.shape)
        before.append((p.grad, p.grad.copy()))
    with no_grad():
        loss = mean_all(_forward_ops(*args)[-1])
    backward(loss)
    for p, (buffer, values) in zip(params, before):
        assert p.grad is buffer
        np.testing.assert_array_equal(p.grad, values)


def test_no_grad_restores_recording_after_exception_and_nesting():
    w = rand_param("w", 2, 2)
    with pytest.raises(RuntimeError):
        with no_grad():
            raise RuntimeError("inside the block")
    assert add(w, w)._backward is not None
    with no_grad():
        with no_grad():
            pass
        assert add(w, w)._backward is None
    assert add(w, w)._backward is not None


def test_no_grad_packed_x_cls_is_bitwise_the_recording_forward():
    from chemfuse.pipeline import build_vocabulary, parse_molecule, x_cls_of

    from test_pipeline import _small_model_and_records, tiny_corpus

    model, _ = _small_model_and_records(n=6)
    vocab = build_vocabulary(m.tokens for m in tiny_corpus(6).molecules)
    molecules = [parse_molecule(s) for s in
                 ["CCO", "C", "c1ccccc1", "[NH4+]", "CC(=O)NC", "C1CCCCC1"]]
    recorded = x_cls_of(model, vocab, molecules)
    with no_grad():
        inferred = x_cls_of(model, vocab, molecules)
    assert recorded._backward is not None
    assert inferred._parents == () and inferred._backward is None
    np.testing.assert_array_equal(inferred.data, recorded.data)
