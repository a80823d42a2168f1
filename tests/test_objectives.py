"""Loss-function tests: closed forms, naive-loop oracles, gradient checks."""

import math

import numpy as np
import pytest

from chemfuse.chem import parse_smiles
from chemfuse.encoder import JointEncoding, ModelConfig, MoleculeEncoder
from chemfuse.fragments import build_fragment_map
from chemfuse.masking import MaskConfig, MaskedSample, Modality, sample_fragment_mask, sample_token_mask
from chemfuse.nn import NonFiniteInput, backward, concat_rows, constant, segment_mean
from chemfuse.objectives import (
    BatchTooSmall,
    Heads,
    MissingComponent,
    NoMaskedPositions,
    SingleFragmentBatch,
    loss_cmm_fragment,
    loss_cmm_token,
    loss_dkl,
    loss_fla,
    loss_sgm,
    total_loss,
)

from test_tensor_nn import fd_check

RNG = np.random.default_rng(7)

CFG = ModelConfig(vocab_size=11, context_vocab_size=6, dim=8, transformer_layers=1,
                  heads=2, gnn_layers=1, gnn_width=6, max_positions=32,
                  fingerprint_width=16, n_groups=4)


def fake_encoding(*views, dim=CFG.dim):
    """Random encoder rows of views given as (n, m) pairs, packed."""
    lengths = [n + m for n, m in views]
    x = constant(RNG.normal(size=(sum(lengths), dim)))
    starts = np.cumsum([0] + lengths[:-1])
    x_cls = segment_mean(x, [range(s, s + length) for s, length in zip(starts, lengths)])
    return JointEncoding(x=x, x_cls=x_cls, n=tuple(n for n, _ in views),
                         m=tuple(m for _, m in views))


def fake_token_sample(n, m, vocab=CFG.vocab_size, ctx=CFG.context_vocab_size,
                      n_tok=2, n_atom=2):
    token_pos = tuple(sorted(RNG.choice(n, size=min(n_tok, n), replace=False).tolist()))
    atom_pos = tuple(sorted(RNG.choice(m, size=min(n_atom, m), replace=False).tolist()))
    return MaskedSample(
        masked_token_positions=token_pos,
        masked_atom_positions=atom_pos,
        token_targets={i: int(RNG.integers(3, vocab)) for i in token_pos},
        atom_context_targets={j: int(RNG.integers(0, ctx)) for j in atom_pos},
    )


def zeroed_heads():
    heads = Heads(CFG, seed=3)
    for p in heads.params.values():
        p.data[:] = 0.0
    return heads


# --------------------------------------------------------------- closed forms

def test_cmm_token_uniform_prediction_is_log_v():
    heads = zeroed_heads()
    enc = fake_encoding((6, 4))
    samples = [fake_token_sample(6, 4)]
    loss, _ = loss_cmm_token(enc, samples, heads)
    expected = math.log(CFG.vocab_size) + math.log(CFG.context_vocab_size)
    assert loss.item() == pytest.approx(expected, abs=1e-10)


def test_cmm_token_no_masks_raises():
    heads = zeroed_heads()
    empty = MaskedSample()
    with pytest.raises(NoMaskedPositions):
        loss_cmm_token(fake_encoding((4, 3)), [empty], heads)


def test_cmm_token_matches_loop_oracle():
    heads = Heads(CFG, seed=5)
    enc = fake_encoding((7, 5), (5, 6))
    samples = [fake_token_sample(7, 5), fake_token_sample(5, 6)]
    loss, _ = loss_cmm_token(enc, samples, heads)

    def softmax(v):
        e = np.exp(v - v.max())
        return e / e.sum()

    tok_nll, atom_nll = [], []
    tw, tb = heads.token_w.data, heads.token_b.data
    cw, cb = heads.ctx_w.data, heads.ctx_b.data
    for start, n, sample in zip(enc.starts, enc.n, samples):
        for i in sample.masked_token_positions:
            probs = softmax(enc.x.data[start + i] @ tw + tb[0])
            tok_nll.append(-math.log(probs[sample.token_targets[i]]))
        for j in sample.masked_atom_positions:
            probs = softmax(enc.x.data[start + n + j] @ cw + cb[0])
            atom_nll.append(-math.log(probs[sample.atom_context_targets[j]]))
    expected = np.mean(tok_nll) + np.mean(atom_nll)
    assert loss.item() == pytest.approx(expected, abs=1e-10)


def test_cmm_fragment_reads_only_masked_modality():
    heads = zeroed_heads()
    enc = fake_encoding((6, 4))
    graph_sample = MaskedSample(
        masked_atom_positions=(0, 2),
        masked_modality=Modality.GRAPH,
        atom_context_targets={0: 1, 2: 3},
    )
    loss, _ = loss_cmm_fragment(enc, [graph_sample], heads)
    # Only the context head contributes.
    assert loss.item() == pytest.approx(math.log(CFG.context_vocab_size), abs=1e-10)
    with pytest.raises(NoMaskedPositions):
        loss_cmm_fragment(enc, [MaskedSample()], heads)


def test_fla_closed_form_orthogonal():
    f_s = constant(np.eye(2))
    f_g = constant(np.eye(2))
    loss, aux = loss_fla(f_s, f_g)
    per_direction = math.log1p(math.exp(-1.0 / 0.05))
    assert loss.item() == pytest.approx(2 * per_direction, abs=1e-12)
    assert aux["matched_cosine"] == pytest.approx(1.0)


def test_fla_equal_similarity_is_log2():
    f_s = constant(np.array([[1.0, 0.0], [1.0, 0.0]]))
    f_g = constant(np.array([[0.0, 1.0], [0.0, 1.0]]))
    loss, _ = loss_fla(f_s, f_g)
    assert loss.item() == pytest.approx(2 * math.log(2), abs=1e-12)


def test_fla_matches_pairwise_oracle():
    tau = 0.05
    for trial in range(20):
        k = int(RNG.integers(2, 7))
        f_s = RNG.normal(size=(k, 5))
        f_g = RNG.normal(size=(k, 5))
        loss, _ = loss_fla(constant(f_s), constant(f_g), tau=tau)
        ns = f_s / np.linalg.norm(f_s, axis=1, keepdims=True)
        ng = f_g / np.linalg.norm(f_g, axis=1, keepdims=True)
        sims = ns @ ng.T
        total = 0.0
        for i in range(k):
            row = sims[i] / tau
            total += -(row[i] - np.log(np.exp(row - row.max()).sum()) - row.max())
            col = sims[:, i] / tau
            total += -(col[i] - np.log(np.exp(col - col.max()).sum()) - col.max())
        assert loss.item() == pytest.approx(total / k, abs=1e-10)


def test_fla_single_fragment_rejected():
    with pytest.raises(SingleFragmentBatch):
        loss_fla(constant(np.ones((1, 4))), constant(np.ones((1, 4))))


def test_fla_far_negative_contribution_bounded():
    """A negative at cosine -1 shifts a row's term by less than e^(-2/tau)."""
    e0 = np.array([1.0, 0.0])
    e1 = np.array([0.0, 1.0])
    for tau, slack in ((0.5, 0.0), (0.05, 1e-12)):
        # Row-0 softmax term with and without the antipodal negative.
        def row0_term(with_negative):
            sims = [1.0, 0.0] + ([-1.0] if with_negative else [])
            weights = [math.exp(s / tau) for s in sims]
            return -math.log(weights[0] / sum(weights))

        diff = abs(row0_term(True) - row0_term(False))
        assert diff < math.exp(-2.0 / tau) + slack
        # Same effect observed through the public loss: append the antipodal
        # fragment and compare row-0 content via the total.
        f_s = constant(np.stack([e0, e1, -e0]))
        f_g = constant(np.stack([e0, e1, -e0]))
        loss_full, _ = loss_fla(f_s, f_g, tau=tau)
        assert math.isfinite(loss_full.item()) and loss_full.item() >= 0


def test_cmm_token_perfect_prediction_near_zero():
    heads = zeroed_heads()
    target = 4
    heads.token_b.data[0, target] = 60.0      # one-hot certainty at the target
    enc = fake_encoding((5, 3))
    sample = MaskedSample(masked_token_positions=(1,), token_targets={1: target},
                          masked_atom_positions=(0,),
                          atom_context_targets={0: 2})
    heads.ctx_b.data[0, 2] = 60.0
    loss, aux = loss_cmm_token(enc, [sample], heads)
    assert loss.item() < 1e-10
    assert aux["mlm_accuracy"] == 1.0


def test_losses_nonnegative_on_random_inputs():
    heads = Heads(CFG, seed=23)
    for trial in range(10):
        enc = fake_encoding((6, 4))
        sample = fake_token_sample(6, 4)
        assert loss_cmm_token(enc, [sample], heads)[0].item() >= 0
        f = constant(RNG.normal(size=(3, CFG.dim)))
        g = constant(RNG.normal(size=(3, CFG.dim)))
        assert loss_fla(f, g)[0].item() >= 0
        pos = constant(RNG.normal(size=(2, CFG.dim)))
        neg = constant(RNG.normal(size=(2, CFG.dim)))
        assert loss_sgm(pos, neg, heads)[0].item() >= 0
        fps = [RNG.integers(0, 2, size=CFG.fingerprint_width).astype(float)
               for _ in range(2)]
        fgs = [RNG.integers(0, 2, size=CFG.n_groups).astype(float)
               for _ in range(2)]
        assert loss_dkl(pos, fps, fgs, heads)[0].item() >= 0


def test_fla_monotone_in_positive_similarity():
    base = np.array([[1.0, 0.0], [0.0, 1.0]])
    f_g = constant(base.copy())
    losses = []
    for pull in (0.0, 0.5, 0.9):
        f_s = base.copy()
        f_s[0] = (1 - pull) * np.array([0.3, 0.9]) + pull * base[0]
        loss, _ = loss_fla(constant(f_s), f_g, tau=0.5)
        losses.append(loss.item())
    assert losses[0] > losses[1] > losses[2]


def test_sgm_uniform_is_log2_and_oracle():
    heads = zeroed_heads()
    pos = [constant(RNG.normal(size=(1, CFG.dim))) for _ in range(3)]
    neg = [constant(RNG.normal(size=(1, CFG.dim))) for _ in range(3)]
    loss, aux = loss_sgm(concat_rows(pos), concat_rows(neg), heads)
    assert loss.item() == pytest.approx(math.log(2), abs=1e-12)

    heads = Heads(CFG, seed=9)
    loss, _ = loss_sgm(concat_rows(pos), concat_rows(neg), heads)
    nlls = []
    for rows, label in ((pos, 1), (neg, 0)):
        for r in rows:
            hidden = np.maximum(0.0, r.data @ heads.sgm_w1.data + heads.sgm_b1.data)
            logits = (hidden @ heads.sgm_w2.data + heads.sgm_b2.data)[0]
            e = np.exp(logits - logits.max())
            nlls.append(-math.log((e / e.sum())[label]))
    assert loss.item() == pytest.approx(np.mean(nlls), abs=1e-10)


def test_sgm_batch_too_small():
    heads = Heads(CFG, seed=1)
    with pytest.raises(BatchTooSmall):
        loss_sgm(constant(np.ones((1, CFG.dim))), constant(np.ones((1, CFG.dim))), heads)


def test_dkl_zero_head_terms():
    heads = zeroed_heads()
    x = [constant(RNG.normal(size=(1, CFG.dim))) for _ in range(2)]
    fps = [np.zeros(CFG.fingerprint_width) for _ in range(2)]
    fgs = [np.zeros(CFG.n_groups), np.ones(CFG.n_groups)]
    loss, _ = loss_dkl(concat_rows(x), fps, fgs, heads)
    # Zero heads give zero fp output (MSE 0 on zero bits) and p=0.5 per group.
    assert loss.item() == pytest.approx(math.log(2), abs=1e-12)


def test_dkl_matches_loop_oracle():
    heads = Heads(CFG, seed=13)
    batch = 3
    x = [constant(RNG.normal(size=(1, CFG.dim))) for _ in range(batch)]
    fps = [RNG.integers(0, 2, size=CFG.fingerprint_width).astype(float)
           for _ in range(batch)]
    fgs = [RNG.integers(0, 2, size=CFG.n_groups).astype(float) for _ in range(batch)]
    loss, _ = loss_dkl(concat_rows(x), fps, fgs, heads)
    mse_terms, bce_terms = [], []
    for xi, fp, fg in zip(x, fps, fgs):
        hid = np.maximum(0.0, xi.data @ heads.fp_w1.data + heads.fp_b1.data)
        out = (hid @ heads.fp_w2.data + heads.fp_b2.data)[0]
        mse_terms.extend((out - fp) ** 2)
        hid = np.maximum(0.0, xi.data @ heads.fg_w1.data + heads.fg_b1.data)
        z = (hid @ heads.fg_w2.data + heads.fg_b2.data)[0]
        bce_terms.extend(np.logaddexp(0.0, z) - z * fg)
    expected = np.mean(mse_terms) + np.mean(bce_terms)
    assert loss.item() == pytest.approx(expected, abs=1e-10)


def test_total_loss_arithmetic_and_nan_guard():
    parts = [constant(float(v)) for v in (1, 2, 3, 4, 5)]
    total, report = total_loss(*parts)
    assert report.l_cmm == 3
    assert report.total == 15
    assert total.item() == 15
    with pytest.raises(MissingComponent):
        total_loss(parts[0], None, parts[2], parts[3], parts[4])
    bad = constant(1.0)
    bad.data[0, 0] = float("nan")
    with pytest.raises(NonFiniteInput):
        total_loss(parts[0], bad, parts[2], parts[3], parts[4])


# ------------------------------------------------------------- gradient checks

def _tiny_world(seed=21):
    enc = MoleculeEncoder(CFG, seed=seed)
    heads = Heads(CFG, seed=seed + 1)
    g1, t1 = parse_smiles("CC(=O)OC")
    g2, t2 = parse_smiles("CCN")
    recs = []
    for g, t in ((g1, t1), (g2, t2)):
        ids = [3 + (i % (CFG.vocab_size - 3)) for i in range(t.n)]
        ctx = [i % CFG.context_vocab_size for i in range(g.m)]
        fmap = build_fragment_map(t, g)
        recs.append((ids, g, ctx, fmap))
    return enc, heads, recs


def test_grad_all_five_heads():
    enc, heads, recs = _tiny_world()
    rng = np.random.default_rng(3)

    class Rec:
        def __init__(self, ids, graph, ctx, fmap):
            self.token_ids = ids
            self.graph = graph
            self.context_ids = ctx
            self.fragment_map = fmap

    records = [Rec(*r) for r in recs]
    cfg = MaskConfig(seed=0)
    tok_samples = [sample_token_mask(r, cfg, np.random.default_rng(5 + i))
                   for i, r in enumerate(records)]
    frag_samples = [sample_fragment_mask(r, r.fragment_map, cfg,
                                         np.random.default_rng(9 + i))
                    for i, r in enumerate(records)]
    fixed_fps = [rng.integers(0, 2, size=CFG.fingerprint_width).astype(float)
                 for _ in records]
    fixed_fgs = [rng.integers(0, 2, size=CFG.n_groups).astype(float)
                 for _ in records]

    def forward_all():
        clean = MaskedSample()
        views = ([(r, s) for r, s in zip(records, tok_samples)]
                 + [(r, s) for r, s in zip(records, frag_samples)]
                 + [(r, clean) for r in records])
        encoding = enc.encode([r.token_ids for r, _ in views], [r.graph for r, _ in views],
                              [s.masked_token_positions for _, s in views],
                              [s.masked_atom_positions for _, s in views])
        l_t, _ = loss_cmm_token(encoding.views(range(0, 2)), tok_samples, heads)
        l_f, _ = loss_cmm_fragment(encoding.views(range(2, 4)), frag_samples, heads)
        clean_views = encoding.views(range(4, 6))
        pooled = enc.pool_fragments(clean_views, [r.fragment_map for r in records])
        l_a, _ = loss_fla(pooled.f_s, pooled.f_g, tau=0.5)
        neg = enc.encode([records[0].token_ids, records[1].token_ids],
                         [records[1].graph, records[0].graph]).x_cls
        l_s, _ = loss_sgm(clean_views.x_cls, neg, heads)
        l_d, _ = loss_dkl(clean_views.x_cls, fixed_fps, fixed_fgs, heads)
        total, _ = total_loss(l_t, l_f, l_a, l_s, l_d)
        return total

    head_params = [heads.token_w, heads.token_b, heads.ctx_w, heads.ctx_b,
                   heads.sgm_w1, heads.sgm_w2, heads.fp_w2, heads.fg_w2]
    fd_check(forward_all, head_params)


def test_total_gradient_is_sum_of_component_gradients():
    enc, heads, recs = _tiny_world(seed=31)
    ids, g, ctx, fmap = recs[0]

    sample = MaskedSample(masked_token_positions=(0,),
                          token_targets={0: ids[0]})

    def run(component):
        e = enc.encode([ids], [g], masked_tokens=[(0,)])
        l_t, _ = loss_cmm_token(e, [sample], heads)
        pooled = enc.pool_fragments(e, [fmap])
        if fmap.K >= 2:
            l_a, _ = loss_fla(pooled.f_s, pooled.f_g, tau=0.5)
        else:
            l_a = constant(0.0)
        if component == "t":
            return l_t
        if component == "a":
            return l_a
        from chemfuse.nn import add
        return add(l_t, l_a)

    target = heads.token_w
    grads = {}
    for comp in ("t", "a", "sum"):
        target.zero_grad()
        backward(run(comp))
        grads[comp] = target.grad.copy()
    np.testing.assert_allclose(grads["sum"], grads["t"] + grads["a"], atol=1e-12)
