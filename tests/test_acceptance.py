"""Acceptance suite: one test per criterion, one printed pass/fail line each.

Run with ``pytest -s tests/test_acceptance.py`` to see the lines as they
pass. The pretraining smoke (criterion 5) is shared with the determinism
check (criterion 9), which repeats it with the same seed and compares
checkpoint bytes, and with the comparison against its recorded reference
in ``data/smoke_reference``.
"""

import hashlib
import math
import time
from types import SimpleNamespace

import numpy as np
import pytest

from chemfuse.chem import are_isomorphic, parse_smiles, tokenize, write_smiles
from chemfuse.encoder import ModelConfig
from chemfuse.fragments import build_fragment_map, label_smiles_tokens
from chemfuse.masking import (
    MaskConfig,
    Modality,
    mask_count,
    sample_fragment_mask,
    sample_token_mask,
)
from chemfuse.metrics import concordance_index, roc_auc
from chemfuse.nn import constant, mean_all
from chemfuse.objectives import Heads, loss_cmm_token, loss_dkl, loss_fla, loss_sgm
from chemfuse.pipeline import (
    SplitMode,
    TaskKind,
    TrainConfig,
    finetune,
    ingest,
    load_task,
    pretrain,
)

from conftest import DATA_DIR, graph_operators
from curve_diff import (
    EMBED_HEAD,
    TOLERANCE,
    build_id,
    curve_diff,
    downstream,
    embed_sha256,
    history_array,
    read_downstream,
    read_recording,
)
from oracles import fragment_members
from test_tensor_nn import fd_check


def report(criterion: int, detail: str) -> None:
    print(f"\nacceptance criterion {criterion}: PASS - {detail}")


SMOKE_MODEL = dict(dim=64, transformer_layers=2, heads=4, gnn_layers=3,
                   gnn_width=32, fingerprint_width=1024)
SMOKE_REFERENCE = DATA_DIR / "smoke_reference"


@pytest.fixture(scope="module")
def smoke_run(tmp_path_factory):
    corpus = ingest(DATA_DIR / "toy_200.smi")
    assert len(corpus) == 200
    ckpt = tmp_path_factory.mktemp("smoke") / "ckpt"
    start = time.time()
    model, vocab, ctx, history = pretrain(
        corpus, MaskConfig(seed=7), TrainConfig(epochs=30, batch_size=16, seed=7),
        model_kwargs=dict(SMOKE_MODEL), checkpoint_dir=ckpt)
    runtime = time.time() - start
    return SimpleNamespace(corpus=corpus, model=model, vocab=vocab, ctx=ctx,
                           history=history, ckpt=ckpt, runtime=runtime)


# --------------------------------------------------------------- criterion 1

def test_criterion_1_parser_suite(golden_smiles):
    assert len(golden_smiles) == 500
    start = time.time()
    for smiles in golden_smiles:
        seq = tokenize(smiles)
        assert "".join(t.text for t in seq.tokens) == smiles
        graph, _ = parse_smiles(smiles)
        again, _ = parse_smiles(write_smiles(graph))
        assert are_isomorphic(graph, again), smiles
    elapsed = time.time() - start
    assert elapsed < 10.0
    report(1, f"500 molecules reassembled and round-tripped in {elapsed:.2f}s")


# --------------------------------------------------------------- criterion 2

def test_criterion_2_fragment_suite(golden_smiles):
    for smiles in golden_smiles:
        graph, tokens = parse_smiles(smiles)
        fmap = build_fragment_map(tokens, graph)
        again = build_fragment_map(*parse_smiles(smiles)[::-1])
        assert fmap == again, smiles                       # determinism
        assert len(fmap.l_g) == graph.m and len(fmap.l_s) == tokens.n
        assert all(0 <= lab < fmap.K for lab in fmap.l_g)  # totality
        assert all(0 <= lab < fmap.K for lab in fmap.l_s)
        for k in range(fmap.K):                            # heavy-atom agreement
            atoms, toks = fragment_members(fmap, k)
            elems_graph = sorted(graph.atoms[i].element for i in atoms)
            elems_tokens = sorted(
                graph.atoms[tokens.tokens[t].atom_index].element
                for t in toks if tokens.tokens[t].is_atom)
            assert elems_graph == elems_tokens, (smiles, k)
    graph, tokens = parse_smiles("CC(=O)OC")
    assert label_smiles_tokens(tokens, graph, [0, 0, 0, 1, 1]) == \
        [0, 0, 0, 0, 0, 0, 1, 1]
    report(2, "labels total, per-fragment elements agree, pinned case exact")


# --------------------------------------------------------------- criterion 3

def test_criterion_3_gradient_suite():
    from chemfuse.nn import (
        AttentionParams, GcnLayerParams, Parameter, add_layer_norm, feed_forward, gcn_layer,
        gelu, layer_norm_rows, matmul, mul, multi_head_attention, normalize_rows,
        relu, softmax_rows, softplus,
    )

    rng = np.random.default_rng(77)
    start = time.time()

    def rp(name, *shape):
        return Parameter(name, rng.normal(0.0, 0.7, size=shape))

    # Elementwise / normalization layers, 5 instances each.
    for trial in range(5):
        w = rp(f"w{trial}", 3, 4)
        x = constant(rng.normal(size=(3, 4)))
        for op in (relu, gelu, softplus, softmax_rows, normalize_rows):
            fd_check(lambda op=op: mean_all(op(mul(w, x))), [w])
        g, b = rp("g", 1, 4), rp("b", 1, 4)
        fd_check(lambda: mean_all(layer_norm_rows(w, g, b)), [w, g, b])
        c = rp("c", 3, 4)
        fd_check(lambda: mean_all(mul(add_layer_norm(w, c, g, b), x)), [w, c, g, b])
        a2, b2 = rp("a2", 3, 3), rp("b2", 3, 4)
        fd_check(lambda: mean_all(matmul(a2, b2)), [a2, b2])

    # Attention, message passing and the feed-forward block, 5 instances each.
    graph, _ = parse_smiles("CC(=O)N")
    from chemfuse.features import featurize
    _, bond_feats = featurize(graph)
    ops = graph_operators(graph, bond_feats)
    for trial in range(5):
        ap = AttentionParams(
            rp("wq", 4, 4), rp("bq", 1, 4), rp("wk", 4, 4), rp("bk", 1, 4),
            rp("wv", 4, 4), rp("bv", 1, 4), rp("wo", 4, 4), rp("bo", 1, 4))
        x = constant(rng.normal(size=(3, 4)))
        fd_check(lambda: mean_all(multi_head_attention(x, 2, ap, [3])),
                 [ap.wq, ap.wk, ap.wv, ap.wo, ap.bq, ap.bo])
        gp = GcnLayerParams(rp("gw", 4, 4), rp("gbw", bond_feats.shape[1], 4),
                            rp("glg", 1, 4), rp("glb", 1, 4))
        h = constant(rng.normal(size=(graph.m, 4)))
        fd_check(lambda: mean_all(gcn_layer(h, *ops, gp)),
                 [gp.w, gp.bond_w, gp.ln_gamma, gp.ln_beta])
        fx = rp("fx", 3, 4)
        ffn = [rp("fw1", 4, 6), rp("fb1", 1, 6), rp("fw2", 6, 4), rp("fb2", 1, 4)]
        fd_check(lambda: mean_all(mul(feed_forward(fx, *ffn), x)), [fx, *ffn])

    # All five loss heads, 5 random instances each.
    cfg = ModelConfig(vocab_size=9, context_vocab_size=5, dim=8,
                      transformer_layers=1, heads=2, gnn_layers=1, gnn_width=6,
                      max_positions=16, fingerprint_width=12, n_groups=4)
    from chemfuse.encoder import JointEncoding
    from chemfuse.masking import MaskedSample
    from chemfuse.nn import mean_rows

    for trial in range(5):
        heads = Heads(cfg, seed=100 + trial)
        x = constant(rng.normal(size=(7, cfg.dim)))
        enc = JointEncoding(x=x, x_cls=mean_rows(x), n=(4,), m=(3,))
        sample = MaskedSample(
            masked_token_positions=(0, 2), masked_atom_positions=(1,),
            token_targets={0: 3, 2: 5}, atom_context_targets={1: 2})
        fd_check(lambda: loss_cmm_token(enc, [sample], heads)[0],
                 [heads.token_w, heads.token_b, heads.ctx_w, heads.ctx_b])
        pos = constant(rng.normal(size=(2, cfg.dim)))
        neg = constant(rng.normal(size=(2, cfg.dim)))
        fd_check(lambda: loss_sgm(pos, neg, heads)[0],
                 [heads.sgm_w1, heads.sgm_b1, heads.sgm_w2, heads.sgm_b2])
        fps = [rng.integers(0, 2, size=cfg.fingerprint_width).astype(float)
               for _ in range(2)]
        fgs = [rng.integers(0, 2, size=cfg.n_groups).astype(float)
               for _ in range(2)]
        fd_check(lambda: loss_dkl(pos, fps, fgs, heads)[0],
                 [heads.fp_w1, heads.fp_w2, heads.fp_b2,
                  heads.fg_w1, heads.fg_w2, heads.fg_b2])
        fs = Parameter("fs", rng.normal(size=(3, cfg.dim)))
        fg = Parameter("fg", rng.normal(size=(3, cfg.dim)))
        fd_check(lambda: loss_fla(fs, fg, tau=0.5)[0], [fs, fg])
    elapsed = time.time() - start
    assert elapsed < 60.0
    report(3, f"layers and all five heads pass finite differences in {elapsed:.1f}s")


# --------------------------------------------------------------- criterion 4

def test_criterion_4_loss_oracles():
    from chemfuse.encoder import JointEncoding
    from chemfuse.masking import MaskedSample
    from chemfuse.nn import concat_rows, mean_rows

    rng = np.random.default_rng(4)
    cfg = ModelConfig(vocab_size=13, context_vocab_size=7, dim=10,
                      transformer_layers=1, heads=2, gnn_layers=1, gnn_width=6,
                      max_positions=16, fingerprint_width=32, n_groups=6)
    tau = 0.05

    def softmax(v):
        e = np.exp(v - v.max())
        return e / e.sum()

    for batch_trial in range(20):
        heads = Heads(cfg, seed=batch_trial)
        batch = int(rng.integers(2, 5))
        views, samples = [], []
        for _ in range(batch):
            n, m = int(rng.integers(3, 8)), int(rng.integers(2, 6))
            views.append((rng.normal(size=(n + m, cfg.dim)), n, m))
            tok = tuple(sorted(rng.choice(n, size=2, replace=False).tolist()))
            atom = tuple(sorted(rng.choice(m, size=1, replace=False).tolist()))
            samples.append(MaskedSample(
                masked_token_positions=tok, masked_atom_positions=atom,
                token_targets={i: int(rng.integers(3, cfg.vocab_size)) for i in tok},
                atom_context_targets={j: int(rng.integers(0, cfg.context_vocab_size))
                                      for j in atom}))

        # CMM against a scalar loop.
        x_cls = [mean_rows(constant(rows)) for rows, _, _ in views]
        enc = JointEncoding(x=constant(np.concatenate([rows for rows, _, _ in views])),
                            x_cls=concat_rows(x_cls), n=tuple(v[1] for v in views),
                            m=tuple(v[2] for v in views))
        got, _ = loss_cmm_token(enc, samples, heads)
        tok_nll, atom_nll = [], []
        for (rows, n, _), sample in zip(views, samples):
            for i in sample.masked_token_positions:
                logits = rows[i] @ heads.token_w.data + heads.token_b.data[0]
                tok_nll.append(-math.log(softmax(logits)[sample.token_targets[i]]))
            for j in sample.masked_atom_positions:
                logits = rows[n + j] @ heads.ctx_w.data + heads.ctx_b.data[0]
                atom_nll.append(
                    -math.log(softmax(logits)[sample.atom_context_targets[j]]))
        assert got.item() == pytest.approx(np.mean(tok_nll) + np.mean(atom_nll),
                                           abs=1e-10)

        # FLA against a pairwise loop.
        k = int(rng.integers(2, 6))
        f_s = rng.normal(size=(k, cfg.dim))
        f_g = rng.normal(size=(k, cfg.dim))
        got, _ = loss_fla(constant(f_s), constant(f_g), tau=tau)
        ns = f_s / np.linalg.norm(f_s, axis=1, keepdims=True)
        ng = f_g / np.linalg.norm(f_g, axis=1, keepdims=True)
        sims = ns @ ng.T
        want = 0.0
        for i in range(k):
            pos = math.exp(sims[i, i] / tau)
            want += -math.log(pos / sum(math.exp(sims[i, j] / tau) for j in range(k)))
            want += -math.log(pos / sum(math.exp(sims[j, i] / tau) for j in range(k)))
        assert got.item() == pytest.approx(want / k, abs=1e-10)

        # SGM against a scalar loop.
        pos = x_cls
        neg = [constant(rng.normal(size=(1, cfg.dim))) for _ in range(batch)]
        got, _ = loss_sgm(concat_rows(pos), concat_rows(neg), heads)
        nlls = []
        for rows, label in ((pos, 1), (neg, 0)):
            for r in rows:
                hidden = np.maximum(0.0, r.data @ heads.sgm_w1.data + heads.sgm_b1.data)
                logits = (hidden @ heads.sgm_w2.data + heads.sgm_b2.data)[0]
                nlls.append(-math.log(softmax(logits)[label]))
        assert got.item() == pytest.approx(np.mean(nlls), abs=1e-10)

        # DKL against a scalar loop.
        fps = [rng.integers(0, 2, size=cfg.fingerprint_width).astype(float)
               for _ in range(batch)]
        fgs = [rng.integers(0, 2, size=cfg.n_groups).astype(float)
               for _ in range(batch)]
        got, _ = loss_dkl(concat_rows(pos), fps, fgs, heads)
        mse_terms, bce_terms = [], []
        for r, fp, fg in zip(pos, fps, fgs):
            hid = np.maximum(0.0, r.data @ heads.fp_w1.data + heads.fp_b1.data)
            out = (hid @ heads.fp_w2.data + heads.fp_b2.data)[0]
            mse_terms.extend((out - fp) ** 2)
            hid = np.maximum(0.0, r.data @ heads.fg_w1.data + heads.fg_b1.data)
            z = (hid @ heads.fg_w2.data + heads.fg_b2.data)[0]
            bce_terms.extend(np.logaddexp(0.0, z) - z * fg)
        assert got.item() == pytest.approx(np.mean(mse_terms) + np.mean(bce_terms),
                                           abs=1e-10)

    # Closed-form FLA case: cosine 1 positive vs cosine 0 negative.
    loss, _ = loss_fla(constant(np.eye(2)), constant(np.eye(2)))
    per_direction = math.log1p(math.exp(-20.0))
    assert loss.item() / 2 == pytest.approx(per_direction, abs=1e-12)
    report(4, "20 random batches match loop oracles at 1e-10; "
              "closed form within 1e-12")


# --------------------------------------------------------------- criterion 5

def test_criterion_5_pretraining_smoke(smoke_run):
    history = smoke_run.history
    steps = len(history) // 30
    first = float(np.mean([r.total for r in history[:steps]]))
    last = float(np.mean([r.total for r in history[-steps:]]))
    sgm_acc = float(np.mean([r.sgm_accuracy for r in history[-steps:]]))
    assert last <= 0.5 * first, (first, last)
    assert sgm_acc >= 0.9, sgm_acc
    assert smoke_run.runtime < 300.0, smoke_run.runtime

    # Matched-vs-mismatched fragment cosine gap on the trained model.
    model, vocab = smoke_run.model, smoke_run.vocab
    all_s, all_g = [], []
    for mol in smoke_run.corpus.molecules[:60]:
        enc = model.encoder.encode([vocab.ids_for(mol.tokens)], [mol.graph])
        f_s, f_g = model.encoder.pool_fragments(enc, [mol.fragment_map])
        all_s.append(f_s.data)
        all_g.append(f_g.data)
    f_s = np.concatenate(all_s)
    f_g = np.concatenate(all_g)
    ns = f_s / np.linalg.norm(f_s, axis=1, keepdims=True)
    ng = f_g / np.linalg.norm(f_g, axis=1, keepdims=True)
    sims = ns @ ng.T
    matched = float(np.diag(sims).mean())
    mismatched = float(sims[~np.eye(len(sims), dtype=bool)].mean())
    assert matched - mismatched >= 0.2, (matched, mismatched)
    report(5, f"loss {first:.2f}->{last:.2f} ({last / first:.0%}), "
              f"sgm {sgm_acc:.3f}, cosine gap {matched - mismatched:.2f}, "
              f"{smoke_run.runtime:.0f}s")


def test_smoke_run_matches_its_recorded_reference(smoke_run):
    """The criterion-5 run repeats the recorded seed-7 loss history within
    1e-9 at every step; a changed formula moves it further, a reordered
    sum does not (``tests/curve_diff.py`` records and compares histories).
    The checkpoint on disk, which criterion 6's in-place fine-tuning does
    not touch, has the recorded SHA-256 on the numpy and BLAS build, and
    the CPU kernels they pick, that recorded it; other builds or CPUs may
    differ in the last bits."""
    reference, params = read_recording(SMOKE_REFERENCE)
    worst, first = curve_diff(reference, history_array(smoke_run.history))
    assert first is None, (first, worst)
    if params["build"] == build_id():
        digest = hashlib.sha256((smoke_run.ckpt / "params.bin").read_bytes()).hexdigest()
        assert digest == params["params_sha256"]


def test_smoke_checkpoint_embeds_and_finetunes_as_recorded(smoke_run):
    """``embed`` of ``golden_500.smi`` and ``finetune nitro_task.tsv --seed 3``
    from the criterion-5 checkpoint on disk (criterion 6 fine-tunes the live
    model in place) repeat the recording: the metrics and the first rows
    within 1e-9, the best epoch and split sizes exactly, and all rows'
    SHA-256 on the recording's build and CPU."""
    rows, tuned = downstream(smoke_run.ckpt)
    head, recorded = read_downstream(SMOKE_REFERENCE)
    assert rows.shape == (500, SMOKE_MODEL["dim"]) and head.shape == (EMBED_HEAD, rows.shape[1])
    np.testing.assert_allclose(rows[:EMBED_HEAD], head, rtol=0, atol=TOLERANCE)
    metrics = tuned.pop("metrics")
    assert metrics.keys() == recorded["metrics"].keys()
    for name, value in recorded.pop("metrics").items():
        assert abs(metrics[name] - value) <= TOLERANCE, (name, metrics[name], value)
    assert tuned == recorded
    _, params = read_recording(SMOKE_REFERENCE)
    if params["build"] == build_id():
        assert embed_sha256(rows) == params["embed_sha256"]


# --------------------------------------------------------------- criterion 6

def test_criterion_6_finetune_smoke(smoke_run, tmp_path):
    task = load_task(DATA_DIR / "nitro_task.tsv",
                     TaskKind.BINARY_CLASSIFICATION, SplitMode.SCAFFOLD)
    result = finetune(smoke_run.model, smoke_run.vocab, task, epochs=8,
                      lr=5e-4, seed=0, tune_encoder=True)
    auc = result.metrics["roc_auc"]
    assert auc >= 0.85, auc

    # Degenerate single-class split: NaN plus a warning, not a crash.
    rows = "\n".join(f"{s}\t1" for s in
                     ["CCO", "CCN", "CCC", "CCS", "COC", "CCCC", "CCCO",
                      "CCCN", "CCOC", "CCCS"])
    f = tmp_path / "degenerate.tsv"
    f.write_text(rows)
    degenerate = load_task(f, TaskKind.BINARY_CLASSIFICATION, SplitMode.RANDOM)
    with pytest.warns(UserWarning):
        res = finetune(smoke_run.model, smoke_run.vocab, degenerate, epochs=1,
                       tune_encoder=False, seed=1)
    assert math.isnan(res.metrics["roc_auc"])
    report(6, f"scaffold-split nitro task ROC-AUC {auc:.3f}; "
              "degenerate labels give NaN with warning")


# --------------------------------------------------------------- criterion 7

def test_criterion_7_metric_oracles():
    rng = np.random.default_rng(17)
    scores = np.round(rng.normal(size=100), 1)     # coarse grid forces ties
    labels = rng.integers(0, 2, size=100)
    labels[0], labels[1] = 0, 1
    got = roc_auc(scores, labels)
    num = pairs = 0.0
    for i in np.where(labels == 1)[0]:
        for j in np.where(labels == 0)[0]:
            pairs += 1
            num += 1.0 if scores[i] > scores[j] else 0.5 if scores[i] == scores[j] else 0.0
    assert got == num / pairs

    preds = np.round(rng.normal(size=100), 1)
    truths = np.round(rng.normal(size=100), 1)
    got = concordance_index(preds, truths)
    num = pairs = 0.0
    for i in range(100):
        for j in range(i + 1, 100):
            if truths[i] == truths[j]:
                continue
            pairs += 1
            hi, lo = (i, j) if truths[i] > truths[j] else (j, i)
            num += 1.0 if preds[hi] > preds[lo] else 0.5 if preds[hi] == preds[lo] else 0.0
    assert got == num / pairs
    report(7, "ROC-AUC and CI equal brute-force pair counting exactly")


# --------------------------------------------------------------- criterion 8

def test_criterion_8_masking_accounting():
    checked = 0
    for n in range(1, 31):
        for m in range(1, 31):
            for k in range(1, min(n, m, 8) + 1):
                rec = SimpleNamespace(
                    token_ids=list(range(3, 3 + n)),
                    context_ids=[i % 5 for i in range(m)],
                    graph=SimpleNamespace(m=m),
                    fragment_map=SimpleNamespace(
                        K=k,
                        l_s=tuple(i % k for i in range(n)),
                        l_g=tuple(i % k for i in range(m))))
                rng = np.random.default_rng([n, m, k])
                for r_t in (0.2, 0.6):
                    cfg = MaskConfig(r_t=r_t, r_f=0.6)
                    s = sample_token_mask(rec, cfg, rng)
                    assert len(s.masked_token_positions) == mask_count(n, r_t)
                    assert len(s.masked_atom_positions) == mask_count(m, r_t)
                for r_f in (0.2, 0.6):
                    cfg = MaskConfig(r_t=0.2, r_f=r_f)
                    s = sample_fragment_mask(rec, cfg, rng)
                    assert len(s.masked_fragment_ids) == mask_count(k, r_f)
                    # Never both modalities in one fragment-level sample.
                    assert not (s.masked_token_positions and s.masked_atom_positions)
                    assert s.masked_modality in (Modality.SMILES, Modality.GRAPH)
                checked += 1
    report(8, f"mask counts follow floor-with-min-1 across {checked} "
              "(n, m, K) combinations at both ratios")


# --------------------------------------------------------------- criterion 9

def test_criterion_9_determinism(smoke_run, tmp_path):
    corpus = ingest(DATA_DIR / "toy_200.smi")
    ckpt = tmp_path / "repeat"
    pretrain(corpus, MaskConfig(seed=7),
             TrainConfig(epochs=30, batch_size=16, seed=7),
             model_kwargs=dict(SMOKE_MODEL), checkpoint_dir=ckpt)
    first = (smoke_run.ckpt / "params.bin").read_bytes()
    second = (ckpt / "params.bin").read_bytes()
    assert first == second
    assert (smoke_run.ckpt / "manifest.json").read_text() == \
        (ckpt / "manifest.json").read_text()
    report(9, "two identically seeded runs produced byte-identical checkpoints")
