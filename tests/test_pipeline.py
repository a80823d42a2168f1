"""Pipeline tests: corpora, training steps, schedule, checkpoints, fine-tuning."""

import math
import os
import re
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

from chemfuse.encoder import JointEncoding
from chemfuse.masking import (
    MaskConfig,
    Strategy,
    sample_ablation_mask,
    sample_fragment_mask,
    sample_token_mask,
)
from chemfuse.metrics import DegenerateInput, concordance_index, roc_auc, rmse
from chemfuse.nn import backward, concat_rows, constant
from chemfuse.objectives import (
    BatchTooSmall,
    loss_cmm_fragment,
    loss_cmm_token,
    loss_dkl,
    loss_fla,
    loss_sgm,
    total_loss,
)
from chemfuse.pipeline import (
    AllLinesFailed,
    Corpus,
    EmptySplit,
    FileUnreadable,
    FinetuneTask,
    SplitMode,
    TaskKind,
    TrainConfig,
    _PretrainStep,
    _alignment_losses,
    _cmm_losses,
    _diverges_at,
    _record_rng,
    build_vocabulary,
    data_lines,
    derangement,
    embed_corpus,
    finetune,
    ingest,
    learning_rate_at,
    load_pretrained,
    load_task,
    parse_config_file,
    parse_molecule,
    prepare_records,
    pretrain,
    similarity,
    x_cls_of,
)

import oracles
from conftest import DATA_DIR

SMALL_MODEL = dict(dim=16, transformer_layers=1, heads=2, gnn_layers=1,
                   gnn_width=8, fingerprint_width=64)

#: Tape nodes the CMM and the alignment tape of one step build on
#: ``_small_model_and_records()``; one tape of both built 115.
CMM_TAPE_NODES = 51
ALIGNMENT_TAPE_NODES = 69


def tiny_corpus(n=12):
    smiles = ["CCO", "CC(=O)OC", "c1ccccc1", "CCN", "CCOCC", "CC(=O)NC",
              "CCC", "COC", "CCS", "CC=C", "C1CCCCC1", "Cc1ccccc1"]
    return Corpus(molecules=[parse_molecule(s) for s in smiles[:n]])


def quick_pretrain(corpus=None, epochs=2, seed=3, ckpt=None):
    return pretrain(corpus or tiny_corpus(), MaskConfig(seed=seed),
                    TrainConfig(epochs=epochs, batch_size=6, seed=seed,
                                lr=1e-3, warmup_steps=2),
                    model_kwargs=dict(SMALL_MODEL), checkpoint_dir=ckpt)


# ------------------------------------------------------------------ vocabulary

def test_vocabulary_specials_and_order():
    corpus = tiny_corpus(3)
    vocab = build_vocabulary(m.tokens for m in corpus.molecules)
    # Unknown text maps to UNK, not PAD; the first seen token gets the first slot.
    assert vocab.ids_for(["[PAD]", "C", "ZZZ"]) == [2, 3, 2]
    assert vocab.unknown == 2
    assert vocab.size == len(vocab.key_to_id) + 3


# --------------------------------------------------------------------- ingest

def test_ingest_counts(tmp_path):
    f = tmp_path / "corpus.smi"
    f.write_text("# comment\nCCO\nCCN\n\nc1ccccc1\n")
    corpus = ingest(f)
    assert len(corpus) == 3
    assert corpus.skipped == 0


def test_ingest_ignores_columns_after_the_smiles(tmp_path):
    f = tmp_path / "corpus.smi"
    f.write_text("CCO\t1\textra\nCCN\t0\n")
    assert [m.smiles for m in ingest(f).molecules] == ["CCO", "CCN"]


def test_ingest_skips_bad_lines(tmp_path):
    f = tmp_path / "corpus.smi"
    lines = ["CCO"] * 9 + ["C1CC"]   # unclosed ring fails
    f.write_text("\n".join(lines))
    corpus = ingest(f)
    assert len(corpus) == 9
    assert corpus.skipped == 1


def test_ingest_skips_leading_dot(tmp_path):
    f = tmp_path / "corpus.smi"
    f.write_text("CCO\n.C\nCCN\n")
    corpus = ingest(f)
    assert [m.smiles for m in corpus.molecules] == ["CCO", "CCN"]
    assert corpus.skipped == 1


def test_data_lines_skips_blank_and_comment_lines_lazily(tmp_path, monkeypatch):
    raw = ["CCO\n", "\n", "  # note\n", "  CCN\t1 \n", "C#N # kept\n"]
    want = [(1, "CCO"), (4, "CCN\t1"), (5, "C#N # kept")]
    f = tmp_path / "lines.smi"
    f.write_text("".join(raw))
    assert list(data_lines(f)) == want
    pulled = []

    class Stdin:
        def __iter__(self):
            for line in raw:
                pulled.append(line)
                yield line

    monkeypatch.setattr(sys, "stdin", Stdin())
    lines = data_lines(None)
    assert pulled == []
    assert next(lines) == want[0]
    assert len(pulled) == 1
    assert list(lines) == want[1:]


@pytest.mark.parametrize("bad_kind", ["directory", "not_utf8", "missing"])
def test_data_lines_unreadable_file(tmp_path, bad_kind):
    bad = tmp_path / "bad"
    if bad_kind == "directory":
        bad.mkdir()
    elif bad_kind == "not_utf8":
        bad.write_bytes(b"CCO\n\xff\n")
    with pytest.raises(FileUnreadable, match=re.escape(f"cannot read {bad}: ")):
        list(data_lines(bad))


def test_ingest_errors(tmp_path):
    with pytest.raises(FileUnreadable):
        ingest(tmp_path / "missing.smi")
    f = tmp_path / "bad.smi"
    f.write_text("not_smiles_1$$$\n=also bad\n")
    with pytest.raises(AllLinesFailed):
        ingest(f)



@pytest.mark.parametrize("n", [1, 31, 32, 33, 65])
def test_prepare_records_fingerprints_across_block_boundaries(n):
    """Fingerprints come in blocks of FINGERPRINT_BLOCK (32) molecules: every
    record's row equals the loop oracle, the rows are read-only, and DKL on
    them equals DKL on one-molecule-at-a-time bits, bit for bit."""
    from chemfuse.encoder import ModelConfig
    from chemfuse.masking import build_context_vocab
    from chemfuse.objectives import Heads

    corpus = ingest(DATA_DIR / "toy_200.smi")
    corpus = Corpus(molecules=corpus.molecules[:n])
    vocab = build_vocabulary(m.tokens for m in corpus.molecules)
    ctx = build_context_vocab(m.graph for m in corpus.molecules)
    records = prepare_records(corpus, vocab, ctx, fingerprint_width=64)
    assert len(records) == n
    loop_bits = [oracles.morgan_fingerprint(rec.graph, 2, 64) for rec in records]
    for rec, want in zip(records, loop_bits):
        np.testing.assert_array_equal(rec.fingerprint_bits, want)
        assert rec.fingerprint_bits.dtype == np.uint8
        assert not rec.fingerprint_bits.flags.writeable
    config = ModelConfig(vocab_size=vocab.size, context_vocab_size=ctx.size,
                         n_groups=24, **SMALL_MODEL)
    heads = Heads(config, seed=5)
    x_cls = constant(np.random.default_rng(n).normal(size=(n, config.dim)))
    groups = [rec.group_bits for rec in records]
    got, _ = loss_dkl(x_cls, [rec.fingerprint_bits for rec in records], groups, heads)
    want, _ = loss_dkl(x_cls, loop_bits, groups, heads)
    assert got.item() == want.item()

def _concat_encodings(encodings):
    """Separately computed encodings as one packed encoding for the losses."""
    return JointEncoding(x=concat_rows([e.x for e in encodings]),
                         x_cls=concat_rows([e.x_cls for e in encodings]),
                         n=sum((e.n for e in encodings), ()),
                         m=sum((e.m for e in encodings), ()))


def _reference_step_losses(model, records, mask_cfg, epoch, base_index, train_seed):
    """Every view encoded on its own from scratch, one ``encode`` call
    per view, each clean view pooled on its own, and the matching negatives
    recomputed."""
    enc, heads = model.encoder, model.heads
    block = mask_cfg.strategy is Strategy.SINGLE_MODALITY
    tok_samples, tok_encs, frag_samples, frag_encs, clean = [], [], [], [], []
    for i, rec in enumerate(records):
        rng = _record_rng(train_seed, epoch, base_index + i)
        if mask_cfg.strategy is Strategy.CMM:
            tok = sample_token_mask(rec, mask_cfg, rng)
            frag_samples.append(sample_fragment_mask(rec, mask_cfg, rng))
            frag_encs.append(enc.encode(
                [rec.token_ids], [rec.graph],
                masked_tokens=[frag_samples[-1].masked_token_positions],
                masked_atoms=[frag_samples[-1].masked_atom_positions]))
        else:
            tok = sample_ablation_mask(rec, mask_cfg, rng)
        tok_samples.append(tok)
        tok_encs.append(enc.encode(
            [rec.token_ids], [rec.graph], masked_tokens=[tok.masked_token_positions],
            masked_atoms=[tok.masked_atom_positions], block_cross_modality=[block]))
        clean.append(enc.encode([rec.token_ids], [rec.graph]))
    l_t, tok_aux = loss_cmm_token(_concat_encodings(tok_encs), tok_samples, heads)
    l_f = loss_cmm_fragment(_concat_encodings(frag_encs), frag_samples, heads)[0] \
        if frag_encs else constant(0.0)
    f_s, f_g = zip(*(enc.pool_fragments(e, [rec.fragment_map])
                     for e, rec in zip(clean, records)))
    l_fla, _ = loss_fla(concat_rows(f_s), concat_rows(f_g))
    neg = [enc.encode([records[i].token_ids], [records[j].graph]).x_cls
           for i, j in enumerate(derangement(len(records)))]
    clean_x_cls = concat_rows([e.x_cls for e in clean])
    l_sgm, sgm_aux = loss_sgm(clean_x_cls, concat_rows(neg), heads)
    l_dkl, _ = loss_dkl(clean_x_cls,
                        [rec.fingerprint_bits for rec in records],
                        [rec.group_bits for rec in records], heads)
    return total_loss(l_t, l_f, l_fla, l_sgm, l_dkl,
                      mlm_accuracy=tok_aux["mlm_accuracy"],
                      sgm_accuracy=sgm_aux["sgm_accuracy"])


def _small_model_and_records(n=6, seed=11):
    from chemfuse.encoder import ModelConfig
    from chemfuse.masking import build_context_vocab
    from chemfuse.pipeline import PretrainModel

    corpus = tiny_corpus(n)
    vocab = build_vocabulary(m.tokens for m in corpus.molecules)
    ctx = build_context_vocab(m.graph for m in corpus.molecules)
    records = prepare_records(corpus, vocab, ctx, fingerprint_width=64)
    config = ModelConfig(vocab_size=vocab.size, context_vocab_size=ctx.size,
                         n_groups=24, **SMALL_MODEL)
    return PretrainModel(config, seed=seed), records


def _inline_step(model, records, mask_cfg, epoch, base_index, train_seed):
    """One step's two tapes as ``pretrain`` runs them on one CPU: the CMM
    tape, then the alignment tape. Returns the report; the parameters hold
    the sum of the two tapes' gradients."""
    step = _PretrainStep(model, records, mask_cfg, train_seed, shared=False)
    for p in model.params.values():
        p.zero_grad()
    return step(list(range(len(records))), epoch, base_index)


@pytest.mark.parametrize("strategy", list(Strategy))
def test_step_losses_match_per_view_reference(strategy):
    """Sharing the clean embeddings across the views of each tape leaves
    every loss of both tapes bitwise unchanged, and the sum of the two
    tapes' gradients equal to the one-tape gradient up to summation order."""
    model, records = _small_model_and_records()
    mask_cfg = MaskConfig(strategy=strategy, seed=1)
    params = list(model.params.values())
    total, want = _reference_step_losses(model, records, mask_cfg, epoch=2,
                                         base_index=4, train_seed=1)
    for p in params:
        p.zero_grad()
    backward(total)
    want_grads = {p.name: p.grad.copy() for p in params}
    got = _inline_step(model, records, mask_cfg, epoch=2, base_index=4, train_seed=1)
    assert got == want
    for p in params:
        np.testing.assert_allclose(p.grad, want_grads[p.name], rtol=0, atol=1e-12,
                                   err_msg=p.name)


@pytest.mark.parametrize("strategy", list(Strategy))
def test_read_rows_step_matches_the_all_rows_step(strategy, monkeypatch):
    """A step whose masked views keep only the rows their losses read gives
    the all-rows step's losses and parameter gradients within 1e-12, and
    in each tape every read row bitwise."""
    from chemfuse.encoder import MoleculeEncoder

    model, records = _small_model_and_records()
    params = list(model.params.values())
    runs = []
    for keep_read in (True, False):
        seen = []

        def encode(token_ids, *args, read=(), _keep=keep_read, _seen=seen, **kwargs):
            encoding = MoleculeEncoder.encode(model.encoder, token_ids, *args,
                                              read=read if _keep else (), **kwargs)
            _seen.append((read or [None] * len(token_ids), encoding))
            return encoding

        monkeypatch.setattr(model.encoder, "encode", encode)
        report = _inline_step(model, records, MaskConfig(strategy=strategy, seed=1),
                              epoch=1, base_index=3, train_seed=2)
        runs.append((report, {p.name: p.grad.copy() for p in params}, seen))
    (report, grads, kept_tapes), (want_report, want_grads, full_tapes) = runs
    for name, value in vars(want_report).items():
        assert getattr(report, name) == pytest.approx(value, rel=0, abs=1e-12, nan_ok=True)
    for name, grad in want_grads.items():
        np.testing.assert_allclose(grads[name], grad, rtol=0, atol=1e-12, err_msg=name)
    assert len(kept_tapes) == len(full_tapes) == 2  # the CMM tape, then the alignment tape
    for tape, ((read, kept), (_, full)) in enumerate(zip(kept_tapes, full_tapes)):
        partial = [k for k, r in enumerate(read) if r is not None]
        whole = [k for k, r in enumerate(read) if r is None]
        if tape == 0:  # every CMM view is masked, and no alignment view is
            assert partial and kept.x.shape[0] < full.x.shape[0] and not whole
        else:
            assert whole and not partial
            np.testing.assert_array_equal(kept.x_cls.data, full.x_cls.data[whole])
        for k in partial:
            np.testing.assert_array_equal(kept.x.data[kept.rows(k, read[k])],
                                          full.x.data[full.rows(k, read[k])])


def test_step_losses_embeds_each_side_once_per_view(monkeypatch):
    """Under CMM the CMM tape embeds each side once for the token-masked
    view and once for the fragment-masked view, masked where the fragment
    mask hides it and clean otherwise; the alignment tape embeds it once for
    the clean view. Each tape makes one packed call per modality, so a clean
    side is embedded once per tape that reads it."""
    from chemfuse import pipeline
    from chemfuse.encoder import MoleculeEncoder
    from chemfuse.masking import Modality

    calls = {"embed_smiles": [], "embed_graph": []}
    for name in calls:
        original = getattr(MoleculeEncoder, name)

        def counted(self, sides, *args, _original=original, _name=name, **kwargs):
            calls[_name].append(len(sides))
            return _original(self, sides, *args, **kwargs)

        monkeypatch.setattr(MoleculeEncoder, name, counted)
    frag_samples = []
    sample = pipeline.sample_fragment_mask

    def recorded(*args):
        frag_samples.append(sample(*args))
        return frag_samples[-1]

    monkeypatch.setattr(pipeline, "sample_fragment_mask", recorded)
    model, records = _small_model_and_records()
    _cmm_losses(model, records, MaskConfig(seed=1), epoch=0, base_index=0, train_seed=1)
    _alignment_losses(model, records)
    sides = [s.masked_modality for s in frag_samples]
    assert len(sides) == len(records) == 6
    b = len(records)
    assert calls["embed_smiles"] == [b + sides.count(Modality.SMILES)
                                     + sides.count(Modality.GRAPH), b]
    assert calls["embed_graph"] == [b + sides.count(Modality.GRAPH)
                                    + sides.count(Modality.SMILES), b]


def _count_tape_nodes(monkeypatch, run):
    """Tensors created while ``run()`` executes."""
    from chemfuse.nn.tensor import Tensor

    count = [0]
    init = Tensor.__init__

    def counted(self, *args, **kwargs):
        count[0] += 1
        init(self, *args, **kwargs)

    monkeypatch.setattr(Tensor, "__init__", counted)
    run()
    monkeypatch.setattr(Tensor, "__init__", init)
    return count[0]


def test_step_losses_tape_node_budget(monkeypatch):
    """Each tape of a step builds a fixed number of tape nodes, whatever its
    batch size; one encoder pass per view would build several times more."""
    model, records = _small_model_and_records()
    big_model, big_records = _small_model_and_records(n=12)
    tapes = [
        (CMM_TAPE_NODES, lambda model, records: lambda: _cmm_losses(
            model, records, MaskConfig(seed=1), epoch=0, base_index=0, train_seed=1)),
        (ALIGNMENT_TAPE_NODES, lambda model, records: lambda: _alignment_losses(model, records)),
    ]
    for budget, tape in tapes:
        nodes = _count_tape_nodes(monkeypatch, tape(model, records))
        assert nodes <= 1.1 * budget, nodes
        assert _count_tape_nodes(monkeypatch, tape(big_model, big_records)) == nodes


def test_packed_views_match_views_alone():
    """A molecule's encoder rows and x_cls are bitwise the same whether it
    is encoded alone or packed with molecules of other lengths."""
    model, records = _small_model_and_records(n=12)
    enc = model.encoder
    masks = [(tuple(range(0, len(r.token_ids), 3)), (r.graph.m - 1,)) for r in records]
    packed = enc.encode([r.token_ids for r in records], [r.graph for r in records],
                        [t for t, _ in masks], [a for _, a in masks],
                        [k % 2 == 1 for k in range(len(records))])
    assert len(set(packed.n)) > 3
    for k, (rec, (tok, atoms)) in enumerate(zip(records, masks)):
        alone = enc.encode([rec.token_ids], [rec.graph], masked_tokens=[tok],
                           masked_atoms=[atoms], block_cross_modality=[k % 2 == 1])
        start, length = packed.starts[k], packed.n[k] + packed.m[k]
        np.testing.assert_array_equal(packed.x.data[start:start + length], alone.x.data)
        np.testing.assert_array_equal(packed.x_cls.data[k], alone.x_cls.data[0])
    pooled = enc.pool_fragments(packed, [r.fragment_map for r in records])
    offset = 0
    for k, rec in enumerate(records):
        alone = enc.pool_fragments(packed.views(range(k, k + 1)), [rec.fragment_map])
        K = rec.fragment_map.K
        for side, side_alone in zip(pooled, alone):
            np.testing.assert_array_equal(side.data[offset:offset + K], side_alone.data)
        offset += K


# -------------------------------------------------------------------- schedule

def test_learning_rate_schedule_pointwise():
    total, warmup, peak = 20, 5, 2.0
    values = [learning_rate_at(s, total, warmup, peak) for s in range(total)]
    # Warmup is linear and peaks at the warmup boundary.
    for s in range(warmup):
        assert values[s] == pytest.approx(peak * (s + 1) / warmup)
    assert values[warmup - 1] == pytest.approx(peak)
    # Decay is linear and hits zero exactly at the final step.
    for s in range(warmup, total):
        assert values[s] == pytest.approx(peak * (total - s - 1) / (total - warmup))
    assert values[-1] == 0.0
    assert max(values) == pytest.approx(peak)


def test_derangement_never_self():
    for n in range(2, 9):
        pairing = derangement(n)
        assert sorted(pairing) == list(range(n))
        assert all(pairing[i] != i for i in range(n))
    with pytest.raises(BatchTooSmall):
        derangement(1)


# ----------------------------------------------------------------- checkpoints

def test_checkpoint_roundtrip_exact(tmp_path):
    ckpt = tmp_path / "ckpt"
    model, vocab, ctx, _ = quick_pretrain(epochs=1, ckpt=ckpt)
    corpus = tiny_corpus(3)
    before = embed_corpus(model, vocab, corpus)
    loaded, vocab2, ctx2, manifest = load_pretrained(ckpt)
    after = embed_corpus(loaded, vocab2, corpus)
    np.testing.assert_array_equal(before, after)
    assert list(loaded.params) == list(model.params)
    for name, param in loaded.params.items():
        assert param.data.tobytes() == model.params[name].data.tobytes()
    for loaded_vocab, saved_vocab in ((vocab2, vocab), (ctx2, ctx)):
        assert loaded_vocab.key_to_id == saved_vocab.key_to_id
        assert loaded_vocab.unknown == saved_vocab.unknown
        assert loaded_vocab.size == saved_vocab.size
    assert manifest["step"] == 2



def test_crash_between_checkpoint_renames_is_refused(tmp_path, monkeypatch):
    """A crash after params.bin is replaced but before manifest.json leaves
    new parameters beside the old manifest, with the same shapes: the
    manifest's checksum refuses the pair, and the next complete save loads."""
    from chemfuse.nn import CheckpointCorrupt, Parameter, load_checkpoint, save_checkpoint

    params = {"w": Parameter("w", np.arange(6.0).reshape(2, 3))}
    save_checkpoint(tmp_path, params, config={}, seed=1, step=1)
    load_checkpoint(tmp_path)
    params["w"].data = params["w"].data + 1.0
    replace, replaced = os.replace, []

    def second_replace_fails(src, dst):
        replaced.append(Path(dst).name)
        if len(replaced) == 2:
            raise OSError(5, "Input/output error")
        replace(src, dst)

    monkeypatch.setattr(os, "replace", second_replace_fails)
    with pytest.raises(OSError):
        save_checkpoint(tmp_path, params, config={}, seed=1, step=2)
    monkeypatch.undo()
    assert replaced == ["params.bin", "manifest.json"]
    with pytest.raises(CheckpointCorrupt, match="CRC-32"):
        load_checkpoint(tmp_path)
    save_checkpoint(tmp_path, params, config={}, seed=1, step=2)
    manifest, tensors = load_checkpoint(tmp_path)
    assert manifest["step"] == 2
    np.testing.assert_array_equal(tensors["w"], params["w"].data)

def test_pretrain_determinism_bytes(tmp_path):
    a_dir, b_dir = tmp_path / "a", tmp_path / "b"
    quick_pretrain(epochs=2, seed=5, ckpt=a_dir)
    quick_pretrain(epochs=2, seed=5, ckpt=b_dir)
    assert (a_dir / "params.bin").read_bytes() == (b_dir / "params.bin").read_bytes()
    assert (a_dir / "manifest.json").read_text() == (b_dir / "manifest.json").read_text()


def test_pretrain_step_accounting_single_molecule():
    corpus = Corpus(molecules=[parse_molecule("CC(=O)OC")])
    _, _, _, history = pretrain(
        corpus, MaskConfig(seed=1),
        TrainConfig(epochs=1, batch_size=1, seed=1, warmup_steps=1),
        model_kwargs=dict(SMALL_MODEL))
    assert len(history) == 1   # both views share the single batch/step


def test_pretrain_loss_decreases():
    _, _, _, history = quick_pretrain(epochs=6)
    steps = len(history) // 6
    first = np.mean([r.total for r in history[:steps]])
    last = np.mean([r.total for r in history[-steps:]])
    assert last < first
    for r in history:
        assert math.isfinite(r.total)
        assert r.total == pytest.approx(r.l_t + r.l_f + r.l_fla + r.l_sgm + r.l_dkl)


# ------------------------------------------------------------------ fine-tuning

def test_load_task_and_split():
    task = load_task(DATA_DIR / "nitro_task.tsv", TaskKind.BINARY_CLASSIFICATION)
    assert len(task.labels) > 100
    assert set(task.labels) == {0.0, 1.0}
    from chemfuse.pipeline import split_task
    train, valid, test = split_task(task)
    assert not (set(train) & set(valid)) and not (set(valid) & set(test))
    assert len(train) + len(valid) + len(test) == len(task.labels)


def test_split_task_empty_split_error():
    task = FinetuneTask(kind=TaskKind.BINARY_CLASSIFICATION,
                        molecules=[(parse_molecule("CCO"),)], labels=[1.0])
    with pytest.raises(EmptySplit):
        from chemfuse.pipeline import split_task
        split_task(task)


def test_held_warnings_print_once_per_run():
    shown = set()
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        for step in range(3):
            with _diverges_at(f"step {step}", shown):
                np.array([1e300]) * 1e300
                warnings.warn("held", UserWarning)
                if step == 2:
                    warnings.warn("held", UserWarning)  # a second location
    lines = {w.lineno for w in caught if str(w.message) == "held"}
    assert [w.category for w in caught] == [RuntimeWarning, UserWarning, UserWarning]
    assert len(lines) == 2


def test_finetune_degenerate_labels_nan_with_warning(tmp_path):
    model, vocab, _, _ = quick_pretrain(epochs=1)
    rows = [("CCO", 1), ("CCN", 1), ("CCC", 1), ("CCS", 1), ("COC", 1),
            ("CCCC", 1), ("CCCO", 1), ("CCCN", 1), ("CCOC", 1), ("CCCS", 1)]
    f = tmp_path / "task.tsv"
    f.write_text("\n".join(f"{s}\t{y}" for s, y in rows))
    task = load_task(f, TaskKind.BINARY_CLASSIFICATION, SplitMode.RANDOM)
    with pytest.warns(UserWarning):
        result = finetune(model, vocab, task, epochs=1, tune_encoder=False, seed=1)
    assert math.isnan(result.metrics["roc_auc"])


def test_finetune_regression_beats_constant_baseline():
    model, vocab, _, _ = quick_pretrain(epochs=2)
    corpus = ingest(DATA_DIR / "toy_200.smi")
    molecules = corpus.molecules[:80]
    # Target: fingerprint density, a structure-determined quantity.
    from chemfuse.features import morgan_fingerprint
    labels = [int(morgan_fingerprint([m.graph], width=256)[0].sum()) / 256.0
              for m in molecules]
    task = FinetuneTask(kind=TaskKind.REGRESSION,
                        molecules=[(m,) for m in molecules],
                        labels=labels, split=SplitMode.RANDOM)
    result = finetune(model, vocab, task, epochs=30, lr=2e-3, seed=2,
                      tune_encoder=False)
    from chemfuse.pipeline import split_task
    train_idx, _, test_idx = split_task(task, seed=2)
    baseline = rmse([np.mean([labels[i] for i in train_idx])] * len(test_idx),
                    [labels[i] for i in test_idx])
    assert result.metrics["rmse"] < baseline


def _pair_task():
    pairs = []
    labels = []
    base = ["CCO", "CCN", "CCC", "CCS", "COC", "CCCC", "c1ccccc1", "CC=C",
            "C1CCCCC1", "CCCO", "CCCN", "CCOC"]
    for i, a in enumerate(base):
        for j, b in enumerate(base[:6]):
            pairs.append((parse_molecule(a), parse_molecule(b)))
            labels.append(float((i + j) % 2))
    return FinetuneTask(kind=TaskKind.PAIR_CLASSIFICATION, molecules=pairs,
                        labels=labels, split=SplitMode.RANDOM)


@pytest.mark.parametrize("tune_encoder", [False, True], ids=["frozen", "tuned"])
def test_finetune_pair_classification(tune_encoder):
    model, vocab, _, _ = quick_pretrain(epochs=1)
    task = _pair_task()
    result = finetune(model, vocab, task, epochs=2, tune_encoder=tune_encoder, seed=4)
    assert "accuracy" in result.metrics
    assert 0.0 <= result.metrics["accuracy"] <= 1.0


def test_finetune_frozen_encodes_each_side_once(monkeypatch):
    """A frozen encoder encodes every task molecule once, ``batch_size``
    molecules per forward and side, and never again while training."""
    from chemfuse.encoder import MoleculeEncoder

    model, vocab, _, _ = quick_pretrain(epochs=1)
    task = _pair_task()
    calls = []
    joint_encode = MoleculeEncoder.joint_encode

    def counted(self, *args, **kwargs):
        calls.append(kwargs["n"])
        return joint_encode(self, *args, **kwargs)

    monkeypatch.setattr(MoleculeEncoder, "joint_encode", counted)
    finetune(model, vocab, task, epochs=3, batch_size=16, tune_encoder=False, seed=4)
    assert len(calls) == 2 * math.ceil(len(task.molecules) / 16)
    assert sum(len(n) for n in calls) == 2 * len(task.molecules)


# ------------------------------------------------------------------- embedding

def test_similarity_self_is_one():
    model, vocab, _, _ = quick_pretrain(epochs=1)
    assert similarity(model, vocab, "CCO", "CCO") == pytest.approx(1.0, abs=1e-12)
    # Distinct molecules score strictly below one and stay finite, including
    # a near-miss pair differing in a single substituted fragment.
    for a, b in (("CCO", "c1ccccc1"), ("c1ccc(C)cc1", "c1ccc(CO)o1")):
        value = similarity(model, vocab, a, b)
        assert math.isfinite(value)
        assert -1.0 <= value < 1.0


def test_halves_put_the_heaviest_line_first_and_each_line_in_the_lighter_half():
    from chemfuse.pipeline import _halves

    # Costs 25, 1, 16, 9 by len ** 2: 25 | 16, then 9 joins 16, then 1 joins 25.
    assert _halves(["C" * 5, "C", "C" * 4, "C" * 3]) == ([0, 1], [2, 3])
    # One heavy line outweighs nine light ones; ties go in input order.
    assert _halves(["CC"] * 4 + ["C" * 20] + ["CC"] * 5) == ([4], [0, 1, 2, 3, 5, 6, 7, 8, 9])


def test_fragment_map_is_built_on_first_read(monkeypatch):
    """Embedding never reads a molecule's fragment map, so none is built;
    the first read builds it once."""
    from chemfuse import pipeline

    model, _ = _small_model_and_records()
    vocab = build_vocabulary(m.tokens for m in tiny_corpus(6).molecules)
    real = pipeline.build_fragment_map
    built = []
    monkeypatch.setattr(pipeline, "build_fragment_map",
                        lambda tokens, graph: built.append(graph) or real(tokens, graph))
    smiles = ("CCO", "c1ccccc1N", "CC(=O)OC")
    assert len(list(pipeline.embed_rows(model, vocab, smiles))) == 3
    assert built == []
    mol = parse_molecule(smiles[2])
    assert mol.fragment_map == real(mol.tokens, mol.graph)
    assert mol.fragment_map is mol.fragment_map
    assert built == [mol.graph]


def test_x_cls_of_packed_matches_one_at_a_time():
    """Packed rows equal one-molecule rows bitwise, except that a one-atom
    molecule alone takes numpy's matrix-vector path in the GCN."""
    model, vocab, _, _ = quick_pretrain(epochs=1)
    molecules = [parse_molecule(s) for s in
                 ["CCO", "N", "c1ccccc1", "[NH4+]", "CC(=O)NC", "C1CCCCC1", "O"]]
    packed = x_cls_of(model, vocab, molecules).data
    assert packed.shape == (len(molecules), model.config.dim)
    for row, mol in zip(packed, molecules):
        alone = x_cls_of(model, vocab, [mol]).data[0]
        np.testing.assert_allclose(row, alone, rtol=0, atol=1e-12)
        if mol.graph.m >= 2:
            np.testing.assert_array_equal(row, alone)


def test_embed_corpus_rows():
    model, vocab, _, _ = quick_pretrain(epochs=1)
    corpus = tiny_corpus(5)
    table = embed_corpus(model, vocab, corpus)
    assert table.shape == (5, model.config.dim)
    assert np.all(np.isfinite(table))


# ----------------------------------------------------------------- metrics

def test_roc_auc_and_ci_trivial():
    assert roc_auc([0.1, 0.4, 0.9], [0, 0, 1]) == 1.0
    assert concordance_index([1.0, 2.0, 3.0], [10.0, 20.0, 30.0]) == 1.0
    with pytest.raises(DegenerateInput):
        roc_auc([0.5, 0.7], [1, 1])
    with pytest.raises(DegenerateInput):
        concordance_index([1.0, 2.0], [5.0, 5.0])


@pytest.mark.parametrize("labels", [[0, 1, 2], [0, 1, -1], [0, 1, 0.5], [0, 1, np.nan]])
def test_roc_auc_rejects_labels_other_than_0_or_1(labels):
    # Such a label would still take a rank and could push the AUC past 1.
    with pytest.raises(ValueError, match="0 or 1"):
        roc_auc([0.1, 0.4, 0.9], labels)


def test_roc_auc_random_statistics():
    rng = np.random.default_rng(0)
    scores = rng.normal(size=10_000)
    labels = rng.integers(0, 2, size=10_000)
    assert abs(roc_auc(scores, labels) - 0.5) < 0.02


def test_metrics_match_bruteforce_oracles():
    rng = np.random.default_rng(5)
    scores = np.round(rng.normal(size=100), 1)   # rounding forces ties
    labels = rng.integers(0, 2, size=100)
    if labels.sum() in (0, 100):
        labels[0] = 1 - labels[0]
    got = roc_auc(scores, labels)
    num = pairs = 0.0
    for i in np.where(labels == 1)[0]:
        for j in np.where(labels == 0)[0]:
            pairs += 1
            if scores[i] > scores[j]:
                num += 1
            elif scores[i] == scores[j]:
                num += 0.5
    assert got == pytest.approx(num / pairs, abs=1e-15)

    preds = np.round(rng.normal(size=100), 1)
    truths = np.round(rng.normal(size=100), 1)
    got = concordance_index(preds, truths)
    num = pairs = 0.0
    for i in range(100):
        for j in range(100):
            if truths[i] > truths[j]:
                pairs += 1
                if preds[i] > preds[j]:
                    num += 1
                elif preds[i] == preds[j]:
                    num += 0.5
    assert got == pytest.approx(num / pairs, abs=1e-15)


@pytest.mark.filterwarnings("error")
def test_metrics_equal_their_loop_oracles():
    # Few distinct values give many tied scores and truths; every third
    # trial mixes in continuous values. In the last ones a difference of two
    # finite values overflows, which must not warn.
    rng = np.random.default_rng(17)
    for trial in range(300):
        n = int(rng.integers(2, 80))
        preds = rng.integers(-3, 4, size=n) / 2.0
        truths = rng.integers(0, 5, size=n) * 1.25
        if trial % 3 == 0:
            preds = np.where(rng.random(n) < 0.5, preds, rng.normal(size=n))
        if trial >= 290:
            preds = rng.integers(-3, 4, size=n) * 5e307
            truths = (truths - 2.5) * 6e307
        labels = rng.integers(0, 2, size=n)
        if len(set(truths)) > 1:
            assert concordance_index(preds, truths) == oracles.concordance_index(preds, truths)
        if 0 < labels.sum() < n:
            assert roc_auc(preds, labels) == oracles.roc_auc(preds, labels)


# ---------------------------------------------------------------- config files

def test_parse_config_file(tmp_path):
    f = tmp_path / "run.cfg"
    f.write_text("dim = 32\n# a comment\nlr = 0.001   # trailing\nepochs=5\n")
    cfg = parse_config_file(f)
    assert cfg == {"dim": "32", "lr": "0.001", "epochs": "5"}
    bad = tmp_path / "bad.cfg"
    bad.write_text("no equals sign\n")
    with pytest.raises(ValueError):
        parse_config_file(bad)
