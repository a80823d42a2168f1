"""The benchmark's per-layer tracer still finds every function it wraps.

``perfbench/worker.py::install_tracer`` replaces layer functions where
their callers look them up. A refactor that renames or inlines one of them
makes the traced benchmark run fail; this test makes it fail here first.
"""

import sys
from pathlib import Path

import pytest

from chemfuse.masking import MaskConfig

from oracles import generated_corpus
from test_pipeline import _inline_step, _small_model_and_records, tiny_corpus

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


@pytest.fixture
def perfbench_path(monkeypatch):
    """Put the benchmark on ``sys.path`` so its modules import fresh."""
    monkeypatch.syspath_prepend(str(PERFBENCH))
    for name in ("spans", "worker"):
        monkeypatch.delitem(sys.modules, name, raising=False)


def test_install_tracer_covers_a_step_and_an_embedding(perfbench_path):
    from spans import Tracer, nesting_errors
    from worker import install_tracer
    from chemfuse import pipeline

    model, records = _small_model_and_records()
    vocab = pipeline.build_vocabulary(m.tokens for m in tiny_corpus(6).molecules)
    tracer = Tracer()
    install_tracer(tracer)
    try:
        tracer.begin_unit("pipeline.step", tracer.clock())
        # Both tapes, each with its backward, as one CPU runs a step.
        _inline_step(model, records, MaskConfig(seed=1), epoch=0, base_index=0, train_seed=1)
        pipeline.x_cls_of(model, vocab, tiny_corpus(1).molecules[:1])
        tracer.end_unit(tracer.clock())
    finally:
        tracer.uninstall()
    assert nesting_errors(tracer.spans) == 0
    names = {span[0] for span in tracer.spans}
    for name in ("encoder.embed_smiles", "encoder.embed_graph", "encoder.joint_encode",
                 "encoder.pool_fragments", "features.featurize", "nn.layers.gcn_layer",
                 "nn.layers.attention", "masking.sample", "objectives.loss_cmm_token",
                 "objectives.loss_cmm_fragment", "objectives.loss_fla",
                 "objectives.loss_sgm", "objectives.loss_dkl", "nn.tensor.backward"):
        assert name in names, name
    attention_parents = {tracer.spans[span[3]][0] for span in tracer.spans
                         if span[0] == "nn.layers.attention"}
    assert attention_parents == {"encoder.joint_encode", "encoder.pool_fragments"}
    assert tracer.unit_counts[0]["nn.tensor.nodes"] > 0
    # One encoder pass and one backward per tape, and the embedding's pass.
    assert [span[0] for span in tracer.spans].count("nn.tensor.backward") == 2
    assert [span[0] for span in tracer.spans].count("encoder.joint_encode") == 3


def test_install_tracer_covers_an_ingest_chunk(perfbench_path, tmp_path):
    from spans import Tracer, nesting_errors
    from worker import FINGERPRINT_WIDTH, install_tracer
    from chemfuse import pipeline

    chunk = tmp_path / "chunk_000.smi"
    chunk.write_text("\n".join(generated_corpus(1, 4)) + "\n")
    tracer = Tracer()
    install_tracer(tracer)
    try:
        # The same calls, in the same order, as one unit of ingest_large.
        tracer.begin_unit("ingest.chunk", tracer.clock())
        corpus = pipeline.ingest(chunk)
        vocab = pipeline.build_vocabulary(m.tokens for m in corpus.molecules)
        context = pipeline.build_context_vocab(m.graph for m in corpus.molecules)
        records = pipeline.prepare_records(corpus, vocab, context,
                                           fingerprint_width=FINGERPRINT_WIDTH)
        tracer.end_unit(tracer.clock())
    finally:
        tracer.uninstall()
    assert len(records) == 4
    assert nesting_errors(tracer.spans) == 0
    names = {span[0] for span in tracer.spans}
    for name in ("pipeline.ingest", "chem.parse_smiles", "fragments.build_fragment_map",
                 "features.morgan_fingerprint", "features.detect_functional_groups",
                 "masking.build_context_vocab", "pipeline.build_vocabulary",
                 "pipeline.prepare_records"):
        assert name in names, name
