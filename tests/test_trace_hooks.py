"""The benchmark's per-layer tracer still finds every function it wraps.

``perfbench/worker.py::install_tracer`` replaces layer functions where
their callers look them up. A refactor that renames or inlines one of them
makes the traced benchmark run fail; this test makes it fail here first.
"""

import sys
from pathlib import Path

from chemfuse.masking import MaskConfig

from test_pipeline import _small_model_and_records, tiny_corpus

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def test_install_tracer_covers_a_step_and_an_embedding(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    for name in ("spans", "worker"):
        monkeypatch.delitem(sys.modules, name, raising=False)
    from spans import Tracer, nesting_errors
    from worker import install_tracer
    from chemfuse import pipeline

    model, records = _small_model_and_records()
    vocab = pipeline.build_vocabulary(m.tokens for m in tiny_corpus(6).molecules)
    tracer = Tracer()
    install_tracer(tracer)
    try:
        tracer.begin_unit("pipeline.step", tracer.clock())
        total, _, _ = pipeline._step_losses(model, records, MaskConfig(seed=1), epoch=0,
                                            base_index=0, train_seed=1)
        pipeline.backward(total)
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
