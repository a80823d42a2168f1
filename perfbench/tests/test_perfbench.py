"""Tests of the benchmark's own logic: run with ``python3 -m pytest perfbench/tests``."""

import sys
from pathlib import Path
from types import SimpleNamespace

import pytest

HERE = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]

import gen  # noqa: E402
from run import BLOCK_CAP, block_time, speed_factors, tail_percentile  # noqa: E402
from spans import Tracer, nesting_errors, self_times  # noqa: E402
from worker import Window, _curve_matches, install_tracer, layer_metrics  # noqa: E402

from chemfuse.chem import parse_smiles  # noqa: E402
from chemfuse.encoder import ModelConfig, MoleculeEncoder  # noqa: E402
from chemfuse.pipeline import parse_molecule  # noqa: E402


# ------------------------------------------------------------------- generator

def test_generator_is_deterministic_per_seed():
    assert gen.large_corpus(3, 50) == gen.large_corpus(3, 50)
    assert gen.large_corpus(3, 50) != gen.large_corpus(4, 50)
    pool = ["CCO", "c1ccccc1", "CC(=O)O"]
    assert gen.mixed_corpus(5, 80, pool, 0.3) == gen.mixed_corpus(5, 80, pool, 0.3)


@pytest.mark.parametrize("block", gen.STARTS + gen.LINKERS + gen.ENDS)
def test_blocks_parse_alone_with_the_counted_atoms(block):
    graph, _ = parse_smiles(block)
    assert graph.m == gen.heavy_atoms(block)


@pytest.mark.parametrize("block", gen.LINKERS)
def test_linkers_leave_open_valence_at_both_joints(block):
    parse_smiles("C" + block + "C")


@pytest.mark.parametrize("block", gen.STARTS)
def test_starts_leave_open_valence_at_the_tail(block):
    parse_smiles(block + "C")


@pytest.mark.parametrize("block", gen.ENDS)
def test_ends_leave_open_valence_at_the_head(block):
    parse_smiles("C" + block)


def test_large_molecules_are_valid_and_in_range():
    for smiles in gen.large_corpus(0, 200):
        mol = parse_molecule(smiles)
        assert gen.MIN_ATOMS <= mol.graph.m <= gen.MAX_ATOMS
        assert mol.tokens.n <= 256  # the encoder's max_positions
        assert mol.fragment_map.K >= 1


def test_mixed_corpus_has_the_large_share_in_every_block():
    pool = ["CCO", "CCN"]
    corpus = gen.mixed_corpus(1, 400, pool, 0.3)
    assert len(corpus) == 400
    for lo in range(0, 400, gen.MIX_BLOCK):
        block = corpus[lo:lo + gen.MIX_BLOCK]
        large = [s for s in block if s not in pool]
        assert len(large) == 3
        assert all(gen.heavy_atoms(s) >= gen.MIN_ATOMS for s in large)


# ------------------------------------------------------------ reference curve

def test_curve_match_allows_the_stated_tolerance_and_rejects_nan():
    reference = ["step\tl_t\tmlm_acc", "0\t8.616583\t0.0312"]
    assert _curve_matches(["step\tl_t\tmlm_acc", "0\t8.616590\t0.0312"], reference)
    assert not _curve_matches(["step\tl_t\tmlm_acc", "0\t8.616683\t0.0312"], reference)
    assert not _curve_matches(["step\tl_t\tmlm_acc", "0\tnan\t0.0312"], reference)
    assert not _curve_matches(reference[:1], reference)


# ------------------------------------------------------------- tail percentile

@pytest.mark.parametrize("n, percentile", [(20, 50), (44, 77), (100, 90), (1000, 99)])
def test_tail_is_highest_percentile_with_ten_samples_beyond(n, percentile):
    samples = [float(i) for i in range(n, 0, -1)]
    p, value = tail_percentile(samples)
    assert p == percentile
    assert sum(1 for s in samples if s > value) >= 10
    # One percentile higher would leave fewer than ten beyond.
    rank = -(-(p + 1) * n // 100)
    assert p == 99 or n - rank < 10


def test_tail_falls_back_to_the_maximum_below_twenty_samples():
    assert tail_percentile([3.0, 1.0, 2.0] * 6) == (100, 3.0)


# ------------------------------------------------------------- speed scaling

def test_block_time_caps_a_stalled_block():
    blocks = [0.008] * 7 + [0.108]
    assert block_time(blocks) == pytest.approx((7 * 0.008 + BLOCK_CAP * 0.008) / 8)
    assert block_time([0.006, 0.010]) == pytest.approx(0.008)


def test_speed_factors_use_the_nearest_blocks():
    # Blocks at t = 0..9 run at 8 ms; blocks at t = 100..109 at 16 ms.
    calibrations = [(float(t), 0.008) for t in range(10)]
    calibrations += [(float(t), 0.016) for t in range(100, 110)]
    slow, fast = speed_factors([(104.0, 105.0, 1), (4.0, 5.0, 1)], calibrations, 0.008)
    assert (slow, fast) == pytest.approx((0.5, 1.0))


# ------------------------------------------------------------------ self times

def _span(name, start, end, parent, unit=0):
    return [name, start, end, parent, unit]


def test_self_time_subtracts_direct_children_only():
    spans = [_span("root", 0.0, 10.0, None), _span("a", 1.0, 4.0, 0),
             _span("g", 2.0, 3.0, 1), _span("b", 5.0, 6.0, 0)]
    assert self_times(spans) == [6.0, 2.0, 1.0, 1.0]
    assert sum(self_times(spans)) == pytest.approx(10.0)
    assert nesting_errors(spans) == 0


def test_nesting_errors_flags_a_child_outside_its_parent():
    spans = [_span("root", 0.0, 5.0, None), _span("late", 4.0, 6.0, 0),
             _span("open", 1.0, None, 0)]
    assert nesting_errors(spans) == 2


class FakeClock:
    def __init__(self):
        self.now = 0.0

    def __call__(self):
        self.now += 1.0
        return self.now


def test_tracer_wraps_and_restores_and_keeps_parents():
    module = SimpleNamespace()
    module.inner = lambda x: x * 2
    module.outer = lambda x: module.inner(x) + 1
    original = module.inner
    tracer = Tracer(clock=FakeClock())
    tracer.install(module, "outer", "layer.outer")
    tracer.install(module, "inner", "layer.inner")
    with pytest.raises(AttributeError):
        tracer.install(module, "removed", "layer.removed")
    tracer.begin_unit("unit", 0.0)
    assert module.outer(3) == 7
    tracer.end_unit(tracer.clock())
    tracer.uninstall()
    assert module.inner is original
    assert [s[0] for s in tracer.spans] == ["unit", "layer.outer", "layer.inner"]
    assert [s[3] for s in tracer.spans] == [None, 0, 1]
    assert nesting_errors(tracer.spans) == 0


def test_layer_metrics_add_up_to_the_traced_wall():
    tracer = Tracer(clock=FakeClock())
    window = Window(seconds=1e9, warmup=1, probe=False)
    window.ready = 0.0
    for step in range(3):
        start = tracer.clock()
        tracer.begin_unit("pipeline.step", start)
        with_child = tracer.wrap("nn.tensor.backward", lambda: None)
        with_child()
        tracer.count_repeat("encoder.embed_graph", "same")
        tracer.count_repeat("encoder.embed_graph", "same")
        end = tracer.clock()
        tracer.end_unit(end)
        window.record(start, end, 16)
    out = layer_metrics(tracer, window, "pretrain_toy")
    metrics = out["metrics"]
    assert out["per"] == 2 and out["nesting_errors"] == 0
    assert metrics["nn.tensor.backward.self_ms"] == pytest.approx(1e3)
    assert metrics["pipeline.step.other_ms"] == pytest.approx(2e3)
    assert metrics["tracing.wall_ms"] == pytest.approx(
        metrics["nn.tensor.backward.self_ms"] + metrics["pipeline.step.other_ms"])
    assert metrics["encoder.embed_graph.repeat_ratio"] == pytest.approx(0.5)


def test_repeats_count_only_the_same_object_and_mask():
    tracer = Tracer(clock=FakeClock())
    tracer.begin_unit("unit", 0.0)
    for _ in range(50):
        # Each object is freed before the next is made, so CPython would
        # hand out the same address again if the tracer did not keep it.
        tracer.count_repeat("k", object())
    kept = object()
    tracer.count_repeat("k", kept, (1,))
    tracer.count_repeat("k", kept, (2,))
    tracer.count_repeat("k", kept, (1,))
    assert tracer.counts["k.calls"] == 53
    assert tracer.counts["k.repeats"] == 1


def test_embedding_fresh_graphs_in_turn_counts_no_repeat():
    encoder = MoleculeEncoder(ModelConfig(vocab_size=8, context_vocab_size=8, dim=16,
                                          heads=2, n_groups=4), seed=0)
    tracer = Tracer()
    install_tracer(tracer)
    try:
        tracer.begin_unit("cli.embed", 0.0)
        for smiles in ["CCO", "CCN", "CCC", "CCO", "CCN", "CCC"] * 5:
            encoder.embed_graph(parse_smiles(smiles)[0])
        encoder.embed_graph(graph := parse_smiles("CCO")[0])
        encoder.embed_graph(graph)
        tracer.end_unit(tracer.clock())
    finally:
        tracer.uninstall()
    counts = tracer.unit_counts[0]
    assert counts["encoder.embed_graph.calls"] == 32
    assert counts["encoder.embed_graph.repeats"] == 1
