"""Run one workload in a fresh process and write what it measured as JSON.

    python3 perfbench/worker.py WORKLOAD --seed N --seconds S --mode MODE \
        --work DIR --out FILE [--spans FILE]

MODE is ``probe`` (stop at the first unit of work, for set-up time),
``timed`` (set-up, then a closed-loop window of S seconds, then the output
checks) or ``traced`` (as ``timed``, with the span tracer installed from
the start; ``--spans`` receives the spans). Inputs are read from DIR,
which ``run.py`` fills beforehand.
"""

import time

T0 = time.perf_counter()  # process start, before chemfuse or numpy is imported

import argparse  # noqa: E402
import gc  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import resource  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))

from spans import Tracer, nesting_errors, self_times  # noqa: E402

TOY = ROOT / "tests" / "data" / "toy_200.smi"
REFERENCE_CURVE = HERE / "reference_curve.tsv"

#: The acceptance smoke configuration (criteria 5 and 9).
SMOKE_MODEL = dict(dim=64, transformer_layers=2, heads=4, gnn_layers=3,
                   gnn_width=32, fingerprint_width=1024)
SMOKE_EPOCHS, SMOKE_BATCH = 30, 16
REFERENCE_SEED = 7
CHECK_STEPS = 3
#: Largest difference allowed between a logged value and the reference curve.
CURVE_TOLERANCE = 1e-5
#: Largest difference allowed between an ``embed`` row and ``embed_corpus``;
#: the CLI prints 6 decimals, so rounding alone moves a value by 5e-7.
EMBED_TOLERANCE = 1e-6
EMBED_CHECKED_ROWS = 64
#: Rows in one ``embed_mixed`` op: one block of the stratified corpus, with
#: exactly 3 large molecules, so ops are alike and their tail is steady.
EMBED_OP_ROWS = 10
#: Every this many rows one is kept for the ``embed_corpus`` comparison.
#: Keeping all rows would make peak RSS grow with throughput.
EMBED_KEPT_EVERY = 16
FINGERPRINT_WIDTH = 1024

#: Seconds of work between two calibration blocks, and blocks run at the end
#: of set-up and after the window.
CALIBRATION_INTERVAL_S = 0.2
EDGE_BLOCKS = 3

#: Units of work run before the window opens: the first pretraining step
#: pays one-off costs (about twice a normal step), as do the first rows.
WARMUP = {"pretrain_toy": 2, "embed_mixed": 1, "ingest_large": 1}


class StopWindow(BaseException):
    """Raised from a log sink to end a run once the window is full.

    It derives from BaseException so that ``cli.main``'s catch-all handler,
    which maps ``Exception`` to exit code 2, lets it through.
    """


_BLOCK_ARRAYS: list = []

#: Workloads whose calibration block adds attention-sized products: the two
#: that run the encoder. Corpus preparation tracks the host better without.
ATTENTION_BLOCK = ("pretrain_toy", "embed_mixed")


def calibration_block(attention: bool) -> float:
    """Time a fixed mix of interpreter and small-array work, like the tape's,
    plus attention-sized softmax products if ``attention``.

    The host's speed drifts by 10-20 % over tens of seconds; these blocks,
    run between units of work, let ``run.py`` scale each unit to one
    reference speed. Returns the block's duration in seconds.
    """
    import numpy as np
    if not _BLOCK_ARRAYS:
        rng = np.random.default_rng(0)
        _BLOCK_ARRAYS.extend([rng.normal(size=(24, 64)), rng.normal(size=(64, 64)) * 0.1,
                              rng.normal(size=(180, 64)), rng.normal(size=(64, 180)) * 0.1])
    # A collection here would scan the program's heap, not time the machine.
    gc.disable()
    try:
        start = time.perf_counter()
        table: dict = {}
        items = []
        for i in range(8000):
            key = (i % 37, i % 11)
            table[key] = table.get(key, 0) + i
            items.append([key, i * 0.5])
        a, w, b, wb = _BLOCK_ARRAYS
        for _ in range(160):
            a = np.tanh(a @ w + 0.01)
            a = a - a.mean(axis=1, keepdims=True)
        for _ in range(8 if attention else 0):
            s = b @ wb
            s = np.exp(s - s.max(axis=1, keepdims=True))
            s /= s.sum(axis=1, keepdims=True)
            s @ b
        return time.perf_counter() - start
    finally:
        gc.enable()


class Window:
    """Closed-loop measurement window over units of work.

    A unit is a pretraining step, an ``embed`` output row or an ingest
    chunk. The first ``warmup`` units are recorded but not measured.
    """

    def __init__(self, seconds: float, warmup: int, probe: bool,
                 attention_block: bool = False):
        self.seconds = seconds
        self.warmup = warmup
        self.probe = probe
        self.attention_block = attention_block
        self.ready: float | None = None
        self.units: list[tuple[float, float, int]] = []
        self.calibrations: list[tuple[float, float]] = []
        self._measured = 0.0
        self._calibrated_at = 0.0

    def calibrate(self) -> float:
        took = calibration_block(self.attention_block)
        self._calibrated_at = time.perf_counter()
        self.calibrations.append((self._calibrated_at, took))
        return took

    def mark_ready(self, t: float) -> None:
        """Set-up ends: the first unit of work is about to start or done."""
        self.ready = t
        if self.probe:
            raise StopWindow
        for _ in range(EDGE_BLOCKS):
            self.calibrate()

    def record(self, start: float, end: float, molecules: int) -> None:
        """Add a unit; the caller times the next one from when this returns."""
        self.units.append((start, end, molecules))
        if end - self._calibrated_at >= CALIBRATION_INTERVAL_S:
            self.calibrate()
        if len(self.units) > self.warmup:
            self._measured += end - start
            if self._measured >= self.seconds:
                raise StopWindow

    @property
    def measured(self) -> list[tuple[float, float, int]]:
        return self.units[self.warmup:]


class LineSink:
    """File-like object that timestamps each complete line written to it."""

    def __init__(self, on_line):
        self.on_line = on_line
        self.buffer = ""

    def write(self, text: str) -> int:
        self.buffer += text
        while "\n" in self.buffer:
            line, self.buffer = self.buffer.split("\n", 1)
            self.on_line(line, time.perf_counter())
        return len(text)

    def flush(self) -> None:
        pass


# --------------------------------------------------------------------- tracing

def install_tracer(tracer: Tracer) -> None:
    """Wrap each layer's public functions where their callers look them up."""
    # cmd_embed reaches parse_smiles, build_fragment_map and load_checkpoint
    # through pipeline.parse_molecule and pipeline.load_pretrained, so the
    # pipeline patches cover the embed path too.
    from chemfuse import encoder, pipeline
    from chemfuse.nn import tensor

    for name, attr in (
        ("pipeline.ingest", "ingest"),
        ("pipeline.build_vocabulary", "build_vocabulary"),
        ("masking.build_context_vocab", "build_context_vocab"),
        ("pipeline.prepare_records", "prepare_records"),
        ("chem.parse_smiles", "parse_smiles"),
        ("fragments.build_fragment_map", "build_fragment_map"),
        ("features.morgan_fingerprint", "morgan_fingerprint"),
        ("features.detect_functional_groups", "detect_functional_groups"),
        ("masking.sample", "sample_token_mask"),
        ("masking.sample", "sample_fragment_mask"),
        ("masking.sample", "sample_ablation_mask"),
        ("objectives.loss_cmm_token", "loss_cmm_token"),
        ("objectives.loss_cmm_fragment", "loss_cmm_fragment"),
        ("objectives.loss_fla", "loss_fla"),
        ("objectives.loss_sgm", "loss_sgm"),
        ("objectives.loss_dkl", "loss_dkl"),
        ("nn.tensor.backward", "backward"),
        ("nn.optim.adam_step", "adam_step"),
        ("nn.checkpoint.load", "load_checkpoint"),
    ):
        tracer.install(pipeline, attr, name)
    tracer.install(encoder, "featurize", "features.featurize")
    tracer.install(encoder, "gcn_layer", "nn.layers.gcn_layer")
    tracer.install(encoder, "multi_head_attention", "nn.layers.attention")
    for method in ("embed_smiles", "joint_encode", "pool_fragments"):
        tracer.install(encoder.MoleculeEncoder, method, f"encoder.{method}")

    tracer.install(encoder.MoleculeEncoder, "embed_graph", "encoder.embed_graph")
    embed_graph = encoder.MoleculeEncoder.embed_graph

    def counted_embed_graph(self, graph, masked_atoms=(), *args, **kwargs):
        tracer.count_repeat("encoder.embed_graph", graph, tuple(sorted(masked_atoms)))
        return embed_graph(self, graph, masked_atoms, *args, **kwargs)

    tracer.patch(encoder.MoleculeEncoder, "embed_graph", counted_embed_graph)

    tensor_init = tensor.Tensor.__init__

    def counted_init(self, data, parents=(), backward=None, *args, **kwargs):
        tracer.count("nn.tensor.nodes")
        if backward is not None:
            tracer.count("nn.tensor.grad_nodes")
        tensor_init(self, data, parents, backward, *args, **kwargs)

    tracer.patch(tensor.Tensor, "__init__", counted_init)


UNIT_SPANS = {"pretrain_toy": "pipeline.step", "embed_mixed": "cli.embed",
              "ingest_large": "ingest.chunk"}
SETUP_SPANS = {"nn.checkpoint.load": "nn.checkpoint.load_ms",
               "pipeline.ingest": "setup.pipeline.ingest_ms",
               "pipeline.prepare_records": "setup.pipeline.prepare_records_ms"}
CALL_COUNTS = ("features.featurize", "encoder.embed_graph", "encoder.joint_encode",
               "nn.layers.attention", "nn.layers.gcn_layer")


def layer_metrics(tracer: Tracer, window: Window, workload: str) -> dict:
    """Per-layer figures over the measured units: per step on pretrain_toy,
    per molecule elsewhere; set-up spans are one-time totals in ms."""
    first = window.warmup
    last = len(window.units)
    units = window.measured
    per = len(units) if workload == "pretrain_toy" else sum(u[2] for u in units)
    spans = tracer.spans
    selfs = self_times(spans)
    unit_name = UNIT_SPANS[workload]
    out: dict[str, float] = {}
    calls: dict[str, int] = {}
    for span, own in zip(spans, selfs):
        name, start, end, parent, unit = span
        if unit is None:
            if end <= window.ready + 1e-9 and name in SETUP_SPANS:
                key = SETUP_SPANS[name]
                out[key] = out.get(key, 0.0) + (end - start) * 1e3
            continue
        if not first <= unit < last:
            continue
        if name == unit_name:
            key = unit_name + ".other_ms"
        elif name == "nn.layers.attention":
            parent_name = spans[parent][0]
            key = ("nn.layers.attention.encoder_ms"
                   if parent_name == "encoder.joint_encode"
                   else "nn.layers.attention.fragment_ms")
        else:
            key = name + ".self_ms"
        out[key] = out.get(key, 0.0) + own * 1e3
        if name in CALL_COUNTS:
            calls[name] = calls.get(name, 0) + 1
    metrics = {k: v / per if k.endswith("self_ms") or k.endswith("other_ms")
               or k.startswith("nn.layers.attention.") else v
               for k, v in out.items()}
    for name in CALL_COUNTS:
        metrics[name + ".calls"] = calls.get(name, 0) / per
    counts = {}
    full = max(u[2] for u in units)
    graph_calls = graph_repeats = 0
    for offset, u in enumerate(units):
        c = tracer.unit_counts.get(first + offset, {})
        for key in ("nn.tensor.nodes", "nn.tensor.grad_nodes"):
            counts[key] = counts.get(key, 0) + c.get(key, 0)
        if u[2] == full:
            graph_calls += c.get("encoder.embed_graph.calls", 0)
            graph_repeats += c.get("encoder.embed_graph.repeats", 0)
    for key, value in counts.items():
        metrics[key] = value / per
    metrics["encoder.embed_graph.repeat_ratio"] = (
        graph_repeats / graph_calls if graph_calls else 0.0)
    wall = sum(u[1] - u[0] for u in units)
    metrics["tracing.wall_ms"] = wall * 1e3 / per
    return {"metrics": metrics, "per": per, "nesting_errors": nesting_errors(spans)}


# -------------------------------------------------------------------- workloads

def _batch_sizes(n_records: int) -> list[int]:
    return [min(SMOKE_BATCH, n_records - lo) for lo in range(0, n_records, SMOKE_BATCH)]


def _pretrain_log(corpus, seed: int, on_line) -> None:
    from chemfuse import pipeline
    from chemfuse.masking import MaskConfig
    try:
        pipeline.pretrain(
            corpus, MaskConfig(seed=seed),
            pipeline.TrainConfig(epochs=SMOKE_EPOCHS, batch_size=SMOKE_BATCH, seed=seed),
            model_kwargs=dict(SMOKE_MODEL), log_sink=LineSink(on_line))
    except StopWindow:
        pass


def _pretrain_prefix(corpus, seed: int, steps: int) -> list[str]:
    lines: list[str] = []

    def on_line(line, _t):
        lines.append(line)
        if len(lines) > steps:
            raise StopWindow

    _pretrain_log(corpus, seed, on_line)
    return lines


def _curve_matches(lines: list[str], reference: list[str]) -> bool:
    if len(lines) != len(reference) or lines[0] != reference[0]:
        return False
    for got, want in zip(lines[1:], reference[1:]):
        a, b = got.split("\t"), want.split("\t")
        if len(a) != len(b) or a[0] != b[0]:
            return False
        # Written so that a NaN on either side fails the comparison.
        if not all(abs(float(x) - float(y)) <= CURVE_TOLERANCE
                   for x, y in zip(a[1:], b[1:])):
            return False
    return True


def run_pretrain(args, window: Window, tracer: Tracer | None, result: dict) -> None:
    from chemfuse import pipeline

    corpus = pipeline.ingest(TOY)
    sizes = _batch_sizes(len(corpus))
    lines: list[str] = []
    prev = [0.0]

    def on_line(line, t):
        lines.append(line)
        if len(lines) == 1:
            window.mark_ready(t)
        else:
            if tracer:
                tracer.end_unit(t)
            step = len(lines) - 2
            window.record(prev[0], t, sizes[step % len(sizes)])
        prev[0] = time.perf_counter()
        if tracer:
            tracer.begin_unit("pipeline.step", prev[0])

    _pretrain_log(corpus, args.seed, on_line)
    if args.mode == "probe":
        return
    finish_window(window, tracer, result)

    steps = lines[1 + window.warmup:1 + len(window.units)]
    bad = sum(1 for line in steps
              if not all(math.isfinite(float(v)) for v in line.split("\t")[1:7]))
    add_check(result, "losses finite", bad == 0, f"{len(steps)} steps", bad)
    again = _pretrain_prefix(corpus, args.seed, CHECK_STEPS)
    same = again == lines[:CHECK_STEPS + 1]
    add_check(result, "same-seed TSV byte-identical", same,
              f"first {CHECK_STEPS} steps rerun", 0 if same else CHECK_STEPS)
    reference = REFERENCE_CURVE.read_text().splitlines()
    curve = _pretrain_prefix(corpus, REFERENCE_SEED, len(reference) - 1)
    ok = _curve_matches(curve, reference)
    add_check(result, "reference curve", ok,
              f"seed {REFERENCE_SEED}, {len(reference) - 1} steps, "
              f"|diff| <= {CURVE_TOLERANCE}", 0 if ok else len(reference) - 1)
    result["attempted"] = len(steps)


def run_embed(args, window: Window, tracer: Tracer | None, result: dict) -> None:
    from chemfuse import cli

    work = Path(args.work)
    source = work / "embed.smi"
    kept: dict[int, str] = {}
    bad_rows = [0]
    rows = [0]
    prev = [0.0]
    dim = [0]
    block: list[tuple[int, str]] = []

    def on_line(line, t):
        index = rows[0]
        rows[0] += 1
        if index == 0:
            window.mark_ready(t)
            dim[0] = line.count("\t") + 1
        else:
            block.append((index, line))
            if (index + 1) % EMBED_OP_ROWS:
                return
            if tracer:
                tracer.end_unit(t)
            # Checked after the op's end time and before the next op's start
            # time, so the check is not part of any measured op.
            if len(window.units) >= window.warmup:
                for i, row in block:
                    fields = row.split("\t")
                    if len(fields) != dim[0] or not all(
                            math.isfinite(float(v)) for v in fields):
                        bad_rows[0] += 1
                    elif i % EMBED_KEPT_EVERY == 0:
                        kept[i] = row
            count = len(block)
            block.clear()
            window.record(prev[0], t, count)
        prev[0] = time.perf_counter()
        if tracer:
            tracer.begin_unit("cli.embed", prev[0])

    saved = sys.stdout
    sys.stdout = LineSink(on_line)
    try:
        code = cli.main(["embed", str(source), "--checkpoint", str(work / "ckpt")])
    except StopWindow:
        code = 0
    finally:
        sys.stdout = saved
    if args.mode == "probe":
        return
    finish_window(window, tracer, result)
    add_check(result, "embed exit code 0", code == 0, f"exit {code}", 0 if code == 0 else 1)

    from chemfuse import pipeline
    model, vocab, _, _ = pipeline.load_pretrained(work / "ckpt")
    measured = sum(u[2] for u in window.measured)
    ok = bad_rows[0] == 0 and dim[0] == model.config.dim
    add_check(result, "rows finite and dim wide", ok,
              f"{measured} rows x {model.config.dim}", bad_rows[0])
    smiles = source.read_text().splitlines()
    indices = sorted(kept)
    stride = max(1, len(indices) // EMBED_CHECKED_ROWS)
    picked = indices[::stride][:EMBED_CHECKED_ROWS]
    corpus = pipeline.Corpus([pipeline.parse_molecule(smiles[i]) for i in picked])
    expected = pipeline.embed_corpus(model, vocab, corpus)
    # Written so that a NaN on either side counts as a mismatch.
    mismatched = sum(
        1 for i, want in zip(picked, expected)
        if not all(abs(float(v) - w) <= EMBED_TOLERANCE
                   for v, w in zip(kept[i].split("\t"), want)))
    add_check(result, "rows equal embed_corpus", mismatched == 0,
              f"{len(picked)} sampled rows, |diff| <= {EMBED_TOLERANCE}", mismatched)
    result["attempted"] = measured


def run_ingest(args, window: Window, tracer: Tracer | None, result: dict) -> None:
    from chemfuse import pipeline

    window.mark_ready(time.perf_counter())
    chunks = sorted(Path(args.work).glob("chunk_*.smi"))
    skipped = not_total = lines = 0
    for path in chunks:
        start = time.perf_counter()
        if tracer:
            tracer.begin_unit("ingest.chunk", start)
        corpus = pipeline.ingest(path)
        vocab = pipeline.build_vocabulary(m.tokens for m in corpus.molecules)
        context = pipeline.build_context_vocab(m.graph for m in corpus.molecules)
        records = pipeline.prepare_records(corpus, vocab, context,
                                           fingerprint_width=FINGERPRINT_WIDTH)
        end = time.perf_counter()
        if tracer:
            tracer.end_unit(end)
        count = len(path.read_text().splitlines())
        if len(window.units) >= window.warmup:
            lines += count
            skipped += corpus.skipped + count - len(records)
            not_total += sum(1 for r in records if not labels_total(r))
        try:
            window.record(start, end, count)
        except StopWindow:
            break
    finish_window(window, tracer, result)
    add_check(result, "no line skipped", skipped == 0, f"{lines} lines", skipped)
    add_check(result, "fragment labels total", not_total == 0,
              f"{lines} records", not_total)
    result["attempted"] = lines


def labels_total(record) -> bool:
    """Every atom and token carries a fragment id, and every id is used."""
    fmap = record.fragment_map
    return (len(fmap.l_g) == record.graph.m
            and len(fmap.l_s) == len(record.token_ids)
            and set(fmap.l_g) == set(range(fmap.K))
            and all(0 <= lab < fmap.K for lab in fmap.l_s))


WORKLOADS = {"pretrain_toy": run_pretrain, "embed_mixed": run_embed,
             "ingest_large": run_ingest}


# ------------------------------------------------------------------------ main

def add_check(result: dict, name: str, ok: bool, detail: str, failures: int) -> None:
    result["checks"].append({"name": name, "ok": bool(ok), "detail": detail})
    result["failed"] += failures


def finish_window(window: Window, tracer: Tracer | None, result: dict) -> None:
    """Close the measured window: peak RSS now, before the output checks."""
    result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    for _ in range(EDGE_BLOCKS):
        window.calibrate()
    if tracer:
        tracer.uninstall()


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("workload", choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--mode", choices=["probe", "timed", "traced"], required=True)
    parser.add_argument("--work", required=True)
    parser.add_argument("--out", required=True)
    parser.add_argument("--spans", help="write the traced spans here as JSON lines")
    args = parser.parse_args()

    tracer = None
    if args.mode == "traced":
        import chemfuse.cli  # noqa: F401  (import before patching)
        tracer = Tracer()
        install_tracer(tracer)
    window = Window(args.seconds, WARMUP[args.workload], args.mode == "probe",
                    args.workload in ATTENTION_BLOCK)
    result = {"checks": [], "failed": 0, "attempted": 0}
    try:
        WORKLOADS[args.workload](args, window, tracer, result)
    except StopWindow:  # a probe stops at the first unit of work
        pass
    result["setup_s"] = window.ready - T0
    result["units"] = [list(u) for u in window.measured]
    result["calibrations"] = [list(c) for c in window.calibrations]
    if tracer:
        result["trace"] = layer_metrics(tracer, window, args.workload)
        if args.spans:
            tracer.dump(args.spans)
    Path(args.out).write_text(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
