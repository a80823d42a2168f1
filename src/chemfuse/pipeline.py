"""Corpus ingestion, vocabularies, batching, pretraining, and fine-tuning.

The pretraining step realizes the four-objective sum per batch: every
molecule contributes one token-masked view and one fragment-masked view
(strategy CMM), a clean view (alignment, matching positives, domain
targets), and one mismatched-pair view for matching negatives. The masked
views make the CMM tape and the others the alignment tape, each one
``MoleculeEncoder.encode`` call, which embeds each distinct (molecule,
mask) side once per tape. The gradient is the sum of the two tapes'; on two
CPUs a ``_Helper`` process runs the CMM tape, as it encodes half of each
``embed_rows`` pack. One optimizer step runs per batch under a linear warmup /
linear decay schedule.
"""

from __future__ import annotations

import contextlib
import functools
import gc
import math
import os
import signal
import sys
import warnings
from dataclasses import asdict, dataclass
from enum import Enum
from itertools import chain, islice
from pathlib import Path
from typing import Iterable, Iterator, Sequence

import numpy as np

from .chem import SmilesError, parse_smiles
from .chem.graph import MolecularGraph, TokenSequence
from .encoder import UNK_ID, ModelConfig, MoleculeEncoder, ParamFactory, PositionOverflow
from .errors import ConfigError, InputError, check_at_least
from .features import (
    EmptyCorpus,
    SPLIT_FRACTIONS,
    detect_functional_groups,
    morgan_fingerprint,
    scaffold_key,
    scaffold_split,
)
from .fragments import FragmentMap, build_fragment_map
from .masking import (
    MaskConfig,
    Strategy,
    Vocabulary,
    build_context_vocab,
    context_keys,
    sample_ablation_mask,
    sample_fragment_mask,
    sample_token_mask,
)
from .metrics import DegenerateInput, concordance_index, mse, rmse, roc_auc
from .nn import (
    AdamState,
    CheckpointCorrupt,
    NonFiniteInput,
    Parameter,
    Tensor,
    adam_step,
    add,
    backward,
    concat_cols,
    constant,
    load_checkpoint,
    log_softmax_rows,
    mean_all,
    no_grad,
    pick,
    relu,
    save_checkpoint,
    scale,
    sub,
)
from .nn.blas import set_blas_threads
from .nn.layers import perceptron
from .objectives import (
    BatchTooSmall,
    Heads,
    LossReport,
    SingleFragmentBatch,
    loss_cmm_fragment,
    loss_cmm_token,
    loss_dkl,
    loss_fla,
    loss_sgm,
    total_loss,
)


class FileUnreadable(InputError, OSError):
    """The corpus or task file cannot be read."""


class AllLinesFailed(InputError):
    """Every line of the input failed to parse."""


class EmptySplit(InputError):
    """A train/valid/test split received zero molecules."""


class InvalidLabel(InputError):
    """A task row whose label cannot be a target of its task kind."""


class TrainingDiverged(InputError):
    """Training met a NaN or infinity, as a far too large learning rate makes."""


@contextlib.contextmanager
def _diverges_at(where: str, shown: set) -> Iterator[None]:
    """Report a NaN or infinity raised in the block as a diverged run. The
    block's warnings, such as numpy's overflow warnings on the way to the
    NaN, are held back: dropped with a divergence, re-emitted otherwise if
    not yet in ``shown``, the run's set, which stands in for the
    once-per-location registry that ``catch_warnings`` resets."""
    with warnings.catch_warnings(record=True) as caught:
        try:
            yield
        except NonFiniteInput as exc:
            raise TrainingDiverged(f"non-finite loss at {where}: {exc}") from exc
    for w in caught:
        key = (str(w.message), w.category, w.filename, w.lineno)
        if key not in shown:
            shown.add(key)
            warnings.warn_explicit(w.message, w.category, w.filename, w.lineno,
                                   source=w.source)


def _train_step(tapes, params: list[Parameter], optimizer: AdamState,
                where: str, shown: set):
    """One optimizer step of ``optimizer`` over ``params``. ``tapes()`` builds
    the step's loss tapes, runs their backward into the zeroed gradients of
    ``params`` and returns the step's report, which is returned. A NaN or
    infinity raises TrainingDiverged naming ``where``, as ``_diverges_at``
    does. The tapes are dropped before the update."""
    with _diverges_at(where, shown):
        for p in params:
            p.zero_grad()
        report = tapes()
    adam_step(params, optimizer)
    return report


@contextlib.contextmanager
def _collector_paused() -> Iterator[None]:
    """Pause the cyclic garbage collector, then restore the caller's setting.
    Molecules and records hold no reference cycles: ingesting and preparing
    2,000 of them in 50-line chunks ran about 1,700 collections, freeing none."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        yield
    finally:
        if enabled:
            gc.enable()


# ------------------------------------------------------------------ vocabulary

def build_vocabulary(token_sequences) -> Vocabulary:
    """Token texts by first occurrence, after the three reserved ids."""
    texts = [seq.texts for seq in token_sequences]
    if not texts:
        raise EmptyCorpus("vocabulary needs at least one molecule")
    return Vocabulary.numbered(chain.from_iterable(texts), UNK_ID + 1, UNK_ID)


# ---------------------------------------------------------------------- corpus

@dataclass
class ParsedMolecule:
    smiles: str
    tokens: TokenSequence
    graph: MolecularGraph

    @functools.cached_property
    def fragment_map(self) -> FragmentMap:
        """Built on first read: embedding and fine-tuning never read it."""
        return build_fragment_map(self.tokens, self.graph)


@dataclass
class Corpus:
    molecules: list[ParsedMolecule]
    skipped: int = 0

    def __len__(self) -> int:
        return len(self.molecules)


def parse_molecule(smiles: str) -> ParsedMolecule:
    graph, tokens = parse_smiles(smiles)
    return ParsedMolecule(smiles=smiles, tokens=tokens, graph=graph)


def data_lines(path: str | Path | None) -> Iterator[tuple[int, str]]:
    """``(line number, stripped line)`` for each line of ``path``, or of stdin
    when ``path`` is None, that is neither blank nor a '#' comment.

    Files are read as UTF-8. Each line is read only when it is asked for. A
    file or stdin that cannot be opened, read or decoded raises
    FileUnreadable naming it.
    """
    try:
        with (open(path, encoding="utf-8") if path is not None
              else contextlib.nullcontext(sys.stdin)) as stream:
            for lineno, raw in enumerate(stream, start=1):
                # Python decodes stdin with escapes for bytes that are not
                # UTF-8; restore and decode them strictly, as a file is.
                raw.encode("utf-8", "surrogateescape").decode("utf-8")
                line = raw.strip()
                if line and not line.startswith("#"):
                    yield lineno, line
    except (OSError, UnicodeError) as exc:
        name = "<stdin>" if path is None else path
        raise FileUnreadable(f"cannot read {name}: {exc}") from exc


@_collector_paused()
def ingest(path: str | Path) -> Corpus:
    """Read one SMILES per ``data_lines`` line: the first tab-separated
    field, with any further columns ignored. Unparseable lines are skipped
    and counted. Raises FileUnreadable / AllLinesFailed.
    """
    molecules: list[ParsedMolecule] = []
    skipped = 0
    for _, line in data_lines(path):
        try:
            molecules.append(parse_molecule(line.split("\t")[0]))
        except SmilesError:
            skipped += 1
    if skipped and not molecules:
        raise AllLinesFailed(f"no line of {path} parsed as SMILES")
    return Corpus(molecules=molecules, skipped=skipped)


@dataclass
class MoleculeRecord:
    """Training-ready molecule: ids, fragment labels, and target vectors."""

    graph: MolecularGraph
    fragment_map: FragmentMap
    token_ids: list[int]
    context_ids: list[int]
    fingerprint_bits: np.ndarray
    group_bits: np.ndarray


#: Molecules per ``morgan_fingerprint`` call: its numpy overhead is paid per
#: block, its transient arrays grow with the block (0.8 MB at 32 and 6.2 MB at
#: 256 on 40-100 atom molecules), and ``pretrain`` prepares a whole corpus.
FINGERPRINT_BLOCK = 32


@_collector_paused()
def prepare_records(corpus: Corpus, vocab: Vocabulary, context_vocab: Vocabulary, *,
                    fingerprint_width: int) -> list[MoleculeRecord]:
    """One record per molecule; the fingerprint rows are read-only views of
    their block's array."""
    records = []
    for start in range(0, len(corpus.molecules), FINGERPRINT_BLOCK):
        block = corpus.molecules[start:start + FINGERPRINT_BLOCK]
        bits = morgan_fingerprint([mol.graph for mol in block], width=fingerprint_width)
        bits.flags.writeable = False
        records.extend(MoleculeRecord(
            graph=mol.graph,
            fragment_map=mol.fragment_map,
            token_ids=vocab.ids_for(mol.tokens.texts),
            context_ids=context_vocab.ids_for(context_keys(mol.graph)),
            fingerprint_bits=row,
            group_bits=detect_functional_groups(mol.graph),
        ) for mol, row in zip(block, bits))
    return records


# -------------------------------------------------------------------- schedule

def learning_rate_at(step: int, total_steps: int, warmup_steps: int,
                     lr_max: float) -> float:
    """Linear warmup to ``lr_max`` then linear decay to zero at the end.

    ``step`` is zero-based; the peak sits at the end of warmup and the
    final step runs at zero.
    """
    s = step + 1
    warmup = max(1, warmup_steps)
    if s <= warmup:
        return lr_max * s / warmup
    if total_steps <= warmup:
        return lr_max
    return lr_max * max(0, total_steps - s) / (total_steps - warmup)


# ----------------------------------------------------------------------- model

class PretrainModel:
    """Encoder plus heads sharing one flat parameter dict."""

    def __init__(self, config: ModelConfig, seed: int = 0, table: dict | None = None):
        self.config = config
        self.params: dict[str, Parameter] = {}
        self.encoder = MoleculeEncoder(config, seed=seed, params=self.params, table=table)
        self.heads = Heads(config, seed=seed + 1, params=self.params, table=table)
        self.seed = seed


def save_pretrained(path: str | Path, model: PretrainModel, vocab: Vocabulary,
                    context_vocab: Vocabulary, step: int,
                    mask_config: MaskConfig | None = None) -> None:
    config = {
        "model": asdict(model.config),
        "vocab_tokens": list(vocab.key_to_id),
        "context_keys": [[elem, [list(pair) for pair in neigh]]
                         for elem, neigh in context_vocab.key_to_id],
        "mask": {
            "r_t": mask_config.r_t, "r_f": mask_config.r_f,
            "strategy": mask_config.strategy.value,
        } if mask_config else None,
    }
    try:
        save_checkpoint(path, model.params, config=config, seed=model.seed, step=step)
    except OSError as exc:
        raise ConfigError(f"cannot write checkpoint {path}: {exc}") from exc


def load_pretrained(path: str | Path) -> tuple[PretrainModel, Vocabulary, Vocabulary, dict]:
    manifest, tensors = load_checkpoint(path)
    try:
        config, seed = manifest["config"], manifest["seed"]
        model_config = ModelConfig(**config["model"])
        vocab = Vocabulary.numbered(config["vocab_tokens"], UNK_ID + 1, UNK_ID)
        context_vocab = Vocabulary.numbered((elem, tuple((o, e) for o, e in neigh))
                                            for elem, neigh in config["context_keys"])
        if type(seed) is not int or seed < 0:
            raise ValueError(f"seed must be an integer of at least 0, got {seed!r}")
        if not (all(type(t) is str for t in vocab.key_to_id) and all(
                type(elem) is str and all(type(o) is int and type(e) is str for o, e in neigh)
                for elem, neigh in context_vocab.key_to_id)):
            raise ValueError("vocabulary entries must be strings and [int, str] pairs")
    except (KeyError, TypeError, ValueError) as exc:
        raise CheckpointCorrupt(f"malformed config in {path}: {exc!r}") from exc
    model_sizes = (model_config.vocab_size, model_config.context_vocab_size)
    if (vocab.size, context_vocab.size) != model_sizes:
        raise CheckpointCorrupt(f"vocabulary sizes {vocab.size}, {context_vocab.size} "
                                f"in {path} do not fit its model's {model_sizes}")
    model = PretrainModel(model_config, seed=seed, table=tensors)
    if extra := sorted(set(tensors) - set(model.params)):
        raise CheckpointCorrupt(f"tensors {extra} in {path} are not in its model")
    return model, vocab, context_vocab, manifest


# ------------------------------------------------------------------- pretraining

@dataclass
class TrainConfig:
    epochs: int = 30
    batch_size: int = 16
    lr: float = 2e-3
    warmup_steps: int = 40
    weight_decay: float = 0.0
    seed: int = 7

    def __post_init__(self):
        check_at_least(self, {"epochs": 1, "batch_size": 1, "warmup_steps": 0, "seed": 0})
        if not (math.isfinite(self.lr) and self.lr > 0):
            raise ConfigError(f"lr must be finite and positive, got {self.lr}")
        if not (math.isfinite(self.weight_decay) and self.weight_decay >= 0):
            raise ConfigError(
                f"weight_decay must be finite and non-negative, got {self.weight_decay}")


def _record_rng(seed: int, epoch: int, index: int) -> np.random.Generator:
    return np.random.default_rng([seed, epoch, index])


def derangement(n: int) -> list[int]:
    """Rotation pairing for matching negatives: index i gets i+1 mod n."""
    if n < 2:
        raise BatchTooSmall("a derangement needs at least two molecules")
    return [(i + 1) % n for i in range(n)]


class _PretrainStep:
    """The two tapes of each step of a run over ``records``, called with a
    batch's record indices, epoch and base index. The CMM tape runs in
    ``helper``, if ``fork`` started one, else here before the alignment tape
    (after it, once the helper is gone). Its gradients, ``grads``, are then
    added to the alignment tape's: in either order the same sum."""

    def __init__(self, model: PretrainModel, records: list[MoleculeRecord],
                 mask_cfg: MaskConfig, train_seed: int):
        self.model, self.records, self.mask_cfg, self.seed = model, records, mask_cfg, train_seed
        self.params = list(model.params.values())
        self.grads = [np.zeros_like(p.data) for p in self.params]
        self.helper = None

    def fork(self) -> None:
        """Start a helper for the CMM tape, if ``_Helper.start`` gives one,
        with the weights and ``grads`` in its shared mapping."""
        def bind(shared: list[np.ndarray]) -> None:
            for p, data in zip(self.params, shared):
                p.data = data
            self.grads = shared[len(self.params):]

        self.helper = _Helper.start(self._cmm, [p.data for p in self.params] + self.grads, bind)

    def _cmm(self, job: tuple[list[int], int, int]) -> tuple:
        """The CMM tape of ``job``, a batch's record indices, epoch and base
        index (the position of its first record in the epoch, which seeds the
        masks): its token-masked views, then its fragment-masked views (CMM
        only), one per molecule each, in one packed pass, each keeping only
        the rows its loss reads. Its backward goes into ``grads``, the
        parameters' own gradients left as they were. Returns l_t, l_f and the
        masked-token accuracy; the warnings raised."""
        batch, epoch, base_index = job
        records, mask_cfg = [self.records[i] for i in batch], self.mask_cfg
        held = [p.grad for p in self.params]
        for p, g in zip(self.params, self.grads):
            p.grad = g
            g.fill(0.0)
        with warnings.catch_warnings(record=True) as caught:
            b = len(records)
            tok_samples, frag_samples = [], []
            for i, rec in enumerate(records):
                rng = _record_rng(self.seed, epoch, base_index + i)
                if mask_cfg.strategy is Strategy.CMM:
                    tok_samples.append(sample_token_mask(rec, mask_cfg, rng))
                    frag_samples.append(sample_fragment_mask(rec, mask_cfg, rng))
                else:
                    tok_samples.append(sample_ablation_mask(rec, mask_cfg, rng))
            samples = tok_samples + frag_samples
            views = records * (len(samples) // b)
            encoding = self.model.encoder.encode(
                [rec.token_ids for rec in views], [rec.graph for rec in views],
                [s.masked_token_positions for s in samples],
                [s.masked_atom_positions for s in samples],
                [mask_cfg.strategy is Strategy.SINGLE_MODALITY] * b + [False] * len(frag_samples),
                read=[s.masked_token_positions + tuple(len(rec.token_ids) + j
                                                       for j in s.masked_atom_positions)
                      for rec, s in zip(views, samples)])
            l_t, tok_aux = loss_cmm_token(encoding.views(range(b)), tok_samples, self.model.heads)
            l_f = (loss_cmm_fragment(encoding.views(range(b, 2 * b)), frag_samples,
                                     self.model.heads)[0] if frag_samples else constant(0.0))
            if math.isfinite(l_t.item() + l_f.item()):  # else the report names it
                backward(add(l_t, l_f))
        for p, g in zip(self.params, held):
            p.grad = g
        return (l_t.item(), l_f.item(), tok_aux["mlm_accuracy"]), [
            (w.message, w.category, w.filename, w.lineno) for w in caught]

    def _alignment(self, batch: list[int]) -> tuple[float, float, float, float]:
        """The alignment tape of ``batch``: its clean views, then its
        mismatched views (the SMILES of molecule i with the graph of its
        derangement partner), one per molecule each, in one packed pass. Its
        backward goes into the parameters' gradients. Returns l_fla, l_sgm,
        l_dkl and the matching accuracy."""
        records = [self.records[i] for i in batch]
        enc, heads, b = self.model.encoder, self.model.heads, len(records)
        partners = derangement(b) if b > 1 else []
        encoding = enc.encode([rec.token_ids for rec in records] * (1 + bool(partners)),
                              [rec.graph for rec in records + [records[j] for j in partners]])
        clean = encoding.views(range(b))
        try:
            l_fla, _ = loss_fla(*enc.pool_fragments(clean, [rec.fragment_map for rec in records]))
        except SingleFragmentBatch:
            l_fla = constant(0.0)
        l_sgm, sgm_aux = (loss_sgm(clean.x_cls, encoding.views(range(b, 2 * b)).x_cls, heads)
                          if partners else (constant(0.0), {"sgm_accuracy": float("nan")}))
        l_dkl, _ = loss_dkl(clean.x_cls, [rec.fingerprint_bits for rec in records],
                            [rec.group_bits for rec in records], heads)
        loss = add(l_fla, add(l_sgm, l_dkl))
        if math.isfinite(loss.item()):
            backward(loss)
        return l_fla.item(), l_sgm.item(), l_dkl.item(), sgm_aux["sgm_accuracy"]

    def __call__(self, batch: list[int], epoch: int, base_index: int) -> LossReport:
        """One step, reported by ``total_loss``: a NaN or infinity raises
        NonFiniteInput naming the first non-finite component, or else the total."""
        job = (batch, epoch, base_index)
        if self.helper:
            aligned, out = self.helper.call(job, lambda: self._alignment(batch))
        else:
            out, aligned = self._cmm(job), self._alignment(batch)
        if out is None:  # the helper is gone: its tape runs here
            self.helper, out = None, self._cmm(job)
        (l_t, l_f, mlm_accuracy), caught = out
        for message, category, filename, lineno in caught:
            warnings.warn_explicit(message, category, filename, lineno)
        l_fla, l_sgm, l_dkl, sgm_accuracy = aligned
        report = total_loss(l_t, l_f, l_fla, l_sgm, l_dkl, mlm_accuracy, sgm_accuracy)
        for p, g in zip(self.params, self.grads):
            p.grad += g
        return report


LOG_HEADER = "step\tl_t\tl_f\tl_fla\tl_sgm\tl_dkl\ttotal\tsgm_acc\tmlm_acc"


def format_log_line(step: int, report: LossReport) -> str:
    return (f"{step}\t{report.l_t:.6f}\t{report.l_f:.6f}\t{report.l_fla:.6f}"
            f"\t{report.l_sgm:.6f}\t{report.l_dkl:.6f}\t{report.total:.6f}"
            f"\t{report.sgm_accuracy:.4f}\t{report.mlm_accuracy:.4f}")


def pretrain(corpus: Corpus, mask_config: MaskConfig, train_config: TrainConfig,
             model_kwargs: dict | None = None,
             checkpoint_dir: str | Path | None = None,
             log_sink=None) -> tuple[PretrainModel, Vocabulary,
                                     Vocabulary, list[LossReport]]:
    """Run the full pretraining loop and return the trained model.

    Per epoch every molecule contributes one token-masked and one
    fragment-masked view in the same batch (CMM); ablation strategies
    contribute a single view and a zero fragment term. Molecules longer
    than the position table are skipped, with a count on stderr. A NaN in
    any component raises TrainingDiverged naming the batch. When
    ``checkpoint_dir`` is set, it is created before the first step (a
    ConfigError if it cannot be) and a checkpoint is (re)written after each
    epoch. A helper process, if one starts after the log header (see
    ``_Helper.start``), runs each CMM tape; it is stopped however the run ends.
    """
    if len(corpus) == 0:
        raise EmptyCorpus("cannot pretrain on an empty corpus")
    if checkpoint_dir is not None:
        try:
            Path(checkpoint_dir).mkdir(parents=True, exist_ok=True)
        except OSError as exc:
            raise ConfigError(
                f"cannot create checkpoint directory {checkpoint_dir}: {exc}") from exc
    vocab = build_vocabulary(m.tokens for m in corpus.molecules)
    context_vocab = build_context_vocab(m.graph for m in corpus.molecules)
    config = ModelConfig(vocab_size=vocab.size, context_vocab_size=context_vocab.size,
                         **(model_kwargs or {}))
    model = PretrainModel(config, seed=train_config.seed)
    records = prepare_records(corpus, vocab, context_vocab,
                              fingerprint_width=config.fingerprint_width)
    fitting = [r for r in records if len(r.token_ids) <= config.max_positions]
    if len(fitting) < len(records):
        print(f"skipped {len(records) - len(fitting)} molecules longer than "
              f"max_positions={config.max_positions} tokens", file=sys.stderr)
    if not fitting:
        raise EmptyCorpus("no molecule fits the position table")
    records = fitting
    steps_per_epoch = math.ceil(len(records) / train_config.batch_size)
    total_steps = steps_per_epoch * train_config.epochs
    optimizer = AdamState(lr=train_config.lr,
                          weight_decay=train_config.weight_decay)
    history: list[LossReport] = []
    if log_sink is not None:
        print(LOG_HEADER, file=log_sink)
    step = 0
    params = list(model.params.values())
    shown: set = set()
    two_tapes = _PretrainStep(model, records, mask_config, train_config.seed)
    try:
        two_tapes.fork()
        for epoch in range(train_config.epochs):
            # Seeded reshuffle per epoch: batch composition (and with it the
            # matching negatives) varies while runs stay reproducible.
            order = np.random.default_rng([train_config.seed, epoch]).permutation(
                len(records)).tolist()
            size = train_config.batch_size
            for batch_index, start in enumerate(range(0, len(order), size)):
                optimizer.lr = learning_rate_at(step, total_steps,
                                                train_config.warmup_steps,
                                                train_config.lr)
                report = _train_step(
                    lambda: two_tapes(order[start:start + size], epoch, start),
                    params, optimizer, f"epoch {epoch} batch {batch_index}", shown)
                history.append(report)
                if log_sink is not None:
                    print(format_log_line(step, report), file=log_sink)
                step += 1
            if checkpoint_dir is not None:
                save_pretrained(checkpoint_dir, model, vocab, context_vocab,
                                step=step, mask_config=mask_config)
    finally:  # however the run ends: returned, diverged or interrupted
        if two_tapes.helper:
            two_tapes.helper.stop()
    return model, vocab, context_vocab, history


# -------------------------------------------------------------------- finetuning

class TaskKind(Enum):
    BINARY_CLASSIFICATION = "cls"
    REGRESSION = "reg"
    PAIR_CLASSIFICATION = "pair"


class SplitMode(Enum):
    SCAFFOLD = "scaffold"
    RANDOM = "random"


@dataclass
class FinetuneTask:
    """A downstream dataset: molecules (one or a pair) plus one label column."""

    kind: TaskKind
    molecules: list[tuple[ParsedMolecule, ...]]
    labels: list[float]
    split: SplitMode = SplitMode.SCAFFOLD

    @property
    def n_classes(self) -> int:
        if self.kind is TaskKind.REGRESSION:
            return 1
        if self.kind is TaskKind.BINARY_CLASSIFICATION:
            return 2
        return int(max(self.labels)) + 1


def load_task(path: str | Path, kind: TaskKind,
              split: SplitMode = SplitMode.SCAFFOLD) -> FinetuneTask:
    """Parse a task file: smiles[<TAB>smiles_b]<TAB>label per line.

    Rows whose molecules do not parse, or without a label, are skipped; so
    are regression rows whose label is not a number. A regression label
    must be finite, a classification label 0 or 1 and a pair label a
    non-negative integer class, else InvalidLabel names the line.
    """
    molecules: list[tuple[ParsedMolecule, ...]] = []
    labels: list[float] = []
    n_mols = 2 if kind is TaskKind.PAIR_CLASSIFICATION else 1
    for lineno, line in data_lines(path):
        fields = line.split("\t")
        try:
            label_text = fields[n_mols]
            mols = tuple(parse_molecule(f) for f in fields[:n_mols])
        except (SmilesError, IndexError):
            continue
        try:
            label = float(label_text)
        except ValueError:
            if kind is TaskKind.REGRESSION:
                continue
            label = math.nan
        if kind is TaskKind.REGRESSION:
            if not math.isfinite(label):
                raise InvalidLabel(f"{path}:{lineno}: label {label_text!r} is not finite")
        elif kind is TaskKind.BINARY_CLASSIFICATION:
            if label not in (0.0, 1.0):
                raise InvalidLabel(f"{path}:{lineno}: label {label_text!r} is not 0 or 1")
        elif not (label >= 0 and label.is_integer()):
            raise InvalidLabel(f"{path}:{lineno}: label {label_text!r} is not "
                               "a non-negative integer class")
        molecules.append(mols)
        labels.append(label)
    if not molecules:
        raise AllLinesFailed(f"no usable rows in {path}")
    return FinetuneTask(kind=kind, molecules=molecules, labels=labels, split=split)


def split_task(task: FinetuneTask, seed: int = 0) -> tuple[list[int], list[int], list[int]]:
    if task.split is SplitMode.SCAFFOLD:
        keys = [scaffold_key(mols[0].graph) for mols in task.molecules]
        train, valid, test = scaffold_split(keys)
    else:
        rng = np.random.default_rng(seed)
        order = rng.permutation(len(task.molecules)).tolist()
        n = len(order)
        n_train = int(round(SPLIT_FRACTIONS[0] * n))
        n_valid = int(round(SPLIT_FRACTIONS[1] * n))
        train = sorted(order[:n_train])
        valid = sorted(order[n_train:n_train + n_valid])
        test = sorted(order[n_train + n_valid:])
    for name, part in (("train", train), ("valid", valid), ("test", test)):
        if not part:
            raise EmptySplit(f"{name} split received zero molecules")
    return train, valid, test


@dataclass
class FinetuneResult:
    metrics: dict[str, float]
    best_epoch: int
    best_valid_loss: float
    split_sizes: tuple[int, int, int]


def x_cls_of(model: PretrainModel, vocab: Vocabulary,
             molecules: Sequence[ParsedMolecule]) -> Tensor:
    """The molecule embeddings ``x_cls``, one row per molecule, of one clean
    packed forward."""
    return model.encoder.encode([vocab.ids_for(mol.tokens.texts) for mol in molecules],
                                [mol.graph for mol in molecules]).x_cls


def _task_loss(logits, labels_np, kind: TaskKind):
    if kind is TaskKind.REGRESSION:
        diff = sub(logits, constant(labels_np.reshape(-1, 1)))
        return mean_all(add(relu(diff), relu(scale(diff, -1.0))))  # MAE
    targets = [int(v) for v in labels_np]
    return scale(mean_all(pick(log_softmax_rows(logits), targets)), -1.0)


def finetune(model: PretrainModel, vocab: Vocabulary, task: FinetuneTask,
             epochs: int = 20, batch_size: int = 16, lr: float = 1e-3,
             weight_decay: float = 0.0, seed: int = 0,
             tune_encoder: bool = True) -> FinetuneResult:
    """Train a two-layer head on x_cls (pair tasks concatenate both x_cls).

    A training minibatch is one packed forward per side. Evaluation, and a
    frozen encoder, which encodes the task once, also pack ``batch_size``
    molecules per forward, and run without a tape.
    Selects the epoch with the best validation loss, then reports test
    metrics; a single-class test split reports ROC-AUC as NaN with a
    warning. The training values are range-checked as pretraining's are;
    a pair label whose head cannot be allocated raises InvalidLabel.
    """
    TrainConfig(epochs=epochs, batch_size=batch_size, lr=lr,
                weight_decay=weight_decay, seed=seed)
    train_idx, valid_idx, test_idx = split_task(task, seed=seed)
    d = model.config.dim
    in_dim = d * (2 if task.kind is TaskKind.PAIR_CLASSIFICATION else 1)
    factory = ParamFactory({}, np.random.default_rng(seed + 1))
    w1, b1 = factory.linear("ft1", in_dim, d)
    try:
        w2, b2 = factory.linear("ft2", d, task.n_classes)
    except ConfigError as exc:
        raise InvalidLabel(f"largest label {max(task.labels):.15g} needs a head "
                           "too large to allocate") from exc
    trainable = [w1, b1, w2, b2] + (list(model.params.values()) if tune_encoder else [])
    labels = np.asarray(task.labels, dtype=np.float64)

    def x_cls_rows(indices) -> Tensor:
        # One packed forward per side; pair tasks concatenate the sides.
        return concat_cols([x_cls_of(model, vocab, side)
                            for side in zip(*(task.molecules[i] for i in indices))])

    def encoded(indices) -> np.ndarray:
        with no_grad():
            return np.concatenate([x_cls_rows(indices[lo:lo + batch_size]).data
                                   for lo in range(0, len(indices), batch_size)])

    frozen = None if tune_encoder else encoded(range(len(task.molecules)))

    def head_forward(indices, train=False):
        if frozen is not None:
            x = constant(frozen[indices])
        else:
            x = x_cls_rows(indices) if train else constant(encoded(indices))
        return perceptron(x, w1, b1, w2, b2)

    optimizer = AdamState(lr=lr, weight_decay=weight_decay)
    order_rng = np.random.default_rng(seed + 2)
    best = (float("inf"), -1, None)
    shown: set = set()
    for epoch in range(epochs):
        order = order_rng.permutation(len(train_idx))
        for batch_index, lo in enumerate(range(0, len(order), batch_size)):
            chunk = [train_idx[i] for i in order[lo:lo + batch_size]]
            _train_step(lambda: backward(_task_loss(head_forward(chunk, train=True),
                                                    labels[chunk], task.kind)),
                        trainable, optimizer, f"epoch {epoch} batch {batch_index}", shown)
        with _diverges_at(f"epoch {epoch} validation", shown), no_grad():
            val = _task_loss(head_forward(valid_idx), labels[valid_idx], task.kind).item()
        if val < best[0]:
            best = (val, epoch, [p.data.copy() for p in trainable])
    if best[2] is not None:
        for p, data in zip(trainable, best[2]):
            p.data = data

    with no_grad():
        logits = head_forward(test_idx).data
    truth = labels[test_idx]
    metrics: dict[str, float] = {}
    if task.kind is TaskKind.BINARY_CLASSIFICATION:
        probs = np.exp(logits - logits.max(axis=1, keepdims=True))
        probs /= probs.sum(axis=1, keepdims=True)
        try:
            metrics["roc_auc"] = roc_auc(probs[:, 1], truth.astype(int))
        except DegenerateInput as exc:
            warnings.warn(f"ROC-AUC undefined on the test split: {exc}")
            metrics["roc_auc"] = float("nan")
    elif task.kind is TaskKind.REGRESSION:
        preds = logits[:, 0]
        metrics["rmse"] = rmse(preds, truth)
        metrics["mse"] = mse(preds, truth)
        try:
            metrics["ci"] = concordance_index(preds, truth)
        except DegenerateInput:
            metrics["ci"] = float("nan")
    else:
        metrics["accuracy"] = float((logits.argmax(axis=1) == truth).mean())
    return FinetuneResult(metrics=metrics, best_epoch=best[1], best_valid_loss=best[0],
                          split_sizes=(len(train_idx), len(valid_idx), len(test_idx)))


# ------------------------------------------------------------------- embedding

#: Lines per ``embed_rows`` pack after the first. A pack holds its rows back
#: until it is full; 10 ran as fast as 20 at about half the tail op time
#: (README, "Library layout"). A ``_Helper``, if one starts, encodes half of each.
EMBED_PACK = 10


def _inline_rows(model: PretrainModel, vocab: Vocabulary,
                 lines: list[str]) -> Iterator[np.ndarray]:
    """The x_cls rows of ``lines`` from one forward without a tape; at a line
    that does not parse or overflows the positions, the rows before it, then its error."""
    limit = model.config.max_positions
    molecules: list[ParsedMolecule] = []
    try:
        for mol in map(parse_molecule, lines):
            if len(mol.tokens.tokens) > limit:
                raise PositionOverflow(
                    f"{len(mol.tokens.tokens)} tokens exceed max_positions={limit}")
            molecules.append(mol)
    finally:
        with no_grad():
            rows = x_cls_of(model, vocab, molecules).data if molecules else ()
        yield from rows


def _halves(lines: list[str]) -> tuple[list[int], list[int]]:
    """A pack's positions in two halves of about equal cost, ``len(smiles) **
    2``: the heaviest line first, each to the lighter half; in input order."""
    halves, costs = ([], []), [0, 0]
    for i in sorted(range(len(lines)), key=lambda i: -len(lines[i])):
        lighter = int(costs[1] < costs[0])
        halves[lighter].append(i)
        costs[lighter] += len(lines[i]) ** 2
    return sorted(halves[0]), sorted(halves[1])


class _Helper:
    """A daemon process, forked so that it shares this process's memory, that
    sends back ``serve(job)`` for each job it receives, until its pipe closes
    or ``serve`` raises. The fork is safe: chemfuse starts no thread, and
    OpenBLAS stops its own pool around a fork. Both processes run OpenBLAS on
    one thread while they share work (README, "Helper process")."""

    @classmethod
    def start(cls, serve, arrays: Sequence[np.ndarray] = (), bind=None) -> _Helper | None:
        """A helper, or None off Linux (numpy's macOS wheels are not fork-safe),
        on one usable CPU or without a bundled OpenBLAS. Before the fork,
        ``arrays`` are copied into one shared mapping and ``bind`` gets the copies."""
        if sys.platform != "linux" or len(os.sched_getaffinity(0)) < 2:
            return None
        try:
            set_blas_threads(set_blas_threads(1))
            if arrays:
                import mmap  # only here, like multiprocessing below
                flat = np.frombuffer(mmap.mmap(-1, sum(a.nbytes for a in arrays)))
                np.concatenate([a.ravel() for a in arrays], out=flat)
                parts = np.split(flat, np.cumsum([a.size for a in arrays])[:-1])
                bind([part.reshape(a.shape) for part, a in zip(parts, arrays)])
            return cls(serve)
        except OSError:  # no bundled OpenBLAS, no mapping or no fork
            return None

    def __init__(self, serve):
        import multiprocessing  # only here: a run without a helper never imports it
        context = multiprocessing.get_context("fork")
        self.conn, child_end = context.Pipe()
        self.process = context.Process(target=self._serve, args=(child_end, serve), daemon=True)
        self.process.start()
        child_end.close()

    def _serve(self, conn, serve) -> None:
        # Quiet when the pipe closes or a job fails; the caller redoes it.
        signal.signal(signal.SIGINT, signal.SIG_IGN)
        self.conn.close()
        with contextlib.suppress(Exception):
            set_blas_threads(1)
            while True:
                conn.send(serve(conn.recv()))

    def call(self, job, own):
        """Send ``job`` and run ``own()`` on one OpenBLAS thread: its result and
        the reply, or None for it once the helper is gone, which stops it."""
        with contextlib.suppress(OSError):  # a gone helper fails at ``recv`` below
            self.conn.send(job)
        threads = set_blas_threads(1)
        try:
            mine = own()
        finally:
            set_blas_threads(threads)
        try:
            return mine, self.conn.recv()
        except (EOFError, OSError):
            self.stop()
            return mine, None

    def stop(self) -> None:
        self.conn.close()
        self.process.terminate()
        self.process.join()


def embed_rows(model: PretrainModel, vocab: Vocabulary,
               smiles: Iterable[str]) -> Iterator[np.ndarray]:
    """The x_cls row of each of the ``smiles`` strings, in order: the first
    line alone, so that its row is out as soon as it can be, then packs of
    ``EMBED_PACK``, each line read only when its pack needs it. When a line or
    a read fails, the rows before it come first, then its error. A
    ``_Helper``, if one starts at the first full pack, encodes half of each
    full pack; once a half meets a bad line or the helper is gone, the pack
    and those after it are encoded here."""
    source, size, helper, share = iter(smiles), 1, None, True

    def encode(half: list[str]) -> list[np.ndarray]:
        return list(_inline_rows(model, vocab, half))
    try:
        while True:
            lines: list[str] = []
            try:
                for line in islice(source, size):
                    lines.append(line)
            except Exception:
                yield from _inline_rows(model, vocab, lines)
                raise
            rows = None
            if share and len(lines) == EMBED_PACK:
                helper = helper or _Helper.start(encode)
                if helper:
                    theirs, ours = _halves(lines)
                    with contextlib.suppress(InputError):  # redone below, which raises it
                        mine, reply = helper.call([lines[i] for i in theirs],
                                                  lambda: encode([lines[i] for i in ours]))
                        if reply is not None:
                            rows = np.vstack(mine + reply)[np.argsort(ours + theirs)]
                share = rows is not None
            yield from _inline_rows(model, vocab, lines) if rows is None else rows
            if len(lines) < size:
                return
            size = EMBED_PACK
    finally:
        if helper:  # however the generator ends: exhausted, failed or closed
            helper.stop()


def embed_corpus(model: PretrainModel, vocab: Vocabulary,
                 corpus: Corpus) -> np.ndarray:
    """One x_cls row per molecule, in corpus order."""
    rows = embed_rows(model, vocab, (mol.smiles for mol in corpus.molecules))
    return np.array(list(rows)).reshape(-1, model.config.dim)


def similarity(model: PretrainModel, vocab: Vocabulary,
               smiles_a: str, smiles_b: str) -> float:
    """Cosine similarity of the two molecules' x_cls embeddings."""
    a, b = _inline_rows(model, vocab, [smiles_a, smiles_b])
    denom = np.linalg.norm(a) * np.linalg.norm(b)
    return float(a @ b / denom) if denom else 0.0


# ---------------------------------------------------------------- configuration

def parse_config_file(path: str | Path) -> dict[str, str]:
    """Read ``key = value`` lines; '#' starts a comment anywhere on a line;
    later keys win."""
    out: dict[str, str] = {}
    for _, raw in data_lines(path):
        line = raw.split("#", 1)[0].strip()
        if "=" not in line:
            raise ConfigError(f"config line without '=': {raw!r}")
        key, value = line.split("=", 1)
        out[key.strip()] = value.strip()
    return out
