"""Command-line interface: one subcommand per pipeline capability.

All subcommands stream line-oriented data on stdout and keep diagnostics
on stderr, so they compose in shell pipelines. Exit codes: 0 success,
1 input error, 2 internal error. Flags override config-file values.
"""

from __future__ import annotations

import argparse
import math
import sys
import warnings
from types import SimpleNamespace

import numpy as np

from .chem import TokenKind, tokenize, write_smiles
from .chem.tokenizer import unsupported
from .encoder import LayerOutOfRange, ModelConfig
from .errors import ConfigError, InputError
from .features import (check_fingerprint_shape, group_names_present, morgan_fingerprint,
                        murcko_scaffold)
from .masking import (MaskConfig, Strategy, build_context_vocab, context_keys,
                       sample_fragment_mask, sample_token_mask)
from .metrics import concordance_index, mse, rmse, roc_auc
from .nn import no_grad
from .pipeline import (
    ParsedMolecule,
    SplitMode,
    TaskKind,
    TrainConfig,
    build_vocabulary,
    data_lines,
    embed_rows,
    finetune,
    ingest,
    load_pretrained,
    load_task,
    parse_config_file,
    parse_molecule,
    pretrain,
    similarity,
)


def _smiles_column(path: str | None):
    """The first tab-separated field of each data line of ``path`` or stdin."""
    return (line.split("\t")[0] for _, line in data_lines(path))


# ----------------------------------------------------------------- subcommands

def cmd_tokenize(args) -> int:
    for smiles in _smiles_column(args.input):
        seq = tokenize(smiles)
        for token in seq.tokens:
            if token.kind is TokenKind.OTHER:
                raise unsupported(token)
        print(" ".join(seq.texts))
    return 0


def cmd_per_molecule(args) -> int:
    """Print ``args.line(args, molecule)`` for each input molecule."""
    for smiles in _smiles_column(args.input):
        print(args.line(args, parse_molecule(smiles)))
    return 0


def _parse_line(args, mol: ParsedMolecule) -> str:
    atoms = ",".join(a.element.lower() if a.aromatic else a.element for a in mol.graph.atoms)
    bonds = ",".join(f"{b.a}-{b.b}:{b.order.value}" for b in mol.graph.bonds)
    return f"{mol.graph.m}\t{len(mol.graph.bonds)}\t{atoms}\t{bonds}"


def _fragment_line(args, mol: ParsedMolecule) -> str:
    fmap = mol.fragment_map
    return "\t".join([str(fmap.K), ",".join(map(str, fmap.l_g)), ",".join(map(str, fmap.l_s))])


def _fingerprint_line(args, mol: ParsedMolecule) -> str:
    bits = morgan_fingerprint([mol.graph], radius=args.radius, width=args.width)
    return np.packbits(bits[0]).tobytes().hex()


def cmd_fingerprint(args) -> int:
    check_fingerprint_shape(args.radius, args.width)
    return cmd_per_molecule(args)


#: Settings a flag or a config line may give, with the cast for config values.
TRAIN_KEYS = {"epochs": int, "batch_size": int, "lr": float, "warmup_steps": int,
              "weight_decay": float, "seed": int}
FINETUNE_KEYS = {k: TRAIN_KEYS[k] for k in ("epochs", "batch_size", "lr",
                                             "weight_decay", "seed")}
MODEL_KEYS = {"dim": int, "transformer_layers": int, "heads": int, "gnn_layers": int,
              "gnn_width": int, "max_positions": int, "fingerprint_width": int}
MASK_KEYS = {"r_t": float, "r_f": float}


def _settings(args, cfg: dict, keys: dict) -> dict:
    """For each of ``keys``, the flag when given, else the cast config value;
    a key set by neither is left out, so the library's default applies."""
    out = {}
    for key, cast in keys.items():
        flag = getattr(args, key, None)
        if flag is not None:
            out[key] = flag
        elif key in cfg:
            try:
                out[key] = cast(cfg[key])
            except ValueError as exc:
                raise ConfigError(f"config {key} = {cfg[key]!r}: {exc}") from exc
    return out


def _config_file(args) -> dict:
    """The ``--config`` file's lines, or none. One file serves both ``pretrain``
    and ``finetune``, so each accepts the other's keys; any other key exits 1."""
    cfg = parse_config_file(args.config) if args.config else {}
    unknown = [key for key in cfg if key not in TRAIN_KEYS | MODEL_KEYS | MASK_KEYS]
    if unknown:
        raise ConfigError(f"unknown config key {unknown[0]!r} in {args.config}")
    return cfg


def cmd_mask(args) -> int:
    cfg = MaskConfig(**_settings(args, {}, MASK_KEYS | {"seed": int}))
    molecules = [parse_molecule(s) for s in _smiles_column(args.input)]
    if not molecules:
        raise InputError("no molecules to mask")
    vocab = build_vocabulary(m.tokens for m in molecules)
    context_vocab = build_context_vocab(m.graph for m in molecules)
    for idx, mol in enumerate(molecules):
        # The samplers read only these four fields of a training record.
        sample = SimpleNamespace(token_ids=vocab.ids_for(mol.tokens.texts), graph=mol.graph,
                                 context_ids=context_vocab.ids_for(context_keys(mol.graph)),
                                 fragment_map=mol.fragment_map)
        rng = np.random.default_rng([cfg.seed, idx])
        tok = sample_token_mask(sample, cfg, rng)
        frag = sample_fragment_mask(sample, cfg, rng)
        print(f"{mol.smiles}\ttoken_mask={list(tok.masked_token_positions)}"
              f"\tatom_mask={list(tok.masked_atom_positions)}"
              f"\ttoken_targets={tok.token_targets}"
              f"\tfragment_ids={list(frag.masked_fragment_ids)}"
              f"\tfragment_modality={frag.masked_modality.value}")
    return 0


def cmd_pretrain(args) -> int:
    cfg = _config_file(args)
    train_cfg = TrainConfig(**_settings(args, cfg, TRAIN_KEYS))
    model_kwargs = _settings(args, cfg, MODEL_KEYS)
    # Checked with the smallest vocabularies before any input is read.
    ModelConfig(vocab_size=3, context_vocab_size=1, **model_kwargs)
    mask_cfg = MaskConfig(**_settings(args, cfg, MASK_KEYS),
                          strategy=Strategy(args.mask_strategy), seed=train_cfg.seed)
    corpus = ingest(args.input)
    print(f"ingested {len(corpus)} molecules ({corpus.skipped} skipped)",
          file=sys.stderr)
    _, _, _, history = pretrain(
        corpus, mask_cfg, train_cfg, model_kwargs=model_kwargs,
        checkpoint_dir=args.checkpoint, log_sink=sys.stdout)
    print(f"checkpoint written to {args.checkpoint} "
          f"({len(history)} steps)", file=sys.stderr)
    return 0


def cmd_finetune(args) -> int:
    cfg = _config_file(args)
    settings = _settings(args, cfg, FINETUNE_KEYS)
    model, vocab, _, _ = load_pretrained(args.checkpoint)
    task = load_task(args.input, TaskKind(args.task), SplitMode(args.split))
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        result = finetune(model, vocab, task, tune_encoder=not args.freeze_encoder,
                          **settings)
    for warning in caught:
        print(f"warning: {warning.message}", file=sys.stderr)
    sizes = result.split_sizes
    print(f"split sizes train/valid/test = {sizes[0]}/{sizes[1]}/{sizes[2]}; "
          f"best epoch {result.best_epoch}", file=sys.stderr)
    for name in sorted(result.metrics):
        print(f"{name}\t{result.metrics[name]:.6f}")
    return 0


def cmd_embed(args) -> int:
    model, vocab, _, _ = load_pretrained(args.checkpoint)
    molecules = (parse_molecule(smiles) for smiles in _smiles_column(args.input))
    for row in embed_rows(model, vocab, molecules):
        print("\t".join(f"{v:.6f}" for v in row))
    return 0


def cmd_similarity(args) -> int:
    model, vocab, _, _ = load_pretrained(args.checkpoint)
    print(f"{similarity(model, vocab, args.smiles_a, args.smiles_b):.6f}")
    return 0


def cmd_attn_dump(args) -> int:
    model, vocab, _, _ = load_pretrained(args.checkpoint)
    for smiles in _smiles_column(args.input):
        mol = parse_molecule(smiles)
        with no_grad():
            encoding = model.encoder.encode(
                [vocab.ids_for(mol.tokens.texts)], [mol.graph], retain_attention=True)
        layers = encoding.attention
        if not 0 <= args.layer < len(layers):
            raise LayerOutOfRange(f"layer {args.layer} outside [0, {len(layers)})")
        mats = np.stack(layers[args.layer])
        names = mol.tokens.texts + \
            [f"atom{i}:{a.element}" for i, a in enumerate(mol.graph.atoms)]
        frag = list(mol.fragment_map.l_s) + list(mol.fragment_map.l_g)
        print(f"# molecule {mol.smiles} layer {args.layer} "
              f"heads {mats.shape[0]} positions {mats.shape[1]}")
        print("# position\tname\tfragment")
        for i, (name, lab) in enumerate(zip(names, frag)):
            print(f"# {i}\t{name}\t{lab}")
        for head in range(mats.shape[0]):
            print(f"# head {head}")
            for row in mats[head]:
                # 12 decimals keep the emitted row sums within 1e-9 of one.
                print("\t".join(f"{v:.12f}" for v in row))
    return 0


def cmd_metrics(args) -> int:
    rows = []
    source = args.input or "<stdin>"
    for lineno, line in data_lines(args.input):
        try:
            row = tuple(float(v) for v in line.split("\t")[:2])
        except ValueError:
            row = ()
        if len(row) != 2 or not all(math.isfinite(v) for v in row):
            raise InputError(f"{source}:{lineno}: expected a finite score and "
                             f"a finite label separated by a tab, got {line!r}")
        if args.task == "cls" and row[1] not in (0.0, 1.0):
            raise InputError(f"{source}:{lineno}: label is not 0 or 1, got {line!r}")
        rows.append(row)
    if not rows:
        raise InputError("no rows for metrics")
    preds, truths = zip(*rows)
    if args.task == "cls":
        results = {"roc_auc": roc_auc(preds, truths)}
    else:
        results = {"rmse": rmse(preds, truths), "mse": mse(preds, truths),
                   "ci": concordance_index(preds, truths)}
    for name, value in results.items():
        print(f"{name}\t{value:.6f}")
    return 0


# ----------------------------------------------------------------- arg parsing

def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="chemfuse",
        description="joint SMILES/graph molecular encoder toolkit")
    sub = parser.add_subparsers(dest="command", required=True)

    def add(name, fn, **kwargs):
        p = sub.add_parser(name, **kwargs)
        p.set_defaults(fn=fn)
        return p

    p = add("tokenize", cmd_tokenize, help="space-joined tokens per molecule")
    p.add_argument("input", nargs="?", help="SMILES file (default stdin)")
    for name, line, desc in (
        ("parse", _parse_line, "atom/bond summary per molecule"),
        ("fragment", _fragment_line, "K, atom labels, token labels per molecule"),
        ("groups", lambda args, mol: ",".join(group_names_present(mol.graph)),
         "functional groups present per molecule"),
        ("scaffold", lambda args, mol: write_smiles(murcko_scaffold(mol.graph)),
         "scaffold SMILES per molecule"),
    ):
        p = add(name, cmd_per_molecule, help=desc)
        p.set_defaults(line=line)
        p.add_argument("input", nargs="?", help="SMILES file (default stdin)")

    p = add("fingerprint", cmd_fingerprint, help="hex fingerprint per molecule")
    p.set_defaults(line=_fingerprint_line)
    p.add_argument("input", nargs="?")
    p.add_argument("--radius", type=int, default=2)
    p.add_argument("--width", type=int, default=2048)

    p = add("mask", cmd_mask, help="readable masked-sample dump")
    p.add_argument("input", nargs="?")
    p.add_argument("--seed", type=int)
    p.add_argument("--r-t", dest="r_t", type=float)
    p.add_argument("--r-f", dest="r_f", type=float)

    p = add("pretrain", cmd_pretrain, help="run the pretraining loop")
    p.add_argument("input")
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--config")
    p.add_argument("--seed", type=int)
    p.add_argument("--epochs", type=int)
    p.add_argument("--batch-size", type=int)
    p.add_argument("--lr", type=float)
    p.add_argument("--warmup", dest="warmup_steps", type=int)
    p.add_argument("--mask-strategy", choices=[s.value for s in Strategy],
                   default=MaskConfig.strategy.value)

    p = add("finetune", cmd_finetune, help="train a task head on x_cls")
    p.add_argument("input")
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--config")
    p.add_argument("--task", choices=[k.value for k in TaskKind], default="cls")
    p.add_argument("--split", choices=[s.value for s in SplitMode],
                   default="scaffold")
    p.add_argument("--seed", type=int)
    p.add_argument("--epochs", type=int)
    p.add_argument("--batch-size", type=int)
    p.add_argument("--lr", type=float)
    p.add_argument("--freeze-encoder", action="store_true")

    p = add("embed", cmd_embed, help="x_cls vector per molecule")
    p.add_argument("input", nargs="?")
    p.add_argument("--checkpoint", required=True)

    p = add("similarity", cmd_similarity, help="cosine of two molecules")
    p.add_argument("smiles_a")
    p.add_argument("smiles_b")
    p.add_argument("--checkpoint", required=True)

    p = add("attn-dump", cmd_attn_dump, help="annotated attention matrices")
    p.add_argument("input", nargs="?")
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--layer", type=int, default=0)

    p = add("metrics", cmd_metrics, help="metrics from score/label TSV")
    p.add_argument("input", nargs="?")
    p.add_argument("--task", choices=["cls", "reg"], default="cls")

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        # argparse exits 2 on usage errors; the contract reserves 2 for
        # internal failures, so bad flags map to 1 (usage already printed).
        return 0 if exc.code == 0 else 1
    try:
        return args.fn(args)
    except InputError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except BrokenPipeError:
        # Downstream closed the pipe (e.g. head); silence the final flush.
        import os
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 0
    except Exception as exc:  # internal failure contract
        print(f"internal error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
