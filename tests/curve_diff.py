"""Record a seed-7 smoke pretraining and compare two recordings step by step.

A recording is a directory holding:

* ``history.tsv``: one line per optimizer step, the step and the five loss
  components and their total at full precision;
* ``embed_head.tsv``: the full-precision ``embed`` rows of the first
  ``EMBED_HEAD`` molecules of ``golden_500.smi`` under the final checkpoint;
* ``finetune.json``: what ``finetune --seed 3`` reports from that checkpoint
  on ``nitro_task.tsv`` under ``--task cls`` and ``--task reg``, and on
  ``nitro_pairs.tsv`` under ``--task pair``: its metrics and the best
  epoch's validation loss at full precision, best epoch and split sizes;
* ``params.json``: the SHA-256 of the final ``params.bin`` and of all 500
  ``embed`` rows as little-endian float64, with the numpy and BLAS build
  that wrote them, the SIMD and BLAS kernels they chose on its CPU and the
  BLAS thread count.

The run is the acceptance suite's smoke configuration (``toy_200.smi``, 30
epochs, batch 16, seed 7), with OpenBLAS pinned to one thread::

    PYTHONPATH=src python tests/curve_diff.py --record OUT [--mask-strategy single]
    python tests/curve_diff.py OLD NEW

The comparison prints the largest absolute difference of each component,
the first step where any component differs by more than 1e-9, and whether
the checkpoints are byte-identical; it exits 1 if a step differs by more
than 1e-9. ``tests/data/smoke_reference`` is such a recording of the
default (CMM) strategy.
"""

from __future__ import annotations

import argparse
import contextlib
import ctypes
import hashlib
import json
import sys
import tempfile
from pathlib import Path

import numpy as np

COMPONENTS = ("l_t", "l_f", "l_fla", "l_sgm", "l_dkl", "total")
TOLERANCE = 1e-9
#: Molecules of ``golden_500.smi`` whose ``embed`` rows a recording keeps.
EMBED_HEAD = 64
#: The ``--task`` options a recording fine-tunes under, in ``finetune.json``'s
#: sorted order, and the task file of each. ``nitro_task.tsv``'s 8-molecule
#: test split reads ROC-AUC 1.0 under ``cls``; under ``reg`` the 0/1 labels are
#: numbers, so ``rmse`` and ``mse`` move with any change. ``nitro_pairs.tsv``
#: pairs its rows 2k and 2k+1 into a 3-class task, which reports accuracy.
FINETUNE_TASKS = {"cls": "nitro_task.tsv", "pair": "nitro_pairs.tsv",
                  "reg": "nitro_task.tsv"}


def pin_blas_threads() -> None:
    """Run OpenBLAS on one thread: how many threads split a product decides
    its last bits, so a recording made on one core count is met on any."""
    from chemfuse.nn.blas import set_blas_threads

    with contextlib.suppress(OSError):
        set_blas_threads(1)


def _blas_runtime_config() -> str:
    """OpenBLAS's configuration as loaded, naming the kernel it picked for
    this CPU, and its thread count; the build's own string if the library
    cannot be asked."""
    from chemfuse.nn.blas import openblas

    query = openblas("get_config", ctypes.c_char_p)
    threads = openblas("get_num_threads", ctypes.c_int)
    if query is None or threads is None:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        return str(blas.get("openblas configuration", ""))
    return f"{query().decode()} threads={threads()}"


def build_id() -> str:
    """The numpy version, BLAS build and the kernels and BLAS threads both
    use on this CPU, which decide a checkpoint's last bits."""
    from numpy._core._multiarray_umath import __cpu_dispatch__, __cpu_features__

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    simd = " ".join(t for t in __cpu_dispatch__ if __cpu_features__.get(t))
    return (f"numpy {np.__version__} (SIMD {simd or 'baseline'}), "
            f"{blas.get('name')} {blas.get('version')} "
            f"({' '.join(_blas_runtime_config().split())})")


def history_array(history) -> np.ndarray:
    """(steps x 6) array of the components of a list of ``LossReport``."""
    return np.array([[getattr(r, c) for c in COMPONENTS] for r in history])


def downstream(ckpt: Path) -> tuple[np.ndarray, dict]:
    """The ``embed`` rows of ``golden_500.smi``, and the metrics, best epoch,
    its validation loss and split sizes of ``finetune FILE --seed 3 --task
    T`` (the CLI's defaults otherwise) for each T and FILE of
    ``FINETUNE_TASKS``, all run from the checkpoint ``ckpt`` on disk."""
    from chemfuse.pipeline import (SplitMode, TaskKind, embed_rows, finetune,
                                   load_pretrained, load_task)

    from conftest import DATA_DIR, load_corpus_lines

    model, vocab, _, _ = load_pretrained(ckpt)
    rows = np.array(list(embed_rows(model, vocab, load_corpus_lines("golden_500.smi"))))
    tuned = {}
    for kind, name in FINETUNE_TASKS.items():
        if tuned:  # a fine-tune changes the encoder it tunes
            model, vocab, _, _ = load_pretrained(ckpt)
        task = load_task(DATA_DIR / name, TaskKind(kind), SplitMode.SCAFFOLD)
        result = finetune(model, vocab, task, seed=3, tune_encoder=True)
        tuned[kind] = {"metrics": result.metrics, "best_epoch": result.best_epoch,
                       "best_valid_loss": result.best_valid_loss,
                       "split_sizes": list(result.split_sizes)}
    return rows, tuned


def embed_sha256(rows: np.ndarray) -> str:
    return hashlib.sha256(np.ascontiguousarray(rows, dtype="<f8").tobytes()).hexdigest()


def write_recording(out: Path, history, ckpt: Path) -> None:
    out.mkdir(parents=True, exist_ok=True)
    lines = ["step\t" + "\t".join(COMPONENTS)]
    lines += [f"{step}\t" + "\t".join(repr(float(v)) for v in row)
              for step, row in enumerate(history_array(history))]
    (out / "history.tsv").write_text("\n".join(lines) + "\n")
    rows, tuned = downstream(ckpt)
    (out / "embed_head.tsv").write_text(
        "".join("\t".join(repr(float(v)) for v in row) + "\n" for row in rows[:EMBED_HEAD]))
    (out / "finetune.json").write_text(json.dumps(tuned, indent=1, sort_keys=True) + "\n")
    params = {"params_sha256": hashlib.sha256((ckpt / "params.bin").read_bytes()).hexdigest(),
              "embed_sha256": embed_sha256(rows), "build": build_id()}
    (out / "params.json").write_text(json.dumps(params, indent=1) + "\n")


def read_recording(path: Path) -> tuple[np.ndarray, dict]:
    """The (steps x 6) history and the ``params.json`` of a recording."""
    rows = (path / "history.tsv").read_text().splitlines()[1:]
    history = np.array([[float(v) for v in row.split("\t")[1:]] for row in rows])
    return history, json.loads((path / "params.json").read_text())


def read_downstream(path: Path) -> tuple[np.ndarray, dict]:
    """The ``embed_head.tsv`` rows and the ``finetune.json`` of a recording."""
    lines = (path / "embed_head.tsv").read_text().splitlines()
    rows = np.array([[float(v) for v in line.split("\t")] for line in lines])
    return rows, json.loads((path / "finetune.json").read_text())


def curve_diff(old: np.ndarray, new: np.ndarray) -> tuple[dict[str, float], int | None]:
    """Largest |new - old| per component, and the first step where any
    component differs by more than ``TOLERANCE`` (None if there is none)."""
    if old.shape != new.shape:
        raise ValueError(f"histories of shapes {old.shape} and {new.shape}")
    delta = np.abs(new - old)
    worst = {c: float(delta[:, i].max(initial=0.0)) for i, c in enumerate(COMPONENTS)}
    over = np.flatnonzero((delta > TOLERANCE).any(axis=1))
    return worst, int(over[0]) if over.size else None


def record(out: Path, strategy: str) -> None:
    from chemfuse.masking import Strategy

    from test_acceptance import smoke_pretrain

    with tempfile.TemporaryDirectory() as ckpt:
        _, (_, _, _, history) = smoke_pretrain(ckpt, Strategy(strategy))
        write_recording(out, history, Path(ckpt))


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("paths", nargs="*", type=Path, metavar="RECORDING")
    parser.add_argument("--record", type=Path, metavar="OUT")
    parser.add_argument("--mask-strategy", default="cmm")
    args = parser.parse_args(argv)
    if args.record is not None:
        pin_blas_threads()
        record(args.record, args.mask_strategy)
        return 0
    if len(args.paths) != 2:
        parser.error("give two recordings to compare, or --record OUT")
    (old, old_params), (new, new_params) = map(read_recording, args.paths)
    worst, first = curve_diff(old, new)
    print(f"{len(old)} steps; max |new - old| per component:")
    for name, value in worst.items():
        print(f"  {name:<6} {value:.3g}")
    print(f"first step over {TOLERANCE:g}: {'none' if first is None else first}")
    same = old_params["params_sha256"] == new_params["params_sha256"]
    print("params.bin: " + ("identical" if same else "differs (sha256 "
                            f"{old_params['params_sha256'][:12]} vs "
                            f"{new_params['params_sha256'][:12]})"))
    return 0 if first is None else 1


if __name__ == "__main__":
    sys.exit(main())
