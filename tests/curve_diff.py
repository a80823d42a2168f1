"""Record a seed-7 smoke pretraining and compare two recordings step by step.

A recording is a directory holding:

* ``history.tsv``: one line per optimizer step, the step and the five loss
  components and their total at full precision;
* ``embed_head.tsv``: the full-precision ``embed`` rows of the first
  ``EMBED_HEAD`` molecules of ``golden_500.smi`` under the final checkpoint;
* ``finetune.json``: what ``finetune nitro_task.tsv --seed 3`` reports from
  that checkpoint: its metrics at full precision, best epoch and split sizes;
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


def _openblas(suffix: str, restype, *argtypes):
    """numpy's bundled OpenBLAS function ``openblas_<suffix>``, under its
    scipy-openblas, 64-bit or plain name; None if there is none."""
    libs = Path(np.__file__).resolve().parent.parent / "numpy.libs"
    for lib in sorted(libs.glob("*openblas*")):
        for name in (f"scipy_openblas_{suffix}64_", f"openblas_{suffix}64_",
                     f"openblas_{suffix}"):
            function = getattr(ctypes.CDLL(str(lib)), name, None)
            if function is not None:
                function.restype, function.argtypes = restype, argtypes
                return function
    return None


def pin_blas_threads() -> None:
    """Run OpenBLAS on one thread: how many threads split a product decides
    its last bits, so a recording made on one core count is met on any."""
    set_threads = _openblas("set_num_threads", None, ctypes.c_int)
    if set_threads is not None:
        set_threads(1)


def _blas_runtime_config() -> str:
    """OpenBLAS's configuration as loaded, naming the kernel it picked for
    this CPU, and its thread count; the build's own string if the library
    cannot be asked."""
    query = _openblas("get_config", ctypes.c_char_p)
    threads = _openblas("get_num_threads", ctypes.c_int)
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
    """The ``embed`` rows of ``golden_500.smi`` and the metrics, best epoch
    and split sizes of ``finetune nitro_task.tsv --seed 3`` (the CLI's
    defaults otherwise), both run from the checkpoint ``ckpt`` on disk."""
    from chemfuse.pipeline import (SplitMode, TaskKind, embed_rows, finetune,
                                   load_pretrained, load_task, parse_molecule)

    from conftest import DATA_DIR, load_corpus_lines

    model, vocab, _, _ = load_pretrained(ckpt)
    rows = np.array(list(embed_rows(model, vocab, map(parse_molecule,
                                                      load_corpus_lines("golden_500.smi")))))
    task = load_task(DATA_DIR / "nitro_task.tsv", TaskKind.BINARY_CLASSIFICATION,
                     SplitMode.SCAFFOLD)
    result = finetune(model, vocab, task, seed=3, tune_encoder=True)
    return rows, {"metrics": result.metrics, "best_epoch": result.best_epoch,
                  "split_sizes": list(result.split_sizes)}


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
    from chemfuse.masking import MaskConfig, Strategy
    from chemfuse.pipeline import TrainConfig, ingest, pretrain

    from conftest import DATA_DIR
    from test_acceptance import SMOKE_MODEL

    corpus = ingest(DATA_DIR / "toy_200.smi")
    with tempfile.TemporaryDirectory() as ckpt:
        _, _, _, history = pretrain(
            corpus, MaskConfig(seed=7, strategy=Strategy(strategy)),
            TrainConfig(epochs=30, batch_size=16, seed=7),
            model_kwargs=dict(SMOKE_MODEL), checkpoint_dir=ckpt)
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
