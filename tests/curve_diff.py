"""Record a seed-7 smoke pretraining and compare two recordings step by step.

A recording is a directory with ``history.tsv``, one line per optimizer
step holding the step and the five loss components and their total at
full precision, and ``params.json``, the SHA-256 of the final
``params.bin`` with the numpy and BLAS build that wrote it and the SIMD
and BLAS kernels they chose on its CPU. The run is the
acceptance suite's smoke configuration (``toy_200.smi``, 30 epochs,
batch 16, seed 7)::

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


def _blas_runtime_config() -> str:
    """OpenBLAS's configuration as loaded, naming the kernel it picked for
    this CPU; the build's own string if the library cannot be asked."""
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    libs = Path(np.__file__).resolve().parent.parent / "numpy.libs"
    for lib in sorted(libs.glob("*openblas*")):
        for name in ("scipy_openblas_get_config64_", "openblas_get_config64_",
                     "openblas_get_config"):
            query = getattr(ctypes.CDLL(str(lib)), name, None)
            if query is not None:
                query.restype = ctypes.c_char_p
                return query().decode()
    return str(blas.get("openblas configuration", ""))


def build_id() -> str:
    """The numpy version, BLAS build and the kernels both use on this CPU,
    which decide a checkpoint's last bits."""
    from numpy._core._multiarray_umath import __cpu_dispatch__, __cpu_features__

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    simd = " ".join(t for t in __cpu_dispatch__ if __cpu_features__.get(t))
    return (f"numpy {np.__version__} (SIMD {simd or 'baseline'}), "
            f"{blas.get('name')} {blas.get('version')} "
            f"({' '.join(_blas_runtime_config().split())})")


def history_array(history) -> np.ndarray:
    """(steps x 6) array of the components of a list of ``LossReport``."""
    return np.array([[getattr(r, c) for c in COMPONENTS] for r in history])


def write_recording(out: Path, history, params_bin: Path) -> None:
    out.mkdir(parents=True, exist_ok=True)
    lines = ["step\t" + "\t".join(COMPONENTS)]
    lines += [f"{step}\t" + "\t".join(repr(float(v)) for v in row)
              for step, row in enumerate(history_array(history))]
    (out / "history.tsv").write_text("\n".join(lines) + "\n")
    params = {"params_sha256": hashlib.sha256(params_bin.read_bytes()).hexdigest(),
              "build": build_id()}
    (out / "params.json").write_text(json.dumps(params, indent=1) + "\n")


def read_recording(path: Path) -> tuple[np.ndarray, dict]:
    """The (steps x 6) history and the ``params.json`` of a recording."""
    rows = (path / "history.tsv").read_text().splitlines()[1:]
    history = np.array([[float(v) for v in row.split("\t")[1:]] for row in rows])
    return history, json.loads((path / "params.json").read_text())


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
        write_recording(out, history, Path(ckpt) / "params.bin")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("paths", nargs="*", type=Path, metavar="RECORDING")
    parser.add_argument("--record", type=Path, metavar="OUT")
    parser.add_argument("--mask-strategy", default="cmm")
    args = parser.parse_args(argv)
    if args.record is not None:
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
