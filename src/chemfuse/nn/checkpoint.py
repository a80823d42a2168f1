"""Checkpoint format: a JSON manifest plus one little-endian float64 blob.

A checkpoint is a directory holding ``manifest.json`` (tensor names, shapes
and byte offsets, the blob's byte length and CRC-32, a config echo, the
seed, and the step count) and ``params.bin``. Serialization is canonical
(sorted keys, no timestamps) so identical training runs produce
byte-identical checkpoints.
"""

from __future__ import annotations

import contextlib
import json
import math
import os
import zlib
from pathlib import Path

import numpy as np

from ..errors import InputError
from .tensor import Parameter

FORMAT_TAG = "chemfuse-checkpoint-v1"


def save_checkpoint(path: str | Path, params: dict[str, Parameter],
                    config: dict, seed: int, step: int) -> None:
    """Write both files to temporary siblings, then ``os.replace`` each
    into place, so a failed write leaves the previous checkpoint as it was.
    An ``OSError`` is raised with no temporary file left behind.

    ``params.bin`` is replaced first. A crash between the two renames leaves
    the new blob beside the old manifest, whose length and CRC-32 refuse it.
    A CRC-32 is enough to tell a new blob from an old one, and ``hashlib``
    would load OpenSSL: 3.4 MB more peak RSS in every process."""
    out = Path(path)
    out.mkdir(parents=True, exist_ok=True)
    entries = []
    blob = bytearray()
    for name in sorted(params):
        arr = np.ascontiguousarray(params[name].data, dtype="<f8")
        entries.append({
            "name": name,
            "shape": list(arr.shape),
            "offset": len(blob),
        })
        blob.extend(arr.tobytes())
    manifest = {
        "format": FORMAT_TAG,
        "seed": seed,
        "step": step,
        "config": config,
        "tensors": entries,
        "params_bytes": len(blob),
        "params_crc32": zlib.crc32(blob),
    }
    files = {"params.bin": bytes(blob),
             "manifest.json": (json.dumps(manifest, sort_keys=True, indent=1)
                               + "\n").encode()}
    temps = {name: out / f".{name}.tmp" for name in files}
    try:
        for name, data in files.items():
            temps[name].write_bytes(data)
        for name, temp in temps.items():
            os.replace(temp, out / name)
    except OSError:
        for temp in temps.values():
            with contextlib.suppress(OSError):  # keep the error being raised
                temp.unlink()
        raise


class CheckpointCorrupt(InputError):
    """A checkpoint's manifest and blob do not describe the same tensors."""


def load_checkpoint(path: str | Path) -> tuple[dict, dict[str, np.ndarray]]:
    """Read a checkpoint; the blob must have the manifest's length and
    CRC-32, and the manifest's tensors must tile it exactly, in order, with
    no gap, overlap or trailing bytes."""
    root = Path(path)
    try:
        manifest = json.loads((root / "manifest.json").read_text(encoding="utf-8"))
        blob = (root / "params.bin").read_bytes()
    except (OSError, ValueError) as exc:  # ValueError covers JSON and UTF-8 errors
        raise CheckpointCorrupt(f"unreadable checkpoint {path}: {exc}") from exc
    if not isinstance(manifest, dict) or manifest.get("format") != FORMAT_TAG:
        raise CheckpointCorrupt(f"not a {FORMAT_TAG} checkpoint: {path}")
    if (manifest.get("params_bytes") != len(blob)
            or manifest.get("params_crc32") != zlib.crc32(blob)):
        raise CheckpointCorrupt(
            f"params.bin in {path} does not match its manifest's length and CRC-32")
    try:
        entries = [(e["name"], tuple(e["shape"]), int(e["offset"]))
                   for e in manifest["tensors"]]
    except (KeyError, TypeError, ValueError) as exc:
        raise CheckpointCorrupt(f"malformed tensor entry in {path}: {exc!r}") from exc
    tensors: dict[str, np.ndarray] = {}
    end = 0
    for name, shape, start in entries:
        # JSON integers only (bool is an int subclass), sized in Python ints,
        # which numpy's int64 product would overflow.
        if not (isinstance(name, str)
                and all(type(d) is int and d >= 0 for d in shape)):
            raise CheckpointCorrupt(
                f"malformed tensor entry in {path}: name {name!r}, shape {list(shape)!r}")
        if start != end:
            raise CheckpointCorrupt(
                f"tensor {name!r} starts at byte {start}, expected {end}")
        end = start + math.prod(shape) * 8
        if end > len(blob):
            raise CheckpointCorrupt(
                f"tensor {name!r} overruns the {len(blob)}-byte blob")
        tensors[name] = np.frombuffer(blob[start:end], dtype="<f8").reshape(shape).copy()
    if end != len(blob):
        raise CheckpointCorrupt(f"{len(blob) - end} bytes after the last tensor")
    return manifest, tensors

