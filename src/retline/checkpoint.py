"""Checkpoint IO: a JSON manifest plus a little-endian float32 blob.

`<name>.json` holds the model config and a tensor directory mapping each
parameter name to its shape and byte offset; `<name>.bin` holds the raw
values. Parameters are float32-representable by construction, so a save/load
round trip reproduces every value bitwise.
"""

from __future__ import annotations

import json
import os
from dataclasses import asdict

import numpy as np

from .model import Model, ModelConfig, parameter_specs

_DTYPE = "<f4"


def save_checkpoint(model: Model, path_prefix: str) -> None:
    directory = os.path.dirname(os.path.abspath(path_prefix))
    os.makedirs(directory, exist_ok=True)
    tensors, offset = {}, 0
    chunks = []
    for name, t in model.params.items():
        raw = t.data.astype(_DTYPE).tobytes()
        tensors[name] = {
            "shape": list(t.shape),
            "offset": offset,
            "dtype": "float32",
        }
        chunks.append(raw)
        offset += len(raw)
    config = asdict(model.config)
    config["cnn_channels"] = list(config["cnn_channels"])
    manifest = {"config": config, "tensors": tensors, "blob_bytes": offset}
    with open(path_prefix + ".json", "w", encoding="utf-8") as fh:
        json.dump(manifest, fh, indent=2, sort_keys=True)
    with open(path_prefix + ".bin", "wb") as fh:
        fh.write(b"".join(chunks))


def load_checkpoint(path_prefix: str) -> Model:
    """The model, its parameters read straight from the blob (no random
    initialization is drawn) once every tensor's byte range, taken from the
    manifest's shapes and offsets, is checked to tile the blob. A malformed
    manifest or blob, or ranges that do not tile it, raises ValueError
    naming the checkpoint."""
    try:
        with open(path_prefix + ".json", "r", encoding="utf-8") as fh:
            manifest = json.load(fh)
        with open(path_prefix + ".bin", "rb") as fh:
            raw = fh.read()
        for key in ("config", "tensors"):
            if not isinstance(manifest[key], dict):
                raise ValueError(f"{key!r} is not a JSON object")
        if len(raw) != manifest["blob_bytes"]:
            raise ValueError(
                f"blob is {len(raw)} bytes, manifest expects {manifest['blob_bytes']}"
            )
        cfg_dict = dict(manifest["config"])
        cfg_dict["cnn_channels"] = tuple(cfg_dict["cnn_channels"])
        config = ModelConfig(**cfg_dict)
        spans = []  # (start, end, name) of every tensor the model reads
        for name, shape, _ in parameter_specs(config):
            entry = manifest["tensors"].get(name)
            if entry is None:
                raise ValueError(f"missing tensor {name!r}")
            stored = tuple(entry["shape"])
            if stored != shape:
                raise ValueError(
                    f"tensor {name!r} has shape {stored} in the checkpoint, "
                    f"model expects {shape}"
                )
            start = entry["offset"]
            if type(start) is not int:
                raise ValueError(f"tensor {name!r} has offset {start!r}, "
                                 "not an integer")
            end = start + 4 * int(np.prod(shape))
            if end > len(raw):
                raise ValueError(f"blob truncated while reading tensor {name!r}")
            spans.append((start, end, name))
        end = 0  # sorted by start, the ranges must tile the blob
        for start, stop, name in sorted(spans):
            if start != end:
                raise ValueError(f"tensor {name!r} starts at byte {start}, not "
                                 f"{end}: the tensors must tile the blob")
            end = stop
        if end != len(raw):
            raise ValueError(f"tensors end at byte {end}, the blob at {len(raw)}")
        offsets = {name: start for start, _, name in spans}
        model = Model(config, values=lambda name, shape: np.frombuffer(
            raw, _DTYPE, int(np.prod(shape)), offsets[name]
        ).astype(np.float64).reshape(shape))
    except (KeyError, TypeError, ValueError) as exc:
        raise ValueError(f"checkpoint {path_prefix}: {type(exc).__name__}: {exc}") from exc
    return model
