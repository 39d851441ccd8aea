"""Per-layer score-map dumps: how text positions weight their context.

For a retention model each (layer, head) dump holds the decay-masked text
scores (N_T x N_T) plus the decay matrix itself; for the attention twin it
holds the joint softmax rows of the text queries over all keys (N_T x N),
which sum to one. Both are slices of the mixing weights and decay that the
model's forward pass computed and captured, not a recomputation. Every matrix
is written as CSV and as an 8-bit PGM heatmap normalized to the matrix's own
min/max range.
"""

from __future__ import annotations

import os

import numpy as np

from .data import write_pgm
from .model import Model
from .tensor import Tensor


def collect_maps(model: Model, image: Tensor, input_ids) -> list:
    """Per-layer, per-head score (and decay) matrices for one sample."""
    captured: list = []
    model.forward(image, input_ids, train=None, capture=captured)
    n_text = np.asarray(input_ids).size
    layers = []
    for weights, decay in captured:
        text_rows = weights[:, -n_text:]
        if decay is None:
            layers.append([{"scores": w, "decay": None} for w in text_rows])
        else:
            layers.append([{"scores": w[:, -n_text:], "decay": d}
                           for w, d in zip(text_rows, decay)])
    return layers


def _write_matrix(out_dir: str, name: str, matrix: np.ndarray) -> None:
    np.savetxt(os.path.join(out_dir, name + ".csv"), matrix, delimiter=",")
    lo, hi = matrix.min(), matrix.max()
    span = hi - lo if hi > lo else 1.0
    write_pgm(os.path.join(out_dir, name + ".pgm"), (matrix - lo) / span)


def dump_maps(model: Model, image: Tensor, input_ids, out_dir: str) -> list:
    """Write scores_l{layer}_h{head} (and decay_ for retention) files; returns
    the collected matrices for programmatic checks."""
    os.makedirs(out_dir, exist_ok=True)
    layers = collect_maps(model, image, input_ids)
    for li, heads in enumerate(layers):
        for hi, entry in enumerate(heads):
            _write_matrix(out_dir, f"scores_l{li}_h{hi}", entry["scores"])
            if entry["decay"] is not None:
                _write_matrix(out_dir, f"decay_l{li}_h{hi}", entry["decay"])
    return layers
