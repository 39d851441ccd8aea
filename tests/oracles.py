"""Numpy reference forms that tests compare the library against; no model
path calls them."""

import numpy as np


def build_decay_gated(gammas) -> np.ndarray:
    """Product-form decay from per-position gates: entry (i, j) multiplies the
    gates of positions j+1 .. i, evaluated as exp(L_i - L_j) over the
    cumulative log-gates L. Gates are typically sigmoid(x W)^(1/tau)."""
    g = np.asarray(gammas, dtype=np.float64)
    if g.ndim != 1 or g.size < 1:
        raise ValueError("gates must be a nonempty vector")
    if np.any(g <= 0.0) or np.any(g >= 1.0):
        raise ValueError("every gate must lie strictly inside (0, 1)")
    cum = np.cumsum(np.log(g))
    tril = np.tril(np.ones((g.size, g.size)))
    return np.exp((cum[:, None] - cum[None, :]) * tril) * tril


def sub_diagonal_mass(matrix: np.ndarray) -> float:
    """Sum of absolute values strictly below the diagonal."""
    return float(np.abs(np.tril(matrix, k=-1)).sum())
