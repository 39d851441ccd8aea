"""Retention's ingredients: decay priors, gamma schedules, gates and phases.

The decay matrix (RetNet's D) weights pairwise query/key scores by powers of
a factor gamma in (0,1), replacing softmax for causal token mixing. The
builders return it as a plain array with entries in [0, 1]: lower-triangular
for the causal and gated kinds, symmetric for the bidirectional kind, and an
(H, n, n) stack when built from one gamma per head. The same operator admits
an exactly equivalent recurrent form driven by a fixed-size state, which is
what makes constant-memory decoding possible; both forms are fusion kernels
(`retention_weights`, `retention_step`). Schedules assign a gamma per
(layer, head); the layer-wise schedule grows gamma with depth so shallow
layers stay local and deep layers integrate long-range context.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .tensor import Tensor, pow_const, rotate_pairs, sigmoid

GAMMA_STRATEGIES = ("original", "gated", "small_gamma", "headwise", "layerwise")

DEFAULT_GAMMA_SUBTRACTOR = 0.86
DEFAULT_GATE_TEMPERATURE = 16.0

_LOG_LO = np.log(1.0 / 32.0)
_LOG_HI = np.log(1.0 / 512.0)


def _check_gamma(gamma) -> np.ndarray:
    """One gamma, or an (H,) vector of them, shaped to broadcast against an
    (n, n) grid of exponents."""
    gamma = np.asarray(gamma, dtype=np.float64)
    if np.any(gamma <= 0.0) or np.any(gamma >= 1.0):
        raise ValueError(f"gamma must lie strictly inside (0, 1), got {gamma}")
    return gamma[..., None, None]


def build_decay(n: int, gamma) -> np.ndarray:
    """Causal decay: entry (i, j) = gamma^(i-j) for i >= j, zero above."""
    if n < 1:
        raise ValueError("sequence length must be at least 1")
    gamma = _check_gamma(gamma)
    idx = np.arange(n)
    power = idx[:, None] - idx[None, :]
    return np.tril(gamma ** np.maximum(power, 0))


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


def build_decay_bidirectional(n: int, gamma) -> np.ndarray:
    """Symmetric decay over index distance: entry (i, j) = gamma^|i-j|."""
    if n < 1:
        raise ValueError("sequence length must be at least 1")
    gamma = _check_gamma(gamma)
    idx = np.arange(n)
    return gamma ** np.abs(idx[:, None] - idx[None, :]).astype(np.float64)


# ---------------------------------------------------------------------------
# gamma schedules


def _head_log_spread(heads: int) -> np.ndarray:
    # single-point linspace keeps the first endpoint (largest-memory head)
    if heads == 1:
        return np.array([_LOG_LO])
    return np.linspace(_LOG_LO, _LOG_HI, heads)


@dataclass(frozen=True)
class GammaSchedule:
    """Per-(layer, head) decay factors under one of five strategies.

    `original` spreads gamma across heads only; `small_gamma` shifts every
    head down by gamma_subtractor; `headwise` interpolates between the small
    and large extremes across heads; `layerwise` fades the subtractor out
    with depth so the last layer equals `original` exactly. The `gated`
    strategy is data-dependent: its per-position values come from
    gate_gammas(), not from this table.
    """

    strategy: str
    layers: int
    heads: int
    gamma_subtractor: float = DEFAULT_GAMMA_SUBTRACTOR
    tau: float = DEFAULT_GATE_TEMPERATURE

    def __post_init__(self):
        if self.strategy not in GAMMA_STRATEGIES:
            raise ValueError(f"unknown gamma strategy {self.strategy!r}")
        if self.layers < 1 or self.heads < 1:
            raise ValueError("layers and heads must be at least 1")
        if not 0.0 < self.gamma_subtractor < 1.0:
            raise ValueError("gamma_subtractor must lie in (0, 1)")
        if not self.tau > 0.0:
            raise ValueError("gate temperature tau must be positive")

    def values(self) -> np.ndarray:
        """The (layers, heads) table, evaluated once per schedule; read-only."""
        return self._table

    @cached_property
    def _table(self) -> np.ndarray:
        table = gamma_schedule(self)
        table.flags.writeable = False
        return table

    def layer_values(self, layer: int) -> np.ndarray:
        if not 0 <= layer < self.layers:
            raise ValueError(f"layer index {layer} out of range")
        return self.values()[layer]


def gamma_schedule(cfg: GammaSchedule) -> np.ndarray:
    """Evaluate the schedule to a (layers, heads) array of gammas.

    Degenerate fractions are pinned at 1: a single layer is its own last
    layer, and a single head is its own last head.
    """
    L, H = cfg.layers, cfg.heads
    spread = np.exp(_head_log_spread(H))
    if cfg.strategy == "original":
        table = np.tile(1.0 - spread, (L, 1))
    elif cfg.strategy == "small_gamma":
        table = np.tile(1.0 - cfg.gamma_subtractor - spread, (L, 1))
    elif cfg.strategy == "headwise":
        frac = np.ones(H) if H == 1 else np.arange(H) / (H - 1)
        row = (1.0 - cfg.gamma_subtractor - 1.0 / 32.0) + frac * cfg.gamma_subtractor
        table = np.tile(row, (L, 1))
    elif cfg.strategy == "layerwise":
        frac = np.ones(L) if L == 1 else np.arange(L) / (L - 1)
        table = 1.0 - cfg.gamma_subtractor * (1.0 - frac)[:, None] - spread[None, :]
    elif cfg.strategy == "gated":
        raise ValueError(
            "the gated strategy is data-dependent; derive per-position values "
            "with gate_gammas() instead of a fixed schedule"
        )
    else:  # pragma: no cover - guarded by __post_init__
        raise ValueError(f"unknown gamma strategy {cfg.strategy!r}")
    if np.any(table <= 0.0) or np.any(table >= 1.0):
        raise ValueError(
            "schedule produced gamma outside (0, 1); lower gamma_subtractor"
        )
    return table


def gate_gammas(z: Tensor, tau: float = DEFAULT_GATE_TEMPERATURE) -> Tensor:
    """Data-dependent gates sigmoid(z)^(1/tau); z is the gate pre-activation
    x W_gamma. Larger tau pushes gates toward 1 (longer memory)."""
    if tau <= 0:
        raise ValueError("gate temperature must be positive")
    return pow_const(sigmoid(z), 1.0 / tau)


# ---------------------------------------------------------------------------
# phases


def default_theta(d: int) -> np.ndarray:
    """Per-pair angular frequencies 10000^(-2i/d) (standard rotary spacing)."""
    if d < 2 or d % 2 != 0:
        raise ValueError("phase rotation needs an even dimension of at least 2")
    return 10000.0 ** (-2.0 * np.arange(d // 2) / d)


@dataclass(frozen=True)
class PhaseConfig:
    """Per-position rotations applied to queries and keys, at the
    default_theta frequencies. Rotation by the token's own position makes
    scores depend only on relative offsets, and preserves vector norms
    exactly."""

    enabled: bool = True

    def angles(self, positions, d: int) -> np.ndarray:
        pos = np.asarray(positions, dtype=np.float64)
        return pos[:, None] * default_theta(d)[None, :]


def apply_phases(x: Tensor, positions, phases: PhaseConfig) -> Tensor:
    if not phases.enabled:
        return x
    return rotate_pairs(x, phases.angles(positions, x.shape[1]))

