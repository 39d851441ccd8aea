"""Fusion layer mixing softmax attention and retention over one sequence.

The sequence concatenates image tokens (first) and text tokens (second).
Scores against image keys go through a row-wise softmax, so any query can
align freely with the image; scores against text keys are weighted by a
causal decay mask whose zero rows also firewall image queries away from text
entirely. Because the image block is position-independent row by row, the
whole layer collapses to a constant-cost recurrence at decode time: a
fixed-size retention state per head plus one softmax over the precomputed
image keys/values.

Retention's two forms are two kernels: `retention_weights` (parallel: the
scaled scores times the decay) and `retention_step` (recurrent: decay the
state, add k^T v, read it out). The verification suite and the cost model
run them, and `softmax_mix`, as the model does.

Every parallel pass runs one batched core over (H, n, d_head) head stacks:
`mixing_weights` gives all heads' (H, N, N) weights for the multi-head
forward and for `armf_parallel` (H = 1); the attention twin shares its
`scaled_scores`, and the score maps read the weights the forward computed.
A pass may compute only the query rows from `first_row` on, while its keys
and values cover every row: the model's last layer feeds the head only
its text rows.

Decode steps (`marmf_recurrent_step`) run on plain float64 arrays through
the tensor module's forward kernels, so they record no tape and build no
gradient closures, and they advance the retention states in place. A step
forms k⊗v as one elementwise product, exact because each entry is a single
term, into a buffer the caller may reuse across steps, and counts it as the
one-term products it is. The image cache holds one (keys, values) pair of
plain (N_I, d) arrays per layer, each layer's image rows from the parallel
forward of an image-only sequence; a step reads `image_heads`' head-major
views of it, made once per decoded line.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .retention import (
    GammaSchedule,
    build_decay,
    build_decay_bidirectional,
    gamma_schedule,
    gate_gammas,
)
from .tensor import (
    Tensor,
    bmatmul,
    bmatmul_fwd,
    concat_cols,
    concat_rows,
    cumsum0,
    exp,
    log,
    matmul,
    matmul_fwd,
    mul,
    mul_const,
    normalize_rows,
    permute,
    register_matmul_cost,
    reshape,
    slice_cols,
    slice_rows,
    softmax_fwd,
    softmax_rows,
)

# none: plain softmax between image tokens; fixed: reweighted by a
# bidirectional decay whose per-head gamma is the depth-independent original
# schedule; layerwise: reweighted by the same gamma the head uses for text
IMAGE_PRIORS = ("none", "fixed", "layerwise")


@dataclass(frozen=True)
class FusionSequence:
    """Concatenated image+text token sequence with its partition point."""

    x: Tensor
    n_image: int
    n_text: int

    def __post_init__(self):
        if self.n_image < 1:
            raise ValueError("fusion needs at least one image token")
        if self.n_text < 0:
            raise ValueError("text token count cannot be negative")
        if self.x.shape[0] != self.n_image + self.n_text:
            raise ValueError(
                f"sequence rows {self.x.shape[0]} != {self.n_image} + {self.n_text}"
            )


@dataclass(frozen=True)
class ARMFProjections:
    """Query/key/value/output projection weights for one fusion layer."""

    wq: Tensor
    wk: Tensor
    wv: Tensor
    wo: Tensor


@dataclass(frozen=True)
class ARMFHeadConfig:
    """Static head layout for one fusion layer: width, head count, and how the
    image-to-image block is (optionally) reweighted by a bidirectional decay
    prior over token-index distance."""

    d_model: int
    heads: int
    image_prior: str = "none"

    def __post_init__(self):
        if self.heads < 1:
            raise ValueError("heads must be at least 1")
        if self.d_model % self.heads != 0:
            raise ValueError("d_model must be divisible by the head count")
        if self.image_prior not in IMAGE_PRIORS:
            raise ValueError(f"unknown image prior {self.image_prior!r}")

    @property
    def d_head(self) -> int:
        return self.d_model // self.heads


def build_armf_mask(n_image: int, n_text: int, gamma) -> np.ndarray:
    """Dependency weights over text keys, (N, N_T): zero rows for image
    queries, causal decay gamma^(i-j) for text queries, ones on the
    text-query diagonal. An (H,) vector of gammas gives an (H, N, N_T)
    stack."""
    if n_image < 1:
        raise ValueError("mask needs at least one image token")
    zeros = np.zeros(np.shape(gamma) + (n_image, n_text))
    if n_text == 0:
        return zeros
    return np.concatenate([zeros, build_decay(n_text, gamma)], axis=-2)


def split_heads(x: Tensor, heads: int) -> Tensor:
    """(n, H * d_head) rows to an (H, n, d_head) stack of head slices."""
    n, d = x.shape
    return permute(reshape(x, (n, heads, d // heads)), (1, 0, 2))


def merge_heads(x: Tensor) -> Tensor:
    """(H, n, d_head) head outputs back to (n, H * d_head) rows."""
    heads, n, d_head = x.shape
    return reshape(permute(x, (1, 0, 2)), (n, heads * d_head))


def scaled_scores(q: Tensor, k: Tensor) -> Tensor:
    """(H, M, N) scores of every head's M queries against its N keys, scaled
    by 1/sqrt(d_head)."""
    return mul_const(bmatmul(q, permute(k, (0, 2, 1))), 1.0 / np.sqrt(q.shape[2]))


def retention_weights(dots: Tensor, decay) -> Tensor:
    """Retention's parallel form: the (H, M, N) scaled scores times the
    decay, an array for fixed gammas or a tensor for gates. Times V, row i
    is the readout of `retention_step`'s state after token i."""
    return mul(dots, decay) if isinstance(decay, Tensor) else mul_const(dots, decay)


def query_rows(x: Tensor, first_row: int) -> Tensor:
    """Rows first_row..N of the (N, d) rows `x`: `x` itself from row 0, else
    a recorded slice."""
    return x if first_row == 0 else slice_rows(x, first_row, x.shape[0])


def _gated_text_decay(gates: Tensor, n_image: int) -> Tensor:
    """Differentiable (H, n_image + N_T, N_T) decay from (N_T, H)
    per-position gates: `n_image` zero image-query rows, then entry (i, j) =
    prod of gates j+1..i below the diagonal, built as exp of cumulative
    log-gate differences."""
    n, heads = gates.shape
    cum = reshape(permute(cumsum0(log(gates)), (1, 0)), (heads, n, 1))
    rows = bmatmul(cum, Tensor(np.ones((heads, 1, n))))  # row i holds cum[i]
    diff = rows - permute(rows, (0, 2, 1))  # cum[i] - cum[j]
    tril = np.tril(np.ones((n, n)))
    decay = mul_const(exp(mul_const(diff, tril)), tril)
    if n_image == 0:
        return decay
    return concat_rows([Tensor(np.zeros((heads, n_image, n))), decay])


def mixing_weights(q: Tensor, k: Tensor, n_image: int, decay,
                   prior_gamma=None) -> Tensor:
    """(H, M, N) fusion weights of every head for query rows first_row..N,
    first_row = N - M <= N_I, from (H, M, d_head) queries and (H, N, d_head)
    keys. Image keys: row-wise softmax of the scaled scores, whose
    image-query rows are optionally reweighted by the bidirectional prior
    built from one gamma per head, (H, N_I, N_I), and renormalized; with no
    image-query rows the prior is skipped. Text keys: the scaled scores times
    the (H, M, N_T) decay, an array for fixed gammas or a tensor for gates,
    whose image-query rows are zero."""
    dots = scaled_scores(q, k)
    m, n = dots.shape[1:]
    image_rows = n_image - (n - m)  # image queries among the M
    img = softmax_rows(slice_cols(dots, 0, n_image))
    if prior_gamma is not None and image_rows > 0:
        prior = build_decay_bidirectional(n_image, prior_gamma)[..., n - m:, :]
        img_rows = normalize_rows(mul_const(slice_rows(img, 0, image_rows),
                                            prior))
        img = img_rows if m == image_rows else concat_rows(
            [img_rows, slice_rows(img, image_rows, m)])
    if n == n_image:
        return img
    text = retention_weights(slice_cols(dots, n_image, n), decay)
    return concat_cols([img, text])


def armf_parallel(
    seq: FusionSequence,
    proj: ARMFProjections,
    gamma: float,
    prior_gamma: float | None = None,
) -> Tensor:
    """Single-head parallel fusion over the full width (no output projection):
    softmax(image scores) next to decay-masked text scores, times V."""
    q, k, v = (split_heads(matmul(seq.x, w), 1)
               for w in (proj.wq, proj.wk, proj.wv))
    weights = mixing_weights(q, k, seq.n_image,
                             build_armf_mask(seq.n_image, seq.n_text, gamma),
                             prior_gamma)
    return merge_heads(bmatmul(weights, v))


def marmf_forward(
    seq: FusionSequence,
    layer_index: int,
    schedule,
    proj: ARMFProjections,
    cfg: ARMFHeadConfig,
    gate_weights: Tensor | None = None,
    capture: list | None = None,
    first_row: int = 0,
    kv: list | None = None,
) -> Tensor:
    """Multi-head fusion: each head runs with its own scheduled gamma, heads
    are concatenated, and the result goes through the output projection.
    No group normalization and no gate follow the heads.

    Returns the output rows first_row..N (0 <= first_row <= N_I); keys and
    values still cover every row. With the gated schedule, per-position
    gates come from the text-token inputs through `gate_weights` instead of
    the fixed table. A `capture` list receives the (H, N - first_row, N)
    mixing weights and the (H, N_T, N_T) text decay of this pass, and a `kv`
    list the (N, d) key and value products, before the head split.
    """
    if not 0 <= layer_index < schedule.layers:
        raise ValueError(f"layer index {layer_index} out of range")
    if schedule.heads != cfg.heads:
        raise ValueError("schedule and head config disagree on head count")
    n_image, n = seq.n_image, seq.n_image + seq.n_text
    if not 0 <= first_row <= n_image:
        raise ValueError(f"first row {first_row} outside 0..{n_image}")
    # the query rows, then q, k and v, are recorded before the gates:
    # backward sums the input's gradient terms in tape order
    x_q = query_rows(seq.x, first_row)
    q, k, v = (matmul(x, w) for x, w in
               ((x_q, proj.wq), (seq.x, proj.wk), (seq.x, proj.wv)))
    if kv is not None:
        kv.append((k.data, v.data))
    q, k, v = (split_heads(t, cfg.heads) for t in (q, k, v))
    image_rows = n_image - first_row  # zero rows of the text decay
    if schedule.strategy == "gated":
        if gate_weights is None:
            raise ValueError("gated schedule requires gate weights")
        if cfg.image_prior != "none":
            raise ValueError("the image prior needs a fixed-gamma schedule")
        decay = np.zeros((cfg.heads, image_rows, 0))
        if seq.n_text > 0:
            gates = gate_gammas(matmul(slice_rows(seq.x, n_image, n),
                                       gate_weights), schedule.tau)
            decay = _gated_text_decay(gates, image_rows)
    else:
        decay = build_armf_mask(n_image, seq.n_text,
                                schedule.layer_values(layer_index))
        decay = decay[..., first_row:, :]
    weights = mixing_weights(q, k, n_image, decay,
                             image_prior_gammas(cfg, schedule, layer_index))
    if capture is not None:
        text_decay = decay.data if isinstance(decay, Tensor) else decay
        capture.append((weights.data, text_decay[:, image_rows:]))
    return matmul(merge_heads(bmatmul(weights, v)), proj.wo)


def image_prior_gammas(cfg: ARMFHeadConfig, schedule, layer_index: int):
    """Per-head gammas for the bidirectional image prior, or None."""
    if cfg.image_prior == "none":
        return None
    if cfg.image_prior == "fixed":
        return gamma_schedule(GammaSchedule("original", 1, cfg.heads))[0]
    return schedule.layer_values(layer_index)


# ---------------------------------------------------------------------------
# recurrent form


def softmax_mix(q: np.ndarray, k_t: np.ndarray, v: np.ndarray) -> np.ndarray:
    """Softmax attention on plain arrays: (b, m, d_head) queries against
    (b, d_head, n) keys, the row softmax of the scaled scores times the
    (b, n, d_head) values."""
    weights = softmax_fwd(bmatmul_fwd(q, k_t) * (1.0 / math.sqrt(q.shape[2])))
    return bmatmul_fwd(weights, v)


def image_heads(keys: np.ndarray, values: np.ndarray, heads: int) -> tuple:
    """One layer's cached (N_I, d) image keys and values as the head-major
    operands of `image_term`: (H, d_head, N_I) keys and (H, N_I, d_head)
    values. They are strided views, not copies: BLAS rounds the scores of a
    contiguous head-major copy differently."""
    n, d = keys.shape
    split = (n, heads, d // heads)
    return (keys.reshape(split).transpose(1, 2, 0),
            values.reshape(split).transpose(1, 0, 2))


def image_term(q: np.ndarray, image: tuple) -> np.ndarray:
    """Every lane's `softmax_mix` over one layer's head-major image keys and
    values (`image_heads`): (lanes, d) queries in, (lanes, d) head outputs
    out."""
    k_t, v = image
    lanes, d = q.shape
    heads, dh = k_t.shape[:2]
    out = softmax_mix(q.reshape(lanes, heads, dh).transpose(1, 0, 2), k_t, v)
    return out.transpose(1, 0, 2).reshape(lanes, d)


def retention_step(s, q, k, v, decay, outer=None):
    """Retention's recurrent form, one token for every lane and head at once.
    `s` holds the (lanes, H, d_head, d_head) states, which this step advances
    in place (s *= decay; s += k^T v), q/k/v the (lanes, d) projected rows;
    `decay` is one gamma, (H, 1, 1) per head or (lanes, H, 1, 1) per lane.
    k^T v is one elementwise product (an einsum with no summed index) into
    `outer`, a new array if None, and is registered as the lanes * H
    one-term (d_head, 1) x (1, d_head) products it is.
    Returns the (lanes, d) readouts of the scaled queries."""
    lanes, heads, dh, _ = s.shape
    register_matmul_cost(lanes * heads * dh, 1, dh)
    outer = np.einsum("lhi,lhj->lhij", k.reshape(lanes, heads, dh),
                      v.reshape(lanes, heads, dh), out=outer)
    s *= decay
    s += outer
    o_text = bmatmul_fwd((q * (1.0 / math.sqrt(dh))).reshape(-1, 1, dh),
                         s.reshape(-1, dh, dh))
    return o_text.reshape(lanes, -1)


def marmf_recurrent_step(
    state: np.ndarray,
    image: tuple,
    x: np.ndarray,
    proj: ARMFProjections,
    cfg: ARMFHeadConfig,
    decay: np.ndarray,
    outer: np.ndarray | None = None,
) -> tuple[np.ndarray, np.ndarray]:
    """Multi-head recurrent fusion step for a batch of decode lanes: `x`
    holds one (lanes, d) input row per lane and `state` their
    (lanes, H, d_head, d_head) retention states, which the step advances in
    place. `image` holds the layer's head-major image keys and values
    (`image_heads`). `decay` scales the states: one gamma per head as an
    (H, 1, 1) array, or per lane and head as (lanes, H, 1, 1), for
    data-dependent gates already evaluated at this position. `outer`, if
    given, is a (lanes, H, d_head, d_head) buffer the step may overwrite.
    Returns the (lanes, d) output and the advanced states."""
    if state.shape[1:] != (cfg.heads, cfg.d_head, cfg.d_head):
        raise ValueError(f"state shape {state.shape} does not match the heads")
    q, k, v = (matmul_fwd(x, w.data) for w in (proj.wq, proj.wk, proj.wv))
    merged = retention_step(state, q, k, v, decay, outer)
    merged += image_term(q, image)
    return matmul_fwd(merged, proj.wo.data), state
