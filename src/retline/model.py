"""Line-recognition decoder: embedders, mixer blocks, vocabulary head, loss.

One Model class covers both variants. With mixer="retention" every block runs
the fusion layer (softmax against image keys, decay-weighted retention
between text tokens), which is what admits constant-memory recurrent
decoding. With mixer="attention" the block is a conventional multi-head
softmax attention over the concatenated sequence (image queries restricted
to image keys, text queries to image plus causal text keys) and decoding
must carry a growing key/value cache. Both variants share identical
parameter names and shapes, so they are directly comparable. One
channels-last CNN, three `tensor.conv` + GELU stages, embeds the image for
training and decoding alike; a decode builds its image cache
(`Model.build_image_cache`) with no tape, as one (keys, values) pair of
plain arrays per layer. `Model.check_image` says whether a line fits the
model before any of that work.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .data import EOS_ID, PAD_ID, SOS_ID
from .fusion import (
    ARMFHeadConfig,
    ARMFProjections,
    FusionSequence,
    IMAGE_PRIORS,
    image_term,
    marmf_forward,
    marmf_recurrent_step,
    merge_heads,
    query_rows,
    scaled_scores,
    softmax_mix,
    split_heads,
)
from .retention import GAMMA_STRATEGIES, GammaSchedule, gate_gammas
from .tensor import (
    Tensor,
    add,
    bmatmul,
    bmatmul_fwd,
    concat_rows,
    conv,
    dropout,
    embedding_rows,
    gelu,
    gelu_fwd,
    layer_norm,
    layer_norm_fwd,
    log_softmax_rows,
    masked_softmax_rows,
    matmul,
    matmul_fwd,
    mul_const,
    no_tape,
    permute,
    reshape,
    slice_rows,
    sum_all,
)

MIXERS = ("retention", "attention")

_CNN_STRIDES = ((2, 1), (2, 2), (2, 2))  # stage 1 keeps full width resolution
_CNN_KERNEL = 5
_CNN_PAD = 2
_HEIGHT_DIVISOR = 8  # product of the height strides


@dataclass(frozen=True)
class ModelConfig:
    vocab_size: int
    max_text_len: int
    layers: int = 2
    heads: int = 4
    d_model: int = 64
    d_ff: int = 256
    mixer: str = "retention"
    gamma_strategy: str = "layerwise"
    gamma_subtractor: float = 0.86
    tau: float = 16.0
    image_prior: str = "none"
    dropout_mix: float = 0.3
    dropout_embed: float = 0.1
    height: int = 32
    cnn_channels: tuple = (8, 16, 16)
    max_image_tokens: int = 512

    def __post_init__(self):
        if self.vocab_size < 4:
            raise ValueError("vocabulary needs at least one character plus specials")
        if self.heads < 1:
            raise ValueError("heads must be at least 1")
        if self.d_model < 1 or self.d_ff < 1:
            raise ValueError("d_model and d_ff must be at least 1")
        if self.d_model % self.heads != 0:
            raise ValueError("d_model must be divisible by the head count")
        if self.mixer not in MIXERS:
            raise ValueError(f"unknown mixer {self.mixer!r}")
        if self.gamma_strategy not in GAMMA_STRATEGIES:
            raise ValueError(f"unknown gamma strategy {self.gamma_strategy!r}")
        if self.image_prior not in IMAGE_PRIORS:
            raise ValueError(f"unknown image prior {self.image_prior!r}")
        if self.height % _HEIGHT_DIVISOR != 0:
            raise ValueError(
                f"line height must be divisible by {_HEIGHT_DIVISOR}"
            )
        if len(self.cnn_channels) != 3:
            raise ValueError("the image embedder has exactly three stages")
        if min(self.cnn_channels) < 1:
            raise ValueError("every image embedder stage needs a channel")
        if self.max_text_len < 3:
            raise ValueError("max_text_len must fit SOS, one token, and EOS")
        for name in ("dropout_mix", "dropout_embed"):
            rate = getattr(self, name)
            if type(rate) not in (int, float) or not 0.0 <= rate < 1.0:
                raise ValueError(f"{name} must be a real number in [0, 1), "
                                 f"got {rate!r}")

    @property
    def d_head(self) -> int:
        return self.d_model // self.heads


@dataclass
class TrainContext:
    """Carries the dropout stream; absent context means eval (deterministic)."""

    rng: np.random.Generator


def _f32(arr: np.ndarray) -> np.ndarray:
    # parameters live as float64 values that are exactly float32-representable,
    # so the float32 checkpoint blob round-trips bitwise
    return arr.astype(np.float32).astype(np.float64)


def _normal(std: float):
    return lambda rng, shape: rng.normal(0.0, std, shape)


def _uniform(bound: float):
    return lambda rng, shape: rng.uniform(-bound, bound, shape)


def _const(value: float):
    return lambda rng, shape: np.full(shape, value)


def parameter_specs(cfg: ModelConfig):
    """(name, shape, init) of every parameter, in the order the random
    initialization draws them; `init(rng, shape)` gives initial values."""
    zeros, ones = _const(0.0), _const(1.0)
    c_in = 1
    for stage, c_out in enumerate(cfg.cnn_channels):
        fan_in = c_in * _CNN_KERNEL * _CNN_KERNEL
        yield f"cnn{stage}_w", (fan_in, c_out), _normal(np.sqrt(2.0 / fan_in))
        yield f"cnn{stage}_b", (c_out,), zeros
        c_in = c_out
    d, dff = cfg.d_model, cfg.d_ff
    feat = cfg.cnn_channels[-1] * (cfg.height // _HEIGHT_DIVISOR)
    yield "img_proj_w", (feat, d), _normal(1.0 / np.sqrt(feat))
    yield "img_proj_b", (d,), zeros
    yield "img_pos", (cfg.max_image_tokens, d), _uniform(0.02)
    yield "char_embed", (cfg.vocab_size, d), _normal(0.02)
    for i in range(cfg.layers):
        pre = f"layer{i}."
        for w in ("wq", "wk", "wv", "wo"):
            yield pre + w, (d, d), _normal(1.0 / np.sqrt(d))
        if cfg.mixer == "retention" and cfg.gamma_strategy == "gated":
            yield pre + "w_gamma", (d, cfg.heads), _normal(1.0 / np.sqrt(d))
        yield pre + "ln1_gain", (d,), ones
        yield pre + "ln1_bias", (d,), zeros
        yield pre + "ln2_gain", (d,), ones
        yield pre + "ln2_bias", (d,), zeros
        yield pre + "pff_w1", (d, dff), _normal(np.sqrt(2.0 / d))
        yield pre + "pff_b1", (dff,), zeros
        yield pre + "pff_w2", (dff, d), _normal(1.0 / np.sqrt(dff))
        yield pre + "pff_b2", (d,), zeros
    yield "head_w", (d, cfg.vocab_size), _normal(1.0 / np.sqrt(d))
    yield "head_b", (cfg.vocab_size,), zeros


def attention_allow(n_image: int, n_text: int) -> np.ndarray:
    """(N, N) keys each query of the attention mixer may see: every query the
    image keys, a text query also the text keys up to its own position."""
    allow = np.tri(n_image + n_text, dtype=bool)
    allow[:, :n_image] = True
    return allow


def sinusoidal_positions(length: int, d_model: int, first: int = 0) -> np.ndarray:
    """PE(pos, 2i) = sin(pos / 10000^(2i/d)), PE(pos, 2i+1) = cos(same), from pos = first."""
    pos = np.arange(first, first + length)[:, None]
    i = np.arange(0, d_model, 2)[None, :]
    angle = pos / (10000.0 ** (i / d_model))
    pe = np.zeros((length, d_model))
    pe[:, 0::2] = np.sin(angle)
    pe[:, 1::2] = np.cos(angle[:, : d_model // 2])
    return pe


class DecoderLayer:
    """One block: token mixer, then position-wise feed-forward, each wrapped
    as sublayer -> residual add -> layer norm."""

    def __init__(self, model: "Model", index: int):
        # no back-reference to the model: a model <-> layer cycle would keep
        # every discarded model alive until a full garbage collection
        self.config = model.config
        self.schedule = model.schedule
        self.index = index
        cfg = model.config
        p = model.params
        pre = f"layer{index}."
        self.projections = ARMFProjections(
            wq=p[pre + "wq"], wk=p[pre + "wk"], wv=p[pre + "wv"], wo=p[pre + "wo"]
        )
        self.head_cfg = ARMFHeadConfig(
            d_model=cfg.d_model, heads=cfg.heads, image_prior=cfg.image_prior
        )
        self.gate_weights = p.get(pre + "w_gamma")
        self.ln = {k: p[pre + k] for k in
                   ("ln1_gain", "ln1_bias", "ln2_gain", "ln2_bias")}
        self.pff = {k: p[pre + k] for k in ("pff_w1", "pff_b1", "pff_w2", "pff_b2")}
        if cfg.mixer == "retention" and cfg.gamma_strategy != "gated":
            # decode steps' fixed decay, from the frozen schedule: per head,
            # shaped to scale (lanes, H, d_head, d_head) states, and a table
            # of powers gamma^(n-1) .. gamma^0 for the kv backend's text keys
            gammas = self.schedule.layer_values(index)
            self._state_decay = gammas[:, None, None]
            self._text_powers = np.empty((cfg.heads, 0))

    # --- parallel (training) path

    def forward(self, seq: FusionSequence, train: TrainContext | None,
                capture: list | None = None, first_row: int = 0,
                kv: list | None = None) -> Tensor:
        """Block output rows first_row..N (0 <= first_row <= N_I); keys and
        values still cover every row. A `kv` list receives the mixer's (N, d)
        key and value products."""
        if self.config.mixer == "retention":
            mixed = marmf_forward(
                seq, self.index, self.schedule, self.projections,
                self.head_cfg, gate_weights=self.gate_weights, capture=capture,
                first_row=first_row, kv=kv,
            )
        else:
            mixed = self._attention_mix(seq, capture, first_row, kv)
        n = seq.x.shape[0]
        if train is not None:
            mixed = dropout(mixed, self.config.dropout_mix, train.rng, rows=n)
        # a slice of its own, recorded after the mixer's, so backward sums
        # the input's gradient terms in the full-row pass's order
        return self._post(query_rows(seq.x, first_row), mixed, train, n)

    def _attention_mix(self, seq: FusionSequence, capture: list | None,
                       first_row: int, kv: list | None) -> Tensor:
        x_q = query_rows(seq.x, first_row)
        proj = self.projections
        q, k, v = (matmul(x, w) for x, w in
                   ((x_q, proj.wq), (seq.x, proj.wk), (seq.x, proj.wv)))
        if kv is not None:
            kv.append((k.data, v.data))
        q, k, v = (split_heads(t, self.config.heads) for t in (q, k, v))
        allow = attention_allow(seq.n_image, seq.n_text)[first_row:]
        weights = masked_softmax_rows(scaled_scores(q, k), allow)
        if capture is not None:
            capture.append((weights.data, None))
        return matmul(merge_heads(bmatmul(weights, v)), proj.wo)

    def _post(self, x: Tensor, mixed: Tensor, train: TrainContext | None,
              rows: int) -> Tensor:
        """Residual, layer norm, feed-forward, residual, layer norm over the
        last rows of a `rows`-row block, for which dropout draws its masks."""
        cfg = self.config
        y = layer_norm(add(x, mixed), self.ln["ln1_gain"], self.ln["ln1_bias"])
        hidden = gelu(add(matmul(y, self.pff["pff_w1"]), self.pff["pff_b1"]))
        if train is not None:
            hidden = dropout(hidden, cfg.dropout_mix, train.rng, rows=rows)
        ff = add(matmul(hidden, self.pff["pff_w2"]), self.pff["pff_b2"])
        return layer_norm(add(y, ff), self.ln["ln2_gain"], self.ln["ln2_bias"])

    # --- decode paths: one (lanes, d) array row per live beam lane, through
    # the tensor forward kernels (no tape, no dropout)

    def step_gates(self, x: np.ndarray) -> np.ndarray:
        """The gated strategy's per-head decay factors for one decode step,
        one row per lane: (lanes, H)."""
        z = Tensor._wrap(matmul_fwd(x, self.gate_weights.data), False)
        return gate_gammas(z, self.config.tau).data

    def _text_decay(self, t: int) -> np.ndarray:
        """(H, t) decay gamma^(t-1) .. gamma^0 of a fixed schedule over t
        text keys: the last t columns of the table of powers, which grows
        on demand."""
        n = self._text_powers.shape[1]
        if t > n:
            n = max(2 * n, t)
            gammas = self.schedule.layer_values(self.index)
            self._text_powers = gammas[:, None] ** np.arange(
                n - 1, -1, -1, dtype=np.float64)
        return self._text_powers[:, n - t:]

    def _post_step(self, x: np.ndarray, mixed: np.ndarray) -> np.ndarray:
        """`_post` for decode steps: residual, layer norm, feed-forward,
        residual, layer norm. Overwrites `mixed`; the sums run in place on
        the step's own temporaries."""
        ln, pff = self.ln, self.pff
        mixed += x
        y = layer_norm_fwd(mixed, ln["ln1_gain"].data, ln["ln1_bias"].data)[0]
        hidden = matmul_fwd(y, pff["pff_w1"].data)
        hidden += pff["pff_b1"].data
        ff = matmul_fwd(gelu_fwd(hidden)[0], pff["pff_w2"].data)
        ff += pff["pff_b2"].data
        ff += y
        return layer_norm_fwd(ff, ln["ln2_gain"].data, ln["ln2_bias"].data)[0]

    def step_recurrent(self, x: np.ndarray, state: np.ndarray, image: tuple,
                       outer: np.ndarray) -> np.ndarray:
        """Recurrent step (retention mixer only) over the lanes'
        (lanes, H, d_head, d_head) states, which it advances in place;
        `image` holds the layer's head-major image keys and values and
        `outer` a k⊗v buffer as `marmf_recurrent_step` takes them. Returns
        the block output."""
        if self.config.gamma_strategy == "gated":
            decay = self.step_gates(x)[:, :, None, None]
        else:
            decay = self._state_decay
        mixed, _ = marmf_recurrent_step(state, image, x, self.projections,
                                        self.head_cfg, decay, outer)
        return self._post_step(x, mixed)

    def step_kv(self, x: np.ndarray, keys, values, image: tuple,
                gate_logs=None):
        """One step (either mixer) against the lanes' cached text history:
        (lanes, H, t, d_head) keys and values, None before the first step,
        and under the gated strategy the (lanes, H, t) cumulative log-gates;
        `image` holds the layer's head-major image keys and values
        (`fusion.image_heads`). Returns the block output and the histories
        grown by this position, each in a freshly allocated array."""
        cfg = self.config
        lanes, heads, dh = x.shape[0], cfg.heads, cfg.d_head
        proj = self.projections
        q = matmul_fwd(x, proj.wq.data)
        k_new = matmul_fwd(x, proj.wk.data).reshape(lanes, heads, 1, dh)
        v_new = matmul_fwd(x, proj.wv.data).reshape(lanes, heads, 1, dh)
        if keys is not None:
            k_new = np.concatenate([keys, k_new], axis=2)
            v_new = np.concatenate([values, v_new], axis=2)
        keys, values = k_new, v_new
        t = keys.shape[2]
        q_rows = q.reshape(-1, 1, dh)
        if cfg.mixer == "retention":
            if cfg.gamma_strategy == "gated":
                # product-form decay: weight(m) = exp(L_t - L_m) over the
                # cumulative log-gate sums L
                step_logs = np.log(self.step_gates(x))[:, :, None]
                gate_logs = (step_logs if gate_logs is None else np.concatenate(
                    [gate_logs, gate_logs[:, :, -1:] + step_logs], axis=2))
                decay = np.exp(gate_logs[:, :, -1:] - gate_logs)
            else:
                decay = self._text_decay(t)
            dots = bmatmul_fwd(q_rows, keys.reshape(-1, t, dh).transpose(0, 2, 1))
            decayed = dots.reshape(lanes, heads, t)
            decayed *= 1.0 / math.sqrt(dh)
            decayed *= decay
            merged = bmatmul_fwd(decayed.reshape(-1, 1, t),
                                 values.reshape(-1, t, dh)).reshape(lanes, -1)
            merged += image_term(q, image)
        else:
            k_t, v_img = image

            def with_image(img, text):
                img = np.broadcast_to(img, (lanes,) + img.shape)
                return np.concatenate([img, text], axis=2).reshape(
                    lanes * heads, -1, dh)

            merged = softmax_mix(q_rows,
                                 with_image(k_t.transpose(0, 2, 1),
                                            keys).transpose(0, 2, 1),
                                 with_image(v_img, values)).reshape(lanes, -1)
        mixed = matmul_fwd(merged, proj.wo.data)
        return self._post_step(x, mixed), keys, values, gate_logs


class Model:
    """Decoder over a fused image+text token sequence."""

    def __init__(self, config: ModelConfig, seed: int = 0, values=None):
        """Parameters are drawn from `seed`, unless `values` is given: then
        each parameter is `values(name, shape)`, a float64 array of that
        shape whose values are float32-representable (a checkpoint's), and
        nothing is drawn."""
        self.config = config
        if values is None:
            rng = np.random.default_rng(np.random.SeedSequence(entropy=[seed, 2]))
        self.params: dict[str, Tensor] = {
            name: Tensor(_f32(init(rng, shape)) if values is None
                         else values(name, shape), requires_grad=True)
            for name, shape, init in parameter_specs(config)}
        # the config is frozen, so the table this schedule caches never goes
        # stale
        self.schedule = GammaSchedule(config.gamma_strategy, config.layers,
                                      config.heads, config.gamma_subtractor,
                                      config.tau)
        if config.mixer == "retention" and config.gamma_strategy != "gated":
            # fail fast if the schedule is infeasible for this depth/width
            self.schedule.values()
        self.layers = [DecoderLayer(self, i) for i in range(config.layers)]
        # decode steps' position rows, grown past max_text_len on demand
        self._positions = sinusoidal_positions(config.max_text_len,
                                               config.d_model)

    # --- embedders

    def image_token_count(self, width: int) -> int:
        w = width
        for _, sw in _CNN_STRIDES:
            w = (w - 1) // sw + 1
        return w

    def check_image(self, shape: tuple) -> None:
        """Raise a ValueError unless an image of this shape fits the model:
        a (1, h, w) grayscale line of the configured height whose width
        yields at most max_image_tokens tokens."""
        cfg = self.config
        if len(shape) != 3 or shape[0] != 1:
            raise ValueError("expected a (1, h, w) grayscale image")
        if shape[1] != cfg.height:
            raise ValueError(f"image height {shape[1]} != configured "
                             f"{cfg.height}")
        tokens = self.image_token_count(shape[2])
        if tokens > cfg.max_image_tokens:
            raise ValueError(f"image yields {tokens} tokens, above "
                             f"max_image_tokens={cfg.max_image_tokens}")

    def embed_image(self, image: Tensor, train: TrainContext | None = None) -> Tensor:
        """(columns, d_model) image tokens: one per column of the CNN's last
        feature map, projected to model width, with learned positions added.
        The CNN is three `conv` + GELU stages on channels-last (h, w, c)
        maps, each stage's output the next one's input."""
        self.check_image(image.shape)
        x = reshape(image, image.shape[1:] + (1,))
        for stage in range(3):
            x = gelu(conv(x, self.params[f"cnn{stage}_w"],
                          self.params[f"cnn{stage}_b"], _CNN_KERNEL,
                          _CNN_STRIDES[stage], _CNN_PAD))
        hv, wv, c = x.shape
        # one token per column, its features ordered (channel, row)
        folded = reshape(permute(x, (1, 2, 0)), (wv, c * hv))
        tokens = add(matmul(folded, self.params["img_proj_w"]),
                     self.params["img_proj_b"])
        tokens = add(tokens, slice_rows(self.params["img_pos"], 0, wv))
        if train is not None:
            tokens = dropout(tokens, self.config.dropout_embed, train.rng)
        return tokens

    def embed_text(self, ids, train: TrainContext | None = None) -> Tensor:
        """(len, d_model) character embeddings plus sinusoidal positions."""
        ids = np.asarray(ids, dtype=np.int64)
        if ids.ndim != 1:
            raise ValueError("expected a flat id sequence")
        if ids.size and ids.max() >= self.config.vocab_size:
            raise ValueError("token id out of vocabulary range")
        emb = embedding_rows(self.params["char_embed"], ids)
        pe = sinusoidal_positions(ids.size, self.config.d_model)
        tokens = add(emb, Tensor._wrap(pe, False))
        if train is not None:
            tokens = dropout(tokens, self.config.dropout_embed, train.rng)
        return tokens

    def embed_text_step(self, token_ids, position: int) -> np.ndarray:
        """One (lanes, d) row per lane's token, all at the same position.
        The ids are taken as given: a decode step's tokens are ids that the
        search drew from the vocabulary itself."""
        if position >= len(self._positions):
            size = max(2 * len(self._positions), position + 1)
            self._positions = sinusoidal_positions(size, self.config.d_model)
        emb = self.params["char_embed"].data[token_ids]
        emb += self._positions[position]
        return emb

    # --- forward passes

    def forward(self, image: Tensor, input_ids,
                train: TrainContext | None = None,
                capture: list | None = None) -> Tensor:
        """Teacher-forced logits over the text positions, shape (N_T, vocab).
        The last layer computes only the text rows, which are all the head
        reads, except under `capture` or for a single text token: a
        one-row product takes another BLAS path, so it keeps every row to
        stay bitwise equal to the full pass. A `capture` list receives, per
        layer, the (H, N, N) mixing weights and the (H, N_T, N_T) text decay
        (None for the attention mixer)."""
        ids = np.asarray(input_ids, dtype=np.int64)
        if ids.size == 0:
            raise ValueError("training forward needs at least one text token")
        img = self.embed_image(image, train)
        x = concat_rows([img, self.embed_text(ids, train)])
        n_image, n_text = img.shape[0], ids.size
        last_first = n_image if capture is None and n_text > 1 else 0
        for layer in self.layers:
            first_row = last_first if layer is self.layers[-1] else 0
            x = layer.forward(FusionSequence(x, n_image, n_text), train,
                              capture, first_row)
        if x.shape[0] > n_text:
            x = slice_rows(x, n_image, n_image + n_text)
        return add(matmul(x, self.params["head_w"]), self.params["head_b"])

    def build_image_cache(self, image: Tensor) -> tuple:
        """Per-layer (keys, values) of the (N_I, d) image rows, computed once
        before decoding, with no tape, and shared read-only by every decode
        lane. Each layer's image rows come from the previous layer's forward
        of an image-only sequence (text rows cannot influence them), which
        hands back the keys and values it computed; only the last layer's
        are projected here."""
        cache = []
        with no_tape():
            x = self.embed_image(image)
            for layer in self.layers[:-1]:
                x = layer.forward(FusionSequence(x, x.shape[0], 0), train=None,
                                  kv=cache)
            proj = self.layers[-1].projections
            cache.append((matmul_fwd(x.data, proj.wk.data),
                          matmul_fwd(x.data, proj.wv.data)))
        return tuple(cache)

    def head_logits(self, x: np.ndarray) -> np.ndarray:
        """(lanes, vocab) logits for (lanes, d) rows."""
        logits = matmul_fwd(x, self.params["head_w"].data)
        logits += self.params["head_b"].data
        return logits


def training_loss(logits: Tensor, targets, epsilon: float = 0.4) -> Tensor:
    """Label-smoothed cross-entropy over non-PAD positions, averaged.

    Targets are the inputs shifted by one (position t predicts token t+1);
    image positions never reach this loss.
    """
    targets = np.asarray(targets, dtype=np.int64)
    n, v = logits.shape
    if targets.shape != (n,):
        raise ValueError("targets must align with logits rows")
    if not 0.0 <= epsilon < 1.0:
        raise ValueError("label smoothing must lie in [0, 1)")
    if targets.min() < 0 or targets.max() >= v:
        raise ValueError("target id out of vocabulary range")
    mask = targets != PAD_ID
    valid = int(mask.sum())
    if valid == 0:
        raise ValueError("loss undefined: every target position is PAD")
    smooth = np.full((n, v), epsilon / v)
    smooth[np.arange(n), targets] += 1.0 - epsilon
    logp = log_softmax_rows(logits)
    per_pos = mul_const(logp, -smooth / valid)
    return sum_all(mul_const(per_pos, mask[:, None]))


def teacher_pair(tokens: np.ndarray) -> tuple:
    """Split a padded [SOS, chars..., EOS, PAD...] row into teacher-forced
    inputs and next-token targets, trimmed at EOS."""
    tokens = np.asarray(tokens, dtype=np.int64)
    eos_positions = np.flatnonzero(tokens == EOS_ID)
    if tokens.size < 2 or tokens[0] != SOS_ID or eos_positions.size == 0:
        raise ValueError("token row must start with SOS and contain EOS")
    end = int(eos_positions[0])
    return tokens[:end], tokens[1:end + 1]
