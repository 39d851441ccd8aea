"""Beam-search decoding over two memory disciplines; `beam_search` is the
one way to decode a line, greedy at beam 1.

The recurrent backend carries a fixed-size retention state per (layer, head)
for every live hypothesis, so its per-step cost and live element count never
change as the transcript grows. The kv backend carries the growing per-layer
text key/value history instead, reallocating it on every append; its
per-step cost and footprint grow with decoded length. Either way the live
lanes are stacked on a leading axis and advance together, one batched call
per step.
Both compute exactly the same next-token distributions for a retention
model, which is what the cross-backend equivalence checks exploit. The
attention twin only supports the kv backend (softmax over text history has
no recurrent form).

The image cache, one (keys, values) pair of plain float64 arrays per layer,
is built before the first step with no tape; the steps read its head-major
views (`image_cache`). A step runs on plain float64 arrays through the
tensor module's forward kernels: it records no tape, whatever tape is
active, and registers the counts of the Tensor primitives.
The recurrent backend advances each lane's state in place, which is safe
because decode owns every state array: a search allocates its state
buffers, and one k⊗v buffer that every layer's step overwrites in turn,
once for `beam` lanes, and `reindex` gathers the lanes into a second set of
buffers and swaps the two. The kv backend's `reindex` gathers fresh copies.
Either backend's state gathers (reindexes) its lanes by parent whenever beam
pruning moves hypotheses; when pruning keeps every lane in its place, always
so at beam 1, the gather is skipped.

Stats rows record, per step: scalar multiply/add counts from the tensor
instrumentation and the live state elements held by all lanes.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .data import EOS_ID, PAD_ID, SOS_ID
from .fusion import image_heads
from .model import Model
from .tensor import OpCounter, Tensor, count_ops, log_softmax_fwd

BACKENDS = ("recurrent", "kv")

STATS_COLUMNS = ("step", "backend", "beam", "mults", "adds", "live_elements")


def _checked_parents(parent_indices, lanes: int) -> np.ndarray:
    parents = np.asarray(parent_indices, dtype=np.intp)
    # a beam's few indices are bounded faster as a list than by reductions
    listed = parents.tolist()
    if min(listed) < 0 or max(listed) >= lanes:
        bad = next(p for p in listed if p < 0 or p >= lanes)
        raise ValueError(f"parent index {bad} out of range for {lanes} lanes")
    return parents


@dataclass
class RecurrentDecodeState:
    """Retention states of every live lane: one (lanes, H, d_head, d_head)
    array per layer. A lane holds layers * heads * d_head^2 elements,
    independent of decoded length. The states are the leading rows of
    per-layer `buffers`; `reindex` gathers into the `spare` buffers and
    swaps the two sets, and `outer` is the k⊗v buffer every layer's step
    overwrites in turn. `fresh` allocates them all, once, for the most
    lanes the states will hold."""

    states: list
    buffers: list
    spare: list
    outer: np.ndarray

    @classmethod
    def fresh(cls, config, lanes: int = 1) -> "RecurrentDecodeState":
        """One lane of zero states, in buffers for `lanes` lanes."""
        shape = (lanes, config.heads, config.d_head, config.d_head)
        buffers = [np.zeros(shape) for _ in range(config.layers)]
        return cls(states=[b[:1] for b in buffers], buffers=buffers,
                   spare=[np.empty(shape) for _ in range(config.layers)],
                   outer=np.empty(shape))

    def live_elements(self) -> int:
        return len(self.states) * self.states[0].size

    def reindex(self, parents) -> "RecurrentDecodeState":
        """Gather every layer's states by parent index into the spare
        buffers, so each lane owns the state a step advances in place."""
        parents = _checked_parents(parents, self.states[0].shape[0])
        # the indices are checked, so no mode needs to buffer the output
        states = [s.take(parents, axis=0, out=b[:parents.size], mode="clip")
                  for s, b in zip(self.states, self.spare)]
        return RecurrentDecodeState(states=states, buffers=self.spare,
                                    spare=self.buffers, outer=self.outer)


@dataclass
class KVDecodeState:
    """Text key/value history of every live lane: per layer, (lanes, H, t,
    d_head) keys and values after t steps (None before the first), so a lane
    holds 2 * t * d_model elements per layer. Under data-dependent decay each
    layer also carries the (lanes, H, t) cumulative log-gates (not counted
    against the key/value element formula); otherwise those stay None."""

    keys: list
    values: list
    gate_logs: list

    @classmethod
    def fresh(cls, config) -> "KVDecodeState":
        return cls(keys=[None] * config.layers, values=[None] * config.layers,
                   gate_logs=[None] * config.layers)

    def live_elements(self) -> int:
        keys = self.keys[0]
        return 0 if keys is None else 2 * len(self.keys) * keys.size

    def reindex(self, parents) -> "KVDecodeState":
        return kv_reindex(self, parents)


def kv_reindex(state: KVDecodeState, parent_indices) -> KVDecodeState:
    """Gather every layer's history by parent index into freshly allocated
    arrays (beam pruning cannot reuse the old storage in place)."""
    parents = _checked_parents(parent_indices, state.keys[0].shape[0])

    def gather(arrays):
        return [None if a is None else a[parents] for a in arrays]

    return KVDecodeState(keys=gather(state.keys), values=gather(state.values),
                         gate_logs=gather(state.gate_logs))


@dataclass(frozen=True)
class DecodeResult:
    tokens: tuple         # character ids, specials stripped
    score: float
    stats: tuple          # one dict per step, STATS_COLUMNS keys


def image_cache(model: Model, image: Tensor) -> tuple:
    """The model's image cache for `image` as the head-major views a lane
    step reads, one (keys, values) pair per layer (`fusion.image_heads`)."""
    heads = model.config.heads
    return tuple(image_heads(keys, values, heads)
                 for keys, values in model.build_image_cache(image))


def _lane_logits_recurrent(model, state, cache, tokens, position):
    """(lanes, vocab) next-token logits for every live lane; advances the
    lanes' states in place."""
    x = model.embed_text_step(tokens, position)
    outer = state.outer[:x.shape[0]]
    for layer, s, image in zip(model.layers, state.states, cache):
        x = layer.step_recurrent(x, s, image, outer)
    return model.head_logits(x)


def _lane_logits_kv(model, state, cache, tokens, position):
    """(lanes, vocab) next-token logits for every live lane; appends this
    position to the lanes' histories in place."""
    x = model.embed_text_step(tokens, position)
    for li, layer in enumerate(model.layers):
        x, state.keys[li], state.values[li], state.gate_logs[li] = (
            layer.step_kv(x, state.keys[li], state.values[li],
                          cache[li], state.gate_logs[li]))
    return model.head_logits(x)


# the specials PAD, SOS and EOS are the first ids; every later one may
# extend a lane
_FIRST_CANDIDATE = max(PAD_ID, SOS_ID, EOS_ID) + 1


def beam_search(model: Model, image: Tensor, beam: int,
                max_len: int | None = None,
                backend: str = "recurrent") -> DecodeResult:
    """Length-unnormalized beam search; at beam 1, greedy argmax decoding.

    Candidates are ranked by cumulative log-probability with deterministic
    tie-breaking (higher score, then parent order, then smaller token id):
    the next live lanes are the first `beam` entries of one stable argsort of
    the negated non-EOS candidate scores, flattened parent-major. EOS
    candidates leave the beam, so their slots refill from the pool; only the
    best finished hypothesis is kept (higher score, then shorter, then the
    lexicographically smallest tokens). Search stops at max_len or once no
    live hypothesis can still beat it. Each step advances every live lane in
    one batched call.
    """
    if beam < 1:
        raise ValueError("beam size must be at least 1")
    if backend not in BACKENDS:
        raise ValueError(f"unknown backend {backend!r}")
    if backend == "recurrent" and model.config.mixer != "retention":
        raise ValueError("the attention mixer has no recurrent decode form")
    if max_len is None:
        max_len = model.config.max_text_len
    if max_len < 1:
        raise ValueError("max_len must be at least 1")
    cache = image_cache(model, image)

    # looked up per call, so that patched module attributes take effect
    if backend == "recurrent":
        state = RecurrentDecodeState.fresh(model.config, beam)
        lane_logits = _lane_logits_recurrent
    else:
        state, lane_logits = KVDecodeState.fresh(model.config), _lane_logits_kv
    # the live lanes: cumulative scores, token histories, last tokens
    scores = np.zeros(1)
    histories = [()]
    tokens = np.array([SOS_ID])
    best_score, best_tokens = -np.inf, ()  # the best finished hypothesis
    stats = []
    candidates = model.config.vocab_size - _FIRST_CANDIDATE

    for step in range(1, max_len + 1):
        counter = OpCounter()
        with count_ops(counter):
            logits = lane_logits(model, state, cache, tokens, step - 1)
        log_probs = log_softmax_fwd(logits)
        eos_scores = scores + log_probs[:, EOS_ID]
        top = eos_scores.max()
        if top > best_score:
            # EOS candidates all have this step's length: ties go to the
            # smallest tokens, and to a shorter earlier hypothesis
            best_score = float(top)
            best_tokens = min(histories[lane]
                              for lane in np.flatnonzero(eos_scores == top))
        scores = scores[:, None] + log_probs[:, _FIRST_CANDIDATE:]
        # higher score first; ties toward earlier parent, then smaller id
        # (the flattened order is parent-major, and the sort is stable)
        order = (-scores).argsort(axis=None, kind="stable")[:beam]
        parents, cols = np.divmod(order, candidates)
        lane_parents = parents.tolist()
        if lane_parents != list(range(len(histories))):
            # skipped when every lane stays in its place, as always at beam 1
            state = state.reindex(parents)
        scores = scores.ravel()[order]
        tokens = cols + _FIRST_CANDIDATE
        histories = [histories[p] + (t,)
                     for p, t in zip(lane_parents, tokens.tolist())]
        stats.append({
            "step": step,
            "backend": backend,
            "beam": beam,
            "mults": counter.mults,
            "adds": counter.adds,
            "live_elements": state.live_elements(),
        })
        if best_score >= scores[0]:
            break

    # every step finishes its lanes' EOS candidates, so one always exists
    return DecodeResult(tokens=best_tokens, score=best_score,
                        stats=tuple(stats))


def write_stats_csv(path, results) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(",".join(STATS_COLUMNS) + "\n")
        for result in results:
            for row in result.stats:
                fh.write(",".join(str(row[c]) for c in STATS_COLUMNS) + "\n")
