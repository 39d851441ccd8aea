"""Cost accounting for the three inference forms of one attention/retention head.

Closed forms:

    vanilla      2*n^2*d + n^2 - 1 + n*(d-1)     (recompute everything, length n)
    kv_cached    2*d*n + 2*(n-1)                 (one step against n cached keys)
    recurrent    2*d^2 + d - 1                   (one step against a d x d state)

The instrumented twin executes the actual computation and counts every scalar
multiply inside the two matrix-product stages (query-key scores and
score-value mixing; key-value outer product and state readout for the
recurrent form). Softmax exponentials and divisions are never counted, and
addition counts follow the same per-stage accounting conventions the closed
forms are derived under, so measured and closed-form counts agree as exact
integers.

Memory counts are abstract element (stored float) counts per decoder layer:
a recurrent decoder keeps B*d^2/H state elements regardless of decoded
length, while KV caching keeps 2*B*N*d persistent elements and about twice
that at the reallocation peak.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

FORMS = ("vanilla", "kv_cached", "recurrent")
MEMORY_METHODS = ("recurrent", "kv_persistent", "kv_peak")


@dataclass(frozen=True)
class CostReport:
    """Multiply/add counts for one configuration of one inference form."""

    form: str
    n: int
    d: int
    mults: int
    adds: int

    @property
    def total(self) -> int:
        return self.mults + self.adds


def _check_form(form: str) -> None:
    if form not in FORMS:
        raise ValueError(f"unknown inference form {form!r}")


def _check_dims(n: int, d: int) -> None:
    if n < 1 or d < 1:
        raise ValueError("sequence length and width must be at least 1")


def flops_closed_form(form: str, n: int, d: int) -> CostReport:
    """Evaluate the closed-form operation counts."""
    _check_form(form)
    _check_dims(n, d)
    if form == "vanilla":
        mults = 2 * n * n * d
        adds = (n * n - 1) + n * (d - 1)
    elif form == "kv_cached":
        mults = 2 * d * n
        adds = 2 * (n - 1)
    else:
        mults = 2 * d * d
        adds = d - 1
    return CostReport(form=form, n=n, d=d, mults=mults, adds=adds)


class _StageCounter:
    __slots__ = ("mults", "adds")

    def __init__(self):
        self.mults = 0
        self.adds = 0


def _counted_product(a: np.ndarray, b: np.ndarray, counter: _StageCounter,
                     stage_adds: int) -> np.ndarray:
    """Multiply two matrices one scalar product at a time, counting each
    multiply as it executes. Additions are registered per stage using the
    accounting convention of the matching closed form."""
    m, k = a.shape
    k2, p = b.shape
    assert k == k2
    out = np.zeros((m, p))
    mults = 0
    for i in range(m):
        for j in range(p):
            acc = 0.0
            for t in range(k):
                acc += a[i, t] * b[t, j]
                mults += 1
            out[i, j] = acc
    counter.mults += mults
    counter.adds += stage_adds
    return out


def _softmax(v: np.ndarray) -> np.ndarray:
    e = np.exp(v - v.max(axis=-1, keepdims=True))
    return e / e.sum(axis=-1, keepdims=True)


def flops_instrumented(form: str, n: int, d: int, seed: int = 0) -> CostReport:
    """Run the single-head computation for real and report measured counts."""
    _check_form(form)
    _check_dims(n, d)
    rng = np.random.default_rng(seed)
    counter = _StageCounter()
    if form == "vanilla":
        q = rng.standard_normal((n, d))
        k = rng.standard_normal((n, d))
        v = rng.standard_normal((n, d))
        scores = _counted_product(q, k.T, counter, stage_adds=n * n - 1)
        scores = np.where(np.tril(np.ones((n, n))) > 0, scores / np.sqrt(d), -np.inf)
        attn = _softmax(scores)
        _counted_product(attn, v, counter, stage_adds=n * (d - 1))
    elif form == "kv_cached":
        # one decoding step: the new query against n cached keys/values
        q = rng.standard_normal((1, d))
        keys = rng.standard_normal((n, d))
        values = rng.standard_normal((n, d))
        scores = _counted_product(q, keys.T, counter, stage_adds=n - 1)
        attn = _softmax(scores / np.sqrt(d))
        _counted_product(attn, values, counter, stage_adds=n - 1)
    else:
        # one recurrent step: absorb k^T v into the state, then read it out
        q = rng.standard_normal((1, d))
        k = rng.standard_normal((1, d))
        v = rng.standard_normal((1, d))
        state = rng.standard_normal((d, d))
        kv = _counted_product(k.T, v, counter, stage_adds=0)
        state = 0.9 * state + kv
        _counted_product(q, state, counter, stage_adds=d - 1)
    return CostReport(form=form, n=n, d=d, mults=counter.mults, adds=counter.adds)


def memory_elements(method: str, beam: int, decoded: int, d: int, heads: int) -> int:
    """Per-layer stored-element counts for beam-search decoding."""
    if method not in MEMORY_METHODS:
        raise ValueError(f"unknown memory method {method!r}")
    if min(beam, decoded, d, heads) < 1:
        raise ValueError("all memory parameters must be at least 1")
    if method == "recurrent":
        if d % heads != 0:
            raise ValueError("width must divide evenly across heads")
        return beam * heads * (d // heads) ** 2  # == B * d^2 / H
    if method == "kv_persistent":
        return 2 * beam * decoded * d
    return 4 * beam * decoded * d


def beam_memory_summary(beam: int = 10, decoded: int = 94, d: int = 768,
                        heads: int = 12) -> dict:
    """Reference element counts for the headline configuration, including the
    note that the widely quoted ~2.88M per-layer KV figure corresponds to the
    peak 4*B*N*d (persistent plus reallocation copy), not the persistent
    2*B*N*d formula it is usually printed beside."""
    recurrent = memory_elements("recurrent", beam, decoded, d, heads)
    persistent = memory_elements("kv_persistent", beam, decoded, d, heads)
    peak = memory_elements("kv_peak", beam, decoded, d, heads)
    return {
        "beam": beam,
        "decoded": decoded,
        "d": d,
        "heads": heads,
        "recurrent_elements": recurrent,
        "kv_persistent_elements": persistent,
        "kv_peak_elements": peak,
        "note": (
            f"discrepancy: the quoted 2.88M per-layer KV element count equals the "
            f"peak 4*B*N*d = {peak:,}, not the persistent 2*B*N*d formula it is "
            f"printed beside, which gives {persistent:,}; the recurrent state stays "
            f"at B*d^2/H = {recurrent:,} elements regardless of decoded length"
        ),
    }


SWEEP_COLUMNS = (
    "form", "n", "d", "B", "N", "H", "mults", "adds", "total",
    "closed_form_total", "persistent_elems", "peak_elems", "crossover",
)


def sweep_rows(ns, ds, beams, decodeds, heads_list) -> list:
    """Cross product of closed-form plus instrumented counts and memory
    elements; one row per (form, n, d, B, N, H) combination."""
    ns, ds = list(ns), list(ds)
    beams, decodeds, heads_list = list(beams), list(decodeds), list(heads_list)
    if not all((ns, ds, beams, decodeds, heads_list)):
        raise ValueError("sweep ranges must be nonempty")
    for d in ds:
        for h in heads_list:
            if d % h != 0:
                raise ValueError(f"width {d} is not divisible by {h} heads")
    # the op counts depend on (form, n, d) only: run the oracle once for each
    counts = {(form, n, d): (flops_instrumented(form, n, d),
                             flops_closed_form(form, n, d))
              for n in ns for d in ds for form in FORMS}
    rows = []
    for n in ns:
        for d in ds:
            for beam in beams:
                for dec in decodeds:
                    for h in heads_list:
                        for form in FORMS:
                            inst, closed = counts[form, n, d]
                            if form == "recurrent":
                                persistent = peak = memory_elements(
                                    "recurrent", beam, dec, d, h)
                            elif form == "kv_cached":
                                persistent = memory_elements(
                                    "kv_persistent", beam, dec, d, h)
                                peak = memory_elements("kv_peak", beam, dec, d, h)
                            else:
                                persistent = peak = 0
                            rows.append({
                                "form": form, "n": n, "d": d, "B": beam,
                                "N": dec, "H": h, "mults": inst.mults,
                                "adds": inst.adds, "total": inst.total,
                                "closed_form_total": closed.total,
                                "persistent_elems": persistent,
                                "peak_elems": peak,
                                "crossover": int(n > d),
                            })
    return rows


def write_sweep_csv(path, rows) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(",".join(SWEEP_COLUMNS) + "\n")
        for row in rows:
            fh.write(",".join(str(row[c]) for c in SWEEP_COLUMNS) + "\n")
