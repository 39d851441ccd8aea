"""Cost accounting for the three inference forms of one attention/retention head.

Closed forms:

    vanilla      2*n^2*d + n^2 - 1 + n*(d-1)     (recompute everything, length n)
    kv_cached    2*d*n + 2*(n-1)                 (one step against n cached keys)
    recurrent    2*d^2 + d - 1                   (one step against a d x d state)

The instrumented twin runs the model's own kernels one head wide
(`fusion.softmax_mix` for the cached step, `fusion.retention_step` for the
recurrent one) and the vanilla form's two products through
`tensor.matmul_fwd`, and takes its multiply count from the tensor module's
`count_ops` counter. Softmax exponentials and divisions are never counted.
Addition counts are not the counter's: they follow the per-stage accounting
conventions the closed forms are derived under, so measured and closed-form
counts agree as exact integers.

Memory counts are abstract element (stored float) counts per decoder layer:
a recurrent decoder keeps B*d^2/H state elements regardless of decoded
length, while KV caching keeps 2*B*N*d persistent elements and about twice
that at the reallocation peak.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .fusion import retention_step, softmax_mix
from .tensor import OpCounter, count_ops, matmul_fwd, softmax_fwd

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


def flops_instrumented(form: str, n: int, d: int) -> CostReport:
    """Run the single-head computation for real and report measured counts.

    The form runs inside one `count_ops` counter, whose multiplies are the
    reported `mults`; its products also register with any enclosing counter.
    `adds` are summed per stage under the closed forms' conventions, not the
    counter's m*p*(k-1) per product.
    """
    _check_form(form)
    _check_dims(n, d)
    rng = np.random.default_rng(0)  # the counts do not depend on the values
    with count_ops(OpCounter()) as counter:
        if form == "vanilla":
            q = rng.standard_normal((n, d))
            k = rng.standard_normal((n, d))
            v = rng.standard_normal((n, d))
            scores = matmul_fwd(q, k.T)
            scores = np.where(np.tril(np.ones((n, n))) > 0, scores / np.sqrt(d),
                              -np.inf)
            matmul_fwd(softmax_fwd(scores), v)
            adds = (n * n - 1) + n * (d - 1)  # per stage: scores, mixing
        elif form == "kv_cached":
            # one decoding step: the new query against n cached keys/values
            softmax_mix(rng.standard_normal((1, 1, d)),
                        rng.standard_normal((1, d, n)),
                        rng.standard_normal((1, n, d)))
            adds = (n - 1) + (n - 1)  # per stage: scores, mixing
        else:
            # one recurrent step: absorb k^T v into the state, then read it out
            q, k, v = (rng.standard_normal((1, d)) for _ in range(3))
            retention_step(rng.standard_normal((1, 1, d, d)), q, k, v, 0.9)
            adds = d - 1  # the outer product adds nothing; the readout d - 1
    return CostReport(form=form, n=n, d=d, mults=counter.mults, adds=adds)


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


def beam_memory_summary() -> dict:
    """Reference element counts for the headline configuration (B=10, N=94,
    d=768, H=12), including the note that the widely quoted ~2.88M per-layer
    KV figure corresponds to the peak 4*B*N*d (persistent plus reallocation
    copy), not the persistent 2*B*N*d formula it is usually printed beside."""
    beam, decoded, d, heads = 10, 94, 768, 12
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
    if min(heads_list) < 1:
        raise ValueError("head counts must be at least 1")
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
