"""Dense float64 tensors with tape-based reverse-mode automatic differentiation.

Everything downstream (retention operators, fusion layers, the decoder stack)
is built from the primitives here. Forward values are plain numpy arrays in
double precision; gradients are computed by replaying a Tape in exact reverse
execution order. Matmuls register their scalar multiply/add counts with any
active OpCounter, which is what the cost model and decode statistics read.

The forward math of the primitives a decode step needs (the counted
products, layer norm, GELU, row softmax and log-softmax), and of the
embedding gather, lives in plain-array kernels, the `*_fwd` functions. The
Tensor primitives compute their forward through them, and decode steps,
which never record a tape, call them directly. Inside `no_tape` nothing records,
as when a decode builds its image cache: the CNN, whose stages are each one
`conv` (im2col columns times the weights, plus the bias) on channels-last
(h, w, c) maps, and each layer's image-only forward.

A Tape keeps only what backward reads. Each node is its inputs' keys and a
gradient closure over the arrays, shapes and flags that closure reads;
gradients are routed by node number, and only the leaves, whose `.grad`
backward sets, are held by reference. An intermediate that no closure reads
(the raw scores under a `mul_const`, a slice's copy, a GELU output that feeds
the next `conv`, a residual sum ahead of a layer norm) is freed as soon as
the forward code drops it, not when the tape ends.

Beyond the standard library, numpy is the only import at load time. The
exact GELU's erf is scipy's ufunc, taken at the first GELU from scipy's
compiled `_special_ufuncs` module, loaded alone (`_load_erf`): retline
never imports the `scipy.special` package itself.

Each operation has one primitive: a product with any constant is
`mul_const`, any transpose is `permute`, and `central_differences` is the one
finite-difference loop.
"""

from __future__ import annotations

import itertools
import threading

import numpy as np

LAYERNORM_EPS = 1e-5

_TLS = threading.local()


def _tape_stack() -> list:
    stack = getattr(_TLS, "tapes", None)
    if stack is None:
        stack = []
        _TLS.tapes = stack
    return stack


def _counter_stack() -> list:
    stack = getattr(_TLS, "counters", None)
    if stack is None:
        stack = []
        _TLS.counters = stack
    return stack


class OpCounter:
    """Scalar multiply/add accumulator for one evaluation context."""

    __slots__ = ("mults", "adds")

    def __init__(self):
        self.mults = 0
        self.adds = 0

    @property
    def total(self) -> int:
        return self.mults + self.adds

    def snapshot(self) -> tuple:
        return (self.mults, self.adds)


class count_ops:
    """Context manager routing op costs into `counter` while active."""

    def __init__(self, counter: OpCounter):
        self.counter = counter

    def __enter__(self) -> OpCounter:
        _counter_stack().append(self.counter)
        return self.counter

    def __exit__(self, *exc):
        _counter_stack().pop()
        return False


def register_matmul_cost(m: int, k: int, p: int) -> None:
    """Record the m*k*p multiplies and m*p*(k-1) adds of an (m,k)x(k,p) product."""
    for counter in _counter_stack():
        counter.mults += m * k * p
        counter.adds += m * p * (k - 1)


# ---------------------------------------------------------------------------
# forward kernels on plain arrays


def matmul_fwd(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """2-D matrix product; registers m*k*p mults and m*p*(k-1) adds."""
    if a.ndim != 2 or b.ndim != 2:
        raise ValueError("matmul expects 2-D tensors")
    m, k = a.shape
    k2, p = b.shape
    if k != k2:
        raise ValueError(f"matmul: inner extents differ, {a.shape} x {b.shape}")
    register_matmul_cost(m, k, p)
    return a @ b


def bmatmul_fwd(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Batched product of (n, m, k) and (n, k, p) stacks, slice by slice.
    Registers the sum of the n per-slice matmul costs: n*m*k*p mults and
    n*m*p*(k-1) adds."""
    if a.ndim != 3 or b.ndim != 3:
        raise ValueError("bmatmul expects 3-D tensors")
    n, m, k = a.shape
    n2, k2, p = b.shape
    if n != n2 or k != k2:
        raise ValueError(f"bmatmul: extents differ, {a.shape} x {b.shape}")
    register_matmul_cost(n * m, k, p)
    return np.matmul(a, b)


def softmax_fwd(x: np.ndarray) -> np.ndarray:
    """Row-wise softmax over the last axis, stabilized by row-max subtraction."""
    if x.ndim < 2 or x.shape[-1] < 1:
        raise ValueError(
            "softmax_rows expects a tensor of at least 2 dimensions with at "
            "least one column")
    s = x - x.max(axis=-1, keepdims=True)
    np.exp(s, out=s)
    s /= s.sum(axis=-1, keepdims=True)
    return s


def log_softmax_fwd(x: np.ndarray) -> np.ndarray:
    """Row-wise log-softmax of a 2-D array, stabilized by row-max
    subtraction: z - log(sum(exp(z)))."""
    if x.ndim != 2 or x.shape[1] < 1:
        raise ValueError("log_softmax_rows expects a 2-D tensor")
    z = x - x.max(axis=1, keepdims=True)
    return z - np.log(np.exp(z).sum(axis=1, keepdims=True))


_INV_SQRT2 = 1.0 / np.sqrt(2.0)
_INV_SQRT2PI = 1.0 / np.sqrt(2.0 * np.pi)


_ERF_MODULE = "scipy.special._special_ufuncs"


def _load_erf():
    """scipy's erf ufunc, loaded without importing `scipy.special`.

    The compiled module that defines the ufunc is loaded alone, under its
    real name and registered in `sys.modules`, so a later `import
    scipy.special` reuses it and hands out the same object. The package's
    own import pulls in far more (array-API shims, numpy.testing, f2py) for
    over ten times the module's time and memory. If `scipy.special` is
    already imported, its `erf` is taken; if the compiled file is absent,
    fails to load or lacks `erf` (scipy releases differ), the package is
    imported as usual."""
    import importlib.machinery
    import importlib.util
    import os
    import sys

    module = sys.modules.get("scipy.special") or sys.modules.get(_ERF_MODULE)
    if module is None:
        import scipy

        paths = (os.path.join(root, "special", "_special_ufuncs" + suffix)
                 for root in scipy.__path__
                 for suffix in importlib.machinery.EXTENSION_SUFFIXES)
        path = next((p for p in paths if os.path.isfile(p)), None)
        if path is not None:
            spec = importlib.util.spec_from_file_location(_ERF_MODULE, path)
            try:
                module = importlib.util.module_from_spec(spec)
                sys.modules[_ERF_MODULE] = module
                spec.loader.exec_module(module)
            except ImportError:
                sys.modules.pop(_ERF_MODULE, None)
                module = None
    erf = getattr(module, "erf", None)
    if erf is None:
        from scipy.special import erf
    return erf


_ERF_LOCK = threading.Lock()


def _erf(x, out):
    """scipy's erf, loaded at the first GELU by `_load_erf`: many commands
    never run a GELU. The first call rebinds `_erf` to the ufunc itself, so
    later calls reach it with the same single global lookup. The lock
    stands in for the import system's own: threads that meet their first
    GELU together load the module once."""
    global _erf
    with _ERF_LOCK:
        _erf = _load_erf()
    return _erf(x, out=out)


def gelu_fwd(x: np.ndarray) -> tuple:
    """Gaussian error linear unit, exact erf form: x * Phi(x). Returns the
    output and Phi(x)."""
    # 0.5 * (1 + erf(x / sqrt 2)) on one temporary, operation for operation
    phi_cdf = x * _INV_SQRT2
    _erf(phi_cdf, out=phi_cdf)
    phi_cdf += 1.0
    phi_cdf *= 0.5
    return x * phi_cdf, phi_cdf


def layer_norm_fwd(x: np.ndarray, gain: np.ndarray, bias: np.ndarray) -> tuple:
    """Normalize each trailing-dim vector to zero mean / unit variance, then
    apply the affine gain and bias; LAYERNORM_EPS sits inside the square root.
    Returns the output, the normalized input and the inverse standard
    deviations."""
    d = x.shape[-1] if x.ndim else 0
    if d == 0:
        raise ValueError("layer_norm: trailing extent must be nonzero")
    if gain.shape != (d,) or bias.shape != (d,):
        raise ValueError("layer_norm: gain/bias must have shape (d,)")
    # sum / d is np.mean's own arithmetic (bitwise), without its dispatch
    mu = x.sum(axis=-1, keepdims=True) / d
    xc = x - mu
    var = (xc * xc).sum(axis=-1, keepdims=True) / d
    inv = 1.0 / np.sqrt(var + LAYERNORM_EPS)
    xhat = xc * inv
    return xhat * gain + bias, xhat, inv


def embedding_fwd(table: np.ndarray, ids) -> np.ndarray:
    """Rows of `table` gathered by a flat list of integer ids, as a copy."""
    ids = np.asarray(ids, dtype=np.int64)
    if ids.ndim != 1:
        raise ValueError("embedding_rows expects a flat id list")
    if ids.size and (ids.min() < 0 or ids.max() >= table.shape[0]):
        raise ValueError("embedding id out of range")
    return table[ids]


class Tensor:
    """n-dimensional float64 array, optionally tracked for gradients.

    Data is immutable by convention after construction; ops return fresh
    tensors. `grad` is populated on requires_grad leaves by backward(). A
    tensor a tape recorded carries that tape's serial and its node number.
    """

    __slots__ = ("data", "requires_grad", "grad", "_tape", "_node")

    def __init__(self, data, requires_grad: bool = False):
        arr = np.asarray(data, dtype=np.float64)
        if not np.all(np.isfinite(arr)):
            raise ValueError("tensor data must be finite")
        self.data = arr
        self.requires_grad = bool(requires_grad)
        self.grad = None
        self._tape = None

    @classmethod
    def _wrap(cls, arr: np.ndarray, requires_grad: bool) -> "Tensor":
        # internal fast path: arr already float64 and finite by construction
        t = cls.__new__(cls)
        t.data = arr
        t.requires_grad = requires_grad
        t.grad = None
        t._tape = None
        return t

    @property
    def shape(self) -> tuple:
        return self.data.shape

    @property
    def size(self) -> int:
        return self.data.size

    def item(self) -> float:
        if self.data.size != 1:
            raise ValueError(f"item() needs a single-element tensor, got shape {self.shape}")
        return float(self.data.reshape(()))

    def __repr__(self):
        rg = ", requires_grad=True" if self.requires_grad else ""
        return f"Tensor(shape={self.shape}{rg})"

    # operator sugar; the named functions below do the work
    def __add__(self, other):
        return add(self, other)

    def __sub__(self, other):
        return sub(self, other)

    def __mul__(self, other):
        if isinstance(other, Tensor):
            return mul(self, other)
        return mul_const(self, float(other))

    def __rmul__(self, other):
        return mul_const(self, float(other))

    def __neg__(self):
        return mul_const(self, -1.0)

    def __matmul__(self, other):
        return matmul(self, other)


_TAPE_SERIALS = itertools.count()


class Tape:
    """Ordered record of executed primitives for one forward pass.

    Used as a context manager; ops executed inside record themselves, and
    backward() replays the records in exact reverse execution order. One tape
    per forward pass, confined to a single thread.

    A node is its inputs' keys and its gradient closure; its output's number
    is its position. An input the tape produced is keyed by its node number,
    a requires_grad leaf (a parameter, or any tensor this tape did not
    produce) by the negative key ~id(leaf) in `_leaves`, and an input that
    needs no gradient by None. Only leaves are held: backward sets their
    `.grad`, and holding them keeps their ids unique.
    """

    def __init__(self):
        self._serial = next(_TAPE_SERIALS)
        self._nodes = []  # (input keys, grad_fn)
        self._leaves = {}  # ~id(leaf) -> leaf

    def __enter__(self) -> "Tape":
        _tape_stack().append(self)
        return self

    def __exit__(self, *exc):
        _tape_stack().pop()
        return False

    def _key(self, t: Tensor):
        if not t.requires_grad:
            return None
        if t._tape == self._serial:
            return t._node
        key = ~id(t)
        self._leaves[key] = t
        return key

    def record(self, out: Tensor, inputs: tuple, grad_fn) -> None:
        keys = tuple([self._key(t) for t in inputs])
        out._tape, out._node = self._serial, len(self._nodes)
        self._nodes.append((keys, grad_fn))

    def __len__(self) -> int:
        return len(self._nodes)


class no_tape(Tape):
    """Context manager inside which nothing records, whatever tape is
    active: for forward passes whose values alone are kept."""

    def __enter__(self) -> None:
        _tape_stack().append(None)


def _active_tape():
    stack = _tape_stack()
    return stack[-1] if stack else None


def _record(out: Tensor, inputs: tuple, grad_fn) -> Tensor:
    tape = _active_tape()
    if tape is not None and any(t.requires_grad for t in inputs):
        out.requires_grad = True
        tape.record(out, inputs, grad_fn)
    return out


def backward(loss: Tensor) -> None:
    """Populate ∂loss/∂leaf on every requires_grad leaf reachable from `loss`.

    Must run inside the `with Tape()` block that recorded the forward pass.
    Repeated calls without zeroing grads accumulate. Forward values are never
    mutated.
    """
    tape = _active_tape()
    if tape is None:
        raise RuntimeError("backward() requires an active Tape")
    if loss.data.size != 1:
        raise ValueError(f"backward() needs a scalar loss, got shape {loss.shape}")

    # pass-local gradients keyed by node number or leaf key (see Tape);
    # leaves are whatever is left once every recorded node has consumed its
    # output gradient. A loss this tape did not produce is its own leaf.
    seed = np.ones_like(loss.data)
    if loss._tape != tape._serial:
        loss.grad = seed if loss.grad is None else loss.grad + seed
        return
    nodes = tape._nodes
    grads: dict[int, np.ndarray] = {loss._node: seed}
    for number in range(loss._node, -1, -1):
        g = grads.pop(number, None)
        if g is None:
            continue
        keys, grad_fn = nodes[number]
        contribs = grad_fn(g)
        for key, c in zip(keys, contribs):
            if c is None or key is None:
                continue
            if key in grads:
                grads[key] = grads[key] + c
            else:
                grads[key] = c
    for key, g in grads.items():
        t = tape._leaves[key]
        t.grad = g.copy() if t.grad is None else t.grad + g


# ---------------------------------------------------------------------------
# primitives


def add(a: Tensor, b: Tensor) -> Tensor:
    """Elementwise sum; also accepts a trailing-dim row vector b for biases."""
    if a.shape == b.shape:
        out = Tensor._wrap(a.data + b.data, False)

        def grad_fn(g):
            return g, g

        return _record(out, (a, b), grad_fn)
    if b.data.ndim == 1 and a.data.ndim >= 1 and a.shape[-1] == b.shape[0]:
        out = Tensor._wrap(a.data + b.data, False)
        d = b.shape[0]

        def grad_fn(g):
            gb = g.reshape(-1, d).sum(axis=0)
            return g, gb

        return _record(out, (a, b), grad_fn)
    raise ValueError(f"add: incompatible shapes {a.shape} and {b.shape}")


def sub(a: Tensor, b: Tensor) -> Tensor:
    if a.shape != b.shape:
        raise ValueError(f"sub: incompatible shapes {a.shape} and {b.shape}")
    out = Tensor._wrap(a.data - b.data, False)

    def grad_fn(g):
        return g, -g

    return _record(out, (a, b), grad_fn)


def mul(a: Tensor, b: Tensor) -> Tensor:
    if a.shape != b.shape:
        raise ValueError(f"mul: incompatible shapes {a.shape} and {b.shape}")
    ad, bd = a.data, b.data
    out = Tensor._wrap(ad * bd, False)

    def grad_fn(g):
        return g * bd, g * ad

    return _record(out, (a, b), grad_fn)


def mul_const(a: Tensor, c) -> Tensor:
    """Elementwise product with a constant scalar or array (no gradient into c)."""
    c = np.asarray(c, dtype=np.float64)
    out = Tensor._wrap(a.data * c, False)

    def grad_fn(g):
        return (g * c,)

    return _record(out, (a,), grad_fn)


def matmul(a: Tensor, b: Tensor) -> Tensor:
    """2-D matrix product; registers m*k*p mults and m*p*(k-1) adds."""
    out = Tensor._wrap(matmul_fwd(a.data, b.data), False)
    # each operand is kept only for the other's gradient
    ad = a.data if b.requires_grad else None
    bd = b.data if a.requires_grad else None

    def grad_fn(g):
        ga = g @ bd.T if bd is not None else None
        gb = ad.T @ g if ad is not None else None
        return ga, gb

    return _record(out, (a, b), grad_fn)


def bmatmul(a: Tensor, b: Tensor) -> Tensor:
    """Batched product of (n, m, k) and (n, k, p) stacks (see bmatmul_fwd)."""
    out = Tensor._wrap(bmatmul_fwd(a.data, b.data), False)
    ad = a.data if b.requires_grad else None
    bd = b.data if a.requires_grad else None

    def grad_fn(g):
        ga = np.matmul(g, bd.transpose(0, 2, 1)) if bd is not None else None
        gb = np.matmul(ad.transpose(0, 2, 1), g) if ad is not None else None
        return ga, gb

    return _record(out, (a, b), grad_fn)


def permute(a: Tensor, axes: tuple) -> Tensor:
    out = Tensor._wrap(np.ascontiguousarray(np.transpose(a.data, axes)), False)
    inv = np.argsort(axes)

    def grad_fn(g):
        return (np.ascontiguousarray(np.transpose(g, inv)),)

    return _record(out, (a,), grad_fn)


def reshape(a: Tensor, shape: tuple) -> Tensor:
    out = Tensor._wrap(a.data.reshape(shape), False)
    old = a.shape

    def grad_fn(g):
        return (g.reshape(old),)

    return _record(out, (a,), grad_fn)


def slice_rows(a: Tensor, start: int, stop: int) -> Tensor:
    """Rows start..stop of a 2-D tensor, or of every matrix in a stack."""
    if a.data.ndim < 2:
        raise ValueError("slice_rows expects a tensor of at least 2 dimensions")
    out = Tensor._wrap(a.data[..., start:stop, :].copy(), False)
    shape = a.shape

    def grad_fn(g):
        ga = np.zeros(shape)
        ga[..., start:stop, :] = g
        return (ga,)

    return _record(out, (a,), grad_fn)


def slice_cols(a: Tensor, start: int, stop: int) -> Tensor:
    """Columns start..stop of a 2-D tensor, or of every matrix in a stack."""
    if a.data.ndim < 2:
        raise ValueError("slice_cols expects a tensor of at least 2 dimensions")
    out = Tensor._wrap(a.data[..., start:stop].copy(), False)
    shape = a.shape

    def grad_fn(g):
        ga = np.zeros(shape)
        ga[..., start:stop] = g
        return (ga,)

    return _record(out, (a,), grad_fn)


def _concat(parts: list, axis: int, name: str) -> Tensor:
    if not parts:
        raise ValueError(f"{name} needs at least one tensor")
    out = Tensor._wrap(np.concatenate([p.data for p in parts], axis=axis), False)
    splits = np.cumsum([p.shape[axis] for p in parts])[:-1]

    def grad_fn(g):
        return tuple(np.split(g, splits, axis=axis))

    return _record(out, tuple(parts), grad_fn)


def concat_rows(parts: list) -> Tensor:
    """Concatenate along the rows (the second-to-last axis)."""
    return _concat(parts, -2, "concat_rows")


def concat_cols(parts: list) -> Tensor:
    """Concatenate along the columns (the last axis)."""
    return _concat(parts, -1, "concat_cols")


def sum_all(a: Tensor) -> Tensor:
    out = Tensor._wrap(np.asarray(a.data.sum()), False)
    shape = a.shape

    def grad_fn(g):
        return (np.broadcast_to(g, shape).copy(),)

    return _record(out, (a,), grad_fn)


def softmax_rows(x: Tensor) -> Tensor:
    """Row-wise softmax over the last axis, stabilized by row-max subtraction."""
    s = softmax_fwd(x.data)
    out = Tensor._wrap(s, False)

    def grad_fn(g):
        dot = (g * s).sum(axis=-1, keepdims=True)
        return (s * (g - dot),)

    return _record(out, (x,), grad_fn)


def masked_softmax_rows(x: Tensor, allow) -> Tensor:
    """Row-wise softmax over the entries where `allow` is True; others get
    probability exactly 0. `allow` broadcasts against x, so one mask serves
    a whole stack. Every row must allow at least one entry."""
    allow = np.asarray(allow, dtype=bool)
    if x.data.ndim < 2 or np.broadcast_shapes(allow.shape, x.shape) != x.shape:
        raise ValueError("mask shape must broadcast to the tensor shape")
    if not allow.any(axis=-1).all():
        raise ValueError("masked_softmax_rows: some row allows no entries")
    masked = np.where(allow, x.data, -np.inf)
    z = masked - masked.max(axis=-1, keepdims=True)
    e = np.where(allow, np.exp(np.where(allow, z, 0.0)), 0.0)
    s = e / e.sum(axis=-1, keepdims=True)
    out = Tensor._wrap(s, False)

    def grad_fn(g):
        dot = (g * s).sum(axis=-1, keepdims=True)
        return (s * (g - dot),)

    return _record(out, (x,), grad_fn)


def log_softmax_rows(x: Tensor) -> Tensor:
    out = Tensor._wrap(log_softmax_fwd(x.data), False)
    s = np.exp(out.data)

    def grad_fn(g):
        return (g - s * g.sum(axis=1, keepdims=True),)

    return _record(out, (x,), grad_fn)


def gelu(x: Tensor) -> Tensor:
    """Gaussian error linear unit, exact erf form: x * Phi(x)."""
    xd = x.data
    y, phi_cdf = gelu_fwd(xd)
    out = Tensor._wrap(y, False)

    def grad_fn(g):
        # g * (Phi(x) + x * pdf(x)), pdf(x) = exp(-0.5 * x * x) / sqrt(2 pi),
        # on one temporary, operation for operation
        t = xd * -0.5
        t *= xd
        np.exp(t, out=t)
        t *= _INV_SQRT2PI
        t *= xd
        t += phi_cdf
        t *= g
        return (t,)

    return _record(out, (x,), grad_fn)


def exp(x: Tensor) -> Tensor:
    y = np.exp(x.data)
    if not np.all(np.isfinite(y)):
        raise ValueError("exp overflow")
    out = Tensor._wrap(y, False)

    def grad_fn(g):
        return (g * y,)

    return _record(out, (x,), grad_fn)


def log(x: Tensor) -> Tensor:
    if np.any(x.data <= 0):
        raise ValueError("log requires strictly positive inputs")
    xd = x.data
    out = Tensor._wrap(np.log(xd), False)

    def grad_fn(g):
        return (g / xd,)

    return _record(out, (x,), grad_fn)


def cumsum0(x: Tensor) -> Tensor:
    """Cumulative sum down axis 0."""
    out = Tensor._wrap(np.cumsum(x.data, axis=0), False)

    def grad_fn(g):
        return (np.flip(np.cumsum(np.flip(g, axis=0), axis=0), axis=0),)

    return _record(out, (x,), grad_fn)


def normalize_rows(x: Tensor) -> Tensor:
    """Divide each row (last axis) by its sum; rows must sum to something
    positive."""
    if x.data.ndim < 2:
        raise ValueError("normalize_rows expects a tensor of at least 2 dimensions")
    s = x.data.sum(axis=-1, keepdims=True)
    if np.any(s <= 0):
        raise ValueError("normalize_rows: row sums must be positive")
    y = x.data / s
    out = Tensor._wrap(y, False)

    def grad_fn(g):
        dot = (g * y).sum(axis=-1, keepdims=True)
        return ((g - dot) / s,)

    return _record(out, (x,), grad_fn)


def sigmoid(x: Tensor) -> Tensor:
    s = np.where(x.data >= 0, 1.0 / (1.0 + np.exp(-np.abs(x.data))),
                 np.exp(-np.abs(x.data)) / (1.0 + np.exp(-np.abs(x.data))))
    out = Tensor._wrap(s, False)

    def grad_fn(g):
        return (g * s * (1.0 - s),)

    return _record(out, (x,), grad_fn)


def pow_const(x: Tensor, p: float) -> Tensor:
    """x**p for strictly positive x (used for temperature-scaled gates)."""
    if np.any(x.data <= 0):
        raise ValueError("pow_const requires strictly positive inputs")
    xd = x.data
    y = xd ** p
    out = Tensor._wrap(y, False)

    def grad_fn(g):
        return (g * p * y / xd,)

    return _record(out, (x,), grad_fn)


def layer_norm(x: Tensor, gain: Tensor, bias: Tensor) -> Tensor:
    """Normalize each trailing-dim vector to zero mean / unit variance, then
    apply the affine gain and bias (see layer_norm_fwd)."""
    gd = gain.data
    y, xhat, inv = layer_norm_fwd(x.data, gd, bias.data)
    d = y.shape[-1]
    out = Tensor._wrap(y, False)
    need_x, need_gain, need_bias = (x.requires_grad, gain.requires_grad,
                                    bias.requires_grad)

    def grad_fn(g):
        gg = g * gd
        gx = None
        if need_x:
            m1 = gg.mean(axis=-1, keepdims=True)
            m2 = (gg * xhat).mean(axis=-1, keepdims=True)
            gx = (gg - m1 - xhat * m2) * inv
        ggain = (g * xhat).reshape(-1, d).sum(axis=0) if need_gain else None
        gbias = g.reshape(-1, d).sum(axis=0) if need_bias else None
        return gx, ggain, gbias

    return _record(out, (x, gain, bias), grad_fn)


def embedding_rows(table: Tensor, ids) -> Tensor:
    """Gather rows of `table` by integer id."""
    ids = np.asarray(ids, dtype=np.int64)
    out = Tensor._wrap(embedding_fwd(table.data, ids), False)
    shape = table.shape

    def grad_fn(g):
        gt = np.zeros(shape)
        np.add.at(gt, ids, g)
        return (gt,)

    return _record(out, (table,), grad_fn)


def rotate_pairs(x: Tensor, angles) -> Tensor:
    """Rotate consecutive coordinate pairs of each row by the given angles.

    angles has shape (n, d/2); rotation is norm-preserving and linear, so the
    backward pass is the inverse rotation.
    """
    if x.data.ndim != 2 or x.shape[1] % 2 != 0:
        raise ValueError("rotate_pairs expects (n, d) with even d")
    ang = np.asarray(angles, dtype=np.float64)
    if ang.shape != (x.shape[0], x.shape[1] // 2):
        raise ValueError("angles must have shape (n, d/2)")
    cos, sin = np.cos(ang), np.sin(ang)
    xe, xo = x.data[:, 0::2], x.data[:, 1::2]
    y = np.empty_like(x.data)
    y[:, 0::2] = xe * cos - xo * sin
    y[:, 1::2] = xe * sin + xo * cos
    out = Tensor._wrap(y, False)

    def grad_fn(g):
        ge, go = g[:, 0::2], g[:, 1::2]
        gx = np.empty_like(g)
        gx[:, 0::2] = ge * cos + go * sin
        gx[:, 1::2] = -ge * sin + go * cos
        return (gx,)

    return _record(out, (x,), grad_fn)


def dropout(x: Tensor, p: float, rng: np.random.Generator,
            rows: int | None = None) -> Tensor:
    """Inverted dropout; identity when p == 0. The mask is drawn for `rows`
    rows (default x's own) and x takes its last ones, so output rows kept
    from the end of a longer input see that input's random stream."""
    if not 0.0 <= p < 1.0:
        raise ValueError("dropout rate must be in [0, 1)")
    if p == 0.0:
        return x
    n = x.shape[0]
    rows = n if rows is None else rows
    mask = (rng.random((rows,) + x.shape[1:])[rows - n:] >= p) / (1.0 - p)
    out = Tensor._wrap(x.data * mask, False)

    def grad_fn(g):
        return (g * mask,)

    return _record(out, (x,), grad_fn)


def conv(x: Tensor, w: Tensor, b: Tensor, kernel: int, stride: tuple,
         pad: int) -> Tensor:
    """2-D convolution of a channels-last (h, w, c) map, zero-padded by
    `pad`: the (oh*ow, c*k*k) im2col columns, in (c, ki, kj) order, times the
    (c*k*k, c_out) weights through matmul_fwd, plus the (c_out,) bias.
    Returns the (oh, ow, c_out) map."""
    if x.data.ndim != 3:
        raise ValueError("conv expects an (h, w, c) tensor")
    h, width, c = x.shape
    sh, sw = stride
    oh = (h + 2 * pad - kernel) // sh + 1
    ow = (width + 2 * pad - kernel) // sw + 1
    if oh < 1 or ow < 1:
        raise ValueError("conv: kernel does not fit input")
    if w.data.ndim != 2 or b.shape != w.shape[1:]:
        raise ValueError(f"conv: weights {w.shape} and bias {b.shape} do not "
                         f"match")
    c_out = w.shape[1]
    hp, wp = h + 2 * pad, width + 2 * pad
    padded = np.zeros((hp, wp, c))
    padded[pad:pad + h, pad:pad + width] = x.data
    # a strided (oh, ow, c, k, k) view of every patch, copied once
    windows = np.lib.stride_tricks.sliding_window_view(
        padded, (kernel, kernel), axis=(0, 1))[::sh, ::sw]
    cols = np.ascontiguousarray(windows).reshape(oh * ow, c * kernel * kernel)
    y = matmul_fwd(cols, w.data)
    y += b.data
    out = Tensor._wrap(y.reshape(oh, ow, c_out), False)
    # the columns serve the weight gradient, the weights the input gradient
    wd = w.data if x.requires_grad else None
    cols = cols if w.requires_grad else None
    need_b = b.requires_grad

    def grad_fn(g):
        g = g.reshape(oh * ow, c_out)
        gx = None
        if wd is not None:
            gc = (g @ wd.T).reshape(oh, ow, c, kernel, kernel)
            # col2im into stride-phase planes: padded element (r, s) lives at
            # planes[r % sh, s % sw, r // sh, s // sw], so each offset's add
            # writes contiguous ow*c runs. A padded element gets its terms in
            # increasing output position, i.e. decreasing (ki, kj): the order
            # a scatter-add over the patch rows would use, so the sums match
            # it bitwise
            planes = np.zeros((sh, sw, -(-hp // sh), -(-wp // sw), c))
            for ki in reversed(range(kernel)):
                for kj in reversed(range(kernel)):
                    planes[ki % sh, kj % sw, ki // sh:ki // sh + oh,
                           kj // sw:kj // sw + ow] += gc[:, :, :, ki, kj]
            gpad = planes.transpose(2, 0, 3, 1, 4).reshape(
                sh * planes.shape[2], sw * planes.shape[3], c)
            gx = gpad[pad:pad + h, pad:pad + width]
        gw = cols.T @ g if cols is not None else None
        gb = g.sum(axis=0) if need_b else None
        return gx, gw, gb

    return _record(out, (x, w, b), grad_fn)


# ---------------------------------------------------------------------------
# verification


def central_differences(flat: np.ndarray, analytic: np.ndarray, value,
                        h: float, floor: float, stride: int = 1) -> tuple:
    """Worst error of `analytic` against central differences of the scalar
    `value()` over every stride-th coordinate of `flat` (a view of what
    `value` reads, perturbed in place), relative to max(|numeric|,
    |analytic|, floor), and its index (-1 when every error is 0)."""
    worst, where = 0.0, -1
    for i in range(0, flat.size, stride):
        keep = flat[i]
        flat[i] = keep + h
        fp = value()
        flat[i] = keep - h
        fm = value()
        flat[i] = keep
        if not (np.isfinite(fp) and np.isfinite(fm)):
            raise ValueError("finite differences: function value is not finite")
        numeric = (fp - fm) / (2.0 * h)
        err = (abs(numeric - analytic[i])
               / max(abs(numeric), abs(analytic[i]), floor))
        if err > worst:
            worst, where = err, i
    return worst, where


def grad_check(f, x: Tensor, h: float = 1e-5) -> float:
    """Worst relative error between backward() and central finite differences
    of the scalar-valued f over every coordinate of x. Relative error uses an
    absolute floor of 1e-8 so a zero/zero comparison reports 0."""
    if h <= 0:
        raise ValueError("step size must be positive")
    was_rg = x.requires_grad
    x.requires_grad = True
    x.grad = None
    with Tape():
        loss = f(x)
        if loss.data.size != 1:
            raise ValueError("grad_check needs a scalar-valued function")
        if not np.isfinite(loss.data).all():
            raise ValueError("grad_check: function value is not finite")
        backward(loss)
    analytic = np.zeros(x.shape) if x.grad is None else x.grad.copy()
    x.grad = None
    x.requires_grad = was_rg
    x.data = np.ascontiguousarray(x.data)  # so its flat view below is no copy
    return central_differences(x.data.reshape(-1), analytic.reshape(-1),
                               lambda: f(x).item(), h, 1e-8)[0]
