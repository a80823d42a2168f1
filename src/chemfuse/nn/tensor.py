"""Minimal dense-tensor math with reverse-mode automatic differentiation.

Tensors are 2-D float64 numpy arrays on a dynamically built tape; scalars
are shaped (1, 1). Ops are plain functions returning new tensors;
``backward(loss)`` runs reverse-mode accumulation into every reachable
``Parameter``. Parameter gradients persist across backward calls until
``zero_grad``; intermediate gradients are transient. Inside ``no_grad()``
ops record nothing: each result is a plain leaf.

Gradients are handed on, not copied. No backward writes into the ``g`` it
is given, nor into an array it has passed to ``_accumulate``, since that
array may become another node's gradient as it is. An intermediate keeps
its first gradient as given and sums later contributions into a new array;
a ``Parameter`` owns its buffer and adds each contribution into it in
place, starting from a copy when its grad is None.
"""

from __future__ import annotations

from contextlib import contextmanager
from itertools import accumulate
from typing import Callable, Iterator, Sequence

import numpy as np


class ShapeMismatch(ValueError):
    """Operands have incompatible shapes."""


class NonFiniteInput(ValueError):
    """A NaN or infinity entered the tape."""


class NotScalarLoss(ValueError):
    """backward() was called on a non-(1,1) tensor."""


class Tensor:
    """A 2-D float64 array plus its place in the autodiff tape."""

    __slots__ = ("data", "grad", "requires", "_parents", "_backward")

    def __init__(self, data: np.ndarray, parents: tuple = (),
                 backward: Callable[[np.ndarray], None] | None = None,
                 requires: bool = False):
        self.data = data
        self.grad: np.ndarray | None = None
        self.requires = requires
        self._parents = parents
        self._backward = backward

    @property
    def shape(self) -> tuple[int, int]:
        return self.data.shape

    def item(self) -> float:
        return float(self.data[0, 0])

    def __repr__(self) -> str:
        return f"Tensor(shape={self.data.shape}, requires={self.requires})"


class Parameter(Tensor):
    """Named trainable tensor with a persistent gradient buffer."""

    __slots__ = ("name",)

    def __init__(self, name: str, data: np.ndarray):
        arr = np.asarray(data, dtype=np.float64)
        if arr.ndim != 2:
            raise ShapeMismatch(f"parameter {name!r} must be 2-D, got {arr.shape}")
        if not np.all(np.isfinite(arr)):
            raise NonFiniteInput(f"parameter {name!r} initialized with non-finite values")
        super().__init__(arr, requires=True)
        self.name = name
        self.grad = np.zeros_like(arr)

    def zero_grad(self) -> None:
        if self.grad is None:
            self.grad = np.zeros_like(self.data)
        self.grad.fill(0.0)


def constant(data) -> Tensor:
    """Wrap raw data as a non-trainable tape leaf."""
    arr = np.asarray(data, dtype=np.float64)
    if arr.ndim == 0:
        arr = arr.reshape(1, 1)
    elif arr.ndim == 1:
        arr = arr.reshape(1, -1)
    elif arr.ndim != 2:
        raise ShapeMismatch(f"constants must be at most 2-D, got shape {arr.shape}")
    if not np.all(np.isfinite(arr)):
        raise NonFiniteInput("constant contains NaN or infinity")
    return Tensor(arr)


def _accumulate(t: Tensor, g: np.ndarray) -> None:
    if not t.requires:
        return
    if t.grad is None:
        t.grad = g.copy() if isinstance(t, Parameter) else g
    elif isinstance(t, Parameter):
        t.grad += g
    else:
        t.grad = t.grad + g


_recording = True


@contextmanager
def no_grad() -> Iterator[None]:
    """Run ops without a tape, as for inference: results have no parents and
    no backward, so each op's saved arrays are freed when it returns."""
    global _recording
    previous, _recording = _recording, False
    try:
        yield
    finally:
        _recording = previous


def _taping(parents: Sequence[Tensor]) -> bool:
    """Whether an op on ``parents`` records a node that ``backward`` runs."""
    return _recording and any(p.requires for p in parents)


def _node(data: np.ndarray, parents: Sequence[Tensor],
          backward: Callable[[np.ndarray], None]) -> Tensor:
    if not _recording:
        return Tensor(data)
    requires = any(p.requires for p in parents)
    return Tensor(data, tuple(parents), backward if requires else None, requires)


def backward(loss: Tensor) -> None:
    """Populate gradients of every Parameter reachable from ``loss``."""
    if loss.data.shape != (1, 1):
        raise NotScalarLoss(f"loss must be (1, 1), got {loss.data.shape}")
    if not np.isfinite(loss.data[0, 0]):
        raise NonFiniteInput("loss is not finite")
    topo: list[Tensor] = []
    visited: set[int] = set()
    stack: list[tuple[Tensor, bool]] = [(loss, False)]
    while stack:
        node, expanded = stack.pop()
        if expanded:
            topo.append(node)
            continue
        if id(node) in visited:
            continue
        visited.add(id(node))
        stack.append((node, True))
        for parent in node._parents:
            stack.append((parent, False))
    for node in topo:
        if not isinstance(node, Parameter):
            node.grad = None
    loss.grad = np.ones((1, 1))
    for node in reversed(topo):
        if node._backward is not None and node.grad is not None:
            node._backward(node.grad)
            # Pushed to the parents; free it while the rest of the tape runs.
            node.grad = None


# ----------------------------------------------------------------- arithmetic

def _reduce_to(g: np.ndarray, shape: tuple[int, int]) -> np.ndarray:
    if g.shape == shape:
        return g
    out = g
    if shape[0] == 1 and g.shape[0] != 1:
        out = out.sum(axis=0, keepdims=True)
    if shape[1] == 1 and g.shape[1] != 1:
        out = out.sum(axis=1, keepdims=True)
    return out


def _broadcastable(a: tuple[int, int], b: tuple[int, int]) -> bool:
    return all(x == y or x == 1 or y == 1 for x, y in zip(a, b))


def add(a: Tensor, b: Tensor) -> Tensor:
    if not _broadcastable(a.shape, b.shape):
        raise ShapeMismatch(f"add {a.shape} vs {b.shape}")
    out_data = a.data + b.data

    def bwd(g):
        _accumulate(a, _reduce_to(g, a.shape))
        _accumulate(b, _reduce_to(g, b.shape))

    return _node(out_data, (a, b), bwd)


def mul(a: Tensor, b: Tensor) -> Tensor:
    if not _broadcastable(a.shape, b.shape):
        raise ShapeMismatch(f"mul {a.shape} vs {b.shape}")
    out_data = a.data * b.data

    def bwd(g):
        _accumulate(a, _reduce_to(g * b.data, a.shape))
        _accumulate(b, _reduce_to(g * a.data, b.shape))

    return _node(out_data, (a, b), bwd)


def scale(a: Tensor, factor: float) -> Tensor:
    factor = float(factor)

    def bwd(g):
        _accumulate(a, g * factor)

    return _node(a.data * factor, (a,), bwd)


def sub(a: Tensor, b: Tensor) -> Tensor:
    return add(a, scale(b, -1.0))


def matmul(a: Tensor, b: Tensor) -> Tensor:
    if a.shape[1] != b.shape[0]:
        raise ShapeMismatch(f"matmul {a.shape} @ {b.shape}")
    out_data = a.data @ b.data

    def bwd(g):
        _accumulate(a, g @ b.data.T)
        _accumulate(b, a.data.T @ g)

    return _node(out_data, (a, b), bwd)


def transpose(a: Tensor) -> Tensor:
    def bwd(g):
        _accumulate(a, g.T)

    return _node(a.data.T.copy(), (a,), bwd)


# ---------------------------------------------------------------- activations

def relu(a: Tensor) -> Tensor:
    mask = a.data > 0

    def bwd(g):
        _accumulate(a, g * mask)

    return _node(a.data * mask, (a,), bwd)


_GELU_ALPHA = np.sqrt(2.0 / np.pi)
_GELU_BETA = 0.044715


def _gelu(x: np.ndarray, out: np.ndarray, deriv: np.ndarray | None = None) -> None:
    """Tanh-form GELU of ``x`` into ``out`` (which may be ``x``) and, when
    given, its derivative into ``deriv``, in place and in this order:
        t = tanh(alpha * (x + beta * x^3)),  out = 0.5 * x * (1 + t),
        deriv = 0.5 * x * (1 - t^2) * alpha * (1 + 3 * beta * x^2) + 0.5 * (1 + t).
    """
    square = x * x
    t = square * x
    t *= _GELU_BETA
    t += x
    t *= _GELU_ALPHA
    np.tanh(t, out=t)
    half_x = 0.5 * x
    one_plus_t = 1.0 + t
    if deriv is not None:
        d_inner = square
        d_inner *= 3.0 * _GELU_BETA
        d_inner += 1.0
        d_inner *= _GELU_ALPHA
        np.multiply(t, t, out=t)
        np.subtract(1.0, t, out=t)
        t *= half_x
        t *= d_inner
        np.multiply(one_plus_t, 0.5, out=d_inner)
        np.add(t, d_inner, out=deriv)
    np.multiply(half_x, one_plus_t, out=out)


def gelu(a: Tensor) -> Tensor:
    """Tanh-form gaussian error linear unit (``layers.feed_forward`` fuses
    it with the FFN's two affine maps)."""
    out_data = np.empty_like(a.data)
    deriv = np.empty_like(a.data) if _taping((a,)) else None
    _gelu(a.data, out_data, deriv)

    def bwd(g):
        _accumulate(a, deriv * g)

    return _node(out_data, (a,), bwd)


def softplus(a: Tensor) -> Tensor:
    x = a.data
    out_data = np.logaddexp(0.0, x)

    def bwd(g):
        with np.errstate(over="ignore"):  # exp(-x) = inf gives the exact 0
            _accumulate(a, g / (1.0 + np.exp(-x)))

    return _node(out_data, (a,), bwd)


def softmax_rows(a: Tensor) -> Tensor:
    shifted = a.data - a.data.max(axis=1, keepdims=True)
    e = np.exp(shifted)
    p = e / e.sum(axis=1, keepdims=True)

    def bwd(g):
        dot = (g * p).sum(axis=1, keepdims=True)
        _accumulate(a, p * (g - dot))

    return _node(p, (a,), bwd)


def log_softmax_rows(a: Tensor) -> Tensor:
    shifted = a.data - a.data.max(axis=1, keepdims=True)
    log_z = np.log(np.exp(shifted).sum(axis=1, keepdims=True))
    out_data = shifted - log_z
    p = np.exp(out_data)

    def bwd(g):
        _accumulate(a, g - p * g.sum(axis=1, keepdims=True))

    return _node(out_data, (a,), bwd)


def _layer_norm_forward(x: np.ndarray, gamma: Tensor,
                        beta: Tensor) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Row-wise LayerNorm with epsilon 1e-5; returns the output, x-hat and
    1/std for backward. The statistics take numpy's ``mean`` and ``var``
    steps, so the bits are theirs, but the rows are centred once and the
    centred rows become x-hat in place."""
    n = x.shape[1]
    if gamma.shape != (1, n) or beta.shape != (1, n):
        raise ShapeMismatch(
            f"layer_norm affine shapes {gamma.shape}/{beta.shape} vs {x.shape}")
    xhat = x - np.add.reduce(x, axis=1, keepdims=True) / n
    out = xhat * xhat
    inv = 1.0 / np.sqrt(np.add.reduce(out, axis=1, keepdims=True) / n + 1e-5)
    xhat *= inv
    np.multiply(xhat, gamma.data, out=out)
    out += beta.data
    return out, xhat, inv


def _layer_norm_backward(g: np.ndarray, xhat: np.ndarray, inv: np.ndarray,
                         gamma: Tensor, beta: Tensor) -> np.ndarray:
    """Accumulates the affine gradients of a row-wise LayerNorm and returns
    its input gradient ``(gg - mean(gg) - xhat * sum(gg * xhat) / n) * inv``
    with ``gg = g * gamma``, in that order, in two buffers."""
    _accumulate(gamma, (g * xhat).sum(axis=0, keepdims=True))
    _accumulate(beta, g.sum(axis=0, keepdims=True))
    gg = g * gamma.data
    term = gg * xhat
    np.multiply(xhat, np.add.reduce(term, axis=1, keepdims=True), out=term)
    term /= xhat.shape[1]
    gg -= np.add.reduce(gg, axis=1, keepdims=True) / xhat.shape[1]
    gg -= term
    gg *= inv
    return gg


def layer_norm_rows(a: Tensor, gamma: Tensor, beta: Tensor) -> Tensor:
    out_data, xhat, inv = _layer_norm_forward(a.data, gamma, beta)

    def bwd(g):
        _accumulate(a, _layer_norm_backward(g, xhat, inv, gamma, beta))

    return _node(out_data, (a, gamma, beta), bwd)


def add_layer_norm(a: Tensor, b: Tensor, gamma: Tensor, beta: Tensor) -> Tensor:
    """``layer_norm_rows(add(a, b), gamma, beta)`` as one tape node, bit for
    bit; ``a`` and ``b`` are handed the same input gradient, as by ``add``."""
    if a.shape != b.shape:
        raise ShapeMismatch(f"add_layer_norm {a.shape} + {b.shape}")
    out_data, xhat, inv = _layer_norm_forward(a.data + b.data, gamma, beta)

    def bwd(g):
        d_in = _layer_norm_backward(g, xhat, inv, gamma, beta)
        _accumulate(a, d_in)
        _accumulate(b, d_in)

    return _node(out_data, (a, b, gamma, beta), bwd)


# -------------------------------------------------------- indexing / reshaping

def scatter_add_rows(ids: np.ndarray, g: np.ndarray, rows: int) -> np.ndarray:
    """``rows`` rows where row r sums the rows ``g[i]`` with ``ids[i] == r``,
    bit for bit as ``numpy.add.at`` into zeros; every id is in ``[0, rows)``.

    When no id repeats, each row is assigned. Otherwise a stable sort keeps
    each id's rows in their order, and the runs of one length are summed as
    a (runs, length, c) stack along its middle axis, which numpy adds row
    after row as ``add.at`` does (``np.add.reduceat`` adds the first row
    to the sum of the rest). One column would be summed pairwise, so it is
    accumulated instead. ``+ 0.0`` turns a -0.0 sum into the 0.0 that
    starting from zero gives.
    """
    acc = np.zeros((rows, g.shape[1]))
    if ids.size == 0 or np.bincount(ids, minlength=rows).max() == 1:
        acc[ids] = g + 0.0
    else:
        order = np.argsort(ids, kind="stable")
        sorted_ids = ids[order]
        first = np.flatnonzero(np.diff(sorted_ids, prepend=-1))  # ids are >= 0
        counts = np.diff(first, append=ids.size)
        for count in np.unique(counts):
            starts = first[counts == count]
            runs = g[order[starts[:, None] + np.arange(count)]]
            summed = runs.sum(axis=1) if g.shape[1] > 1 else \
                np.add.accumulate(runs, axis=1)[:, -1]
            acc[sorted_ids[starts]] = summed + 0.0
    return acc


def gather_rows(a: Tensor, rows: Sequence[int]) -> Tensor:
    """The rows ``rows`` of ``a`` in that order, repeats allowed: an
    embedding lookup when ``a`` is a table."""
    idx = np.asarray(list(rows), dtype=np.int64)
    if idx.size and (idx.min() < 0 or idx.max() >= a.shape[0]):
        raise ShapeMismatch(f"row id out of range [0, {a.shape[0]})")
    out_data = a.data[idx]

    def bwd(g):
        if a.requires:
            _accumulate(a, scatter_add_rows(idx, g, a.shape[0]))

    return _node(out_data, (a,), bwd)


def _concat(parts: Sequence[Tensor], axis: int) -> Tensor:
    other = 1 - axis
    if any(p.shape[other] != parts[0].shape[other] for p in parts):
        raise ShapeMismatch(f"concat along axis {axis}: shapes {[p.shape for p in parts]}")
    ends = list(accumulate(p.shape[axis] for p in parts))
    out_data = np.concatenate([p.data for p in parts], axis=axis)

    def bwd(g):
        for p, piece in zip(parts, np.split(g, ends[:-1], axis=axis)):
            _accumulate(p, piece)

    return _node(out_data, tuple(parts), bwd)


def concat_rows(parts: Sequence[Tensor]) -> Tensor:
    return _concat(parts, 0)


def concat_cols(parts: Sequence[Tensor]) -> Tensor:
    return _concat(parts, 1)


def pick(a: Tensor, cols: Sequence[int]) -> Tensor:
    """out[i, 0] = a[i, cols[i]], one entry per row."""
    idx = np.asarray(list(cols), dtype=np.int64)
    if idx.shape[0] != a.shape[0]:
        raise ShapeMismatch(f"pick needs {a.shape[0]} column indices, got {idx.shape[0]}")
    rows = np.arange(a.shape[0])
    out_data = a.data[rows, idx].reshape(-1, 1).copy()

    def bwd(g):
        if not a.requires:
            return
        acc = np.zeros_like(a.data)
        acc[rows, idx] = g[:, 0]
        _accumulate(a, acc)

    return _node(out_data, (a,), bwd)


# ----------------------------------------------------------------- reductions

def sum_all(a: Tensor) -> Tensor:
    def bwd(g):
        _accumulate(a, np.full_like(a.data, g[0, 0]))

    return _node(np.array([[a.data.sum()]]), (a,), bwd)


def mean_all(a: Tensor) -> Tensor:
    size = a.data.size

    def bwd(g):
        _accumulate(a, np.full_like(a.data, g[0, 0] / size))

    return _node(np.array([[a.data.mean()]]), (a,), bwd)


def _by_length(lengths) -> dict[int, list[int]]:
    """Indices of ``lengths`` grouped by value, in order of first appearance."""
    groups: dict[int, list[int]] = {}
    for k, length in enumerate(lengths):
        groups.setdefault(length, []).append(k)
    return groups


def segment_mean(a: Tensor, segments: Sequence[Sequence[int]]) -> Tensor:
    """Row k is the column-wise mean of the rows ``segments[k]`` of ``a``.

    Every segment must be nonempty, its rows in ``[0, a.shape[0])``.
    Segments of one length are summed as a (G, length, c) stack along its
    middle axis, which adds each segment's rows in order exactly as
    ``mean(axis=0)`` does, so a segment's mean does not depend on the
    other segments. The backward scatters each row's shares, group after
    group, with ``scatter_add_rows``.
    """
    rows = [np.asarray(s, dtype=np.int64) for s in segments]
    if not rows or min(len(r) for r in rows) < 1:
        raise ShapeMismatch("segment_mean needs at least one row per segment")
    groups = [(length, members, np.stack([rows[k] for k in members]))
              for length, members in _by_length(len(r) for r in rows).items()]
    out_data = np.empty((len(rows), a.shape[1]))
    for length, members, idx in groups:
        out_data[members] = a.data[idx].sum(axis=1) / length
    # Each row of each segment, and the segment it is in, group after group.
    ids = np.concatenate([idx.ravel() for _, _, idx in groups])
    owner = np.concatenate([np.repeat(members, length) for length, members, _ in groups])
    lengths = np.array([[len(r)] for r in rows], dtype=np.float64)

    def bwd(g):
        if a.requires:
            _accumulate(a, scatter_add_rows(ids, (g / lengths)[owner], a.shape[0]))

    return _node(out_data, (a,), bwd)


def mean_rows(a: Tensor) -> Tensor:
    """Column-wise mean over rows -> (1, c)."""
    return segment_mean(a, [range(a.shape[0])])


def normalize_rows(a: Tensor) -> Tensor:
    """Rows scaled to unit L2 norm (a row with a norm below 1e-12 divides by
    1e-12)."""
    x = a.data
    raw = np.sqrt((x ** 2).sum(axis=1, keepdims=True))
    clamped = raw < 1e-12
    n = np.where(clamped, 1e-12, raw)
    out_data = x / n

    def bwd(g):
        dot = (g * x).sum(axis=1, keepdims=True)
        direction = np.where(clamped, 0.0, dot / (n ** 3))
        _accumulate(a, g / n - x * direction)

    return _node(out_data, (a,), bwd)
