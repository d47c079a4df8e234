"""Minimal reverse-mode automatic differentiation over numpy arrays.

A :class:`Tensor` wraps a float64 ndarray and records the operations that
produced it. Calling :func:`backward` on a scalar output accumulates
gradients into every reachable leaf with ``requires_grad=True``.

The primitive ops are affine arithmetic, matmul (with numpy broadcasting),
reductions, exp/sqrt, sigmoid, gathers (``t[idx]`` is a gather along axis
0), concatenation and segment sums. Gathers and segment sums work along any
axis, and concatenation repeats an input whose leading axes are missing or
of size 1, so they serve path-stacked arrays (see :mod:`coarsegen.nn`).
Blocks the model calls many times per step (the MLP, affine,
vector-neuron, RBF and attention layers in :mod:`coarsegen.nn`, and
channel selection in :mod:`coarsegen.decoder`) are fused: each records one
node whose hand-written backward replaces a chain of primitive nodes, and
whose forward runs the same numpy operations in the same order as that
chain, so forward values are unchanged.

Inside :func:`no_grad` no op records anything: outputs keep no parents and
no backward function, so forward-only work (sampling, equivariance checks)
builds no tape.
"""

from __future__ import annotations

import contextlib
import gc
import math
from itertools import accumulate

import numpy as np

# read by Tensor.__init__; only no_grad() changes it
_recording = True


class Tensor:
    """Node in the computation tape."""

    __slots__ = ("data", "grad", "requires_grad", "_parents", "_backward_fn")

    def __init__(self, data, requires_grad=False, _parents=(), _backward_fn=None):
        self.data = np.asarray(data, dtype=np.float64)
        if not requires_grad and _recording:
            for p in _parents:
                if p.requires_grad:
                    requires_grad = True
                    break
        self.requires_grad = requires_grad
        self.grad = None
        self._parents = _parents if requires_grad else ()
        self._backward_fn = _backward_fn if requires_grad else None

    # -- basic introspection -------------------------------------------------
    @property
    def shape(self):
        return self.data.shape

    @property
    def ndim(self):
        return self.data.ndim

    def __repr__(self):
        return f"Tensor(shape={self.data.shape}, requires_grad={self.requires_grad})"

    # -- arithmetic ----------------------------------------------------------
    def __add__(self, other):
        other = as_tensor(other)
        out_data = self.data + other.data

        def bw(g):
            return (_unbroadcast(g, self.data.shape) if self.requires_grad else None,
                    _unbroadcast(g, other.data.shape) if other.requires_grad else None)

        return Tensor(out_data, _parents=(self, other), _backward_fn=bw)

    __radd__ = __add__

    def __neg__(self):
        return Tensor(-self.data, _parents=(self,), _backward_fn=lambda g: (-g,))

    def __sub__(self, other):
        # one node; x - y is exactly x + (-y) in IEEE arithmetic
        other = as_tensor(other)
        out_data = self.data - other.data

        def bw(g):
            return (_unbroadcast(g, self.data.shape) if self.requires_grad else None,
                    -_unbroadcast(g, other.data.shape) if other.requires_grad else None)

        return Tensor(out_data, _parents=(self, other), _backward_fn=bw)

    def __rsub__(self, other):
        return as_tensor(other) - self

    def __mul__(self, other):
        other = as_tensor(other)
        out_data = self.data * other.data

        def bw(g):
            return (_unbroadcast(g * other.data, self.data.shape)
                    if self.requires_grad else None,
                    _unbroadcast(g * self.data, other.data.shape)
                    if other.requires_grad else None)

        return Tensor(out_data, _parents=(self, other), _backward_fn=bw)

    __rmul__ = __mul__

    def __truediv__(self, other):
        other = as_tensor(other)
        out_data = self.data / other.data

        def bw(g):
            ga = (_unbroadcast(g / other.data, self.data.shape)
                  if self.requires_grad else None)
            gb = (_unbroadcast(-g * self.data / other.data ** 2, other.data.shape)
                  if other.requires_grad else None)
            return ga, gb

        return Tensor(out_data, _parents=(self, other), _backward_fn=bw)

    def __rtruediv__(self, other):
        return as_tensor(other) / self

    def __matmul__(self, other):
        other = as_tensor(other)
        out_data = np.matmul(self.data, other.data)

        def bw(g):
            ga = (_unbroadcast(np.matmul(g, np.swapaxes(other.data, -1, -2)),
                               self.data.shape) if self.requires_grad else None)
            gb = (_unbroadcast(np.matmul(np.swapaxes(self.data, -1, -2), g),
                               other.data.shape) if other.requires_grad else None)
            return ga, gb

        return Tensor(out_data, _parents=(self, other), _backward_fn=bw)

    # -- shape ops -----------------------------------------------------------
    def reshape(self, *shape):
        if len(shape) == 1 and isinstance(shape[0], (tuple, list)):
            shape = tuple(shape[0])
        out_data = self.data.reshape(shape)
        src_shape = self.data.shape
        return Tensor(out_data, _parents=(self,),
                      _backward_fn=lambda g: (g.reshape(src_shape),))

    def __getitem__(self, idx):
        """``t[idx]`` for a 1-D integer array: ``take(t, idx)``, a gather
        along axis 0. No other index is supported."""
        if not (isinstance(idx, np.ndarray) and idx.ndim == 1
                and idx.dtype.kind in "iu"):
            raise TypeError("a Tensor is indexed only by a 1-D integer array, "
                            f"got {idx!r}")
        return take(self, idx)

    # -- reductions ----------------------------------------------------------
    def sum(self, axis=None, keepdims=False):
        out_data = self.data.sum(axis=axis, keepdims=keepdims)
        src_shape = self.data.shape

        def bw(g):
            if axis is not None and not keepdims:
                g = np.expand_dims(g, axis)
            g = np.broadcast_to(g, src_shape)
            # a read-only view serves a node; a leaf's .grad is its own array
            return (g.copy() if self._backward_fn is None else g,)

        return Tensor(out_data, _parents=(self,), _backward_fn=bw)

    def mean(self, axis=None, keepdims=False):
        if axis is None:
            n = self.data.size
        else:
            n = math.prod(self.data.shape[a]
                          for a in (axis if isinstance(axis, tuple) else (axis,)))
        return self.sum(axis=axis, keepdims=keepdims) / float(n)

    # -- elementwise ---------------------------------------------------------
    def exp(self):
        out_data = np.exp(self.data)
        return Tensor(out_data, _parents=(self,),
                      _backward_fn=lambda g: (g * out_data,))

    def sqrt(self):
        out_data = np.sqrt(self.data)
        return Tensor(out_data, _parents=(self,),
                      _backward_fn=lambda g: (g / (2.0 * out_data),))

    def sigmoid(self):
        out_data = _sigmoid(self.data)
        return Tensor(out_data, _parents=(self,),
                      _backward_fn=lambda g: (g * out_data * (1.0 - out_data),))

    def clip(self, lo, hi):
        out_data = np.clip(self.data, lo, hi)
        mask = (self.data > lo) & (self.data < hi)
        return Tensor(out_data, _parents=(self,),
                      _backward_fn=lambda g: (g * mask,))

    def backward(self):
        backward(self)


def as_tensor(x) -> Tensor:
    return x if isinstance(x, Tensor) else Tensor(x)


def _sigmoid(x: np.ndarray) -> np.ndarray:
    """Logistic function of an array, overflow-safe for large |x|."""
    # evaluate exp on the non-positive branch only, so huge |x| can't overflow
    e = np.abs(x)
    np.negative(e, out=e)
    np.exp(e, out=e)
    # 1 where x >= 0 (e <= 1 there), else e (e >= +0); a NaN stays NaN
    out = np.maximum(e, x >= 0)
    e += 1.0
    out /= e
    return out


def _scatter_rows(values: np.ndarray, ids: np.ndarray, n: int,
                  axis: int = 0) -> np.ndarray:
    """Sum the slice ``k`` of ``values`` along ``axis`` into slot ``ids[k]``
    of an array of zeros with ``n`` slots along that axis.

    One ``bincount`` over the flattened (leading, slot, trailing) indices.
    It adds in the order of ``np.add.at`` on zeros, so the result is
    bit-identical, signed zeros included, and each leading index (each path
    of a path-stacked array) gets the sums its own call would give. ``ids``
    must lie in ``[0, n)``.
    """
    lead, trail = values.shape[:axis], values.shape[axis + 1:]
    width, rows = math.prod(trail), math.prod(lead)
    slots = np.arange(rows)[:, None] * n + ids
    flat = slots[..., None] * width + np.arange(width)
    out = np.bincount(flat.reshape(-1), weights=values.reshape(-1),
                      minlength=rows * n * width)
    return out.reshape(lead + (n,) + trail)


def _unbroadcast(g: np.ndarray, shape: tuple) -> np.ndarray:
    """Reduce a gradient back to the shape it was broadcast from."""
    if g.shape == shape:
        return g
    extra = g.ndim - len(shape)
    if extra > 0:
        g = g.sum(axis=tuple(range(extra)))
    axes = tuple(i for i, s in enumerate(shape) if s == 1 and g.shape[i] != 1)
    if axes:
        g = g.sum(axis=axes, keepdims=True)
    return g.reshape(shape)


# -- free functions ----------------------------------------------------------

def concat(tensors, axis=0) -> Tensor:
    """Join ``tensors`` along ``axis``. An input whose axes before ``axis``
    are missing or of size 1 is repeated over them, so one path joins each
    row of a path stack; its gradient is summed over them."""
    tensors = [as_tensor(t) for t in tensors]
    arrays = [t.data for t in tensors]
    try:
        out_data = np.concatenate(arrays, axis=axis)
    except ValueError:
        # the leading axes differ (or the shapes do not fit, which raises again)
        ndim = max(a.ndim for a in arrays)
        heads = [a.shape[:max(axis % ndim - ndim + a.ndim, 0)] for a in arrays]
        lead = np.broadcast_shapes(*heads)
        arrays = [np.broadcast_to(a, lead + a.shape[len(h):]) for a, h in zip(arrays, heads)]
        out_data = np.concatenate(arrays, axis=axis)

    def bw(g):
        splits = list(accumulate(a.shape[axis] for a in arrays[:-1]))
        return tuple(_unbroadcast(part, t.data.shape) if t.requires_grad else None
                     for part, t in zip(np.split(g, splits, axis=axis), tensors))

    return Tensor(out_data, _parents=tuple(tensors), _backward_fn=bw)


def take(t: Tensor, idx: np.ndarray, axis: int = 0) -> Tensor:
    """Gather the slices ``idx`` of ``t`` along ``axis`` (``t[idx]`` for axis 0)."""
    axis %= t.data.ndim
    n = t.data.shape[axis]
    # an index may be negative; bincount wants it in range
    return Tensor(t.data.take(idx, axis=axis), _parents=(t,),
                  _backward_fn=lambda g: (_scatter_rows(g, idx % n, n, axis),))


def segment_sum(t: Tensor, segment_ids: np.ndarray, num_segments: int,
                axis: int = 0) -> Tensor:
    """Sum the slices of ``t`` along ``axis`` into ``num_segments`` buckets
    given by ``segment_ids``, each in ``[0, num_segments)``."""
    t = as_tensor(t)
    axis %= t.data.ndim
    segment_ids = np.asarray(segment_ids, dtype=np.intp)
    out_data = _scatter_rows(t.data, segment_ids, num_segments, axis)
    return Tensor(out_data, _parents=(t,),
                  _backward_fn=lambda g: (g.take(segment_ids, axis=axis),))


@contextlib.contextmanager
def no_grad():
    """Record no tape inside the block.

    Op outputs get ``requires_grad=False`` and keep no parents and no
    backward function, so nothing of the forward outlives its last use. A
    leaf created with ``requires_grad=True`` (a parameter) keeps it. The
    previous state is restored on exit, also when the block raises, so the
    blocks nest. The state is one per process, not per thread.
    """
    global _recording
    previous = _recording
    _recording = False
    try:
        yield
    finally:
        _recording = previous


@contextlib.contextmanager
def gc_paused():
    """Pause Python's cyclic garbage collector for the block.

    A tape holds no reference cycles: every backward closure refers to its
    node's inputs and to arrays, never to the node itself. Reference
    counting frees it, and the collector's scans of its many live nodes
    find nothing. The caller's enabled or disabled state is restored on
    exit, also when the block raises.
    """
    enabled = gc.isenabled()
    gc.disable()
    try:
        yield
    finally:
        if enabled:
            gc.enable()


def backward(out: Tensor) -> None:
    """Reverse-mode accumulation from a scalar output.

    Gradients accumulate into ``.grad`` of every reachable leaf tensor with
    ``requires_grad=True``; repeated calls add up until the grads are reset.
    Each contribution is added to the leaf's ``.grad`` as it arrives, in
    the order the reversed DFS reaches the leaf's consumers. After
    ``.grad = None``, backward calls on graphs that share only leaves
    therefore give the same left fold, bit for bit, as one call on their
    sum: the first call's contributions come first, each in its own order.
    """
    if out.data.size != 1:
        raise ValueError("backward requires a scalar output")
    topo: list[Tensor] = []
    visited: set[int] = set()
    stack_ = [(out, False)]
    while stack_:
        node, processed = stack_.pop()
        if processed:
            topo.append(node)
            continue
        if id(node) in visited or not node.requires_grad:
            continue
        visited.add(id(node))
        stack_.append((node, True))
        # a leaf holds no pending gradient: backward adds to its .grad
        # directly, so the walk needs only the recorded nodes
        for p in node._parents:
            if p._backward_fn is not None and id(p) not in visited:
                stack_.append((p, False))

    grads: dict[int, np.ndarray] = {id(out): np.ones_like(out.data)}
    for node in reversed(topo):
        g = grads.pop(id(node), None)
        if g is None:
            continue
        if node._backward_fn is None:
            node.grad = g if node.grad is None else node.grad + g
            continue
        for parent, pg in zip(node._parents, node._backward_fn(g)):
            if pg is None or not parent.requires_grad:
                continue
            if parent._backward_fn is None:
                parent.grad = pg if parent.grad is None else parent.grad + pg
                continue
            key = id(parent)
            if key in grads:
                grads[key] = grads[key] + pg
            else:
                grads[key] = pg
