"""Dense float64 tensors with reverse-mode gradients.

Small tape-based engine over numpy arrays: each Tensor carries the backward
closure that scatters its gradient to the parents. Shapes broadcast like
numpy; gradients are unbroadcast back to the parent shapes.
"""

from __future__ import annotations

import numpy as np

__all__ = ["Tensor", "concat", "no_grad"]

_grad_enabled = True


class no_grad:
    """Context manager disabling graph construction (inference paths)."""

    def __enter__(self):
        global _grad_enabled
        self._prev = _grad_enabled
        _grad_enabled = False
        return self

    def __exit__(self, *exc):
        global _grad_enabled
        _grad_enabled = self._prev
        return False


def _unbroadcast(grad: np.ndarray, shape: tuple[int, ...]) -> np.ndarray:
    """Sum grad down to `shape` (inverse of numpy broadcasting)."""
    while grad.ndim > len(shape):
        grad = grad.sum(axis=0)
    for axis, size in enumerate(shape):
        if size == 1 and grad.shape[axis] != 1:
            grad = grad.sum(axis=axis, keepdims=True)
    return grad


def matmul_grads(a: np.ndarray, b: np.ndarray, g: np.ndarray,
                 need_a: bool = True, need_b: bool = True):
    """Gradients (ga, gb) of a @ b for the output gradient g, each summed
    down to its operand's shape; None where not needed."""
    ga = gb = None
    if need_a:
        ga = _unbroadcast(g @ np.swapaxes(b, -1, -2), a.shape)
    if need_b:
        if b.ndim == 2 and g.ndim > 2:
            # batched input x 2-D weight: contract the batch axes flat
            # instead of building a stack of outer products
            k = a.shape[-1]
            gb = a.reshape(-1, k).T @ g.reshape(-1, g.shape[-1])
        else:
            gb = _unbroadcast(np.swapaxes(a, -1, -2) @ g, b.shape)
    return ga, gb


def matmul_backward(a: "Tensor", b: "Tensor", g: np.ndarray) -> None:
    """Accumulate the gradients of a.data @ b.data into a and b."""
    ga, gb = matmul_grads(a.data, b.data, g, a.requires_grad, b.requires_grad)
    if ga is not None:
        a._accumulate(ga)
    if gb is not None:
        b._accumulate(gb)


def add_backward(a: "Tensor", b: "Tensor", g: np.ndarray) -> None:
    """Accumulate the gradients of a.data + b.data into a, then b."""
    if a.requires_grad:
        a._accumulate(_unbroadcast(g, a.shape))
    if b.requires_grad:
        b._accumulate(_unbroadcast(g, b.shape))


def mul_backward(a: "Tensor", b: "Tensor", g: np.ndarray) -> None:
    """Accumulate the gradients of a.data * b.data into a, then b."""
    if a.requires_grad:
        a._accumulate(_unbroadcast(g * b.data, a.shape))
    if b.requires_grad:
        b._accumulate(_unbroadcast(g * a.data, b.shape))


def silu_forward(x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """x * sigmoid(x), and the sigmoid its backward reads."""
    sig = 1.0 / (1.0 + np.exp(-x))
    return x * sig, sig


def silu_grad(x: np.ndarray, sig: np.ndarray, g: np.ndarray) -> np.ndarray:
    """Gradient of silu at x for the output gradient g."""
    return g * (sig + x * sig * (1.0 - sig))


class Tensor:
    __slots__ = ("data", "grad", "requires_grad", "_backward", "_parents")

    def __init__(self, data, requires_grad: bool = False):
        if isinstance(data, Tensor):
            data = data.data
        self.data = np.asarray(data, dtype=np.float64)
        self.requires_grad = requires_grad and _grad_enabled
        self.grad: np.ndarray | None = None
        self._backward = None
        self._parents: tuple[Tensor, ...] = ()

    # -- graph plumbing ----------------------------------------------------

    @property
    def shape(self):
        return self.data.shape

    @property
    def ndim(self):
        return self.data.ndim

    def _accumulate(self, grad: np.ndarray) -> None:
        if self.grad is None:
            self.grad = np.array(grad, dtype=np.float64, copy=True)
        else:
            self.grad += grad

    def backward(self, grad=None) -> None:
        if grad is None:
            if self.data.size != 1:
                raise ValueError("backward() without gradient needs a scalar")
            grad = np.ones_like(self.data)
        # depth-first, parents in order, each node listed after its
        # parents; a loop, not a recursive closure, whose reference to
        # itself would keep the whole graph alive until the cyclic
        # garbage collector ran
        topo: list[Tensor] = []
        seen = {id(self)}
        stack = [(self, iter(self._parents))] if self.requires_grad else []
        while stack:
            t, parents = stack[-1]
            for p in parents:
                if id(p) not in seen and p.requires_grad:
                    seen.add(id(p))
                    stack.append((p, iter(p._parents)))
                    break
            else:
                stack.pop()
                topo.append(t)
        if not topo:
            raise RuntimeError("backward on a tensor outside any graph")
        self._accumulate(np.asarray(grad, dtype=np.float64))
        for t in reversed(topo):
            if t._backward is not None and t.grad is not None:
                t._backward(t.grad)

    @staticmethod
    def _make(data, parents, backward):
        # callers pass float64 numpy results: skip __init__'s checks
        out = Tensor.__new__(Tensor)
        out.data = (data if type(data) is np.ndarray
                    else np.asarray(data, dtype=np.float64))
        out.grad = None
        if _grad_enabled and any(p.requires_grad for p in parents):
            out.requires_grad = True
            out._parents = tuple(p for p in parents if p.requires_grad)
            out._backward = backward
        else:
            out.requires_grad = False
            out._parents = ()
            out._backward = None
        return out

    # -- arithmetic ---------------------------------------------------------

    @staticmethod
    def _coerce(other) -> "Tensor":
        return other if isinstance(other, Tensor) else Tensor(other)

    def __add__(self, other):
        other = self._coerce(other)
        return Tensor._make(self.data + other.data, (self, other),
                            lambda g: add_backward(self, other, g))

    __radd__ = __add__

    def __neg__(self):
        def backward(g):
            self._accumulate(-g)

        return Tensor._make(-self.data, (self,), backward)

    def __sub__(self, other):
        return self + (-self._coerce(other))

    def __rsub__(self, other):
        return self._coerce(other) + (-self)

    def __mul__(self, other):
        other = self._coerce(other)
        return Tensor._make(self.data * other.data, (self, other),
                            lambda g: mul_backward(self, other, g))

    __rmul__ = __mul__

    def __truediv__(self, other):
        other = self._coerce(other)

        def backward(g):
            if self.requires_grad:
                self._accumulate(_unbroadcast(g / other.data, self.shape))
            if other.requires_grad:
                other._accumulate(_unbroadcast(
                    -g * self.data / other.data**2, other.shape))

        return Tensor._make(self.data / other.data, (self, other), backward)

    def __matmul__(self, other):
        other = self._coerce(other)

        return Tensor._make(self.data @ other.data, (self, other),
                            lambda g: matmul_backward(self, other, g))

    def __pow__(self, exponent: float):
        def backward(g):
            self._accumulate(g * exponent * self.data ** (exponent - 1))

        return Tensor._make(self.data**exponent, (self,), backward)

    def __getitem__(self, idx):
        def backward(g):
            full = np.zeros_like(self.data)
            np.add.at(full, idx, g)
            self._accumulate(full)

        return Tensor._make(self.data[idx], (self,), backward)

    # -- reductions and shaping ---------------------------------------------

    def sum(self, axis=None, keepdims=False):
        def backward(g):
            if axis is None:
                self._accumulate(np.broadcast_to(g, self.shape).copy())
            else:
                if not keepdims:
                    g = np.expand_dims(g, axis)
                self._accumulate(np.broadcast_to(g, self.shape).copy())

        return Tensor._make(
            self.data.sum(axis=axis, keepdims=keepdims), (self,), backward)

    def mean(self, axis=None, keepdims=False):
        count = self.data.size if axis is None else self.data.shape[axis]
        return self.sum(axis=axis, keepdims=keepdims) * (1.0 / count)

    def reshape(self, *shape):
        if len(shape) == 1 and isinstance(shape[0], (tuple, list)):
            shape = tuple(shape[0])

        def backward(g):
            self._accumulate(g.reshape(self.shape))

        return Tensor._make(self.data.reshape(shape), (self,), backward)

    def swapaxes(self, a: int, b: int):
        def backward(g):
            self._accumulate(np.swapaxes(g, a, b))

        return Tensor._make(np.swapaxes(self.data, a, b), (self,), backward)

    # -- nonlinearities -----------------------------------------------------

    def exp(self):
        out_data = np.exp(self.data)

        def backward(g):
            self._accumulate(g * out_data)

        return Tensor._make(out_data, (self,), backward)

    def log(self):
        def backward(g):
            self._accumulate(g / self.data)

        return Tensor._make(np.log(self.data), (self,), backward)

    def sqrt(self):
        out_data = np.sqrt(self.data)

        def backward(g):
            self._accumulate(g * 0.5 / out_data)

        return Tensor._make(out_data, (self,), backward)

    def silu(self):
        out_data, sig = silu_forward(self.data)
        return Tensor._make(out_data, (self,), lambda g: self._accumulate(
            silu_grad(self.data, sig, g)))

    def cos(self):
        def backward(g):
            self._accumulate(-g * np.sin(self.data))

        return Tensor._make(np.cos(self.data), (self,), backward)

    def item(self) -> float:
        return float(self.data)

    def __repr__(self):
        return f"Tensor(shape={self.shape}, grad={self.requires_grad})"


def concat(tensors: list[Tensor], axis: int = -1) -> Tensor:
    datas = [t.data for t in tensors]

    def backward(g):
        offsets = np.cumsum([0] + [d.shape[axis] for d in datas])
        for t, start, stop in zip(tensors, offsets[:-1], offsets[1:]):
            if t.requires_grad:
                sl = [slice(None)] * g.ndim
                sl[axis] = slice(start, stop)
                t._accumulate(g[tuple(sl)])

    return Tensor._make(np.concatenate(datas, axis=axis), tuple(tensors), backward)
