"""Dense double-precision tensors with reverse-mode automatic differentiation.

Define-by-run: while a Tape is active, every differentiable operation appends
a pullback closure to it. ``Tape.backward`` walks the records in exact reverse
execution order and accumulates gradients into participating tensors. Tensors
and tapes are confined to a single thread; there is no locking.
"""
from __future__ import annotations

import threading
from typing import Callable, Sequence

import numpy as np

from .errors import ContractError, NumericError, OracleError, ShapeError, TapeError, ValidationError

_NORM_FLOOR = 1e-12

# one tape stack per thread: independent runs may train on separate threads
_local = threading.local()


def _tape_stack() -> list["Tape"]:
    stack = getattr(_local, "tapes", None)
    if stack is None:
        stack = _local.tapes = []
    return stack


def _active_tape() -> "Tape | None":
    stack = _tape_stack()
    return stack[-1] if stack else None


class Tape:
    """Execution-ordered record of operations with their pullback closures.

    Backward traverses the records in exact reverse order. A tape is spent
    after one backward pass; reusing it raises TapeError.
    """

    __slots__ = ("_records", "_spent")

    def __init__(self):
        self._records: list[tuple[Tensor, Callable[[np.ndarray], None]]] = []
        self._spent = False

    def __enter__(self) -> "Tape":
        _tape_stack().append(self)
        return self

    def __exit__(self, *exc) -> bool:
        _tape_stack().pop()
        return False

    def _record(self, out: "Tensor", pullback: Callable[[np.ndarray], None]) -> None:
        out._tape = self
        self._records.append((out, pullback))

    def backward(self, output: "Tensor") -> None:
        """Seed the scalar output with gradient 1 and replay pullbacks in reverse."""
        if self._spent:
            raise TapeError("backward already ran on this tape; re-execute the graph first")
        if output.data.size != 1:
            raise ContractError(f"backward needs a scalar output, got shape {output.shape}")
        if output._tape is not self:
            raise TapeError("output was not produced on this tape (detached or foreign)")
        self._spent = True
        output._grad = np.ones_like(output.data)
        for node, pullback in reversed(self._records):
            if node._grad is not None:
                pullback(node._grad)


class Tensor:
    """Row-major float64 array plus gradient slot and tape bookkeeping."""

    __slots__ = ("data", "requires_grad", "_grad", "_tape")

    def __init__(self, data, requires_grad: bool = False):
        arr = np.ascontiguousarray(np.asarray(data, dtype=np.float64))
        if not np.all(np.isfinite(arr)):
            raise NumericError("tensor creation: data contains NaN or Inf")
        self.data = arr
        self.requires_grad = bool(requires_grad)
        self._grad: np.ndarray | None = None
        self._tape: Tape | None = None

    @property
    def shape(self) -> tuple[int, ...]:
        return self.data.shape

    @property
    def ndim(self) -> int:
        return self.data.ndim

    @property
    def size(self) -> int:
        return self.data.size

    @property
    def grad(self) -> np.ndarray | None:
        """Accumulated gradient; exact zeros for a non-participating grad leaf."""
        if self._grad is not None:
            return self._grad
        if self.requires_grad:
            return np.zeros_like(self.data)
        return None

    def zero_grad(self) -> None:
        self._grad = None

    def item(self) -> float:
        if self.data.size != 1:
            raise ContractError(f"item() needs a single-element tensor, got shape {self.shape}")
        return float(self.data.reshape(()))

    def __repr__(self) -> str:
        return f"Tensor(shape={self.shape}, requires_grad={self.requires_grad})"

    # operator sugar; plain numbers and arrays become constant tensors
    def __add__(self, other):
        return add(self, _as_tensor(other))

    def __radd__(self, other):
        return add(_as_tensor(other), self)

    def __sub__(self, other):
        return sub(self, _as_tensor(other))

    def __rsub__(self, other):
        return sub(_as_tensor(other), self)

    def __mul__(self, other):
        return mul(self, _as_tensor(other))

    def __rmul__(self, other):
        return mul(_as_tensor(other), self)

    def __neg__(self):
        return neg(self)

    def __matmul__(self, other):
        return matmul(self, _as_tensor(other))

    @property
    def T(self) -> "Tensor":
        return transpose(self)

    def sum(self, axis=None, keepdims=False) -> "Tensor":
        return tensor_sum(self, axis=axis, keepdims=keepdims)

    def mean(self, axis=None, keepdims=False) -> "Tensor":
        return mean(self, axis=axis, keepdims=keepdims)

    def relu(self) -> "Tensor":
        return relu(self)


def _as_tensor(x) -> Tensor:
    return x if isinstance(x, Tensor) else Tensor(x)


def _make(arr: np.ndarray, requires_grad: bool, op: str) -> Tensor:
    out = Tensor.__new__(Tensor)
    arr = np.ascontiguousarray(arr, dtype=np.float64)
    if not np.all(np.isfinite(arr)):
        raise NumericError(f"{op}: produced non-finite values")
    out.data = arr
    out.requires_grad = requires_grad
    out._grad = None
    out._tape = None
    return out


def _unbroadcast(grad: np.ndarray, shape: tuple[int, ...]) -> np.ndarray:
    """Sum a broadcast gradient back down to the operand's shape."""
    while grad.ndim > len(shape):
        grad = grad.sum(axis=0)
    for i, s in enumerate(shape):
        if s == 1 and grad.shape[i] != 1:
            grad = grad.sum(axis=i, keepdims=True)
    return grad.reshape(shape)


def _accum(t: Tensor, g: np.ndarray) -> None:
    g = _unbroadcast(np.asarray(g, dtype=np.float64), t.data.shape)
    t._grad = g.copy() if t._grad is None else t._grad + g


def _maybe_record(out: Tensor, pullback: Callable[[np.ndarray], None]) -> None:
    tape = _active_tape()
    if tape is not None and out.requires_grad:
        tape._record(out, pullback)


def _broadcast_op(a: Tensor, b: Tensor, fn, name: str) -> np.ndarray:
    try:
        return fn(a.data, b.data)
    except ValueError:
        raise ShapeError(f"{name}: shapes {a.shape} and {b.shape} are not broadcast-compatible") from None


# ---------------------------------------------------------------------------
# forward operations, each registering its pullback on the active tape

def add(a: Tensor, b: Tensor) -> Tensor:
    out = _make(_broadcast_op(a, b, np.add, "add"), a.requires_grad or b.requires_grad, "add")

    def pull(g):
        if a.requires_grad:
            _accum(a, g)
        if b.requires_grad:
            _accum(b, g)

    _maybe_record(out, pull)
    return out


def sub(a: Tensor, b: Tensor) -> Tensor:
    out = _make(_broadcast_op(a, b, np.subtract, "sub"), a.requires_grad or b.requires_grad, "sub")

    def pull(g):
        if a.requires_grad:
            _accum(a, g)
        if b.requires_grad:
            _accum(b, -g)

    _maybe_record(out, pull)
    return out


def neg(a: Tensor) -> Tensor:
    out = _make(-a.data, a.requires_grad, "neg")

    def pull(g):
        _accum(a, -g)

    _maybe_record(out, pull)
    return out


def mul(a: Tensor, b: Tensor) -> Tensor:
    out = _make(_broadcast_op(a, b, np.multiply, "mul"), a.requires_grad or b.requires_grad, "mul")

    def pull(g):
        if a.requires_grad:
            _accum(a, g * b.data)
        if b.requires_grad:
            _accum(b, g * a.data)

    _maybe_record(out, pull)
    return out


def matmul(a: Tensor, b: Tensor) -> Tensor:
    if a.ndim != 2 or b.ndim != 2 or a.shape[1] != b.shape[0]:
        raise ShapeError(f"matmul: incompatible shapes {a.shape} and {b.shape}")
    out = _make(a.data @ b.data, a.requires_grad or b.requires_grad, "matmul")

    def pull(g):
        if a.requires_grad:
            _accum(a, g @ b.data.T)
        if b.requires_grad:
            _accum(b, a.data.T @ g)

    _maybe_record(out, pull)
    return out


def transpose(a: Tensor) -> Tensor:
    if a.ndim != 2:
        raise ShapeError(f"transpose: expected a 2-d tensor, got shape {a.shape}")
    out = _make(a.data.T, a.requires_grad, "transpose")

    def pull(g):
        _accum(a, g.T)

    _maybe_record(out, pull)
    return out


def relu(a: Tensor) -> Tensor:
    out = _make(np.maximum(a.data, 0.0), a.requires_grad, "relu")

    def pull(g):
        _accum(a, g * (a.data > 0.0))

    _maybe_record(out, pull)
    return out


def power(a: Tensor, exponent: float) -> Tensor:
    if not isinstance(exponent, (int, float)):
        raise ValidationError("power: exponent must be a plain number")
    p = float(exponent)
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        out = _make(a.data ** p, a.requires_grad, "power")

    def pull(g):
        _accum(a, g * p * a.data ** (p - 1.0))

    _maybe_record(out, pull)
    return out


def log(a: Tensor) -> Tensor:
    with np.errstate(divide="ignore", invalid="ignore"):
        out = _make(np.log(a.data), a.requires_grad, "log")

    def pull(g):
        _accum(a, g / a.data)

    _maybe_record(out, pull)
    return out


def exp(a: Tensor) -> Tensor:
    with np.errstate(over="ignore"):
        out = _make(np.exp(a.data), a.requires_grad, "exp")

    def pull(g):
        _accum(a, g * out.data)

    _maybe_record(out, pull)
    return out


def tensor_sum(a: Tensor, axis: int | None = None, keepdims: bool = False) -> Tensor:
    out = _make(np.sum(a.data, axis=axis, keepdims=keepdims), a.requires_grad, "sum")

    def pull(g):
        if axis is None:
            expanded = np.broadcast_to(g.reshape((1,) * a.ndim), a.shape)
        else:
            expanded = g if keepdims else np.expand_dims(g, axis)
            expanded = np.broadcast_to(expanded, a.shape)
        _accum(a, expanded)

    _maybe_record(out, pull)
    return out


def mean(a: Tensor, axis: int | None = None, keepdims: bool = False) -> Tensor:
    n = a.size if axis is None else a.shape[axis]
    return mul(tensor_sum(a, axis=axis, keepdims=keepdims), _as_tensor(1.0 / n))


def gather_rows(a: Tensor, indices) -> Tensor:
    """out[b] = a[b, indices[b]] for a 2-d tensor."""
    idx = np.asarray(indices)
    if a.ndim != 2 or idx.ndim != 1 or idx.shape[0] != a.shape[0]:
        raise ShapeError(f"gather_rows: tensor shape {a.shape} vs index shape {idx.shape}")
    if idx.size and (idx.min() < 0 or idx.max() >= a.shape[1]):
        raise ValidationError(f"gather_rows: index out of range for {a.shape[1]} columns")
    rows = np.arange(a.shape[0])
    out = _make(a.data[rows, idx], a.requires_grad, "gather_rows")

    def pull(g):
        z = np.zeros_like(a.data)
        np.add.at(z, (rows, idx), g)
        _accum(a, z)

    _maybe_record(out, pull)
    return out


def concat_rows(a: Tensor, b: Tensor) -> Tensor:
    if a.ndim != 2 or b.ndim != 2 or a.shape[1] != b.shape[1]:
        raise ShapeError(f"concat_rows: incompatible shapes {a.shape} and {b.shape}")
    out = _make(np.concatenate([a.data, b.data], axis=0), a.requires_grad or b.requires_grad, "concat_rows")
    split = a.shape[0]

    def pull(g):
        if a.requires_grad:
            _accum(a, g[:split])
        if b.requires_grad:
            _accum(b, g[split:])

    _maybe_record(out, pull)
    return out


def log_sum_exp(a: Tensor, axis: int = -1) -> Tensor:
    """Overflow-safe log(sum(exp(a))) along one axis."""
    m = np.max(a.data, axis=axis, keepdims=True)
    shifted = np.exp(a.data - m)
    total = np.sum(shifted, axis=axis, keepdims=True)
    out = _make(np.squeeze(m + np.log(total), axis=axis), a.requires_grad, "log_sum_exp")
    soft = shifted / total

    def pull(g):
        _accum(a, soft * np.expand_dims(g, axis))

    _maybe_record(out, pull)
    return out


def softmax(a: Tensor, axis: int = -1) -> Tensor:
    m = np.max(a.data, axis=axis, keepdims=True)
    e = np.exp(a.data - m)
    y = e / np.sum(e, axis=axis, keepdims=True)
    out = _make(y, a.requires_grad, "softmax")

    def pull(g):
        inner = np.sum(g * y, axis=axis, keepdims=True)
        _accum(a, y * (g - inner))

    _maybe_record(out, pull)
    return out


def l2_normalize(a: Tensor, axis: int = -1) -> Tensor:
    """Unit-normalize along one axis; vectors with norm < 1e-12 map to zero."""
    norm = np.sqrt(np.sum(a.data * a.data, axis=axis, keepdims=True))
    degenerate = norm < _NORM_FLOOR
    safe = np.where(degenerate, 1.0, norm)
    y = np.where(degenerate, 0.0, a.data / safe)
    out = _make(y, a.requires_grad, "l2_normalize")

    def pull(g):
        inner = np.sum(g * y, axis=axis, keepdims=True)
        gx = np.where(degenerate, 0.0, (g - y * inner) / safe)
        _accum(a, gx)

    _maybe_record(out, pull)
    return out


def stop_gradient(a: Tensor) -> Tensor:
    """Pass values through bitwise unchanged; block all gradient flow."""
    out = Tensor.__new__(Tensor)
    out.data = a.data
    out.requires_grad = False
    out._grad = None
    out._tape = None
    return out


def negative_cosine_similarity(p: Tensor, z: Tensor) -> Tensor:
    """Batch mean of -cos(p_i, z_i) over rows."""
    dots = tensor_sum(mul(l2_normalize(p), l2_normalize(z)), axis=-1)
    return neg(mean(dots))


def standardize_columns(a: Tensor, eps: float = 1e-9) -> Tensor:
    """Zero-mean unit-variance per column over the batch axis (biased variance)."""
    if a.ndim != 2 or a.shape[0] < 2:
        raise ContractError(f"standardize_columns: need a (B>=2, d) tensor, got {a.shape}")
    mu = mean(a, axis=0, keepdims=True)
    centered = sub(a, mu)
    var = mean(mul(centered, centered), axis=0, keepdims=True)
    return mul(centered, power(add(var, _as_tensor(eps)), -0.5))


# ---------------------------------------------------------------------------

def finite_diff_check(f: Callable[[], Tensor], params: Sequence[Tensor], step: float = 1e-5) -> float:
    """Max relative error between tape gradients of f() and central differences.

    f must be a deterministic closure over ``params`` returning a scalar
    tensor; determinism is verified by evaluating it twice. Error per
    coordinate is |analytic - fd| / max(1, |analytic|).
    """
    if step <= 0:
        raise ValidationError("finite_diff_check: step must be positive")

    def value() -> float:
        return f().item()

    if value() != value():
        raise OracleError("finite_diff_check: objective is not deterministic")

    for p in params:
        p.zero_grad()
    with Tape() as tape:
        out = f()
        tape.backward(out)
    analytic = [np.array(p.grad) for p in params]

    worst = 0.0
    for p, an in zip(params, analytic):
        flat = p.data.reshape(-1)
        aflat = an.reshape(-1)
        for i in range(flat.size):
            orig = flat[i]
            flat[i] = orig + step
            f_plus = value()
            flat[i] = orig - step
            f_minus = value()
            flat[i] = orig
            fd = (f_plus - f_minus) / (2.0 * step)
            err = abs(aflat[i] - fd) / max(1.0, abs(aflat[i]))
            if err > worst:
                worst = err
    return worst
