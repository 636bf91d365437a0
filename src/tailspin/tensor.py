"""Dense double-precision tensors with reverse-mode automatic differentiation.

Define-by-run: every operation builds its output through ``_op``, which,
while a Tape is active, appends one pullback closure to it. ``Tape.backward``
walks the records in exact reverse execution order, accumulates gradients
into participating tensors and then drops the records, so the graph is freed
as soon as the caller lets go of it. Tensors and tapes are confined to a
single thread; there is no locking.
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

    def backward(self, output: "Tensor") -> None:
        """Seed the scalar output with gradient 1 and replay pullbacks in reverse."""
        if self._spent:
            raise TapeError("backward already ran on this tape; re-execute the graph first")
        if output.data.size != 1:
            raise ContractError(f"backward needs a scalar output, got shape {output.shape}")
        if output._tape is not self:
            raise TapeError("output was not produced on this tape (detached or foreign)")
        self._spent = True
        # drop the records before replaying them: each output points back to
        # this tape, so a kept list would hold the whole graph until the cyclic GC
        records, self._records = self._records, []
        output._grad = np.ones_like(output.data)
        for node, pullback in reversed(records):
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


def _as_tensor(x) -> Tensor:
    return x if isinstance(x, Tensor) else Tensor(x)


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


def _op(name: str, value: np.ndarray, *inputs: tuple[Tensor, Callable[[np.ndarray], np.ndarray]]) -> Tensor:
    """Output of op ``name`` with forward ``value`` and one (input, vjp) pair per input.

    The output requires a gradient if any input does. While a tape is active,
    one pullback is recorded; it adds vjp(g) into each input that requires a
    gradient, in argument order, and never calls the vjp of any other input.
    """
    arr = np.ascontiguousarray(value, dtype=np.float64)
    if not np.all(np.isfinite(arr)):
        raise NumericError(f"{name}: produced non-finite values")
    live = [(t, vjp) for t, vjp in inputs if t.requires_grad]
    out = Tensor.__new__(Tensor)
    out.data = arr
    out.requires_grad = bool(live)
    out._grad = None
    out._tape = None
    tape = _active_tape()
    if tape is not None and live:

        def pull(g):
            for t, vjp in live:
                _accum(t, vjp(g))

        out._tape = tape
        tape._records.append((out, pull))
    return out


def _broadcast_op(a: Tensor, b: Tensor, fn, name: str) -> np.ndarray:
    try:
        return fn(a.data, b.data)
    except ValueError:
        raise ShapeError(f"{name}: shapes {a.shape} and {b.shape} are not broadcast-compatible") from None


# ---------------------------------------------------------------------------
# forward operations; each passes its value and per-input vjps to _op

def add(a: Tensor, b: Tensor) -> Tensor:
    return _op("add", _broadcast_op(a, b, np.add, "add"), (a, lambda g: g), (b, lambda g: g))


def sub(a: Tensor, b: Tensor) -> Tensor:
    return _op("sub", _broadcast_op(a, b, np.subtract, "sub"), (a, lambda g: g), (b, lambda g: -g))


def neg(a: Tensor) -> Tensor:
    return _op("neg", -a.data, (a, lambda g: -g))


def mul(a: Tensor, b: Tensor) -> Tensor:
    return _op("mul", _broadcast_op(a, b, np.multiply, "mul"), (a, lambda g: g * b.data), (b, lambda g: g * a.data))


def matmul(a: Tensor, b: Tensor) -> Tensor:
    if a.ndim != 2 or b.ndim != 2 or a.shape[1] != b.shape[0]:
        raise ShapeError(f"matmul: incompatible shapes {a.shape} and {b.shape}")
    return _op("matmul", a.data @ b.data, (a, lambda g: g @ b.data.T), (b, lambda g: a.data.T @ g))


def transpose(a: Tensor) -> Tensor:
    if a.ndim != 2:
        raise ShapeError(f"transpose: expected a 2-d tensor, got shape {a.shape}")
    return _op("transpose", a.data.T, (a, lambda g: g.T))


def relu(a: Tensor) -> Tensor:
    return _op("relu", np.maximum(a.data, 0.0), (a, lambda g: g * (a.data > 0.0)))


def power(a: Tensor, exponent: float) -> Tensor:
    if not isinstance(exponent, (int, float)):
        raise ValidationError("power: exponent must be a plain number")
    p = float(exponent)
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        return _op("power", a.data ** p, (a, lambda g: g * p * a.data ** (p - 1.0)))


def tensor_sum(a: Tensor, axis: int | None = None, keepdims: bool = False) -> Tensor:
    def vjp(g):
        return np.broadcast_to(g if axis is None or keepdims else np.expand_dims(g, axis), a.shape)

    return _op("sum", np.sum(a.data, axis=axis, keepdims=keepdims), (a, vjp))


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

    def vjp(g):
        z = np.zeros_like(a.data)
        np.add.at(z, (rows, idx), g)
        return z

    return _op("gather_rows", a.data[rows, idx], (a, vjp))


def concat_rows(a: Tensor, b: Tensor) -> Tensor:
    if a.ndim != 2 or b.ndim != 2 or a.shape[1] != b.shape[1]:
        raise ShapeError(f"concat_rows: incompatible shapes {a.shape} and {b.shape}")
    split = a.shape[0]
    value = np.concatenate([a.data, b.data], axis=0)
    return _op("concat_rows", value, (a, lambda g: g[:split]), (b, lambda g: g[split:]))


def log_sum_exp(a: Tensor, axis: int = -1) -> Tensor:
    """Overflow-safe log(sum(exp(a))) along one axis."""
    m = np.max(a.data, axis=axis, keepdims=True)
    shifted = np.exp(a.data - m)
    total = np.sum(shifted, axis=axis, keepdims=True)
    soft = shifted / total
    value = np.squeeze(m + np.log(total), axis=axis)
    return _op("log_sum_exp", value, (a, lambda g: soft * np.expand_dims(g, axis)))


def l2_normalize(a: Tensor, axis: int = -1) -> Tensor:
    """Unit-normalize along one axis; vectors with norm < 1e-12 map to zero."""
    norm = np.sqrt(np.sum(a.data * a.data, axis=axis, keepdims=True))
    degenerate = norm < _NORM_FLOOR
    safe = np.where(degenerate, 1.0, norm)
    y = np.where(degenerate, 0.0, a.data / safe)

    def vjp(g):
        inner = np.sum(g * y, axis=axis, keepdims=True)
        return np.where(degenerate, 0.0, (g - y * inner) / safe)

    return _op("l2_normalize", y, (a, vjp))


def stop_gradient(a: Tensor) -> Tensor:
    """Pass values through bitwise unchanged; block all gradient flow."""
    return _op("stop_gradient", a.data)


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
