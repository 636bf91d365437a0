"""Dense tensors with reverse-mode automatic differentiation.

A tensor holds float32 data if it was given float32, and float64 otherwise;
every op works and records in its inputs' dtype, never casting. The package
keeps one precision boundary: ``pipeline.pretrain`` runs self-supervised
pretraining (its views, forward, backward and optimizer state) in float32 and
hands back float64 parameters holding the float32 values, and everything else
(gradient checks, fine-tuning, the single-stage baseline, sigma*, priors and
evaluation) runs in float64.

Define-by-run: every operation builds its output through ``_op``, which,
while a Tape is active, appends one (output, vjp) record to it; vjp(output
gradient) returns the (input, gradient) pairs of the op's inputs that
require a gradient. ``Tape.backward`` walks the records in exact reverse
execution order, adds each gradient into its input and then drops the
records, so the graph is freed as soon as the caller lets go of it. Tensors
and tapes are confined to a single thread; there is no locking.
"""
from __future__ import annotations

import threading
from typing import Callable, Sequence

import numpy as np

from .errors import ContractError, NumericError, OracleError, ShapeError, TapeError, ValidationError

_NORM_FLOOR = 1e-12


class _TapeStack(threading.local):
    """The active tapes of one thread, innermost last: independent runs may
    train on separate threads."""

    def __init__(self):
        self.tapes: list[Tape] = []


_stack = _TapeStack()


class Tape:
    """Execution-ordered (output, vjp) records, one per operation.

    Backward traverses the records in exact reverse order. A tape is spent
    after one backward pass; reusing it raises TapeError.
    """

    __slots__ = ("_records", "_spent")

    def __init__(self):
        self._records: list[tuple[Tensor, Callable[[np.ndarray], list[tuple[Tensor, np.ndarray]]]]] = []
        self._spent = False

    def __enter__(self) -> "Tape":
        _stack.tapes.append(self)
        return self

    def __exit__(self, *exc) -> bool:
        _stack.tapes.pop()
        return False

    def backward(self, output: "Tensor") -> None:
        """Seed the scalar output with gradient 1 and apply the records in reverse.

        A tensor used by several ops sums its contributions in reverse
        execution order: (c3 + c2) + c1 for uses 1, 2, 3, and the pairs of one
        record in the order its vjp returns them. The first is kept as the vjp
        returned it, and later ones are added into it in place."""
        if self._spent:
            raise TapeError("backward already ran on this tape; re-execute the graph first")
        if output.data.size != 1:
            raise ContractError(f"backward needs a scalar output, got shape {output.shape}")
        # the loss is almost always the last record, so search from the end
        if not any(node is output for node, _ in reversed(self._records)):
            raise TapeError("output was not produced on this tape (detached or foreign)")
        self._spent = True
        # drop the records before replaying them, so the graph is freed as the
        # gradients are applied even while the caller still holds this tape
        records, self._records = self._records, []
        output._grad = np.ones_like(output.data)
        for node, vjp in reversed(records):
            if node._grad is not None:
                for t, grad in vjp(node._grad):
                    if t._grad is None:
                        t._grad = grad
                    else:
                        t._grad += grad


class Tensor:
    """Row-major array plus its gradient slot: float32 data stays float32, and any
    other data becomes float64. It holds no tape pointer.

    ``flatten`` can make ``data`` a view of one slice of a flat vector
    (``_flat`` is then that vector and the slice's offset).
    """

    __slots__ = ("data", "requires_grad", "_grad", "_flat")

    def __init__(self, data, requires_grad: bool = False):
        arr = np.asarray(data)
        arr = np.ascontiguousarray(arr, dtype=np.float32 if arr.dtype == np.float32 else np.float64)
        if not np.isfinite(arr).all():
            raise NumericError("tensor creation: data contains NaN or Inf")
        self.data = arr
        self.requires_grad = bool(requires_grad)
        self._grad: np.ndarray | None = None
        self._flat: tuple[np.ndarray, int] | None = None

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
    """Sum a broadcast gradient back down to the operand's shape; ``grad``
    itself when nothing was broadcast."""
    if grad.shape == shape:
        return grad
    while grad.ndim > len(shape):
        grad = grad.sum(axis=0)
    for i, s in enumerate(shape):
        if s == 1 and grad.shape[i] != 1:
            grad = grad.sum(axis=i, keepdims=True)
    return grad.reshape(shape)


def flatten(tensors: Sequence[Tensor]) -> np.ndarray:
    """The vector whose consecutive slices hold the tensors' data, in order, in their dtype.

    If the tensors already tile one run of a vector made here, that run (a
    view); otherwise a new vector holding their values, each tensor's data
    becoming a view of its slice. Values, shapes and bits never change. A
    tensor listed twice is a ContractError.
    """
    if tensors and tensors[0]._flat is not None:
        vector, start = tensors[0]._flat
        end = start
        for t in tensors:
            if t._flat is None or t._flat[0] is not vector or t._flat[1] != end or t.data.base is not vector:
                break
            end += t.data.size
        else:
            return vector[start:end]
    if len({id(t) for t in tensors}) != len(tensors):
        raise ContractError("flatten: a tensor is listed twice")
    vector = np.concatenate([t.data.ravel() for t in tensors]) if tensors else np.zeros(0)
    at = 0
    for t in tensors:
        t.data = vector[at : at + t.data.size].reshape(t.data.shape)
        t._flat = (vector, at)
        at += t.data.size
    return vector


def cast(tensors: Sequence[Tensor], dtype) -> None:
    """Round each tensor's data to ``dtype`` in place: the tensor, its shape and its
    flags stay, and it leaves any flat vector that it was a view of. A tensor
    already in ``dtype`` is left as it is."""
    for t in tensors:
        if t.data.dtype != dtype:
            t.data, t._flat = t.data.astype(dtype), None


def _op(name: str, value: np.ndarray, vjp: Callable[[np.ndarray], list[tuple[Tensor, np.ndarray]]],
        *inputs: Tensor) -> Tensor:
    """Output of op ``name`` with forward ``value``, computed from ``inputs``.

    The output requires a gradient if any input does. While a tape is active,
    such an output adds one (output, vjp) record. vjp(g) returns the (input,
    gradient) pairs of the inputs that require a gradient, in the order
    backward adds them, and never forms another input's gradient; an input
    may appear in several pairs. The output keeps the dtype of ``value``, which
    is that of the inputs. Each gradient is a new, writable ndarray with its
    input's shape and dtype, and the tape may keep it: an op that
    broadcast an input sums the gradient back down itself, and one whose
    gradient would be a view copies it. (For a 0-d input, NumPy arithmetic
    gives a scalar of that dtype, which serves alike.) A non-finite output is a
    NumericError; a fused op checks itself any intermediate that a later step
    could hide.
    """
    arr = np.ascontiguousarray(value)
    if not np.isfinite(arr).all():
        raise NumericError(f"{name}: produced non-finite values")
    out = _checked(arr, any([t.requires_grad for t in inputs]))
    if out.requires_grad and _stack.tapes:
        _stack.tapes[-1]._records.append((out, vjp))
    return out


def _checked(arr: np.ndarray, requires_grad: bool = False) -> Tensor:
    """A Tensor over ``arr`` itself, a C-contiguous float32 or float64 array that a check found finite."""
    out = Tensor.__new__(Tensor)
    out.data, out.requires_grad, out._grad, out._flat = arr, requires_grad, None, None
    return out


def _each(*grads: tuple[Tensor, Callable[[np.ndarray], np.ndarray]]):
    """The vjp of an op whose inputs' gradients are formed independently, from
    (input, gradient function) per input: the pairs of the inputs that require
    a gradient, in argument order."""
    live = [(t, grad) for t, grad in grads if t.requires_grad]
    return lambda g: [(t, grad(g)) for t, grad in live]


def _broadcast_op(a: Tensor, b: Tensor, fn, name: str) -> np.ndarray:
    try:
        return fn(a.data, b.data)
    except ValueError:
        raise ShapeError(f"{name}: shapes {a.shape} and {b.shape} are not broadcast-compatible") from None


# ---------------------------------------------------------------------------
# forward operations; each passes its value, its vjp and its inputs to _op

def add(a: Tensor, b: Tensor) -> Tensor:
    return _op("add", _broadcast_op(a, b, np.add, "add"),
               _each((a, lambda g: np.array(_unbroadcast(g, a.shape))), (b, lambda g: np.array(_unbroadcast(g, b.shape)))),
               a, b)


def sub(a: Tensor, b: Tensor) -> Tensor:
    return _op("sub", _broadcast_op(a, b, np.subtract, "sub"),
               _each((a, lambda g: np.array(_unbroadcast(g, a.shape))), (b, lambda g: _unbroadcast(-g, b.shape))), a, b)


def mul(a: Tensor, b: Tensor) -> Tensor:
    return _op("mul", _broadcast_op(a, b, np.multiply, "mul"),
               _each((a, lambda g: _unbroadcast(g * b.data, a.shape)), (b, lambda g: _unbroadcast(g * a.data, b.shape))),
               a, b)


def matmul(a: Tensor, b: Tensor) -> Tensor:
    if a.ndim != 2 or b.ndim != 2 or a.shape[1] != b.shape[0]:
        raise ShapeError(f"matmul: incompatible shapes {a.shape} and {b.shape}")
    return _op("matmul", a.data @ b.data, _each((a, lambda g: g @ b.data.T), (b, lambda g: a.data.T @ g)), a, b)


def mlp(x: Tensor, params: Sequence[Tensor]) -> Tensor:
    """A multilayer perceptron on x as one record: ``params`` holds each layer's
    W and b in turn, and every layer but the last applies a ReLU to h @ W + b.

    Each layer forms one product over all of x's rows, and the vjp one g @ W.T,
    one h.T @ g and one bias sum; it returns, last layer first, x's gradient
    (first layer only), then the layer's W and b pairs, the order of the
    reverse tape over one record per layer, so values and gradients equal
    relu(add(matmul(h, W), b)) per layer bit for bit. The finiteness check
    reads each hidden layer's pre-activation, since max(-inf, 0) hides an
    overflow; the ReLU then overwrites it in place. Gradients stop at the first
    layer whose input requires none. Memory grows with x's rows.
    """
    if x.data.ndim != 2:
        raise ShapeError(f"mlp: expected a 2-d input, got shape {x.shape}")
    if not params or len(params) % 2:
        raise ContractError(f"mlp: expected a weight and a bias per layer, got {len(params)} tensors")
    last = len(params) - 2
    layers = []  # per layer: its input, W, b, ReLU mask (None on the last) and whether the input needs a gradient
    h, needs = x.data, x.requires_grad
    for i in range(0, len(params), 2):
        weight, bias = params[i], params[i + 1]
        if weight.ndim != 2 or h.shape[1] != weight.shape[0]:
            raise ShapeError(f"mlp: layer {i // 2} input {h.shape} vs weight {weight.shape}")
        if bias.shape != (weight.shape[1],):
            raise ShapeError(f"mlp: layer {i // 2} bias {bias.shape} vs weight {weight.shape}")
        pre = h @ weight.data
        pre += bias.data
        active = None
        if i < last:  # the ReLU could hide an overflow; _op checks the last layer's output
            if not np.isfinite(pre).all():
                raise NumericError(f"mlp: layer {i // 2} produced non-finite values")
            active = pre > 0.0
            np.maximum(pre, 0.0, out=pre)
        layers.append((h, weight, bias, active, needs))
        h = pre
        needs = needs or weight.requires_grad or bias.requires_grad

    def vjp(g):
        pairs = []
        for i in range(len(layers) - 1, -1, -1):
            h, weight, bias, active, needs = layers[i]
            if active is not None:
                g = g * active
            if needs:
                grad_h = g @ weight.data.T
                if i == 0:
                    pairs.append((x, grad_h))
            if weight.requires_grad:
                pairs.append((weight, h.T @ g))
            if bias.requires_grad:
                pairs.append((bias, g.sum(axis=0)))
            if not needs:
                break
            g = grad_h
        return pairs

    return _op("mlp", h, vjp, x, *params)


def transpose(a: Tensor) -> Tensor:
    if a.ndim != 2:
        raise ShapeError(f"transpose: expected a 2-d tensor, got shape {a.shape}")
    return _op("transpose", a.data.T, lambda g: [(a, g.T.copy())], a)


def relu(a: Tensor) -> Tensor:
    return _op("relu", np.maximum(a.data, 0.0), lambda g: [(a, g * (a.data > 0.0))], a)


def power(a: Tensor, exponent: float) -> Tensor:
    if not isinstance(exponent, (int, float)):
        raise ValidationError("power: exponent must be a plain number")
    p = float(exponent)
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        return _op("power", a.data ** p, lambda g: [(a, g * p * a.data ** (p - 1.0))], a)


def tensor_sum(a: Tensor, axis: int | None = None, keepdims: bool = False) -> Tensor:
    def vjp(g):
        return [(a, np.broadcast_to(g if axis is None or keepdims else np.expand_dims(g, axis), a.shape).copy())]

    return _op("sum", np.sum(a.data, axis=axis, keepdims=keepdims), vjp, a)


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
        return [(a, z)]

    return _op("gather_rows", a.data[rows, idx], vjp, a)


def _softmax_nll(s: np.ndarray, idx: np.ndarray):
    """Per-row -log softmax(s)[idx] of a finite 2-d s, and its vjp: softmax * g, less g
    at each row's gathered entry, bit-equal to the vjps of sub(log_sum_exp(s),
    gather_rows(s, idx)). The kernel of ``losses.batch_loss`` and ``ssl.nt_xent_loss``."""
    rows = np.arange(0, s.size, s.shape[1])  # each row's start in s's flat order
    m = s.take(rows + s.argmax(axis=-1)).reshape(-1, 1)  # max's values; a -0.0 for 0.0 changes no bit below
    soft = np.exp(s - m)
    total = soft.sum(axis=-1, keepdims=True)
    soft /= total
    np.log(total, out=total)
    total += m
    at = np.add(rows, idx, dtype=np.intp)  # each row's labelled entry, whatever idx's integer type
    nll = total.reshape(-1)  # log(total) + m - s[y], in total's memory
    nll -= s.take(at)

    def vjp(g):  # runs once, so it may overwrite soft
        z = np.multiply(soft, g[:, None], out=soft)
        np.subtract.at(z.reshape(-1), at, g)  # one entry per row, so as z[rows, idx] -= g
        return z

    return nll, vjp


def concat_rows(a: Tensor, b: Tensor) -> Tensor:
    if a.ndim != 2 or b.ndim != 2 or a.shape[1] != b.shape[1]:
        raise ShapeError(f"concat_rows: incompatible shapes {a.shape} and {b.shape}")
    split = a.shape[0]
    value = np.concatenate([a.data, b.data], axis=0)
    return _op("concat_rows", value, _each((a, lambda g: g[:split].copy()), (b, lambda g: g[split:].copy())), a, b)


def log_sum_exp(a: Tensor, axis: int = -1) -> Tensor:
    """Overflow-safe log(sum(exp(a))) along one axis."""
    m = np.max(a.data, axis=axis, keepdims=True)
    shifted = np.exp(a.data - m)
    total = np.sum(shifted, axis=axis, keepdims=True)
    soft = shifted / total
    value = np.squeeze(m + np.log(total), axis=axis)
    return _op("log_sum_exp", value, lambda g: [(a, soft * np.expand_dims(g, axis))], a)


def l2_normalize(a: Tensor, axis: int = -1) -> Tensor:
    """Unit-normalize along one axis; vectors with norm < 1e-12 map to zero. A
    squared norm beyond the range of a's dtype is a NumericError, not a zero vector."""
    y, vjp = _unit(a.data, axis, "l2_normalize")
    return _op("l2_normalize", y, lambda g: [(a, vjp(g))], a)


def _unit(a: np.ndarray, axis: int, name: str):
    """``l2_normalize``'s value and vjp on an array; ``name`` heads the overflow error."""
    with np.errstate(over="ignore"):
        squared = np.sum(a * a, axis=axis, keepdims=True)
    if not np.isfinite(squared).all():
        raise NumericError(f"{name}: squared norm overflows {a.dtype}")
    norm = np.sqrt(squared)
    degenerate = norm < _NORM_FLOOR
    safe = np.where(degenerate, 1.0, norm)
    y = a / safe
    np.copyto(y, 0.0, where=degenerate)

    def vjp(g):
        inner = np.sum(g * y, axis=axis, keepdims=True)
        return np.where(degenerate, 0.0, (g - y * inner) / safe)

    return y, vjp


# ---------------------------------------------------------------------------

def finite_diff_check(f: Callable[[], Tensor], params: Sequence[Tensor], step: float = 1e-5) -> float:
    """Max relative error between tape gradients of f() and central differences.

    f must be a deterministic closure over ``params`` returning a scalar
    tensor; determinism is verified by evaluating it twice. Error per
    coordinate is |analytic - fd| / max(1, |analytic|).
    """
    if not step > 0:
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
