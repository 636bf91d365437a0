"""Dense double-precision tensors with reverse-mode automatic differentiation.

Define-by-run: every operation builds its output through ``_op``, which,
while a Tape is active, appends one (output, inputs) record to it: the op's
output and the (input, vjp) pairs of its inputs that require a gradient.
``Tape.backward`` walks the records in exact reverse execution order, adds
each vjp(output gradient) into its input and then drops the records, so the
graph is freed as soon as the caller lets go of it. Tensors and tapes are
confined to a single thread; there is no locking.
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
    """Execution-ordered (output, inputs) records, one per operation.

    Backward traverses the records in exact reverse order. A tape is spent
    after one backward pass; reusing it raises TapeError.
    """

    __slots__ = ("_records", "_spent")

    def __init__(self):
        self._records: list[tuple[Tensor, list[tuple[Tensor, Callable[[np.ndarray], np.ndarray]]]]] = []
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
        execution order: (c3 + c2) + c1 for uses 1, 2, 3. The first is kept
        as the vjp returned it, and later ones are added into it in place."""
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
        for node, inputs in reversed(records):
            if node._grad is not None:
                for t, vjp in inputs:
                    if t._grad is None:
                        t._grad = vjp(node._grad)
                    else:
                        t._grad += vjp(node._grad)


class Tensor:
    """Row-major float64 array plus its gradient slot. It holds no tape pointer.

    ``flatten`` can make ``data`` a view of one slice of a flat vector
    (``_flat`` is then that vector and the slice's offset).
    """

    __slots__ = ("data", "requires_grad", "_grad", "_flat")

    def __init__(self, data, requires_grad: bool = False):
        arr = np.ascontiguousarray(np.asarray(data, dtype=np.float64))
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
    """The float64 vector whose consecutive slices hold the tensors' data, in order.

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


def _op(name: str, value: np.ndarray, *inputs: tuple[Tensor, Callable[[np.ndarray], np.ndarray]],
        checked: np.ndarray | None = None) -> Tensor:
    """Output of op ``name`` with forward ``value`` and (input, vjp) pairs, one or
    more per input.

    The output requires a gradient if any input does. While a tape is active,
    one (output, inputs) record keeps the pairs whose input requires a
    gradient, in argument order, which is the order backward adds them in;
    backward never calls any other input's vjp.
    A vjp returns a new, writable float64 ndarray with its input's shape, and
    the tape may keep it: an op that broadcast an input sums the gradient
    back down itself, and one whose gradient would be a view copies it. (For
    a 0-d input, NumPy arithmetic gives a float64 scalar, which serves alike.)
    The finiteness check reads ``checked`` in place of the output when given:
    a fused op passes the intermediate that a later step could hide.
    """
    arr = np.ascontiguousarray(value, dtype=np.float64)
    if not np.isfinite(arr if checked is None else checked).all():
        raise NumericError(f"{name}: produced non-finite values")
    live = [(t, vjp) for t, vjp in inputs if t.requires_grad]
    out = Tensor.__new__(Tensor)
    out.data = arr
    out.requires_grad = bool(live)
    out._grad = None
    out._flat = None
    if live and _stack.tapes:
        _stack.tapes[-1]._records.append((out, live))
    return out


def _broadcast_op(a: Tensor, b: Tensor, fn, name: str) -> np.ndarray:
    try:
        return fn(a.data, b.data)
    except ValueError:
        raise ShapeError(f"{name}: shapes {a.shape} and {b.shape} are not broadcast-compatible") from None


# ---------------------------------------------------------------------------
# forward operations; each passes its value and per-input vjps to _op

def add(a: Tensor, b: Tensor) -> Tensor:
    return _op("add", _broadcast_op(a, b, np.add, "add"),
               (a, lambda g: np.array(_unbroadcast(g, a.shape))), (b, lambda g: np.array(_unbroadcast(g, b.shape))))


def sub(a: Tensor, b: Tensor) -> Tensor:
    return _op("sub", _broadcast_op(a, b, np.subtract, "sub"),
               (a, lambda g: np.array(_unbroadcast(g, a.shape))), (b, lambda g: _unbroadcast(-g, b.shape)))


def mul(a: Tensor, b: Tensor) -> Tensor:
    return _op("mul", _broadcast_op(a, b, np.multiply, "mul"),
               (a, lambda g: _unbroadcast(g * b.data, a.shape)), (b, lambda g: _unbroadcast(g * a.data, b.shape)))


def matmul(a: Tensor, b: Tensor) -> Tensor:
    if a.ndim != 2 or b.ndim != 2 or a.shape[1] != b.shape[0]:
        raise ShapeError(f"matmul: incompatible shapes {a.shape} and {b.shape}")
    return _op("matmul", a.data @ b.data, (a, lambda g: g @ b.data.T), (b, lambda g: a.data.T @ g))


def linear(x: Tensor, weight: Tensor, bias: Tensor, relu: bool = False, blocks: int = 1) -> Tensor:
    """x @ W + b, then max(., 0) if ``relu``, as one record.

    x's rows are ``blocks`` equal row blocks, such as the two views of a
    pretraining batch stacked view a first. Each product (x_k @ W, g_k @ W.T
    and x_k.T @ g_k) is formed per block with the operands that one record
    per block would use, and the record holds x's pair, then a W and a b
    pair per block, last block first: the order in which the reverse tape
    applied one record per block. So values and gradients equal
    relu(add(matmul(x_k, W), b)) per block bit for bit. The bias add, the
    ReLU and the finiteness check run once over all rows; the check reads
    the pre-activation, since max(-inf, 0) hides an overflow. Every vjp
    starts from g * (pre > 0), the product relu's vjp formed, and the bias
    vjp sums a block's rows itself, the reduction add's vjp made.
    """
    if x.ndim != 2 or weight.ndim != 2 or x.shape[1] != weight.shape[0]:
        raise ShapeError(f"linear: input {x.shape} vs weight {weight.shape}")
    if bias.shape != (weight.shape[1],):
        raise ShapeError(f"linear: bias {bias.shape} vs weight {weight.shape}")
    if blocks < 1 or x.shape[0] % blocks:
        raise ContractError(f"linear: {x.shape[0]} rows do not split into {blocks} equal blocks")
    step = x.shape[0] // blocks
    spans = [slice(k * step, (k + 1) * step) for k in range(blocks)]
    pre = np.empty((x.shape[0], weight.shape[1]))
    for s in spans:
        np.matmul(x.data[s], weight.data, out=pre[s])
    pre += bias.data
    active = pre > 0.0 if relu else None
    shared = []  # the pre-activation gradient, formed once for every vjp

    def grad_pre(g):
        if not shared:
            shared.append(g * active if relu else g)
        return shared[0]

    def x_vjp(g):
        out = np.empty_like(x.data)
        for s in spans:
            np.matmul(grad_pre(g)[s], weight.data.T, out=out[s])
        return out

    pairs = [(x, x_vjp)]
    for s in reversed(spans):
        pairs += [(weight, lambda g, s=s: x.data[s].T @ grad_pre(g)[s]), (bias, lambda g, s=s: grad_pre(g)[s].sum(axis=0))]
    return _op("linear", np.maximum(pre, 0.0) if relu else pre, *pairs, checked=pre)


def transpose(a: Tensor) -> Tensor:
    if a.ndim != 2:
        raise ShapeError(f"transpose: expected a 2-d tensor, got shape {a.shape}")
    return _op("transpose", a.data.T, (a, lambda g: g.T.copy()))


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
        return np.broadcast_to(g if axis is None or keepdims else np.expand_dims(g, axis), a.shape).copy()

    return _op("sum", np.sum(a.data, axis=axis, keepdims=keepdims), (a, vjp))


def mean(a: Tensor, axis: int | None = None, keepdims: bool = False) -> Tensor:
    """Sum times 1/n in one record, bit-equal to mul(tensor_sum(a), 1/n)."""
    inv_n = 1.0 / (a.size if axis is None else a.shape[axis])

    def vjp(g):
        g = g * inv_n
        return np.broadcast_to(g if axis is None or keepdims else np.expand_dims(g, axis), a.shape).copy()

    # 0 < 1/n <= 1, so the product is finite exactly when the sum is
    return _op("mean", np.sum(a.data, axis=axis, keepdims=keepdims) * inv_n, (a, vjp))


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


def softmax_nll(a: Tensor, indices, shift: np.ndarray | None = None) -> Tensor:
    """Per-row -log softmax(s)[indices] with s = a + shift, as one record.

    Values and gradient equal sub(log_sum_exp(s), gather_rows(s, indices))
    with s = add(a, Tensor(shift)) bit for bit: the vjp is z + softmax * g,
    where z scatters -g into the gathered entries, the sum that gather_rows'
    and then log_sum_exp's vjps left in s. A finite s gives a finite
    log-sum-exp, so the checks are on s and on the result.
    """
    idx = np.asarray(indices)
    if a.ndim != 2 or idx.ndim != 1 or idx.shape[0] != a.shape[0]:
        raise ShapeError(f"softmax_nll: tensor shape {a.shape} vs index shape {idx.shape}")
    if idx.size and (idx.min() < 0 or idx.max() >= a.shape[1]):
        raise ValidationError(f"softmax_nll: index out of range for {a.shape[1]} columns")
    s = a.data
    if shift is not None:
        s = s + shift
        if not np.isfinite(s).all():
            raise NumericError("softmax_nll: the shifted input is non-finite")
    value, vjp = _softmax_nll(s, idx)
    return _op("softmax_nll", value, (a, vjp))


def _softmax_nll(s: np.ndarray, idx: np.ndarray):
    """Per-row -log softmax(s)[idx] of a finite 2-d s, and its vjp: softmax * g, less g
    at each row's gathered entry."""
    m = np.max(s, axis=-1, keepdims=True)
    shifted = np.exp(s - m)
    total = np.sum(shifted, axis=-1, keepdims=True)
    soft = shifted / total
    rows = np.arange(s.shape[0])

    def vjp(g):
        z = soft * g[:, None]
        z[rows, idx] -= g
        return z

    return np.squeeze(m + np.log(total), axis=-1) - s[rows, idx], vjp


def concat_rows(a: Tensor, b: Tensor) -> Tensor:
    if a.ndim != 2 or b.ndim != 2 or a.shape[1] != b.shape[1]:
        raise ShapeError(f"concat_rows: incompatible shapes {a.shape} and {b.shape}")
    split = a.shape[0]
    value = np.concatenate([a.data, b.data], axis=0)
    return _op("concat_rows", value, (a, lambda g: g[:split].copy()), (b, lambda g: g[split:].copy()))


def log_sum_exp(a: Tensor, axis: int = -1) -> Tensor:
    """Overflow-safe log(sum(exp(a))) along one axis."""
    m = np.max(a.data, axis=axis, keepdims=True)
    shifted = np.exp(a.data - m)
    total = np.sum(shifted, axis=axis, keepdims=True)
    soft = shifted / total
    value = np.squeeze(m + np.log(total), axis=axis)
    return _op("log_sum_exp", value, (a, lambda g: soft * np.expand_dims(g, axis)))


def l2_normalize(a: Tensor, axis: int = -1) -> Tensor:
    """Unit-normalize along one axis; vectors with norm < 1e-12 map to zero. A
    squared norm beyond float64 range is a NumericError, not a zero vector."""
    y, vjp = _unit(a.data, axis, "l2_normalize")
    return _op("l2_normalize", y, (a, vjp))


def _unit(a: np.ndarray, axis: int, name: str):
    """``l2_normalize``'s value and vjp on an array; ``name`` heads the overflow error."""
    with np.errstate(over="ignore"):
        squared = np.sum(a * a, axis=axis, keepdims=True)
    if not np.isfinite(squared).all():
        raise NumericError(f"{name}: squared norm overflows float64")
    norm = np.sqrt(squared)
    degenerate = norm < _NORM_FLOOR
    safe = np.where(degenerate, 1.0, norm)
    y = np.where(degenerate, 0.0, a / safe)

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
