"""Dense real-valued tensors and the multilinear operations the rest of the
package is built on: outer products, index contraction, flattening (vec) and
matricization (unfold).

Conventions used everywhere: row-major data layout (last index fastest),
0-based mode indices, scalars are order-0 tensors with shape ().
"""

from __future__ import annotations

import math
import numbers
import operator
import reprlib

import numpy as np

__all__ = [
    "ShapeError",
    "Tensor",
    "make_tensor",
    "outer_product",
    "contract_pair",
    "contract_last",
    "vec",
    "devec",
    "unfold",
]


class ShapeError(ValueError):
    """A tensor shape or mode-size constraint was violated."""


def _normalize_shape(shape) -> tuple[int, ...]:
    try:
        entries = list(shape)
        modes = tuple(operator.index(m) for m in entries)
    except TypeError:
        raise ShapeError(f"shape must be an iterable of integers, got {shape!r}")
    if any(m < 1 for m in modes):
        raise ShapeError(f"mode sizes must be integers >= 1, got {entries}")
    return modes


def _as_axis(value, name: str, least=None) -> int:
    """value as an int by operator.index, refused with a ValueError naming
    `name` when it is not an integer or, given `least`, is below it."""
    try:
        value = operator.index(value)
    except TypeError:
        raise ValueError(f"{name} must be an integer, got {value!r}")
    if least is not None and value < least:
        raise ValueError(f"{name} must be >= {least}, got {value}")
    return value


def _as_real(value, what) -> float:
    """The one real-number intake: value as a float when it is a Python or
    numpy int or float, not a bool, whose double is finite; else a
    ValueError naming `what`, in the words of the file parser's refusals.
    An int past the double range is refused like an infinity."""
    if isinstance(value, bool) or not isinstance(value, (int, float, np.integer, np.floating)):
        raise ValueError(f"{what}: expected a number, got {reprlib.repr(value)}")
    try:
        number = float(value)
    except OverflowError:
        number = math.inf
    if not math.isfinite(number):
        raise ValueError(f"{what}: number out of the finite double range")
    return number


class Tensor:
    """Immutable dense tensor over float64.

    The constructor takes an explicit shape and the entries as a flat,
    row-major sequence; it rejects length mismatches and non-finite values.
    Use :meth:`from_array` to wrap an existing (nested or numpy) array.
    """

    __slots__ = ("_array",)

    def __init__(self, shape, data):
        modes = _normalize_shape(shape)
        flat = _entries(data, "tensor").reshape(-1)
        expected = math.prod(modes)
        if flat.size != expected:
            raise ShapeError(
                f"data length {flat.size} does not match shape {list(modes)} "
                f"(expected {expected} entries)"
            )
        arr = flat.reshape(modes).copy()
        arr.flags.writeable = False
        self._array = arr

    @classmethod
    def _wrap(cls, array) -> "Tensor":
        # Internal fast path for entries known to be finite; bypasses the
        # re-check. np.ascontiguousarray would promote 0-d arrays
        # to 1-d, so only use it when the layout actually needs fixing.
        obj = object.__new__(cls)
        arr = np.asarray(array, dtype=float)
        if not arr.flags.c_contiguous:
            arr = np.ascontiguousarray(arr)
        arr.flags.writeable = False
        obj._array = arr
        return obj

    @classmethod
    def from_array(cls, array) -> "Tensor":
        """Build a tensor from a Tensor, a nested list or a numpy array (shape inferred)."""
        arr = _entries(array, "tensor")
        return cls(arr.shape, arr)

    @classmethod
    def zeros(cls, shape) -> "Tensor":
        return cls._wrap(np.zeros(_normalize_shape(shape)))

    @classmethod
    def identity(cls, shape) -> "Tensor":
        """Identity coupling on `shape`: order-2k tensor with T[i.., j..] = delta(i.., j..)."""
        modes = _normalize_shape(shape)
        q = math.prod(modes)
        return cls._wrap(np.eye(q).reshape(modes + modes))

    @property
    def shape(self) -> tuple[int, ...]:
        return self._array.shape

    @property
    def order(self) -> int:
        return self._array.ndim

    @property
    def size(self) -> int:
        return self._array.size

    @property
    def array(self) -> np.ndarray:
        """The entries as a read-only numpy array of shape ``self.shape``."""
        return self._array

    @property
    def data(self) -> np.ndarray:
        """The entries as a read-only flat row-major vector."""
        return self._array.reshape(-1)

    def tolist(self):
        return self._array.tolist()

    def item(self) -> float:
        if self._array.size != 1:
            raise ShapeError(f"item() requires a single-entry tensor, shape is {list(self.shape)}")
        return float(self._array.reshape(-1)[0])

    def __getitem__(self, key):
        out = self._array[key]
        if np.ndim(out) == 0:
            return float(out)
        return Tensor._wrap(out)

    def __eq__(self, other):
        if not isinstance(other, Tensor):
            return NotImplemented
        return self.shape == other.shape and np.array_equal(self._array, other._array)

    __hash__ = None

    def __add__(self, other):
        if not isinstance(other, Tensor):
            return NotImplemented
        if self.shape != other.shape:
            raise ShapeError(f"cannot add tensors of shapes {list(self.shape)} and {list(other.shape)}")
        return _result(lambda: self._array + other._array)

    def __sub__(self, other):
        if not isinstance(other, Tensor):
            return NotImplemented
        if self.shape != other.shape:
            raise ShapeError(f"cannot subtract tensors of shapes {list(self.shape)} and {list(other.shape)}")
        return _result(lambda: self._array - other._array)

    def __mul__(self, scalar):
        if not isinstance(scalar, (numbers.Number, np.generic)):
            return NotImplemented
        scalar = _as_real(scalar, "scalar")
        return _result(lambda: self._array * scalar)

    __rmul__ = __mul__

    def __neg__(self):
        return Tensor._wrap(-self._array)

    def __repr__(self):
        return f"Tensor(shape={list(self.shape)}, data={self.data.tolist()})"


def make_tensor(shape, data) -> Tensor:
    """Create a tensor from a mode-size list and flat row-major data."""
    return Tensor(shape, data)


def _finite(entries, what) -> np.ndarray:
    if not np.isfinite(entries).all():
        raise ValueError(f"{what} entries must be finite")
    return entries


def _entries(value, what) -> np.ndarray:
    """The entries of a Tensor, or of an array-like of reals as a float
    array, refused with a ValueError naming `what` unless it converts and
    every entry is a finite double (an int past the double range is not)."""
    if isinstance(value, Tensor):
        return value.array
    try:
        entries = np.asarray(value, dtype=float)
    except OverflowError:  # an int past the double range, refused below as not finite
        entries = np.array(math.inf)
    except (TypeError, ValueError):
        raise ValueError(f"{what} must be a rectangular array of real numbers, got {reprlib.repr(value)}") from None
    return _finite(entries, what)


def _result(compute) -> Tensor:
    """compute(), numpy arithmetic on finite entries, as a Tensor, refused
    with the constructor's ValueError, and no numpy warning, when an entry
    overflows."""
    with np.errstate(over="ignore", invalid="ignore"):
        out = compute()
    return Tensor._wrap(_finite(out, "tensor"))


def _as_matrix(value, what: str, square=False, empty=True) -> np.ndarray:
    """The one matrix intake: the entries of value (see _entries), refused
    with a ShapeError naming `what` unless 2-D (and square, given `square`)
    and, without `empty`, with a ValueError when it has no entry."""
    m = _entries(value, what)
    if m.ndim != 2 or (square and m.shape[0] != m.shape[1]):
        raise ShapeError(f"{what} must be {'square' if square else 'a matrix'}, got shape {list(m.shape)}")
    if not (empty or m.size):
        raise ValueError(f"{what} must not be empty, got shape {list(m.shape)}")
    return m


def _as_tensor(value) -> Tensor:
    return value if isinstance(value, Tensor) else Tensor.from_array(value)


def outer_product(a: Tensor, b: Tensor) -> Tensor:
    """Outer product: result[(i..), (j..)] = a[i..] * b[j..]; orders add."""
    a, b = _as_tensor(a), _as_tensor(b)
    return _result(lambda: np.multiply.outer(a.array, b.array))


def contract_pair(t: Tensor, axis_a: int, axis_b: int) -> Tensor:
    """Sum over a pair of equal-sized modes, reducing the order by two.

    The remaining modes keep their relative order.
    """
    t = _as_tensor(t)
    axis_a = _as_axis(axis_a, "axis_a")
    axis_b = _as_axis(axis_b, "axis_b")
    if not (0 <= axis_a < t.order and 0 <= axis_b < t.order):
        raise ValueError(
            f"contraction axes ({axis_a}, {axis_b}) out of range for order-{t.order} tensor"
        )
    if axis_a == axis_b:
        raise ValueError("contraction axes must be distinct")
    if t.shape[axis_a] != t.shape[axis_b]:
        raise ShapeError(
            f"cannot contract modes of unequal sizes {t.shape[axis_a]} and {t.shape[axis_b]}"
        )
    return _result(lambda: np.trace(t.array, axis1=axis_a, axis2=axis_b))


def contract_last(a: Tensor, x: Tensor) -> Tensor:
    """Mode-grouped inner product: contract the trailing order(x) modes of `a`
    against all of `x`.

    result[i..] = sum_{j..} a[i.., j..] * x[j..]; the result keeps the leading
    order(a) - order(x) modes of `a`. Equivalent to
    unfold(a, order(a) - order(x)) applied to vec(x).
    """
    a, x = _as_tensor(a), _as_tensor(x)
    k = x.order
    if k > a.order:
        raise ValueError(
            f"cannot contract an order-{k} tensor against the trailing modes of an order-{a.order} tensor"
        )
    if a.shape[a.order - k:] != x.shape:
        raise ShapeError(
            f"trailing modes {list(a.shape[a.order - k:])} of the coupling tensor "
            f"do not match operand shape {list(x.shape)}"
        )
    return _result(lambda: np.tensordot(a.array, x.array, axes=k))


def vec(x: Tensor) -> np.ndarray:
    """Row-major flattening to a numpy vector (a scalar becomes length 1)."""
    x = _as_tensor(x)
    return x.array.reshape(x.size)


def devec(v: Tensor, shape) -> Tensor:
    """Inverse of :func:`vec` for the given shape."""
    v = _as_tensor(v)
    if v.order != 1:
        raise ValueError(f"devec expects an order-1 tensor, got order {v.order}")
    modes = _normalize_shape(shape)
    expected = math.prod(modes)
    if v.size != expected:
        raise ShapeError(
            f"vector of length {v.size} cannot be reshaped to {list(modes)} "
            f"(needs {expected} entries)"
        )
    return Tensor._wrap(v.array.reshape(modes))


def unfold(a: Tensor, row_modes: int) -> np.ndarray:
    """Matricize: group the first `row_modes` modes as rows and the rest as
    columns, both enumerated row-major.

    Satisfies vec(contract_last(a, x)) = unfold(a, order(a) - order(x)) @ vec(x).
    """
    a = _as_tensor(a)
    row_modes = _as_axis(row_modes, "row_modes")
    if not 0 <= row_modes <= a.order:
        raise ValueError(f"row_modes must lie in 0..{a.order}, got {row_modes}")
    rows = math.prod(a.shape[:row_modes])
    cols = math.prod(a.shape[row_modes:])
    return a.array.reshape(rows, cols)
