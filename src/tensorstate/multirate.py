"""Coupled scalar processes on different discrete time scales.

Each process i advances on its own clock c_i >= 2; on the global clock
d = lcm(c_1..c_M) the state satisfies the self-similar recurrence
x_i(n) = sum_j a_ij x_j(n/c_j) + sum_j b_ij u_j(n/c_j). Indices outside the
recurrence domain (n = 0 or d not dividing n) are boundary data supplied by
the caller. Process indices are 1-based throughout.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass

import numpy as np

from . import simulate
from .tensors import _as_axis, _as_matrix, _as_real

__all__ = [
    "GlobalClock",
    "global_clock",
    "BoundaryDataError",
    "MultirateSystem",
    "eval_state",
    "trajectory_on_grid",
    "constant_function",
    "index_function",
    "table_function",
]


@dataclass(frozen=True)
class GlobalClock:
    """Common time base: d = lcm(clocks), factors f_i = d / c_i."""

    d: int
    factors: tuple


def global_clock(clocks) -> GlobalClock:
    clocks = tuple(_as_axis(c, "clock", least=2) for c in clocks)
    if not clocks:
        raise ValueError("need at least one clock")
    d = math.lcm(*clocks)
    return GlobalClock(d, tuple(d // c for c in clocks))


class BoundaryDataError(LookupError):
    """A boundary (or input) value needed by the recurrence is missing."""

    def __init__(self, process, index, what="boundary"):
        self.process = process
        self.index = index
        super().__init__(f"missing {what} value for process {process} at index {index}")


class MultirateSystem:
    """Validated multirate recurrence: coupling A (and optionally B with an
    input function), per-process clocks, and a boundary function.

    boundary and input are callables (process, index) -> real with 1-based
    process numbers; a missing value should raise LookupError, which
    evaluation wraps into BoundaryDataError naming (process, index).
    trajectory_on_grid reads each process's values a column at a time: by
    one many(process, indices) call where the callable answers it, as those
    the helpers below and the file format build do, else by one call per
    index.
    """

    __slots__ = ("A", "B", "clocks", "clock", "boundary", "input")

    def __init__(self, A, clocks, boundary, B=None, input=None):
        A = _as_matrix(A, "A", square=True)
        m = A.shape[0]
        clock = global_clock(clocks)
        if len(clock.factors) != m:
            raise ValueError(f"need {m} clocks for {m} processes, got {len(clock.factors)}")
        if not callable(boundary):
            raise TypeError("boundary must be callable (process, index) -> real")
        if (B is None) != (input is None):
            raise ValueError("B and input must be given together or both omitted")
        if B is not None:
            B = _as_matrix(B, "B")
            if B.shape != (m, m):
                raise ValueError(f"B must be {m}x{m} like A, got shape {list(B.shape)}")
            if not callable(input):
                raise TypeError("input must be callable (process, index) -> real")
        self.A = A
        self.B = B
        self.clocks = tuple(clock.d // f for f in clock.factors)  # clocks may be a one-shot iterator
        self.clock = clock
        self.boundary = boundary
        self.input = input

    @property
    def process_count(self) -> int:
        return self.A.shape[0]


def _lookup(func, process, index, what):
    """func's value for process at index, read by tensors._as_real: a
    ValueError names the process and index of a value that is not a finite
    real, and BoundaryDataError one that is None or raises LookupError."""
    try:
        value = func(process, index)
    except LookupError:
        raise BoundaryDataError(process, index, what) from None
    if value is None:
        raise BoundaryDataError(process, index, what)
    return _as_real(value, f"{what} value for process {process} at index {index}")


def eval_state(system, i, n, cache=None) -> float:
    """x_i(n) by demand-driven memoized evaluation.

    The recurrence applies exactly when n > 0 and d | n; every other index,
    including n = 0, is boundary data. Pass the same dict as `cache` across
    calls to share the memo. The nodes are evaluated from an explicit stack,
    in the order a depth-first recursion meets them, so no index is too deep:
    a node's operands not yet in the memo are pushed in reverse order, and
    the node is computed once they are all there, in Python floats: the
    same IEEE products and sums as numpy's, with no overflow warning. Each
    node's value enters the memo when it is computed, and the first that is
    not finite raises trajectory_on_grid's NumericOverflowError, naming its
    process and tick.
    """
    i = _as_axis(i, "process")
    n = _as_axis(n, "index", least=0)
    if not 1 <= i <= system.process_count:
        raise ValueError(f"process must be in 1..{system.process_count}, got {i}")
    if cache is None:
        cache = {}
    d = system.clock.d
    stack = [(i, n)]
    while stack:
        p, k = key = stack[-1]
        if key in cache:
            stack.pop()
        elif not (k > 0 and k % d == 0):
            cache[stack.pop()] = _lookup(system.boundary, p, k, "boundary")
        else:
            operands = [(j, k // c) for j, c in enumerate(system.clocks, 1)]
            missing = [o for o in operands if o not in cache]
            if missing:
                stack.extend(reversed(missing))
                continue
            total = 0.0
            for o, a in zip(operands, system.A[p - 1].tolist()):
                total += a * cache[o]
            if system.B is not None:
                for (j, sub), b in zip(operands, system.B[p - 1].tolist()):
                    total += b * _lookup(system.input, j, sub, "input")
            if not math.isfinite(total):
                raise simulate.NumericOverflowError(_non_finite(p, k // d, d))
            cache[stack.pop()] = total
    return cache[i, n]


def _non_finite(process, tick, d) -> str:
    """The one text of a multirate state that left the finite range."""
    return f"state of process {process} became non-finite at tick {tick} (index {tick * d})"


def _column(func, process, indices, what):
    """func's values for one process at an index array: one many() call
    when func answers it, else (or when many() misses a value) one call per
    index, which raises BoundaryDataError at the first missing index."""
    if hasattr(func, "many"):
        try:
            return func.many(process, indices)
        except LookupError:
            pass
    return [_lookup(func, process, n, what) for n in indices.tolist()]


def _multiples(count, step):
    """The exact multiples k*step for k = 0..count-1: an int64 array when
    step and (count-1)*step are below 2^63, else an object array of Python
    ints. The one rule for exact lookup indices k*f_j and ticks k*d."""
    dtype = np.int64 if max(count - 1, 1) * step < 2**63 else object
    return np.arange(count, dtype=dtype) * step


def _operands(system, clocks, ticks):
    """Boundary and input values of ticks 0..ticks-1.

    Tick k reads grid tick k/c_j of process j where c_j (of clocks) divides
    k >= 1, and boundary data everywhere else. Returns (operand, held):
    operand[k, j] is boundary(j, k*f_j) off the grid and unset on it;
    held[k, j] is input(j, k*f_j) for k >= 1 (held is None without input).
    The indices k*f_j come exact from _multiples. Each process's boundary
    column, then its input column, is read by _column. Of the missing
    values, the one raised is the first in tick order, boundaries before
    inputs, processes in order: the one the recursion of eval_state meets
    first.
    """
    operand = np.empty((ticks, len(clocks)))
    held = None if system.input is None else np.zeros((ticks, len(clocks)))
    missing = []
    for j, (c, f) in enumerate(zip(clocks, system.clock.factors)):
        off = np.ones(ticks, bool)
        off[c::c] = False
        index = _multiples(ticks, f)
        try:
            operand[off, j] = _column(system.boundary, j + 1, index[off], "boundary")
        except BoundaryDataError as exc:
            missing.append((exc.index // f, 0, j, exc))
        if held is not None:
            try:
                held[1:, j] = _column(system.input, j + 1, index[1:], "input")
            except BoundaryDataError as exc:
                missing.append((exc.index // f, 1, j, exc))
    if missing:
        raise min(missing, key=lambda entry: entry[:3])[3]
    return operand, held


@np.errstate(over="ignore", invalid="ignore")  # a non-finite state is raised below
def trajectory_on_grid(system, horizon) -> np.ndarray:
    """States at the global ticks n = k*d for k = 0..horizon.

    Returns an array of shape (horizon+1, M), filled bottom-up. Tick k >= 1
    reads process j at index k*f_j: grid tick k/c_j when c_j divides k,
    boundary data otherwise. Since every c_j >= 2, the ticks in
    [2^l, 2^(l+1)) read only earlier blocks, so each block is one vectorized
    step that sums the terms in the order eval_state does and gives the same
    doubles. A block [lo, hi) reads process j's grid ticks by one strided
    slice: ticks first*c_j, (first+1)*c_j, ... below hi read rows first,
    first+1, ..., with first = ceil(lo/c_j). A horizon whose output,
    (horizon+1) x (M+1) cells with the tick column, would exceed
    simulate.MAX_GRID_CELLS is refused (simulate._refuse_large_grid) before
    anything is looked up or allocated, and so is one whose largest index
    horizon*d has no double. A non-finite state raises NumericOverflowError
    naming the first tick and process where it appears.
    """
    horizon = _as_axis(horizon, "horizon", least=0)
    d = system.clock.d
    if horizon * d > sys.float_info.max:
        # every lookup index k*f_j and every tick k*d is at most horizon*d
        raise ValueError(
            f"horizon {horizon} times d={d} is past the largest double "
            f"({sys.float_info.max!r}), so the ticks cannot be written"
        )
    m = system.process_count
    simulate._refuse_large_grid(f"horizon {horizon}", (horizon + 1) * (m + 1), "(horizon+1) x (M+1)")
    # a clock past the horizon divides no tick 1..horizon, and neither does
    # horizon+1, which keeps every slice bound an int64
    clocks = [min(c, horizon + 1) for c in system.clocks]
    operand, held = _operands(system, clocks, horizon + 1)
    rows = np.empty((horizon + 1, m))
    rows[0] = operand[0]
    for b in range(horizon.bit_length()):
        lo, hi = 1 << b, min(2 << b, horizon + 1)
        total = np.zeros((hi - lo, m))
        for j, c in enumerate(clocks):
            first = -(-lo // c)
            operand[first * c:hi:c, j] = rows[first:(hi - 1) // c + 1, j]
            total += operand[lo:hi, j, None] * system.A[:, j]
        if held is not None:
            for j in range(m):
                total += held[lo:hi, j, None] * system.B[:, j]
        rows[lo:hi] = total
    simulate._require_finite(rows, lambda k, j: _non_finite(j + 1, k, d))
    return rows


def _columns(lookup, many):
    """lookup, a (process, index) -> real function, made to also answer
    many(process, indices) with the float array of its values there. Plain
    functions keep the per-value call speed that eval_state relies on."""
    lookup.many = many
    return lookup


def _per_process(funcs):
    """(process, index) -> funcs[process](process, index) for column-reading
    funcs; a missing process raises KeyError."""
    return _columns(lambda i, n: funcs[i](i, n), lambda i, indices: funcs[i].many(i, indices))


def _table(table):
    """(process, index) -> table[index]; a missing index raises KeyError."""
    return _columns(
        lambda i, n: table[n],
        lambda i, indices: np.array([table[n] for n in indices.tolist()], dtype=float),
    )


def _constant(value):
    return _columns(lambda i, n: value, lambda i, indices: np.full(len(indices), value))


def constant_function(values):
    """(process, index) -> fixed value; scalar or one value per process,
    each read by tensors._as_real."""
    if np.ndim(values) == 0:
        return _constant(_as_real(values, "constant value"))
    return _per_process({i: _constant(_as_real(v, f"constant value of process {i}")) for i, v in enumerate(values, 1)})


def index_function():
    """(process, index) -> index, the x_i(n) = n boundary of the worked example."""
    return _columns(lambda i, n: float(n), lambda i, indices: indices.astype(float))


def table_function(entries):
    """(process, index) -> entries[(process, index)], missing keys a hard error.

    `entries` maps (process, index) pairs to reals; lookups outside the table
    raise LookupError so evaluation reports the missing (process, index).
    """
    tables = {}
    for (i, n), v in dict(entries).items():
        i, n = _as_axis(i, "table process", least=1), _as_axis(n, "table index", least=0)
        tables.setdefault(i, {})[n] = _as_real(v, f"table value at ({i}, {n})")
    return _per_process({i: _table(table) for i, table in tables.items()})
