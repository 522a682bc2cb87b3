"""Coupled scalar processes on different discrete time scales.

Each process i advances on its own clock c_i >= 2; on the global clock
d = lcm(c_1..c_M) the state satisfies the self-similar recurrence
x_i(n) = sum_j a_ij x_j(n/c_j) + sum_j b_ij u_j(n/c_j). Indices outside the
recurrence domain (n = 0 or d not dividing n) are boundary data supplied by
the caller. Process indices are 1-based throughout.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .simulate import MAX_GRID_CELLS, NumericOverflowError

__all__ = [
    "GlobalClock",
    "global_clock",
    "BoundaryDataError",
    "MultirateSystem",
    "eval_state",
    "trajectory_on_grid",
    "MAX_GRID_CELLS",
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
    clocks = tuple(int(c) for c in clocks)
    if not clocks:
        raise ValueError("need at least one clock")
    for c in clocks:
        if c < 2:
            raise ValueError(f"clocks must be integers larger than one, got {c}")
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
    evaluation wraps into BoundaryDataError naming (process, index). Those
    the helpers below and the file format build also answer
    many(process, indices), which trajectory_on_grid uses to read a whole
    column at a time.
    """

    __slots__ = ("A", "B", "clocks", "clock", "boundary", "input")

    def __init__(self, A, clocks, boundary, B=None, input=None):
        A = np.asarray(A, dtype=float)
        if A.ndim != 2 or A.shape[0] != A.shape[1]:
            raise ValueError(f"A must be a square matrix, got shape {list(A.shape)}")
        if not np.isfinite(A).all():
            raise ValueError("A entries must be finite")
        m = A.shape[0]
        clock = global_clock(clocks)
        if len(clock.factors) != m:
            raise ValueError(f"need {m} clocks for {m} processes, got {len(clock.factors)}")
        if not callable(boundary):
            raise TypeError("boundary must be callable (process, index) -> real")
        if (B is None) != (input is None):
            raise ValueError("B and input must be given together or both omitted")
        if B is not None:
            B = np.asarray(B, dtype=float)
            if B.shape != (m, m):
                raise ValueError(f"B must be {m}x{m} like A, got shape {list(B.shape)}")
            if not np.isfinite(B).all():
                raise ValueError("B entries must be finite")
            if not callable(input):
                raise TypeError("input must be callable (process, index) -> real")
        self.A = A
        self.B = B
        self.clocks = tuple(int(c) for c in clocks)
        self.clock = clock
        self.boundary = boundary
        self.input = input

    @property
    def process_count(self) -> int:
        return self.A.shape[0]


def _lookup(func, process, index, what):
    try:
        value = func(process, index)
    except LookupError:
        raise BoundaryDataError(process, index, what) from None
    if value is None:
        raise BoundaryDataError(process, index, what)
    return float(value)


def _eval(system, i, n, cache):
    key = (i, n)
    if key in cache:
        return cache[key]
    d = system.clock.d
    if n > 0 and n % d == 0:
        total = 0.0
        for j in range(1, system.process_count + 1):
            sub = n // system.clocks[j - 1]
            total += system.A[i - 1, j - 1] * _eval(system, j, sub, cache)
        if system.B is not None:
            for j in range(1, system.process_count + 1):
                sub = n // system.clocks[j - 1]
                total += system.B[i - 1, j - 1] * _lookup(system.input, j, sub, "input")
        value = float(total)
    else:
        value = _lookup(system.boundary, i, n, "boundary")
    cache[key] = value
    return value


def eval_state(system, i, n, cache=None) -> float:
    """x_i(n) by demand-driven memoized recursion.

    The recurrence applies exactly when n > 0 and d | n; every other index,
    including n = 0, is boundary data. Pass the same dict as `cache` across
    calls to share the memo.
    """
    i = int(i)
    n = int(n)
    if not 1 <= i <= system.process_count:
        raise ValueError(f"process must be in 1..{system.process_count}, got {i}")
    if n < 0:
        raise ValueError(f"index must be >= 0, got {n}")
    if cache is None:
        cache = {}
    return _eval(system, i, n, cache)


def _operands(system, reads_grid):
    """Boundary and input values of ticks 0..K.

    reads_grid[k, j] marks where tick k reads grid tick k/c_j of process j.
    Returns (operand, held): operand[k, j] is boundary(j, k*f_j) where
    reads_grid[k, j] is false and unset where it is true; held[k, j] is
    input(j, k*f_j) for k >= 1 (held is None without input). When boundary
    and input both answer many(process, indices) and every index fits in
    int64, each process's values come in one call per column. Otherwise, or
    when a column misses a value, each value is looked up once, tick by
    tick, boundaries before inputs, so the first missing value raised is
    the one the recursion of eval_state meets first.
    """
    ticks, m = reads_grid.shape
    factors = system.clock.factors
    boundary = system.boundary
    inputs = system.input
    columns = hasattr(boundary, "many") and (inputs is None or hasattr(inputs, "many"))
    if columns and ticks * max(factors) < 2**63:
        try:
            return _operand_columns(system, reads_grid)
        except LookupError:
            pass  # the loop below raises the first missing value in tick order
    boundaries = []
    input_values = []
    for k, row in enumerate(reads_grid.tolist()):
        for j in range(m):
            if not row[j]:
                boundaries.append(_lookup(boundary, j + 1, k * factors[j], "boundary"))
        if inputs is not None and k > 0:
            for j in range(m):
                input_values.append(_lookup(inputs, j + 1, k * factors[j], "input"))
    operand = np.empty((ticks, m))
    operand[~reads_grid] = boundaries
    held = None
    if inputs is not None:
        held = np.zeros((ticks, m))
        held[1:] = np.reshape(input_values, (ticks - 1, m))
    return operand, held


def _operand_columns(system, reads_grid):
    """_operands by one many() call per process and spec."""
    ticks, m = reads_grid.shape
    k = np.arange(ticks, dtype=np.int64)
    operand = np.empty((ticks, m))
    held = None if system.input is None else np.zeros((ticks, m))
    for j, f in enumerate(system.clock.factors):
        off_grid = k[~reads_grid[:, j]]
        operand[off_grid, j] = system.boundary.many(j + 1, off_grid * f)
        if held is not None:
            held[1:, j] = system.input.many(j + 1, k[1:] * f)
    return operand, held


@np.errstate(over="ignore", invalid="ignore")  # a non-finite state is raised below
def trajectory_on_grid(system, horizon) -> np.ndarray:
    """States at the global ticks n = k*d for k = 0..horizon.

    Returns an array of shape (horizon+1, M), filled bottom-up. Tick k >= 1
    reads process j at index k*f_j: grid tick k/c_j when c_j divides k,
    boundary data otherwise. Since every c_j >= 2, the ticks in
    [2^l, 2^(l+1)) read only earlier blocks, so each block is one vectorized
    step that sums the terms in the order eval_state does and gives the same
    doubles. A horizon whose output, (horizon+1) x (M+1) cells with the tick
    column, would exceed MAX_GRID_CELLS is refused before anything is looked
    up or allocated. A non-finite state raises NumericOverflowError naming
    the first tick and process where it appears.
    """
    horizon = int(horizon)
    if horizon < 0:
        raise ValueError(f"horizon must be >= 0, got {horizon}")
    m = system.process_count
    cells = (horizon + 1) * (m + 1)
    if cells > MAX_GRID_CELLS:
        raise ValueError(
            f"horizon {horizon} needs {cells} output cells ((horizon+1) x (M+1)), "
            f"more than the limit of {MAX_GRID_CELLS}"
        )
    # a clock past the horizon divides no tick 1..horizon, and neither does horizon+1
    clocks = [min(c, horizon + 1) for c in system.clocks]
    ticks = np.arange(horizon + 1)
    reads_grid = ticks[:, None] % np.array(clocks) == 0
    reads_grid[0] = False
    operand, held = _operands(system, reads_grid)
    rows = np.empty((horizon + 1, m))
    rows[0] = operand[0]
    lo = 1
    while lo <= horizon:
        hi = min(2 * lo, horizon + 1)
        for j, c in enumerate(clocks):
            k = ticks[lo:hi][reads_grid[lo:hi, j]]
            operand[k, j] = rows[k // c, j]
        total = np.zeros((hi - lo, m))
        for j in range(m):
            total += operand[lo:hi, j, None] * system.A[:, j]
        if held is not None:
            for j in range(m):
                total += held[lo:hi, j, None] * system.B[:, j]
        rows[lo:hi] = total
        lo = hi
    finite = np.isfinite(rows)
    if not finite.all():
        k, j = map(int, np.argwhere(~finite)[0])
        raise NumericOverflowError(
            f"state of process {j + 1} became non-finite at tick {k} (index {k * system.clock.d})"
        )
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


def constant_function(values):
    """(process, index) -> fixed value; scalar or one value per process."""
    if np.ndim(values) == 0:
        value = float(values)
        return _columns(lambda i, n: value, lambda i, indices: np.full(len(indices), value))
    table = {i: float(v) for i, v in enumerate(values, 1)}
    return _columns(lambda i, n: table[i], lambda i, indices: np.full(len(indices), table[i]))


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
        tables.setdefault(int(i), {})[int(n)] = float(v)
    return _columns(
        lambda i, n: tables[i][n],
        lambda i, indices: np.array([tables[i][n] for n in indices.tolist()], dtype=float),
    )
