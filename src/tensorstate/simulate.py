"""Trajectory generation: discrete iteration, the discrete closed form, and
continuous-time integration (classical RK4 and an exact matrix-exponential
path for piecewise-constant coefficients and inputs).
"""

from __future__ import annotations

import itertools
import math
import operator
import reprlib
from dataclasses import dataclass

import numpy as np

from .systems import Piecewise, _split_pairs
from .tensors import ShapeError, Tensor, _as_axis, _as_matrix, _as_real, _as_tensor, _normalize_shape, devec, vec

__all__ = [
    "NumericOverflowError",
    "InputSignal",
    "TrajectorySample",
    "Trajectory",
    "step_discrete",
    "simulate_discrete",
    "solve_discrete_closed_form",
    "matrix_exponential",
    "simulate_continuous",
]


class NumericOverflowError(ArithmeticError):
    """State or output left the finite range during simulation."""


# Output cells that one run may fill: samples x (state + output values) for
# simulate, (horizon+1) x (M+1) with the tick column for a multirate grid.
# Each float array then stays under 80 MB and the CSV text under about 250 MB.
MAX_GRID_CELLS = 10_000_000


def _refuse_large_grid(label, cells, formula):
    """The one output-size refusal of every run: ValueError, before anything
    is allocated, when `cells` (an int, or inf), counted by `formula`,
    exceed MAX_GRID_CELLS."""
    if cells > MAX_GRID_CELLS:
        raise ValueError(
            f"{label} needs {cells} output cells ({formula}), "
            f"more than the limit of {MAX_GRID_CELLS}"
        )


class InputSignal(Piecewise):
    """Forcing signal: zero, constant, or a breakpoint table, each a
    Piecewise step function of tensors of one shape, checked here once.
    Zero and constant are one piece at 0, whose value is None for zero. A
    table's keys strictly increase from 0 and sampling holds the value of
    the last key at or before the query (zero-order hold), also past the end;
    Piecewise.index finds that key, for one time or for a run's array of
    them. The values are one read-only (K, *shape) block, one row per key:
    the runs read its vec'd rows, and values are Tensor views of rows, on
    demand.
    """

    __slots__ = ("kind", "_block", "_rows")

    def __init__(self, kind, keys, values):
        """`values`: None for zero, the block itself as a float array, or K
        tensor-likes, each checked against the first's shape and stacked."""
        super().__init__(keys, "input table" if kind == "table" else f"{kind} input")
        self.kind = kind
        if kind != "zero" and not isinstance(values, np.ndarray):
            first, rest = _as_tensor(values[0]), zip(self.keys[1:], values[1:])
            rest = [_coerce(v, first.shape, "input table value at key {}", k).array for k, v in rest]
            values = np.array([first.array, *rest])
        if values is not None:
            values.flags.writeable = False  # before its views are taken
        self._block, self._rows = values, None if values is None else values.reshape(len(values), -1)

    @classmethod
    def zero(cls) -> "InputSignal":
        return cls("zero", np.zeros(1), None)

    @classmethod
    def constant(cls, value) -> "InputSignal":
        return cls("constant", np.zeros(1), [value])

    @classmethod
    def table(cls, samples) -> "InputSignal":
        return cls("table", *_split_pairs(samples, "input table"))

    @property
    def values(self) -> tuple:
        return (None,) if self._block is None else tuple(map(Tensor._wrap, self._block))

    def at(self, when) -> Tensor | None:
        return None if self._block is None else Tensor._wrap(self._block[self.index(when), ...])

    def sample(self, when, shape) -> Tensor:
        """Value at `when` (>= 0) as a tensor of the given shape."""
        value = self.at(when)
        return Tensor.zeros(shape) if value is None else _coerce(value, tuple(shape), "input sample")


@dataclass(frozen=True)
class TrajectorySample:
    when: float
    state: Tensor
    output: Tensor


def _frozen(values, shape) -> np.ndarray:
    arr = np.asarray(values, dtype=float).reshape(shape)  # a view: the caller's flags stay
    arr.flags.writeable = False
    return arr


class Trajectory:
    """Ordered (when, state, output) samples from one simulation run.

    Stored as read-only arrays: `times` of shape (N,), and the vec'd states
    and outputs as rows of (N, q) and (N, s) matrices. Outputs passed as the
    states object itself stay one array with them. Samples and tensors are
    built on demand as views of those rows.
    """

    __slots__ = ("_times", "_states", "_outputs", "state_shape", "output_shape")

    def __init__(self, times, states, outputs, state_shape, output_shape):
        self.state_shape = _normalize_shape(state_shape)
        self.output_shape = _normalize_shape(output_shape)
        self._times = _frozen(times, -1)
        n = self._times.size
        if n == 0:
            raise ValueError("trajectory needs at least one sample")
        self._states = _frozen(states, (n, math.prod(self.state_shape)))
        self._outputs = _frozen(outputs, (n, math.prod(self.output_shape)))
        if outputs is states:
            self._outputs = self._states
        bad = np.flatnonzero(~(self._times[1:] > self._times[:-1]))
        if bad.size:
            a, b = self._times[bad[0]:bad[0] + 2]
            raise ValueError(f"trajectory whens must increase ({a} then {b})")

    @property
    def samples(self) -> tuple:
        return tuple(self)

    @property
    def times(self) -> np.ndarray:
        return self._times

    @property
    def states(self) -> list:
        return [s.state for s in self]

    @property
    def outputs(self) -> list:
        return [s.output for s in self]

    @property
    def final_state(self) -> Tensor:
        return self[-1].state

    def state_matrix(self) -> np.ndarray:
        """Row-major vec of every state, stacked row per sample (read-only)."""
        return self._states

    def output_matrix(self) -> np.ndarray:
        return self._outputs

    def __len__(self):
        return self._times.size

    def __iter__(self):
        return map(self._sample, range(len(self)))

    def __getitem__(self, index):
        """The sample at an integer index, or a tuple of samples for a slice,
        read by the rules of range(len(self)); a bool is refused."""
        try:  # a bool goes in as None, which range refuses
            found = range(len(self))[None if isinstance(index, bool) else index]
        except TypeError:
            raise TypeError(f"trajectory index must be an integer or a slice, got {reprlib.repr(index)}") from None
        except IndexError:
            raise IndexError(
                f"trajectory index {reprlib.repr(operator.index(index))} is out of range for {len(self)} samples"
            ) from None
        return tuple(map(self._sample, found)) if isinstance(found, range) else self._sample(found)

    def _sample(self, k) -> TrajectorySample:
        return TrajectorySample(
            float(self._times[k]),
            Tensor._wrap(self._states[k].reshape(self.state_shape)),
            Tensor._wrap(self._outputs[k].reshape(self.output_shape)),
        )


def _coerce(value, shape, what, *args) -> Tensor:
    value = _as_tensor(value)
    if value.shape != shape:  # the name is formatted only on a mismatch: tables check every value
        raise ShapeError(f"{what.format(*args)} has shape {list(value.shape)}, expected {list(shape)}")
    return value


def _state_vec(system, state) -> np.ndarray:
    return vec(_coerce(state, system.state_shape, "state"))


def _input_vec(system, u) -> np.ndarray | None:
    if not system.has_input:
        if u is not None:
            raise ValueError("system declares no input; got an input tensor")
        return None
    if u is None:
        raise ValueError("system declares an input; pass u")
    return vec(_coerce(u, system.input_shape, "input"))


def _as_signal(system, u) -> InputSignal | None:
    """Input signal of one run, shape-checked once: zeros for None or zero, None without input."""
    if not system.has_input:
        if u is not None and not (isinstance(u, InputSignal) and u.kind == "zero"):
            raise ValueError("system declares no input; u must be omitted")
        return None
    if u is not None and not isinstance(u, InputSignal):
        raise TypeError("u must be an InputSignal (zero/constant/table)")
    if u is None or u.kind == "zero":
        return InputSignal.constant(Tensor.zeros(system.input_shape))
    _coerce(u.at(0), system.input_shape, "input sample")  # all values share this shape
    return u


def _timeline(system, signal, grid=None):
    """Where the keys of one run land and what each holds, in a fixed number
    of numpy calls: the schedule starts and the input keys together, sorted;
    a key within 4 ulps of a time of the sorted array `grid` moves onto it
    (the lower of two such times), and of keys that land on one time the
    last holds. Returns the landing times, strictly increasing, and per
    landing time the index into system.unfolded of its segment and into the
    signal's rows of its input (None without a signal), both read at the key
    that holds there by one Piecewise.index call each, the package's one
    key lookup."""
    keys = system.schedule._key_array
    if signal is not None:
        keys = np.sort(np.concatenate((keys, signal._key_array)))
    at = keys
    if grid is not None:
        i = grid.searchsorted(keys)
        near = grid.take((i - 1, i), mode="clip")  # the times below and above; past an end, that end twice
        close = abs(near - keys) <= 4 * np.spacing(near)
        at = np.where(close[0], near[0], np.where(close[1], near[1], keys))
    last = np.empty(at.size, bool)  # equal keys, and keys that land on one time, are neighbours
    last[:-1] = at[1:] != at[:-1]
    last[-1] = True
    at, keys = at[last], keys[last]
    return at, system.schedule.index(keys), None if signal is None else signal.index(keys)


def _advance(p, c, v, out, lo, hi) -> np.ndarray:
    """Step v <- P·v + c through rows lo..hi-1 of `out` and return the last
    row, for P a discrete step's M_A, an exact pair's Φ or a composed RK4
    map, and c its input term Q·u (None without input). c is added to P·v in
    each row whenever the system has an input, even a zero one, so signed
    zeros agree on every route. A row is two C calls: P.dot into the row,
    bound once per run, which calls the BLAS matrix-vector product np.matmul
    calls, and gives its bits, without matmul's per-call ufunc dispatch; and
    np.add of c with positional arguments. `out` must be C-contiguous, and P
    should be: P.dot copies any other P on every step. v may be a row of
    `out`, even the row written: numpy buffers it."""
    dot = p.dot
    for r in range(lo, hi):
        row = out[r]
        dot(v, row)
        if c is not None:
            np.add(row, c, row)
        v = row
    return v


def _output(m, rows, out, inputs) -> np.ndarray:
    """Write M_C·x + M_D·u for each row x of `rows` into `out` and return it,
    for rows in force under one segment's matrices m, where an absent C
    passes the state through, and `inputs` yields (lo, hi, u): rows lo..hi-1
    hold the input u, None without one. C·x is one stacked matmul over the
    rows, which runs one matrix-vector product per row, the same as C @ x
    (a bulk rows @ C.T rounds differently); D·u is one product per input,
    added after. `inputs` is read only when there is a D."""
    if m.c is None:
        out[:] = rows
    else:
        np.matmul(m.c, rows[:, :, None], out=out[:, :, None])
    if m.d is not None:
        for lo, hi, u in inputs:
            if u is not None:
                out[lo:hi] += m.d @ u
    return out


def _runs(at, seg, times, method, h):
    """The runs of one sweep in stepping order, built in numpy from the
    landing times `at` and segments `seg` of _timeline. A run writes rows
    lo..hi-1 of the states with one map v <- P·v + Q·u. The intervals that
    start in one piece share a run, with the map of its segment for h, but
    for the piece's last interval, which goes alone when RK4 steps into the
    next piece (from the pieces at the step's start, midpoint and end, and
    their inputs), when an exact step is cut by keys strictly inside (one run
    per piece in force over it, each writing that row in turn), or when it
    is the grid's last interval and not within 4 ulps (of its end) of h.
    Returns per run lo, hi, its pieces (a row, or three for RK4), dt, and
    its group: its map's key·2, + 1 for an RK4 step on three inputs. A map's
    key is segment·2 + (dt is not h), or a negative key of its own for a map
    read from two segments or for a cut piece's map, which is not kept."""
    n = times.size
    right = at.searchsorted(times, "right") - 1  # per sample, the piece in force
    cross = right[1:] != right[:-1]  # per interval (a, b]: a key lies in it
    if method == "exact":
        before = at.searchsorted(times[1:]) - 1  # per interval, the last piece that starts before b
        lone = before > right[:-1]
    else:
        lone = cross.copy() if method == "rk4" else np.zeros(n - 1, bool)
    # times[k] = k*h before t_end, so for k >= 2 times[k] - times[k-1] is exact (Sterbenz)
    # and within ulp(times[k]) of h: only the grid's last interval can be off h
    off = method != "discrete" and abs(times[-1] - times[-2] - h) > 4 * math.ulp(times[-1])
    if off:
        lone[-1] = True
    start = np.empty(n, bool)  # a run starts at a lone step and where a piece starts, which is
    start[:-1] = lone  # also after every lone step but the grid's last: each one crosses a key
    start[1:-1] |= cross[:-1]
    start[0] = start[-1] = True  # the last "start" is the end of the grid
    rows = start.nonzero()[0]
    first, lo, hi = rows[:-1], rows[:-1] + 1, rows[1:] + 1  # the first interval of each run, its rows
    pieces = right[first][None]
    dt = np.empty(first.size)
    dt.fill(h)
    if off:
        dt[-1] = times[-1] - times[-2]
    own = np.zeros(first.size, bool)
    if method == "rk4":  # the pieces at the midpoint and end of each run's first step
        a, b = times[first], times[1:][first]
        pieces = np.array((pieces[0], at.searchsorted(a + (b - a) / 2, "right") - 1, right[1:][first]))
        own = seg[pieces[0]] != seg[pieces[2]]  # segments only increase: the midpoint's lies between
    elif method == "exact" and (cut := lone[first] & (before[first] > pieces[0])).any():
        count = np.where(cut, before[first] - pieces[0] + 1, 1)  # the pieces in force over each run's step
        idx = np.arange(first.size).repeat(count)
        o = np.arange(idx.size) - (count.cumsum() - count).repeat(count)
        first, lo, hi, dt, own = first[idx], lo[idx], hi[idx], dt[idx], cut[idx]
        pieces = pieces[:, idx] + o
        s = pieces[0]
        p = np.where(o == 0, times[first], at[s])
        r = np.where(s < before[first], at.take(s + 1, mode="clip"), times[1:][first])
        dt = np.where(own, r - p, dt)
    key = seg[pieces[0]] * 2 + (dt != h)
    key[own] = -1 - own.nonzero()[0]
    return lo, hi, pieces, dt, key * 2 + (cross[first] if method == "rk4" else 0)


@np.errstate(over="ignore", invalid="ignore")  # non-finite rows are raised after the loop
def _sweep(system, signal, v, times, where, method="discrete", h=1.0):
    """Sample state and output at each of the sorted array `times` (h the
    grid step, 1 for "discrete"), by a plan of the whole run (_timeline,
    _runs) and one loop over its runs, each stepped by _advance. Each
    distinct map is built once, into one table of (P, Q, Q3), Q3 the Q of an
    RK4 step on three inputs: (M_A, M_B, M_B) for "discrete", (Φ, Γ, Γ) for
    "exact", _rk4_map for "rk4", with P in C order, which _advance needs so
    as not to copy it on every step. The input terms c = Q·u of a group's
    runs are one stacked matmul. The outputs are the states unless a sampled
    piece has C or D·u, else _output writes them one segment's block of rows
    at a time. A non-finite state, else output, raises NumericOverflowError
    naming its time formatted by `where`."""
    n, unfolded = times.size, system.unfolded
    at, seg, inp = _timeline(system, signal, None if method == "discrete" else times)
    lo, hi, pieces, dt, group = _runs(at, seg, times, method, h)
    order = group.argsort(kind="stable")
    ranked = group[order]
    change = np.empty(order.size, bool)
    change[:1] = True
    change[1:] = ranked[1:] != ranked[:-1]
    heads = [*change.nonzero()[0].tolist(), order.size]  # where each group starts in `order`, then the end
    first = order[heads[:-1]]  # one run of each group
    cs = itertools.repeat(None)
    if signal is not None:  # the runs' inputs in group order, one row of one or three inputs each
        rows = signal._rows
        us = rows[inp[pieces[:, order].T]].reshape(order.size, len(pieces) * rows.shape[1])
        cs = np.empty((order.size, system.state_dim))
    maps = {}
    for g, segs, step, a, b in zip(
        ranked[heads[:-1]].tolist(), seg[pieces[:, first]].T.tolist(), dt[first].tolist(), heads, heads[1:]
    ):
        key, three = divmod(g, 2)
        if key not in maps:
            m = [unfolded[s] for s in segs]
            if method == "rk4":
                p, q, q3 = _rk4_map(*m, step)
            else:  # one input, held over the step
                p, q = _zoh_pair(m[0], step) if method == "exact" else (m[0].a, m[0].b)
                q3 = q
            maps[key] = (np.ascontiguousarray(p), q, q3)
        q = maps[key][1 + three]
        if signal is not None:
            np.matmul(q, us[a:b, : q.shape[1], None], out=cs[a:b, :, None])
    if signal is not None:
        cs = cs[order.argsort()]
    states = np.empty((n, system.state_dim))
    states[0] = v
    for key, c, a, b in zip((group >> 1).tolist(), cs, lo.tolist(), hi.tolist()):
        v = _advance(maps[key][0], c, v, states, a, b)
    outputs = states  # unless a sampled piece has C or D·u
    writes = {s for s, m in enumerate(unfolded) if m.c is not None or m.d is not None and signal is not None}
    if writes:
        bounds = np.concatenate((times.searchsorted(at), [n]))  # the first sample of each piece, then n
        j = (bounds[:-1] < bounds[1:]).nonzero()[0]  # the pieces that hold a sample
        segs = seg[j]
        if writes.intersection(segs.tolist()):
            outputs = np.empty((n, system.output_dim))
            firsts, ends = bounds[j].tolist(), bounds[j + 1].tolist()
            us = [None] * j.size if signal is None else signal._rows[inp[j]]
            # segments only increase, so the samples of one segment are one block of rows
            blocks = [0, *((segs[1:] != segs[:-1]).nonzero()[0] + 1).tolist(), j.size]
            for x, y in zip(blocks, blocks[1:]):
                a, b = firsts[x], ends[y - 1]
                inputs = ((f - a, e - a, u) for f, e, u in zip(firsts[x:y], ends[x:y], us[x:y]))
                _output(unfolded[segs[x]], states[a:b], outputs[a:b], inputs)
    _require_finite(states, lambda k, _: f"state became non-finite at {where.format(times[k])}")
    if outputs is not states:
        _require_finite(outputs, lambda k, _: f"output became non-finite at {where.format(times[k])}")
    return Trajectory(times, states, outputs, system.state_shape, system.output_shape)


def _require_finite(rows, message):
    """Raise NumericOverflowError(message(k, j)) for the first NaN or infinity
    rows[k, j] of the 2-D rows in row-major order. The rows are read by their
    min and max first, which allocate nothing: a NaN or infinity makes one of
    them non-finite."""
    if not (math.isfinite(rows.min(initial=0.0)) and math.isfinite(rows.max(initial=0.0))):
        raise NumericOverflowError(message(*map(int, np.argwhere(~np.isfinite(rows))[0])))


def _require_kind(system, kind, what):
    if system.time_kind != kind:
        raise ValueError(f"{what} needs a {kind}-time system, got {system.time_kind}")


@np.errstate(over="ignore", invalid="ignore")  # a non-finite result is raised below
def step_discrete(system, state, u=None, n=0):
    """One update X(n+1) = A(n)·X(n) + B(n)·U(n); returns (next_state, output).

    The output is Y(n) = C(n)·X(n) + D(n)·U(n) for the *current* sample, with
    an absent C meaning the output is the state and an absent D no feedthrough.
    The step is one _advance row, as in simulate_discrete, so a loop of these
    gives its bits; a non-finite state at step n+1, else output at step n,
    raises its NumericOverflowError. The step index n is an integer >= 0,
    else ValueError names it.
    """
    _require_kind(system, "discrete", "step_discrete")
    n = _as_axis(n, "n", least=0)
    v, u, m = _state_vec(system, state), _input_vec(system, u), system.unfolded_at(n)
    nxt = _advance(m.a, None if u is None else m.b @ u, v, np.empty((1, system.state_dim)), 0, 1)
    out = _output(m, v[None], np.empty((1, system.output_dim)), [(0, 1, u)])
    _require_finite(nxt[None], lambda *_: f"state became non-finite at step {n + 1}")
    _require_finite(out, lambda *_: f"output became non-finite at step {n}")
    return Tensor._wrap(nxt.reshape(system.state_shape)), Tensor._wrap(out.reshape(system.output_shape))


def simulate_discrete(system, x0, steps, u=None) -> Trajectory:
    """Iterate the update map, returning samples at n = 0..steps.

    `u` is an InputSignal sampled at integer steps; None means zero input.
    Raises NumericOverflowError naming the step if the state or an output
    leaves the finite range, and ValueError when `steps` is not an integer
    or the samples would exceed MAX_GRID_CELLS.
    """
    _require_kind(system, "discrete", "simulate_discrete")
    steps = _as_axis(steps, "steps", least=0)
    width = system.state_dim + system.output_dim
    _refuse_large_grid(f"steps {steps}", (steps + 1) * width, "(steps+1) x (state+output values)")
    times = np.arange(steps + 1, dtype=float)
    return _sweep(system, _as_signal(system, u), _state_vec(system, x0), times, "step {:.0f}")


def solve_discrete_closed_form(system, x0, n, u=None) -> Tensor:
    """State at step n of a time-invariant system via unfolded matrix powers.

    vec(X(n)) = M_A^n vec(x0) + sum_{k<n} M_A^(n-1-k) M_B vec(u(k)), with
    M_A = unfold(A, r) and M_B = unfold(B, r).
    """
    _require_kind(system, "discrete", "solve_discrete_closed_form")
    if not system.is_time_invariant:
        raise ValueError("closed form needs a time-invariant system; use simulate_discrete")
    n = _as_axis(n, "n", least=0)
    signal = _as_signal(system, u)  # read by lookup, not through the sweep's timeline
    m = system.unfolded[0]
    acc = np.linalg.matrix_power(m.a, n) @ _state_vec(system, x0)
    if system.has_input:
        for k in range(n):
            acc = acc + np.linalg.matrix_power(m.a, n - 1 - k) @ (m.b @ signal.at(k).data)
    return devec(acc, system.state_shape)


# The Padé degrees m of Higham's scaling and squaring (SIAM J. Matrix Anal.
# Appl. 26(4), 2005), each with θ_m, the largest 1-norm of a matrix whose
# [m/m] approximant of exp is accurate to the unit roundoff (his Table 2.3).
_PADE_THETA = (
    (3, 1.495585217958292e-2),
    (5, 2.539398330063230e-1),
    (7, 9.504178996162932e-1),
    (9, 2.097847961257068e0),
    (13, 5.371920351148152e0),
)


def _pade_rows(m):
    """The coefficients b_j = (2m-j)!/(j!·(m-j)!) of the numerator Σ_j b_j·x^j
    of the [m/m] approximant of exp, whose denominator is the same sum at -x,
    as the rows that weigh the powers I, x², x⁴, ... into its odd part over
    x and its even part; for m = 13, Higham's split: the odd and even parts
    of weight x⁸ and above over x⁶, then those below. Each b_j is an exact
    integer rounded once to a double."""
    b = [math.factorial(2 * m - j) // (math.factorial(j) * math.factorial(m - j)) for j in range(m + 1)]
    rows = [b[1::2], b[::2]] if m < 13 else [[0, *b[9::2]], [0, *b[8::2]], b[1:8:2], b[0:7:2]]
    return np.array(rows, dtype=float)


_PADE_ROWS = {m: _pade_rows(m) for m, _ in _PADE_THETA}


def _pade_minus_eye(a, degree) -> np.ndarray:
    """r(a) - I for the [degree/degree] Padé approximant r = (V-U)⁻¹·(V+U)
    of exp(a), with U its odd part and V its even part: (V-U)⁻¹·2U, one
    solve that never forms I + R, so a slow mode's R keeps its own digits.
    The parts weigh the stacked even powers of a in one product; degree 13
    takes Higham's 6 products, up to a⁶."""
    rows = _PADE_ROWS[degree]
    n = a.shape[0]
    powers = np.empty((rows.shape[1], n, n))  # I, a², a⁴, ...
    powers[0] = np.eye(n)
    np.matmul(a, a, out=powers[1])
    for j in range(2, len(powers)):
        np.matmul(powers[j - 1], powers[1], out=powers[j])
    parts = (rows @ powers.reshape(len(powers), n * n)).reshape(len(rows), n, n)
    if degree == 13:
        parts = powers[3] @ parts[:2] + parts[2:]
    odd, v = parts
    u = a @ odd
    return np.linalg.solve(v - u, 2 * u)


def matrix_exponential(m, t=1.0) -> np.ndarray:
    """exp(m*t) by Higham's scaling and squaring (SIAM J. Matrix Anal.
    Appl. 26(4), 2005) over a Padé approximant.

    The degree is the least of 3, 5, 7, 9 and 13 whose θ bounds the 1-norm of
    m*t; past θ₁₃ the matrix is scaled by 2^-s to a 1-norm at most θ₁₃ and
    the degree-13 approximant is squared s times. The approximant and the
    squarings carry R = exp(m*t/2^s) - I: R comes from one solve
    (V - U)·R = 2U, then R <- 2R + R² per squaring, and I is added at the
    end, so a slow mode of a stiff matrix does not round away against 1.
    Once a squaring leaves ||I + R||₁ <= 1/2, no mode is near 1 and I + R
    itself is squared for the rest, so that an exponential whose every mode
    decays far below eps keeps its size where R would reach -I exactly.
    One power-of-two scaling serves every magnitude: m and t are first
    brought below 1 by their binary exponents, so neither m*t nor its norm
    can overflow, and s is read exactly from the exponent of the norm over
    θ₁₃. An exponential past the double range comes back non-finite without
    a numpy warning; a 0x0 matrix gives the 0x0 identity.
    """
    m = _as_matrix(m, "matrix", square=True)
    t = _as_real(t, "t")
    peak = float(np.abs(m).max(initial=0.0))
    e_m, e_t = math.frexp(peak)[1], math.frexp(t)[1]
    a = np.ldexp(m, -e_m) * math.ldexp(t, -e_t)  # m*t/2^(e_m+e_t), entries below 1
    norm = float(np.abs(a).sum(axis=0).max(initial=0.0))
    # s = ceil(log2(1-norm of m*t / θ13)) from that ratio = frac*2^(e+e_m+e_t), 0.5 <= frac < 1
    frac, e = math.frexp(norm / _PADE_THETA[-1][1])
    squarings = max(e + e_m + e_t - (frac == 0.5), 0) if frac else 0
    a = np.ldexp(a, e_m + e_t - squarings)
    norm = math.ldexp(norm, e_m + e_t - squarings)  # of a, at most θ13 up to rounding
    r = _pade_minus_eye(a, next((d for d, theta in _PADE_THETA[:-1] if norm <= theta), 13))
    eye = np.eye(m.shape[0])
    with np.errstate(over="ignore", invalid="ignore"):
        for left in range(squarings - 1, -1, -1):
            r = 2 * r + r @ r  # (I + r)^2 - I
            e = r + eye
            if np.abs(e).sum(axis=0).max(initial=0.0) <= 0.5:  # no mode left near 1
                for _ in range(left):
                    e = e @ e
                return e
        return r + eye


def _zoh_pair(m, dt):
    """(Φ, Γ): m discretized over a step dt, Φ = exp(M_A·dt) and
    Γ = ∫_0^dt exp(M_A·s) ds·M_B, the P and Q that _advance steps, both
    blocks of the exponential of [[M_A, M_B], [0, 0]]·dt (Van Loan 1978), in
    which M_B has no columns without input; Γ is then None."""
    q = m.a.shape[0]
    p = 0 if m.b is None else m.b.shape[1]
    aug = np.zeros((q + p,) * 2)
    aug[:q, :q] = m.a
    aug[:q, q:] = m.b if p else 0
    big = matrix_exponential(aug, dt)
    return big[:q, :q], big[:q, q:] if p else None


def _rk4_map(m_a, m_mid, m_b, dt):
    """(P, Q, Q3): classical RK4 over dt, with the field M_A·v + M_B·u read
    from m_a, m_mid and m_b at the step's start, midpoint and end, run on the
    columns of [v; u_a; u_mid; u_b], as the P and Q that _advance steps:
    Q = Q_a + Q_mid + Q_b for one input held over the step, and
    Q3 = [Q_a Q_mid Q_b] for [u_a; u_mid; u_b]; without input both are None."""
    q = m_a.a.shape[0]
    p = 0 if m_a.b is None else m_a.b.shape[1]
    eye = np.eye(q, q + 3 * p)

    def field(n, m, x):  # M_A·x + M_B·u_n
        k = m.a @ x
        if p:
            k[:, q + n * p:q + n * p + p] += m.b
        return k

    k1 = field(0, m_a, eye)
    k2 = field(1, m_mid, eye + (dt / 2) * k1)
    k3 = field(1, m_mid, eye + (dt / 2) * k2)
    k4 = field(2, m_b, eye + dt * k3)
    step = eye + (dt / 6) * (k1 + 2 * k2 + 2 * k3 + k4)
    split = step[:, q:] if p else None
    held = None if split is None else split.reshape(q, 3, p).sum(axis=1)
    return step[:, :q], held, split


def _rk4_gain(z):
    """|R(z)| for RK4's stability function R(z) = 1 + z + z²/2 + z³/6 + z⁴/24,
    the factor by which one step of h multiplies a mode λ, with z = hλ."""
    return abs(1 + z * (1 + z * (1 / 2 + z * (1 / 6 + z / 24))))


@np.errstate(over="ignore", invalid="ignore")  # a gain past the double range reads inf or nan: growth
def _refuse_rk4_growth(system, t_end, h):
    """Raise ValueError when RK4 steps of h would grow a decaying or
    marginal mode of a segment in force before t_end: a λ of its M_A with
    Re λ <= √eps·|λ| and |R(hλ)| > max(1, |e^(hλ)|)·(1 + 4·eps), so x'' = -x
    is refused whatever sign rounding gives Re λ. R maps the closed left
    half-disk of radius 2.61 into |R| <= 1, so a segment with h·‖M_A‖∞ <= 2.6
    passes without eigvals. The error names the segment, h, the mode
    (marginal when |Re λ| <= √eps·|λ|), |R(hλ)| and the largest h with
    |R| <= max(1, |e^(hλ)|) for that mode, the least among the growing
    modes, by bisection: in the left half-plane RK4's stable region is
    star-shaped about 0."""
    eps = math.ulp(1.0)
    for k, (start, m) in enumerate(zip(system.schedule.keys, system.unfolded)):
        if start >= t_end:
            break
        if h * np.abs(m.a).sum(axis=1).max(initial=0.0) <= 2.6:
            continue
        lam = np.linalg.eigvals(m.a)
        gain = _rk4_gain(h * lam)
        bound = np.maximum(1, np.exp(h * lam.real)) * (1 + 4 * eps)
        grows = (lam.real <= math.sqrt(eps) * abs(lam)) & ~(gain <= bound)
        if grows.any():
            lam, gain = lam[grows], gain[grows]
            lo, hi = np.zeros(lam.size), np.full(lam.size, h)
            for _ in range(64):
                mid = (lo + hi) / 2
                stable = _rk4_gain(mid * lam) <= np.maximum(1, np.exp(mid * lam.real))
                lo, hi = np.where(stable, mid, lo), np.where(stable, hi, mid)
            i = lo.argmin()
            z = complex(lam[i])
            mode = f"{z.real!r}{z.imag:+}j" if z.imag else repr(z.real)
            kind = "marginal" if abs(z.real) <= math.sqrt(eps) * abs(z) else "decaying"
            raise ValueError(
                f"segment {k}: rk4 steps of h {h!r} grow its {kind} mode lambda={mode} by "
                f"|R(h*lambda)|={float(gain[i])!r} per step; h <= {float(lo[i])!r} "
                "keeps that mode, or use --method exact"
            )


def _grid_size(t_end, h):
    """Sample count of the grid 0, h, ..., n·h, t_end: n whole steps, and
    t_end appended unless n·h is already within 1e-9·h of it and is not 0,
    so a t_end at most 1e-9·h still gets the grid [0, t_end]. Counted in
    floats, so a huge grid is measured without building it; may be inf."""
    n = t_end / h + 1e-9
    n = math.floor(n) if n < math.inf else n
    return n + (2 if n == 0 or t_end - n * h > 1e-9 * h else 1)


def simulate_continuous(system, x0, t_end, h=None, u=None, method="rk4") -> Trajectory:
    """Integrate dX/dt = A(t)·X + B(t)·U(t) on the grid t = 0, h, 2h, ..., t_end.

    The final step is truncated to land exactly on t_end; h defaults to
    t_end/1000, and ValueError names a t_end for which that is 0. Timeline
    keys (schedule starts and input breakpoints) within 4 ulps of a grid
    time are moved onto it, so k*h stands for the nominal k·h and the state
    and output there read the piece the key starts. Every grid interval but
    the last, to t_end, is within 4 ulps (of its end) of h and is stepped
    with dt = h; the last takes its own length when it is not. One sweep
    moves the state by one affine map v <- P·v + Q·u per interval, shared
    with its input term Q·u by the intervals of a timeline piece; only a
    piece's last interval is stepped from the pieces in force over it: an
    exact one cut by a key, an RK4 step into the next piece, or the grid's
    last interval off h.
    method="rk4" runs classical Runge-Kutta on the unfolded
    field, its four stages composed into v <- P·v + Q_a·u_a + Q_mid·u_mid +
    Q_b·u_b (the inputs at the step's start, midpoint and end) once per run
    for each (segment at the start, at the midpoint, at the end, dt).
    method="exact" uses the zero-order-hold pair Φ = exp(M_A·dt),
    Γ = ∫_0^dt exp(M_A·s) ds·M_B, read off one exponential of
    [[M_A, M_B], [0, 0]]·dt, once per run for each (segment, dt); an
    interval cut by a key is stepped piece by piece with pairs that are not
    kept. Finiteness is checked once, after the sweep: NumericOverflowError
    names the first sample whose state, else output, is not finite. A grid
    whose samples would exceed MAX_GRID_CELLS raises ValueError before it
    is built, and so does, for "rk4", an h whose steps would grow a decaying
    or marginal mode of a segment (_refuse_rk4_growth).
    """
    _require_kind(system, "continuous", "simulate_continuous")
    t_end = _as_real(t_end, "t_end")
    if not t_end > 0:
        raise ValueError(f"t_end must be positive, got {t_end}")
    if h is None:
        h = t_end / 1000.0
        if h == 0:
            raise ValueError(f"t_end {t_end!r} makes the default step t_end/1000 underflow to 0; pass h")
    h = _as_real(h, "h")
    if not h > 0:
        raise ValueError(f"h must be positive, got {h}")
    if method not in ("rk4", "exact"):
        raise ValueError(f"method must be 'rk4' or 'exact', got {method!r}")
    samples = _grid_size(t_end, h)
    width = system.state_dim + system.output_dim
    _refuse_large_grid(f"h {h!r}", samples * width, "(grid samples) x (state+output values)")
    if method == "rk4":
        _refuse_rk4_growth(system, t_end, h)
    times = np.append(np.arange(samples - 1) * h, t_end)
    return _sweep(system, _as_signal(system, u), _state_vec(system, x0), times, "t={:.17g}", method, h)
