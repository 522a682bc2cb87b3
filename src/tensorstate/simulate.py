"""Trajectory generation: discrete iteration, the discrete closed form, and
continuous-time integration (classical RK4 and an exact matrix-exponential
path for piecewise-constant coefficients and inputs).
"""

from __future__ import annotations

import bisect
import math
from dataclasses import dataclass

import numpy as np

from .systems import Piecewise
from .tensors import ShapeError, Tensor, _as_axis, _as_tensor, _normalize_shape, devec, vec

__all__ = [
    "NumericOverflowError",
    "MAX_GRID_CELLS",
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


def _refuse_large_grid(system, what, samples, formula):
    """Raise ValueError, before anything is allocated, when `samples` rows of
    state and output values would exceed MAX_GRID_CELLS."""
    cells = samples * (system.state_dim + system.output_dim)
    if cells > MAX_GRID_CELLS:
        raise ValueError(
            f"{what} needs {cells:.0f} output cells ({formula} x (state+output values)), "
            f"more than the limit of {MAX_GRID_CELLS}"
        )


class InputSignal(Piecewise):
    """Forcing signal: zero, constant, or a breakpoint table, each a
    Piecewise step function of tensors of one shape, checked here once.
    Zero and constant are one piece at 0, whose value is None for zero. A
    table's keys strictly increase from 0 and sampling holds the value of
    the last key at or before the query (zero-order hold), also past the end.
    """

    __slots__ = ("kind",)

    def __init__(self, kind, pairs):
        super().__init__(pairs, "input table" if kind == "table" else f"{kind} input")
        self.kind = kind
        if kind != "zero":
            first = _as_tensor(self.values[0])
            rest = zip(self.keys[1:], self.values[1:])
            self.values = (first, *(_coerce(v, first.shape, "input table value at key {}", k) for k, v in rest))

    @classmethod
    def zero(cls) -> "InputSignal":
        return cls("zero", [(0, None)])

    @classmethod
    def constant(cls, value) -> "InputSignal":
        return cls("constant", [(0, value)])

    @classmethod
    def table(cls, samples) -> "InputSignal":
        return cls("table", samples)

    @property
    def breakpoints(self) -> tuple:
        """Keys where a table signal may jump; empty for zero/constant."""
        return self.keys if self.kind == "table" else ()

    @property
    def constant_value(self) -> Tensor | None:
        return self.values[0] if self.kind == "constant" else None

    @property
    def table_samples(self) -> tuple:
        """(when, value) pairs of a table signal; empty otherwise."""
        return tuple(self) if self.kind == "table" else ()

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
        return (self[k] for k in range(len(self)))

    def __getitem__(self, index):
        if isinstance(index, slice):
            return tuple(self[k] for k in range(len(self))[index])
        return TrajectorySample(
            float(self._times[index]),
            Tensor._wrap(self._states[index].reshape(self.state_shape)),
            Tensor._wrap(self._outputs[index].reshape(self.output_shape)),
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
    _coerce(u.values[0], system.input_shape, "input sample")  # all values share this shape
    return u


def _timeline(system, signal, grid=()) -> Piecewise:
    """Coefficients and input of one run as one step function, keyed by the
    schedule starts and the input breakpoints together. Each piece holds the
    unfolded matrices and the vec'd input (None without an input) in force
    until the next key, so both are sampled once per piece. A key within 4
    ulps of a time of the sorted `grid` is moved onto it; of keys that land
    on one time, the last piece holds."""
    pieces = {}
    for key in sorted(set(system.schedule.starts).union(() if signal is None else signal.breakpoints)):
        i = bisect.bisect_left(grid, key)
        near = [g for g in grid[max(i - 1, 0):i + 1] if abs(g - key) <= 4 * math.ulp(g)]
        pieces[near[0] if near else key] = (
            system.unfolded_at(key), None if signal is None else signal.at(key).data
        )
    return Piecewise(pieces.items(), "timeline")


def _advance(m, u, v, out, lo, hi) -> np.ndarray:
    """Step v <- P·v + Q·u through rows lo..hi-1 of `out` and return the last
    row, for a map m with P = m.a and Q = m.b: a discrete step, an exact pair
    (Φ, Γ) or a composed RK4 map. c = Q·u is computed once, and added to P·v
    in each row whenever the system has an input, even a zero one, so signed
    zeros agree on every route. v may be a row of `out`: numpy buffers it."""
    p, c = m.a, None if u is None else m.b @ u
    for r in range(lo, hi):
        row = out[r]
        np.matmul(p, v, out=row)
        if c is not None:
            row += c
        v = row
    return v


def _output(piece, rows, out) -> np.ndarray:
    """Write M_C·x + M_D·u for each row x of `rows` into `out` and return it,
    for a piece (m, u) where an absent C passes the state through. C·x is
    one stacked matmul over the rows, which runs one matrix-vector product
    per row, the same as C @ x (a bulk rows @ C.T rounds differently); D·u
    is one product, added after."""
    m, u = piece
    if m.c is None:
        out[:] = rows
    else:
        np.matmul(m.c, rows[:, :, None], out=out[:, :, None])
    if m.d is not None and u is not None:
        out += m.d @ u
    return out


@np.errstate(over="ignore", invalid="ignore")  # non-finite rows are raised after the loop
def _sweep(system, timeline, v, times, where, method="discrete", h=None):
    """Sample state and output at each of `times`, piece by piece of the
    timeline, every step by _advance. The intervals that start in a piece
    share one map v <- P·v + Q·u, stepped as one run: the piece's M_A and M_B
    for "discrete", the memoized _zoh_pair(m, h) for "exact", the memoized
    held map of _rk4_map(m, m, m, h) for "rk4". Only a piece's last interval
    may go alone, from the pieces in force over it: an RK4 step into the next
    sampled piece, an exact step cut by a key (each cut piece into the same
    row in turn), or the grid's last interval when not within 4 ulps (of its
    end) of h. The outputs are the states unless a sampled piece has C or D·u,
    else _output writes them piece by piece. A non-finite state, else output,
    raises NumericOverflowError naming its time formatted by `where`."""
    keys, pieces = timeline.keys, timeline.values
    n = len(times)
    starts = [bisect.bisect_left(times, key) for key in keys]  # first sample of each piece
    spans = [(j, lo, hi) for j, (lo, hi) in enumerate(zip(starts, [*starts[1:], n])) if lo < hi]
    memo = {}
    # times[k] = k*h before t_end, so for k >= 2 times[k] - times[k-1] is exact (Sterbenz)
    # and within ulp(times[k]) of h: only the grid's last interval can be off h
    last = h
    if method != "discrete" and n > 1 and abs(times[-1] - times[-2] - h) > 4 * math.ulp(times[-1]):
        last = times[-1] - times[-2]

    def kept(key, build, *args):
        if key not in memo:
            memo[key] = build(*args)
        return memo[key]

    def held(m, dt):  # the map of an interval of length dt inside a piece with matrices m
        if method == "discrete":
            return m
        if method == "exact":
            return kept((id(m), dt), _zoh_pair, m, dt)  # the segments' matrices live on the system
        return kept((id(m), id(m), id(m), dt), _rk4_map, m, m, m, dt)[0]

    def step(i, j, k, v):  # row i+1 from v over interval i, by the pieces j..k in force over it
        a, b = times[i], times[i + 1]
        (m, u), dt = pieces[j], last if i == n - 2 else h
        if method == "rk4" and j != k:
            mid = bisect.bisect_right(keys, a + (b - a) / 2, j, k + 1) - 1
            (m_mid, u_mid), (m_b, u_b) = pieces[mid], pieces[k]
            maps = kept((id(m), id(m_mid), id(m_b), dt), _rk4_map, m, m_mid, m_b, dt)
            u = u if u is None else np.concatenate((u, u_mid, u_b))  # the inputs at a, mid, b
            return _advance(maps[1], u, v, states, i + 1, i + 2)
        cuts = keys[j + 1:k if keys[k] == b else k + 1]
        if not cuts:
            return _advance(held(m, dt), u, v, states, i + 1, i + 2)
        for s, (p, r) in enumerate(zip((a, *cuts), (*cuts, b)), j):  # each into row i+1; pairs not kept
            v = _advance(_zoh_pair(pieces[s][0], r - p), pieces[s][1], v, states, i + 1, i + 2)
        return v

    states = np.empty((n, system.state_dim))
    states[0] = v
    for (j, lo, hi), (k, *_) in zip(spans, [*spans[1:], spans[-1]]):  # k: the next sampled piece, or j
        (m, u), stop = pieces[j], min(hi, n - 1)  # the intervals lo..stop-1 start in piece j
        # the last of them goes alone when RK4 reads piece k at its end, when an
        # exact step is cut (it does not end on k's key, or a piece lies between),
        # or when it is the grid's last interval and off h
        leaves = j != k and (method == "rk4" or method == "exact" and (k > j + 1 or keys[k] != times[hi]))
        end = stop - (lo < stop and (leaves or stop == n - 1 and last != h))
        if lo < end:  # the shared-map run over the intervals lo..end-1
            v = _advance(held(m, h), u, v, states, lo + 1, end + 1)
        if end < stop:
            v = step(end, j, k, v)
    sampled = [pieces[j] for j, *_ in spans]
    outputs = states  # unless a sampled piece has C or D·u
    if any(m.c is not None or m.d is not None and u is not None for m, u in sampled):
        outputs = np.empty((n, system.output_dim))
        for j, lo, hi in spans:
            _output(pieces[j], states[lo:hi], outputs[lo:hi])
    _require_finite(where, ("state", states, times), ("output", outputs, times))
    return Trajectory(times, states, outputs, system.state_shape, system.output_shape)


def _require_finite(where, *named):
    """Raise NumericOverflowError for the first (name, rows, times) with a
    non-finite row, naming its time formatted by `where`."""
    for name, rows, times in named:
        bad = np.flatnonzero(~np.isfinite(rows).all(axis=1))
        if bad.size:
            raise NumericOverflowError(f"{name} became non-finite at {where.format(times[bad[0]])}")


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
    raises its NumericOverflowError.
    """
    _require_kind(system, "discrete", "step_discrete")
    v, u, m = _state_vec(system, state), _input_vec(system, u), system.unfolded_at(n)
    nxt = _advance(m, u, v, np.empty((1, system.state_dim)), 0, 1)
    out = _output((m, u), v[None], np.empty((1, system.output_dim)))
    _require_finite("step {}", ("state", nxt[None], [n + 1]), ("output", out, [n]))
    return Tensor._wrap(nxt.reshape(system.state_shape)), Tensor._wrap(out.reshape(system.output_shape))


def simulate_discrete(system, x0, steps, u=None) -> Trajectory:
    """Iterate the update map, returning samples at n = 0..steps.

    `u` is an InputSignal sampled at integer steps; None means zero input.
    Raises NumericOverflowError naming the step if the state or an output
    leaves the finite range, and ValueError when `steps` is not an integer
    or the samples would exceed MAX_GRID_CELLS.
    """
    _require_kind(system, "discrete", "simulate_discrete")
    steps = _as_axis(steps, "steps")
    if steps < 0:
        raise ValueError(f"steps must be >= 0, got {steps}")
    _refuse_large_grid(system, f"steps {steps}", steps + 1, "(steps+1)")
    timeline = _timeline(system, _as_signal(system, u))
    return _sweep(system, timeline, _state_vec(system, x0), range(steps + 1), "step {}")


def solve_discrete_closed_form(system, x0, n, u=None) -> Tensor:
    """State at step n of a time-invariant system via unfolded matrix powers.

    vec(X(n)) = M_A^n vec(x0) + sum_{k<n} M_A^(n-1-k) M_B vec(u(k)), with
    M_A = unfold(A, r) and M_B = unfold(B, r).
    """
    _require_kind(system, "discrete", "solve_discrete_closed_form")
    if not system.is_time_invariant:
        raise ValueError("closed form needs a time-invariant system; use simulate_discrete")
    n = _as_axis(n, "n")
    if n < 0:
        raise ValueError(f"n must be >= 0, got {n}")
    signal = _as_signal(system, u)  # read by lookup, not through the sweep's timeline
    m = system.unfolded[0]
    acc = np.linalg.matrix_power(m.a, n) @ _state_vec(system, x0)
    if system.has_input:
        for k in range(n):
            acc = acc + np.linalg.matrix_power(m.a, n - 1 - k) @ (m.b @ signal.at(k).data)
    return devec(acc, system.state_shape)


def matrix_exponential(m, t=1.0) -> np.ndarray:
    """exp(m*t) by scaling-and-squaring over a truncated power series.

    The scaled matrix m*t/2^s has infinity norm <= 0.5, so the series reaches
    machine precision in well under the 40-term cap. The series and the
    squarings carry R = exp(m*t/2^s) - I (R <- 2R + R²), and I is added at
    the end, so a slow mode of a stiff matrix does not round away against 1.
    One power-of-two scaling serves every magnitude: m and t are first
    brought below 1 by their binary exponents, so neither m*t nor its norm
    can overflow, and s is read exactly from the norm's exponent. An
    exponential past the double range comes back non-finite without a numpy
    warning.
    """
    m = np.asarray(m, dtype=float)
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise ShapeError(f"matrix_exponential needs a square matrix, got shape {list(m.shape)}")
    t = float(t)
    peak = float(np.abs(m).max())  # nan or inf when an entry is
    if not math.isfinite(peak) or not math.isfinite(t):
        raise ValueError("matrix_exponential needs finite entries and finite t")
    e_m, e_t = math.frexp(peak)[1], math.frexp(t)[1]
    a = np.ldexp(m, -e_m) * math.ldexp(t, -e_t)  # m*t/2^(e_m+e_t), entries below 1
    frac, e_a = math.frexp(float(np.linalg.norm(a, np.inf)))
    # ceil(log2(norm of m*t / 0.5)) from norm = frac*2^(e_a+e_m+e_t), 0.5 <= frac < 1
    squarings = max(e_a + e_m + e_t + (frac > 0.5), 0) if frac else 0
    a = np.ldexp(a, e_m + e_t - squarings)
    r = term = a  # exp(a) - I
    for k in range(2, 41):
        term = term @ a / k
        r = r + term
        if np.linalg.norm(term, np.inf) <= 1e-17 * np.linalg.norm(r, np.inf):
            break
    with np.errstate(over="ignore", invalid="ignore"):
        for _ in range(squarings):
            r = 2 * r + r @ r  # (I + r)^2 - I
        return r + np.eye(m.shape[0])


def _zoh_pair(m, dt):
    """m discretized over a step dt: m with a = Φ = exp(M_A·dt) and
    b = Γ = ∫_0^dt exp(M_A·s) ds·M_B, the P and Q that _advance steps, both
    blocks of the exponential of [[M_A, M_B], [0, 0]]·dt (Van Loan 1978), in
    which M_B has no columns without input; Γ is then None."""
    q = m.a.shape[0]
    p = 0 if m.b is None else m.b.shape[1]
    aug = np.zeros((q + p,) * 2)
    aug[:q, :q] = m.a
    aug[:q, q:] = m.b if p else 0
    big = matrix_exponential(aug, dt)
    return m._replace(a=big[:q, :q], b=big[:q, q:] if p else None)


def _rk4_map(m_a, m_mid, m_b, dt):
    """Classical RK4 over dt, with the field M_A·v + M_B·u read from m_a, m_mid
    and m_b at the step's start, midpoint and end, run on the columns of
    [v; u_a; u_mid; u_b] and returned as two maps (a = P, b = Q) that _advance
    steps: Q = Q_a + Q_mid + Q_b for one input held over the step, and
    Q = [Q_a Q_mid Q_b] for [u_a; u_mid; u_b]; without input Q is None in both."""
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
    return m_a._replace(a=step[:, :q], b=held), m_a._replace(a=step[:, :q], b=split)


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
    is built.
    """
    _require_kind(system, "continuous", "simulate_continuous")
    t_end = float(t_end)
    if not t_end > 0 or not math.isfinite(t_end):
        raise ValueError(f"t_end must be positive and finite, got {t_end}")
    if h is None:
        h = t_end / 1000.0
        if h == 0:
            raise ValueError(f"t_end {t_end!r} makes the default step t_end/1000 underflow to 0; pass h")
    h = float(h)
    if not h > 0 or not math.isfinite(h):
        raise ValueError(f"h must be positive and finite, got {h}")
    if method not in ("rk4", "exact"):
        raise ValueError(f"method must be 'rk4' or 'exact', got {method!r}")
    samples = _grid_size(t_end, h)
    _refuse_large_grid(system, f"h {h!r}", samples, "(grid samples)")
    times = [k * h for k in range(samples - 1)] + [t_end]
    timeline = _timeline(system, _as_signal(system, u), times)
    return _sweep(system, timeline, _state_vec(system, x0), times, "t={:.17g}", method, h)
