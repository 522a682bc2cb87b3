"""Trajectory generation: discrete iteration, the discrete closed form, and
continuous-time integration (classical RK4 and an exact matrix-exponential
path for piecewise-constant coefficients and inputs).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .systems import Piecewise
from .tensors import ShapeError, Tensor, _as_tensor, _normalize_shape, devec, vec

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


class InputSignal:
    """Forcing signal: zero, constant, or a breakpoint table.

    A table is a Piecewise step function of tensors: keys strictly increase
    from 0 and sampling holds the value of the last key at or before the
    query (zero-order hold), also beyond the final key.
    """

    __slots__ = ("kind", "_value")

    def __init__(self, kind, value=None):
        self.kind = kind
        self._value = value

    @classmethod
    def zero(cls) -> "InputSignal":
        return cls("zero")

    @classmethod
    def constant(cls, value) -> "InputSignal":
        return cls("constant", _as_tensor(value))

    @classmethod
    def table(cls, samples) -> "InputSignal":
        table = Piecewise(samples, "input table")
        shape = _as_tensor(table.values[0]).shape
        values = [_coerce(value, shape, f"input table value at key {when}") for when, value in table]
        return cls("table", Piecewise(zip(table.keys, values), "input table"))

    @property
    def breakpoints(self) -> tuple:
        """Keys where a table signal may jump; empty for zero/constant."""
        return self._value.keys if self.kind == "table" else ()

    @property
    def constant_value(self) -> Tensor | None:
        return self._value if self.kind == "constant" else None

    @property
    def table_samples(self) -> tuple:
        """(when, value) pairs of a table signal; empty otherwise."""
        return tuple(self._value) if self.kind == "table" else ()

    def sample(self, when, shape) -> Tensor:
        """Value at `when` as a tensor of the given shape."""
        if self.kind == "zero":
            return Tensor.zeros(shape)
        value = self._value if self.kind == "constant" else self._value.at(when)
        return _coerce(value, tuple(shape), "input sample")


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
    and outputs as rows of (N, q) and (N, s) matrices. Samples and tensors
    are built on demand as views of those rows.
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


def _coerce(value, shape, what) -> Tensor:
    value = _as_tensor(value)
    if value.shape != shape:
        raise ShapeError(f"{what} has shape {list(value.shape)}, expected {list(shape)}")
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
    """Normalize the trajectory-level input argument to a signal or None."""
    if not system.has_input:
        if u is not None and not (isinstance(u, InputSignal) and u.kind == "zero"):
            raise ValueError("system declares no input; u must be omitted")
        return None
    if u is None:
        return InputSignal.zero()
    if not isinstance(u, InputSignal):
        raise TypeError("u must be an InputSignal (zero/constant/table)")
    return u


def _timeline(system, signal) -> Piecewise:
    """Coefficients and input of one run as one step function, keyed by the
    schedule starts and the input breakpoints together. Each piece holds the
    unfolded matrices and the vec'd input (None without an input) in force
    until the next key, so both are sampled once per piece."""
    keys = sorted(set(system.schedule.starts).union(() if signal is None else signal.breakpoints))
    pieces = [
        (system.unfolded_at(k), None if signal is None else vec(signal.sample(k, system.input_shape)))
        for k in keys
    ]
    return Piecewise(zip(keys, pieces), "timeline")


def _advance(piece, v) -> np.ndarray:
    """M_A·v + M_B·u for a piece (m, u): the next state of a discrete step,
    the derivative of a continuous one, and Φ·v + Γ·u when m is a _zoh_pair.
    The input term is added whenever the system has one, even when it is
    zero, so signed zeros come out the same on every route."""
    m, u = piece
    nxt = m.a @ v
    if u is not None:
        nxt = nxt + m.b @ u
    return nxt


def _output(piece, v) -> np.ndarray:
    """M_C·v + M_D·u for a piece (m, u), where an absent C passes the state through."""
    m, u = piece
    out = v if m.c is None else m.c @ v
    if m.d is not None and u is not None:
        out = out + m.d @ u
    return out


@np.errstate(over="ignore", invalid="ignore")  # a non-finite state or output is raised below
def _sweep(system, timeline, v, times, step, where) -> Trajectory:
    """Sample state and output at each of `times`, moving the state between
    neighbouring samples with step(piece, v, a, b), where piece is the
    timeline's value at a. `where` formats a sample time for the error
    raised when the state or an output leaves the finite range."""
    states = np.empty((len(times), system.state_dim))
    outputs = np.empty((len(times), system.output_dim))
    for i, t in enumerate(times):
        piece = timeline.at(t)
        states[i] = v
        outputs[i] = _output(piece, v)
        if i + 1 == len(times):
            break
        v = step(piece, v, t, times[i + 1])
        if not np.isfinite(v).all():
            raise NumericOverflowError(f"state became non-finite at {where.format(times[i + 1])}")
    if not np.isfinite(outputs).all():
        first = np.flatnonzero(~np.isfinite(outputs).all(axis=1))[0]
        raise NumericOverflowError(f"output became non-finite at {where.format(times[first])}")
    return Trajectory(times, states, outputs, system.state_shape, system.output_shape)


def _require_kind(system, kind, what):
    if system.time_kind != kind:
        raise ValueError(f"{what} needs a {kind}-time system, got {system.time_kind}")


def step_discrete(system, state, u=None, n=0):
    """One update X(n+1) = A(n)·X(n) + B(n)·U(n); returns (next_state, output).

    The output is Y(n) = C(n)·X(n) + D(n)·U(n) for the *current* sample, with
    an absent C meaning the output is the state and an absent D no feedthrough.
    """
    _require_kind(system, "discrete", "step_discrete")
    v = _state_vec(system, state)
    u = _input_vec(system, u)
    piece = (system.unfolded_at(n), u)
    nxt = Tensor._wrap(_advance(piece, v).reshape(system.state_shape))
    return nxt, Tensor._wrap(_output(piece, v).reshape(system.output_shape))


def simulate_discrete(system, x0, steps, u=None) -> Trajectory:
    """Iterate the update map, returning samples at n = 0..steps.

    `u` is an InputSignal sampled at integer steps; None means zero input.
    Raises NumericOverflowError naming the step if the state or an output
    leaves the finite range, and ValueError when the samples would exceed
    MAX_GRID_CELLS.
    """
    _require_kind(system, "discrete", "simulate_discrete")
    steps = int(steps)
    if steps < 0:
        raise ValueError(f"steps must be >= 0, got {steps}")
    _refuse_large_grid(system, f"steps {steps}", steps + 1, "(steps+1)")
    timeline = _timeline(system, _as_signal(system, u))
    return _sweep(
        system, timeline, _state_vec(system, x0), range(steps + 1),
        lambda piece, v, n, _: _advance(piece, v), "step {}",
    )


def solve_discrete_closed_form(system, x0, n, u=None) -> Tensor:
    """State at step n of a time-invariant system via unfolded matrix powers.

    vec(X(n)) = M_A^n vec(x0) + sum_{k<n} M_A^(n-1-k) M_B vec(u(k)), with
    M_A = unfold(A, r) and M_B = unfold(B, r).
    """
    _require_kind(system, "discrete", "solve_discrete_closed_form")
    if not system.is_time_invariant:
        raise ValueError("closed form needs a time-invariant system; use simulate_discrete")
    n = int(n)
    if n < 0:
        raise ValueError(f"n must be >= 0, got {n}")
    timeline = _timeline(system, _as_signal(system, u))
    m = system.unfolded[0]
    acc = np.linalg.matrix_power(m.a, n) @ _state_vec(system, x0)
    if system.has_input:
        for k in range(n):
            _, u_k = timeline.at(k)
            acc = acc + np.linalg.matrix_power(m.a, n - 1 - k) @ (m.b @ u_k)
    return devec(acc, system.state_shape)


def matrix_exponential(m, t=1.0) -> np.ndarray:
    """exp(m*t) by scaling-and-squaring over a truncated power series.

    The scaled matrix has infinity norm <= 0.5, so the series reaches machine
    precision in well under the 40-term cap. Where q*max|m_ij|*|t| passes
    2^1022, so that m*t or the scale 2^squarings could overflow, m and t are
    scaled apart by powers of two, and an exponential past the double range
    comes back non-finite without a numpy warning.
    """
    m = np.asarray(m, dtype=float)
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise ShapeError(f"matrix_exponential needs a square matrix, got shape {list(m.shape)}")
    t = float(t)
    peak = float(np.abs(m).max())  # nan or inf when an entry is
    if not math.isfinite(peak) or not math.isfinite(t):
        raise ValueError("matrix_exponential needs finite entries and finite t")
    q = m.shape[0]
    if q * peak * abs(t) > 2.0**1022:
        # |m_ij| < 2^e_m and |t| < 2^e_t, so the scaled m*t below has norm < q*2^-extra <= 0.5
        e_m = math.frexp(peak)[1]
        e_t = math.frexp(t)[1]
        extra = (q - 1).bit_length() + 1
        with np.errstate(over="ignore", invalid="ignore"):
            result = matrix_exponential(np.ldexp(m, -e_m), math.ldexp(t, -e_t - extra))
            for _ in range(e_m + e_t + extra):
                result = result @ result
        return result
    a = m * t
    norm = np.linalg.norm(a, np.inf)
    if norm == 0.0:
        return np.eye(q)
    squarings = max(0, int(math.ceil(math.log2(norm / 0.5)))) if norm > 0.5 else 0
    a = a / (2.0 ** squarings)
    result = np.eye(q)
    term = np.eye(q)
    for k in range(1, 41):
        term = term @ a / k
        result = result + term
        if np.linalg.norm(term, np.inf) <= 1e-17 * np.linalg.norm(result, np.inf):
            break
    for _ in range(squarings):
        result = result @ result
    return result


def _zoh_pair(m, dt):
    """Unfolded matrices m discretized over a step dt, as m with a = Φ and
    b = Γ, so _advance takes the step: Φ = exp(M_A·dt) and
    Γ = ∫_0^dt exp(M_A·s) ds·M_B, both blocks of the exponential of
    [[M_A, M_B], [0, 0]]·dt (Van Loan 1978); Γ is None without input."""
    if m.b is None:
        return m._replace(a=matrix_exponential(m.a, dt))
    q, p = m.b.shape
    aug = np.zeros((q + p, q + p))
    aug[:q, :q] = m.a
    aug[:q, q:] = m.b
    big = matrix_exponential(aug, dt)
    return m._replace(a=big[:q, :q], b=big[:q, q:])


def _grid_size(t_end, h):
    """(n, samples) of the grid 0, h, ..., n·h, t_end: n whole steps, and
    t_end appended unless n·h is already within 1e-9·h of it. Floats, so a
    huge count is measured without building anything; n may be inf."""
    n = t_end / h + 1e-9
    if n < math.inf:
        n = math.floor(n)
    return n, n + (2 if t_end - n * h > 1e-9 * h else 1)


def _time_grid(t_end, h):
    n, samples = _grid_size(t_end, h)
    times = [k * h for k in range(n + 1)]
    if samples > n + 1:
        times.append(t_end)
    else:
        times[-1] = t_end
    return times


def simulate_continuous(system, x0, t_end, h=None, u=None, method="rk4") -> Trajectory:
    """Integrate dX/dt = A(t)·X + B(t)·U(t) on the grid t = 0, h, 2h, ..., t_end.

    The final step is truncated to land exactly on t_end; h defaults to
    t_end/1000. method="rk4" runs classical Runge-Kutta on the unfolded
    vector field. method="exact" advances each interval of constant
    coefficients and input by the zero-order-hold pair v <- Φ·v + Γ·vec(u),
    with Φ = exp(M_A·dt) and Γ = ∫_0^dt exp(M_A·s) ds·M_B read off one
    exponential of [[M_A, M_B], [0, 0]]·dt (of M_A·dt alone without input),
    splitting intervals at schedule starts and input breakpoints. The pair
    does not depend on the held input, so a run computes it once per
    (segment, dt) of whole grid intervals and reuses it; the pieces of a cut
    interval are computed on their own and not kept, so the memo holds at
    most segments × distinct step lengths pairs, whatever the input table.
    A grid whose samples would exceed MAX_GRID_CELLS is refused with
    ValueError before it is built.
    """
    _require_kind(system, "continuous", "simulate_continuous")
    t_end = float(t_end)
    if not t_end > 0 or not math.isfinite(t_end):
        raise ValueError(f"t_end must be positive and finite, got {t_end}")
    if h is None:
        h = t_end / 1000.0
    h = float(h)
    if not h > 0 or not math.isfinite(h):
        raise ValueError(f"h must be positive and finite, got {h}")
    if method not in ("rk4", "exact"):
        raise ValueError(f"method must be 'rk4' or 'exact', got {method!r}")
    _refuse_large_grid(system, f"h {h!r}", _grid_size(t_end, h)[1], "(grid samples)")
    timeline = _timeline(system, _as_signal(system, u))
    v = _state_vec(system, x0)
    memo = {}

    def advance_exact(piece, v, a, b):
        cuts = timeline.inside(a, b)
        if not cuts:
            key = (id(piece[0]), b - a)  # the segment's matrices live on the system
            pair = memo.get(key)
            if pair is None:
                pair = memo[key] = _zoh_pair(piece[0], b - a)
            return _advance((pair, piece[1]), v)
        edges = (a, *cuts, b)
        for p, r in zip(edges, edges[1:]):
            m, u = timeline.at(p)
            v = _advance((_zoh_pair(m, r - p), u), v)
        return v

    def advance_rk4(piece, v, a, b):
        dt = b - a
        mid = timeline.at(a + dt / 2)
        k1 = _advance(piece, v)
        k2 = _advance(mid, v + (dt / 2) * k1)
        k3 = _advance(mid, v + (dt / 2) * k2)
        k4 = _advance(timeline.at(b), v + dt * k3)
        return v + (dt / 6) * (k1 + 2 * k2 + 2 * k3 + k4)

    step = advance_exact if method == "exact" else advance_rk4
    return _sweep(system, timeline, v, _time_grid(t_end, h), step, "t={:.17g}")
