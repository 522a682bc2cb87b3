"""Trajectory generation: discrete iteration, the discrete closed form, and
continuous-time integration (classical RK4 and an exact matrix-exponential
path for piecewise-constant coefficients and inputs).
"""

from __future__ import annotations

import bisect
import math
from dataclasses import dataclass

import numpy as np

from .tensors import ShapeError, Tensor, _as_tensor, _normalize_shape, devec, vec

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
    """State left the finite range during simulation."""


class InputSignal:
    """Forcing signal: zero, constant, or a breakpoint table.

    Tables hold (when, value) pairs with strictly increasing keys starting at
    0; sampling uses the value of the last breakpoint at or before the query
    (zero-order hold), held beyond the final breakpoint.
    """

    __slots__ = ("kind", "_value", "_breaks", "_values")

    def __init__(self, kind, value=None, breaks=None, values=None):
        self.kind = kind
        self._value = value
        self._breaks = breaks
        self._values = values

    @classmethod
    def zero(cls) -> "InputSignal":
        return cls("zero")

    @classmethod
    def constant(cls, value) -> "InputSignal":
        return cls("constant", value=_as_tensor(value))

    @classmethod
    def table(cls, samples) -> "InputSignal":
        entries = list(samples)
        if not entries:
            raise ValueError("input table must contain at least one sample")
        breaks = []
        values = []
        for entry in entries:
            try:
                when, value = entry
            except (TypeError, ValueError):
                raise ValueError("input table entries must be (when, value) pairs")
            breaks.append(float(when))
            values.append(_as_tensor(value))
        if breaks[0] != 0:
            raise ValueError(f"input table must start at 0, got first key {breaks[0]}")
        for a, b in zip(breaks, breaks[1:]):
            if not b > a:  # also rejects NaN
                raise ValueError(f"input table keys must be strictly increasing ({a} then {b})")
        for when, value in zip(breaks, values):
            _coerce(value, values[0].shape, f"input table value at key {when}")
        return cls("table", breaks=tuple(breaks), values=tuple(values))

    @property
    def breakpoints(self) -> tuple:
        """Keys where a table signal may jump; empty for zero/constant."""
        return self._breaks if self.kind == "table" else ()

    @property
    def constant_value(self) -> Tensor | None:
        return self._value if self.kind == "constant" else None

    @property
    def table_samples(self) -> tuple:
        """(when, value) pairs of a table signal; empty otherwise."""
        if self.kind != "table":
            return ()
        return tuple(zip(self._breaks, self._values))

    def sample(self, when, shape) -> Tensor:
        """Value at `when` as a tensor of the given shape."""
        if self.kind == "zero":
            return Tensor.zeros(shape)
        if self.kind == "constant":
            value = self._value
        else:
            when = float(when)
            idx = bisect.bisect_right(self._breaks, when) - 1
            if idx < 0:
                raise ValueError(f"input table starts at {self._breaks[0]}, sampled at {when}")
            value = self._values[idx]
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
            return self.samples[index]
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


def _input_at(system, signal, when) -> np.ndarray | None:
    return None if signal is None else vec(signal.sample(when, system.input_shape))


def _advance(m, v, u) -> np.ndarray:
    """M_A·v + M_B·u: the next state of a discrete step, the derivative of a
    continuous one. The input term is added whenever the system has one,
    even when it is zero, so signed zeros come out the same on every route."""
    nxt = m.a @ v
    if u is not None:
        nxt = nxt + m.b @ u
    return nxt


def _output(m, v, u) -> np.ndarray:
    """M_C·v + M_D·u, where an absent C passes the state through."""
    out = v if m.c is None else m.c @ v
    if m.d is not None and u is not None:
        out = out + m.d @ u
    return out


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
    m = system.unfolded_at(n)
    nxt = Tensor._wrap(_advance(m, v, u).reshape(system.state_shape))
    return nxt, Tensor._wrap(_output(m, v, u).reshape(system.output_shape))


def simulate_discrete(system, x0, steps, u=None) -> Trajectory:
    """Iterate the update map, returning samples at n = 0..steps.

    `u` is an InputSignal sampled at integer steps; None means zero input.
    Raises NumericOverflowError naming the step if the state leaves the
    finite range.
    """
    _require_kind(system, "discrete", "simulate_discrete")
    steps = int(steps)
    if steps < 0:
        raise ValueError(f"steps must be >= 0, got {steps}")
    signal = _as_signal(system, u)
    v = _state_vec(system, x0)
    states = np.empty((steps + 1, system.state_dim))
    outputs = np.empty((steps + 1, system.output_dim))
    for n in range(steps + 1):
        u_n = _input_at(system, signal, n)
        m = system.unfolded_at(n)
        states[n] = v
        outputs[n] = _output(m, v, u_n)
        if n == steps:
            break
        v = _advance(m, v, u_n)
        if not np.isfinite(v).all():
            raise NumericOverflowError(f"state became non-finite at step {n + 1}")
    return Trajectory(
        np.arange(steps + 1), states, outputs, system.state_shape, system.output_shape
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
    signal = _as_signal(system, u)
    m = system.unfolded[0]
    acc = np.linalg.matrix_power(m.a, n) @ _state_vec(system, x0)
    if signal is not None:
        for k in range(n):
            u_k = _input_at(system, signal, k)
            acc = acc + np.linalg.matrix_power(m.a, n - 1 - k) @ (m.b @ u_k)
    return devec(acc, system.state_shape)


def matrix_exponential(m, t=1.0) -> np.ndarray:
    """exp(m*t) by scaling-and-squaring over a truncated power series.

    The scaled matrix has infinity norm <= 0.5, so the series reaches machine
    precision in well under the 40-term cap.
    """
    m = np.asarray(m, dtype=float)
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise ShapeError(f"matrix_exponential needs a square matrix, got shape {list(m.shape)}")
    t = float(t)
    if not np.isfinite(m).all() or not math.isfinite(t):
        raise ValueError("matrix_exponential needs finite entries and finite t")
    q = m.shape[0]
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


def _time_grid(t_end, h):
    n_full = int(math.floor(t_end / h + 1e-9))
    times = [k * h for k in range(n_full + 1)]
    if t_end - times[-1] > 1e-9 * h:
        times.append(t_end)
    else:
        times[-1] = t_end
    return times


def simulate_continuous(system, x0, t_end, h=None, u=None, method="rk4") -> Trajectory:
    """Integrate dX/dt = A(t)·X + B(t)·U(t) on the grid t = 0, h, 2h, ..., t_end.

    The final step is truncated to land exactly on t_end; h defaults to
    t_end/1000. method="rk4" runs classical Runge-Kutta on the unfolded
    vector field; method="exact" advances each interval of constant
    coefficients and input with the augmented-matrix exponential
    exp([[M_A, M_B·vec(u)], [0, 0]]·dt) applied to (v; 1), splitting at
    schedule starts and input breakpoints.
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
    signal = _as_signal(system, u)
    v = _state_vec(system, x0)
    dim = system.state_dim

    def field(when, v):
        return _advance(system.unfolded_at(when), v, _input_at(system, signal, when))

    def advance_exact(v, a, b):
        cuts = [start for start in system.schedule.starts if a < start < b]
        if signal is not None:
            cuts.extend(p for p in signal.breakpoints if a < p < b)
        edges = [a] + sorted(set(cuts)) + [b]
        for p, q in zip(edges, edges[1:]):
            m = system.unfolded_at(p)
            dt = q - p
            if m.b is None:
                v = matrix_exponential(m.a, dt) @ v
            else:
                aug = np.zeros((dim + 1, dim + 1))
                aug[:dim, :dim] = m.a
                aug[:dim, dim] = m.b @ _input_at(system, signal, p)
                big = matrix_exponential(aug, dt)
                v = big[:dim, :dim] @ v + big[:dim, dim]
        return v

    def advance_rk4(v, a, b):
        dt = b - a
        k1 = field(a, v)
        k2 = field(a + dt / 2, v + (dt / 2) * k1)
        k3 = field(a + dt / 2, v + (dt / 2) * k2)
        k4 = field(b, v + dt * k3)
        return v + (dt / 6) * (k1 + 2 * k2 + 2 * k3 + k4)

    advance = advance_exact if method == "exact" else advance_rk4
    times = _time_grid(t_end, h)
    states = np.empty((len(times), dim))
    outputs = np.empty((len(times), system.output_dim))
    for i, t in enumerate(times):
        states[i] = v
        outputs[i] = _output(system.unfolded_at(t), v, _input_at(system, signal, t))
        if i + 1 == len(times):
            break
        v = advance(v, t, times[i + 1])
        if not np.isfinite(v).all():
            raise NumericOverflowError(f"state became non-finite at t={times[i + 1]:.17g}")
    return Trajectory(times, states, outputs, system.state_shape, system.output_shape)
