"""System definitions for linearly coupled concurrent dynamics with tensor
states: coefficient bundles, piecewise-constant schedules, and the validated
system type used by the simulators and by analysis.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .tensors import ShapeError, Tensor, _as_axis, _as_matrix, _as_real, _normalize_shape, unfold

__all__ = [
    "CoefficientSet",
    "CoefficientSchedule",
    "UnfoldedSystem",
    "TensorStateSystem",
    "build_system",
    "lift_matrix_state",
]

TIME_KINDS = ("discrete", "continuous")


@dataclass(frozen=True)
class CoefficientSet:
    """One set of coupling tensors.

    A maps state to next state (order 2r over the state's r modes), B maps
    input to state (order r+p), C maps state to output (order s+r), D maps
    input to output (order s+p). B/C/D may be absent; an absent C means the
    output is the state itself.
    """

    A: Tensor
    B: Tensor | None = None
    C: Tensor | None = None
    D: Tensor | None = None

    def __post_init__(self):
        for name in ("A", "B", "C", "D"):
            value = getattr(self, name)
            if value is not None and not isinstance(value, Tensor):
                object.__setattr__(self, name, Tensor.from_array(value))


class UnfoldedSystem(NamedTuple):
    """Matrices of the equivalent vector system; absent parts are None."""

    a: np.ndarray
    b: np.ndarray | None
    c: np.ndarray | None
    d: np.ndarray | None


def _split_pairs(pairs, what):
    """The keys of (key, value) `pairs`, each read by tensors._as_real, as a
    float array, and their values as a list; a refusal names the entry."""
    keys, values = [], []
    for k, entry in enumerate(pairs):
        try:
            key, value = entry
        except (TypeError, ValueError):
            raise ValueError(f"{what} entries must be (key, value) pairs") from None
        keys.append(_as_real(key, f"{what} entry {k} key"))
        values.append(value)
    return np.array(keys, dtype=float), values


def _double(value) -> float:
    try:
        return float(value)
    except OverflowError:  # an int past the double range
        return math.inf if value > 0 else -math.inf


_doubles = np.frompyfunc(_double, 1, 1)


class Piecewise:
    """Right-continuous step function of a step index or time, with real keys
    strictly increasing from 0: the value at `when` is the one of the last
    key <= when. Schedules and input signals are of this kind; each holds
    its `values`, one per key, and `what` names the one at hand in error
    messages. `index` is the one lookup of a key's piece in the package:
    the simulators read whole arrays of times through it.
    """

    __slots__ = ("keys", "_key_array", "_what")

    def __init__(self, keys, what):
        """Check `keys`, a float array, and keep them read-only and as a
        tuple of floats."""
        if not keys.size:
            raise ValueError(f"{what} must contain at least one entry")
        if keys[0] != 0:
            raise ValueError(f"{what} must start at 0, got first key {keys[0].item()}")
        bad = np.flatnonzero(~(keys[1:] > keys[:-1]))  # also NaN, which cannot be ordered
        if bad.size:
            a, b = keys[bad[0] : bad[0] + 2].tolist()
            raise ValueError(f"{what} keys must be strictly increasing ({a} then {b})")
        keys.flags.writeable = False
        self.keys = tuple(keys.tolist())
        self._key_array = keys
        self._what = what

    def index(self, when):
        """Position of the last key <= when, an int for a time and an int
        array for an array of times, each >= 0, else ValueError names the
        first that is not. An integer past the double range is read as an
        infinity of its sign: past every key, or refused."""
        try:
            when = np.asarray(when, dtype=float)
        except OverflowError:
            when = np.asarray(_doubles(np.asarray(when, dtype=object)), dtype=float)
        bad = np.flatnonzero(~(when >= 0))  # NaN too, which searchsorted would place after every key
        if bad.size:
            raise ValueError(f"{self._what} lookup requires when >= 0, got {float(when.flat[bad[0]])}")
        found = self._key_array.searchsorted(when, "right") - 1
        return int(found) if found.ndim == 0 else found

    def at(self, when):
        """Value of the last key <= when (a time >= 0)."""
        return self.values[self.index(when)]

    def __len__(self):
        return len(self.keys)

    def __iter__(self):
        return zip(self.keys, self.values)


class CoefficientSchedule(Piecewise):
    """Piecewise-constant assignment of coefficient sets to step/time intervals:
    a step function from segment starts to CoefficientSets."""

    __slots__ = ("values",)

    def __init__(self, segments):
        if isinstance(segments, CoefficientSet):
            segments = [(0, segments)]
        starts, values = _split_pairs(segments, "schedule")
        super().__init__(starts, "schedule")
        if not all(isinstance(coeffs, CoefficientSet) for coeffs in values):
            raise ValueError("schedule segments must carry a CoefficientSet")
        self.values = tuple(values)

    @property
    def is_time_invariant(self) -> bool:
        return len(self) == 1


def _shape_or_none(value):
    return None if value is None else _normalize_shape(value)


class TensorStateSystem:
    """A validated linear system whose state, input, and output are tensors.

    Construction checks every coefficient set in the schedule against the
    declared shapes, so downstream code can index coefficients without
    re-checking, and unfolds each segment once into `unfolded`, the
    matrices the simulators and analysis work on.
    """

    __slots__ = (
        "time_kind", "state_shape", "input_shape", "output_shape", "schedule", "unfolded", "_modes",
    )

    def __init__(self, time_kind, state_shape, schedule, input_shape=None, output_shape=None):
        if time_kind not in TIME_KINDS:
            raise ValueError(f"time_kind must be one of {TIME_KINDS}, got {time_kind!r}")
        state_shape = _normalize_shape(state_shape)
        input_shape = _shape_or_none(input_shape)
        output_shape = _shape_or_none(output_shape)
        if output_shape is None:
            output_shape = state_shape
        if not isinstance(schedule, CoefficientSchedule):
            schedule = CoefficientSchedule(schedule)
        if time_kind == "discrete":
            for start in schedule.keys:
                if not start.is_integer():
                    raise ValueError(
                        f"discrete schedules need integer step starts, got {start}"
                    )
        for index, (_, coeffs) in enumerate(schedule):
            _validate_coefficients(index, coeffs, state_shape, input_shape, output_shape)
        self.time_kind = time_kind
        self.state_shape = state_shape
        self.input_shape = input_shape
        self.output_shape = output_shape
        self.schedule = schedule
        # rows group the state modes for A/B and the output modes for C/D;
        # reshape views of the read-only coefficients, nothing is copied
        r, s = len(state_shape), len(output_shape)
        self.unfolded = tuple(
            UnfoldedSystem(
                unfold(coeffs.A, r),
                None if coeffs.B is None else unfold(coeffs.B, r),
                None if coeffs.C is None else unfold(coeffs.C, s),
                None if coeffs.D is None else unfold(coeffs.D, s),
            )
            for _, coeffs in schedule
        )
        self._modes = None  # analysis keeps its eigendecomposition of M_A here

    @property
    def has_input(self) -> bool:
        return self.input_shape is not None

    @property
    def is_time_invariant(self) -> bool:
        return self.schedule.is_time_invariant

    @property
    def state_order(self) -> int:
        return len(self.state_shape)

    @property
    def state_dim(self) -> int:
        return math.prod(self.state_shape)

    @property
    def input_dim(self) -> int | None:
        return None if self.input_shape is None else math.prod(self.input_shape)

    @property
    def output_dim(self) -> int:
        return math.prod(self.output_shape)

    def coefficients_at(self, when) -> CoefficientSet:
        """Coefficients in force at step index / time stamp `when`."""
        return self.schedule.at(when)

    def unfolded_at(self, when) -> UnfoldedSystem:
        """Unfolded matrices of the segment in force at `when`."""
        return self.unfolded[self.schedule.index(when)]

    def __repr__(self):
        return (
            f"TensorStateSystem(time_kind={self.time_kind!r}, state_shape={list(self.state_shape)}, "
            f"input_shape={None if self.input_shape is None else list(self.input_shape)}, "
            f"output_shape={list(self.output_shape)}, segments={len(self.schedule)})"
        )


def _expect_shape(segment, name, tensor, expected, meaning):
    if tensor.shape != expected:
        raise ShapeError(
            f"segment {segment}: coefficient {name} has shape {list(tensor.shape)}, "
            f"expected {list(expected)} ({meaning})"
        )


def _validate_coefficients(segment, coeffs, state_shape, input_shape, output_shape):
    _expect_shape(segment, "A", coeffs.A, state_shape + state_shape, "state_shape + state_shape")
    if input_shape is None:
        for name in ("B", "D"):
            if getattr(coeffs, name) is not None:
                raise ShapeError(
                    f"segment {segment}: coefficient {name} given but the system declares no input_shape"
                )
    else:
        if coeffs.B is None:
            raise ShapeError(
                f"segment {segment}: coefficient B missing for a system with input_shape {list(input_shape)}"
            )
        _expect_shape(segment, "B", coeffs.B, state_shape + input_shape, "state_shape + input_shape")
        if coeffs.D is not None:
            _expect_shape(segment, "D", coeffs.D, output_shape + input_shape, "output_shape + input_shape")
    if coeffs.C is not None:
        _expect_shape(segment, "C", coeffs.C, output_shape + state_shape, "output_shape + state_shape")
    elif output_shape != state_shape:
        raise ShapeError(
            f"segment {segment}: coefficient C absent, so the output is the state, but "
            f"output_shape {list(output_shape)} differs from state_shape {list(state_shape)}"
        )


def build_system(time_kind, state_shape, schedule, input_shape=None, output_shape=None) -> TensorStateSystem:
    """Validate and assemble a system from its descriptor parts.

    `schedule` may be a CoefficientSchedule, a list of (start, CoefficientSet)
    pairs, or a bare CoefficientSet (time-invariant). Raises ShapeError naming
    the offending coefficient on any order/shape mismatch.
    """
    return TensorStateSystem(time_kind, state_shape, schedule, input_shape, output_shape)


def _lift(m, columns) -> Tensor:
    """The matrix m as the order-4 tensor that applies it to every column."""
    eye = np.eye(columns)
    # T[(i, alpha), (j, beta)] = m[i, j] * delta(alpha, beta)
    lifted = m[:, None, :, None] * eye[None, :, None, :]
    return Tensor._wrap(lifted)


def lift_matrix_state(A, B=None, C=None, D=None, *, columns, time_kind="discrete") -> TensorStateSystem:
    """Lift a matrix-state system Z' = A Z + B U, W = C Z + D U into tensor form.

    The state is an m x `columns` matrix whose columns all share the same
    coupling matrices (homogeneous coupling); the lifted order-4 tensors act
    column by column, so one step equals the matrix equation exactly.
    """
    columns = _as_axis(columns, "columns", least=1)
    A = _as_matrix(A, "A", square=True, empty=False)
    m = A.shape[0]
    state_shape = (m, columns)
    input_shape = None
    output_shape = None
    lifted_b = lifted_c = lifted_d = None
    if B is not None:
        B = _as_matrix(B, "B", empty=False)
        if B.shape[0] != m:
            raise ShapeError(f"B must have {m} rows, got shape {list(B.shape)}")
        input_shape = (B.shape[1], columns)
        lifted_b = _lift(B, columns)
    if C is not None:
        C = _as_matrix(C, "C", empty=False)
        if C.shape[1] != m:
            raise ShapeError(f"C must have {m} columns, got shape {list(C.shape)}")
        output_shape = (C.shape[0], columns)
        lifted_c = _lift(C, columns)
    if D is not None:
        if B is None or C is None:
            raise ShapeError("D requires both B and C")
        D = _as_matrix(D, "D", empty=False)
        if D.shape != (C.shape[0], B.shape[1]):
            raise ShapeError(
                f"D must have shape {[C.shape[0], B.shape[1]]}, got {list(D.shape)}"
            )
        lifted_d = _lift(D, columns)
    coeffs = CoefficientSet(A=_lift(A, columns), B=lifted_b, C=lifted_c, D=lifted_d)
    return TensorStateSystem(time_kind, state_shape, coeffs, input_shape, output_shape)
