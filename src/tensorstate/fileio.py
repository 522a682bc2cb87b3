"""System definition files (JSON), trajectory CSV emission, and the
plain-text analysis report.

Tensors on disk are {"shape": [...], "data": [...]} with row-major flat
data. Numbers in CSV output carry 17 significant digits so parsing them
back reproduces the exact doubles.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass

import numpy as np

from .multirate import MultirateSystem, _per_process, _table, constant_function, index_function
from .simulate import InputSignal, Trajectory
from .systems import CoefficientSet, TensorStateSystem, build_system
from .tensors import Tensor

__all__ = [
    "ParseError",
    "SystemFile",
    "MultirateFile",
    "parse_system_file",
    "render_system_file",
    "write_system_file",
    "trajectory_csv",
    "multirate_csv",
    "render_report",
]


class ParseError(ValueError):
    """Malformed system file; the message names the offending field."""


@dataclass(frozen=True)
class SystemFile:
    """Parsed tensor-system file: the validated system plus its run data."""

    system: TensorStateSystem
    x0: Tensor
    input_signal: InputSignal | None


@dataclass(frozen=True)
class MultirateFile:
    """Parsed multirate file; specs kept for verbatim re-emission."""

    system: MultirateSystem
    boundary_spec: object
    input_spec: object | None


def _fmt(value) -> str:
    return format(float(value), ".17g")


def _int_if_integral(value):
    value = float(value)
    return int(value) if value == int(value) else value


def _check_keys(obj, where, required, optional=()):
    if not isinstance(obj, dict):
        raise ParseError(f"{where}: expected an object, got {type(obj).__name__}")
    unknown = sorted(set(obj) - set(required) - set(optional))
    if unknown:
        raise ParseError(f"{where}: unknown field(s) {unknown}")
    for key in required:
        if key not in obj:
            raise ParseError(f"{where}: missing field '{key}'")


def _number(value, where) -> float:
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ParseError(f"{where}: expected a number, got {value!r}")
    # JSON literals past the double range parse as inf or as ints too large for float
    try:
        number = float(value)
    except OverflowError:
        number = math.inf
    if not math.isfinite(number):
        raise ParseError(f"{where}: number out of the finite double range")
    return number


def _numbers(data, where) -> np.ndarray:
    """A JSON number list as float64, every entry a finite double.

    A list of plain ints and floats (bool excluded) converts in one numpy
    call; any other entry, or one past the double range, sends the whole
    list through _number so the error names the field as it always has.
    """
    if set(map(type, data)) <= {float, int}:
        try:
            values = np.array(data, dtype=float)
        except OverflowError:
            pass
        else:
            if np.isfinite(values).all():
                return values
    return np.array([_number(v, where) for v in data], dtype=float)


def _parse_shape(value, where):
    if not isinstance(value, list) or not value:
        raise ParseError(f"{where}: expected a non-empty list of mode sizes")
    shape = []
    for entry in value:
        if isinstance(entry, bool) or not isinstance(entry, int) or entry < 1:
            raise ParseError(f"{where}: mode sizes must be integers >= 1, got {entry!r}")
        shape.append(entry)
    return tuple(shape)


def _parse_tensor(obj, where, declared=None, name=None) -> Tensor:
    """The tensor at `where`, whose shape must equal `declared` (the file's
    `name`) when one is given; that check comes last, after the numbers."""
    _check_keys(obj, where, required=("shape", "data"))
    shape = _parse_shape(obj["shape"], f"{where}.shape")
    data = obj["data"]
    if not isinstance(data, list):
        raise ParseError(f"{where}.data: expected a list of numbers")
    expected = math.prod(shape)
    if len(data) != expected:
        raise ParseError(
            f"{where}: data length {len(data)} does not match shape {list(shape)} "
            f"(expected {expected})"
        )
    values = _numbers(data, f"{where}.data")
    try:
        tensor = Tensor(shape, values)
    except ValueError as exc:  # numpy holds at most 64 modes
        raise ParseError(f"{where}: {exc}") from None
    if declared is not None and shape != declared:
        raise ParseError(f"{where}: shape {list(shape)} does not match {name} {list(declared)}")
    return tensor


def _tagged(obj, where, kinds):
    """(kind, value of its field) for a spec holding "kind" and exactly the
    field `kinds` maps that kind to (None: no field, no value). Kinds match by
    equality: a JSON kind may be a list or an object, which do not hash."""
    _check_keys(obj, where, required=("kind",), optional=[f for f in kinds.values() if f])
    kind = obj["kind"]
    for name, field in kinds.items():
        if kind == name:
            if set(obj) == {"kind", field} - {None}:
                return name, obj.get(field)
            need = "takes no other fields" if field is None else f"needs exactly the field '{field}'"
            raise ParseError(f"{where}: kind '{name}' {need}")
    *rest, last = (f"'{name}'" for name in kinds)
    raise ParseError(f"{where}.kind: expected {', '.join(rest)}, or {last}, got {kind!r}")


def _pairs(value, where, what):
    """Yield (where[k], first, second) per entry of `value`, a non-empty list
    of 2-item lists, checking each as it goes; `what` names one entry with
    its article."""
    if not isinstance(value, list) or not value:
        raise ParseError(f"{where}: expected a non-empty list of {what.split(' ', 1)[1]}s")
    for k, pair in enumerate(value):
        if not isinstance(pair, list) or len(pair) != 2:
            raise ParseError(f"{where}[{k}]: expected {what}")
        yield f"{where}[{k}]", pair[0], pair[1]


def _parse_signal(obj, input_shape, where) -> InputSignal:
    kind, arg = _tagged(obj, where, {"zero": None, "constant": "value", "table": "samples"})
    if kind == "zero":
        return InputSignal.zero()
    if kind == "constant":
        return InputSignal.constant(
            _parse_tensor(arg, f"{where}.value", input_shape, "input_shape")
        )
    entries = [
        (_number(when, at), _parse_tensor(value, at, input_shape, "input_shape"))
        for at, when, value in _pairs(arg, f"{where}.samples", "a [when, tensor] pair")
    ]
    try:
        return InputSignal.table(entries)
    except ValueError as exc:
        raise ParseError(f"{where}: {exc}") from None


def _parse_tensor_system(obj, path) -> SystemFile:
    _check_keys(
        obj,
        path,
        required=("time", "state_shape", "schedule", "x0"),
        optional=("input_shape", "output_shape", "input"),
    )
    time_kind = obj["time"]
    if time_kind not in ("discrete", "continuous"):
        raise ParseError(f"{path}.time: expected 'discrete' or 'continuous', got {time_kind!r}")
    state_shape = _parse_shape(obj["state_shape"], f"{path}.state_shape")
    input_shape = None
    if "input_shape" in obj:
        input_shape = _parse_shape(obj["input_shape"], f"{path}.input_shape")
    output_shape = None
    if "output_shape" in obj:
        output_shape = _parse_shape(obj["output_shape"], f"{path}.output_shape")
    raw_schedule = obj["schedule"]
    if not isinstance(raw_schedule, list) or not raw_schedule:
        raise ParseError(f"{path}.schedule: expected a non-empty list of segments")
    segments = []
    for k, seg in enumerate(raw_schedule):
        where = f"{path}.schedule[{k}]"
        _check_keys(seg, where, required=("start", "A"), optional=("B", "C", "D"))
        start = _number(seg["start"], f"{where}.start")
        coeffs = {}
        for name in ("A", "B", "C", "D"):
            if name in seg:
                coeffs[name] = _parse_tensor(seg[name], f"{where}.{name}")
        segments.append((start, CoefficientSet(**coeffs)))
    try:
        system = build_system(
            time_kind, state_shape, segments, input_shape=input_shape, output_shape=output_shape
        )
    except ValueError as exc:
        raise ParseError(f"{path}.schedule: {exc}") from None
    x0 = _parse_tensor(obj["x0"], f"{path}.x0", state_shape, "state_shape")
    signal = None
    if "input" in obj:
        if input_shape is None:
            raise ParseError(f"{path}.input: input given but the file declares no input_shape")
        signal = _parse_signal(obj["input"], input_shape, f"{path}.input")
    return SystemFile(system=system, x0=x0, input_signal=signal)


def _parse_matrix(value, where) -> np.ndarray:
    if not isinstance(value, list) or not value:
        raise ParseError(f"{where}: expected a non-empty list of rows")
    rows = []
    for k, row in enumerate(value):
        if not isinstance(row, list):
            raise ParseError(f"{where}[{k}]: expected a list of numbers")
        rows.append(_numbers(row, f"{where}[{k}]"))
    width = len(rows[0])
    for k, row in enumerate(rows):
        if len(row) != width:
            raise ParseError(f"{where}[{k}]: row length {len(row)} != {width}")
    return np.array(rows)


def _process_function(spec, count, where):
    """Build the (process, index) -> value callable described by `spec`.

    Returns (callable, canonical_spec). A single spec object applies to all
    processes; a list supplies one spec per process.
    """
    if isinstance(spec, list):
        if len(spec) != count:
            raise ParseError(f"{where}: expected {count} per-process specs, got {len(spec)}")
        pairs = [
            _single_process_function(entry, f"{where}[{k}]") for k, entry in enumerate(spec)
        ]
        funcs = {i: func for i, (func, _) in enumerate(pairs, 1)}
        return _per_process(funcs), [canon for _, canon in pairs]
    return _single_process_function(spec, where)


def _single_process_function(spec, where):
    kind, arg = _tagged(spec, where, {"constant": "value", "index": None, "table": "values"})
    if kind == "constant":
        value = _number(arg, f"{where}.value")
        return constant_function(value), {"kind": "constant", "value": value}
    if kind == "index":
        return index_function(), {"kind": "index"}
    table = {}
    for at, idx, value in _pairs(arg, f"{where}.values", "an [index, value] pair"):
        if isinstance(idx, bool) or not isinstance(idx, int) or idx < 0:
            raise ParseError(f"{at}: index must be an integer >= 0, got {idx!r}")
        if idx in table:
            raise ParseError(f"{at}: duplicate index {idx}")
        table[idx] = _number(value, at)
    canon = {"kind": "table", "values": [[n, table[n]] for n in sorted(table)]}
    return _table(table), canon


def _parse_multirate(obj, path) -> MultirateFile:
    _check_keys(
        obj, path, required=("kind", "A", "clocks", "boundary"), optional=("B", "input")
    )
    a = _parse_matrix(obj["A"], f"{path}.A")
    clocks = obj["clocks"]
    if not isinstance(clocks, list) or not all(
        isinstance(c, int) and not isinstance(c, bool) for c in clocks
    ):
        raise ParseError(f"{path}.clocks: expected a list of integers")
    count = a.shape[0]
    boundary, boundary_spec = _process_function(obj["boundary"], count, f"{path}.boundary")
    b = None
    input_func = None
    input_spec = None
    if "B" in obj:
        b = _parse_matrix(obj["B"], f"{path}.B")
        if "input" not in obj:
            raise ParseError(f"{path}: B given but no input")
    if "input" in obj:
        if b is None:
            raise ParseError(f"{path}.input: input given but no B")
        input_func, input_spec = _process_function(obj["input"], count, f"{path}.input")
    try:
        system = MultirateSystem(a, clocks, boundary, B=b, input=input_func)
    except ValueError as exc:
        raise ParseError(f"{path}: {exc}") from None
    return MultirateFile(system=system, boundary_spec=boundary_spec, input_spec=input_spec)


def parse_system_file(path) -> SystemFile | MultirateFile:
    """Read and validate a system definition; see README for the format.

    Raises ParseError naming the bad field; a tensor that disagrees with the
    declared shapes is reported under the file's `schedule` field.
    """
    with open(path, "r", encoding="utf-8") as handle:
        text = handle.read()

    def reject(literal):
        raise ParseError(f"{path}: non-finite number literal {literal!r} not allowed")

    try:
        obj = json.loads(text, parse_constant=reject)
    except json.JSONDecodeError as exc:
        raise ParseError(
            f"{path}: invalid JSON at line {exc.lineno} column {exc.colno}: {exc.msg}"
        ) from None
    if not isinstance(obj, dict):
        raise ParseError(f"{path}: expected a top-level object")
    if obj.get("kind") == "multirate":
        return _parse_multirate(obj, str(path))
    if "kind" in obj:
        raise ParseError(f"{path}.kind: expected 'multirate', got {obj['kind']!r}")
    return _parse_tensor_system(obj, str(path))


def _tensor_doc(t: Tensor) -> dict:
    return {"shape": list(t.shape), "data": [float(v) for v in t.data]}


def _signal_doc(signal: InputSignal) -> dict:
    if signal.kind == "zero":
        return {"kind": "zero"}
    if signal.kind == "constant":
        return {"kind": "constant", "value": _tensor_doc(signal.constant_value)}
    samples = [
        [_int_if_integral(when), _tensor_doc(value)] for when, value in signal.table_samples
    ]
    return {"kind": "table", "samples": samples}


def render_system_file(file) -> str:
    """Canonical JSON text for a parsed or constructed system file.

    Re-rendering the parse of this output reproduces it byte for byte.
    """
    if isinstance(file, MultirateFile):
        system = file.system
        doc = {"kind": "multirate", "A": [[float(v) for v in row] for row in system.A]}
        if system.B is not None:
            doc["B"] = [[float(v) for v in row] for row in system.B]
        doc["clocks"] = list(system.clocks)
        doc["boundary"] = file.boundary_spec
        if file.input_spec is not None:
            doc["input"] = file.input_spec
    else:
        system = file.system
        doc = {"time": system.time_kind, "state_shape": list(system.state_shape)}
        if system.has_input:
            doc["input_shape"] = list(system.input_shape)
        if any(coeffs.C is not None for _, coeffs in system.schedule):
            doc["output_shape"] = list(system.output_shape)
        segments = []
        for start, coeffs in system.schedule:
            seg = {"start": _int_if_integral(start), "A": _tensor_doc(coeffs.A)}
            for name in ("B", "C", "D"):
                value = getattr(coeffs, name)
                if value is not None:
                    seg[name] = _tensor_doc(value)
            segments.append(seg)
        doc["schedule"] = segments
        doc["x0"] = _tensor_doc(file.x0)
        if system.has_input:
            signal = file.input_signal if file.input_signal is not None else InputSignal.zero()
            doc["input"] = _signal_doc(signal)
    return json.dumps(doc, indent=2) + "\n"


def write_system_file(file, path) -> None:
    with open(path, "w", encoding="utf-8", newline="\n") as handle:
        handle.write(render_system_file(file))


def _columns(prefix, shape):
    return [f"{prefix}_" + "_".join(str(i) for i in idx) for idx in np.ndindex(*shape)]


def _csv(header_lines, table) -> str:
    """CSV text: the header lines, then one line per row of `table` (a
    non-empty list of equal-length lists of numbers), every number with 17
    significant digits."""
    template = ",".join(["%.17g"] * len(table[0]))
    return "\n".join([*header_lines, *(template % tuple(row) for row in table)]) + "\n"


def trajectory_csv(trajectory: Trajectory, emit_output=False) -> str:
    """CSV text: column t, then the vec'd state entries in row-major column
    order, then (with emit_output) the vec'd output entries."""
    header = ["t"] + _columns("x", trajectory.state_shape)
    columns = [trajectory.times[:, None], trajectory.state_matrix()]
    if emit_output:
        header += _columns("y", trajectory.output_shape)
        columns.append(trajectory.output_matrix())
    return _csv([",".join(header)], np.hstack(columns).tolist())


def multirate_csv(values, clock) -> str:
    """CSV text for a multirate grid sweep: comment line with d and the
    per-process factors, then rows at n = 0, d, 2d, ..."""
    values = np.asarray(values, dtype=float)
    header = "# d={} f={}".format(clock.d, ",".join(str(f) for f in clock.factors))
    columns = "t," + ",".join(f"x_{i}" for i in range(1, values.shape[1] + 1))
    ticks = np.array([float(k * clock.d) for k in range(len(values))])
    return _csv([header, columns], np.hstack([ticks[:, None], values]).tolist())


def render_report(report) -> str:
    """Plain-text analysis report, one field per line, fixed order,
    absent parts omitted; defective_boundary appears only when true."""
    lines = [
        f"state_dim={report.state_dim}",
        f"spectral_radius={_fmt(report.spectral_radius)}",
    ]
    if report.max_real_part is not None:
        lines.append(f"max_real_part={_fmt(report.max_real_part)}")
    lines.append(f"stability={report.verdict}")
    if report.defective:
        lines.append("defective_boundary=true")
    if report.controllability_rank is not None:
        lines.append(f"controllability_rank={report.controllability_rank}")
    if report.observability_rank is not None:
        lines.append(f"observability_rank={report.observability_rank}")
    return "\n".join(lines) + "\n"
