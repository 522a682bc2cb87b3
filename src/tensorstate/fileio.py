"""System definition files (JSON), trajectory CSV emission, and the
plain-text analysis report.

A system file is read as bytes. One of at most _ORJSON_BRACKETS "[" and
"{" bytes is decoded by orjson and parsed from that value when every field
passes its check. Any other file (more brackets, bytes orjson refuses, a
top level that is not an object, a field that fails a check) is decoded
again by json.loads, over the text open(path, encoding="utf-8") reads, so
the stdlib decoder names every refusal. orjson gives json's value for
every number it accepts but an integer outside [-2^63, 2^64), which it
reads as the double float() gives json's int: the same where a real is
taken, refused where an integer is. It refuses NaN, Infinity, literals
past the double range, lone surrogates, bytes that are not UTF-8 and a
BOM, and a value nested past json's recursion limit fails a check or
raises RecursionError in one, so each of these ends on the json path.

Tensors on disk are {"shape": [...], "data": [...]} with row-major flat
data. There is one read of them: an input table's values, and each
coefficient kind over the segments of a schedule that hold it, are read
in one numpy call after a few checks over whole lists (_tensor_block),
into one read-only array whose views are the tensors: rows of one (K, N)
block where the shapes agree. A file that fails a check is walked field
by field in file order only to raise the error that names the first bad
field; the walk builds nothing.

Numbers in CSV output carry 17 significant digits so parsing them back
reproduces the exact doubles. They are the bytes Python's '%.17g'
writes, computed in numpy for a block of cells at once (_csv_rows): each
cell's 17 digits and decimal exponent come from a double-double product
with a power of ten (_decimal17), and the rare cell that product cannot
decide, or that is not finite, is formatted by '%.17g' itself. Every cell
of a block gets the same byte slots, and the block holds only the slot
groups its cells use: a sign when one is negative, "0." and its zeros
down to the smallest exponent of a cell in [0.0001, 1), the exponent when
one is in e-notation, and room for the longest '%.17g' text.
"""

from __future__ import annotations

import functools
import io
import itertools
import json
import math
import re
import reprlib
import sys
from dataclasses import dataclass

import numpy as np
import orjson

from .multirate import (MultirateSystem, _multiples, _per_process, _table, constant_function, global_clock,
                        index_function)
from .simulate import InputSignal, Trajectory
from .systems import CoefficientSet, TensorStateSystem, build_system
from .tensors import Tensor, _as_axis, _as_real, _normalize_shape

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
        raise ParseError(f"{where}: unknown field(s) {reprlib.repr(unknown)}")
    for key in required:
        if key not in obj:
            raise ParseError(f"{where}: missing field '{key}'")


def _number(value, where) -> float:
    """A JSON value read by tensors._as_real, whose refusals, in the file's
    words, also cover literals past the double range (inf, or ints too
    large for a float)."""
    try:
        return _as_real(value, where)
    except ValueError as exc:
        raise ParseError(str(exc)) from None


def _finite_block(rows) -> np.ndarray | None:
    """Lists of plain ints and floats (bool excluded) as one flat float64
    array of their entries in order, or None when an entry is of another
    type, past the double range or not finite. The entries are read where
    they are, through an iterator over the lists, by one type pass and one
    np.fromiter: no number is copied into a joined list. The array is
    read-only, since the tensors and tables built on it are views."""
    if set(map(type, itertools.chain.from_iterable(rows))) <= {float, int}:
        try:
            values = np.fromiter(itertools.chain.from_iterable(rows), dtype=float, count=sum(map(len, rows)))
        except OverflowError:
            return None
        if np.isfinite(values).all():
            values.flags.writeable = False
            return values
    return None


def _numbers(data, where) -> np.ndarray:
    """A JSON number list as float64, every entry a finite double."""
    values = _finite_block([data])
    if values is None:  # the walk raises for the first entry that is not
        for value in data:
            _number(value, where)
    return values


def _parse_shape(value, where):
    if not isinstance(value, list) or not value:
        raise ParseError(f"{where}: expected a non-empty list of mode sizes")
    try:
        return _normalize_shape(value)
    except ValueError as exc:
        raise ParseError(f"{where}: {exc}") from None


def _check_tensor(obj, where, declared=None, name=None) -> None:
    """Raise the ParseError of the first field of the tensor at `where`
    that fails a check of _tensor_block, whose shape must equal `declared`
    (the file's `name`) when one is given; that check comes last, after
    the numbers."""
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
        values.reshape(shape)
    except ValueError as exc:  # numpy holds at most 64 modes
        raise ParseError(f"{where}: {exc}") from None
    if declared is not None and shape != declared:
        raise ParseError(f"{where}: shape {list(shape)} does not match {name} {list(declared)}")


def _parse_tensor(obj, where, declared=None, name=None) -> Tensor:
    """The tensor at `where`, of shape `declared` when given; see _check_tensor."""
    block = _tensor_block([obj], declared)
    if block is None:  # the walk raises for the first field that fails a check
        _check_tensor(obj, where, declared, name)
    return Tensor._wrap(block[0].reshape(obj["shape"]))


def _tensor_block(tensors, shape=None):
    """The data of `tensors`, {"shape", "data"} objects, checked by a few
    passes over whole lists and read in one numpy call: a read-only (K, N)
    float array, a row per tensor, when they share one shape (`shape` when
    given, which every tensor must have), else K read-only 1-D arrays,
    slices of one flat array. None when any tensor fails a check."""
    if set(map(type, tensors)) != {dict} or set(map(len, tensors)) != {2}:
        return None
    # a dict of two fields holds exactly "shape" and "data" when both are lists
    shapes, data = [t.get("shape") for t in tensors], [t.get("data") for t in tensors]
    first = shapes[0] if shape is None else list(shape)
    one = shapes.count(first) == len(shapes)
    if shape is not None and not one or set(map(type, shapes)) != {list}:
        return None
    # [true, 2] == [1, 2] in Python: every mode must be an int proper; a
    # tensor reshapes to at most numpy's 64 dimensions
    modes = list(itertools.chain.from_iterable(shapes))
    orders = {len(first)} if one else set(map(len, shapes))
    if set(map(type, modes)) != {int} or min(modes) < 1 or 0 in orders or max(orders) > 64:
        return None
    sizes = [math.prod(first)] * len(shapes) if one else list(map(math.prod, shapes))
    if set(map(type, data)) != {list} or list(map(len, data)) != sizes:
        return None
    values = _finite_block(data)
    if values is None:
        return None
    if one:
        return values.reshape(len(tensors), -1)
    return np.split(values, list(itertools.accumulate(sizes))[:-1])


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
    raise ParseError(f"{where}.kind: expected {', '.join(rest)}, or {last}, got {reprlib.repr(kind)}")


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
    table = _table_entries(arg, input_shape)
    if table is None:  # the walk raises for the first sample field that fails a check
        for at, when, value in _pairs(arg, f"{where}.samples", "a [when, tensor] pair"):
            _number(when, at)
            _check_tensor(value, at, input_shape, "input_shape")
    try:
        return InputSignal("table", *table)
    except ValueError as exc:
        raise ParseError(f"{where}: {exc}") from None


def _table_entries(samples, input_shape):
    """A table's keys and values as one (K,) and one (K, *input_shape) float
    array, checked by a few passes over its fields, each array read in one
    numpy call; or None when any sample fails a check."""
    if not isinstance(samples, list) or not samples:
        return None
    if set(map(type, samples)) != {list} or set(map(len, samples)) != {2}:
        return None
    whens, tensors = zip(*samples)
    keys, values = _finite_block([whens]), _tensor_block(tensors, input_shape)
    if keys is None or values is None:
        return None
    # B holds state + input modes, so input_shape has at most 63 and the
    # block fits numpy's 64 dimensions
    return keys, values.reshape(len(samples), *input_shape)


_KINDS = ("A", "B", "C", "D")


def _schedule_blocks(raw_schedule):
    """A schedule's (start, CoefficientSet) segments, checked by a few passes
    over whole lists; or None when any segment fails a check. Each kind is
    read in one numpy call over the segments that hold it, so a segment's
    tensors are read-only views: rows of one (K, N) block per kind where
    the kind's shapes agree, else slices of one flat array, whose shapes
    build_system checks."""
    if set(map(type, raw_schedule)) != {dict}:
        return None
    if not all({"start", "A"} <= names <= {"start", *_KINDS} for names in set(map(frozenset, raw_schedule))):
        return None
    starts = _finite_block([[seg["start"] for seg in raw_schedule]])
    if starts is None:
        return None
    coeffs = [{} for _ in raw_schedule]
    for name in _KINDS:
        held = [k for k, seg in enumerate(raw_schedule) if name in seg]
        tensors = [raw_schedule[k][name] for k in held]
        rows = _tensor_block(tensors) if held else []
        if rows is None:
            return None
        for k, tensor, row in zip(held, tensors, rows):
            coeffs[k][name] = Tensor._wrap(row.reshape(tensor["shape"]))
    return [(start, CoefficientSet(**c)) for start, c in zip(starts.tolist(), coeffs)]


def _parse_tensor_system(obj, path) -> SystemFile:
    _check_keys(
        obj,
        path,
        required=("time", "state_shape", "schedule", "x0"),
        optional=("input_shape", "output_shape", "input"),
    )
    time_kind = obj["time"]
    if time_kind not in ("discrete", "continuous"):
        raise ParseError(f"{path}.time: expected 'discrete' or 'continuous', got {reprlib.repr(time_kind)}")
    state_shape = _parse_shape(obj["state_shape"], f"{path}.state_shape")
    input_shape, output_shape = (
        _parse_shape(obj[field], f"{path}.{field}") if field in obj else None
        for field in ("input_shape", "output_shape")
    )
    raw_schedule = obj["schedule"]
    if not isinstance(raw_schedule, list) or not raw_schedule:
        raise ParseError(f"{path}.schedule: expected a non-empty list of segments")
    segments = _schedule_blocks(raw_schedule)
    if segments is None:  # the walk raises for the first field, in file order, that fails a check
        for k, seg in enumerate(raw_schedule):
            where = f"{path}.schedule[{k}]"
            _check_keys(seg, where, required=("start", "A"), optional=_KINDS[1:])
            _number(seg["start"], f"{where}.start")
            for name in _KINDS:
                if name in seg:
                    _check_tensor(seg[name], f"{where}.{name}")
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
        try:
            idx = _as_axis(idx, "index", least=0)
        except ValueError as exc:
            raise ParseError(f"{at}: {exc}") from None
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
    if not isinstance(clocks, list):
        raise ParseError(f"{path}.clocks: expected a list of integers")
    try:
        global_clock(clocks)
    except ValueError as exc:
        raise ParseError(f"{path}.clocks: {exc}") from None
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


# orjson recurses on the C stack with no depth limit, so a file of more
# opening brackets than this goes to the stdlib decoder, whose recursion
# limit refuses deep nesting (a valid file nests six deep at most)
_ORJSON_BRACKETS = 4096


def parse_system_file(path) -> SystemFile | MultirateFile:
    """Read and validate a system definition; see README for the format.

    Raises ParseError naming the bad field; a tensor that disagrees with the
    declared shapes is reported under the file's `schedule` field.
    """
    with open(path, "rb") as handle:
        data = handle.read()
    codes = np.frombuffer(data, np.uint8)
    if np.count_nonzero(codes == ord("[")) + np.count_nonzero(codes == ord("{")) <= _ORJSON_BRACKETS:
        try:
            return _parse_document(orjson.loads(data), str(path))
        except (orjson.JSONDecodeError, ParseError, RecursionError):
            pass  # the stdlib decoder names the refusal
    return _parse_document(_decode_text(data, path), str(path))


def _decode_text(data, path):
    """The JSON value of the file's bytes `data` by the stdlib decoder, over
    the text open(path, encoding="utf-8") reads, universal newlines and all;
    each refusal is a ParseError naming the path."""
    try:
        text = io.TextIOWrapper(io.BytesIO(data), encoding="utf-8").read()
    except UnicodeDecodeError as exc:
        raise ParseError(f"{path}: invalid UTF-8 at byte {exc.start}: {exc.reason}") from None

    def reject(literal):
        raise ParseError(f"{path}: non-finite number literal {literal!r} not allowed")

    try:
        return json.loads(text, parse_constant=reject)
    except RecursionError:
        raise ParseError(
            f"{path}: invalid JSON: nested deeper than the decoder's recursion limit"
        ) from None
    except ParseError:
        raise
    except ValueError as exc:
        if not isinstance(exc, json.JSONDecodeError):
            # int() refused a literal of more digits than sys.get_int_max_str_digits()
            digits = re.search(rf"-?\d{{{sys.get_int_max_str_digits() + 1},}}", text)
            exc = json.JSONDecodeError("integer literal past the double range", text, digits.start())
        raise ParseError(
            f"{path}: invalid JSON at line {exc.lineno} column {exc.colno}: {exc.msg}"
        ) from None


def _parse_document(obj, path) -> SystemFile | MultirateFile:
    """The system file of the decoded JSON value `obj` of the file at `path`."""
    if not isinstance(obj, dict):
        raise ParseError(f"{path}: expected a top-level object")
    if obj.get("kind") == "multirate":
        return _parse_multirate(obj, path)
    if "kind" in obj:
        raise ParseError(f"{path}.kind: expected 'multirate', got {reprlib.repr(obj['kind'])}")
    return _parse_tensor_system(obj, path)


def _tensor_doc(t: Tensor) -> dict:
    return {"shape": list(t.shape), "data": t.data.tolist()}


def _signal_doc(signal: InputSignal) -> dict:
    if signal.kind == "zero":
        return {"kind": "zero"}
    if signal.kind == "constant":
        return {"kind": "constant", "value": _tensor_doc(signal.at(0))}
    samples = [[_int_if_integral(when), _tensor_doc(value)] for when, value in signal]
    return {"kind": "table", "samples": samples}


def render_system_file(file) -> str:
    """Canonical JSON text for a parsed or constructed system file.

    Re-rendering the parse of this output reproduces it byte for byte.
    """
    if isinstance(file, MultirateFile):
        system = file.system
        doc = {"kind": "multirate", "A": system.A.tolist()}
        if system.B is not None:
            doc["B"] = system.B.tolist()
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


def _write_text(path, text) -> None:
    """The one writer of text files: UTF-8, lines ended by \\n on every platform."""
    with open(path, "w", encoding="utf-8", newline="\n") as handle:
        handle.write(text)


def write_system_file(file, path) -> None:
    _write_text(path, render_system_file(file))


def _columns(prefix, shape):
    """Header names of a vec'd tensor, row-major: prefix_i_j_... ."""
    axes = [[str(i) for i in range(size)] for size in shape]
    return [f"{prefix}_" + "_".join(idx) for idx in itertools.product(*axes)]


# 10^k for k = 16 - E, E the decimal exponent of a finite nonzero double
# (-324 for 5e-324 up to 308)
_K_MIN, _K_MAX = -292, 340
_SPLIT = 134217729.0  # 2^27 + 1: Dekker's split into two 26-bit halves
# cells per block of _csv_rows: bounds its temporaries at about 1.3 MB
_BLOCK_CELLS = 8192


@functools.cache
def _pow10():
    """For each k in [_K_MIN, _K_MAX], 10^k = (hi + lo)·2^b with hi in
    [0.5, 1] and |lo| < 2^-53·hi: hi, Dekker's halves of hi, lo and b, as
    arrays indexed by k - _K_MIN. Built from exact Python ints on first use."""
    rows = []
    for k in range(_K_MIN, _K_MAX + 1):
        num, den = (10**k, 1) if k >= 0 else (1, 10**-k)
        shift = 128 - num.bit_length() + den.bit_length()
        q = (num << shift) // den if shift >= 0 else num >> -shift  # 10^k·2^shift, 128 bits
        bits = q.bit_length()
        hi = float(q)
        lo = math.ldexp(float(q - int(hi)), -bits)
        hi = math.ldexp(hi, -bits)
        c = _SPLIT * hi
        hi_high = c - (c - hi)
        rows.append((hi, hi_high, hi - hi_high, lo, bits - shift))
    hi, hi_high, hi_low, lo, b = np.array(rows, dtype=np.float64).T.copy()
    return hi, hi_high, hi_low, lo, b.astype(np.int32)


def _decimal17(x):
    """(digits, e10, decided) for a float64 array: |x| = digits·10^(e10 - 16)
    rounded to nearest, 10^16 <= digits < 10^17 (0 for a zero), where
    `decided` holds; elsewhere (not finite, or too near a rounding tie or a
    power of ten to decide) the other two are meaningless.

    |x|·10^(16 - E), E = floor(log10|x|), is formed as a double-double from
    Dekker's exact product of frexp's mantissa with hi, plus mantissa·lo; its
    error is below 2^-44, so a fraction more than 2^-32 from 1/2 rounds right.
    """
    finite = np.isfinite(x)
    ax = np.abs(x)
    zero = ax == 0
    ax[~finite | zero] = 1.0  # quiet log10 and casts; a zero keeps e10 = 0
    e10 = np.floor(np.log10(ax)).astype(np.int16)
    idx = (16 - _K_MIN) - e10.astype(np.intp)
    hi, hi_high, hi_low, lo, b = (column[idx] for column in _pow10())
    m, e2 = np.frexp(ax)
    c = _SPLIT * m
    m_high = c - (c - m)
    m_low = m - m_high
    p = m * hi
    tail = ((m_high * hi_high - p) + m_high * hi_low + m_low * hi_high) + m_low * hi_low + m * lo
    e2 += b
    y = np.ldexp(p, e2)  # an integer wherever it is >= 10^16 > 2^53
    y_low = np.ldexp(tail, e2)
    whole = np.floor(y_low)
    frac = y_low - whole
    digits = y.astype(np.int64) + whole.astype(np.int64)
    # the range is checked before rounding, and its top integer is left out:
    # E one too large (9999999999999999.5 rounds up into range) and, where
    # log10 rounds one ulp low, a carry to 10^17 both go to the fallback
    decided = (digits >= 10**16) & (digits < 10**17 - 1) & (np.abs(frac - 0.5) > 2.0**-32)
    digits += frac > 0.5
    digits[zero] = 0
    return digits, e10, decided & finite


def _csv_rows(block, again=0) -> str:
    """The CSV lines of `block` (2-D float64), every cell as Python's
    '%.17g' writes it, each line ending with its row's last `again` cells
    written a second time.

    Each cell gets the same S byte slots, filled as one row per slot across
    all cells; a slot the cell does not use holds 0, and one transpose and
    one delete of the zero bytes give the text. The block's cells choose its
    slot rows: a sign row when a cell is negative, "0." and one "0" row per
    exponent below -1 down to the smallest exponent of a cell in 0.0001 <=
    |x| < 1, 18 rows for the 17 digits and the point, five "e+308" rows when
    a cell is in e-notation, then the separator. A cell _decimal17 leaves
    undecided is formatted by '%.17g' itself into the first S - 1 slots, so
    S grows, by zero rows before the separator, until its text fits. A
    repeated cell is its slots copied, so it is formatted once.
    """
    x = block.ravel()
    n = x.size
    digits, e10, decided = _decimal17(x)
    # the 17 digits, most significant first, in rows 1..17 of a zero-padded
    # array, so that rows [0:18] and [1:19] are the digits shifted right or not;
    # rows 0..8 and 9..17 take the top 8 (after a 0) and the low 9 digits
    padded = np.zeros((19, n), dtype=np.uint8)
    halves = padded[:18].reshape(2, 9, n)
    high = digits // 10**9
    part = np.stack([high, digits - high * 10**9]).astype(np.uint32)
    for row in range(8, -1, -1):
        quotient = part // np.uint32(10)
        halves[:, row] = part - quotient * np.uint32(10)
        part = quotient
    rank = np.arange(1, 18, dtype=np.uint8)[:, None]
    shown = ((padded[1:18] != 0) * rank).max(axis=0)  # digits up to the last nonzero
    padded[1:18] += ord("0")

    expo = (e10 < -4) | (e10 > 16)
    small = (e10 < 0) & ~expo  # 0.0001 <= |x| < 1: "0.", then zeros
    # where the point goes among the digits: 17 (none) when the prefix has it
    point = np.where(expo, 1, np.where(small, 17, e10 + 1)).astype(np.int8)
    width = np.where(expo | small, shown, np.maximum(shown, e10 + 1)).astype(np.int8)

    undecided = np.flatnonzero(~decided)
    texts = [_fmt(v).encode("ascii") for v in x[undecided].tolist()]
    # the groups the decided cells use; an undecided cell's text fills its own slots
    negative = np.signbit(x)
    sign = int((negative & decided).any())
    smallest = e10[small & decided].min(initial=0)
    prefix = 1 - int(smallest) if smallest < 0 else 0  # "0." and a "0" per exponent below -1
    letters = 5 * int((expo & decided).any())
    used = sign + prefix + 18 + letters
    slots = max(used, max(map(len, texts), default=0)) + 1

    out = np.empty((slots, n), dtype=np.uint8)
    if sign:
        np.multiply(negative, np.uint8(ord("-")), out=out[0])
    if prefix:
        np.multiply(small, np.uint8(ord("0")), out=out[sign])
        np.multiply(small, np.uint8(ord(".")), out=out[sign + 1])
        for row in range(2, prefix):
            np.multiply(small & (e10 <= -row), np.uint8(ord("0")), out=out[sign + row])
    # slot j of the 18 holds digit j before the point, the point at j = point,
    # and digit j - 1 after it; digits past `width` are dropped. uint8
    # arithmetic wraps, so unshifted + (shifted - unshifted)·after is exact.
    j = np.arange(18, dtype=np.int8)[:, None]
    after = j > point
    region = out[sign + prefix : sign + prefix + 18]
    np.subtract(padded[0:18], padded[1:19], out=region)
    region *= after
    region += padded[1:19]
    region[point, np.arange(n)] = ord(".")
    region *= (j - after) < width
    if letters:
        at = sign + prefix + 18
        magnitude = np.abs(e10)
        out[at] = ord("e")
        np.multiply(e10 < 0, np.uint8(2), out=out[at + 1])
        out[at + 1] += ord("+")  # "-" is "+" + 2
        out[at + 2] = magnitude // 100 + ord("0")
        out[at + 2] *= magnitude >= 100
        out[at + 3] = magnitude // 10 % 10 + ord("0")
        out[at + 4] = magnitude % 10 + ord("0")
        out[at : at + 5] *= expo
    out[used : slots - 1] = 0
    out[slots - 1] = ord(",")
    out[slots - 1, block.shape[1] - 1 :: block.shape[1]] = ord("\n")

    if texts:
        out[: slots - 1, undecided] = (
            np.array(texts, dtype=f"S{slots - 1}").view(np.uint8).reshape(-1, slots - 1).T
        )
    text = out.T.tobytes()
    if again:  # the first copy of a line's last cell now ends in "," where "\n" was
        lines = np.frombuffer(text, np.uint8).reshape(len(block), -1)
        lines = np.concatenate((lines, lines[:, -again * slots :]), axis=1)
        lines[:, block.shape[1] * slots - 1] = ord(",")
        text = lines.tobytes()
    return text.translate(None, b"\0").decode("ascii")


def _csv(header_lines, table, again=0) -> str:
    """CSV text: the header lines, then one line per row of `table` (a 2-D
    float array) followed by the row's last `again` numbers once more, every
    number with 17 significant digits, formatted in blocks of about
    _BLOCK_CELLS cells."""
    table = np.asarray(table, dtype=np.float64)
    step = max(1, _BLOCK_CELLS // table.shape[1])
    blocks = (_csv_rows(table[k : k + step], again) for k in range(0, len(table), step))
    return "".join(["\n".join([*header_lines, ""]), *blocks])


def trajectory_csv(trajectory: Trajectory, emit_output=False) -> str:
    """CSV text: column t, then the vec'd state entries in row-major column
    order, then (with emit_output) the vec'd output entries. Outputs that are
    the state array itself (a run without C or D·u) are the state cells'
    bytes written again, not formatted a second time."""
    header = ["t"] + _columns("x", trajectory.state_shape)
    states, outputs = trajectory.state_matrix(), trajectory.output_matrix()
    columns, again = [trajectory.times[:, None], states], 0
    if emit_output:
        header += _columns("y", trajectory.output_shape)
        if outputs is states:
            again = states.shape[1]
        else:
            columns.append(outputs)
    return _csv([",".join(header)], np.hstack(columns), again)


def multirate_csv(values, clock) -> str:
    """CSV text for a multirate grid sweep: comment line with d and the
    per-process factors, then rows at n = 0, d, 2d, ..., each tick the
    exact integer k*d of multirate._multiples rounded once to a double."""
    values = np.asarray(values, dtype=float)
    header = "# d={} f={}".format(clock.d, ",".join(str(f) for f in clock.factors))
    columns = "t," + ",".join(f"x_{i}" for i in range(1, values.shape[1] + 1))
    ticks = _multiples(len(values), clock.d).astype(float)
    return _csv([header, columns], np.hstack([ticks[:, None], values]))


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
