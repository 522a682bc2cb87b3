import importlib.util
import itertools
import json
import math
import tempfile
from pathlib import Path

import numpy as np
import orjson
import pytest
from test_simulate import zoh_case

from tensorstate import (
    MultirateFile,
    ParseError,
    SystemFile,
    Tensor,
    Trajectory,
    analyze,
    eval_state,
    global_clock,
    make_tensor,
    multirate_csv,
    parse_system_file,
    render_report,
    render_system_file,
    simulate_discrete,
    trajectory_csv,
    trajectory_on_grid,
    write_system_file,
)
from tensorstate import fileio
from tensorstate.cli import main
from tensorstate.fileio import _BLOCK_CELLS, _csv, _decimal17
from tensorstate.systems import CoefficientSet, build_system

SAMPLES = Path(__file__).resolve().parent.parent / "sample_systems"
DATA = Path(__file__).resolve().parent / "data"


def template_csv(header_lines, table):
    """The CSV writer as one '%.17g' template per row: Python's own number
    formatting, the oracle for every byte `_csv` writes."""
    template = ",".join(["%.17g"] * len(table[0]))
    return "\n".join([*header_lines, *(template % tuple(row) for row in table)]) + "\n"


def edge_cells():
    """Doubles at every switch of the 17-digit form: the ends of the double
    range, both neighbours of each power of ten, exact ties past 17 digits,
    integers past 2^53 and the exponents where %g changes notation.

    The nearest double to a power of ten can lie just below it: 1e-299 is
    written 9.9999999999999999e-300, and 1e-305, a hair closer, rounds up
    to 1e-305."""
    cells = [5e-324, -5e-324, 0.0, -0.0, 1.7976931348623157e308, -1.7976931348623157e308]
    for k in range(-323, 309):
        power = float(f"1e{k}")
        cells += [math.nextafter(power, 0.0), power, math.nextafter(power, math.inf)]
    # 18 significant digits ending in 5: %.17g rounds these ties to even
    cells += [562949953421312.125, 1234567890123456.25, -1125899906842624.25]
    cells += [2.0**53 + 2, 2.0**60 + 2**8, 2.0**63, 2.0**64 - 2**11, 9007199254740993.0 * 8]
    for e in (-5, -4, 16, 17):
        cells += [1.5 * 10.0**e, 9.5 * 10.0**e, -1.25 * 10.0**e]
    return cells


def edge_table():
    cells = edge_cells()
    return np.array(cells[: len(cells) // 7 * 7]).reshape(-1, 7)


def tensor_doc(shape, data):
    return {"shape": list(shape), "data": list(data)}


def minimal_doc():
    return {
        "time": "discrete",
        "state_shape": [2],
        "schedule": [{"start": 0, "A": tensor_doc([2, 2], [1, 0, 0, 1])}],
        "x0": tensor_doc([2], [1, 2]),
    }


def write_doc(path, doc):
    path.write_text(json.dumps(doc), encoding="utf-8")
    return path


class TestParse:
    def test_minimal_discrete(self, tmp_path):
        bundle = parse_system_file(write_doc(tmp_path / "s.json", minimal_doc()))
        assert isinstance(bundle, SystemFile)
        assert bundle.system.time_kind == "discrete"
        assert bundle.system.state_shape == (2,)
        assert bundle.x0.tolist() == [1.0, 2.0]
        assert bundle.input_signal is None

    def test_full_system(self, tmp_path):
        doc = {
            "time": "discrete",
            "state_shape": [2],
            "input_shape": [1],
            "output_shape": [1],
            "schedule": [
                {
                    "start": 0,
                    "A": tensor_doc([2, 2], [0.5, 0, 0, 0.5]),
                    "B": tensor_doc([2, 1], [1, 0]),
                    "C": tensor_doc([1, 2], [1, 1]),
                    "D": tensor_doc([1, 1], [0.25]),
                }
            ],
            "x0": tensor_doc([2], [0, 0]),
            "input": {"kind": "constant", "value": tensor_doc([1], [2.0])},
        }
        bundle = parse_system_file(write_doc(tmp_path / "s.json", doc))
        assert bundle.system.has_input
        assert bundle.input_signal.kind == "constant"
        traj = simulate_discrete(bundle.system, bundle.x0, 2, u=bundle.input_signal)
        assert traj[1].state.tolist() == [2.0, 0.0]

    def test_table_input(self, tmp_path):
        doc = minimal_doc()
        doc["input_shape"] = [2]
        doc["schedule"][0]["B"] = tensor_doc([2, 2], [1, 0, 0, 1])
        doc["input"] = {
            "kind": "table",
            "samples": [[0, tensor_doc([2], [1, 1])], [2, tensor_doc([2], [3, 3])]],
        }
        bundle = parse_system_file(write_doc(tmp_path / "s.json", doc))
        assert bundle.input_signal.keys == (0.0, 2.0)

    def test_missing_file(self, tmp_path):
        with pytest.raises(OSError):
            parse_system_file(tmp_path / "absent.json")

    def test_bad_json_names_location(self, tmp_path):
        path = tmp_path / "s.json"
        path.write_text('{"time": "discrete",,}', encoding="utf-8")
        with pytest.raises(ParseError, match="line 1 column"):
            parse_system_file(path)

    def test_data_length_mismatch_names_field(self, tmp_path):
        doc = minimal_doc()
        doc["schedule"][0]["A"] = tensor_doc([2, 2], [1, 0, 0])
        with pytest.raises(ParseError, match=r"A.*data length 3"):
            parse_system_file(write_doc(tmp_path / "s.json", doc))

    def test_unknown_field(self, tmp_path):
        doc = minimal_doc()
        doc["extra"] = 1
        with pytest.raises(ParseError, match="unknown field"):
            parse_system_file(write_doc(tmp_path / "s.json", doc))

    def test_missing_x0(self, tmp_path):
        doc = minimal_doc()
        del doc["x0"]
        with pytest.raises(ParseError, match="missing field 'x0'"):
            parse_system_file(write_doc(tmp_path / "s.json", doc))

    def test_x0_shape_mismatch(self, tmp_path):
        doc = minimal_doc()
        doc["x0"] = tensor_doc([3], [1, 2, 3])
        with pytest.raises(ParseError, match="x0"):
            parse_system_file(write_doc(tmp_path / "s.json", doc))

    def test_input_without_input_shape(self, tmp_path):
        doc = minimal_doc()
        doc["input"] = {"kind": "zero"}
        with pytest.raises(ParseError, match="input_shape"):
            parse_system_file(write_doc(tmp_path / "s.json", doc))

    def test_wrong_coefficient_shape_names_schedule(self, tmp_path):
        doc = minimal_doc()
        doc["state_shape"] = [3]
        doc["x0"] = tensor_doc([3], [1, 2, 3])
        with pytest.raises(ParseError, match=r"\.schedule: segment 0: coefficient A has shape"):
            parse_system_file(write_doc(tmp_path / "s.json", doc))

    def test_table_must_start_at_zero(self, tmp_path):
        doc = minimal_doc()
        doc["input_shape"] = [2]
        doc["schedule"][0]["B"] = tensor_doc([2, 2], [1, 0, 0, 1])
        doc["input"] = {"kind": "table", "samples": [[1, tensor_doc([2], [1, 1])]]}
        with pytest.raises(ParseError):
            parse_system_file(write_doc(tmp_path / "s.json", doc))

    def test_constant_shape_mismatch(self, tmp_path):
        doc = minimal_doc()
        doc["input_shape"] = [2]
        doc["schedule"][0]["B"] = tensor_doc([2, 2], [1, 0, 0, 1])
        doc["input"] = {"kind": "constant", "value": tensor_doc([3], [1, 1, 1])}
        with pytest.raises(ParseError, match="does not match"):
            parse_system_file(write_doc(tmp_path / "s.json", doc))

    def test_non_finite_literal_rejected(self, tmp_path):
        path = tmp_path / "s.json"
        text = json.dumps(minimal_doc()).replace("1, 0, 0, 1", "1, Infinity, 0, 1")
        path.write_text(text, encoding="utf-8")
        with pytest.raises(ParseError, match="non-finite"):
            parse_system_file(path)

    def test_unknown_kind(self, tmp_path):
        with pytest.raises(ParseError, match="kind"):
            parse_system_file(write_doc(tmp_path / "s.json", {"kind": "modal"}))

    @pytest.mark.parametrize(
        "literal,message",
        [
            ("true", "expected a number, got True"),
            ('"1"', "expected a number, got '1'"),
            ("1e400", "number out of the finite double range"),
            ("-1e400", "number out of the finite double range"),
            ("1" * 400, "number out of the finite double range"),
        ],
        ids=["bool", "string", "inf", "-inf", "huge-int"],
    )
    def test_bad_entry_in_large_data(self, tmp_path, literal, message):
        """One bad entry among 4096 gets the same error as in a short list."""
        doc = minimal_doc()
        doc["state_shape"] = [64]
        doc["schedule"][0]["A"] = tensor_doc([64, 64], [0.5] * 2000 + [0.125] + [0.5] * 2095)
        doc["x0"] = tensor_doc([64], [1.0] * 64)
        path = tmp_path / "s.json"
        path.write_text(json.dumps(doc).replace("0.125", literal), encoding="utf-8")
        with pytest.raises(ParseError) as err:
            parse_system_file(path)
        assert str(err.value) == f"{path}.schedule[0].A.data: {message}"

    def test_ints_and_floats_parse_as_float_does(self, tmp_path):
        data = [2**60 + 1, 3, -(2**70) - 12345, 0.1, -0.0, 5e-324, 1.7976931348623157e308]
        doc = minimal_doc()
        doc["state_shape"] = [7]
        doc["schedule"][0]["A"] = tensor_doc([7, 7], data * 7)
        doc["x0"] = tensor_doc([7], data)
        parsed = parse_system_file(write_doc(tmp_path / "s.json", doc))
        assert parsed.x0.tolist() == [float(v) for v in data]
        assert np.signbit(parsed.x0.tolist()[4])

    LONG = list(range(100000))

    @pytest.mark.parametrize("field, value, message", [
        (("x0", "data"), [LONG, 1.0], ".x0.data: expected a number, got [0, 1, 2, 3, 4, 5, ...]"),
        (("state_shape",), [2, LONG],
         ".state_shape: size of mode 1 must be an integer, got [0, 1, 2, 3, 4, 5, ...]"),
        (("time",), "d" * 100000,
         ".time: expected 'discrete' or 'continuous', got 'dddddddddddd...ddddddddddddd'"),
        (("boundary",), {"kind": LONG},
         ".boundary.kind: expected 'constant', 'index', or 'table', got [0, 1, 2, 3, 4, 5, ...]"),
        (("boundary",), {"kind": "table", "values": [[LONG, 0.0]]},
         ".boundary.values[0]: index must be an integer, got [0, 1, 2, 3, 4, 5, ...]"),
        (("kind",), "m" * 100000, ".kind: expected 'multirate', got 'mmmmmmmmmmmm...mmmmmmmmmmmmm'"),
        (("z" * 100000,), 1, ": unknown field(s) ['zzzzzzzzzzzz...zzzzzzzzzzzzz']"),
    ], ids=["number", "shape", "time", "kind-of-a-spec", "table-index", "top-level-kind", "unknown-field"])
    def test_long_file_value_is_quoted_short(self, tmp_path, field, value, message):
        """A file value quoted in a refusal is cut by reprlib.repr: a list
        after six items, a string after 30 characters."""
        if field[0] == "boundary":
            doc = {"kind": "multirate", "A": [[0.5]], "clocks": [2], "boundary": None}
        else:
            doc = minimal_doc()
        target = doc
        for key in field[:-1]:
            target = target[key]
        target[field[-1]] = value
        path = write_doc(tmp_path / "s.json", doc)
        with pytest.raises(ParseError) as err:
            parse_system_file(path)
        assert str(err.value) == f"{path}{message}"


def table_doc(samples, input_shape):
    doc = minimal_doc()
    doc["input_shape"] = list(input_shape)
    doc["schedule"][0]["B"] = tensor_doc([2, *input_shape], [1] * (2 * math.prod(input_shape)))
    doc["input"] = {"kind": "table", "samples": samples}
    return doc


class TestTableInput:
    """A table's samples are read in one pass; a table that fails any check
    is walked sample by sample, which names the first bad field."""

    def assert_reads_the_table(self, path):
        """The signal's keys and values have the bits of np.array(<doc data>,
        dtype=float), each value read-only and a row of one block."""
        doc = json.loads(path.read_text(encoding="utf-8"))
        signal = parse_system_file(path).input_signal
        samples, shape = doc["input"]["samples"], tuple(doc["input_shape"])
        assert np.array(signal.keys).tobytes() == np.array([when for when, _ in samples], dtype=float).tobytes()
        for value, (_, field) in zip(signal.values, samples, strict=True):
            assert value.shape == shape == tuple(field["shape"])
            assert value.array.tobytes() == np.array(field["data"], dtype=float).tobytes()
            assert not value.array.flags.writeable
            with pytest.raises(ValueError):
                value.array[...] = 0.0
        # every value is a row of one block: the one-pass path was taken
        block = signal.values[0].array.base
        assert block is not None and all(value.array.base is block for value in signal.values)
        assert signal._rows.base is block and not signal._rows.flags.writeable
        return signal

    def test_sample_system(self):
        self.assert_reads_the_table(SAMPLES / "discrete_pair.json")

    def test_zoh_case_table(self, tmp_path):
        system, x0, signal, (_, _, _, breaks, inputs) = zoh_case("table")
        path = tmp_path / "s.json"
        write_system_file(SystemFile(system, Tensor.from_array(x0), signal), path)
        parsed = self.assert_reads_the_table(path)
        assert parsed.keys == tuple(breaks)
        assert np.array_equal([value.array for value in parsed.values], inputs)

    def test_150_samples_of_ints_and_floats(self, tmp_path):
        rng = np.random.default_rng(5)
        entries = [2**60 + 1, 3, -(2**70) - 12345, 0.1, -0.0, 5e-324, 1.7976931348623157e308]
        samples = []
        for j in range(150):
            data = [entries[(j + i) % len(entries)] if i % 2 else float(rng.normal())
                    for i in range(6)]
            samples.append([j if j % 3 else j + 0.5, tensor_doc([2, 3], data)])
        samples[0][0] = 0
        path = write_doc(tmp_path / "s.json", table_doc(samples, [2, 3]))
        self.assert_reads_the_table(path)

    def test_first_of_two_faults_is_named(self, tmp_path):
        samples = [[j, tensor_doc([2], [j, 1])] for j in range(4)]
        samples[1][1]["data"][0] = "x"
        samples[2][1]["shape"] = [1, 2]
        path = write_doc(tmp_path / "s.json", table_doc(samples, [2]))
        with pytest.raises(ParseError) as err:
            parse_system_file(path)
        assert str(err.value) == f"{path}.input.samples[1].data: expected a number, got 'x'"

    @pytest.mark.parametrize(
        "sample, message",
        [
            ([1, {"shape": [True, 2], "data": [1, 1]}],
             ".shape: size of mode 0 must be an integer, got True"),
            ([True, tensor_doc([1, 2], [1, 1])], ": expected a number, got True"),
        ],
        ids=["bool-mode", "bool-when"],
    )
    def test_bools_refused(self, tmp_path, sample, message):
        samples = [[0, tensor_doc([1, 2], [0, 0])], sample, [2, tensor_doc([1, 2], [2, 2])]]
        path = write_doc(tmp_path / "s.json", table_doc(samples, [1, 2]))
        with pytest.raises(ParseError) as err:
            parse_system_file(path)
        assert str(err.value) == f"{path}.input.samples[1]{message}"


def assert_reads_the_document(system, doc):
    """The starts and every coefficient of `system` have the bits of
    np.array(<doc data>, dtype=float), in the document's shapes and
    segments, as do the unfolded matrices; every tensor is read-only, and
    each kind's tensors are views of one array, in segment order: rows of
    one (K, N) block where the shapes agree."""
    schedule = doc["schedule"]
    starts = np.array([seg["start"] for seg in schedule], dtype=float)
    assert np.array(system.schedule.keys).tobytes() == starts.tobytes()
    sets = system.schedule.values
    for name in "ABCD":
        tensors = [getattr(c, name) for c in sets]
        held = [k for k, seg in enumerate(schedule) if name in seg]
        assert [k for k, t in enumerate(tensors) if t is not None] == held
        if not held:
            continue
        owner = tensors[held[0]].array.base
        sizes = [tensors[k].size for k in held]
        assert owner.shape == (sum(sizes),) and not owner.flags.writeable
        for k, offset in zip(held, np.cumsum([0, *sizes[:-1]])):
            tensor, field = tensors[k].array, schedule[k][name]
            assert tensor.base is owner and not tensor.flags.writeable
            assert tensor.ctypes.data == owner.ctypes.data + 8 * int(offset)
            assert tensor.shape == tuple(field["shape"])
            assert tensor.tobytes() == np.array(field["data"], dtype=float).tobytes()
        if len(set(sizes)) == 1:  # rows of the (K, N) block, when its shapes agree
            rows = owner.reshape(len(held), -1)
            assert all(tensors[k].array.ctypes.data == row.ctypes.data for k, row in zip(held, rows))
    for m, c, seg in zip(system.unfolded, sets, schedule, strict=True):
        for name, matrix in zip("ABCD", m):
            if matrix is not None:
                reference = np.array(seg[name]["data"], dtype=float).reshape(matrix.shape)
                assert matrix.tobytes() == reference.tobytes()
                assert np.shares_memory(matrix, getattr(c, name).array)


def schedule_doc(segments=3):
    """A discrete file of `segments` segments, each with A, B and C, state
    (1, 2), input (2,) and output (2,): the block read takes it."""
    rng = np.random.default_rng(segments)

    def coupling(shape):
        return tensor_doc(shape, np.round(rng.normal(size=math.prod(shape)), 3).tolist())

    return {
        "time": "discrete",
        "state_shape": [1, 2],
        "input_shape": [2],
        "output_shape": [2],
        "schedule": [
            {"start": 4 * k, "A": coupling([1, 2, 1, 2]), "B": coupling([1, 2, 2]), "C": coupling([2, 1, 2])}
            for k in range(segments)
        ],
        "x0": tensor_doc([1, 2], [1, -1]),
    }


def many_modes_doc(modes):
    """Three segments whose A has `modes` modes of size 1 each."""
    doc = minimal_doc()
    doc["state_shape"] = [1] * 32
    doc["schedule"] = [{"start": k, "A": tensor_doc([1] * modes, [0.5])} for k in range(3)]
    doc["x0"] = tensor_doc([1] * 32, [1])
    return doc


def dense_doc(doc):
    """schedule_doc's segments over state (4, 4): every entry of A (256 per
    segment), B, C and x0 a float in (-0.1, 0.1), so no block holds a 0 or
    a 1."""
    rng = np.random.default_rng(16)

    def coupling(shape):
        return tensor_doc(shape, rng.uniform(-0.1, 0.1, math.prod(shape)).tolist())

    doc.update(state_shape=[4, 4], x0=coupling([4, 4]))
    for seg in doc["schedule"]:
        seg.update(A=coupling([4, 4, 4, 4]), B=coupling([4, 4, 2]), C=coupling([2, 4, 4]))
    return doc


def some_d(doc):
    """D, of shape output + input, in segments 0 and 2 of a schedule_doc."""
    for k in (0, 2):
        doc["schedule"][k]["D"] = tensor_doc([2, 2], [0.5, -1, 2 + k, 0.25])
    return doc


DROP = object()


def _set(path, value=DROP):
    """A mutation of a doc: the field at `path` in its schedule set to
    `value`, or deleted."""
    def mutate(doc):
        *parents, last = path
        target = doc["schedule"]
        for key in parents:
            target = target[key]
        if value is DROP:
            del target[last]
        else:
            target[last] = value
        return doc
    return mutate


def _each(path, value=DROP):
    """A mutation of a doc: the field at `path` set to `value`, or deleted,
    in every segment."""
    def mutate(doc):
        for k in range(len(doc["schedule"])):
            _set([k, *path], value)(doc)
        return doc
    return mutate


# none, one field of segment 1, or of every segment, of a valid schedule_doc
# made wrong, or a file of 64 or 65-mode coefficients
MUTATIONS = {
    "none": lambda doc: doc,
    "bool": _set([1, "A", "data", 2], True),
    "string": _set([1, "A", "data", 2], "1"),
    "null": _set([1, "A", "data", 2], None),
    "nested list": _set([1, "A", "data", 2], [1.0]),
    "1e400": _set([1, "A", "data", 2], "1e400"),  # written as the bare literal
    "huge int": _set([1, "B", "data", 0], 10**400),
    "data length": _set([1, "C", "data", -1]),
    "data not a list": _set([1, "C", "data"], 1.0),
    "bool mode": _set([1, "A", "shape", 0], True),
    "float mode": _set([1, "A", "shape", 0], 1.0),
    "zero mode": _set([1, "B", "shape", 0], 0),
    "empty shape": _set([1, "A", "shape"], []),
    "shape not a list": _set([1, "A", "shape"], 4),
    "other shape": _set([1, "A", "shape"], [2, 1, 2, 1]),
    "other B shape": _set([1, "B", "shape"], [2, 1, 2]),
    "tensor not an object": _set([1, "B"], [1, 2, 3, 4]),
    "tensor field": _set([1, "B", "size"], 4),
    "missing data": _set([1, "A", "data"]),
    "missing A": _set([1, "A"]),
    "missing C": _set([1, "C"]),
    "missing start": _set([1, "start"]),
    "unknown field": _set([1, "E"], 1),
    "bool start": _set([1, "start"], True),
    "string start": _set([1, "start"], "4"),
    "1e400 start": _set([1, "start"], "1e400"),
    "start not increasing": _set([1, "start"], 0),
    "non-object segment": _set([1], [4, {}]),
    "bool mode everywhere": _each(["A", "shape", 0], True),
    "negative modes everywhere": _each(["A", "shape"], [-1, -2, 1, 2]),
    "zero mode and no data everywhere": _each(["A"], {"shape": [0, 2, 1, 2], "data": []}),
    "shape not a list everywhere": _each(["A", "shape"], 4),
    "unknown field everywhere": _each(["E"], 1),
    "missing start everywhere": _each(["start"]),
    "dense": dense_doc,
    "true in a dense A": lambda doc: _set([1, "A", "data", 100], True)(dense_doc(doc)),
    "false in a dense A": lambda doc: _set([1, "A", "data", 100], False)(dense_doc(doc)),
    "numeric string in a dense A": lambda doc: _set([1, "A", "data", 100], "0.05")(dense_doc(doc)),
    "64 modes": lambda doc: many_modes_doc(64),
    "65 modes": lambda doc: many_modes_doc(65),
    # segments that differ in fields or in a kind's shape, and files with two faults
    "D in some segments": lambda doc: some_d(doc),
    "D in some segments, one bad": lambda doc: _set([2, "D", "data", 1], True)(some_d(doc)),
    "D in some segments, other D shape": lambda doc: _set([2, "D", "shape"], [4])(some_d(doc)),
    "C in some segments, one without data": lambda doc: _set([2, "C", "data"])(_set([1, "C"])(doc)),
    "other shape, then a bad entry": lambda doc: _set([2, "A", "data", 0], "x")(MUTATIONS["other shape"](doc)),
    "two faults, in two segments": lambda doc: _set([2, "A", "data", 3], True)(MUTATIONS["data length"](doc)),
    "two faults, in one segment": lambda doc: _set([1, "C", "data", 0], None)(MUTATIONS["string"](doc)),
}
# the refusal of each MUTATIONS case that is not valid: its exact text after the file's path
REFUSALS = {
    "bool": ".schedule[1].A.data: expected a number, got True",
    "string": ".schedule[1].A.data: expected a number, got '1'",
    "null": ".schedule[1].A.data: expected a number, got None",
    "nested list": ".schedule[1].A.data: expected a number, got [1.0]",
    "1e400": ".schedule[1].A.data: number out of the finite double range",
    "huge int": ".schedule[1].B.data: number out of the finite double range",
    "data length": ".schedule[1].C: data length 3 does not match shape [2, 1, 2] (expected 4)",
    "data not a list": ".schedule[1].C.data: expected a list of numbers",
    "bool mode": ".schedule[1].A.shape: size of mode 0 must be an integer, got True",
    "float mode": ".schedule[1].A.shape: size of mode 0 must be an integer, got 1.0",
    "zero mode": ".schedule[1].B.shape: size of mode 0 must be >= 1, got 0",
    "empty shape": ".schedule[1].A.shape: expected a non-empty list of mode sizes",
    "shape not a list": ".schedule[1].A.shape: expected a non-empty list of mode sizes",
    "other shape":
        ".schedule: segment 1: coefficient A has shape [2, 1, 2, 1], expected [1, 2, 1, 2] (state_shape + state_shape)",
    "other B shape":
        ".schedule: segment 1: coefficient B has shape [2, 1, 2], expected [1, 2, 2] (state_shape + input_shape)",
    "tensor not an object": ".schedule[1].B: expected an object, got list",
    "tensor field": ".schedule[1].B: unknown field(s) ['size']",
    "missing data": ".schedule[1].A: missing field 'data'",
    "missing A": ".schedule[1]: missing field 'A'",
    "missing C":
        ".schedule: segment 1: coefficient C absent, so the output is the state, but output_shape [2] differs from state_shape [1, 2]",
    "missing start": ".schedule[1]: missing field 'start'",
    "unknown field": ".schedule[1]: unknown field(s) ['E']",
    "bool start": ".schedule[1].start: expected a number, got True",
    "string start": ".schedule[1].start: expected a number, got '4'",
    "1e400 start": ".schedule[1].start: number out of the finite double range",
    "start not increasing": ".schedule: schedule keys must be strictly increasing (0.0 then 0.0)",
    "non-object segment": ".schedule[1]: expected an object, got list",
    "bool mode everywhere": ".schedule[0].A.shape: size of mode 0 must be an integer, got True",
    "negative modes everywhere": ".schedule[0].A.shape: size of mode 0 must be >= 1, got -1",
    "zero mode and no data everywhere": ".schedule[0].A.shape: size of mode 0 must be >= 1, got 0",
    "shape not a list everywhere": ".schedule[0].A.shape: expected a non-empty list of mode sizes",
    "unknown field everywhere": ".schedule[0]: unknown field(s) ['E']",
    "missing start everywhere": ".schedule[0]: missing field 'start'",
    "true in a dense A": ".schedule[1].A.data: expected a number, got True",
    "false in a dense A": ".schedule[1].A.data: expected a number, got False",
    "numeric string in a dense A": ".schedule[1].A.data: expected a number, got '0.05'",
    "65 modes": ".schedule[0].A: maximum supported dimension for an ndarray is currently 64, found 65",
    "D in some segments, one bad": ".schedule[2].D.data: expected a number, got True",
    "D in some segments, other D shape":
        ".schedule: segment 2: coefficient D has shape [4], expected [2, 2] (output_shape + input_shape)",
    "C in some segments, one without data": ".schedule[2].C: missing field 'data'",
    "other shape, then a bad entry": ".schedule[2].A.data: expected a number, got 'x'",
    "two faults, in two segments": ".schedule[1].C: data length 3 does not match shape [2, 1, 2] (expected 4)",
    "two faults, in one segment": ".schedule[1].A.data: expected a number, got '1'",
}
VALID = set(MUTATIONS) - set(REFUSALS)
# fields the block read takes, which the system's own checks then refuse
BLOCK_READ_TAKES = {
    "start not increasing", "other shape", "other B shape", "missing C", "D in some segments, other D shape"
}


class TestScheduleBlocks:
    """The block read takes every schedule whose fields pass their checks,
    whatever kinds its segments hold and whatever their shapes; the walk
    over the fields of any other file names its first bad field."""

    @pytest.mark.parametrize("mutation", list(MUTATIONS))
    def test_both_reads_agree(self, tmp_path, mutation):
        """The block read and the walk agree: a valid file takes the block
        read and gives the document's numbers; a file the block read
        refuses raises the walk's error, and
        a file it takes whose shapes or starts do not fit the system raises
        the system's. Each error is its exact text."""
        doc = MUTATIONS[mutation](schedule_doc())
        path = tmp_path / "s.json"
        path.write_text(json.dumps(doc).replace('"1e400"', "1e400"), encoding="utf-8")
        raw = json.loads(path.read_text(encoding="utf-8"))["schedule"]
        if mutation in VALID:
            assert_reads_the_document(parse_system_file(path).system, doc)
            return
        with pytest.raises(ParseError) as err:
            parse_system_file(path)
        assert str(err.value) == f"{path}{REFUSALS[mutation]}"
        assert (fileio._schedule_blocks(raw) is None) == (mutation not in BLOCK_READ_TAKES)

    def test_a_named_error(self, tmp_path):
        path = write_doc(tmp_path / "s.json", MUTATIONS["bool mode"](schedule_doc()))
        with pytest.raises(ParseError) as err:
            parse_system_file(path)
        assert str(err.value) == f"{path}.schedule[1].A.shape: size of mode 0 must be an integer, got True"

    @pytest.mark.parametrize("segments, samples", [(4, 6), (4, 150), (64, 6), (64, 150)])
    def test_one_bulk_read_per_list(self, tmp_path, monkeypatch, segments, samples):
        """A schedule with C in every other segment and a table of input
        samples take one _finite_block call per list of numbers read: the
        starts, A, B, C, x0, the table's keys and its values. The count does
        not grow with the segments or the samples."""
        doc = schedule_doc(segments)
        del doc["output_shape"]
        for k, seg in enumerate(doc["schedule"]):
            if k % 2:
                del seg["C"]
            else:
                seg["C"] = tensor_doc([1, 2, 1, 2], [1, 0, 0, 1])
        doc["input"] = {"kind": "table", "samples": [[k, tensor_doc([2], [k, -k])] for k in range(samples)]}
        calls = []
        finite_block = fileio._finite_block
        monkeypatch.setattr(fileio, "_finite_block", lambda rows: calls.append(len(rows)) or finite_block(rows))
        bundle = parse_system_file(write_doc(tmp_path / "s.json", doc))
        assert [m.c is not None for m in bundle.system.unfolded] == [k % 2 == 0 for k in range(segments)]
        assert len(bundle.input_signal.keys) == samples
        assert len(calls) == 7

    def test_valid_schedules_read_as_the_document(self):
        """1-70 segments of state order 1-3, B, C and D in every segment, in
        some or in none, int and float starts: the document's starts and
        coefficient bits, each kind one read-only array, and the table's
        keys and values those of the document too."""
        hypothesis = pytest.importorskip("hypothesis")
        st = hypothesis.strategies

        @hypothesis.settings(max_examples=150, deadline=None, database=None, derandomize=True)
        @hypothesis.given(st.data())
        def check(data):
            doc = data.draw(valid_schedule_doc(st))
            with tempfile.TemporaryDirectory() as tmp:
                parsed = parse_system_file(write_doc(Path(tmp) / "s.json", doc))
            assert_reads_the_document(parsed.system, doc)
            if "input" in doc:
                samples = doc["input"]["samples"]
                keys = np.array([when for when, _ in samples], dtype=float)
                values = np.array([value["data"] for _, value in samples], dtype=float)
                assert np.array(parsed.input_signal.keys).tobytes() == keys.tobytes()
                assert parsed.input_signal._rows.tobytes() == values.tobytes()

        check()

    def test_walk_names_every_refusal(self):
        """One field of a drawn valid schedule or input table set to another
        JSON value, or deleted: where the block read refuses the schedule or
        the table, parsing raises a ParseError naming a field of it, never
        another error."""
        hypothesis = pytest.importorskip("hypothesis")
        st = hypothesis.strategies
        others = st.sampled_from([True, None, "1", 0, -1, 1.5, 10**400, -(10**400), [], [1.0], {}, DROP])

        @hypothesis.settings(max_examples=300, deadline=None, database=None, derandomize=True)
        @hypothesis.given(st.data())
        def check(data):
            doc = data.draw(valid_schedule_doc(st))
            table = "input" in doc and data.draw(st.booleans())
            target = doc["input"]["samples"] if table else doc["schedule"]
            *parents, last = data.draw(field_path(st, target))
            for key in parents:
                target = target[key]
            value = data.draw(others)
            if value is DROP:
                del target[last]
            else:
                target[last] = value
            with tempfile.TemporaryDirectory() as tmp:
                path = write_doc(Path(tmp) / "s.json", doc)
                try:
                    parse_system_file(path)
                except ParseError as exc:
                    message = str(exc)
                else:
                    message = None
            if table:
                if fileio._table_entries(doc["input"]["samples"], tuple(doc["input_shape"])) is None:
                    assert message.startswith(f"{path}.input.samples")
            elif doc["schedule"] and fileio._schedule_blocks(doc["schedule"]) is None:
                assert message.startswith(f"{path}.schedule[")

        check()


def type_pass_block(rows):
    """The rule _finite_block keeps, read the slow way: a type pass over
    every entry, then np.fromiter over all of them."""
    if set(map(type, itertools.chain.from_iterable(rows))) <= {float, int}:
        try:
            values = np.fromiter(itertools.chain.from_iterable(rows), dtype=float, count=sum(map(len, rows)))
        except OverflowError:
            return None
        if np.isfinite(values).all():
            values.flags.writeable = False
            return values
    return None


class TestFiniteBlock:
    def test_reads_as_a_type_pass_does(self):
        """Short and long blocks of floats, ints (0, 1, 2^53+1, 2^64, 10^400
        among them), bools, -0.0, non-finite floats, numeric and other
        strings, None, nested lists and dicts: _finite_block gives None where
        a type pass and np.fromiter do, else the same bits, read-only."""
        hypothesis = pytest.importorskip("hypothesis")
        st = hypothesis.strategies
        entries = st.one_of(
            st.floats(), st.integers(-(2**70), 2**70),
            st.sampled_from([0, 1, -1, 0.0, -0.0, 1.0, 2**53 + 1, 2**64, 10**400, -(10**400), True, False,
                             math.inf, math.nan, "1.5", "1", "0", "x", "", None, [], [1.0], {}, {"a": 1}]),
        )
        short = st.lists(st.lists(entries, max_size=8), min_size=1, max_size=3)
        # a row of filler lifts a block past the short ones, whose types are always read
        long = st.tuples(short, st.integers(0, 3)).map(
            lambda drawn: drawn[0][:drawn[1]] + [[0.25] * fileio._SHORT_BLOCK] + drawn[0][drawn[1]:])

        @hypothesis.settings(max_examples=1000, deadline=None, database=None, derandomize=True)
        @hypothesis.given(st.one_of(short, long))
        def check(rows):
            got, want = fileio._finite_block(rows), type_pass_block(rows)
            assert (got is None) == (want is None)
            if got is not None:
                assert got.dtype == np.float64 and got.shape == want.shape
                assert got.tobytes() == want.tobytes()
                assert not got.flags.writeable

        check()


def field_path(st, value):
    """A strategy for the keys leading from `value`, a JSON list or object,
    to one of the fields or entries nested in it."""
    @st.composite
    def draw_path(draw):
        keys, target = [], value
        while True:
            key = draw(st.sampled_from(list(range(len(target)) if isinstance(target, list) else target)))
            keys.append(key)
            target = target[key]
            if not isinstance(target, (list, dict)) or not target or draw(st.booleans()):
                return keys

    return draw_path()


def valid_schedule_doc(st):
    """A strategy for a valid file whose schedule has 1-70 segments, state
    order 1-3, and B, C and D each in every segment, in some or in none, as
    the system allows; starts are ints or floats (integral when discrete),
    and cells are drawn from ints, floats, -0.0, subnormals and ±1e308. A
    file with an input holds a table of 1-21 samples."""

    @st.composite
    def draw_doc(draw):
        time = draw(st.sampled_from(["discrete", "continuous"]))
        shape = st.lists(st.integers(1, 3), min_size=1, max_size=3)
        state = draw(shape)
        inputs = draw(st.one_of(st.none(), st.lists(st.integers(1, 2), min_size=1, max_size=2)))
        places = st.sampled_from(["every", "some", "none"])
        c_in = draw(places)
        output = draw(shape) if c_in == "every" else state
        d_in = "none" if inputs is None else draw(places)
        count = draw(st.integers(1, 70))
        pool = draw(st.lists(st.one_of(
            st.integers(-(10**20), 10**20), st.floats(allow_nan=False, allow_infinity=False),
            st.sampled_from([-0.0, 5e-324, -5e-324, 1e-310, 1e308, -1e308])), min_size=1, max_size=20))
        rng = np.random.default_rng(draw(st.integers(0, 2**32)))
        scale = 1.0 if time == "discrete" else rng.uniform(0.01, 2.0)
        later = np.cumsum(rng.integers(1, 50, count - 1) * scale)
        starts = [0, *(int(k) if k.is_integer() and rng.random() < 0.5 else k for k in later.tolist())]

        def tensor(modes):
            return tensor_doc(modes, [pool[i] for i in rng.integers(len(pool), size=math.prod(modes))])

        def held(place):  # per segment, whether it holds the kind
            return rng.random(count) < 0.5 if place == "some" else [place == "every"] * count

        kinds = {"B": ([bool(inputs)] * count, lambda: state + inputs),
                 "C": (held(c_in), lambda: output + state),
                 "D": (held(d_in), lambda: output + inputs)}
        schedule = []
        for k, start in enumerate(starts):
            seg = {"start": start, "A": tensor(state + state)}
            seg.update({name: tensor(modes()) for name, (has, modes) in kinds.items() if has[k]})
            schedule.append(seg)
        doc = {"time": time, "state_shape": state, "output_shape": output, "schedule": schedule,
               "x0": tensor(state)}
        if inputs:
            doc["input_shape"] = inputs
            keys = [0, *np.cumsum(rng.integers(1, 9, draw(st.integers(0, 20))) * scale).tolist()]
            doc["input"] = {"kind": "table", "samples": [[key, tensor(inputs)] for key in keys]}
        return doc

    return draw_doc()


class TestParseMultirate:
    def multirate_doc(self):
        return {
            "kind": "multirate",
            "A": [[1, 1], [0, 1]],
            "clocks": [2, 3],
            "boundary": [{"kind": "index"}, {"kind": "constant", "value": 1}],
        }

    def test_docs_example(self, tmp_path):
        bundle = parse_system_file(write_doc(tmp_path / "m.json", self.multirate_doc()))
        assert isinstance(bundle, MultirateFile)
        assert bundle.system.clock.d == 6
        assert eval_state(bundle.system, 1, 36) == 11.0

    def test_clock_of_one_quotes_constraint(self, tmp_path):
        doc = self.multirate_doc()
        doc["clocks"] = [2, 1]
        with pytest.raises(ParseError, match=r"\.clocks: clock must be >= 2, got 1$"):
            parse_system_file(write_doc(tmp_path / "m.json", doc))

    def test_b_without_input(self, tmp_path):
        doc = self.multirate_doc()
        doc["B"] = [[1, 0], [0, 1]]
        with pytest.raises(ParseError, match="input"):
            parse_system_file(write_doc(tmp_path / "m.json", doc))

    def test_input_without_b(self, tmp_path):
        doc = self.multirate_doc()
        doc["input"] = {"kind": "index"}
        with pytest.raises(ParseError, match="B"):
            parse_system_file(write_doc(tmp_path / "m.json", doc))

    def test_table_boundary(self, tmp_path):
        doc = self.multirate_doc()
        doc["boundary"] = {
            "kind": "table",
            "values": [[0, 0.0], [2, 1.0], [3, 3.0]],
        }
        bundle = parse_system_file(write_doc(tmp_path / "m.json", doc))
        assert eval_state(bundle.system, 1, 6) == 4.0

    def test_duplicate_table_index(self, tmp_path):
        doc = self.multirate_doc()
        doc["boundary"] = {"kind": "table", "values": [[0, 0.0], [0, 1.0]]}
        with pytest.raises(ParseError, match="duplicate"):
            parse_system_file(write_doc(tmp_path / "m.json", doc))

    @pytest.mark.parametrize(
        "field, value, message",
        [
            ("A", [[1, 1]], "square"),
            ("clocks", [2, 1], "clock must be >= 2, got 1"),
            ("B", [[1]], "B must be"),
        ],
    )
    def test_validation_errors_name_the_file(self, tmp_path, field, value, message):
        doc = self.multirate_doc()
        doc["boundary"] = {"kind": "index"}
        doc["input"] = {"kind": "index"}
        doc["B"] = [[1, 0], [0, 1]]
        doc[field] = value
        path = write_doc(tmp_path / "m.json", doc)
        with pytest.raises(ParseError, match=message) as err:
            parse_system_file(path)
        assert str(err.value).startswith(f"{path}.clocks: " if field == "clocks" else f"{path}: ")

    def test_per_process_count_mismatch(self, tmp_path):
        doc = self.multirate_doc()
        doc["boundary"] = [{"kind": "index"}]
        with pytest.raises(ParseError, match="per-process"):
            parse_system_file(write_doc(tmp_path / "m.json", doc))


class TestRoundTrip:
    def test_tensor_system(self, tmp_path):
        doc = {
            "time": "continuous",
            "state_shape": [2, 2],
            "input_shape": [2],
            "schedule": [
                {
                    "start": 0,
                    "A": tensor_doc([2, 2, 2, 2], list(range(16))),
                    "B": tensor_doc([2, 2, 2], [0.5] * 8),
                },
                {
                    "start": 1.5,
                    "A": tensor_doc([2, 2, 2, 2], [0.25] * 16),
                    "B": tensor_doc([2, 2, 2], [0.0] * 8),
                },
            ],
            "x0": tensor_doc([2, 2], [1, 2, 3, 4]),
            "input": {
                "kind": "table",
                "samples": [[0, tensor_doc([2], [1, 0])], [0.75, tensor_doc([2], [0, 1])]],
            },
        }
        path = write_doc(tmp_path / "s.json", doc)
        first = parse_system_file(path)
        text1 = render_system_file(first)
        path2 = tmp_path / "canon.json"
        write_system_file(first, path2)
        second = parse_system_file(path2)
        text2 = render_system_file(second)
        assert text1 == text2
        assert path2.read_text(encoding="utf-8") == text1
        for (s1, c1), (s2, c2) in zip(first.system.schedule, second.system.schedule):
            assert s1 == s2
            assert np.array_equal(c1.A.array, c2.A.array)
        assert np.array_equal(first.x0.array, second.x0.array)

    def test_zero_input_made_explicit(self, tmp_path):
        doc = minimal_doc()
        doc["input_shape"] = [2]
        doc["schedule"][0]["B"] = tensor_doc([2, 2], [1, 0, 0, 1])
        first = parse_system_file(write_doc(tmp_path / "s.json", doc))
        text = render_system_file(first)
        assert '"kind": "zero"' in text
        path2 = tmp_path / "canon.json"
        write_system_file(first, path2)
        assert render_system_file(parse_system_file(path2)) == text

    def test_multirate(self, tmp_path):
        doc = {
            "kind": "multirate",
            "A": [[1, 1], [0, 1]],
            "B": [[2, 0], [0, 3]],
            "clocks": [2, 2],
            "boundary": {"kind": "constant", "value": 1},
            "input": [{"kind": "index"}, {"kind": "table", "values": [[1, 5.0], [2, 6.0]]}],
        }
        path = write_doc(tmp_path / "m.json", doc)
        first = parse_system_file(path)
        text1 = render_system_file(first)
        path2 = tmp_path / "canon.json"
        write_system_file(first, path2)
        text2 = render_system_file(parse_system_file(path2))
        assert text1 == text2

    def test_render_deterministic(self, tmp_path):
        bundle = parse_system_file(write_doc(tmp_path / "s.json", minimal_doc()))
        assert render_system_file(bundle) == render_system_file(bundle)

    def test_no_output_shape_without_c(self, tmp_path):
        bundle = parse_system_file(write_doc(tmp_path / "s.json", minimal_doc()))
        text = render_system_file(bundle)
        assert "output_shape" not in text


class TestCsv:
    def test_trajectory_golden(self):
        system = build_system("discrete", (2,), CoefficientSet(A=Tensor.identity([2])))
        traj = simulate_discrete(system, make_tensor([2], [1, 2]), 2)
        assert trajectory_csv(traj) == "t,x_0,x_1\n0,1,2\n1,1,2\n2,1,2\n"

    def test_trajectory_multi_index_columns(self):
        system = build_system("discrete", (2, 2), CoefficientSet(A=Tensor.identity([2, 2])))
        traj = simulate_discrete(system, make_tensor([2, 2], [1, 2, 3, 4]), 0)
        text = trajectory_csv(traj)
        assert text.splitlines()[0] == "t,x_0_0,x_0_1,x_1_0,x_1_1"
        assert text.splitlines()[1] == "0,1,2,3,4"

    @pytest.mark.parametrize("shape", [(1,), (8,), (16, 16), (2, 2, 2, 2), (3, 3, 3)], ids=str)
    def test_column_names_in_ndindex_order(self, shape):
        names = [f"y_{'_'.join(map(str, idx))}" for idx in np.ndindex(*shape)]
        assert fileio._columns("y", shape) == names

    def test_trajectory_with_output(self):
        coeffs = CoefficientSet(
            A=Tensor.identity([2]), C=make_tensor([1, 2], [1.0, 1.0])
        )
        system = build_system("discrete", (2,), coeffs, output_shape=(1,))
        traj = simulate_discrete(system, make_tensor([2], [1, 2]), 1)
        text = trajectory_csv(traj, emit_output=True)
        assert text == "t,x_0,x_1,y_0\n0,1,2,3\n1,1,2,3\n"

    def test_seventeen_digits(self):
        system = build_system("discrete", (1,), CoefficientSet(A=make_tensor([1, 1], [1.0 / 3.0])))
        traj = simulate_discrete(system, make_tensor([1], [1.0]), 1)
        assert "0.33333333333333331" in trajectory_csv(traj)

    def test_multirate_golden(self):
        from tensorstate import MultirateSystem

        def boundary(i, n):
            return float(n) if i == 1 else 1.0

        system = MultirateSystem(
            A=[[1.0, 1.0], [0.0, 1.0]], clocks=(2, 3), boundary=boundary
        )
        values = trajectory_on_grid(system, 6)
        text = multirate_csv(values, system.clock)
        lines = text.splitlines()
        assert lines[0] == "# d=6 f=3,2"
        assert lines[1] == "t,x_1,x_2"
        assert lines[2] == "0,0,1"
        assert lines[3] == "6,4,1"
        assert lines[5] == "18,10,1"
        assert lines[8] == "36,11,1"

    @pytest.mark.parametrize("clocks", [(2**27 - 1, 2**28 + 3), (2**61 - 1, 3)], ids=str)
    def test_multirate_ticks_past_2_53(self, clocks):
        """The tick column is the exact k*d rounded once to a double, where
        d*K passes 2^53 (the first clocks) and 2^63 (the second)."""
        clock = global_clock(clocks)
        assert 4 * clock.d >= 2**53
        lines = multirate_csv(np.zeros((5, 2)), clock).splitlines()[2:]
        assert [line.split(",")[0] for line in lines] == ["%.17g" % (k * clock.d) for k in range(5)]

    @pytest.mark.parametrize("clocks", [(2**51,), (3 * 2**50 + 1,), (2, 3)])
    @pytest.mark.parametrize("rows", [1, 3, 4, 5, 6])
    def test_multirate_ticks_either_side_of_2_53(self, clocks, rows):
        """Where (rows-1)*d reaches 2^53 or stays below, the tick column is
        the exact k*d rounded once: d=2^51 switches at 5 rows, 3*2^50+1 at 4."""
        clock = global_clock(clocks)
        lines = multirate_csv(np.zeros((rows, 1)), clock).splitlines()[2:]
        assert [line.split(",")[0] for line in lines] == ["%.17g" % (k * clock.d) for k in range(rows)]

    def test_multirate_ticks_not_rounded_twice(self):
        clock = global_clock((2**27 - 1, 2**28 + 3))
        twice = ["%.17g" % t for t in np.arange(5) * float(clock.d)]
        lines = multirate_csv(np.zeros((5, 2)), clock).splitlines()[2:]
        assert [line.split(",")[0] for line in lines] != twice

    def test_multirate_ticks_are_exact_multiples_rounded_once(self):
        """Every tick is '%.17g' of the exact k*d, for K = 1..3001 rows and
        d up to 2^80, drawn within a few of 2^53/(K-1) and 2^63/(K-1), where
        the last tick leaves the exact doubles and int64, or anywhere."""
        hypothesis = pytest.importorskip("hypothesis")
        st = hypothesis.strategies

        @hypothesis.settings(max_examples=200, deadline=None, database=None, derandomize=True)
        @hypothesis.given(st.data())
        def check(data):
            rows = data.draw(st.integers(1, 3001))
            edge = data.draw(st.sampled_from([None, 2**53, 2**63]))
            if edge is None or rows == 1:
                d = data.draw(st.integers(2, 2**80))
            else:
                d = max(2, edge // (rows - 1) + data.draw(st.integers(-3, 3)))
            text = multirate_csv(np.zeros((rows, 1)), global_clock((d,)))
            ticks = [line.split(",")[0] for line in text.splitlines()[2:]]
            assert ticks == ["%.17g" % (k * d) for k in range(rows)]

        check()


class TestCsvNumbers:
    """`_csv` writes the bytes of the row template for every double."""

    def test_edge_cells(self):
        table = edge_table()
        assert _csv(["h"], table) == template_csv(["h"], table.tolist())

    def test_edge_cells_reach_the_fallback(self):
        cells = edge_cells()
        decided = _decimal17(np.array(cells))[2]
        assert not decided[cells.index(562949953421312.125)]
        assert 0 < np.count_nonzero(~decided) < len(cells) // 2

    def test_log10_one_ulp_low(self, monkeypatch):
        """A log10 rounded one ulp low makes E one too small at exact powers
        of ten, and sends a double a hair below one, such as 1e-305, to a
        carry into 10^17: both reach the fallback. numpy's log10 need not
        be correctly rounded."""
        log10 = np.log10
        monkeypatch.setattr(np, "log10", lambda a: np.nextafter(log10(a), -np.inf))
        table = edge_table()
        assert _csv(["h"], table) == template_csv(["h"], table.tolist())

    def test_blocks_span_a_long_table(self):
        rng = np.random.default_rng(3)
        table = rng.standard_normal((700, 37)) * 10.0 ** rng.integers(-30, 30, (700, 37))
        assert table.size > 3 * _BLOCK_CELLS
        assert _csv(["a", "b"], table) == template_csv(["a", "b"], table.tolist())

    def test_row_wider_than_a_block(self):
        table = np.linspace(-1.0, 1.0, 2 * (_BLOCK_CELLS + 5)).reshape(2, -1)
        assert _csv(["h"], table) == template_csv(["h"], table.tolist())

    def test_random_bit_patterns(self):
        bits = np.random.default_rng(4).integers(0, 2**64, 60000, dtype=np.uint64)
        cells = bits.view(np.float64)
        table = cells[np.isfinite(cells)][:54000].reshape(-1, 9)
        assert _csv([], table) == template_csv([], table.tolist())

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_non_finite_and_signed_zero_in_a_trajectory(self):
        traj = Trajectory(
            [0.0, 0.5, 1.0],
            [[math.nan, math.inf], [-math.inf, -0.0], [0.0, -1.5]],
            [[-0.0], [math.nan], [1e-300]],
            (2,),
            (1,),
        )
        text = trajectory_csv(traj, emit_output=True)
        assert text == "t,x_0,x_1,y_0\n0,nan,inf,-0\n0.5,-inf,-0,nan\n1,0,-1.5,1e-300\n"
        rows = np.hstack([traj.times[:, None], traj.state_matrix(), traj.output_matrix()])
        assert text == template_csv(["t,x_0,x_1,y_0"], rows.tolist())

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_non_finite_and_signed_zero_in_a_multirate_grid(self):
        values = np.array([[math.nan, -0.0, math.inf], [-math.inf, 0.0, -2.5e-7]])
        text = multirate_csv(values, global_clock((2, 3)))
        assert text == "# d=6 f=3,2\nt,x_1,x_2,x_3\n0,nan,-0,inf\n6,-inf,0,-2.4999999999999999e-07\n"


class TestOutputsThatAreTheStates:
    """A trajectory whose outputs are its state array writes each y cell as
    the bytes of its x cell, formatted once: the same text as the explicit
    table [t | x | x] cell by cell."""

    @staticmethod
    def shared(times, states):
        states = np.asarray(states, dtype=np.float64)
        traj = Trajectory(times, states, states, (states.shape[1],), (states.shape[1],))
        assert traj.output_matrix() is traj.state_matrix()
        return traj

    @staticmethod
    def assert_cells_written_again(traj):
        q = traj.state_matrix().shape[1]
        header = ",".join(["t", *(f"x_{i}" for i in range(q)), *(f"y_{i}" for i in range(q))])
        table = np.hstack([traj.times[:, None], traj.state_matrix(), traj.state_matrix()])
        text = trajectory_csv(traj, emit_output=True)
        assert text == _csv([header], table) == template_csv([header], table.tolist())

    def test_across_blocks(self):
        rng = np.random.default_rng(8)
        states = rng.standard_normal((3000, 5)) * 10.0 ** rng.integers(-30, 30, (3000, 5))
        assert 3000 * 6 > 2 * _BLOCK_CELLS
        self.assert_cells_written_again(self.shared(np.arange(3000.0), states))

    def test_one_state_value(self):
        self.assert_cells_written_again(self.shared([0.0, 0.5, 1.0], [[-0.0], [1.5], [1e-300]]))

    def test_signed_zeros_and_undecided_cells(self):
        """Ties past 17 digits and neighbours of powers of ten in the
        subnormal range go to the '%.17g' fallback, and are written again as
        they were written the first time; beside them the least subnormal."""
        cells = [5e-324, -0.0, 562949953421312.125, 1e-310, -1125899906842624.25, 1e-305, 0.0]
        assert not _decimal17(np.array(cells))[2][[2, 3, 4, 5]].any()
        states = np.array([cells, cells[::-1], cells[1:] + cells[:1]])
        self.assert_cells_written_again(self.shared([0.0, 1.0, 2.0], states))

    def test_simulated_run_without_c(self):
        system = build_system("discrete", (2, 2), CoefficientSet(A=make_tensor([2, 2, 2, 2], [0.5] * 16)))
        traj = simulate_discrete(system, make_tensor([2, 2], [1.0, -0.0, 3.0, 1e-310]), 4)
        assert traj.output_matrix() is traj.state_matrix()
        text = trajectory_csv(traj, emit_output=True)
        table = np.hstack([traj.times[:, None], traj.state_matrix(), traj.state_matrix()])
        assert text.split("\n", 1)[1] == template_csv([], table.tolist())

    def test_equal_but_other_zero_signs_are_formatted(self):
        """Outputs == the states but held apart, +0.0 against -0.0: each y
        cell is formatted from the outputs."""
        states = np.array([[0.0, 1.0], [-0.0, 0.0]])
        outputs = np.array([[-0.0, 1.0], [0.0, -0.0]])
        assert np.array_equal(states, outputs)
        traj = Trajectory([0.0, 1.0], states, outputs, (2,), (2,))
        assert trajectory_csv(traj, emit_output=True) == "t,x_0,x_1,y_0,y_1\n0,0,1,-0,1\n1,-0,0,0,-0\n"


# the sample commands: golden CSV files written by the row-template writer
GOLDEN = [
    (SAMPLES / "discrete_pair.json", ["simulate", "--steps", "20"], "discrete_pair_steps20.csv"),
    (SAMPLES / "discrete_pair.json", ["simulate", "--steps", "20", "--emit-output"],
     "discrete_pair_steps20_output.csv"),
    (SAMPLES / "matrix_state.json", ["simulate", "--steps", "20", "--emit-output"],
     "matrix_state_steps20_output.csv"),
    (SAMPLES / "continuous_decay.json", ["simulate", "--t-end", "1", "--h", "0.01", "--method", "rk4"],
     "continuous_decay_rk4.csv"),
    (SAMPLES / "continuous_decay.json", ["simulate", "--t-end", "1", "--h", "0.01", "--method", "exact"],
     "continuous_decay_exact.csv"),
    (SAMPLES / "continuous_decay.json",
     ["simulate", "--t-end", "1", "--h", "0.01", "--method", "exact", "--emit-output"],
     "continuous_decay_exact_output.csv"),
    # 3 segments, C on the middle one; input keys on grid points, 1 ulp above 7*0.1, and
    # 0.42 and 0.47 strictly inside (0.4, 0.5); a last step of 0.05
    (DATA / "continuous_cuts.json", ["simulate", "--t-end", "1.05", "--h", "0.1", "--method", "rk4"],
     "continuous_cuts_rk4.csv"),
    (DATA / "continuous_cuts.json",
     ["simulate", "--t-end", "1.05", "--h", "0.1", "--method", "exact", "--emit-output"],
     "continuous_cuts_exact_output.csv"),
    # x' = -100·x: an RK4 step of 0.02 multiplies it by R(-2) = 1/3, a step the refusal lets through
    (DATA / "stiff_decay.json", ["simulate", "--t-end", "1", "--h", "0.02", "--method", "rk4"],
     "stiff_decay_rk4.csv"),
    # x'' = -x: RK4 steps of 0.1 keep the marginal modes ±i, h·|λ| far below 2√2
    (DATA / "oscillator.json", ["simulate", "--t-end", "3", "--h", "0.1", "--method", "rk4"],
     "oscillator_rk4.csv"),
    # 6 segments with A, B and C each, and its twin with D in segments 1 and 4;
    # state (2, 3), input (2,), output (2,)
    (DATA / "discrete_schedule.json", ["simulate", "--steps", "40", "--emit-output"],
     "discrete_schedule_steps40_output.csv"),
    (DATA / "discrete_schedule_some_d.json", ["simulate", "--steps", "40", "--emit-output"],
     "discrete_schedule_some_d_steps40_output.csv"),
    (SAMPLES / "multirate_clocks.json", ["multirate", "--horizon", "6"], "multirate_clocks_horizon6.csv"),
    # clocks (2, 3, 5, 7) with B and input over 10 doubling blocks, 5 and 7 off the block starts;
    # boundary and input from index, constant and, for process 1, table specs
    (DATA / "multirate_four_clocks.json", ["multirate", "--horizon", "1000"],
     "multirate_four_clocks_horizon1000.csv"),
    (SAMPLES / "discrete_pair.json", ["analyze"], "discrete_pair_analyze.txt"),
]


@pytest.mark.parametrize("system, args, golden", GOLDEN, ids=[g for _, _, g in GOLDEN])
def test_sample_csv_matches_golden_bytes(tmp_path, capsys, system, args, golden):
    out = tmp_path / "out.csv"
    argv = [args[0], "--system", str(system), "--out", str(out), *args[1:]]
    assert main(argv) == 0
    assert out.read_bytes() == (DATA / golden).read_bytes()


def test_cut_golden_has_its_edges():
    """continuous_cuts.json reaches the sweep paths no sample file does: two
    input keys strictly inside the grid interval (0.4, 0.5), one 1 ulp above
    the grid point 7*0.1, and C on one of three segments."""
    bundle = parse_system_file(DATA / "continuous_cuts.json")
    keys = bundle.input_signal.keys
    assert [k for k in keys if 0.4 < k < 0.5] == [0.42, 0.47]
    assert math.nextafter(7 * 0.1, math.inf) in keys and 7 * 0.1 not in keys
    assert 2 * 0.1 in keys and 9 * 0.1 in keys  # on grid points
    assert [m.c is not None for m in bundle.system.unfolded] == [False, True, False]
    assert bundle.system.schedule.keys == (0.0, 0.5, 0.8)


def tensor_files():
    """Every tensor-system file under sample_systems/ and tests/data/."""
    paths = sorted(SAMPLES.glob("*.json")) + sorted(DATA.glob("*.json"))
    return [p for p in paths if "schedule" in json.loads(p.read_text(encoding="utf-8"))]


def test_tensor_files_read_as_the_document():
    """Every tensor file, discrete_schedule_some_d.json with D in two of six
    segments among them, reads as its document: the bits of each start,
    coefficient, x0 and table entry, each kind one read-only array."""
    paths = tensor_files()
    assert {DATA / "discrete_schedule.json", DATA / "discrete_schedule_some_d.json"} <= set(paths)
    for path in paths:
        doc = json.loads(path.read_text(encoding="utf-8"))
        bundle = parse_system_file(path)
        assert_reads_the_document(bundle.system, doc)
        assert bundle.x0.array.tobytes() == np.array(doc["x0"]["data"], dtype=float).tobytes()
        if doc.get("input", {}).get("kind") == "table":
            samples = doc["input"]["samples"]
            keys = np.array([when for when, _ in samples], dtype=float)
            values = np.array([value["data"] for _, value in samples], dtype=float)
            assert np.array(bundle.input_signal.keys).tobytes() == keys.tobytes()
            assert bundle.input_signal._rows.tobytes() == values.tobytes()
    twin = parse_system_file(DATA / "discrete_schedule_some_d.json").system
    assert [k for k, m in enumerate(twin.unfolded) if m.d is not None] == [1, 4]
    one, twin = (json.loads((DATA / name).read_text(encoding="utf-8"))
                 for name in ("discrete_schedule.json", "discrete_schedule_some_d.json"))
    for seg in twin["schedule"]:
        seg.pop("D", None)
    assert one == twin


def decoded_bits(parsed):
    """What a parsed file holds, numbers as their bits: each start,
    coefficient, x0 and input table entry of a tensor file; the matrices,
    clocks and specs of a multirate file (a float's repr is its bits)."""
    if isinstance(parsed, MultirateFile):
        system = parsed.system
        matrices = [None if m is None else (m.shape, m.tobytes()) for m in (system.A, system.B)]
        return [*matrices, system.clocks, repr(parsed.boundary_spec), repr(parsed.input_spec)]
    bits = [np.array(parsed.system.schedule.keys).tobytes(), parsed.x0.shape, parsed.x0.array.tobytes()]
    for coeffs in parsed.system.schedule.values:
        bits += [None if t is None else (t.shape, t.array.tobytes()) for t in (coeffs.A, coeffs.B, coeffs.C, coeffs.D)]
    signal = parsed.input_signal
    if signal is not None:
        bits += [signal.kind, np.array(signal.keys).tobytes(), None if signal._rows is None else signal._rows.tobytes()]
    return bits


def generated_cases(tmp_path):
    """The first generated case of each benchmark workload, seed 5."""
    spec = importlib.util.spec_from_file_location("perfbench_gen", SAMPLES.parent / "perfbench" / "gen.py")
    gen = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(gen)
    return [Path(gen.generate(workload, 5, tmp_path / workload)[0]["path"]) for workload in gen.WORKLOADS]


class TestDecoders:
    """orjson decodes a file of at most _ORJSON_BRACKETS brackets; json.loads
    decodes any other, and names every refusal. Both give the same bits."""

    def test_numbers_decode_as_json_does(self):
        """Wherever orjson decodes a number literal it gives json.loads'
        value bit for bit, but for an integer outside [-2^63, 2^64), which
        it gives as the double float() gives json's int. A literal orjson
        refuses goes to json.loads."""
        hypothesis = pytest.importorskip("hypothesis")
        st = hypothesis.strategies
        doubles = st.floats(allow_nan=False, allow_infinity=False)
        edges = ["0", "-0", "0.0", "-0.0", "5e-324", "-5e-324", "2.4703282292062327e-324",
                 "2.4703282292062328e-324", "2.2250738585072009e-308", "2.2250738585072014e-308",
                 "1e-400", "-1e-400", "1.7976931348623157e308", "1.7976931348623158e308",
                 "9007199254740993", "9007199254740993.0", "0." + "1" * 400, "1" * 300 + ".5",
                 str(2**64 - 1), str(2**64), str(-(2**63)), str(-(2**63) - 1),
                 str(2**1024 - 2**970 - 1), str(2**1024 - 2**970), str(2**1100)]
        literals = st.one_of(
            doubles.map(repr), doubles.map("%.17g".__mod__), doubles.map("%.20e".__mod__),
            st.sampled_from(edges),
            st.integers(0, 1100).flatmap(lambda bits: st.integers(-(2**bits), 2**bits)).map(str),
        )

        @hypothesis.settings(max_examples=3000, deadline=None, database=None, derandomize=True)
        @hypothesis.given(literals)
        def check(literal):
            try:
                fast = orjson.loads(literal)
            except orjson.JSONDecodeError:
                return
            slow = json.loads(literal)
            if isinstance(slow, int) and not -(2**63) <= slow < 2**64:
                slow = float(slow)
            assert type(fast) is type(slow)
            assert fast == slow
            if isinstance(slow, float):
                assert np.float64(fast).tobytes() == np.float64(slow).tobytes()

        check()

    def test_sample_and_data_files_decode_alike(self):
        """Every sample and test-data file, tensor or multirate, holds the
        same bits when parsed from orjson's value as from json.loads'."""
        paths = sorted(SAMPLES.glob("*.json")) + sorted(DATA.glob("*.json"))
        assert {SAMPLES / "multirate_clocks.json", DATA / "discrete_schedule_some_d.json"} <= set(paths)
        for path in paths:
            data = path.read_bytes()
            fast = fileio._parse_document(orjson.loads(data), str(path))
            slow = fileio._parse_document(fileio._decode_text(data, path), str(path))
            assert decoded_bits(fast) == decoded_bits(slow), path

    def test_accepted_files_never_reach_json(self, tmp_path, monkeypatch):
        """With json.loads raising, every sample and test-data file and the
        first generated case of each benchmark workload still parse."""
        paths = sorted(SAMPLES.glob("*.json")) + sorted(DATA.glob("*.json")) + generated_cases(tmp_path)
        expected = [decoded_bits(parse_system_file(path)) for path in paths]

        def refuse(*args, **kwargs):
            raise AssertionError("json.loads called")

        monkeypatch.setattr(json, "loads", refuse)
        assert [decoded_bits(parse_system_file(path)) for path in paths] == expected

    @pytest.mark.parametrize("text", [
        json.dumps(minimal_doc()).replace("[1, 2]", "[NaN, 2]"),
        json.dumps(minimal_doc()).replace('"discrete"', '"hybrid"'),
        json.dumps(minimal_doc()).replace('"state_shape": [2]', f'"state_shape": [{2**64}]'),
        "[1, 2]",
        "{",
    ], ids=["nan", "bad-field", "2p64-mode", "top-level-list", "truncated"])
    def test_a_refused_file_calls_json_once(self, tmp_path, monkeypatch, text):
        path = tmp_path / "s.json"
        path.write_text(text, encoding="utf-8")
        calls = []
        loads = json.loads
        monkeypatch.setattr(json, "loads", lambda *args, **kwargs: calls.append(1) or loads(*args, **kwargs))
        with pytest.raises(ParseError):
            parse_system_file(path)
        assert calls == [1]

    def test_an_integer_orjson_reads_as_a_double_is_read_again(self, tmp_path):
        """orjson reads a clock of 2^64 as a double, which the clock check
        refuses, so json.loads reads the file again and its int is taken."""
        doc = {"kind": "multirate", "A": [[0.5, 0], [0, 0.5]], "clocks": [2, 2**64], "boundary": {"kind": "index"}}
        path = write_doc(tmp_path / "s.json", doc)
        assert orjson.loads(path.read_bytes())["clocks"][1] == 2.0**64
        clocks = parse_system_file(path).system.clocks
        assert clocks == (2, 2**64) and type(clocks[1]) is int

    def test_a_file_past_the_bracket_bound_takes_json(self, tmp_path, monkeypatch):
        """A valid file of more than _ORJSON_BRACKETS opening brackets, here
        an input table of 1500 samples, is decoded by json.loads alone, and
        holds the bits orjson's value gives."""
        doc = minimal_doc()
        doc["input_shape"] = [2]
        doc["schedule"][0]["B"] = tensor_doc([2, 2], [1, 0, 0, 1])
        doc["input"] = {"kind": "table", "samples": [[k, tensor_doc([2], [k / 7, -k * 1e-300])] for k in range(1500)]}
        path = write_doc(tmp_path / "s.json", doc)
        data = path.read_bytes()
        assert data.count(b"[") + data.count(b"{") > fileio._ORJSON_BRACKETS
        expected = decoded_bits(fileio._parse_document(orjson.loads(data), str(path)))
        calls = []
        loads = json.loads
        monkeypatch.setattr(json, "loads", lambda *args, **kwargs: calls.append(1) or loads(*args, **kwargs))
        monkeypatch.setattr(orjson, "loads", None)
        assert decoded_bits(parse_system_file(path)) == expected
        assert calls == [1]


def scipy_zoh_states(doc, times):
    """States of the continuous system file `doc` at `times` by an
    independent zero-order hold: scipy's expm of [[A, B·u], [0, 0]]·dt on
    each grid interval split at every schedule start and input key strictly
    inside it, the segment and the input read at each piece's start."""
    linalg = pytest.importorskip("scipy.linalg")
    q = math.prod(doc["state_shape"])
    segments = [(s["start"], np.reshape(s["A"]["data"], (q, q)),
                 np.reshape(s["B"]["data"], (q, -1)) if "B" in s else None) for s in doc["schedule"]]
    table = [(when, np.array(value["data"], dtype=float)) for when, value in doc["input"]["samples"]] \
        if "input" in doc else []
    keys = sorted({start for start, _, _ in segments} | {when for when, _ in table})
    x = np.array(doc["x0"]["data"], dtype=float)
    states = [x]
    for a, b in zip(times, times[1:]):
        cuts = [a, *(k for k in keys if a < k < b), b]
        for p, r in zip(cuts, cuts[1:]):
            _, m_a, m_b = [s for s in segments if s[0] <= p][-1]
            aug = np.zeros((q + 1, q + 1))
            aug[:q, :q] = m_a
            if m_b is not None:
                aug[:q, q] = m_b @ [u for when, u in table if when <= p][-1]
            big = linalg.expm(aug * (r - p))
            x = big[:q, :q] @ x + big[:q, q]
        states.append(x)
    return np.array(states)


@pytest.mark.parametrize("system, args, golden", [g for g in GOLDEN if "exact" in g[1]],
                         ids=[g for _, args, g in GOLDEN if "exact" in args])
def test_exact_golden_matches_a_scipy_zoh_loop(system, args, golden):
    """Each exact golden's states agree with scipy_zoh_states at its own t
    column, to 1e-12 relative and 1e-14 absolute."""
    rows = np.loadtxt(DATA / golden, delimiter=",", skiprows=1, ndmin=2)
    doc = json.loads(system.read_text(encoding="utf-8"))
    expected = scipy_zoh_states(doc, rows[:, 0])
    np.testing.assert_allclose(rows[:, 1:1 + expected.shape[1]], expected, rtol=1e-12, atol=1e-14)


class TestRenderReport:
    def test_discrete_full(self):
        coeffs = CoefficientSet(
            A=Tensor.from_array(0.5 * np.eye(2)),
            B=Tensor.from_array(np.eye(2)),
            C=Tensor.from_array(np.eye(2)),
        )
        system = build_system(
            "discrete", (2,), coeffs, input_shape=(2,), output_shape=(2,)
        )
        assert render_report(analyze(system)) == (
            "state_dim=2\n"
            "spectral_radius=0.5\n"
            "stability=stable\n"
            "controllability_rank=2\n"
            "observability_rank=2\n"
        )

    def test_continuous_minimal(self):
        system = build_system(
            "continuous", (2,), CoefficientSet(A=Tensor.from_array(-2.0 * np.eye(2)))
        )
        assert render_report(analyze(system)) == (
            "state_dim=2\n"
            "spectral_radius=2\n"
            "max_real_part=-2\n"
            "stability=stable\n"
        )
