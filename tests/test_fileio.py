import json
import math
from pathlib import Path

import numpy as np
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
from tensorstate.cli import main
from tensorstate.fileio import _BLOCK_CELLS, _csv, _decimal17, _number, _pairs, _parse_tensor
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
        assert bundle.input_signal.breakpoints == (0.0, 2.0)

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


def per_sample_table(samples, input_shape, where):
    """The (when, tensor) pairs the per-sample path reads from `samples`."""
    return [
        (_number(when, at), _parse_tensor(value, at, input_shape, "input_shape"))
        for at, when, value in _pairs(samples, f"{where}.samples", "a [when, tensor] pair")
    ]


def table_doc(samples, input_shape):
    doc = minimal_doc()
    doc["input_shape"] = list(input_shape)
    doc["schedule"][0]["B"] = tensor_doc([2, *input_shape], [1] * (2 * math.prod(input_shape)))
    doc["input"] = {"kind": "table", "samples": samples}
    return doc


class TestTableInput:
    """A table's samples are read in one pass; a table that fails any check
    is read sample by sample, which names the first bad field."""

    def assert_matches_per_sample(self, path):
        doc = json.loads(path.read_text(encoding="utf-8"))
        signal = parse_system_file(path).input_signal
        expected = per_sample_table(
            doc["input"]["samples"], tuple(doc["input_shape"]), f"{path}.input"
        )
        assert signal.keys == tuple(when for when, _ in expected)
        for value, (_, reference) in zip(signal.values, expected):
            assert value.shape == reference.shape
            assert value.array.tobytes() == reference.array.tobytes()
            assert not value.array.flags.writeable
            with pytest.raises(ValueError):
                value.array[...] = 0.0
        # every value is a row of one block: the one-pass path was taken
        block = signal.values[0].array.base
        assert block is not None and all(value.array.base is block for value in signal.values)
        return signal

    def test_sample_system(self):
        self.assert_matches_per_sample(SAMPLES / "discrete_pair.json")

    def test_zoh_case_table(self, tmp_path):
        system, x0, signal, (_, _, _, breaks, inputs) = zoh_case("table")
        path = tmp_path / "s.json"
        write_system_file(SystemFile(system, Tensor.from_array(x0), signal), path)
        parsed = self.assert_matches_per_sample(path)
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
        self.assert_matches_per_sample(path)

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
             ".shape: mode sizes must be integers >= 1, got True"),
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
        with pytest.raises(ValueError, match="larger than one"):
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
            ("clocks", [2, 1], "larger than one"),
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
        assert str(err.value).startswith(f"{path}: ")

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

    def test_multirate_ticks_not_rounded_twice(self):
        clock = global_clock((2**27 - 1, 2**28 + 3))
        twice = ["%.17g" % t for t in np.arange(5) * float(clock.d)]
        lines = multirate_csv(np.zeros((5, 2)), clock).splitlines()[2:]
        assert [line.split(",")[0] for line in lines] != twice


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


# the sample commands: golden CSV files written by the row-template writer
GOLDEN = [
    ("discrete_pair.json", ["simulate", "--steps", "20"], "discrete_pair_steps20.csv"),
    ("discrete_pair.json", ["simulate", "--steps", "20", "--emit-output"],
     "discrete_pair_steps20_output.csv"),
    ("matrix_state.json", ["simulate", "--steps", "20", "--emit-output"],
     "matrix_state_steps20_output.csv"),
    ("continuous_decay.json", ["simulate", "--t-end", "1", "--h", "0.01", "--method", "rk4"],
     "continuous_decay_rk4.csv"),
    ("continuous_decay.json", ["simulate", "--t-end", "1", "--h", "0.01", "--method", "exact"],
     "continuous_decay_exact.csv"),
    ("multirate_clocks.json", ["multirate", "--horizon", "6"], "multirate_clocks_horizon6.csv"),
]


@pytest.mark.parametrize("sample, args, golden", GOLDEN, ids=[g for _, _, g in GOLDEN])
def test_sample_csv_matches_golden_bytes(tmp_path, capsys, sample, args, golden):
    out = tmp_path / "out.csv"
    argv = [args[0], "--system", str(SAMPLES / sample), "--out", str(out), *args[1:]]
    assert main(argv) == 0
    assert out.read_bytes() == (DATA / golden).read_bytes()


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
