"""Property tests over the sample files and the multirate lookups, driven
by hypothesis."""

import contextlib
import copy
import io
import json
import math
import tempfile
import warnings
from pathlib import Path

import numpy as np
import pytest

from tensorstate import (
    BoundaryDataError,
    MultirateSystem,
    constant_function,
    eval_state,
    global_clock,
    index_function,
    parse_system_file,
    table_function,
    trajectory_on_grid,
)
from tensorstate.cli import main
from tensorstate.fileio import _csv
from test_fileio import edge_cells, template_csv

hypothesis = pytest.importorskip("hypothesis")
st = hypothesis.strategies

SAMPLES = Path(__file__).resolve().parent.parent / "sample_systems"

# each sample file with a command that reads all of it
COMMANDS = {
    "discrete_pair.json": ["simulate", "--steps", "20", "--emit-output"],
    "continuous_decay.json": ["simulate", "--t-end", "1", "--h", "0.25", "--method", "exact"],
    "matrix_state.json": ["analyze"],
    "multirate_clocks.json": ["multirate", "--horizon", "6"],
}

WRONG_VALUES = [None, True, False, "x", [], {}, 1e300, -1e300, 2**70, [[1, [2]]]]


def _fields(node, at=()):
    """Key paths of every value below the root of a JSON document."""
    items = node.items() if isinstance(node, dict) else enumerate(node)
    for key, child in items:
        yield at + (key,)
        if isinstance(child, (dict, list)):
            yield from _fields(child, at + (key,))


DOCS = {name: json.loads((SAMPLES / name).read_text(encoding="utf-8")) for name in COMMANDS}
FIELDS = [(name, field) for name, doc in DOCS.items() for field in _fields(doc)]


# 2000 is past the 189 fields x 10 values, so hypothesis tries every pair and stops
@hypothesis.settings(max_examples=2000, deadline=None, database=None, derandomize=True)
@hypothesis.given(st.sampled_from(FIELDS), st.sampled_from(WRONG_VALUES))
def test_mutated_file_fails_cleanly(field, value):
    """A sample file with one field replaced by a wrong-typed value never
    raises, warns or tracebacks: the run exits 0, 1 or 2, and on 1 or 2 it
    prints exactly one `error: ` line and writes no output file."""
    name, keys = field
    doc = copy.deepcopy(DOCS[name])
    parent = doc
    for key in keys[:-1]:
        parent = parent[key]
    parent[keys[-1]] = value
    with tempfile.TemporaryDirectory() as tmp:
        system = Path(tmp) / name
        system.write_text(json.dumps(doc), encoding="utf-8")
        out = Path(tmp) / "out.txt"
        command, *flags = COMMANDS[name]
        stdout, stderr = io.StringIO(), io.StringIO()
        with (warnings.catch_warnings(), contextlib.redirect_stdout(stdout),
              contextlib.redirect_stderr(stderr)):
            warnings.simplefilter("error")
            code = main([command, "--system", str(system), "--out", str(out), *flags])
        assert code in (0, 1, 2)
        if code:
            assert not out.exists()
            lines = stderr.getvalue().splitlines()
            assert len(lines) == 1 and lines[0].startswith("error: "), lines


def _per_value(system):
    """The same system with each callable behind a plain lambda: no many(),
    so trajectory_on_grid looks every value up on its own."""
    def wrap(func):
        return None if func is None else (lambda i, n: func(i, n))

    return MultirateSystem(system.A, system.clocks, wrap(system.boundary),
                           B=system.B, input=wrap(system.input))


def _outcome(rows):
    """rows() or, when it raises BoundaryDataError, (process, index, message)."""
    try:
        return rows()
    except BoundaryDataError as exc:
        return exc.process, exc.index, str(exc)


def _recursion(system, horizon):
    """The grid by eval_state with one shared cache, in tick then process order."""
    cache = {}
    m, d = system.process_count, system.clock.d
    return np.array([[eval_state(system, i, k * d, cache) for i in range(1, m + 1)]
                     for k in range(horizon + 1)])


def _assert_columns_match_values(system, horizon):
    """The column lookups, the per-value lookups and the recursion give the
    same rows bit for bit, or the same first missing value."""
    assert hasattr(system.boundary, "many")
    expected = _outcome(lambda: _recursion(system, horizon))
    for swept in (system, _per_value(system)):
        got = _outcome(lambda: trajectory_on_grid(swept, horizon))
        if isinstance(expected, tuple):
            assert got == expected
        else:
            assert isinstance(got, np.ndarray) and np.array_equal(got, expected)


@st.composite
def _multirate_case(draw):
    """(clocks, horizon, rng): 1-4 clocks 2..9, a horizon, a seeded rng."""
    clocks = tuple(draw(st.lists(st.integers(2, 9), min_size=1, max_size=4)))
    horizon = draw(st.integers(0, 40))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    return clocks, horizon, rng


def _pick(data, rng, indices):
    """Draw the kind of one spec, constant, index or table, and for a table
    its values at `indices`, sometimes with one of them missing."""
    kind = data.draw(st.sampled_from(["constant", "index", "table"]))
    if kind != "table":
        return kind, None
    table = {n: float(rng.uniform(-1.0, 1.0)) for n in indices}
    gap = data.draw(st.none() | st.sampled_from(sorted(table)))
    if gap is not None and len(table) > 1:  # a file's table holds at least one entry
        del table[gap]
    return kind, table


def _indices(clocks, horizon):
    """Per process j, the indices k*f_j, k = 0..horizon, the sweep reads."""
    return [[k * f for k in range(horizon + 1)] for f in global_clock(clocks).factors]


@hypothesis.settings(max_examples=200, deadline=None, database=None, derandomize=True)
@hypothesis.given(_multirate_case(), st.booleans(), st.booleans(), st.booleans(), st.data())
def test_file_specs_columns_match_values(case, with_input, boundary_list, input_list, data):
    """Boundary and input specs read from a file, single or per process, of
    every kind, tables sometimes with a gap."""
    clocks, horizon, rng = case
    m = len(clocks)
    indices = _indices(clocks, horizon)

    def spec(per_process):
        def one(wanted):
            kind, table = _pick(data, rng, wanted)
            if kind == "constant":
                return {"kind": kind, "value": float(rng.uniform(-1.0, 1.0))}
            if kind == "index":
                return {"kind": kind}
            return {"kind": kind, "values": [[n, v] for n, v in table.items()]}

        if per_process:
            return [one(wanted) for wanted in indices]
        return one(sorted({n for wanted in indices for n in wanted}))

    doc = {"kind": "multirate", "A": (rng.uniform(-0.5, 0.5, (m, m)) / m).tolist(),
           "clocks": list(clocks), "boundary": spec(boundary_list)}
    if with_input:
        doc["B"] = (rng.uniform(-0.5, 0.5, (m, m)) / m).tolist()
        doc["input"] = spec(input_list)
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "multirate.json"
        path.write_text(json.dumps(doc), encoding="utf-8")
        system = parse_system_file(path).system
    _assert_columns_match_values(system, horizon)


@hypothesis.settings(max_examples=200, deadline=None, database=None, derandomize=True)
@hypothesis.given(_multirate_case(), st.booleans(), st.data())
def test_helper_specs_columns_match_values(case, with_input, data):
    """The same for the helpers, table_function keyed by (process, index)."""
    clocks, horizon, rng = case
    m = len(clocks)
    pairs = [(j, n) for j, wanted in enumerate(_indices(clocks, horizon), 1) for n in wanted]

    def spec():
        kind, table = _pick(data, rng, pairs)
        if kind == "constant":
            return constant_function(rng.uniform(-1.0, 1.0, m))
        if kind == "index":
            return index_function()
        return table_function(table)

    extra = {}
    if with_input:
        extra = {"B": rng.uniform(-0.5, 0.5, (m, m)) / m, "input": spec()}
    system = MultirateSystem(rng.uniform(-0.5, 0.5, (m, m)) / m, clocks, spec(), **extra)
    _assert_columns_match_values(system, horizon)


@pytest.mark.parametrize(
    "clocks", [(2, 2**70), (10**20, 3), (3, 7), (2, 2**55 + 2**30 + 1)], ids=str)
@pytest.mark.parametrize("horizon", [0, 2, 9])
def test_huge_clocks_columns_match_values(clocks, horizon):
    """Indices past int64 are read as Python ints in an object array; indices
    past 2^53 (the last clocks) round to the same doubles in a column."""
    system = MultirateSystem(A=[[0.5, 0.25], [0.1, 0.3]], B=np.eye(2), clocks=clocks,
                             boundary=index_function(), input=constant_function(0.5))
    _assert_columns_match_values(system, horizon)


# any finite double: hypothesis' own floats (subnormals included) and raw bit patterns
_FINITE = st.one_of(
    st.floats(allow_nan=False, allow_infinity=False),
    st.integers(0, 2**64 - 1)
    .map(lambda bits: float(np.array(bits, dtype=np.uint64).view(np.float64)))
    .filter(math.isfinite),
    st.sampled_from(edge_cells()),
)


@hypothesis.settings(max_examples=500, deadline=None, database=None, derandomize=True)
@hypothesis.given(st.integers(1, 6), st.lists(_FINITE, min_size=1, max_size=60))
def test_csv_numbers_match_the_row_template(width, cells):
    """The block formatter writes every finite double as the per-row '%.17g'
    template does."""
    rows = [cells[k : k + width] for k in range(0, len(cells) - width + 1, width)] or [cells]
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        assert _csv(["t"], np.array(rows, dtype=np.float64)) == template_csv(["t"], rows)
