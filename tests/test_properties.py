"""Property tests over the sample files and the multirate lookups, driven
by hypothesis."""

import bisect
import contextlib
import copy
import io
import json
import math
import operator
import tempfile
import warnings
from pathlib import Path

import numpy as np
import pytest

from tensorstate import (
    BoundaryDataError,
    CoefficientSchedule,
    CoefficientSet,
    InputSignal,
    MultirateSystem,
    Tensor,
    build_system,
    constant_function,
    eval_state,
    global_clock,
    index_function,
    parse_system_file,
    simulate_continuous,
    simulate_discrete,
    table_function,
    trajectory_on_grid,
)
from tensorstate.cli import main
from tensorstate.fileio import _csv, _decimal17
from tensorstate.simulate import _grid_size, _output, _rk4_map, _timeline
from tensorstate.systems import UnfoldedSystem
from test_fileio import edge_cells, table_doc, template_csv, tensor_doc
from test_simulate import landed_keys, layout_system, r1_system, same_bits, step_by_step

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


@hypothesis.settings(max_examples=200, deadline=None, database=None, derandomize=True)
@hypothesis.given(st.lists(st.integers(2, 12), min_size=1, max_size=5), st.integers(0, 7),
                  st.sampled_from([-1, 0, 1]), st.booleans(), st.integers(0, 2**32 - 1))
def test_sweep_matches_eval_state(clocks, power, offset, with_input, seed):
    """The sweep's grid reads, planned once per call, give eval_state's bits:
    1-5 processes on clocks 2..12, some past the horizon, at horizons 0, 1,
    2^k - 1, 2^k and 2^k + 1 around the edges of the doubling blocks, with
    and without B and input."""
    horizon = (1 << power) + offset
    rng = np.random.default_rng(seed)
    m = len(clocks)

    def table():
        return table_function({(j, n): float(rng.normal()) for j, wanted
                               in enumerate(_indices(clocks, horizon), 1) for n in wanted})

    extra = {"B": rng.normal(size=(m, m)) / m, "input": table()} if with_input else {}
    system = MultirateSystem(rng.normal(size=(m, m)) / m, clocks, table(), **extra)
    assert same_bits(trajectory_on_grid(system, horizon), _recursion(system, horizon))


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


def _either_sign(magnitudes):
    return st.one_of(magnitudes, magnitudes.map(operator.neg))


# cells '%.17g' writes in fixed point, 0.0001 <= |x| < 10^17, and zeros
_FIXED = st.one_of(
    _either_sign(st.floats(min_value=1e-4, max_value=1e17, exclude_max=True)),
    st.sampled_from([0.0, -0.0, *(v for v in edge_cells() if 1e-4 <= abs(v) < 1e17)]),
)
# the same with neither a sign nor a "0." prefix: the narrowest layout
_PLAIN = st.one_of(st.floats(min_value=1.0, max_value=1e17, exclude_max=True), st.just(0.0))
# edge cells that _decimal17 leaves undecided and '%.17g' writes in e-notation
_UNDECIDED_E = [
    v for v, decided in zip(edge_cells(), _decimal17(np.array(edge_cells()))[2])
    if not decided and "e" in "%.17g" % v
]


@st.composite
def _trimmed_block(draw):
    """(width, rows) of one _csv_rows block lacking one optional slot
    group: all cells non-negative; none in [0.0001, 1); a smallest
    fixed-point exponent of -1 to -4; no e-notation cell; or, as its only
    e-notation cell, an undecided edge cell of either sign, whose '%.17g'
    text (up to 24 bytes) is wider than the rest of the block needs."""
    width, count = draw(st.integers(1, 6)), draw(st.integers(1, 10))
    lacks = draw(st.sampled_from(["sign", "prefix", -1, -2, -3, -4, "exponent", "undecided"]))
    special = []
    if lacks == "sign":
        cells = _FINITE.map(abs)
    elif lacks == "prefix":
        cells = _FINITE.filter(lambda v: not 1e-4 <= abs(v) < 1)
    elif lacks == "exponent":
        cells = _FIXED
    elif lacks == "undecided":
        cells = draw(st.sampled_from([_FIXED, _PLAIN]))
        special = [draw(_either_sign(st.sampled_from(_UNDECIDED_E)))]
    else:
        smallest = 10.0**lacks
        cells = _FINITE.filter(lambda v: not 1e-4 <= abs(v) < smallest)
        special = [draw(_either_sign(st.floats(min_value=smallest, max_value=9.5 * smallest)))]
    size = width * count - len(special)
    flat = draw(st.lists(cells, min_size=size, max_size=size))
    at = draw(st.integers(0, size))
    flat[at:at] = special
    return width, [flat[k : k + width] for k in range(0, len(flat), width)]


@hypothesis.settings(max_examples=500, deadline=None, database=None, derandomize=True)
@hypothesis.given(_trimmed_block(), st.data())
def test_csv_numbers_of_trimmed_blocks_match_the_row_template(block, data):
    """A block that leaves out a slot group writes the template's bytes,
    and so does each line with its last cells written again."""
    width, rows = block
    again = data.draw(st.integers(1, width))
    table = np.array(rows, dtype=np.float64)
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        assert _csv(["t"], table) == template_csv(["t"], rows)
        assert _csv(["t"], table, again) == template_csv(["t"], [row + row[-again:] for row in rows])


@st.composite
def _discrete_run(draw):
    """Schedule starts on whole steps and input keys on quarter steps, up to
    past the last step, so pieces may hold one sample or none; C and D in
    any segments; a table, zero or no input."""
    steps = draw(st.integers(0, 25))
    ends = range(1, steps + 5)
    starts = sorted({0, *draw(st.lists(st.sampled_from(ends), max_size=6))})
    keys = sorted({0.0, *draw(st.lists(st.sampled_from([k / 4 for k in range(1, 4 * len(ends))]), max_size=10))})
    parts = draw(st.lists(st.sampled_from(["", "C", "D", "CD"]), min_size=len(starts), max_size=len(starts)))
    return starts, parts, keys, steps, draw(st.sampled_from(["table", "zero", "no input"])), draw(st.integers(0, 2**16))


@hypothesis.settings(max_examples=200, deadline=None, database=None, derandomize=True)
@hypothesis.given(_discrete_run())
def test_discrete_run_matches_step_by_step(run):
    """simulate_discrete gives the bits of one step_discrete call per step."""
    starts, parts, keys, steps, kind, seed = run
    rng = np.random.default_rng(seed)
    system = layout_system(rng, starts, parts, None if kind == "no input" else (2,))
    signal = {
        "table": InputSignal.table([(key, rng.uniform(-1.0, 1.0, 2)) for key in keys]),
        "zero": InputSignal.zero(),
        "no input": None,
    }[kind]
    x0 = Tensor.from_array(rng.normal(size=(2, 2)))
    traj = simulate_discrete(system, x0, steps, u=signal)
    states, outputs = step_by_step(system, x0, steps, signal)
    assert same_bits(traj.state_matrix(), states)
    assert same_bits(traj.output_matrix(), outputs)


# values beside the normal ones: signed zeros, subnormals and products past the double range
_SPECIAL = np.array([0.0, -0.0, 5e-324, -5e-324, 2.2e-310, -1.5e-315, 1e300, -1e300])


@st.composite
def _output_case(draw):
    """(C, rows): C of s x q, C-ordered, F-ordered or a strided view, and
    1-12 rows of q, s and q from 1..9 or 27 and 256, with every entry
    sometimes one of _SPECIAL."""
    dims = st.integers(1, 9) | st.sampled_from([27, 256])
    s, q = draw(dims), draw(dims)
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    share = draw(st.sampled_from([0.0, 0.1, 0.5]))

    def values(shape):
        a = rng.normal(size=shape) * np.exp(rng.uniform(-20.0, 20.0, shape))
        pick = rng.random(shape) < share
        a[pick] = rng.choice(_SPECIAL, np.count_nonzero(pick))
        return a

    layout = draw(st.sampled_from(["C", "F", "strided"]))
    if layout == "strided":
        c = values((2 * s, 3 * q))[::2, 1::3]
    else:
        c = np.asarray(values((s, q)), order=layout)
    return c, values((draw(st.integers(1, 12)), q))


@hypothesis.settings(max_examples=300, deadline=None, database=None, derandomize=True)
@hypothesis.given(_output_case())
def test_stacked_output_matches_per_row_matmul(case):
    """_output's one stacked C·x product writes, bit for bit and signs of
    zero included, what one np.matmul(C, x) per row writes."""
    c, rows = case
    expected = np.empty((len(rows), c.shape[0]))
    got = np.empty_like(expected)
    with np.errstate(over="ignore", invalid="ignore"):
        for x, y in zip(rows, expected):
            np.matmul(c, x, out=y)
        _output(UnfoldedSystem(None, None, c, None), rows, got, ())
    assert np.array_equal(got.view(np.uint64), expected.view(np.uint64))


@hypothesis.settings(max_examples=500, deadline=None, database=None, derandomize=True)
@hypothesis.given(
    st.floats(1.0, 2.0, exclude_max=True),
    st.integers(-1074, 996),
    st.integers(1, 40),
    st.floats(0.0, 1.0),
)
def test_grid_intervals_but_the_last_are_h(mantissa, exponent, steps, fraction):
    """Every interval of a continuous grid but the last, up to t_end, is
    within 4 ulps (of its end) of h, for h from subnormal to 1e300: the
    sweep steps only the last one with its own length."""
    h = math.ldexp(mantissa, exponent)
    system = r1_system([[0.0]], time_kind="continuous")  # the state stays x0, so nothing overflows
    times = simulate_continuous(system, Tensor.zeros([1]), h * (steps + fraction), h=h).times.tolist()
    for a, b in zip(times[:-2], times[1:-1]):
        assert abs(b - a - h) <= 4 * math.ulp(b)


def _nudged(x, ulps):
    for _ in range(abs(ulps)):
        x = math.nextafter(x, math.copysign(math.inf, ulps))
    return x


@st.composite
def _landing_case(draw):
    """(schedule starts, input kind, table keys, grid) for _timeline. The grid
    is k*h then t_end, as simulate_continuous builds it; or times with
    neighbours 1 to 8 ulps apart, so a key can lie within 4 ulps of two; or
    None, with integer keys, as for a discrete run. Continuous keys lie on
    grid times or 1 to 8 ulps off them either way, anywhere, or past the
    grid's end."""
    shape = draw(st.sampled_from(["uniform", "clustered", "discrete"]))
    if shape == "discrete":
        grid, keys = None, st.integers(1, 40).map(float)
    else:
        if shape == "uniform":
            h = draw(st.sampled_from([0.1, 0.01, 1 / 3, 0.07, 2.5, 1e-3]))
            t_end = h * draw(st.floats(0.5, 40.0))
            grid = np.append(np.arange(_grid_size(t_end, h) - 1) * h, t_end)
        else:
            bases = draw(st.lists(st.floats(1e-3, 10.0), min_size=1, max_size=4))
            gaps = st.lists(st.integers(1, 8), max_size=3)
            times = {0.0}
            for base in bases:
                for gap in [0, *draw(gaps)]:
                    times.add(_nudged(base, gap))
            grid = np.array(sorted(times))
        near = st.tuples(st.sampled_from(grid.tolist()), st.integers(-8, 8)).map(lambda p: _nudged(*p))
        keys = (near | st.floats(0.0, 1.5 * grid[-1])).filter(lambda k: k > 0)
    starts = sorted({0.0, *draw(st.lists(keys, max_size=6))})
    kind = draw(st.sampled_from(["none", "constant", "table"]))
    return starts, kind, sorted({0.0, *draw(st.lists(keys, max_size=12))}), grid


@hypothesis.settings(max_examples=400, deadline=None, database=None, derandomize=True)
@hypothesis.given(_landing_case())
def test_timeline_lands_keys_by_the_per_key_rule(case):
    """_timeline's landing times, and the segment and input that hold at
    each, are those of the per-key rule (landed_keys): a bisect per key, its
    two grid neighbours within 4 ulps, the last key landing on a time holding."""
    starts, kind, table_keys, grid = case
    system = build_system(
        "discrete" if grid is None else "continuous", (1,),
        [(start, CoefficientSet(A=Tensor.from_array([[float(s)]]), B=Tensor.from_array([[1.0]])))
         for s, start in enumerate(starts)],
        input_shape=(1,),
    )
    signal = {
        "none": None,
        "constant": InputSignal.constant([1.0]),
        "table": InputSignal.table([(key, [float(k)]) for k, key in enumerate(table_keys)]),
    }[kind]
    at, seg, inp = _timeline(system, signal, grid)
    landed = landed_keys(system, signal, () if grid is None else grid.tolist())
    assert at.tolist() == [time for time, _ in landed]
    assert seg.tolist() == [system.schedule.index(key) for _, key in landed]
    assert (inp is None) == (signal is None)
    if signal is not None:
        assert inp.tolist() == [signal.index(key) for _, key in landed]


@st.composite
def _lookup_case(draw):
    """A schedule or an input table with keys strictly increasing from 0,
    the name its errors give it, and a list of queries mixing its keys,
    their midpoints, 0 and times past the last key."""
    keys = sorted({0.0, *draw(st.lists(st.floats(1e-300, 1e300), max_size=12))})
    coeffs = CoefficientSet(A=Tensor.identity([1]))
    step, name = draw(st.sampled_from([
        (CoefficientSchedule([(key, coeffs) for key in keys]), "schedule"),
        (InputSignal.table([(key, [float(k)]) for k, key in enumerate(keys)]), "input table"),
    ]))
    mids = [a + (b - a) / 2 for a, b in zip(keys, keys[1:])]
    past = [keys[-1] * 2 + 1, math.nextafter(keys[-1], math.inf), 1e308, math.inf]
    return step, name, draw(st.lists(st.sampled_from([*keys, *mids, 0.0, *past]), max_size=20))


@hypothesis.settings(max_examples=400, deadline=None, database=None, derandomize=True)
@hypothesis.given(_lookup_case(), st.data())
def test_one_lookup_for_times_and_time_arrays(case, data):
    """Piecewise.index of an array of times is the scalar lookup of each,
    and the last key <= t by bisect; an array holding a negative or NaN
    time is refused with the scalar lookup's text for the first of them."""
    step, name, queries = case
    found = step.index(np.array(queries))
    assert found.tolist() == [step.index(t) for t in queries]
    assert found.tolist() == [bisect.bisect_right(step.keys, t) - 1 for t in queries]
    bad = data.draw(st.lists(st.floats(max_value=-5e-324) | st.just(math.nan), min_size=1, max_size=3))
    mixed = list(queries)
    for when in bad:
        mixed.insert(data.draw(st.integers(0, len(mixed))), when)
    first = next(t for t in mixed if not t >= 0)
    with pytest.raises(ValueError) as scalar:
        step.index(first)
    with pytest.raises(ValueError) as array:
        step.index(np.array(mixed))
    assert str(array.value) == str(scalar.value) == f"{name} lookup requires when >= 0, got {first}"


@st.composite
def _table(draw):
    """An input shape of 1-3 modes and a table of 1-200 keys, strictly
    increasing from 0 as ints or floats, from subnormal to 1e293, whose
    values hold ints, floats, -0.0, subnormals and ±1e308: a pool of cells
    drawn by hypothesis, laid out by a seeded generator."""
    shape = tuple(draw(st.lists(st.integers(1, 3), min_size=1, max_size=3)))
    count = draw(st.integers(1, 200))
    scale = draw(st.sampled_from([5e-324, 1e-6, 1.0, 1e6, 1e290]))
    pool = draw(st.lists(st.one_of(
        st.integers(-(10**20), 10**20), st.floats(allow_nan=False, allow_infinity=False),
        st.sampled_from([-0.0, 5e-324, -5e-324, 1e-310, 1e308, -1e308])), min_size=1, max_size=20))
    rng = np.random.default_rng(draw(st.integers(0, 2**32)))
    later = np.cumsum(rng.integers(1, 1000, count - 1) * scale).tolist()
    keys = [0, *(int(k) if k.is_integer() and rng.random() < 0.5 else k for k in later)]
    size = math.prod(shape)
    values = [[pool[i] for i in rng.integers(len(pool), size=size)] for _ in keys]
    return shape, keys, values


def _same_tensor(a, b):
    return (a is None) == (b is None) and (a is None or a.shape == b.shape and a.array.tobytes() == b.array.tobytes())


@hypothesis.settings(max_examples=200, deadline=None, database=None, derandomize=True)
@hypothesis.given(_table())
def test_table_read_from_a_file_is_the_table_of_its_pairs(case):
    """A table parsed from a file, one block from the numpy reader, equals
    InputSignal.table of its (key, Tensor) pairs in keys, values, lookups
    and the bytes of the rows the runs read."""
    shape, keys, values = case
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "s.json"
        samples = [[key, tensor_doc(shape, data)] for key, data in zip(keys, values)]
        path.write_text(json.dumps(table_doc(samples, shape)), encoding="utf-8")
        parsed = parse_system_file(path).input_signal
    built = InputSignal.table([(key, Tensor(shape, data)) for key, data in zip(keys, values)])
    assert parsed.keys == built.keys == tuple(map(float, keys))
    assert parsed._rows.shape == built._rows.shape and parsed._rows.tobytes() == built._rows.tobytes()
    assert [k for k, _ in parsed] == [k for k, _ in built]
    assert all(_same_tensor(a, b) for (_, a), (_, b) in zip(parsed, built))
    ends = [*parsed.keys[1:], 2 * parsed.keys[-1] + 1]
    for when in [*parsed.keys, *(a + (b - a) / 2 for a, b in zip(parsed.keys, ends))]:
        assert _same_tensor(parsed.at(when), built.at(when))
        assert _same_tensor(parsed.sample(when, shape), built.sample(when, shape))


def _rk4_r(z):
    """RK4's stability function R(z) = 1 + z + z²/2 + z³/6 + z⁴/24."""
    return 1 + z + z**2 / 2 + z**3 / 6 + z**4 / 24


@st.composite
def _diagonalizable_case(draw):
    """(A, λ, h): A = V·blockdiag(λ)·V⁻¹ of order 1-6 from real modes and
    [[a, b], [-b, a]] blocks for a ± ib, |Re λ| and |Im λ| log-uniform in
    [0.05, 100], V an orthogonal matrix times a diagonal in [0.5, 2]
    (condition number at most 4), and h log-uniform in [3e-3, 0.3]: |hλ|
    reaches 42, on both sides of RK4's stability boundary."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    blocks, lam = [], []
    for pair in draw(st.lists(st.booleans(), min_size=1, max_size=3)):
        a = rng.choice([-1.0, 1.0]) * np.exp(rng.uniform(math.log(0.05), math.log(100.0)))
        if pair:
            b = np.exp(rng.uniform(math.log(0.05), math.log(100.0)))
            blocks.append([[a, b], [-b, a]])
            lam += [complex(a, b), complex(a, -b)]
        else:
            blocks.append([[a]])
            lam.append(complex(a))
    n = len(lam)
    d = np.zeros((n, n))
    k = 0
    for block in blocks:
        d[k:k + len(block), k:k + len(block)] = block
        k += len(block)
    v = np.linalg.qr(rng.normal(size=(n, n)))[0] * rng.uniform(0.5, 2.0, n)
    h = float(np.exp(rng.uniform(math.log(3e-3), math.log(0.3))))
    return v @ d @ np.linalg.inv(v), np.array(lam), h


@hypothesis.settings(max_examples=300, deadline=None, database=None, derandomize=True)
@hypothesis.given(_diagonalizable_case())
def test_rk4_refuses_exactly_the_steps_that_grow_a_decaying_mode(case):
    """The eigenvalues of _rk4_map's P are R(hλ), to 1e-10 of the largest;
    simulate_continuous refuses the step h exactly when a mode with Re λ < 0
    has |R(hλ)| > 1 + 4·eps, and the largest h it names for that mode is
    accepted, while h 1e-9 above it grows a decaying mode."""
    a, lam, h = case
    gain = abs(_rk4_r(h * lam))
    decaying = lam.real < 0
    hypothesis.assume(np.all(abs(gain[decaying] - 1) > 1e-6))  # off the boundary, where rounding decides
    system = build_system("continuous", (len(lam),), CoefficientSet(A=Tensor.from_array(a)))
    p = _rk4_map(*[system.unfolded[0]] * 3, h)[0]
    got, want = np.linalg.eigvals(p), _rk4_r(h * lam)
    scale = 1e-10 * gain.max()
    assert all(abs(got - w).min() <= scale for w in want)
    assert all(abs(want - g).min() <= scale for g in got)
    x0 = Tensor.zeros([len(lam)])
    if not np.any(decaying & (gain > 1 + 4 * np.finfo(float).eps)):
        simulate_continuous(system, x0, h, h=h)
        return
    with pytest.raises(ValueError, match=rf"^segment 0: rk4 steps of h {h!r} grow its decaying mode ") as err:
        simulate_continuous(system, x0, h, h=h)
    stable_h = float(str(err.value).split("h <= ")[1].split()[0])
    simulate_continuous(system, x0, stable_h, h=stable_h)
    assert np.any(decaying & (abs(_rk4_r(stable_h * (1 + 1e-9) * lam)) > 1))
