"""Property tests over the sample files, driven by hypothesis."""

import contextlib
import copy
import io
import json
import tempfile
import warnings
from pathlib import Path

import pytest

from tensorstate.cli import main

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
