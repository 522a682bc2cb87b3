"""Independent oracles for every op kind, and the output checks built on them.

The oracles read the same JSON file the program reads, with plain `json`
and numpy, and never import `tensorstate`:

- discrete: a numpy loop over the unfolded matrices, bisect segment lookup
  and zero-order-hold input;
- rk4: a numpy classical RK4 on the program's time grid;
- exact: a per-interval zero-order hold through `scipy.linalg.expm` of the
  augmented matrix, split at segment starts and input breakpoints;
- multirate: a bottom-up evaluation in increasing index order;
- analyze: the values known by construction (or, for the sample files, numpy
  eigenvalues of the unfolded A).

A CSV check compares the header, the line count, and a fixed sample of data
rows including the last; an analyze check compares the report fields. Ranks
are reported, never gated.
"""

from __future__ import annotations

import bisect
import json
import math

import numpy as np

# The oracles and the program order their floating-point sums differently;
# 1e-9 relative leaves room for that and still rejects a 1e-6 relative change.
RTOL = 1e-9
ATOL_OF_ROW = 1e-12
SAMPLE_FRACTIONS = (0.0, 0.125, 0.25, 0.375, 0.5, 0.625, 0.75, 0.875)
EPSILON = 1e-9  # the CLI's default stability margin


def load(path) -> dict:
    with open(path, "r", encoding="utf-8") as handle:
        return json.load(handle)


def flag(args, name, default=None):
    """The value after `name` in a command line."""
    return args[args.index(name) + 1] if name in args else default


def _columns(prefix, shape):
    return [f"{prefix}_" + "_".join(str(i) for i in idx) for idx in np.ndindex(*shape)]


class Model:
    """Unfolded matrices and the input signal of a tensor-system file."""

    def __init__(self, doc):
        self.time = doc["time"]
        self.state_shape = tuple(doc["state_shape"])
        q = math.prod(self.state_shape)
        self.q = q
        self.starts = [float(seg["start"]) for seg in doc["schedule"]]
        self.segments = []
        for seg in doc["schedule"]:
            mats = {"A": np.array(seg["A"]["data"], dtype=float).reshape(q, q)}
            if "B" in seg:
                mats["B"] = np.array(seg["B"]["data"], dtype=float).reshape(q, -1)
            if "C" in seg:
                mats["C"] = np.array(seg["C"]["data"], dtype=float).reshape(-1, q)
            if "D" in seg:
                mats["D"] = np.array(seg["D"]["data"], dtype=float)
            self.segments.append(mats)
        self.x0 = np.array(doc["x0"]["data"], dtype=float)
        self.has_input = "input_shape" in doc
        self.output_shape = tuple(doc.get("output_shape", doc["state_shape"]))
        self.breaks, self.values = [0.0], [None]
        if self.has_input:
            p = math.prod(doc["input_shape"])
            spec = doc.get("input", {"kind": "zero"})
            if spec["kind"] == "zero":
                self.values = [np.zeros(p)]
            elif spec["kind"] == "constant":
                self.values = [np.array(spec["value"]["data"], dtype=float)]
            else:
                self.breaks = [float(when) for when, _ in spec["samples"]]
                self.values = [np.array(v["data"], dtype=float) for _, v in spec["samples"]]
        for mats in self.segments:
            if "D" in mats:
                mats["D"] = mats["D"].reshape(-1, len(self.values[0]))

    def segment_index(self, when) -> int:
        return bisect.bisect_right(self.starts, when) - 1

    def segment(self, when) -> dict:
        return self.segments[self.segment_index(when)]

    def input_index(self, when) -> int:
        return bisect.bisect_right(self.breaks, when) - 1

    def u(self, when):
        return self.values[self.input_index(when)] if self.has_input else None

    def output(self, when, x):
        mats = self.segment(when)
        y = mats["C"] @ x if "C" in mats else x
        u = self.u(when)
        if "D" in mats and u is not None:
            y = y + mats["D"] @ u
        return y

    def header(self, emit_output) -> str:
        names = ["t"] + _columns("x", self.state_shape)
        if emit_output:
            names += _columns("y", self.output_shape)
        return ",".join(names)


def discrete_states(model, steps) -> np.ndarray:
    """States x(0..steps) of the raw numpy loop on the unfolded matrices."""
    states = np.empty((steps + 1, model.q))
    x = model.x0
    states[0] = x
    for n in range(steps):
        mats = model.segment(n)
        x = mats["A"] @ x
        if model.has_input:
            x = x + mats["B"] @ model.u(n)
        states[n + 1] = x
    return states


def time_grid(t_end, h):
    """The simulator's documented grid t = 0, h, 2h, ..., ending exactly at t_end."""
    n_full = int(math.floor(t_end / h + 1e-9))
    times = [k * h for k in range(n_full + 1)]
    if t_end - times[-1] > 1e-9 * h:
        times.append(t_end)
    else:
        times[-1] = t_end
    return times


def exact_intervals(model, a, b):
    """Sub-intervals of [a, b] with constant coefficients and input."""
    cuts = {s for s in model.starts if a < s < b}
    if model.has_input:
        cuts.update(p for p in model.breaks if a < p < b)
    edges = [a] + sorted(cuts) + [b]
    return list(zip(edges, edges[1:]))


def continuous_states(model, t_end, h, method):
    from scipy.linalg import expm

    q = model.q

    def field(when, v):
        mats = model.segment(when)
        dv = mats["A"] @ v
        if model.has_input:
            dv = dv + mats["B"] @ model.u(when)
        return dv

    times = time_grid(t_end, h)
    states = np.empty((len(times), q))
    v = model.x0
    states[0] = v
    for i in range(len(times) - 1):
        a, b = times[i], times[i + 1]
        if method == "rk4":
            dt = b - a
            k1 = field(a, v)
            k2 = field(a + dt / 2, v + (dt / 2) * k1)
            k3 = field(a + dt / 2, v + (dt / 2) * k2)
            k4 = field(b, v + dt * k3)
            v = v + (dt / 6) * (k1 + 2 * k2 + 2 * k3 + k4)
        else:
            for p, r in exact_intervals(model, a, b):
                mats = model.segment(p)
                aug = np.zeros((q + 1, q + 1))
                aug[:q, :q] = mats["A"]
                if model.has_input:
                    aug[:q, q] = mats["B"] @ model.u(p)
                big = expm(aug * (r - p))
                v = big[:q, :q] @ v + big[:q, q]
        states[i + 1] = v
    return times, states


def _process_function(spec, count):
    specs = spec if isinstance(spec, list) else [spec] * count

    def one(entry):
        if entry["kind"] == "constant":
            return lambda n: float(entry["value"])
        if entry["kind"] == "index":
            return float
        table = {int(n): float(v) for n, v in entry["values"]}
        return table.__getitem__

    return [one(entry) for entry in specs]


def multirate_rows(doc, horizon):
    """(comment, header, rows) of the grid sweep, evaluated bottom-up."""
    a = np.array(doc["A"], dtype=float)
    m = a.shape[0]
    clocks = [int(c) for c in doc["clocks"]]
    d = math.lcm(*clocks)
    b = np.array(doc["B"], dtype=float) if "B" in doc else None
    boundary = _process_function(doc["boundary"], m)
    inputs = _process_function(doc["input"], m) if b is not None else None
    needed = set()
    frontier = [(i, k * d) for k in range(horizon + 1) for i in range(m)]
    while frontier:
        key = frontier.pop()
        if key in needed:
            continue
        needed.add(key)
        n = key[1]
        if n > 0 and n % d == 0:
            frontier.extend((j, n // clocks[j]) for j in range(m))
    values = {}
    for i, n in sorted(needed, key=lambda key: (key[1], key[0])):
        if n > 0 and n % d == 0:
            subs = [n // c for c in clocks]
            total = sum(a[i, j] * values[(j, subs[j])] for j in range(m))
            if b is not None:
                total += sum(b[i, j] * inputs[j](subs[j]) for j in range(m))
            values[(i, n)] = float(total)
        else:
            values[(i, n)] = boundary[i](n)
    rows = np.array([[k * d] + [values[(i, k * d)] for i in range(m)]
                     for k in range(horizon + 1)], dtype=float)
    comment = "# d={} f={}".format(d, ",".join(str(d // c) for c in clocks))
    header = "t," + ",".join(f"x_{i}" for i in range(1, m + 1))
    return comment, header, rows


def analyze_truth(doc) -> dict:
    """Report values of a sample file from numpy eigenvalues of the unfolded A."""
    model = Model(doc)
    eig = np.linalg.eigvals(model.segments[0]["A"])
    truth = {"kind": "analyze", "state_dim": model.q,
             "spectral_radius": float(np.abs(eig).max())}
    if model.time == "continuous":
        truth["max_real_part"] = float(eig.real.max())
        margin = truth["max_real_part"]
    else:
        margin = truth["spectral_radius"] - 1.0
    truth["stability"] = ("stable" if margin < -EPSILON
                          else "unstable" if margin > EPSILON else "marginal")
    return truth


class Expected:
    """What one case's output must look like."""

    def __init__(self, case):
        doc = load(case["path"])
        self.kind = case["kind"]
        args = case["args"]
        self.truth = None
        self.header_lines = []
        if self.kind == "analyze":
            self.truth = {k: v for k, v in case.items() if k not in ("path", "args", "kind")}
            if "spectral_radius" not in self.truth:
                self.truth.update(analyze_truth(doc))
            model = Model(doc)
            self.has_ctrb = model.has_input
            self.has_obsv = "C" in model.segments[0]
            return
        if self.kind == "multirate":
            comment, header, self.rows = multirate_rows(doc, int(flag(args, "--horizon")))
            self.header_lines = [comment, header]
            return
        model = Model(doc)
        emit = "--emit-output" in args
        if self.kind == "discrete":
            steps = int(flag(args, "--steps"))
            times = list(range(steps + 1))
            states = discrete_states(model, steps)
        else:
            t_end = float(flag(args, "--t-end"))
            h = float(flag(args, "--h", t_end / 1000.0))
            times, states = continuous_states(model, t_end, h, self.kind)
        cols = [np.asarray(times, dtype=float)[:, None], states]
        if emit:
            cols.append(np.array([model.output(t, x) for t, x in zip(times, states)]))
        self.rows = np.hstack(cols)
        self.header_lines = [model.header(emit)]

    @property
    def line_count(self) -> int:
        return len(self.header_lines) + len(self.rows)

    def sample_lines(self) -> list:
        """File line indices the worker extracts: headers, sampled rows, last row."""
        if self.kind == "analyze":
            return []
        n = len(self.rows)
        picks = sorted({int(f * n) for f in SAMPLE_FRACTIONS} | {n - 1})
        offset = len(self.header_lines)
        return list(range(offset)) + [offset + r for r in picks]


def row_matches(got, want) -> bool:
    got = np.asarray(got, dtype=float)
    want = np.asarray(want, dtype=float)
    if got.shape != want.shape:
        return False
    scale = np.abs(want[1:]).max() if want.size > 1 else 0.0
    return bool(np.all(np.abs(got - want) <= RTOL * np.abs(want) + ATOL_OF_ROW * scale))


def check_csv(expected, extract) -> list:
    """Problems found in a CSV extract: {"n_lines": int, "lines": {index: text}}."""
    problems = []
    if extract["n_lines"] != expected.line_count:
        problems.append(f"{extract['n_lines']} lines, expected {expected.line_count}")
    lines = {int(k): v for k, v in extract["lines"].items()}
    for idx, text in enumerate(expected.header_lines):
        if lines.get(idx) != text:
            problems.append(f"line {idx} is {lines.get(idx)!r}, expected {text!r}")
    offset = len(expected.header_lines)
    for idx in expected.sample_lines()[offset:]:
        text = lines.get(idx)
        try:
            got = [float(v) for v in text.split(",")]
        except (AttributeError, ValueError):
            problems.append(f"line {idx} unreadable: {text!r}")
            continue
        if not row_matches(got, expected.rows[idx - offset]):
            problems.append(f"line {idx} differs from the oracle")
    return problems


def parse_report(text) -> dict:
    fields = {}
    for line in text.splitlines():
        key, sep, value = line.partition("=")
        if sep:
            fields[key] = value
    return fields


def check_report(expected, text):
    """(problems, ranks) for an analyze report; ranks maps name -> (reported, true)."""
    truth = expected.truth
    fields = parse_report(text)
    problems = []
    if fields.get("state_dim") != str(truth["state_dim"]):
        problems.append(f"state_dim={fields.get('state_dim')}, expected {truth['state_dim']}")
    if fields.get("stability") != truth["stability"]:
        problems.append(f"stability={fields.get('stability')}, expected {truth['stability']}")
    for key in ("spectral_radius", "max_real_part"):
        if (key in truth) != (key in fields):
            problems.append(f"{key} present={key in fields}, expected {key in truth}")
        elif key in truth:
            try:
                value = float(fields[key])
            except ValueError:
                problems.append(f"{key}={fields[key]!r} is not a number")
                continue
            if not abs(value - truth[key]) <= RTOL * abs(truth[key]) + ATOL_OF_ROW:
                problems.append(f"{key}={fields[key]}, expected {truth[key]!r}")
    ranks = {}
    for key, present in (("controllability_rank", expected.has_ctrb),
                         ("observability_rank", expected.has_obsv)):
        if (key in fields) != present:
            problems.append(f"{key} present={key in fields}, expected {present}")
        elif present:
            try:
                reported = int(fields[key])
            except ValueError:
                problems.append(f"{key}={fields[key]!r} is not an integer")
                continue
            if key in truth:
                ranks[key] = (reported, truth[key])
    return problems, ranks
