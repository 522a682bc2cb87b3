"""Seeded inputs for the perfbench workloads.

Each workload is a list of cases. A case is one system file on disk plus the
command line that runs it and, where the answer is known by construction
(the analyze workload), the true values. The program under test only ever
sees the JSON files; everything else stays in the benchmark process.

The same (workload, seed) always writes byte-identical files: all randomness
comes from one numpy Generator seeded with both.
"""

from __future__ import annotations

import json
import math
import os

import numpy as np

# Sizes. Each workload keeps the property it was chosen for (see README.md);
# the step counts are sized so that one run holds at least 100 ops.
DISCRETE_SHAPES = ((8,), (4, 4), (2, 2, 2, 2), (3, 3, 3))
DISCRETE_SEGMENTS = (1, 4, 16, 64)
DISCRETE_STEPS = 1000
DISCRETE_BREAK_EVERY = 25
CONTINUOUS_SHAPE = (4, 4)
CONTINUOUS_T_END = 3.0
CONTINUOUS_H = 0.01
CONTINUOUS_NORM = 4.0
CONTINUOUS_BREAKS = (0.5, 0.02)  # coarse (propagators repeat) and fine tables
LARGE_SHAPE = (16, 16)
LARGE_INPUTS = 4
LARGE_OUTPUTS = 4
LARGE_CONTROLLABLE = 224  # true controllability rank; the rest is an uncontrollable block
LARGE_RADIUS = 0.95
LARGE_STEPS = 300
MULTIRATE_CLOCKS = ((2, 3), (2, 3, 5), (4, 6, 9), (2, 3, 5, 7))
MULTIRATE_HORIZON = 3000

WORKLOADS = (
    "discrete-steps",
    "continuous-exact",
    "continuous-rk4",
    "large-analyze",
    "large-simulate",
    "multirate-grid",
)


def tensor_doc(array) -> dict:
    array = np.asarray(array, dtype=float)
    return {"shape": list(array.shape), "data": [float(v) for v in array.ravel()]}


def _coupling(matrix, rows_shape, cols_shape) -> dict:
    """Tensor whose unfolding (row modes first) is `matrix`."""
    return tensor_doc(np.reshape(matrix, tuple(rows_shape) + tuple(cols_shape)))


def _scaled_to_radius(rng, q, radius):
    m = rng.standard_normal((q, q))
    return m * (radius / np.abs(np.linalg.eigvals(m)).max())


def _discrete_doc(rng, k):
    # Small states get the long schedules, so every file stays small and
    # per-step work, not parsing, dominates each op.
    shape = DISCRETE_SHAPES[k % 4]
    segments = DISCRETE_SEGMENTS[3 - k % 4]
    has_c = k >= 4
    q = math.prod(shape)
    schedule = []
    for s in range(segments):
        seg = {
            "start": round(s * DISCRETE_STEPS / segments),
            "A": _coupling(_scaled_to_radius(rng, q, 0.9), shape, shape),
            "B": _coupling(0.5 * rng.standard_normal((q, 2)), shape, (2,)),
        }
        if has_c:
            seg["C"] = _coupling(rng.standard_normal((3, q)), (3,), shape)
        schedule.append(seg)
    samples = [
        [n, tensor_doc(rng.uniform(-1.0, 1.0, 2))]
        for n in range(0, DISCRETE_STEPS + 1, DISCRETE_BREAK_EVERY)
    ]
    doc = {"time": "discrete", "state_shape": list(shape), "input_shape": [2]}
    if has_c:
        doc["output_shape"] = [3]
    doc["schedule"] = schedule
    doc["x0"] = tensor_doc(rng.standard_normal(shape))
    doc["input"] = {"kind": "table", "samples": samples}
    args = ["simulate", "--steps", str(DISCRETE_STEPS), "--emit-output"]
    return doc, args, {"kind": "discrete"}


def _continuous_doc(rng, k, method):
    shape = CONTINUOUS_SHAPE
    q = math.prod(shape)
    schedule = []
    for start in (0, 1, 2):
        m = 0.3 * rng.standard_normal((q, q))
        m -= (np.linalg.eigvals(m).real.max() + 0.5) * np.eye(q)
        # a fixed norm fixes the series length of each matrix exponential,
        # so the work per op does not depend on the seed
        m *= CONTINUOUS_NORM / np.linalg.norm(m, np.inf)
        schedule.append({
            "start": start,
            "A": _coupling(m, shape, shape),
            "B": _coupling(rng.standard_normal((q, 2)), shape, (2,)),
        })
    step = CONTINUOUS_BREAKS[k % len(CONTINUOUS_BREAKS)]
    count = int(round(CONTINUOUS_T_END / step))
    samples = [
        [round(j * step, 12), tensor_doc(rng.uniform(-1.0, 1.0, 2))] for j in range(count)
    ]
    doc = {
        "time": "continuous",
        "state_shape": list(shape),
        "input_shape": [2],
        "schedule": schedule,
        "x0": tensor_doc(rng.standard_normal(shape)),
        "input": {"kind": "table", "samples": samples},
    }
    args = ["simulate", "--t-end", repr(CONTINUOUS_T_END), "--h", repr(CONTINUOUS_H),
            "--method", method]
    return doc, args, {"kind": method}


def _large_doc(rng, command):
    """A = T·blk·Tᵀ with T orthogonal and blk block upper triangular.

    blk = [[Λ1, A12], [0, Λ2]] with Λ diagonal and distinct, so the
    eigenvalues are the diagonal and the spectral radius is LARGE_RADIUS
    exactly. B lies in span(T[:, :k]), an A-invariant subspace on which
    (Λ1, B1) is controllable, so the controllability rank is k. C is dense,
    so every mode is observed and the observability rank is q.
    """
    q = math.prod(LARGE_SHAPE)
    k = LARGE_CONTROLLABLE
    lam = rng.uniform(-0.9, 0.9, q)
    lam[rng.integers(q)] = LARGE_RADIUS * rng.choice((-1.0, 1.0))
    blk = np.diag(lam)
    blk[:k, k:] = 0.05 * rng.standard_normal((k, q - k))
    t, _ = np.linalg.qr(rng.standard_normal((q, q)))
    a = t @ blk @ t.T
    b = t[:, :k] @ rng.standard_normal((k, LARGE_INPUTS))
    c = rng.standard_normal((LARGE_OUTPUTS, q))
    doc = {
        "time": "discrete",
        "state_shape": list(LARGE_SHAPE),
        "input_shape": [LARGE_INPUTS],
        "output_shape": [LARGE_OUTPUTS],
        "schedule": [{
            "start": 0,
            "A": _coupling(a, LARGE_SHAPE, LARGE_SHAPE),
            "B": _coupling(b, LARGE_SHAPE, (LARGE_INPUTS,)),
            "C": _coupling(c, (LARGE_OUTPUTS,), LARGE_SHAPE),
        }],
        "x0": tensor_doc(rng.standard_normal(LARGE_SHAPE)),
        "input": {"kind": "constant", "value": tensor_doc(rng.standard_normal(LARGE_INPUTS))},
    }
    if command == "analyze":
        truth = {
            "kind": "analyze",
            "state_dim": q,
            "spectral_radius": LARGE_RADIUS,
            "stability": "stable",
            "controllability_rank": k,
            "observability_rank": q,
        }
        return doc, ["analyze"], truth
    return doc, ["simulate", "--steps", str(LARGE_STEPS), "--emit-output"], {"kind": "discrete"}


def _process_spec(rng, k, m):
    """Per-process boundary or input specs: index and constant alternate."""
    return [
        {"kind": "index"} if (i + k) % 2 == 0
        else {"kind": "constant", "value": float(rng.uniform(-1.0, 1.0))}
        for i in range(m)
    ]


def _multirate_doc(rng, k):
    clocks = MULTIRATE_CLOCKS[k % len(MULTIRATE_CLOCKS)]
    with_input = (k // len(MULTIRATE_CLOCKS)) % 2 == 1
    m = len(clocks)
    doc = {"kind": "multirate",
           "A": (rng.uniform(-0.5, 0.5, (m, m)) / m).tolist()}
    if with_input:
        doc["B"] = (rng.uniform(-0.5, 0.5, (m, m)) / m).tolist()
    doc["clocks"] = list(clocks)
    doc["boundary"] = _process_spec(rng, k, m)
    if with_input:
        doc["input"] = _process_spec(rng, k + 1, m)
    return doc, ["multirate", "--horizon", str(MULTIRATE_HORIZON)], {"kind": "multirate"}


def _builders(workload):
    if workload == "discrete-steps":
        return [lambda rng, k=k: _discrete_doc(rng, k) for k in range(8)]
    if workload in ("continuous-exact", "continuous-rk4"):
        # both workloads get the same files for the same seed
        method = workload.rsplit("-", 1)[1]
        return [lambda rng, k=k: _continuous_doc(rng, k, method) for k in range(8)]
    if workload in ("large-analyze", "large-simulate"):
        command = "analyze" if workload == "large-analyze" else "simulate"
        return [lambda rng: _large_doc(rng, command)] * 4
    if workload == "multirate-grid":
        return [lambda rng, k=k: _multirate_doc(rng, k) for k in range(8)]
    raise ValueError(f"unknown workload {workload!r}; expected one of {', '.join(WORKLOADS)}")


def _seed_key(workload, seed):
    # continuous-exact/rk4 and large-analyze/simulate share files per seed
    family = workload.rsplit("-", 1)[0] if workload.startswith(("continuous", "large")) else workload
    return [int(seed), sum(ord(ch) for ch in family)]


def generate(workload, seed, directory):
    """Write the workload's system files into `directory`; return its cases.

    A case is a dict with `path` (the system file), `args` (the command line
    minus --system/--out), `kind` (the op kind) and, for analyze cases,
    the true report values.
    """
    builders = _builders(workload)
    rng = np.random.default_rng(_seed_key(workload, seed))
    os.makedirs(directory, exist_ok=True)
    cases = []
    for k, build in enumerate(builders):
        doc, args, truth = build(rng)
        path = os.path.join(directory, f"case{k:02d}.json")
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(doc, handle)
        cases.append({"path": path, "args": args, **truth})
    return cases
