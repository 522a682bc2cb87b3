"""Runs the ops of one benchmark run in a process of its own.

    python3 perfbench/worker.py SPEC.json RESULT.json

The parent (run.py) writes the spec: op lists and run length. This process
holds no generator or oracle state, so its peak RSS is that of the program.
Each op is one in-process `tensorstate.cli.main(argv)` call, timed from argv
to the written file. After each op, outside its timing, the lines the parent
will check are read back from the output file.

With tracing on, a second, traced pass follows the untraced one: the public
functions an op goes through are wrapped to record spans and counts, and a
few per-layer quantities are measured around them.
"""

from __future__ import annotations

import contextlib
import json
import os
import resource
import statistics
import sys
import time
import tracemalloc

import numpy as np

import oracles
from tensorstate import cli

HARD_CAP_S = 100.0

# fixed inputs of the reference loop, built once
REF_SMALL = np.linalg.qr(np.arange(256.0).reshape(16, 16) % 7 + np.eye(16))[0] * 0.99
REF_DENSE = np.linalg.qr(np.arange(128.0 * 128).reshape(128, 128) % 11 + np.eye(128))[0]
REF_JSON = json.dumps([{"data": [k / 7.0 + j for j in range(16)]} for k in range(150)])


def calibrate() -> float:
    """A fixed reference loop with the ops' mix of work: small matrix-vector
    products, float formatting, interpreter loops, JSON parsing and dense
    BLAS products. Its time tracks how fast the host runs this process
    right now."""
    start = time.perf_counter()
    x = np.ones(16)
    rows = []
    for _ in range(100):
        x = REF_SMALL @ x
        rows.append(",".join(format(float(v), ".17g") for v in x))
    total = 0
    for i in range(5000):
        total += i * i
    json.loads(REF_JSON)
    for _ in range(4):
        REF_DENSE @ REF_DENSE.T
    return (time.perf_counter() - start) * 1e3


def extract(op):
    """The output lines the parent asked for, and the file's line count."""
    with open(op["out"], "r", encoding="utf-8") as handle:
        text = handle.read()
    if op["lines"] is None:
        return {"text": text}
    lines = text.split("\n")
    if lines and lines[-1] == "":
        lines.pop()
    return {"n_lines": len(lines),
            "lines": {str(i): lines[i] for i in op["lines"] if i < len(lines)}}


def run_op(op, stdout):
    with contextlib.suppress(FileNotFoundError):
        os.remove(op["out"])
    error = None
    start = time.perf_counter()
    try:
        with contextlib.redirect_stdout(stdout):
            code = cli.main(op["argv"])
    except Exception as exc:  # an escaped exception is a failed op, not a crashed run
        code = None
        error = f"{type(exc).__name__}: {exc}"
    ms = (time.perf_counter() - start) * 1e3
    result = {"case": op["case"], "kind": op["kind"], "ms": ms, "code": code, "error": error}
    if code == 0:
        try:
            result["extract"] = extract(op)
        except OSError as exc:
            result["error"] = f"output unreadable: {exc}"
    return result


def timed_pass(spec, stdout):
    """Whole cycles over the ops until both the run length and the op
    minimum are reached. The reference loop runs before the first op and
    after every op, outside the op's timing."""
    results, calib = [], [calibrate()]
    start = time.perf_counter()
    while True:
        for op in spec["ops"]:
            results.append(run_op(op, stdout))
            calib.append(calibrate())
        elapsed = time.perf_counter() - start
        if elapsed >= HARD_CAP_S or (
            elapsed >= spec["seconds"] and len(results) >= spec["min_ops"]
        ):
            return results, calib, elapsed


def _timeit_us(fn, calls=200, batches=5) -> float:
    per_call = []
    for _ in range(batches):
        start = time.perf_counter()
        for _ in range(calls):
            fn()
        per_call.append((time.perf_counter() - start) / calls * 1e6)
    return statistics.median(per_call)


def discrete_extras(file, argv):
    """Kernel, lookup and floor figures of a discrete op, measured by the
    benchmark around public calls on the op's own parsed file."""
    from tensorstate import contract_last

    system = file.system
    steps = int(oracles.flag(argv, "--steps"))
    coeffs = system.coefficients_at(0)
    x = file.x0
    extras = {"steps": steps, "q": system.state_dim,
              "contract_a_us": _timeit_us(lambda: contract_last(coeffs.A, x))}
    kernel_us = extras["contract_a_us"] * steps
    flops = 2 * system.state_dim ** 2 * steps
    if system.has_input:
        u = file.input_signal.sample(0, system.input_shape)
        b_us = _timeit_us(lambda: contract_last(coeffs.B, u))
        kernel_us += b_us * steps
        flops += 2 * system.state_dim * system.input_dim * steps
    if coeffs.C is not None and "--emit-output" in argv:
        c_us = _timeit_us(lambda: contract_last(coeffs.C, x))
        kernel_us += c_us * (steps + 1)
        flops += 2 * system.state_dim * system.output_dim * (steps + 1)
    extras["kernel_us"] = kernel_us
    extras["flops"] = flops
    start = time.perf_counter()
    for n in range(steps + 1):
        system.coefficients_at(n)
    extras["lookup_us"] = (time.perf_counter() - start) / (steps + 1) * 1e6
    model = oracles.Model(oracles.load(oracles.flag(argv, "--system")))
    start = time.perf_counter()
    oracles.discrete_states(model, steps)
    extras["floor_ms"] = (time.perf_counter() - start) * 1e3
    return extras


def exact_extras(argv):
    """Distinct (segment, dt, held input) propagators the exact method needs."""
    model = oracles.Model(oracles.load(oracles.flag(argv, "--system")))
    t_end = float(oracles.flag(argv, "--t-end"))
    times = oracles.time_grid(t_end, float(oracles.flag(argv, "--h")))
    keys = set()
    for a, b in zip(times, times[1:]):
        for p, r in oracles.exact_intervals(model, a, b):
            keys.add((model.segment_index(p), round(r - p, 12), model.input_index(p)))
    return {"expm_distinct": len(keys)}


def multirate_extras(file, argv):
    from tensorstate import eval_state

    system = file.system
    cache = {}
    for k in range(int(oracles.flag(argv, "--horizon")) + 1):
        for i in range(1, system.process_count + 1):
            eval_state(system, i, k * system.clock.d, cache)
    return {"memo_entries": len(cache)}


def memory_extras(op, file):
    """tracemalloc peaks of the compute and write stages, measured apart from
    every timing because tracemalloc slows allocation."""
    from tensorstate import analysis, fileio, multirate, simulate

    argv = op["argv"]
    command = argv[0]
    tracemalloc.start()
    try:
        if command == "analyze":
            result = analysis.analyze(file.system)
        elif command == "multirate":
            result = multirate.trajectory_on_grid(file.system, int(oracles.flag(argv, "--horizon")))
        elif file.system.time_kind == "discrete":
            result = simulate.simulate_discrete(
                file.system, file.x0, int(oracles.flag(argv, "--steps")), u=file.input_signal)
        else:
            result = simulate.simulate_continuous(
                file.system, file.x0, float(oracles.flag(argv, "--t-end")),
                h=float(oracles.flag(argv, "--h")), u=file.input_signal, method=oracles.flag(argv, "--method"))
        held, compute_peak = tracemalloc.get_traced_memory()
        tracemalloc.reset_peak()
        if command == "analyze":
            fileio.render_report(result)
        elif command == "multirate":
            fileio.multirate_csv(result, file.system.clock)
        else:
            fileio.trajectory_csv(result, emit_output="--emit-output" in argv)
        write_peak = tracemalloc.get_traced_memory()[1] - held
    finally:
        tracemalloc.stop()
    return {"compute_peak_mb": compute_peak / 2**20, "write_peak_mb": write_peak / 2**20}


def traced_pass(spec, stdout):
    from spans import Tracer
    from tensorstate import analysis, fileio, simulate

    tracer = Tracer()
    parse = tracer.wrap("fileio.parse_system_file", cli.parse_system_file)
    sweep = tracer.wrap("multirate.trajectory_on_grid", cli.trajectory_on_grid)
    parsed = {}

    def keep_parse(path):
        parsed["file"] = parse(path)
        return parsed["file"]

    def grid_counting(system, horizon):
        saved = system.boundary, system.input
        system.boundary = tracer.counting("multirate.boundary_lookups", saved[0])
        if saved[1] is not None:
            system.input = tracer.counting("multirate.boundary_lookups", saved[1])
        try:
            return sweep(system, horizon)
        finally:
            system.boundary, system.input = saved

    targets = [
        (cli, "main", tracer.wrap("cli.main", cli.main)),
        (cli, "parse_system_file", keep_parse),
        (fileio, "build_system", tracer.wrap("systems.build_system", fileio.build_system)),
        (fileio, "MultirateSystem", tracer.wrap("multirate.MultirateSystem", fileio.MultirateSystem)),
        (cli, "simulate_discrete", tracer.wrap("simulate.simulate_discrete", cli.simulate_discrete)),
        (cli, "simulate_continuous",
         tracer.wrap("simulate.simulate_continuous", cli.simulate_continuous)),
        (simulate, "matrix_exponential",
         tracer.wrap("simulate.matrix_exponential", simulate.matrix_exponential)),
        (cli, "analyze", tracer.wrap("analysis.analyze", cli.analyze)),
        (analysis, "check_stability", tracer.wrap("analysis.check_stability", analysis.check_stability)),
        (analysis, "controllability_rank",
         tracer.wrap("analysis.controllability_rank", analysis.controllability_rank)),
        (analysis, "observability_rank",
         tracer.wrap("analysis.observability_rank", analysis.observability_rank)),
        (cli, "trajectory_on_grid", grid_counting),
        (cli, "trajectory_csv", tracer.wrap("fileio.trajectory_csv", cli.trajectory_csv, len)),
        (cli, "multirate_csv", tracer.wrap("fileio.multirate_csv", cli.multirate_csv, len)),
        (cli, "render_report", tracer.wrap("fileio.render_report", cli.render_report, len)),
    ]
    ops = spec["ops"] * max(1, spec["trace_min_ops"] // len(spec["ops"]))
    results, files, calib = [], [], [calibrate()]
    for index, op in enumerate(ops):
        tracer.op = index
        parsed.clear()
        with tracer.patched(targets):
            results.append(run_op(op, stdout))
        calib.append(calibrate())
        files.append(parsed.get("file") if results[-1]["code"] == 0 else None)
    # measured after all traced ops, so that their work does not disturb them
    extras = []
    for index, (op, file) in enumerate(zip(ops, files)):
        if file is None:
            extras.append({})
            continue
        argv = op["argv"]
        extra = {"file_bytes": os.path.getsize(oracles.flag(argv, "--system"))}
        if op["kind"] == "discrete":
            extra.update(discrete_extras(file, argv))
        elif op["kind"] == "exact":
            extra.update(exact_extras(argv))
        elif op["kind"] == "multirate":
            extra.update(multirate_extras(file, argv))
        if index < len(spec["ops"]):
            extra.update(memory_extras(op, file))
        extras.append(extra)
    counts = [[op, name, value] for (op, name), value in tracer.counts.items()]
    return {"results": results, "calib_ms": calib, "extras": extras, "spans": tracer.spans,
            "counts": counts}


def main(spec_path, result_path) -> int:
    with open(spec_path, "r", encoding="utf-8") as handle:
        spec = json.load(handle)
    with open(os.devnull, "w", encoding="utf-8") as stdout:
        out = {"precheck": [run_op(op, stdout) for op in spec["precheck"]],
               "warmup": [run_op(op, stdout) for op in spec["ops"]]}
        out["timed"], out["calib_ms"], out["timed_s"] = timed_pass(spec, stdout)
        out["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        if spec["trace"]:
            out["trace"] = traced_pass(spec, stdout)
    with open(result_path, "w", encoding="utf-8") as handle:
        json.dump(out, handle)
    return 0


if __name__ == "__main__":
    if len(sys.argv) != 3:
        sys.exit("usage: worker.py SPEC.json RESULT.json")
    sys.exit(main(sys.argv[1], sys.argv[2]))
