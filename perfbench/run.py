"""perfbench: per-command latency of the tensorstate CLI on seeded workloads.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout; the program is imported from
`src/`. One run:

1. times `import tensorstate.cli` in fresh interpreters (setup_s);
2. writes the workload's system files from the seed (perfbench/gen.py);
3. starts one worker process (perfbench/worker.py), a closed loop with one
   client: the README example commands on `sample_systems/`, one warm-up pass
   over the cases, then whole cycles over the cases for at least S seconds
   and 100 ops, each op one in-process `tensorstate.cli.main(argv)` call;
   with --trace 1, a traced pass follows;
4. checks every op's output against the oracles (perfbench/oracles.py).

It prints a summary, then as its last line one JSON object with `correct`,
`attempted`, `failed` and `metrics`: the end-to-end metrics with --trace 0,
the per-layer metrics with --trace 1 (see BENCHMARK.json). The full record,
with the per-kind and per-layer figures and the spans, goes to
`.perfbench/results/`.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import numpy as np

import gen
import oracles
import spans

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
MIN_OPS = 100  # p90 needs at least ten samples beyond it
SETUP_REPEATS = 11
TRACE_MIN_OPS = 8
BLAS_THREADS = 1  # one client, one core: keeps BLAS from competing with it
RUN_LIMIT_S = 170.0

END_TO_END_UNITS = {"case_p50_ref": "ref", "peak_rss_mb": "MB", "setup_s": "s"}
PER_LAYER_UNITS = {
    "fileio.parse_ms": "ms", "fileio.parse_mb_per_s": "MB/s", "systems.build_ms": "ms",
    "compute.ms": "ms", "compute.share": "ratio", "compute.peak_mb": "MB",
    "fileio.write_ms": "ms", "fileio.write_bytes": "bytes", "fileio.write_mb_per_s": "MB/s",
    "fileio.write_peak_mb": "MB", "cli.self_ms": "ms", "host.calib_ms": "ms",
    "trace.overhead_frac": "ratio",
}
COMPUTE_SPANS = ("simulate.simulate_discrete", "simulate.simulate_continuous",
                 "analysis.analyze", "multirate.trajectory_on_grid")
WRITE_SPANS = ("fileio.trajectory_csv", "fileio.multirate_csv", "fileio.render_report")
BUILD_SPANS = ("systems.build_system", "multirate.MultirateSystem")


class BenchError(Exception):
    """The run could not be carried out; no result is printed."""


def sample_cases():
    """The README's example commands on the four files in sample_systems/."""
    samples = ROOT / "sample_systems"
    pair = str(samples / "discrete_pair.json")
    matrix = str(samples / "matrix_state.json")
    decay = str(samples / "continuous_decay.json")
    return [
        {"path": pair, "args": ["simulate", "--steps", "20"], "kind": "discrete"},
        {"path": pair, "args": ["analyze"], "kind": "analyze"},
        {"path": str(samples / "multirate_clocks.json"), "args": ["multirate", "--horizon", "6"],
         "kind": "multirate"},
        {"path": matrix, "args": ["simulate", "--steps", "20", "--emit-output"], "kind": "discrete"},
        {"path": matrix, "args": ["analyze"], "kind": "analyze"},
        {"path": decay, "args": ["simulate", "--t-end", "1", "--h", "0.01", "--method", "exact"],
         "kind": "exact"},
        {"path": decay, "args": ["simulate", "--t-end", "1", "--h", "0.01", "--method", "rk4"],
         "kind": "rk4"},
    ]


def make_ops(cases, expected, outdir, prefix):
    ops = []
    for index, (case, exp) in enumerate(zip(cases, expected)):
        out = str(outdir / f"{prefix}{index:02d}.out")
        argv = [case["args"][0], "--system", str(case["path"]), "--out", out] + case["args"][1:]
        ops.append({"case": index, "kind": case["kind"], "argv": argv, "out": out,
                    "lines": None if exp.kind == "analyze" else exp.sample_lines()})
    return ops


def child_env():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join([str(ROOT / "src"), str(HERE)])
    for name in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[name] = str(BLAS_THREADS)
    return env


def measure_setup(env, repeats) -> list:
    """Times to import tensorstate.cli in fresh interpreters."""
    code = ("import time; start = time.perf_counter(); import tensorstate.cli; "
            "print(repr(time.perf_counter() - start))")
    times = []
    for _ in range(repeats):
        proc = subprocess.run([sys.executable, "-c", code], env=env, cwd=ROOT,
                              capture_output=True, text=True, timeout=60)
        if proc.returncode != 0:
            raise BenchError(f"importing tensorstate.cli failed:\n{proc.stderr.strip()}")
        times.append(float(proc.stdout.strip()))
    return times


def run_worker(spec, workdir, env, deadline):
    spec_path, result_path = workdir / "spec.json", workdir / "result.json"
    spec_path.write_text(json.dumps(spec), encoding="utf-8")
    try:
        proc = subprocess.run(
            [sys.executable, str(HERE / "worker.py"), str(spec_path), str(result_path)],
            env=env, cwd=ROOT, stdout=subprocess.DEVNULL, stderr=subprocess.PIPE, text=True,
            timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        raise BenchError("the worker did not finish within the run's time limit") from None
    if proc.returncode != 0:
        raise BenchError(f"the worker failed:\n{proc.stderr.strip()[-2000:]}")
    return json.loads(result_path.read_text(encoding="utf-8"))


def check(result, expected, ranks):
    """None if the op succeeded and its output matches, else the problem."""
    if result["code"] != 0:
        return f"exit code {result['code']}: {result['error']}"
    if "extract" not in result:
        return result["error"]
    if expected.kind == "analyze":
        problems, found = oracles.check_report(expected, result["extract"]["text"])
        ranks.append(found)
    else:
        problems = oracles.check_csv(expected, result["extract"])
    return "; ".join(problems) or None


def rows_written(result, expected) -> int:
    if expected.kind == "analyze":
        return len(result["extract"]["text"].splitlines())
    return expected.line_count - len(expected.header_lines)


def percentile(values, q) -> float:
    return float(np.percentile(np.asarray(values, dtype=float), q))


def ref_ratios(results, calib):
    """Each op's latency over the mean of the reference loop times measured
    just before and just after it, so that changes in host speed cancel."""
    return [r["ms"] / ((before + after) / 2) for r, before, after in zip(results, calib, calib[1:])]


def by_case(results, values):
    grouped = {}
    for r, value in zip(results, values):
        grouped.setdefault(r["case"], []).append(value)
    return grouped


def end_to_end(timed, calib, setup_s, peak_rss_mb):
    """The gated metrics. The median reference ratio of each case, averaged
    over the cases, weighs every case the same in every run."""
    per_case = by_case(timed, ref_ratios(timed, calib))
    return {
        "case_p50_ref": statistics.fmean(statistics.median(v) for v in per_case.values()),
        "peak_rss_mb": peak_rss_mb,
        "setup_s": setup_s,
    }


def latency(timed, expected):
    """Wall-clock figures as measured: <kind>_ms_p50/p90 over the kind's ops
    with their sample count, and CSV rows (report lines for analyze) per
    second of op time."""
    kind = expected[0].kind  # every workload runs one op kind
    ms = [r["ms"] for r in timed]
    figures = {f"{kind}_ms_p50": percentile(ms, 50), f"{kind}_ms_p90": percentile(ms, 90),
               f"{kind}_ops": len(ms)}
    ok = [r for r in timed if r["code"] == 0 and "extract" in r]
    rows = sum(rows_written(r, expected[r["case"]]) for r in ok)
    figures["rows_per_s"] = rows / (sum(r["ms"] for r in ok) / 1e3) if ok else float("nan")
    return figures


def _span_ns(table, names):
    """Inclusive ns of the first of `names` present in the op's span table."""
    return next(table[name][0] for name in names if name in table)


def layers(trace, timed, calib, ranks):
    """Per-layer figures from the traced pass: common and kind-specific."""
    table = spans.per_op(trace["spans"])
    counts = {(op, name): value for op, name, value in trace["counts"]}
    untraced = {case: statistics.median(v)
                for case, v in by_case(timed, ref_ratios(timed, calib)).items()}
    traced = ref_ratios(trace["results"], trace["calib_ms"])
    rows = []
    for index, (result, extra) in enumerate(zip(trace["results"], trace["extras"])):
        if result["code"] != 0 or index not in table:
            continue
        t = table[index]
        row = {"kind": result["kind"], "main_ms": t["cli.main"][0] / 1e6,
               "traced_ref": traced[index], "untraced_ref": untraced[result["case"]], **extra}
        row["parse_ms"] = t["fileio.parse_system_file"][1] / 1e6
        row["parse_mb_per_s"] = extra["file_bytes"] / 2**20 / (t["fileio.parse_system_file"][0] / 1e9)
        row["build_ms"] = _span_ns(t, BUILD_SPANS) / 1e6
        row["compute_ms"] = _span_ns(t, COMPUTE_SPANS) / 1e6
        row["write_ms"] = _span_ns(t, WRITE_SPANS) / 1e6
        row["write_bytes"] = next(counts[(index, n + ".bytes")] for n in WRITE_SPANS
                                  if (index, n + ".bytes") in counts)
        row["cli_self_ms"] = t["cli.main"][1] / 1e6
        for name, key in (("simulate.matrix_exponential", "expm"),
                          ("analysis.check_stability", "stability"),
                          ("analysis.controllability_rank", "ctrb"),
                          ("analysis.observability_rank", "obsv")):
            if name in t:
                row[key + "_ms"] = t[name][0] / 1e6
                row[key + "_calls"] = t[name][2]
        row["boundary_lookups"] = counts.get((index, "multirate.boundary_lookups"), 0)
        rows.append(row)
    if not rows:
        raise BenchError("no traced op succeeded")

    def med(key):
        return statistics.median(r[key] for r in rows if key in r)

    def mean(key):
        return statistics.fmean(r[key] for r in rows if key in r)

    common = {
        "fileio.parse_ms": med("parse_ms"),
        "fileio.parse_mb_per_s": med("parse_mb_per_s"),
        "systems.build_ms": med("build_ms"),
        "compute.ms": med("compute_ms"),
        "compute.share": statistics.median(r["compute_ms"] / r["main_ms"] for r in rows),
        "compute.peak_mb": med("compute_peak_mb"),
        "fileio.write_ms": med("write_ms"),
        "fileio.write_bytes": mean("write_bytes"),
        "fileio.write_mb_per_s": statistics.median(
            r["write_bytes"] / 2**20 / (r["write_ms"] / 1e3) for r in rows),
        "fileio.write_peak_mb": med("write_peak_mb"),
        "cli.self_ms": med("cli_self_ms"),
        "host.calib_ms": statistics.median(calib),
        "trace.overhead_frac": sum(r["traced_ref"] for r in rows) / sum(r["untraced_ref"] for r in rows) - 1,
    }
    # every workload runs one op kind
    kind = rows[0]["kind"]
    if kind == "analyze":
        specific = {
            "analysis.stability_ms": med("stability_ms"),
            "analysis.ctrb_ms": med("ctrb_ms"),
            "analysis.obsv_ms": med("obsv_ms"),
            "fileio.report_ms": med("write_ms"),
            **rank_errors(ranks),
        }
        return common, specific, rows
    specific = {"fileio.csv_ms": med("write_ms"), "fileio.csv_bytes": mean("write_bytes"),
                "fileio.csv_mb_per_s": common["fileio.write_mb_per_s"],
                "fileio.csv_peak_mb": med("write_peak_mb")}
    if kind == "multirate":
        specific.update({
            "multirate.sweep_ms": med("compute_ms"),
            "multirate.ticks_per_s": (gen.MULTIRATE_HORIZON + 1) / (med("compute_ms") / 1e3),
            "multirate.memo_entries": mean("memo_entries"),
            "multirate.boundary_lookups": mean("boundary_lookups"),
        })
        return common, specific, rows
    specific["simulate.peak_mb"] = med("compute_peak_mb")
    specific[f"simulate.{kind}_ms"] = med("compute_ms")
    if kind == "discrete":
        specific.update({
            "tensors.contract_last_us": med("contract_a_us"),
            "simulate.kernel_share": statistics.median(r["kernel_us"] / 1e3 / r["main_ms"] for r in rows),
            "systems.lookup_us": med("lookup_us"),
            "simulate.us_per_step": statistics.median(r["compute_ms"] * 1e3 / r["steps"] for r in rows),
            "simulate.discrete_gflops": statistics.median(r["flops"] / (r["compute_ms"] * 1e6) for r in rows),
            "simulate.floor_ratio": statistics.median(r["compute_ms"] / r["floor_ms"] for r in rows),
        })
    elif kind == "exact":
        calls = sum(r["expm_calls"] for r in rows)
        specific.update({
            "simulate.expm_us": sum(r["expm_ms"] for r in rows) * 1e3 / calls,
            "simulate.expm_calls": calls / len(rows),
            "simulate.expm_distinct": mean("expm_distinct"),
            "simulate.expm_useful_ratio": sum(r["expm_distinct"] for r in rows) / calls,
        })
    return common, specific, rows


def rank_errors(ranks):
    """Mean |reported - true| per rank kind and over both (`rank_err`)."""
    errors = {"controllability_rank": [], "observability_rank": []}
    for found in ranks:
        for key, (reported, true) in found.items():
            errors[key].append(abs(reported - true))
    out = {}
    if errors["controllability_rank"]:
        out["analysis.ctrb_rank_err"] = statistics.fmean(errors["controllability_rank"])
    if errors["observability_rank"]:
        out["analysis.obsv_rank_err"] = statistics.fmean(errors["observability_rank"])
    both = errors["controllability_rank"] + errors["observability_rank"]
    if both:
        out["rank_err"] = statistics.fmean(both)
    return out


def environment():
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {"nproc": os.cpu_count(), "python": platform.python_version(),
            "numpy": np.__version__, "blas": f"{blas.get('name')} {blas.get('version')}",
            "blas_threads": BLAS_THREADS}


def run(args):
    start = time.monotonic()
    deadline = start + RUN_LIMIT_S
    if not (ROOT / "src" / "tensorstate" / "cli.py").is_file():
        raise BenchError(f"no tensorstate sources under {ROOT / 'src'}; run from a source checkout")
    if not (ROOT / "sample_systems").is_dir():
        raise BenchError(f"no sample_systems/ under {ROOT}")
    env = child_env()
    phases, mark = {}, [start]

    def lap(name):
        now = time.monotonic()
        phases[name] = phases.get(name, 0.0) + now - mark[0]
        mark[0] = now

    # half the set-ups before the ops and half after, so that the median
    # spans more than one spell of host speed
    setup_times = measure_setup(env, SETUP_REPEATS // 2)
    lap("setup")
    workdir = ROOT / ".perfbench" / f"run-{args.workload}-{args.seed}-{os.getpid()}"
    shutil.rmtree(workdir, ignore_errors=True)
    try:
        cases = gen.generate(args.workload, args.seed, workdir / "inputs")
        samples = sample_cases()
        expected = [oracles.Expected(case) for case in cases]
        sample_expected = [oracles.Expected(case) for case in samples]
        spec = {"seconds": args.seconds, "min_ops": MIN_OPS,
                "trace": bool(args.trace), "trace_min_ops": TRACE_MIN_OPS,
                "precheck": make_ops(samples, sample_expected, workdir, "sample"),
                "ops": make_ops(cases, expected, workdir, "case")}
        lap("generate")
        out = run_worker(spec, workdir, env, deadline)
        lap("worker")
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    setup_times += measure_setup(env, SETUP_REPEATS - SETUP_REPEATS // 2)
    setup_s = statistics.median(setup_times)
    lap("setup")

    ranks, failures = [], []
    checked = [(r, sample_expected, "sample") for r in out["precheck"]]
    checked += [(r, expected, "warmup") for r in out["warmup"]]
    checked += [(r, expected, "timed") for r in out["timed"]]
    if args.trace:
        checked += [(r, expected, "traced") for r in out["trace"]["results"]]
    for result, exp_list, phase in checked:
        problem = check(result, exp_list[result["case"]], ranks if phase == "timed" else [])
        if problem:
            failures.append(f"{phase} case {result['case']}: {problem}")

    e2e = end_to_end(out["timed"], out["calib_ms"], setup_s, out["peak_rss_mb"])
    record = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
              "trace": args.trace, "environment": environment(), "end_to_end": e2e,
              "latency": latency(out["timed"], expected), **rank_errors(ranks),
              "attempted": len(checked), "failed": len(failures),
              "failed_frac": len(failures) / len(checked), "failures": failures[:50],
              "timed_s": out["timed_s"], "phases_s": phases,
              "host.calib_ms": statistics.median(out["calib_ms"]),
              "timed_ops": [[t["case"], t["ms"], ratio] for t, ratio in
                            zip(out["timed"], ref_ratios(out["timed"], out["calib_ms"]))]}
    if args.trace:
        common, specific, rows = layers(out["trace"], out["timed"], out["calib_ms"], ranks)
        record.update(per_layer=common, layers=specific, traced_ops=rows)
    lap("check")
    results_dir = ROOT / ".perfbench" / "results"
    results_dir.mkdir(parents=True, exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    (results_dir / f"{stem}.json").write_text(json.dumps(record, indent=1), encoding="utf-8")
    if args.trace:
        trace = out["trace"]
        span_doc = {"fields": ["name", "start_ns", "end_ns", "parent", "op", "self_ns"],
                    "spans": [s + [own] for s, own in zip(trace["spans"], spans.self_ns(trace["spans"]))],
                    "counts": trace["counts"]}
        (results_dir / f"{stem}-spans.json").write_text(json.dumps(span_doc), encoding="utf-8")
    return record


def summary(record):
    env = record["environment"]
    lines = [f"perfbench workload={record['workload']} seed={record['seed']} "
             f"seconds={record['seconds']} trace={record['trace']}",
             "environment " + " ".join(f"{k}={v}" for k, v in env.items()),
             f"ops attempted={record['attempted']} failed={record['failed']} "
             f"failed_frac={record['failed_frac']!r} timed_s={record['timed_s']:.2f}",
             "phases_s " + " ".join(f"{k}={v:.2f}" for k, v in record["phases_s"].items())]
    for name, value in record["end_to_end"].items():
        lines.append(f"{name} = {value!r} {END_TO_END_UNITS[name]}")
    for name, value in record["latency"].items():
        unit = "ops" if name.endswith("_ops") else "1/s" if name == "rows_per_s" else "ms"
        lines.append(f"{name} = {value!r} {unit}")
    for name in ("rank_err", "analysis.ctrb_rank_err", "analysis.obsv_rank_err"):
        if name in record:
            lines.append(f"{name} = {record[name]!r} ranks")
    for name, value in {**record.get("per_layer", {}), **record.get("layers", {})}.items():
        lines.append(f"{name} = {value!r} {PER_LAYER_UNITS.get(name, '')}".rstrip())
    lines.extend(f"FAILED {failure}" for failure in record["failures"][:10])
    return "\n".join(lines)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=gen.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    try:
        record = run(args)
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    print(summary(record))
    if args.trace:
        metrics = {name: {"value": record["per_layer"][name], "unit": unit}
                   for name, unit in PER_LAYER_UNITS.items()}
    else:
        metrics = {name: {"value": record["end_to_end"][name], "unit": unit}
                   for name, unit in END_TO_END_UNITS.items()}
    print(json.dumps({"correct": record["failed"] == 0, "attempted": record["attempted"],
                      "failed": record["failed"], "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
