"""Tests of the benchmark itself: seeded generation and the oracle gate.

    python3 -m pytest -q perfbench/test_perfbench.py

Every oracle must accept the program's real output and reject the same
output with one value changed by 1e-6 relative, so the correctness gate
cannot pass vacuously.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE), str(HERE.parent / "src")]

import gen  # noqa: E402
import oracles  # noqa: E402
import spans  # noqa: E402
from tensorstate.cli import main as cli_main  # noqa: E402


def digests(directory):
    return {p.name: hashlib.sha256(p.read_bytes()).hexdigest() for p in sorted(directory.iterdir())}


@pytest.mark.parametrize("workload", gen.WORKLOADS)
def test_generator_is_deterministic_per_seed(tmp_path, workload):
    first = gen.generate(workload, 7, tmp_path / "a")
    again = gen.generate(workload, 7, tmp_path / "b")
    other = gen.generate(workload, 8, tmp_path / "c")
    assert [c["args"] for c in first] == [c["args"] for c in again]
    assert digests(tmp_path / "a") == digests(tmp_path / "b")
    assert digests(tmp_path / "a") != digests(tmp_path / "c")
    assert len(first) == len(other)


def test_paired_workloads_share_files(tmp_path):
    gen.generate("continuous-exact", 3, tmp_path / "exact")
    gen.generate("continuous-rk4", 3, tmp_path / "rk4")
    assert digests(tmp_path / "exact") == digests(tmp_path / "rk4")


def run_case(case, out):
    argv = [case["args"][0], "--system", str(case["path"]), "--out", str(out)] + case["args"][1:]
    with contextlib.redirect_stdout(io.StringIO()):
        assert cli_main(argv) == 0
    return out.read_text(encoding="utf-8")


def csv_extract(text, expected):
    lines = text.split("\n")[:-1]
    return {"n_lines": len(lines), "lines": {str(i): lines[i] for i in expected.sample_lines()}}


def perturbed(line, column):
    values = line.split(",")
    values[column] = repr(float(values[column]) * (1 + 1e-6))
    return ",".join(values)


CSV_CASES = [("discrete-steps", 0), ("discrete-steps", 7), ("continuous-exact", 1),
             ("continuous-rk4", 0), ("large-simulate", 0), ("multirate-grid", 5)]


@pytest.mark.parametrize("workload,index", CSV_CASES)
def test_csv_oracle_accepts_output_and_rejects_one_perturbed_value(tmp_path, workload, index):
    case = gen.generate(workload, 11, tmp_path / "in")[index]
    expected = oracles.Expected(case)
    text = run_case(case, tmp_path / "out.csv")
    extract = csv_extract(text, expected)
    assert oracles.check_csv(expected, extract) == []
    sampled = expected.sample_lines()[len(expected.header_lines):]
    for line_index in (sampled[len(sampled) // 2], sampled[-1]):
        row = extract["lines"][str(line_index)].split(",")
        column = max(range(1, len(row)), key=lambda k: abs(float(row[k])))
        bad = dict(extract, lines=dict(extract["lines"]))
        bad["lines"][str(line_index)] = perturbed(extract["lines"][str(line_index)], column)
        assert oracles.check_csv(expected, bad), (line_index, column)


def test_csv_oracle_rejects_wrong_length_and_header(tmp_path):
    case = gen.generate("discrete-steps", 2, tmp_path / "in")[1]
    expected = oracles.Expected(case)
    extract = csv_extract(run_case(case, tmp_path / "out.csv"), expected)
    assert oracles.check_csv(expected, dict(extract, n_lines=extract["n_lines"] - 1))
    lines = dict(extract["lines"], **{"0": extract["lines"]["0"] + ",extra"})
    assert oracles.check_csv(expected, dict(extract, lines=lines))


def test_analyze_oracle_accepts_report_and_rejects_perturbed_radius(tmp_path):
    case = gen.generate("large-analyze", 5, tmp_path / "in")[0]
    expected = oracles.Expected(case)
    text = run_case(case, tmp_path / "report.txt")
    problems, ranks = oracles.check_report(expected, text)
    assert problems == []
    assert ranks["controllability_rank"][1] == gen.LARGE_CONTROLLABLE
    assert ranks["observability_rank"][1] == 256
    radius = float(oracles.parse_report(text)["spectral_radius"])
    bad = text.replace(f"spectral_radius={oracles.parse_report(text)['spectral_radius']}",
                       f"spectral_radius={radius * (1 + 1e-6)!r}")
    assert bad != text
    assert oracles.check_report(expected, bad)[0]
    assert oracles.check_report(expected, text.replace("stability=stable", "stability=marginal"))[0]


def pbh_count(a, b, tol=1e-8):
    """Modes that `b` reaches: eigenvectors v of `a` with |vᴴ b| > tol (the
    Popov-Belevitch-Hautus test, well conditioned for distinct eigenvalues)."""
    import numpy as np

    _, vectors = np.linalg.eig(a)
    vectors /= np.linalg.norm(vectors, axis=0)
    return int(np.count_nonzero(np.linalg.norm(vectors.conj().T @ b, axis=1) > tol))


def test_large_system_truth_holds_numerically(tmp_path):
    """The true values the analyze oracle uses hold for the generated matrices."""
    import numpy as np

    case = gen.generate("large-analyze", 1, tmp_path / "in")[0]
    model = oracles.Model(oracles.load(case["path"]))
    mats = model.segments[0]
    assert abs(np.abs(np.linalg.eigvals(mats["A"])).max() - gen.LARGE_RADIUS) < 1e-12
    assert pbh_count(mats["A"].T, mats["B"]) == gen.LARGE_CONTROLLABLE
    assert pbh_count(mats["A"], mats["C"].T) == 256


@pytest.mark.parametrize("sample", range(7))
def test_sample_systems_pass_their_oracles(tmp_path, sample):
    import run

    case = run.sample_cases()[sample]
    expected = oracles.Expected(case)
    text = run_case(case, tmp_path / "out.txt")
    if expected.kind == "analyze":
        assert oracles.check_report(expected, text)[0] == []
    else:
        assert oracles.check_csv(expected, csv_extract(text, expected)) == []


def test_self_time_subtracts_direct_children():
    table = spans.per_op([
        ["cli.main", 0, 100, None, 0],
        ["fileio.parse_system_file", 10, 40, 0, 0],
        ["systems.build_system", 20, 30, 1, 0],
        ["fileio.trajectory_csv", 50, 90, 0, 0],
    ])[0]
    assert table["cli.main"] == [100, 30, 1]
    assert table["fileio.parse_system_file"] == [30, 20, 1]
    assert table["systems.build_system"] == [10, 10, 1]
