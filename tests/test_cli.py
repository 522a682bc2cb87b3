import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from tensorstate import BoundaryDataError, NumericOverflowError, cli, parse_system_file, step_discrete, vec
from tensorstate.cli import build_parser, main

SAMPLES = Path(__file__).resolve().parent.parent / "sample_systems"
DATA = Path(__file__).resolve().parent / "data"
SRC = Path(__file__).resolve().parent.parent / "src"


def tensor_doc(shape, data):
    return {"shape": list(shape), "data": list(data)}


def identity_doc():
    return {
        "time": "discrete",
        "state_shape": [2],
        "schedule": [{"start": 0, "A": tensor_doc([2, 2], [1, 0, 0, 1])}],
        "x0": tensor_doc([2], [1, 2]),
    }


def write_doc(path, doc):
    path.write_text(json.dumps(doc), encoding="utf-8")
    return str(path)


class TestSimulate:
    def test_discrete_identity(self, tmp_path, capsys):
        system = write_doc(tmp_path / "s.json", identity_doc())
        out = tmp_path / "traj.csv"
        code = main(["simulate", "--system", system, "--out", str(out), "--steps", "3"])
        assert code == 0
        lines = out.read_text(encoding="utf-8").splitlines()
        assert lines[0] == "t,x_0,x_1"
        assert len(lines) == 5
        assert all(line.endswith(",1,2") for line in lines[1:])
        stdout = capsys.readouterr().out
        assert "steps=3" in stdout
        assert "terminal_norm=" in stdout

    def test_continuous_exact_decay(self, tmp_path):
        out = tmp_path / "traj.csv"
        code = main(
            [
                "simulate",
                "--system", str(SAMPLES / "continuous_decay.json"),
                "--out", str(out),
                "--t-end", "1.0",
                "--h", "0.5",
                "--method", "exact",
            ]
        )
        assert code == 0
        last = out.read_text(encoding="utf-8").splitlines()[-1]
        t, x = (float(v) for v in last.split(","))
        assert t == 1.0
        assert abs(x - 0.36787944117144233) < 1e-15

    def test_t_end_below_1e_9_h_writes_two_rows(self, tmp_path):
        out = tmp_path / "traj.csv"
        argv = ["simulate", "--system", str(SAMPLES / "continuous_decay.json"), "--out", str(out),
                "--t-end", "1e-10", "--h", "1", "--method", "exact"]
        assert main(argv) == 0
        lines = out.read_text(encoding="utf-8").splitlines()
        assert lines[:2] == ["t,x_0", "0,1"] and len(lines) == 3
        t, x = (float(v) for v in lines[2].split(","))
        assert t == 1e-10 and x == pytest.approx(math.exp(-1e-10), rel=1e-12, abs=0)

    def test_matrix_state_matches_library(self, tmp_path):
        """CSV from the CLI equals five manual step_discrete applications."""
        sample = SAMPLES / "matrix_state.json"
        out = tmp_path / "traj.csv"
        assert main(["simulate", "--system", str(sample), "--out", str(out), "--steps", "5"]) == 0

        bundle = parse_system_file(sample)
        state = bundle.x0
        expected = [vec(state)]
        for n in range(5):
            u = bundle.input_signal.sample(n, bundle.system.input_shape)
            state, _ = step_discrete(bundle.system, state, u=u, n=n)
            expected.append(vec(state))

        rows = out.read_text(encoding="utf-8").splitlines()[1:]
        assert len(rows) == 6
        for row, want in zip(rows, expected):
            got = [float(v) for v in row.split(",")[1:]]
            assert got == list(want)

    def test_emit_output_columns(self, tmp_path):
        out = tmp_path / "traj.csv"
        code = main(
            [
                "simulate",
                "--system", str(SAMPLES / "discrete_pair.json"),
                "--out", str(out),
                "--steps", "2",
                "--emit-output",
            ]
        )
        assert code == 0
        lines = out.read_text(encoding="utf-8").splitlines()
        assert lines[0] == "t,x_0,x_1,y_0"
        # y = x_0 + x_1 for the sample's C = [1, 1]
        for line in lines[1:]:
            _, x0, x1, y0 = (float(v) for v in line.split(","))
            assert y0 == x0 + x1

    def test_deterministic_output(self, tmp_path):
        system = write_doc(tmp_path / "s.json", identity_doc())
        out1, out2 = tmp_path / "a.csv", tmp_path / "b.csv"
        assert main(["simulate", "--system", system, "--out", str(out1), "--steps", "4"]) == 0
        assert main(["simulate", "--system", system, "--out", str(out2), "--steps", "4"]) == 0
        assert out1.read_bytes() == out2.read_bytes()

    def test_steps_required_for_discrete(self, tmp_path, capsys):
        system = write_doc(tmp_path / "s.json", identity_doc())
        code = main(["simulate", "--system", system, "--out", str(tmp_path / "o.csv")])
        assert code == 1
        assert "steps" in capsys.readouterr().err

    def test_continuous_flags_rejected_for_discrete(self, tmp_path, capsys):
        system = write_doc(tmp_path / "s.json", identity_doc())
        code = main(
            ["simulate", "--system", system, "--out", str(tmp_path / "o.csv"),
             "--steps", "2", "--t-end", "1.0"]
        )
        assert code == 1
        assert "error:" in capsys.readouterr().err

    def test_steps_rejected_for_continuous(self, tmp_path, capsys):
        code = main(
            ["simulate", "--system", str(SAMPLES / "continuous_decay.json"),
             "--out", str(tmp_path / "o.csv"), "--steps", "3"]
        )
        assert code == 1

    def test_steps_with_t_end_rejected_for_continuous(self, tmp_path, capsys):
        code = main(
            ["simulate", "--system", str(SAMPLES / "continuous_decay.json"),
             "--out", str(tmp_path / "o.csv"), "--t-end", "1.0", "--steps", "3"]
        )
        assert code == 1
        assert "simulate: --steps applies to discrete systems only" in capsys.readouterr().err
        assert not (tmp_path / "o.csv").exists()

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("time, flags, message", [
        ("discrete", ["--steps", "5"], "error: state became non-finite at step 1\n"),
        ("continuous", ["--t-end", "1", "--method", "exact"],
         "error: state became non-finite at t=0.001\n"),
        ("continuous", ["--t-end", "1000", "--h", "10", "--method", "exact"],
         "error: state became non-finite at t=10\n"),
    ], ids=["discrete", "exact", "exact-exponent-overflow"])
    def test_overflow_prints_one_line(self, tmp_path, capsys, time, flags, message):
        """No numpy overflow warning precedes the error line (the warnings
        filter turns one into an exception)."""
        doc = {
            "time": time,
            "state_shape": [1],
            "schedule": [{"start": 0, "A": tensor_doc([1, 1], [1e308])}],
            "x0": tensor_doc([1], [1e308]),
        }
        system = write_doc(tmp_path / "s.json", doc)
        out = tmp_path / "o.csv"
        assert main(["simulate", "--system", system, "--out", str(out), *flags]) == 2
        assert capsys.readouterr().err == message
        assert not out.exists()

    @pytest.mark.filterwarnings("ignore:overflow")
    def test_overflow_exit_2(self, tmp_path, capsys):
        doc = {
            "time": "discrete",
            "state_shape": [1],
            "schedule": [{"start": 0, "A": tensor_doc([1, 1], [1e308])}],
            "x0": tensor_doc([1], [1e308]),
        }
        system = write_doc(tmp_path / "s.json", doc)
        code = main(["simulate", "--system", system, "--out", str(tmp_path / "o.csv"), "--steps", "3"])
        assert code == 2
        err = capsys.readouterr().err
        assert "error:" in err
        assert "step 1" in err

    @pytest.mark.filterwarnings("ignore:overflow")
    def test_output_overflow_exit_2(self, tmp_path, capsys):
        """A finite state whose output C·x overflows is a numeric error too."""
        doc = {
            "time": "discrete",
            "state_shape": [1],
            "output_shape": [1],
            "schedule": [{"start": 0, "A": tensor_doc([1, 1], [1]), "C": tensor_doc([1, 1], [10])}],
            "x0": tensor_doc([1], [1e308]),
        }
        system = write_doc(tmp_path / "s.json", doc)
        argv = ["simulate", "--system", system, "--out", str(tmp_path / "o.csv"),
                "--steps", "2", "--emit-output"]
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert "error: output became non-finite at step 0" in captured.err
        assert captured.out == ""

    def test_terminal_norm_of_huge_finite_state(self, tmp_path, capsys):
        doc = {
            "time": "discrete",
            "state_shape": [1],
            "schedule": [{"start": 0, "A": tensor_doc([1, 1], [1])}],
            "x0": tensor_doc([1], [1e308]),
        }
        system = write_doc(tmp_path / "s.json", doc)
        assert main(["simulate", "--system", system, "--out", str(tmp_path / "o.csv"), "--steps", "2"]) == 0
        fields = dict(item.split("=") for item in capsys.readouterr().out.split())
        assert float(fields["terminal_norm"]) == 1e308

    def test_terminal_norm_past_the_double_range_is_inf(self, tmp_path, capsys):
        """Each entry is finite, but the 2-norm, about 2.1e308, is not a double."""
        doc = {
            "time": "discrete",
            "state_shape": [2],
            "schedule": [{"start": 0, "A": tensor_doc([2, 2], [1, 0, 0, 1])}],
            "x0": tensor_doc([2], [1.5e308, 1.5e308]),
        }
        system = write_doc(tmp_path / "s.json", doc)
        assert main(["simulate", "--system", system, "--out", str(tmp_path / "o.csv"), "--steps", "1"]) == 0
        assert capsys.readouterr().out == "steps=1 terminal_norm=inf\n"

    @pytest.mark.parametrize("x0, expected", [([1e-200], 1e-200), ([3e-170, 4e-170], 5e-170)])
    def test_terminal_norm_of_tiny_nonzero_state(self, tmp_path, capsys, x0, expected):
        """Squares of entries below about 1e-154 underflow to 0, so the
        plain 2-norm of such a state reads 0."""
        q = len(x0)
        doc = {
            "time": "discrete",
            "state_shape": [q],
            "schedule": [{"start": 0, "A": tensor_doc([q, q], np.eye(q).ravel().tolist())}],
            "x0": tensor_doc([q], x0),
        }
        system = write_doc(tmp_path / "s.json", doc)
        assert main(["simulate", "--system", system, "--out", str(tmp_path / "o.csv"), "--steps", "2"]) == 0
        fields = dict(item.split("=") for item in capsys.readouterr().out.split())
        assert float(fields["terminal_norm"]) == pytest.approx(expected, rel=1e-15, abs=0)

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("x0, expected", [
        ([3e-162, 4e-162], "steps=1 terminal_norm=5.0000000000000001e-162\n"),
        ([1e-160, 1e-160], math.sqrt(2) * 1e-160),
    ], ids=["3-4-5", "sqrt2"])
    def test_terminal_norm_of_partly_underflowing_squares(self, tmp_path, capsys, x0, expected):
        """Squares near 1e-320 are subnormal and lose digits, so the plain
        2-norm of these states is wrong from the second and the sixth digit
        on, though it is neither 0 nor inf."""
        doc = {
            "time": "discrete",
            "state_shape": [2],
            "schedule": [{"start": 0, "A": tensor_doc([2, 2], [1, 0, 0, 1])}],
            "x0": tensor_doc([2], x0),
        }
        system = write_doc(tmp_path / "s.json", doc)
        assert main(["simulate", "--system", system, "--out", str(tmp_path / "o.csv"), "--steps", "1"]) == 0
        out = capsys.readouterr().out
        if isinstance(expected, str):
            assert out == expected
        else:
            assert float(out.split("terminal_norm=")[1]) == pytest.approx(expected, rel=1e-15, abs=0)

    @pytest.mark.parametrize("flags, message", [
        (["--steps", str(10**12)], "error: steps 1000000000000 needs "),
        (["--t-end", "1", "--h", "1e-12"], "error: h 1e-12 needs "),
    ])
    def test_oversized_grid_exit_1(self, tmp_path, capsys, flags, message):
        name = "discrete_pair.json" if flags[0] == "--steps" else "continuous_decay.json"
        out = tmp_path / "o.csv"
        code = main(["simulate", "--system", str(SAMPLES / name), "--out", str(out), *flags])
        assert code == 1
        assert capsys.readouterr().err.startswith(message)
        assert not out.exists()

    def test_rk4_step_that_grows_a_decaying_mode_exit_1(self, tmp_path, capsys):
        """x' = -100·x decays, but an RK4 step of 0.05 multiplies it by R(-5) = 13.7."""
        out = tmp_path / "o.csv"
        code = main(["simulate", "--system", str(DATA / "stiff_decay.json"), "--out", str(out),
                     "--t-end", "1", "--h", "0.05", "--method", "rk4"])
        assert code == 1
        assert capsys.readouterr().err == (
            "error: segment 0: rk4 steps of h 0.05 grow its decaying mode lambda=-100.0 by "
            "|R(h*lambda)|=13.708333333333337 per step; h <= 0.027852935634052813 keeps that mode, "
            "or use --method exact\n")
        assert not out.exists()
        assert main(["simulate", "--system", str(DATA / "stiff_decay.json"), "--out", str(out),
                     "--t-end", "1", "--h", "0.05", "--method", "exact"]) == 0

    def test_rk4_step_that_grows_a_marginal_mode_exit_1(self, tmp_path, capsys):
        """x'' = -x keeps |x| = 1, but an RK4 step of 3 multiplies it by |R(3i)| = 1.5."""
        out = tmp_path / "o.csv"
        code = main(["simulate", "--system", str(DATA / "oscillator.json"), "--out", str(out),
                     "--t-end", "30", "--h", "3", "--method", "rk4"])
        assert code == 1
        err = capsys.readouterr().err
        assert err.count("\n") == 1
        assert err.startswith("error: segment 0: rk4 steps of h 3.0 grow its marginal mode lambda=")
        assert not out.exists()

    def test_default_step_underflow_exit_1(self, tmp_path, capsys):
        out = tmp_path / "o.csv"
        code = main(["simulate", "--system", str(SAMPLES / "continuous_decay.json"), "--out", str(out),
                     "--t-end", "5e-324"])
        assert code == 1
        assert capsys.readouterr().err == (
            "error: t_end 5e-324 makes the default step t_end/1000 underflow to 0; pass h\n")
        assert not out.exists()

    def test_multirate_file_rejected(self, tmp_path, capsys):
        code = main(
            ["simulate", "--system", str(SAMPLES / "multirate_clocks.json"),
             "--out", str(tmp_path / "o.csv"), "--steps", "3"]
        )
        assert code == 1
        assert "multirate" in capsys.readouterr().err


class TestAnalyze:
    def analyze_doc(self):
        return {
            "time": "discrete",
            "state_shape": [2],
            "input_shape": [2],
            "output_shape": [2],
            "schedule": [
                {
                    "start": 0,
                    "A": tensor_doc([2, 2], [0.5, 0, 0, 0.5]),
                    "B": tensor_doc([2, 2], [1, 0, 0, 1]),
                    "C": tensor_doc([2, 2], [1, 0, 0, 1]),
                }
            ],
            "x0": tensor_doc([2], [0, 0]),
        }

    def test_report_to_stdout(self, tmp_path, capsys):
        system = write_doc(tmp_path / "s.json", self.analyze_doc())
        assert main(["analyze", "--system", system]) == 0
        assert capsys.readouterr().out == (
            "state_dim=2\n"
            "spectral_radius=0.5\n"
            "stability=stable\n"
            "controllability_rank=2\n"
            "observability_rank=2\n"
        )

    def test_report_to_file(self, tmp_path, capsys):
        system = write_doc(tmp_path / "s.json", self.analyze_doc())
        out = tmp_path / "report.txt"
        assert main(["analyze", "--system", system, "--out", str(out)]) == 0
        assert "spectral_radius=0.5" in out.read_text(encoding="utf-8")
        assert capsys.readouterr().out == ""

    def test_marginal_identity(self, tmp_path, capsys):
        system = write_doc(tmp_path / "s.json", identity_doc())
        assert main(["analyze", "--system", system]) == 0
        assert "stability=marginal" in capsys.readouterr().out

    def test_defective_boundary_line(self, tmp_path, capsys):
        doc = identity_doc()
        doc["schedule"][0]["A"] = tensor_doc([2, 2], [1, 1, 0, 1])
        system = write_doc(tmp_path / "s.json", doc)
        assert main(["analyze", "--system", system]) == 0
        assert capsys.readouterr().out == (
            "state_dim=2\n"
            "spectral_radius=1\n"
            "stability=unstable\n"
            "defective_boundary=true\n"
        )

    @pytest.mark.parametrize("flag,name", [("--epsilon", "epsilon"), ("--rank-tol", "rel_tol")])
    @pytest.mark.parametrize("value", ["nan", "inf", "-1"])
    def test_bad_tolerance_exit_1(self, tmp_path, capsys, flag, name, value):
        out = tmp_path / "report.txt"
        code = main(["analyze", "--system", str(SAMPLES / "discrete_pair.json"),
                     "--out", str(out), flag, value])
        assert code == 1
        fault = " must be >= 0, got -1.0" if value == "-1" else ": number out of the finite double range"
        assert capsys.readouterr().err == f"error: {name}{fault}\n"
        assert not out.exists()

    def test_time_varying_exit_1(self, tmp_path, capsys):
        doc = identity_doc()
        doc["schedule"].append({"start": 4, "A": tensor_doc([2, 2], [1, 0, 0, 1])})
        system = write_doc(tmp_path / "s.json", doc)
        assert main(["analyze", "--system", system]) == 1
        assert "analysis requires time-invariant system" in capsys.readouterr().err


class TestMultirate:
    def test_worked_grid(self, tmp_path, capsys):
        out = tmp_path / "grid.csv"
        code = main(
            ["multirate", "--system", str(SAMPLES / "multirate_clocks.json"),
             "--out", str(out), "--horizon", "6"]
        )
        assert code == 0
        assert "ticks=6 d=6" in capsys.readouterr().out
        lines = out.read_text(encoding="utf-8").splitlines()
        assert lines[0] == "# d=6 f=3,2"
        assert lines[1] == "t,x_1,x_2"
        column = [line.split(",")[1] for line in lines[2:]]
        assert column == ["0", "4", "5", "10", "6", "16", "11"]

    def test_missing_boundary_exit_2(self, tmp_path, capsys):
        doc = {
            "kind": "multirate",
            "A": [[1, 1], [0, 1]],
            "clocks": [2, 3],
            "boundary": {"kind": "table", "values": [[0, 0.0], [2, 1.0]]},
        }
        system = write_doc(tmp_path / "m.json", doc)
        code = main(["multirate", "--system", system, "--out", str(tmp_path / "o.csv"),
                     "--horizon", "1"])
        assert code == 2
        err = capsys.readouterr().err
        assert "process 1" in err
        assert "index 3" in err

    def test_tensor_file_rejected(self, tmp_path, capsys):
        system = write_doc(tmp_path / "s.json", identity_doc())
        code = main(["multirate", "--system", system, "--out", str(tmp_path / "o.csv"),
                     "--horizon", "2"])
        assert code == 1

    def test_negative_horizon_exit_1(self, tmp_path):
        code = main(
            ["multirate", "--system", str(SAMPLES / "multirate_clocks.json"),
             "--out", str(tmp_path / "o.csv"), "--horizon", "-1"]
        )
        assert code == 1

    def test_oversized_horizon_exit_1(self, tmp_path, capsys):
        out = tmp_path / "o.csv"
        code = main(
            ["multirate", "--system", str(SAMPLES / "multirate_clocks.json"),
             "--out", str(out), "--horizon", str(10**12)]
        )
        assert code == 1
        assert "horizon 1000000000000 needs" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("boundary", [{"kind": "constant", "value": 1.0}, {"kind": "index"}],
                             ids=["constant", "index"])
    def test_ticks_past_double_range_exit_1(self, tmp_path, capsys, boundary):
        """d = 3 * (10^308 + 1): tick 2, index 2d, has no double; tick 0 does."""
        doc = {"kind": "multirate", "A": [[0.5, 0.1], [0.2, 0.3]],
               "clocks": [10**308 + 1, 3], "boundary": boundary}
        system = write_doc(tmp_path / "m.json", doc)
        out = tmp_path / "o.csv"
        code = main(["multirate", "--system", system, "--out", str(out), "--horizon", "2"])
        assert code == 1
        assert capsys.readouterr().err == (
            f"error: horizon 2 times d={3 * 10**308 + 3} is past the largest double "
            "(1.7976931348623157e+308), so the ticks cannot be written\n"
        )
        assert not out.exists()
        assert main(["multirate", "--system", system, "--out", str(out), "--horizon", "0"]) == 0
        assert out.read_text(encoding="utf-8").splitlines()[2].startswith("0,")

    def test_overflow_exit_2_writes_nothing(self, tmp_path, capsys):
        doc = {
            "kind": "multirate",
            "A": [[1e300, 1e300], [1e300, 1e300]],
            "clocks": [2, 3],
            "boundary": {"kind": "constant", "value": 1e300},
        }
        system = write_doc(tmp_path / "m.json", doc)
        out = tmp_path / "o.csv"
        code = main(["multirate", "--system", system, "--out", str(out), "--horizon", "4"])
        assert code == 2
        assert capsys.readouterr().err == (
            "error: state of process 1 became non-finite at tick 1 (index 6)\n"
        )
        assert not out.exists()


class TestRepeatedCalls:
    """main() reuses one parser; no call's flags leak into the next."""

    def test_emit_output_does_not_stick(self, tmp_path):
        pair = str(SAMPLES / "discrete_pair.json")
        with_y, without_y = tmp_path / "a.csv", tmp_path / "b.csv"
        argv = ["simulate", "--system", pair, "--steps", "2", "--out"]
        assert main(argv + [str(with_y), "--emit-output"]) == 0
        assert main(argv + [str(without_y)]) == 0
        assert with_y.read_text(encoding="utf-8").startswith("t,x_0,x_1,y_0\n")
        assert without_y.read_text(encoding="utf-8").startswith("t,x_0,x_1\n")

    def test_good_call_after_bad_flag(self, tmp_path, capsys):
        system = write_doc(tmp_path / "s.json", identity_doc())
        argv = ["simulate", "--system", system, "--out", str(tmp_path / "o.csv"), "--steps", "1"]
        assert main(argv + ["--plot"]) == 1
        assert main(argv) == 0
        assert capsys.readouterr().err == "error: unrecognized arguments: --plot\n"

    def test_analyze_then_multirate(self, tmp_path, capsys):
        assert main(["analyze", "--system", str(SAMPLES / "discrete_pair.json")]) == 0
        assert capsys.readouterr().out.startswith("state_dim=2\n")
        out = tmp_path / "grid.csv"
        assert main(["multirate", "--system", str(SAMPLES / "multirate_clocks.json"),
                     "--out", str(out), "--horizon", "6"]) == 0
        assert capsys.readouterr().out == "ticks=6 d=6\n"
        assert out.read_text(encoding="utf-8").startswith("# d=6 f=3,2\n")

    def test_build_parser_returns_a_new_parser(self):
        assert build_parser() is not build_parser()


@pytest.mark.parametrize("module", ["tensorstate", "tensorstate.cli"])
class TestRunAsModule:
    """`python -m tensorstate` and `python -m tensorstate.cli` run the CLI."""

    @staticmethod
    def run(module, *args, cwd):
        env = dict(os.environ, PYTHONPATH=os.pathsep.join([str(SRC), os.environ.get("PYTHONPATH", "")]))
        return subprocess.run([sys.executable, "-m", module, *args], cwd=cwd, env=env,
                              capture_output=True, text=True, timeout=120)

    def test_writes_the_golden_trajectory(self, module, tmp_path):
        done = self.run(module, "simulate", "--system", str(SAMPLES / "discrete_pair.json"),
                        "--out", "traj.csv", "--steps", "20", cwd=tmp_path)
        assert done.returncode == 0, done.stderr
        assert done.stdout.startswith("steps=20 ")
        assert (tmp_path / "traj.csv").read_bytes() == (DATA / "discrete_pair_steps20.csv").read_bytes()

    def test_missing_system_file(self, module, tmp_path):
        done = self.run(module, "simulate", "--system", "nope.json", "--out", "traj.csv",
                        "--steps", "20", cwd=tmp_path)
        assert done.returncode == 1
        assert done.stderr.startswith("error: ") and "nope.json" in done.stderr
        assert not (tmp_path / "traj.csv").exists()


class TestBadInvocations:
    def test_malformed_file(self, tmp_path, capsys):
        path = tmp_path / "bad.json"
        path.write_text("{not json", encoding="utf-8")
        code = main(["simulate", "--system", str(path), "--out", str(tmp_path / "o.csv"),
                     "--steps", "1"])
        assert code == 1
        assert "error:" in capsys.readouterr().err

    def test_missing_file(self, tmp_path, capsys):
        code = main(["simulate", "--system", str(tmp_path / "nope.json"),
                     "--out", str(tmp_path / "o.csv"), "--steps", "1"])
        assert code == 1

    def test_unknown_flag(self, tmp_path, capsys):
        system = write_doc(tmp_path / "s.json", identity_doc())
        code = main(["simulate", "--system", system, "--out", str(tmp_path / "o.csv"),
                     "--steps", "1", "--plot"])
        assert code == 1

    def test_no_command(self, capsys):
        assert main([]) == 1

    @pytest.mark.parametrize(
        "literal", ["1e400", "-1e400", "1" + "0" * 400], ids=["inf", "-inf", "huge-int"]
    )
    def test_overflowing_start_names_field(self, tmp_path, capsys, literal):
        path = tmp_path / "s.json"
        path.write_text(json.dumps(identity_doc()).replace('"start": 0', f'"start": {literal}'))
        code = main(["simulate", "--system", str(path), "--out", str(tmp_path / "o.csv"),
                     "--steps", "1"])
        assert code == 1
        assert "schedule[0].start" in capsys.readouterr().err

    def test_overflowing_boundary_names_field(self, tmp_path, capsys):
        doc = {"kind": "multirate", "A": [[1, 1], [0, 1]], "clocks": [2, 3],
               "boundary": {"kind": "constant", "value": 0}}
        path = tmp_path / "m.json"
        path.write_text(json.dumps(doc).replace('"value": 0', '"value": 1e400'))
        out = tmp_path / "o.csv"
        code = main(["multirate", "--system", str(path), "--out", str(out), "--horizon", "2"])
        assert code == 1
        assert "boundary.value" in capsys.readouterr().err
        assert not out.exists()

    def test_bad_method_choice(self, tmp_path):
        code = main(
            ["simulate", "--system", str(SAMPLES / "continuous_decay.json"),
             "--out", str(tmp_path / "o.csv"), "--t-end", "1", "--method", "euler"]
        )
        assert code == 1


def input_doc(signal):
    """A one-state discrete file with a scalar input driven by `signal`."""
    return {
        "time": "discrete",
        "state_shape": [1],
        "input_shape": [1],
        "schedule": [{"start": 0, "A": tensor_doc([1, 1], [1]), "B": tensor_doc([1, 1], [1])}],
        "x0": tensor_doc([1], [0]),
        "input": signal,
    }


def multirate_doc(**fields):
    return {"kind": "multirate", "A": [[1, 1], [0, 1]], "clocks": [2, 3],
            "boundary": {"kind": "index"}, **fields}


class TestParseErrorMessages:
    """One malformed file per ParseError the parser can raise: exit 1 and
    exactly one stderr line, the message naming the field after the path."""

    CASES = [
        ("top-level", "[]", ": expected a top-level object"),
        ("segment-object", {**identity_doc(), "schedule": [5]},
         ".schedule[0]: expected an object, got int"),
        ("time", {**identity_doc(), "time": "hybrid"},
         ".time: expected 'discrete' or 'continuous', got 'hybrid'"),
        ("shape-empty", {**identity_doc(), "state_shape": []},
         ".state_shape: expected a non-empty list of mode sizes"),
        ("shape-mode", {**identity_doc(), "state_shape": [0]},
         ".state_shape: mode sizes must be integers >= 1, got 0"),
        ("schedule-empty", {**identity_doc(), "schedule": []},
         ".schedule: expected a non-empty list of segments"),
        ("coefficient-shape", {**identity_doc(), "state_shape": [3]},
         ".schedule: segment 0: coefficient A has shape [2, 2], expected [3, 3] "
         "(state_shape + state_shape)"),
        ("schedule-start", {**identity_doc(), "schedule": [
            {"start": 1, "A": tensor_doc([2, 2], [1, 0, 0, 1])}]},
         ".schedule: schedule must start at 0, got first key 1.0"),
        ("data-list", {**identity_doc(), "x0": {"shape": [2], "data": 5}},
         ".x0.data: expected a list of numbers"),
        ("x0-shape", {**identity_doc(), "x0": tensor_doc([1, 2], [1, 2])},
         ".x0: shape [1, 2] does not match state_shape [2]"),
        ("zero-extra", input_doc({"kind": "zero", "samples": []}),
         ".input: kind 'zero' takes no other fields"),
        ("constant-field", input_doc({"kind": "constant", "samples": []}),
         ".input: kind 'constant' needs exactly the field 'value'"),
        ("constant-shape", input_doc({"kind": "constant", "value": tensor_doc([2], [1, 2])}),
         ".input.value: shape [2] does not match input_shape [1]"),
        ("number-before-shape", input_doc({"kind": "constant", "value": tensor_doc([2], ["x", 2])}),
         ".input.value.data: expected a number, got 'x'"),
        ("table-field", input_doc({"kind": "table", "value": tensor_doc([1], [1])}),
         ".input: kind 'table' needs exactly the field 'samples'"),
        ("samples-empty", input_doc({"kind": "table", "samples": []}),
         ".input.samples: expected a non-empty list of [when, tensor] pairs"),
        ("samples-pair", input_doc({"kind": "table", "samples": [[0]]}),
         ".input.samples[0]: expected a [when, tensor] pair"),
        ("samples-shape", input_doc({"kind": "table", "samples": [
            [0, tensor_doc([1], [1])], [1, tensor_doc([1, 1], [1])]]}),
         ".input.samples[1]: shape [1, 1] does not match input_shape [1]"),
        ("signal-kind", input_doc({"kind": ["zero"]}),
         ".input.kind: expected 'zero', 'constant', or 'table', got ['zero']"),
        ("matrix-empty", multirate_doc(A=[]), ".A: expected a non-empty list of rows"),
        ("matrix-row", multirate_doc(A=[1]), ".A[0]: expected a list of numbers"),
        ("matrix-width", multirate_doc(A=[[1, 1], [1]]), ".A[1]: row length 1 != 2"),
        ("matrix-number", multirate_doc(A=[[1, 1], [0, None]]),
         ".A[1]: expected a number, got None"),
        ("clocks", multirate_doc(clocks=[2, "3"]), ".clocks: expected a list of integers"),
        ("process-constant", multirate_doc(boundary={"kind": "constant"}),
         ".boundary: kind 'constant' needs exactly the field 'value'"),
        ("process-index", multirate_doc(B=[[1], [0]], input={"kind": "index", "value": 1}),
         ".input: kind 'index' takes no other fields"),
        ("process-table", multirate_doc(boundary={"kind": "table", "value": 1}),
         ".boundary: kind 'table' needs exactly the field 'values'"),
        ("values-empty", multirate_doc(boundary={"kind": "table", "values": []}),
         ".boundary.values: expected a non-empty list of [index, value] pairs"),
        ("values-pair", multirate_doc(boundary={"kind": "table", "values": [[0, 1], [1]]}),
         ".boundary.values[1]: expected an [index, value] pair"),
        ("values-index", multirate_doc(boundary={"kind": "table", "values": [[-1, 0]]}),
         ".boundary.values[0]: index must be an integer >= 0, got -1"),
        ("process-kind", multirate_doc(boundary=[{"kind": "index"}, {"kind": {"a": 1}}]),
         ".boundary[1].kind: expected 'constant', 'index', or 'table', got {'a': 1}"),
    ]

    @pytest.mark.parametrize("doc, suffix", [case[1:] for case in CASES],
                             ids=[case[0] for case in CASES])
    def test_exit_1_with_one_line(self, tmp_path, capsys, doc, suffix):
        path = tmp_path / "s.json"
        path.write_text(doc if isinstance(doc, str) else json.dumps(doc), encoding="utf-8")
        out = tmp_path / "o.csv"
        if isinstance(doc, dict) and doc.get("kind") == "multirate":
            argv = ["multirate", "--system", str(path), "--out", str(out), "--horizon", "2"]
        else:
            argv = ["simulate", "--system", str(path), "--out", str(out), "--steps", "1"]
        assert main(argv) == 1
        assert capsys.readouterr().err == f"error: {path}{suffix}\n"
        assert not out.exists()

    def test_tensor_past_numpy_dimension_limit(self, tmp_path, capsys):
        """numpy holds at most 64 modes; the tensor that has more is named."""
        doc = {**identity_doc(), "state_shape": [1] * 33,
               "schedule": [{"start": 0, "A": tensor_doc([1] * 66, [1])}]}
        path = write_doc(tmp_path / "s.json", doc)
        assert main(["analyze", "--system", path]) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error: {path}.schedule[0].A: ")
        assert err.count("\n") == 1


class TestBadFiles:
    """A system file that json.loads, the UTF-8 decoder or the parser refuses, or a path
    that is no file: exit 1, one stderr line naming the path, no output."""

    CASES = [
        ("nested-brackets", ("[" * 100000 + "]" * 100000).encode(),
         ": invalid JSON: nested deeper than the decoder's recursion limit"),
        ("nested-data", json.dumps(identity_doc()).replace("[1, 2]", "[" * 2000 + "]" * 2000).encode(),
         ": invalid JSON: nested deeper than the decoder's recursion limit"),
        ("not-utf8", bytes.fromhex("fffe7b7d"), ": invalid UTF-8 at byte 0: invalid start byte"),
        ("5000-digit-start",
         json.dumps(identity_doc(), indent=1).replace('"start": 0', '"start": -' + "9" * 5000).encode(),
         ": invalid JSON at line 8 column 13: integer literal past the double range"),
        ("utf8-bom", b"\xef\xbb\xbf" + json.dumps(identity_doc()).encode(),
         ": invalid JSON at line 1 column 1: Unexpected UTF-8 BOM (decode using utf-8-sig)"),
        ("nan-literal", json.dumps(identity_doc()).replace('"data": [1, 2]', '"data": [NaN, 2]').encode(),
         ": non-finite number literal 'NaN' not allowed"),
        ("truncated", json.dumps(identity_doc())[:40].encode(), ": invalid JSON at line 1 column "),
        ("directory", "mkdir", ": Is a directory"),
        ("missing", None, ": No such file or directory"),
    ]

    @pytest.mark.parametrize("content, message", [case[1:] for case in CASES],
                             ids=[case[0] for case in CASES])
    def test_exit_1_with_one_line_naming_the_path(self, tmp_path, capsys, content, message):
        path = tmp_path / "s.json"
        if content == "mkdir":
            path.mkdir()
        elif content is not None:
            path.write_bytes(content)
        out = tmp_path / "o.csv"
        assert main(["simulate", "--system", str(path), "--out", str(out), "--steps", "1"]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1 and err.endswith("\n")
        assert err.startswith(f"error: {path}{message}")
        assert not out.exists()

    def test_out_directory_names_the_path_first(self, tmp_path, capsys):
        """An OSError that carries a filename reads `error: <path>: <strerror>`."""
        out = tmp_path / "o.csv"
        out.mkdir()
        argv = ["simulate", "--system", str(SAMPLES / "discrete_pair.json"), "--out", str(out), "--steps", "1"]
        assert main(argv) == 1
        assert capsys.readouterr() == ("", f"error: {out}: Is a directory\n")

    def test_long_value_is_quoted_short(self, tmp_path, monkeypatch, capsys):
        """A list of 100000 numbers where a number belongs is quoted cut
        after six items, so the one stderr line stays short."""
        doc = json.loads((SAMPLES / "discrete_pair.json").read_text(encoding="utf-8"))
        doc["x0"]["data"] = [list(range(100000)), 1.0]
        monkeypatch.chdir(tmp_path)
        write_doc(tmp_path / "s.json", doc)
        assert main(["simulate", "--system", "s.json", "--out", "o.csv", "--steps", "1"]) == 1
        err = capsys.readouterr().err
        assert err == "error: s.json.x0.data: expected a number, got [0, 1, 2, 3, 4, 5, ...]\n"
        assert len(err.encode()) < 200 and not (tmp_path / "o.csv").exists()


@pytest.mark.parametrize(
    "error, code",
    [
        (np.linalg.LinAlgError("SVD did not converge"), 1),
        (NumericOverflowError("state left the finite range"), 2),
        (BoundaryDataError(1, 3), 2),
    ],
    ids=["LinAlgError", "NumericOverflowError", "BoundaryDataError"],
)
def test_exit_code_by_base_class(monkeypatch, capsys, error, code):
    """main maps an error by its base class: any ValueError, LinAlgError
    among them, exits 1; the runtime numeric errors exit 2."""
    def fail(*args, **kwargs):
        raise error

    monkeypatch.setattr(cli, "analyze", fail)
    assert main(["analyze", "--system", str(SAMPLES / "discrete_pair.json")]) == code
    assert capsys.readouterr() == ("", f"error: {error}\n")
