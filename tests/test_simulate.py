import bisect
import math
import tracemalloc
import warnings

import numpy as np
import pytest

from tensorstate import (
    CoefficientSchedule,
    CoefficientSet,
    InputSignal,
    NumericOverflowError,
    ShapeError,
    Tensor,
    Trajectory,
    build_system,
    devec,
    make_tensor,
    matrix_exponential,
    simulate_continuous,
    simulate_discrete,
    solve_discrete_closed_form,
    step_discrete,
    vec,
    vector_twin,
)
from tensorstate import simulate
from tensorstate.systems import UnfoldedSystem


def scalar_system(a, time_kind="continuous"):
    return build_system(time_kind, (1,), CoefficientSet(A=make_tensor([1, 1], [a])))


def r1_system(a, b=None, time_kind="discrete"):
    a = np.atleast_2d(np.asarray(a, dtype=float))
    coeffs = {"A": Tensor.from_array(a)}
    input_shape = None
    if b is not None:
        b = np.atleast_2d(np.asarray(b, dtype=float))
        coeffs["B"] = Tensor.from_array(b)
        input_shape = (b.shape[1],)
    return build_system(
        time_kind, (a.shape[0],), CoefficientSet(**coeffs), input_shape=input_shape
    )


IDENTITY_1 = CoefficientSet(A=Tensor.identity([1]))


class TestInputSignal:
    def test_zero(self):
        u = InputSignal.zero()
        assert u.sample(3, (2, 2)) == Tensor.zeros([2, 2])

    def test_constant(self):
        u = InputSignal.constant(make_tensor([2], [1, 2]))
        assert u.sample(0, (2,)).tolist() == [1.0, 2.0]
        assert u.sample(99.5, (2,)).tolist() == [1.0, 2.0]
        with pytest.raises(ShapeError):
            u.sample(0, (3,))

    def test_table_hold(self):
        u = InputSignal.table([(0, [1.0]), (0.5, [2.0]), (1.0, [3.0])])
        assert u.sample(0, (1,)).tolist() == [1.0]
        assert u.sample(0.49, (1,)).tolist() == [1.0]
        assert u.sample(0.5, (1,)).tolist() == [2.0]
        assert u.sample(0.7, (1,)).tolist() == [2.0]
        assert u.sample(1.0, (1,)).tolist() == [3.0]
        assert u.sample(42.0, (1,)).tolist() == [3.0]
        assert u.keys == (0.0, 0.5, 1.0)

    @pytest.mark.parametrize("signal", [
        InputSignal.zero(),
        InputSignal.constant(make_tensor([], [2.0])),
        InputSignal.table([(0, make_tensor([], [1.0])), (0.5, make_tensor([], [-0.0]))]),
        InputSignal.table([(0, [[1.0, 2.0]]), (1, [[3.0, -0.0]]), (2.5, [[5e-324, 6.0]])]),
    ], ids=["zero", "scalar constant", "scalar table", "matrix table"])
    def test_values_are_the_values_at_the_keys(self, signal):
        for value, key in zip(signal.values, signal.keys, strict=True):
            expected = signal.at(key)
            assert (value is None) == (expected is None)
            if value is not None:
                assert value.shape == expected.shape and value.array.tobytes() == expected.array.tobytes()

    @pytest.mark.parametrize("signal", [
        InputSignal.constant(make_tensor([2], [1, 2])),
        InputSignal.table([(0, make_tensor([2], [1, 2])), (0.5, [3.0, -0.0])]),
    ], ids=["constant", "table"])
    def test_one_read_only_block(self, signal):
        """The rows the runs read and every value are read-only views of one block."""
        assert not signal._rows.flags.writeable
        with pytest.raises(ValueError):
            signal._rows[0, 0] = 5.0
        assert all(np.shares_memory(v.array, signal._rows) for v in signal.values)
        assert np.array_equal(signal._rows, [v.data for v in signal.values])

    def test_lookup_past_the_double_range(self):
        """A constant holds at an integer time past the double range, as a
        table's last value does; its negative is refused as a negative time."""
        value = make_tensor([2], [1, 2])
        assert InputSignal.constant(value).at(10**400) == value
        assert InputSignal.table([(0, [1.0]), (5, [2.0])]).at(10**400).tolist() == [2.0]
        with pytest.raises(ValueError, match="^constant input lookup requires when >= 0, got -inf$"):
            InputSignal.constant(value).at(-10**400)

    def test_table_validation(self):
        with pytest.raises(ValueError):
            InputSignal.table([])
        with pytest.raises(ValueError):
            InputSignal.table([(1, [1.0])])
        with pytest.raises(ValueError):
            InputSignal.table([(0, [1.0]), (0, [2.0])])
        with pytest.raises(ValueError):
            InputSignal.table([(0, [1.0]), (float("nan"), [2.0])])
        with pytest.raises(ShapeError):
            InputSignal.table([(0, [1.0]), (1, [2.0, 3.0])])

    @pytest.mark.parametrize("build, name", [
        (lambda key: InputSignal.table([(0, [1.0]), (key, [2.0])]), "input table"),
        (lambda key: CoefficientSchedule([(0, IDENTITY_1), (key, IDENTITY_1)]), "schedule"),
    ], ids=["input_table", "schedule"])
    @pytest.mark.parametrize("key, fault", [
        ("1", "expected a number, got '1'"),
        (True, "expected a number, got True"),
        (np.bool_(True), f"expected a number, got {np.bool_(True)!r}"),
        (None, "expected a number, got None"),
        (10**400, "number out of the finite double range"),
    ], ids=["str", "bool", "numpy-bool", "none", "huge-int"])
    def test_keys_must_be_real_numbers(self, build, name, key, fault):
        with pytest.raises(ValueError) as err:
            build(key)
        assert str(err.value) == f"{name} entry 1 key: {fault}"

    @pytest.mark.parametrize("key", [1, 1.0, np.int64(1), np.int8(1), np.float32(1.0), np.float64(1.0)])
    def test_python_and_numpy_numbers_are_keys(self, key):
        assert InputSignal.table([(0, [1.0]), (key, [2.0])]).keys == (0.0, 1.0)
        assert CoefficientSchedule([(0, IDENTITY_1), (key, IDENTITY_1)]).keys == (0.0, 1.0)

    @pytest.mark.parametrize("when", [-1, float("nan")])
    @pytest.mark.parametrize(
        "lookup, name",
        [
            (lambda when: CoefficientSchedule(CoefficientSet(A=Tensor.identity([1]))).at(when),
             "schedule"),
            (lambda when: InputSignal.table([(0, [1.0]), (2, [3.0])]).sample(when, (1,)),
             "input table"),
        ],
        ids=["schedule", "input_table"],
    )
    def test_bad_lookup_names_the_step_function(self, lookup, name, when):
        """Schedules and input tables share one step-function lookup, which
        rejects negative and NaN queries."""
        with pytest.raises(ValueError, match=f"^{name} lookup requires when >= 0, got {float(when)}$"):
            lookup(when)


@pytest.mark.parametrize("run", ["discrete", "closed-form", "rk4", "exact"])
class TestRunChecksTheSignal:
    """A signal checks its own values when it is built; a run checks the
    signal's one shape against the system's input shape once."""

    @staticmethod
    def go(run, u):
        """States of a run of a 2-state, 2-input system under the signal u."""
        time_kind = "continuous" if run in ("rk4", "exact") else "discrete"
        system = r1_system([[0.5, 0.1], [0.0, -0.3]], b=np.eye(2), time_kind=time_kind)
        x0 = make_tensor([2], [1.0, -2.0])
        if run == "discrete":
            return simulate_discrete(system, x0, 4, u=u).state_matrix()
        if run == "closed-form":
            return solve_discrete_closed_form(system, x0, 4, u=u).array
        return simulate_continuous(system, x0, 1.0, h=0.25, u=u, method=run).state_matrix()

    @pytest.mark.parametrize("signal", [
        InputSignal.constant(make_tensor([3], [1.0, 2.0, 3.0])),
        InputSignal.table([(0, [1.0, 2.0, 3.0]), (0.5, [4.0, 5.0, 6.0])]),
    ], ids=["constant", "table"])
    def test_wrong_shape_refused(self, run, signal):
        with pytest.raises(ShapeError, match=r"^input sample has shape \[3\], expected \[2\]$"):
            self.go(run, signal)

    def test_none_and_zero_signal_agree(self, run):
        assert np.array_equal(self.go(run, None), self.go(run, InputSignal.zero()))

    def test_run_does_not_sample_per_key(self, run, monkeypatch):
        signal = InputSignal.table([(0, [1.0, 2.0]), (0.5, [3.0, 4.0]), (2, [5.0, 6.0])])
        expected = self.go(run, signal)
        monkeypatch.setattr(InputSignal, "sample", None)
        assert np.array_equal(self.go(run, signal), expected)


class TestStepDiscrete:
    def test_identity(self):
        system = build_system("discrete", (2, 2), CoefficientSet(A=Tensor.identity([2, 2])))
        state = make_tensor([2, 2], [1, 2, 3, 4])
        nxt, out = step_discrete(system, state)
        assert nxt == state
        assert out == state

    def test_counting_tensor(self):
        system = build_system(
            "discrete", (2, 2), CoefficientSet(A=make_tensor([2, 2, 2, 2], range(1, 17)))
        )
        nxt, _ = step_discrete(system, Tensor.identity([2]))
        assert nxt.array.tolist() == [[5.0, 13.0], [21.0, 29.0]]

    def test_permutation(self):
        system = r1_system([[0, 1], [1, 0]])
        nxt, _ = step_discrete(system, make_tensor([2], [1, 0]))
        assert nxt.tolist() == [0.0, 1.0]

    def test_output_coupling(self):
        coeffs = CoefficientSet(
            A=Tensor.identity([2]),
            B=make_tensor([2, 1], [1, 0]),
            C=make_tensor([1, 2], [1, 1]),
            D=make_tensor([1, 1], [2.0]),
        )
        system = build_system("discrete", (2,), coeffs, input_shape=(1,), output_shape=(1,))
        _, out = step_discrete(system, make_tensor([2], [3, 4]), u=make_tensor([1], [5.0]))
        assert out.tolist() == [3.0 + 4.0 + 2.0 * 5.0]

    def test_input_required(self):
        system = r1_system(np.eye(2), b=np.eye(2))
        with pytest.raises(ValueError):
            step_discrete(system, make_tensor([2], [1, 2]))

    def test_input_rejected_without_declaration(self):
        system = r1_system(np.eye(2))
        with pytest.raises(ValueError):
            step_discrete(system, make_tensor([2], [1, 2]), u=make_tensor([2], [0, 0]))

    def test_state_shape_checked(self):
        system = r1_system(np.eye(2))
        with pytest.raises(ShapeError):
            step_discrete(system, make_tensor([3], [1, 2, 3]))

    def test_wrong_time_kind(self):
        system = scalar_system(-1.0)
        with pytest.raises(ValueError):
            step_discrete(system, make_tensor([1], [1.0]))

    @pytest.mark.parametrize("n, message", [
        (2.5, "^n must be an integer, got 2.5$"),
        (3.0, "^n must be an integer, got 3.0$"),
        (-1, "^n must be >= 0, got -1$"),
    ])
    def test_step_index_is_an_integer_from_0(self, n, message):
        """n is read like every integer argument: a float is not truncated
        or used as a time, and a negative n is refused by name."""
        system = build_system("discrete", (1,), [(0, CoefficientSet(A=make_tensor([1, 1], [2.0]))),
                                                 (2, CoefficientSet(A=make_tensor([1, 1], [3.0])))])
        with pytest.raises(ValueError, match=message):
            step_discrete(system, make_tensor([1], [1.0]), n=n)

    @pytest.mark.parametrize("n", [np.int64(3), np.int32(1), np.uint8(0)])
    def test_numpy_integer_step_index(self, n):
        """A numpy integer gives the bits of the plain int, in the segment
        it indexes."""
        rng = np.random.default_rng(5)
        system = layout_system(rng, [0, 2], ["CD", "C"])
        x, u = Tensor.from_array(rng.normal(size=(2, 2))), Tensor.from_array(rng.normal(size=2))
        got, want = step_discrete(system, x, u, n), step_discrete(system, x, u, int(n))
        assert all(same_bits(a.array, b.array) for a, b in zip(got, want))
        other = step_discrete(system, x, u, 2 if n < 2 else 0)  # a step in the other segment
        assert not np.array_equal(got[0].array, other[0].array)

    def test_step_index_past_the_double_range(self):
        """n = 10**400 is a good step index: the last segment holds there,
        and a state or output past the double range names that step."""
        system = build_system("discrete", (1,), [(0, CoefficientSet(A=make_tensor([1, 1], [2.0]))),
                                                 (2, CoefficientSet(A=make_tensor([1, 1], [3.0])))])
        nxt, out = step_discrete(system, make_tensor([1], [1.0]), n=10**400)
        assert nxt.tolist() == [3.0] and out.tolist() == [1.0]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(NumericOverflowError, match=f"^state became non-finite at step {10**400 + 1}$"):
                step_discrete(system, make_tensor([1], [1e308]), n=10**400)
            system = build_system("discrete", (1,), CoefficientSet(A=make_tensor([1, 1], [1.0]),
                                                                   C=make_tensor([1, 1], [1e300])))
            with pytest.raises(NumericOverflowError, match=f"^output became non-finite at step {10**400}$"):
                step_discrete(system, make_tensor([1], [1e10]), n=10**400)

    @pytest.mark.parametrize("coeffs, x, message", [
        ({"A": [10.0]}, 1e308, "^state became non-finite at step 4$"),
        ({"A": [1.0], "C": [1e300]}, 1e10, "^output became non-finite at step 3$"),
    ], ids=["state", "output"])
    def test_overflow_names_the_step(self, coeffs, x, message):
        """A state past the double range is the state at step n+1, an output
        past it the output at step n; no numpy warning escapes."""
        coeffs = CoefficientSet(**{k: make_tensor([1, 1], v) for k, v in coeffs.items()})
        system = build_system("discrete", (1,), coeffs)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(NumericOverflowError, match=message):
                step_discrete(system, make_tensor([1], [x]), n=3)


class TestSimulateDiscrete:
    def test_telescoping(self):
        system = r1_system(np.eye(2), b=np.eye(2))
        u = InputSignal.constant(make_tensor([2], [0.5, -0.25]))
        traj = simulate_discrete(system, Tensor.zeros([2]), 10, u=u)
        for n, sample in enumerate(traj):
            assert sample.state.tolist() == [0.5 * n, -0.25 * n]

    def test_memoryless(self):
        system = r1_system(np.zeros((2, 2)), b=np.eye(2))
        u = InputSignal.table([(0, [1.0, 2.0]), (1, [3.0, 4.0]), (2, [5.0, 6.0])])
        traj = simulate_discrete(system, make_tensor([2], [9.0, 9.0]), 4, u=u)
        assert traj[1].state.tolist() == [1.0, 2.0]
        assert traj[2].state.tolist() == [3.0, 4.0]
        assert traj[3].state.tolist() == [5.0, 6.0]
        # zero-order hold keeps the last table value
        assert traj[4].state.tolist() == [5.0, 6.0]

    def test_sample_layout(self):
        system = r1_system(0.5 * np.eye(2))
        traj = simulate_discrete(system, make_tensor([2], [1, 1]), 3)
        assert len(traj) == 4
        assert traj.times.tolist() == [0.0, 1.0, 2.0, 3.0]
        assert traj.final_state == traj[3].state
        assert traj.state_matrix().shape == (4, 2)
        assert not traj.state_matrix().flags.writeable
        assert not traj.output_matrix().flags.writeable

    def test_trajectory_from_arrays(self):
        states = np.arange(8.0).reshape(2, 4)
        traj = Trajectory([0.0, 0.5], states, [[1.0], [2.0]], (2, 2), (1,))
        assert traj[1].when == 0.5
        assert traj[1].state.tolist() == [[4.0, 5.0], [6.0, 7.0]]
        assert [s.output.item() for s in traj] == [1.0, 2.0]
        assert states.flags.writeable
        with pytest.raises(ValueError, match="whens must increase"):
            Trajectory([0.0, 0.0], states, [[1.0], [2.0]], (2, 2), (1,))

    def test_trajectory_indices(self):
        """A trajectory reads integers and slices by the rules of a range of
        its samples: a bool or any other value is a TypeError quoting it,
        and an integer past either end an IndexError naming it and the
        sample count."""
        traj = Trajectory([0.0, 1.0, 2.0, 3.0], np.arange(8.0).reshape(4, 2), np.arange(4.0)[:, None], (2,), (1,))
        assert traj[-1].when == traj[3].when == 3.0 and traj[-1].state == traj.final_state
        assert traj[np.int64(1)].state.tolist() == [2.0, 3.0]
        assert [s.when for s in traj[1:3]] == [1.0, 2.0] and [s.when for s in traj[::-2]] == [3.0, 1.0]
        assert traj[5:] == () and [s.when for s in traj] == [0.0, 1.0, 2.0, 3.0]
        for index, text in [(True, "True"), (np.False_, "np.False_"), (2.0, "2.0"), ("1", "'1'"), (None, "None"),
                            ([1], r"\[1\]")]:
            with pytest.raises(TypeError, match=rf"^trajectory index must be an integer or a slice, got {text}$"):
                traj[index]
        for index in (7, 4, -5, np.int64(9)):
            with pytest.raises(IndexError, match=rf"^trajectory index {int(index)} is out of range for 4 samples$"):
                traj[index]

    def test_trajectory_without_samples(self):
        with pytest.raises(ValueError, match=r"^trajectory needs at least one sample$"):
            Trajectory([], np.empty((0, 2)), np.empty((0, 2)), (2,), (2,))

    def test_states_and_outputs_are_the_sample_tensors(self):
        states = np.arange(8.0).reshape(2, 4)
        traj = Trajectory([0.0, 0.5], states, [[1.0], [2.0]], (2, 2), (1,))
        assert traj.states == [sample.state for sample in traj]
        assert [x.tolist() for x in traj.states] == [[[0.0, 1.0], [2.0, 3.0]], [[4.0, 5.0], [6.0, 7.0]]]
        assert [y.tolist() for y in traj.outputs] == [[1.0], [2.0]]

    def test_input_argument(self):
        """u is an InputSignal: None on an input system is the zero signal,
        a bare array is refused, and a system without input takes none but
        the zero signal."""
        system = r1_system(0.5 * np.eye(2), b=np.eye(2))
        x0 = make_tensor([2], [1.0, -2.0])
        implicit = simulate_discrete(system, x0, 3)
        explicit = simulate_discrete(system, x0, 3, u=InputSignal.zero())
        assert np.array_equal(implicit.state_matrix(), explicit.state_matrix())
        with pytest.raises(TypeError, match="u must be an InputSignal"):
            simulate_discrete(system, x0, 3, u=np.ones(2))
        bare = r1_system(0.5 * np.eye(2))
        assert len(simulate_discrete(bare, x0, 3, u=InputSignal.zero())) == 4
        with pytest.raises(ValueError, match="system declares no input; u must be omitted"):
            simulate_discrete(bare, x0, 3, u=InputSignal.constant(make_tensor([2], [1.0, 1.0])))

    def test_slice_builds_the_sliced_samples(self):
        system = r1_system(0.5 * np.eye(2))
        traj = simulate_discrete(system, make_tensor([2], [1, 1]), 6)
        assert traj[2:5] == traj.samples[2:5]
        assert traj[::-3] == traj.samples[::-3]
        assert traj[9:] == ()

    def test_zero_steps(self):
        system = r1_system(np.eye(2))
        traj = simulate_discrete(system, make_tensor([2], [1, 2]), 0)
        assert len(traj) == 1
        assert traj[0].state.tolist() == [1.0, 2.0]

    def test_negative_steps(self):
        system = r1_system(np.eye(2))
        with pytest.raises(ValueError):
            simulate_discrete(system, make_tensor([2], [1, 2]), -1)

    def test_non_integer_steps_refused(self):
        system = r1_system(np.eye(2))
        x0 = make_tensor([2], [1, 2])
        with pytest.raises(ValueError, match="^steps must be an integer, got 2.7$"):
            simulate_discrete(system, x0, 2.7)
        assert len(simulate_discrete(system, x0, np.int64(2))) == 3

    def test_time_varying_switch(self):
        early = CoefficientSet(A=Tensor.from_array(2.0 * np.eye(1)))
        late = CoefficientSet(A=Tensor.from_array(3.0 * np.eye(1)))
        system = build_system("discrete", (1,), [(0, early), (2, late)])
        traj = simulate_discrete(system, make_tensor([1], [1.0]), 4)
        # steps 0,1 double; steps 2,3 triple
        assert [s.state.item() for s in traj] == [1.0, 2.0, 4.0, 12.0, 36.0]

    def test_overflow_names_step(self):
        system = r1_system([[1e308]])
        with np.errstate(over="ignore"):
            with pytest.raises(NumericOverflowError) as err:
                simulate_discrete(system, make_tensor([1], [1e308]), 5)
        assert "step 1" in str(err.value)

    def test_superposition(self):
        rng = np.random.default_rng(31)
        system = r1_system(rng.normal(size=(3, 3)) * 0.4, b=rng.normal(size=(3, 2)))
        steps = 8
        table1 = [(n, rng.normal(size=2)) for n in range(steps)]
        table2 = [(n, rng.normal(size=2)) for n in range(steps)]
        alpha, beta = 0.7, -1.3
        combined = [
            (n, alpha * v1 + beta * v2) for (n, v1), (_, v2) in zip(table1, table2)
        ]
        x0 = Tensor.zeros([3])
        t1 = simulate_discrete(system, x0, steps, u=InputSignal.table(table1))
        t2 = simulate_discrete(system, x0, steps, u=InputSignal.table(table2))
        tc = simulate_discrete(system, x0, steps, u=InputSignal.table(combined))
        mixed = alpha * t1.state_matrix() + beta * t2.state_matrix()
        assert np.max(np.abs(tc.state_matrix() - mixed)) < 1e-10


def test_discrete_matches_tensordot_reference_loop():
    """64 segments, order-2 state, table input, C and D: the unfolded kernel
    and bisect lookup give the same bits as a linear segment scan over
    np.tensordot, both through simulate_discrete and step by step."""
    rng = np.random.default_rng(64)
    shape, in_shape, out_shape = (2, 3), (2,), (2, 2)
    starts = list(range(0, 640, 10))
    sets = [
        CoefficientSet(
            A=Tensor.from_array(0.3 * rng.normal(size=shape + shape)),
            B=Tensor.from_array(rng.normal(size=shape + in_shape)),
            C=Tensor.from_array(rng.normal(size=out_shape + shape)),
            D=Tensor.from_array(rng.normal(size=out_shape + in_shape)),
        )
        for _ in starts
    ]
    system = build_system(
        "discrete", shape, list(zip(starts, sets)), input_shape=in_shape, output_shape=out_shape
    )
    inputs = [rng.normal(size=in_shape) for _ in range(100)]
    signal = InputSignal.table([(7 * k, value) for k, value in enumerate(inputs)])
    x0 = Tensor.from_array(rng.normal(size=shape))
    steps = 660
    traj = simulate_discrete(system, x0, steps, u=signal)

    x = x0.array
    ref_states, ref_outputs = [], []
    for n in range(steps + 1):
        coeffs = sets[0]
        for start, candidate in zip(starts, sets):
            if start <= n:
                coeffs = candidate
        u = inputs[n // 7]
        ref_states.append(x.reshape(-1))
        y = np.tensordot(coeffs.C.array, x, 2) + np.tensordot(coeffs.D.array, u, 1)
        ref_outputs.append(y.reshape(-1))
        x = np.tensordot(coeffs.A.array, x, 2) + np.tensordot(coeffs.B.array, u, 1)
    assert np.array_equal(traj.state_matrix(), np.array(ref_states))
    assert np.array_equal(traj.output_matrix(), np.array(ref_outputs))

    state = x0
    for n in range(steps + 1):
        nxt, y = step_discrete(system, state, inputs[n // 7], n)
        assert np.array_equal(vec(state), traj.state_matrix()[n])
        assert np.array_equal(vec(y), traj.output_matrix()[n])
        state = nxt


def same_bits(a, b):
    """Equal arrays whose zeros also carry the same signs."""
    a, b = np.asarray(a), np.asarray(b)
    return np.array_equal(a, b) and np.array_equal(np.signbit(a), np.signbit(b))


def step_by_step(system, x0, steps, signal):
    """States and outputs at n = 0..steps from one step_discrete call per
    step, the input of step n read as signal.sample(n): the per-step oracle
    of simulate_discrete. A None signal is the zero signal."""
    signal = InputSignal.zero() if signal is None else signal
    state, states, outputs = x0, [], []
    for n in range(steps + 1):
        u = signal.sample(n, system.input_shape) if system.has_input else None
        nxt, y = step_discrete(system, state, u, n)
        states.append(vec(state))
        outputs.append(vec(y))
        state = nxt
    return np.array(states), np.array(outputs)


def layout_system(rng, starts, parts, input_shape=(2,), time_kind="discrete", scale=0.4):
    """A system with state and output shape (2, 2) and one segment per
    start, segment s holding A (normal entries times `scale`), B when there
    is an input, and the coefficients named in parts[s] ("C", "D" or both)."""
    shape = (2, 2)
    sets = []
    for names in parts:
        coeffs = {"A": scale * rng.normal(size=shape + shape)}
        if input_shape is not None:
            coeffs["B"] = rng.normal(size=shape + input_shape)
            if "D" in names:
                coeffs["D"] = rng.normal(size=shape + input_shape)
        if "C" in names:
            coeffs["C"] = rng.normal(size=shape + shape)
        sets.append(CoefficientSet(**{k: Tensor.from_array(m) for k, m in coeffs.items()}))
    return build_system(time_kind, shape, list(zip(starts, sets)), input_shape=input_shape)


# name: (schedule starts, coefficients beside A and B per segment, input keys, steps)
DISCRETE_LAYOUTS = {
    "zero steps": ([0, 1], ["C", ""], [0, 1], 0),
    "one step": ([0, 1], ["", "CD"], [0, 1], 1),
    "one-step pieces": (list(range(12)), ["C", "", "CD", "D"] * 3, list(range(13)), 12),
    "keys at and past the last step": ([0, 3, 9, 12], ["CD", "", "D", "C"], [0, 2.5, 2.75, 9, 10, 11.5], 9),
    "C in some segments": ([0, 4, 7], ["C", "", "CD"], [0, 5], 15),
    "D without C": ([0, 6], ["D", "D"], [0, 3, 8], 15),
    "C in every segment": ([0, 3, 8], ["C", "CD", "C"], [0, 2.5, 6, 11], 15),
}


class TestDiscreteAgainstStepByStep:
    """simulate_discrete against one step_discrete call per step, bit for
    bit, signs of zero included, over layouts of pieces and inputs."""

    @pytest.mark.parametrize("layout", DISCRETE_LAYOUTS)
    @pytest.mark.parametrize("kind", ["table", "zero", "no input"])
    def test_layout(self, layout, kind):
        starts, parts, keys, steps = DISCRETE_LAYOUTS[layout]
        rng = np.random.default_rng(len(layout))
        system = layout_system(rng, starts, parts, None if kind == "no input" else (2,))
        signal = {
            "table": InputSignal.table([(key, rng.uniform(-1.0, 1.0, 2)) for key in keys]),
            "zero": InputSignal.zero(),
            "no input": None,
        }[kind]
        # a zero state stays zero under a zero input, so the signs of its zeros are compared
        x0 = Tensor.from_array(rng.normal(size=(2, 2)) if kind == "table" else np.full((2, 2), -0.0))
        traj = simulate_discrete(system, x0, steps, u=signal)
        states, outputs = step_by_step(system, x0, steps, signal)
        assert len(traj) == steps + 1
        assert same_bits(traj.state_matrix(), states)
        assert same_bits(traj.output_matrix(), outputs)

    @pytest.mark.parametrize("kind", ["table", "no input"])
    def test_overflow(self, kind):
        """A layout with neither C nor D whose states leave the double range
        in its third segment: the sweep and the step_discrete loop raise the
        same error at the same step, and no numpy warning escapes."""
        rng = np.random.default_rng(5)
        system = layout_system(rng, [0, 4, 9], ["", "", ""], None if kind == "no input" else (2,), scale=40.0)
        keys = [0, 2.5, 6, 11]
        signal = InputSignal.table([(key, rng.uniform(-1.0, 1.0, 2)) for key in keys]) if kind == "table" else None
        x0 = Tensor.from_array(1e280 * rng.normal(size=(2, 2)))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(NumericOverflowError) as swept:
                simulate_discrete(system, x0, 20, u=signal)
            with pytest.raises(NumericOverflowError) as stepped:
                step_by_step(system, x0, 20, signal)
        assert str(swept.value) == str(stepped.value) == "state became non-finite at step 15"


def matmul_advance(p, c, v, out, lo, hi):
    """_advance's loop with each P·v an np.matmul into the row: the
    reference for the bits of its np.dot."""
    for r in range(lo, hi):
        np.matmul(p, v, out=out[r])
        if c is not None:
            out[r] += c
        v = out[r]
    return v


@pytest.mark.parametrize("q", [*range(1, 10), 27, 64, 256])
def test_advance_gives_the_bits_of_matmul(q):
    """_advance against matmul_advance, bit for bit, for a discrete step's
    contiguous M_A and the strided P of an exact pair (a block of its
    exponential) and of an RK4 map (the state columns of its step), given
    as it is and as the contiguous copy _sweep steps with: rows stepped
    from the row before, then the last row stepped again twice from
    itself, as the runs of an exact step cut by keys write it."""
    rng = np.random.default_rng(q)
    m = UnfoldedSystem(rng.normal(size=(q, q)) / math.sqrt(q), rng.normal(size=(q, 2)), None, None)
    exact = simulate._zoh_pair(m, 0.1)[0]
    rk4 = simulate._rk4_map(m, m, m, 0.1)[0]
    assert m.a.flags.c_contiguous and (q == 1 or not (exact.flags.c_contiguous or rk4.flags.c_contiguous))

    def bits(advance, p, c, v0):
        out = np.zeros((5, q))
        out[0] = v0
        v = advance(p, c, out[0], out, 1, 4)
        for _ in range(3):
            v = advance(p, c, v, out, 4, 5)
        assert np.shares_memory(v, out[4])
        return out.view(np.uint64).tolist()

    for p in (m.a, exact, rk4):
        for c in (None, rng.normal(size=q)):
            v0 = rng.normal(size=q)
            want = bits(matmul_advance, p, c, v0)
            assert bits(simulate._advance, p, c, v0) == want
            assert bits(simulate._advance, np.ascontiguousarray(p), c, v0) == want


@pytest.mark.parametrize("method", ["exact", "rk4"])
def test_sweep_steps_with_contiguous_maps(monkeypatch, method):
    """Each P a sweep hands _advance is C-contiguous, an exact pair's and an
    RK4 map's blocks included: np.dot would copy any other on every step."""
    system, x0, signal, _ = zoh_case("table")
    advance, seen = simulate._advance, []

    def recording(p, *args):
        seen.append(p.flags.c_contiguous)
        return advance(p, *args)

    monkeypatch.setattr(simulate, "_advance", recording)
    simulate_continuous(system, Tensor.from_array(x0), 0.5, 0.01, u=signal, method=method)
    assert seen and all(seen)


class TestClosedForm:
    def test_n_zero(self):
        system = r1_system(np.eye(3))
        x0 = make_tensor([3], [1.5, -2.0, 0.25])
        assert solve_discrete_closed_form(system, x0, 0) == x0

    def test_telescoping_exact(self):
        system = r1_system(np.eye(2), b=np.eye(2))
        u = InputSignal.constant(make_tensor([2], [0.5, -0.25]))
        x0 = make_tensor([2], [1.0, 2.0])
        got = solve_discrete_closed_form(system, x0, 12, u=u)
        assert got.tolist() == [1.0 + 12 * 0.5, 2.0 - 12 * 0.25]

    def test_vs_iteration_r1(self):
        """50 steps on a random stable 3x3 system against plain iteration."""
        rng = np.random.default_rng(41)
        a = rng.normal(size=(3, 3))
        a *= 0.9 / np.abs(np.linalg.eigvals(a)).max()
        system = r1_system(a, b=rng.normal(size=(3, 2)))
        u = InputSignal.table([(n, rng.normal(size=2)) for n in range(50)])
        x0 = Tensor.from_array(rng.normal(size=3))
        traj = simulate_discrete(system, x0, 50, u=u)
        closed = solve_discrete_closed_form(system, x0, 50, u=u)
        assert np.max(np.abs(vec(closed) - vec(traj.final_state))) < 1e-9

    def test_vs_iteration_r2(self):
        rng = np.random.default_rng(43)
        coeffs = CoefficientSet(
            A=Tensor.from_array(rng.normal(size=(2, 2, 2, 2)) * 0.3),
            B=Tensor.from_array(rng.normal(size=(2, 2, 3))),
        )
        system = build_system("discrete", (2, 2), coeffs, input_shape=(3,))
        u = InputSignal.constant(Tensor.from_array(rng.normal(size=3)))
        x0 = Tensor.from_array(rng.normal(size=(2, 2)))
        traj = simulate_discrete(system, x0, 7, u=u)
        closed = solve_discrete_closed_form(system, x0, 7, u=u)
        assert np.max(np.abs(vec(closed) - vec(traj.final_state))) < 1e-10

    def test_homogeneous(self):
        rng = np.random.default_rng(47)
        a = rng.normal(size=(4, 4)) * 0.4
        system = r1_system(a)
        x0 = Tensor.from_array(rng.normal(size=4))
        closed = solve_discrete_closed_form(system, x0, 9)
        expected = np.linalg.matrix_power(a, 9) @ vec(x0)
        assert np.max(np.abs(vec(closed) - expected)) < 1e-12

    def test_vs_iteration_long_table(self):
        """n=2000 with table keys on steps, between steps (held from the
        next step on) and past n, against plain iteration at several n."""
        rng = np.random.default_rng(53)
        a = rng.normal(size=(4, 4))
        a *= 0.95 / np.abs(np.linalg.eigvals(a)).max()
        system = r1_system(a, b=rng.normal(size=(4, 2)))
        keys = [0.0, 0.5, 1.0, 7.25, 7.75, 9.0, *range(25, 2000, 25), 1999.5, 2500.0]
        u = InputSignal.table([(key, rng.normal(size=2)) for key in keys])
        x0 = Tensor.from_array(rng.normal(size=4))
        states = simulate_discrete(system, x0, 2000, u=u).state_matrix()
        scale = np.abs(states).max()
        for n in (0, 1, 2, 7, 8, 9, 1999, 2000):
            closed = vec(solve_discrete_closed_form(system, x0, n, u=u))
            assert np.max(np.abs(closed - states[n])) < 1e-12 * scale

    def test_non_integer_n_refused(self):
        system = r1_system(np.eye(2))
        x0 = make_tensor([2], [1, 2])
        with pytest.raises(ValueError, match="^n must be an integer, got 2.7$"):
            solve_discrete_closed_form(system, x0, 2.7)
        assert solve_discrete_closed_form(system, x0, np.int64(2)) == x0

    def test_time_varying_rejected(self):
        coeffs = CoefficientSet(A=Tensor.identity([2]))
        system = build_system("discrete", (2,), [(0, coeffs), (3, coeffs)])
        with pytest.raises(ValueError):
            solve_discrete_closed_form(system, make_tensor([2], [1, 2]), 5)


class TestMatrixExponential:
    def test_zero(self):
        assert np.array_equal(matrix_exponential(np.zeros((3, 3))), np.eye(3))

    def test_diagonal(self):
        got = matrix_exponential(np.diag([1.0, -2.0]), t=0.5)
        expected = np.diag([math.exp(0.5), math.exp(-1.0)])
        assert np.max(np.abs(got - expected)) < 1e-15

    def test_nilpotent(self):
        got = matrix_exponential(np.array([[0.0, 1.0], [0.0, 0.0]]), t=1.0)
        assert np.max(np.abs(got - np.array([[1.0, 1.0], [0.0, 1.0]]))) < 1e-15

    def test_eigendecomposition_oracle(self):
        """Symmetric case has the exact closed form Q exp(L) Q^T."""
        rng = np.random.default_rng(53)
        for _ in range(5):
            s = rng.normal(size=(5, 5))
            s = (s + s.T) / 2
            lam, q = np.linalg.eigh(s)
            for t in (0.25, 1.0, 2.0):
                expected = q @ np.diag(np.exp(lam * t)) @ q.T
                got = matrix_exponential(s, t=t)
                scale = np.abs(expected).max()
                assert np.max(np.abs(got - expected)) < 1e-12 * max(scale, 1.0)

    def test_inverse_property(self):
        rng = np.random.default_rng(59)
        m = rng.normal(size=(4, 4))
        prod = matrix_exponential(m) @ matrix_exponential(m, t=-1.0)
        assert np.max(np.abs(prod - np.eye(4))) < 1e-12

    def test_non_square(self):
        with pytest.raises(ShapeError):
            matrix_exponential(np.zeros((2, 3)))

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("t", [1.5, 10.0])
    def test_product_past_double_range(self, t):
        """m*t past 2^1022 (t = 1.5), or past the double range: no
        OverflowError and no warning; an exponential past the double range
        is inf, a decaying one about 0."""
        assert np.isposinf(matrix_exponential([[1e308]], t=t)).all()
        assert np.array_equal(matrix_exponential([[-1e308]], t=t), [[0.0]])
        got = matrix_exponential([[-1e308, -1e308], [0.0, -1e308]], t=1.0)
        assert np.isfinite(got).all() and np.abs(got).max() < 1e-300

    @pytest.mark.filterwarnings("error")
    def test_overflow_on_the_one_scaling_path(self):
        """Products below 2^1022 take the same scaling as those past it: an
        exponential past the double range is non-finite, a decaying one
        finite, and neither warns."""
        assert np.isposinf(matrix_exponential([[1000.0]], 10.0)).all()
        assert np.isfinite(matrix_exponential([[-1000.0]], 10.0)).all()
        got = matrix_exponential([[1000.0, 1.0], [0.0, 1000.0]], 10.0)
        assert not np.isfinite(got).all()

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_non_finite_entry(self, bad):
        with pytest.raises(ValueError, match=r"^matrix entries must be finite$"):
            matrix_exponential([[0.0, bad], [0.0, 0.0]])

    def test_scipy_expm_oracle(self):
        """Random 8x8 matrices with infinity norms up to 30 against scipy's
        Pade-based expm, relative error in the infinity norm."""
        linalg = pytest.importorskip("scipy.linalg")
        rng = np.random.default_rng(1978)
        for _ in range(50):
            m = rng.normal(size=(8, 8))
            m *= rng.uniform(0.01, 30.0) / np.linalg.norm(m, np.inf)
            expected = linalg.expm(m)
            err = np.linalg.norm(matrix_exponential(m) - expected, np.inf)
            assert err <= 1e-11 * np.linalg.norm(expected, np.inf)

    # θ_3, θ_5, θ_7, θ_9 and θ_13 of Higham (2005), Table 2.3
    @pytest.mark.parametrize("theta", [1.495585217958292e-2, 2.539398330063230e-1, 9.504178996162932e-1,
                                       2.097847961257068, 5.371920351148152])
    def test_each_pade_degree_against_scipy(self, theta):
        """Random n x n matrices, n from 2 to 18, at 1-norms just below and
        just above each θ_m, so every degree and each switch to the next,
        and past θ₁₃ the first squaring, are taken."""
        linalg = pytest.importorskip("scipy.linalg")
        rng = np.random.default_rng(2005)
        for n in range(2, 19):
            for side in (0.999, 1.001):
                m = rng.normal(size=(n, n))
                m *= side * theta / np.abs(m).sum(axis=0).max()
                expected = linalg.expm(m)
                err = np.linalg.norm(matrix_exponential(m) - expected, np.inf)
                assert err <= 1e-12 * np.linalg.norm(expected, np.inf)

    @pytest.mark.parametrize("side", [0.999, 1.001])
    @pytest.mark.parametrize("k", range(6))
    def test_squarings_are_enough(self, k, side):
        """e^x at x just below and above θ₁₃·2^k takes k or k+1 squarings of
        the degree-13 approximant. Each squaring doubles the relative error,
        about 1e-14 at θ₁₃, so k = 5 reads 3.3e-13; one squaring fewer reads
        1.7e-7 or more."""
        x = side * 5.371920351148152 * 2.0**k
        assert matrix_exponential([[x]])[0, 0] == pytest.approx(math.exp(x), rel=1e-11, abs=0.0)

    @pytest.mark.parametrize("draw", [9, 18, 25, 29, 37, 40])
    def test_every_mode_far_below_eps(self, draw):
        """2x2 normals of default_rng(7) scaled to 1-norm 200 whose every mode
        decays far below eps: the R form's squarings drive R to exactly -I,
        which read 0 for entries up to 2.7e-52. Once a squaring leaves
        ||I + R||_1 <= 1/2, I + R itself is squared, and each entry is right
        relative to the largest (scipy's expm is off by up to 9.2e-12 here)."""
        linalg = pytest.importorskip("scipy.linalg")
        rng = np.random.default_rng(7)
        for _ in range(draw):
            m = rng.standard_normal((2, 2))
        m *= 200 / np.abs(m).sum(axis=0).max()
        expected = linalg.expm(m)
        assert np.abs(matrix_exponential(m) - expected).max() <= 1e-10 * np.abs(expected).max()

    def test_zoh_input_block_keeps_its_digits(self):
        """Over dt = 1e-20 the input block Γ is dt·M_B to the last bits."""
        m = UnfoldedSystem(np.array([[-1.0, 2.0], [0.5, -3.0]]), np.array([[1.5], [-0.25]]), None, None)
        gamma = simulate._zoh_pair(m, 1e-20)[1]
        assert np.abs(gamma - 1e-20 * m.b).max() <= 1e-15 * 1e-20 * np.abs(m.b).max()

    def test_empty_matrix(self):
        got = matrix_exponential(np.zeros((0, 0)), t=2.0)
        assert got.shape == (0, 0)

    @pytest.mark.parametrize("b", [1e6, 1e10, 1e20])
    def test_stiff_diagonal_keeps_the_slow_mode(self, b):
        """The scaled slow entry -1/2^s would round away against 1; carried
        apart from I it gives e^-1 to the last bit, and e^-b underflows to 0."""
        got = matrix_exponential(np.diag([-b, -1.0]))
        assert got[1, 1] == pytest.approx(math.exp(-1.0), rel=1e-15, abs=0.0)
        assert np.array_equal(got[[0, 0, 1], [0, 1, 0]], [0.0, 0.0, 0.0])

    def test_stiff_rotated_diagonal(self):
        """H·diag(λ)·Hᵀ/4 with H a 4x4 Hadamard matrix, so the rotation and
        the matrix are exact in floats, eigenvalues from -1e8 to -1. The
        scaled series still rounds at about eps·0.5 on entries that mix the
        modes, which the 28 squarings carry into the slow ones: scipy's Padé
        expm is off by 3.3e-9 here, this series by 1.2e-9, and the same
        series squaring I + R instead of R by 1.8e-8."""
        h = np.array([[1, 1, 1, 1], [1, -1, 1, -1], [1, 1, -1, -1], [1, -1, -1, 1]], dtype=float)
        lam = np.array([-1e8, -1e6, -1e4, -1.0])
        m = h @ np.diag(lam) @ h.T / 4
        expected = h @ np.diag(np.exp(lam)) @ h.T / 4
        assert np.abs(matrix_exponential(m) - expected).max() <= 5e-9 * np.abs(expected).max()


class TestSimulateContinuous:
    def test_scalar_decay_exact(self):
        system = scalar_system(-1.0)
        traj = simulate_continuous(system, make_tensor([1], [1.0]), 1.0, h=0.5, method="exact")
        assert abs(traj.final_state.item() - 0.36787944117144233) < 1e-15

    def test_pure_integrator_both_methods(self):
        system = r1_system(np.zeros((2, 2)), b=np.eye(2), time_kind="continuous")
        u = InputSignal.constant(make_tensor([2], [2.0, -1.0]))
        for method in ("rk4", "exact"):
            traj = simulate_continuous(
                system, Tensor.zeros([2]), 1.5, h=0.25, u=u, method=method
            )
            assert np.max(np.abs(traj.final_state.array - np.array([3.0, -1.5]))) < 1e-12

    def test_grid_truncated_final_step(self):
        system = scalar_system(-1.0)
        traj = simulate_continuous(system, make_tensor([1], [1.0]), 1.0, h=0.4)
        assert traj.times.tolist() == pytest.approx([0.0, 0.4, 0.8, 1.0])
        assert traj.times[-1] == 1.0

    def test_grid_exact_landing(self):
        system = scalar_system(-1.0)
        traj = simulate_continuous(system, make_tensor([1], [1.0]), 1.0, h=0.25)
        assert len(traj) == 5
        assert traj.times[-1] == 1.0

    @pytest.mark.parametrize("method", ["exact", "rk4"])
    def test_t_end_within_1e_9_h_keeps_the_t0_row(self, method):
        """No whole step fits in t_end = 1e-10 with h = 1: the grid is
        [0, t_end], stepped once over t_end, not x0 placed at t_end."""
        traj = simulate_continuous(scalar_system(-1.0), make_tensor([1], [2.0]), 1e-10, h=1.0, method=method)
        assert traj.times.tolist() == [0.0, 1e-10]
        assert traj.state_matrix()[0, 0] == 2.0
        np.testing.assert_allclose(traj.state_matrix()[:, 0], 2.0 * np.exp(-traj.times), rtol=1e-12, atol=0)

    def test_default_h(self):
        system = scalar_system(-1.0)
        traj = simulate_continuous(system, make_tensor([1], [1.0]), 2.0)
        assert len(traj) == 1001

    def test_default_h_underflow_names_t_end(self):
        """The default step t_end/1000 is 0 for t_end below about 2.5e-321;
        at 1000 times the least subnormal it is that subnormal."""
        system = scalar_system(-1.0)
        with pytest.raises(ValueError, match=r"^t_end 5e-324 makes the default step t_end/1000 underflow"):
            simulate_continuous(system, make_tensor([1], [1.0]), 5e-324)
        traj = simulate_continuous(system, make_tensor([1], [1.0]), 1000 * 5e-324)
        assert len(traj) == 1001 and traj.times[1] == 5e-324

    def test_rk4_fourth_order(self):
        """Halving h divides the terminal error by roughly 16."""
        rng = np.random.default_rng(61)
        q = np.linalg.qr(rng.normal(size=(3, 3)))[0]
        a = q @ np.diag([-0.6, -1.1, -1.7]) @ q.T
        system = r1_system(a, b=rng.normal(size=(3, 1)), time_kind="continuous")
        u = InputSignal.constant(make_tensor([1], [1.0]))
        x0 = Tensor.from_array(rng.normal(size=3))
        exact = simulate_continuous(system, x0, 1.0, h=0.1, u=u, method="exact")
        errs = []
        for h in (0.1, 0.05):
            approx = simulate_continuous(system, x0, 1.0, h=h, u=u, method="rk4")
            errs.append(
                np.max(np.abs(approx.final_state.array - exact.final_state.array))
            )
        ratio = errs[0] / errs[1]
        assert 12.0 <= ratio <= 20.0

    def test_exact_h_independent(self):
        rng = np.random.default_rng(67)
        a = rng.normal(size=(3, 3)) * 0.5
        system = r1_system(a, b=rng.normal(size=(3, 2)), time_kind="continuous")
        u = InputSignal.constant(make_tensor([2], [0.3, -0.8]))
        x0 = Tensor.from_array(rng.normal(size=3))
        t1 = simulate_continuous(system, x0, 2.0, h=0.5, u=u, method="exact")
        t2 = simulate_continuous(system, x0, 2.0, h=0.25, u=u, method="exact")
        assert np.max(np.abs(t1.final_state.array - t2.final_state.array)) < 1e-12

    def test_schedule_switch_split_exact(self):
        """A jumps at t=0.5 off the sample grid; the exact path still lands on
        the analytic product of the two decays."""
        early = CoefficientSet(A=make_tensor([1, 1], [-1.0]))
        late = CoefficientSet(A=make_tensor([1, 1], [-2.0]))
        system = build_system("continuous", (1,), [(0.0, early), (0.5, late)])
        traj = simulate_continuous(system, make_tensor([1], [1.0]), 1.0, h=0.3, method="exact")
        assert abs(traj.final_state.item() - math.exp(-1.5)) < 1e-14

    def test_input_breakpoint_split_exact(self):
        """Integrating a ZOH step that flips sign at t=0.5 cancels exactly."""
        system = r1_system([[0.0]], b=[[1.0]], time_kind="continuous")
        u = InputSignal.table([(0.0, [1.0]), (0.5, [-1.0])])
        traj = simulate_continuous(system, Tensor.zeros([1]), 1.0, h=0.2, u=u, method="exact")
        assert abs(traj.final_state.item()) < 1e-12

    def test_forced_scalar_analytic(self):
        # x' = -x + 1 from 0: x(t) = 1 - e^{-t}
        system = r1_system([[-1.0]], b=[[1.0]], time_kind="continuous")
        u = InputSignal.constant(make_tensor([1], [1.0]))
        traj = simulate_continuous(system, Tensor.zeros([1]), 1.0, h=0.125, u=u, method="exact")
        assert abs(traj.final_state.item() - (1.0 - math.exp(-1.0))) < 1e-14

    def test_argument_errors(self):
        system = scalar_system(-1.0)
        x0 = make_tensor([1], [1.0])
        with pytest.raises(ValueError):
            simulate_continuous(system, x0, 0.0)
        with pytest.raises(ValueError):
            simulate_continuous(system, x0, 1.0, h=-0.1)
        with pytest.raises(ValueError):
            simulate_continuous(system, x0, 1.0, h=0.1, method="euler")

    def test_overflow(self):
        system = scalar_system(1e4)
        with np.errstate(over="ignore"):
            with pytest.raises(NumericOverflowError) as err:
                simulate_continuous(system, make_tensor([1], [1.0]), 1.0, h=0.1, method="exact")
        assert "t=" in str(err.value)

    @pytest.mark.parametrize("run", [
        lambda: simulate_discrete(r1_system([[1e308]]), make_tensor([1], [1e308]), 5),
        lambda: simulate_continuous(scalar_system(1e308), make_tensor([1], [1e308]), 1.0),
        lambda: simulate_continuous(
            scalar_system(1e308), make_tensor([1], [1e308]), 1.0, method="exact"
        ),
        lambda: simulate_continuous(
            build_system("continuous", (1,), CoefficientSet(
                A=make_tensor([1, 1], [0.0]), C=make_tensor([1, 1], [10.0]))),
            make_tensor([1], [1e308]), 1.0,
        ),
    ], ids=["discrete", "rk4", "exact", "output"])
    def test_overflow_raises_no_warning(self, run):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(NumericOverflowError):
                run()

    @pytest.mark.filterwarnings("ignore:overflow")
    def test_output_overflow(self):
        system = build_system(
            "continuous", (1,),
            CoefficientSet(A=make_tensor([1, 1], [0.0]), C=make_tensor([1, 1], [10.0])),
        )
        with pytest.raises(NumericOverflowError, match="^output became non-finite at t=0$"):
            simulate_continuous(system, make_tensor([1], [1e308]), 1.0, h=0.5, method="exact")

    @pytest.mark.parametrize("method", ["exact", "rk4"])
    def test_schedule_and_table_merged(self, method):
        """Schedule start 0.35 equals an input breakpoint, breakpoint 0.52
        falls strictly inside the grid interval (0.5, 0.6) and 7.0 lies past
        t_end; states and outputs match a reference loop that looks up
        coefficients and input by a linear scan at every point it needs."""
        linalg = pytest.importorskip("scipy.linalg") if method == "exact" else None
        rng = np.random.default_rng(35)
        starts = [0.0, 0.35]
        mats = [
            {name: rng.normal(size=shape) * 0.5
             for name, shape in (("A", (3, 3)), ("B", (3, 2)), ("C", (2, 3)), ("D", (2, 2)))}
            for _ in starts
        ]
        breaks = [0.0, 0.35, 0.52, 7.0]
        inputs = [rng.normal(size=2) for _ in breaks]
        system = build_system(
            "continuous", (3,),
            [(start, CoefficientSet(**{k: Tensor.from_array(v) for k, v in m.items()}))
             for start, m in zip(starts, mats)],
            input_shape=(2,), output_shape=(2,),
        )
        x0 = rng.normal(size=3)
        traj = simulate_continuous(
            system, Tensor.from_array(x0), 1.0, h=0.1,
            u=InputSignal.table(list(zip(breaks, inputs))), method=method,
        )

        def coefficients(t):
            return [m for start, m in zip(starts, mats) if start <= t][-1]

        def held(t):
            return [u for when, u in zip(breaks, inputs) if when <= t][-1]

        def field(t, v):
            m = coefficients(t)
            return m["A"] @ v + m["B"] @ held(t)

        def exact_step(v, a, b):
            edges = [a] + sorted(p for p in set(starts + breaks) if a < p < b) + [b]
            for p, r in zip(edges, edges[1:]):
                m = coefficients(p)
                aug = np.zeros((4, 4))
                aug[:3, :3] = m["A"]
                aug[:3, 3] = m["B"] @ held(p)
                big = linalg.expm(aug * (r - p))
                v = big[:3, :3] @ v + big[:3, 3]
            return v

        def rk4_step(v, a, b):
            dt = b - a
            k1 = field(a, v)
            k2 = field(a + dt / 2, v + dt / 2 * k1)
            k3 = field(a + dt / 2, v + dt / 2 * k2)
            k4 = field(b, v + dt * k3)
            return v + dt / 6 * (k1 + 2 * k2 + 2 * k3 + k4)

        step = exact_step if method == "exact" else rk4_step
        assert traj.times.tolist() == pytest.approx([k / 10 for k in range(11)])
        v, states, outputs = x0, [], []
        for a, b in zip(traj.times, [*traj.times[1:], None]):
            m = coefficients(a)
            states.append(v)
            outputs.append(m["C"] @ v + m["D"] @ held(a))
            if b is not None:
                v = step(v, a, b)
        assert np.allclose(traj.state_matrix(), states, rtol=1e-12, atol=1e-14)
        assert np.allclose(traj.output_matrix(), outputs, rtol=1e-12, atol=1e-14)

    def test_wrong_time_kind(self):
        system = r1_system(np.eye(2))
        with pytest.raises(ValueError):
            simulate_continuous(system, make_tensor([2], [1, 2]), 1.0)


def zoh_case(kind):
    """Three segments (one starting off the grid), q=4, t_end=3, h=0.01. With
    kind "table", p=2 and a 150-entry input table with keys j*0.02, which
    land on grid points, six of them moved 2**-8 off the grid. The move is
    exact in floats, so four cuts in segment 0 leave pieces of equal length.
    "zero" drives the same input with a zero signal, "none" has no input.
    Returns the system, x0, the signal and the raw matrices and keys."""
    rng = np.random.default_rng(83)
    starts = [0.0, 1.0, 2.005]
    a_mats = [rng.normal(size=(4, 4)) * 0.5 for _ in starts]
    b_mats = [rng.normal(size=(4, 2)) for _ in starts]
    breaks = [j * 0.02 + (2.0**-8 if j in (26, 28, 30, 42, 79, 116) else 0.0) for j in range(150)]
    inputs = [rng.uniform(-1.0, 1.0, 2) for _ in breaks]
    x0 = rng.normal(size=4)
    if kind == "none":
        b_mats, breaks, inputs = [None] * len(starts), [0.0], [None]
        signal, input_shape = None, None
    elif kind == "zero":
        breaks, inputs = [0.0], [np.zeros(2)]
        signal, input_shape = InputSignal.zero(), (2,)
    else:
        signal, input_shape = InputSignal.table(list(zip(breaks, inputs))), (2,)
    system = build_system(
        "continuous", (4,),
        [(start, CoefficientSet(A=a, B=b)) for start, a, b in zip(starts, a_mats, b_mats)],
        input_shape=input_shape,
    )
    return system, x0, signal, (starts, a_mats, b_mats, breaks, inputs)


def last_at_or_before(keys, t):
    return max(i for i, key in enumerate(keys) if key <= t)


def exact_zoh_run(system, x0, signal):
    return simulate_continuous(system, Tensor.from_array(x0), 3.0, h=0.01, u=signal, method="exact")


def zoh_reference(times, x0, raw, step, h=None):
    """States on `times` from v <- Φ·v + w, where step(A, B, u, dt) gives
    (Φ, w), w None without input. It is called on every interval and on
    every piece of an interval cut at a segment start or an input breakpoint.
    With h given, an interval that is not cut and whose length is within
    4 ulps (of its end) of h is stepped with dt = h."""
    starts, a_mats, b_mats, breaks, inputs = raw
    keys = sorted(set(starts) | set(breaks))
    v, states = x0, [x0]
    for a, b in zip(times, times[1:]):
        edges = [a] + [k for k in keys if a < k < b] + [b]
        for p, r in zip(edges, edges[1:]):
            seg = last_at_or_before(starts, p)
            u = inputs[last_at_or_before(breaks, p)]
            nominal = h is not None and len(edges) == 2 and abs(r - p - h) <= 4 * math.ulp(r)
            phi, w = step(a_mats[seg], b_mats[seg], u, h if nominal else r - p)
            v = phi @ v if w is None else phi @ v + w
        states.append(v)
    return np.array(states)


def counting_exponentials(monkeypatch):
    """The list of t of every simulate.matrix_exponential(m, t) call from now on."""
    calls = []

    def counting(m, t=1.0):
        calls.append(t)
        return matrix_exponential(m, t)

    monkeypatch.setattr("tensorstate.simulate.matrix_exponential", counting)
    return calls


def zoh_signal(breaks, inputs, shift):
    """The zoh_case table with every key that lies on a grid point, except
    0, moved `shift` ulps up (shift > 0) or down."""
    moved = list(breaks)
    for j in range(1, len(moved)):
        if moved[j] == 2 * j * 0.01:
            for _ in range(abs(shift)):
                moved[j] = math.nextafter(moved[j], math.copysign(math.inf, shift))
    return InputSignal.table(list(zip(moved, inputs)))


class TestExactZohMemo:
    def test_one_exponential_per_segment_and_step_length(self, monkeypatch):
        """Whole grid intervals, all within rounding of h, cost one
        matrix_exponential per segment, for the nominal step h itself; each
        piece of a cut interval costs one, also when an earlier piece had the
        same segment and length."""
        calls = counting_exponentials(monkeypatch)
        system, x0, signal, (starts, _, _, breaks, _) = zoh_case("table")
        times = exact_zoh_run(system, x0, signal).times.tolist()
        keys = sorted(set(starts) | set(breaks))
        whole, pieces = set(), []
        for a, b in zip(times, times[1:]):
            edges = [a] + [k for k in keys if a < k < b] + [b]
            lengths = [(last_at_or_before(starts, p), r - p) for p, r in zip(edges, edges[1:])]
            if len(lengths) == 1:
                whole.update(lengths)
            else:
                pieces += lengths
        assert len(times) == 301
        assert len(pieces) == 14 and len(set(pieces)) < len(pieces)
        assert {seg for seg, _ in whole} == {0, 1, 2} and len(whole) > 3
        assert len(calls) == 17  # one pair for h per segment, and the 14 cut pieces
        assert calls.count(0.01) == 3

    def test_memo_changes_no_bit(self):
        system, x0, signal, raw = zoh_case("table")

        def step(a_mat, b_mat, u, dt):
            q, p = b_mat.shape
            aug = np.zeros((q + p, q + p))
            aug[:q, :q] = a_mat
            aug[:q, q:] = b_mat
            big = matrix_exponential(aug, dt)
            return big[:q, :q], big[:q, q:] @ u

        traj = exact_zoh_run(system, x0, signal)
        reference = zoh_reference(traj.times, x0, raw, step, h=0.01)
        assert np.array_equal(traj.state_matrix(), reference)

    @pytest.mark.parametrize("shift", [-2, -1, 1, 2])
    def test_keys_within_ulps_of_the_grid_snap(self, monkeypatch, shift):
        """An input key moved 1 or 2 ulps off its grid point, to either side,
        cuts no sliver: the states and the exponential count are those of
        the key on the grid point."""
        system, x0, signal, (_, _, _, breaks, inputs) = zoh_case("table")
        expected = exact_zoh_run(system, x0, signal).state_matrix()
        moved = zoh_signal(breaks, inputs, shift)
        assert len(set(moved.keys) - set(breaks)) == 143
        calls = counting_exponentials(monkeypatch)
        assert np.array_equal(exact_zoh_run(system, x0, moved).state_matrix(), expected)
        assert len(calls) == 17

    @pytest.mark.parametrize("where", ["decimal", -2, -1, 1, 2])
    def test_nominal_grid_reference(self, monkeypatch, where):
        """Against a run kept in whole grid indices, so sharing no tolerance
        with the code: every step is h long, and the schedule start or input
        key meant for grid index k takes effect at k, for state and output
        alike (D != 0). The float keys are the decimals round(k*0.01, 12),
        16 of them 1 ulp below the grid point k*0.01, or the grid points
        with input keys moved 1 or 2 ulps one way and schedule starts the
        other, so two keys fall on the grid points 1 and 2."""
        rng = np.random.default_rng(97)
        mats = [[rng.normal(size=shape) * scale for shape, scale in
                 (((4, 4), 0.5), ((4, 2), 1.0), ((3, 4), 1.0), ((3, 2), 1.0))] for _ in range(3)]
        inputs = [rng.uniform(-1.0, 1.0, 2) for _ in range(150)]
        x0 = rng.normal(size=4)

        def key(k, shift):
            if where == "decimal":
                return round(k * 0.01, 12)
            moved = k * 0.01
            for _ in range(abs(shift)):
                moved = math.nextafter(moved, math.copysign(math.inf, shift))
            return moved if k else 0.0

        shift = 0 if where == "decimal" else where
        if where == "decimal":
            assert sum(key(2 * j, shift) != 2 * j * 0.01 for j in range(150)) == 16
        system = build_system(
            "continuous", (4,),
            [(key(k, -shift), CoefficientSet(A=a, B=b, C=c, D=d))
             for k, (a, b, c, d) in zip((0, 100, 200), mats)],
            input_shape=(2,), output_shape=(3,),
        )
        signal = InputSignal.table([(key(2 * j, shift), u) for j, u in enumerate(inputs)])
        pairs = []
        for a, b, _, _ in mats:
            aug = np.zeros((6, 6))
            aug[:4, :4] = a
            aug[:4, 4:] = b
            big = matrix_exponential(aug, 0.01)
            pairs.append((big[:4, :4], big[:4, 4:]))
        v, states, outputs = x0, [], []
        for k in range(301):
            seg, u = min(k // 100, 2), inputs[min(k // 2, 149)]
            states.append(v)
            outputs.append(mats[seg][2] @ v + mats[seg][3] @ u)
            phi, gamma = pairs[seg]
            v = phi @ v + gamma @ u
        calls = counting_exponentials(monkeypatch)
        traj = exact_zoh_run(system, x0, signal)
        assert np.array_equal(traj.state_matrix(), states)
        assert np.array_equal(traj.output_matrix(), outputs)
        assert calls == [0.01] * 3

    def test_long_uniform_run_makes_one_exponential(self, monkeypatch):
        """t_end=100, h=0.01: the float grid k*h has many distinct interval
        lengths, all within rounding of h, so the run needs a single pair."""
        calls = counting_exponentials(monkeypatch)
        rng = np.random.default_rng(89)
        system = r1_system(rng.normal(size=(3, 3)) * 0.1, b=rng.normal(size=(3, 2)),
                           time_kind="continuous")
        traj = simulate_continuous(system, Tensor.from_array(rng.normal(size=3)), 100.0,
                                   h=0.01, u=InputSignal.constant(np.ones(2)), method="exact")
        assert len(traj) == 10001 and len(set(np.diff(traj.times))) > 1
        assert calls == [0.01]

    @pytest.mark.parametrize("kind", ["table", "zero", "none"])
    def test_scipy_held_input_oracle(self, kind):
        """Against scipy's expm of the held-input matrix [[M_A, M_B·u], [0, 0]]."""
        linalg = pytest.importorskip("scipy.linalg")
        system, x0, signal, raw = zoh_case(kind)

        def step(a_mat, b_mat, u, dt):
            if b_mat is None:
                return linalg.expm(a_mat * dt), None
            aug = np.zeros((5, 5))
            aug[:4, :4] = a_mat
            aug[:4, 4] = b_mat @ u
            big = linalg.expm(aug * dt)
            return big[:4, :4], big[:4, 4]

        traj = exact_zoh_run(system, x0, signal)
        oracle = zoh_reference(traj.times, x0, raw, step)
        # the states are of order 1; atol covers components passing near 0
        np.testing.assert_allclose(traj.state_matrix(), oracle, rtol=1e-12, atol=1e-14)


def rk4_case():
    """q=3, p=2, C and D, h=0.1, t_end=1.05. Schedule starts 0.32 and 0.58
    lie strictly inside (0.3, 0.35) and (0.55, 0.6), the first and second
    halves of their grid intervals; input keys 0.4 (on the grid), 0.72 and
    0.78 (inside (0.7, 0.8), on either side of its midpoint). Returns the
    system, x0, the signal and the raw matrices and keys."""
    rng = np.random.default_rng(101)
    starts = [0.0, 0.32, 0.58]
    mats = [[rng.normal(size=shape) * 0.5 for shape in ((3, 3), (3, 2), (2, 3), (2, 2))]
            for _ in starts]
    breaks = [0.0, 0.4, 0.72, 0.78]
    inputs = [rng.uniform(-1.0, 1.0, 2) for _ in breaks]
    system = build_system(
        "continuous", (3,),
        [(start, CoefficientSet(**{k: Tensor.from_array(m) for k, m in zip("ABCD", ms)}))
         for start, ms in zip(starts, mats)],
        input_shape=(2,), output_shape=(2,),
    )
    signal = InputSignal.table(list(zip(breaks, inputs)))
    return system, rng.normal(size=3), signal, (starts, mats, breaks, inputs)


def rk4_run(system, x0, signal, t_end, h):
    return simulate_continuous(system, Tensor.from_array(x0), t_end, h=h, u=signal, method="rk4")


def nominal(a, b, h):
    return h if abs(b - a - h) <= 4 * math.ulp(b) else b - a


class TestRk4Memo:
    def test_memo_holds_the_distinct_segment_triples(self, monkeypatch):
        """One composed map per (segment at a, at the midpoint, at b,
        nominal dt), built once: here the five triples of rk4_case, two of
        them across a schedule start before or after the midpoint, for h
        and for the last step of 0.05."""
        calls = []

        def counting(m_a, m_mid, m_b, dt):
            calls.append((m_a, m_mid, m_b, dt))
            return build(m_a, m_mid, m_b, dt)

        build = simulate._rk4_map
        monkeypatch.setattr("tensorstate.simulate._rk4_map", counting)
        system, x0, signal, (starts, _, _, _) = rk4_case()
        times = rk4_run(system, x0, signal, 1.05, 0.1).times.tolist()
        segment = {id(m): n for n, m in enumerate(system.unfolded)}
        built = [(*(segment[id(m)] for m in ms), dt) for *ms, dt in calls]
        expected = {
            (last_at_or_before(starts, a), last_at_or_before(starts, a + (b - a) / 2),
             last_at_or_before(starts, b), nominal(a, b, 0.1))
            for a, b in zip(times, times[1:])
        }
        assert len(built) == len(set(built)) and set(built) == expected
        assert expected == {(0, 0, 0, 0.1), (0, 1, 1, 0.1), (1, 1, 1, 0.1), (1, 1, 2, 0.1),
                            (2, 2, 2, 0.1), (2, 2, 2, times[-1] - times[-2])}

    @pytest.mark.parametrize("case", ["rk4_case", "zoh_table", "zoh_none"])
    def test_memo_changes_no_bit(self, case):
        """Against a loop that composes the map anew on every interval and
        applies it as the sweep does: the held-input map where no key lies
        in (a, b], else the map on the inputs at a, the midpoint and b."""
        if case == "rk4_case":
            system, x0, signal, (starts, _, breaks, inputs) = rk4_case()
            t_end, h = 1.05, 0.1
        else:
            system, x0, signal, (starts, _, _, breaks, inputs) = zoh_case(case[4:])
            t_end, h = 3.0, 0.01
        traj = rk4_run(system, x0, signal, t_end, h)
        keys = sorted(set(starts) | set(breaks))
        v, states = x0, [x0]
        for a, b in zip(traj.times, traj.times[1:]):
            ends = (a, a + (b - a) / 2, b)
            mats = [system.unfolded[last_at_or_before(starts, t)] for t in ends]
            p, held, split = simulate._rk4_map(*mats, nominal(a, b, h))
            us = [inputs[last_at_or_before(breaks, t)] for t in ends]
            if signal is None:
                v = p @ v
            elif not any(a < k <= b for k in keys):
                v = p @ v + held @ us[0]
            else:
                v = p @ v + split @ np.concatenate(us)
            states.append(v)
        assert np.array_equal(traj.state_matrix(), states)

    @pytest.mark.parametrize("case", ["rk4_case", "zoh_table", "zoh_zero", "zoh_none"])
    def test_stage_by_stage_reference(self, case):
        """Against four field evaluations per step, the coefficients and
        input found by a linear scan at a, the midpoint and b."""
        if case == "rk4_case":
            system, x0, signal, (starts, raw_mats, breaks, inputs) = rk4_case()
            a_mats, b_mats = [m[0] for m in raw_mats], [m[1] for m in raw_mats]
            t_end, h = 1.05, 0.1
        else:
            system, x0, signal, (starts, a_mats, b_mats, breaks, inputs) = zoh_case(case[4:])
            t_end, h = 3.0, 0.01

        def field(t, v):
            seg, u = last_at_or_before(starts, t), inputs[last_at_or_before(breaks, t)]
            return a_mats[seg] @ v if u is None else a_mats[seg] @ v + b_mats[seg] @ u

        traj = rk4_run(system, x0, signal, t_end, h)
        v, states = x0, [x0]
        for a, b in zip(traj.times, traj.times[1:]):
            dt = b - a
            k1 = field(a, v)
            k2 = field(a + dt / 2, v + dt / 2 * k1)
            k3 = field(a + dt / 2, v + dt / 2 * k2)
            k4 = field(b, v + dt * k3)
            v = v + dt / 6 * (k1 + 2 * k2 + 2 * k3 + k4)
            states.append(v)
        np.testing.assert_allclose(traj.state_matrix(), states, rtol=1e-12, atol=1e-14)

    def test_key_one_ulp_after_a_grid_point_snaps(self):
        """x' = -x + u, y = x + u, h = 0.1, u stepping 0 -> 1 at 5*0.1 or
        1 ulp later. Both runs read the new input from t=0.5 on: in the last
        stage of the step to 0.5, which gives x(0.5) = 0.1/6, in the output
        at 0.5 and in every stage of the step to 0.6."""
        coeffs = CoefficientSet(**{k: make_tensor([1, 1], [v]) for k, v in zip("ABCD", (-1, 1, 1, 1))})
        system = build_system("continuous", (1,), coeffs, input_shape=(1,), output_shape=(1,))
        runs = []
        for key in (5 * 0.1, math.nextafter(5 * 0.1, math.inf)):
            u = InputSignal.table([(0.0, [0.0]), (key, [1.0])])
            runs.append(simulate_continuous(system, Tensor.zeros([1]), 1.0, h=0.1, u=u, method="rk4"))
        decay = 1 - 0.1 + 0.1**2 / 2 - 0.1**3 / 6 + 0.1**4 / 24  # RK4 of x' = -x over 0.1
        for traj in runs:
            assert traj.times[5] == 0.5
            assert traj[5].output.item() == pytest.approx(1 + 0.1 / 6, rel=1e-15)
            assert traj[6].state.item() == pytest.approx(1 + (0.1 / 6 - 1) * decay, rel=1e-12)
        assert np.array_equal(runs[0].state_matrix(), runs[1].state_matrix())
        assert np.array_equal(runs[0].output_matrix(), runs[1].output_matrix())

    @pytest.mark.parametrize("shift", [-2, -1, 1, 2])
    def test_keys_within_ulps_of_the_grid_snap(self, shift):
        """The zoh_case table with its on-grid keys moved 1 or 2 ulps either
        way gives the RK4 states of the keys on the grid points."""
        system, x0, signal, (_, _, _, breaks, inputs) = zoh_case("table")
        expected = rk4_run(system, x0, signal, 3.0, 0.01).state_matrix()
        moved = rk4_run(system, x0, zoh_signal(breaks, inputs, shift), 3.0, 0.01)
        assert np.array_equal(moved.state_matrix(), expected)


def edge_case(kind):
    """A continuous layout_system run to t_end=1.05: for h=0.1 a truncated
    last step of 0.05. Schedule starts 0.32 (strictly inside a grid
    interval), 1 ulp above the grid point 5*0.1, 0.62 and 0.64 (so the piece
    from 0.62 holds no grid sample) and 0.97; C in some segments only. With
    kind "table", input keys 0.25 (near a midpoint), 1 ulp below 7*0.1, 0.72
    and 0.78 (either side of a midpoint), 0.82 and 0.84, 1.02 (inside the
    truncated step) and 1.2 (past t_end); "zero" drives the input with the
    zero signal, "none" has no input and no D."""
    rng = np.random.default_rng(113)
    starts = [0.0, 0.32, math.nextafter(5 * 0.1, math.inf), 0.62, 0.64, 0.97]
    system = layout_system(rng, starts, ["C", "D", "", "CD", "C", "D"],
                           None if kind == "none" else (2,), "continuous")
    keys = [0.0, 0.25, math.nextafter(7 * 0.1, -math.inf), 0.72, 0.78, 0.82, 0.84, 1.02, 1.2]
    signal = {
        "table": InputSignal.table([(key, rng.uniform(-1.0, 1.0, 2)) for key in keys]),
        "zero": InputSignal.zero(),
        "none": None,
    }[kind]
    return system, rng.normal(size=(2, 2)), signal


def landed_keys(system, signal, grid=()):
    """Where the keys of a run land, by the per-key rule, an oracle for
    simulate._timeline: the schedule starts and input breakpoints together,
    in order; each key moves onto the first of its two grid neighbours (found
    by bisect) within 4 ulps of that neighbour, and of keys that land on one
    time the last holds. Returns (time, key) pairs with the times increasing,
    each key the one whose segment and input hold from that time."""
    landed = {}
    for key in sorted(set(system.schedule.keys).union(() if signal is None else signal.keys)):
        i = bisect.bisect_left(grid, key)
        near = [g for g in grid[max(i - 1, 0):i + 1] if abs(g - key) <= 4 * math.ulp(g)]
        landed[near[0] if near else key] = key
    return list(landed.items())


def per_interval_reference(system, x0, times, h, signal, method):
    """States and outputs on `times`, every grid interval stepped on its own
    by the per-interval rule, on the keys as landed_keys places them: dt = h
    for an interval within 4 ulps (of its end) of h, else its length. Exact:
    the pair of (segment, dt) when no key lies strictly inside the interval,
    else one pair per piece between those keys, not kept. RK4: the map of
    (segments at a, the midpoint and b, dt), on the inputs at those three
    times when the pieces at a and b differ and the system has an input,
    else on the input at a held. Returns the states, the outputs and the
    number of maps built, each kept one once."""
    signal = simulate._as_signal(system, signal)
    landed = landed_keys(system, signal, times)
    keys = [at for at, _ in landed]
    pieces = [(system.unfolded_at(key), None if signal is None else signal.at(key).data) for _, key in landed]
    at = [bisect.bisect_right(keys, t) - 1 for t in times]
    kept = {}
    unkept = 0

    def build(key, make, *args):
        if key not in kept:
            kept[key] = make(*args)
        return kept[key]

    def advance(p, q, u, v):
        return p @ v if u is None else p @ v + q @ u

    v, states = x0, [x0]
    for i, (a, b) in enumerate(zip(times, times[1:])):
        (m, u), j, k = pieces[at[i]], at[i], at[i + 1]
        dt = h if abs(b - a - h) <= 4 * math.ulp(b) else b - a
        if method == "rk4":
            (m_mid, u_mid), (m_b, u_b) = pieces[bisect.bisect_right(keys, a + (b - a) / 2) - 1], pieces[k]
            p, held, split = build((id(m), id(m_mid), id(m_b), dt), simulate._rk4_map, m, m_mid, m_b, dt)
            if j != k and u is not None:
                v = advance(p, split, np.concatenate((u, u_mid, u_b)), v)
            else:
                v = advance(p, held, u, v)
        else:
            inside = [key for key in keys if a < key < b]
            if not inside:
                v = advance(*build((id(m), dt), simulate._zoh_pair, m, dt), u, v)
            for p, r in zip([a, *inside], [*inside, b]) if inside else ():
                m_p, u_p = pieces[bisect.bisect_right(keys, p) - 1]
                v = advance(*simulate._zoh_pair(m_p, r - p), u_p, v)
                unkept += 1
        states.append(v)
    outputs = []
    for x, j in zip(states, at):
        m, u = pieces[j]
        y = x if m.c is None else m.c @ x
        outputs.append(y if m.d is None or u is None else y + m.d @ u)
    return np.array(states), np.array(outputs), len(kept) + unkept


class TestContinuousEdges:
    """simulate_continuous against per_interval_reference, bit for bit, with
    the same number of maps built."""

    @pytest.mark.parametrize("method", ["exact", "rk4"])
    @pytest.mark.parametrize("kind", ["table", "zero", "none"])
    @pytest.mark.parametrize("h, t_end", [
        pytest.param(h, t_end, id=str(h) if t_end == 1.05 else f"{h}-t_end={t_end!r}")
        for t_end in (1.05, 1.0 + 1e-12, 0.97) for h in (0.1, 0.01)
    ])
    def test_against_the_per_interval_rule(self, monkeypatch, method, kind, h, t_end):
        """For h=0.1, t_end 1.05 truncates the last step. t_end 1 + 1e-12
        makes the last step 1e-12 longer than h: within the grid's 1e-9·h,
        not within 4 ulps; for h=0.1 the schedule start 0.97 cuts it. At
        t_end 0.97 a piece starts on the last sample."""
        system, x0, signal = edge_case(kind)
        times = simulate_continuous(system, Tensor.from_array(x0), t_end, h=h, u=signal).times.tolist()
        states, outputs, built = per_interval_reference(system, x0.reshape(-1), times, h, signal, method)
        name = "_zoh_pair" if method == "exact" else "_rk4_map"
        calls = []
        make = getattr(simulate, name)
        monkeypatch.setattr(simulate, name, lambda *args: calls.append(args) or make(*args))
        traj = simulate_continuous(system, Tensor.from_array(x0), t_end, h=h, u=signal, method=method)
        assert same_bits(traj.state_matrix(), states)
        assert same_bits(traj.output_matrix(), outputs)
        assert len(calls) == built

    def test_the_case_has_its_edges(self):
        """h=0.1: the last step is truncated, a key lies 1 ulp off a grid
        point, two keys lie strictly inside one interval, and the pieces
        from 0.62 and 0.82 hold no grid sample."""
        system, x0, signal = edge_case("table")
        times = simulate_continuous(system, Tensor.from_array(x0), 1.05, h=0.1, u=signal).times
        assert times[-1] - times[-2] < 0.06 and times[5] == 5 * 0.1 and times[7] == 7 * 0.1
        keys = sorted({*system.schedule.keys, *signal.keys})
        assert {5 * 0.1, 7 * 0.1}.isdisjoint(keys)
        for first, second in ((0.62, 0.64), (0.82, 0.84)):
            assert not any(first <= t < second for t in times)


class TestTensorVectorEquivalence:
    def test_time_varying_full_coupling(self):
        """Tensor trajectory equals its unfolded order-1 twin's, step for step."""
        rng = np.random.default_rng(71)
        segments = []
        for start in (0, 4):
            segments.append(
                (
                    start,
                    CoefficientSet(
                        A=Tensor.from_array(rng.normal(size=(2, 3, 2, 3)) * 0.3),
                        B=Tensor.from_array(rng.normal(size=(2, 3, 2))),
                        C=Tensor.from_array(rng.normal(size=(4, 2, 3))),
                        D=Tensor.from_array(rng.normal(size=(4, 2))),
                    ),
                )
            )
        system = build_system(
            "discrete", (2, 3), segments, input_shape=(2,), output_shape=(4,)
        )
        twin = vector_twin(system)
        x0 = Tensor.from_array(rng.normal(size=(2, 3)))
        table = [(n, rng.normal(size=2)) for n in range(10)]
        u = InputSignal.table(table)
        u_vec = InputSignal.table([(n, v) for n, v in table])
        t_tensor = simulate_discrete(system, x0, 10, u=u)
        t_vector = simulate_discrete(twin, devec(vec(x0), (6,)), 10, u=u_vec)
        assert np.max(np.abs(t_tensor.state_matrix() - t_vector.state_matrix())) < 1e-12
        assert np.max(np.abs(t_tensor.output_matrix() - t_vector.output_matrix())) < 1e-12

    def test_continuous_twin(self):
        rng = np.random.default_rng(73)
        coeffs = CoefficientSet(A=Tensor.from_array(rng.normal(size=(2, 2, 2, 2)) * 0.4))
        system = build_system("continuous", (2, 2), coeffs)
        twin = vector_twin(system)
        x0 = Tensor.from_array(rng.normal(size=(2, 2)))
        t_tensor = simulate_continuous(system, x0, 1.0, h=0.25, method="exact")
        t_vector = simulate_continuous(twin, devec(vec(x0), (4,)), 1.0, h=0.25, method="exact")
        assert np.max(np.abs(t_tensor.state_matrix() - t_vector.state_matrix())) < 1e-12


class TestPlanMemory:
    @pytest.mark.parametrize("method", ["discrete", "rk4", "exact"])
    def test_peak_is_the_trajectory_and_a_small_bound(self, method):
        """A 3-key, q=4 run over 200 000 samples: the traced peak stays below
        the trajectory's own arrays (times and states, which are also the
        outputs) plus 1 MiB, so the plan holds nothing of the states' size."""
        rng = np.random.default_rng(131)
        kind, at = ("discrete", 70_000) if method == "discrete" else ("continuous", 0.7)
        a = 0.05 * rng.normal(size=(4, 4)) + (0.5 if kind == "discrete" else -0.5) * np.eye(4)
        segments = [(start, CoefficientSet(A=Tensor.from_array(a), B=Tensor.from_array(rng.normal(size=(4, 1)))))
                    for start in (0, at)]
        system = build_system(kind, (4,), segments, input_shape=(1,))
        signal = InputSignal.table([(0, [1.0]), (at * 12 / 7, [-1.0])])
        x0 = Tensor.from_array(rng.normal(size=4))
        tracemalloc.start()
        try:
            if kind == "discrete":
                traj = simulate_discrete(system, x0, 199_999, u=signal)
            else:
                traj = simulate_continuous(system, x0, 2.0, h=1e-5, u=signal, method=method)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert len(traj) >= 200_000 and traj.output_matrix() is traj.state_matrix()
        assert peak < traj.times.nbytes + traj.state_matrix().nbytes + 2**20


class TestGridLimit:
    """Runs whose samples x (state + output values) pass MAX_GRID_CELLS are
    refused before the grid or any array is built."""

    def test_discrete_limit_is_inclusive(self, monkeypatch):
        monkeypatch.setattr(simulate, "MAX_GRID_CELLS", 12)
        system = r1_system(np.eye(2))  # 2 state + 2 output values a sample
        assert len(simulate_discrete(system, make_tensor([2], [1, 2]), 2)) == 3
        with pytest.raises(ValueError, match=r"^steps 3 needs 16 output cells"):
            simulate_discrete(system, make_tensor([2], [1, 2]), 3)

    def test_continuous_limit(self, monkeypatch):
        monkeypatch.setattr(simulate, "MAX_GRID_CELLS", 22)
        system = scalar_system(-1.0)  # 1 state + 1 output value a sample
        assert len(simulate_continuous(system, make_tensor([1], [1.0]), 1.0, h=0.1)) == 11
        with pytest.raises(ValueError, match=r"^h 0.05 needs 42 output cells"):
            simulate_continuous(system, make_tensor([1], [1.0]), 1.0, h=0.05)

    def test_continuous_limit_counts_the_cut_sample(self, monkeypatch):
        """0, 0.3, 0.6, 0.9 and t_end = 1: five samples, not 1/0.3 + 1."""
        monkeypatch.setattr(simulate, "MAX_GRID_CELLS", 10)
        system = scalar_system(-1.0)
        assert len(simulate_continuous(system, make_tensor([1], [1.0]), 1.0, h=0.3)) == 5
        monkeypatch.setattr(simulate, "MAX_GRID_CELLS", 9)
        with pytest.raises(ValueError, match=r"^h 0.3 needs 10 output cells"):
            simulate_continuous(system, make_tensor([1], [1.0]), 1.0, h=0.3)

    def test_tiny_t_end_counts_two_samples(self, monkeypatch):
        """t_end = 1e-10 with h = 1 samples 0 and t_end."""
        monkeypatch.setattr(simulate, "MAX_GRID_CELLS", 4)
        system = scalar_system(-1.0)
        assert len(simulate_continuous(system, make_tensor([1], [1.0]), 1e-10, h=1.0)) == 2
        monkeypatch.setattr(simulate, "MAX_GRID_CELLS", 3)
        with pytest.raises(ValueError, match=r"^h 1.0 needs 4 output cells"):
            simulate_continuous(system, make_tensor([1], [1.0]), 1e-10, h=1.0)

    @pytest.mark.parametrize("run, message", [
        (lambda x0: simulate_discrete(scalar_system(0.5, "discrete"), x0, 10**15),
         "steps 1000000000000000 needs 2000000000000002 "),
        (lambda x0: simulate_continuous(scalar_system(-1.0), x0, 1.0, h=1e-12),
         "h 1e-12 needs 2000000000002 "),
        (lambda x0: simulate_continuous(scalar_system(-1.0), x0, 1e300, h=5e-324),
         "h 5e-324 needs inf "),
    ])
    def test_refused_before_allocation(self, run, message):
        x0 = make_tensor([1], [1.0])
        tracemalloc.start()
        try:
            with pytest.raises(ValueError, match=f"^{message}"):
                run(x0)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2**16

    def test_steps_past_the_double_range(self):
        """The cell count is an exact int in the message, not a float that overflows."""
        with pytest.raises(ValueError, match=rf"^steps {10**400} needs {2 * 10**400 + 2} output cells \("):
            simulate_discrete(scalar_system(0.5, "discrete"), make_tensor([1], [1.0]), 10**400)


class TestRk4Refusal:
    """An RK4 step h multiplies a mode λ by R(hλ) = 1 + hλ + (hλ)²/2 +
    (hλ)³/6 + (hλ)⁴/24; a run whose step would grow a decaying mode of a
    segment in force before t_end is refused before the sweep."""

    @pytest.mark.parametrize("h, bound", [(0.02, 1e-20), (0.027852935634052813, 1.0)])
    def test_stable_steps_run(self, h, bound):
        """x' = -100·x: R(-2) = 1/3, and 0.027852935634052813, the h that
        the refusal of h 0.05 names, keeps |R| <= 1, on the boundary."""
        traj = simulate_continuous(scalar_system(-100.0), make_tensor([1], [1.0]), 1.0, h=h)
        assert abs(traj.final_state.item()) <= bound

    def test_growing_modes_are_not_refused(self):
        """Re λ > 0: the system grows, and RK4 growing faster is its truncation error."""
        traj = simulate_continuous(scalar_system(100.0), make_tensor([1], [1.0]), 0.1, h=0.05)
        assert traj.final_state.item() == pytest.approx(abs(1 + 5 + 12.5 + 125 / 6 + 625 / 24) ** 2)

    def test_oscillation_names_the_complex_mode(self):
        """x'' = -2x' - 101x: λ = -1 ± 10i, and h 0.3 gives |R(hλ)| of about 4.2."""
        system = build_system("continuous", (2,), CoefficientSet(A=make_tensor([2, 2], [0, 1, -101, -2])))
        with pytest.raises(ValueError, match=r"^segment 0: rk4 steps of h 0.3 grow its decaying mode "
                                             r"lambda=-1.0000000000000\d*[+-]10.0000000000000\d*j by "):
            simulate_continuous(system, make_tensor([2], [1.0, 0.0]), 1.0, h=0.3)

    @pytest.mark.parametrize("t_end, refused", [(1.0, False), (2.0, False), (2.5, True)])
    def test_only_segments_that_start_before_t_end(self, t_end, refused):
        """A stiff segment from t = 2 is checked only when the run steps in it."""
        system = build_system("continuous", (1,), [
            (0, CoefficientSet(A=make_tensor([1, 1], [-1.0]))),
            (2.0, CoefficientSet(A=make_tensor([1, 1], [-100.0]))),
        ])
        run = lambda: simulate_continuous(system, make_tensor([1], [1.0]), t_end, h=0.05)  # noqa: E731
        if refused:
            with pytest.raises(ValueError, match=r"^segment 1: rk4 steps of h 0.05 grow "):
                run()
        else:
            assert len(run()) == round(t_end / 0.05) + 1

    def test_oscillator_names_the_marginal_mode(self):
        """x'' = -x: λ = ±i, and h 3 gives |R(3i)| = 1.505 > 1 = |e^(3i)|;
        the largest stable h is 2√2, where |R(ih)| = 1."""
        system = build_system("continuous", (2,), CoefficientSet(A=make_tensor([2, 2], [0, 1, -1, 0])))
        with pytest.raises(ValueError, match=r"^segment 0: rk4 steps of h 3.0 grow its marginal mode "
                                             r"lambda=\S+[+-]1.0\d*j by \|R\(h\*lambda\)\|=1.505\d+ per step") as err:
            simulate_continuous(system, make_tensor([2], [1.0, 0.0]), 30.0, h=3.0)
        assert float(str(err.value).split("h <= ")[1].split()[0]) == pytest.approx(2 * math.sqrt(2), rel=1e-12)
        assert len(simulate_continuous(system, make_tensor([2], [1.0, 0.0]), 28.0, h=2.8)) == 11

    @pytest.mark.parametrize("scale", [1.0, 1e6, 1e-6])
    def test_marginal_modes_refused_whatever_the_rounding(self, scale):
        """200 similarities V·A·V⁻¹ of x'' = -x at scale s: eigvals gives
        Re λ of either sign by rounding, yet every run with h·s = 3 or 2.9
        (|R| = 1.51 and 1.19) is refused and every one with 2.8 or 0.1
        (|R| = 0.93 and 1 - 1e-8) runs."""
        rng = np.random.default_rng(2026)
        a = np.array([[0.0, 1.0], [-1.0, 0.0]]) * scale
        x0 = make_tensor([2], [1.0, 0.0])
        for _ in range(200):
            v = rng.normal(size=(2, 2))
            system = build_system("continuous", (2,), CoefficientSet(A=Tensor.from_array(v @ a @ np.linalg.inv(v))))
            for ratio in (3.0, 2.9):
                with pytest.raises(ValueError, match=r"^segment 0: rk4 steps of h \S+ grow its marginal mode "):
                    simulate_continuous(system, x0, ratio / scale, h=ratio / scale)
            for ratio in (2.8, 0.1):
                assert len(simulate_continuous(system, x0, ratio / scale, h=ratio / scale)) == 2

    @pytest.mark.parametrize("lam", [1e-9 + 1j, 1e-3 + 1j, 0.05 + 2j, 5e-10], ids=str)
    def test_modes_off_the_axis_to_the_right_are_not_refused(self, lam):
        """A mode with Re λ > √eps·|λ| grows, and RK4 growing faster is its
        truncation error; one within √eps·|λ| of the axis grows no faster
        under RK4 than e^(hλ) for h·|λ| <= 2. Each A has ‖A‖∞ of 1e3 or
        more, so every h takes the eigvals path."""
        if lam.imag:
            v = np.array([[1.0, 40.0], [0.0, 1.0]])
            a = v @ np.array([[lam.real, lam.imag], [-lam.imag, lam.real]]) @ np.linalg.inv(v)
        else:  # triangular: eigvals reads λ off the diagonal
            a = np.array([[lam.real, 1e3], [0.0, lam.real]])
        assert abs(a).sum(axis=1).max() >= 1e3
        system = build_system("continuous", (2,), CoefficientSet(A=Tensor.from_array(a)))
        for h in np.geomspace(0.01, 2.0, 25).tolist():
            assert len(simulate_continuous(system, make_tensor([2], [1.0, 1.0]), 4 * h, h=h)) == 5
