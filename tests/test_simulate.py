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


class TestInputSignal:
    def test_zero(self):
        u = InputSignal.zero()
        assert u.sample(3, (2, 2)) == Tensor.zeros([2, 2])
        assert u.breakpoints == ()

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
        assert u.breakpoints == (0.0, 0.5, 1.0)

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

    def test_default_h(self):
        system = scalar_system(-1.0)
        traj = simulate_continuous(system, make_tensor([1], [1.0]), 2.0)
        assert len(traj) == 1001

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


def zoh_reference(times, x0, raw, step):
    """States on `times` from v <- Φ·v + w, where step(A, B, u, dt) gives
    (Φ, w), w None without input. It is called on every interval and on
    every piece of an interval cut at a segment start or an input breakpoint."""
    starts, a_mats, b_mats, breaks, inputs = raw
    keys = sorted(set(starts) | set(breaks))
    v, states = x0, [x0]
    for a, b in zip(times, times[1:]):
        edges = [a] + [k for k in keys if a < k < b] + [b]
        for p, r in zip(edges, edges[1:]):
            seg = last_at_or_before(starts, p)
            u = inputs[last_at_or_before(breaks, p)]
            phi, w = step(a_mats[seg], b_mats[seg], u, r - p)
            v = phi @ v if w is None else phi @ v + w
        states.append(v)
    return np.array(states)


class TestExactZohMemo:
    def test_one_exponential_per_segment_and_step_length(self, monkeypatch):
        """Whole grid intervals cost one matrix_exponential per distinct
        (segment, step length); each piece of a cut interval costs one, also
        when an earlier piece had the same segment and length."""
        calls = []

        def counting(m, t=1.0):
            calls.append(t)
            return matrix_exponential(m, t)

        monkeypatch.setattr("tensorstate.simulate.matrix_exponential", counting)
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
        assert len(calls) == len(whole) + len(pieces)
        assert len(calls) < 30

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
        assert np.array_equal(traj.state_matrix(), zoh_reference(traj.times, x0, raw, step))

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
