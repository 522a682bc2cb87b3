import numpy as np
import pytest

from tensorstate import (
    CoefficientSchedule,
    CoefficientSet,
    InputSignal,
    ShapeError,
    Tensor,
    build_system,
    lift_matrix_state,
    make_tensor,
    simulate_discrete,
    step_discrete,
)


def classical_pair():
    return CoefficientSet(
        A=make_tensor([2, 2], [0.5, 0.1, 0.0, 0.3]),
        B=make_tensor([2, 1], [1.0, 0.0]),
    )


class TestBuildSystem:
    def test_classical_lti(self):
        system = build_system("discrete", (2,), classical_pair(), input_shape=(1,))
        assert system.state_dim == 2
        assert system.state_order == 1
        assert system.has_input
        assert system.is_time_invariant
        assert system.output_shape == (2,)

    def test_order_two(self):
        rng = np.random.default_rng(0)
        coeffs = CoefficientSet(
            A=Tensor.from_array(rng.normal(size=(2, 2, 2, 2))),
            B=Tensor.from_array(rng.normal(size=(2, 2, 2))),
        )
        system = build_system("discrete", (2, 2), coeffs, input_shape=(2,))
        assert system.coefficients_at(0).A.order == 4
        assert system.coefficients_at(0).B.order == 3

    def test_wrong_a_order(self):
        coeffs = CoefficientSet(A=Tensor.zeros([2, 2, 2]))
        with pytest.raises(ShapeError) as err:
            build_system("discrete", (2, 2), coeffs)
        assert "A" in str(err.value)
        assert "expected" in str(err.value)

    def test_b_without_input_shape(self):
        with pytest.raises(ShapeError) as err:
            build_system("discrete", (2,), classical_pair())
        assert "B" in str(err.value)

    def test_input_shape_without_b(self):
        coeffs = CoefficientSet(A=Tensor.identity([2]))
        with pytest.raises(ShapeError) as err:
            build_system("discrete", (2,), coeffs, input_shape=(1,))
        assert "B" in str(err.value)

    def test_d_needs_input(self):
        coeffs = CoefficientSet(A=Tensor.identity([2]), D=Tensor.zeros([2, 1]))
        with pytest.raises(ShapeError) as err:
            build_system("discrete", (2,), coeffs)
        assert "D" in str(err.value)

    def test_output_shape_needs_c(self):
        coeffs = CoefficientSet(A=Tensor.identity([2]))
        with pytest.raises(ShapeError) as err:
            build_system("discrete", (2,), coeffs, output_shape=(3,))
        assert "C" in str(err.value)

    def test_c_sets_output_shape(self):
        coeffs = CoefficientSet(A=Tensor.identity([2]), C=Tensor.zeros([3, 2]))
        system = build_system("discrete", (2,), coeffs, output_shape=(3,))
        assert system.output_shape == (3,)
        assert system.output_dim == 3

    def test_empty_schedule(self):
        with pytest.raises(ValueError):
            build_system("discrete", (2,), [])

    def test_bad_time_kind(self):
        with pytest.raises(ValueError):
            build_system("sometimes", (2,), CoefficientSet(A=Tensor.identity([2])))


class TestSchedule:
    def test_first_start_must_be_zero(self):
        coeffs = CoefficientSet(A=Tensor.identity([2]))
        with pytest.raises(ValueError):
            CoefficientSchedule([(1, coeffs)])

    def test_strictly_increasing(self):
        coeffs = CoefficientSet(A=Tensor.identity([2]))
        with pytest.raises(ValueError):
            CoefficientSchedule([(0, coeffs), (5, coeffs), (5, coeffs)])
        with pytest.raises(ValueError):
            CoefficientSchedule([(0, coeffs), (float("nan"), coeffs)])

    def test_lookup_boundaries(self):
        early = CoefficientSet(A=Tensor.identity([2]))
        late = CoefficientSet(A=Tensor.from_array(2 * np.eye(2)))
        system = build_system("discrete", (2,), [(0, early), (10, late)])
        assert system.coefficients_at(9) is early
        assert system.coefficients_at(10) is late
        assert system.coefficients_at(17) is late
        assert not system.is_time_invariant
        schedule = CoefficientSchedule([(0, early), (2.5, late)])
        assert schedule.at(2.4999) is early
        assert schedule.at(2.5) is late
        assert schedule.at(1e12) is late

    def test_single_segment_lookup(self):
        system = build_system("discrete", (2,), classical_pair(), input_shape=(1,))
        assert system.coefficients_at(17) is system.coefficients_at(0)

    def test_negative_when(self):
        system = build_system("discrete", (2,), classical_pair(), input_shape=(1,))
        with pytest.raises(ValueError):
            system.coefficients_at(-1)

    def test_discrete_needs_integer_starts(self):
        coeffs = CoefficientSet(A=Tensor.identity([2]))
        with pytest.raises(ValueError):
            build_system("discrete", (2,), [(0, coeffs), (2.5, coeffs)])

    def test_continuous_allows_fractional_starts(self):
        coeffs = CoefficientSet(A=Tensor.identity([2]))
        system = build_system("continuous", (2,), [(0, coeffs), (2.5, coeffs)])
        assert len(system.schedule) == 2


class TestLiftMatrixState:
    def test_identity_lifts_to_identity(self):
        system = lift_matrix_state(np.eye(2), columns=2)
        assert system.state_shape == (2, 2)
        assert system.coefficients_at(0).A == Tensor.identity([2, 2])

    def test_columns_move_independently(self):
        a = np.array([[0.0, 1.0], [0.0, 0.0]])
        system = lift_matrix_state(a, columns=3)
        z = Tensor.from_array(np.arange(6.0).reshape(2, 3))
        nxt, _ = step_discrete(system, z)
        for col in range(3):
            assert np.array_equal(nxt.array[:, col], a @ z.array[:, col])

    def test_homogeneity_exact(self):
        rng = np.random.default_rng(21)
        a = rng.normal(size=(3, 3))
        z = rng.normal(size=(3, 4))
        system = lift_matrix_state(a, columns=4)
        nxt, _ = step_discrete(system, Tensor.from_array(z))
        assert np.array_equal(nxt.array, a @ z)

    def test_per_column_simulation_oracle(self):
        """Lifted trajectory equals M independent vector simulations."""
        rng = np.random.default_rng(33)
        a = rng.normal(size=(2, 2)) * 0.6
        b = rng.normal(size=(2, 1))
        lifted = lift_matrix_state(a, B=b, columns=2)
        assert lifted.input_shape == (1, 2)
        z0 = rng.normal(size=(2, 2))
        u_cols = rng.normal(size=(1, 2))
        traj = simulate_discrete(
            lifted, Tensor.from_array(z0), 10, u=InputSignal.constant(Tensor.from_array(u_cols))
        )
        single = build_system(
            "discrete",
            (2,),
            CoefficientSet(A=Tensor.from_array(a), B=Tensor.from_array(b)),
            input_shape=(1,),
        )
        for col in range(2):
            col_traj = simulate_discrete(
                single,
                Tensor.from_array(z0[:, col]),
                10,
                u=InputSignal.constant(Tensor.from_array(u_cols[:, col])),
            )
            for sample, col_sample in zip(traj, col_traj):
                assert np.max(np.abs(sample.state.array[:, col] - col_sample.state.array)) < 1e-12

    def test_output_coupling(self):
        a = np.eye(2)
        c = np.array([[1.0, -1.0]])
        system = lift_matrix_state(a, C=c, columns=3)
        assert system.output_shape == (1, 3)
        z = Tensor.from_array(np.arange(6.0).reshape(2, 3))
        _, out = step_discrete(system, z)
        assert np.array_equal(out.array, c @ z.array)

    def test_feedthrough(self):
        """With D, each output column is C·z + D·u of its own columns."""
        rng = np.random.default_rng(41)
        a, b = rng.normal(size=(3, 3)), rng.normal(size=(3, 2))
        c, d = rng.normal(size=(2, 3)), rng.normal(size=(2, 2))
        system = lift_matrix_state(a, B=b, C=c, D=d, columns=4)
        z, u = rng.normal(size=(3, 4)), rng.normal(size=(2, 4))
        _, out = step_discrete(system, Tensor.from_array(z), Tensor.from_array(u))
        for col in range(4):
            assert np.allclose(out.array[:, col], c @ z[:, col] + d @ u[:, col], rtol=1e-14, atol=1e-14)

    def test_errors(self):
        with pytest.raises(ShapeError):
            lift_matrix_state(np.zeros((2, 3)), columns=2)
        with pytest.raises(ValueError):
            lift_matrix_state(np.eye(2), columns=0)
        with pytest.raises(ShapeError):
            lift_matrix_state(np.eye(2), B=np.zeros((3, 1)), columns=2)
        with pytest.raises(ShapeError):
            lift_matrix_state(np.eye(2), D=np.zeros((1, 1)), columns=2)


def test_decoupling():
    """Diagonal A and B: perturbing one state component never leaks into the
    others along the whole trajectory."""
    a = np.diag([0.9, -0.4, 0.2])
    b = np.diag([1.0, 2.0, 3.0])
    system = build_system(
        "discrete",
        (3,),
        CoefficientSet(A=Tensor.from_array(a), B=Tensor.from_array(b)),
        input_shape=(3,),
    )
    u = InputSignal.constant(make_tensor([3], [0.3, -0.7, 0.1]))
    x0 = make_tensor([3], [1.0, 2.0, 3.0])
    x0_bumped = make_tensor([3], [1.0, 2.5, 3.0])
    base = simulate_discrete(system, x0, 12, u=u)
    bumped = simulate_discrete(system, x0_bumped, 12, u=u)
    for s_base, s_bump in zip(base, bumped):
        diff = s_bump.state.array - s_base.state.array
        assert diff[0] == 0.0
        assert diff[2] == 0.0


def test_shape_soundness():
    """Every segment of a built system admits contract_last with the state."""
    rng = np.random.default_rng(55)
    segments = []
    for start in (0, 3, 7):
        segments.append(
            (start, CoefficientSet(A=Tensor.from_array(rng.normal(size=(2, 3, 2, 3)))))
        )
    system = build_system("discrete", (2, 3), segments)
    state = Tensor.from_array(rng.normal(size=(2, 3)))
    for start, _ in system.schedule:
        nxt, _ = step_discrete(system, state, n=start)
        assert nxt.shape == (2, 3)
