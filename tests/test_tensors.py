import numpy as np
import pytest

from tensorstate import (
    CoefficientSchedule,
    CoefficientSet,
    InputSignal,
    MultirateSystem,
    ParseError,
    ShapeError,
    Tensor,
    build_system,
    check_stability,
    constant_function,
    contract_last,
    contract_pair,
    controllability_rank,
    devec,
    index_function,
    lift_matrix_state,
    make_tensor,
    matrix_exponential,
    observability_rank,
    outer_product,
    simulate_continuous,
    simulate_discrete,
    solve_discrete_closed_form,
    spectral_radius,
    step_discrete,
    table_function,
    trajectory_on_grid,
    unfold,
    vec,
)
from tensorstate.fileio import _number


def counting_tensor():
    return make_tensor([2, 2, 2, 2], range(1, 17))


class TestConstruction:
    def test_scalar(self):
        t = make_tensor([], [7.0])
        assert t.shape == ()
        assert t.order == 0
        assert t.item() == 7.0

    def test_row_major_convention(self):
        t = make_tensor([2, 2], [1, 2, 3, 4])
        assert t.array.tolist() == [[1.0, 2.0], [3.0, 4.0]]
        assert t[0, 1] == 2.0
        assert t[1, 0] == 3.0

    def test_length_mismatch(self):
        with pytest.raises(ShapeError):
            make_tensor([2, 3], [1, 2, 3, 4, 5])

    def test_nonfinite_rejected(self):
        with pytest.raises(ValueError):
            make_tensor([2], [1.0, float("nan")])
        with pytest.raises(ValueError):
            make_tensor([2], [1.0, float("inf")])

    def test_bad_mode_sizes(self):
        with pytest.raises(ShapeError):
            make_tensor([2, 0], [])
        with pytest.raises(ShapeError):
            make_tensor([-1], [1.0])

    def test_immutable(self):
        t = make_tensor([2], [1, 2])
        with pytest.raises(ValueError):
            t.array[0] = 5.0

    def test_from_array_and_equality(self):
        a = Tensor.from_array([[1.0, 2.0], [3.0, 4.0]])
        assert a == make_tensor([2, 2], [1, 2, 3, 4])
        assert a != make_tensor([2, 2], [1, 2, 3, 5])
        assert a != make_tensor([4], [1, 2, 3, 4])

    def test_arithmetic(self):
        a = make_tensor([2], [1, 2])
        b = make_tensor([2], [3, 4])
        assert (a + b).tolist() == [4.0, 6.0]
        assert (b - a).tolist() == [2.0, 2.0]
        assert (2.0 * a).tolist() == [2.0, 4.0]
        assert (a * 3).tolist() == [3.0, 6.0]
        assert (-a).tolist() == [-1.0, -2.0]
        with pytest.raises(ShapeError):
            a + make_tensor([3], [1, 2, 3])
        with pytest.raises(ShapeError, match=r"^cannot subtract tensors of shapes \[2\] and \[3\]$"):
            a - make_tensor([3], [1, 2, 3])

    @pytest.mark.parametrize("op, symbol", [
        (lambda t: t + 1.0, r"\+"), (lambda t: t - 1.0, "-"), (lambda t: t * None, r"\*"),
    ], ids=["add", "subtract", "multiply"])
    def test_arithmetic_with_a_non_tensor(self, op, symbol):
        with pytest.raises(TypeError, match=rf"^unsupported operand type\(s\) for {symbol}: 'Tensor' and "):
            op(make_tensor([2], [1, 2]))

    def test_non_iterable_shape(self):
        with pytest.raises(ShapeError, match=r"^shape must be an iterable of integers, got 5$"):
            Tensor(5, [1.0])

    def test_item_of_several_entries(self):
        with pytest.raises(ShapeError, match=r"^item\(\) requires a single-entry tensor, shape is \[2\]$"):
            make_tensor([2], [1, 2]).item()

    def test_non_contiguous_slice(self):
        """A strided slice comes back as a read-only, C-contiguous copy."""
        t = make_tensor([2, 3], range(6))
        column = t[:, 1]
        assert column.tolist() == [1.0, 4.0]
        assert column.array.flags.c_contiguous and not column.array.flags.writeable

    def test_repr(self):
        assert repr(make_tensor([2], [1, 2.5])) == "Tensor(shape=[2], data=[1.0, 2.5])"

    def test_identity(self):
        eye = Tensor.identity([3])
        assert eye.array.tolist() == np.eye(3).tolist()
        eye4 = Tensor.identity([2, 2])
        assert eye4.shape == (2, 2, 2, 2)
        # T[i1,i2,j1,j2] = delta(i1,j1) delta(i2,j2)
        for i1 in range(2):
            for i2 in range(2):
                for j1 in range(2):
                    for j2 in range(2):
                        expected = 1.0 if (i1, i2) == (j1, j2) else 0.0
                        assert eye4[i1, i2, j1, j2] == expected


class TestOuterProduct:
    def test_scalars(self):
        p = outer_product(make_tensor([], [2.0]), make_tensor([], [3.0]))
        assert p.order == 0
        assert p.item() == 6.0

    def test_order_adds(self):
        a = Tensor.zeros([2, 2, 2])
        b = Tensor.zeros([2, 2])
        assert outer_product(a, b).shape == (2, 2, 2, 2, 2)

    def test_ones(self):
        a = make_tensor([2, 2], [1] * 4)
        b = make_tensor([2], [1, 1])
        assert outer_product(a, b) == make_tensor([2, 2, 2], [1] * 8)

    def test_entrywise_oracle(self):
        rng = np.random.default_rng(42)
        a = Tensor.from_array(rng.normal(size=(2, 3)))
        b = Tensor.from_array(rng.normal(size=(2,)))
        p = outer_product(a, b)
        for i in range(2):
            for j in range(3):
                for k in range(2):
                    assert p[i, j, k] == a[i, j] * b[k]


class TestContractPair:
    def test_trace(self):
        t = make_tensor([2, 2], [1, 2, 3, 4])
        s = contract_pair(t, 0, 1)
        assert s.order == 0
        assert s.item() == 5.0

    def test_identity_contraction(self):
        a = make_tensor([2, 2], [1, 2, 3, 4])
        prod = contract_pair(outer_product(a, Tensor.identity([2])), 1, 2)
        assert prod == a

    def test_matrix_product_oracle(self):
        """contract_pair over the inner pair of an outer product is matmul."""
        rng = np.random.default_rng(7)
        a = Tensor.from_array(rng.normal(size=(2, 2)))
        b = Tensor.from_array(rng.normal(size=(2, 2)))
        got = contract_pair(outer_product(a, b), 1, 2)
        expected = np.zeros((2, 2))
        for i in range(2):
            for j in range(2):
                for k in range(2):
                    expected[i, j] += a[i, k] * b[k, j]
        assert np.max(np.abs(got.array - expected)) < 1e-12

    def test_remaining_mode_order(self):
        rng = np.random.default_rng(11)
        t = Tensor.from_array(rng.normal(size=(2, 3, 2)))
        got = contract_pair(t, 0, 2)
        expected = np.zeros(3)
        for j in range(3):
            for k in range(2):
                expected[j] += t[k, j, k]
        assert np.max(np.abs(got.array - expected)) < 1e-12

    def test_errors(self):
        t = Tensor.zeros([2, 3])
        with pytest.raises(ShapeError):
            contract_pair(t, 0, 1)
        with pytest.raises(ValueError):
            contract_pair(t, 0, 0)
        with pytest.raises(ValueError):
            contract_pair(t, 0, 5)


class TestContractLast:
    def test_identity(self):
        x = make_tensor([3], [1, 2, 3])
        assert contract_last(Tensor.identity([3]), x) == x

    def test_counting_tensor(self):
        # hand value: unfold rows [1..4],[5..8],[9..12],[13..16] times vec(I2)
        got = contract_last(counting_tensor(), Tensor.identity([2]))
        assert got.array.tolist() == [[5.0, 13.0], [21.0, 29.0]]

    def test_zero_state(self):
        rng = np.random.default_rng(3)
        a = Tensor.from_array(rng.normal(size=(2, 2, 2, 2)))
        assert contract_last(a, Tensor.zeros([2, 2])) == Tensor.zeros([2, 2])

    def test_full_contraction_to_scalar(self):
        a = make_tensor([2], [1, 2])
        x = make_tensor([2], [3, 4])
        assert contract_last(a, x).item() == 11.0

    def test_order_error(self):
        with pytest.raises(ValueError):
            contract_last(Tensor.zeros([2]), Tensor.zeros([2, 2]))

    def test_trailing_mismatch(self):
        with pytest.raises(ShapeError):
            contract_last(Tensor.zeros([2, 3]), Tensor.zeros([2]))

    def test_loop_oracle(self):
        """Quadruple-loop direct summation on a random order-4 tensor."""
        rng = np.random.default_rng(19)
        a = Tensor.from_array(rng.normal(size=(3, 3, 3, 3)))
        x = Tensor.from_array(rng.normal(size=(3, 3)))
        got = contract_last(a, x)
        expected = np.zeros((3, 3))
        for i1 in range(3):
            for i2 in range(3):
                for j1 in range(3):
                    for j2 in range(3):
                        expected[i1, i2] += a[i1, i2, j1, j2] * x[j1, j2]
        assert np.max(np.abs(got.array - expected)) < 1e-12


class TestVecDevecUnfold:
    def test_vec_convention(self):
        assert vec(make_tensor([2, 2], [1, 2, 3, 4])).tolist() == [1.0, 2.0, 3.0, 4.0]

    def test_vec_scalar(self):
        assert vec(make_tensor([], [5.0])).tolist() == [5.0]

    def test_vec_zeros(self):
        assert vec(Tensor.zeros([2, 2, 2])).tolist() == [0.0] * 8

    def test_devec(self):
        assert devec(make_tensor([4], [1, 2, 3, 4]), [2, 2]) == make_tensor(
            [2, 2], [1, 2, 3, 4]
        )
        assert devec(make_tensor([1], [7.0]), []).item() == 7.0

    def test_devec_errors(self):
        with pytest.raises(ShapeError):
            devec(make_tensor([3], [1, 2, 3]), [2, 2])
        with pytest.raises(ValueError):
            devec(make_tensor([2, 2], [1, 2, 3, 4]), [2, 2])

    def test_row_major_bijection(self):
        rng = np.random.default_rng(5)
        for shape in [(), (4,), (2, 3), (2, 3, 4), (3, 1, 2)]:
            x = Tensor.from_array(rng.normal(size=shape))
            assert devec(vec(x), shape) == x

    def test_vec_offset_enumeration(self):
        """vec walks multi-indices with the last index fastest."""
        t = Tensor.from_array(np.arange(24.0).reshape(2, 3, 4))
        flat = vec(t)
        offset = 0
        for i in range(2):
            for j in range(3):
                for k in range(4):
                    assert flat[offset] == t[i, j, k]
                    offset += 1

    def test_unfold_counting(self):
        m = unfold(counting_tensor(), 2)
        assert m.tolist() == [
            [1.0, 2.0, 3.0, 4.0],
            [5.0, 6.0, 7.0, 8.0],
            [9.0, 10.0, 11.0, 12.0],
            [13.0, 14.0, 15.0, 16.0],
        ]

    def test_unfold_order2_identity(self):
        a = make_tensor([2, 3], [1, 2, 3, 4, 5, 6])
        assert unfold(a, 1).tolist() == a.array.tolist()

    def test_unfold_extremes(self):
        a = counting_tensor()
        assert unfold(a, 0).shape == (1, 16)
        assert unfold(a, 4).shape == (16, 1)
        with pytest.raises(ValueError):
            unfold(a, 5)
        with pytest.raises(ValueError):
            unfold(a, -1)

    def test_unfold_contract_loop_oracle(self):
        """Triple route: loop summation vs contract_last vs unfold@vec."""
        rng = np.random.default_rng(23)
        a = Tensor.from_array(rng.normal(size=(3, 3, 3, 3)))
        m = unfold(a, 2)
        for _ in range(20):
            x = Tensor.from_array(rng.normal(size=(3, 3)))
            by_loop = np.zeros((3, 3))
            for i1 in range(3):
                for i2 in range(3):
                    for j1 in range(3):
                        for j2 in range(3):
                            by_loop[i1, i2] += a[i1, i2, j1, j2] * x[j1, j2]
            by_contract = contract_last(a, x).array
            by_unfold = (m @ vec(x)).reshape(3, 3)
            assert np.max(np.abs(by_contract - by_loop)) < 1e-12
            assert np.max(np.abs(by_unfold - by_loop)) < 1e-12


class TestProperties:
    def test_contraction_unfolding_equivalence(self):
        rng = np.random.default_rng(101)
        for _ in range(50):
            r = int(rng.integers(1, 3))
            extra = int(rng.integers(0, 3))
            x_shape = tuple(int(s) for s in rng.integers(1, 4, size=r))
            lead = tuple(int(s) for s in rng.integers(1, 4, size=extra))
            a = Tensor.from_array(rng.normal(size=lead + x_shape))
            x = Tensor.from_array(rng.normal(size=x_shape))
            lhs = vec(contract_last(a, x))
            rhs = unfold(a, extra) @ vec(x)
            assert np.max(np.abs(lhs - rhs)) < 1e-12

    def test_bilinearity(self):
        rng = np.random.default_rng(13)
        a = Tensor.from_array(rng.normal(size=(2, 2, 2)))
        x = Tensor.from_array(rng.normal(size=(2, 2)))
        y = Tensor.from_array(rng.normal(size=(2, 2)))
        alpha, beta = 0.7, -1.3
        lhs = contract_last(a, alpha * x + beta * y)
        rhs = alpha * contract_last(a, x) + beta * contract_last(a, y)
        assert np.max(np.abs(lhs.array - rhs.array)) < 1e-12

    def test_outer_contract_consistency(self):
        rng = np.random.default_rng(17)
        a = Tensor.from_array(rng.normal(size=(3, 3)))
        b = Tensor.from_array(rng.normal(size=(3, 3)))
        via_contract = contract_pair(outer_product(a, b), 1, 2)
        assert np.max(np.abs(via_contract.array - a.array @ b.array)) < 1e-12

    def test_order_arithmetic(self):
        rng = np.random.default_rng(29)
        a = Tensor.from_array(rng.normal(size=(2, 3)))
        b = Tensor.from_array(rng.normal(size=(2, 2, 2)))
        assert outer_product(a, b).order == a.order + b.order
        t = Tensor.from_array(rng.normal(size=(2, 3, 2)))
        assert contract_pair(t, 0, 2).order == t.order - 2


def _discrete_scalar():
    return build_system("discrete", (1,), CoefficientSet(A=make_tensor([1, 1], [0.5])))


@pytest.mark.parametrize("call, message", [
    (lambda: step_discrete(_discrete_scalar(), make_tensor([1], [1.0]), n=-1), "n must be >= 0, got -1"),
    (lambda: simulate_discrete(_discrete_scalar(), make_tensor([1], [1.0]), -2),
     "steps must be >= 0, got -2"),
    (lambda: solve_discrete_closed_form(_discrete_scalar(), make_tensor([1], [1.0]), -3),
     "n must be >= 0, got -3"),
    (lambda: trajectory_on_grid(MultirateSystem([[0.5]], [2], constant_function(1.0)), -4),
     "horizon must be >= 0, got -4"),
    (lambda: lift_matrix_state(np.eye(2), columns=0), "columns must be >= 1, got 0"),
], ids=["step_discrete", "simulate_discrete", "closed_form", "trajectory_on_grid", "lift_matrix_state"])
def test_count_argument_below_its_least_value(call, message):
    """Every count argument is read by one rule, which names the argument
    and its least value."""
    with pytest.raises(ValueError) as err:
        call()
    assert str(err.value) == message


def _lifted(kind, m):
    """The lifted `kind` of lift_matrix_state with m for `kind` and 2x2
    identities for the other three of A to D."""
    parts = dict.fromkeys("ABCD", np.eye(2)) | {kind: m}
    return getattr(lift_matrix_state(columns=2, **parts).coefficients_at(0), kind).array


# entry point: (call returning an array or a float, name in its errors, square)
MATRIX_ENTRY_POINTS = {
    "spectral_radius": (spectral_radius, "matrix", True),
    "matrix_exponential": (matrix_exponential, "matrix", True),
    "MultirateSystem-A": (lambda m: MultirateSystem(m, (2, 3), index_function()).A, "A", True),
    "MultirateSystem-B": (lambda m: MultirateSystem(np.eye(2), (2, 3), index_function(),
                                                    B=m, input=index_function()).B, "B", False),
    **{f"lift_matrix_state-{k}": (lambda m, k=k: _lifted(k, m), k, k == "A") for k in "ABCD"},
    "Tensor.from_array": (lambda m: Tensor.from_array(m).array, "tensor", None),
    "make_tensor": (lambda m: make_tensor([2, 2], m).array, "tensor", None),
}
INTAKE_MATRIX = [[0.5, 0.25], [-0.125, 1.0]]
# entry points that refuse a matrix without entries: the shape to try
EMPTY_SHAPES = {"spectral_radius": (0, 0), "lift_matrix_state-A": (0, 0), "lift_matrix_state-B": (2, 0),
                "lift_matrix_state-C": (0, 2), "lift_matrix_state-D": (0, 0)}


def _intake_cases():
    for name, (_, what, square) in MATRIX_ENTRY_POINTS.items():
        finite = f"{what} entries must be finite"
        cases = {
            "tensor": (Tensor.from_array(INTAKE_MATRIX), None),
            "nan": ([[0.5, np.nan], [0.0, 1.0]], (ValueError, finite)),
            "inf": ([[0.5, 0.0], [np.inf, 1.0]], (ValueError, finite)),
            "huge-int": ([[10**400]], (ValueError, finite)),
        }
        for label, value in {"text": [["a"]], "ragged": [[1, 2], [3]], "complex": [[1j]]}.items():
            cases[label] = (value, (ValueError, f"{what} must be a rectangular array of real numbers, got {value!r}"))
        if name in EMPTY_SHAPES:
            shape = EMPTY_SHAPES[name]
            cases["empty"] = (np.zeros(shape), (ValueError, f"{what} must not be empty, got shape {list(shape)}"))
        if square is not None:  # a tensor may have any order
            rule = "square" if square else "a matrix"
            cases["1-D"] = (np.ones(2), (ShapeError, f"{what} must be {rule}, got shape [2]"))
        if square:
            cases["2x3"] = (np.ones((2, 3)), (ShapeError, f"{what} must be square, got shape [2, 3]"))
        for label, (value, expected) in cases.items():
            yield pytest.param(name, value, expected, id=f"{name}-{label}")


@pytest.mark.parametrize("name, value, expected", list(_intake_cases()))
def test_one_matrix_intake(name, value, expected):
    """Every entry point that takes a matrix reads an order-2 Tensor by its
    entries, bit for bit as their array, and refuses what does not convert
    to real numbers, a non-finite entry (an int past the double range is
    one), a non-matrix, (where it must be square) a non-square matrix and
    (where it must have entries) an empty one with the same type and text,
    naming the argument."""
    call = MATRIX_ENTRY_POINTS[name][0]
    if expected is None:
        got, want = np.asarray(call(value)), np.asarray(call(np.array(INTAKE_MATRIX)))
        assert got.shape == want.shape and got.tobytes() == want.tobytes()
        return
    kind, message = expected
    with pytest.raises(ValueError) as err:
        call(value)
    assert type(err.value) is kind and str(err.value) == message


def _observed():
    """A stable discrete system with B and C, for the tolerance arguments."""
    coeffs = CoefficientSet(A=make_tensor([2, 2], [0.5, 0.0, 0.0, 0.25]), B=make_tensor([2, 1], [1.0, 0.0]),
                            C=make_tensor([1, 2], [1.0, 0.0]))
    return build_system("discrete", (2,), coeffs, input_shape=(1,), output_shape=(1,))


def _decay(t_end, h):
    """Times and states of a decay run to t_end in steps of h."""
    system = build_system("continuous", (1,), CoefficientSet(A=make_tensor([1, 1], [-1.0])))
    trajectory = simulate_continuous(system, make_tensor([1], [1.0]), t_end, h=h)
    return np.column_stack([trajectory.times, trajectory.state_matrix()])


SEGMENT = CoefficientSet(A=make_tensor([1, 1], [1.0]))

# entry point: (call of a real, name in its errors, an int it accepts)
REAL_ENTRY_POINTS = {
    "simulate_continuous-t_end": (lambda v: _decay(v, 0.5), "t_end", 2),
    "simulate_continuous-h": (lambda v: _decay(2.0, v), "h", 1),
    "matrix_exponential": (lambda v: matrix_exponential(INTAKE_MATRIX, v), "t", 2),
    "check_stability": (lambda v: check_stability(_observed(), v), "epsilon", 0),
    "controllability_rank": (lambda v: controllability_rank(_observed(), v), "rel_tol", 0),
    "observability_rank": (lambda v: observability_rank(_observed(), v), "rel_tol", 0),
    "CoefficientSchedule": (lambda v: CoefficientSchedule([(0, SEGMENT), (v, SEGMENT)]).keys, "schedule entry 1 key", 3),
    "InputSignal.table": (lambda v: InputSignal.table([(0, [1.0]), (v, [2.0])]).keys, "input table entry 1 key", 3),
    "fileio._number": (lambda v: _number(v, "s.json.schedule[1].start"), "s.json.schedule[1].start", 3),
    "constant_function": (lambda v: constant_function(v)(1, 0), "constant value", 3),
    "constant_function-per-process": (lambda v: constant_function([1.0, v])(2, 0), "constant value of process 2", 3),
    "table_function": (lambda v: table_function({(1, 0): v})(1, 0), "table value at (1, 0)", 3),
    "Tensor.__mul__": (lambda v: (make_tensor([2], [0.5, -0.125]) * v).array, "scalar", 3),
}
REFUSED_REALS = {"str": "2", "bool": True, "numpy-bool": np.bool_(True), "none": None, "complex": 1j,
                 "huge-int": 10**400, "nan": float("nan"), "inf": float("inf"), "-inf": float("-inf")}


def _real_cases():
    for name, (_, what, _) in REAL_ENTRY_POINTS.items():
        for label, kind in {"float64": np.float64, "int64": np.int64, "int": int}.items():
            yield pytest.param(name, kind, None, id=f"{name}-{label}")
        for label, value in REFUSED_REALS.items():
            if name == "simulate_continuous-h" and label == "none":  # the default step, t_end/1000
                continue
            if name == "Tensor.__mul__" and label in ("str", "none"):  # not a number: Python's own refusal
                other = "can't multiply sequence by non-int of type 'Tensor'" if label == "str" else (
                    "unsupported operand type(s) for *: 'Tensor' and 'NoneType'")
                expected = (TypeError, other)
            elif label in ("huge-int", "nan", "inf", "-inf"):
                expected = (ValueError, f"{what}: number out of the finite double range")
            else:
                expected = (ValueError, f"{what}: expected a number, got {value!r}")
            if name == "fileio._number":
                expected = (ParseError, expected[1])
            yield pytest.param(name, value, expected, id=f"{name}-{label}")


def _bits(result):
    """A result as bytes that tell apart any two values or types."""
    if isinstance(result, np.ndarray):
        return result.dtype.str.encode() + repr(result.shape).encode() + result.tobytes()
    return repr(result).encode()


@pytest.mark.parametrize("name, value, expected", list(_real_cases()))
def test_one_real_intake(name, value, expected):
    """Every entry point that takes a real reads a Python or numpy int or
    float, bit for bit as the float of the same value, and refuses a bool,
    a non-number and a value whose double is not finite (an int past the
    double range is one) with the same type and text, naming the argument."""
    call, _, accepted = REAL_ENTRY_POINTS[name]
    if expected is None:
        assert _bits(call(value(accepted))) == _bits(call(float(accepted)))
        return
    kind, message = expected
    with pytest.raises(Exception) as err:
        call(value)
    assert type(err.value) is kind and str(err.value) == message
