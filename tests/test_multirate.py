import tracemalloc
import warnings

import numpy as np
import pytest

from tensorstate import (
    BoundaryDataError,
    InputSignal,
    MultirateSystem,
    NumericOverflowError,
    Tensor,
    build_system,
    CoefficientSet,
    constant_function,
    eval_state,
    global_clock,
    index_function,
    simulate_discrete,
    table_function,
    trajectory_on_grid,
)
from tensorstate import multirate, simulate


def mixed_boundary(i, n):
    """x1 -> n, x2 -> 1: the boundary data of the docs example."""
    return float(n) if i == 1 else 1.0


def docs_system():
    return MultirateSystem(
        A=[[1.0, 1.0], [0.0, 1.0]], clocks=(2, 3), boundary=mixed_boundary
    )


class TestGlobalClock:
    def test_coprime(self):
        clock = global_clock((2, 3))
        assert clock.d == 6
        assert clock.factors == (3, 2)

    def test_shared_factor(self):
        clock = global_clock((4, 6))
        assert clock.d == 12
        assert clock.factors == (3, 2)

    def test_equal_clocks(self):
        clock = global_clock((2, 2))
        assert clock.d == 2
        assert clock.factors == (1, 1)

    def test_factor_identity(self):
        clock = global_clock((6, 10, 15))
        assert clock.d == 30
        for c, f in zip((6, 10, 15), clock.factors):
            assert c * f == clock.d

    def test_clock_one_rejected(self):
        with pytest.raises(ValueError, match="^clock must be >= 2, got 1$"):
            global_clock((2, 1))

    def test_clock_zero_rejected(self):
        with pytest.raises(ValueError):
            global_clock((0, 3))

    def test_non_integer_clock_refused(self):
        with pytest.raises(ValueError, match="^clock must be an integer, got 2.5$"):
            global_clock([2.5, 3])
        assert global_clock([np.int64(2), 3]).d == 6


class TestEvalState:
    def test_identity_forwards_boundary(self):
        system = MultirateSystem(
            A=np.eye(2), clocks=(2, 3), boundary=index_function()
        )
        # x1(6) = x1(3), and 3 is off the recurrence grid
        assert eval_state(system, 1, 6) == 3.0

    def test_docs_values(self):
        system = docs_system()
        assert eval_state(system, 1, 6) == 4.0
        assert eval_state(system, 1, 18) == 10.0
        assert eval_state(system, 1, 36) == 11.0

    def test_plain_recursion_reference(self):
        """Memoized engine vs a test-local reference with no cache at all."""
        system = docs_system()
        a = np.array([[1.0, 1.0], [0.0, 1.0]])
        clocks = (2, 3)

        def reference(i, n):
            if n > 0 and n % 6 == 0:
                return sum(
                    a[i - 1, j] * reference(j + 1, n // clocks[j]) for j in range(2)
                )
            return mixed_boundary(i, n)

        for n in range(0, 73):
            for i in (1, 2):
                assert eval_state(system, i, n) == reference(i, n)

    def test_zero_is_boundary(self):
        system = docs_system()
        assert eval_state(system, 1, 0) == 0.0
        assert eval_state(system, 2, 0) == 1.0

    def test_off_grid_is_boundary(self):
        system = docs_system()
        for n in (1, 2, 3, 4, 5, 7, 9, 15):
            assert eval_state(system, 1, n) == float(n)

    def test_boundary_dominance(self):
        """With A = I the value is the boundary at n stripped of clock factors."""
        system = MultirateSystem(
            A=np.eye(2), clocks=(2, 3), boundary=index_function()
        )
        assert eval_state(system, 1, 36) == 9.0   # 36 -> 18 -> 9, c1 = 2
        assert eval_state(system, 1, 24) == 3.0   # 24 -> 12 -> 6 -> 3
        assert eval_state(system, 2, 36) == 4.0   # 36 -> 12 -> 4, c2 = 3
        assert eval_state(system, 2, 18) == 2.0   # 18 -> 6 -> 2

    def test_input_term(self):
        system = MultirateSystem(
            A=[[1.0, 0.0], [1.0, 1.0]],
            B=[[2.0, 0.0], [0.0, 3.0]],
            clocks=(2, 2),
            boundary=constant_function(1.0),
            input=index_function(),
        )
        # hand expansion: x1(2) = x1(1) + 2*u(1,1) = 3
        assert eval_state(system, 1, 2) == 3.0
        # x1(4) = x1(2) + 2*u(1,2) = 7
        assert eval_state(system, 1, 4) == 7.0
        # x2(2) = x1(1) + x2(1) + 3*u(2,1) = 5
        # x2(4) = x1(2) + x2(2) + 3*u(2,2) = 3 + 5 + 6 = 14
        assert eval_state(system, 2, 4) == 14.0

    def test_bad_process(self):
        system = docs_system()
        with pytest.raises(ValueError):
            eval_state(system, 0, 6)
        with pytest.raises(ValueError):
            eval_state(system, 3, 6)

    def test_negative_index(self):
        with pytest.raises(ValueError):
            eval_state(docs_system(), 1, -6)

    def test_non_integer_arguments_refused(self):
        with pytest.raises(ValueError, match="^index must be an integer, got 2.5$"):
            eval_state(docs_system(), 1, 2.5)
        with pytest.raises(ValueError, match="^process must be an integer, got 1.5$"):
            eval_state(docs_system(), 1.5, 2)
        assert eval_state(docs_system(), np.int64(1), np.int64(2)) == 2.0

    def test_table_function_refuses_non_integer_keys(self):
        with pytest.raises(ValueError, match="^table index must be an integer, got 2.5$"):
            table_function({(1, 2.5): 7.0})
        with pytest.raises(ValueError, match="^table process must be an integer, got 1.0$"):
            table_function({(1.0, 2): 7.0})
        assert table_function({(np.int64(1), np.int64(2)): 7.0})(1, 2) == 7.0

    def test_missing_boundary_reported(self):
        system = MultirateSystem(
            A=[[1.0, 1.0], [0.0, 1.0]],
            clocks=(2, 3),
            boundary=table_function({(1, 0): 0.0, (2, 2): 1.0}),
        )
        # x1(6) needs boundary(1, 3), absent from the table
        with pytest.raises(BoundaryDataError) as err:
            eval_state(system, 1, 6)
        assert err.value.process == 1
        assert err.value.index == 3
        assert "boundary" in str(err.value)
        assert "process 1" in str(err.value)
        assert "index 3" in str(err.value)

    def test_missing_input_reported(self):
        system = MultirateSystem(
            A=np.eye(1),
            B=np.eye(1),
            clocks=(2,),
            boundary=constant_function(0.0),
            input=table_function({(1, 5): 1.0}),
        )
        with pytest.raises(BoundaryDataError) as err:
            eval_state(system, 1, 2)
        assert err.value.index == 1
        assert "input" in str(err.value)

    def test_shared_cache_reused(self):
        system = docs_system()
        cache = {}
        eval_state(system, 1, 36, cache=cache)
        assert (1, 18) in cache
        assert cache[(1, 18)] == 10.0


class TestConstruction:
    def test_b_without_input(self):
        with pytest.raises(ValueError, match="together"):
            MultirateSystem(
                A=np.eye(2), B=np.eye(2), clocks=(2, 3), boundary=index_function()
            )

    def test_input_without_b(self):
        with pytest.raises(ValueError, match="together"):
            MultirateSystem(
                A=np.eye(2), clocks=(2, 3), boundary=index_function(),
                input=index_function(),
            )

    def test_clock_count_mismatch(self):
        with pytest.raises(ValueError):
            MultirateSystem(A=np.eye(2), clocks=(2, 3, 4), boundary=index_function())

    def test_non_square_a(self):
        with pytest.raises(ValueError):
            MultirateSystem(A=np.ones((2, 3)), clocks=(2, 3), boundary=index_function())

    def test_boundary_not_callable(self):
        with pytest.raises(TypeError):
            MultirateSystem(A=np.eye(1), clocks=(2,), boundary=3.0)

    def test_non_integer_clock_refused(self):
        with pytest.raises(ValueError, match="^clock must be an integer, got 2.5$"):
            MultirateSystem(A=np.eye(2), clocks=(2.5, 3), boundary=index_function())

    def test_clocks_read_once(self):
        system = MultirateSystem(A=np.eye(2), clocks=(c for c in [np.int64(4), 6]), boundary=index_function())
        assert system.clocks == (4, 6) and all(type(c) is int for c in system.clocks)
        assert trajectory_on_grid(system, 2).shape == (3, 2)


class TestTrajectoryOnGrid:
    def test_docs_grid(self):
        values = trajectory_on_grid(docs_system(), 6)
        assert values.shape == (7, 2)
        assert values[:, 0].tolist() == [0.0, 4.0, 5.0, 10.0, 6.0, 16.0, 11.0]
        assert values[:, 1].tolist() == [1.0] * 7

    def test_horizon_zero(self):
        values = trajectory_on_grid(docs_system(), 0)
        assert values.tolist() == [[0.0, 1.0]]

    def test_negative_horizon(self):
        with pytest.raises(ValueError):
            trajectory_on_grid(docs_system(), -1)

    def test_non_integer_horizon_refused(self):
        with pytest.raises(ValueError, match="^horizon must be an integer, got 2.9$"):
            trajectory_on_grid(docs_system(), 2.9)
        assert trajectory_on_grid(docs_system(), np.int64(2)).shape == (3, 2)

    def test_matches_standalone_eval(self):
        system = docs_system()
        values = trajectory_on_grid(system, 8)
        for k in range(9):
            for i in (1, 2):
                assert values[k, i - 1] == eval_state(system, i, 6 * k)


class TestSingleRateDegeneracy:
    """Equal clocks c: along n = m * c^j the recurrence is an ordinary
    linear step, so it must reproduce simulate_discrete."""

    @pytest.mark.parametrize("c,m", [(2, 1), (2, 3), (3, 1), (3, 5)])
    def test_geometric_chain(self, c, m):
        rng = np.random.default_rng(200 + 10 * c + m)
        a = rng.normal(size=(2, 2)) * 0.6
        b = rng.normal(size=(2, 2)) * 0.5
        x0 = rng.normal(size=2)
        depth = 6

        u_values = {}
        for i in (1, 2):
            for j in range(depth + 1):
                u_values[(i, m * c**j)] = float(rng.normal())

        def boundary(i, n):
            if n == m:
                return float(x0[i - 1])
            raise LookupError

        system = MultirateSystem(
            A=a, B=b, clocks=(c, c), boundary=boundary,
            input=table_function(u_values),
        )

        single = build_system(
            "discrete",
            (2,),
            CoefficientSet(A=Tensor.from_array(a), B=Tensor.from_array(b)),
            input_shape=(2,),
        )
        table = [
            (j, [u_values[(1, m * c**j)], u_values[(2, m * c**j)]])
            for j in range(depth)
        ]
        traj = simulate_discrete(
            single, Tensor.from_array(x0), depth, u=InputSignal.table(table)
        )

        for j in range(depth + 1):
            n = m * c**j
            for i in (1, 2):
                chain = eval_state(system, i, n)
                assert abs(chain - traj[j].state.tolist()[i - 1]) < 1e-12


def grid_indices(clocks, horizon):
    """(process, index) pairs the sweep to `horizon` looks up: k*f_j for all k, j."""
    clock = global_clock(clocks)
    return [(j, k * f) for k in range(horizon + 1) for j, f in enumerate(clock.factors, 1)]


def process_function(kind, clocks, horizon, rng):
    if kind == "index":
        return index_function()
    if kind == "constant":
        return constant_function(rng.uniform(-1.0, 1.0, len(clocks)))
    return table_function({key: float(rng.normal()) for key in grid_indices(clocks, horizon)})


def recursion_rows(system, horizon):
    """The grid by eval_state with one shared cache, in tick then process order."""
    cache = {}
    m = system.process_count
    return np.array(
        [[eval_state(system, i, k * system.clock.d, cache) for i in range(1, m + 1)]
         for k in range(horizon + 1)]
    )


def counting(func, calls):
    def lookup(i, n):
        calls.append((i, n))
        return func(i, n)

    return lookup


def columns(func):
    """func as built, answering many(process, indices)."""
    return func


def plain(func):
    """func behind a counting wrapper without many(), read one value at a time."""
    return counting(func, [])


CLOCK_SETS = [(2, 3), (2, 3, 5), (4, 6, 9), (2, 3, 5, 7)]

# (spec, process, tick) of one missing table value
MISSING = [("boundary", 1, 0), ("boundary", 2, 4), ("boundary", 3, 7), ("boundary", 1, 9),
           ("input", 1, 1), ("input", 2, 6), ("input", 3, 10)]


class TestGridSweep:
    """trajectory_on_grid against the memoized recursion it replaces."""

    @pytest.mark.parametrize("clocks", CLOCK_SETS, ids=str)
    @pytest.mark.parametrize("with_input", [False, True], ids=["no-input", "input"])
    @pytest.mark.parametrize("kind", ["index", "constant", "table"])
    def test_equals_recursion(self, clocks, with_input, kind):
        rng = np.random.default_rng([len(clocks), max(clocks), with_input, len(kind)])
        m = len(clocks)
        extra = {}
        if with_input:
            extra = {"B": rng.uniform(-0.5, 0.5, (m, m)),
                     "input": process_function(kind, clocks, 300, rng)}
        system = MultirateSystem(
            A=rng.uniform(-0.5, 0.5, (m, m)), clocks=clocks,
            boundary=process_function(kind, clocks, 300, rng), **extra,
        )
        for horizon in (0, 1, 2, 7, 300):
            assert np.array_equal(trajectory_on_grid(system, horizon),
                                  recursion_rows(system, horizon))

    @pytest.mark.parametrize("clocks", [(2, 2**70), (10**20, 3), (3, 7)], ids=str)
    def test_clock_past_horizon(self, clocks):
        system = MultirateSystem(A=[[0.5, 0.25], [0.1, 0.3]], B=np.eye(2), clocks=clocks,
                                 boundary=index_function(), input=constant_function(0.5))
        for horizon in (2, 9):
            assert np.array_equal(trajectory_on_grid(system, horizon),
                                  recursion_rows(system, horizon))

    @pytest.mark.parametrize("what,process,tick", MISSING)
    def test_missing_entry_same_error(self, what, process, tick, wrap=columns):
        clocks = (2, 3, 5)
        rng = np.random.default_rng(7)
        values = {key: float(rng.normal()) for key in grid_indices(clocks, 10)}
        del values[(process, tick * global_clock(clocks).factors[process - 1])]
        tables = {"boundary": wrap(table_function(values)), "input": wrap(constant_function(0.5))}
        if what == "input":
            tables = {"boundary": wrap(constant_function(0.5)),
                      "input": wrap(table_function(values))}
        system = MultirateSystem(A=np.full((3, 3), 0.2), B=np.eye(3), clocks=clocks, **tables)
        with pytest.raises(BoundaryDataError) as expected:
            recursion_rows(system, 10)
        with pytest.raises(BoundaryDataError) as got:
            trajectory_on_grid(system, 10)
        assert (got.value.process, got.value.index, str(got.value)) == (
            expected.value.process, expected.value.index, str(expected.value))
        assert what in str(got.value)

    @pytest.mark.parametrize("what,process,tick", MISSING)
    def test_missing_entry_same_error_plain(self, what, process, tick):
        """The same with callables that have no many()."""
        self.test_missing_entry_same_error(what, process, tick, wrap=plain)

    def test_first_missing_value_wins(self, wrap=columns):
        """With a boundary and an input missing, both reached at tick 2, the
        recursion meets the boundary first; so must the sweep."""
        clocks = (2, 3)
        boundary = {key: 1.0 for key in grid_indices(clocks, 4)}
        inputs = dict(boundary)
        del boundary[(2, 4)], inputs[(1, 6)]
        system = MultirateSystem(A=np.eye(2), B=np.eye(2), clocks=clocks,
                                 boundary=wrap(table_function(boundary)),
                                 input=wrap(table_function(inputs)))
        with pytest.raises(BoundaryDataError) as err:
            trajectory_on_grid(system, 4)
        assert (err.value.process, err.value.index) == (2, 4)
        assert "boundary" in str(err.value)

    def test_first_missing_value_wins_plain(self):
        self.test_first_missing_value_wins(wrap=plain)

    @pytest.mark.parametrize("wrap", [columns, plain], ids=["many", "plain"])
    @pytest.mark.parametrize(
        "boundary_gaps,input_gaps,message",
        [  # boundary ticks 7 (processes 1, 3) and 8; input tick 3 before boundary tick 9
            ([(3, 42), (1, 105), (2, 80)], [], "missing boundary value for process 1 at index 105"),
            ([(1, 135)], [(3, 18)], "missing input value for process 3 at index 18"),
        ],
        ids=["same-tick", "earlier-tick"],
    )
    def test_first_of_several_gaps_wins(self, boundary_gaps, input_gaps, message, wrap):
        clocks = (2, 3, 5)
        boundary = {key: 1.0 for key in grid_indices(clocks, 10)}
        inputs = dict(boundary)
        for key in boundary_gaps:
            del boundary[key]
        for key in input_gaps:
            del inputs[key]
        system = MultirateSystem(A=np.full((3, 3), 0.2), B=np.eye(3), clocks=clocks,
                                 boundary=wrap(table_function(boundary)),
                                 input=wrap(table_function(inputs)))
        with pytest.raises(BoundaryDataError) as expected:
            recursion_rows(system, 10)
        with pytest.raises(BoundaryDataError) as got:
            trajectory_on_grid(system, 10)
        assert str(got.value) == str(expected.value) == message

    @pytest.mark.parametrize("clocks", CLOCK_SETS, ids=str)
    def test_each_value_looked_up_once(self, clocks):
        horizon = 300
        m = len(clocks)
        boundary_calls, input_calls = [], []
        system = MultirateSystem(
            A=np.full((m, m), 0.1), B=np.eye(m), clocks=clocks,
            boundary=counting(index_function(), boundary_calls),
            input=counting(constant_function(1.0), input_calls),
        )
        trajectory_on_grid(system, horizon)
        off_grid = sum(1 for k in range(1, horizon + 1) for c in clocks if k % c)
        assert len(boundary_calls) == m + off_grid
        assert len(input_calls) == m * horizon
        assert len(set(boundary_calls)) == len(boundary_calls)
        assert len(set(input_calls)) == len(input_calls)

    @pytest.mark.parametrize("clocks, horizon", [
        ((2, 3, 5), 40),
        # d = 3·(2^61 − 1): process 1's indices k·(2^61 − 1) pass 2^63 from k = 5, process 2's do not
        ((3, 2**61 - 1), 9),
        # every factor is past 2^63
        ((2**64 + 13, 2**65 + 1), 3),
    ], ids=str)
    def test_many_reads_the_exact_indices_in_order(self, clocks, horizon):
        """One many() call per column, in the order process 1's boundary,
        its input, process 2's boundary, ...: the boundary at k·f_j for k = 0
        and the k that c_j does not divide, the input at k·f_j for k >= 1,
        every index an exact Python int after tolist()."""
        calls = []

        def recording(what):
            def many(i, indices):
                calls.append((what, i, indices.tolist()))
                return np.zeros(len(indices))
            return multirate._columns(lambda i, n: 0.0, many)

        system = MultirateSystem(A=np.eye(len(clocks)), B=np.eye(len(clocks)), clocks=clocks,
                                 boundary=recording("boundary"), input=recording("input"))
        trajectory_on_grid(system, horizon)
        want = []
        for j, (c, f) in enumerate(zip(clocks, system.clock.factors), 1):
            want.append(("boundary", j, [k * f for k in range(horizon + 1) if k == 0 or k % c]))
            want.append(("input", j, [k * f for k in range(1, horizon + 1)]))
        assert calls == want
        assert all(type(n) is int for _, _, indices in calls for n in indices)


class TestMultirateChecks:
    """Construction and lookup refusals, each with its type and text."""

    @pytest.mark.parametrize("field", ["A", "B"])
    def test_non_finite_coefficients(self, field):
        coupling = {"A": np.eye(2), "B": np.eye(2)}
        coupling[field] = [[1.0, np.nan], [0.0, 1.0]]
        with pytest.raises(ValueError, match=rf"^{field} entries must be finite$"):
            MultirateSystem(clocks=(2, 3), boundary=index_function(), input=index_function(), **coupling)

    def test_input_not_callable(self):
        with pytest.raises(TypeError, match=r"^input must be callable \(process, index\) -> real$"):
            MultirateSystem(A=np.eye(2), B=np.eye(2), clocks=(2, 3), boundary=index_function(), input=1.0)

    def test_boundary_returning_none(self):
        system = MultirateSystem(A=np.eye(2), clocks=(2, 3), boundary=lambda i, n: None if i == 2 else 1.0)
        with pytest.raises(BoundaryDataError, match=r"^missing boundary value for process 2 at index 2$") as err:
            eval_state(system, 2, 2)
        assert (err.value.process, err.value.index) == (2, 2)


class TestHorizonLimit:
    def test_limit_is_inclusive(self, monkeypatch):
        monkeypatch.setattr(simulate, "MAX_GRID_CELLS", 15)
        assert trajectory_on_grid(docs_system(), 4).shape == (5, 2)  # 5 x 3 cells
        with pytest.raises(ValueError, match="horizon 5 needs 18 output cells"):
            trajectory_on_grid(docs_system(), 5)

    def test_one_limit_refuses_both_runs(self, monkeypatch):
        """The sweep reads simulate.MAX_GRID_CELLS when it is called, so one
        patch refuses a simulate run and a sweep alike; multirate keeps no
        copy of it."""
        assert trajectory_on_grid(docs_system(), 6).shape == (7, 2)
        monkeypatch.setattr(simulate, "MAX_GRID_CELLS", 5)
        system = build_system("discrete", (1,), CoefficientSet(A=Tensor.from_array([[0.5]])))
        with pytest.raises(ValueError, match=r"^steps 6 needs 14 output cells"):
            simulate_discrete(system, Tensor.from_array([1.0]), 6)
        with pytest.raises(ValueError, match=r"^horizon 6 needs 21 output cells"):
            trajectory_on_grid(docs_system(), 6)
        assert not hasattr(multirate, "MAX_GRID_CELLS")

    def test_refused_before_lookup_or_allocation(self):
        calls = []
        system = MultirateSystem(A=np.eye(2), clocks=(2, 3),
                                 boundary=counting(index_function(), calls))
        horizon = 10**15
        tracemalloc.start()
        try:
            with pytest.raises(ValueError, match=f"horizon {horizon} "):
                trajectory_on_grid(system, horizon)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert calls == []
        assert peak < 2**16

    def test_indices_past_double_range_refused(self):
        """d = 3 * (10^308 + 1): index 2d, which tick 2 reads, has no double.
        Refused with ValueError before any lookup, not a bare OverflowError
        from index_function; tick 0 alone still runs."""
        calls = []
        system = MultirateSystem([[0.5, 0.1], [0.2, 0.3]], [10**308 + 1, 3],
                                 counting(index_function(), calls))
        with pytest.raises(ValueError) as err:
            trajectory_on_grid(system, 2)
        assert str(err.value) == (
            f"horizon 2 times d={3 * 10**308 + 3} is past the largest double "
            "(1.7976931348623157e+308), so the ticks cannot be written"
        )
        assert calls == []
        assert trajectory_on_grid(system, 0).tolist() == [[0.0, 0.0]]


class TestOverflow:
    def overflowing_system(self):
        return MultirateSystem(A=np.full((2, 2), 1e300), clocks=(2, 3),
                               boundary=constant_function(1e300))

    def test_non_finite_state_names_tick_and_process(self):
        """Tick 1 (index d = 6) sums products 1e300 * 1e300 of boundary
        values, which overflow in both processes; process 1 comes first.
        No numpy warning escapes."""
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(NumericOverflowError,
                               match=r"^state of process 1 became non-finite at tick 1 \(index 6\)$"):
                trajectory_on_grid(self.overflowing_system(), 4)

    def test_first_non_finite_in_row_major_order(self):
        """Process 2 overflows from tick 1 on (1e300 times its boundary
        value 1e300) and process 1 at tick 3, where it reads process 2's
        state: the message names the earlier tick, not the earlier
        process."""
        system = MultirateSystem(A=[[0.5, 1.0], [0.0, 1e300]], clocks=(2, 3),
                                 boundary=constant_function(1e300))
        with pytest.raises(NumericOverflowError,
                           match=r"^state of process 2 became non-finite at tick 1 \(index 6\)$"):
            trajectory_on_grid(system, 4)

    def test_finite_grid_is_unchanged(self):
        system = MultirateSystem(A=np.full((2, 2), 1e150), clocks=(2, 3),
                                 boundary=constant_function(1.0))
        rows = trajectory_on_grid(system, 1)
        assert np.array_equal(rows, [[1.0, 1.0], [2e150, 2e150]])
