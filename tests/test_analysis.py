import math
import warnings

import numpy as np
import pytest

from tensorstate import (
    AnalysisReport,
    CoefficientSet,
    ShapeError,
    Tensor,
    analyze,
    build_system,
    check_stability,
    controllability_rank,
    make_tensor,
    observability_rank,
    simulate_discrete,
    spectral_radius,
    step_discrete,
    unfold_system,
    vec,
    vector_twin,
)


def r1_system(a, b=None, c=None, time_kind="discrete"):
    a = np.atleast_2d(np.asarray(a, dtype=float))
    kwargs = {"A": Tensor.from_array(a)}
    input_shape = output_shape = None
    if b is not None:
        b = np.atleast_2d(np.asarray(b, dtype=float))
        kwargs["B"] = Tensor.from_array(b)
        input_shape = (b.shape[1],)
    if c is not None:
        c = np.atleast_2d(np.asarray(c, dtype=float))
        kwargs["C"] = Tensor.from_array(c)
        output_shape = (c.shape[0],)
    return build_system(
        time_kind,
        (a.shape[0],),
        CoefficientSet(**kwargs),
        input_shape=input_shape,
        output_shape=output_shape,
    )


def random_r2_system(rng, with_output=True):
    kwargs = {
        "A": Tensor.from_array(rng.normal(size=(2, 2, 2, 2)) * 0.4),
        "B": Tensor.from_array(rng.normal(size=(2, 2, 3))),
    }
    output_shape = None
    if with_output:
        kwargs["C"] = Tensor.from_array(rng.normal(size=(3, 2, 2)))
        kwargs["D"] = Tensor.from_array(rng.normal(size=(3, 3)))
        output_shape = (3,)
    return build_system(
        "discrete", (2, 2), CoefficientSet(**kwargs), input_shape=(3,),
        output_shape=output_shape,
    )


class TestUnfoldSystem:
    def test_r1_passthrough(self):
        a = np.array([[1.0, 2.0], [3.0, 4.0]])
        m = unfold_system(r1_system(a, b=np.eye(2)))
        assert np.array_equal(m.a, a)
        assert np.array_equal(m.b, np.eye(2))
        assert m.c is None and m.d is None

    def test_counting_unfold(self):
        coeffs = CoefficientSet(A=make_tensor([2, 2, 2, 2], range(1, 17)))
        system = build_system("discrete", (2, 2), coeffs)
        m = unfold_system(system)
        assert m.a.shape == (4, 4)
        assert m.a.tolist() == [
            [1.0, 2.0, 3.0, 4.0],
            [5.0, 6.0, 7.0, 8.0],
            [9.0, 10.0, 11.0, 12.0],
            [13.0, 14.0, 15.0, 16.0],
        ]

    def test_step_agreement(self):
        """One tensor step equals the matrix step on vectorized data."""
        rng = np.random.default_rng(81)
        system = random_r2_system(rng)
        m = unfold_system(system)
        x = Tensor.from_array(rng.normal(size=(2, 2)))
        u = Tensor.from_array(rng.normal(size=3))
        nxt, out = step_discrete(system, x, u=u)
        assert np.max(np.abs(vec(nxt) - (m.a @ vec(x) + m.b @ vec(u)))) < 1e-12
        assert np.max(np.abs(vec(out) - (m.c @ vec(x) + m.d @ vec(u)))) < 1e-12

    def test_time_varying_rejected(self):
        coeffs = CoefficientSet(A=Tensor.identity([2]))
        system = build_system("discrete", (2,), [(0, coeffs), (5, coeffs)])
        with pytest.raises(ValueError, match="time-invariant"):
            unfold_system(system)


class TestSpectralRadius:
    def test_diagonal(self):
        assert spectral_radius(np.diag([0.5, -0.25])) == 0.5

    def test_rotation(self):
        theta = 0.7
        rot = 0.9 * np.array(
            [[np.cos(theta), -np.sin(theta)], [np.sin(theta), np.cos(theta)]]
        )
        assert abs(spectral_radius(rot) - 0.9) < 1e-12

    def test_tensor_argument(self):
        coeffs = make_tensor([2, 2], [0.5, 0, 0, 0.25])
        assert spectral_radius(coeffs) == 0.5

    def test_power_iteration_oracle(self):
        """sqrt of the dominant eigenvalue of m^T m grown by brute force,
        for a symmetric matrix where that equals the spectral radius."""
        rng = np.random.default_rng(83)
        m = rng.normal(size=(4, 4))
        m = (m + m.T) / 2
        v = rng.normal(size=4)
        for _ in range(2000):
            v = m.T @ (m @ v)
            v /= np.linalg.norm(v)
        dominant = float(np.sqrt(v @ m.T @ m @ v))
        assert abs(spectral_radius(m) - dominant) < 1e-6

    def test_non_finite(self):
        with pytest.raises(ValueError, match=r"^matrix entries must be finite$"):
            spectral_radius(np.array([[1.0, np.inf], [0.0, 1.0]]))

    def test_non_square(self):
        with pytest.raises(ShapeError):
            spectral_radius(np.zeros((2, 3)))

    def test_empty(self):
        """A 0x0 matrix passes the matrix intake but has no eigenvalues."""
        with pytest.raises(ValueError) as err:
            spectral_radius(np.zeros((0, 0)))
        assert type(err.value) is ValueError
        assert str(err.value) == "matrix must not be empty, got shape [0, 0]"


class TestStability:
    def test_discrete_stable(self):
        res = check_stability(r1_system(0.5 * np.eye(2)))
        assert res.verdict == "stable"
        assert res.stable
        assert res.spectral_radius == 0.5
        assert res.max_real_part is None

    def test_discrete_marginal(self):
        res = check_stability(r1_system(np.eye(2)))
        assert res.verdict == "marginal"
        assert not res.stable

    def test_discrete_unstable(self):
        res = check_stability(r1_system(2.0 * np.eye(2)))
        assert res.verdict == "unstable"

    def test_continuous_stable(self):
        res = check_stability(r1_system(-np.eye(2), time_kind="continuous"))
        assert res.verdict == "stable"
        assert res.max_real_part == -1.0
        assert res.spectral_radius == 1.0

    def test_continuous_marginal_oscillator(self):
        a = np.array([[0.0, 1.0], [-1.0, 0.0]])
        res = check_stability(r1_system(a, time_kind="continuous"))
        assert res.verdict == "marginal"
        assert abs(res.max_real_part) < 1e-12

    def test_continuous_unstable(self):
        res = check_stability(r1_system(np.eye(2) * 0.1, time_kind="continuous"))
        assert res.verdict == "unstable"

    def test_epsilon_band(self):
        system = r1_system((1.0 + 1e-12) * np.eye(1))
        assert check_stability(system).verdict == "marginal"
        assert check_stability(system, epsilon=1e-14).verdict == "unstable"
        system = r1_system((1.0 - 1e-12) * np.eye(1))
        assert check_stability(system).verdict == "marginal"
        assert check_stability(system, epsilon=1e-14).verdict == "stable"

    def test_time_varying_rejected(self):
        coeffs = CoefficientSet(A=Tensor.identity([2]))
        system = build_system("discrete", (2,), [(0, coeffs), (5, coeffs)])
        with pytest.raises(ValueError, match="time-invariant"):
            check_stability(system)

    def test_verdict_predicts_decay(self):
        """A stable verdict really does mean the free response dies out."""
        rng = np.random.default_rng(89)
        a = rng.normal(size=(3, 3))
        a *= 0.9 / np.abs(np.linalg.eigvals(a)).max()
        system = r1_system(a)
        assert check_stability(system).verdict == "stable"
        x0 = Tensor.from_array(rng.normal(size=3))
        traj = simulate_discrete(system, x0, 400)
        assert np.linalg.norm(vec(traj.final_state)) < 1e-6


class TestControllability:
    def test_companion_full_rank(self):
        a = np.array([[0.0, 1.0], [-0.5, 0.3]])
        b = np.array([[0.0], [1.0]])
        assert controllability_rank(r1_system(a, b=b)) == 2

    def test_decoupled_deficient(self):
        assert controllability_rank(r1_system(np.eye(2), b=[[1.0], [0.0]])) == 1

    def test_no_input_rejected(self):
        with pytest.raises(ValueError, match="input"):
            controllability_rank(r1_system(np.eye(2)))

    def test_lifted_single_component(self):
        """Matrix state with identity dynamics, driven only through the first
        row component: one reachable direction per column."""
        from tensorstate import lift_matrix_state

        system = lift_matrix_state(np.eye(3), B=np.array([[1.0], [0.0], [0.0]]), columns=4)
        assert system.state_dim == 12
        assert controllability_rank(system) == 4

    def test_reachable_span_oracle(self):
        """Rank equals the dimension of the span of states reachable from 0
        by unit impulses, grown step by step."""
        rng = np.random.default_rng(97)
        for _ in range(5):
            a = rng.normal(size=(4, 4)) * 0.5
            b = rng.normal(size=(4, rng.integers(1, 3)))
            if rng.random() < 0.3:
                b[:, 0] = a @ b[:, -1]
            system = r1_system(a, b=b)
            vectors = []
            block = b.copy()
            for _ in range(4):
                vectors.append(block)
                block = a @ block
            span = np.hstack(vectors)
            assert controllability_rank(system) == np.linalg.matrix_rank(span)


class TestObservability:
    def test_companion_full_rank(self):
        a = np.array([[0.0, 1.0], [-0.5, 0.3]])
        c = np.array([[1.0, 0.0]])
        assert observability_rank(r1_system(a, c=c)) == 2

    def test_zero_readout(self):
        assert observability_rank(r1_system(np.eye(2), c=np.zeros((1, 2)))) == 0

    def test_no_readout_rejected(self):
        with pytest.raises(ValueError, match="output"):
            observability_rank(r1_system(np.zeros((3, 3))))

    def test_duality(self):
        """obs(A, C) == ctrb(A^T, C^T) on random instances."""
        rng = np.random.default_rng(101)
        for _ in range(10):
            a = rng.normal(size=(4, 4))
            c = rng.normal(size=(2, 4))
            if rng.random() < 0.4:
                c[1] = c[0] @ a
            obs = observability_rank(r1_system(a, c=c))
            ctrb = controllability_rank(r1_system(a.T, b=c.T))
            assert obs == ctrb


BAD_TOLERANCES = [float("nan"), float("inf"), -1.0]


def _tolerance_refusal(name, value):
    """The real-number intake's text for a non-finite value, else the sign rule's."""
    if math.isfinite(value):
        return f"{name} must be >= 0, got {value}"
    return f"{name}: number out of the finite double range"


class TestTolerances:
    """epsilon and rel_tol must be finite and >= 0; zero is valid."""

    def system(self):
        return r1_system([[0.9, 0.0], [0.0, 0.5]], b=[[1.0], [0.0]], c=[[1.0, 0.0]])

    @pytest.mark.parametrize("value", BAD_TOLERANCES, ids=str)
    def test_bad_epsilon(self, value):
        for call in (check_stability, analyze):
            with pytest.raises(ValueError) as err:
                call(self.system(), epsilon=value)
            assert str(err.value) == _tolerance_refusal("epsilon", value)

    @pytest.mark.parametrize("value", BAD_TOLERANCES, ids=str)
    @pytest.mark.parametrize("rank", [controllability_rank, observability_rank, analyze])
    def test_bad_rel_tol(self, rank, value):
        with pytest.raises(ValueError) as err:
            rank(self.system(), rel_tol=value)
        assert str(err.value) == _tolerance_refusal("rel_tol", value)

    @pytest.mark.parametrize("call, name", [
        (check_stability, "epsilon"), (analyze, "epsilon"), (analyze, "rel_tol"),
        (controllability_rank, "rel_tol"), (observability_rank, "rel_tol"),
    ], ids=["check_stability", "analyze-epsilon", "analyze-rel_tol", "controllability_rank", "observability_rank"])
    def test_refused_before_the_decomposition(self, call, name):
        """A bad tolerance is refused at entry: the eigendecomposition of
        M_A is never computed, so the system's modal cache stays empty."""
        system = self.system()
        with pytest.raises(ValueError) as err:
            call(system, **{name: float("nan")})
        assert str(err.value) == _tolerance_refusal(name, float("nan"))
        assert system._modes is None

    def test_zero_is_valid(self):
        report = analyze(self.system(), epsilon=0.0, rel_tol=0.0)
        assert report.verdict == "stable"
        assert (report.controllability_rank, report.observability_rank) == (1, 1)


class TestAnalyze:
    def test_full_report(self):
        a = np.array([[0.0, 1.0], [-0.5, 0.3]])
        report = analyze(r1_system(a, b=[[0.0], [1.0]], c=[[1.0, 0.0]]))
        assert isinstance(report, AnalysisReport)
        assert report.state_dim == 2
        assert report.verdict == "stable"
        assert report.stable
        assert report.controllability_rank == 2
        assert report.controllable
        assert report.observability_rank == 2
        assert report.observable
        assert report.max_real_part is None

    def test_absent_couplings_are_none(self):
        report = analyze(r1_system(0.5 * np.eye(2)))
        assert report.controllability_rank is None
        assert report.controllable is None
        assert report.observability_rank is None
        assert report.observable is None
        assert report.spectral_radius == 0.5
        assert report.verdict == "stable"

    def test_continuous_reports_real_part(self):
        report = analyze(r1_system(-2.0 * np.eye(2), time_kind="continuous"))
        assert report.max_real_part == -2.0
        assert report.verdict == "stable"

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("k", [-1000, -600, 600, 1000, 1023, 1024])
    def test_pair_scaled_by_a_power_of_two(self, k):
        """sample_systems/discrete_pair.json with A scaled by 2^k. At k = 1024
        every entry is finite, yet ||A||_F is not; the decomposition works
        on A scaled by 2^-k."""
        a = np.ldexp([[0.9, 0.1], [0.0, 0.8]], k)
        report = analyze(r1_system(a, b=[[1.0], [0.0]], c=[[1.0, 1.0]]))
        assert report.spectral_radius == math.ldexp(0.9, k)
        assert report.verdict == ("stable" if k < 0 else "unstable")
        assert (report.controllability_rank, report.observability_rank) == (1, 1)

    @pytest.mark.filterwarnings("error")
    def test_eigenvalue_past_the_double_range(self):
        """1e308 [[1, 1], [1, 1]] has the eigenvalues 2e308, which reads
        inf, and 0; B = [1, -1] reaches only the second mode, and C = [1, 1]
        sees only the first."""
        system = r1_system(np.full((2, 2), 1e308), b=[[1.0], [-1.0]], c=[[1.0, 1.0]])
        report = analyze(system)
        assert report.spectral_radius == math.inf
        assert report.verdict == "unstable"
        assert (report.controllability_rank, report.observability_rank) == (1, 1)

    def test_tensor_system_matches_twin(self):
        """The report of an order-2 system equals its order-1 twin's
        report field for field."""
        rng = np.random.default_rng(103)
        kwargs = {
            "A": Tensor.from_array(rng.normal(size=(2, 2, 2, 2)) * 0.4),
            "B": Tensor.from_array(rng.normal(size=(2, 2, 3))),
            "C": Tensor.from_array(rng.normal(size=(3, 2, 2))),
        }
        system = build_system(
            "discrete", (2, 2), CoefficientSet(**kwargs),
            input_shape=(3,), output_shape=(3,),
        )
        assert analyze(system) == analyze(vector_twin(system))

    def test_rank_never_exceeds_dim(self):
        rng = np.random.default_rng(107)
        for _ in range(10):
            system = r1_system(
                rng.normal(size=(3, 3)),
                b=rng.normal(size=(3, 2)),
                c=rng.normal(size=(2, 3)),
            )
            report = analyze(system)
            assert 0 <= report.controllability_rank <= 3
            assert 0 <= report.observability_rank <= 3


def krylov_rank(a, b):
    """Test-only oracle for small q: rank of [B, AB, ..., A^(q-1) B] by
    np.linalg.matrix_rank, counting singular values above 1e-9 sigma_max."""
    blocks = [b]
    for _ in range(len(a) - 1):
        blocks.append(a @ blocks[-1])
    krylov = np.hstack(blocks)
    return int(np.linalg.matrix_rank(krylov, tol=1e-9 * np.linalg.norm(krylov, 2)))


def modal_structure_system(rng, values=(-0.8, -0.3, 0.2, 0.5, 0.9, 1.0), largest=2):
    """A = Q J Q^T for random orthogonal Q and J of Jordan blocks of sizes 1
    to `largest` on eigenvalues drawn from `values`, repeats included; B and
    C have rows/columns zeroed in the modal basis and every other entry at
    least 0.5 in magnitude, so every rank is far from a tolerance."""
    q = int(rng.integers(2, 7))
    diagonal = rng.choice(values, size=q)
    j = np.diag(diagonal)
    i = 0
    while i < q:
        size = int(rng.integers(1, min(largest, q - i) + 1))
        for m in range(i + 1, i + size):
            j[m, m] = diagonal[i]
            j[m - 1, m] = rng.uniform(0.5, 1.5)
        i += size
    basis, _ = np.linalg.qr(rng.standard_normal((q, q)))
    p = int(rng.integers(1, 3))
    b = rng.choice([-1.0, 1.0], (q, p)) * rng.uniform(0.5, 1.5, (q, p))
    b[rng.random(q) < 0.3] = 0.0
    c = rng.choice([-1.0, 1.0], (p, q)) * rng.uniform(0.5, 1.5, (p, q))
    c[:, rng.random(q) < 0.3] = 0.0
    return basis @ j @ basis.T, basis @ b, c @ basis.T


class TestModalRanks:
    def test_jordan_chains_match_krylov_oracle(self):
        """eig splits a block of size k by about eps^(1/k), 6e-6 for k = 3,
        yet each block stays one cluster. Eigenvalues 0.5 apart keep the
        blocks' invariant subspaces well conditioned."""
        rng = np.random.default_rng(2026)
        for _ in range(200):
            a, b, c = modal_structure_system(rng, values=(-0.8, -0.3, 0.2, 0.7), largest=4)
            system = r1_system(a, b=b, c=c)
            assert controllability_rank(system) == krylov_rank(a, b)
            assert observability_rank(system) == krylov_rank(a.T, c.T)

    @pytest.mark.parametrize("q", [3, 4])
    def test_rotated_jordan_chain(self, q):
        """One block of size q under a dense orthogonal similarity: the
        input at chain position k reaches k + 1 modes, the output there
        observes q - k."""
        rng = np.random.default_rng(230 + q)
        basis, _ = np.linalg.qr(rng.standard_normal((q, q)))
        a = basis @ (0.5 * np.eye(q) + np.diag(rng.uniform(0.5, 1.5, q - 1), 1)) @ basis.T
        for k in range(q):
            e = basis[:, [k]]
            assert controllability_rank(r1_system(a, b=e)) == k + 1
            assert observability_rank(r1_system(a, c=e.T)) == q - k

    def test_semisimple_repeats_use_their_eigenvectors(self, monkeypatch):
        """A lifted system repeats each eigenvalue once per column; those
        clusters take the span of their eigenvectors, with no q x q SVD."""
        from tensorstate import lift_matrix_state

        svd = np.linalg.svd
        shapes = []

        def recording_svd(m, *args, **kwargs):
            shapes.append(m.shape)
            return svd(m, *args, **kwargs)

        monkeypatch.setattr(np.linalg, "svd", recording_svd)
        rng = np.random.default_rng(239)
        system = lift_matrix_state(
            rng.standard_normal((4, 4)), B=rng.standard_normal((4, 1)),
            C=rng.standard_normal((1, 4)), columns=3,
        )
        report = analyze(system)
        assert report.controllability_rank == report.observability_rank == 12
        assert (12, 12) not in shapes

    def test_exactly_singular_eigenvectors(self, monkeypatch):
        """When V^-1 does not exist, all eigenvalues form one cluster, whose
        Krylov count still gives each rank."""
        inv = np.linalg.inv
        calls = []

        def singular_first(m):
            calls.append(m.shape)
            if len(calls) == 1:
                raise np.linalg.LinAlgError("Singular matrix")
            return inv(m)

        monkeypatch.setattr(np.linalg, "inv", singular_first)
        rng = np.random.default_rng(233)
        basis, _ = np.linalg.qr(rng.standard_normal((4, 4)))
        j = np.diag([0.5, 0.5, 0.5, 0.9]) + np.diag([1.0, 1.0, 0.0], 1)
        system = r1_system(basis @ j @ basis.T, b=basis[:, [1]], c=basis[:, [1]].T)
        assert controllability_rank(system) == 2
        assert observability_rank(system) == 2
        assert calls == [(4, 4), (4, 4)]

    def test_random_structures_match_krylov_oracle(self):
        rng = np.random.default_rng(2024)
        for _ in range(200):
            a, b, c = modal_structure_system(rng)
            system = r1_system(a, b=b, c=c)
            assert controllability_rank(system) == krylov_rank(a, b)
            assert observability_rank(system) == krylov_rank(a.T, c.T)

    @pytest.mark.parametrize("scale", [1e-200, 1e200])
    def test_scale_free(self, scale):
        """Entries far from 1, whose squares leave double range."""
        rng = np.random.default_rng(2025)
        for _ in range(20):
            a, b, c = modal_structure_system(rng)
            system = r1_system(a * scale, b=b, c=c)
            assert controllability_rank(system) == krylov_rank(a, b)
            assert observability_rank(system) == krylov_rank(a.T, c.T)

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("k", [-200, -160, 0, 160, 200])
    def test_invariant_to_coupling_scale(self, k):
        """B and C scaled by 10^k: the row norms of the modal couplings are
        taken after dividing by ‖B‖₂ (‖C‖₂), so their squares neither
        underflow to a zero rank nor overflow with a warning."""
        scale = 10.0**k
        system = r1_system([[0.5, 0.1], [0.0, 0.3]], b=[[0.0], [scale]], c=[[scale, 0.0]])
        assert controllability_rank(system) == 2
        assert observability_rank(system) == 2

    def test_diagonal_probe(self):
        """Forty distinct eigenvalues 0.1..0.99, every mode driven by B = ones.
        Its Krylov matrix is a Vandermonde matrix whose smaller singular
        values fall below double precision."""
        system = r1_system(np.diag(np.linspace(0.1, 0.99, 40)), b=np.ones((40, 1)))
        assert controllability_rank(system) == 40

    @pytest.mark.parametrize("a", [[[1.0, 1.0], [0.0, 1.0]], [[0.0, 1.0], [0.0, 0.0]]])
    def test_jordan_block(self, a):
        """Only the end of the chain reaches the whole block; neither case
        may warn, though its eigenvectors are parallel."""
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert controllability_rank(r1_system(a, b=[[0.0], [1.0]])) == 2
            assert controllability_rank(r1_system(a, b=[[1.0], [0.0]])) == 1
            assert observability_rank(r1_system(a, c=[[1.0, 0.0]])) == 2
            assert observability_rank(r1_system(a, c=[[0.0, 1.0]])) == 1

    def test_jordan_block_beside_a_near_eigenvalue(self):
        """The block's coupling 1 is larger than its gap to 0.9, so the null
        space of M_A - I alone misses the block; its square holds it."""
        rng = np.random.default_rng(229)
        basis, _ = np.linalg.qr(rng.standard_normal((3, 3)))
        a = basis @ np.array([[1.0, 1.0, 0.0], [0.0, 1.0, 0.0], [0.0, 0.0, 0.9]]) @ basis.T
        for k, (ctrb, obsv) in enumerate([(1, 2), (2, 1), (1, 1)]):
            b = basis[:, [k]]
            assert controllability_rank(r1_system(a, b=b)) == ctrb == krylov_rank(a, b)
            assert observability_rank(r1_system(a, c=b.T)) == obsv == krylov_rank(a.T, b)

    def test_rank_tol_scales_with_q(self):
        """The fourth mode's coupling 2e-12 / |B|_2 = 1.15e-12 lies between
        rel_tol and q * rel_tol = 4e-12."""
        system = r1_system(np.diag([0.1, 0.2, 0.3, 0.4]), b=[[1.0], [1.0], [1.0], [2e-12]])
        assert controllability_rank(system) == 3
        assert controllability_rank(system, rel_tol=1e-13) == 4

    def test_triangular_chain_of_three(self):
        a = np.eye(3) + np.diag([1.0, 1.0], 1)
        for k in range(3):
            assert controllability_rank(r1_system(a, b=np.eye(3)[:, [k]])) == k + 1

    def test_repeated_semisimple_needs_one_input_per_copy(self):
        """An eigenvalue three times over with two inputs leaves one copy
        unreachable, whatever the inputs."""
        rng = np.random.default_rng(211)
        basis, _ = np.linalg.qr(rng.standard_normal((4, 4)))
        a = basis @ np.diag([0.5, 0.5, 0.5, 0.2]) @ basis.T
        system = r1_system(a, b=rng.standard_normal((4, 2)), c=rng.standard_normal((2, 4)))
        assert controllability_rank(system) == 3
        assert observability_rank(system) == 3

    def test_zero_coupling(self):
        assert controllability_rank(r1_system(np.diag([0.5, 0.2]), b=np.zeros((2, 1)))) == 0

    def test_large_block_triangular_construction(self):
        """q = 256: A = T blk T^T with blk = [[L1, A12], [0, L2]], L1, L2
        diagonal and B in the span of T's first 224 columns, so the
        controllability rank is 224; a dense C observes all 256 modes."""
        rng = np.random.default_rng(4096)
        q, k = 256, 224
        blk = np.diag(rng.uniform(-0.9, 0.9, q))
        blk[:k, k:] = 0.05 * rng.standard_normal((k, q - k))
        t, _ = np.linalg.qr(rng.standard_normal((q, q)))
        system = r1_system(
            t @ blk @ t.T,
            b=t[:, :k] @ rng.standard_normal((k, 4)),
            c=rng.standard_normal((4, q)),
        )
        report = analyze(system)
        assert report.controllability_rank == k
        assert report.observability_rank == q

    def test_one_eigendecomposition_per_analyze(self, monkeypatch):
        calls = []
        eig = np.linalg.eig

        def counting_eig(m):
            calls.append(m.shape)
            return eig(m)

        monkeypatch.setattr(np.linalg, "eig", counting_eig)
        rng = np.random.default_rng(223)
        system = r1_system(rng.normal(size=(5, 5)), b=rng.normal(size=(5, 2)),
                           c=rng.normal(size=(2, 5)))
        analyze(system)
        assert calls == [(5, 5)]
        analyze(system, epsilon=1e-6, rel_tol=1e-9)
        assert calls == [(5, 5)]


class TestDefectiveBoundary:
    def test_discrete_jordan_is_unstable(self):
        res = check_stability(r1_system([[1.0, 1.0], [0.0, 1.0]]))
        assert res.defective
        assert res.verdict == "unstable"
        assert res.spectral_radius == 1.0

    def test_continuous_nilpotent_is_unstable(self):
        res = check_stability(r1_system([[0.0, 1.0], [0.0, 0.0]], time_kind="continuous"))
        assert res.defective
        assert res.verdict == "unstable"

    def test_rotated_jordan_is_unstable(self):
        """A similarity moves eig's eigenvalues about 1e-8 apart; the block is
        still found."""
        rng = np.random.default_rng(227)
        basis, _ = np.linalg.qr(rng.standard_normal((3, 3)))
        a = basis @ np.array([[1.0, 0.7, 0.0], [0.0, 1.0, 0.0], [0.0, 0.0, 0.3]]) @ basis.T
        res = check_stability(r1_system(a), epsilon=1e-6)
        assert res.defective
        assert res.verdict == "unstable"

    @pytest.mark.parametrize("a", [np.eye(2), np.diag([1.0, 1.0, 0.5])])
    def test_semisimple_repeat_stays_marginal(self, a):
        res = check_stability(r1_system(a))
        assert not res.defective
        assert res.verdict == "marginal"

    def test_defect_inside_the_unit_disc_is_stable(self):
        res = check_stability(r1_system([[0.5, 1.0], [0.0, 0.5]]))
        assert not res.defective
        assert res.verdict == "stable"

    def test_report_carries_the_flag(self):
        assert analyze(r1_system([[1.0, 1.0], [0.0, 1.0]])).defective
        assert not analyze(r1_system(np.eye(2))).defective
