"""Classical linear-systems analysis lifted to tensor systems by unfolding:
spectral radius, stability verdicts, and controllability/observability ranks
of the equivalent vector system.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .systems import CoefficientSet, TensorStateSystem, UnfoldedSystem
from .tensors import ShapeError, Tensor

__all__ = [
    "UnfoldedSystem",
    "unfold_system",
    "vector_twin",
    "spectral_radius",
    "StabilityResult",
    "check_stability",
    "controllability_rank",
    "observability_rank",
    "AnalysisReport",
    "analyze",
]

TIME_INVARIANT_REQUIRED = "analysis requires time-invariant system"


def unfold_system(system) -> UnfoldedSystem:
    """(M_A, M_B, M_C, M_D) of a time-invariant system, grouping state modes.

    M_A is q x q with q = prod(state_shape); M_B is q x p', M_C is s' x q,
    M_D is s' x p'. Absent coefficients come back as None.
    """
    if not system.is_time_invariant:
        raise ValueError(TIME_INVARIANT_REQUIRED)
    return system.unfolded[0]


def vector_twin(system) -> TensorStateSystem:
    """The fully unfolded order-1 system with the same dynamics.

    Every segment's coefficients are replaced by their unfolded matrices;
    simulating the twin on vec'd signals reproduces the tensor trajectory.
    """
    segments = [
        (start, CoefficientSet(*matrices))
        for start, matrices in zip(system.schedule.starts, system.unfolded)
    ]
    return TensorStateSystem(
        system.time_kind,
        (system.state_dim,),
        segments,
        input_shape=None if system.input_shape is None else (system.input_dim,),
        output_shape=(system.output_dim,),
    )


def _as_square_matrix(m) -> np.ndarray:
    if isinstance(m, Tensor):
        m = m.array
    m = np.asarray(m, dtype=float)
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise ShapeError(f"expected a square matrix, got shape {list(m.shape)}")
    if not np.isfinite(m).all():
        raise ValueError("matrix entries must be finite")
    return m


def spectral_radius(m) -> float:
    """max |lambda| over the eigenvalues of a square matrix."""
    m = _as_square_matrix(m)
    return float(np.abs(np.linalg.eigvals(m)).max())


@dataclass(frozen=True)
class StabilityResult:
    """Verdict plus the margin quantities it was judged on.

    verdict is "stable", "marginal", or "unstable"; boundary cases within
    epsilon of the criterion line are marginal, never stable. max_real_part
    is None for discrete systems.
    """

    verdict: str
    spectral_radius: float
    max_real_part: float | None
    epsilon: float

    @property
    def stable(self) -> bool:
        return self.verdict == "stable"


def check_stability(system, epsilon=1e-9) -> StabilityResult:
    """Stability of a time-invariant system from the unfolded eigenvalues.

    Discrete: stable iff spectral radius < 1 - epsilon, unstable iff
    > 1 + epsilon. Continuous: stable iff max real part < -epsilon,
    unstable iff > +epsilon. Everything in between is marginal.
    """
    m_a = unfold_system(system).a
    eigenvalues = np.linalg.eigvals(m_a)
    radius = float(np.abs(eigenvalues).max())
    if system.time_kind == "discrete":
        margin = radius - 1.0
        max_real = None
    else:
        max_real = float(eigenvalues.real.max())
        margin = max_real
    if margin < -epsilon:
        verdict = "stable"
    elif margin > epsilon:
        verdict = "unstable"
    else:
        verdict = "marginal"
    return StabilityResult(verdict, radius, max_real, float(epsilon))


def _svd_rank(matrix: np.ndarray, q: int, rel_tol: float) -> int:
    sigma = np.linalg.svd(matrix, compute_uv=False)
    if sigma.size == 0:
        return 0
    return int(np.count_nonzero(sigma > sigma[0] * q * rel_tol))


def controllability_rank(system, rel_tol=1e-12) -> int:
    """Numerical rank of K = [M_B | M_A M_B | ... | M_A^(q-1) M_B].

    Singular values below sigma_max * q * rel_tol count as zero.
    """
    m = unfold_system(system)
    if m.b is None:
        raise ValueError("controllability needs an input coupling B")
    q = system.state_dim
    blocks = [m.b]
    for _ in range(q - 1):
        blocks.append(m.a @ blocks[-1])
    return _svd_rank(np.hstack(blocks), q, rel_tol)


def observability_rank(system, rel_tol=1e-12) -> int:
    """Numerical rank of O = [M_C; M_C M_A; ...; M_C M_A^(q-1)]."""
    m = unfold_system(system)
    if m.c is None:
        raise ValueError("observability needs an output coupling C")
    q = system.state_dim
    blocks = [m.c]
    for _ in range(q - 1):
        blocks.append(blocks[-1] @ m.a)
    return _svd_rank(np.vstack(blocks), q, rel_tol)


@dataclass(frozen=True)
class AnalysisReport:
    """Aggregate analysis; parts without the needed coefficient are None."""

    state_dim: int
    spectral_radius: float
    max_real_part: float | None
    verdict: str
    stable: bool
    controllability_rank: int | None
    controllable: bool | None
    observability_rank: int | None
    observable: bool | None


def analyze(system, epsilon=1e-9, rel_tol=1e-12) -> AnalysisReport:
    """One-shot report: stability always, ranks when B/C exist."""
    stability = check_stability(system, epsilon)
    q = system.state_dim
    ctrb = obsv = None
    if system.has_input:
        ctrb = controllability_rank(system, rel_tol)
    if system.coefficients_at(0).C is not None:
        obsv = observability_rank(system, rel_tol)
    return AnalysisReport(
        state_dim=q,
        spectral_radius=stability.spectral_radius,
        max_real_part=stability.max_real_part,
        verdict=stability.verdict,
        stable=stability.stable,
        controllability_rank=ctrb,
        controllable=None if ctrb is None else ctrb == q,
        observability_rank=obsv,
        observable=None if obsv is None else obsv == q,
    )
