"""Classical linear-systems analysis lifted to tensor systems by unfolding:
spectral radius, stability verdicts, and controllability/observability ranks
of the equivalent vector system, all read from one eigendecomposition of its
matrix M_A.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .systems import CoefficientSet, TensorStateSystem, UnfoldedSystem
from .tensors import _as_matrix, _as_real

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
        for start, matrices in zip(system.schedule.keys, system.unfolded)
    ]
    return TensorStateSystem(
        system.time_kind,
        (system.state_dim,),
        segments,
        input_shape=None if system.input_shape is None else (system.input_dim,),
        output_shape=(system.output_dim,),
    )


def spectral_radius(m) -> float:
    """max |lambda| over the eigenvalues of a non-empty square matrix."""
    m = _as_matrix(m, "matrix", square=True, empty=False)
    return float(np.abs(np.linalg.eigvals(m)).max())


# A restriction of M_A counts as zero when its norm is at most NULL_TOL *
# ||M_A||_F: the generalized eigenspace of a cluster is the first such null
# space of a product of its shifts, and a cluster whose M_A - lambda I is not
# zero is defective.
NULL_TOL = 1e-7


class _Modes(NamedTuple):
    """One eigendecomposition of M_A, grouped into simple modes and clusters.

    basis is T = [eigenvectors of the simple eigenvalues | an orthonormal basis
    of each cluster's generalized eigenspace] and dual is T^-1: its rows are
    the left eigenvectors of the simple eigenvalues and each cluster's
    projection. The first `simple` columns of T are the simple modes. Each
    cluster is (center, columns, nilpotent) with nilpotent the restriction
    (dual[columns] M_A basis[:, columns] - center I) / ||M_A||_F.
    """

    eigenvalues: np.ndarray
    basis: np.ndarray
    dual: np.ndarray
    simple: int
    clusters: tuple


def _groups(close) -> list:
    """Connected components of the symmetric boolean matrix `close`, each a
    list of indices in increasing order, ordered by their first index."""
    q = len(close)
    label = np.arange(q)
    while True:  # every index takes the least label among its neighbours
        least = np.where(close, label, q).min(axis=1)
        if np.array_equal(least, label):
            break
        label = least
    groups = {}
    for index, root in enumerate(label.tolist()):
        groups.setdefault(root, []).append(index)
    return list(groups.values())


def _generalized_eigenspace(unit, vectors, shifts, noise) -> np.ndarray:
    """Orthonormal q x k basis of the invariant subspace of the k = len(shifts)
    eigenvalues `shifts` of unit = M_A / ||M_A||_F, whose eigenvectors are
    the columns of `vectors`.

    That is their span when it is invariant to within noise,
    |unit X - X X^H unit X|_F <= noise, as a semisimple repeat's is.
    Otherwise (a Jordan block) it is the null space of
    prod_{i<j} (unit - shifts[i] I), j the first count at which the k
    smallest singular values of the product are at most NULL_TOL, and at
    most k: a semisimple repeat stops at j = 1, before the other
    eigenvalues' products of gaps sink below the singular values'
    resolution.
    """
    x, _ = np.linalg.qr(vectors)
    ux = unit @ x
    if np.linalg.norm(ux - x @ (x.conj().T @ ux)) <= noise:
        return x
    k = len(shifts)
    eye = np.eye(len(unit))
    product = unit - shifts[0] * eye
    for j in range(1, k + 1):
        _, sigma, vh = np.linalg.svd(product)
        if sigma[-k] <= NULL_TOL or j == k:
            return vh[-k:].conj().T
        product = product @ (unit - shifts[j] * eye)


def _ldexp(z, e):
    """z * 2^e for a real or complex array or scalar: exact, unless it
    leaves the double range, and inf past it without a warning."""
    z = np.asarray(z)
    with np.errstate(over="ignore"):  # a complex array is its (real, imag) pairs
        return np.ldexp(np.atleast_1d(z).view(float), e).view(z.dtype).reshape(z.shape)[()]


def _decompose(a) -> _Modes:
    """eig(M_A), with eigenvalues grouped into clusters when their gap is at
    most noise * ||M_A||_F * (kappa_i + kappa_j). noise = 2q * eps bounds
    the relative backward error of eig and kappa_i = |w_i| is the condition
    number of eigenvalue i (|v_i| = 1, w_i row i of V^-1), so this is the
    first-order bound on how far eig moves two copies of one eigenvalue
    apart. A Jordan block of size k splits by about eps^(1/k) and its
    eigenvalues' kappa grows to match, so every block stays one cluster;
    when V is exactly singular all eigenvalues form one cluster.

    All of this is computed on U = 2^-e M_A. When the largest |entry| lies
    outside [2^-500, 2^500], e is its binary exponent, an exact scaling that
    puts U's largest entry in [0.5, 1), so no norm, gap or product overflows
    or underflows; inside, e = 0, since eig does not commute bit for bit
    with the scaling. The eigenvalues and cluster centres are scaled back by
    2^e; past the double range they read inf.
    """
    q = len(a)
    peak = float(np.abs(a).max())
    e = 0 if 2.0**-500 <= peak <= 2.0**500 else math.frexp(peak)[1]
    u = np.ldexp(a, -e)
    peak = math.ldexp(peak, -e)  # scaled, so that squares neither overflow nor underflow
    scale = peak * float(np.linalg.norm(u / peak)) if peak else 1.0
    eigenvalues, vectors = np.linalg.eig(u)
    noise = 2 * q * np.finfo(float).eps
    with np.errstate(all="ignore"):
        try:
            dual = np.linalg.inv(vectors)
            kappa = np.linalg.norm(dual, axis=1)
        except np.linalg.LinAlgError:
            kappa = np.full(q, np.inf)
        kappa[np.isnan(kappa)] = np.inf
        reach = noise * scale * (kappa[:, None] + kappa)
    groups = _groups(np.abs(eigenvalues[:, None] - eigenvalues) <= reach)
    if len(groups) == q:
        return _Modes(_ldexp(eigenvalues, e), vectors, dual, q, ())
    simple = [group[0] for group in groups if len(group) == 1]
    columns = [vectors[:, simple]]
    spans = []
    start = len(simple)
    unit = u / scale
    for group in groups:
        if len(group) > 1:
            shifts = eigenvalues[group]
            columns.append(_generalized_eigenspace(unit, vectors[:, group], shifts / scale, noise))
            spans.append((shifts.mean(), slice(start, start + len(group))))
            start += len(group)
    # T, not V: for a defective M_A the eigenvectors are (nearly) dependent
    basis = np.hstack(columns)
    dual = np.linalg.inv(basis)
    clusters = []
    for center, cols in spans:
        restricted = dual[cols] @ u @ basis[:, cols]
        nilpotent = (restricted - center * np.eye(len(restricted))) / scale
        clusters.append((_ldexp(center, e), cols, nilpotent))
    return _Modes(_ldexp(eigenvalues, e), basis, dual, len(simple), tuple(clusters))


def _modes_of(system) -> _Modes:
    """The system's decomposition of M_A, computed on first use and kept."""
    modes = system._modes
    if modes is None:
        modes = system._modes = _decompose(unfold_system(system).a)
    return modes


@dataclass(frozen=True)
class StabilityResult:
    """Verdict plus the margin quantities it was judged on.

    verdict is "stable", "marginal", or "unstable"; boundary cases within
    epsilon of the criterion line are marginal, never stable. max_real_part
    is None for discrete systems. defective is true when an eigenvalue within
    epsilon of the boundary has fewer eigenvectors than its multiplicity
    (a Jordan block there); its free response grows polynomially, so the
    verdict is then unstable.
    """

    verdict: str
    spectral_radius: float
    max_real_part: float | None
    epsilon: float
    defective: bool = False

    @property
    def stable(self) -> bool:
        return self.verdict == "stable"


def _tolerance(value, name) -> float:
    """A tolerance read by tensors._as_real, refused with a ValueError
    naming `name` when it is below 0."""
    value = _as_real(value, name)
    if value < 0:
        raise ValueError(f"{name} must be >= 0, got {value}")
    return value


def check_stability(system, epsilon=1e-9) -> StabilityResult:
    """Stability of a time-invariant system from the unfolded eigenvalues.

    Discrete: stable iff spectral radius < 1 - epsilon, unstable iff
    > 1 + epsilon. Continuous: stable iff max real part < -epsilon,
    unstable iff > +epsilon. Everything in between is marginal, unless a
    cluster of eigenvalues within epsilon of the boundary (|lambda| = 1, or
    Re lambda = 0) is defective: M_A - lambda I restricted to the cluster has
    a singular value above NULL_TOL * ||M_A||_F. That makes the verdict
    unstable. epsilon is read by _tolerance.
    """
    epsilon = _tolerance(epsilon, "epsilon")
    modes = _modes_of(system)
    eigenvalues = modes.eigenvalues
    radius = float(np.abs(eigenvalues).max())
    discrete = system.time_kind == "discrete"
    if discrete:
        margin = radius - 1.0
        max_real = None
    else:
        max_real = float(eigenvalues.real.max())
        margin = max_real
    defective = any(
        (abs(abs(center) - 1.0) if discrete else abs(center.real)) <= epsilon
        and np.linalg.norm(nilpotent, 2) > NULL_TOL
        for center, _, nilpotent in modes.clusters
    )
    if margin < -epsilon:
        verdict = "stable"
    elif margin > epsilon or defective:
        verdict = "unstable"
    else:
        verdict = "marginal"
    return StabilityResult(verdict, radius, max_real, epsilon, defective)


def _modal_rank(modes, frame, coupling, rel_tol, transpose) -> int:
    """How many modes a coupling reaches (Popov-Belevitch-Hautus test).

    Row i of `frame` is direction i of the modal basis as seen by the
    coupling: a row of T^-1 against the columns of B, or a column of T
    against the rows of C (then `coupling` is C^T and `transpose` is set).
    A simple mode counts when |frame_i coupling| / (|frame_i| |coupling|_2)
    exceeds q * rel_tol. A cluster of k modes adds the number of singular
    values above q * rel_tol of the Krylov matrix [G, N G, ..., N^(j-1) G]
    of its normalized coupling G and its nilpotent part N (N^T for C),
    grown until that number reaches k or a block leaves it unchanged.
    rel_tol is a float its caller has read by _tolerance.
    """
    norm = np.linalg.norm(coupling, 2)
    if norm == 0.0:
        return 0
    tol = len(frame) * rel_tol
    reach = frame @ coupling
    n = modes.simple
    simple = np.linalg.norm(reach[:n] / norm, axis=1) / np.linalg.norm(frame[:n], axis=1)
    rank = int(np.count_nonzero(simple > tol))
    for _, columns, nilpotent in modes.clusters:
        if transpose:
            nilpotent = nilpotent.T
        block = reach[columns] / (np.linalg.norm(frame[columns], 2) * norm)
        krylov = block
        count = int(np.count_nonzero(np.linalg.svd(krylov, compute_uv=False) > tol))
        while 0 < count < len(nilpotent):  # a block that adds nothing ends the Krylov sequence
            block = nilpotent @ block
            krylov = np.hstack([krylov, block])
            grown = int(np.count_nonzero(np.linalg.svd(krylov, compute_uv=False) > tol))
            if grown == count:
                break
            count = grown
        rank += count
    return rank


def controllability_rank(system, rel_tol=1e-12) -> int:
    """Dimension of the reachable subspace, from the modal (PBH) test.

    A mode counts when its left eigenvector meets B: |w_i^H B| /
    (|w_i| |B|_2) > q * rel_tol. A cluster of eigenvalues (see _decompose)
    adds the rank of the Krylov matrix of M_A and B restricted to its
    generalized eigenspace. rel_tol is read by _tolerance before anything
    is decomposed.
    """
    rel_tol = _tolerance(rel_tol, "rel_tol")
    m = unfold_system(system)
    if m.b is None:
        raise ValueError("controllability needs an input coupling B")
    modes = _modes_of(system)
    return _modal_rank(modes, modes.dual, m.b, rel_tol, transpose=False)


def observability_rank(system, rel_tol=1e-12) -> int:
    """Dimension of the observable subspace, from the modal (PBH) test.

    A mode counts when C sees its eigenvector: |C v_i| / (|C|_2 |v_i|) >
    q * rel_tol; clusters as in controllability_rank, with (M_A^T, C^T).
    rel_tol is read by _tolerance before anything is decomposed.
    """
    rel_tol = _tolerance(rel_tol, "rel_tol")
    m = unfold_system(system)
    if m.c is None:
        raise ValueError("observability needs an output coupling C")
    modes = _modes_of(system)
    return _modal_rank(modes, modes.basis.T, m.c.T, rel_tol, transpose=True)


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
    defective: bool = False


def analyze(system, epsilon=1e-9, rel_tol=1e-12) -> AnalysisReport:
    """One-shot report: stability always, ranks when B/C exist. Both
    tolerances are read by _tolerance before anything is decomposed."""
    epsilon, rel_tol = _tolerance(epsilon, "epsilon"), _tolerance(rel_tol, "rel_tol")
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
        defective=stability.defective,
    )
