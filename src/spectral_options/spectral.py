"""PCCA+ spectral core: Laplacian surrogate, cluster-count selection via the
spectral gap, simplex vertex search, and soft membership matrices.

Given a symmetric nonnegative adjacency W, we build the lazy-random-walk
operator

    L = I − (Deg − W) / d_max,        Deg = diag(W·1),  d_max = max row sum,

which is row-stochastic, symmetric, and nonnegative, with top eigenvalue 1.
Unlike the degree-normalized walk Diag(W·1)⁻¹W, this operator does not cancel
per-edge weights against the local degree, so reward-induced reweighting of W
survives into the spectrum — which is what lets a localized reward spike split
off its own near-invariant cluster.  Its leading invariant subspaces coincide
with those of the graph Laplacian Deg − W, and membership vectors and
spectral-gap ratios are invariant to the d_max rescaling.

The k dominant eigenvector rows are mapped onto a (k−1)-simplex; the vertex
rows index the abstract states, and χ = Y·Y[vertices]⁻¹ gives every state a
soft membership over them.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np


class SpectralError(ValueError):
    """Raised when a decomposition input violates its preconditions."""


@dataclass
class StochasticLaplacian:
    """Row-stochastic walk operator over the non-isolated states.

    ``kept`` maps row index → original state id; zero-degree states are
    dropped before decomposition (they carry no evidence).
    """

    L: np.ndarray
    kept: np.ndarray


@dataclass
class SpectralResult:
    eigenvalues: np.ndarray   # full descending spectrum, e₁ = 1
    Y: np.ndarray             # eigenvector columns for the leading k values
    k: int


class KSelection(NamedTuple):
    k: int
    fallback: bool            # True when no gap ratio cleared the threshold
    ratios: dict              # k → (e_k − e_{k+1}) / (1 − e_{k+1})


@dataclass
class MembershipMatrix:
    chi: np.ndarray           # N×k, rows on the probability simplex
    chi_raw: np.ndarray       # pre-clamping transform (diagnostics/invariants)
    vertex_indices: np.ndarray


@dataclass
class ClusterResult:
    """Everything the option-composition stage needs from one clustering."""

    laplacian: StochasticLaplacian
    spectral: SpectralResult
    selection: KSelection | None   # None when k was forced by the caller
    membership: MembershipMatrix
    connectivity: np.ndarray       # k×k, χᵀLχ

    @property
    def state_ids(self) -> np.ndarray:
        """Original state id of each membership row."""
        return self.laplacian.kept


def build_laplacian(W: np.ndarray) -> StochasticLaplacian:
    """Lazy-walk stochastic operator L = I − (Deg − W)/d_max from adjacency W.

    Zero-degree rows are dropped with the surviving index set recorded in
    ``kept``.  Raises SpectralError on negative entries, asymmetry, or an
    all-zero matrix.
    """
    W = np.asarray(W, dtype=float)
    if W.ndim != 2 or W.shape[0] != W.shape[1]:
        raise SpectralError(f"adjacency must be square, got shape {W.shape}")
    if (W < 0).any():
        raise SpectralError("adjacency has negative entries")
    if not np.allclose(W, W.T, atol=1e-9):
        raise SpectralError("adjacency must be symmetric")
    degree = W.sum(axis=1)
    kept = np.flatnonzero(degree > 0)
    if kept.size == 0:
        raise SpectralError("adjacency is all-zero")
    Wk = W[np.ix_(kept, kept)]
    deg = Wk.sum(axis=1)
    d_max = deg.max()
    L = np.eye(kept.size) + (Wk - np.diag(deg)) / d_max
    return StochasticLaplacian(L=L, kept=kept)


def decompose(lap: StochasticLaplacian) -> tuple[np.ndarray, np.ndarray]:
    """Full spectrum of L, descending, with index-aligned eigenvector columns."""
    eigenvalues, vectors = np.linalg.eigh(lap.L)
    order = np.argsort(eigenvalues)[::-1]
    return eigenvalues[order], vectors[:, order]


def select_k(eigenvalues, t_c: float = 0.5) -> KSelection:
    """Cluster count from the spectral-gap rule.

    Returns the smallest k ≥ 2 with (e_k − e_{k+1})/(1 − e_{k+1}) > t_c.  A
    vanishing denominator (e_{k+1} = 1) makes the ratio 0: no gap can open
    below a still-unit eigenvalue.  If no k qualifies the argmax ratio is
    returned with ``fallback=True``.
    """
    e = np.asarray(eigenvalues, dtype=float)
    if e.size < 3:
        raise SpectralError("need at least 3 eigenvalues to select k")
    if e[0] > 1 + 1e-9:
        raise SpectralError(f"leading eigenvalue {e[0]} exceeds 1")
    if np.any(np.diff(e) > 1e-12):
        raise SpectralError("eigenvalues must be sorted descending")
    if not 0 < t_c < 1:
        raise SpectralError(f"t_c must lie in (0, 1), got {t_c}")
    ratios = {}
    for k in range(2, e.size):
        denom = 1.0 - e[k]
        ratios[k] = 0.0 if denom < 1e-12 else (e[k - 1] - e[k]) / denom
    for k in sorted(ratios):
        if ratios[k] > t_c:
            return KSelection(k=k, fallback=False, ratios=ratios)
    best = max(sorted(ratios), key=lambda k: ratios[k])
    return KSelection(k=best, fallback=True, ratios=ratios)


def find_simplex_vertices(Y: np.ndarray) -> np.ndarray:
    """Greedy simplex vertex search over eigenvector rows (Algorithm 1 steps 6–7).

    The first vertex maximizes the row 2-norm; each later vertex maximizes the
    residual distance to the span of the rows already chosen,
    ‖Y(i) − Y(i)γᵀ(γγᵀ)⁻¹γ‖ with γ the chosen rows stacked.
    """
    Y = np.asarray(Y, dtype=float)
    n, k = Y.shape
    if n < k:
        raise SpectralError(f"need at least k={k} rows, got {n}")
    vertices = [int(np.argmax(np.linalg.norm(Y, axis=1)))]
    for _ in range(1, k):
        gamma = Y[vertices]                      # (m, k)
        gram = gamma @ gamma.T
        try:
            coeff = np.linalg.solve(gram, gamma @ Y.T)
        except np.linalg.LinAlgError:
            warnings.warn("singular vertex Gram matrix; using pseudo-inverse")
            coeff = np.linalg.pinv(gram) @ (gamma @ Y.T)
        residual = Y - (gamma.T @ coeff).T
        dist = np.linalg.norm(residual, axis=1)
        dist[vertices] = -np.inf
        vertices.append(int(np.argmax(dist)))
    return np.array(vertices)


def compute_memberships(Y: np.ndarray, vertex_indices) -> MembershipMatrix:
    """Soft memberships χ = Y·(Y[vertices])⁻¹, clamped onto the simplex.

    The linear transform sends vertex rows to unit vectors; first-order
    perturbation noise can push other rows slightly negative, so negatives are
    clamped to 0 and rows renormalized to sum 1.
    """
    Y = np.asarray(Y, dtype=float)
    vertex_indices = np.asarray(vertex_indices, dtype=int)
    V = Y[vertex_indices]
    try:
        A = np.linalg.inv(V)
    except np.linalg.LinAlgError:
        warnings.warn("singular vertex matrix; using pseudo-inverse")
        A = np.linalg.pinv(V)
        if not np.isfinite(A).all():
            raise SpectralError("degenerate vertex matrix with no usable pseudo-inverse")
    chi_raw = Y @ A
    chi = np.clip(chi_raw, 0.0, None)
    sums = chi.sum(axis=1, keepdims=True)
    if (sums <= 0).any():
        raise SpectralError("membership row collapsed to zero after clamping")
    chi = chi / sums
    return MembershipMatrix(chi=chi, chi_raw=chi_raw, vertex_indices=vertex_indices)


def connectivity(membership, lap) -> np.ndarray:
    """Abstract-state connectivity C = χᵀLχ.

    Off-diagonal C(i,j) measures flow between clusters i and j; the diagonal
    carries within-cluster relative connectivity.
    """
    chi = membership.chi if isinstance(membership, MembershipMatrix) else np.asarray(membership)
    L = lap.L if isinstance(lap, StochasticLaplacian) else np.asarray(lap)
    return chi.T @ L @ chi


def connected_pairs(C: np.ndarray, tau_conn: float = 0.1) -> list[tuple[int, int]]:
    """Ordered cluster pairs whose connectivity clears the relative threshold.

    A pair (i, j), i ≠ j, is connected when |C(i,j)| > tau_conn · max
    off-diagonal |C|.  Both orderings are reported; each yields one option.
    """
    C = np.asarray(C)
    k = C.shape[0]
    off = np.abs(C.copy())
    np.fill_diagonal(off, 0.0)
    ceiling = off.max()
    if ceiling <= 0:
        return []
    return [(i, j) for i in range(k) for j in range(k)
            if i != j and off[i, j] > tau_conn * ceiling]


def cluster(W: np.ndarray, t_c: float = 0.5, k: int | None = None) -> ClusterResult:
    """Run the full PCCA+ stage on an adjacency matrix.

    When ``k`` is None the cluster count comes from the spectral-gap rule at
    threshold ``t_c``; passing ``k`` pins it explicitly (needed when the
    spectrum is too short for the gap rule, e.g. k equal to the state count).
    """
    lap = build_laplacian(W)
    eigenvalues, vectors = decompose(lap)
    selection = None
    if k is None:
        selection = select_k(eigenvalues, t_c=t_c)
        k = selection.k
    if not 2 <= k <= lap.kept.size:
        raise SpectralError(f"cluster count k={k} outside [2, {lap.kept.size}]")
    Y = vectors[:, :k]
    spectral = SpectralResult(eigenvalues=eigenvalues, Y=Y, k=k)
    membership = compute_memberships(Y, find_simplex_vertices(Y))
    C = connectivity(membership, lap)
    return ClusterResult(laplacian=lap, spectral=spectral, selection=selection,
                         membership=membership, connectivity=C)
