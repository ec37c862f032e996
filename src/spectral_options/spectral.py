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
    n_states: int             # size of the adjacency, isolated states included


@dataclass
class SpectralResult:
    eigenvalues: np.ndarray   # full descending spectrum, e₁ = 1
    k: int


class KSelection(NamedTuple):
    k: int
    fallback: str | None      # why k is not trusted, or None when it is
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

    @property
    def chi(self) -> np.ndarray:
        """n_states × k membership of every state, built on each read; states
        dropped from L get all-zero rows, so no cluster assignment takes them."""
        chi = np.zeros((self.laplacian.n_states, self.membership.chi.shape[1]))
        chi[self.laplacian.kept] = self.membership.chi
        return chi


def build_laplacian(W: np.ndarray) -> StochasticLaplacian:
    """Lazy-walk stochastic operator L = I − (Deg − W)/d_max from adjacency W.

    Zero-degree rows are dropped with the surviving index set recorded in
    ``kept``.  Raises SpectralError on non-finite or negative entries,
    asymmetry, or an all-zero matrix.
    """
    W = np.asarray(W, dtype=float)
    if W.ndim != 2 or W.shape[0] != W.shape[1]:
        raise SpectralError(f"adjacency must be square, got shape {W.shape}")
    if not np.isfinite(W).all():
        raise SpectralError("adjacency has non-finite entries")
    if (W < 0).any():
        raise SpectralError("adjacency has negative entries")
    # The exact test is a fraction of allclose's cost and settles the usual case.
    if not (np.array_equal(W, W.T) or np.allclose(W, W.T, atol=1e-9)):
        raise SpectralError("adjacency must be symmetric")
    degree = W.sum(axis=1)
    kept = np.flatnonzero(degree > 0)
    if kept.size == 0:
        raise SpectralError("adjacency is all-zero")
    Wk = W.copy() if kept.size == W.shape[0] else W[np.ix_(kept, kept)]
    deg = Wk.sum(axis=1)
    d_max = deg.max()
    # Off the diagonal I + (Wk − Deg)/d_max is Wk/d_max; Wk is a fresh copy.
    diagonal = 1.0 + (Wk.diagonal() - deg) / d_max
    L = np.divide(Wk, d_max, out=Wk)
    np.fill_diagonal(L, diagonal)
    return StochasticLaplacian(L=L, kept=kept, n_states=W.shape[0])


def decompose(lap: StochasticLaplacian) -> tuple[np.ndarray, np.ndarray]:
    """Full spectrum of L, descending, with index-aligned eigenvector columns:
    ``np.linalg.eigh``'s ascending arrays reversed, as views, so LAPACK sets
    the column order among exactly tied eigenvalues.
    """
    eigenvalues, vectors = np.linalg.eigh(lap.L)
    return eigenvalues[::-1], vectors[:, ::-1]


def select_k(eigenvalues, t_c: float = 0.5) -> KSelection:
    """Cluster count from the spectral-gap rule.

    Returns the smallest k ≥ 2 with (e_k − e_{k+1})/(1 − e_{k+1}) > t_c.  A
    vanishing denominator (e_{k+1} = 1) makes the ratio 0: no gap can open
    below a still-unit eigenvalue.  ``fallback`` is None, or says why k is
    flagged: no k qualifies (the argmax ratio is returned), or k exceeds half
    the eigenvalue count, a near-singleton clustering, unless e_1..e_k are
    all 1: then the graph splits into k components exactly.
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
    for k, ratio in ratios.items():
        if ratio > t_c:
            if 2 * k <= e.size or 1.0 - e[k - 1] < 1e-12:    # or e_1..e_k are all 1
                return KSelection(k, None, ratios)
            return KSelection(k, f"the first spectral gap ratio above t_c={t_c} gives "
                                 "more clusters than half the states", ratios)
    return KSelection(max(ratios, key=ratios.get), f"no spectral gap ratio exceeds "
                      f"t_c={t_c}; fell back to the largest ratio", ratios)


def find_simplex_vertices(Y: np.ndarray) -> np.ndarray:
    """Greedy simplex vertex search over eigenvector rows (Algorithm 1 steps 6–7).

    Each vertex is the row of largest residual norm; modified Gram–Schmidt then
    projects its normalized residual out of every row, O(N·k²) in all.  Raises
    SpectralError, as rank(Y) < k, if a chosen norm is ≤ 1e-10 of the largest.
    """
    residual = np.array(Y, dtype=float, order="C")   # a copy; every step reads rows
    k = residual.shape[1]
    dist = np.linalg.norm(residual, axis=1)
    floor = 1e-10 * dist.max()
    vertices = []
    for _ in range(k):
        vertices.append(int(np.argmax(dist)))
        if not dist[vertices[-1]] > floor:
            raise SpectralError(f"rows of Y span fewer than k={k} dimensions")
        q = residual[vertices[-1]] / dist[vertices[-1]]
        residual -= np.outer(residual @ q, q)
        dist = np.linalg.norm(residual, axis=1)
        dist[vertices] = -np.inf
    return np.array(vertices)


def compute_memberships(Y: np.ndarray, vertex_indices) -> MembershipMatrix:
    """Soft memberships χ = Y·(Y[vertices])⁻¹, clamped onto the simplex.

    The linear transform sends vertex rows to unit vectors; first-order
    perturbation noise can push other rows slightly negative, so negatives are
    clamped to 0 and rows renormalized to sum 1.  A singular vertex matrix
    raises np.linalg.LinAlgError; the vertices ``find_simplex_vertices``
    returns are linearly independent, so ``cluster`` never meets it.
    """
    Y = np.asarray(Y, dtype=float)
    vertex_indices = np.asarray(vertex_indices, dtype=int)
    chi_raw = Y @ np.linalg.inv(Y[vertex_indices])
    chi = np.clip(chi_raw, 0.0, None)
    sums = chi.sum(axis=1, keepdims=True)
    if (sums <= 0).any():
        raise SpectralError("membership row collapsed to zero after clamping")
    chi = chi / sums
    return MembershipMatrix(chi=chi, chi_raw=chi_raw, vertex_indices=vertex_indices)


def connectivity(chi: np.ndarray, L: np.ndarray) -> np.ndarray:
    """Abstract-state connectivity C = χᵀLχ.

    Off-diagonal C(i,j) measures flow between clusters i and j; the diagonal
    carries within-cluster relative connectivity.
    """
    return chi.T @ L @ chi


def connected_pairs(C: np.ndarray, tau_conn: float = 0.1) -> list[tuple[int, int]]:
    """Ordered cluster pairs whose connectivity clears the relative threshold.

    A pair (i, j), i ≠ j, is connected when |C(i,j)| > tau_conn · max
    off-diagonal |C|.  Both orderings are reported; each yields one option.
    """
    C = np.asarray(C)
    k = C.shape[0]
    off = np.abs(C)
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
    membership = compute_memberships(Y, find_simplex_vertices(Y))
    return ClusterResult(laplacian=lap, spectral=SpectralResult(eigenvalues=eigenvalues, k=k),
                         selection=selection, membership=membership,
                         connectivity=connectivity(membership.chi, lap.L))
