"""Option composition from soft cluster memberships.

For every ordered pair of connected abstract states (Sᵢ → Sⱼ) we build an
option: its initiation set is every state whose argmax membership is i, its
policy hill-climbs the expected membership gain toward Sⱼ under the estimated
transition kernel, and its termination probability is
β(s) = min(log χ_Si(s) / log χ_Sj(s), 1) inside the source cluster and 1
everywhere else.

Hill climbing uses a tiered gain rule.  The primary gains are

    g(s,a) = Σ_{s'} P(s,a,s')·χ_Sj(s') − χ_Sj(s),

and μ(s,·) is proportional to the positive part.  Clamped memberships are
exactly zero far from cluster j, so the primary gains can vanish on a plateau;
there the policy instead ascends the source membership χ_Si — which leads back
toward the cluster core where the target gradient resumes — and only if that
also offers no positive direction does it fall back to uniform over observed
actions (flagged).  The plateau tier is what makes greedy execution reach the
target cluster from every initiation state rather than stalling at cluster
fringes.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from spectral_options.spectral import (
    ClusterResult,
    MembershipMatrix,
    StochasticLaplacian,
    connected_pairs,
    connectivity,
)

BETA_EPS = 1e-6   # log-domain clamp; exact 0/1 memberships occur in block cases


@dataclass
class AbstractionIndex:
    """Hard assignment of states to abstract states by argmax membership."""

    assignment: dict          # StateId -> abstract index
    clusters: list            # abstract index -> sorted member StateIds


@dataclass
class Option:
    source: int
    target: int
    initiation: frozenset
    policy: dict              # StateId -> {ActionId: prob}
    termination: dict         # StateId -> beta, within the source cluster
    unmodeled_states: frozenset = frozenset()   # no observed actions; no policy row
    ascent_states: frozenset = frozenset()      # plateau tier: climbing source membership
    fallback_states: frozenset = frozenset()    # uniform tier: no positive direction at all

    @property
    def label(self) -> str:
        return f"S{self.source}->S{self.target}"

    def termination_prob(self, s: int) -> float:
        """β(s); states outside the source cluster terminate with certainty."""
        return self.termination.get(s, 1.0)


def expand_memberships(membership: MembershipMatrix, state_ids, n_states: int) -> np.ndarray:
    """Lift membership rows from the kept-state subspace to full state ids.

    Dropped (zero-degree) states get all-zero rows, which excludes them from
    every cluster assignment.
    """
    chi = np.zeros((n_states, membership.chi.shape[1]))
    chi[np.asarray(state_ids)] = membership.chi
    return chi


def assign_states(chi: np.ndarray) -> AbstractionIndex:
    """Argmax cluster assignment (ties to the lowest abstract index).

    Rows summing to zero represent states absent from the decomposition and
    receive no assignment.
    """
    chi = np.asarray(chi)
    k = chi.shape[1]
    assignment = {}
    clusters = [[] for _ in range(k)]
    for s, row in enumerate(chi):
        if row.sum() <= 0:
            continue
        c = int(np.argmax(row))   # np.argmax returns the first (lowest) maximizer
        assignment[s] = c
        clusters[c].append(s)
    return AbstractionIndex(assignment=assignment, clusters=clusters)


def _observed_actions(P: dict) -> dict:
    by_state: dict[int, list[int]] = {}
    for (s, a) in P:
        by_state.setdefault(s, []).append(a)
    return {s: sorted(acts) for s, acts in by_state.items()}


def compose_policy(i: int, j: int, chi: np.ndarray, P: dict,
                   index: AbstractionIndex):
    """Hill-climbing policy table for the option Sᵢ → Sⱼ.

    Returns (policy, unmodeled, ascent, fallback): the μ table over cluster-i
    states plus the sets recording states with no observed actions, states on
    the target-membership plateau handled by source-membership ascent, and
    states that degraded to uniform.
    """
    chi = np.asarray(chi)
    actions = _observed_actions(P)
    policy: dict[int, dict[int, float]] = {}
    unmodeled, ascent, fallback = set(), set(), set()
    for s in index.clusters[i]:
        obs = actions.get(s)
        if not obs:
            unmodeled.add(s)
            continue
        gains = {a: float(P[(s, a)] @ chi[:, j] - chi[s, j]) for a in obs}
        positive = {a: g for a, g in gains.items() if g > 0}
        if not positive:
            towards_core = {a: float(P[(s, a)] @ chi[:, i] - chi[s, i]) for a in obs}
            positive = {a: g for a, g in towards_core.items() if g > 0}
            if positive:
                ascent.add(s)
            else:
                positive = {a: 1.0 for a in obs}
                fallback.add(s)
        total = sum(positive.values())
        policy[s] = {a: g / total for a, g in positive.items()}
    return policy, frozenset(unmodeled), frozenset(ascent), frozenset(fallback)


def compose_termination(i: int, j: int, chi: np.ndarray) -> dict:
    """β table over cluster-i states: min(log χ_Si / log χ_Sj, 1).

    Memberships are clamped into [ε, 1−ε] before the logs so exact 0/1 values
    from block-diagonal cases stay finite.  States outside cluster i are not
    tabled; they terminate with probability 1.
    """
    chi = np.asarray(chi)
    clamped = np.clip(chi, BETA_EPS, 1.0 - BETA_EPS)
    beta = {}
    for s, row in enumerate(chi):
        if row.sum() <= 0 or int(np.argmax(row)) != i:
            continue
        beta[s] = float(min(np.log(clamped[s, i]) / np.log(clamped[s, j]), 1.0))
    return beta


def _options_from(membership: MembershipMatrix, kept, C: np.ndarray, P: dict,
                  tau_conn: float, n_states: int | None) -> list[Option]:
    if n_states is None:
        n_states = int(kept.max()) + 1
    chi = expand_memberships(membership, kept, n_states)
    index = assign_states(chi)
    options = []
    for (i, j) in connected_pairs(C, tau_conn):
        policy, unmodeled, ascent, fallback = compose_policy(i, j, chi, P, index)
        beta = compose_termination(i, j, chi)
        options.append(Option(
            source=i, target=j,
            initiation=frozenset(index.clusters[i]),
            policy=policy, termination=beta,
            unmodeled_states=unmodeled, ascent_states=ascent,
            fallback_states=fallback,
        ))
    return options


def discover_options(membership: MembershipMatrix, lap: StochasticLaplacian,
                     P: dict, tau_conn: float = 0.1,
                     n_states: int | None = None) -> list[Option]:
    """One option per ordered pair of connected abstract states.

    Connectivity comes from C = χᵀLχ with the relative threshold tau_conn
    (see spectral.connected_pairs).  Returns an empty list when no pair
    clears it.
    """
    return _options_from(membership, lap.kept, connectivity(membership, lap), P,
                         tau_conn, n_states)


def compose_options(model, result: ClusterResult, tau_conn: float = 0.1) -> list[Option]:
    """Options from an estimated model and its clustering.

    Same as discover_options, but reuses the connectivity the clustering
    already computed.
    """
    from spectral_options.model import transition_probabilities

    return _options_from(result.membership, result.state_ids, result.connectivity,
                         transition_probabilities(model), tau_conn, model.n_states)
