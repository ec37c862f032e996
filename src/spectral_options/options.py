"""Option composition from soft cluster memberships.

For every ordered pair of connected abstract states (Sᵢ → Sⱼ) we build an
option: its initiation set is every state whose argmax membership is i, its
policy hill-climbs the expected membership gain toward Sⱼ under the estimated
transition kernel, and its termination probability is
β(s) = min(log χ_Si(s) / log χ_Sj(s), 1) inside the source cluster and 1
everywhere else.

Hill climbing uses a tiered gain rule.  The primary gains are

    g(s,a) = Σ_{s'} P(s,a,s')·χ_Sj(s') − χ_Sj(s),

for every (s, a) and cluster at once: each stored kernel entry adds
P(s,a,s')·χ(s') to its (s, a) row, in key order.  μ(s,·) is proportional to
the positive part.  Clamped memberships are exactly zero far from cluster j,
so the primary gains can vanish on a plateau; there the policy instead
ascends the source membership χ_Si — which leads back toward the cluster core
where the target gradient resumes — and only if that also offers no positive
direction does it fall back to uniform over observed actions (flagged).  The
plateau tier is what makes greedy execution reach the target cluster from
every initiation state rather than stalling at cluster fringes.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from itertools import accumulate

import numpy as np

from spectral_options.env import N_ACTIONS
from spectral_options.model import transition_probabilities
from spectral_options.spectral import ClusterResult, connected_pairs

BETA_EPS = 1e-6   # log-domain clamp; exact 0/1 memberships occur in block cases
# Tolerance on a μ row's sum before it is drawn from
_P_SUM_ATOL = math.sqrt(np.finfo(np.float64).eps)


@dataclass
class Option:
    """Option Sᵢ → Sⱼ: initiation set, μ table and β table.

    ``draw_rows`` holds each μ row as (actions, cdf), built on first use and
    cached, so ``policy`` must not be mutated after the option has been run.
    """

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

    @cached_property
    def draw_rows(self) -> dict:
        """State -> (actions in μ's order, cumulative μ divided by its last entry).

        ``run_option`` draws an action by bisecting a row with one uniform.
        Each row is checked first: entries finite and non-negative, sum
        within √eps of 1.  States with an empty μ row are left out.
        """
        rows = {}
        for s, mu in self.policy.items():
            if not mu:
                continue
            acts = list(mu)
            p = [float(mu[a]) for a in acts]
            if (not all(math.isfinite(x) and x >= 0.0 for x in p)
                    or abs(math.fsum(p) - 1.0) > _P_SUM_ATOL):
                raise ValueError(f"option {self.label}: μ row at state {s} is not "
                                 f"a probability vector: {mu}")
            cdf = list(accumulate(p))
            last = cdf[-1]
            rows[s] = (acts, [x / last for x in cdf])
        return rows


def assign_states(chi: np.ndarray) -> list[list[int]]:
    """Argmax cluster assignment (ties to the lowest abstract index), as the
    sorted member states of each of χ's columns.

    Rows summing to zero represent states absent from the decomposition and
    belong to no cluster.
    """
    chi = np.asarray(chi)
    # ``~(sum <= 0)`` rather than ``sum > 0``: a NaN row is assigned, not skipped.
    states = np.flatnonzero(~(chi.sum(axis=1) <= 0))
    labels = chi[states].argmax(axis=1)   # the first (lowest) maximizer
    return [states[labels == c].tolist() for c in range(chi.shape[1])]


def compose_policy(i: int, j: int, gain: np.ndarray, observed: np.ndarray,
                   clusters: list[list[int]]):
    """Hill-climbing policy table for the option Sᵢ → Sⱼ.

    ``gain[s, a, c]`` is the expected membership gain toward cluster c after
    taking a in s, ``observed[s, a]`` marks the (s, a) the model has seen, and
    ``clusters`` holds each cluster's member states (``assign_states``).
    Returns (policy, unmodeled, ascent, fallback): the μ table over cluster-i
    states plus the sets recording states with no observed actions, states on
    the target-membership plateau handled by source-membership ascent, and
    states that degraded to uniform.
    """
    members = clusters[i]
    rows = np.asarray(members, dtype=np.intp)
    obs = observed[rows]
    toward_j, toward_i = gain[rows, :, j], gain[rows, :, i]
    up_j = obs & (toward_j > 0)
    up_i = obs & (toward_i > 0)
    target = up_j.any(axis=1)
    ascend = ~target & up_i.any(axis=1)
    modeled = obs.any(axis=1)
    # Per row: the target tier's positive gains, else the source tier's, else
    # weight 1.0 on every observed action.
    chosen = np.where(target[:, None], up_j, np.where(ascend[:, None], up_i, obs))
    weight = np.where(target[:, None], toward_j, np.where(ascend[:, None], toward_i, 1.0))
    actions = np.nonzero(chosen)[1].tolist()
    weights = weight[chosen].tolist()
    policy: dict[int, dict[int, float]] = {}
    end = 0
    for s, count in zip(members, chosen.sum(axis=1).tolist()):
        if count:
            start, end = end, end + count
            g = weights[start:end]
            total = 0.0
            for x in g:         # left to right; sum() compensates from Python 3.12
                total += x
            policy[s] = dict(zip(actions[start:end], [x / total for x in g]))
    return (policy, frozenset(rows[~modeled].tolist()), frozenset(rows[ascend].tolist()),
            frozenset(rows[modeled & ~target & ~ascend].tolist()))


def compose_termination(i: int, j: int, chi: np.ndarray,
                        clusters: list[list[int]]) -> dict:
    """β table over cluster-i states: min(log χ_Si / log χ_Sj, 1).

    Memberships are clamped into [ε, 1−ε] before the logs so exact 0/1 values
    from block-diagonal cases stay finite.  Only ``clusters[i]``, the members
    ``assign_states`` gives cluster i, are tabled; all others terminate with
    probability 1.
    """
    members = clusters[i]
    clamped = np.clip(np.asarray(chi)[members], BETA_EPS, 1.0 - BETA_EPS)
    beta = np.minimum(np.log(clamped[:, i]) / np.log(clamped[:, j]), 1.0)
    return dict(zip(members, beta.tolist()))


def compose_options(model, result: ClusterResult, tau_conn: float = 0.1) -> list[Option]:
    """One option per ordered pair of connected abstract states.

    Connectivity is the clustering's C = χᵀLχ with the relative threshold
    tau_conn (see spectral.connected_pairs); every option's gains come from
    the kernel's stored entries.  Returns an empty list when no pair clears it.
    """
    sa, s2, p = transition_probabilities(model)
    chi = result.chi
    n, k = chi.shape
    sums = [np.bincount(sa, col, minlength=n * N_ACTIONS) for col in chi[s2].T * p]
    gain = np.stack(sums, axis=1).reshape(n, N_ACTIONS, k) - chi[:, None, :]
    observed = np.bincount(sa, minlength=n * N_ACTIONS).reshape(n, N_ACTIONS) > 0
    clusters = assign_states(chi)
    options = []
    for (i, j) in connected_pairs(result.connectivity, tau_conn):
        policy, unmodeled, ascent, fallback = compose_policy(i, j, gain, observed, clusters)
        beta = compose_termination(i, j, chi, clusters)
        options.append(Option(
            source=i, target=j,
            initiation=frozenset(clusters[i]),
            policy=policy, termination=beta,
            unmodeled_states=unmodeled, ascent_states=ascent,
            fallback_states=fallback,
        ))
    return options
