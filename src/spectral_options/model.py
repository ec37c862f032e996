"""Empirical transition-model estimation from sampled trajectories.

Maintains per-transition visit counts U(s,a,s'), running mean rewards
R̂(s,a,s'), and a reward-weighted adjacency matrix

    D(s,s') = D_prior + Σ_a U(s,a,s') · e^{−v·|R̂(s,a,s')|},

so that transitions carrying reward are progressively cut out of the
adjacency structure as v grows.  All count writers share one batched path
that refreshes D only at the (s, s') pairs a batch touched, bit-identical to
rebuilding D from U and R̂, so D stays exactly consistent with the counts.
"""

from __future__ import annotations

import numpy as np

from spectral_options.env import N_ACTIONS, GridWorld, Trajectory


class EstimatedModel:
    """Counts, mean rewards, and reward-weighted adjacency for a tabular MDP."""

    def __init__(self, n_states: int, n_actions: int = N_ACTIONS, v: float = 0.0,
                 d_prior: float = 0.0, u_prior: float = 0.0):
        if n_states < 1 or n_actions < 1:
            raise ValueError("n_states and n_actions must be positive")
        if d_prior < 0 or u_prior < 0:
            raise ValueError("priors must be non-negative")
        self.n_states = n_states
        self.n_actions = n_actions
        self.v = float(v)
        self.d_prior = float(d_prior)
        self.u_prior = float(u_prior)
        self.U = np.full((n_states, n_actions, n_states), u_prior, dtype=float)
        self.R_sum = np.zeros((n_states, n_actions, n_states))
        self.R_count = np.zeros((n_states, n_actions, n_states))
        # No counts yet: R̂ = 0, and u_prior is summed over actions as in _add_counts.
        self.D = np.full((n_states, n_states), self.d_prior + sum([self.u_prior] * n_actions))


def _add_counts(model: EstimatedModel, s, a, s2, count, reward_sum) -> None:
    """Add count and reward_sum at each (s, a, s') of a batch, then refresh D.

    All indices are checked before any write.  np.add.at adds repeated indices
    in batch order, and D is recomputed only at the touched (s, s') pairs with
    actions summed in order, bit-identical to rebuilding D from U and R̂.
    """
    s, a, s2 = (np.asarray(x, dtype=np.intp) for x in (s, a, s2))
    for idx, bound in ((s, model.n_states), (a, model.n_actions), (s2, model.n_states)):
        if idx.size and not 0 <= idx.min() <= idx.max() < bound:
            raise IndexError(f"index out of range [0, {bound}): {idx.min()}..{idx.max()}")
    np.add.at(model.U, (s, a, s2), count)
    np.add.at(model.R_sum, (s, a, s2), reward_sum)
    np.add.at(model.R_count, (s, a, s2), count)

    rows, cols = np.divmod(np.unique(s * model.n_states + s2), model.n_states)
    n_obs = model.R_count[rows, :, cols]
    R_hat = np.divide(model.R_sum[rows, :, cols], n_obs, out=np.zeros_like(n_obs),
                      where=n_obs > 0)
    weighted = model.U[rows, :, cols] * np.exp(-model.v * np.abs(R_hat))
    model.D[rows, cols] = model.d_prior + sum(weighted.T)   # adds actions in order


def update_counts(model: EstimatedModel, traj: Trajectory) -> EstimatedModel:
    """Fold one trajectory into the model's counts; returns the same model.

    Each observed (s, a, s') increments U and the reward accumulators, then D
    is recomputed under the e^{−v|R̂|} weighting at the visited (s, s') pairs.
    An out-of-range index raises IndexError before any count is written.
    """
    steps = list(traj)
    _add_counts(model, [st.state for st in steps], [st.action for st in steps],
                [st.next_state for st in steps], 1.0, [st.reward for st in steps])
    return model


def transition_probabilities(model: EstimatedModel) -> dict:
    """Normalized count estimates P(s,a,·) for every visited (s, a).

    Unvisited pairs are absent from the returned map; callers must treat a
    missing key as "no estimate" rather than a uniform guess.
    """
    P: dict[tuple[int, int], np.ndarray] = {}
    totals = model.U.sum(axis=2)
    for s, a in zip(*np.nonzero(totals)):
        P[(int(s), int(a))] = model.U[s, a] / totals[s, a]
    return P


def adjacency(model: EstimatedModel) -> np.ndarray:
    """Symmetrized adjacency W = (D + Dᵀ)/2, giving the spectral stage a real spectrum."""
    return (model.D + model.D.T) / 2.0


def exhaustive_model(world: GridWorld, v: float = 0.0, d_prior: float = 0.0,
                     u_prior: float = 0.0) -> EstimatedModel:
    """Model built by enumerating every (s, a) of a deterministic world once.

    Terminal goal states contribute no outgoing transitions, matching what any
    amount of trajectory sampling could observe.  Requires slip_prob = 0.
    """
    if world.slip_prob != 0.0:
        raise ValueError("exhaustive enumeration requires deterministic dynamics")
    model = EstimatedModel(world.n_states, N_ACTIONS, v=v, d_prior=d_prior,
                           u_prior=u_prior)
    moves = [(s, a, world.move(s, a)) for s in range(world.n_states)
             if not world.is_terminal(s) for a in range(N_ACTIONS)]
    s, a, s2 = zip(*moves)
    rewards = [world.goal_reward if t in world.goals else world.step_reward for t in s2]
    _add_counts(model, s, a, s2, 1.0, rewards)
    return model


def save_triplets(model: EstimatedModel, path) -> None:
    """Write visited transitions as CSV rows (s, a, next_s, count, reward_mean)."""
    import csv

    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["s", "a", "next_s", "count", "reward_mean"])
        for s, a, s2 in zip(*np.nonzero(model.R_count)):
            mean_r = model.R_sum[s, a, s2] / model.R_count[s, a, s2]
            writer.writerow([int(s), int(a), int(s2),
                             repr(float(model.U[s, a, s2])), repr(float(mean_r))])


def load_triplets(path, n_states: int, n_actions: int = N_ACTIONS, v: float = 0.0,
                  d_prior: float = 0.0, u_prior: float = 0.0) -> EstimatedModel:
    """Rebuild a model from a triplet CSV written by save_triplets."""
    import csv

    model = EstimatedModel(n_states, n_actions, v=v, d_prior=d_prior, u_prior=u_prior)
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader)
        if header != ["s", "a", "next_s", "count", "reward_mean"]:
            raise ValueError(f"unrecognized triplet header: {header}")
        rows = [(int(r[0]), int(r[1]), int(r[2]), float(r[3]), float(r[4]))
                for r in reader]
    s, a, s2, count, mean_r = np.array(rows, dtype=float).reshape(-1, 5).T
    _add_counts(model, s, a, s2, count, mean_r * count)
    return model
