"""Empirical transition-model estimation from sampled trajectories.

Stores only what was observed, per-transition visit counts and reward sums.
The smoothed counts U(s,a,s') = counts + U_prior and the reward-weighted
adjacency, with R̂ the mean observed reward,

    D(s,s') = D_prior + Σ_a U(s,a,s') · e^{−v·|R̂(s,a,s')|},

are derived from them when read; rewarded transitions fade from D as v grows.
"""

from __future__ import annotations

import csv

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
        self.R_sum = np.zeros((n_states, n_actions, n_states))
        self.R_count = np.zeros((n_states, n_actions, n_states))

    @property
    def U(self) -> np.ndarray:
        """Smoothed counts R_count + u_prior, a new array on every read."""
        return self.R_count + self.u_prior

    @property
    def D(self) -> np.ndarray:
        """Adjacency D, a new array on every read, summed one N×N action slice at a time."""
        total = 0.0
        for a in range(self.n_actions):
            n = self.R_count[:, a]
            R_hat = np.divide(self.R_sum[:, a], n, out=np.zeros_like(n), where=n > 0)
            total = total + (n + self.u_prior) * np.exp(-self.v * np.abs(R_hat))
        return self.d_prior + total


def _add_counts(model: EstimatedModel, s, a, s2, count, reward_sum) -> None:
    """Add count and reward_sum to R_count and R_sum at each (s, a, s') of a batch.

    All indices are checked first; np.add.at adds repeated indices in batch order.
    """
    s, a, s2 = (np.asarray(x, dtype=np.intp) for x in (s, a, s2))
    for idx, bound in ((s, model.n_states), (a, model.n_actions), (s2, model.n_states)):
        if idx.size and not 0 <= idx.min() <= idx.max() < bound:
            raise IndexError(f"index out of range [0, {bound}): {idx.min()}..{idx.max()}")
    np.add.at(model.R_sum, (s, a, s2), reward_sum)
    np.add.at(model.R_count, (s, a, s2), count)


def update_counts(model: EstimatedModel, traj: Trajectory) -> EstimatedModel:
    """Fold one trajectory into the model's counts; returns the same model.

    Each observed (s, a, s') adds one visit and its reward; U and D follow when
    read.  An out-of-range index raises IndexError before any count is written.
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
    U = model.U
    totals = U.sum(axis=2)
    for s, a in zip(*np.nonzero(totals)):
        P[(int(s), int(a))] = U[s, a] / totals[s, a]
    return P


def adjacency(model: EstimatedModel) -> np.ndarray:
    """Symmetrized adjacency W = (D + Dᵀ)/2, giving the spectral stage a real spectrum."""
    D = model.D
    return (D + D.T) / 2.0


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
    """Write visited transitions as CSV rows (s, a, next_s, count, reward_mean).

    ``count`` holds observed visits only, without u_prior, so load_triplets
    with the same priors rebuilds the model exactly.
    """
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["s", "a", "next_s", "count", "reward_mean"])
        for s, a, s2 in zip(*np.nonzero(model.R_count)):
            mean_r = model.R_sum[s, a, s2] / model.R_count[s, a, s2]
            writer.writerow([int(s), int(a), int(s2),
                             repr(float(model.R_count[s, a, s2])), repr(float(mean_r))])


def load_triplets(path, n_states: int, n_actions: int = N_ACTIONS, v: float = 0.0,
                  d_prior: float = 0.0, u_prior: float = 0.0) -> EstimatedModel:
    """Rebuild a model from a triplet CSV written by save_triplets, rejecting bad values."""
    model = EstimatedModel(n_states, n_actions, v=v, d_prior=d_prior, u_prior=u_prior)
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader)
        if header != ["s", "a", "next_s", "count", "reward_mean"]:
            raise ValueError(f"unrecognized triplet header: {header}")
        rows = []
        for r in reader:
            rows.append((int(r[0]), int(r[1]), int(r[2]), float(r[3]), float(r[4])))
            if not (0 <= rows[-1][3] < np.inf and np.isfinite(rows[-1][4])):
                raise ValueError(f"line {reader.line_num}: count must be finite and >= 0 "
                                 f"and reward_mean finite, got {r[3]}, {r[4]}")
    s, a, s2, count, mean_r = np.array(rows, dtype=float).reshape(-1, 5).T
    _add_counts(model, s, a, s2, count, mean_r * count)
    return model
