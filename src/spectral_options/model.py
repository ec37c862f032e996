"""Empirical transition-model estimation from sampled trajectories.

Episodes are counted a ``Transitions`` batch at a time.  The model stores
only what was observed: one sorted int64 key (s·A + a)·N + s' per counted
transition, with its visit count and reward sum.  A write merges its batch
into the store, so reads never change the model.  The dense (N, A, N) views
R_count and R_sum, the smoothed counts U(s,a,s') = counts + U_prior and the
reward-weighted adjacency, with R̂ the mean observed reward,

    D(s,s') = Σ_a U(s,a,s') · e^{−v·|R̂(s,a,s')|},

are derived from the keys when read; rewarded transitions fade from D as v
grows.  So is the dense (N, A, N) transition kernel P = U / Σ_{s'} U that
options read.
"""

from __future__ import annotations

import csv
import math

import numpy as np

from spectral_options.env import N_ACTIONS, GridWorld, Transitions


class EstimatedModel:
    """Counts, mean rewards, and reward-weighted adjacency for a tabular MDP."""

    def __init__(self, n_states: int, *, v: float = 0.0, u_prior: float = 0.0):
        if n_states < 1:
            raise ValueError("n_states must be positive")
        for name, x in (("v", v), ("u_prior", u_prior)):
            if not (math.isfinite(x) and x >= 0):
                raise ValueError(f"{name} must be finite and non-negative, got {x}")
        self.n_states = n_states
        self.v = float(v)
        self.u_prior = float(u_prior)
        self._keys = np.zeros(0, dtype=np.int64)   # sorted, unique
        self._values = np.zeros((2, 0))             # rows: count, reward_sum per key

    def _dense(self, row: int) -> np.ndarray:
        """Row 0 (count) or 1 (reward_sum) of the store as a zero-filled (N, A, N) array."""
        out = np.zeros((self.n_states, N_ACTIONS, self.n_states))
        out.put(self._keys, self._values[row])
        return out

    @property
    def R_count(self) -> np.ndarray:
        """Visit counts as a dense (N, A, N) array, a new array on every read."""
        return self._dense(0)

    @property
    def R_sum(self) -> np.ndarray:
        """Reward sums as a dense (N, A, N) array, a new array on every read."""
        return self._dense(1)

    @property
    def U(self) -> np.ndarray:
        """Smoothed counts R_count + u_prior, a new array on every read."""
        U = self._dense(0)
        U += self.u_prior
        return U

    @property
    def D(self) -> np.ndarray:
        """Adjacency D, a new array on every read, summed one N×N action slice at a time.

        exp is taken on counted entries only: elsewhere R̂ = 0, so an action
        adds u_prior there.
        """
        count, reward_sum = self._values
        weight = (count + self.u_prior) * np.exp(-self.v * np.abs(reward_sum / count))
        s, a, s2 = _split(self._keys, self.n_states)
        cell = s * self.n_states + s2
        total = np.zeros((self.n_states, self.n_states))
        for b in range(N_ACTIONS):
            mine = a == b
            before = total.take(cell[mine])
            total += self.u_prior
            total.put(cell[mine], before + weight[mine])
        return total


def _split(keys: np.ndarray, n_states: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(s, a, s') of each key (s·A + a)·N + s'."""
    sa, s2 = np.divmod(keys, n_states)
    s, a = np.divmod(sa, N_ACTIONS)
    return s, a, s2


def _add_counts(model: EstimatedModel, s, a, s2, reward_sum) -> None:
    """Add one visit and its reward_sum at each (s, a, s') of a batch.

    All indices are checked first; the batch is then merged into the model's
    store.  bincount adds each stored value first, then the batch's values in
    order, so every sum is what sequential np.add.at gives.
    """
    s, a, s2 = (np.asarray(x, dtype=np.int64) for x in (s, a, s2))
    for idx, bound in ((s, model.n_states), (a, N_ACTIONS), (s2, model.n_states)):
        if idx.size and not 0 <= idx.min() <= idx.max() < bound:
            raise IndexError(f"index out of range [0, {bound}): {idx.min()}..{idx.max()}")
    keys = ((s * N_ACTIONS + a) * model.n_states + s2).ravel()
    values = np.empty((2, keys.size))
    values[0], values[1] = 1.0, reward_sum
    values = np.concatenate([model._values, values], axis=1)
    model._keys, inverse = np.unique(np.concatenate([model._keys, keys]), return_inverse=True)
    model._values = np.array([np.bincount(inverse, row) for row in values])


def update_counts(model: EstimatedModel, batch: Transitions) -> EstimatedModel:
    """Fold a Transitions batch of episodes into the model's counts with one
    write; returns the same model.

    Each observed (s, a, s') adds one visit and its reward; U and D follow when
    read.  An out-of-range index raises IndexError before any count is written.
    """
    _add_counts(model, batch.s, batch.a, batch.s2, batch.r)
    return model


def transition_probabilities(model: EstimatedModel) -> np.ndarray:
    """The (N, A, N) kernel P(s,a,·) = U(s,a,·) / Σ U(s,a,·), a new array on every read.

    With u_prior = 0 the row of an unvisited (s, a) is all zero: "no estimate",
    not a uniform guess.  With u_prior > 0 that row is uniform, 1/N.
    """
    P = model.U
    totals = P.sum(axis=2, keepdims=True)
    return np.divide(P, totals, out=P, where=totals > 0)


def adjacency(model: EstimatedModel) -> np.ndarray:
    """Symmetrized adjacency W = (D + Dᵀ)/2, giving the spectral stage a real spectrum."""
    D = model.D
    return (D + D.T) / 2.0


def exhaustive_model(world: GridWorld, v: float = 0.0) -> EstimatedModel:
    """Model built by enumerating every (s, a) of a deterministic world once.

    Terminal goal states contribute no outgoing transitions, matching what any
    amount of trajectory sampling could observe.  Requires slip_prob = 0.
    """
    if world.slip_prob != 0.0:
        raise ValueError("exhaustive enumeration requires deterministic dynamics")
    model = EstimatedModel(world.n_states, v=v)
    moves = [(s, a, world.move(s, a)) for s in range(world.n_states)
             if not world.is_terminal(s) for a in range(N_ACTIONS)]
    s, a, s2 = zip(*moves)
    rewards = [world.goal_reward if t in world.goals else world.step_reward for t in s2]
    _add_counts(model, s, a, s2, rewards)
    return model


def save_triplets(model: EstimatedModel, path) -> None:
    """Write visited transitions as CSV rows (s, a, next_s, count, reward_mean).

    Rows follow the key order, (s, a, next_s) ascending.  ``count`` holds
    observed visits only, without u_prior.
    """
    count, reward_sum = model._values
    mean_r = reward_sum / count
    s, a, s2 = _split(model._keys, model.n_states)
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["s", "a", "next_s", "count", "reward_mean"])
        writer.writerows(zip(s.tolist(), a.tolist(), s2.tolist(),
                             map(repr, count.tolist()), map(repr, mean_r.tolist())))

