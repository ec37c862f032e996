"""Empirical transition-model estimation from sampled trajectories.

Episodes are counted a ``Transitions`` batch at a time.  The model stores
only what was observed: one sorted int64 key (s·A + a)·N + s' per counted
transition, with its visit count and reward sum.  A write merges its batch
into the store, so reads never change the model.  Reads are derived from the
keys: the kernel P(s,a,s') = count / Σ_{s'} count over the stored keys only,
and the (N, N) reward-weighted adjacency, with R̂ the mean observed reward,

    D(s,s') = Σ_a count(s,a,s') · e^{−v·|R̂(s,a,s')|};

rewarded transitions fade from D as v grows.
"""

from __future__ import annotations

import csv
import math

import numpy as np

from spectral_options.env import N_ACTIONS, GridWorld, Transitions


class EstimatedModel:
    """Counts, mean rewards, and reward-weighted adjacency for a tabular MDP.

    The dense (N, A, N) views ``_dense``, ``R_count``, ``R_sum`` and ``U``, and
    ``u_prior`` (always 0.0), stay only for the benchmark; no package code reads them.
    """

    u_prior = 0.0

    def __init__(self, n_states: int, *, v: float = 0.0):
        if n_states < 1:
            raise ValueError("n_states must be positive")
        if not (math.isfinite(v) and v >= 0):
            raise ValueError(f"v must be finite and non-negative, got {v}")
        self.n_states = n_states
        self.v = float(v)
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

    U = R_count

    @property
    def D(self) -> np.ndarray:
        """Adjacency D as an (N, N) array, a new array on every read.

        Each key adds its weight to its (s, s') cell.  Keys are sorted by
        (s, a, s'), so a cell sums its actions in order from 0.0.
        """
        count, reward_sum = self._values
        weight = count * np.exp(-self.v * np.abs(reward_sum / count))
        s, _, s2 = _split(self._keys, self.n_states)
        n = self.n_states
        return np.bincount(s * n + s2, weight, minlength=n * n).reshape(n, n)


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

    Each observed (s, a, s') adds one visit and its reward; the views follow
    when read.  An out-of-range index raises IndexError before any count is
    written.
    """
    _add_counts(model, batch.s, batch.a, batch.s2, batch.r)
    return model


def transition_probabilities(model: EstimatedModel) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The kernel over the stored keys, in key order: arrays (sa, s2, p) with
    sa = s·A + a and p = count / Σ_{s'} count, new arrays on every read.

    An unvisited (s, a) has no entry: "no estimate", not a uniform guess.
    """
    sa, s2 = np.divmod(model._keys, model.n_states)
    count = model._values[0]
    return sa, s2, count / np.bincount(sa, count)[sa]


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

    Rows follow the key order, (s, a, next_s) ascending.
    """
    count, reward_sum = model._values
    mean_r = reward_sum / count
    s, a, s2 = _split(model._keys, model.n_states)
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["s", "a", "next_s", "count", "reward_mean"])
        writer.writerows(zip(s.tolist(), a.tolist(), s2.tolist(),
                             map(repr, count.tolist()), map(repr, mean_r.tolist())))

