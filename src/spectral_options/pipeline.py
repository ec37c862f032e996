"""The online option-discovery loop and the microstate aggregation stage.

``run_odstc`` alternates sampling, model estimation, PCCA+ clustering, option
composition, and value learning: every ``pcca_refresh_interval`` rounds the
current adjacency is re-clustered and the agent's option set replaced (old
option values are dropped — cluster identities are not stable across
re-clusterings, so remapping by label would be unsound).  When clustering
fails (all-zero adjacency in early rounds), the round proceeds without
options and the failure is recorded.  A flat run keeps no model.

``kmeans_microstates`` + ``aggregate_model`` implement the state-aggregation
stage for externally supplied feature vectors: k-means++ seeded Lloyd
iterations group feature points into microstates, and sampled episodes are
streamed, one block at a time, into counts on the microstate space, after
which the spectral and option stages apply unchanged.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from spectral_options.env import Draws, GridWorld, Trajectory, Transitions, step
from spectral_options.model import EstimatedModel, _add_counts, adjacency, update_counts
from spectral_options.spectral import SpectralError, cluster
from spectral_options.options import compose_options
from spectral_options.agents import (
    EpisodeLog,
    QTable,
    _check_alpha_gamma,
    epsilon_greedy,
    intra_option_update,
    run_option,
    smdp_q_update,
)

LEARNERS = ("smdp", "intra_option", "flat")


@dataclass
class OdstcConfig:
    """Settings of the discovery loop; each field is also a key of the CLI's INI."""

    episodes_per_round: int = 10
    max_rounds: int = 50
    pcca_refresh_interval: int = 10
    t_c: float = 0.5
    k: int = 0                        # force the cluster count; 0 = spectral gap
    v: float = 0.0                    # reward weighting e^{-v|R|}; 0 = off
    tau_conn: float = 0.1
    alpha: float = 0.1
    gamma: float = 0.99
    eps_start: float = 1.0
    eps_end: float = 0.05
    eps_anneal_episodes: int = 0      # 0 = anneal over the full budget
    learner: str = "smdp"
    max_steps_per_episode: int = 400
    convergence_window: int = 20
    seed: int = 0

    def validate(self):
        counts = {"episodes_per_round": self.episodes_per_round,
                  "pcca_refresh_interval": self.pcca_refresh_interval,
                  "max_steps_per_episode": self.max_steps_per_episode,
                  "convergence_window": self.convergence_window}
        for name, value in counts.items():
            if value < 1:
                raise ValueError(f"{name} must be >= 1, got {value}")
        for name, value in {"max_rounds": self.max_rounds, "seed": self.seed,
                            "eps_anneal_episodes": self.eps_anneal_episodes or 0}.items():
            if value < 0:
                raise ValueError(f"{name} must be >= 0, got {value}")
        if self.k and self.k < 2:
            raise ValueError(f"k must be 0 (spectral gap) or >= 2, got {self.k}")
        if not 0 < self.t_c < 1:
            raise ValueError(f"t_c must lie in (0, 1), got {self.t_c}")
        for name, p in {"eps_start": self.eps_start, "eps_end": self.eps_end}.items():
            if not 0 <= p <= 1:
                raise ValueError(f"{name} must lie in [0, 1], got {p}")
        if self.learner not in LEARNERS:
            raise ValueError(f"learner must be one of {LEARNERS}, got {self.learner!r}")
        if not 0 <= self.tau_conn < 1:      # at 1 no pair clears τ·max, so no options
            raise ValueError(f"tau_conn must lie in [0, 1), got {self.tau_conn}")
        if not (math.isfinite(self.v) and self.v >= 0):
            raise ValueError(f"v must be finite and non-negative, got {self.v}")
        _check_alpha_gamma(self.alpha, self.gamma)


@dataclass
class MicrostateMap:
    assignments: np.ndarray   # data-point index -> microstate id
    centroids: np.ndarray     # (k_m, dim)
    sse_history: list = field(default_factory=list)


@dataclass
class OdstcResult:
    """A run's learner, whose ``q.options`` is the last option set offered, and
    its record: ``history[e]`` is episode e's log."""

    q: QTable
    history: list             # EpisodeLog per episode, in episode order
    notes: list
    converged: bool


def epsilon_at(episode: int, anneal_episodes: int, eps_start: float,
               eps_end: float) -> float:
    """Linear ε anneal from eps_start to eps_end over anneal_episodes."""
    frac = min(episode / max(anneal_episodes, 1), 1.0)
    return eps_start + (eps_end - eps_start) * frac


def _plateaued(returns, window: int) -> bool:
    """The plateau rule: at least two full windows of episode returns, a
    positive mean over the last ``window`` (an agent still scoring zero has
    not learned yet), and that mean within 1 % of the mean of the ``window``
    returns before them, relative to the larger magnitude of the two.
    Raises ValueError for window < 1."""
    if window < 1:
        raise ValueError(f"window must be >= 1, got {window}")
    if len(returns) < 2 * window:
        return False
    m_last = float(np.mean(returns[-window:]))
    if not m_last > 0:
        return False
    m_prev = float(np.mean(returns[-2 * window:-window]))
    scale = max(abs(m_prev), abs(m_last), 1e-12)
    return abs(m_last - m_prev) < 0.01 * scale


def episodes_to_plateau(returns, window: int) -> int:
    """First episode count e at which ``returns[:e]`` has plateaued by the rule
    that stops ``run_odstc`` (``_plateaued``).

    Returns len(returns) if no plateau is reached; raises ValueError for
    window < 1.
    """
    returns = np.asarray(returns, dtype=float)
    for e in range(2 * window, len(returns) + 1):
        if _plateaued(returns[:e], window):
            return e
    return len(returns)


def run_episode(world: GridWorld, Q: QTable, epsilon: float, rng: Draws,
                learner: str, max_steps: int) -> tuple[EpisodeLog, Trajectory]:
    """One behavioral episode with learning updates; returns its log and trajectory.

    The choices are those of ``Q``'s option set, whose tables were built when
    the set was offered.  The episode keeps one ``Trajectory``: a primitive
    choice appends its step and makes one update; an option appends its
    steps through ``run_option``, and the learner reads them back from the
    trajectory for one SMDP update, with the option's discounted return, or
    one intra-option update per step.  Every draw, the ε test and choice,
    the option's actions and terminations and the slips, comes from ``rng``
    in the order the episode makes them.
    """
    intra = learner == "intra_option"
    options, gamma = Q.options, Q.gamma
    s = world.start
    traj = Trajectory([s])
    states, actions, rewards = traj.states, traj.actions, traj.rewards
    steps = decisions = 0
    while steps < max_steps:
        c = epsilon_greedy(Q, s, epsilon, rng)
        decisions += 1
        if isinstance(c, tuple):                       # option choice
            o = options[c[1]]
            cap = min(world.n_states, max_steps - steps)
            k = run_option(world, o, traj, rng, cap).duration
            if intra:
                for t in range(steps, steps + k):
                    intra_option_update(Q, states[t], actions[t], rewards[t], states[t + 1])
            else:
                ret = 0.0
                for t, r in enumerate(rewards[steps:]):
                    ret += gamma ** t * r
                smdp_q_update(Q, s, c, ret, k, states[-1])
            steps += k
            s = states[-1]
            if traj.done:
                break
        else:                                          # primitive choice
            s2, r, done = step(world, s, c, rng)
            if intra:
                intra_option_update(Q, s, c, r, s2)
            else:
                smdp_q_update(Q, s, c, r, 1, s2)
            traj.add(c, r, s2, done)
            steps += 1
            s = s2
            if done:
                break
    ret = 0.0
    for r in rewards:           # in step order; sum() compensates from Python 3.12
        ret += r
    log = EpisodeLog(cumulative_reward=ret, decision_epochs=decisions,
                     primitive_steps=steps)
    return log, traj


def run_odstc(world: GridWorld, config: OdstcConfig) -> OdstcResult:
    """Sample → estimate → cluster → compose → learn, until plateau or budget.

    Re-clustering happens at the top of every pcca_refresh_interval-th round
    (skipping round 0, which has no data), and its options are offered to the
    Q table, which rebuilds its tables once for the new set.  An option
    learner counts each round's episodes into its model as one batch after the
    round and reads the model only at the top of a round; a run that ends
    before its first re-clustering gets a note saying so.  The flat learner
    never clusters, so it keeps no model and counts nothing.
    """
    config.validate()
    rng = Draws(config.seed)
    model = None if config.learner == "flat" else EstimatedModel(world.n_states, v=config.v)
    Q = QTable(world.n_states, alpha=config.alpha, gamma=config.gamma)
    history: list[EpisodeLog] = []
    notes: list[str] = []
    anneal = config.eps_anneal_episodes or config.max_rounds * config.episodes_per_round
    window = config.convergence_window
    converged = False
    for rnd in range(config.max_rounds):
        if model is not None and rnd > 0 and rnd % config.pcca_refresh_interval == 0:
            try:
                result = cluster(adjacency(model), t_c=config.t_c, k=config.k or None)
                options = compose_options(model, result, tau_conn=config.tau_conn)
            except SpectralError as exc:
                options = []
                notes.append(f"round {rnd}: clustering failed ({exc}); "
                             "continuing without options")
            Q.set_options(options)
        trajs = []
        for _ in range(config.episodes_per_round):
            eps = epsilon_at(len(history), anneal, config.eps_start, config.eps_end)
            log, traj = run_episode(world, Q, eps, rng, config.learner,
                                    config.max_steps_per_episode)
            trajs.append(traj)
            history.append(log)
        if model is not None:
            update_counts(model, Transitions.of(trajs))
        if _plateaued([log.cumulative_reward for log in history[-2 * window:]], window):
            converged = True
            break
    rounds = len(history) // config.episodes_per_round
    if model is not None and 0 < rounds <= config.pcca_refresh_interval:
        notes.append(f"no re-clustering in {rounds} rounds (pcca_refresh_interval="
                     f"{config.pcca_refresh_interval}); learned without options")
    return OdstcResult(q=Q, history=history, notes=notes, converged=converged)


def _choice_index(rng: Draws, probs: np.ndarray) -> int:
    """An index drawn ∝ ``probs`` by one ``rng.random()`` u: the first index
    whose cumulative probability, divided by the total, exceeds u."""
    cdf = probs.cumsum()
    cdf /= cdf[-1]
    return int(cdf.searchsorted(rng.random(), side="right"))


def _sq_dists(pts: np.ndarray, centroids: np.ndarray) -> np.ndarray:
    """(n, k) squared distances: the squared column differences added
    column by column, left to right."""
    dist2 = (pts[:, :1] - centroids[:, 0]) ** 2
    for c in range(1, pts.shape[1]):
        dist2 += (pts[:, c:c + 1] - centroids[:, c]) ** 2
    return dist2


def kmeans_microstates(features, k_m: int, seed: int = 0,
                       max_iters: int = 100) -> MicrostateMap:
    """k-means++ initialized Lloyd clustering of feature vectors.

    Iterates to an assignment fixpoint or max_iters; a cluster left empty is
    reseeded at the point farthest from its current centroid.  Raises when
    the features are not finite or their squared distances overflow, k_m
    exceeds the number of distinct points or max_iters is below 1.

    Seeding draws come from ``Draws(seed)``: the first centroid is the point
    at ``integers(n)`` and each later one is drawn by ``_choice_index``.
    The arithmetic is the same for every feature width: a squared distance
    adds the squared column differences left to right, and a centroid
    coordinate adds its members' values from +0.0 in point order, then
    divides by the member count.
    """
    if max_iters < 1:
        raise ValueError(f"max_iters must be >= 1, got {max_iters}")
    pts = np.asarray(features, dtype=float)
    if pts.ndim == 1:
        pts = pts[:, None]
    if pts.ndim != 2 or pts.size == 0:
        raise ValueError("features must be a non-empty 2-D array of vectors")
    if not np.isfinite(pts).all():
        raise ValueError("features must be finite")
    n, dim = pts.shape
    n_distinct = np.unique(pts, axis=0).shape[0]
    if not 1 <= k_m <= n_distinct:
        raise ValueError(f"k_m must lie in [1, {n_distinct} distinct points], got {k_m}")
    rng = Draws(seed)

    # k-means++ seeding: each new centroid drawn ∝ squared distance to the set,
    # kept as a running minimum over the centroids chosen so far.
    chosen = [pts[rng.integers(n)]]
    d2 = np.full(n, np.inf)
    while len(chosen) < k_m:
        d2 = np.minimum(d2, _sq_dists(pts, chosen[-1][None])[:, 0])
        total = d2.sum()
        if not np.isfinite(total):
            raise ValueError("squared feature distances overflow")
        probs = d2 / total if total > 0 else np.full(n, 1.0 / n)
        chosen.append(pts[_choice_index(rng, probs)])
    centroids = np.array(chosen)

    assignments = np.full(n, -1)
    sse_history = []
    for _ in range(max_iters):
        dist2 = _sq_dists(pts, centroids)
        new_assign = dist2.argmin(axis=1)
        counts = np.bincount(new_assign, minlength=k_m)
        if not counts.all():
            for c in range(k_m):
                if not (new_assign == c).any():
                    farthest = int(np.argmax(dist2[np.arange(n), new_assign]))
                    centroids[c] = pts[farthest]
                    new_assign[farthest] = c
            counts = np.bincount(new_assign, minlength=k_m)
        sse_history.append(float(((pts - centroids[new_assign]) ** 2).sum()))
        if (new_assign == assignments).all():
            break
        assignments = new_assign
        for col in range(dim):
            centroids[:, col] = np.bincount(assignments, weights=pts[:, col],
                                            minlength=k_m) / counts
    return MicrostateMap(assignments=assignments, centroids=centroids,
                         sse_history=sse_history)


def aggregate_model(episodes, assignments, n_microstates: int | None = None,
                    v: float = 0.0) -> EstimatedModel:
    """Count episodes on the microstate space, one write per Transitions batch
    of ``episodes``.

    ``assignments`` is an integer array, state id -> microstate id.  The
    batches may come from any iterable and are not kept.  A state outside
    [0, len(assignments)) raises IndexError before its batch is counted, and
    so does a microstate id outside [0, n_microstates).  The resulting model
    feeds the spectral and option stages unchanged.
    """
    assignments = np.asarray(assignments, dtype=np.intp)
    if n_microstates is None:
        n_microstates = int(assignments.max()) + 1
    micro = EstimatedModel(n_microstates, v=v)
    for batch in episodes:
        for idx in (batch.s, batch.s2):
            if idx.size and not 0 <= idx.min() <= idx.max() < assignments.size:
                raise IndexError(f"state out of range [0, {assignments.size}): "
                                 f"{idx.min()}..{idx.max()}")
        _add_counts(micro, assignments[batch.s], batch.a, assignments[batch.s2], batch.r)
    return micro
