"""The online option-discovery loop and the microstate aggregation stage.

``run_odstc`` alternates sampling, model estimation, PCCA+ clustering, option
composition, and value learning: every ``pcca_refresh_interval`` rounds the
current adjacency is re-clustered and the agent's option set replaced (old
option values are dropped — cluster identities are not stable across
re-clusterings, so remapping by label would be unsound).  When clustering
fails (all-zero adjacency in early rounds), the round proceeds without
options and the failure is recorded.

``kmeans`` + ``aggregate_model`` implement the state-aggregation stage for
externally supplied feature vectors: k-means++ seeded Lloyd iterations group
feature points into microstates, and trajectories are recounted on the
microstate space, after which the spectral and option stages apply unchanged.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from spectral_options.env import N_ACTIONS, GridWorld, Step, Trajectory, step
from spectral_options.model import EstimatedModel, _add_counts, adjacency, update_counts
from spectral_options.spectral import SpectralError, cluster
from spectral_options.options import compose_options, expand_memberships
from spectral_options.agents import (
    EpisodeLog,
    OptionOutcome,
    QTable,
    available_choices,
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
    v: float = 0.0
    reward_weighting: bool = False
    tau_conn: float = 0.1
    d_prior: float = 0.0
    u_prior: float = 0.0
    alpha: float = 0.1
    gamma: float = 0.99
    eps_start: float = 1.0
    eps_end: float = 0.05
    eps_anneal_episodes: int = 0      # 0 = anneal over the full budget
    learner: str = "smdp"
    max_steps_per_episode: int = 400
    convergence_window: int = 20
    seed: int = 0

    @property
    def model_v(self) -> float:
        """The reward-weighting strength the model applies: v, or 0 with weighting off."""
        return self.v if self.reward_weighting else 0.0

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
        if self.v < 0 or self.tau_conn < 0:
            raise ValueError("v and tau_conn must be non-negative")
        QTable(alpha=self.alpha, gamma=self.gamma)
        EstimatedModel(1, d_prior=self.d_prior, u_prior=self.u_prior)


@dataclass
class MicrostateMap:
    assignments: np.ndarray   # data-point index -> microstate id
    centroids: np.ndarray     # (k_m, dim)
    sse_history: list = field(default_factory=list)


@dataclass
class OdstcResult:
    q: QTable
    options: list
    history: list             # EpisodeLog per episode
    chi_snapshots: list       # full-state-space membership matrix per refresh
    notes: list
    converged: bool


def epsilon_at(episode: int, anneal_episodes: int, eps_start: float,
               eps_end: float) -> float:
    """Linear ε anneal from eps_start to eps_end over anneal_episodes."""
    frac = min(episode / max(anneal_episodes, 1), 1.0)
    return eps_start + (eps_end - eps_start) * frac


def convergence_test(logs, window: int | None = None) -> bool:
    """Plateau check: trailing-window mean return moved < 1% between windows.

    Compares the mean return over the last ``window`` episodes against the
    mean over the ``window`` episodes before them.
    """
    returns = [getattr(l, "cumulative_reward", l) for l in logs]
    if window is None:
        window = len(returns) // 2
    if window < 1 or len(returns) < 2 * window:
        raise ValueError("need at least two full windows of episode logs")
    m_prev = float(np.mean(returns[-2 * window:-window]))
    m_last = float(np.mean(returns[-window:]))
    scale = max(abs(m_prev), abs(m_last), 1e-12)
    return abs(m_last - m_prev) < 0.01 * scale


def _plateaued(returns: list, window: int) -> bool:
    """Plateau rule: two full windows, a positive trailing mean (an agent still
    scoring zero has not learned yet), and convergence_test passes."""
    return (len(returns) >= 2 * window and np.mean(returns[-window:]) > 0
            and convergence_test(returns, window))


def episodes_to_plateau(logs, window: int) -> int:
    """First episode count at which the learning curve has plateaued.

    Returns len(logs) if no plateau is reached.
    """
    returns = [getattr(l, "cumulative_reward", l) for l in logs]
    for e in range(2 * window, len(returns) + 1):
        if _plateaued(returns[:e], window):
            return e
    return len(returns)


def run_episode(world: GridWorld, Q: QTable, options: list, epsilon: float,
                rng: np.random.Generator, learner: str,
                max_steps: int) -> tuple[EpisodeLog, Trajectory]:
    """One behavioral episode with learning updates; returns its log and trajectory.

    A primitive choice is the one-step outcome of its action, so one path
    records and learns from both kinds of choice.
    """
    intra = learner == "intra_option"
    available = available_choices(options, world.n_states, N_ACTIONS)
    traj = Trajectory()
    s = world.start
    ret, decisions, prim = 0.0, 0, 0
    invoked = []
    while prim < max_steps:
        c = epsilon_greedy(Q, s, available[s], epsilon, rng)
        decisions += 1
        if isinstance(c, tuple):                       # option choice
            o = options[c[1]]
            cap = min(world.n_states, max_steps - prim)
            out = run_option(world, o, s, rng, cap, gamma=Q.gamma)
            invoked.append((o.label, out.duration))
        else:                                          # primitive choice
            s2, r, done = step(world, s, c, rng)
            out = OptionOutcome([Step(s, c, r, s2, done)], r, 1, s2, False, False)
        for st in out.segment:
            traj.append(st)
            ret += st.reward
            if intra:
                intra_option_update(Q, (st.state, st.action, st.reward, st.next_state),
                                    options, available[st.next_state])
        prim += out.duration
        if out.duration > 0 and not intra:
            smdp_q_update(Q, s, c, out.reward, out.duration, out.end_state,
                          available[out.end_state])
        s = out.end_state
        if out.segment and out.segment[-1].done:
            break
    log = EpisodeLog(episode=-1, cumulative_reward=ret, decision_epochs=decisions,
                     primitive_steps=prim, options_invoked=invoked)
    return log, traj


def run_odstc(world: GridWorld, config: OdstcConfig) -> OdstcResult:
    """Sample → estimate → cluster → compose → learn, until plateau or budget.

    Re-clustering happens at the top of every pcca_refresh_interval-th round
    (skipping round 0, which has no data).  The flat learner never clusters.
    """
    config.validate()
    rng = np.random.default_rng(config.seed)
    model = EstimatedModel(world.n_states, N_ACTIONS, v=config.model_v,
                           d_prior=config.d_prior, u_prior=config.u_prior)
    Q = QTable(alpha=config.alpha, gamma=config.gamma)
    options: list = []
    history: list[EpisodeLog] = []
    snapshots: list[np.ndarray] = []
    notes: list[str] = []
    anneal = config.eps_anneal_episodes or config.max_rounds * config.episodes_per_round
    converged = False
    for rnd in range(config.max_rounds):
        if (config.learner != "flat" and rnd > 0
                and rnd % config.pcca_refresh_interval == 0):
            try:
                result = cluster(adjacency(model), t_c=config.t_c, k=config.k or None)
                options = compose_options(model, result, tau_conn=config.tau_conn)
                Q.drop_options()
                snapshots.append(expand_memberships(result.membership,
                                                    result.state_ids, world.n_states))
            except SpectralError as exc:
                options = []
                Q.drop_options()
                notes.append(f"round {rnd}: clustering failed ({exc}); "
                             "continuing without options")
        for _ in range(config.episodes_per_round):
            eps = epsilon_at(len(history), anneal, config.eps_start, config.eps_end)
            log, traj = run_episode(world, Q, options, eps, rng, config.learner,
                                    config.max_steps_per_episode)
            log.episode = len(history)
            update_counts(model, traj)
            history.append(log)
        if _plateaued([l.cumulative_reward for l in history], config.convergence_window):
            converged = True
            break
    return OdstcResult(q=Q, options=options, history=history,
                       chi_snapshots=snapshots, notes=notes, converged=converged)


def kmeans_microstates(features, k_m: int, seed: int = 0,
                       max_iters: int = 100) -> MicrostateMap:
    """k-means++ initialized Lloyd clustering of feature vectors.

    Iterates to an assignment fixpoint or max_iters; a cluster left empty is
    reseeded at the point farthest from its current centroid.  Raises when
    k_m exceeds the number of distinct points or max_iters is below 1.
    """
    if max_iters < 1:
        raise ValueError(f"max_iters must be >= 1, got {max_iters}")
    pts = np.asarray(features, dtype=float)
    if pts.ndim == 1:
        pts = pts[:, None]
    if pts.ndim != 2 or pts.size == 0:
        raise ValueError("features must be a non-empty 2-D array of vectors")
    n = pts.shape[0]
    n_distinct = np.unique(pts, axis=0).shape[0]
    if not 1 <= k_m <= n_distinct:
        raise ValueError(f"k_m must lie in [1, {n_distinct} distinct points], got {k_m}")
    rng = np.random.default_rng(seed)

    # k-means++ seeding: each new centroid drawn ∝ squared distance to the set.
    centroids = pts[[rng.integers(n)]]
    while centroids.shape[0] < k_m:
        d2 = ((pts[:, None, :] - centroids[None]) ** 2).sum(axis=2).min(axis=1)
        total = d2.sum()
        probs = d2 / total if total > 0 else np.full(n, 1.0 / n)
        centroids = np.vstack([centroids, pts[rng.choice(n, p=probs)]])

    assignments = np.full(n, -1)
    sse_history = []
    for _ in range(max_iters):
        dist2 = ((pts[:, None, :] - centroids[None]) ** 2).sum(axis=2)
        new_assign = dist2.argmin(axis=1)
        for c in range(k_m):
            if not (new_assign == c).any():
                farthest = int(np.argmax(dist2[np.arange(n), new_assign]))
                centroids[c] = pts[farthest]
                new_assign[farthest] = c
        sse_history.append(float(((pts - centroids[new_assign]) ** 2).sum()))
        if (new_assign == assignments).all():
            break
        assignments = new_assign
        for c in range(k_m):
            centroids[c] = pts[assignments == c].mean(axis=0)
    return MicrostateMap(assignments=assignments, centroids=centroids,
                         sse_history=sse_history)


def aggregate_model(trajectories, assignments, n_microstates: int | None = None,
                    v: float = 0.0) -> EstimatedModel:
    """Recount trajectories on the microstate space.

    ``assignments`` maps state ids to microstate ids (mapping or array).
    Raises KeyError for a state without an assignment and IndexError for a
    microstate id outside [0, n_microstates).  The resulting model feeds the
    spectral and option stages unchanged.
    """
    def lookup(s):
        try:
            m = assignments[s]
        except (KeyError, IndexError):
            raise KeyError(f"state {s} has no microstate assignment")
        return int(m)

    if n_microstates is None:
        values = (assignments.values() if hasattr(assignments, "values")
                  else assignments)
        n_microstates = int(max(values)) + 1
    micro = EstimatedModel(n_microstates, N_ACTIONS, v=v)
    steps = [st for traj in trajectories for st in traj]
    _add_counts(micro, [lookup(st.state) for st in steps], [st.action for st in steps],
                [lookup(st.next_state) for st in steps], 1.0, [st.reward for st in steps])
    return micro
