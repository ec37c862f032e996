"""The online discovery loop, convergence bookkeeping, k-means, aggregation."""

import numpy as np
import pytest

from spectral_options.env import (
    Step,
    Trajectory,
    bundled_map_text,
    load_gridworld,
    sample_trajectory,
    uniform_random_policy,
)
from spectral_options.model import (
    EstimatedModel,
    adjacency,
    exhaustive_model,
    transition_probabilities,
    update_counts,
)
from spectral_options.spectral import cluster
from spectral_options.options import compose_options
from spectral_options.pipeline import (
    OdstcConfig,
    aggregate_model,
    convergence_test,
    episodes_to_plateau,
    epsilon_at,
    kmeans_microstates,
    run_odstc,
)

THREE_ROOMS = bundled_map_text("three_rooms")


def room_of(cell):
    _, c = cell
    if c < 6:
        return "L"
    if c == 6:
        return "d1"
    if c < 12:
        return "M"
    if c == 12:
        return "d2"
    return "R"


def train_config(**overrides):
    """The shipped learning-comparison regime: start-anchored episodes, k
    pinned to 3 (start-anchored counts skew the gap heuristic toward k=2),
    one option refresh at round 8 while data is still exploration-rich, and
    exploration fully annealed before the typical plateau."""
    base = dict(episodes_per_round=10, max_rounds=15, pcca_refresh_interval=8,
                k=3, t_c=0.75, max_steps_per_episode=1500,
                eps_anneal_episodes=90, seed=0, learner="smdp")
    base.update(overrides)
    return OdstcConfig(**base)


@pytest.fixture(scope="module")
def world():
    return load_gridworld(THREE_ROOMS)


@pytest.fixture(scope="module")
def penalized_world():
    return load_gridworld(THREE_ROOMS, step_reward=-0.01)


# --- OdstcConfig validation -------------------------------------------------

def test_default_config_is_valid():
    OdstcConfig().validate()


@pytest.mark.parametrize("field,value", [
    ("episodes_per_round", 0),
    ("pcca_refresh_interval", 0),
    ("max_steps_per_episode", 0),
    ("convergence_window", 0),
    ("max_rounds", -1),
    ("t_c", 0.0),
    ("t_c", 1.0),
    ("eps_start", 1.5),
    ("eps_end", -0.1),
    ("learner", "sarsa"),
    ("v", -1.0),
    ("tau_conn", -0.1),
])
def test_invalid_config_rejected(field, value):
    cfg = OdstcConfig(**{field: value})
    with pytest.raises(ValueError):
        cfg.validate()


def test_zero_round_budget_is_valid():
    OdstcConfig(max_rounds=0).validate()


# --- epsilon schedule --------------------------------------------------------

def test_epsilon_starts_at_eps_start():
    assert epsilon_at(0, 90, 1.0, 0.05) == 1.0


def test_epsilon_ends_at_eps_end():
    assert epsilon_at(90, 90, 1.0, 0.05) == pytest.approx(0.05)
    assert epsilon_at(500, 90, 1.0, 0.05) == pytest.approx(0.05)


def test_epsilon_linear_midpoint():
    assert epsilon_at(45, 90, 1.0, 0.05) == pytest.approx(0.525)


# --- convergence_test --------------------------------------------------------

def test_constant_returns_plateau():
    assert convergence_test([1.0] * 40, window=20)


def test_improving_returns_not_plateaued():
    # +10% from one window to the next.
    assert not convergence_test([1.0] * 20 + [1.1] * 20, window=20)


def test_noisy_plateau_within_half_percent():
    rng = np.random.default_rng(0)
    returns = 10.0 + rng.uniform(-0.05, 0.05, size=60)
    m_prev = returns[-40:-20].mean()
    m_last = returns[-20:].mean()
    expected = abs(m_last - m_prev) < 0.01 * max(abs(m_prev), abs(m_last))
    assert expected  # amplitude 0.5% of the mean cannot move a window mean 1%
    assert convergence_test(list(returns), window=20) == expected


def test_plateau_detected_on_negative_returns():
    assert convergence_test([-10.0] * 40, window=20)


def test_window_default_is_half_the_log():
    assert convergence_test([5.0] * 10)
    assert not convergence_test([1.0] * 5 + [2.0] * 5)


def test_too_short_log_rejected():
    with pytest.raises(ValueError):
        convergence_test([1.0, 2.0, 3.0], window=2)


def test_accepts_episode_logs(penalized_world):
    cfg = train_config(max_rounds=2)
    res = run_odstc(penalized_world, cfg)
    assert isinstance(convergence_test(res.history, window=10), bool)


# --- episodes_to_plateau -----------------------------------------------------

def test_plateau_requires_positive_returns():
    # An agent scoring zero forever has not converged to anything.
    assert episodes_to_plateau([0.0] * 40, window=10) == 40


def test_plateau_found_after_learning():
    returns = [0.0] * 30 + [1.0] * 40
    # First episode count whose trailing window is positive and stable:
    # both windows must lie inside the all-ones tail.
    assert episodes_to_plateau(returns, window=10) == 50


def test_no_plateau_returns_budget_length():
    returns = list(np.linspace(0.1, 10.0, 50))  # keeps improving
    assert episodes_to_plateau(returns, window=10) == 50


# --- run_odstc ---------------------------------------------------------------

def test_single_round_budget_learns_flat_only(world):
    cfg = OdstcConfig(episodes_per_round=5, max_rounds=1, seed=0,
                      max_steps_per_episode=50)
    res = run_odstc(world, cfg)
    assert res.options == []
    assert len(res.history) == 5
    assert res.chi_snapshots == []
    assert all(isinstance(a, int) for (_, a) in res.q.values)


def test_zero_round_budget_empty_history(world):
    res = run_odstc(world, OdstcConfig(max_rounds=0))
    assert res.history == [] and res.options == [] and not res.converged


def test_fixed_seed_reproducible_history(penalized_world):
    cfg = train_config(max_rounds=10)
    a = run_odstc(penalized_world, train_config(max_rounds=10))
    b = run_odstc(penalized_world, cfg)
    assert [l.cumulative_reward for l in a.history] == \
           [l.cumulative_reward for l in b.history]
    assert [l.decision_epochs for l in a.history] == \
           [l.decision_epochs for l in b.history]
    assert [o.label for o in a.options] == [o.label for o in b.options]
    assert a.converged == b.converged


def test_steady_state_options_bridge_adjacent_rooms(penalized_world):
    """Converged loop ends with 4 options between adjacent rooms (L-M, M-R)."""
    res = run_odstc(penalized_world, train_config())
    assert len(res.options) == 4
    majority = {}
    for o in res.options:
        rooms = [room_of(penalized_world.cells[s]) for s in o.initiation]
        interior = [r for r in rooms if r in "LMR"]
        majority[o.source] = max(set(interior), key=interior.count)
    pairs = {(majority[o.source], majority[o.target]) for o in res.options}
    assert pairs == {("L", "M"), ("M", "L"), ("M", "R"), ("R", "M")}


def test_loop_safe_without_options(world):
    # No refresh round inside the budget: behavior degrades to flat learning.
    cfg = OdstcConfig(episodes_per_round=4, max_rounds=3,
                      pcca_refresh_interval=10, seed=1,
                      max_steps_per_episode=50)
    res = run_odstc(world, cfg)
    assert res.options == []
    assert len(res.history) == 12
    assert all(l.decision_epochs >= 1 and l.primitive_steps >= 1
               for l in res.history)


def test_clustering_failure_noted_and_loop_continues(world):
    # One 1-step episode sees at most 2 states; k=5 cannot be clustered.
    cfg = OdstcConfig(episodes_per_round=1, max_rounds=2,
                      pcca_refresh_interval=1, k=5, max_steps_per_episode=1,
                      seed=0)
    res = run_odstc(world, cfg)
    assert len(res.notes) == 1 and "clustering failed" in res.notes[0]
    assert res.options == []
    assert len(res.history) == 2


def test_flat_learner_never_clusters(penalized_world):
    res = run_odstc(penalized_world, train_config(learner="flat", max_rounds=10))
    assert res.options == [] and res.chi_snapshots == []


def test_chi_snapshot_per_refresh(penalized_world):
    res = run_odstc(penalized_world, train_config(max_rounds=9))
    assert len(res.chi_snapshots) == 1
    chi = res.chi_snapshots[0]
    assert chi.shape == (penalized_world.n_states, 3)


def test_intra_option_learner_reaches_steady_state(penalized_world):
    res = run_odstc(penalized_world, train_config(learner="intra_option"))
    assert len(res.options) == 4
    assert any(isinstance(a, tuple) for (_, a) in res.q.values)


def test_reclustering_unchanged_model_is_idempotent(world):
    model = exhaustive_model(world)
    first = cluster(adjacency(model), t_c=0.75)
    second = cluster(adjacency(model), t_c=0.75)
    assert first.spectral.k == second.spectral.k
    opts_a = compose_options(model, first, tau_conn=0.1)
    opts_b = compose_options(model, second, tau_conn=0.1)
    assert [o.label for o in opts_a] == [o.label for o in opts_b]
    for oa, ob in zip(opts_a, opts_b):
        assert oa.initiation == ob.initiation
        assert oa.policy == ob.policy
        assert oa.termination == ob.termination


# --- kmeans_microstates ------------------------------------------------------

def test_all_distinct_points_zero_sse():
    pts = np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0], [5.0, 5.0]])
    micro = kmeans_microstates(pts, k_m=4, seed=0)
    assert micro.sse_history[-1] == 0.0
    assert len(set(micro.assignments.tolist())) == 4


def test_two_gaussians_recovered():
    rng = np.random.default_rng(3)
    a = rng.normal(0.0, 1.0, size=(60, 2))
    b = rng.normal(10.0, 1.0, size=(60, 2))
    pts = np.vstack([a, b])
    labels = np.array([0] * 60 + [1] * 60)
    micro = kmeans_microstates(pts, k_m=2, seed=0)
    # map each cluster to its majority generating component
    agree = 0
    for c in range(2):
        mask = micro.assignments == c
        majority = np.bincount(labels[mask]).argmax()
        agree += int((labels[mask] == majority).sum())
    assert agree / len(pts) >= 0.99


def test_single_microstate_is_global_mean():
    rng = np.random.default_rng(7)
    pts = rng.normal(size=(30, 3))
    micro = kmeans_microstates(pts, k_m=1, seed=0)
    assert np.allclose(micro.centroids[0], pts.mean(axis=0))


def test_k_beyond_distinct_points_rejected():
    pts = np.array([[0.0], [0.0], [1.0], [2.0]])  # 3 distinct
    with pytest.raises(ValueError):
        kmeans_microstates(pts, k_m=4, seed=0)


def test_sse_monotone_nonincreasing():
    rng = np.random.default_rng(11)
    pts = rng.normal(size=(200, 2))
    micro = kmeans_microstates(pts, k_m=3, seed=0)
    sse = micro.sse_history
    assert all(b <= a + 1e-9 for a, b in zip(sse, sse[1:]))


def test_assignments_in_range_and_centroids_are_means():
    rng = np.random.default_rng(13)
    pts = rng.normal(size=(50, 2))
    micro = kmeans_microstates(pts, k_m=4, seed=2)
    assert ((micro.assignments >= 0) & (micro.assignments < 4)).all()
    for c in range(4):
        members = pts[micro.assignments == c]
        if len(members):
            assert np.allclose(micro.centroids[c], members.mean(axis=0))


def test_one_dimensional_features_accepted():
    micro = kmeans_microstates([0.0, 0.1, 5.0, 5.1], k_m=2, seed=0)
    assert micro.assignments[0] == micro.assignments[1]
    assert micro.assignments[2] == micro.assignments[3]


def test_kmeans_deterministic_per_seed():
    rng = np.random.default_rng(5)
    pts = rng.normal(size=(80, 2))
    a = kmeans_microstates(pts, k_m=3, seed=9)
    b = kmeans_microstates(pts, k_m=3, seed=9)
    assert (a.assignments == b.assignments).all()


# --- aggregate_model ---------------------------------------------------------

def sample_covering_trajectories(world, n_episodes=60, max_steps=100, seed=0):
    rng = np.random.default_rng(seed)
    starts = [s for s in range(world.n_states) if not world.is_terminal(s)]
    return [sample_trajectory(world, uniform_random_policy, max_steps, rng,
                              start=starts[e % len(starts)])
            for e in range(n_episodes)]


def test_identity_assignment_reproduces_model(world):
    trajs = sample_covering_trajectories(world, n_episodes=10)
    direct = EstimatedModel(world.n_states)
    for t in trajs:
        update_counts(direct, t)
    agg = aggregate_model(trajs, np.arange(world.n_states),
                          n_microstates=world.n_states)
    assert np.array_equal(agg.U, direct.U)
    assert np.allclose(agg.R_sum, direct.R_sum)


def test_all_states_to_one_microstate_self_loops(world):
    trajs = sample_covering_trajectories(world, n_episodes=5)
    agg = aggregate_model(trajs, np.zeros(world.n_states, dtype=int))
    total = sum(len(t.steps) for t in trajs)
    assert agg.U.shape == (1, 4, 1)
    assert agg.U.sum() == total


def test_room_assignment_yields_three_node_chain(world):
    room_ids = {"L": 0, "d1": 0, "M": 1, "d2": 1, "R": 2}
    assignment = np.array([room_ids[room_of(world.cells[s])]
                           for s in range(world.n_states)])
    trajs = sample_covering_trajectories(world)
    agg = aggregate_model(trajs, assignment, n_microstates=3)
    A = adjacency(agg)
    assert A[0, 1] > 0 and A[1, 2] > 0          # chain links exist
    assert A[0, 2] == 0 and A[2, 0] == 0        # no room skips a neighbor
    # downstream stages operate unchanged: probabilities remain normalized
    P = transition_probabilities(agg)
    for vec in P.values():
        assert vec.sum() == pytest.approx(1.0)


def test_chain_memberships_are_exact_indicators(world):
    room_ids = {"L": 0, "d1": 0, "M": 1, "d2": 1, "R": 2}
    assignment = np.array([room_ids[room_of(world.cells[s])]
                           for s in range(world.n_states)])
    agg = aggregate_model(sample_covering_trajectories(world), assignment,
                          n_microstates=3)
    result = cluster(adjacency(agg), k=3)
    chi = result.membership.chi
    assert np.allclose(np.sort(chi, axis=1)[:, :-1], 0.0, atol=1e-8)
    assert np.allclose(chi.max(axis=1), 1.0, atol=1e-8)


def test_unassigned_state_rejected():
    traj = Trajectory()
    traj.append(Step(0, 1, 0.0, 5, False))
    with pytest.raises(KeyError):
        aggregate_model([traj], {0: 0})


def test_negative_microstate_id_rejected(world):
    trajs = sample_covering_trajectories(world, n_episodes=5)
    assignment = np.zeros(world.n_states, dtype=int)
    assignment[world.start] = -1
    with pytest.raises(IndexError):
        aggregate_model(trajs, assignment, n_microstates=2)
