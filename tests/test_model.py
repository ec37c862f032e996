"""Transition-count accumulation and reward-weighted adjacency."""

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
    load_triplets,
    save_triplets,
    transition_probabilities,
    update_counts,
)
from spectral_options.pipeline import aggregate_model

from oracles import rebuilt_adjacency

THREE_ROOMS = bundled_map_text("three_rooms")
# Nonzero step reward, v and both priors: every term of D differs from its
# default, so an entry summed in the wrong order or missed shows up.
V, D_PRIOR, U_PRIOR = 1.3, 0.2, 0.07


def traj_of(*steps):
    t = Trajectory()
    for s in steps:
        t.append(Step(*s))
    return t


def test_single_unrewarded_transition_adds_one():
    m = EstimatedModel(3, v=0.0, d_prior=0.25)
    update_counts(m, traj_of((0, 1, 0.0, 1, False)))
    assert m.D[0, 1] == pytest.approx(0.25 + 1.0)
    assert m.U[0, 1, 1] == 1.0


def test_reward_weighting_shrinks_contribution():
    m = EstimatedModel(3, v=1.0)
    update_counts(m, traj_of((0, 1, 1.0, 1, True)))
    assert m.D[0, 1] == pytest.approx(np.exp(-1.0), abs=1e-12)


def test_empty_trajectory_is_identity():
    m = EstimatedModel(4, v=2.0, d_prior=0.5)
    before = m.D.copy()
    update_counts(m, Trajectory())
    np.testing.assert_array_equal(m.D, before)


def test_out_of_range_state_is_error():
    m = EstimatedModel(2)
    with pytest.raises(IndexError):
        update_counts(m, traj_of((0, 1, 0.0, 5, False)))


@pytest.mark.parametrize("bad_step", [(1, 9, 0.5, 2, False),    # action
                                      (1, 0, 0.5, -1, False),   # negative next state
                                      (1, 0, 0.5, 3, False)])   # next state too large
def test_failed_update_leaves_model_unchanged(bad_step):
    m = EstimatedModel(3, v=V, d_prior=D_PRIOR, u_prior=U_PRIOR)
    update_counts(m, traj_of((0, 1, 0.5, 1, False), (1, 2, -0.1, 2, False)))
    before = [x.copy() for x in (m.U, m.R_sum, m.R_count, m.D)]
    with pytest.raises(IndexError):
        update_counts(m, traj_of((0, 1, 0.5, 1, False), bad_step))
    for x, old in zip((m.U, m.R_sum, m.R_count, m.D), before):
        assert np.array_equal(x, old)


def test_mean_reward_used_before_exponentiating():
    # Two observations of the same transition with rewards 0 and 2: the
    # weight is 2·e^{−v·|1|}, not e^{0} + e^{−2v}.
    m = EstimatedModel(2, v=1.0)
    update_counts(m, traj_of((0, 1, 0.0, 1, False)))
    update_counts(m, traj_of((0, 1, 2.0, 1, False)))
    assert m.D[0, 1] == pytest.approx(2.0 * np.exp(-1.0))


def test_probabilities_normalize_counts():
    m = EstimatedModel(3)
    for _ in range(3):
        update_counts(m, traj_of((0, 0, 0.0, 1, False)))
    update_counts(m, traj_of((0, 0, 0.0, 2, False)))
    P = transition_probabilities(m)
    np.testing.assert_allclose(P[(0, 0)], [0.0, 0.75, 0.25])


def test_single_successor_probability_one():
    m = EstimatedModel(3)
    update_counts(m, traj_of((1, 2, 0.0, 2, False)))
    P = transition_probabilities(m)
    assert P[(1, 2)][2] == 1.0


def test_unvisited_pairs_absent():
    m = EstimatedModel(3)
    update_counts(m, traj_of((0, 0, 0.0, 1, False)))
    P = transition_probabilities(m)
    assert (0, 0) in P and (0, 1) not in P and (2, 3) not in P


def test_probability_rows_sum_to_one():
    world = load_gridworld(THREE_ROOMS)
    m = exhaustive_model(world)
    P = transition_probabilities(m)
    for (s, a), dist in P.items():
        assert dist.sum() == pytest.approx(1.0, abs=1e-12)
        assert (dist >= 0).all() and (dist <= 1).all()


def test_exhaustive_probabilities_match_true_kernel():
    world = load_gridworld(THREE_ROOMS)
    m = exhaustive_model(world)
    P = transition_probabilities(m)
    for s in range(world.n_states):
        if world.is_terminal(s):
            continue
        for a in range(4):
            expected = np.zeros(world.n_states)
            expected[world.move(s, a)] = 1.0
            np.testing.assert_array_equal(P[(s, a)], expected)


def test_adjacency_symmetrizes():
    m = EstimatedModel(2)
    update_counts(m, traj_of((0, 0, 0.0, 1, False), (1, 0, 0.0, 1, False)))
    update_counts(m, traj_of((0, 0, 0.0, 1, False)))
    W = adjacency(m)
    assert m.D[0, 1] == 2.0 and m.D[1, 0] == 0.0
    assert W[0, 1] == W[1, 0] == 1.0


def test_adjacency_fixed_point_when_symmetric():
    m = EstimatedModel(2)
    update_counts(m, traj_of((0, 0, 0.0, 1, False)))
    update_counts(m, traj_of((1, 0, 0.0, 0, False)))
    np.testing.assert_array_equal(adjacency(m), m.D)


def test_exhaustive_adjacency_matches_grid_structure():
    world = load_gridworld(THREE_ROOMS)
    W = adjacency(exhaustive_model(world))
    for s in range(world.n_states):
        for s2 in range(world.n_states):
            if s == s2:
                continue
            r, c = world.cells[s]
            r2, c2 = world.cells[s2]
            grid_adjacent = abs(r - r2) + abs(c - c2) == 1
            if world.is_terminal(s) and world.is_terminal(s2):
                grid_adjacent = False
            assert (W[s, s2] > 0) == grid_adjacent, (s, s2)
    # Wall bumps put mass on the diagonal for border cells.
    corner = world.index[(1, 1)]
    assert W[corner, corner] > 0


def test_count_monotonicity():
    world = load_gridworld(THREE_ROOMS)
    m = EstimatedModel(world.n_states)
    rng = np.random.default_rng(0)
    from spectral_options.env import sample_trajectory, uniform_random_policy
    prev = m.U.copy()
    for _ in range(5):
        update_counts(m, sample_trajectory(world, uniform_random_policy, 100, rng))
        assert (m.U >= prev).all()
        prev = m.U.copy()


def test_v_zero_ignores_rewards():
    world = load_gridworld(THREE_ROOMS)
    m0 = exhaustive_model(world, v=0.0)
    m_unrewarded = exhaustive_model(
        load_gridworld(THREE_ROOMS, goal_reward=0.0), v=0.0)
    np.testing.assert_allclose(m0.D, m_unrewarded.D, atol=1e-12)


def test_reward_magnitude_strictly_decreases_weight():
    weights = []
    for r in (0.5, 1.0, 2.0):
        m = EstimatedModel(2, v=1.5)
        update_counts(m, traj_of((0, 0, r, 1, False)))
        weights.append(m.D[0, 1])
    assert weights[0] > weights[1] > weights[2]


def test_triplet_round_trip(tmp_path):
    world = load_gridworld(THREE_ROOMS)
    m = exhaustive_model(world, v=2.0)
    path = tmp_path / "model.csv"
    save_triplets(m, path)
    m2 = load_triplets(path, world.n_states, v=2.0)
    np.testing.assert_allclose(m2.U, m.U, atol=1e-12)
    np.testing.assert_allclose(m2.D, m.D, atol=1e-12)


def test_triplet_round_trip_with_count_prior(tmp_path):
    # Dyadic rewards keep mean·count exact, so the round trip is bit for bit.
    m = EstimatedModel(3, v=V, d_prior=D_PRIOR, u_prior=0.5)
    update_counts(m, traj_of((0, 1, 0.5, 1, False), (1, 2, -0.25, 0, False),
                             (0, 1, 2.0, 1, False), (1, 0, 0.0, 2, True)))
    path = tmp_path / "model.csv"
    save_triplets(m, path)
    loaded = load_triplets(path, 3, v=V, d_prior=D_PRIOR, u_prior=0.5)
    assert loaded.U[0, 1, 1] == 2.5 and loaded.U.sum() == m.U.sum()
    for name in ("U", "R_sum", "R_count", "D"):
        assert np.array_equal(getattr(loaded, name), getattr(m, name)), name


def test_negative_prior_is_error():
    with pytest.raises(ValueError):
        EstimatedModel(2, d_prior=-1.0)


def test_load_triplets_rejects_negative_index(tmp_path):
    path = tmp_path / "model.csv"
    path.write_text("s,a,next_s,count,reward_mean\n0,0,1,1.0,0.0\n-1,0,1,2.0,0.0\n")
    with pytest.raises(IndexError):
        load_triplets(path, 3)


@pytest.mark.parametrize("count, reward_mean", [
    ("-1.0", "0.0"), ("nan", "0.0"), ("inf", "0.0"),
    ("1.0", "nan"), ("1.0", "inf"), ("1.0", "-inf"),
])
def test_load_triplets_rejects_bad_value(tmp_path, count, reward_mean):
    path = tmp_path / "model.csv"
    path.write_text("s,a,next_s,count,reward_mean\n0,0,1,1.0,0.0\n"
                    f"1,0,2,{count},{reward_mean}\n")
    with pytest.raises(ValueError, match=f"line 3: .*got {count}, {reward_mean}"):
        load_triplets(path, 3, v=1.0)


def test_prior_is_added_to_counts_when_read():
    # Adding 0.07 first and the counts one at a time gives (0.07 + 1) + 1,
    # which differs from 2 + 0.07 in float64; U must be the latter.
    m = EstimatedModel(3, u_prior=0.07)
    update_counts(m, traj_of((0, 1, 0.0, 0, False), (0, 1, 0.0, 0, False),
                             (0, 2, 0.0, 0, False), (0, 2, 0.0, 0, False),
                             (0, 2, 0.0, 0, False)))
    assert m.R_count[0, 1, 0] == 2.0 and m.R_count[0, 2, 0] == 3.0
    assert np.array_equal(m.U, m.R_count + m.u_prior)
    assert "U" not in vars(m) and "D" not in vars(m)
    with pytest.raises(AttributeError):
        m.D = np.zeros((3, 3))


# --- derived D against a from-scratch rebuild -------------------------------

def slippery_world():
    return load_gridworld(THREE_ROOMS, step_reward=-0.04, goal_reward=1.0,
                          slip_prob=0.2)


def sampled_trajectories(world, n_episodes=40, seed=3):
    rng = np.random.default_rng(seed)
    starts = [s for s in range(world.n_states) if not world.is_terminal(s)]
    return [sample_trajectory(world, uniform_random_policy, 60, rng,
                              start=starts[e * 7 % len(starts)])
            for e in range(n_episodes)]


def test_incremental_adjacency_equals_rebuild_after_every_update():
    world = slippery_world()
    m = EstimatedModel(world.n_states, v=V, d_prior=D_PRIOR, u_prior=U_PRIOR)
    assert np.array_equal(m.D, rebuilt_adjacency(m))
    for traj in sampled_trajectories(world):
        update_counts(m, traj)
        assert np.array_equal(m.D, rebuilt_adjacency(m))
    assert (m.R_count > 0).sum() > 200      # hundreds of distinct transitions counted


def test_exhaustive_adjacency_equals_rebuild():
    world = load_gridworld(THREE_ROOMS, step_reward=-0.04)
    m = exhaustive_model(world, v=V, d_prior=D_PRIOR, u_prior=U_PRIOR)
    assert np.array_equal(m.D, rebuilt_adjacency(m))


def test_loaded_adjacency_equals_rebuild(tmp_path):
    world = slippery_world()
    m = EstimatedModel(world.n_states, v=V, d_prior=D_PRIOR, u_prior=U_PRIOR)
    for traj in sampled_trajectories(world):
        update_counts(m, traj)
    path = tmp_path / "model.csv"
    save_triplets(m, path)
    loaded = load_triplets(path, world.n_states, v=V, d_prior=D_PRIOR,
                           u_prior=U_PRIOR)
    assert np.array_equal(loaded.D, rebuilt_adjacency(loaded))


def test_aggregated_adjacency_equals_rebuild():
    world = slippery_world()
    assignment = np.arange(world.n_states) // 4
    agg = aggregate_model(sampled_trajectories(world), assignment, v=V)
    assert np.array_equal(agg.D, rebuilt_adjacency(agg))
