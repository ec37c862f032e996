"""Transition-count accumulation and reward-weighted adjacency."""

import ast
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from spectral_options import model as model_module
from spectral_options import pipeline
from spectral_options.env import (
    Draws,
    Trajectory,
    Transitions,
    bundled_map_text,
    load_gridworld,
    sample_trajectory,
    step,
)
from spectral_options.model import (
    EstimatedModel,
    adjacency,
    exhaustive_model,
    save_triplets,
    transition_probabilities,
    update_counts,
)
from spectral_options.pipeline import aggregate_model

from helpers import room_grid_text
from oracles import (
    dense_counts,
    dense_kernel,
    dense_triplet_csv,
    densified_kernel,
    rebuilt_adjacency,
)

THREE_ROOMS = bundled_map_text("three_rooms")
# Nonzero step reward and v: every term of D differs from its default, so an
# entry summed in the wrong order or missed shows up.
V = 1.3


def batch_of(*steps):
    """A one-episode batch from (s, a, r, s', done) tuples, which must chain."""
    t = Trajectory([steps[0][0]])
    for s, a, r, s2, done in steps:
        assert s == t.states[-1], "steps must chain"
        t.add(a, r, s2, done)
    return Transitions.of([t])


def joined(batches):
    """One batch of the given batches' steps, in their order."""
    return Transitions(*(np.concatenate(x) for x in
                         zip(*((b.s, b.a, b.s2, b.r) for b in batches))))


def test_single_unrewarded_transition_adds_one():
    m = EstimatedModel(3, v=0.0)
    update_counts(m, batch_of((0, 1, 0.0, 1, False)))
    assert m.D[0, 1] == 1.0
    assert m.R_count[0, 1, 1] == 1.0


def test_reward_weighting_shrinks_contribution():
    m = EstimatedModel(3, v=1.0)
    update_counts(m, batch_of((0, 1, 1.0, 1, True)))
    assert m.D[0, 1] == pytest.approx(np.exp(-1.0), abs=1e-12)


def test_empty_trajectory_is_identity():
    m = EstimatedModel(4, v=2.0)
    before = m.D.copy()
    update_counts(m, Transitions.of([Trajectory([0])]))
    np.testing.assert_array_equal(m.D, before)


def test_out_of_range_state_is_error():
    m = EstimatedModel(2)
    with pytest.raises(IndexError):
        update_counts(m, batch_of((0, 1, 0.0, 5, False)))


@pytest.mark.parametrize("bad_step", [(1, 9, 0.5, 2, False),    # action
                                      (1, 0, 0.5, -1, False),   # negative next state
                                      (1, 0, 0.5, 3, False)])   # next state too large
def test_failed_update_leaves_model_unchanged(bad_step):
    m = EstimatedModel(3, v=V)
    update_counts(m, batch_of((0, 1, 0.5, 1, False), (1, 2, -0.1, 2, False)))
    before = [x.copy() for x in (m.R_sum, m.R_count, m.D)]
    with pytest.raises(IndexError):
        update_counts(m, batch_of((0, 1, 0.5, 1, False), bad_step))
    for x, old in zip((m.R_sum, m.R_count, m.D), before):
        assert np.array_equal(x, old)


def test_mean_reward_used_before_exponentiating():
    # Two observations of the same transition with rewards 0 and 2: the
    # weight is 2·e^{−v·|1|}, not e^{0} + e^{−2v}.
    m = EstimatedModel(2, v=1.0)
    update_counts(m, batch_of((0, 1, 0.0, 1, False)))
    update_counts(m, batch_of((0, 1, 2.0, 1, False)))
    assert m.D[0, 1] == pytest.approx(2.0 * np.exp(-1.0))


def test_probabilities_normalize_counts():
    m = EstimatedModel(3)
    for _ in range(3):
        update_counts(m, batch_of((0, 0, 0.0, 1, False)))
    update_counts(m, batch_of((0, 0, 0.0, 2, False)))
    P = densified_kernel(transition_probabilities(m), m.n_states)
    np.testing.assert_allclose(P[(0, 0)], [0.0, 0.75, 0.25])


def test_single_successor_probability_one():
    m = EstimatedModel(3)
    update_counts(m, batch_of((1, 2, 0.0, 2, False)))
    P = densified_kernel(transition_probabilities(m), m.n_states)
    assert P[(1, 2)][2] == 1.0


def test_unvisited_pairs_absent():
    # An unvisited (s, a) has no estimate: its row of the kernel is all zero.
    m = EstimatedModel(3)
    update_counts(m, batch_of((0, 0, 0.0, 1, False)))
    P = densified_kernel(transition_probabilities(m), m.n_states)
    assert P.shape == (3, 4, 3)
    assert P[0, 0].any() and not P[0, 1].any() and not P[2, 3].any()
    assert np.flatnonzero(P.any(axis=2)).tolist() == [0]


def test_probability_rows_sum_to_one():
    world = load_gridworld(THREE_ROOMS)
    m = exhaustive_model(world)
    P = densified_kernel(transition_probabilities(m), m.n_states)
    visited = m.R_count.sum(axis=2) > 0
    assert visited.sum() == 4 * (world.n_states - len(world.goals))
    for dist in P[visited]:
        assert dist.sum() == pytest.approx(1.0, abs=1e-12)
        assert (dist >= 0).all() and (dist <= 1).all()


def test_exhaustive_probabilities_match_true_kernel():
    world = load_gridworld(THREE_ROOMS)
    m = exhaustive_model(world)
    P = densified_kernel(transition_probabilities(m), m.n_states)
    for s in range(world.n_states):
        if world.is_terminal(s):
            continue
        for a in range(4):
            expected = np.zeros(world.n_states)
            expected[world.move(s, a)] = 1.0
            np.testing.assert_array_equal(P[(s, a)], expected)


def test_exhaustive_model_follows_step():
    # A nonzero step reward tells the goal's reward from every other step's.
    world = load_gridworld(THREE_ROOMS, step_reward=-0.04)
    m = exhaustive_model(world)
    count, reward_sum = m._values
    sa, s2 = np.divmod(m._keys, m.n_states)
    stored = dict(zip(sa.tolist(), zip(s2.tolist(), (reward_sum / count).tolist())))
    assert len(stored) == m._keys.size      # one successor per (s, a)
    expected = {s * 4 + a: step(world, s, a)[:2] for s in range(world.n_states)
                if not world.is_terminal(s) for a in range(4)}
    assert stored == expected
    assert {r for _, r in stored.values()} == {-0.04, world.goal_reward}


def test_adjacency_symmetrizes():
    m = EstimatedModel(2)
    update_counts(m, batch_of((0, 0, 0.0, 1, False), (1, 0, 0.0, 1, False)))
    update_counts(m, batch_of((0, 0, 0.0, 1, False)))
    W = adjacency(m)
    assert m.D[0, 1] == 2.0 and m.D[1, 0] == 0.0
    assert W[0, 1] == W[1, 0] == 1.0


def test_adjacency_fixed_point_when_symmetric():
    m = EstimatedModel(2)
    update_counts(m, batch_of((0, 0, 0.0, 1, False)))
    update_counts(m, batch_of((1, 0, 0.0, 0, False)))
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
    rng = Draws(0)
    prev = m.R_count.copy()
    for _ in range(5):
        update_counts(m, sample_trajectory(world, 100, rng, [world.start]))
        assert (m.R_count >= prev).all()
        prev = m.R_count.copy()


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
        update_counts(m, batch_of((0, 0, r, 1, False)))
        weights.append(m.D[0, 1])
    assert weights[0] > weights[1] > weights[2]


@pytest.mark.parametrize("name, value", [
    ("v", np.nan), ("v", np.inf), ("v", -1.0),
])
def test_non_finite_or_negative_weight_is_error(name, value):
    with pytest.raises(ValueError, match=f"{name} must be finite and non-negative"):
        EstimatedModel(2, **{name: value})


def test_weights_and_priors_are_keyword_only():
    # A stale positional action count must not bind to v, and the counts take
    # no uniform prior.
    with pytest.raises(TypeError):
        EstimatedModel(2, 4)
    with pytest.raises(TypeError):
        EstimatedModel(3, u_prior=0.0)


def test_counts_are_read_without_prior():
    m = EstimatedModel(3)
    update_counts(m, batch_of((0, 1, 0.0, 0, False), (0, 1, 0.0, 0, False),
                             (0, 2, 0.0, 0, False), (0, 2, 0.0, 0, False),
                             (0, 2, 0.0, 0, False)))
    assert m.R_count[0, 1, 0] == 2.0 and m.R_count[0, 2, 0] == 3.0
    assert np.array_equal(m.U, m.R_count) and m.u_prior == 0.0
    assert "U" not in vars(m) and "D" not in vars(m)
    with pytest.raises(AttributeError):
        m.D = np.zeros((3, 3))


DENSE_VIEWS = {"U", "R_count", "R_sum", "_dense", "u_prior"}


def test_dense_views_have_no_package_reader():
    # The views stay for the benchmark's reads only.  Any name, attribute or
    # import spelled like a view, outside model.py, counts as a read.
    readers = {}
    for path in sorted(Path(model_module.__file__).parent.glob("*.py")):
        if path.name == "model.py":
            continue
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            name = (node.attr if isinstance(node, ast.Attribute) else
                    node.id if isinstance(node, ast.Name) else
                    node.name if isinstance(node, ast.alias) else None)
            if name in DENSE_VIEWS:
                readers.setdefault(path.name, []).append((node.lineno, name))
    assert readers == {}


# --- derived D against a from-scratch rebuild -------------------------------

def slippery_world():
    return load_gridworld(THREE_ROOMS, step_reward=-0.04, goal_reward=1.0,
                          slip_prob=0.2)


def sampled_episodes(world, n_episodes=40, seed=3):
    """Uniform-random episodes, one batch each, drawn in turn from one stream."""
    rng = Draws(seed)
    starts = [s for s in range(world.n_states) if not world.is_terminal(s)]
    return [sample_trajectory(world, 60, rng, [starts[e * 7 % len(starts)]])
            for e in range(n_episodes)]


def test_incremental_adjacency_equals_rebuild_after_every_update():
    world = slippery_world()
    m = EstimatedModel(world.n_states, v=V)
    assert np.array_equal(m.D, rebuilt_adjacency(m))
    for episode in sampled_episodes(world):
        update_counts(m, episode)
        assert np.array_equal(m.D, rebuilt_adjacency(m))
    assert (m.R_count > 0).sum() > 200      # hundreds of distinct transitions counted


def test_exhaustive_adjacency_equals_rebuild():
    world = load_gridworld(THREE_ROOMS, step_reward=-0.04)
    m = exhaustive_model(world, v=V)
    assert np.array_equal(m.D, rebuilt_adjacency(m))


def test_aggregated_adjacency_equals_rebuild():
    world = slippery_world()
    assignment = np.arange(world.n_states) // 4
    agg = aggregate_model(sampled_episodes(world), assignment, v=V)
    assert np.array_equal(agg.D, rebuilt_adjacency(agg))


# --- the key store against the dense np.add.at writer -----------------------

@pytest.fixture
def batches(monkeypatch):
    """Every batch each model receives, keyed by the model, in write order."""
    seen = {}
    write = model_module._add_counts

    def spy(model, s, a, s2, reward_sum):
        write(model, s, a, s2, reward_sum)
        seen.setdefault(id(model), []).append(
            tuple(np.array(x, dtype=float) for x in (s, a, s2, reward_sum)))

    monkeypatch.setattr(model_module, "_add_counts", spy)
    monkeypatch.setattr(pipeline, "_add_counts", spy)
    return seen


def block_and_episodes(world, n_episodes=40, max_steps=60, seed=3):
    """One sampled block and the same episodes sampled one at a time."""
    starts = [s for s in range(world.n_states) if not world.is_terminal(s)]
    starts = [starts[e * 7 % len(starts)] for e in range(n_episodes)]
    block = sample_trajectory(world, max_steps, Draws(seed), starts)
    rng = Draws(seed)
    episodes = [sample_trajectory(world, max_steps, rng, [s]) for s in starts]
    return block, episodes


def assert_same_store(a, b):
    for x, y in ((a._keys, b._keys), (a._values, b._values)):
        assert np.array_equal(x, y) and x.dtype == y.dtype
    assert np.array_equal(a.D, b.D)


@pytest.mark.parametrize("slip", [0.0, 0.2])
def test_block_write_equals_episode_writes(batches, slip):
    world = load_gridworld(THREE_ROOMS, step_reward=-0.04, slip_prob=slip)
    block, episodes = block_and_episodes(world)
    by_block = EstimatedModel(world.n_states, v=V)
    by_episode = EstimatedModel(world.n_states, v=V)
    assert update_counts(by_block, block) is by_block
    for episode in episodes:
        update_counts(by_episode, episode)
    assert len(batches[id(by_block)]) == 1 and len(batches[id(by_episode)]) == 40
    assert_same_store(by_block, by_episode)
    assert by_block.R_count.sum() == len(block) == sum(map(len, episodes))


def test_aggregated_blocks_equal_aggregated_trajectories(batches):
    world = load_gridworld(THREE_ROOMS, step_reward=-0.04)
    block, episodes = block_and_episodes(world)
    assignment = np.arange(world.n_states) // 4
    halves = [joined(episodes[:15]), joined(episodes[15:])]
    over_blocks = aggregate_model([block], assignment, v=V)
    over_halves = aggregate_model(halves, assignment, v=V)
    over_episodes = aggregate_model(episodes, assignment, v=V)
    assert [len(batches[id(m)]) for m in (over_blocks, over_halves, over_episodes)] == \
        [1, 2, 40]
    assert_same_store(over_blocks, over_episodes)
    assert_same_store(over_halves, over_episodes)


def assert_matches_dense(m, batches, tmp_path):
    ref = dense_counts(m.n_states, batches.get(id(m), []), v=m.v)
    for name in ("R_count", "R_sum"):
        assert np.array_equal(getattr(m, name), getattr(ref, name)), name
    assert np.array_equal(m.D, rebuilt_adjacency(ref))
    assert np.array_equal(densified_kernel(transition_probabilities(m), m.n_states),
                          dense_kernel(ref))
    path = tmp_path / "model.csv"
    save_triplets(m, path)
    assert path.read_bytes() == dense_triplet_csv(ref)


@pytest.mark.parametrize("max_steps", [65536, 50])
def test_store_matches_dense_writer_with_reads_between_updates(batches, tmp_path,
                                                               max_steps):
    # Each episode is written in blocks of at most max_steps steps: 65536
    # writes it whole, 50 splits the longer episodes, so keys already merged
    # by one write come in again with the next.
    world = slippery_world()
    m = EstimatedModel(world.n_states, v=V)
    assert_matches_dense(m, batches, tmp_path)
    for e, steps in enumerate(sampled_episodes(world)):
        for i in range(0, len(steps), max_steps):
            update_counts(m, Transitions(*(x[i:i + max_steps]
                                           for x in (steps.s, steps.a, steps.s2, steps.r))))
        if e % 9 == 4:
            assert_matches_dense(m, batches, tmp_path)
    assert_matches_dense(m, batches, tmp_path)


def test_write_merges_into_store_and_reads_leave_it_unchanged(tmp_path):
    world = slippery_world()
    m = EstimatedModel(world.n_states, v=V)
    batch = joined(sampled_episodes(world))
    update_counts(m, batch)
    expected = np.unique((batch.s * 4 + batch.a) * world.n_states + batch.s2)
    assert np.array_equal(m._keys, expected) and m._values.shape == (2, expected.size)
    keys, values = m._keys, m._values
    m.D
    transition_probabilities(m)
    save_triplets(m, tmp_path / "model.csv")
    assert m._keys is keys and m._values is values


def test_aggregated_store_matches_dense_writer(batches, tmp_path):
    world = slippery_world()
    agg = aggregate_model(sampled_episodes(world), np.arange(world.n_states) // 4, v=V)
    assert len(batches[id(agg)]) == 40
    assert_matches_dense(agg, batches, tmp_path)


def test_exhaustive_store_matches_dense_writer(batches, tmp_path):
    world = load_gridworld(THREE_ROOMS, step_reward=-0.04)
    m = exhaustive_model(world, v=V)
    assert_matches_dense(m, batches, tmp_path)


def test_store_memory_grows_with_transitions_not_states(tmp_path):
    # A dense (N, A, N) count array at N = 6,404 would take 1.3 GB.
    world = load_gridworld(room_grid_text(2, 2, 40))
    batch = sample_trajectory(world, 200, Draws(0), [world.start])
    assert world.n_states == 6404 and len(batch) == 200
    tracemalloc.start()
    try:
        m = EstimatedModel(world.n_states, v=V)
        update_counts(m, batch)
        save_triplets(m, tmp_path / "model.csv")
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20
