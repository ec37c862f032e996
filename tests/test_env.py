"""Gridworld parsing and trajectory sampling."""

import numpy as np
import pytest

from spectral_options.env import (
    N_ACTIONS,
    _MAX_BLOCK,
    GridWorld,
    MapError,
    _PCG64Reader,
    bundled_map_text,
    load_gridworld,
    sample_trajectory,
    step,
    uniform_random_policy,
)

import oracles

THREE_ROOMS = bundled_map_text("three_rooms")


def test_missing_goal_is_error():
    with pytest.raises(MapError, match="no goal"):
        load_gridworld("S")


def test_three_cell_corridor():
    world = load_gridworld("S.G")
    assert world.n_states == 3
    assert world.start == 0
    assert world.goals == {2}


def test_non_rectangular_map_is_error():
    with pytest.raises(MapError, match="rectangular"):
        load_gridworld("S.\n.G.")


def test_multiple_starts_is_error():
    with pytest.raises(MapError, match="start"):
        load_gridworld("SS\n.G")


def test_missing_start_is_error():
    with pytest.raises(MapError, match="start"):
        load_gridworld("..\n.G")


def test_unknown_character_is_error():
    with pytest.raises(MapError, match="unknown"):
        load_gridworld("S?\n.G")


def test_three_room_map_has_77_states():
    world = load_gridworld(THREE_ROOMS)
    assert world.n_states == 77
    assert world.start == 0
    assert len(world.goals) == 1


def test_state_ids_are_row_major():
    world = load_gridworld("S.\n.G")
    assert world.cells == [(0, 0), (0, 1), (1, 0), (1, 1)]
    assert world.index[(1, 1)] == 3


def test_deterministic_move_east():
    world = load_gridworld("S.G")
    s2, r, done = step(world, 0, 1)
    assert (s2, r, done) == (1, 0.0, False)


def test_wall_bump_is_self_transition():
    world = load_gridworld("S.G")
    s2, r, done = step(world, 0, 0)  # north, off-grid
    assert (s2, r, done) == (0, 0.0, False)
    world2 = load_gridworld("#.#\n#S#\n#.#\nG..")
    s_mid = world2.index[(1, 1)]
    s2, _, _ = step(world2, s_mid, 1)  # east into '#'
    assert s2 == s_mid


def test_entering_goal_pays_and_terminates():
    world = load_gridworld(THREE_ROOMS)
    goal = next(iter(world.goals))
    gr, gc = world.cells[goal]
    west = world.index[(gr, gc - 1)]
    s2, r, done = step(world, west, 1)
    assert s2 == goal
    assert r == 1.0
    assert done


def test_step_from_terminal_is_error():
    world = load_gridworld("S.G")
    with pytest.raises(ValueError, match="terminal"):
        step(world, 2, 1)


def test_invalid_action_is_error():
    world = load_gridworld("S.G")
    with pytest.raises(ValueError, match="action"):
        step(world, 0, 4)


def test_slip_spreads_over_perpendicular_moves():
    world = load_gridworld("...\n.S.\n.G.", slip_prob=1.0)
    rng = np.random.default_rng(0)
    s = world.start
    seen = {step(world, s, 0, rng)[0] for _ in range(200)}
    # Commanded N always slips to E or W.
    assert seen == {world.index[(1, 0)], world.index[(1, 2)]}


def test_slip_requires_rng():
    world = load_gridworld("S.G", slip_prob=0.5)
    with pytest.raises(ValueError, match="rng"):
        step(world, 0, 1)


def test_max_steps_caps_rollout():
    world = load_gridworld(THREE_ROOMS)
    rng = np.random.default_rng(3)
    traj = sample_trajectory(world, uniform_random_policy, max_steps=1, rng=rng)
    assert len(traj) == 1


def test_replay_determinism():
    world = load_gridworld(THREE_ROOMS, slip_prob=0.1)
    t1 = sample_trajectory(world, uniform_random_policy, 500, np.random.default_rng(42))
    t2 = sample_trajectory(world, uniform_random_policy, 500, np.random.default_rng(42))
    assert t1 == t2


def test_optimal_policy_reaches_goal():
    world = load_gridworld(THREE_ROOMS)
    goal = next(iter(world.goals))

    # Shortest-path actions via breadth-first search from the goal.
    from collections import deque
    dist = {goal: 0}
    queue = deque([goal])
    while queue:
        s = queue.popleft()
        for a in range(4):
            p = world.move(s, a)
            if p not in dist:
                dist[p] = dist[s] + 1
                queue.append(p)

    def optimal(s, rng):
        return min(range(4), key=lambda a: dist[world.move(s, a)])

    traj = sample_trajectory(world, optimal, 500, np.random.default_rng(0))
    assert traj.done
    assert traj.states[-1] == goal
    assert len(traj) == dist[world.start]
    assert traj.rewards[-1] == world.goal_reward
    assert traj.rewards[:-1] == [world.step_reward] * (len(traj) - 1)


def test_trajectory_states_are_valid():
    world = load_gridworld(THREE_ROOMS)
    rng = np.random.default_rng(7)
    traj = sample_trajectory(world, uniform_random_policy, 300, rng)
    assert len(traj.states) == len(traj) + 1
    assert all(0 <= s < world.n_states for s in traj.states)


def test_start_override_begins_episode_there():
    world = load_gridworld(THREE_ROOMS)
    s0 = world.index[(3, 9)]
    traj = sample_trajectory(world, uniform_random_policy, 5,
                             np.random.default_rng(0), start=s0)
    assert traj.states[0] == s0


def test_terminal_start_is_error():
    world = load_gridworld(THREE_ROOMS)
    goal = world.index[(5, 17)]
    with pytest.raises(ValueError, match="terminal"):
        sample_trajectory(world, uniform_random_policy, 5,
                          np.random.default_rng(0), start=goal)


@pytest.mark.parametrize("text", [THREE_ROOMS, "S.#.\n..#G\n....", ".S.\n...\n.G."],
                         ids=["three_rooms", "edge_wall", "open"])
def test_successor_table_matches_coordinate_move(text):
    world = load_gridworld(text)
    assert len(world.successor) == world.n_states
    for s in range(world.n_states):
        for a in range(N_ACTIONS):
            expected = oracles.coordinate_move(world, s, a)
            assert world.successor[s][a] == expected
            assert type(world.successor[s][a]) is int
            assert world.move(s, a) == expected


@pytest.mark.parametrize("s", [-1, -77, 77, 100])
def test_step_from_out_of_range_state_is_error(s):
    world = load_gridworld(THREE_ROOMS)
    with pytest.raises(ValueError, match="outside"):
        step(world, s, 0)


@pytest.mark.parametrize("s, a, message", [
    (-1, 0, "state -1 is outside [0, 77)"),
    (77, 0, "state 77 is outside [0, 77)"),
    (77, 9, "state 77 is outside [0, 77)"),     # the state is checked first
    (76, 0, "cannot step from terminal state 76"),
    (76, -1, "cannot step from terminal state 76"),
    (0, 4, "invalid action 4"),
    (0, -1, "invalid action -1"),
])
def test_step_error_messages(s, a, message):
    world = load_gridworld(THREE_ROOMS, slip_prob=0.5)
    assert world.is_terminal(76)
    with pytest.raises(ValueError) as info:
        step(world, s, a, np.random.default_rng(0))
    assert str(info.value) == message


@pytest.mark.parametrize("start", [-5, -1, 77])
def test_out_of_range_start_is_error(start):
    world = load_gridworld(THREE_ROOMS)
    with pytest.raises(ValueError, match="outside"):
        sample_trajectory(world, uniform_random_policy, 5,
                          np.random.default_rng(0), start=start)


@pytest.mark.parametrize("s, a", [(-1, 0), (-1, -1), (0, -1), (77, 0), (0, 4)])
def test_move_out_of_range_is_error(s, a):
    world = load_gridworld(THREE_ROOMS)
    with pytest.raises(ValueError, match="outside"):
        world.move(s, a)


def looped_uniform_policy(s, rng):
    """uniform_random_policy under another identity, which takes the step loop."""
    return uniform_random_policy(s, rng)


# Every open cell of the early_goal map is next to a goal, so its episodes
# end well before max_steps.
@pytest.mark.parametrize("text, ends_early",
                         [(THREE_ROOMS, False), (".S...\n.....\n.....\n....G", False),
                          ("#####\n#S.G#\n#G..#\n#####", True)],
                         ids=["three_rooms", "open", "early_goal"])
@pytest.mark.parametrize("max_steps", [1, 5, 200, 500])
def test_uniform_block_draw_matches_step_loop(text, ends_early, max_steps):
    # The block draw is only equal to the loop while numpy's array and scalar
    # bounded-integer draws share one stream; a numpy release that changes
    # that stream fails here.
    world = load_gridworld(text, step_reward=-0.5)
    starts = [s for s in range(world.n_states) if not world.is_terminal(s)]
    block, loop = np.random.default_rng(11), np.random.default_rng(11)
    lengths = []
    for episode in range(3 * len(starts)):
        start = starts[episode % len(starts)]
        got = sample_trajectory(world, uniform_random_policy, max_steps, block, start=start)
        want = sample_trajectory(world, looped_uniform_policy, max_steps, loop, start=start)
        assert got == want
        assert all(type(x) is int for x in got.states + got.actions)
        assert block.bit_generator.state == loop.bit_generator.state
        lengths.append(len(got))
    assert block.integers(N_ACTIONS) == loop.integers(N_ACTIONS)
    if ends_early and max_steps > 1:
        assert min(lengths) < max_steps


def test_slip_keeps_step_loop():
    world = load_gridworld(THREE_ROOMS, slip_prob=0.3)
    block, loop = np.random.default_rng(5), np.random.default_rng(5)
    for start in range(10):
        got = sample_trajectory(world, uniform_random_policy, 200, block, start=start)
        want = sample_trajectory(world, looped_uniform_policy, 200, loop, start=start)
        assert got == want
        assert block.bit_generator.state == loop.bit_generator.state


# --- raw PCG64 reader ------------------------------------------------------

# Bounds of integers(n) that the learner and the reader's edge cases use: 1
# draws nothing, 2³¹ + 7 rejects about half its 32-bit draws, 2³² − 4 almost
# none.
READER_NS = (1, 2, 3, 4, 7, 2**31 + 7, 2**32 - 4)


def reader_pair(seed: int, buffered: bool):
    """Two generators in one state; with ``buffered`` a 32-bit half is held."""
    plain, read = np.random.default_rng(seed), np.random.default_rng(seed)
    if buffered:
        plain.integers(5)
        read.integers(5)
    assert read.bit_generator.state["has_uint32"] == buffered
    return plain, read


@pytest.mark.parametrize("buffered", [False, True], ids=["empty", "buffered"])
@pytest.mark.parametrize("n_draws", [0, 1, 31, 32, 33, 500, 4 * _MAX_BLOCK])
def test_reader_matches_numpy_draws(buffered, n_draws):
    # The reader is only equal to numpy while numpy builds random() and
    # integers(n) from PCG64 raws as the reader does; a numpy release that
    # changes that layout fails here.
    plan = np.random.default_rng(n_draws)
    plain, read = reader_pair(1000 + n_draws, buffered)
    reader = _PCG64Reader(read)
    for _ in range(n_draws):
        if plan.random() < 0.5:
            want, got = plain.random(), reader.random()
            assert type(got) is float
        else:
            n = READER_NS[plan.integers(len(READER_NS))]
            want, got = plain.integers(n), reader.integers(n)
            assert type(got) is int
        assert got == want
    reader.close()
    assert read.bit_generator.state == plain.bit_generator.state
    assert read.integers(7) == plain.integers(7)
    assert read.random() == plain.random()


@pytest.mark.parametrize("seed", range(40))
def test_reader_matches_numpy_over_random_interleavings(seed):
    plan = np.random.default_rng(seed)
    plain, read = reader_pair(seed, bool(seed % 2))
    reader = _PCG64Reader(read)
    n_draws = int(plan.integers(0, 300))
    share = plan.random()           # share of random() among the draws
    for _ in range(n_draws):
        if plan.random() < share:
            assert reader.random() == plain.random()
        else:
            n = READER_NS[plan.integers(len(READER_NS))]
            assert reader.integers(n) == plain.integers(n)
    reader.close()
    assert read.bit_generator.state == plain.bit_generator.state
    assert read.integers(3) == plain.integers(3)


def test_reader_needs_pcg64():
    for bits in (np.random.MT19937(0), np.random.PCG64DXSM(0), np.random.Philox(0)):
        with pytest.raises(TypeError, match="PCG64"):
            _PCG64Reader(np.random.Generator(bits))


@pytest.mark.parametrize("n", [0, -3, 2**32 + 1, 2**40])
def test_reader_integers_out_of_range_is_error(n):
    rng = np.random.default_rng(0)
    state = rng.bit_generator.state
    reader = _PCG64Reader(rng)
    with pytest.raises(ValueError, match="2\\*\\*32"):
        reader.integers(n)
    reader.close()
    assert rng.bit_generator.state == state
