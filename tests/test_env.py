"""Gridworld parsing and trajectory sampling."""

import numpy as np
import pytest

from spectral_options import env
from spectral_options.env import (
    _BLOCK,
    N_ACTIONS,
    Draws,
    GridWorld,
    MapError,
    Trajectory,
    Transitions,
    bundled_map_text,
    load_gridworld,
    sample_trajectory,
    step,
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
    rng = Draws(0)
    s = world.start
    seen = {step(world, s, 0, rng)[0] for _ in range(200)}
    # Commanded N always slips to E or W.
    assert seen == {world.index[(1, 0)], world.index[(1, 2)]}


def test_slip_requires_rng():
    world = load_gridworld("S.G", slip_prob=0.5)
    with pytest.raises(ValueError, match="rng"):
        step(world, 0, 1)


def batch_fields(batch):
    return [x.tolist() for x in (batch.s, batch.a, batch.s2, batch.r)]


def test_max_steps_caps_rollout():
    world = load_gridworld(THREE_ROOMS)
    rng = Draws(3)
    batch = sample_trajectory(world, max_steps=1, rng=rng, starts=[world.start])
    assert len(batch) == 1


def test_replay_determinism():
    world = load_gridworld(THREE_ROOMS, slip_prob=0.1)
    t1 = sample_trajectory(world, 500, Draws(42), [world.start])
    t2 = sample_trajectory(world, 500, Draws(42), [world.start])
    assert batch_fields(t1) == batch_fields(t2)


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

    s, traj = world.start, Trajectory([world.start])
    while not traj.done and len(traj) < 500:
        a = min(range(4), key=lambda a: dist[world.move(s, a)])
        s, r, done = step(world, s, a)
        traj.add(a, r, s, done)
    batch = Transitions.of([traj])
    assert batch.s[0] == world.start
    assert batch.s2[-1] == goal
    assert not world.goals & set(batch.s2[:-1].tolist())
    assert len(batch) == dist[world.start]
    assert batch.r[-1] == world.goal_reward
    assert batch.r[:-1].tolist() == [world.step_reward] * (len(batch) - 1)


def test_trajectory_states_are_valid():
    world = load_gridworld(THREE_ROOMS)
    rng = Draws(7)
    batch = sample_trajectory(world, 300, rng, [world.start])
    assert batch.s[1:].tolist() == batch.s2[:-1].tolist()     # one episode's steps chain
    assert all(0 <= s < world.n_states for s in batch.s.tolist() + batch.s2.tolist())


def test_start_override_begins_episode_there():
    world = load_gridworld(THREE_ROOMS)
    s0 = world.index[(3, 9)]
    batch = sample_trajectory(world, 5, Draws(0), [s0])
    assert batch.s[0] == s0


def test_terminal_start_is_error():
    world = load_gridworld(THREE_ROOMS)
    goal = world.index[(5, 17)]
    with pytest.raises(ValueError, match="terminal"):
        sample_trajectory(world, 5, Draws(0), [goal])


@pytest.mark.parametrize("text", [THREE_ROOMS, "S.#.\n..#G\n....", ".S.\n...\n.G."],
                         ids=["three_rooms", "edge_wall", "open"])
def test_successor_table_matches_coordinate_move(text):
    world = load_gridworld(text)
    assert len(world.successor) == world.n_states
    for s in range(world.n_states):
        for a in range(N_ACTIONS):
            expected = oracles.coordinate_move(text, s, a)
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
        step(world, s, a, Draws(0))
    assert str(info.value) == message


@pytest.mark.parametrize("start", [-5, -1, 77])
def test_out_of_range_start_is_error(start):
    world = load_gridworld(THREE_ROOMS)
    with pytest.raises(ValueError, match="outside"):
        sample_trajectory(world, 5, Draws(0), [start])


@pytest.mark.parametrize("s, a", [(-1, 0), (-1, -1), (0, -1), (77, 0), (0, 4)])
def test_move_out_of_range_is_error(s, a):
    world = load_gridworld(THREE_ROOMS)
    with pytest.raises(ValueError, match="outside"):
        world.move(s, a)


# Every open cell of the early_goal map is next to a goal, so its episodes
# end well before max_steps.
@pytest.mark.parametrize("text, ends_early",
                         [(THREE_ROOMS, False), (".S...\n.....\n.....\n....G", False),
                          ("#####\n#S.G#\n#G..#\n#####", True)],
                         ids=["three_rooms", "open", "early_goal"])
@pytest.mark.parametrize("max_steps", [1, 5, 200, 500])
def test_uniform_block_draw_matches_step_loop(text, ends_early, max_steps):
    # A uniform episode takes exactly max_steps raws, however early it ends;
    # the loop takes one raw per step, so it skips the rest to keep up.
    world = load_gridworld(text, step_reward=-0.5)
    starts = [s for s in range(world.n_states) if not world.is_terminal(s)]
    block, loop = Draws(11), Draws(11)
    lengths = []
    for episode in range(3 * len(starts)):
        start = starts[episode % len(starts)]
        got = sample_trajectory(world, max_steps, block, [start])
        want = Transitions.of([oracles.step_loop_episode(world, start, max_steps, loop)])
        assert batch_fields(got) == batch_fields(want)
        assert [x.dtype for x in (got.s, got.a, got.s2)] == [np.int64] * 3
        loop.raws(max_steps - len(want))
        lengths.append(len(got))
    n_raws = 3 * len(starts) * max_steps
    assert block.raws(3).tolist() == np.random.PCG64(11).random_raw(n_raws + 3)[-3:].tolist()
    if ends_early and max_steps > 1:
        assert min(lengths) < max_steps


def test_slip_keeps_step_loop():
    world = load_gridworld(THREE_ROOMS, slip_prob=0.3)
    block, loop = Draws(5), Draws(5)
    for start in range(10):
        got = sample_trajectory(world, 200, block, [start])
        want = Transitions.of([oracles.step_loop_episode(world, start, 200, loop)])
        assert batch_fields(got) == batch_fields(want)
        assert block.random() == loop.random()


# --- batches of episodes ----------------------------------------------------

EARLY_GOAL = "#####\n#S.G#\n#G..#\n#####"


@pytest.mark.parametrize("text, slip", [(EARLY_GOAL, 0.0), (THREE_ROOMS, 0.0), (THREE_ROOMS, 0.3)],
                         ids=["uniform_early_goal", "uniform", "slip"])
@pytest.mark.parametrize("max_steps", [1, 7, 200])
def test_batch_equals_concatenated_episodes(text, slip, max_steps):
    world = load_gridworld(text, step_reward=-0.5, goal_reward=2.0, slip_prob=slip)
    starts = [s for s in range(world.n_states) if not world.is_terminal(s)] * 2
    batched, single = Draws(17), Draws(17)
    batch = sample_trajectory(world, max_steps, batched, starts)
    episodes = [sample_trajectory(world, max_steps, single, [s]) for s in starts]
    assert isinstance(batch, Transitions)
    assert batch_fields(batch) == [sum(fields, []) for fields in
                                   zip(*map(batch_fields, episodes))]
    assert len(batch) == sum(map(len, episodes))
    assert [x.dtype for x in (batch.s, batch.a, batch.s2, batch.r)] == [np.int64] * 3 + [float]
    assert batched.raws(2).tolist() == single.raws(2).tolist()


@pytest.mark.parametrize("text", [EARLY_GOAL, THREE_ROOMS], ids=["early_goal", "three_rooms"])
@pytest.mark.parametrize("n_episodes, max_steps", [(1, 1), (3, 5), (40, 200), (200, 333)])
def test_uniform_batch_takes_episodes_times_max_steps_raws(text, n_episodes, max_steps):
    world = load_gridworld(text)
    starts = [s for s in range(world.n_states) if not world.is_terminal(s)]
    draws = Draws(4)
    batch = sample_trajectory(world, max_steps, draws,
                              [starts[e % len(starts)] for e in range(n_episodes)])
    n_raws = n_episodes * max_steps
    assert draws.raws(3).tolist() == np.random.PCG64(4).random_raw(n_raws + 3)[-3:].tolist()
    assert len(batch) <= n_raws


def test_empty_batch():
    world = load_gridworld(THREE_ROOMS)
    draws = Draws(2)
    batch = sample_trajectory(world, 50, draws, [])
    assert len(batch) == 0 and batch_fields(batch) == [[], [], [], []]
    assert draws.random() == Draws(2).random()


@pytest.mark.parametrize("bad, message", [(77, "outside"), (-1, "outside"), (76, "terminal")])
def test_bad_start_in_a_batch_is_error_before_any_draw(bad, message):
    world = load_gridworld(THREE_ROOMS)
    draws = Draws(6)
    with pytest.raises(ValueError, match=message):
        sample_trajectory(world, 5, draws, [0, 1, bad, 2])
    assert draws.random() == Draws(6).random()


def test_transitions_of_trajectories():
    world = load_gridworld(EARLY_GOAL, step_reward=-0.5)
    episodes = []
    for start, actions in [(0, [3, 0, 1]), (1, [2, 0]), (4, [2, 1, 0])]:
        traj = Trajectory([start])
        for a in actions:
            s2, r, done = step(world, traj.states[-1], a)
            traj.add(a, r, s2, done)
        episodes.append(traj)
    assert episodes[-1].done
    batch = Transitions.of(episodes)
    assert batch.s.tolist() == [x for e in episodes for x in e.states[:-1]]
    assert batch.s2.tolist() == [x for e in episodes for x in e.states[1:]]
    assert batch.a.tolist() == [x for e in episodes for x in e.actions]
    assert batch.r.tolist() == [x for e in episodes for x in e.rewards]


# --- the package's random stream ------------------------------------------

# Bounds of integers(n): 1 takes a raw and returns 0, 2⁶³ + 1 rejects about
# half its raws, 2⁶⁴ returns the raw itself.
DRAW_NS = (1, 2, 3, 4, 7, 2**31 + 7, 2**32 - 4, 2**63 + 1, 2**64)


def test_draws_known_answer():
    # The first ten raws of PCG64(2024): three random(), four integers(n),
    # where 2⁶³ + 1 rejects one raw, then two raws.
    draws = Draws(2024)
    assert [draws.random() for _ in range(3)] == [
        0.6758313379812818, 0.21432320123825765, 0.3094520308816917]
    assert [draws.integers(n) for n in (4, 7, 2**63 + 1, 1)] == [
        3, 6, 726114886686888755, 0]
    assert draws.raws(2).tolist() == [6634314167898596036, 3128922889320554696]


def test_draws_raws_are_the_pcg64_stream(monkeypatch):
    assert Draws(9).raws(1000).tolist() == np.random.PCG64(9).random_raw(1000).tolist()
    monkeypatch.setattr(env, "_BLOCK", 7)
    draws = Draws(9)
    assert draws.raws(0).tolist() == []
    assert draws.raws(1).dtype == np.uint64


def test_draws_random_is_numpy_random():
    draws, rng = Draws(17), np.random.default_rng(17)
    got = [draws.random() for _ in range(3000)]
    assert all(type(x) is float for x in got)
    assert got == rng.random(3000).tolist()


@pytest.mark.parametrize("buffered", [False, True], ids=["empty", "buffered"])
@pytest.mark.parametrize("n_draws", [0, 1, 31, 32, 33, 500, 16 * _BLOCK])
def test_reader_matches_numpy_draws(buffered, n_draws):
    # random() and raws(k) interleaved on one Draws read the stream numpy's
    # Generator.random() and its bit generator's random_raw(k) read; with
    # ``buffered`` a block is partly used before the comparison starts.
    plan = np.random.default_rng(n_draws)
    draws, rng = Draws(1000 + n_draws), np.random.default_rng(1000 + n_draws)
    if buffered:
        assert draws.random() == rng.random()
    for _ in range(n_draws):
        if plan.random() < 0.9:
            got = draws.random()
            assert type(got) is float and got == rng.random()
        else:
            k = int(plan.integers(0, 40))
            assert draws.raws(k).tolist() == rng.bit_generator.random_raw(k).tolist()
    assert draws.random() == rng.random()


@pytest.mark.parametrize("seed", range(40))
def test_reader_matches_numpy_over_random_interleavings(seed, monkeypatch):
    # The same plan of random(), integers(n) and raws(k) gives the same
    # values under blocks of 1, 7 and the default size, and equals the
    # definition applied to PCG64(seed)'s raws one at a time.
    plan = np.random.default_rng(seed)
    n_draws = int(plan.integers(0, 300))
    share = plan.random(3)
    steps = []
    for _ in range(n_draws):
        u = plan.random() * share.sum()
        if u < share[0]:
            steps.append(("random", None))
        elif u < share[0] + share[1]:
            steps.append(("integers", DRAW_NS[plan.integers(len(DRAW_NS))]))
        else:
            steps.append(("raws", int(plan.integers(0, 40))))

    def run(draws):
        out = []
        for kind, arg in steps:
            if kind == "random":
                out.append(draws.random())
            elif kind == "integers":
                out.append(draws.integers(arg))
            else:
                out.append(draws.raws(arg).tolist())
        return out

    bits = np.random.PCG64(seed)
    raws = iter(lambda: int(bits.random_raw()), None)
    want = []
    for kind, arg in steps:
        if kind == "random":
            want.append((next(raws) >> 11) / 2**53)
        elif kind == "integers":
            want.append(oracles.bounded_draw(raws, arg))
        else:
            want.append([next(raws) for _ in range(arg)])
    for block in (1, 7, _BLOCK):
        monkeypatch.setattr(env, "_BLOCK", block)
        assert run(Draws(seed)) == want


def test_draws_integers_rejects_below_the_threshold():
    # At n = 2⁶³ + 1 about half the raws fall below 2⁶⁴ mod n and are redrawn.
    n = 2**63 + 1
    bits = np.random.PCG64(3)
    raws = bits.random_raw(200).tolist()
    assert sum((x * n) % 2**64 < 2**64 % n for x in raws) == 103
    draws, it = Draws(3), iter(raws)
    got = [draws.integers(n) for _ in range(40)]
    assert got == [oracles.bounded_draw(it, n) for _ in range(40)]
    assert all(type(x) is int and 0 <= x < n for x in got)
    assert Draws(3).integers(4) == raws[0] >> 62


@pytest.mark.parametrize("n", [0, -3, 2**64 + 1, 2**70])
def test_reader_integers_out_of_range_is_error(n):
    draws = Draws(0)
    with pytest.raises(ValueError, match="2\\*\\*64"):
        draws.integers(n)
    assert draws.random() == np.random.default_rng(0).random()


def test_draws_integers_rejects_non_integers():
    with pytest.raises(TypeError):
        Draws(0).integers(2.0)
