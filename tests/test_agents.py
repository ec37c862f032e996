"""SMDP / intra-option Q-learning updates, behavioral policy, option execution."""

import copy

import numpy as np
import pytest

from spectral_options.env import Draws, Trajectory, bundled_map_text, load_gridworld
from spectral_options.model import adjacency, exhaustive_model
from spectral_options.options import Option, assign_states, compose_options
from spectral_options.spectral import cluster
from spectral_options.agents import (
    QTable,
    available_choices,
    epsilon_greedy,
    intra_option_update,
    option_key,
    run_option,
    smdp_q_update,
)

import oracles
from helpers import cluster_of

THREE_ROOMS = bundled_map_text("three_rooms")


@pytest.fixture(scope="module")
def three_rooms_options():
    world = load_gridworld(THREE_ROOMS)
    model = exhaustive_model(world)
    result = cluster(adjacency(model), t_c=0.8)
    options = compose_options(model, result, tau_conn=0.1)
    chi = result.chi
    return world, options, chi


def make_option(source=0, target=1, initiation=(0,), policy=None, termination=None):
    return Option(source=source, target=target,
                  initiation=frozenset(initiation),
                  policy=policy or {}, termination=termination or {})


# --- smdp_q_update ---------------------------------------------------------

def test_one_step_arithmetic():
    Q = QTable(2, alpha=0.5, gamma=0.9)
    smdp_q_update(Q, 0, 2, 1.0, 1, 1)
    assert Q.get(0, 2) == pytest.approx(0.5)


def test_zero_alpha_is_identity():
    Q = QTable(2, alpha=0.0, gamma=0.9)
    smdp_q_update(Q, 0, 2, 1.0, 1, 1)
    assert Q.get(0, 2) == 0.0


def test_duration_discounts_bootstrap():
    Q = QTable(2, [make_option(policy={0: {1: 1.0}})], alpha=1.0, gamma=0.5)
    Q.set(1, 0, 8.0)
    smdp_q_update(Q, 0, option_key(0), 0.0, 3, 1)
    assert Q.get(0, option_key(0)) == pytest.approx(0.5 ** 3 * 8.0)


def test_nonpositive_duration_is_error():
    Q = QTable(2)
    with pytest.raises(ValueError, match="duration"):
        smdp_q_update(Q, 0, 0, 0.0, 0, 1)


def test_repeated_updates_reach_smdp_fixpoint(three_rooms_options):
    # Deterministic sweeps at α = 1 are exact Bellman backups, so the table
    # must land on the independently computed SMDP value-iteration solution.
    world, options, _ = three_rooms_options
    gamma = 0.99
    star = oracles.smdp_q_star(world, options, gamma)
    Q = QTable(world.n_states, options, alpha=1.0, gamma=gamma)
    available = Q.available
    for _ in range(200):
        delta = 0.0
        for s in range(world.n_states):
            if world.is_terminal(s):
                continue
            for c in available[s]:
                if isinstance(c, tuple):
                    r, k, s_end = oracles.determinized_outcome(
                        world, options[c[1]], s, gamma)
                else:
                    s_end = world.move(s, c)
                    r = world.goal_reward if s_end in world.goals else world.step_reward
                    k = 1
                before = Q.get(s, c)
                smdp_q_update(Q, s, c, r, k, s_end)
                delta = max(delta, abs(Q.get(s, c) - before))
        if delta < 1e-14:
            break
    assert delta < 1e-14
    for key, value in star.items():
        assert Q.values[key] == pytest.approx(value, abs=1e-6), key


def test_flat_updates_reach_value_iteration(three_rooms_options):
    world, _, _ = three_rooms_options
    gamma = 0.99
    star = oracles.flat_q_star(world, gamma)
    Q = QTable(world.n_states, alpha=1.0, gamma=gamma)
    for _ in range(200):
        delta = 0.0
        for s in range(world.n_states):
            if world.is_terminal(s):
                continue
            for a in range(4):
                s2 = world.move(s, a)
                r = world.goal_reward if s2 in world.goals else world.step_reward
                before = Q.get(s, a)
                smdp_q_update(Q, s, a, r, 1, s2)
                delta = max(delta, abs(Q.get(s, a) - before))
        if delta < 1e-14:
            break
    for s in range(world.n_states):
        if world.is_terminal(s):
            continue
        for a in range(4):
            assert Q.get(s, a) == pytest.approx(star[s, a], abs=1e-4)


# --- QTable ----------------------------------------------------------------

def test_rows_hold_exactly_the_available_choices():
    o = make_option(initiation=(0, 1), policy={0: {1: 1.0}})
    Q = QTable(2, [o])
    assert Q.available == [[option_key(0), 0, 1, 2, 3], [0, 1, 2, 3]]
    assert [list(row) for row in Q.rows] == Q.available
    assert len(Q.values) == 9 and set(Q.values.values()) == {0.0}


def test_set_rejects_a_choice_not_offered():
    Q = QTable(2, [make_option(policy={0: {1: 1.0}})])
    with pytest.raises(KeyError, match="not available at state 1"):
        Q.set(1, option_key(0), 1.0)


def test_set_options_keeps_primitive_values_and_drops_option_values():
    o = make_option(policy={0: {1: 1.0}})
    Q = QTable(2, [o])
    Q.set(0, 1, 0.5)
    Q.set(0, option_key(0), 0.7)
    Q.set_options([o])
    assert Q.get(0, 1) == 0.5 and Q.get(0, option_key(0)) == 0.0
    Q.set_options([])
    assert Q.available[0] == [0, 1, 2, 3] and Q.get(0, 1) == 0.5


@pytest.mark.parametrize("bad", [float("nan"), float("inf"), -float("inf")])
def test_set_rejects_non_finite_value(bad):
    Q = QTable(1)
    with pytest.raises(ValueError, match=r"non-finite Q value for \(0, 1\)"):
        Q.set(0, 1, bad)
    assert Q.get(0, 1) == 0.0


def test_smdp_update_rejects_non_finite_value():
    Q = QTable(2)
    with pytest.raises(ValueError, match=r"non-finite Q value for \(0, 2\)"):
        smdp_q_update(Q, 0, 2, float("inf"), 1, 1)
    assert Q.get(0, 2) == 0.0


@pytest.mark.parametrize("a, entry", [(1, r"\(0, \('opt', 0\)\)"), (2, r"\(0, 2\)")],
                         ids=["option-entry", "primitive-entry"])
def test_intra_option_update_rejects_non_finite_value(a, entry):
    # Action 1 is consistent with the option, whose entry is written first;
    # action 2 is not, so only its primitive entry is written.
    Q = QTable(2, [make_option(policy={0: {1: 1.0}})])
    with pytest.raises(ValueError, match="non-finite Q value for " + entry):
        intra_option_update(Q, 0, a, float("nan"), 1)
    assert set(Q.values.values()) == {0.0}


# --- intra_option_update ---------------------------------------------------

def test_inconsistent_action_updates_only_primitive():
    o = make_option(policy={0: {1: 1.0}})
    Q = QTable(2, [o], alpha=1.0, gamma=0.9)
    n = intra_option_update(Q, 0, 2, 1.0, 1)
    assert n == 1
    assert Q.get(0, 2) == pytest.approx(1.0)
    assert Q.get(0, option_key(0)) == 0.0


def test_certain_termination_bootstraps_from_best():
    o = make_option(policy={0: {1: 1.0}}, termination={})  # β(1) defaults to 1
    Q = QTable(2, [o], alpha=1.0, gamma=0.9)
    Q.set(1, 3, 5.0)
    intra_option_update(Q, 0, 1, 0.0, 1)
    assert Q.get(0, option_key(0)) == pytest.approx(0.9 * 5.0)


def test_continuation_bootstraps_from_own_value():
    # The option is offered at 1 too, so it has a value there to continue with.
    o = make_option(initiation=(0, 1), policy={0: {1: 1.0}, 1: {1: 1.0}},
                    termination={1: 0.0})
    Q = QTable(2, [o], alpha=1.0, gamma=0.9)
    Q.set(1, option_key(0), 2.0)
    intra_option_update(Q, 0, 1, 0.0, 1)
    assert Q.get(0, option_key(0)) == pytest.approx(1.8)


def test_update_count_grows_with_consistent_options():
    o1 = make_option(policy={0: {1: 1.0}})
    o2 = make_option(source=1, target=0, policy={0: {1: 0.5, 2: 0.5}})
    Q = QTable(2, [o1, o2], alpha=0.5, gamma=0.9)
    n = intra_option_update(Q, 0, 1, 0.0, 1)
    assert n == 3   # two options consistent with action 1, plus the primitive


# --- epsilon_greedy --------------------------------------------------------

def test_greedy_picks_argmax():
    Q = QTable(1)
    Q.set(0, 1, 0.2)
    Q.set(0, 2, 0.9)
    rng = Draws(0)
    assert epsilon_greedy(Q, 0, 0.0, rng) == 2


def test_full_exploration_is_uniform():
    Q = QTable(1)
    rng = Draws(1)
    counts = np.zeros(4)
    for _ in range(10_000):
        counts[epsilon_greedy(Q, 0, 1.0, rng)] += 1
    # χ² test against uniform at p = 0.01 (df = 3, critical value 11.345).
    expected = 2500.0
    chi2 = ((counts - expected) ** 2 / expected).sum()
    assert chi2 < 11.345


def test_ties_break_to_earliest_position():
    # State 0 offers [option 1, actions 0-3]; option 0 starts only at 1.
    options = [make_option(initiation=(1,), policy={1: {0: 1.0}}),
               make_option(initiation=(0,), policy={0: {0: 1.0}})]
    Q = QTable(2, options)
    rng = Draws(2)
    assert Q.available[0] == [option_key(1), 0, 1, 2, 3]
    assert epsilon_greedy(Q, 0, 0.0, rng) == option_key(1)


def test_empty_available_is_error():
    Q = QTable(1)
    Q.rows[0].clear()
    with pytest.raises(ValueError, match="available"):
        epsilon_greedy(Q, 0, 0.0, Draws(0))


def test_options_listed_before_primitives(three_rooms_options):
    world, options, chi = three_rooms_options
    s = world.start
    avail = available_choices(options, world.n_states)[s]
    option_positions = [i for i, c in enumerate(avail) if isinstance(c, tuple)]
    primitive_positions = [i for i, c in enumerate(avail) if isinstance(c, int)]
    assert option_positions and primitive_positions
    assert max(option_positions) < min(primitive_positions)
    for c in avail:
        if isinstance(c, tuple):
            assert s in options[c[1]].initiation


# --- run_option ------------------------------------------------------------

def test_certain_termination_after_one_step():
    world = load_gridworld("S.G")
    o = make_option(initiation=(0,), policy={0: {1: 1.0}}, termination={0: 0.0})
    traj = Trajectory([0])
    out = run_option(world, o, traj, Draws(0), max_steps=10)
    assert out.duration == 1 and traj.states[-1] == 1
    assert not out.truncated and not out.missing_policy


def test_max_steps_cap_truncates():
    world = load_gridworld("S.G")
    # Policy bounces west into the wall forever; β = 0 everywhere reached.
    o = make_option(initiation=(0,), policy={0: {3: 1.0}}, termination={0: 0.0})
    traj = Trajectory([0])
    out = run_option(world, o, traj, Draws(0), max_steps=5)
    assert out.truncated and out.duration == 5 and traj.states[-1] == 0


def test_missing_policy_terminates_flagged():
    world = load_gridworld("S.G")
    o = make_option(initiation=(0,), policy={}, termination={})
    traj = Trajectory([0])
    out = run_option(world, o, traj, Draws(0), max_steps=5)
    assert out.missing_policy and out.duration == 0 and traj.states[-1] == 0


def test_start_outside_initiation_is_error():
    world = load_gridworld("S.G")
    o = make_option(initiation=(0,), policy={0: {1: 1.0}})
    with pytest.raises(ValueError, match="initiation"):
        run_option(world, o, Trajectory([1]), Draws(0), max_steps=5)


def test_discounted_reward_accumulation():
    world = load_gridworld("S.G")
    o = make_option(initiation=(0,), policy={0: {1: 1.0}, 1: {1: 1.0}},
                    termination={0: 0.0, 1: 0.0})
    traj = Trajectory([0])
    out = run_option(world, o, traj, Draws(0), max_steps=5)
    assert out.duration == 2
    assert traj.done


def test_smdp_update_discounts_the_option_return():
    from spectral_options.pipeline import run_episode

    world = load_gridworld("S.G")
    o = make_option(initiation=(0,), policy={0: {1: 1.0}, 1: {1: 1.0}},
                    termination={0: 0.0, 1: 0.0})
    Q = QTable(3, [o], alpha=1.0, gamma=0.5)
    log, traj = run_episode(world, Q, 0.0, Draws(0), "smdp", 10)
    assert (log.decision_epochs, log.primitive_steps) == (1, 2) and traj.done
    # Reward 0, then goal reward 1 discounted one step; the goal row is all 0.
    assert Q.get(0, option_key(0)) == 0.5


def test_run_option_appends_after_the_steps_already_taken():
    world = load_gridworld("S.G")
    o = make_option(initiation=(0,), policy={0: {1: 1.0}, 1: {1: 1.0}},
                    termination={0: 0.0, 1: 0.0})
    traj = Trajectory([0])
    traj.add(1, 0.0, 1, False)
    traj.add(3, 0.0, 0, False)
    out = run_option(world, o, traj, Draws(0), max_steps=5)
    assert out.duration == 2
    assert traj == Trajectory([0, 1, 0, 1, 2], [1, 3, 1, 1], [0.0, 0.0, 0.0, 1.0], True)


@pytest.mark.parametrize("start, max_steps, match", [(1, 5, "initiation"),
                                                     (0, 0, "max_steps")])
def test_rejected_run_leaves_trajectory_unchanged(start, max_steps, match):
    world = load_gridworld("S..G")
    o = make_option(initiation=(0,), policy={0: {1: 1.0}})
    traj = Trajectory([1 - start])
    traj.add(1 if start else 3, 0.0, start, False)
    before = copy.deepcopy(traj)
    with pytest.raises(ValueError, match=match):
        run_option(world, o, traj, Draws(0), max_steps=max_steps)
    assert traj == before


def test_missing_policy_leaves_trajectory_unchanged():
    world = load_gridworld("S..G")
    o = make_option(initiation=(1,), policy={}, termination={})
    traj = Trajectory([0])
    traj.add(1, 0.0, 1, False)
    before = copy.deepcopy(traj)
    out = run_option(world, o, traj, Draws(0), max_steps=5)
    assert out.missing_policy and out.duration == 0
    assert traj == before


def test_determinized_traverse_reaches_target_everywhere(three_rooms_options):
    world, options, chi = three_rooms_options
    assignment = cluster_of(assign_states(chi))
    for o in options:
        for s0 in o.policy:
            _, k, s_end = oracles.determinized_outcome(world, o, s0, 0.99)
            assert k <= world.n_states
            assert assignment.get(s_end) == o.target, (o.label, s0)


def test_sampled_runs_end_in_source_or_target(three_rooms_options):
    world, options, chi = three_rooms_options
    assignment = cluster_of(assign_states(chi))
    rng = Draws(7)
    target_hits = 0
    runs = 0
    for o in options:
        for s0 in sorted(o.policy):
            for _ in range(5):
                traj = Trajectory([s0])
                run_option(world, o, traj, rng, max_steps=world.n_states)
                runs += 1
                end_cluster = assignment.get(traj.states[-1])
                reached_goal = traj.done
                assert end_cluster in (o.source, o.target) or reached_goal
                if end_cluster == o.target:
                    target_hits += 1
    assert target_hits > 0.2 * runs


def test_episode_log_invariant(three_rooms_options):
    from spectral_options.pipeline import run_episode

    world, options, _ = three_rooms_options
    Q = QTable(world.n_states, options)
    rng = Draws(11)
    for _ in range(10):
        log, traj = run_episode(world, Q, 0.5, rng, "smdp", 200)
        assert log.decision_epochs <= log.primitive_steps
        assert log.primitive_steps == len(traj)


# --- hot path against the plain forms in oracles ---------------------------

def random_mu_row(rng):
    """μ over 1–4 distinct actions in random order, possibly with zero entries."""
    acts = [int(a) for a in rng.permutation(4)[:rng.integers(1, 5)]]
    w = rng.random(len(acts)) * (rng.random(len(acts)) > 0.2)
    if w.sum() == 0:
        w[0] = 1.0
    return {a: float(x) for a, x in zip(acts, w / w.sum())}


def test_option_draws_match_rng_choice():
    world = load_gridworld("S....\n.....\n.....\n....G")
    gen = np.random.default_rng(11)
    # Draws.random() is numpy's random(), and rng.choice(n, p=p) draws one.
    rng, rng_oracle = Draws(5), np.random.default_rng(5)
    for _ in range(24):
        mu = random_mu_row(gen)
        o = make_option(initiation=(0,), policy={0: mu}, termination={})
        acts, cdf = o.draw_rows[0]
        expected = np.array([mu[a] for a in acts]).cumsum()
        expected /= expected[-1]
        assert acts == list(mu) and cdf == expected.tolist()
        for _ in range(1000):
            traj = Trajectory([0])
            run_option(world, o, traj, rng, max_steps=1)
            assert traj.actions[0] == oracles.choice_draw(mu, rng_oracle)
            rng_oracle.random()          # run_option's termination draw
    assert rng.random() == rng_oracle.random()


class FixedUniforms:
    """Stands in for a Draws whose random() returns the given values."""

    def __init__(self, values):
        self.values = list(values)

    def random(self):
        return self.values.pop(0)


def test_option_draw_on_a_cdf_boundary_goes_right():
    # u equal to a cumulative entry selects the next action, as
    # searchsorted(side="right") does.
    world = load_gridworld("S....\n.....\n....G")
    mu = {3: 0.25, 0: 0.25, 2: 0.0, 1: 0.5}
    for u, action in [(0.0, 3), (0.25, 0), (0.5, 1), (0.75, 1)]:
        assert np.searchsorted([0.25, 0.5, 0.5, 1.0], u, side="right") == list(mu).index(action)
        o = make_option(initiation=(0,), policy={0: mu})
        traj = Trajectory([0])
        run_option(world, o, traj, FixedUniforms([u, 0.0]), max_steps=1)
        assert traj.actions[0] == action


def random_q_setting(gen, n_states=6, n_options=4):
    """Options with μ rows at random states, so each state offers a random
    subset of them, and a Q table with random values at random entries."""
    options = [make_option(initiation=range(n_states),
                           policy={s: random_mu_row(gen) for s in range(n_states)
                                   if gen.random() < 0.7},
                           termination={s: float(gen.random()) for s in range(n_states)
                                        if gen.random() < 0.7})
               for _ in range(n_options)]
    Q = QTable(n_states, options, alpha=0.3, gamma=0.9)
    for s, choices in enumerate(Q.available):
        for c in choices:
            if gen.random() < 0.6:
                Q.set(s, c, float(gen.normal()))
    return Q, options


@pytest.mark.parametrize("seed", range(5))
def test_updates_match_scan_oracles(seed):
    gen = np.random.default_rng(seed)
    Q, options = random_q_setting(gen)
    Q_oracle = copy.deepcopy(Q)
    available = Q.available
    n_states = len(available)
    for _ in range(300):
        s, s2, a = int(gen.integers(n_states)), int(gen.integers(n_states)), int(gen.integers(4))
        r = float(gen.normal())
        assert (intra_option_update(Q, s, a, r, s2)
                == oracles.scan_intra_option_update(Q_oracle, s, a, r, s2, options,
                                                    available[s2]))
        choice = available[s][int(gen.integers(len(available[s])))]
        k = int(gen.integers(1, 6))
        smdp_q_update(Q, s, choice, r, k, s2)
        oracles.scan_smdp_q_update(Q_oracle, s, choice, r, k, s2, available[s2])
        assert list(Q.values.items()) == list(Q_oracle.values.items())


@pytest.mark.parametrize("row", [{0: 0.5, 1: 0.6}, {0: -0.5, 1: 1.5},
                                 {0: float("nan"), 1: 1.0}, {0: float("inf")}],
                         ids=["sum", "negative", "nan", "inf"])
def test_malformed_mu_row_is_error(row):
    world = load_gridworld("S.G")
    o = make_option(initiation=(0,), policy={0: row}, termination={0: 0.0})
    with pytest.raises(ValueError):
        run_option(world, o, Trajectory([0]), Draws(0), max_steps=5)


def test_malformed_mu_row_names_option_and_state():
    world = load_gridworld("S.G")
    o = make_option(source=2, target=5, initiation=(0,),
                    policy={0: {1: 1.0}, 1: {0: 0.5, 1: 0.6}})
    with pytest.raises(ValueError, match=r"S2->S5.*state 1"):
        run_option(world, o, Trajectory([0]), Draws(0), max_steps=5)
