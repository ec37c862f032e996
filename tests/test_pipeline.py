"""The online discovery loop, convergence bookkeeping, k-means, aggregation."""

import numpy as np
import pytest

from spectral_options.env import (
    _FIRST_BLOCK,
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
from spectral_options.options import Option, compose_options
from spectral_options import pipeline
from spectral_options.agents import QTable
from spectral_options.pipeline import (
    LEARNERS,
    OdstcConfig,
    aggregate_model,
    convergence_test,
    episodes_to_plateau,
    epsilon_at,
    kmeans_microstates,
    run_episode,
    run_odstc,
)

import oracles
from helpers import room_grid_text

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
    ("gamma", 1.5),
    ("alpha", 2.0),
    ("d_prior", -1.0),
    ("u_prior", -1.0),
    ("k", 1),
    ("k", -2),
    ("eps_anneal_episodes", -1),
    ("seed", -1),
])
def test_invalid_config_rejected(field, value):
    cfg = OdstcConfig(**{field: value})
    with pytest.raises(ValueError):
        cfg.validate()


def test_zero_round_budget_is_valid():
    OdstcConfig(max_rounds=0).validate()


def test_none_means_automatic_k_and_anneal(world):
    # Library callers may pass None for the two "0 = automatic" settings.
    cfg = dict(episodes_per_round=2, max_rounds=3, pcca_refresh_interval=2,
               max_steps_per_episode=100, seed=4)
    auto = run_odstc(world, OdstcConfig(k=None, eps_anneal_episodes=None, **cfg))
    zero = run_odstc(world, OdstcConfig(k=0, eps_anneal_episodes=0, **cfg))
    assert [l.cumulative_reward for l in auto.history] == \
        [l.cumulative_reward for l in zero.history]
    assert len(auto.chi_snapshots) == len(zero.chi_snapshots) == 1


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


def test_accepts_run_returns(penalized_world):
    cfg = train_config(max_rounds=2)
    res = run_odstc(penalized_world, cfg)
    returns = [l.cumulative_reward for l in res.history]
    assert isinstance(convergence_test(returns, window=10), bool)


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


# --- run_episode -------------------------------------------------------------

PIN_MAP = """\
#######
#S.#.G#
#.....#
#######
"""


def pin_options():
    """Hand-made options on PIN_MAP: no eigensolve, so no platform dependence.

    ``west`` tables β at state 6 but has no policy row there, so a run that
    continues into 6 stops flagged as missing its policy.
    """
    west = Option(source=0, target=1, initiation=frozenset({0, 1, 4, 5, 6}),
                  policy={0: {2: 1.0}, 1: {2: 0.5, 3: 0.5}, 4: {1: 1.0},
                          5: {1: 0.8, 3: 0.2}},
                  termination={0: 0.1, 1: 0.2, 4: 0.1, 5: 0.3, 6: 0.5})
    east = Option(source=1, target=0, initiation=frozenset({2, 6, 7, 8}),
                  policy={2: {1: 1.0}, 6: {1: 1.0}, 7: {1: 0.6, 0: 0.4},
                          8: {0: 1.0}},
                  termination={2: 0.0, 6: 0.1, 7: 0.2, 8: 0.0})
    return [west, east]


# Recorded per learner: (return, decisions, steps, options invoked) per
# episode, the (s, a, s') sequence per episode, and the Q entries written.
PINNED_EPISODES = {
    "flat": (
        [(-1.2500000000000004, 25, 25, []), (0.55, 10, 10, []),
         (-1.2500000000000004, 25, 25, []), (-1.2500000000000004, 25, 25, [])],
        [[(0, 0, 0), (0, 1, 1), (1, 0, 1), (1, 1, 1), (1, 2, 5), (5, 3, 4), (4, 0, 0),
          (0, 2, 4), (4, 1, 5), (5, 0, 1), (1, 3, 5), (5, 0, 1), (1, 0, 1), (1, 1, 1),
          (1, 2, 1), (1, 3, 0), (0, 3, 0), (0, 0, 0), (0, 1, 1), (1, 3, 0), (0, 2, 1),
          (1, 0, 1), (1, 1, 1), (1, 2, 0), (0, 3, 0)],
         [(0, 0, 0), (0, 3, 0), (0, 1, 1), (1, 3, 5), (5, 1, 6), (6, 1, 7), (7, 0, 2),
          (2, 0, 2), (2, 3, 2), (2, 1, 3)],
         [(0, 2, 0), (0, 0, 0), (0, 0, 0), (0, 3, 0), (0, 1, 1), (1, 2, 5), (5, 2, 5),
          (5, 1, 6), (6, 0, 6), (6, 3, 5), (5, 2, 5), (5, 3, 4), (4, 2, 4), (4, 3, 4),
          (4, 0, 0), (0, 2, 1), (1, 3, 5), (5, 1, 5), (5, 3, 4), (4, 3, 4), (4, 1, 5),
          (5, 2, 4), (4, 1, 5), (5, 0, 1), (1, 2, 5)],
         [(0, 1, 1), (1, 3, 0), (0, 2, 4), (4, 2, 4), (4, 2, 4), (4, 3, 4), (4, 0, 0),
          (0, 2, 4), (4, 2, 4), (4, 3, 4), (4, 1, 5), (5, 3, 4), (4, 1, 5), (5, 2, 5),
          (5, 2, 5), (5, 1, 6), (6, 2, 6), (6, 0, 6), (6, 1, 6), (6, 2, 6), (6, 3, 5),
          (5, 1, 6), (6, 0, 6), (6, 1, 7), (7, 0, 8)]],
        {(0, 0): -0.10346406250000001,
         (0, 1): -0.099203125,
         (1, 0): -0.0713125,
         (1, 1): -0.0713125,
         (1, 2): -0.07740625000000001,
         (5, 3): -0.09213515625000002,
         (4, 0): -0.09849777343750002,
         (0, 2): -0.09755507812500001,
         (4, 1): -0.0963203125,
         (5, 0): -0.074265625,
         (1, 3): -0.09927351562500002,
         (0, 3): -0.092746875,
         (5, 1): -0.07459375000000001,
         (6, 1): -0.049375,
         (7, 0): -0.037500000000000006,
         (2, 0): -0.025,
         (2, 3): -0.025,
         (2, 1): 0.5,
         (5, 2): -0.09357812500000001,
         (6, 0): -0.0713125,
         (6, 3): -0.06801562500000001,
         (4, 2): -0.092746875,
         (4, 3): -0.092746875,
         (6, 2): -0.04875}),
    "smdp": (
        [(0.7, 4, 7, [('S0->S1', 2), ('S0->S1', 1), ('S1->S0', 3)]),
         (0.6000000000000001, 5, 9, [('S0->S1', 2), ('S1->S0', 4)]),
         (-1.2500000000000004, 21, 25, [('S0->S1', 3), ('S0->S1', 2), ('S1->S0', 2)]),
         (0.4, 6, 13, [('S0->S1', 1), ('S0->S1', 6), ('S1->S0', 3)])],
        [[(0, 2, 4), (4, 1, 5), (5, 1, 6), (6, 2, 6), (6, 1, 7), (7, 0, 2), (2, 1, 3)],
         [(0, 0, 1), (1, 3, 0), (0, 2, 4), (4, 1, 5), (5, 2, 6), (6, 1, 7), (7, 1, 8),
          (8, 0, 8), (8, 0, 3)],
         [(0, 1, 4), (4, 1, 0), (0, 2, 4), (4, 1, 5), (5, 2, 5), (5, 2, 4), (4, 0, 0),
          (0, 2, 4), (4, 2, 4), (4, 3, 4), (4, 1, 4), (4, 1, 5), (5, 2, 5), (5, 2, 5),
          (5, 0, 1), (1, 3, 0), (0, 3, 0), (0, 0, 0), (0, 1, 4), (4, 0, 0), (0, 2, 4),
          (4, 1, 5), (5, 1, 6), (6, 1, 7), (7, 1, 8)],
         [(0, 3, 0), (0, 2, 4), (4, 2, 4), (4, 3, 4), (4, 1, 0), (0, 2, 4), (4, 1, 5),
          (5, 3, 4), (4, 1, 5), (5, 1, 6), (6, 1, 7), (7, 0, 2), (2, 1, 3)]],
        {(0, ('opt', 0)): -0.060000000000000005,
         (5, ('opt', 0)): -0.025,
         (6, 2): -0.025,
         (6, ('opt', 1)): 0.45262500000000006,
         (0, 0): -0.04875,
         (1, ('opt', 0)): -0.0475,
         (4, 1): -0.037500000000000006,
         (5, 2): -0.024345835937499994,
         (0, 1): -0.04875,
         (4, ('opt', 0)): -0.08941658893749999,
         (4, 0): -0.04875,
         (0, 2): -0.04875,
         (4, 2): -0.04875,
         (4, 3): -0.04875,
         (5, 0): -0.025,
         (1, 3): -0.025,
         (0, 3): -0.04875,
         (5, 1): 0.18897500000000006}),
    "intra_option": (
        [(0.7, 4, 7, [('S0->S1', 2), ('S0->S1', 1), ('S1->S0', 3)]),
         (-1.2500000000000004, 24, 25, [('S0->S1', 2)]),
         (0.1499999999999998, 14, 18, [('S0->S1', 2), ('S0->S1', 2), ('S1->S0', 3)]),
         (0.2499999999999999, 14, 16, [('S0->S1', 3), ('S1->S0', 1)])],
        [[(0, 2, 4), (4, 1, 5), (5, 1, 6), (6, 2, 6), (6, 1, 7), (7, 0, 2), (2, 1, 3)],
         [(0, 0, 1), (1, 3, 0), (0, 2, 4), (4, 1, 5), (5, 2, 6), (6, 0, 5), (5, 0, 1),
          (1, 0, 1), (1, 1, 1), (1, 2, 5), (5, 3, 4), (4, 0, 4), (4, 2, 5), (5, 0, 1),
          (1, 0, 1), (1, 1, 1), (1, 2, 0), (0, 1, 1), (1, 1, 1), (1, 3, 0), (0, 3, 0),
          (0, 3, 0), (0, 0, 0), (0, 1, 4), (4, 3, 4)],
         [(0, 2, 4), (4, 1, 5), (5, 3, 4), (4, 0, 0), (0, 1, 4), (4, 3, 4), (4, 2, 4),
          (4, 3, 4), (4, 1, 5), (5, 1, 6), (6, 3, 5), (5, 2, 5), (5, 3, 5), (5, 1, 6),
          (6, 2, 6), (6, 1, 7), (7, 1, 8), (8, 0, 3)],
         [(0, 0, 0), (0, 2, 4), (4, 1, 5), (5, 1, 6), (6, 0, 6), (6, 3, 5), (5, 0, 1),
          (1, 2, 5), (5, 2, 5), (5, 1, 6), (6, 1, 7), (7, 3, 6), (6, 1, 7), (7, 2, 7),
          (7, 0, 2), (2, 1, 3)]],
        {(0, ('opt', 0)): -0.09755909747907306,
         (0, 2): -0.07810781250000001,
         (4, ('opt', 0)): -0.09867500117585166,
         (4, 1): -0.07881250000000001,
         (5, ('opt', 0)): -0.06688130484358887,
         (5, 1): -0.07375000000000001,
         (6, 2): -0.04875,
         (6, ('opt', 1)): -0.069375,
         (6, 1): -0.046875,
         (7, ('opt', 1)): 0.18125,
         (7, 0): 0.18750000000000003,
         (2, ('opt', 1)): 0.75,
         (2, 1): 0.75,
         (0, 0): -0.0713125,
         (1, ('opt', 0)): -0.092171628301461,
         (1, 3): -0.037500000000000006,
         (5, 2): -0.0713125,
         (6, 0): -0.04875,
         (5, 0): -0.06625,
         (1, 0): -0.04875,
         (1, 1): -0.060625000000000005,
         (1, 2): -0.06568750000000001,
         (5, 3): -0.06625,
         (4, 0): -0.05690625000000001,
         (4, 2): -0.059437500000000004,
         (0, 1): -0.0578125,
         (0, 3): -0.04875,
         (4, 3): -0.0713125,
         (6, 3): -0.06506250000000001,
         (7, 1): -0.025,
         (8, ('opt', 1)): 0.5,
         (8, 0): 0.5,
         (7, 3): -0.044687500000000005,
         (7, 2): -0.025}),
}


@pytest.mark.parametrize("learner", sorted(PINNED_EPISODES))
def test_run_episode_pinned(learner):
    # Slip makes step() draw from the rng, so every draw of the loop is pinned.
    world = load_gridworld(PIN_MAP, step_reward=-0.05, slip_prob=0.2)
    options = [] if learner == "flat" else pin_options()
    Q = QTable(world.n_states, options, alpha=0.5, gamma=0.9)
    rng = np.random.default_rng(7)
    logs, sas = [], []
    for _ in range(4):
        log, traj = run_episode(world, Q, 0.3, rng, learner, 25)
        assert traj.states[0] == world.start
        assert len(traj) == log.primitive_steps
        ret = 0.0
        for r in traj.rewards:      # the return is summed in step order
            ret += r
        assert log.cumulative_reward == ret
        logs.append((log.cumulative_reward, log.decision_epochs,
                     log.primitive_steps, log.options_invoked))
        sas.append(list(zip(traj.states, traj.actions, traj.states[1:])))
    want_logs, want_sas, want_q = PINNED_EPISODES[learner]
    assert logs == want_logs
    assert sas == want_sas
    assert {key: v for key, v in Q.values.items() if v != 0.0} == want_q



class NumpyDraws:
    """Stand-in for the raw-block reader that passes every draw to the Generator."""

    def __init__(self, rng):
        self.random, self.integers = rng.random, rng.integers

    def close(self):
        pass


@pytest.mark.parametrize("slip_prob", [0.0, 0.1])
@pytest.mark.parametrize("learner", LEARNERS)
def test_run_episode_reader_matches_numpy_draws(learner, slip_prob, monkeypatch):
    # Oracle: the same loop drawing straight from numpy.  Episodes from pure
    # exploration to greedy run long enough to cross the reader's block ends.
    world = load_gridworld(THREE_ROOMS, step_reward=-0.05, slip_prob=slip_prob)
    options = []
    if learner != "flat":
        model = exhaustive_model(load_gridworld(THREE_ROOMS))
        options = compose_options(model, cluster(adjacency(model), t_c=0.8))

    def episodes():
        Q = QTable(world.n_states, options, alpha=0.5, gamma=0.9)
        rng = np.random.default_rng(3)
        runs = [run_episode(world, Q, eps, rng, learner, 150)
                for eps in (1.0, 0.6, 0.3, 0.1, 0.0, 1.0, 0.2, 0.05)]
        return runs, Q.rows, rng.bit_generator.state

    got = episodes()
    monkeypatch.setattr(pipeline, "_PCG64Reader", NumpyDraws)
    want = episodes()
    assert got == want
    # Every step draws at least once, so the longest episode crosses a block end.
    assert max(log.primitive_steps for log, _ in got[0]) > 2 * _FIRST_BLOCK


def test_option_with_empty_policy_row_is_not_offered():
    # An option with an empty μ row at its start state stops at once without
    # a step; offered there, the greedy choice would pick it again forever.
    world = load_gridworld("S.G")
    Q = QTable(world.n_states, [Option(0, 1, frozenset({0}), {0: {}}, {})])
    assert Q.available[0] == [0, 1, 2, 3]
    log, traj = run_episode(world, Q, 0.0, np.random.default_rng(0), "smdp", 10)
    assert (log.decision_epochs, log.primitive_steps, log.options_invoked) == (10, 10, [])


RUN_MAP = """\
##########
#S.#..#..#
#........#
#..#..#.G#
##########
"""

# Recorded per learner over a run that re-clusters at rounds 2, 4 and 6:
# (return, decisions, steps) per episode, and the Q entries the run wrote.
PINNED_RUNS = {
    "flat": (
        [(-2.000000000000001, 40, 40), (-2.000000000000001, 40, 40),
         (-2.000000000000001, 40, 40), (-2.000000000000001, 40, 40),
         (-2.000000000000001, 40, 40), (-2.000000000000001, 40, 40),
         (-0.6000000000000008, 33, 33), (-0.35000000000000053, 28, 28),
         (-2.000000000000001, 40, 40), (-2.000000000000001, 40, 40),
         (-2.000000000000001, 40, 40), (-2.000000000000001, 40, 40),
         (-2.000000000000001, 40, 40), (0.19999999999999984, 17, 17),
         (-2.000000000000001, 40, 40), (-2.000000000000001, 40, 40),
         (-2.000000000000001, 40, 40), (-0.9500000000000011, 40, 40),
         (0.04999999999999971, 20, 20), (-0.850000000000001, 38, 38),
         (-2.000000000000001, 40, 40), (-0.850000000000001, 38, 38),
         (-0.35000000000000053, 28, 28), (0.55, 10, 10)],
        {(0, 0): -0.25966622177927967, (0, 1): -0.2566309059146964,
         (0, 2): -0.25596222332686425, (0, 3): -0.2675215298446262,
         (1, 0): -0.2554208956818079, (1, 1): -0.2509601913156344,
         (1, 2): -0.22902809473469854, (1, 3): -0.25434546988255624,
         (2, 0): -0.14608479641113284, (2, 1): -0.15077518750549318,
         (2, 2): -0.12829712986408237, (2, 3): -0.14212631640625004,
         (3, 0): -0.14212631640625, (3, 1): -0.13245405468750002,
         (3, 2): -0.13059522354610062, (3, 3): -0.14987266699218754,
         (4, 0): 0.039563022705078124, (4, 1): -0.07218750000000002,
         (4, 2): 0.20949528934936523, (4, 3): -0.052500000000000005, (5, 0): -0.04875,
         (5, 1): -0.04875, (5, 2): -0.043750000000000004, (5, 3): -0.06656250000000001,
         (6, 0): -0.2440099495110154, (6, 1): -0.23937600370455941,
         (6, 2): -0.24291718114098043, (6, 3): -0.24234532097276953,
         (7, 0): -0.2299791475750484, (7, 1): -0.17801016011698634,
         (7, 2): -0.23357851315243885, (7, 3): -0.2343432850649938,
         (8, 0): -0.16603958822631837, (8, 1): -0.11838250045307934,
         (8, 2): -0.1696488367132025, (8, 3): -0.16789178491508666,
         (9, 0): -0.14557493312988284, (9, 1): 0.002092469109422679,
         (9, 2): -0.141395841796875, (9, 3): -0.15748626063098148,
         (10, 0): -0.123489900390625, (10, 1): 0.23088366451548573,
         (10, 2): -0.10786982226562503, (10, 3): -0.1296196915527344,
         (11, 0): -0.0713125, (11, 1): 0.494693266001892, (11, 2): -0.09680864955116272,
         (11, 3): -0.11873696706774142, (12, 0): 0.04021626977539062,
         (12, 1): 0.7586476962738037, (12, 2): -0.004092773437500006,
         (12, 3): -0.037500000000000006, (13, 0): -0.04875,
         (13, 1): -0.037500000000000006, (13, 2): 0.9921875,
         (13, 3): 0.23371038454284668, (14, 0): -0.23488562999763601,
         (14, 1): -0.24065854054440083, (14, 2): -0.24575608624673156,
         (14, 3): -0.24785447775965713, (15, 0): -0.23979853622285982,
         (15, 1): -0.23765990872680814, (15, 2): -0.2401017393251092,
         (15, 3): -0.24348968560576162, (16, 0): -0.14256930292968753,
         (16, 1): -0.12973908203125, (16, 2): -0.14160117421875001,
         (16, 3): -0.15374339179687502, (17, 0): -0.07480893976079751,
         (17, 1): -0.13106507031250003, (17, 2): -0.12981632031250004,
         (17, 3): -0.14222836562500002, (18, 0): -0.025, (18, 1): 0.75,
         (18, 2): 0.30000000000000004}),
    "intra_option": (
        [(-2.000000000000001, 40, 40), (-2.000000000000001, 40, 40),
         (-2.000000000000001, 40, 40), (-2.000000000000001, 40, 40),
         (-2.000000000000001, 40, 40), (-2.000000000000001, 40, 40),
         (-2.000000000000001, 30, 40), (-2.000000000000001, 25, 40),
         (-2.000000000000001, 35, 40), (-2.000000000000001, 30, 40),
         (-2.000000000000001, 33, 40), (-0.2000000000000004, 20, 25),
         (-2.000000000000001, 28, 40), (-2.000000000000001, 35, 40),
         (-2.000000000000001, 33, 40), (-2.000000000000001, 35, 40),
         (-2.220446049250313e-16, 14, 21), (-0.25000000000000044, 19, 26),
         (-0.10000000000000031, 18, 23), (0.5, 8, 11), (0.35, 13, 14), (0.35, 11, 14),
         (-0.050000000000000266, 20, 22), (0.2499999999999999, 12, 16)],
        {(0, ('opt', 1)): -0.13155307776879266, (0, 0): -0.1099761474609375,
         (0, 1): -0.1043789106179271, (0, 2): -0.10016621955621244,
         (0, 3): -0.11689750288380418, (1, ('opt', 1)): -0.11993241781957135,
         (1, 0): -0.11628353383074887, (1, 1): -0.11128857421874999,
         (1, 2): -0.12046114483090116, (1, 3): -0.11764165305323022,
         (2, ('opt', 1)): -0.11400840642814516, (2, 0): -0.10469847021484377,
         (2, 1): -0.13128865325114875, (2, 2): -0.13241018652343753,
         (2, 3): -0.12294960156250001, (3, ('opt', 1)): -0.06948641682124697,
         (3, 0): -0.12597015625, (3, 1): -0.129382734375, (3, 2): -0.07410174811637961,
         (3, 3): -0.13027732070312503, (4, 0): -0.049218750000000006,
         (4, 1): -0.05500000000000001, (4, 2): -0.07078125000000002,
         (4, 3): -0.043750000000000004, (5, 0): -0.025, (5, 1): -0.04875,
         (5, 2): 0.18125, (5, 3): -0.043750000000000004,
         (6, ('opt', 1)): -0.14335036173822596, (6, 0): -0.1361828063964844,
         (6, 1): -0.11869210052490235, (6, 2): -0.057580084228515634,
         (6, 3): -0.116662939453125, (7, ('opt', 1)): -0.1565560966904719,
         (7, 0): -0.12439738842010499, (7, 1): -0.1538250580720975,
         (7, 2): -0.0751328125, (7, 3): -0.10172229003906251,
         (8, ('opt', 1)): -0.1276908314642581, (8, 0): -0.13408520179748537,
         (8, 1): -0.12840714306832895, (8, 2): -0.13438148437500003,
         (8, 3): -0.12369677734375001, (9, ('opt', 1)): 0.017302244859516813,
         (9, 0): -0.10371814650757685, (9, 1): -0.008817301007050748,
         (9, 2): -0.11050219259033206, (9, 3): -0.14942074831954638,
         (10, ('opt', 0)): -0.1105372018310547, (10, 0): -0.11111353680419923,
         (10, 1): 0.26819270144894247, (10, 2): -0.1579153187866211,
         (10, 3): -0.11453808775086403, (11, ('opt', 0)): -0.07498661560122372,
         (11, 0): -0.10839155273437501, (11, 1): 0.5203426802635192,
         (11, 2): -0.1353783720703125, (11, 3): -0.09020514358811453,
         (12, 0): -0.049843750000000006, (12, 1): 0.5573497314453124,
         (12, 2): -0.043750000000000004, (12, 3): -0.08811901855468751,
         (13, 0): -0.037500000000000006, (13, 1): 0.18125, (13, 2): 0.90039306640625,
         (13, 3): 0.4728125, (14, ('opt', 1)): -0.10500193542176196,
         (14, 0): -0.10873264434814454, (14, 1): -0.07834375000000002,
         (14, 2): -0.0713125, (14, 3): -0.07635937500000001,
         (15, ('opt', 1)): -0.08428113474712688, (15, 0): -0.12579720153808596,
         (15, 1): -0.10835156250000003, (15, 2): -0.103078125, (15, 3): -0.08021875,
         (16, ('opt', 1)): -0.025, (16, 0): -0.1675940562216282,
         (16, 1): -0.10528229626464844, (16, 2): -0.16892150394897465,
         (16, 3): -0.16927020056762698, (17, ('opt', 1)): 0.016174328056476076,
         (17, 0): -0.05345567499528174, (17, 1): -0.1546877772216797,
         (17, 2): -0.14772155664062503, (17, 3): -0.17747534691324238,
         (18, 0): -0.07218750000000002, (18, 1): 0.75, (18, 3): -0.037500000000000006}),
    "smdp": (
        [(-2.000000000000001, 40, 40), (-2.000000000000001, 40, 40),
         (-2.000000000000001, 40, 40), (-2.000000000000001, 40, 40),
         (-2.000000000000001, 40, 40), (-2.000000000000001, 40, 40),
         (-2.000000000000001, 30, 40), (-2.000000000000001, 22, 40),
         (-2.000000000000001, 25, 40), (-2.000000000000001, 27, 40),
         (-0.6000000000000008, 26, 33), (0.19999999999999984, 9, 17), (0.4, 6, 13),
         (-0.050000000000000266, 10, 22), (0.29999999999999993, 7, 15),
         (-2.220446049250313e-16, 14, 21), (0.1499999999999998, 9, 18),
         (-2.220446049250313e-16, 9, 21), (-2.000000000000001, 35, 40),
         (-0.6500000000000008, 27, 34), (-2.000000000000001, 34, 40),
         (-2.000000000000001, 35, 40), (-2.000000000000001, 34, 40),
         (0.2499999999999999, 9, 16)],
        {(0, ('opt', 3)): -0.179310077182474, (0, 0): -0.13663612994384766,
         (0, 1): -0.12358259225845339, (0, 2): -0.11729250896453858,
         (0, 3): -0.11664256151199341, (1, 0): -0.10454641113281252,
         (1, 1): -0.11128857421874999, (1, 2): -0.06912687505371093,
         (1, 3): -0.11742572021484377, (2, ('opt', 3)): -0.05642259833203124,
         (2, 0): -0.07349854980823851, (2, 1): -0.07824138396352905,
         (2, 2): -0.07429687500000001, (2, 3): -0.06765249713430176,
         (3, ('opt', 3)): -0.08338644635401386, (3, 0): -0.060062500000000005,
         (3, 1): -0.0713125, (3, 2): -0.07702723800156093, (3, 3): -0.06876921595535887,
         (4, ('opt', 0)): 0.05410156250000001, (4, 0): -0.030888671874999996,
         (4, 1): -0.05500000000000001, (4, 2): 0.041601562500000015,
         (4, 3): -0.037500000000000006, (5, 0): -0.018779296874999993, (5, 1): -0.04875,
         (5, 2): -0.037500000000000006, (5, 3): -0.043750000000000004,
         (6, ('opt', 3)): -0.11591875000000001, (6, 0): -0.1425689288444519,
         (6, 1): -0.09283593750000001, (6, 2): -0.0664638671875,
         (6, 3): -0.09875009765625001, (7, ('opt', 3)): -0.05629037907519532,
         (7, 0): -0.1004892626953125, (7, 1): -0.07600000000000001,
         (7, 2): -0.090210234375, (7, 3): -0.06929687500000001,
         (8, ('opt', 3)): -0.09071131727316895, (8, 0): -0.10767218785633263,
         (8, 1): -0.08910156250000001, (8, 2): -0.088734375,
         (8, 3): -0.08979150390625001, (9, ('opt', 3)): -0.10299881818168945,
         (9, 0): -0.08597465356962805, (9, 1): -0.1199403251953125,
         (9, 2): -0.10386674804687501, (9, 3): -0.10519775390625,
         (10, ('opt', 3)): -0.0890506717467294, (10, 0): -0.0755054133273293,
         (10, 1): -0.09414291544845449, (10, 2): -0.08521875000000001,
         (10, 3): -0.07775168308940979, (11, ('opt', 1)): -0.08597500000000001,
         (11, ('opt', 2)): -0.08297476041296899, (11, 0): -0.09298041094562712,
         (11, 1): 0.06587890625000001, (11, 2): -0.0899793159680175,
         (11, 3): -0.0934991977998497, (12, ('opt', 1)): -0.0475, (12, 0): -0.04875,
         (12, 1): 0.4564453125, (12, 2): -0.043750000000000004, (12, 3): -0.06990625,
         (13, 0): -0.025, (13, 1): -0.037500000000000006, (13, 2): 0.875,
         (13, 3): -0.04875, (14, ('opt', 3)): -0.15716467868131526,
         (14, 0): -0.12138017578125002, (14, 1): -0.08415625, (14, 2): -0.025,
         (14, 3): -0.043750000000000004, (15, ('opt', 3)): -0.10975862500000001,
         (15, 0): -0.0765625, (15, 1): -0.08259375000000001,
         (15, 2): -0.08259375000000001, (15, 3): -0.06656250000000001,
         (16, ('opt', 3)): -0.11282718750000001, (16, 0): -0.11873303385071962,
         (16, 1): -0.12454045392548639, (16, 2): -0.12374299072265625,
         (16, 3): -0.1283815234375, (17, ('opt', 3)): -0.12090066672796021,
         (17, 0): -0.10236819076526056, (17, 1): -0.11107890625,
         (17, 2): -0.11107890625, (17, 3): -0.11723662975069886, (18, 0): -0.04875,
         (18, 1): 0.9375, (18, 3): -0.037500000000000006}),
}


@pytest.mark.parametrize("learner", sorted(PINNED_RUNS))
def test_run_odstc_pinned(learner):
    # Each re-clustering replaces the option set, so an option value that
    # outlives its option shows up in the later episodes and the final table.
    world = load_gridworld(RUN_MAP, step_reward=-0.05, slip_prob=0.1)
    config = OdstcConfig(episodes_per_round=3, max_rounds=8, pcca_refresh_interval=2,
                         k=3, max_steps_per_episode=40, convergence_window=20,
                         alpha=0.5, gamma=0.9, seed=3, learner=learner)
    res = run_odstc(world, config)
    assert res.notes == []
    assert len(res.chi_snapshots) == (0 if learner == "flat" else 3)
    want_logs, want_q = PINNED_RUNS[learner]
    assert [(l.cumulative_reward, l.decision_epochs, l.primitive_steps)
            for l in res.history] == want_logs
    written = {key: v for key, v in res.q.values.items() if v != 0.0}
    # The eigensolve may differ in the last bits between BLAS builds.
    assert written == pytest.approx(want_q, rel=1e-9, abs=1e-12)


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


def test_kmeans_matches_quadratic_seeding_oracle():
    # Grid points give duplicates and distance ties; k_m runs up to the
    # number of distinct points.
    for case in range(200):
        rng = np.random.default_rng(case)
        n, dim = int(rng.integers(1, 80)), int(rng.integers(1, 6))
        if case % 2:
            pts = rng.integers(0, 3, size=(n, dim)).astype(float)
        else:
            pts = rng.normal(size=(n, dim))
            pts[rng.integers(n, size=n // 3)] = pts[0]
        n_distinct = np.unique(pts, axis=0).shape[0]
        k_m = n_distinct if case % 3 == 0 else int(rng.integers(1, n_distinct + 1))
        max_iters = int(rng.integers(1, 20))
        micro = kmeans_microstates(pts, k_m, seed=case, max_iters=max_iters)
        want = oracles.quadratic_kmeans(pts, k_m, seed=case, max_iters=max_iters)
        assert micro.assignments.tolist() == want[0].tolist(), case
        assert micro.assignments.dtype == want[0].dtype
        assert (micro.centroids == want[1]).all() and micro.centroids.shape == want[1].shape
        assert micro.sse_history == want[2], case


def kmeans_width_cases():
    """(points, k_m, max_iters, seed): widths 1-12 at up to 500 points, so
    clusters hold more than 8 points, with k_m = 1 and k_m = the number of
    distinct points among them, plus the benchmark's 404-point (row, col) grid."""
    rng = np.random.default_rng(2024)
    cases = []
    for dim in range(1, 13):
        n = int(rng.integers(200, 501))
        spread = rng.normal(size=(n, dim)) * 10.0 ** rng.uniform(-3, 3, size=(n, dim))
        cases.append(pytest.param(spread, int(rng.integers(2, 25)), int(rng.integers(1, 30)),
                                  dim, id=f"normal-{dim}"))
        cases.append(pytest.param(spread, 1, 5, dim, id=f"one-{dim}"))
        grid = rng.integers(0, 3, size=(int(rng.integers(200, 501)), dim)).astype(float)
        n_distinct = np.unique(grid, axis=0).shape[0]
        cases.append(pytest.param(grid, min(n_distinct, 40), int(rng.integers(1, 30)),
                                  dim, id=f"grid-{dim}"))
    cells = np.array(load_gridworld(room_grid_text(2, 2, 10)).cells, dtype=float)
    assert cells.shape == (404, 2)
    cases.append(pytest.param(cells, 64, 100, 0, id="bench-grid"))
    return cases


@pytest.mark.parametrize("pts, k_m, max_iters, seed", kmeans_width_cases())
def test_kmeans_matches_oracle_across_widths(pts, k_m, max_iters, seed):
    micro = kmeans_microstates(pts, k_m, seed=seed, max_iters=max_iters)
    want = oracles.quadratic_kmeans(pts, k_m, seed=seed, max_iters=max_iters)
    assert micro.assignments.tolist() == want[0].tolist()
    assert micro.centroids.tobytes() == want[1].tobytes()
    assert micro.sse_history == want[2]


@pytest.mark.parametrize("dim", range(1, 13))
def test_squared_distances_match_numpy_sum(dim):
    # Bit-equal to numpy's own reduction, below and above the width where
    # numpy starts to sum pairwise; magnitudes spread so order matters.
    rng = np.random.default_rng(dim)
    pts = rng.normal(size=(300, dim)) * 10.0 ** rng.uniform(-4, 4, size=(300, dim))
    centroids = rng.normal(size=(40, dim)) * 10.0 ** rng.uniform(-4, 4, size=(40, dim))
    want = ((pts[:, None, :] - centroids[None]) ** 2).sum(axis=2)
    assert pipeline._sq_dists(pts, centroids).tobytes() == want.tobytes()
    one = pipeline._sq_dists(pts, centroids[:1])[:, 0]
    assert one.tobytes() == ((pts - centroids[0]) ** 2).sum(axis=1).tobytes()


@pytest.mark.parametrize("probs", [
    np.full(7, 1.0 / 7),                          # the uniform fallback
    np.array([0.0, 0.5, 0.0, 0.0, 0.5]),          # zeros first and inside
    np.array([0.0, 0.0, 1.0]),
    np.array([1.0, 0.0, 0.0]),
    np.array([0.1, 0.2, 0.3, 0.4]),
    np.random.default_rng(5).dirichlet(np.ones(404)),
])
def test_choice_index_matches_rng_choice(probs):
    for seed in range(200):
        want_rng, got_rng = np.random.default_rng(seed), np.random.default_rng(seed)
        want = want_rng.choice(len(probs), p=probs)
        got = pipeline._choice_index(got_rng, probs)
        assert got == want and type(got) is int
        assert got_rng.bit_generator.state == want_rng.bit_generator.state


def test_choice_index_on_a_cdf_boundary_goes_right():
    # A draw equal to a cumulative probability skips the zero-probability
    # entries after it, as rng.choice does.
    for seed in range(20):
        u = np.random.default_rng(seed).random()
        probs = np.array([u, 0.0, 1.0 - u])
        assert probs.cumsum()[-1] == 1.0
        want = np.random.default_rng(seed).choice(3, p=probs)
        assert pipeline._choice_index(np.random.default_rng(seed), probs) == want == 2


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_kmeans_rejects_non_finite_features(bad):
    pts = np.arange(12.0).reshape(6, 2)
    pts[3, 1] = bad
    with pytest.raises(ValueError, match="finite"):
        kmeans_microstates(pts, k_m=2)


def test_kmeans_rejects_overflowing_distances():
    # rng.choice rejected the probabilities of an infinite total.
    with np.errstate(over="ignore"), pytest.raises(ValueError, match="overflow"):
        kmeans_microstates([[-1e200], [0.0], [1e200]], k_m=2)


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
    assert np.array_equal(agg.R_sum, direct.R_sum)


def test_all_states_to_one_microstate_self_loops(world):
    trajs = sample_covering_trajectories(world, n_episodes=5)
    agg = aggregate_model(trajs, np.zeros(world.n_states, dtype=int))
    total = sum(len(t) for t in trajs)
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
    for vec in P[agg.U.sum(axis=2) > 0]:
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
    traj = Trajectory([0, 5], [1], [0.0])
    with pytest.raises(IndexError):
        aggregate_model([traj], np.zeros(1, dtype=int))


def test_negative_microstate_id_rejected(world):
    trajs = sample_covering_trajectories(world, n_episodes=5)
    assignment = np.zeros(world.n_states, dtype=int)
    assignment[world.start] = -1
    with pytest.raises(IndexError):
        aggregate_model(trajs, assignment, n_microstates=2)
