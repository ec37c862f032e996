"""The online discovery loop, convergence bookkeeping, k-means, aggregation."""

from dataclasses import replace

import numpy as np
import pytest

from spectral_options.env import (
    Draws,
    Trajectory,
    Transitions,
    bundled_map_text,
    load_gridworld,
    sample_trajectory,
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
from spectral_options import env, pipeline
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
    ("v", float("inf")),
    ("v", float("nan")),
    ("tau_conn", -0.1),
    ("tau_conn", float("inf")),
    ("tau_conn", float("nan")),
    ("tau_conn", 1.0),
    ("tau_conn", 2.0),
    ("gamma", 1.5),
    ("alpha", 2.0),
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


@pytest.fixture
def clusterings(monkeypatch):
    """χ of every clustering ``run_odstc`` makes, recorded by a spy on ``cluster``."""
    chis = []

    def spy(*args, **kwargs):
        result = cluster(*args, **kwargs)
        chis.append(result.chi)
        return result

    monkeypatch.setattr(pipeline, "cluster", spy)
    return chis


def test_none_means_automatic_k_and_anneal(world, clusterings):
    # Library callers may pass None for the two "0 = automatic" settings.
    cfg = dict(episodes_per_round=2, max_rounds=3, pcca_refresh_interval=2,
               max_steps_per_episode=100, seed=4)
    auto = run_odstc(world, OdstcConfig(k=None, eps_anneal_episodes=None, **cfg))
    assert len(clusterings) == 1
    zero = run_odstc(world, OdstcConfig(k=0, eps_anneal_episodes=0, **cfg))
    assert len(clusterings) == 2
    assert [l.cumulative_reward for l in auto.history] == \
        [l.cumulative_reward for l in zero.history]


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

def test_single_round_budget_learns_flat_only(world, clusterings):
    cfg = OdstcConfig(episodes_per_round=5, max_rounds=1, seed=0,
                      max_steps_per_episode=50)
    res = run_odstc(world, cfg)
    assert res.options == []
    assert len(res.history) == 5
    assert clusterings == []
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


def test_run_ended_before_first_reclustering_is_noted(world):
    # Re-clustering comes at the top of round pcca_refresh_interval, so a run
    # of that many rounds or fewer never offers options.
    cfg = OdstcConfig(episodes_per_round=4, max_rounds=3, pcca_refresh_interval=3,
                      seed=1, max_steps_per_episode=50)
    res = run_odstc(world, cfg)
    assert res.options == []
    assert res.notes == ["no re-clustering in 3 rounds (pcca_refresh_interval=3); "
                         "learned without options"]
    for change in ({"learner": "flat"}, {"max_rounds": 0}, {"max_rounds": 4}):
        assert run_odstc(world, replace(cfg, **change)).notes == [], change


def test_clustering_failure_noted_and_loop_continues(world):
    # One 1-step episode sees at most 2 states; k=5 cannot be clustered.
    cfg = OdstcConfig(episodes_per_round=1, max_rounds=2,
                      pcca_refresh_interval=1, k=5, max_steps_per_episode=1,
                      seed=0)
    res = run_odstc(world, cfg)
    assert len(res.notes) == 1 and "clustering failed" in res.notes[0]
    assert res.options == []
    assert len(res.history) == 2


def test_learner_counts_each_round_as_one_write(world, monkeypatch):
    written = []

    def spy(model, episodes):
        written.append(len(episodes))
        return update_counts(model, episodes)

    monkeypatch.setattr(pipeline, "update_counts", spy)
    cfg = OdstcConfig(episodes_per_round=4, max_rounds=3, pcca_refresh_interval=2,
                      max_steps_per_episode=50, seed=1)
    res = run_odstc(world, cfg)
    assert len(res.history) == 12 and len(written) == 3
    assert sum(written) == sum(l.primitive_steps for l in res.history)


def test_flat_learner_never_clusters(penalized_world, clusterings):
    res = run_odstc(penalized_world, train_config(learner="flat", max_rounds=10))
    assert res.options == [] and clusterings == []


def test_chi_snapshot_per_refresh(penalized_world, clusterings):
    run_odstc(penalized_world, train_config(max_rounds=9))
    assert len(clusterings) == 1
    chi = clusterings[0]
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


# Recorded per learner: (return, decisions, steps) per episode, the (s, a, s') sequence per episode, and the Q entries written.
PINNED_EPISODES = {
    "flat": (
        [(-1.2500000000000004, 25, 25), (-1.2500000000000004, 25, 25),
         (-1.2500000000000004, 25, 25), (-1.2500000000000004, 25, 25)],
        [[(0, 0, 0), (0, 1, 1), (1, 0, 1), (1, 3, 0), (0, 2, 4), (4, 1, 5), (5, 0, 1),
          (1, 1, 1), (1, 2, 5), (5, 0, 1), (1, 0, 1), (1, 1, 1), (1, 2, 5), (5, 1, 6),
          (6, 0, 6), (6, 1, 6), (6, 1, 7), (7, 0, 2), (2, 0, 2), (2, 2, 7), (7, 1, 8),
          (8, 0, 8), (8, 1, 8), (8, 2, 8), (8, 3, 7)],
         [(0, 3, 0), (0, 1, 1), (1, 3, 5), (5, 2, 5), (5, 3, 4), (4, 3, 4), (4, 0, 0),
          (0, 0, 0), (0, 2, 0), (0, 3, 0), (0, 0, 0), (0, 0, 0), (0, 1, 1), (1, 2, 5),
          (5, 1, 1), (1, 3, 0), (0, 2, 4), (4, 2, 4), (4, 1, 5), (5, 2, 5), (5, 3, 4),
          (4, 3, 4), (4, 2, 5), (5, 0, 4), (4, 0, 0)],
         [(0, 3, 0), (0, 1, 0), (0, 2, 4), (4, 1, 5), (5, 2, 5), (5, 3, 4), (4, 3, 4),
          (4, 2, 4), (4, 0, 0), (0, 3, 0), (0, 1, 1), (1, 0, 1), (1, 1, 1), (1, 2, 5),
          (5, 1, 6), (6, 2, 6), (6, 0, 6), (6, 3, 6), (6, 2, 6), (6, 3, 5), (5, 1, 6),
          (6, 0, 6), (6, 0, 6), (6, 1, 7), (7, 2, 6)],
         [(0, 2, 4), (4, 1, 5), (5, 0, 6), (6, 0, 6), (6, 2, 5), (5, 1, 6), (6, 1, 7),
          (7, 3, 6), (6, 2, 5), (5, 2, 5), (5, 1, 6), (6, 2, 6), (6, 1, 7), (7, 0, 6),
          (6, 1, 6), (6, 3, 5), (5, 2, 5), (5, 3, 4), (4, 3, 4), (4, 2, 4), (4, 0, 0),
          (0, 2, 4), (4, 1, 5), (5, 0, 1), (1, 1, 5)]],
        {(0, 0): -0.08259375000000001,
         (0, 1): -0.08710937500000002,
         (0, 2): -0.11204859375000001,
         (0, 3): -0.092746875,
         (1, 0): -0.0713125,
         (1, 1): -0.09909960937500001,
         (1, 2): -0.07696875,
         (1, 3): -0.06568750000000001,
         (2, 0): -0.025,
         (2, 2): -0.025,
         (4, 0): -0.10697812500000001,
         (4, 1): -0.10499687500000002,
         (4, 2): -0.10239234375000002,
         (4, 3): -0.092746875,
         (5, 0): -0.09332500000000002,
         (5, 1): -0.0854296875,
         (5, 2): -0.10346406250000001,
         (5, 3): -0.092746875,
         (6, 0): -0.08078125000000001,
         (6, 1): -0.081703125,
         (6, 2): -0.094629296875,
         (6, 3): -0.08758281250000001,
         (7, 0): -0.064359375,
         (7, 1): -0.025,
         (7, 2): -0.044687500000000005,
         (7, 3): -0.04609375,
         (8, 0): -0.025,
         (8, 1): -0.025,
         (8, 2): -0.025,
         (8, 3): -0.025}),
    "intra_option": (
        [(0.7, 4, 7), (-1.2500000000000004, 22, 25), (0.55, 5, 10),
         (0.29999999999999993, 8, 15)],
        [[(0, 2, 4), (4, 1, 5), (5, 1, 6), (6, 0, 6), (6, 1, 7), (7, 0, 2), (2, 1, 3)],
         [(0, 2, 4), (4, 1, 5), (5, 1, 1), (1, 2, 5), (5, 0, 6), (6, 2, 6), (6, 3, 5),
          (5, 2, 4), (4, 0, 0), (0, 0, 0), (0, 0, 0), (0, 3, 0), (0, 1, 1), (1, 0, 1),
          (1, 1, 1), (1, 1, 5), (5, 2, 5), (5, 3, 4), (4, 3, 4), (4, 2, 4), (4, 1, 5),
          (5, 0, 1), (1, 3, 0), (0, 1, 1), (1, 3, 0)],
         [(0, 3, 0), (0, 0, 1), (1, 3, 0), (0, 2, 4), (4, 1, 5), (5, 1, 6), (6, 3, 6),
          (6, 1, 7), (7, 1, 8), (8, 0, 3)],
         [(0, 2, 1), (1, 3, 0), (0, 2, 4), (4, 1, 5), (5, 1, 6), (6, 0, 6), (6, 2, 7),
          (7, 2, 7), (7, 3, 6), (6, 1, 7), (7, 0, 2), (2, 1, 2), (2, 1, 7), (7, 1, 8),
          (8, 0, 3)]],
        {(0, ('opt', 0)): -0.10834136313671877,
         (0, 0): -0.05500000000000001,
         (0, 1): -0.04875,
         (0, 2): -0.068125,
         (0, 3): -0.04875,
         (1, ('opt', 0)): -0.10879368361832031,
         (1, 0): -0.025,
         (1, 1): -0.037500000000000006,
         (1, 2): -0.025,
         (1, 3): -0.08146875,
         (2, ('opt', 1)): 0.282125,
         (2, 1): 0.28437500000000004,
         (4, ('opt', 0)): -0.08943745703125,
         (4, 0): -0.025,
         (4, 1): -0.068125,
         (4, 2): -0.025,
         (4, 3): -0.025,
         (5, ('opt', 0)): -0.061469218750000006,
         (5, 0): -0.037500000000000006,
         (5, 1): -0.06375,
         (5, 2): -0.037500000000000006,
         (5, 3): -0.025,
         (6, ('opt', 1)): -0.064,
         (6, 0): -0.04875,
         (6, 1): -0.05500000000000001,
         (6, 2): -0.037500000000000006,
         (6, 3): -0.04875,
         (7, ('opt', 1)): 0.290625,
         (7, 0): 0.18750000000000003,
         (7, 1): 0.18750000000000003,
         (7, 2): -0.025,
         (7, 3): -0.04187500000000001,
         (8, ('opt', 1)): 0.75,
         (8, 0): 0.75}),
    "smdp": (
        [(0.7, 4, 7), (0.55, 3, 10), (0.2499999999999999, 10, 16), (0.35, 9, 14)],
        [[(0, 2, 4), (4, 1, 5), (5, 1, 6), (6, 0, 6), (6, 1, 7), (7, 0, 2), (2, 1, 3)],
         [(0, 2, 4), (4, 1, 5), (5, 1, 1), (1, 2, 5), (5, 0, 6), (6, 1, 7), (7, 0, 6),
          (6, 1, 7), (7, 1, 8), (8, 0, 3)],
         [(0, 0, 0), (0, 1, 1), (1, 3, 1), (1, 2, 0), (0, 2, 4), (4, 1, 4), (4, 1, 5),
          (5, 3, 4), (4, 3, 4), (4, 1, 5), (5, 3, 4), (4, 1, 5), (5, 0, 6), (6, 1, 7),
          (7, 0, 2), (2, 1, 3)],
         [(0, 2, 4), (4, 1, 5), (5, 0, 1), (1, 1, 1), (1, 2, 5), (5, 0, 1), (1, 2, 1),
          (1, 3, 0), (0, 2, 4), (4, 1, 5), (5, 1, 6), (6, 1, 7), (7, 1, 8), (8, 0, 3)]],
        {(0, ('opt', 0)): -0.10972500000000002,
         (0, 0): -0.025,
         (0, 1): -0.025,
         (0, 2): -0.0006029687499999915,
         (1, ('opt', 0)): 0.03416528325000003,
         (1, 1): -0.025,
         (1, 2): 0.01601946875,
         (4, ('opt', 0)): 0.10664675000000003,
         (4, 3): -0.025,
         (5, ('opt', 0)): -0.025,
         (5, 0): 0.027785948437500013,
         (5, 3): -0.0212353125,
         (6, ('opt', 1)): 0.25895625,
         (6, 0): -0.025,
         (7, ('opt', 1)): 0.425}),
}


@pytest.mark.parametrize("learner", sorted(PINNED_EPISODES))
def test_run_episode_pinned(learner):
    # Slip makes step() draw from the rng, so every draw of the loop is pinned.
    world = load_gridworld(PIN_MAP, step_reward=-0.05, slip_prob=0.2)
    options = [] if learner == "flat" else pin_options()
    Q = QTable(world.n_states, options, alpha=0.5, gamma=0.9)
    rng = Draws(7)
    logs, sas = [], []
    for _ in range(4):
        log, traj = run_episode(world, Q, 0.3, rng, learner, 25)
        assert traj.states[0] == world.start
        assert len(traj) == log.primitive_steps
        ret = 0.0
        for r in traj.rewards:      # the return is summed in step order
            ret += r
        assert log.cumulative_reward == ret
        logs.append((log.cumulative_reward, log.decision_epochs, log.primitive_steps))
        sas.append(list(zip(traj.states, traj.actions, traj.states[1:])))
    want_logs, want_sas, want_q = PINNED_EPISODES[learner]
    assert logs == want_logs
    assert sas == want_sas
    assert {key: v for key, v in Q.values.items() if v != 0.0} == want_q



class NumpyDraws:
    """Stand-in for Draws that takes each draw straight from numpy's PCG64:
    random() from the Generator, integers(n) from its bit generator's raws,
    one at a time."""

    def __init__(self, seed):
        rng = np.random.default_rng(seed)
        raws = iter(lambda: int(rng.bit_generator.random_raw()), None)
        self.random = rng.random
        self.integers = lambda n: oracles.bounded_draw(raws, n)


@pytest.mark.parametrize("slip_prob", [0.0, 0.1])
@pytest.mark.parametrize("learner", LEARNERS)
def test_run_episode_reader_matches_numpy_draws(learner, slip_prob, monkeypatch):
    # Oracle: the same loop drawing straight from numpy's PCG64.  Episodes
    # from pure exploration to greedy cross many ends of 7-raw blocks.
    world = load_gridworld(THREE_ROOMS, step_reward=-0.05, slip_prob=slip_prob)
    options = []
    if learner != "flat":
        model = exhaustive_model(load_gridworld(THREE_ROOMS))
        options = compose_options(model, cluster(adjacency(model), t_c=0.8))

    def episodes(rng):
        Q = QTable(world.n_states, options, alpha=0.5, gamma=0.9)
        runs = [run_episode(world, Q, eps, rng, learner, 150)
                for eps in (1.0, 0.6, 0.3, 0.1, 0.0, 1.0, 0.2, 0.05)]
        return runs, Q.rows, rng.random()

    want = episodes(NumpyDraws(3))
    assert episodes(Draws(3)) == want
    monkeypatch.setattr(env, "_BLOCK", 7)
    assert episodes(Draws(3)) == want


def test_option_with_empty_policy_row_is_not_offered():
    # An option with an empty μ row at its start state stops at once without
    # a step; offered there, the greedy choice would pick it again forever.
    world = load_gridworld("S.G")
    Q = QTable(world.n_states, [Option(0, 1, frozenset({0}), {0: {}}, {})])
    assert Q.available[0] == [0, 1, 2, 3]
    log, traj = run_episode(world, Q, 0.0, Draws(0), "smdp", 10)
    assert (log.decision_epochs, log.primitive_steps) == (10, 10)
    assert traj.actions == [0] * 10


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
         (-2.000000000000001, 40, 40), (-0.25000000000000044, 26, 26),
         (-2.000000000000001, 40, 40), (-2.000000000000001, 40, 40),
         (-2.000000000000001, 40, 40), (-2.000000000000001, 40, 40),
         (-2.000000000000001, 40, 40), (0.19999999999999984, 17, 17),
         (-2.220446049250313e-16, 21, 21), (-2.000000000000001, 40, 40),
         (-0.7500000000000009, 36, 36), (-0.9500000000000011, 40, 40),
         (-2.000000000000001, 40, 40), (0.2499999999999999, 16, 16),
         (-2.000000000000001, 40, 40), (-2.000000000000001, 40, 40),
         (-0.10000000000000031, 23, 23), (-0.25000000000000044, 26, 26),
         (0.19999999999999984, 17, 17), (0.4, 13, 13), (0.35, 14, 14),
         (0.29999999999999993, 15, 15)],
        {(0, 0): -0.2507809114585457,
         (0, 1): -0.2431218127523958,
         (0, 2): -0.24128287139971358,
         (0, 3): -0.2489181472755198,
         (1, 0): -0.22214352969229686,
         (1, 1): -0.23624735064670224,
         (1, 2): -0.2140719353811808,
         (1, 3): -0.23855670207627466,
         (2, 0): -0.11890527343750003,
         (2, 1): -0.13112669921875003,
         (2, 2): -0.10233829101562501,
         (2, 3): -0.11486170794677736,
         (3, 0): -0.12248707031250002,
         (3, 1): -0.13531046875000002,
         (3, 2): 0.06414851719970706,
         (3, 3): -0.12202441406250003,
         (6, 0): -0.24135933814927207,
         (6, 1): -0.21965524215211085,
         (6, 2): -0.22519637549698848,
         (6, 3): -0.23071406011251622,
         (7, 0): -0.22433436951328506,
         (7, 1): -0.09506236135363094,
         (7, 2): -0.21323708160888297,
         (7, 3): -0.2068525653333588,
         (8, 0): -0.1816868493015594,
         (8, 1): 0.04856609278597696,
         (8, 2): -0.16497523362487795,
         (8, 3): -0.17687653838806155,
         (9, 0): -0.1280886191210747,
         (9, 1): 0.21918300466108329,
         (9, 2): -0.1399330314397812,
         (9, 3): -0.1406123001113129,
         (10, 0): -0.1325726669921875,
         (10, 1): 0.39215938705444336,
         (10, 2): -0.11644246093750002,
         (10, 3): -0.13453943728637696,
         (11, 0): 0.22753823693847658,
         (11, 1): 0.5452250226135253,
         (11, 2): 0.21599173040771485,
         (11, 3): 0.10968254089355473,
         (12, 1): 0.40625,
         (12, 2): 0.7695199127197265,
         (12, 3): -0.025,
         (13, 2): 0.9375,
         (14, 0): -0.2353077411668112,
         (14, 1): -0.22884410973468586,
         (14, 2): -0.22465425811699807,
         (14, 3): -0.22657275985020198,
         (15, 0): -0.190428519323267,
         (15, 1): -0.21760170332023243,
         (15, 2): -0.22093410708175876,
         (15, 3): -0.22299411412578782,
         (16, 0): -0.1344165239105225,
         (16, 1): -0.13182334960937503,
         (16, 2): -0.14830101953125002,
         (16, 3): -0.15607224633865358,
         (17, 0): 0.002926966552734389,
         (17, 1): -0.125560283203125,
         (17, 2): -0.11696705078125,
         (17, 3): -0.14395254296875,
         (18, 0): -0.025,
         (18, 1): 0.9797700805664062,
         (18, 2): 0.6146722900390624}),
    "intra_option": (
        [(-2.000000000000001, 40, 40), (-2.000000000000001, 40, 40),
         (-2.000000000000001, 40, 40), (-0.25000000000000044, 26, 26),
         (-2.000000000000001, 40, 40), (-2.000000000000001, 40, 40), (0.35, 7, 14),
         (-0.35000000000000053, 17, 28), (-0.6000000000000008, 26, 33),
         (-0.25000000000000044, 18, 26), (-0.7000000000000008, 26, 35),
         (-2.000000000000001, 34, 40), (0.19999999999999984, 6, 17),
         (0.29999999999999993, 8, 15), (-0.6500000000000008, 21, 34),
         (-0.25000000000000044, 23, 26), (0.2499999999999999, 3, 16),
         (0.45000000000000007, 11, 12), (-2.000000000000001, 24, 40),
         (0.29999999999999993, 13, 15), (-0.10000000000000031, 15, 23),
         (0.45000000000000007, 9, 12), (0.04999999999999971, 17, 20),
         (0.45000000000000007, 9, 12)],
        {(0, ('opt', 1)): -0.051286303979432166,
         (0, 0): -0.07590098148074455,
         (0, 1): -0.04935205506988666,
         (0, 2): -0.08473690670608522,
         (0, 3): -0.109704296875,
         (1, ('opt', 1)): 0.006287519718216495,
         (1, 0): -0.08509218750000001,
         (1, 1): -0.092746875,
         (1, 2): 0.00663065758533898,
         (1, 3): -0.10654086914062501,
         (2, ('opt', 2)): -0.08468711857878872,
         (2, ('opt', 3)): -0.04885630377306188,
         (2, 0): -0.07511718750000002,
         (2, 1): -0.025092496172046903,
         (2, 2): 0.09406414111255618,
         (2, 3): -0.07500000000000001,
         (3, ('opt', 3)): -0.03849480586963459,
         (3, 0): -0.0034945682118970034,
         (3, 1): -0.0713125,
         (3, 2): 0.2554922018040381,
         (3, 3): 0.013693794728447596,
         (4, ('opt', 0)): -0.033965669293809106,
         (4, 0): -0.037500000000000006,
         (4, 1): 0.6744242797851562,
         (4, 3): 0.012398437499999991,
         (5, ('opt', 0)): 0.0013124310908238703,
         (5, 0): 0.24620654296874997,
         (5, 1): -0.025,
         (5, 2): 0.8396669158935546,
         (5, 3): -0.037500000000000006,
         (6, 0): -0.12169233398437501,
         (6, 1): -0.04991003492948905,
         (6, 2): -0.103887890625,
         (6, 3): -0.092746875,
         (7, ('opt', 1)): 0.13730659692531197,
         (7, 0): -0.09807890625000001,
         (7, 1): 0.1374445703356052,
         (7, 2): -0.07711175781250001,
         (7, 3): -0.08980468750000001,
         (8, ('opt', 2)): 0.025602722733268156,
         (8, ('opt', 3)): 0.0922040058800934,
         (8, 0): 0.11062354421024914,
         (8, 1): 0.24313424472184786,
         (8, 2): 0.09477584682071388,
         (8, 3): 0.037616304662694514,
         (9, ('opt', 2)): 0.19235411322825963,
         (9, ('opt', 3)): 0.08108159554967134,
         (9, 0): -0.06686965660858156,
         (9, 1): 0.30258796163856533,
         (9, 2): 0.031841819209460796,
         (9, 3): 0.13817126706452734,
         (10, ('opt', 2)): 0.32735888319431317,
         (10, ('opt', 3)): 0.023431049670970813,
         (10, 0): 0.0024937130381029876,
         (10, 1): 0.36243904889604617,
         (10, 2): -0.07620647705078126,
         (10, 3): 0.2324528488940522,
         (11, ('opt', 2)): 0.42667073035342573,
         (11, 0): 0.437972180256203,
         (11, 1): 0.4317540712374042,
         (11, 2): 0.4238820807325055,
         (11, 3): 0.1943191675147396,
         (12, ('opt', 0)): 0.3404614564133813,
         (12, 0): 0.5313399728393554,
         (12, 1): 0.42794180512262525,
         (12, 2): 0.08460546874999998,
         (12, 3): 0.3878804790257424,
         (13, 0): 0.5012255859374999,
         (13, 1): 0.3125,
         (13, 2): 0.9999847412109375,
         (13, 3): 0.5524228027343749,
         (14, 0): -0.1288653356933594,
         (14, 1): -0.06519676876642252,
         (14, 2): -0.10058906250000002,
         (14, 3): -0.09782343750000001,
         (15, ('opt', 1)): 0.026044394194586415,
         (15, 0): -0.013894231646756683,
         (15, 1): -0.105748515625,
         (15, 2): -0.09674765625000001,
         (15, 3): -0.10434155864020264,
         (16, ('opt', 2)): -0.07894496250984505,
         (16, ('opt', 3)): -0.04354759691346248,
         (16, 0): 0.1200014918648222,
         (16, 1): 0.16660970989582838,
         (16, 2): -0.108540625,
         (16, 3): -0.10346406250000001,
         (17, ('opt', 2)): 0.08444339536414312,
         (17, ('opt', 3)): -0.05110689874131531,
         (17, 0): 0.27795566311989994,
         (17, 1): -0.092746875,
         (17, 2): -0.02483731694208001,
         (17, 3): -0.06841691894531252,
         (18, ('opt', 0)): 0.0641893538745845,
         (18, 0): 0.4479456532538985,
         (18, 1): 0.5}),
    "smdp": (
        [(-2.000000000000001, 40, 40), (-2.000000000000001, 40, 40),
         (-2.000000000000001, 40, 40), (-0.25000000000000044, 26, 26),
         (-2.000000000000001, 40, 40), (-2.000000000000001, 40, 40), (0.35, 7, 14),
         (-0.35000000000000053, 17, 28), (-0.35000000000000053, 18, 28),
         (-0.35000000000000053, 22, 28), (0.35, 8, 14), (-0.2000000000000004, 18, 25),
         (0.5, 6, 11), (0.09999999999999976, 13, 19), (0.6000000000000001, 5, 9),
         (0.4, 7, 13), (0.5, 6, 11), (0.35, 5, 14), (-0.35000000000000053, 19, 28),
         (0.2499999999999999, 10, 16), (0.2499999999999999, 10, 16),
         (0.45000000000000007, 10, 12), (0.6000000000000001, 7, 9),
         (0.29999999999999993, 13, 15)],
        {(0, ('opt', 3)): -0.14966329448906251,
         (0, 0): -0.0961389959716797,
         (0, 1): -0.09864733886718752,
         (0, 2): -0.09302280578613281,
         (0, 3): -0.10669833984375,
         (1, ('opt', 3)): -0.0475,
         (1, 0): -0.07384218750000002,
         (1, 1): -0.06065625,
         (1, 2): -0.08075830078125001,
         (1, 3): -0.0792578125,
         (2, 0): -0.056933593750000004,
         (2, 1): -0.046875,
         (2, 2): -0.06062500000000001,
         (2, 3): -0.07500000000000001,
         (3, ('opt', 3)): 0.10507285406188968,
         (3, 0): -0.054843750000000004,
         (3, 1): -0.04875,
         (3, 2): -0.052187500000000005,
         (3, 3): -0.056171875,
         (4, ('opt', 0)): 0.4169922032165527,
         (4, 0): 0.15792940867614744,
         (4, 1): -0.025,
         (4, 3): -0.025,
         (5, 0): -0.025,
         (5, 1): -0.025,
         (5, 2): 0.6854787826538086,
         (5, 3): -0.025,
         (6, ('opt', 3)): -0.10237750000000001,
         (6, 0): -0.12169233398437501,
         (6, 1): -0.03589096983044357,
         (6, 2): -0.0938203125,
         (6, 3): -0.092746875,
         (7, ('opt', 3)): -0.02301467069549261,
         (7, 0): -0.09807890625000001,
         (7, 1): -0.07678125000000001,
         (7, 2): -0.07516371625171876,
         (7, 3): -0.06990234375000001,
         (8, ('opt', 3)): -0.06775,
         (8, 0): -0.03970160288059844,
         (8, 1): -0.07632812500000001,
         (8, 2): -0.06852643796874999,
         (8, 3): -0.061828125000000005,
         (9, ('opt', 3)): 0.12255760774226385,
         (9, 0): -0.0559375,
         (9, 1): -0.008211483398437476,
         (9, 2): -0.05812500000000001,
         (9, 3): -0.060937500000000006,
         (10, 0): -0.07412500000000001,
         (10, 1): 0.3576031472511292,
         (10, 2): -0.05500000000000001,
         (10, 3): -0.02853039755859374,
         (11, 0): 0.31167968749999997,
         (11, 1): 0.5638959888267516,
         (11, 2): 0.19830154069519046,
         (11, 3): -0.014103749999999995,
         (12, ('opt', 1)): 0.20108063964843756,
         (12, 0): 0.1293562438964844,
         (12, 1): 0.35346176147460934,
         (12, 2): -0.037500000000000006,
         (12, 3): 0.36142929687500003,
         (13, 0): 0.14109375000000002,
         (13, 1): 0.6348046875,
         (13, 2): 0.9574492835998535,
         (13, 3): 0.23394042968750003,
         (14, 0): -0.11008125000000002,
         (14, 1): -0.08194843750000001,
         (14, 2): -0.08218750000000001,
         (14, 3): -0.07665625000000001,
         (15, 0): -0.07159375000000001,
         (15, 1): -0.056578125,
         (15, 2): -0.07911684125171876,
         (15, 3): -0.06625,
         (16, ('opt', 3)): 0.04389999067382813,
         (16, 0): -0.05500000000000001,
         (16, 1): -0.05828125000000001,
         (16, 2): -0.04875,
         (16, 3): -0.025,
         (17, 0): 0.1538324040351868,
         (17, 1): -0.025,
         (17, 2): -0.05824218750000001,
         (17, 3): -0.04875,
         (18, ('opt', 1)): 0.1171364678085327,
         (18, 0): -0.025}),
}


@pytest.mark.parametrize("learner", sorted(PINNED_RUNS))
def test_run_odstc_pinned(learner, clusterings):
    # Each re-clustering replaces the option set, so an option value that
    # outlives its option shows up in the later episodes and the final table.
    world = load_gridworld(RUN_MAP, step_reward=-0.05, slip_prob=0.1)
    config = OdstcConfig(episodes_per_round=3, max_rounds=8, pcca_refresh_interval=2,
                         k=3, max_steps_per_episode=40, convergence_window=20,
                         alpha=0.5, gamma=0.9, seed=3, learner=learner)
    res = run_odstc(world, config)
    assert res.notes == []
    assert len(clusterings) == (0 if learner == "flat" else 3)
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
    # Bit-equal to the column-by-column sum at every width, and equal to
    # numpy's own reduction up to round-off; magnitudes spread so order matters.
    rng = np.random.default_rng(dim)
    pts = rng.normal(size=(300, dim)) * 10.0 ** rng.uniform(-4, 4, size=(300, dim))
    centroids = rng.normal(size=(40, dim)) * 10.0 ** rng.uniform(-4, 4, size=(40, dim))
    got = pipeline._sq_dists(pts, centroids)
    assert got.tobytes() == oracles.column_sq_dists(pts, centroids).tobytes()
    assert np.allclose(got, ((pts[:, None, :] - centroids[None]) ** 2).sum(axis=2),
                       rtol=1e-12, atol=0)


def test_one_column_centroid_is_the_sequential_mean():
    # 1.0 and then fifteen 2⁻⁵³: added one after another from 0.0, each small
    # term rounds away, while numpy's pairwise mean keeps some of them.
    pts = np.array([1.0] + [2.0 ** -53] * 15)
    total = 0.0
    for x in pts:
        total += x
    assert total / pts.size != pts.mean()
    micro = kmeans_microstates(pts, k_m=1, seed=0)
    assert micro.centroids.tolist() == [[total / pts.size]]


@pytest.mark.parametrize("probs", [
    np.full(7, 1.0 / 7),                          # the uniform fallback
    np.array([0.0, 0.5, 0.0, 0.0, 0.5]),          # zeros first and inside
    np.array([0.0, 0.0, 1.0]),
    np.array([1.0, 0.0, 0.0]),
    np.array([0.1, 0.2, 0.3, 0.4]),
    np.random.default_rng(5).dirichlet(np.ones(404)),
])
def test_choice_index_matches_rng_choice(probs):
    # Draws.random() is numpy's random(), and rng.choice(n, p=p) draws one.
    for seed in range(200):
        want_rng, got_rng = np.random.default_rng(seed), Draws(seed)
        want = want_rng.choice(len(probs), p=probs)
        got = pipeline._choice_index(got_rng, probs)
        assert got == want and type(got) is int
        assert got_rng.random() == want_rng.random()


def test_choice_index_on_a_cdf_boundary_goes_right():
    # A draw equal to a cumulative probability skips the zero-probability
    # entries after it, as rng.choice does.
    for seed in range(20):
        u = np.random.default_rng(seed).random()
        probs = np.array([u, 0.0, 1.0 - u])
        assert probs.cumsum()[-1] == 1.0
        want = np.random.default_rng(seed).choice(3, p=probs)
        assert pipeline._choice_index(Draws(seed), probs) == want == 2


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

def sample_covering_episodes(world, n_episodes=60, max_steps=100, seed=0):
    """Uniform-random episodes, one batch each, whose starts cycle over the open states."""
    rng = Draws(seed)
    starts = [s for s in range(world.n_states) if not world.is_terminal(s)]
    return [sample_trajectory(world, max_steps, rng, [starts[e % len(starts)]])
            for e in range(n_episodes)]


def test_identity_assignment_reproduces_model(world):
    episodes = sample_covering_episodes(world, n_episodes=10)
    direct = EstimatedModel(world.n_states)
    for e in episodes:
        update_counts(direct, e)
    agg = aggregate_model(episodes, np.arange(world.n_states),
                          n_microstates=world.n_states)
    assert np.array_equal(agg.R_count, direct.R_count)
    assert np.array_equal(agg.R_sum, direct.R_sum)


def test_all_states_to_one_microstate_self_loops(world):
    episodes = sample_covering_episodes(world, n_episodes=5)
    agg = aggregate_model(episodes, np.zeros(world.n_states, dtype=int))
    total = sum(map(len, episodes))
    assert agg.R_count.shape == (1, 4, 1)
    assert agg.R_count.sum() == total


def test_room_assignment_yields_three_node_chain(world):
    room_ids = {"L": 0, "d1": 0, "M": 1, "d2": 1, "R": 2}
    assignment = np.array([room_ids[room_of(world.cells[s])]
                           for s in range(world.n_states)])
    episodes = sample_covering_episodes(world)
    agg = aggregate_model(episodes, assignment, n_microstates=3)
    A = adjacency(agg)
    assert A[0, 1] > 0 and A[1, 2] > 0          # chain links exist
    assert A[0, 2] == 0 and A[2, 0] == 0        # no room skips a neighbor
    # downstream stages operate unchanged: probabilities remain normalized
    P = oracles.densified_kernel(transition_probabilities(agg), agg.n_states)
    for vec in P[agg.R_count.sum(axis=2) > 0]:
        assert vec.sum() == pytest.approx(1.0)


def test_chain_memberships_are_exact_indicators(world):
    room_ids = {"L": 0, "d1": 0, "M": 1, "d2": 1, "R": 2}
    assignment = np.array([room_ids[room_of(world.cells[s])]
                           for s in range(world.n_states)])
    agg = aggregate_model(sample_covering_episodes(world), assignment,
                          n_microstates=3)
    result = cluster(adjacency(agg), k=3)
    chi = result.membership.chi
    assert np.allclose(np.sort(chi, axis=1)[:, :-1], 0.0, atol=1e-8)
    assert np.allclose(chi.max(axis=1), 1.0, atol=1e-8)


def test_unassigned_state_rejected():
    batch = Transitions.of([Trajectory([0, 5], [1], [0.0])])
    with pytest.raises(IndexError):
        aggregate_model([batch], np.zeros(1, dtype=int))


@pytest.mark.parametrize("states, actions", [([0, -1, 1], [1, 2]), ([3, 1, 2], [0, 0])],
                         ids=["negative", "past_the_end"])
def test_state_outside_assignments_rejected_before_counting(monkeypatch, states, actions):
    # A negative state once wrapped round to assignments[-1] and was counted.
    writes = []
    monkeypatch.setattr(pipeline, "_add_counts", lambda *args: writes.append(args))
    batch = Transitions.of([Trajectory(states, actions, [0.0, 0.0])])
    with pytest.raises(IndexError, match="state out of range"):
        aggregate_model([batch], np.arange(3))
    assert writes == []
    with pytest.raises(IndexError):
        update_counts(EstimatedModel(3), batch)


def test_negative_microstate_id_rejected(world):
    episodes = sample_covering_episodes(world, n_episodes=5)
    assignment = np.zeros(world.n_states, dtype=int)
    assignment[world.start] = -1
    with pytest.raises(IndexError):
        aggregate_model(episodes, assignment, n_microstates=2)
