"""Option composition: assignments, hill-climbing policies, termination."""

import numpy as np
import pytest

from spectral_options.env import bundled_map_text, load_gridworld
from spectral_options.model import adjacency, exhaustive_model, transition_probabilities
from spectral_options.options import (
    BETA_EPS,
    assign_states,
    compose_options,
    compose_policy,
    compose_termination,
    expand_memberships,
)
from spectral_options.spectral import cluster

THREE_ROOMS = bundled_map_text("three_rooms")


@pytest.fixture(scope="module")
def three_rooms_setup():
    world = load_gridworld(THREE_ROOMS)
    model = exhaustive_model(world)
    result = cluster(adjacency(model), t_c=0.8)
    chi = expand_memberships(result.membership, result.state_ids, world.n_states)
    options = compose_options(model, result, tau_conn=0.1)
    return world, model, result, chi, options


def room_of(cell):
    r, c = cell
    if c < 6:
        return "L"
    if c == 6:
        return "d1"
    if c < 12:
        return "M"
    if c == 12:
        return "d2"
    return "R"


# --- assign_states ---------------------------------------------------------

def test_identity_membership_assigns_identity():
    idx = assign_states(np.eye(3))
    assert idx.assignment == {0: 0, 1: 1, 2: 2}
    assert idx.clusters == [[0], [1], [2]]


def test_tie_breaks_to_lowest_cluster():
    idx = assign_states(np.array([[0.5, 0.5]]))
    assert idx.assignment[0] == 0


def test_zero_rows_left_unassigned():
    idx = assign_states(np.array([[0.0, 0.0], [0.3, 0.7]]))
    assert 0 not in idx.assignment and idx.assignment[1] == 1


def test_rooms_share_cluster_labels(three_rooms_setup):
    world, _, _, chi, _ = three_rooms_setup
    idx = assign_states(chi)
    for room in ("L", "M", "R"):
        labels = {idx.assignment[s] for s, cell in enumerate(world.cells)
                  if room_of(cell) == room}
        assert len(labels) == 1, room


# --- compose_policy --------------------------------------------------------

def test_single_positive_gain_takes_all_mass():
    chi = np.array([[1.0, 0.0], [0.0, 1.0]])
    P = {(0, 1): np.array([0.0, 1.0])}
    idx = assign_states(chi)
    policy, unmodeled, ascent, fallback = compose_policy(0, 1, chi, P, idx)
    assert policy == {0: {1: 1.0}}
    assert not unmodeled and not ascent and not fallback


def test_negative_gains_clamped_to_zero():
    chi = np.array([[0.7, 0.3], [0.9, 0.1], [0.6, 0.4]])
    P = {(0, 0): np.array([0.0, 1.0, 0.0]),    # gain 0.1 − 0.3 = −0.2
         (0, 1): np.array([0.0, 0.0, 1.0])}    # gain 0.4 − 0.3 = +0.1
    idx = assign_states(chi)
    policy, _, _, _ = compose_policy(0, 1, chi, P, idx)
    assert 0 not in policy[0]
    assert policy[0][1] == pytest.approx(1.0)


def test_policy_rows_are_distributions(three_rooms_setup):
    _, _, _, _, options = three_rooms_setup
    for o in options:
        for s, mu in o.policy.items():
            assert all(p >= 0 for p in mu.values())
            assert sum(mu.values()) == pytest.approx(1.0, abs=1e-10)


def test_doorway_adjacent_state_pushes_toward_doorway(three_rooms_setup):
    world, _, _, chi, options = three_rooms_setup
    d1 = world.index[(1, 6)]
    idx = assign_states(chi)
    left = idx.assignment[world.index[(1, 1)]]
    to_left = next(o for o in options if o.target == left)
    s = world.index[(1, 7)]   # middle-room cell east of doorway d1
    west = 3
    assert to_left.policy[s] == {west: pytest.approx(1.0)}
    assert world.move(s, west) == d1


def test_unmodeled_state_excluded_and_reported(three_rooms_setup):
    world, _, _, chi, options = three_rooms_setup
    goal = next(iter(world.goals))
    idx = assign_states(chi)
    goal_cluster = idx.assignment[goal]
    for o in options:
        if o.source == goal_cluster:
            assert goal in o.initiation
            assert goal not in o.policy
            assert goal in o.unmodeled_states


def test_gain_scale_invariance():
    # Scaling the target membership column scales every gain; μ is unchanged.
    chi = np.array([[0.8, 0.2], [0.5, 0.5], [0.2, 0.8]])
    P = {(0, 0): np.array([0.0, 1.0, 0.0]),
         (0, 1): np.array([0.0, 0.0, 1.0])}
    idx = assign_states(chi)
    base, _, _, _ = compose_policy(0, 1, chi, P, idx)
    scaled = chi.copy()
    scaled[:, 1] *= 3.0
    mu, _, _, _ = compose_policy(0, 1, scaled, P, idx)
    for a in base[0]:
        assert mu[0][a] == pytest.approx(base[0][a])


# --- compose_termination ---------------------------------------------------

def test_equal_memberships_cap_at_one():
    chi = np.array([[0.5, 0.5]])
    beta = compose_termination(0, 1, chi, assign_states(chi))
    assert beta[0] == 1.0


def test_termination_formula():
    chi = np.array([[0.9, 0.1]])
    beta = compose_termination(0, 1, chi, assign_states(chi))
    assert beta[0] == pytest.approx(np.log(0.9) / np.log(0.1))


def test_deep_interior_rarely_terminates():
    chi = np.array([[1.0, 0.0]])
    beta = compose_termination(0, 1, chi, assign_states(chi))
    expected = np.log(1.0 - BETA_EPS) / np.log(BETA_EPS)
    assert beta[0] == pytest.approx(expected)
    assert beta[0] < 1e-6


def test_termination_only_tabled_inside_source(three_rooms_setup):
    _, _, _, chi, options = three_rooms_setup
    idx = assign_states(chi)
    for o in options:
        assert set(o.termination) == set(idx.clusters[o.source])
        for s, b in o.termination.items():
            assert 0.0 <= b <= 1.0
        outside = next(s for s in idx.clusters[o.target])
        assert o.termination_prob(outside) == 1.0


def test_beta_maximal_exactly_where_target_dominates(three_rooms_setup):
    _, _, _, chi, options = three_rooms_setup
    clamped = np.clip(chi, BETA_EPS, 1 - BETA_EPS)
    for o in options:
        for s, b in o.termination.items():
            if clamped[s, o.source] <= clamped[s, o.target]:
                assert b == 1.0
            else:
                assert b < 1.0


# --- compose_options on degenerate clusterings -------------------------------

def test_single_cluster_yields_no_options():
    from spectral_options.model import EstimatedModel
    from spectral_options.spectral import (
        ClusterResult, MembershipMatrix, SpectralResult, build_laplacian, connectivity)

    lap = build_laplacian(np.ones((3, 3)))
    chi = np.ones((3, 1))
    membership = MembershipMatrix(chi=chi, chi_raw=chi, vertex_indices=np.array([0]))
    result = ClusterResult(laplacian=lap, selection=None, membership=membership,
                           spectral=SpectralResult(eigenvalues=np.ones(3), Y=chi, k=1),
                           connectivity=connectivity(membership, lap))
    assert compose_options(EstimatedModel(3), result) == []


def test_disconnected_blocks_yield_no_options():
    from helpers import block_adjacency
    from spectral_options.model import EstimatedModel

    W = block_adjacency([3, 3])
    result = cluster(W, k=2)
    assert compose_options(EstimatedModel(6), result, tau_conn=0.1) == []


def test_three_rooms_have_four_options(three_rooms_setup):
    world, _, _, chi, options = three_rooms_setup
    assert len(options) == 4
    idx = assign_states(chi)
    d1 = world.index[(1, 6)]
    middle = idx.assignment[d1]
    pairs = {(o.source, o.target) for o in options}
    sides = [c for c in range(3) if c != middle]
    assert pairs == {(middle, sides[0]), (sides[0], middle),
                     (middle, sides[1]), (sides[1], middle)}


def test_initiation_states_argmax_to_source(three_rooms_setup):
    _, _, _, chi, options = three_rooms_setup
    for o in options:
        for s in o.initiation:
            assert int(np.argmax(chi[s])) == o.source


# --- execution properties --------------------------------------------------

def greedy_path(world, option, chi, s0, max_steps):
    idx = assign_states(chi)
    path = [s0]
    s = s0
    for _ in range(max_steps):
        mu = option.policy.get(s)
        if mu is None:
            break
        a = max(sorted(mu), key=lambda act: mu[act])
        s = world.move(s, a)
        path.append(s)
        if idx.assignment.get(s) == option.target:
            break
    return path


def test_greedy_execution_reaches_target_cluster(three_rooms_setup):
    world, _, _, chi, options = three_rooms_setup
    idx = assign_states(chi)
    for o in options:
        for s0 in o.policy:
            path = greedy_path(world, o, chi, s0, world.n_states)
            assert idx.assignment.get(path[-1]) == o.target, (o.label, s0)


def test_membership_monotone_until_plateau(three_rooms_setup):
    world, _, _, chi, options = three_rooms_setup
    for o in options:
        for s0 in o.policy:
            path = greedy_path(world, o, chi, s0, world.n_states)
            for prev, cur in zip(path, path[1:]):
                if prev in o.ascent_states:
                    continue
                assert chi[cur, o.target] >= chi[prev, o.target] - 1e-12


def test_no_uniform_fallback_states_on_shipped_map(three_rooms_setup):
    _, _, _, _, options = three_rooms_setup
    for o in options:
        assert not o.fallback_states
