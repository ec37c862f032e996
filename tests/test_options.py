"""Option composition: assignments, hill-climbing policies, termination."""

import tracemalloc
from types import SimpleNamespace

import numpy as np
import pytest

from spectral_options.env import (
    Draws,
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
from spectral_options.options import (
    BETA_EPS,
    assign_states,
    compose_options,
    compose_policy,
    compose_termination,
)
from spectral_options.spectral import cluster, connected_pairs

import oracles
from helpers import room_grid_text

THREE_ROOMS = bundled_map_text("three_rooms")


@pytest.fixture(scope="module")
def three_rooms_setup():
    world = load_gridworld(THREE_ROOMS)
    model = exhaustive_model(world)
    result = cluster(adjacency(model), t_c=0.8)
    chi = result.chi
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


def test_assign_states_matches_row_loop():
    rng = np.random.default_rng(0)
    for trial in range(200):
        n, k = int(rng.integers(1, 30)), int(rng.integers(1, 6))
        # Small integer levels make exact ties common.
        chi = rng.integers(0, 3, size=(n, k)).astype(float) / 2
        chi[rng.random(n) < 0.2] = 0.0
        if trial % 2:
            chi[rng.integers(n), rng.integers(k)] = np.nan
        if trial % 5 == 0:
            chi[rng.integers(n)] = -chi[rng.integers(n)]
        idx = assign_states(chi)
        assignment, clusters = oracles.loop_assign_states(chi)
        assert list(idx.assignment.items()) == list(assignment.items())
        assert all(type(s) is int and type(c) is int for s, c in idx.assignment.items())
        assert idx.clusters == clusters


def test_rooms_share_cluster_labels(three_rooms_setup):
    world, _, _, chi, _ = three_rooms_setup
    idx = assign_states(chi)
    for room in ("L", "M", "R"):
        labels = {idx.assignment[s] for s, cell in enumerate(world.cells)
                  if room_of(cell) == room}
        assert len(labels) == 1, room


# --- compose_policy --------------------------------------------------------

def kernel_gains(rows, chi, n_actions=4):
    """Gains and observed pairs of the kernel whose nonzero rows are ``rows``.

    ``rows`` maps (s, a) to P(s, a, ·); gain[s, a, c] = Σ P(s,a,s')·χ_c(s') − χ_c(s).
    """
    n = chi.shape[0]
    P = np.zeros((n, n_actions, n))
    for (s, a), dist in rows.items():
        P[s, a] = dist
    gain = np.einsum("san,nk->sak", P, chi) - chi[:, None, :]
    return gain, P.any(axis=2)


def test_single_positive_gain_takes_all_mass():
    chi = np.array([[1.0, 0.0], [0.0, 1.0]])
    gain, observed = kernel_gains({(0, 1): np.array([0.0, 1.0])}, chi)
    idx = assign_states(chi)
    policy, unmodeled, ascent, fallback = compose_policy(0, 1, gain, observed, idx)
    assert policy == {0: {1: 1.0}}
    assert not unmodeled and not ascent and not fallback


def test_policy_normaliser_adds_gains_left_to_right():
    # sum() would compensate from Python 3.12 and give 0.6, not 0.6000000000000001.
    gain = np.zeros((1, 4, 2))
    gain[0, :3, 1] = [0.1, 0.2, 0.3]
    observed = np.array([[True, True, True, False]])
    idx = assign_states(np.array([[1.0, 0.0]]))
    policy, _, _, _ = compose_policy(0, 1, gain, observed, idx)
    total = (0.1 + 0.2) + 0.3
    assert policy == {0: {0: 0.1 / total, 1: 0.2 / total, 2: 0.3 / total}}


def test_negative_gains_clamped_to_zero():
    chi = np.array([[0.7, 0.3], [0.9, 0.1], [0.6, 0.4]])
    gain, observed = kernel_gains(
        {(0, 0): np.array([0.0, 1.0, 0.0]),    # gain 0.1 − 0.3 = −0.2
         (0, 1): np.array([0.0, 0.0, 1.0])},   # gain 0.4 − 0.3 = +0.1
        chi)
    idx = assign_states(chi)
    policy, _, _, _ = compose_policy(0, 1, gain, observed, idx)
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
    rows = {(0, 0): np.array([0.0, 1.0, 0.0]),
            (0, 1): np.array([0.0, 0.0, 1.0])}
    idx = assign_states(chi)
    base, _, _, _ = compose_policy(0, 1, *kernel_gains(rows, chi), idx)
    scaled = chi.copy()
    scaled[:, 1] *= 3.0
    mu, _, _, _ = compose_policy(0, 1, *kernel_gains(rows, scaled), idx)
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
                           spectral=SpectralResult(eigenvalues=np.ones(3), k=1),
                           connectivity=connectivity(chi, lap.L))
    assert compose_options(EstimatedModel(3), result) == []


def test_disconnected_blocks_yield_no_options():
    from helpers import block_adjacency
    from spectral_options.model import EstimatedModel

    W = block_adjacency([3, 3])
    result = cluster(W, k=2)
    assert compose_options(EstimatedModel(6), result, tau_conn=0.1) == []


def test_composition_allocates_no_dense_kernel():
    # At 1,604 states one (N, A, N) float64 array takes 82 MB.  The stand-in
    # result (one-hot room χ, every pair connected) runs no eigensolve.
    world = load_gridworld(room_grid_text(2, 2, 20))
    model = exhaustive_model(world)
    n = world.n_states
    assert n == 1604
    rooms = [(r - 1) // 21 * 2 + (c - 1) // 21 for r, c in world.cells]
    result = SimpleNamespace(chi=np.eye(4)[rooms], connectivity=1.0 - np.eye(4))
    tracemalloc.start()
    try:
        options = compose_options(model, result)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(options) == 12
    assert peak < n * 4 * n * 8 / 10


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


# --- the P·χ product against the dict-kernel oracle -----------------------

ORACLE_MAPS = {"three_rooms": (THREE_ROOMS, 3),
               "rooms_2x2": (room_grid_text(2, 2, 4), 4),
               "rooms_2x3": (room_grid_text(2, 3, 3), 6)}


def sampled_model(text, slip_prob, seed=0, episodes=40, max_steps=60):
    """Counts of uniform-random episodes whose starts cycle over the open states."""
    world = load_gridworld(text, slip_prob=slip_prob)
    model = EstimatedModel(world.n_states)
    starts = [s for s in range(world.n_states) if not world.is_terminal(s)]
    starts = [starts[e % len(starts)] for e in range(episodes)]
    update_counts(model, sample_trajectory(world, max_steps, Draws(seed), starts))
    return model


def assert_matches_dict_compose(model, result, exact):
    """compose_options against oracles.dict_compose, option by option: equal
    pairs, initiation sets, tiers and supports, and μ and β equal if ``exact``,
    else within a relative 1e-9."""
    chi = result.chi
    options = compose_options(model, result, tau_conn=0.1)
    P = oracles.dict_kernel(model)
    _, clusters = oracles.loop_assign_states(chi)
    pairs = connected_pairs(result.connectivity, 0.1)
    assert [(o.source, o.target) for o in options] == pairs
    for o in options:
        policy, unmodeled, ascent, fallback, termination = oracles.dict_compose(
            o.source, o.target, chi, P, clusters[o.source])
        assert o.initiation == frozenset(clusters[o.source])
        assert (o.unmodeled_states, o.ascent_states, o.fallback_states) == (
            unmodeled, ascent, fallback)
        assert {s: list(mu) for s, mu in o.policy.items()} == {
            s: list(mu) for s, mu in policy.items()}
        assert list(o.termination) == list(termination)
        if exact:
            assert o.policy == policy and o.termination == termination
        else:
            for s, mu in policy.items():
                assert o.policy[s] == pytest.approx(mu, rel=1e-9, abs=0)
            assert o.termination == pytest.approx(termination, rel=1e-9, abs=0)


@pytest.mark.parametrize("name", sorted(ORACLE_MAPS))
@pytest.mark.parametrize("slip_prob", [0.0, 0.1])
def test_composition_matches_dict_kernel_oracle(name, slip_prob):
    # Rows with one successor make every gain exact; otherwise the gains add
    # their entries in key order, not as a dot product per row, so values
    # agree to round-off and the tiers and supports agree exactly.
    text, k = ORACLE_MAPS[name]
    model = sampled_model(text, slip_prob)
    assert_matches_dict_compose(model, cluster(adjacency(model), k=k),
                                exact=slip_prob == 0.0)


def test_kernel_and_composition_match_oracles_on_drawn_models():
    hypothesis = pytest.importorskip("hypothesis")
    st = hypothesis.strategies

    @hypothesis.settings(max_examples=25, derandomize=True, database=None, deadline=None)
    @hypothesis.given(shape=st.tuples(st.integers(1, 2), st.integers(1, 3), st.integers(2, 5)),
                      slip_prob=st.sampled_from([0.0, 0.1, 0.3]),
                      v=st.sampled_from([0.0, 1.3]),
                      seed=st.integers(0, 2**16), episodes=st.integers(1, 40))
    def check(shape, slip_prob, v, seed, episodes):
        world = load_gridworld(room_grid_text(*shape), slip_prob=slip_prob)
        n = world.n_states
        starts = [s for s in range(n) if not world.is_terminal(s)]
        batch = sample_trajectory(world, 60, Draws(seed),
                                  [starts[e % len(starts)] for e in range(episodes)])
        model = update_counts(EstimatedModel(n, v=v), batch)
        kernel = transition_probabilities(model)
        ref = oracles.dense_counts(n, [(batch.s, batch.a, batch.s2, batch.r)])
        assert np.array_equal(oracles.densified_kernel(kernel, n), oracles.dense_kernel(ref))
        rooms = shape[0] * shape[1]
        result = cluster(adjacency(model), k=rooms if rooms > 1 else None)
        # Exact when every visited (s, a) has one successor.
        assert_matches_dict_compose(model, result, exact=bool((kernel[2] == 1.0).all()))

    check()


def test_kernel_rows_equal_dict_kernel_rows():
    model = sampled_model(THREE_ROOMS, 0.1)
    P = oracles.densified_kernel(transition_probabilities(model), model.n_states)
    rows = oracles.dict_kernel(model)
    assert set(rows) == {tuple(sa) for sa in np.argwhere(P.any(axis=2)).tolist()}
    for (s, a), dist in rows.items():
        assert np.array_equal(P[s, a], dist)


@pytest.mark.parametrize("seed", range(8))
def test_compose_policy_matches_loop_oracle(seed):
    # Gains drawn from a few values give ties and zeros, NaN and negative
    # gains are never positive, and the rest are normal draws whose totals
    # round; some rows of `observed` are empty, and the last cluster has no
    # states.
    rng = np.random.default_rng(seed)
    n, k = 60, 4
    values = [0.0, -0.0, -0.3, 0.1, 0.25, np.nan, 1e-300, 3.0]
    gain = rng.choice(values, size=(n, 4, k))
    spread = rng.random((n, 4, k)) < 0.4
    gain[spread] = rng.normal(size=spread.sum())
    observed = rng.random((n, 4)) < 0.6
    observed[rng.integers(n, size=5)] = False
    index = assign_states(np.eye(k)[rng.integers(k - 1, size=n)])
    assert index.clusters[k - 1] == []
    tiers = [0, 0, 0]
    for i in range(k):
        for j in range(k):
            if i == j:
                continue
            got = compose_policy(i, j, gain, observed, index)
            want = oracles.loop_compose_policy(i, j, gain, observed, index)
            assert [(s, list(mu.items())) for s, mu in got[0].items()] == [
                (s, list(mu.items())) for s, mu in want[0].items()]
            assert got[1:] == want[1:]
            assert all(type(s) is int for states in got[1:] for s in states)
            tiers = [t + len(states) for t, states in zip(tiers, got[1:])]
    assert all(tiers)      # unmodeled, ascent and fallback states all occur
