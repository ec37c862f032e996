"""PCCA+ core: Laplacian, spectral-gap k selection, simplex search, memberships."""

import warnings

import numpy as np
import pytest

from spectral_options.env import bundled_map_text, load_gridworld
from spectral_options.model import adjacency, exhaustive_model
from spectral_options.options import assign_states
from spectral_options.spectral import (
    SpectralError,
    build_laplacian,
    cluster,
    compute_memberships,
    connected_pairs,
    connectivity,
    decompose,
    find_simplex_vertices,
    select_k,
)

import oracles
from helpers import block_adjacency, cluster_of, room_grid_text

THREE_ROOMS = bundled_map_text("three_rooms")


# --- build_laplacian -------------------------------------------------------

def test_two_state_edge():
    lap = build_laplacian(np.array([[0.0, 1.0], [1.0, 0.0]]))
    np.testing.assert_allclose(lap.L, [[0.0, 1.0], [1.0, 0.0]], atol=1e-12)
    e, _ = decompose(lap)
    np.testing.assert_allclose(e, [1.0, -1.0], atol=1e-12)


def test_identity_adjacency_gives_identity():
    lap = build_laplacian(np.eye(3))
    np.testing.assert_allclose(lap.L, np.eye(3), atol=1e-12)
    e, _ = decompose(lap)
    np.testing.assert_allclose(e, np.ones(3), atol=1e-12)


def test_disconnected_cliques_have_unit_eigenvalue_multiplicity():
    W = block_adjacency([2, 2])
    e, _ = decompose(build_laplacian(W))
    assert np.sum(np.abs(e - 1.0) < 1e-9) == 2


def test_all_zero_adjacency_is_error():
    with pytest.raises(SpectralError, match="all-zero"):
        build_laplacian(np.zeros((3, 3)))


def test_negative_entry_is_error():
    with pytest.raises(SpectralError, match="negative"):
        build_laplacian(np.array([[0.0, -1.0], [-1.0, 0.0]]))


def test_asymmetric_adjacency_is_error():
    with pytest.raises(SpectralError, match="symmetric"):
        build_laplacian(np.array([[0.0, 1.0], [0.0, 0.0]]))


def test_adjacency_symmetric_within_tolerance_is_accepted():
    W = block_adjacency([3, 3], coupling=0.1)
    W[0, 1] += 1e-12
    assert W[0, 1] != W[1, 0]
    lap = build_laplacian(W)
    assert np.isfinite(lap.L).all() and lap.kept.tolist() == list(range(6))
    W[0, 1] += 1e-3
    with pytest.raises(SpectralError, match="symmetric"):
        build_laplacian(W)


@pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
def test_non_finite_adjacency_is_error(value):
    W = block_adjacency([3, 3], coupling=0.1)
    W[0, 4] = W[4, 0] = value
    with pytest.raises(SpectralError, match="non-finite"):
        cluster(W, k=2)


def test_zero_degree_states_dropped_with_remap():
    W = np.zeros((4, 4))
    W[0, 2] = W[2, 0] = 1.0   # state 1 and 3 isolated
    lap = build_laplacian(W)
    np.testing.assert_array_equal(lap.kept, [0, 2])
    assert lap.L.shape == (2, 2)


@pytest.mark.parametrize("seed", range(6))
def test_laplacian_matches_dense_oracle(seed):
    # Random symmetric weights with zero entries, zero-degree states and
    # diagonal weight; L must equal I + (W − Deg)/d_max bit for bit.
    rng = np.random.default_rng(seed)
    n = int(rng.integers(2, 60))
    W = rng.random((n, n)) * 10.0 ** rng.uniform(-3, 3, size=(n, n))
    W[rng.random((n, n)) < 0.5] = 0.0
    W = W + W.T
    isolated = rng.integers(n, size=n // 4)
    W[isolated] = 0.0
    W[:, isolated] = 0.0
    if not W.any():
        W[0, 0] = 1.0
    lap = build_laplacian(W)
    L, kept = oracles.dense_laplacian(W)
    assert np.array_equal(lap.kept, kept)
    assert lap.L.tobytes() == L.tobytes() and lap.L.shape == L.shape


def test_laplacian_is_row_stochastic_on_three_rooms():
    world = load_gridworld(THREE_ROOMS)
    lap = build_laplacian(adjacency(exhaustive_model(world)))
    np.testing.assert_allclose(lap.L.sum(axis=1), 1.0, atol=1e-12)
    assert (lap.L >= 0).all()
    e, _ = decompose(lap)
    assert abs(e[0] - 1.0) <= 1e-9


# --- select_k --------------------------------------------------------------

def test_clear_gap_at_two():
    sel = select_k([1.0, 0.99, 0.20, 0.10], t_c=0.5)
    assert sel.k == 2 and not sel.fallback
    assert sel.ratios[2] == pytest.approx(0.9875)


def test_repeated_unit_eigenvalues_defer_to_three():
    sel = select_k([1.0, 1.0, 1.0, 0.0], t_c=0.5)
    assert sel.k == 3 and not sel.fallback
    assert sel.ratios[2] == 0.0
    assert sel.ratios[3] == pytest.approx(1.0)


NEAR_SINGLETON = ("the first spectral gap ratio above t_c=0.75 gives more clusters "
                  "than half the states")


def test_near_singleton_k_is_flagged():
    # 148 eigenvalues with the only gap after the 140th: 140 clusters of 148
    # states, most of them singletons.
    e = np.concatenate([[1.0], np.linspace(0.999, 0.99, 139), np.linspace(0.3, 0.1, 8)])
    sel = select_k(e, t_c=0.75)
    assert sel.k == 140 and sel.fallback == NEAR_SINGLETON
    assert [k for k, r in sel.ratios.items() if r > 0.75] == [140]


@pytest.mark.parametrize("e, k, fallback", [
    ([1.0, 0.99, 0.98, 0.1, 0.05, 0.01], 3, None),              # k is half the count
    ([1.0, 0.99, 0.98, 0.97, 0.1, 0.05], 4, NEAR_SINGLETON),    # k is above half
], ids=["half", "above-half"])
def test_k_above_half_the_eigenvalues_is_flagged(e, k, fallback):
    sel = select_k(e, t_c=0.75)
    assert sel.k == k and sel.fallback == fallback


def test_no_gap_falls_back_to_argmax():
    sel = select_k([1.0, 0.9, 0.8, 0.7], t_c=0.99)
    assert sel.fallback == ("no spectral gap ratio exceeds t_c=0.99; fell back to "
                            "the largest ratio")
    assert sel.k == max(sel.ratios, key=lambda k: sel.ratios[k])


def test_too_few_eigenvalues_is_error():
    with pytest.raises(SpectralError, match="3 eigenvalues"):
        select_k([1.0, 0.5], t_c=0.5)


def test_threshold_out_of_range_is_error():
    with pytest.raises(SpectralError, match="t_c"):
        select_k([1.0, 0.5, 0.2], t_c=1.5)


def test_unsorted_eigenvalues_is_error():
    with pytest.raises(SpectralError, match="descending"):
        select_k([1.0, 0.2, 0.5], t_c=0.5)


# --- find_simplex_vertices -------------------------------------------------

def test_single_column_takes_max_norm():
    Y = np.array([[1.0], [3.0], [2.0]])
    assert find_simplex_vertices(Y).tolist() == [1]


def test_axis_rows_beat_interior_point():
    Y = np.array([[1.0, 0.0], [0.0, 1.0], [0.5, 0.5]])
    assert set(find_simplex_vertices(Y).tolist()) == {0, 1}


def test_block_vertices_fall_in_distinct_blocks():
    W = block_adjacency([3, 3])
    lap = build_laplacian(W)
    _, vectors = decompose(lap)
    vertices = find_simplex_vertices(vectors[:, :2])
    blocks = {v // 3 for v in vertices}
    assert blocks == {0, 1}


def test_vertex_indices_distinct():
    rng = np.random.default_rng(0)
    Y = rng.normal(size=(10, 4))
    vertices = find_simplex_vertices(Y)
    assert len(set(vertices.tolist())) == 4


@pytest.mark.parametrize("k", [2, 4, 40, 403])
def test_vertices_match_gram_solve_on_orthonormal_columns(k):
    Y, _ = np.linalg.qr(np.random.default_rng(k).normal(size=(404, k)))
    assert find_simplex_vertices(Y).tolist() == oracles.gram_simplex_vertices(Y).tolist()


def test_vertices_match_gram_solve_on_three_rooms():
    world = load_gridworld(THREE_ROOMS)
    _, vectors = decompose(build_laplacian(adjacency(exhaustive_model(world))))
    for k in (2, 3, 4, 8):
        Y = vectors[:, :k]
        assert find_simplex_vertices(Y).tolist() == oracles.gram_simplex_vertices(Y).tolist()


@pytest.mark.parametrize("Y", [
    np.array([[1.0, 0.0], [2.0, 0.0], [3.0, 0.0]]),
    np.random.default_rng(1).normal(size=(20, 2)) @ np.random.default_rng(2).normal(size=(2, 3)),
    np.zeros((4, 2)),
    np.eye(2, 3),
], ids=["zero-column", "rank-2-of-3", "all-zero", "two-rows-of-3"])
def test_rank_deficient_rows_raise_without_warning(Y):
    # rank-2-of-3 leaves round-off residuals, not exact zeros, after two picks.
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(SpectralError, match="fewer than k"):
            find_simplex_vertices(Y)


# --- compute_memberships ---------------------------------------------------

@pytest.mark.parametrize("map_text", [THREE_ROOMS, room_grid_text(2, 2, 10)],
                         ids=["three_rooms", "rooms-404"])
def test_eigenvector_signs_leave_vertices_and_memberships_unchanged(map_text):
    # eigh fixes no eigenvector's sign.  A flipped column of Y negates exactly
    # the same products in the residual updates and in Y·inv(Y[v]), so the
    # vertices and χ are bit-identical under every flip.
    world = load_gridworld(map_text)
    _, vectors = decompose(build_laplacian(adjacency(exhaustive_model(world))))
    rng = np.random.default_rng(0)
    for k in (2, 3, 4, 8, 20):
        Y = vectors[:, :k]
        vertices = find_simplex_vertices(Y)
        chi = compute_memberships(Y, vertices).chi
        for _ in range(5):
            flipped = Y * rng.choice([-1.0, 1.0], size=k)
            assert find_simplex_vertices(flipped).tolist() == vertices.tolist()
            assert np.array_equal(compute_memberships(flipped, vertices).chi, chi)


def test_unit_rows_give_identity():
    Y = np.eye(3)
    m = compute_memberships(Y, np.array([0, 1, 2]))
    np.testing.assert_allclose(m.chi, np.eye(3), atol=1e-12)


def test_singular_vertex_matrix_raises_without_warning():
    Y = np.array([[1.0, 0.0], [0.0, 1.0], [0.5, 0.5]])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(np.linalg.LinAlgError):
            compute_memberships(Y, [0, 0])


def test_disconnected_cliques_give_exact_indicators():
    W = block_adjacency([2, 2])
    result = cluster(W, k=2)
    chi = result.membership.chi
    assert set(np.round(chi.ravel(), 12)) <= {0.0, 1.0}
    labels = chi.argmax(axis=1)
    assert labels[0] == labels[1] and labels[2] == labels[3]
    assert labels[0] != labels[2]


def test_weak_coupling_keeps_interior_memberships_high():
    W = block_adjacency([4, 4], coupling=0.01)
    result = cluster(W, k=2)
    chi = result.membership.chi
    interior = [0, 1, 2, 5, 6, 7]   # nodes not on the coupling edge
    for s in interior:
        assert chi[s].max() > 0.9


def test_vertex_rows_are_unit_before_clamping():
    world = load_gridworld(THREE_ROOMS)
    result = cluster(adjacency(exhaustive_model(world)), t_c=0.8)
    m = result.membership
    for pos, v in enumerate(m.vertex_indices):
        expected = np.zeros(m.chi.shape[1])
        expected[pos] = 1.0
        np.testing.assert_allclose(m.chi_raw[v], expected, atol=1e-8)


def test_rows_on_simplex_after_clamping():
    world = load_gridworld(THREE_ROOMS)
    result = cluster(adjacency(exhaustive_model(world, v=4.0)), t_c=0.8)
    chi = result.membership.chi
    assert (chi >= 0).all() and (chi <= 1).all()
    np.testing.assert_allclose(chi.sum(axis=1), 1.0, atol=1e-10)


# --- connectivity ----------------------------------------------------------

def test_identity_membership_returns_laplacian():
    lap = build_laplacian(block_adjacency([2, 2], coupling=0.5))
    C = connectivity(np.eye(4), lap.L)
    np.testing.assert_allclose(C, lap.L, atol=1e-12)


def test_disconnected_blocks_have_zero_cross_connectivity():
    result = cluster(block_adjacency([3, 3]), k=2)
    C = result.connectivity
    assert abs(C[0, 1]) < 1e-10 and abs(C[1, 0]) < 1e-10


def test_three_rooms_connectivity_reflects_doorways():
    world = load_gridworld(THREE_ROOMS)
    result = cluster(adjacency(exhaustive_model(world)), t_c=0.8)
    pairs = connected_pairs(result.connectivity, tau_conn=0.1)
    # The middle room (the cluster holding both doorway cells) touches both
    # side rooms; the side rooms have no direct doorway to each other.
    d1 = world.index[(1, 6)]
    kept = result.state_ids.tolist()
    middle = int(result.membership.chi[kept.index(d1)].argmax())
    sides = [c for c in range(3) if c != middle]
    expected = {(middle, sides[0]), (sides[0], middle),
                (middle, sides[1]), (sides[1], middle)}
    assert set(pairs) == expected


def test_connected_pairs_threshold_is_relative():
    C = np.array([[0.9, 0.5, 0.001],
                  [0.5, 0.9, 0.04],
                  [0.001, 0.04, 0.9]])
    pairs = connected_pairs(C, tau_conn=0.1)
    assert (0, 1) in pairs and (1, 0) in pairs
    assert (0, 2) not in pairs          # 0.001 < 0.1 · 0.5
    assert (1, 2) not in pairs          # 0.04 < 0.1 · 0.5


# --- whole-stage properties ------------------------------------------------

def test_eigen_residuals_below_tolerance():
    world = load_gridworld(THREE_ROOMS)
    lap = build_laplacian(adjacency(exhaustive_model(world)))
    e, vectors = decompose(lap)
    for i in range(len(e)):
        residual = np.linalg.norm(lap.L @ vectors[:, i] - e[i] * vectors[:, i])
        assert residual <= 1e-8


def test_eigenvalues_match_dense_oracle():
    W = block_adjacency([4, 3, 5], coupling=0.05)
    lap = build_laplacian(W)
    e, _ = decompose(lap)
    oracle = np.sort(np.linalg.eigvals(lap.L).real)[::-1]
    np.testing.assert_allclose(e, oracle, atol=1e-8)


@pytest.mark.parametrize("rows, cols, side", [(2, 2, 6), (3, 3, 5)])
def test_decompose_is_eigh_reversed_through_exact_ties(rows, cols, side):
    # These exact room models have exactly tied eigenvalues; among them the
    # column order is eigh's (LAPACK's), reversed, not a sort's.
    world = load_gridworld(room_grid_text(rows, cols, side))
    lap = build_laplacian(adjacency(exhaustive_model(world)))
    e, vectors = decompose(lap)
    assert (np.diff(e) == 0).any()
    e_asc, v_asc = np.linalg.eigh(lap.L)
    assert np.array_equal(e, e_asc[::-1])
    assert np.array_equal(vectors, v_asc[:, ::-1])
    np.testing.assert_allclose(lap.L @ vectors, vectors * e, rtol=0, atol=1e-10)


@pytest.mark.parametrize("b", [2, 3, 4])
def test_exact_block_recovery(b):
    W = block_adjacency([3] * b)
    lap = build_laplacian(W)
    e, vectors = decompose(lap)
    sel = select_k(e, t_c=0.5)
    assert sel.k == b and not sel.fallback
    result = cluster(W, t_c=0.5)
    chi = result.membership.chi
    indicator = np.zeros_like(chi)
    indicator[np.arange(chi.shape[0]), chi.argmax(axis=1)] = 1.0
    np.testing.assert_allclose(chi, indicator, atol=1e-8)


def test_permutation_equivariance():
    world = load_gridworld(THREE_ROOMS)
    W = adjacency(exhaustive_model(world))
    rng = np.random.default_rng(3)
    perm = rng.permutation(W.shape[0])
    result = cluster(W, t_c=0.8)
    permuted = cluster(W[np.ix_(perm, perm)], t_c=0.8)
    chi, chi_p = result.membership.chi, permuted.membership.chi
    assert chi_p.shape == chi.shape
    # Match clusters by comparing membership columns through the permutation.
    mapping = {}
    for c in range(chi.shape[1]):
        overlaps = [np.abs(chi_p[:, cp] - chi[perm, c]).max()
                    for cp in range(chi.shape[1])]
        mapping[c] = int(np.argmin(overlaps))
        assert min(overlaps) < 1e-6
    assert sorted(mapping.values()) == list(range(chi.shape[1]))


def test_membership_continuity_in_coupling():
    drifts = []
    for eps in (1e-2, 1e-4, 1e-6):
        chi = cluster(block_adjacency([3, 3], coupling=eps), k=2).membership.chi
        indicator = np.zeros_like(chi)
        indicator[np.arange(6), chi.argmax(axis=1)] = 1.0
        drifts.append(np.abs(chi - indicator).max())
    assert drifts[0] > drifts[1] > drifts[2] or drifts[0] < 1e-12
    assert drifts[-1] < 1e-6


def test_cluster_k_bounds_checked():
    with pytest.raises(SpectralError, match="outside"):
        cluster(block_adjacency([2, 2]), k=5)


def test_cluster_chi_covers_every_state():
    # Two 3-cliques on states 1–3 and 5–7; states 0 and 4 are isolated.
    kept = [1, 2, 3, 5, 6, 7]
    W = np.zeros((8, 8))
    W[np.ix_(kept, kept)] = block_adjacency([3, 3])
    result = cluster(W)
    chi = result.chi
    assert chi.shape == (8, 2)
    np.testing.assert_array_equal(result.state_ids, kept)
    assert not chi[[0, 4]].any()
    assert np.array_equal(chi[result.state_ids], result.membership.chi)
    clusters = assign_states(chi)
    assert sorted(cluster_of(clusters)) == kept
    assert sorted(map(sorted, clusters)) == [[1, 2, 3], [5, 6, 7]]


# --- cluster count on exact room models ------------------------------------

# name -> (rows, cols, side) of a helpers.room_grid_text map; None is the
# bundled three-room map.
ROOM_MAPS = {"three_rooms": None, "1x3-side8": (1, 3, 8), "2x2-side6": (2, 2, 6),
             "2x3-side6": (2, 3, 6), "3x3-side5": (3, 3, 5)}
WRONG_K = pytest.mark.xfail(
    strict=True, reason="ROADMAP item 3 (choose k by PCCA+ crispness): at t_c = 0.5 "
    "the gap rule returns an unflagged k below the room count")


def room_map(name):
    """The world of ``ROOM_MAPS[name]`` and each state's room, None on a doorway."""
    if ROOM_MAPS[name] is None:
        world = load_gridworld(THREE_ROOMS)
        # Rooms span columns 1–5, 7–11 and 13–17; columns 6 and 12 hold doorways.
        return world, [None if c % 6 == 0 else c // 6 for _, c in world.cells]
    rows, cols, side = ROOM_MAPS[name]
    world = load_gridworld(room_grid_text(rows, cols, side))
    pitch = side + 1
    return world, [(r // pitch, c // pitch) if r % pitch and c % pitch else None
                   for r, c in world.cells]


@pytest.mark.parametrize("t_c", [pytest.param(0.5, marks=WRONG_K), 0.75])
@pytest.mark.parametrize("name", list(ROOM_MAPS))
def test_exact_room_model_has_one_cluster_per_room(name, t_c):
    world, rooms = room_map(name)
    result = cluster(adjacency(exhaustive_model(world)), t_c=t_c)
    by_room = {}
    for s, room in enumerate(rooms):
        if room is not None:
            by_room.setdefault(room, []).append(s)
    assert result.spectral.k == len(by_room) and not result.selection.fallback
    interiors = [[s for s in members if rooms[s] is not None]
                 for members in assign_states(result.chi)]
    assert sorted(m for m in interiors if m) == sorted(by_room.values())
