"""Independent oracles: the dense count arrays written by np.add.at, with the
kernel and triplet CSV read from them, the (N, A, N) array of a kernel given
by its stored entries, the reward-weighted adjacency rebuilt from scratch,
dense value iteration for the flat MDP and for the determinized
option-augmented SMDP, the plain forms of the learner's hot path (an
option action drawn with ``rng.choice``, a bounded integer drawn by
Lemire's method in Python integers, Q updates that scan with
``QTable.get``, a move computed from cell coordinates), a uniform-random
episode walked one ``env.step`` at a time, the row-by-row
argmax assignment of states to clusters, k-means with k-means++ seeding
that measures each point against every chosen centroid in every round and
adds each centroid's members one row at a time, and
option composition over a dict of one dense kernel row per visited (s, a),
with one dot product per state, action and option and one scalar log pair
per termination entry, the per-state loop that builds an option's μ table
from a gain array, the walk operator built as I + (W − Deg)/d_max, and the
greedy simplex vertex search that solves the chosen rows' Gram system once
per vertex.

These deliberately avoid the package's model and learning code: the
adjacency is recomputed from the full count arrays, and backups are written
directly from the Bellman equations so agent updates can be checked against
them.  The SMDP is determinized by following each option's argmax-probability
action and terminating only where termination is certain (β = 1) or the
episode ends, which makes every option outcome a pure function of its start
state.  The hot-path forms use only ``QTable.get``/``set`` and the world's
cell tables, so the learner's cached rows and direct reads are checked for
equal draws and bit-equal values against them.
"""

import csv
import io
from types import SimpleNamespace

import numpy as np

from spectral_options.env import DELTAS, N_ACTIONS, Draws, Trajectory, step
from spectral_options.options import BETA_EPS


def dense_counts(n_states, batches, *, v=0.0):
    """A model-like record of dense (N, A, N) R_count and R_sum.

    Each (s, a, s', reward_sum) batch adds one visit and its reward_sum per
    step with np.add.at, in order, so repeated transitions sum in the order
    they were written.
    """
    R_sum = np.zeros((n_states, N_ACTIONS, n_states))
    R_count = np.zeros((n_states, N_ACTIONS, n_states))
    for s, a, s2, reward_sum in batches:
        idx = tuple(np.asarray(x, dtype=np.intp) for x in (s, a, s2))
        np.add.at(R_sum, idx, reward_sum)
        np.add.at(R_count, idx, 1.0)
    return SimpleNamespace(n_states=n_states, v=v, R_count=R_count, R_sum=R_sum)


def dense_kernel(counts):
    """P = R_count / Σ_{s'} R_count over dense_counts; unvisited rows stay zero."""
    P = counts.R_count.copy()
    totals = P.sum(axis=2, keepdims=True)
    return np.divide(P, totals, out=P, where=totals > 0)


def densified_kernel(kernel, n_states):
    """The (N, A, N) array of a kernel given as entries (sa, s2, p), sa = s·A + a;
    zero where there is no entry."""
    sa, s2, p = kernel
    P = np.zeros((n_states * N_ACTIONS, n_states))
    P[sa, s2] = p
    return P.reshape(n_states, N_ACTIONS, n_states)


def dense_triplet_csv(counts):
    """The triplet CSV of dense_counts, one row per nonzero count in (s, a, s') order."""
    fh = io.StringIO(newline="")
    writer = csv.writer(fh)
    writer.writerow(["s", "a", "next_s", "count", "reward_mean"])
    for s, a, s2 in zip(*np.nonzero(counts.R_count)):
        mean_r = counts.R_sum[s, a, s2] / counts.R_count[s, a, s2]
        writer.writerow([int(s), int(a), int(s2),
                         repr(float(counts.R_count[s, a, s2])), repr(float(mean_r))])
    return fh.getvalue().encode()


def rebuilt_adjacency(model):
    """D = Σ_a R_count·e^{−v|R̂|}, with R̂ = 0 where unvisited."""
    R_hat = np.zeros_like(model.R_sum)
    seen = model.R_count > 0
    R_hat[seen] = model.R_sum[seen] / model.R_count[seen]
    weighted = model.R_count * np.exp(-model.v * np.abs(R_hat))
    return weighted.sum(axis=1)


def flat_q_star(world, gamma, tol=1e-12, max_iters=100_000):
    """Optimal primitive-action values Q*(s,a) for a deterministic world."""
    assert world.slip_prob == 0.0
    V = np.zeros(world.n_states)
    for _ in range(max_iters):
        V_new = np.zeros_like(V)
        for s in range(world.n_states):
            if world.is_terminal(s):
                continue
            best = -np.inf
            for a in range(N_ACTIONS):
                s2 = world.move(s, a)
                r = world.goal_reward if s2 in world.goals else world.step_reward
                best = max(best, r + gamma * V[s2])
            V_new[s] = best
        if np.abs(V_new - V).max() < tol:
            V = V_new
            break
        V = V_new
    Q = np.zeros((world.n_states, N_ACTIONS))
    for s in range(world.n_states):
        if world.is_terminal(s):
            continue
        for a in range(N_ACTIONS):
            s2 = world.move(s, a)
            r = world.goal_reward if s2 in world.goals else world.step_reward
            Q[s, a] = r + gamma * V[s2]
    return Q


def determinized_outcome(world, option, s0, gamma):
    """Deterministic option outcome (reward, duration, end state) from s0.

    Follows the argmax-μ action (lowest action id on ties) and terminates
    only on certain termination (β = 1), episode end, or an N-step cap.
    """
    s = s0
    reward = 0.0
    for t in range(world.n_states):
        mu = option.policy.get(s)
        if mu is None:
            return reward, t, s
        a = max(sorted(mu), key=lambda act: mu[act])
        s2 = world.move(s, a)
        r = world.goal_reward if s2 in world.goals else world.step_reward
        reward += gamma ** t * r
        s = s2
        if s in world.goals or option.termination_prob(s) >= 1.0:
            return reward, t + 1, s
    return reward, world.n_states, s


def smdp_q_star(world, options, gamma, tol=1e-12, max_iters=100_000):
    """Optimal values over primitives plus determinized options.

    Returns {(s, choice): value} with choice either an action id or
    ("opt", option index), mirroring the agent's key scheme but computed by
    direct Bellman backups.
    """
    assert world.slip_prob == 0.0
    outcomes = {}
    for i, o in enumerate(options):
        for s in o.policy:
            outcomes[(s, ("opt", i))] = determinized_outcome(world, o, s, gamma)
    for s in range(world.n_states):
        if world.is_terminal(s):
            continue
        for a in range(N_ACTIONS):
            s2 = world.move(s, a)
            r = world.goal_reward if s2 in world.goals else world.step_reward
            outcomes[(s, a)] = (r, 1, s2)

    by_state = {}
    for (s, _), outcome in outcomes.items():
        by_state.setdefault(s, []).append(outcome)

    V = np.zeros(world.n_states)
    for _ in range(max_iters):
        V_new = np.zeros_like(V)
        for s, outs in by_state.items():
            V_new[s] = max(r + gamma ** k * V[s_end] for (r, k, s_end) in outs)
        if np.abs(V_new - V).max() < tol:
            V = V_new
            break
        V = V_new
    return {(s, c): r + gamma ** k * V[s_end]
            for (s, c), (r, k, s_end) in outcomes.items()}


def coordinate_move(text, s, a):
    """Successor of (s, a) read from the map text alone: the neighbour cell's
    state, numbering the open cells row by row, or s on a bump."""
    rows = [ln for ln in text.splitlines() if ln]
    open_cells = [(r, c) for r, row in enumerate(rows)
                  for c, ch in enumerate(row) if ch != "#"]
    r, c = open_cells[s]
    dr, dc = DELTAS[a]
    nr, nc = r + dr, c + dc
    if 0 <= nr < len(rows) and 0 <= nc < len(rows[nr]) and rows[nr][nc] != "#":
        return open_cells.index((nr, nc))
    return s


def step_loop_episode(world, s, max_steps, rng):
    """A uniform-random episode from s: each step draws its action by
    ``rng.integers(4)``, then calls ``env.step``; it stops at a goal or after
    max_steps steps."""
    traj = Trajectory([s])
    for _ in range(max_steps):
        a = rng.integers(N_ACTIONS)
        s, r, done = step(world, s, a, rng)
        traj.add(a, r, s, done)
        if done:
            break
    return traj


def choice_draw(mu, rng):
    """One action drawn from the μ row ``mu`` with ``rng.choice``."""
    acts = list(mu)
    probs = np.array([mu[a] for a in acts])
    return acts[int(rng.choice(len(acts), p=probs))]


def bounded_draw(raws, n):
    """A uniform draw from [0, n) by Lemire's method on 64-bit raws, in Python
    integers: the next x · n, for x from ``raws``, whose low 64 bits are at
    least 2⁶⁴ mod n, shifted down by 64 bits."""
    threshold = 2**64 % n
    while True:
        m = next(raws) * n
        if m % 2**64 >= threshold:
            return m // 2**64


def _max_q(Q, s, available):
    return max(Q.get(s, c) for c in available)


def scan_smdp_q_update(Q, s, choice, r, k, s2, available):
    """Q(s,o) += α[r + γᵏ·max Q(s',·) − Q(s,o)], every read through ``Q.get``."""
    target = r + Q.gamma ** k * _max_q(Q, s2, available)
    Q.set(s, choice, Q.get(s, choice) + Q.alpha * (target - Q.get(s, choice)))


def scan_intra_option_update(Q, s, a, r, s2, options, available):
    """Intra-option updates for (s, a, r, s'), every read through ``Q.get``."""
    best2 = _max_q(Q, s2, available)
    updated = 0
    for i, o in enumerate(options):
        mu = o.policy.get(s)
        if not mu or mu.get(a, 0.0) <= 0.0:
            continue
        key = ("opt", i)
        beta2 = o.termination_prob(s2)
        u = (1.0 - beta2) * Q.get(s2, key) + beta2 * best2
        target = r + Q.gamma * u
        Q.set(s, key, Q.get(s, key) + Q.alpha * (target - Q.get(s, key)))
        updated += 1
    target = r + Q.gamma * best2
    Q.set(s, a, Q.get(s, a) + Q.alpha * (target - Q.get(s, a)))
    return updated + 1


def loop_assign_states(chi):
    """Each cluster's member states, from one Python pass over the rows of χ.

    A row summing to ≤ 0 is left unassigned; every other row (a NaN row
    included) goes to its first maximizer.
    """
    clusters = [[] for _ in range(chi.shape[1])]
    for s, row in enumerate(chi):
        if row.sum() <= 0:
            continue
        clusters[int(np.argmax(row))].append(s)
    return clusters


def column_sq_dists(pts, centroids):
    """(n, c) squared distances, each the sum from +0.0 of the squared column
    differences, taken one column after another from the first."""
    dist2 = np.zeros((pts.shape[0], centroids.shape[0]))
    for col in range(pts.shape[1]):
        dist2 = dist2 + (pts[:, col][:, None] - centroids[:, col][None, :]) ** 2
    return dist2


def quadratic_kmeans(pts, k_m, seed, max_iters=100):
    """(assignments, centroids, sse_history) of k-means++ seeded Lloyd iterations.

    Each seeding round recomputes the distance from every point to every
    centroid chosen so far and takes the point at which the normalised
    cumulative probabilities first exceed one ``random()`` draw of
    ``Draws(seed)``; ``pts`` is a 2-D float array.  Distances are
    column_sq_dists, and each centroid is its members' rows added one after
    another, in point order, to a zero row, then divided by their count.
    """
    n = pts.shape[0]
    rng = Draws(seed)
    centroids = pts[[rng.integers(n)]]
    while centroids.shape[0] < k_m:
        d2 = column_sq_dists(pts, centroids).min(axis=1)
        total = d2.sum()
        probs = d2 / total if total > 0 else np.full(n, 1.0 / n)
        cdf = probs.cumsum()
        u = rng.random()
        centroids = np.vstack([centroids, pts[np.count_nonzero(cdf / cdf[-1] <= u)]])

    assignments = np.full(n, -1)
    sse_history = []
    for _ in range(max_iters):
        dist2 = column_sq_dists(pts, centroids)
        new_assign = dist2.argmin(axis=1)
        for c in range(k_m):
            if not (new_assign == c).any():
                farthest = int(np.argmax(dist2[np.arange(n), new_assign]))
                centroids[c] = pts[farthest]
                new_assign[farthest] = c
        sse_history.append(float(((pts - centroids[new_assign]) ** 2).sum()))
        if (new_assign == assignments).all():
            break
        assignments = new_assign
        for c in range(k_m):
            members = pts[assignments == c]
            total = np.zeros(pts.shape[1])
            for row in members:
                total += row
            centroids[c] = total / len(members)
    return assignments, centroids, sse_history


def dict_kernel(model):
    """{(s, a): R_count(s,a,·) / Σ R_count(s,a,·)} for every visited (s, a)."""
    counts = model.R_count
    totals = counts.sum(axis=2)
    return {(int(s), int(a)): counts[s, a] / totals[s, a]
            for s, a in zip(*np.nonzero(totals))}


def dict_compose(i, j, chi, P, members):
    """(policy, unmodeled, ascent, fallback, termination) of the option Sᵢ → Sⱼ.

    ``members`` are the states assigned to cluster i and ``P`` a dict_kernel.
    Each gain is its own dot product of a kernel row with a membership column;
    the tiers are target gain, then source ascent, then uniform.
    """
    actions = {}
    for (s, a) in P:
        actions.setdefault(s, []).append(a)
    policy, unmodeled, ascent, fallback = {}, set(), set(), set()
    for s in members:
        obs = sorted(actions.get(s, []))
        if not obs:
            unmodeled.add(s)
            continue
        gains = {a: float(P[(s, a)] @ chi[:, j] - chi[s, j]) for a in obs}
        positive = {a: g for a, g in gains.items() if g > 0}
        if not positive:
            towards_core = {a: float(P[(s, a)] @ chi[:, i] - chi[s, i]) for a in obs}
            positive = {a: g for a, g in towards_core.items() if g > 0}
            if positive:
                ascent.add(s)
            else:
                positive = {a: 1.0 for a in obs}
                fallback.add(s)
        total = 0.0
        for g in positive.values():     # left to right
            total += g
        policy[s] = {a: g / total for a, g in positive.items()}
    clamped = np.clip(chi, BETA_EPS, 1.0 - BETA_EPS)
    termination = {s: float(min(np.log(clamped[s, i]) / np.log(clamped[s, j]), 1.0))
                   for s in members}
    return policy, unmodeled, ascent, fallback, termination


def loop_compose_policy(i, j, gain, observed, clusters):
    """compose_policy as one pass over the cluster-i states, with a dict per tier."""
    policy = {}
    unmodeled, ascent, fallback = set(), set(), set()
    for s in clusters[i]:
        obs = np.flatnonzero(observed[s]).tolist()
        if not obs:
            unmodeled.add(s)
            continue
        positive = {a: g for a in obs if (g := float(gain[s, a, j])) > 0}
        if not positive:
            positive = {a: g for a in obs if (g := float(gain[s, a, i])) > 0}
            if positive:
                ascent.add(s)
            else:
                positive = {a: 1.0 for a in obs}
                fallback.add(s)
        total = 0.0
        for g in positive.values():     # left to right
            total += g
        policy[s] = {a: g / total for a, g in positive.items()}
    return policy, frozenset(unmodeled), frozenset(ascent), frozenset(fallback)


def dense_laplacian(W):
    """(L, kept) with L = I + (W_kept − diag(W_kept·1)) / d_max over the rows of
    positive degree."""
    kept = np.flatnonzero(W.sum(axis=1) > 0)
    Wk = W[np.ix_(kept, kept)]
    deg = Wk.sum(axis=1)
    return np.eye(kept.size) + (Wk - np.diag(deg)) / deg.max(), kept


def gram_simplex_vertices(Y):
    """Greedy simplex vertices with each residual solved afresh: after m picks,
    row i's distance is ‖Y(i) − Y(i)γᵀ(γγᵀ)⁻¹γ‖ with γ the m chosen rows."""
    vertices = [int(np.argmax(np.linalg.norm(Y, axis=1)))]
    for _ in range(1, Y.shape[1]):
        gamma = Y[vertices]
        coeff = np.linalg.solve(gamma @ gamma.T, gamma @ Y.T)
        dist = np.linalg.norm(Y - (gamma.T @ coeff).T, axis=1)
        dist[vertices] = -np.inf
        vertices.append(int(np.argmax(dist)))
    return np.array(vertices)
