"""Independent oracles: the reward-weighted adjacency rebuilt from scratch,
and dense value iteration for the flat MDP and for the determinized
option-augmented SMDP.

These deliberately avoid the package's model and learning code: the
adjacency is recomputed from the full count arrays, and backups are written
directly from the Bellman equations so agent updates can be checked against
them.  The SMDP is determinized by following each option's argmax-probability
action and terminating only where termination is certain (β = 1) or the
episode ends, which makes every option outcome a pure function of its start
state.
"""

import numpy as np

from spectral_options.env import N_ACTIONS


def rebuilt_adjacency(model):
    """D = d_prior + Σ_a U·e^{−v|R̂|} over all of U, with R̂ = 0 where unvisited."""
    R_hat = np.zeros_like(model.R_sum)
    seen = model.R_count > 0
    R_hat[seen] = model.R_sum[seen] / model.R_count[seen]
    weighted = model.U * np.exp(-model.v * np.abs(R_hat))
    return model.d_prior + weighted.sum(axis=1)


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
