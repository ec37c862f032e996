"""Value learning over the option-augmented SMDP.

A QTable keys values by (state, choice), where a choice is either a primitive
action id or the key ("opt", i) for the i-th option of the current option set.
A primitive action is the option that lasts one step, the k = 1 outcome.
An option run returns its steps as a ``Trajectory``, ``OptionOutcome.segment``.
SMDP Q-learning updates one entry per completed choice with the
duration-discounted target; intra-option learning updates, per primitive
transition, the primitive entry and every option whose policy is consistent
with the executed action.  Both updates take the choices available at s'.
The flat baseline is the SMDP update with primitive choices only.
"""

from __future__ import annotations

import math
from bisect import bisect_right
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from spectral_options.env import GridWorld, Trajectory, step
from spectral_options.options import Option


def option_key(index: int) -> tuple:
    """Choice key of the index-th option in the current option set."""
    return ("opt", index)


class QTable:
    """Sparse action/option value table; unvisited entries read as 0."""

    def __init__(self, alpha: float = 0.1, gamma: float = 0.99):
        if not 0 <= alpha <= 1:
            raise ValueError(f"alpha must lie in [0, 1], got {alpha}")
        if not 0 < gamma < 1:
            raise ValueError(f"gamma must lie in (0, 1), got {gamma}")
        self.alpha = alpha
        self.gamma = gamma
        self.values: dict[tuple, float] = {}

    def get(self, s: int, choice) -> float:
        return self.values.get((s, choice), 0.0)

    def set(self, s: int, choice, value: float):
        if not math.isfinite(value):
            raise ValueError(f"non-finite Q value for ({s}, {choice})")
        self.values[(s, choice)] = float(value)

    def max_value(self, s: int, available) -> float:
        get = self.values.get
        return max([get((s, c), 0.0) for c in available])

    def argmax(self, s: int, available):
        """Greedy choice with ties broken toward the earliest list position."""
        get = self.values.get
        best, best_v = None, -np.inf
        for c in available:
            v = get((s, c), 0.0)
            if v > best_v:
                best, best_v = c, v
        return best

    def drop_options(self):
        """Remove every option entry (used when the option set is replaced)."""
        self.values = {k: v for k, v in self.values.items() if isinstance(k[1], int)}


@dataclass
class EpisodeLog:
    episode: int
    cumulative_reward: float
    decision_epochs: int
    primitive_steps: int
    options_invoked: list = field(default_factory=list)   # (option label, duration)


class OptionOutcome(NamedTuple):
    segment: Trajectory     # primitive steps executed under the option
    reward: float           # Σ γᵗ rₜ₊₁ over the segment
    duration: int           # primitive steps taken (k)
    end_state: int
    truncated: bool         # max_steps cap hit
    missing_policy: bool    # reached a state with no μ row; terminated, flagged


def smdp_q_update(Q: QTable, s: int, choice, r: float, k: int, s2: int,
                  available) -> QTable:
    """One SMDP Q-learning update: Q(s,o) += α[r + γᵏ·max Q(s',·) − Q(s,o)].

    ``r`` must already be the caller-accumulated discounted option reward and
    ``k`` the option duration in primitive steps; primitive actions are the
    k = 1 case.  The bootstrap maximizes over every choice available at s'
    (options and primitives alike).
    """
    if k <= 0:
        raise ValueError(f"option duration must be positive, got {k}")
    target = r + Q.gamma ** k * Q.max_value(s2, available)
    q = Q.values.get((s, choice), 0.0)
    Q.set(s, choice, q + Q.alpha * (target - q))
    return Q


def available_choices(options: list[Option], n_states: int, n_actions: int) -> list:
    """Choices executable at each state: initiated options first, then primitives.

    Entry s lists the options that can start at s in index order.  An option
    is offered only where its policy has a row (initiation states with no
    observed actions cannot be executed).  Options come first so that exact
    value ties at a greedy decision resolve toward the temporally extended
    choice.
    """
    table = [[] for _ in range(n_states)]
    for i, o in enumerate(options):
        for s in o.initiation & o.policy.keys():
            table[s].append(option_key(i))
    for choices in table:
        choices.extend(range(n_actions))
    return table


def intra_option_update(Q: QTable, transition, options: list[Option],
                        available) -> int:
    """Off-policy updates for one primitive transition (s, a, r, s').

    Every option whose policy at s gives the executed action positive
    probability receives Q(s,o) += α[r + γ·U(s',o) − Q(s,o)] with
    U(s',o) = (1−β_o(s'))·Q(s',o) + β_o(s')·max Q(s',·), the maximum taken
    over ``available``, the choices at s'; the primitive entry gets the
    standard one-step update.  Returns the number of entries updated.
    """
    s, a, r, s2 = transition
    get = Q.values.get
    alpha, gamma = Q.alpha, Q.gamma
    best2 = Q.max_value(s2, available)
    updated = 0
    for i, o in enumerate(options):
        mu = o.policy.get(s)
        if not mu or mu.get(a, 0.0) <= 0.0:
            continue
        key = option_key(i)
        beta2 = o.termination_prob(s2)
        u = (1.0 - beta2) * get((s2, key), 0.0) + beta2 * best2
        target = r + gamma * u
        q = get((s, key), 0.0)
        Q.set(s, key, q + alpha * (target - q))
        updated += 1
    target = r + gamma * best2
    q = get((s, a), 0.0)
    Q.set(s, a, q + alpha * (target - q))
    return updated + 1


def epsilon_greedy(Q: QTable, s: int, available, epsilon: float,
                   rng: np.random.Generator):
    """ε-greedy behavioral choice over whatever is available at s.

    Ties under the greedy branch resolve to the earliest position in
    ``available``.
    """
    if not available:
        raise ValueError(f"no available choices at state {s}")
    if rng.random() < epsilon:
        return available[int(rng.integers(len(available)))]
    return Q.argmax(s, available)


def run_option(world: GridWorld, option: Option, s0: int,
               rng: np.random.Generator, max_steps: int,
               gamma: float = 0.99) -> OptionOutcome:
    """Execute an option from s0 until β fires, the episode ends, or the cap.

    Actions are sampled from μ by one ``rng.random()`` and a bisection of
    the option's cached cumulative μ row (``Option.draw_rows``), the same
    draws ``rng.choice(len(acts), p=probs)`` makes; termination is sampled
    from β at each state the option enters.  Returns the steps, a Trajectory
    from s0, and the SMDP quantities (discounted reward, k) for smdp_q_update.
    A state with no μ row terminates the option, flagged via ``missing_policy``.
    Raises ValueError if a μ row is not a probability vector.
    """
    if s0 not in option.initiation:
        raise ValueError(f"state {s0} is not in the option's initiation set")
    if max_steps < 1:
        raise ValueError("max_steps must be >= 1")
    rows = option.draw_rows
    segment = Trajectory([s0])
    reward = 0.0
    s = s0
    for t in range(max_steps):
        row = rows.get(s)
        if row is None:
            return OptionOutcome(segment, reward, t, s, False, True)
        acts, cdf = row
        a = acts[bisect_right(cdf, rng.random())]
        s, r, done = step(world, s, a, rng)
        segment.add(a, r, s, done)
        reward += gamma ** t * r
        if done or rng.random() < option.termination_prob(s):
            return OptionOutcome(segment, reward, t + 1, s, False, False)
    return OptionOutcome(segment, reward, max_steps, s, True, False)
