"""Value learning over the option-augmented SMDP.

A QTable holds the values of one option set's choices, one row per state.
A choice is either a primitive action id or the key ("opt", i) for the i-th
option of the set; row s holds exactly the choices available at s, options
in index order, then primitives.  The rows, the availability table and the
table of options consistent with each (s, a) are built once per option set.
A primitive action is the option that lasts one step, the k = 1 outcome.
An option runs inside its episode: it appends its steps to the episode's
``Trajectory``, from which the learner reads them back.
SMDP Q-learning updates one entry per completed choice with the
duration-discounted target; intra-option learning updates, per primitive
transition, the primitive entry and every option offered at s whose policy is
consistent with the executed action.  Both take their transition as
positional arguments, (s, choice, r, k, s') and (s, a, r, s'), and both
bootstrap from the row of s'.
The flat baseline is the SMDP update on a table with no options.
"""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass
from math import isfinite
from typing import NamedTuple

from spectral_options.env import N_ACTIONS, Draws, GridWorld, Trajectory, step
from spectral_options.options import Option


def option_key(index: int) -> tuple:
    """Choice key of the index-th option in the current option set."""
    return ("opt", index)


def _check_alpha_gamma(alpha: float, gamma: float):
    if not 0 <= alpha <= 1:
        raise ValueError(f"alpha must lie in [0, 1], got {alpha}")
    if not 0 < gamma < 1:
        raise ValueError(f"gamma must lie in (0, 1), got {gamma}")


def _non_finite(s: int, choice) -> ValueError:
    return ValueError(f"non-finite Q value for ({s}, {choice})")


class QTable:
    """Action/option values of one option set, one row per state.

    ``rows[s]`` maps each choice in ``available[s]`` to its value, in that
    order, so ``max(rows[s].values())`` is the greedy value at s and
    ``max(rows[s], key=rows[s].__getitem__)`` the greedy choice, ties going
    to the earliest position.  Entries never written read 0.
    ``consistent[s][a]`` lists (option key, option) for every option offered
    at s whose μ gives action a positive probability, in option index order.
    """

    def __init__(self, n_states: int, options=(), alpha: float = 0.1,
                 gamma: float = 0.99):
        _check_alpha_gamma(alpha, gamma)
        self.alpha = alpha
        self.gamma = gamma
        self.rows: list[dict] = [{} for _ in range(n_states)]
        self.set_options(options)

    @property
    def values(self) -> dict:
        """The table as {(s, choice): value} over every offered entry, built when read."""
        return {(s, c): v for s, row in enumerate(self.rows) for c, v in row.items()}

    def get(self, s: int, choice) -> float:
        """Q(s, choice); a choice not offered at s reads 0."""
        return self.rows[s].get(choice, 0.0)

    def set(self, s: int, choice, value: float):
        row = self.rows[s]
        if choice not in row:
            raise KeyError(f"choice {choice!r} is not available at state {s}")
        value = float(value)
        if not isfinite(value):
            raise _non_finite(s, choice)
        row[choice] = value

    def set_options(self, options):
        """Offer a new option set: rebuild every table, keep primitive values.

        Option values are dropped: cluster identities are not stable across
        re-clusterings, so remapping them by label would be unsound.
        """
        self.options = list(options)
        self.available = available_choices(self.options, len(self.rows))
        self.rows = [{c: old.get(c, 0.0) if isinstance(c, int) else 0.0 for c in choices}
                     for old, choices in zip(self.rows, self.available)]
        self.consistent = [[[] for _ in range(N_ACTIONS)] for _ in self.rows]
        for i, o in enumerate(self.options):
            key = option_key(i)
            entry = (key, o)
            for s, mu in o.policy.items():
                if key in self.rows[s]:
                    for a, p in mu.items():
                        if p > 0.0:
                            self.consistent[s][a].append(entry)


@dataclass
class EpisodeLog:
    """One episode's outcome; its number is its index in the run's history."""

    cumulative_reward: float
    decision_epochs: int
    primitive_steps: int


class OptionOutcome(NamedTuple):
    duration: int           # primitive steps taken (k), appended to the episode
    truncated: bool         # max_steps cap hit
    missing_policy: bool    # reached a state with no μ row; terminated, flagged


def smdp_q_update(Q: QTable, s: int, choice, r: float, k: int, s2: int) -> QTable:
    """One SMDP Q-learning update: Q(s,o) += α[r + γᵏ·max Q(s',·) − Q(s,o)].

    ``r`` must already be the caller-accumulated discounted option reward and
    ``k`` the option duration in primitive steps; primitive actions are the
    k = 1 case.  The bootstrap maximizes over the row of s', every choice
    available there (options and primitives alike).
    """
    if k <= 0:
        raise ValueError(f"option duration must be positive, got {k}")
    rows = Q.rows
    target = r + Q.gamma ** k * max(rows[s2].values())
    row = rows[s]
    q = row[choice]
    q += Q.alpha * (target - q)
    if not isfinite(q):
        raise _non_finite(s, choice)
    row[choice] = q
    return Q


def available_choices(options: list[Option], n_states: int) -> list:
    """Choices executable at each state: initiated options first, then primitives.

    Entry s lists the options that can start at s in index order.  An option
    is offered only where its policy has a non-empty row: from an initiation
    state with no observed actions it could take no step.  Options come
    first so that exact value ties at a greedy decision resolve toward the
    temporally extended choice.
    """
    table = [[] for _ in range(n_states)]
    for i, o in enumerate(options):
        key = option_key(i)
        policy = o.policy
        for s in o.initiation:
            if policy.get(s):
                table[s].append(key)
    for choices in table:
        choices.extend(range(N_ACTIONS))
    return table


def intra_option_update(Q: QTable, s: int, a: int, r: float, s2: int) -> int:
    """Off-policy updates for one primitive transition (s, a, r, s'), passed
    positionally as ``smdp_q_update`` takes its choice.

    Every option offered at s whose policy gives the executed action positive
    probability, ``Q.consistent[s][a]``, receives
    Q(s,o) += α[r + γ·U(s',o) − Q(s,o)] with
    U(s',o) = (1−β_o(s'))·Q(s',o) + β_o(s')·max Q(s',·), the maximum taken
    over the row of s'; the primitive entry gets the standard one-step
    update.  Returns the number of entries updated.
    """
    alpha, gamma = Q.alpha, Q.gamma
    row, row2 = Q.rows[s], Q.rows[s2]
    best2 = max(row2.values())
    consistent = Q.consistent[s][a]
    for key, o in consistent:
        beta2 = o.termination_prob(s2)
        u = (1.0 - beta2) * row2.get(key, 0.0) + beta2 * best2
        target = r + gamma * u
        q = row[key]
        q += alpha * (target - q)
        if not isfinite(q):
            raise _non_finite(s, key)
        row[key] = q
    target = r + gamma * best2
    q = row[a]
    q += alpha * (target - q)
    if not isfinite(q):
        raise _non_finite(s, a)
    row[a] = q
    return len(consistent) + 1


def epsilon_greedy(Q: QTable, s: int, epsilon: float, rng: Draws):
    """ε-greedy behavioral choice over the choices available at s.

    Draws ``rng.random()`` for the ε test and, when exploring,
    ``rng.integers(len(Q.available[s]))`` for the choice.
    Ties under the greedy branch resolve to the earliest position in
    ``Q.available[s]``, the order of the row.
    """
    row = Q.rows[s]
    if not row:
        raise ValueError(f"no available choices at state {s}")
    if rng.random() < epsilon:
        available = Q.available[s]
        return available[rng.integers(len(available))]
    return max(row, key=row.__getitem__)


def run_option(world: GridWorld, option: Option, traj: Trajectory,
               rng: Draws, max_steps: int) -> OptionOutcome:
    """Execute an option from ``traj.states[-1]`` until β fires, the episode
    ends, or the cap, appending each step to ``traj``.

    Each action is drawn from μ by one ``rng.random()`` u: the first action
    of the option's cached cumulative μ row (``Option.draw_rows``) whose
    entry exceeds u.  At each state it enters short of a goal, one more
    ``rng.random()`` samples termination from β.  The option's steps are the
    last ``duration`` steps of ``traj``; ``traj.done`` is set if the last
    one reached a goal.  A state with no μ row terminates the option,
    flagged via ``missing_policy``.  Raises ValueError, with ``traj``
    untouched, for a start outside the initiation set, ``max_steps < 1``, or
    a μ row that is not a probability vector.
    """
    s = traj.states[-1]
    if s not in option.initiation:
        raise ValueError(f"state {s} is not in the option's initiation set")
    if max_steps < 1:
        raise ValueError("max_steps must be >= 1")
    rows = option.draw_rows
    for t in range(max_steps):
        row = rows.get(s)
        if row is None:
            return OptionOutcome(t, False, True)
        acts, cdf = row
        a = acts[bisect_right(cdf, rng.random())]
        s, r, done = step(world, s, a, rng)
        traj.add(a, r, s, done)
        if done or rng.random() < option.termination_prob(s):
            return OptionOutcome(t + 1, False, False)
    return OptionOutcome(max_steps, True, False)
