"""Tabular gridworld environments parsed from ASCII maps.

A map is a rectangular block of characters: ``#`` wall, ``.`` open floor,
``S`` the unique start cell, ``G`` a goal cell.  Every open cell (including
``S`` and ``G``) becomes one tabular state; state ids are assigned in
row-major order.  The four actions move one cell north/east/south/west;
moving into a wall or off the grid leaves the state unchanged.  Entering a
goal cell yields ``goal_reward`` and ends the episode.  Sampled episodes are
uniform-random and come as one ``Transitions`` batch of flat step arrays; the
learner records each of its episodes as a ``Trajectory`` of index lists.
Every random draw comes from a ``Draws``, the package's stream of values read
from raw PCG64 outputs.
"""

from __future__ import annotations

import operator
from collections.abc import Sequence
from dataclasses import dataclass, field
from functools import cached_property
from importlib import resources
from itertools import islice

import numpy as np

N_ACTIONS = 4
# Row/column deltas of the actions N, E, S, W.
DELTAS = ((-1, 0), (0, 1), (1, 0), (0, -1))
# Perpendicular action pairs used when slip_prob > 0.
_PERPENDICULAR = {0: (1, 3), 1: (0, 2), 2: (1, 3), 3: (0, 2)}
_TWO_64 = 1 << 64
_MASK64 = _TWO_64 - 1
# Raw outputs a Draws pulls per refill.
_BLOCK = 1024


class MapError(ValueError):
    """Raised for any malformed ASCII map."""


@dataclass(slots=True)
class Trajectory:
    """One episode as index lists: step t is (states[t], actions[t], rewards[t],
    states[t + 1]), so steps chain by construction.  ``done`` is set when the
    last step reached a goal."""

    states: list[int]
    actions: list[int] = field(default_factory=list)
    rewards: list[float] = field(default_factory=list)
    done: bool = False

    def __len__(self):
        return len(self.actions)

    def add(self, a: int, r: float, s2: int, done: bool):
        """Append the step (states[-1], a, r, s2)."""
        self.actions.append(a)
        self.rewards.append(r)
        self.states.append(s2)
        self.done = done


@dataclass(slots=True, eq=False)
class Transitions:
    """A batch of episodes as flat step arrays, episode after episode: step i
    is (s[i], a[i], r[i], s2[i]).  ``s``, ``a`` and ``s2`` are int64, ``r``
    float; ``len`` is the number of steps."""

    s: np.ndarray
    a: np.ndarray
    s2: np.ndarray
    r: np.ndarray

    def __len__(self):
        return self.a.size

    @classmethod
    def of(cls, trajectories) -> Transitions:
        """The steps of the given Trajectories as one batch, in their order."""
        s, a, s2, r = [], [], [], []
        for t in trajectories:
            s += t.states[:-1]
            a += t.actions
            s2 += t.states[1:]
            r += t.rewards
        return cls(np.array(s, dtype=np.int64), np.array(a, dtype=np.int64),
                   np.array(s2, dtype=np.int64), np.array(r, dtype=float))


@dataclass
class GridWorld:
    """A parsed map.  ``successor[s][a]`` is the deterministic successor of
    (s, a) as a Python int: the neighbour cell's state, or s itself on a wall
    bump or at the grid edge.  The table is built on first use and holds
    lists, not an array, so states stay Python ints.
    """

    height: int
    width: int
    walls: np.ndarray          # bool (height, width), True where '#'
    cells: list[tuple[int, int]]   # state id -> (row, col)
    index: dict[tuple[int, int], int]
    start: int
    goals: frozenset[int]
    step_reward: float = 0.0
    goal_reward: float = 1.0
    slip_prob: float = 0.0

    @property
    def n_states(self) -> int:
        return len(self.cells)

    def is_terminal(self, s: int) -> bool:
        return s in self.goals

    @cached_property
    def successor(self) -> list[list[int]]:
        index = self.index
        return [[index.get((r + dr, c + dc), s) for dr, dc in DELTAS]
                for s, (r, c) in enumerate(self.cells)]

    def move(self, s: int, a: int) -> int:
        """Deterministic successor of (s, a): neighbour cell, or s on a wall bump.

        Raises ValueError for a state outside [0, n_states) or an invalid action.
        """
        if not (0 <= s < self.n_states and 0 <= a < N_ACTIONS):
            raise ValueError(f"(state {s}, action {a}) is outside "
                             f"[0, {self.n_states}) × [0, {N_ACTIONS})")
        return self.successor[s][a]


class Draws:
    """The package's random stream: values read from the raw 64-bit outputs of
    ``np.random.PCG64(seed)``, numpy's default bit generator, whose raw stream
    numpy keeps stable across releases (NEP 19).

    Each draw takes the raws after those the previous draws took:
    ``random()`` is ``(x >> 11) · 2⁻⁵³`` of the next raw x; ``integers(n)``
    is Lemire's bounded draw ``(x · n) >> 64``, redrawn while the low 64 bits
    of x · n fall below 2⁶⁴ mod n, so ``integers(4)`` is ``x >> 62``;
    ``raws(n)`` is the next n raws.  Scalars come back as Python float and
    int.  Raws are pulled ``_BLOCK`` at a time; no value depends on ``_BLOCK``.
    """

    __slots__ = ("_bits", "_it")

    def __init__(self, seed: int):
        self._bits = np.random.PCG64(seed)
        self._it = iter(())

    def _refill(self) -> int:
        """Pull the next block and return its first raw output."""
        self._it = iter(self._bits.random_raw(_BLOCK).tolist())
        return next(self._it)

    def _raw(self) -> int:
        try:
            return next(self._it)
        except StopIteration:
            return self._refill()

    def random(self) -> float:
        """A uniform draw from [0, 1) on the 2⁻⁵³ grid."""
        try:                          # _raw() inlined: the learner's hot path
            x = next(self._it)
        except StopIteration:
            x = self._refill()
        return (x >> 11) * 1.1102230246251565e-16    # 2⁻⁵³

    def integers(self, n: int) -> int:
        """A uniform draw from [0, n), for 1 ≤ n ≤ 2⁶⁴."""
        n = operator.index(n)
        if not 1 <= n <= _TWO_64:
            raise ValueError(f"integers(n) needs 1 <= n <= 2**64, got {n}")
        m = self._raw() * n
        if m & _MASK64 < n:
            threshold = _TWO_64 % n
            while m & _MASK64 < threshold:
                m = self._raw() * n
        return m >> 64

    def raws(self, n: int) -> np.ndarray:
        """The next n raw outputs as a uint64 array, the buffered ones first."""
        head = list(islice(self._it, n))
        rest = self._bits.random_raw(n - len(head))
        return np.concatenate((np.array(head, dtype=np.uint64), rest)) if head else rest


def bundled_map_text(name: str) -> str:
    """Return the text of a map shipped with the package (e.g. "three_rooms")."""
    ref = resources.files("spectral_options") / "maps" / f"{name}.txt"
    if not ref.is_file():
        raise MapError(f"no bundled map named {name!r}")
    return ref.read_text()


def load_gridworld(map_text: str, step_reward: float = 0.0, goal_reward: float = 1.0,
                   slip_prob: float = 0.0) -> GridWorld:
    """Parse an ASCII map into a GridWorld.

    Raises MapError for a non-rectangular map, an unknown character, zero or
    multiple 'S' cells, or zero 'G' cells.
    """
    lines = [ln for ln in map_text.splitlines() if ln != ""]
    if not lines:
        raise MapError("empty map")
    width = len(lines[0])
    if any(len(ln) != width for ln in lines):
        raise MapError("non-rectangular map: all rows must have equal length")
    height = len(lines)

    if not 0.0 <= slip_prob <= 1.0:
        raise MapError(f"slip_prob must lie in [0, 1], got {slip_prob}")

    walls = np.zeros((height, width), dtype=bool)
    cells: list[tuple[int, int]] = []
    index: dict[tuple[int, int], int] = {}
    starts: list[int] = []
    goals: list[int] = []
    for r, ln in enumerate(lines):
        for c, ch in enumerate(ln):
            if ch == "#":
                walls[r, c] = True
                continue
            if ch not in ".SG":
                raise MapError(f"unknown map character {ch!r} at row {r}, col {c}")
            sid = len(cells)
            cells.append((r, c))
            index[(r, c)] = sid
            if ch == "S":
                starts.append(sid)
            elif ch == "G":
                goals.append(sid)

    if len(starts) == 0:
        raise MapError("map has no start cell 'S'")
    if len(starts) > 1:
        raise MapError(f"map has {len(starts)} start cells; exactly one 'S' required")
    if len(goals) == 0:
        raise MapError("map has no goal cell 'G'")

    return GridWorld(height=height, width=width, walls=walls, cells=cells, index=index,
                     start=starts[0], goals=frozenset(goals), step_reward=step_reward,
                     goal_reward=goal_reward, slip_prob=slip_prob)


def step(world: GridWorld, s: int, a: int, rng: Draws | None = None):
    """One environment transition from state s under action a.

    Returns (next_state, reward, done).  With slip_prob > 0 the commanded
    action is replaced, with that probability, by one of the two
    perpendicular actions chosen uniformly, by one ``rng.random()`` and one
    ``rng.integers(2)``; an rng is then required.
    Raises ValueError for a state outside [0, n_states), a terminal state or
    an invalid action.
    """
    successor = world.successor
    if not 0 <= s < len(successor):
        raise ValueError(f"state {s} is outside [0, {len(successor)})")
    goals = world.goals
    if s in goals:
        raise ValueError(f"cannot step from terminal state {s}")
    if not 0 <= a < N_ACTIONS:
        raise ValueError(f"invalid action {a}")
    if world.slip_prob > 0.0:
        if rng is None:
            raise ValueError("slip_prob > 0 requires an rng")
        if rng.random() < world.slip_prob:
            a = _PERPENDICULAR[a][rng.integers(2)]
    s2 = successor[s][a]
    done = s2 in goals
    reward = world.goal_reward if done else world.step_reward
    return s2, reward, done


def sample_trajectory(world: GridWorld, max_steps: int, rng: Draws,
                      starts: Sequence[int]) -> Transitions:
    """Roll out one uniform-random episode from each state of ``starts`` in
    turn; return their steps as one Transitions batch, episode after episode.

    An episode stops on termination or after max_steps steps.
    Raises ValueError, before any draw, for a start outside [0, n_states) or
    a terminal start.

    Without slip the episodes walk in lockstep on
    ``rng.raws(episodes × max_steps) >> 62``, max_steps actions per episode in
    episode order, so each episode takes exactly max_steps raws however early
    it ends, and its steps are those of the step loop, whose ``integers(4)``
    is ``x >> 62`` of one raw x.  With slip the step loop runs once per start:
    each step draws its action by ``rng.integers(4)``, then calls ``step``.
    """
    if max_steps < 1:
        raise ValueError("max_steps must be >= 1")
    starts = [operator.index(s) for s in starts]
    for s in starts:
        if not 0 <= s < world.n_states:
            raise ValueError(f"start state {s} is outside [0, {world.n_states})")
        if world.is_terminal(s):
            raise ValueError(f"cannot start an episode at terminal state {s}")
    if world.slip_prob == 0.0:
        return _uniform_walk(world, starts, max_steps, rng)
    return Transitions.of([_step_loop(world, s, max_steps, rng) for s in starts])


def _step_loop(world: GridWorld, s: int, max_steps: int, rng: Draws) -> Trajectory:
    traj = Trajectory([s])
    for _ in range(max_steps):
        a = rng.integers(N_ACTIONS)
        s, r, done = step(world, s, a, rng)
        traj.add(a, r, s, done)
        if done:
            break
    return traj


def _uniform_walk(world: GridWorld, starts: list[int], max_steps: int,
                  rng: Draws) -> Transitions:
    """The step loop's episodes without slip, one from each start, walked in
    lockstep on one draw of the actions."""
    n = len(starts)
    actions = (rng.raws(n * max_steps) >> 62).astype(np.int64).reshape(n, max_steps)
    moves = np.array(world.successor, dtype=np.int64).ravel() * N_ACTIONS   # s·A + a -> s'·A
    # Row t holds every episode's state after t steps, as s·A while walking.
    # An episode walks on past its goal here and is cut at its first goal below.
    walk = np.empty((max_steps + 1, n), dtype=np.int64)
    walk[0] = starts
    walk[0] *= N_ACTIONS
    by_step = actions.T
    for t in range(max_steps):
        walk[t + 1] = moves[walk[t] + by_step[t]]
    walk //= N_ACTIONS
    states = walk.T                               # (episode, step)
    goal = np.zeros(world.n_states, dtype=bool)
    goal[list(world.goals)] = True
    hit = goal[states[:, 1:]]
    length = np.where(hit.any(axis=1), hit.argmax(axis=1) + 1, max_steps)
    taken = np.arange(max_steps) < length[:, None]
    s2 = states[:, 1:][taken]
    r = np.where(goal[s2], float(world.goal_reward), float(world.step_reward))
    return Transitions(states[:, :-1][taken], actions[taken], s2, r)
