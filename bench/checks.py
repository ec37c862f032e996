"""Output checks and behaviour measures for one benchmark operation.

Every check returns a list of failure messages; an empty list means the
operation's outputs passed.
"""

from __future__ import annotations

import csv
import hashlib
import math
import os

import numpy as np

TOL = 1e-9


def digest(out_dir: str) -> str:
    """SHA-256 over the names and bytes of every file the command wrote."""
    h = hashlib.sha256()
    for name in sorted(os.listdir(out_dir)):
        h.update(name.encode())
        with open(os.path.join(out_dir, name), "rb") as fh:
            h.update(fh.read())
    return h.hexdigest()


def read_rows(path: str) -> list[dict]:
    with open(path, newline="") as fh:
        return list(csv.DictReader(fh))


def full_chi(result, n_states: int) -> np.ndarray:
    chi = np.zeros((n_states, result.membership.chi.shape[1]))
    chi[result.state_ids] = result.membership.chi
    return chi


def check_clustering(result) -> list[str]:
    """chi rows on the simplex; eigenvalues descending with e_1 = 1."""
    errors = []
    chi = result.membership.chi
    if (chi < -TOL).any() or np.abs(chi.sum(axis=1) - 1.0).max() > TOL:
        errors.append("chi rows are not on the probability simplex")
    e = result.spectral.eigenvalues
    if (np.diff(e) > TOL).any():
        errors.append("eigenvalues are not in descending order")
    if abs(e[0] - 1.0) > TOL:
        errors.append(f"leading eigenvalue {e[0]!r} is not 1")
    return errors


def check_options(options, chi: np.ndarray) -> list[str]:
    """Initiation = argmax states of the source; policy rows sum to 1; beta in [0, 1]."""
    errors = []
    assigned = chi.sum(axis=1) > 0
    argmax = chi.argmax(axis=1)
    for o in options:
        expected = set(np.flatnonzero(assigned & (argmax == o.source)).tolist())
        if set(o.initiation) != expected:
            errors.append(f"{o.label}: initiation set differs from the argmax states")
        for s, row in o.policy.items():
            probs = list(row.values())
            if abs(sum(probs) - 1.0) > TOL or min(probs) < 0.0:
                errors.append(f"{o.label}: policy row of state {s} is not a distribution")
                break
        if any(not 0.0 <= b <= 1.0 for b in o.termination.values()):
            errors.append(f"{o.label}: termination outside [0, 1]")
    return errors


def check_counts(model, steps: int) -> list[str]:
    counted = float(model.U.sum()) - model.u_prior * model.U.size
    if abs(counted - steps) > 1e-6:
        return [f"model holds {counted} counts for {steps} sampled steps"]
    return []


def check_triplet_file(path: str, steps: int) -> list[str]:
    total = sum(float(r["count"]) for r in read_rows(path))
    if abs(total - steps) > 1e-6:
        return [f"{os.path.basename(path)} holds {total} counts for {steps} sampled steps"]
    return []


def check_returns(path: str) -> list[str]:
    if all(math.isfinite(float(r["return"])) for r in read_rows(path)):
        return []
    return [f"{os.path.basename(path)} has a non-finite return"]


def adjusted_rand_index(a, b) -> float:
    """Adjusted Rand index of two labelings of the same items."""
    _, ai = np.unique(np.asarray(a), return_inverse=True)
    _, bi = np.unique(np.asarray(b), return_inverse=True)
    table = np.zeros((ai.max() + 1, bi.max() + 1))
    np.add.at(table, (ai, bi), 1)

    def pairs(x):
        return float((x * (x - 1) / 2).sum())

    index = pairs(table)
    rows, cols = pairs(table.sum(axis=1)), pairs(table.sum(axis=0))
    total = pairs(np.array([float(len(ai))]))
    expected = rows * cols / total if total else 0.0
    top = (rows + cols) / 2
    return 1.0 if top == expected else (index - expected) / (top - expected)


def room_ari(chi: np.ndarray, rooms) -> float:
    """ARI of the argmax cluster against room labels, doorways left out.

    States the clustering dropped (never visited) form one extra cluster, so
    a map that is only partly covered cannot score as fully recovered.
    """
    rooms = np.asarray(rooms)
    keep = rooms >= 0
    labels = np.where(chi.sum(axis=1) > 0, chi.argmax(axis=1), -1)
    return adjusted_rand_index(labels[keep], rooms[keep])


def option_reach(world, options, chi: np.ndarray) -> tuple[int, int]:
    """(reached, pairs) over every (option, initiation state) pair.

    The rollout follows the most probable action of the option policy (lowest
    action on ties) on the true world until it enters a state assigned to the
    target cluster (reached), or it leaves the policy's support, revisits a
    state or enters a goal elsewhere (not reached).
    """
    assigned = chi.sum(axis=1) > 0
    argmax = np.where(assigned, chi.argmax(axis=1), -1)
    reached = pairs = 0
    for o in options:
        for s0 in o.initiation:
            pairs += 1
            s, seen = s0, {s0}
            while s in o.policy:
                row = o.policy[s]
                a = max(sorted(row), key=row.__getitem__)
                s = world.move(s, a)
                if argmax[s] == o.target:
                    reached += 1
                    break
                if s in seen or world.is_terminal(s):
                    break
                seen.add(s)
    return reached, pairs
