"""Shared fixtures-in-spirit: small synthetic graph and map builders for tests."""

import numpy as np


def block_adjacency(sizes, coupling=0.0):
    """Disjoint cliques (with self-loops) plus optional coupling between
    consecutive blocks' border nodes."""
    n = sum(sizes)
    W = np.zeros((n, n))
    start = 0
    borders = []
    for size in sizes:
        W[start:start + size, start:start + size] = 1.0
        borders.append((start, start + size - 1))
        start += size
    for (_, right), (left, _) in zip(borders, borders[1:]):
        W[right, left] = W[left, right] = coupling
    return W


def cluster_of(clusters):
    """State -> cluster index, from ``assign_states``'s member lists."""
    return {s: c for c, members in enumerate(clusters) for s in members}


def room_grid_text(rows, cols, side):
    """ASCII map of a rows × cols grid of square rooms of side ``side``.

    One-cell walls separate the rooms; each wall two rooms share has one
    doorway at its middle.  S is the top-left cell, G the bottom-right one.
    """
    pitch = side + 1
    height, width = rows * pitch + 1, cols * pitch + 1
    grid = [["." if r % pitch and c % pitch else "#" for c in range(width)]
            for r in range(height)]
    mid = 1 + side // 2
    for i in range(rows):
        for j in range(cols):
            if j + 1 < cols:
                grid[i * pitch + mid][(j + 1) * pitch] = "."
            if i + 1 < rows:
                grid[(i + 1) * pitch][j * pitch + mid] = "."
    grid[1][1] = "S"
    grid[height - 2][width - 2] = "G"
    return "".join("".join(row) + "\n" for row in grid)
