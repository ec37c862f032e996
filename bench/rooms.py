"""Deterministic room-grid maps for the benchmark.

A map is an r x c grid of square rooms of side n.  Rooms are separated by
one-cell walls; every wall shared by two rooms has one doorway at its middle.
``S`` is the top-left cell of the top-left room and ``G`` the bottom-right
cell of the bottom-right room.  Open cells are numbered in row-major order,
which is how ``spectral_options.env.load_gridworld`` assigns state ids.
"""

from __future__ import annotations

from dataclasses import dataclass

DOORWAY = -1


@dataclass(frozen=True)
class RoomMap:
    text: str
    cells: tuple          # state id -> (row, col)
    rooms: tuple          # state id -> room index, DOORWAY for doorway cells


def room_grid(rows: int, cols: int, side: int) -> RoomMap:
    """Build the r x c room grid of room side ``side``."""
    if rows < 1 or cols < 1 or side < 2:
        raise ValueError("need rows, cols >= 1 and side >= 2")
    pitch = side + 1
    height, width = rows * pitch + 1, cols * pitch + 1
    grid = [["#"] * width for _ in range(height)]
    for r in range(height):
        for c in range(width):
            if r % pitch and c % pitch:
                grid[r][c] = "."
    mid = 1 + side // 2
    for i in range(rows):
        for j in range(cols):
            if j + 1 < cols:
                grid[i * pitch + mid][(j + 1) * pitch] = "."
            if i + 1 < rows:
                grid[(i + 1) * pitch][j * pitch + mid] = "."
    grid[1][1] = "S"
    grid[height - 2][width - 2] = "G"
    return _with_rooms(["".join(row) for row in grid], pitch, cols)


def bundled_three_rooms(text: str) -> RoomMap:
    """Room labels for the shipped ``three_rooms`` map: a 1 x 3 grid of side 5
    whose doorways sit on the top room row instead of the middle one."""
    return _with_rooms(text.splitlines(), 6, 3)


def _with_rooms(lines, pitch: int, cols: int) -> RoomMap:
    cells, rooms = [], []
    for r, line in enumerate(lines):
        for c, ch in enumerate(line):
            if ch == "#":
                continue
            cells.append((r, c))
            on_wall = r % pitch == 0 or c % pitch == 0
            rooms.append(DOORWAY if on_wall else (r // pitch) * cols + c // pitch)
    return RoomMap(text="\n".join(lines) + "\n", cells=tuple(cells), rooms=tuple(rooms))


def write_map(room_map: RoomMap, map_path, features_path) -> None:
    """Write the ASCII map and one "row col" feature line per state."""
    with open(map_path, "w") as fh:
        fh.write(room_map.text)
    with open(features_path, "w") as fh:
        fh.writelines(f"{r} {c}\n" for r, c in room_map.cells)
