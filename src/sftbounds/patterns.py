"""Cube patterns, local admissibility, sub-cubes, and boundary states.

A pattern assigns a symbol id to every cell of the cube [0,n)^d, stored
row-major: cell x = (x_1,...,x_d) sits at linear index sum(x_k * n^(d-k)),
so axis 1 is the outermost (slowest) coordinate.  Coordinates are 0-based
internally.  Every sub-cube, face or reflected copy the package reads or
writes is one ``cube_index`` list, read by a ``gather`` cached per shape.

All operations are pure and return fresh patterns.
"""

from __future__ import annotations

from collections.abc import Sequence
from functools import lru_cache
from operator import itemgetter

from .models import Alphabet, SftModel, _Value


def predecessors(n: int, d: int) -> list[tuple[tuple[int, int], ...]]:
    """Per cell of the side-n cube of dimension d, in linear-index order:
    (offset, axis) for each axis k on which the cell has a predecessor,
    the cell offset = n^(d-1-k) indices back."""
    table = [()]
    for k in range(d):
        offset = n ** (d - 1 - k)
        table = [t + ((offset, k),) if x else t for t in table for x in range(n)]
    return table


def cube_index(n: int, axes: Sequence[Sequence[int]]) -> tuple[int, ...]:
    """Linear indices, in the side-n cube of dimension len(axes), of the
    cells whose coordinate on axis k runs over ``axes[k]``.

    Listed row-major over the given coordinates (axes[0] outermost), so a
    gather of a pattern's values by this list is the pattern of the
    selected cells, in the order the coordinates are given.
    """
    index = [0]
    for xs in axes:
        index = [i * n + x for i in index for x in xs]
    return tuple(index)


def gather(index: Sequence[int]):
    """``itemgetter(*index)``, but a tuple for any length of ``index``."""
    return itemgetter(*index) if len(index) > 1 else lambda v: tuple(v[i] for i in index)


class CubePattern(_Value, frozen=True):
    """Immutable assignment of symbol ids to the cube [0,n)^d."""

    _fields = ("n", "d", "values")

    def __init__(self, n: int, d: int, values: tuple[int, ...]):
        if n < 1 or d < 1:
            raise ValueError(f"need n >= 1 and d >= 1, got n={n}, d={d}")
        if len(values) != n ** d:
            raise ValueError(
                f"expected {n ** d} values for side {n} in "
                f"dimension {d}, got {len(values)}"
            )
        self.__dict__.update(n=n, d=d, values=values)


class SurfaceState(_Value, frozen=True):
    """Values on the boundary shell [0,n)^d minus [0,n-1)^d.

    The shell consists of the cells with some coordinate equal to n-1
    (0-based); ``cells`` lists their values in increasing linear-index
    order, which makes equal states coincide exactly with equal boundary
    assignments for fixed (n, d).
    """

    _fields = ("n", "d", "cells")

    def __init__(self, n: int, d: int, cells: tuple[int, ...]):
        expected = n ** d - (n - 1) ** d
        if len(cells) != expected:
            raise ValueError(
                f"surface of a side-{n} cube in dimension {d} has "
                f"{expected} cells, got {len(cells)}"
            )
        self.__dict__.update(n=n, d=d, cells=cells)


@lru_cache(maxsize=None)
def surface_indices(n: int, d: int) -> tuple[int, ...]:
    """Linear indices of cells with some coordinate n-1, ascending.

    Empty for d = 0: the one cell of a 0-cube (a slice of a 1-d cube) has
    no coordinate.
    """
    inner = set(cube_index(n, (range(n - 1),) * d))
    return tuple(i for i in range(n ** d) if i not in inner)


@lru_cache(maxsize=256)
def _shell(n: int, d: int):
    return gather(surface_indices(n, d))


def surface_state(p: CubePattern) -> SurfaceState:
    return SurfaceState(p.n, p.d, _shell(p.n, p.d)(p.values))


def is_locally_admissible(model: SftModel, p: CubePattern) -> bool:
    """No adjacent pair inside the cube is forbidden (full scan)."""
    if p.d != model.dimension:
        raise ValueError(
            f"pattern dimension {p.d} does not match model dimension {model.dimension}"
        )
    n, vals = p.n, p.values
    total = len(vals)
    for k, allowed_k in enumerate(model.allowed):
        step = n ** (p.d - 1 - k)
        period = step * n
        for base in range(0, total, period):
            for i in range(base, base + period - step):
                if not allowed_k[vals[i]][vals[i + step]]:
                    return False
    return True


def format_pattern(p: CubePattern, alphabet: Alphabet) -> str:
    """Text form: "d n" header, then symbol names row-major.

    Cells are grouped one line per run of the last axis for readability.
    """
    syms = alphabet.symbols
    lines = [f"{p.d} {p.n}"]
    for base in range(0, len(p.values), p.n):
        lines.append(" ".join(syms[v] for v in p.values[base : base + p.n]))
    return "\n".join(lines)
