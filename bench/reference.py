"""Independent reference counters for the benchmark's correctness checks.

None of this imports ``sftbounds``.  Each counter treats a cube as a stack
of rows (d=2) or planes (d=3) encoded as bitmasks and counts walks through
the row-to-row compatibility relation, which is a different algorithm
from the package's cell-by-cell transfer:

* hard-square d=2: a row is an n-bit mask with no two adjacent 1s; two
  rows may be stacked when they share no 1.
* coloring:3 d=2: a row is a proper 3-coloring of a path, stored one-hot
  (3 bits per cell); two rows may be stacked when no cell repeats its
  color, i.e. when the one-hot masks are disjoint.
* hard-square d=3: a plane is an admissible n x n hard-square pattern as
  an n^2-bit mask; two planes may be stacked when they share no 1.

The relation is materialized as adjacency lists, so cost grows with the
square of the row count; ``REACH`` holds the largest side each counter
finishes in about a second.  ``brute_force`` checks every assignment and
is only for the tests on tiny cubes.
"""

from __future__ import annotations

import itertools
import math
from fractions import Fraction

REACH = {
    ("hard-square", 2): 13,
    ("coloring:3", 2): 9,
    ("hard-square", 3): 4,
}


def _hard_square_rows(n: int) -> list[int]:
    return [m for m in range(1 << n) if m & (m >> 1) == 0]


def _coloring_rows(n: int, q: int) -> list[int]:
    """One-hot masks of the proper q-colorings of a path with n cells."""
    rows = []
    for colors in itertools.product(range(q), repeat=n):
        if all(a != b for a, b in zip(colors, colors[1:])):
            rows.append(sum(1 << (q * i + c) for i, c in enumerate(colors)))
    return rows


def _hard_square_planes(n: int) -> list[int]:
    """n x n hard-square patterns as n^2-bit masks, row i at bits n*i.."""
    rows = _hard_square_rows(n)
    planes = [0]
    last = [0]
    for i in range(n):
        nxt_planes, nxt_last = [], []
        for plane, prev in zip(planes, last):
            for r in rows:
                if r & prev == 0:
                    nxt_planes.append(plane | (r << (n * i)))
                    nxt_last.append(r)
        planes, last = nxt_planes, nxt_last
    return planes


def _walks(layers: list[int], n: int) -> int:
    """Number of length-n sequences of pairwise-disjoint consecutive masks."""
    if n == 1:
        return len(layers)
    adj = [[j for j, b in enumerate(layers) if a & b == 0] for a in layers]
    vec = [1] * len(layers)
    for _ in range(n - 1):
        vec = [sum(vec[j] for j in nbrs) for nbrs in adj]
    return sum(vec)


def _layers(model: str, d: int, n: int) -> list[int]:
    if (model, d) == ("hard-square", 2):
        return _hard_square_rows(n)
    if (model, d) == ("coloring:3", 2):
        return _coloring_rows(n, 3)
    if (model, d) == ("hard-square", 3):
        return _hard_square_planes(n)
    raise ValueError(f"no reference counter for {model} in dimension {d}")


def count(model: str, d: int, n: int) -> int:
    """Exact C_n for the side-n cube."""
    return _walks(_layers(model, d, n), n)


def counts(model: str, d: int, n_max: int | None = None) -> dict[int, int]:
    """C_n for every n up to the counter's reach (or n_max if smaller)."""
    top = REACH[(model, d)] if n_max is None else min(n_max, REACH[(model, d)])
    return {n: count(model, d, n) for n in range(1, top + 1)}


def hard_square_key_sum(n: int) -> int:
    """sum_s (C_n^(s))^4 for hard-square d=2.

    The boundary state of an n x n pattern is its last row plus its last
    column; patterns are enumerated as row sequences.
    """
    rows = _hard_square_rows(n)
    by_state: dict[tuple[int, int], int] = {}

    def extend(depth: int, prev: int, last_col: int) -> None:
        for r in rows:
            if r & prev:
                continue
            col = (last_col << 1) | ((r >> (n - 1)) & 1)
            if depth + 1 == n:
                key = (r, col)
                by_state[key] = by_state.get(key, 0) + 1
            else:
                extend(depth + 1, r, col)

    extend(0, 0, 0)
    return sum(c ** 4 for c in by_state.values())


def q_poly(d: int, n: int) -> Fraction:
    """q_d(n) = (2^d - 1) sum_{k<d} binom(d,k) / (2^d - 2^k) n^k, exact."""
    return (2 ** d - 1) * sum(
        Fraction(math.comb(d, k), 2 ** d - 2 ** k) * n ** k for k in range(d)
    )


def brute_force(model: str, d: int, n: int) -> int:
    """Count by testing all q^(n^d) assignments; tiny cubes only."""
    q = 3 if model == "coloring:3" else 2
    if model == "hard-square":
        bad = lambda a, b: a == 1 and b == 1  # noqa: E731
    elif model == "coloring:3":
        bad = lambda a, b: a == b  # noqa: E731
    else:
        raise ValueError(model)
    cells = list(itertools.product(range(n), repeat=d))
    index = {c: i for i, c in enumerate(cells)}
    pairs = []
    for c in cells:
        for k in range(d):
            if c[k] + 1 < n:
                nb = c[:k] + (c[k] + 1,) + c[k + 1:]
                pairs.append((index[c], index[nb]))
    total = 0
    for vals in itertools.product(range(q), repeat=len(cells)):
        if not any(bad(vals[i], vals[j]) for i, j in pairs):
            total += 1
    return total
