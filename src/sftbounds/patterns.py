"""Cube patterns, local admissibility, axis flips, and boundary states.

A pattern assigns a symbol id to every cell of the cube [0,n)^d, stored
row-major: cell x = (x_1,...,x_d) sits at linear index sum(x_k * n^(d-k)),
so axis 1 is the outermost (slowest) coordinate.  Coordinates are 0-based
internally; the flip along external axis k maps x_k to n-1-x_k.

All operations are pure and return fresh patterns.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import Sequence

from .models import Alphabet, SftModel


def strides(n: int, d: int) -> tuple[int, ...]:
    return tuple(n ** (d - 1 - k) for k in range(d))


def encode(coords: Sequence[int], n: int) -> int:
    """Linear index of a 0-based coordinate tuple."""
    idx = 0
    for x in coords:
        idx = idx * n + x
    return idx


def decode(index: int, n: int, d: int) -> tuple[int, ...]:
    """Inverse of encode; decode(encode(x)) == x for x in [0,n)^d."""
    out = [0] * d
    for k in range(d - 1, -1, -1):
        index, out[k] = divmod(index, n)
    return tuple(out)


@dataclass(frozen=True)
class CubePattern:
    """Immutable assignment of symbol ids to the cube [0,n)^d."""

    n: int
    d: int
    values: tuple[int, ...]

    def __post_init__(self):
        if self.n < 1 or self.d < 1:
            raise ValueError(f"need n >= 1 and d >= 1, got n={self.n}, d={self.d}")
        if len(self.values) != self.n ** self.d:
            raise ValueError(
                f"expected {self.n ** self.d} values for side {self.n} in "
                f"dimension {self.d}, got {len(self.values)}"
            )

    def value_at(self, coords: Sequence[int]) -> int:
        return self.values[encode(coords, self.n)]

    @classmethod
    def from_nested(cls, nested) -> "CubePattern":
        """Build from nested lists, outermost level = axis 1."""
        d = 0
        probe = nested
        while isinstance(probe, (list, tuple)):
            d += 1
            probe = probe[0]
        flat: list[int] = []

        def walk(node, depth):
            if depth == d:
                flat.append(node)
                return
            for child in node:
                walk(child, depth + 1)

        walk(nested, 0)
        n = round(len(flat) ** (1 / d)) if d else 1
        return cls(n, d, tuple(flat))


@dataclass(frozen=True)
class SurfaceState:
    """Values on the boundary shell [0,n)^d minus [0,n-1)^d.

    The shell consists of the cells with some coordinate equal to n-1
    (0-based); ``cells`` lists their values in increasing linear-index
    order, which makes equal states coincide exactly with equal boundary
    assignments for fixed (n, d).
    """

    n: int
    d: int
    cells: tuple[int, ...]

    def __post_init__(self):
        expected = self.n ** self.d - (self.n - 1) ** self.d
        if len(self.cells) != expected:
            raise ValueError(
                f"surface of a side-{self.n} cube in dimension {self.d} has "
                f"{expected} cells, got {len(self.cells)}"
            )


@lru_cache(maxsize=None)
def surface_indices(n: int, d: int) -> tuple[int, ...]:
    """Linear indices of cells with max coordinate n-1, ascending."""
    if n == 1:
        return tuple(range(1))
    out = []
    for idx in range(n ** d):
        rem = idx
        for _ in range(d):
            rem, x = divmod(rem, n)
            if x == n - 1:
                out.append(idx)
                break
    return tuple(out)


def surface_state(p: CubePattern) -> SurfaceState:
    vals = p.values
    return SurfaceState(p.n, p.d, tuple(vals[i] for i in surface_indices(p.n, p.d)))


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


def flip(p: CubePattern, axis: int) -> CubePattern:
    """Reflect along external axis k (1-based): x_k -> n-1-x_k.

    An involution; for a symmetric model it preserves admissibility.
    """
    if not 1 <= axis <= p.d:
        raise ValueError(f"axis {axis} out of range 1..{p.d}")
    n = p.n
    step = n ** (p.d - axis)
    out = [0] * len(p.values)
    for i, v in enumerate(p.values):
        xk = (i // step) % n
        out[i + (n - 1 - 2 * xk) * step] = v
    return CubePattern(n, p.d, tuple(out))


def compose_flips(p: CubePattern, t: int) -> CubePattern:
    """Apply the flips selected by the bits of t (bit k -> axis k+1).

    Flips commute, so any application order gives the same result; t = 0
    is the identity.
    """
    if not 0 <= t < (1 << p.d):
        raise ValueError(f"flip selector {t} out of range 0..{(1 << p.d) - 1}")
    out = p
    for k in range(p.d):
        if t & (1 << k):
            out = flip(out, k + 1)
    return out


def restrict(p: CubePattern, m: int) -> CubePattern:
    """Sub-pattern on [0,m)^d; admissibility is inherited."""
    if not 1 <= m <= p.n:
        raise ValueError(f"restriction side {m} out of range 1..{p.n}")
    if m == p.n:
        return p
    n, d, vals = p.n, p.d, p.values
    out = []

    def walk(base, depth):
        if depth == d - 1:
            out.extend(vals[base : base + m])
            return
        step = n ** (d - 1 - depth)
        for x in range(m):
            walk(base + x * step, depth + 1)

    walk(0, 0)
    return CubePattern(m, d, tuple(out))


def format_pattern(p: CubePattern, alphabet: Alphabet) -> str:
    """Text form: "d n" header, then symbol names row-major.

    Cells are grouped one line per run of the last axis for readability.
    """
    syms = alphabet.symbols
    lines = [f"{p.d} {p.n}"]
    for base in range(0, len(p.values), p.n):
        lines.append(" ".join(syms[v] for v in p.values[base : base + p.n]))
    return "\n".join(lines)


def parse_pattern(text: str, alphabet: Alphabet) -> CubePattern:
    tokens = text.split()
    if len(tokens) < 2:
        raise ValueError("pattern text needs a 'd n' header")
    d, n = int(tokens[0]), int(tokens[1])
    names = tokens[2:]
    if len(names) != n ** d:
        raise ValueError(f"expected {n ** d} cells, got {len(names)}")
    return CubePattern(n, d, tuple(alphabet.id_of(s) for s in names))
