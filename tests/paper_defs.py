"""Definitions from the paper that the package itself does not use.

``flip`` and ``compose_flips`` are the reference definition of the axis
reflections behind the gluing: the tests build glued cubes from them cell
by cell and compare with ``gluing.glue``, which writes the reflected
coordinates directly.  ``extend_to_plus_one`` is the side-(n+1) extension
that makes the counts nondecreasing from side 2 on, and
``leading_gap_coefficient`` the degree-(d-1) coefficient of q_d.
``encode``, ``decode``, ``value_at``, ``from_nested`` and ``restrict``
read and build patterns by coordinates, as the tests state them.
"""

import itertools
from fractions import Fraction

from sftbounds import (
    CubePattern,
    GlueError,
    SftModel,
    glue_single,
    is_locally_admissible,
)


def encode(coords, n: int) -> int:
    """Linear index of a 0-based coordinate tuple."""
    idx = 0
    for x in coords:
        idx = idx * n + x
    return idx


def decode(index: int, n: int, d: int) -> tuple[int, ...]:
    """The 0-based coordinates of the cell at a linear index."""
    out = [0] * d
    for k in range(d - 1, -1, -1):
        index, out[k] = divmod(index, n)
    return tuple(out)


def value_at(p: CubePattern, coords) -> int:
    """The value of ``p`` at 0-based coordinates."""
    return p.values[encode(coords, p.n)]


def restrict(p: CubePattern, m: int) -> CubePattern:
    """Sub-pattern on [0,m)^d; admissibility is inherited."""
    if not 1 <= m <= p.n:
        raise ValueError(f"restriction side {m} out of range 1..{p.n}")
    cells = itertools.product(range(m), repeat=p.d)
    return CubePattern(m, p.d, tuple(value_at(p, y) for y in cells))


def from_nested(nested) -> CubePattern:
    """Build from nested lists, outermost level = axis 1."""
    d = 0
    probe = nested
    while isinstance(probe, (list, tuple)):
        d += 1
        probe = probe[0]
    flat = []

    def walk(node, depth):
        if depth == d:
            flat.append(node)
            return
        for child in node:
            walk(child, depth + 1)

    walk(nested, 0)
    n = round(len(flat) ** (1 / d)) if d else 1
    return CubePattern(n, d, tuple(flat))


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


def extend_to_plus_one(model: SftModel, p: CubePattern) -> CubePattern:
    """Admissible side-(n+1) extension with the original in its corner.

    Restriction to side n recovers p, so the map is injective and the
    side-n count never exceeds the side-(n+1) count for n >= 2.
    """
    if p.n < 2:
        raise GlueError(f"extension needs side >= 2, got {p.n}")
    if not is_locally_admissible(model, p):
        raise GlueError("cannot extend an inadmissible pattern")
    return restrict(glue_single(model, p), p.n + 1)


def leading_gap_coefficient(d: int) -> Fraction:
    """d * (2 - 2^(1-d)): the degree-(d-1) coefficient of q_d."""
    if d < 1:
        raise ValueError(f"need d >= 1, got {d}")
    return d * (2 - Fraction(2, 2 ** d))
