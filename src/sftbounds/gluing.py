"""Reflection gluing: merge flipped same-state blocks into a bigger cube.

Given 2^d admissible patterns of side n that share one boundary state,
block t (for t = 0..2^d-1 with bits b_1..b_d) is the pattern flipped along
every axis k with b_k = 1 and translated by (n-1) * sum(b_k e_k).  The
union covers the side-(2n-1) cube; blocks overlap exactly on shared faces,
where the common state forces agreement, and every adjacent cell pair lies
inside some block, so the union is admissible for a symmetric model.

Gluing a single pattern with itself in all 2^d slots yields opposite-face
coincidence, which gives the periodic core (a side-(2n-2) pattern that
tiles space) and the side-(n+1) extension proving the counts are
nondecreasing from side 2 on.
"""

from __future__ import annotations

from dataclasses import dataclass

from .models import SftModel
from .patterns import (
    CubePattern,
    compose_flips,
    is_locally_admissible,
    restrict,
    strides,
    surface_state,
)
from .transfer import state_counts


class GlueError(ValueError):
    """Invalid gluing input or a violated construction guarantee."""


@dataclass(frozen=True)
class GlueInput:
    """Exactly 2^d equal-size patterns, indexed by the flip selector t."""

    model: SftModel
    patterns: tuple[CubePattern, ...]

    def __post_init__(self):
        d = self.model.dimension
        if len(self.patterns) != (1 << d):
            raise GlueError(
                f"need exactly {1 << d} patterns in dimension {d}, "
                f"got {len(self.patterns)}"
            )
        first = self.patterns[0]
        for p in self.patterns:
            if (p.n, p.d) != (first.n, first.d):
                raise GlueError("all patterns must share one side length")
            if p.d != d:
                raise GlueError(
                    f"pattern dimension {p.d} does not match model dimension {d}"
                )

    @property
    def n(self) -> int:
        return self.patterns[0].n


def glue(inp: GlueInput) -> CubePattern:
    """The side-(2n-1) union of the flipped, translated blocks.

    Overlap agreement is asserted cell by cell rather than assumed from
    the shared-state hypothesis, so a state canonicalization bug surfaces
    here instead of producing a silently inadmissible pattern.
    """
    model, pats = inp.model, inp.patterns
    d = model.dimension
    n = inp.n
    state0 = surface_state(pats[0])
    for t, p in enumerate(pats):
        if not is_locally_admissible(model, p):
            raise GlueError(f"input pattern {t} is not admissible")
        if surface_state(p) != state0:
            raise GlueError(f"input pattern {t} does not share the common state")

    side = 2 * n - 1
    out: list[int] = [-1] * side ** d
    local_strides = strides(n, d)
    global_strides = strides(side, d)
    for t in range(1 << d):
        block = compose_flips(pats[t], t)
        shift = sum(
            (n - 1) * global_strides[k] for k in range(d) if t & (1 << k)
        )
        for i, v in enumerate(block.values):
            gi = shift
            rem = i
            for k in range(d):
                x, rem = divmod(rem, local_strides[k])
                gi += x * global_strides[k]
            if out[gi] < 0:
                out[gi] = v
            elif out[gi] != v:
                raise GlueError(
                    f"blocks disagree on shared cell {gi} despite equal states"
                )
    return CubePattern(side, d, tuple(out))


def glue_single(model: SftModel, p: CubePattern) -> CubePattern:
    """Glue a pattern with itself in every slot (the periodic construction)."""
    return glue(GlueInput(model, (p,) * (1 << model.dimension)))


def opposite_faces_equal(p: CubePattern, axis: int) -> bool:
    """Whether the first and last hyperplane along an axis coincide."""
    if not 1 <= axis <= p.d:
        raise ValueError(f"axis {axis} out of range 1..{p.d}")
    n = p.n
    step = n ** (p.d - axis)
    period = step * n
    vals = p.values
    far = (n - 1) * step
    for base in range(0, len(vals), period):
        for i in range(base, base + step):
            if vals[i] != vals[i + far]:
                return False
    return True


def periodic_core(model: SftModel, glued: CubePattern) -> CubePattern:
    """Drop the far face along every axis; the rest tiles space periodically.

    Requires a glued cube built from one pattern (odd side 2n-1, n >= 2),
    whose opposite faces coincide.  Wrap admissibility of the core is
    verified explicitly: a violation means a construction bug, since the
    symmetry argument guarantees it.
    """
    side = glued.n
    if side < 3 or side % 2 == 0:
        raise GlueError(f"periodic core needs an odd glued side >= 3, got {side}")
    core = restrict(glued, side - 1)
    d, m, vals = core.d, core.n, core.values
    for k in range(d):
        if not opposite_faces_equal(glued, k + 1):
            raise GlueError(
                f"glued pattern faces differ along axis {k + 1}; "
                "was it built from a single pattern?"
            )
        allowed_k = model.allowed[k]
        step = m ** (d - 1 - k)
        period = step * m
        far = (m - 1) * step
        for base in range(0, len(vals), period):
            for i in range(base, base + step):
                if not allowed_k[vals[i + far]][vals[i]]:
                    raise GlueError(
                        f"periodic core is not wrap-admissible along axis {k + 1}"
                    )
    return core


def tiling_witness(model: SftModel, core: CubePattern) -> CubePattern:
    """2^d side-by-side translates of the core, as one side-2m pattern.

    Local admissibility of the witness certifies that the core extends
    periodically across every seam.
    """
    m = core.n
    # core index of each witness cell, row-major, built one axis at a time
    index = [0]
    for _ in range(core.d):
        index = [i * m + x % m for i in index for x in range(2 * m)]
    return CubePattern(2 * m, core.d, tuple(map(core.values.__getitem__, index)))


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


def verify_key_inequality(
    model: SftModel, n: int, c_glued: int
) -> tuple[int, int, bool]:
    """Exact check that the glued constructions are all distinct:

        C_{2n-1}  >=  sum over states s of (C_n^(s)) ** (2^d),

    with ``c_glued`` = C_{2n-1}.  The C_n^(s) come from ``state_counts``,
    the shell-keyed slice walk.  Returns (lhs, rhs, lhs >= rhs); a False
    is a bug signal, not a mathematical possibility.
    """
    if n < 1:
        raise ValueError(f"need n >= 1, got {n}")
    table = state_counts(model, n)
    p = 1 << model.dimension
    rhs = sum(c ** p for c in table.values())
    return c_glued, rhs, c_glued >= rhs
