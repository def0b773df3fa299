"""Reflection gluing: merge flipped same-state blocks into a bigger cube.

Given 2^d admissible patterns of side n that share one boundary state,
block t (for t = 0..2^d-1 with bits b_1..b_d) is the pattern flipped along
every axis k with b_k = 1 and translated by (n-1) * sum(b_k e_k).  The
union covers the side-(2n-1) cube; blocks overlap exactly on shared faces,
where the common state forces agreement, and every adjacent cell pair lies
inside some block, so the union is admissible for a symmetric model.

Gluing a single pattern with itself in all 2^d slots yields opposite-face
coincidence, which gives the periodic core (a side-(2n-2) pattern that
tiles space).  Every placement and face below is one
``patterns.cube_index`` list.
"""

from __future__ import annotations

from .models import SftModel, _Value
from .patterns import (
    CubePattern,
    cube_index,
    is_locally_admissible,
    restrict,
    surface_state,
)
from .transfer import Side, state_counts


class GlueError(ValueError):
    """Invalid gluing input or a violated construction guarantee."""


class CountMismatchError(RuntimeError):
    """Two exact computations of one count disagree: a bug signal."""


class GlueInput(_Value, frozen=True):
    """Exactly 2^d equal-size patterns, indexed by the flip selector t."""

    _fields = ("model", "patterns")

    def __init__(self, model: SftModel, patterns: tuple[CubePattern, ...]):
        d = model.dimension
        if len(patterns) != (1 << d):
            raise GlueError(
                f"need exactly {1 << d} patterns in dimension {d}, "
                f"got {len(patterns)}"
            )
        first = patterns[0]
        for p in patterns:
            if (p.n, p.d) != (first.n, first.d):
                raise GlueError("all patterns must share one side length")
            if p.d != d:
                raise GlueError(
                    f"pattern dimension {p.d} does not match model dimension {d}"
                )
        self.__dict__.update(model=model, patterns=patterns)

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
        if t and p is pats[t - 1]:
            continue  # checked as block t - 1
        if not is_locally_admissible(model, p):
            raise GlueError(f"input pattern {t} is not admissible")
        if t and surface_state(p) != state0:
            raise GlueError(f"input pattern {t} does not share the common state")

    side = 2 * n - 1
    out: list[int] = [-1] * side ** d
    for t, p in enumerate(pats):
        # cell y of block t sits at 2n-2-y_k on each axis k that t flips
        axes = tuple(
            range(2 * n - 2, n - 2, -1) if t >> k & 1 else range(n)
            for k in range(d)
        )
        for gi, v in zip(cube_index(side, axes), p.values):
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


def _face(p: CubePattern, k: int, x: int) -> tuple[int, ...]:
    """Values on the hyperplane x_k = x (internal axis k), row-major."""
    axes = [range(p.n)] * p.d
    axes[k] = (x,)
    return tuple(map(p.values.__getitem__, cube_index(p.n, tuple(axes))))


def opposite_faces_equal(p: CubePattern, axis: int) -> bool:
    """Whether the first and last hyperplane along an axis coincide."""
    if not 1 <= axis <= p.d:
        raise ValueError(f"axis {axis} out of range 1..{p.d}")
    return _face(p, axis - 1, 0) == _face(p, axis - 1, p.n - 1)


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
    for k, allowed_k in enumerate(model.allowed):
        if not opposite_faces_equal(glued, k + 1):
            raise GlueError(
                f"glued pattern faces differ along axis {k + 1}; "
                "was it built from a single pattern?"
            )
        far, near = _face(core, k, core.n - 1), _face(core, k, 0)
        if not all(allowed_k[a][b] for a, b in zip(far, near)):
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
    wrap = tuple(x % m for x in range(2 * m))
    index = cube_index(m, (wrap,) * core.d)
    return CubePattern(2 * m, core.d, tuple(map(core.values.__getitem__, index)))


def glue_and_check(
    model: SftModel, group: list[CubePattern]
) -> tuple[CubePattern, CubePattern, bool, bool]:
    """Glue a same-state group, and its block 0 with itself: the glued
    cube, the periodic core, and whether the glued cube and the core's
    tiling witness are locally admissible."""
    glued = glue(GlueInput(model, tuple(group)))
    glued_ok = is_locally_admissible(model, glued)
    core = periodic_core(model, glue_single(model, group[0]))
    wrap_ok = is_locally_admissible(model, tiling_witness(model, core))
    return glued, core, glued_ok, wrap_ok


def verify_key_inequality(side: Side, c_glued: int, c_n: int) -> tuple[int, bool]:
    """Exact check that the glued constructions are all distinct:

        C_{2n-1}  >=  sum over states s of (C_n^(s)) ** (2^d),

    with n and d those of ``side`` and ``c_glued`` = C_{2n-1}.  The
    C_n^(s) come from ``state_counts(side)``, the shell-keyed slice walk
    at the side's budget, on the ``Side`` the count of C_n ran on.
    Returns (rhs, c_glued >= rhs); a False is a bug signal, not a
    mathematical possibility, as is a table that does not sum to ``c_n``
    = C_n, whose plan may fan the canonical slices out: that raises
    ``CountMismatchError``.
    """
    table = state_counts(side)
    if sum(table.values()) != c_n:
        raise CountMismatchError(f"the per-state table of side {side.n} does not sum to {c_n}")
    p = 1 << side.model.dimension
    rhs = sum(c ** p for c in table.values())
    return rhs, c_glued >= rhs
