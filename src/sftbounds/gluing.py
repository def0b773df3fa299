"""Reflection gluing: merge flipped same-state blocks into a bigger cube.

Given 2^d admissible patterns of side n that share one boundary state,
block t (for t = 0..2^d-1 with bits b_1..b_d) is the pattern flipped along
every axis k with b_k = 1 and translated by (n-1) * sum(b_k e_k).  The
union covers the side-(2n-1) cube; blocks overlap exactly on shared faces,
where the common state forces agreement, and every adjacent cell pair lies
inside some block, so the union is admissible for a symmetric model.

Gluing a single pattern with itself in all 2^d slots yields opposite-face
coincidence, which gives the periodic core (a side-(2n-2) pattern that
tiles space).  Every placement, face and wrap below is one
``patterns.cube_index`` list, read through one gather cached per (n, d).
"""

from __future__ import annotations

from functools import lru_cache
from itertools import chain

from .models import SftModel, _Value
from .patterns import (
    CubePattern,
    cube_index,
    gather,
    is_locally_admissible,
    surface_state,
)
from .transfer import Side, state_counts


class GlueError(ValueError):
    """Invalid gluing input or a violated construction guarantee."""


class CountMismatchError(RuntimeError):
    """Two exact computations of one count disagree: a bug signal."""


def _check_dimension(model: SftModel, p: CubePattern) -> None:
    if p.d != model.dimension:
        raise GlueError(f"pattern dimension {p.d} does not match model dimension {model.dimension}")


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
        _check_dimension(model, first)
        for p in patterns:
            if (p.n, p.d) != (first.n, first.d):
                raise GlueError("all patterns must share one side length")
        self.__dict__.update(model=model, patterns=patterns)

    @property
    def n(self) -> int:
        return self.patterns[0].n


@lru_cache(maxsize=64)
def _placement(n: int, d: int) -> tuple:
    """Gathers over the blocks laid end to end (cell i of block t at t*n^d + i):
    the glued cube, each cell from its first cover; the first and the later
    cover of each shared cell, in block-then-cell order of the later; the cells."""
    owner, pairs = [-1] * (2 * n - 1) ** d, []
    for t in range(1 << d):
        # cell y of block t sits at 2n-2-y_k on each axis k that t flips
        axes = [range(2 * n - 2, n - 2, -1) if t >> k & 1 else range(n) for k in range(d)]
        for i, gi in enumerate(cube_index(2 * n - 1, axes), t * n ** d):
            if owner[gi] < 0:
                owner[gi] = i
            else:
                pairs.append((owner[gi], i, gi))
    firsts, laters, cells = zip(*pairs)
    return gather(owner), gather(firsts), gather(laters), cells


def glue(inp: GlueInput) -> CubePattern:
    """The side-(2n-1) union of the flipped, translated blocks.

    Overlap agreement is asserted cell by cell rather than assumed from
    the shared-state hypothesis, so a state canonicalization bug surfaces
    here instead of producing a silently inadmissible pattern.
    """
    model, pats = inp.model, inp.patterns
    state0 = surface_state(pats[0])
    for t, p in enumerate(pats):
        if t and p is pats[t - 1]:
            continue  # checked as block t - 1
        if not is_locally_admissible(model, p):
            raise GlueError(f"input pattern {t} is not admissible")
        if t and surface_state(p) != state0:
            raise GlueError(f"input pattern {t} does not share the common state")

    cube, firsts, laters, cells = _placement(inp.n, model.dimension)
    values = tuple(chain.from_iterable(p.values for p in pats))
    if firsts(values) != laters(values):
        gi = next(gi for gi, a, b in zip(cells, firsts(values), laters(values)) if a != b)
        raise GlueError(f"blocks disagree on shared cell {gi} despite equal states")
    return CubePattern(2 * inp.n - 1, model.dimension, cube(values))


def glue_single(model: SftModel, p: CubePattern) -> CubePattern:
    """Glue a pattern with itself in every slot (the periodic construction)."""
    return glue(GlueInput(model, (p,) * (1 << model.dimension)))


@lru_cache(maxsize=64)
def _faces(n: int, d: int) -> tuple:
    """Gathers of a side-n cube: the corner [0,n-1)^d, and per axis k the
    hyperplanes x_k = 0 and x_k = n-1."""
    full = [range(n)] * d
    ends = tuple(tuple(gather(cube_index(n, full[:k] + [(x,)] + full[k + 1:])) for x in (0, n - 1))
                 for k in range(d))
    return gather(cube_index(n, [range(n - 1)] * d)), ends


def opposite_faces_equal(p: CubePattern, axis: int) -> bool:
    """Whether the first and last hyperplane along an axis coincide."""
    if not 1 <= axis <= p.d:
        raise ValueError(f"axis {axis} out of range 1..{p.d}")
    near, far = _faces(p.n, p.d)[1][axis - 1]
    return near(p.values) == far(p.values)


def periodic_core(model: SftModel, glued: CubePattern) -> CubePattern:
    """Drop the far face along every axis; the rest tiles space periodically.

    Requires a glued cube built from one pattern (odd side 2n-1, n >= 2),
    whose opposite faces coincide.  Wrap admissibility of the core is
    verified explicitly: a violation means a construction bug, since the
    symmetry argument guarantees it.
    """
    _check_dimension(model, glued)
    side, d = glued.n, glued.d
    if side < 3 or side % 2 == 0:
        raise GlueError(f"periodic core needs an odd glued side >= 3, got {side}")
    core = CubePattern(side - 1, d, _faces(side, d)[0](glued.values))
    for k, (allowed_k, (near, far)) in enumerate(zip(model.allowed, _faces(side - 1, d)[1])):
        if not opposite_faces_equal(glued, k + 1):
            raise GlueError(
                f"glued pattern faces differ along axis {k + 1}; "
                "was it built from a single pattern?"
            )
        if not all(allowed_k[a][b] for a, b in zip(far(core.values), near(core.values))):
            raise GlueError(
                f"periodic core is not wrap-admissible along axis {k + 1}"
            )
    return core


@lru_cache(maxsize=64)
def _tiling(m: int, d: int):
    return gather(cube_index(m, [[x % m for x in range(2 * m)]] * d))


def tiling_witness(model: SftModel, core: CubePattern) -> CubePattern:
    """2^d side-by-side translates of the core, as one side-2m pattern.

    Local admissibility of the witness certifies that the core extends
    periodically across every seam.
    """
    _check_dimension(model, core)
    return CubePattern(2 * core.n, core.d, _tiling(core.n, core.d)(core.values))


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
