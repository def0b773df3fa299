"""Seeded sampling of admissible patterns and same-state pattern groups.

Every draw is one randomized backtracking search, with some cells pinned
or none, driven by a caller-supplied ``random.Random``, so identical seeds
give identical draws.  Used by the gluing demos and the property tests.
"""

from __future__ import annotations

import random

from .models import SftModel
from .patterns import CubePattern, SurfaceState, surface_indices, surface_state
from .enumeration import _cell_checks

DEFAULT_ATTEMPT_BUDGET = 200_000


class SamplingError(RuntimeError):
    """No admissible pattern found within the attempt budget."""


def _randomized_completion(
    model: SftModel,
    n: int,
    rng: random.Random,
    fixed: dict[int, int] | None = None,
    checks: list | None = None,
) -> CubePattern:
    """Backtracking DFS with shuffled value order; cells in ``fixed`` are
    pinned to the given ids.  ``checks`` is ``_cell_checks(model, n)``,
    computed here when not given.  Raises SamplingError when the budget
    runs out or the search space is exhausted."""
    d = model.dimension
    cells = n ** d
    if checks is None:
        checks = _cell_checks(model, n)
    vfm = model.values_for_mask
    full = model.full_mask
    fixed = fixed or {}
    budget = DEFAULT_ATTEMPT_BUDGET

    buf = [0] * cells
    cand: list[list[int]] = [[] for _ in range(cells)]
    pos = [0] * cells

    def options_at(i: int) -> list[int]:
        m = full
        for off, masks in checks[i]:
            m &= masks[buf[i - off]]
        pinned = fixed.get(i)
        if pinned is not None:
            return [pinned] if m & (1 << pinned) else []
        opts = list(vfm[m])
        rng.shuffle(opts)
        return opts

    cand[0] = options_at(0)
    depth = 0
    while depth >= 0:
        opts = cand[depth]
        p = pos[depth]
        if p == len(opts):
            depth -= 1
            continue
        pos[depth] = p + 1
        buf[depth] = opts[p]
        budget -= 1
        if budget < 0:
            raise SamplingError(
                f"no admissible pattern found within {DEFAULT_ATTEMPT_BUDGET} steps"
            )
        if depth + 1 == cells:
            return CubePattern(n, d, tuple(buf))
        depth += 1
        cand[depth] = options_at(depth)
        pos[depth] = 0
    raise SamplingError(f"model admits no side-{n} pattern")


def sample_admissible(
    model: SftModel, n: int, rng: random.Random, checks: list | None = None
) -> CubePattern:
    """One admissible pattern, chosen by randomized backtracking search."""
    if n < 1:
        raise ValueError(f"need n >= 1, got {n}")
    return _randomized_completion(model, n, rng, checks=checks)


def sample_with_state(
    model: SftModel,
    state: SurfaceState,
    rng: random.Random,
    checks: list | None = None,
) -> CubePattern:
    """One admissible pattern whose boundary state equals ``state``."""
    surf = surface_indices(state.n, state.d)
    fixed = dict(zip(surf, state.cells))
    p = _randomized_completion(model, state.n, rng, fixed, checks)
    if surface_state(p) != state:
        raise AssertionError("completion does not realize the requested state")
    return p


def sample_same_state_group(
    model: SftModel, n: int, count: int, rng: random.Random, checks: list | None = None
) -> list[CubePattern]:
    """``count`` admissible patterns sharing one boundary state.

    A free draw (the anchor), then ``count - 1`` completions pinned to its
    state.  This loses nothing against enumerating all side-n patterns and
    grouping them by state.  The pinned search visits only admissible
    prefixes that agree with the pins; each is a node of the unpinned
    enumeration tree and costs one step.  The anchor proves a completion
    exists, so a completion never costs more steps than that enumeration.
    A model with no side-n pattern raises ``SamplingError``, and every
    admissible pattern can be the anchor, so every realized state can be
    drawn.  Draws are not uniform within a group.  ``checks`` is
    ``_cell_checks(model, n)``, computed here when not given.
    """
    if count < 1:
        raise ValueError(f"need count >= 1, got {count}")
    if checks is None:
        checks = _cell_checks(model, n)
    anchor_pattern = sample_admissible(model, n, rng, checks)
    anchor = surface_state(anchor_pattern)
    out = [anchor_pattern]
    while len(out) < count:
        out.append(sample_with_state(model, anchor, rng, checks))
    return out
