"""Seeded sampling of admissible patterns and same-state pattern groups.

Used by the gluing demos and the property tests.  Everything is driven by
a caller-supplied ``random.Random``, so identical seeds give identical
draws.
"""

from __future__ import annotations

import random

from .models import SftModel
from .patterns import CubePattern, SurfaceState, surface_indices, surface_state
from .enumeration import (
    BudgetExceededError,
    _cell_checks,
    enumerate_patterns,
)

DEFAULT_ATTEMPT_BUDGET = 200_000
DEFAULT_GROUP_ENUM_CAP = 100_000


class SamplingError(RuntimeError):
    """No admissible pattern found within the attempt budget."""


def _randomized_completion(
    model: SftModel,
    n: int,
    rng: random.Random,
    fixed: dict[int, int] | None = None,
    attempt_budget: int = DEFAULT_ATTEMPT_BUDGET,
) -> CubePattern:
    """Backtracking DFS with shuffled value order; cells in ``fixed`` are
    pinned to the given ids.  Raises SamplingError when the budget runs
    out or the search space is exhausted."""
    d = model.dimension
    cells = n ** d
    checks = _cell_checks(model, n)
    vfm = model.values_for_mask
    full = model.full_mask
    fixed = fixed or {}
    budget = attempt_budget

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
                f"no admissible pattern found within {attempt_budget} steps"
            )
        if depth + 1 == cells:
            return CubePattern(n, d, tuple(buf))
        depth += 1
        cand[depth] = options_at(depth)
        pos[depth] = 0
    raise SamplingError(f"model admits no side-{n} pattern")


def sample_admissible(
    model: SftModel,
    n: int,
    rng: random.Random,
    attempt_budget: int = DEFAULT_ATTEMPT_BUDGET,
) -> CubePattern:
    """One admissible pattern, chosen by randomized backtracking search."""
    if n < 1:
        raise ValueError(f"need n >= 1, got {n}")
    return _randomized_completion(model, n, rng, None, attempt_budget)


def sample_with_state(
    model: SftModel,
    state: SurfaceState,
    rng: random.Random,
    attempt_budget: int = DEFAULT_ATTEMPT_BUDGET,
) -> CubePattern:
    """One admissible pattern whose boundary state equals ``state``."""
    surf = surface_indices(state.n, state.d)
    fixed = dict(zip(surf, state.cells))
    p = _randomized_completion(model, state.n, rng, fixed, attempt_budget)
    if surface_state(p) != state:
        raise AssertionError("completion does not realize the requested state")
    return p


def sample_same_state_group(
    model: SftModel,
    n: int,
    count: int,
    rng: random.Random,
    enum_cap: int = DEFAULT_GROUP_ENUM_CAP,
    attempt_budget: int = DEFAULT_ATTEMPT_BUDGET,
) -> list[CubePattern]:
    """``count`` admissible patterns sharing one boundary state.

    Small instances enumerate all patterns and draw (with replacement)
    from the group of a randomly chosen pattern, so every reachable state
    can occur.  Larger instances pin the state of one sampled pattern and
    complete the interior by randomized search.
    """
    if count < 1:
        raise ValueError(f"need count >= 1, got {count}")
    patterns = None
    try:
        patterns = list(enumerate_patterns(model, n, node_budget=enum_cap))
    except BudgetExceededError:
        patterns = None
    if patterns is not None:
        if not patterns:
            raise SamplingError(f"model admits no side-{n} pattern")
        groups: dict[SurfaceState, list[CubePattern]] = {}
        for p in patterns:
            groups.setdefault(surface_state(p), []).append(p)
        anchor = surface_state(patterns[rng.randrange(len(patterns))])
        pool = groups[anchor]
        return [pool[rng.randrange(len(pool))] for _ in range(count)]
    anchor_pattern = sample_admissible(model, n, rng, attempt_budget)
    anchor = surface_state(anchor_pattern)
    out = [anchor_pattern]
    while len(out) < count:
        out.append(sample_with_state(model, anchor, rng, attempt_budget))
    return out
