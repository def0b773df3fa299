"""Seeded sampling of admissible patterns and same-state pattern groups.

Every draw is the first leaf of the package's one backtracking search,
``enumeration._search``, with shuffled value orders and the shell pinned
to a boundary state or free.  The shuffles come from a caller-supplied
``random.Random``, so identical seeds give identical draws.  Used by
``verify`` (through ``check_glued_samples``), the gluing demos and the
property tests.
"""

from __future__ import annotations

import random

from .models import SftModel
from .patterns import CubePattern, SurfaceState, surface_state
from .enumeration import BudgetExceededError, _search
from .gluing import glue_and_check

DEFAULT_ATTEMPT_BUDGET = 200_000


class SamplingError(RuntimeError):
    """No admissible pattern found within the attempt budget."""


def _randomized_completion(
    model: SftModel, n: int, rng: random.Random, pins: tuple[int, ...] | None = None
) -> CubePattern:
    """The first leaf of the shuffled ``_search``, its shell pinned to
    ``pins`` when given.  Raises SamplingError when the budget runs out or
    the search space is exhausted."""
    try:
        for buf in _search(model, n, DEFAULT_ATTEMPT_BUDGET, rng, pins):
            return CubePattern(n, model.dimension, tuple(buf))
    except BudgetExceededError:
        raise SamplingError(
            f"no admissible pattern found within {DEFAULT_ATTEMPT_BUDGET} steps"
        ) from None
    if pins is None:
        raise SamplingError(f"model admits no side-{n} pattern")
    raise SamplingError(f"no side-{n} pattern has the requested boundary state")


def sample_admissible(model: SftModel, n: int, rng: random.Random) -> CubePattern:
    """One admissible pattern, chosen by randomized backtracking search."""
    if n < 1:
        raise ValueError(f"need n >= 1, got {n}")
    return _randomized_completion(model, n, rng)


def sample_with_state(model: SftModel, state: SurfaceState, rng: random.Random) -> CubePattern:
    """One admissible pattern whose boundary state equals ``state``; at
    side 1, whose shell is its one cell, the state itself, with no search.
    Raises ``SamplingError`` when no side-n pattern has the state, before
    any search when a value is outside the alphabet."""
    if state.d != model.dimension:
        raise ValueError(f"state dimension {state.d} does not match model dimension {model.dimension}")
    if not 0 <= min(state.cells) <= max(state.cells) < model.num_symbols:
        raise SamplingError(f"no side-{state.n} pattern has the requested boundary state")
    if state.n == 1:
        return CubePattern(1, state.d, state.cells)
    p = _randomized_completion(model, state.n, rng, state.cells)
    if surface_state(p) != state:
        raise AssertionError("completion does not realize the requested state")
    return p


def sample_same_state_group(
    model: SftModel, n: int, count: int, rng: random.Random
) -> list[CubePattern]:
    """``count`` admissible patterns sharing one boundary state.

    A free draw (the anchor), then ``count - 1`` completions pinned to its
    state.  This loses nothing against enumerating all side-n patterns and
    grouping them by state.  A completion is that enumeration's search with
    pins: it visits only admissible prefixes that agree with the pins, each
    a node of the unpinned tree at one step.  The anchor proves a completion
    exists, so a completion never costs more steps than that enumeration.
    A model with no side-n pattern raises ``SamplingError``, and every
    admissible pattern can be the anchor, so every realized state can be
    drawn.  Draws are not uniform within a group.
    """
    if count < 1:
        raise ValueError(f"need count >= 1, got {count}")
    anchor_pattern = sample_admissible(model, n, rng)
    anchor = surface_state(anchor_pattern)
    out = [anchor_pattern]
    while len(out) < count:
        out.append(sample_with_state(model, anchor, rng))
    return out


def check_glued_samples(
    model: SftModel, n: int, samples: int, rng: random.Random
) -> tuple[int, bool]:
    """Draw ``samples`` same-state groups of side n and glue and check each
    (``gluing.glue_and_check``), up to the first that fails: (groups
    checked, no check failed).  A draw that raises SamplingError is
    skipped, up to 10 of them; the 11th is raised."""
    checked = failures = 0
    for _ in range(samples):
        try:
            group = sample_same_state_group(model, n, 1 << model.dimension, rng)
        except SamplingError:
            failures += 1
            if failures > 10:
                raise
            continue
        checked += 1
        _, _, glued_ok, wrap_ok = glue_and_check(model, group)
        if not (glued_ok and wrap_ok):
            return checked, False
    return checked, True
