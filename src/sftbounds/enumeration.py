"""Depth-first search over locally admissible patterns.

``_search`` is the package's one backtracking search; the sampler takes
its first leaf.  Run exhaustively, it gives ``count_patterns_dfs``,
``enumerate_patterns`` and ``count_by_state``, the independent reference
the tests check the slice transfer (``transfer.count_patterns``) against.

The search assigns cells in linear-index order, so each new cell is
constrained only by its already-placed predecessor neighbors (at most one
per axis); forbidden branches are pruned immediately.  It follows one
schedule per (model, n) (``_schedule``): the free cells with their checks,
each followed by the pinned shell cells up to the next, checked right
after it.  Without pins every cell is free, so the exhaustive order is
lexicographic.  Counts are plain Python integers, hence exact at any
size.  The node budget raises the package's one budget error,
``transfer.BudgetExceededError``.
"""

from __future__ import annotations

from collections.abc import Iterator
from functools import lru_cache

from .models import SftModel
from .patterns import CubePattern, SurfaceState, predecessors, surface_indices
from .transfer import BudgetExceededError

DEFAULT_NODE_BUDGET = 50_000_000


@lru_cache(maxsize=64)
def _schedule(masks: tuple, n: int, d: int, shell: bool) -> tuple:
    """The search of side n for a model's ``allowed_masks`` (keyed by them,
    not the model, for a cheap hash): the full mask, the pinned cells (the
    shell if ``shell``, else none), the pinned cells before the first free
    one, and the free cells, ascending.  A pinned cell is (cell, checks), a
    free one (cell, checks, pins, len(pins)) with pins the pinned cells up
    to the next free one; checks are (index, masks) for each already-placed
    neighbor."""
    pinned = surface_indices(n, d) if shell else ()
    head, free = [], []
    for i, preds in enumerate(predecessors(n, d)):
        checks = tuple((i - off, masks[k]) for off, k in preds)
        if i in pinned:
            (free[-1][2] if free else head).append((i, checks))
        else:
            free.append((i, checks, []))
    free = tuple((i, c, tuple(pins), len(pins)) for i, c, pins in free)
    return (1 << len(masks[0])) - 1, pinned, tuple(head), free


def _passing(buf: list[int], pins: tuple, full: int) -> int:
    """How many of ``pins`` in a row hold the value ``buf`` gives them."""
    for k, (j, checks) in enumerate(pins):
        m = full
        for src, masks in checks:
            m &= masks[buf[src]]
        if not m >> buf[j] & 1:
            return k
    return len(pins)


def _search(
    model: SftModel, n: int, budget: int, rng=None, pins: tuple[int, ...] | None = None
) -> Iterator[list[int]]:
    """Yield every admissible cube assignment, reusing one value buffer.

    Values are tried in ascending order, or as ``rng.shuffle`` orders them.
    ``pins`` gives the shell cells' values (ascending cells); each pinned
    cell is checked right after the free cell before it, so its failure
    sends that free cell to its next value.  Each accepted free-cell value
    and each pin that passes costs one unit of budget; running out raises
    BudgetExceededError.
    """
    full, shell, head, free = _schedule(model.allowed_masks, n, model.dimension, pins is not None)
    vfm = model.values_for_mask
    buf = [0] * n ** model.dimension
    for i, v in zip(shell, pins or ()):
        buf[i] = v
    k = _passing(buf, head, full)
    budget -= k
    if budget < 0:
        raise _exhausted(model, n)
    if k < len(head):
        return
    if not free:  # side 1, pinned
        yield buf
        return
    depth, top = 0, len(free) - 1
    values = [None] * len(free)
    while True:
        i, checks, after, placed = free[depth]  # free cell ``depth``: its candidates
        m = full
        for src, masks in checks:
            m &= masks[buf[src]]
        opts = vfm[m]
        if rng and m & (m - 1):  # two values or more
            opts = list(opts)
            rng.shuffle(opts)
        values[depth] = untried = iter(opts)
        while True:  # its next value and the pins after it
            for v in untried:
                buf[i] = v
                k = _passing(buf, after, full) if after else 0
                budget -= 1 + k
                if budget < 0:
                    raise _exhausted(model, n)
                if k == placed:
                    if depth < top:
                        break
                    yield buf
            else:  # no value left: back to the free cell before
                if not depth:
                    return
                depth -= 1
                i, _, after, placed = free[depth]
                untried = values[depth]
                continue
            break
        depth += 1


def _exhausted(model: SftModel, n: int) -> BudgetExceededError:
    return BudgetExceededError(f"node budget exhausted enumerating side {n} in dimension {model.dimension}")


def _admissible_assignments(
    model: SftModel, n: int, node_budget: int | None
) -> Iterator[list[int]]:
    """Every admissible assignment, lexicographic by values."""
    budget = DEFAULT_NODE_BUDGET if node_budget is None else node_budget
    return _search(model, n, budget)


def count_patterns_dfs(model: SftModel, n: int, node_budget: int | None = None) -> int:
    """Exact number of locally admissible patterns on the side-n cube."""
    if n < 1:
        raise ValueError(f"need n >= 1, got {n}")
    total = 0
    for _ in _admissible_assignments(model, n, node_budget):
        total += 1
    return total


def enumerate_patterns(
    model: SftModel, n: int, node_budget: int | None = None
) -> Iterator[CubePattern]:
    """All admissible patterns exactly once, lexicographic by values."""
    if n < 1:
        raise ValueError(f"need n >= 1, got {n}")
    d = model.dimension
    for buf in _admissible_assignments(model, n, node_budget):
        yield CubePattern(n, d, tuple(buf))


def count_by_state(
    model: SftModel, n: int, node_budget: int | None = None
) -> dict[SurfaceState, int]:
    """Exact pattern count per boundary state; values sum to the total."""
    if n < 1:
        raise ValueError(f"need n >= 1, got {n}")
    surf = surface_indices(n, model.dimension)
    raw: dict[tuple[int, ...], int] = {}
    for buf in _admissible_assignments(model, n, node_budget):
        key = tuple(buf[i] for i in surf)
        raw[key] = raw.get(key, 0) + 1
    d = model.dimension
    return {SurfaceState(n, d, key): c for key, c in sorted(raw.items())}

