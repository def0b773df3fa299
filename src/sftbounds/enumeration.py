"""Depth-first search over locally admissible patterns.

``_search`` is the package's one backtracking search; the sampler takes
its first leaf.  Run exhaustively, it gives ``count_patterns_dfs``,
``enumerate_patterns`` and ``count_by_state``, the independent reference
the tests check the slice transfer (``transfer.count_patterns``) against.

The search assigns cells in linear-index order, so each new cell is
constrained only by its already-placed predecessor neighbors (at most one
per axis); forbidden branches are pruned immediately.  Counts are plain
Python integers, hence exact at any size.  The node budget raises the
package's one budget error, ``transfer.BudgetExceededError``.
"""

from __future__ import annotations

from collections.abc import Iterator

from .models import SftModel
from .patterns import CubePattern, SurfaceState, predecessors, surface_indices
from .transfer import BudgetExceededError

DEFAULT_NODE_BUDGET = 50_000_000


def _cell_checks(model: SftModel, n: int):
    """Per cell: (offset, masks) for each already-assigned neighbor axis."""
    masks = model.allowed_masks
    return [tuple((off, masks[k]) for off, k in preds)
            for preds in predecessors(n, model.dimension)]


class _Shuffled:
    """``values_for_mask`` in a fresh ``rng.shuffle`` order at every lookup."""

    def __init__(self, values, rng):
        self.values, self.rng = values, rng

    def __getitem__(self, m: int):
        opts = self.values[m]
        if len(opts) < 2:  # a shuffle would draw nothing
            return opts
        opts = list(opts)
        self.rng.shuffle(opts)
        return opts


def _search(
    model: SftModel, n: int, budget: int, checks: list | None = None,
    rng=None, fixed: dict[int, int] | None = None,
) -> Iterator[list[int]]:
    """Yield every admissible cube assignment, reusing one value buffer.

    Values are tried in ascending order, or as ``rng.shuffle`` orders them;
    a cell in ``fixed`` takes only its pinned value.  Each accepted cell
    assignment costs one unit of budget; running out raises
    BudgetExceededError.  ``checks`` defaults to ``_cell_checks(model, n)``.
    """
    cells = n ** model.dimension
    if checks is None:
        checks = _cell_checks(model, n)
    if fixed:  # a pin is one more check: offset 0, one mask whatever is read
        checks = list(checks)
        for i, v in fixed.items():
            checks[i] += ((0, (1 << v,) * model.num_symbols),)
    vfm = model.values_for_mask
    if rng:
        vfm = _Shuffled(vfm, rng)
    full = model.full_mask

    buf = [0] * cells
    cand: list = [()] * cells
    pos = [0] * cells
    m = full
    for _, masks in checks[0]:  # pins only: no cell precedes cell 0
        m &= masks[0]
    cand[0] = vfm[m]
    depth = 0
    while depth >= 0:
        options = cand[depth]
        p = pos[depth]
        if p == len(options):
            depth -= 1
            continue
        pos[depth] = p + 1
        buf[depth] = options[p]
        budget -= 1
        if budget < 0:
            raise BudgetExceededError(
                f"node budget exhausted enumerating side {n} in dimension "
                f"{model.dimension}"
            )
        nxt = depth + 1
        if nxt == cells:
            yield buf
            continue
        m = full
        for off, masks in checks[nxt]:
            m &= masks[buf[nxt - off]]
        cand[nxt] = vfm[m]
        pos[nxt] = 0
        depth = nxt


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

