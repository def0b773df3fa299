"""The sampler's search as it was before ``enumeration._schedule`` replaced
its per-draw setup, kept as the reference the draws are checked against:
``_cell_checks``, ``_Shuffled`` and ``_search``, whose pins are one more
check per pinned cell (offset 0, one mask whatever is read), verbatim but
for the full mask, which ``SftModel`` no longer provides.

``sample_admissible``, ``sample_with_state`` and ``sample_same_state_group``
are the old samplers on top of them, each draw the first leaf of
``_search`` within ``budget`` steps: a group is a free draw, then
``count - 1`` completions pinned to its boundary state.  They raise
``SamplingError`` where the old samplers did (the texts are not compared).
"""

from __future__ import annotations

from collections.abc import Iterator

from sftbounds import CubePattern, SamplingError, SftModel, surface_state
from sftbounds.patterns import predecessors, surface_indices
from sftbounds.transfer import BudgetExceededError


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
    full = (1 << model.num_symbols) - 1

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


def _completion(model, n, rng, budget, fixed=None) -> CubePattern:
    try:
        for buf in _search(model, n, budget, None, rng, fixed):
            return CubePattern(n, model.dimension, tuple(buf))
    except BudgetExceededError:
        raise SamplingError("budget") from None
    raise SamplingError("exhausted")


def sample_admissible(model: SftModel, n: int, rng, budget: int) -> CubePattern:
    return _completion(model, n, rng, budget)


def sample_with_state(model: SftModel, state, rng, budget: int) -> CubePattern:
    fixed = dict(zip(surface_indices(state.n, state.d), state.cells))
    return _completion(model, state.n, rng, budget, fixed)


def sample_same_state_group(model: SftModel, n: int, count: int, rng, budget: int) -> list:
    anchor = sample_admissible(model, n, rng, budget)
    state = surface_state(anchor)
    return [anchor] + [sample_with_state(model, state, rng, budget) for _ in range(1, count)]
