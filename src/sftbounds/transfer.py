"""Exact slice-transfer counting for d >= 2, and the package's one
counting entry point ``count_patterns``: it counts with the DFS of
``enumeration`` for d = 1 and with the slice transfer below for d >= 2.

A side-n cube is a stack of n slices along the last axis.  A slice is a
(d-1)-cube of side n that is internally admissible for axes 1..d-1; two
consecutive slices must be componentwise allowed along axis d.  The cube
count is the number of length-n walks in that transition relation T:
``C_n = 1^T T^(n-1) 1``.

The relation is never materialized as an edge list (it is far too dense at
interesting sizes).  Instead each vector-through-relation product is
applied one slice cell at a time: live states are packed base-q integers
holding the undecided suffix of the previous slice and the decided prefix
of the next one, with exact integer weights.  After a full product the
live states are again packed slices.

The walk is split in half (Calkin-Wilf's symmetric transfer matrix):
``C_n = <(T^T)^a 1, T^b 1>`` with ``a = (n-1) // 2`` and ``b = n-1-a``.
A symmetric model (the paper's hypothesis) has ``T = T^T``, so the second
vector is the first one itself, advanced once more when n-1 is odd: about
half the products, on counts of about half the width.  A model built
directly with an asymmetric last-axis relation walks the second vector
from scratch with the transposed masks.  ``TransitionStructure`` still
builds explicit adjacency lists for small instances, where tests
cross-check the factored product against plain walk counting.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

from .models import SftModel, drop_last_axis
from .enumeration import BudgetExceededError, count_patterns_dfs, enumerate_patterns
from .patterns import decode

DEFAULT_STATE_BUDGET = 5_000_000
DEFAULT_EDGE_BUDGET = 2_000_000


@dataclass(frozen=True)
class SliceStateSpace:
    """All admissible slices for one (model, n), in lexicographic order."""

    model: SftModel
    n: int
    slices: tuple[tuple[int, ...], ...]

    @cached_property
    def index(self) -> dict[tuple[int, ...], int]:
        return {s: i for i, s in enumerate(self.slices)}

    def __len__(self) -> int:
        return len(self.slices)


@dataclass(frozen=True)
class TransitionStructure:
    """Adjacency lists of the slice transition relation along the last axis."""

    space: SliceStateSpace
    neighbors: tuple[tuple[int, ...], ...]


def build_slice_space(
    model: SftModel,
    n: int,
    node_budget: int | None = None,
    state_budget: int = DEFAULT_STATE_BUDGET,
) -> SliceStateSpace:
    """Enumerate the admissible (d-1)-cube slices of side n."""
    if model.dimension < 2:
        raise ValueError("slice decomposition needs dimension >= 2")
    sub = drop_last_axis(model)
    slices = []
    for p in enumerate_patterns(sub, n, node_budget):
        slices.append(p.values)
        if len(slices) > state_budget:
            raise BudgetExceededError(
                f"more than {state_budget} slices at side {n}"
            )
    return SliceStateSpace(model, n, tuple(slices))


def build_transitions(
    space: SliceStateSpace, edge_budget: int = DEFAULT_EDGE_BUDGET
) -> TransitionStructure:
    """Explicit adjacency lists; checks the relation is symmetric.

    Quadratic in the slice count, so only for small instances; the
    counting path never calls this.
    """
    model = space.model
    allowed_last = model.allowed[model.dimension - 1]
    slices = space.slices
    m = len(slices)
    if m * m > 4 * edge_budget:
        raise BudgetExceededError(
            f"{m}^2 slice pairs exceed the transition budget"
        )
    neighbors = []
    edges = 0
    for s1 in slices:
        row = []
        for j, s2 in enumerate(slices):
            if all(allowed_last[a][b] for a, b in zip(s1, s2)):
                row.append(j)
                edges += 1
                if edges > edge_budget:
                    raise BudgetExceededError(
                        f"more than {edge_budget} transitions at side {space.n}"
                    )
        neighbors.append(tuple(row))
    for i, row in enumerate(neighbors):
        for j in row:
            if i not in neighbors[j]:
                raise AssertionError(
                    f"transition relation is not symmetric at pair ({i}, {j})"
                )
    return TransitionStructure(space, tuple(neighbors))


def _phase_checks(model: SftModel, n: int):
    """Per slice cell: (divisor, masks) for each within-slice predecessor.

    The previous-slice constraint (oldest packed digit) is implicit and
    applied unconditionally by the advance loop.
    """
    d = model.dimension
    q = model.num_symbols
    w = n ** (d - 1)
    masks = model.allowed_masks
    plans = []
    for p in range(w):
        y = decode(p, n, d - 1)
        cs = []
        for k in range(d - 1):
            if y[k] > 0:
                s_k = n ** (d - 2 - k)
                cs.append((q ** (w - s_k), masks[k]))
        plans.append(tuple(cs))
    return plans


def _pack(values: tuple[int, ...], q: int) -> int:
    code = 0
    for p, v in enumerate(values):
        code += v * q ** p
    return code


def _transpose(masks: tuple[int, ...]) -> tuple[int, ...]:
    """Mask table of the reversed relation: bit a of row b iff (a, b) allowed."""
    q = len(masks)
    return tuple(
        sum(1 << a for a in range(q) if masks[a] >> b & 1) for b in range(q)
    )


def _advance(
    model: SftModel,
    n: int,
    dist: dict[int, int],
    last_masks: tuple[int, ...],
    phases: list,
    state_budget: int,
):
    """One vector-through-relation product, factored over slice cells.

    ``last_masks[a]`` is the set of values the next slice may hold where
    the previous one holds a; ``phases`` is ``_phase_checks(model, n)``.
    """
    d = model.dimension
    q = model.num_symbols
    w = n ** (d - 1)
    top = q ** (w - 1)
    vfm = model.values_for_mask
    # One loop per number of within-slice checks (0, 1, more), kept on
    # measurement: a single generic loop was 12-21 % slower on hard-square
    # C_15 and 9 % or more on coloring:3 C_11 (medians of 7 runs, three
    # sessions, same counts), and within noise on hard-square d = 3 C_4.
    for checks in phases:
        new: dict[int, int] = {}
        get = new.get
        if not checks:
            for s, c in dist.items():
                m = last_masks[s % q]
                if m:
                    base = s // q
                    for v in vfm[m]:
                        k = base + v * top
                        new[k] = get(k, 0) + c
        elif len(checks) == 1:
            div, wmasks = checks[0]
            for s, c in dist.items():
                m = last_masks[s % q] & wmasks[(s // div) % q]
                if m:
                    base = s // q
                    for v in vfm[m]:
                        k = base + v * top
                        new[k] = get(k, 0) + c
        else:
            for s, c in dist.items():
                m = last_masks[s % q]
                for div, wmasks in checks:
                    m &= wmasks[(s // div) % q]
                if m:
                    base = s // q
                    for v in vfm[m]:
                        k = base + v * top
                        new[k] = get(k, 0) + c
        if len(new) > state_budget:
            raise BudgetExceededError(
                f"more than {state_budget} live transfer states at side {n}"
            )
        dist = new
    return dist


def _walk(
    model: SftModel,
    n: int,
    space: SliceStateSpace,
    masks: tuple[int, ...],
    phases: list,
    steps: int,
    state_budget: int,
) -> dict[int, int]:
    """The all-ones slice vector pushed through ``steps`` products."""
    q = model.num_symbols
    dist = {_pack(s, q): 1 for s in space.slices}
    for _ in range(steps):
        dist = _advance(model, n, dist, masks, phases, state_budget)
    return dist


def count_via_transfer(
    model: SftModel,
    n: int,
    node_budget: int | None = None,
    state_budget: int = DEFAULT_STATE_BUDGET,
) -> int:
    """Exact cube count via the slice decomposition (DFS when d = 1)."""
    if n < 1:
        raise ValueError(f"need n >= 1, got {n}")
    if model.dimension == 1:
        return count_patterns_dfs(model, n, node_budget)
    space = build_slice_space(model, n, node_budget, state_budget)
    phases = _phase_checks(model, n)
    forward = model.allowed_masks[model.dimension - 1]
    backward = _transpose(forward)
    a = (n - 1) // 2
    v = _walk(model, n, space, forward, phases, a, state_budget)
    if backward == forward:
        u = v  # T = T^T: T^a 1 is also the first a steps of T^b 1
    else:
        u = _walk(model, n, space, backward, phases, a, state_budget)
    if (n - 1) % 2:
        u = _advance(model, n, u, backward, phases, state_budget)
    get = u.get
    return sum(c * get(k, 0) for k, c in v.items())


def count_patterns(
    model: SftModel,
    n: int,
    node_budget: int | None = None,
    state_budget: int = DEFAULT_STATE_BUDGET,
) -> int:
    """Exact C_n: DFS for d = 1, the slice transfer for d >= 2."""
    if model.dimension == 1:
        return count_patterns_dfs(model, n, node_budget)
    return count_via_transfer(model, n, node_budget, state_budget)
