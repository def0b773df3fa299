"""Exact slice-transfer counting, and the package's one counting entry
point ``count_patterns``.  The per-state counts C_n^(s) of the key
inequality come from ``state_counts``, on the same products.

A side-n cube is a stack of n slices along the last axis.  A slice is a
(d-1)-cube of side n that is internally admissible for axes 1..d-1; two
consecutive slices must be componentwise allowed along axis d.  The cube
count is the number of length-n walks in that transition relation T:
``C_n = 1^T T^(n-1) 1``.  In d = 1 a slice is one cell and T is the q x q
matrix of allowed pairs (Calkin-Wilf's transfer matrix); the code below
has no separate case for it.

The relation is never materialized as an edge list (it is far too dense at
interesting sizes).  Instead each vector-through-relation product is
applied one slice cell at a time: live states are packed base-q integers
holding the undecided suffix of the previous slice and the decided prefix
of the next one, with exact integer weights.  After a full product the
live states are again packed slices.  The all-ones slice vector is the
first such product, from an all-zeros previous slice with no last-axis
constraint, so every vector of the walk comes from the same kernel.  For
d >= 2 its size is the sub-model's C_n, which is counted (by this same
transfer, one dimension down) and checked against the state budget
before any product runs.

The walk is split in half (Calkin-Wilf's symmetric transfer matrix):
``C_n = <T^a 1, T^b 1>`` with ``a = (n-1) // 2`` and ``b = n-1-a``, since
``T = T^T`` for every model (``SftModel`` admits only symmetric forbidden
sets, the paper's hypothesis).  So the second vector is the first one
itself, advanced once more when n-1 is odd: about half the products, on
counts of about half the width.

The walk's products all share one key structure, so it is compiled once
per side (``_compile_product``): each phase becomes index arrays over the
sorted live keys, and each product then runs as C-level gathers and adds
over flat lists (``_apply_product``), with no dict per product.  The dict
loop of ``_advance`` stays for the one-shot products, where compiling
would cost more than it saves: the slice vector and every part of
``state_counts``.  It is also the reference the compiled product is
tested against.

``state_counts`` resolves the same walk by boundary state, for the key
inequality's ``C_n^(s)``.  The shell of the side-n cube (the cells with
some coordinate n-1) is the last slice plus, in every earlier slice, the
cells with some ``y_k = n-1`` for k < d.  So the slice vectors are kept
grouped by the shell digits the walk has passed: before each product a
group is split by the current slice's shell digits, and each part is
pushed through the same full (not halved) product.  After n-1 products a
(shell prefix, last slice) key is one boundary state, and its weight is
the number of patterns with that state.  In d = 1 no earlier slice has a
shell cell, so every prefix is 0 and the key is the last cell's value.
"""

from __future__ import annotations

from array import array
from itertools import compress, repeat
from operator import add, eq, floordiv, mod, mul

from .models import SftModel, drop_last_axis
from .enumeration import BudgetExceededError
from .patterns import decode

DEFAULT_STATE_BUDGET = 5_000_000


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


def build_slice_space(
    model: SftModel,
    n: int,
    phases: list,
    state_budget: int = DEFAULT_STATE_BUDGET,
) -> dict[int, int]:
    """The all-ones vector over the admissible (d-1)-cube slices of side n.

    It is the first product: an all-zeros previous slice pushed through the
    relation with no last-axis constraint, so each admissible slice is
    reached once, as a packed key with weight 1.  For d >= 2 the slice
    count is the sub-model's C_n, checked against ``state_budget`` before
    any product; in d = 1 the slices are the q symbols.
    """
    if (
        model.dimension > 1
        and count_patterns(drop_last_axis(model), n, state_budget) > state_budget
    ):
        raise BudgetExceededError(f"more than {state_budget} slices at side {n}")
    free = (model.full_mask,) * model.num_symbols
    return _advance(model, n, {0: 1}, free, phases, state_budget)


def _compile_product(
    model: SftModel,
    n: int,
    slices: list[int],
    last_masks: tuple[int, ...],
    phases: list,
    state_budget: int,
) -> list:
    """The product of ``_advance`` as index arrays over ``slices``.

    ``slices`` is ascending, and each of its keys is taken as live: the
    live keys of every phase are those of the first product from the
    all-ones vector (weights are positive), so the budget is refused where
    ``_advance`` would refuse it on that product, and later products, whose
    live keys are a subset, fit.  A vector is a list over the current keys
    plus a trailing 0.

    Per phase a key is ``s = base*q + a``.  Destination ``(base, v)`` is
    the key ``base + v*top``; it sums ``old[(base, a)]`` over the ``a``
    whose last-axis mask holds v, and it exists when the within-slice
    masks allow v at base and one of those sources is live.  Destinations
    are listed v-major and base-ascending, which is ascending key order.
    A phase is a list of blocks, one per v with destinations, and a block
    holds one ``array('i')`` of source positions per such ``a``, with the
    trailing 0's position where that source is not live.  When the product
    does not reach every slice, one more step of one block puts its
    outputs back in slice order, with zeros.
    """
    q = model.num_symbols
    top = q ** (n ** (model.dimension - 1) - 1)
    sources = [[a for a in range(q) if last_masks[a] >> v & 1] for v in range(q)]
    keys = slices
    steps = []
    for checks in phases:
        zero = len(keys)
        bases = list(map(floordiv, keys, repeat(q)))
        digits = list(map(mod, keys, repeat(q)))
        # at[a]: base -> position of the live key (base, a)
        at = []
        for a in range(q):
            sel = list(map(eq, digits, repeat(a)))
            at.append(dict(zip(compress(bases, sel), compress(range(zero), sel))))
        keys = []
        blocks = []
        for v, srcs in enumerate(sources):
            # the bases with a live source for v, ascending; the first two
            # cases only skip passes (about 15 % of a hard-square compile)
            if len(srcs) == q:
                cand = list(dict.fromkeys(bases))
            elif len(srcs) == 1:
                cand = list(at[srcs[0]])
            else:
                reads = [a in srcs for a in range(q)]
                live = compress(bases, map(reads.__getitem__, digits))
                cand = list(dict.fromkeys(live))
            for div, wmasks in checks:
                ok = [m >> v & 1 for m in wmasks]
                if not all(ok):
                    # s // div is base // (div // q): div is a power of q above 1
                    held = map(mod, map(floordiv, cand, repeat(div // q)), repeat(q))
                    cand = list(compress(cand, map(ok.__getitem__, held)))
            if cand:
                cols = [array("i", map(at[a].get, cand, repeat(zero))) for a in srcs]
                blocks.append(cols)
                keys.extend(map(add, cand, repeat(v * top)))
        if len(keys) > state_budget:
            raise BudgetExceededError(
                f"more than {state_budget} live transfer states at side {n}"
            )
        steps.append(blocks)
    if keys != slices:
        at_key = dict(zip(keys, range(len(keys))))
        steps.append([[array("i", map(at_key.get, slices, repeat(len(keys))))]])
    return steps


def _apply_product(steps: list, vec: list[int]) -> list[int]:
    """One product compiled by ``_compile_product``: gathers and adds."""
    for blocks in steps:
        get = vec.__getitem__
        vec = []
        for cols in blocks:
            it = map(get, cols[0])
            for col in cols[1:]:
                it = map(add, it, map(get, col))
            vec.extend(it)
        vec.append(0)
    return vec


def count_via_transfer(
    model: SftModel,
    n: int,
    state_budget: int = DEFAULT_STATE_BUDGET,
) -> int:
    """Exact cube count via the slice decomposition."""
    if n < 1:
        raise ValueError(f"need n >= 1, got {n}")
    phases = _phase_checks(model, n)
    slices = sorted(build_slice_space(model, n, phases, state_budget))
    masks = model.allowed_masks[model.dimension - 1]
    steps = _compile_product(model, n, slices, masks, phases, state_budget)
    v = [1] * len(slices) + [0]
    for _ in range((n - 1) // 2):
        v = _apply_product(steps, v)
    # T = T^T: T^a 1 is also the first a steps of T^b 1
    u = _apply_product(steps, v) if (n - 1) % 2 else v
    return sum(map(mul, v, u))


def state_counts(
    model: SftModel,
    n: int,
    state_budget: int = DEFAULT_STATE_BUDGET,
) -> dict[tuple[int, int], int]:
    """Exact pattern count per realized boundary state; values sum to C_n.

    The shell-keyed slice walk, keyed by (prefix, last slice): the last
    slice is packed as in the transfer, and the prefix holds, for slices
    0..n-2 in turn, the digits of that slice's shell cells in ascending
    cell order, as one base-q integer (slice 0 most significant).  The
    keys are one-to-one with the realized states; the caller that only
    needs the values never decodes them.
    """
    if n < 1:
        raise ValueError(f"need n >= 1, got {n}")
    d = model.dimension
    q = model.num_symbols
    phases = _phase_checks(model, n)
    forward = model.allowed_masks[d - 1]
    # q^p for each slice cell p on the shell, ascending
    shell = [q ** p for p in range(n ** (d - 1)) if n - 1 in decode(p, n, d - 1)]
    groups = {0: build_slice_space(model, n, phases, state_budget)}
    for _ in range(n - 1):
        parts: dict[int, dict[int, int]] = {}
        for prefix, dist in groups.items():
            for s, c in dist.items():
                key = prefix
                for div in shell:
                    key = key * q + s // div % q
                part = parts.get(key)
                if part is None:
                    parts[key] = part = {}
                part[s] = c
        groups = {}
        total = 0
        for key, part in parts.items():
            groups[key] = _advance(model, n, part, forward, phases, state_budget)
            total += len(groups[key])
            if total > state_budget:
                raise BudgetExceededError(
                    f"more than {state_budget} boundary-state keys at side {n}"
                )
    return {
        (prefix, s): c for prefix, dist in groups.items() for s, c in dist.items()
    }


def count_patterns(
    model: SftModel,
    n: int,
    state_budget: int = DEFAULT_STATE_BUDGET,
) -> int:
    """Exact C_n by the slice transfer, in every dimension."""
    return count_via_transfer(model, n, state_budget)
