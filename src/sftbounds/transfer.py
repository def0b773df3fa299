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

The walk's products all share one structure, so it is planned once per
side (``_plan_product``).  Before phase p a live key is a pair (y, x): y
the next slice's cells 0..p-1, x the previous slice's cells p..w-1.  The
within-slice test on the new cell reads only y and the last-axis test
only the first digit of x, so the phase's vector is held as a matrix over
prefixes x suffixes, as Python lists, and the phase maps rows (or
columns) to rows (or columns) by C-level ``map`` gathers and adds, one
per row and symbol rather than one per key (``_apply_plan``).  The plan
holds, per phase, index lists over the new suffixes and 0/1 masks over
the prefixes, so it costs about (prefixes + suffixes) * q per phase,
against prefixes * suffixes for a product.  The dict loop of
``_advance`` stays for the one-shot products: the slice vector and every
part of ``state_counts``, where the parts are small and dense.  It is
also the reference the planned product is tested against.

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

from itertools import compress, repeat
from operator import add, and_, floordiv, mod, mul

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


def _plan_product(
    model: SftModel,
    n: int,
    slices: list[int],
    last_masks: tuple[int, ...],
    phases: list,
    state_budget: int,
):
    """The product of ``_advance`` as a walk over prefix x suffix matrices.

    Before phase p a live key of ``_advance`` is a pair (y, x): y is the
    next slice's cells 0..p-1 (prefix, cell j at digit j) and x the
    previous slice's cells p..w-1 (suffix, cell p at digit 0).  The phase
    maps (y, a + q*x') to (y + v*q^p, x'); the within-slice test on v reads
    only y and the last-axis test only a.  So the vector of phase p is held
    as a matrix over P_p x S_p, the prefixes and suffixes some slice
    reaches: y + v*q^p is kept when v passes the within-slice test at y and
    some a that allows v begins a suffix, and x' when a + q*x' is a suffix
    for an a that a kept v reads.  A pair of P_p x S_p that is not a live
    key (a padded pair) is reached from no slice, so it holds 0 in every
    product and the counts stay exact.  The budget bounds the padded size
    |P_p| * |S_p| of every phase, before any product runs.

    P_0 is the empty prefix and S_0 is ``slices`` (ascending).  Prefixes
    are listed v-major, so P_w comes out ascending.  S_{p+1} is listed in
    groups of the suffixes x' with the same set of a for which a + q*x' is
    in S_p, so no gather reads an absent source.  Steps before ``switch``
    run on rows over suffixes (one per prefix), the rest on columns over
    prefixes (one per suffix); the layout turns once, at the first phase
    where |P_p| >= |S_p|, so the inner lists stay the long side.

    A row step lists, per kept v, the 0/1 mask over P_p of the prefixes
    that take v (None when all do) and, per group, its size and the index
    lists into S_p that it sums.  A column step lists (mask, output size)
    per kept v, and per suffix of S_{p+1} a tuple, per kept v, of the
    positions in S_p it sums.  ``remap`` puts the output back in slice
    order, with zeros, when P_w is not every slice.  Returns
    (steps, switch, remap), or None when a phase reaches nothing.
    """
    q = model.num_symbols
    w = len(phases)
    reads = [[a for a in range(q) if last_masks[a] >> v & 1] for v in range(q)]
    prefixes, suffixes = [0], slices
    steps = []
    switch = w
    for p, checks in enumerate(phases):
        if switch == w and len(prefixes) >= len(suffixes):
            switch = p
        # at[a]: x' -> position of a + q*x' in the suffixes
        at = [{} for _ in range(q)]
        for i, x in enumerate(suffixes):
            at[x % q][x // q] = i
        # each within-slice predecessor of cell p, as a digit of each prefix:
        # ``div`` places it in the key of ``_advance``, past the suffix
        held = []
        for div, wmasks in checks:
            ys = map(floordiv, prefixes, repeat(div // q ** (w - p)))
            held.append((list(map(mod, ys, repeat(q))), wmasks))
        kept = []
        for v in range(q):
            if not any(at[a] for a in reads[v]):
                continue
            mask = None
            for digits, wmasks in held:
                ok = [m >> v & 1 for m in wmasks]
                if not all(ok):
                    sel = map(ok.__getitem__, digits)
                    mask = list(sel if mask is None else map(and_, mask, sel))
            size = len(prefixes) if mask is None else sum(mask)
            if size:
                kept.append((v, mask, size))
        if not kept:
            return None
        # the suffixes some kept v reads, in groups by which a + q*x' exist
        readable = sorted({a for v, _, _ in kept for a in reads[v]})
        groups = {(): set().union(*(at[a] for a in readable))}
        for a in readable:
            split = {}
            for sig, g in groups.items():
                for key, part in (
                    (sig + (a,), g.intersection(at[a])),
                    (sig, g.difference(at[a])),
                ):
                    if part:
                        split[key] = part
            groups = split
        groups = {sig: list(g) for sig, g in groups.items()}
        top = q ** p
        new = []
        for v, mask, _ in kept:
            ys = prefixes if mask is None else compress(prefixes, mask)
            new.extend(map(add, ys, repeat(v * top)))
        prefixes = new
        suffixes = [x for g in groups.values() for x in g]
        if len(prefixes) * len(suffixes) > state_budget:
            raise BudgetExceededError(
                f"more than {state_budget} live transfer states at side {n}"
            )
        # per kept v and group: its size and the index lists it sums
        index = {
            sig: {a: list(map(at[a].__getitem__, g)) for a in sig}
            for sig, g in groups.items()
        }
        by_v = [
            [(len(g), [index[sig][a] for a in reads[v] if a in sig])
             for sig, g in groups.items()]
            for v, _, _ in kept
        ]
        if p < switch:
            steps.append(list(zip([mask for _, mask, _ in kept], by_v)))
        else:
            # per new suffix, the source positions per kept v
            sources = []
            for parts in zip(*by_v):
                sources.extend(zip(*(
                    zip(*idx) if idx else repeat((), size) for size, idx in parts
                )))
            steps.append(([(mask, size) for _, mask, size in kept], sources))
    remap = None
    if prefixes != slices:
        pos = dict(zip(prefixes, range(len(prefixes))))
        remap = list(map(pos.get, slices, repeat(len(prefixes))))
    return steps, switch, remap


def _rows_step(rows: list, step: list) -> list:
    """One prefix-major phase: per kept v and prefix, gather and add."""
    out = []
    for mask, groups in step:
        for row in rows if mask is None else compress(rows, mask):
            get = row.__getitem__
            new = []
            for size, idx in groups:
                if idx:
                    it = map(get, idx[0])
                    for more in idx[1:]:
                        it = map(add, it, map(get, more))
                    new.extend(it)
                else:
                    new.extend(repeat(0, size))
            out.append(new)
    return out


def _columns_step(cols: list, step: tuple) -> list:
    """One suffix-major phase: per new suffix and kept v, add the source
    columns on the prefixes that take v."""
    kept, sources = step
    out = []
    for srcs in sources:
        new = []
        for (mask, size), js in zip(kept, srcs):
            if not js:
                new.extend(repeat(0, size))
                continue
            it = None
            for j in js:
                col = cols[j] if mask is None else compress(cols[j], mask)
                it = col if it is None else map(add, it, col)
            new.extend(it)
        out.append(new)
    return out


def _apply_plan(plan: tuple, vec: list[int]) -> list[int]:
    """One product planned by ``_plan_product``, on a vector over the slices."""
    steps, switch, remap = plan
    m = [vec]  # one row, for the empty prefix
    for step in steps[:switch]:
        m = _rows_step(m, step)
    m = list(zip(*m))  # rows over suffixes to columns over prefixes
    for step in steps[switch:]:
        m = _columns_step(m, step)
    vec = m[0]  # one column, for the empty suffix
    if remap is not None:
        vec = list(map([*vec, 0].__getitem__, remap))
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
    if n == 1:  # no product
        return len(slices)
    masks = model.allowed_masks[model.dimension - 1]
    plan = _plan_product(model, n, slices, masks, phases, state_budget)
    if plan is None:  # the product of any vector is 0
        return 0
    v = [1] * len(slices)
    for _ in range((n - 1) // 2):
        v = _apply_plan(plan, v)
    # T = T^T: T^a 1 is also the first a steps of T^b 1
    u = _apply_plan(plan, v) if (n - 1) % 2 else v
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
