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
applied one slice cell at a time.  Before phase p a live state is a pair
(y, x): y the next slice's cells 0..p-1, x the previous slice's cells
p..w-1.  The within-slice test on the new cell reads only y and the
last-axis test only the first digit of x, so the phase's vector is held
as a matrix over prefixes x suffixes, as Python lists, and the phase maps
rows (or columns) to rows (or columns) by C-level ``map`` gathers and
adds, one per row and symbol rather than one per state (``_apply_plan``).
Every product of a side shares one structure, so it is planned once per
side (``_plan_product``): per phase, index lists over the new suffixes
and 0/1 masks over the prefixes, about (prefixes + suffixes) * q per
phase, against prefixes * suffixes for a product.

The slices are the prefixes of full length, so the all-ones slice vector
comes from the same prefix recursion as the plan (``_extend_prefixes``),
with no last-axis constraint.  For d >= 2 its size is the sub-model's
C_n, which is counted (by this same transfer, one dimension down) and
checked against the state budget before any phase runs.

The walk is split in half (Calkin-Wilf's symmetric transfer matrix):
``C_n = <T^a 1, T^b 1>`` with ``a = (n-1) // 2`` and ``b = n-1-a``, since
``T = T^T`` for every model (``SftModel`` admits only symmetric forbidden
sets, the paper's hypothesis).  So the second vector is the first one
itself, advanced once more when n-1 is odd: about half the products, on
counts of about half the width.

The count also runs on one slice per symbol class.  Symbols r and s share
a class when the transposition (r s) maps every axis's forbidden set onto
itself (``SftModel.symbol_classes``; the smallest symbol represents its
class).  Applied cell by cell, such a permutation maps slices to slices
and compatible pairs to compatible pairs, so it commutes with T and fixes
1: T^k 1 is constant on its orbits.  The canonical slices are those whose
cell 0 is a representative, and tau = (rep(c) c) maps the slices with
cell 0 = c one-to-one onto those with cell 0 = rep(c) without changing
v * u, with v and u the two halves of the walk; so
``C_n = sum over canonical t of |class(t_0)| * v(t) * u(t)``.  A product
needs its output only on the canonical slices, and reads the input at s
from the canonical slice tau s.  For coloring:q one class holds every
symbol, so the product does one q-th of its work; hard-square has no
class of two symbols and runs the full product, as ``state_counts``
always does (its packed fields are not invariant).

``state_counts`` resolves the same walk by boundary state, for the key
inequality's ``C_n^(s)``.  The shell of the side-n cube (the cells with
some coordinate n-1) is the last slice plus, in every earlier slice, the
cells with some ``y_k = n-1`` for k < d.  The walk runs the full (not
halved) planned product n-1 times, once per step for every shell prefix
at once: each entry of the vector packs one count per shell prefix in
fixed-width bit fields of one integer, and before each product an entry
moves to the fields of the prefixes that append its slice's shell digits
by one left shift.  After n-1 products a (shell prefix, last slice) key
is one boundary state, and its field holds the number of patterns with
that state.  In d = 1 no earlier slice has a shell cell, so every prefix
is 0 and the key is the last cell's value.
"""

from __future__ import annotations

import sys
from itertools import chain, compress, count, repeat
from operator import add, and_, floordiv, lshift, mod, mul

from .models import SftModel, drop_last_axis
from .patterns import decode, surface_indices

DEFAULT_STATE_BUDGET = 5_000_000


class BudgetExceededError(RuntimeError):
    """The instance is too large for the requested exact computation."""


def _phase_checks(model: SftModel, n: int):
    """Per slice cell p: (divisor, masks) for each within-slice predecessor.

    The predecessor along axis k is cell p - n^(d-2-k), so it is digit
    ``prefix // divisor % q`` of a prefix holding cells 0..p-1.  The
    previous-slice constraint is not listed: the plan applies it at
    every cell.
    """
    d = model.dimension
    q = model.num_symbols
    masks = model.allowed_masks
    plans = []
    for p in range(n ** (d - 1)):
        y = decode(p, n, d - 1)
        plans.append(tuple(
            (q ** (p - n ** (d - 2 - k)), masks[k])
            for k in range(d - 1)
            if y[k] > 0
        ))
    return plans


def _extend_prefixes(
    prefixes: list[int], checks: tuple, p: int, q: int, values
) -> tuple[list, list[int]]:
    """One step of the prefix recursion: the next slice's cell p.

    ``prefixes`` pack cells 0..p-1 (cell j at digit j) and ``checks`` is
    ``_phase_checks``'s entry for cell p.  Lists (v, mask, size) for each v
    of ``values`` that some prefix takes, with ``mask`` the 0/1 list over
    ``prefixes`` of those that take v (None when all do), and returns it
    with the extended prefixes, v-major: ascending when ``prefixes`` are.
    """
    # each within-slice predecessor of cell p, as a digit of each prefix
    held = []
    for div, wmasks in checks:
        ys = map(floordiv, prefixes, repeat(div))
        held.append((list(map(mod, ys, repeat(q))), wmasks))
    kept = []
    for v in values:
        mask = None
        for digits, wmasks in held:
            ok = [m >> v & 1 for m in wmasks]
            if not all(ok):
                sel = map(ok.__getitem__, digits)
                mask = list(sel if mask is None else map(and_, mask, sel))
        size = len(prefixes) if mask is None else sum(mask)
        if size:
            kept.append((v, mask, size))
    top = q ** p
    new = []
    for v, mask, _ in kept:
        ys = prefixes if mask is None else compress(prefixes, mask)
        new.extend(map(add, ys, repeat(v * top)))
    return kept, new


def build_slice_space(
    model: SftModel,
    n: int,
    phases: list,
    state_budget: int = DEFAULT_STATE_BUDGET,
) -> dict[int, int]:
    """The all-ones vector over the admissible (d-1)-cube slices of side n.

    The slices are the prefixes of the full slice length, listed by the
    prefix recursion the plan of a product uses (``_extend_prefixes``), so
    the keys come out ascending.  Each phase's prefixes are checked against
    ``state_budget``.  For d >= 2 the slice count is the sub-model's C_n,
    checked against the budget before any phase runs; in d = 1 the slices
    are the q symbols.
    """
    if (
        model.dimension > 1
        and count_patterns(drop_last_axis(model), n, state_budget) > state_budget
    ):
        raise BudgetExceededError(f"more than {state_budget} slices at side {n}")
    q = model.num_symbols
    prefixes = [0]
    for p, checks in enumerate(phases):
        _, prefixes = _extend_prefixes(prefixes, checks, p, q, range(q))
        if len(prefixes) > state_budget:
            raise BudgetExceededError(
                f"more than {state_budget} live transfer states at side {n}"
            )
    return dict.fromkeys(prefixes, 1)


def _plan_product(
    model: SftModel,
    n: int,
    slices: list[int],
    last_masks: tuple[int, ...],
    phases: list,
    state_budget: int,
    quotient: bool = False,
):
    """One vector-through-relation product as a walk over prefix x suffix
    matrices, factored over the slice cells.

    Before phase p a live state is a pair (y, x): y is the next slice's
    cells 0..p-1 (prefix, cell j at digit j) and x the previous slice's
    cells p..w-1 (suffix, cell p at digit 0).  ``last_masks[a]`` is the
    set of values the next slice may hold where the previous one holds a,
    and ``phases`` is ``_phase_checks(model, n)``.  The phase
    maps (y, a + q*x') to (y + v*q^p, x'); the within-slice test on v reads
    only y and the last-axis test only a.  So the vector of phase p is held
    as a matrix over P_p x S_p, the prefixes and suffixes some slice
    reaches: y + v*q^p is kept when v passes the within-slice test at y and
    some a that allows v begins a suffix (``_extend_prefixes``), and x' when
    a + q*x' is a suffix for an a that a kept v reads.  A pair of P_p x S_p
    that is not a live state (a padded pair) is reached from no slice, so
    it holds 0 in every product and the counts stay exact.  The budget
    bounds the padded size |P_p| * |S_p| of every phase, before any
    product runs.

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
    order, with zeros, when P_w is not every slice.

    With ``quotient`` and a class of two or more symbols, phase 0 keeps
    only representatives: the product maps a vector over the canonical
    slices P_w, in P_w order, to one in the same order (module docstring).
    The suffixes are those read by a kept v or a class-mate, so each S_p
    is the full plan's; a prefix y stands for |class(y_0)| prefixes of the
    full plan, and the budget bounds that weighted count times |S_p|, the
    full plan's padded size, so refusals do not change.  The recursion
    carries each prefix's image under (rep(c) c), per non-representative
    c, and phase 0's index lists read at s the position of tau s.  A slice
    whose image is not in P_w has no neighbor, so what is read for it
    never reaches an output; it reads position 0.  Returns (steps, switch,
    remap, weights), ``weights`` the class sizes over P_w (None without a
    quotient), or None when a phase reaches nothing.
    """
    q = model.num_symbols
    w = len(phases)
    reads = [[a for a in range(q) if last_masks[a] >> v & 1] for v in range(q)]
    reps = model.symbol_classes
    quotient = quotient and len(slices) > 1 and reps != tuple(range(q))
    mates = reads
    if quotient:
        # what v or a class-mate of v reads; v's class size; (rep(c) c) on
        # the digits per non-representative c, and on the prefixes
        mates = [[a for c in range(q) if reps[c] == r for a in reads[c]] for r in reps]
        sizes = list(map(reps.count, reps))
        swaps = {c: [c if v == reps[c] else reps[c] if v == c else v for v in range(q)]
                 for c in range(q) if reps[c] != c}
        mirrors = dict.fromkeys(swaps, [0])
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
        readable = [v for v in range(q) if any(at[a] for a in reads[v])]
        if quotient and p == 0:
            readable = [v for v in readable if reps[v] == v]
        kept, new = _extend_prefixes(prefixes, checks, p, q, readable)
        if not kept:
            return None
        # the suffixes some kept v or a class-mate reads, in groups by
        # which a + q*x' exist
        readable = sorted({a for v, _, _ in kept for a in mates[v]})
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
        prefixes = new
        suffixes = [x for g in groups.values() for x in g]
        padded = len(prefixes)
        if quotient:
            for c, swap in swaps.items():
                images = []  # extended as _extend_prefixes extends the prefixes
                for v, mask, _ in kept:
                    ys = mirrors[c] if mask is None else compress(mirrors[c], mask)
                    images.extend(map(add, ys, repeat(swap[v] * q ** p)))
                mirrors[c] = images
            weights = list(map(sizes.__getitem__, map(mod, prefixes, repeat(q))))
            padded = sum(weights)
        if padded * len(suffixes) > state_budget:
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
    if not quotient:
        remap = None
        if prefixes != slices:
            pos = dict(zip(prefixes, range(len(prefixes))))
            remap = list(map(pos.get, slices, repeat(len(prefixes))))
        return steps, switch, remap, None
    # where[s]: the position in P_w of the canonical image of slice s
    where = dict(zip(prefixes, count()))
    cells = list(map(mod, prefixes, repeat(q)))
    for c, images in mirrors.items():
        sel = list(map(reps[c].__eq__, cells))
        where.update(zip(compress(images, sel), compress(count(), sel)))
    get = list(map(where.get, slices, repeat(0))).__getitem__
    # phase 0 runs on rows: P_0 is one prefix, S_0 at least two slices
    steps[0] = [
        (mask, [(size, [list(map(get, i)) for i in idx]) for size, idx in parts])
        for mask, parts in steps[0]
    ]
    return steps, switch, None, weights


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
    """One product planned by ``_plan_product``, on a vector over its slices."""
    steps, switch, remap, _ = plan
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


def _planned_side(
    model: SftModel, n: int, state_budget: int, fields: int = 1, quotient: bool = False
) -> tuple[list[int], tuple | None]:
    """The slices of side n, ascending, and the plan of the product of
    side n (None when n == 1 or when the product of any vector is 0),
    on the canonical slices with ``quotient`` (see ``_plan_product``).

    ``fields`` counts the keys each slice's entry holds: ``fields`` times
    the slice count is checked against the budget before the plan is made
    (for a count, ``fields`` is 1 and the slices already fit).
    """
    phases = _phase_checks(model, n)
    slices = list(build_slice_space(model, n, phases, state_budget))
    if fields * len(slices) > state_budget:
        raise BudgetExceededError(
            f"more than {state_budget} boundary-state keys at side {n}"
        )
    if n == 1:  # no product
        return slices, None
    masks = model.allowed_masks[model.dimension - 1]
    plan = _plan_product(model, n, slices, masks, phases, state_budget, quotient)
    return slices, plan


def count_via_transfer(
    model: SftModel,
    n: int,
    state_budget: int = DEFAULT_STATE_BUDGET,
) -> int:
    """Exact cube count via the slice decomposition, on canonical slices."""
    if n < 1:
        raise ValueError(f"need n >= 1, got {n}")
    slices, plan = _planned_side(model, n, state_budget, quotient=True)
    if n == 1:
        return len(slices)
    if plan is None:  # the product of any vector is 0
        return 0
    weights = plan[3]
    v = [1] * len(slices if weights is None else weights)
    for _ in range((n - 1) // 2):
        v = _apply_plan(plan, v)
    # T = T^T: T^a 1 is also the first a steps of T^b 1
    u = _apply_plan(plan, v) if (n - 1) % 2 else v
    vu = map(mul, v, u)
    return sum(vu if weights is None else map(mul, weights, vu))


def state_counts(
    model: SftModel,
    n: int,
    state_budget: int = DEFAULT_STATE_BUDGET,
) -> dict[tuple[int, int], int]:
    """Exact pattern count per realized boundary state; values sum to C_n.

    Keyed by (prefix, last slice): the last slice is packed as in the
    transfer, and the prefix holds, for slices 0..n-2 in turn, the digits
    of that slice's h shell cells in ascending cell order, as one base-q
    integer (slice 0 most significant).  The keys are one-to-one with the
    realized states; the caller that only needs the values never decodes
    them.

    The walk runs the planned product n-1 times on one vector whose entry
    for slice s packs a count per shell prefix in W-bit fields, with slice
    0's digits in the least significant place: field f = sum_j c_j Q^j,
    Q = q^h, at bits [f*W, (f+1)*W), where c_j is the code of slice j's
    shell digits (first shell cell most significant).  Before step k the
    entry of slice s moves to the fields that append s's code, one left
    shift by code(s) * Q^k * W bits, so an entry holds Q^(k+1) fields
    after step k.  The product is linear and maps every field alike, so
    after n-1 steps field f of slice s is the count of key (g, s), where g
    lists the same codes slice 0 first; ``_unpack`` keys f by g.  The
    budget bounds the final vector, Q^(n-1) fields per slice, before any
    product.  It does not bound the walk's peak: a phase holds up to
    prefixes x suffixes entries (at most the budget, by the plan's own
    check), each of up to Q^(n-1) fields.

    No field carries into the next.  With m slices, after k products a
    field holds the number of walks s_0..s_k that end in its slice (and
    pass its prefix's shell digits), at most m^k.  Within a product, an
    entry of phase p sums the entries of distinct previous slices (those
    sharing the suffix of cells p..w-1), so it is at most m * m^k.  With
    k <= n-2 every entry, final or intermediate, is at most m^(n-1), and
    m^(n-1) < 2^((n-1) * b) with b = m.bit_length().  W is (n-1) * b
    rounded up to whole 64-bit words, for the unpacking.
    """
    if n < 1:
        raise ValueError(f"need n >= 1, got {n}")
    d = model.dimension
    q = model.num_symbols
    # q^p for each slice cell p on the shell, ascending
    shell = [q ** p for p in surface_indices(n, d - 1)]
    block = q ** len(shell)
    slices, plan = _planned_side(model, n, state_budget, block ** (n - 1))
    if n == 1:
        return dict.fromkeys(zip(repeat(0), slices), 1)
    if plan is None:  # the product of any vector is 0
        return {}
    codes = [0] * len(slices)
    for div in shell:
        digits = map(mod, map(floordiv, slices, repeat(div)), repeat(q))
        codes = list(map(add, map(mul, codes, repeat(q)), digits))
    # W: (n-1) * b bits, rounded up to whole 64-bit words
    width = -(-(n - 1) * len(slices).bit_length() // 64) * 64
    vec = [1] * len(slices)
    for k in range(n - 1):
        shifts = map(mul, codes, repeat(block ** k * width))
        vec = _apply_plan(plan, list(map(lshift, vec, shifts)))
    # prefix[f]: the key prefix g of field f; step j appends slice j's code
    # c, at f + c * Q^j and g * Q + c
    prefix = [0]
    for _ in range(n - 1):
        shifted = list(map(mul, prefix, repeat(block)))
        prefix = list(chain.from_iterable(
            map(add, shifted, repeat(c)) for c in range(block)
        ))
    return _unpack(vec, slices, prefix, width)


def _unpack(vec: list[int], slices: list[int], prefix: list[int], width: int):
    """The nonzero ``width``-bit fields of each entry, keyed (prefix, slice).

    Each entry becomes a list of 64-bit words at C level, and a field of
    several words is joined from its words; field f gets key prefix[f].
    """
    words = width // 64
    size = len(prefix) * width // 8
    out = {}
    for s, v in zip(slices, vec):
        if not v:
            continue
        raw = memoryview(v.to_bytes(size, sys.byteorder)).cast("Q").tolist()
        if sys.byteorder == "big":
            raw.reverse()
        vals = raw[::words]
        for j in range(1, words):
            vals = list(map(add, vals, map(lshift, raw[j::words], repeat(64 * j))))
        out.update(zip(zip(compress(prefix, vals), repeat(s)), compress(vals, vals)))
    return out


def count_patterns(
    model: SftModel,
    n: int,
    state_budget: int = DEFAULT_STATE_BUDGET,
) -> int:
    """Exact C_n by the slice transfer, in every dimension."""
    return count_via_transfer(model, n, state_budget)
