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
rows (or columns) to rows (or columns) by C-level gathers and adds, one
per row and symbol rather than one per state (``_apply_plan``).  Every
product of a side shares one structure, so it is planned once per side
(``_plan_product``), at about (prefixes + suffixes) * q per phase against
prefixes * suffixes for a product.  A suffix is packed with its first
cell most significant and each phase's suffixes are kept sorted, so
those that begin with a symbol a are one block, listed in the order of
the next phase's suffixes.  Those fall into a few runs (2 per phase on
hard-square d=2, 3 on coloring:3), and what a run reads from a block is
one range: each row gather is a list slice.

The suffixes of phase 0 need no repacking.  Let R be the point
reflection of a slice, which sends cell j to cell w-1-j.  It maps a pair
of neighbors along a slice axis to the same pair in reverse order, and
every forbidden set is symmetric, so R maps slices to slices; it maps
compatible pairs to compatible pairs, so RT = TR, and R1 = 1.  The
suffix packing of a slice is the prefix packing of its reflection, so the
suffixes of phase 0 are the ascending slice list itself, position i
standing for the slice R(s_i).  A product so planned computes T R, which
is T on every R-invariant vector, and every T^k 1 is one.

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
(or its reflection's, so that the R of each T R cancels) by one left
shift.  After n-1 products a (shell prefix, last slice) key is one
boundary state, and its field holds the number of patterns with that
state.  In d = 1 no earlier slice has a shell cell, so every prefix is 0
and the key is the last cell's value.

Side n is planned once per run: a caller that needs its count and its
table holds one ``Side`` and passes it to both.  The slices are listed
once, and so is the plan when no class holds two symbols, where the
count's plan is the table's.  Nothing is kept between calls.
"""

from __future__ import annotations

import sys
from bisect import bisect_left
from itertools import chain, compress, count, repeat
from operator import add, and_, floordiv, lshift, mod, mul, sub

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


def _reversals(q: int, k: int) -> list[int]:
    """Each of 0..q^k-1 with its k base-q digits in reverse order: the key
    prefix of each field of ``state_counts``."""
    table = [0]
    for _ in range(k):  # a new top digit t of the index is the entry's lowest
        table = [t + q * r for t in range(q) for r in table]
    return table


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
    cells p..w-1 (suffix, cell j at digit w-1-j, the first cell most
    significant).  ``last_masks[a]`` is the set of values the next slice
    may hold where the previous one holds a; ``phases`` is
    ``_phase_checks(model, n)``.  The phase maps (y, a x') to
    (y + v*q^p, x'): the within-slice test on v reads only y and the
    last-axis test only a.  So the vector of phase p is a matrix over
    P_p x S_p, the prefixes and suffixes some slice reaches: y + v*q^p is
    kept when v passes the within-slice test at y and some a that allows v
    begins a suffix (``_extend_prefixes``), and x' when a x' is a suffix
    for an a that a kept v reads.  A pair of P_p x S_p that is not a live
    state (a padded pair) is reached from no slice, so it holds 0 in every
    product and the counts stay exact.  The budget bounds the padded size
    |P_p| * |S_p| of every phase, before any product runs.

    P_0 is the empty prefix and S_0 is ``slices``, which must be
    ascending: read in suffix packing, they are every slice, the point
    reflection R(s) of each slice s (module docstring).  Prefixes are
    listed v-major, so P_w comes out ascending, and every S_p
    is ascending: the suffixes that begin with a are one block of S_p
    (found by bisection), in the order of their tails x' in S_{p+1}.  So
    S_{p+1} falls into runs, maximal ranges of x' with the same set of a
    for which a x' is in S_p, and a run reads one range of each a's
    block.  Steps before ``switch`` run on rows over suffixes (one per
    prefix), the rest on columns over prefixes (one per suffix); the
    layout turns once, at the first phase where |P_p| >= |S_p|, so the
    inner lists stay the long side.  A row step lists, per kept v, the 0/1
    mask over P_p of the prefixes that take v (None when all do) and, per
    run, its size and the slices of S_p it sums.  A column step lists
    (mask, output size) per kept v, and per suffix of S_{p+1} a tuple, per
    kept v, of the positions in S_p it sums.  Phase 0 gathers by slices
    too: position i of the input, which is in slice order, is read as the
    entry of suffix s_i, the slice R(s_i).  So the product maps a vector u
    to T R u, which is T u when u is R-invariant, as every vector of a
    count is; ``state_counts`` undoes the R itself.  ``remap`` puts the
    output back in slice order, with zeros, when P_w is not every slice.

    With ``quotient`` and a class of two or more symbols, phase 0 keeps
    only representatives: the product maps a vector over the canonical
    slices P_w, in P_w order, to one in the same order (module docstring).
    The suffixes are those read by a kept v or a class-mate, so each S_p
    is the full plan's; a prefix y stands for |class(y_0)| prefixes of the
    full plan, and the budget bounds that weighted count times |S_p|, the
    full plan's padded size, so refusals do not change.  The recursion
    carries each prefix's image under (rep(c) c), per non-representative
    c, and phase 0 reads suffix s_i at the position of tau s_i, whose
    entry is that of R(s_i) on a vector invariant under both: its gathers
    are index lists.  A slice whose image is not in P_w has no neighbor,
    and neither has its reflection, so what is read for it never reaches
    an output; it reads position 0.  Returns (steps, switch, remap, weights),
    ``weights`` the class sizes over P_w (None without a quotient), or
    None when a phase reaches nothing.
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
    suffixes = slices
    prefixes = [0]
    steps = []
    switch = w
    remap = weights = None
    for p, checks in enumerate(phases):
        if switch == w and len(prefixes) >= len(suffixes):
            switch = p
        # a's block of the suffixes is lo[a]..lo[a+1]-1
        top = q ** (w - 1 - p)
        lo = [*map(bisect_left, repeat(suffixes), range(0, q * top, top)), len(suffixes)]
        readable = [v for v in range(q) if any(lo[a] < lo[a + 1] for a in reads[v])]
        if quotient and p == 0:
            readable = [v for v in readable if reps[v] == v]
        kept, new = _extend_prefixes(prefixes, checks, p, q, readable)
        if not kept:
            return None
        # the tails of the blocks some kept v or a class-mate reads
        firsts = sorted({a for v, _, _ in kept for a in mates[v] if lo[a] < lo[a + 1]})
        tails = [list(map(sub, suffixes[lo[a]:lo[a + 1]], repeat(a * top))) for a in firsts]
        suffixes = tails[0] if len(tails) == 1 else [*dict.fromkeys(sorted(chain(*tails)))]
        # where each tail matches a range of the new suffixes, the offset
        # from there to a's block; the runs start and stop at those ranges
        marks = {}
        for a, tail in zip(firsts, tails):
            i = j = 0
            while j < len(tail):
                i = bisect_left(suffixes, tail[j], i)
                k = min(len(tail) - j, len(suffixes) - i)
                # a tail is a sorted subset: if the k-th pair matches, all do
                if tail[j + k - 1] != suffixes[i + k - 1]:
                    k = bisect_left(range(k), True,
                                    key=lambda m: tail[j + m] != suffixes[i + m])
                marks.setdefault(i, {})[a] = lo[a] + j - i
                marks.setdefault(i + k, {})[a] = None
                i, j = i + k, j + k
        # per kept v and run: its size and the ranges of S_p it sums
        span = slice if p < switch else range
        by_v = [[] for _ in kept]
        cuts = sorted(marks)
        offsets = {}
        for i, end in zip(cuts, cuts[1:]):
            offsets.update(marks[i])
            for (v, _, _), parts in zip(kept, by_v):
                parts.append((end - i, [span(i + offsets[a], end + offsets[a])
                                        for a in reads[v] if offsets.get(a) is not None]))
        prefixes = new
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
    if quotient:
        # phase 0 reads each suffix of S_0 at the position in P_w of its
        # canonical image; with two or more slices it runs on rows
        where = dict(zip(prefixes, count()))
        cells = list(map(mod, prefixes, repeat(q)))
        for c, images in mirrors.items():
            sel = list(map(reps[c].__eq__, cells))
            where.update(zip(compress(images, sel), compress(count(), sel)))
        order = list(map(where.get, slices, repeat(0)))
        steps[0] = [
            (mask, [(size, [order[s] for s in idx]) for size, idx in parts])
            for mask, parts in steps[0]
        ]
    elif prefixes != slices:
        pos = dict(zip(prefixes, count()))
        remap = list(map(pos.get, slices, repeat(len(prefixes))))
    return steps, switch, remap, weights


def _rows_step(rows: list, step: list) -> list:
    """One prefix-major phase: per kept v and prefix, gather and add (by
    slices, and by index lists in phase 0 of a quotient)."""
    out = []
    for mask, groups in step:
        for row in rows if mask is None else compress(rows, mask):
            new = []
            for size, idx in groups:
                it = None
                for s in idx:
                    part = row[s] if s.__class__ is slice else map(row.__getitem__, s)
                    it = part if it is None else map(add, it, part)
                new.extend(repeat(0, size) if it is None else it)
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
            it = None
            for j in js:
                col = cols[j] if mask is None else compress(cols[j], mask)
                it = col if it is None else map(add, it, col)
            new.extend(repeat(0, size) if it is None else it)
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


class Side:
    """Side n of a model, listed and planned on first use: what the count
    and the per-state table of side n share within one run.

    ``slices()`` lists the slices once (``build_slice_space``, with its
    sub-model preflight), and ``plan(quotient)`` makes the product's plan
    once per kind.  A count's quotient plan with no class of two or more
    symbols is the full plan, so the table reuses it.  The caller that
    holds a side passes it to ``count_patterns`` and ``state_counts``,
    which check every budget of their own before any product, as on a new
    side.
    """

    __slots__ = ("model", "n", "state_budget", "_phases", "_slices", "_plans")

    def __init__(self, model: SftModel, n: int, state_budget: int = DEFAULT_STATE_BUDGET):
        self.model = model
        self.n = n
        self.state_budget = state_budget
        self._slices = None
        self._plans = {}

    def slices(self) -> list[int]:
        """The slices of side n, ascending."""
        if self._slices is None:
            self._phases = _phase_checks(self.model, self.n)
            space = build_slice_space(self.model, self.n, self._phases, self.state_budget)
            self._slices = list(space)
        return self._slices

    def plan(self, quotient: bool):
        """The plan of side n's product, n >= 2 (None when the product of
        any vector is 0), on the canonical slices with ``quotient`` (see
        ``_plan_product``)."""
        if quotient not in self._plans:
            model = self.model
            slices = self.slices()
            masks = model.allowed_masks[model.dimension - 1]
            plan = _plan_product(model, self.n, slices, masks, self._phases,
                                 self.state_budget, quotient)
            self._plans[quotient] = plan
            if plan is not None and plan[3] is None:  # no quotient was taken
                self._plans[False] = plan
        return self._plans[quotient]


def _side(model: SftModel, n: int, state_budget: int, side: Side | None) -> Side:
    """``side``, which must be of this model, side and budget, or a new one."""
    if side is None:
        return Side(model, n, state_budget)
    if (side.model, side.n, side.state_budget) != (model, n, state_budget):
        raise ValueError(f"the side given is not side {n} of this model and budget")
    return side


def count_via_transfer(
    model: SftModel,
    n: int,
    state_budget: int = DEFAULT_STATE_BUDGET,
    side: Side | None = None,
) -> int:
    """Exact cube count via the slice decomposition, on canonical slices;
    on ``side`` when given (see ``Side``)."""
    if n < 1:
        raise ValueError(f"need n >= 1, got {n}")
    side = _side(model, n, state_budget, side)
    slices = side.slices()
    if n == 1:
        return len(slices)
    plan = side.plan(quotient=True)
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
    side: Side | None = None,
) -> dict[tuple[int, int], int]:
    """Exact pattern count per realized boundary state; values sum to C_n.

    Keyed by (prefix, last slice): the last slice is packed as in the
    transfer, and the prefix holds, for slices 0..n-2 in turn, the digits
    of that slice's h shell cells in ascending cell order, as one base-q
    integer (slice 0 most significant).  The keys are one-to-one with the
    realized states; the caller that only needs the values never decodes
    them.  With ``side``, the slices and the full plan come from it (see
    ``Side``).

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

    The plan computes T R, not T, with R the point reflection of a slice
    (``_plan_product``), and R commutes with T.  Write x_k for the vector
    before step k of the walk above, so x_{k+1} = T D_k x_k with D_k the
    shift by code(s); and D'_k = R D_k R for the shift by code(R(s)),
    where cell j of R(s) is cell w-1-j of s.  Step k runs T R D'_k when
    n-1-k is odd and T R D_k when it is even.  Then the vector before step
    k is R^(n-1-k) x_k: at k = 0 because R 1 = 1, and from k to k+1
    because T R D'_k R x_k = T D_k x_k and T R D_k x_k = R T D_k x_k.  So
    the R's cancel in pairs, and after n-1 steps the vector is x_{n-1}.

    No field carries into the next.  With m slices, after k products a
    field holds the number of walks s_0..s_k that end in its slice (and
    pass its prefix's shell digits), at most m^k.  Within a product, an
    entry of phase p sums the entries of distinct previous slices (those
    sharing the suffix of cells p..w-1), so it is at most m * m^k.  With
    k <= n-2 every entry, final or intermediate, is at most m^(n-1) (R
    only permutes the entries), and
    m^(n-1) < 2^((n-1) * b) with b = m.bit_length().  W is (n-1) * b
    rounded up to whole 64-bit words, for the unpacking.
    """
    if n < 1:
        raise ValueError(f"need n >= 1, got {n}")
    d = model.dimension
    q = model.num_symbols
    shell = surface_indices(n, d - 1)
    block = q ** len(shell)
    side = _side(model, n, state_budget, side)
    slices = side.slices()
    if block ** (n - 1) * len(slices) > state_budget:
        raise BudgetExceededError(
            f"more than {state_budget} boundary-state keys at side {n}"
        )
    if n == 1:
        return dict.fromkeys(zip(repeat(0), slices), 1)
    plan = side.plan(quotient=False)
    if plan is None:  # the product of any vector is 0
        return {}
    # code(s) and code(R(s)): the digits of s at the shell cells p, and at
    # their reflections w-1-p, ascending in p
    w = n ** (d - 1)
    codes = []
    for cells in (shell, [w - 1 - p for p in shell]):
        code = [0] * len(slices)
        for p in cells:
            digits = map(mod, map(floordiv, slices, repeat(q ** p)), repeat(q))
            code = list(map(add, map(mul, code, repeat(q)), digits))
        codes.append(code)
    # W: (n-1) * b bits, rounded up to whole 64-bit words
    width = -(-(n - 1) * len(slices).bit_length() // 64) * 64
    vec = [1] * len(slices)
    for k in range(n - 1):
        shifts = map(mul, codes[(n - 1 - k) % 2], repeat(block ** k * width))
        vec = _apply_plan(plan, list(map(lshift, vec, shifts)))
    # the key prefix g of field f lists the same n-1 codes, slice 0 first:
    # the base-Q digits of f reversed
    return _unpack(vec, slices, _reversals(block, n - 1), width)


def _unpack(vec: list[int], slices: list[int], prefix: list[int], width: int):
    """The nonzero ``width``-bit fields of each entry, keyed (prefix, slice).

    Each entry becomes a list of 64-bit words at C level, and a field of
    several words is joined from its words, where an upper word of some
    field is nonzero; field f gets key prefix[f].
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
            if any(high := raw[j::words]):
                vals = list(map(add, vals, map(lshift, high, repeat(64 * j))))
        out.update(zip(zip(compress(prefix, vals), repeat(s)), compress(vals, vals)))
    return out


def count_patterns(
    model: SftModel,
    n: int,
    state_budget: int = DEFAULT_STATE_BUDGET,
    side: Side | None = None,
) -> int:
    """Exact C_n by the slice transfer, in every dimension; on ``side``
    when given (see ``Side``)."""
    return count_via_transfer(model, n, state_budget, side)
