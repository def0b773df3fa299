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
last-axis test only the first digit of x, so the phase's vector is a
matrix over prefixes x suffixes, as Python lists, and the phase maps rows
(or columns) to rows (or columns) by C-level gathers and adds, one per
row and symbol rather than one per state (``_apply_plan``).  Every
product of a side shares one plan (``_plan_product``), whose phases are
pairs (kept, gathers): the kept symbols' masks, and the row or column gathers.

The plan reads its lists off the slice listing.  The slices are the
prefixes of full length, listed level by level by one prefix recursion
(``_extend_prefixes``): level k holds the within-slice-admissible
prefixes of k cells, ascending, so grouped by cell k-1.  Every check of
cell k reads one of the last K cells, K = n^(d-2) the longest
within-slice predecessor offset (1 for d <= 2), and the prefixes that share those K
cells (a segment) are contiguous: a step decides each segment once, and
each symbol's mask and part of the next level are whole segments, joined
as bytes and list slices.  A phase's prefixes are a selection of a level, and
so are its suffixes, by the point reflection R of a slice (cell j to cell
w-1-j).  R maps a pair of neighbors along a slice axis to the same pair
reversed, and every forbidden set is symmetric, so R maps slices to
slices and compatible pairs to compatible pairs: RT = TR, and R1 = 1.  A
suffix packed with its first cell most significant is the prefix packing
of its reflection, so the suffixes of phase p that begin with a are a
group of level w-p, whose mask places their tails in level w-p-1 in a
few ranges, each gathered as one list slice.  Position i of the input
stands for R(s_i), so a product computes T R, which is T on every
R-invariant vector, as every T^k 1 is.  For d >= 2 the slice count, the
sub-model's C_n (by this same transfer, one dimension down), is checked
against the budget before the listing and its cells' checks, unless
the q^w fillings of a slice of w cells fit it.

The walk is split in half (Calkin-Wilf's symmetric transfer matrix):
``C_n = <T^a 1, T^b 1>`` with ``a = (n-1) // 2`` and ``b = n-1-a``, since
``T = T^T`` for every model (``SftModel`` admits only symmetric forbidden
sets, the paper's hypothesis).  So the second vector is the first one
itself, advanced once more when n-1 is odd: about half the products, on
counts of about half the width.

The count also runs on one slice per symbol class.  Symbols r and s share
a class when the transposition (r s) maps every axis's forbidden set onto
itself (``SftModel.symbol_classes``; the smallest symbol represents its
class).  Applied cell by cell, such a permutation commutes with T and
fixes 1, so T^k 1 is constant on its orbits.  tau = (rep(c) c) maps the
slices with cell 0 = c one-to-one onto the canonical ones, cell 0 =
rep(c), so on such a vector a product need only compute the canonical
entries and fan them out, slice s taking the entry of tau s: the count's
plan (``_quotient_plan``) is the full plan with every mask narrowed to
the canonical prefixes, over the full plan's own gathers, and like it
maps vectors over the slices.  For coloring:q this is a q-th of the
work; hard-square has no class of two symbols and runs the full product,
as ``state_counts`` always does (its fields are not invariant).

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

The table is always read off a ``Side``, which carries its model, side
and budget: ``state_counts(side)``.  A caller that needs side n's count
and table holds one ``Side`` and passes it to both; nothing is kept
between calls.
"""

from __future__ import annotations

import re
import sys
from functools import reduce
from itertools import chain, compress, count, repeat
from operator import add, and_, floordiv, itemgetter, lshift, mod, mul, or_

from .models import SftModel, drop_last_axis
from .patterns import predecessors, surface_indices

DEFAULT_STATE_BUDGET = 5_000_000
_ONES = re.compile(rb"\x01+")  # the runs of ones of a 0/1 mask


class BudgetExceededError(RuntimeError):
    """The instance is too large for the requested exact computation."""


def _phase_checks(model: SftModel, n: int):
    """Per slice cell p: (divisor, masks) for each within-slice predecessor.

    The predecessor ``offset`` cells back is digit ``prefix // divisor %
    q`` of a prefix holding cells 0..p-1, divisor q^(p - offset).  The
    previous-slice constraint is not listed: the plan applies it at
    every cell.
    """
    q, masks = model.num_symbols, model.allowed_masks
    return [tuple((q ** (p - off), masks[k]) for off, k in preds)
            for p, preds in enumerate(predecessors(n, model.dimension - 1))]


def _extend_prefixes(
    level: tuple, checks: tuple, p: int, q: int, k: int, budget: int
) -> tuple[list, tuple | None]:
    """One step of the prefix recursion: the next slice's cell p.

    ``level`` is (prefixes, segments): the prefixes pack cells 0..p-1
    (cell j at digit j), ascending, so those that share the window of
    cells p-k..p-1 are contiguous, and ``segments`` lists each such run
    as [head, size], ``head`` its first prefix.  ``checks``, cell p's
    entry of ``_phase_checks``, read only window cells (k is the longest
    offset), so a segment's head decides which v all of it allows.

    Lists (v, mask, size) for each v that some prefix takes, ``mask``
    the 0/1 bytes over the prefixes, joined from the runs of v's allowed
    segments (None when every symbol passes every check), and returns it
    with level p+1: per kept v, the list slices of its runs plus v*q^p
    (for v = 0 the slices alone, sharing the previous level's ints), and
    its allowed segments, the window shifted (cell p-k dropped, v
    appended) and neighbours that now agree merged.  The level's size is
    known from the segments' allowed v alone: when it would hold more than
    ``budget`` prefixes, the step returns ([], None) before any other list
    is built."""
    prefixes, segments = level
    every = -1  # the v that every check allows next to every symbol
    for _, wmasks in checks:
        every &= reduce(and_, wmasks)
    allows, total, full = [], 0, (1 << q) - 1  # per segment: the v it allows
    for head, length in segments:
        ok = -1
        for div, wmasks in checks:
            ok &= wmasks[head // div % q]
        allows.append(ok)
        total += length * (ok & full).bit_count()
    if total > budget:
        return [], None
    cut = q ** max(p + 1 - k, 0)  # head // cut: a segment's cells p+1-k..p-1, kept by the shift
    kept, new, new_segments, qp = [], [], [], q ** p
    for v in range(q):
        # runs: [start, stop] in level p; parts: v's segments of level p+1
        runs, parts, at, last, size, top = [], [], 0, None, 0, v * qp
        for (head, length), ok in zip(segments, allows):
            if ok >> v & 1:
                if runs and runs[-1][1] == at:
                    runs[-1][1] += length
                else:
                    runs.append([at, at + length])
                if (key := head // cut) == last:
                    parts[-1][1] += length
                else:
                    parts.append([head + top, length])
                    last = key
                size += length
            at += length
        if not size:
            continue
        mask = None
        if not every >> v & 1:
            bits, end = [], 0
            for i, j in runs:
                bits += bytes(i - end), b"\1" * (j - i)
                end = j
            mask = b"".join(bits) + bytes(at - end)
        kept.append((v, mask, size))
        for i, j in runs:
            new.extend(map(add, prefixes[i:j], repeat(top)) if v else prefixes[i:j])
        new_segments += parts
    return kept, (new, new_segments)


def build_slice_space(
    model: SftModel,
    n: int,
    state_budget: int = DEFAULT_STATE_BUDGET,
    steps: list | None = None,
) -> list[int]:
    """The admissible (d-1)-cube slices of side n, ascending.

    The slices are the prefixes of full length, listed by the prefix
    recursion (``_extend_prefixes``) on segments, the runs of a level
    that share their last k cells, k = n^(d-2) the longest within-slice
    predecessor offset (1 for d <= 2); its steps' (v, mask, size) lists
    are appended to ``steps`` when given.  For d >= 2 the slice count
    (the sub-model's C_n) is checked against ``state_budget`` first,
    unless the q^w fillings of a slice fit the budget, when no level can
    exceed it; only then are the cells' checks built, and each level's
    size is checked against the budget before the level is built.
    """
    q, w = model.num_symbols, n ** (model.dimension - 1)
    # q^w > budget without a huge power: for q >= 2 both hold from w = bit length on
    if (
        model.dimension > 1
        and q ** min(w, state_budget.bit_length()) > state_budget
        and count_patterns(drop_last_axis(model), n, state_budget) > state_budget
    ):
        raise BudgetExceededError(f"more than {state_budget} slices at side {n}")
    k = n ** max(model.dimension - 2, 0)
    level = [0], [[0, 1]]
    for p, checks in enumerate(_phase_checks(model, n)):
        kept, level = _extend_prefixes(level, checks, p, q, k, state_budget)
        if level is None:
            raise BudgetExceededError(
                f"more than {state_budget} live transfer states at side {n}"
            )
        if steps is not None:
            steps.append(kept)
    return level[0]


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
    steps: list,
    state_budget: int,
):
    """One vector-through-relation product as a walk over prefix x suffix
    matrices, factored over the slice cells, read off the slice listing.

    Phase p maps (y, a x') to (y + v*q^p, x'), y a prefix of cells
    0..p-1 (cell j at digit j) and a x' a suffix of cells p..w-1 (cell j
    at digit w-1-j), so its vector is a matrix over P_p x S_p, the
    prefixes and suffixes some slice reaches; a pair that is not a live
    state holds 0 in every product.  The budget bounds |P_p| * |S_p| for
    every phase, before any product runs.

    ``slices`` and ``steps`` are ``build_slice_space``'s listing: step k
    lists (v, mask, size) for the group of level L_{k+1} with v at cell k.
    P_p is a selection of L_p, with step p's masks restricted to it.  S_0
    is ``slices`` (every R(s), module docstring) and S_p a selection of
    L_{w-p}: its block a, the suffixes that begin with a, is the selected
    part of group a of step w-1-p, whose mask places their tails in
    L_{w-1-p}.  A run of S_{p+1}, a maximal range with the same set of a
    for which a x' is in S_p, reads one range of each such block.  Every
    selection is None (all of its level) on hard-square and coloring;
    dead-end prefixes and unread blocks make the others.

    Every phase is a pair (kept, gathers).  ``kept`` lists (v, mask,
    size) per kept v: the mask over P_p of the prefixes that take v (None:
    all) and the size of v's part of P_{p+1}.  Phases before ``switch``,
    the first where |P_p| >= |S_p|, run on rows over suffixes, and their
    ``gathers`` list per kept v its runs, each its size and the slices of
    S_p it sums; from ``switch`` on they run on columns over prefixes, and
    ``gathers`` lists per suffix of S_{p+1} the positions in S_p it sums
    per kept v.  Input position i is read as suffix s_i, the slice
    R(s_i): the product maps u to T R u.  ``remap`` puts the output back
    in slice order, with zeros, when P_w is not every slice.  Returns
    (phases, switch, remap), or None when a phase reaches nothing.
    """
    q = model.num_symbols
    w = len(steps)
    last = model.allowed_masks[-1]
    reads = [[a for a in range(q) if last[a] >> v & 1] for v in range(q)]
    levels = [1, *(sum(size for _, _, size in step) for step in steps)]
    psel = ssel = None  # P_p in L_p and S_p in L_{w-p}, 0/1 bytes; None: all
    n_pre, n_suf = 1, len(slices)
    phases, switch, remap = [], w, None
    for p in range(w):
        if switch == w and n_pre >= n_suf:
            switch = p
        # block a of S_p is the selected part of group a of step w-1-p,
        # from position lo[a] of S_p; its tails, as a 0/1 mask over L_{w-1-p}
        lo, tails, start, at = {}, {}, 0, 0
        for a, mask, size in steps[w - 1 - p]:
            seg = None if ssel is None else ssel[at:at + size]
            lo[a], at = start, at + size
            if seg is None or 1 in seg:
                start += size if seg is None else seg.count(1)
                it = iter(seg or ())
                tails[a] = seg if mask is None else mask if seg is None else bytes(
                    b and next(it) for b in mask)
        readable = [v for v in range(q) if not tails.keys().isdisjoint(reads[v])]
        # step p on P_p: each v's mask and size, and P_{p+1} in L_{p+1}
        kept, parts = [], []
        for v, mask, full in steps[p]:
            if psel is None or mask is None:
                part = b"\1" * full if psel is None else psel
            else:
                part, mask = bytes(compress(psel, mask)), bytes(compress(mask, psel))
            if v in readable and 1 in part:
                kept.append((v, mask, part.count(1)))
            else:
                part = bytes(full)
            parts.append(part)
        if not kept:
            return None
        if psel is not None or len(kept) < len(parts):
            psel = b"".join(parts)
        n_pre = sum(size for _, _, size in kept)
        # S_{p+1}: the union of the tails of the blocks some kept v reads
        firsts = sorted({a for v, _, _ in kept for a in reads[v] if a in tails})
        union = [tails[a] for a in firsts]
        if ssel is not None or None not in union:
            ssel = reduce(or_, (int.from_bytes(t, "big") for t in union))
            ssel = ssel.to_bytes(levels[w - 1 - p], "big")
            ssel = ssel if 0 in ssel else None
        n_suf = levels[w - 1 - p] if ssel is None else ssel.count(1)
        # where each tail covers a range of S_{p+1} (a range of ones of its
        # mask), the offset from there to a's block; runs cut at those ends
        marks = {}
        for a in firsts:
            tail = tails[a] if ssel is None else bytes(compress(tails[a], ssel))
            j = lo[a]
            ranges = [(0, n_suf)] if tail is None else map(
                re.Match.span, _ONES.finditer(tail))
            for i, stop in ranges:
                marks.setdefault(i, {})[a] = j - i
                marks.setdefault(stop, {})[a] = None
                j += stop - i
        # per kept v and run: its size and the ranges of S_p it sums
        span = slice if p < switch else range
        gathers = [[] for _ in kept]
        cuts = sorted(marks)
        offsets = {}
        for i, end in zip(cuts, cuts[1:]):
            offsets.update(marks[i])
            for (v, _, _), runs in zip(kept, gathers):
                runs.append((end - i, [span(i + offsets[a], end + offsets[a])
                                       for a in reads[v] if offsets.get(a) is not None]))
        if n_pre * n_suf > state_budget:
            raise BudgetExceededError(
                f"more than {state_budget} live transfer states at side {n}"
            )
        if p >= switch:  # per new suffix instead, the source positions per kept v
            gathers = [srcs for runs in zip(*gathers) for srcs in zip(*(
                zip(*idx) if idx else repeat((), size) for size, idx in runs))]
        phases.append((kept, gathers))
    prefixes = slices if psel is None else list(compress(slices, psel))
    if prefixes != slices:
        pos = dict(zip(prefixes, count()))
        remap = itemgetter(*map(pos.get, slices, repeat(len(prefixes))))
    return phases, switch, remap


def _quotient_plan(model: SftModel, plan: tuple):
    """The count's plan of a side: the full ``plan`` with each mask
    narrowed run by run to the canonical prefixes P'_p (``canon``, in
    P_p), a v that none takes (at phase 0, a v that represents no class)
    to all zeros and size 0; the v's, ``gathers`` and switch are the full
    plan's.  ``taus`` holds, per y of P_p, the position x of tau y in P'_p
    as x*q + y_0 (x on the last level), and ``tables[v]`` maps it to that
    of tau(y + v*q^p).  ``remap`` fans the output out: slice s reads tau
    s, or the 0 after the output if s is not in P_w."""
    phases, switch, remap = plan
    q, reps, w = model.num_symbols, model.symbol_classes, len(phases)
    size = q * max((sum(map(itemgetter(2), kept)) for kept, _ in phases[:-1]), default=0)
    pool, tables = list(range(size)), [[None] * size for _ in range(q)]  # stale ones go unread
    dests = [[tables[c if u == reps[c] else reps[c] if u == c else u] for c in range(q)]
             for u in range(q)]  # per y_0 = c, the table of u under (rep(c) c)
    narrowed = []
    for p, (kept, gathers) in enumerate(phases):
        f = q if p + 1 < w else 1
        if p == 0:
            canon = bytes(reps[v] == v for v, _, _ in kept)
            firsts = [v for v, _, _ in kept if reps[v] == v]
            qk = [(v, mask, k) if reps[v] == v else (v, b"\0", 0) for v, mask, k in kept]
            taus = [firsts.index(reps[v]) * f + v % f for v, _, _ in kept]
        else:
            qk, reads, canons, at = [], [], [], 0
            for u, mask, _ in kept:
                bits, src, x, end, start, count = [], [], 0, 0, at, canon.count
                for i, j in [(0, len(canon))] if mask is None else map(
                        re.Match.span, _ONES.finditer(mask)):
                    gap, k = count(1, end, i), count(1, i, j)
                    x, xq, af = x + gap, (x + gap) * q, at * f
                    for c, table in enumerate(dests[u]):  # y at x, y_0 = c
                        table[xq + c:xq + k * q + c:q] = pool[af + c % f:af + k * f + c % f:f]
                    bits += bytes(gap), b"\1" * k
                    src.append(taus[i:j])
                    canons.append(canon[i:j])
                    x, at, end = x + k, at + k, j
                reads.append((tables[u], [*chain.from_iterable(src)]))
                bits.append(bytes(count(1, end)))
                qk.append((u, None if mask is None else b"".join(bits), at - start))
            taus = [*chain.from_iterable(itemgetter(*idx)(table) if len(idx) > 1 else
                                         map(table.__getitem__, idx) for table, idx in reads)]
            canon = b"".join(canons)
        narrowed.append((qk, gathers))
    taus = taus if remap is None else remap([*taus, canon.count(1)])
    return narrowed, switch, itemgetter(*taus)


def _rows_step(rows: list, phase: tuple) -> list:
    """One prefix-major phase: per kept v, on the prefixes its mask
    takes, gather (by list slices) and add."""
    kept, gathers = phase
    out = []
    for (_, mask, _), groups in zip(kept, gathers):
        for row in rows if mask is None else compress(rows, mask):
            new = []
            for size, idx in groups:
                it = None
                for s in idx:
                    it = row[s] if it is None else map(add, it, row[s])
                new.extend(repeat(0, size) if it is None else it)
            out.append(new)
    return out


def _columns_step(cols: list, phase: tuple) -> list:
    """One suffix-major phase: per new suffix and kept v, add the source
    columns on the prefixes that v's mask takes."""
    kept, sources = phase
    out = []
    for srcs in sources:
        new = []
        for (_, mask, size), js in zip(kept, srcs):
            it = None
            for j in js:
                col = cols[j] if mask is None else compress(cols[j], mask)
                it = col if it is None else map(add, it, col)
            new.extend(repeat(0, size) if it is None else it)
        out.append(new)
    return out


def _apply_plan(plan: tuple, vec: list[int]) -> list[int] | tuple[int, ...]:
    """One product of either plan of a side, on a vector over its slices;
    a remap (two or more positions) returns a tuple."""
    phases, switch, remap = plan
    m = [vec]  # one row, for the empty prefix
    for phase in phases[:switch]:
        m = _rows_step(m, phase)
    m = list(zip(*m))  # rows over suffixes to columns over prefixes
    for phase in phases[switch:]:
        m = _columns_step(m, phase)
    vec = m[0]  # one column, for the empty suffix
    return vec if remap is None else remap([*vec, 0])


class Side:
    """Side n of a model, listed and planned on first use: what the count
    and the per-state table of side n share within one run.

    ``slices()`` lists the slices once (``build_slice_space``), keeping
    them and each listing step; ``plan(quotient)`` reads the full plan off
    them once (``_plan_product``) and narrows its masks to the count's
    plan once (``_quotient_plan``).  Both plans are (phases, switch,
    remap), every phase a pair (kept, gathers), and both map vectors over
    the slices.
    The side carries its budget: ``state_counts(side)`` reads model, n
    and budget off it, and ``count_patterns`` checks that a side passed
    to it matches its own arguments.  Raises ``ValueError`` for n < 1.
    """

    __slots__ = ("model", "n", "state_budget", "_steps", "_slices", "_plans")

    def __init__(self, model: SftModel, n: int, state_budget: int = DEFAULT_STATE_BUDGET):
        if n < 1:
            raise ValueError(f"need n >= 1, got {n}")
        self.model = model
        self.n = n
        self.state_budget = state_budget
        self._slices = None
        self._plans = {}

    def slices(self) -> list[int]:
        """The slices of side n, ascending."""
        if self._slices is None:
            self._steps = []
            self._slices = build_slice_space(self.model, self.n, self.state_budget,
                                             self._steps)
        return self._slices

    def plan(self, quotient: bool):
        """The plan of side n's product, n >= 2 (None when the product of
        any vector is 0), which fans the canonical slices out with
        ``quotient``, taken only for two or more slices and a class of two
        or more symbols; otherwise the full plan serves both kinds."""
        model, slices, plans = self.model, self.slices(), self._plans
        if False not in plans:
            plans[False] = _plan_product(model, self.n, slices, self._steps, self.state_budget)
        quotient = (quotient and len(slices) > 1 and plans[False] is not None
                    and model.symbol_classes != tuple(range(model.num_symbols)))
        if quotient not in plans:
            plans[True] = _quotient_plan(model, plans[False])
        return plans[quotient]


def count_via_transfer(
    model: SftModel,
    n: int,
    state_budget: int = DEFAULT_STATE_BUDGET,
    side: Side | None = None,
) -> int:
    """Exact cube count via the slice decomposition, on the count's plan
    (``Side.plan``); on ``side`` when given, which must be of this model,
    side and budget (see ``Side``)."""
    if side is None:
        side = Side(model, n, state_budget)
    elif (side.model, side.n, side.state_budget) != (model, n, state_budget):
        raise ValueError(f"the side given is not side {n} of this model and budget")
    slices = side.slices()
    if n == 1:
        return len(slices)
    plan = side.plan(quotient=True)
    if plan is None:  # the product of any vector is 0
        return 0
    v = [1] * len(slices)
    for _ in range((n - 1) // 2):
        v = _apply_plan(plan, v)
    # T = T^T: T^a 1 is also the first a steps of T^b 1
    u = _apply_plan(plan, v) if (n - 1) % 2 else v
    return sum(map(mul, v, u))


def state_counts(side: Side) -> dict[tuple[int, int], int]:
    """Exact pattern count per realized boundary state of ``side``; values
    sum to C_n.  The slices, the full plan and the budget are the side's.

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
    side's budget bounds the final vector, Q^(n-1) fields per slice,
    before any product.  It does not bound the walk's peak: a phase holds
    up to prefixes x suffixes entries (at most the budget, by the plan's
    own check), each of up to Q^(n-1) fields.

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
    model, n, budget = side.model, side.n, side.state_budget
    d = model.dimension
    q = model.num_symbols
    shell = surface_indices(n, d - 1)
    block = q ** len(shell)
    slices = side.slices()
    if block ** (n - 1) * len(slices) > budget:
        raise BudgetExceededError(f"more than {budget} boundary-state keys at side {n}")
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
