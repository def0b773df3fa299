"""Test-only reference for the planned product: the suffix-derivation
planner.

``plan_product`` plans one side's product from the slice list alone.  It
runs the prefix recursion again (``extend_prefixes``) and derives each
phase's suffixes from the last: the block of each first symbol by
bisection, the tails of the read blocks merged and sorted, and the runs
by matching each tail against the merge.  The package's ``_plan_product``
reads the same lists off the slice listing instead; the tests check that
both plans are equal, budget refusals included.  The package's count plan
keeps every symbol of its full plan, with an all-zero mask where this one
lists none, and the tests drop those entries before comparing.  Masks are
0/1 ``bytes``, as the package's are, so the two plans compare with ``==``.
"""

from bisect import bisect_left
from itertools import chain, compress, count, repeat
from operator import add, and_, floordiv, mod, sub

from sftbounds import BudgetExceededError, SftModel


def extend_prefixes(
    prefixes: list[int], checks: tuple, p: int, q: int, values
) -> tuple[list, list[int]]:
    """One step of the prefix recursion: the next slice's cell p.

    ``prefixes`` pack cells 0..p-1 (cell j at digit j) and ``checks`` is
    ``_phase_checks``'s entry for cell p.  Lists (v, mask, size) for each v
    of ``values`` that some prefix takes, with ``mask`` the 0/1 bytes over
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
                mask = bytes(sel if mask is None else map(and_, mask, sel))
        size = len(prefixes) if mask is None else sum(mask)
        if size:
            kept.append((v, mask, size))
    top = q ** p
    new = []
    for v, mask, _ in kept:
        ys = prefixes if mask is None else compress(prefixes, mask)
        new.extend(map(add, ys, repeat(v * top)))
    return kept, new


def plan_product(
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
    inner lists stay the long side.  Every step is a pair (kept, gathers):
    ``kept`` lists (v, mask, size) per kept v, the 0/1 mask over P_p of the
    prefixes that take v (None when all do) and their number.  A row
    step's ``gathers`` list per kept v, per run, its size and the slices
    of S_p it sums; a column step's, per suffix of S_{p+1}, a tuple, per
    kept v, of the positions in S_p it sums.  Phase 0 gathers by slices
    too: position i of the input, which is in slice order, is read as the
    entry of suffix s_i, the slice R(s_i).  So the product maps a vector u
    to T R u, which is T u when u is R-invariant, as every vector of a
    count is; ``state_counts`` undoes the R itself.  ``remap`` puts the
    output back in slice order, with zeros, when P_w is not every slice.

    With ``quotient`` and a class of two or more symbols, phase 0 keeps
    only representatives, so P_w holds the canonical slices alone (module
    docstring).  The suffixes are those read by a kept v or a class-mate,
    so each S_p is the full plan's; a prefix y stands for |class(y_0)|
    prefixes of the full plan, so that weighted count is the full plan's
    |P_p|: it sets the switch, and the budget bounds it times |S_p|, the
    full plan's padded size, so refusals do not change.  The recursion
    carries each prefix's image under (rep(c) c), per non-representative
    c, and ``remap`` fans the output out: slice s reads the position of
    tau s in P_w, or the 0 after the output (position |P_w|) when tau s
    is not in P_w.  Returns (steps, switch, remap), ``remap`` None when
    it would read every position in order, or None when a phase reaches
    nothing.
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
    remap = None
    rows = 1  # the full plan's |P_p|
    for p, checks in enumerate(phases):
        if switch == w and rows >= len(suffixes):
            switch = p
        # a's block of the suffixes is lo[a]..lo[a+1]-1
        top = q ** (w - 1 - p)
        lo = [*map(bisect_left, repeat(suffixes), range(0, q * top, top)), len(suffixes)]
        readable = [v for v in range(q) if any(lo[a] < lo[a + 1] for a in reads[v])]
        if quotient and p == 0:
            readable = [v for v in readable if reps[v] == v]
        kept, new = extend_prefixes(prefixes, checks, p, q, readable)
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
        rows = len(prefixes)
        if quotient:
            for c, swap in swaps.items():
                images = []  # extended as _extend_prefixes extends the prefixes
                for v, mask, _ in kept:
                    ys = mirrors[c] if mask is None else compress(mirrors[c], mask)
                    images.extend(map(add, ys, repeat(swap[v] * q ** p)))
                mirrors[c] = images
            rows = sum(map(sizes.__getitem__, map(mod, prefixes, repeat(q))))
        if rows * len(suffixes) > state_budget:
            raise BudgetExceededError(
                f"more than {state_budget} live transfer states at side {n}"
            )
        if p < switch:
            steps.append((kept, by_v))
        else:
            # per new suffix, the source positions per kept v
            sources = []
            for parts in zip(*by_v):
                sources.extend(zip(*(
                    zip(*idx) if idx else repeat((), size) for size, idx in parts
                )))
            steps.append((kept, sources))
    # each slice reads the position in P_w of its canonical image
    where = dict(zip(prefixes, count()))
    if quotient:
        cells = list(map(mod, prefixes, repeat(q)))
        for c, images in mirrors.items():
            sel = list(map(reps[c].__eq__, cells))
            where.update(zip(compress(images, sel), compress(count(), sel)))
    if quotient or prefixes != slices:
        remap = list(map(where.get, slices, repeat(len(prefixes))))
    return steps, switch, remap
