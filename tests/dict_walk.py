"""Test-only reference for the slice transfer: the per-key dict walk.

``advance`` is one vector-through-relation product on a dict keyed by
packed live states, one slice cell at a time, with no plan and no shared
logic with the package's planned product.  ``slices_by_walk`` is the slice
vector as its first product, and ``state_counts_by_groups`` the per-state
table as a walk split by shell digits.  The tests check the package's
``build_slice_space``, ``_apply_plan`` and ``state_counts`` against them
key by key, budget refusals included.
"""

from sftbounds import BudgetExceededError, count_patterns
from sftbounds.models import drop_last_axis
from sftbounds.transfer import DEFAULT_STATE_BUDGET

from paper_defs import decode


def phase_checks(model, n):
    """Per slice cell p: (divisor, masks) for each within-slice predecessor,
    the divisor placing it in a live key of ``advance`` before phase p."""
    d = model.dimension
    q = model.num_symbols
    w = n ** (d - 1)
    phases = []
    for p in range(w):
        y = decode(p, n, d - 1)
        phases.append(tuple(
            (q ** (w - n ** (d - 2 - k)), model.allowed_masks[k])
            for k in range(d - 1)
            if y[k] > 0
        ))
    return phases


def advance(model, n, dist, last_masks, phases, state_budget=DEFAULT_STATE_BUDGET):
    """One vector-through-relation product, factored over slice cells.

    A live key before phase p packs the previous slice's cells p..w-1 at
    digits 0..w-p-1 and the next slice's cells 0..p-1 above them.
    ``last_masks[a]`` is the set of values the next slice may hold where
    the previous one holds a; ``phases`` is ``phase_checks(model, n)``, or
    a run of its entries.
    """
    d = model.dimension
    q = model.num_symbols
    top = q ** (n ** (d - 1) - 1)
    vfm = model.values_for_mask
    for checks in phases:
        new = {}
        for s, c in dist.items():
            m = last_masks[s % q]
            for div, wmasks in checks:
                m &= wmasks[(s // div) % q]
            base = s // q
            for v in vfm[m]:
                k = base + v * top
                new[k] = new.get(k, 0) + c
        if len(new) > state_budget:
            raise BudgetExceededError(
                f"more than {state_budget} live transfer states at side {n}"
            )
        dist = new
    return dist


def slices_by_walk(model, n, state_budget=DEFAULT_STATE_BUDGET):
    """The all-ones slice vector as the first product: an all-zeros
    previous slice with no last-axis constraint, after the same slice-count
    preflight as the package."""
    if (
        model.dimension > 1
        and count_patterns(drop_last_axis(model), n, state_budget) > state_budget
    ):
        raise BudgetExceededError(f"more than {state_budget} slices at side {n}")
    free = ((1 << model.num_symbols) - 1,) * model.num_symbols
    return advance(model, n, {0: 1}, free, phase_checks(model, n), state_budget)


def state_counts_by_groups(model, n, state_budget=DEFAULT_STATE_BUDGET):
    """The per-state table by a walk split by shell digits.

    Before each product the slice vector of each shell prefix is split by
    the current slice's shell digits (first shell cell most significant),
    and every part is advanced on its own.  After n-1 products a (shell
    prefix, last slice) key is one boundary state.  The budget bounds the
    keys realized so far.
    """
    d = model.dimension
    q = model.num_symbols
    phases = phase_checks(model, n)
    forward = model.allowed_masks[d - 1]
    shell = [q ** p for p in range(n ** (d - 1)) if n - 1 in decode(p, n, d - 1)]
    groups = {0: slices_by_walk(model, n, state_budget)}
    for _ in range(n - 1):
        parts = {}
        for prefix, dist in groups.items():
            for s, c in dist.items():
                key = prefix
                for div in shell:
                    key = key * q + s // div % q
                parts.setdefault(key, {})[s] = c
        groups = {}
        total = 0
        for key, part in parts.items():
            groups[key] = advance(model, n, part, forward, phases, state_budget)
            total += len(groups[key])
            if total > state_budget:
                raise BudgetExceededError(
                    f"more than {state_budget} boundary-state keys at side {n}"
                )
    return {
        (prefix, s): c for prefix, dist in groups.items() for s, c in dist.items()
    }
