import io
import itertools
import json
import random
import time
from collections import Counter
from contextlib import redirect_stdout
from dataclasses import dataclass

import pytest
from hypothesis import given, settings, strategies as st

from sftbounds import (
    Alphabet,
    BudgetExceededError,
    SftModel,
    SurfaceState,
    build_report,
    builtin_model,
    count_patterns,
    count_via_transfer,
    parse_model,
)
from sftbounds.enumeration import count_by_state, count_patterns_dfs, enumerate_patterns
from sftbounds.models import drop_last_axis
from sftbounds.patterns import surface_indices
from sftbounds.transfer import (
    DEFAULT_STATE_BUDGET,
    Side,
    _apply_plan,
    _phase_checks,
    build_slice_space,
    state_counts,
)

from conftest import (
    ASYMMETRIC_RELATIONS,
    forbid_axis_model,
    full_shift,
    reversal_closed_model,
    single_symbol_forced,
    split_axes_model,
)
from dict_walk import advance, phase_checks, slices_by_walk, state_counts_by_groups
from paper_defs import decode
import plan_reference

DEFAULT_EDGE_BUDGET = 2_000_000


def slice_vector(model, n):
    """The all-ones vector over the slices the transfer lists."""
    return dict.fromkeys(build_slice_space(model, n), 1)


def listed_by_walk(model, n, state_budget=DEFAULT_STATE_BUDGET):
    """The slices the dict walk reaches, ascending; each with weight 1."""
    walk = slices_by_walk(model, n, state_budget)
    assert set(walk.values()) <= {1}
    return sorted(walk)


def enumerated_slices(model, n):
    """The admissible slices from the DFS over the sub-model, in order."""
    return tuple(p.values for p in enumerate_patterns(drop_last_axis(model), n))


def pack(values, q):
    """A slice as the transfer's packed key: cell p is base-q digit p."""
    return sum(v * q ** p for p, v in enumerate(values))


def reflect(key, q, w):
    """The point reflection of a packed slice of w cells: cell j to w-1-j."""
    digits = [key // q ** j % q for j in range(w)]
    return pack(digits[::-1], q)


@dataclass(frozen=True)
class TransitionStructure:
    """Adjacency lists of the slice transition relation along the last axis."""

    slices: tuple[tuple[int, ...], ...]
    neighbors: tuple[tuple[int, ...], ...]


def build_transitions(
    model, n, edge_budget: int = DEFAULT_EDGE_BUDGET
) -> TransitionStructure:
    """Explicit adjacency lists over the enumerated slices; checks the
    relation is symmetric.

    Quadratic in the slice count, so only for small instances.
    """
    allowed_last = model.allowed[model.dimension - 1]
    slices = enumerated_slices(model, n)
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
                        f"more than {edge_budget} transitions at side {n}"
                    )
        neighbors.append(tuple(row))
    for i, row in enumerate(neighbors):
        for j in row:
            if i not in neighbors[j]:
                raise AssertionError(
                    f"transition relation is not symmetric at pair ({i}, {j})"
                )
    return TransitionStructure(slices, tuple(neighbors))


def walk_count(model, n):
    """Independent walk counting over explicit adjacency lists."""
    trans = build_transitions(model, n)
    vec = [1] * len(trans.slices)
    for _ in range(n - 1):
        vec = [sum(vec[i] for i in row) for row in trans.neighbors]
    return sum(vec)


def full_walk_count(model, n):
    """The full (n-1)-step factored walk, with no half-walk split."""
    masks = model.allowed_masks[model.dimension - 1]
    phases = phase_checks(model, n)
    dist = slice_vector(model, n)
    for _ in range(n - 1):
        dist = advance(model, n, dist, masks, phases)
    return sum(dist.values())


def test_slice_space_hard_square_n3(hard_square2):
    slices = [(0, 0, 0), (0, 0, 1), (0, 1, 0), (1, 0, 0), (1, 0, 1)]
    assert slice_vector(hard_square2, 3) == {pack(s, 2): 1 for s in slices}


def test_slice_space_size_equals_reduced_count(hard_square2, hard_square3, coloring3_d2):
    for model, n in [
        (hard_square2, 4),
        (hard_square2, 7),
        (hard_square3, 3),
        (coloring3_d2, 3),
    ]:
        assert len(slice_vector(model, n)) == count_patterns_dfs(drop_last_axis(model), n)


def test_slice_space_full_shift():
    model = full_shift(2, 2)
    assert len(slice_vector(model, 4)) == 2 ** 4


def test_slice_space_d1_is_every_symbol():
    # a 1-d slice is one cell, with no within-slice neighbor to check
    for model in one_dimensional_models():
        q = model.num_symbols
        for n in (1, 2, 7):
            assert slice_vector(model, n) == {v: 1 for v in range(q)}


def test_slice_space_matches_enumerated_slices(hard_square2, hard_square3, coloring3_d2):
    # the first product against the DFS over the sub-model
    cases = (
        [(hard_square2, n) for n in range(1, 9)]
        + [(hard_square3, n) for n in range(1, 4)]
        + [(coloring3_d2, n) for n in range(1, 6)]
        + [(model, n) for model in closed_models(2) for n in range(1, 5)]
        + [(builtin_model("coloring", 2, 17), 2)]
    )
    for model, n in cases:
        q = model.num_symbols
        expected = {pack(s, q): 1 for s in enumerated_slices(model, n)}
        assert slice_vector(model, n) == expected


def spy_on_plans(monkeypatch):
    """Record the dimension of every plan made, and of every plan applied."""
    import sftbounds.transfer as transfer_mod

    real_plan, real_apply = transfer_mod._plan_product, transfer_mod._apply_plan
    planned, applied, dims = [], [], {}

    def plan_spy(model, *args):
        planned.append(model.dimension)
        plan = real_plan(model, *args)
        dims[id(plan)] = model.dimension
        return plan

    def apply_spy(plan, vec):
        applied.append(dims[id(plan)])
        return real_apply(plan, vec)

    monkeypatch.setattr(transfer_mod, "_plan_product", plan_spy)
    monkeypatch.setattr(transfer_mod, "_apply_plan", apply_spy)
    return planned, applied


def test_slice_budget_refused_before_any_product(
    monkeypatch, hard_square2, hard_square3
):
    planned, applied = spy_on_plans(monkeypatch)
    # F(8) = 21 slices at side 6 in d = 2; C_3 = 63 slices at side 3 in d = 3
    with pytest.raises(BudgetExceededError, match="more than 20 slices at side 6"):
        count_via_transfer(hard_square2, 6, state_budget=20)
    # only the d = 1 sub-model count planned and ran products; the top
    # model did neither
    assert planned == [1]
    assert applied and set(applied) == {1}
    planned.clear()
    applied.clear()
    with pytest.raises(BudgetExceededError, match="more than 62 slices at side 3"):
        count_via_transfer(hard_square3, 3, state_budget=62)
    # only the d = 2 sub-model count ran products: its 2^3 slice fillings
    # fit the budget, so it counts no sub-model of its own
    assert set(planned) == set(applied) == {2}
    planned.clear()
    applied.clear()
    # 2^3 > 7: the d = 2 count counts its 5 slices in d = 1 first
    with pytest.raises(BudgetExceededError, match="more than 7 slices at side 3"):
        count_via_transfer(hard_square3, 3, state_budget=7)
    assert set(planned) == set(applied) == {1, 2}


def test_preflight_builds_no_checks_of_a_refused_side(monkeypatch):
    # side 2 of hard-square d = 8 at budget 1000: each dimension down to 5
    # has more slice fillings than the budget and counts its slices one
    # dimension down first; the d = 4 count (743) fits, and d = 5 refuses.
    # Only the sides listed build their cells' checks: a refused side's
    # table would have n^(d-1) entries.
    import sftbounds.transfer as transfer_mod

    real = transfer_mod._phase_checks
    built = []

    def spy(model, n):
        built.append((model.dimension, n))
        return real(model, n)

    monkeypatch.setattr(transfer_mod, "_phase_checks", spy)
    with pytest.raises(BudgetExceededError, match="more than 1000 .* at side 2"):
        count_patterns(builtin_model("hard-square", 8), 2, state_budget=1000)
    assert built == [(4, 2), (5, 2)]


def test_high_dimension_refusal_is_fast():
    # 2^39 cells per slice at d = 40: the preflight must not build or
    # raise anything of that size on its way down to d = 5
    start = time.process_time()
    with pytest.raises(BudgetExceededError, match="at side 2"):
        count_patterns(builtin_model("hard-square", 40), 2, state_budget=1000)
    assert time.process_time() - start < 2


def spy_on_sides(monkeypatch):
    """Count, per (dimension, side), the slice lists made and the planner
    runs (``_plan_product``; a quotient plan is derived from its side's
    full plan, with no planner run of its own)."""
    import sftbounds.transfer as transfer_mod

    real_plan, real_space = transfer_mod._plan_product, transfer_mod.build_slice_space
    spaces, plans = Counter(), Counter()

    def space_spy(model, n, *args):
        spaces[model.dimension, n] += 1
        return real_space(model, n, *args)

    def plan_spy(model, n, *args):
        plans[model.dimension, n] += 1
        return real_plan(model, n, *args)

    monkeypatch.setattr(transfer_mod, "build_slice_space", space_spy)
    monkeypatch.setattr(transfer_mod, "_plan_product", plan_spy)
    return spaces, plans


def test_report_plans_each_side_once(monkeypatch, hard_square2, coloring3_d2):
    spaces, plans = spy_on_sides(monkeypatch)
    build_report(hard_square2, 8)
    # sides 1..9 are counted and sides 1..5 tabled: the table's plan is
    # the count's (hard-square has no class of two symbols)
    assert {n: c for (d, n), c in spaces.items() if d == 2} == dict.fromkeys(range(1, 10), 1)
    assert {n: c for (d, n), c in plans.items() if d == 2} == dict.fromkeys(range(2, 10), 1)
    # nothing is kept across calls: a second report plans as much again
    first = (Counter(spaces), Counter(plans))
    spaces.clear()
    plans.clear()
    build_report(hard_square2, 8)
    assert (spaces, plans) == first
    # coloring:3: one slice list and one planner run per counted side
    # (sides 1..7 counted, 1..4 tabled), the count's quotient plan derived
    # from the full plan that the table uses
    spaces.clear()
    plans.clear()
    build_report(coloring3_d2, 6)
    assert {n: c for (d, n), c in spaces.items() if d == 2} == dict.fromkeys(range(1, 8), 1)
    assert {n: c for (d, n), c in plans.items() if d == 2} == dict.fromkeys(range(2, 8), 1)


def test_verify_shares_side_n(monkeypatch):
    from sftbounds.cli import main

    spaces, plans = spy_on_sides(monkeypatch)
    for model in ("hard-square", "coloring:3"):
        spaces.clear()
        plans.clear()
        argv = ["--builtin", model, "--dim", "2", "verify", "--n", "3", "--samples", "2"]
        with redirect_stdout(io.StringIO()):
            assert main(argv) == 0
        # C_5 on side 5; C_3 and the table on one side 3, planned once
        assert {n: c for (d, n), c in spaces.items() if d == 2} == {3: 1, 5: 1}
        assert {n: c for (d, n), c in plans.items() if d == 2} == {3: 1, 5: 1}


def test_side_is_checked_against_its_use(hard_square2, coloring3_d2):
    side = Side(hard_square2, 4)
    assert count_patterns(hard_square2, 4, side=side) == 1234
    for args in ((coloring3_d2, 4), (hard_square2, 5), (hard_square2, 4, 10 ** 6)):
        with pytest.raises(ValueError, match="not side"):
            count_patterns(*args, side=side)


def test_n_below_one_is_refused_by_the_side(hard_square2):
    # one check, in Side: the count builds its side before anything else
    for make in (Side, count_patterns, count_via_transfer):
        with pytest.raises(ValueError, match="need n >= 1, got 0"):
            make(hard_square2, 0)


def test_slice_space_matches_dict_walk(hard_square2, hard_square3, coloring3_d2):
    # the prefix recursion against the first product of the dict walk, from
    # an all-zeros previous slice: the same keys, and the same refusals
    every_pair = frozenset(itertools.product((0, 1), repeat=2))
    small = range(1, 40, 3)
    cases = (
        [(hard_square2, n, small) for n in range(1, 9)]
        + [(hard_square3, n, range(1, 80, 3)) for n in range(1, 4)]
        + [(coloring3_d2, n, range(1, 100, 4)) for n in range(1, 6)]
        + [(model, n, small) for model in closed_models(2) for n in range(1, 5)]
        + [(model, n, small) for model in one_dimensional_models() for n in (1, 2, 5)]
        + [(forbid_axis_model(d), n, small) for d in (2, 3) for n in range(1, 4)]
        + [(forbid_last_axis_model(), n, small) for n in range(1, 5)]
        + [(SftModel(2, Alphabet(("0", "1")), (every_pair,) * 2), 3, small)]
        + [(builtin_model("coloring", 2, 17), 2, range(1, 300, 20))]
    )
    seen = set()
    for model, n, budgets in cases:
        assert build_slice_space(model, n) == listed_by_walk(model, n)
        for budget in budgets:
            got = outcome(build_slice_space, model, n, budget)
            assert got == outcome(listed_by_walk, model, n, budget), (model, n, budget)
            if isinstance(got, str):
                # "more than {budget} {what} at side {n}" -> what
                seen.add(got.split(" ", 3)[3].split(" at side")[0])
            else:
                seen.add(list)
    # the sub-model preflight and a phase's prefixes both refuse somewhere
    assert seen == {"slices", "live transfer states", list}


def test_transitions_hard_square_n2(hard_square2):
    trans = build_transitions(hard_square2, 2)
    by_slice = {
        trans.slices[i]: {trans.slices[j] for j in row}
        for i, row in enumerate(trans.neighbors)
    }
    assert by_slice[(0, 0)] == {(0, 0), (0, 1), (1, 0)}
    assert by_slice[(0, 1)] == {(0, 0), (1, 0)}
    assert by_slice[(1, 0)] == {(0, 0), (0, 1)}


def test_transitions_symmetric(hard_square2, coloring3_d2):
    for model, n in [(hard_square2, 3), (coloring3_d2, 2)]:
        trans = build_transitions(model, n)
        for i, row in enumerate(trans.neighbors):
            for j in row:
                assert i in trans.neighbors[j]


def test_transitions_budget(hard_square2):
    with pytest.raises(BudgetExceededError):
        build_transitions(hard_square2, 6, edge_budget=10)


def forbid_last_axis_model(q=2):
    alphabet = Alphabet(tuple(str(i) for i in range(q)))
    all_pairs = frozenset(itertools.product(range(q), range(q)))
    return SftModel(2, alphabet, (frozenset(), all_pairs))


def test_transfer_matches_dfs(hard_square2, hard_square3, coloring3_d2):
    cases = [
        (hard_square2, 1),
        (hard_square2, 2),
        (hard_square2, 3),
        (hard_square2, 4),
        (hard_square2, 5),
        (hard_square3, 2),
        (hard_square3, 3),
        (coloring3_d2, 2),
        (coloring3_d2, 3),
        (forbid_axis_model(), 3),
        (forbid_last_axis_model(), 3),
        (full_shift(2, 3), 2),
        (builtin_model("coloring", 2, 17), 2),
    ] + [(model, n) for model in closed_models(2) for n in range(1, 4)]
    for model, n in cases:
        assert count_via_transfer(model, n) == count_patterns_dfs(model, n)


def test_transfer_matches_walk_counting(hard_square2, coloring3_d2, hard_square3):
    for model, n_range in [
        (hard_square2, range(2, 13)),
        (coloring3_d2, range(2, 8)),
        (hard_square3, range(2, 4)),
    ]:
        for n in n_range:
            assert count_via_transfer(model, n) == walk_count(model, n)


def test_half_walk_matches_full_walk(hard_square2, coloring3_d2, hard_square3):
    # both parities of n-1: the walk ends with or without the odd step
    for model, n_range in [
        (hard_square2, range(1, 17)),
        (coloring3_d2, range(1, 12)),
        (hard_square3, range(1, 5)),
    ]:
        for n in n_range:
            assert count_via_transfer(model, n) == full_walk_count(model, n)


def closed_models(d):
    """Non-builtin relations in dimension d: the reversal closures of the
    asymmetric relations the model type refuses."""
    return [
        reversal_closed_model(*relation)
        for relation, _ in ASYMMETRIC_RELATIONS
        if relation[0] == d
    ]


def one_dimensional_models():
    """1-d models: builtins, closed asymmetric relations, everything forbidden."""
    every_pair = frozenset(itertools.product((0, 1), repeat=2))
    return [
        builtin_model("hard-square", 1),
        builtin_model("coloring", 1, 1),
        builtin_model("coloring", 1, 3),
        builtin_model("coloring", 1, 17),
        *closed_models(1),
        SftModel(1, Alphabet(("0", "1")), (every_pair,)),
    ]


def test_transfer_d1_matches_dfs(hard_square1):
    for model in one_dimensional_models():
        for n in range(1, 8 if model.num_symbols <= 3 else 4):
            assert count_via_transfer(model, n) == count_patterns_dfs(model, n)
    # F(62): far past the DFS, one product per step for the transfer
    assert count_via_transfer(hard_square1, 60) == 4_052_739_537_881
    assert count_via_transfer(builtin_model("coloring", 1, 3), 30) == 3 * 2 ** 29


@st.composite
def symmetric_models_d2(draw):
    q = draw(st.integers(1, 3))
    alphabet = Alphabet(tuple(f"s{i}" for i in range(q)))
    forbidden = []
    for _ in range(2):
        base = draw(
            st.frozensets(
                st.tuples(st.integers(0, q - 1), st.integers(0, q - 1)),
                max_size=4,
            )
        )
        forbidden.append(frozenset(base | {(b, a) for a, b in base}))
    return SftModel(2, alphabet, tuple(forbidden))


@settings(max_examples=40, deadline=None)
@given(symmetric_models_d2(), st.integers(1, 4))
def test_transfer_agrees_with_dfs_random(model, n):
    # q=3, n=4 with few forbidden pairs is past the DFS node budget
    if model.num_symbols ** (n * n) > 10_000_000:
        expected = walk_count(model, n)
    else:
        expected = count_patterns_dfs(model, n)
    assert count_via_transfer(model, n) == expected


@st.composite
def symmetric_models_d3(draw):
    """A random symmetric d = 3 model and a side: the last slice cell of a
    side-2 or side-3 slice has two within-slice checks."""
    q = draw(st.integers(1, 3))
    alphabet = Alphabet(tuple(f"s{i}" for i in range(q)))
    forbidden = []
    for _ in range(3):
        base = draw(
            st.frozensets(
                st.tuples(st.integers(0, q - 1), st.integers(0, q - 1)),
                max_size=4,
            )
        )
        forbidden.append(frozenset(base | {(b, a) for a, b in base}))
    n = draw(st.integers(1, 3 if q <= 2 else 2))
    return SftModel(3, alphabet, tuple(forbidden)), n


def assert_slices_reflect(model, n):
    """Every side's slice list is closed under the point reflection R."""
    q = model.num_symbols
    for side in range(1, n + 1):
        slices = set(slice_vector(model, side))
        w = side ** (model.dimension - 1)
        assert {reflect(s, q, w) for s in slices} == slices, (model, side)


@settings(max_examples=40, deadline=None)
@given(symmetric_models_d2(), st.integers(1, 4))
def test_slices_are_their_reflections_random(model, n):
    assert_slices_reflect(model, n)


@settings(max_examples=30, deadline=None)
@given(symmetric_models_d3())
def test_slices_are_their_reflections_random_d3(case):
    assert_slices_reflect(*case)


class PlannedProduct:
    """The planned product of one side, on dicts keyed by slice (the full
    plan, unless ``quotient``)."""

    def __init__(self, model, n, quotient=False):
        self.q, self.w = model.num_symbols, n ** (model.dimension - 1)
        side = Side(model, n)
        self.slices = side.slices()
        self.plan = side.plan(quotient)

    def __call__(self, dist):
        """T dist: the plan computes T R, so it is fed R dist."""
        assert set(dist) <= set(self.slices)
        if self.plan is None:
            return {}
        vec = [dist.get(reflect(k, self.q, self.w), 0) for k in self.slices]
        out = _apply_plan(self.plan, vec)
        assert len(out) == len(self.slices)
        return {k: c for k, c in zip(self.slices, out) if c}

    def factor_sizes(self):
        """(|P_p|, |S_p|) after each phase, read off the plan's phases."""
        phases, switch, _ = self.plan
        sizes = []
        rows = 1
        for p, (kept, gathers) in enumerate(phases):
            for _, mask, size in kept:  # a mask over P_p, taking size prefixes
                assert size == rows if mask is None else (len(mask), sum(mask)) == (rows, size)
            rows = sum(size for _, _, size in kept)
            cols = sum(size for size, _ in gathers[0]) if p < switch else len(gathers)
            sizes.append((rows, cols))
        return sizes


def remap_positions(plan, slices):
    """The positions the remap gather of ``plan`` reads, from a vector
    over some of ``slices`` and a 0 after it; None without a remap."""
    remap = plan[2]
    return None if remap is None else list(remap(range(len(slices) + 1)))


def assert_planned_matches_advance(model, n, exact_padding=False):
    """Key by key against the dict walk's ``advance``: the first product,
    the one after it (on the support it reached), and a product of weights
    past 64 bits on a random part of the slices.  Each phase's padded
    matrix covers the live keys of that phase of ``advance``, exactly if
    ``exact_padding``."""
    masks = model.allowed_masks[model.dimension - 1]
    phases = phase_checks(model, n)
    planned = PlannedProduct(model, n)
    ones = slice_vector(model, n)
    dist = ones
    live = []
    for checks in phases:
        dist = advance(model, n, dist, masks, [checks])
        live.append(len(dist))
    if planned.plan is None:
        assert live[-1] == 0
    else:
        for (rows, cols), keys in zip(planned.factor_sizes(), live):
            assert rows * cols >= keys, (model, n)
            if exact_padding:
                assert rows * cols == keys, (model, n)
    rng = random.Random(n)
    mixed = {k: rng.randrange(1, 2 ** 70) for k in ones if rng.random() < 0.6}
    for dist in (ones, mixed):
        for _ in range(2):
            expected = advance(model, n, dist, masks, phases)
            assert planned(dist) == expected, (model, n)
            dist = expected


def test_planned_product_matches_advance(hard_square2, coloring3_d2):
    every_pair = frozenset(itertools.product((0, 1), repeat=2))
    cases = (
        [(builtin_model("hard-square", 1), n) for n in range(1, 9)]
        + [(hard_square2, n) for n in range(1, 8)]
        + [(builtin_model("hard-square", 3), n) for n in range(1, 5)]
        + [(builtin_model("coloring", 1, 3), n) for n in range(1, 9)]
        + [(coloring3_d2, n) for n in range(1, 6)]
        + [(builtin_model("coloring", 3, 3), n) for n in range(1, 4)]
        + [(builtin_model("coloring", 1, 17), n) for n in range(1, 4)]
        + [(builtin_model("coloring", 2, 17), n) for n in range(1, 3)]
        + [(model, n) for model in closed_models(2) for n in range(1, 5)]
        + [(SftModel(1, Alphabet(("0", "1")), (every_pair,)), n) for n in range(1, 5)]
        + [(forbid_axis_model(), n) for n in range(1, 5)]
        + [(forbid_last_axis_model(), n) for n in range(1, 5)]
    )
    for model, n in cases:
        assert_planned_matches_advance(model, n)


def test_planned_product_pads_nothing(hard_square2, hard_square3, coloring3_d2):
    # on these models each phase's live keys are a full prefix x suffix product
    for model, n in [
        (hard_square2, 9),
        (coloring3_d2, 4),
        (hard_square3, 3),
        (forbid_last_axis_model(), 4),
        (forbid_axis_model(), 4),
        (single_symbol_forced(), 4),
        (full_shift(2, 2), 4),
    ]:
        assert_planned_matches_advance(model, n, exact_padding=True)


def phase_runs(plan):
    """Per phase after the first: the runs of its new suffixes, the
    maximal ranges that read the same symbols' blocks, each by one range.
    A row step lists one group per run, and every gather is a slice; a
    column step lists per suffix its source positions, which a run
    continues one position on."""
    phases, switch, _ = plan
    runs = []
    for p, (_, gathers) in enumerate(phases[1:], 1):
        if p < switch:
            flat = [s for groups in gathers for _, idx in groups for s in idx]
            assert all(isinstance(s, slice) for s in flat), p
            assert len({len(groups) for groups in gathers}) == 1, p
            runs.append(len(gathers[0]))
        else:
            sources = gathers
            runs.append(1 + sum(
                any(len(a) != len(b) or any(j != i + 1 for i, j in zip(a, b))
                    for a, b in zip(prev, srcs))
                for prev, srcs in zip(sources, sources[1:])
            ))
    return runs


def test_planned_product_gathers_runs_by_slices(hard_square2, coloring3_d2):
    # a timing-free guard: hard-square's new suffixes split into those that
    # may follow a 1 and those that may not, coloring:3's by their first
    # cell; the last phase has the one empty suffix
    for model, n, per_phase in [
        (hard_square2, 9, 2), (hard_square2, 12, 2), (coloring3_d2, 6, 3),
    ]:
        for quotient in (False, True):
            plan = PlannedProduct(model, n, quotient).plan
            assert phase_runs(plan) == [per_phase] * (n - 2) + [1], (model, n)
            # both plans read the input as S_0 itself: phase 0 gathers by
            # slices too
            gathers = [s for groups in plan[0][0][1] for _, idx in groups for s in idx]
            assert gathers and all(isinstance(s, slice) for s in gathers), (model, n)


def isolated_symbol_model(d, axis):
    """Hard-square on 0 and 1, and a symbol 2 with no allowed neighbor
    along ``axis``, a slice axis: 2 may begin a prefix but no slice of
    side >= 2 holds it, so an admissible suffix of the one cell 2 extends
    to no slice."""
    square = frozenset({(1, 1)})
    isolated = square | {(2, s) for s in range(3)} | {(s, 2) for s in range(3)}
    forbidden = tuple(isolated if k == axis else square for k in range(d))
    return SftModel(d, Alphabet(("0", "1", "2")), forbidden)


def test_isolated_symbol_pads_nothing():
    # the suffixes come from the slices, not from the admissible suffixes:
    # each phase's matrix is exactly its live states, and refusals match
    for model, sides, budgets in [
        (isolated_symbol_model(2, 0), range(1, 6), range(1, 60)),
        (isolated_symbol_model(3, 0), range(1, 4), range(1, 800, 7)),
        (isolated_symbol_model(3, 1), range(1, 4), range(1, 400, 3)),
    ]:
        for n in sides:
            count = count_via_transfer(model, n)
            assert count == count_patterns_dfs(model, n), (model, n)
            assert count == dict_half_walk(model, n, DEFAULT_STATE_BUDGET), (model, n)
            assert_planned_matches_advance(model, n, exact_padding=True)
            if n < 3:
                assert_table_matches_groups(model, n)
        seen = set()
        for budget in budgets:
            got = outcome(count_via_transfer, model, sides[-1], budget)
            assert got == outcome(dict_half_walk, model, sides[-1], budget), budget
            seen.add(type(got))
        assert seen == {str, int}, model


@settings(max_examples=40, deadline=None)
@given(symmetric_models_d2(), st.integers(1, 4))
def test_planned_product_matches_advance_random(model, n):
    assert_planned_matches_advance(model, n)


@settings(max_examples=30, deadline=None)
@given(symmetric_models_d3())
def test_planned_product_matches_advance_random_d3(case):
    assert_planned_matches_advance(*case)


def dict_half_walk(model, n, state_budget):
    """The half walk on the dict walk alone: the reference for budgets."""
    masks = model.allowed_masks[model.dimension - 1]
    phases = phase_checks(model, n)
    v = slices_by_walk(model, n, state_budget)
    for _ in range((n - 1) // 2):
        v = advance(model, n, v, masks, phases, state_budget)
    u = advance(model, n, v, masks, phases, state_budget) if (n - 1) % 2 else v
    return sum(c * u.get(k, 0) for k, c in v.items())


def outcome(count, *args):
    try:
        return count(*args)
    except BudgetExceededError as err:
        return str(err)


def test_compiled_budget_refusals_match_dict_path(
    hard_square2, hard_square3, coloring3_d2
):
    for model, n, budgets in [
        (hard_square2, 6, range(1, 60)),
        (hard_square2, 9, range(30, 200, 3)),
        (coloring3_d2, 4, range(1, 200, 2)),
        (hard_square3, 3, range(60, 200, 2)),
        (forbid_last_axis_model(), 4, range(1, 40)),
        (coloring3_d2, 5, range(1, 800, 7)),
        (builtin_model("coloring", 2, 4), 4, range(1, 3000, 17)),
    ]:
        seen = set()
        for budget in budgets:
            got = outcome(count_via_transfer, model, n, budget)
            assert got == outcome(dict_half_walk, model, n, budget), (model, n, budget)
            seen.add(type(got))
        # each range covers both refusals and counts
        assert seen == {str, int}, (model, n)


def assert_quotient_matches(model, n, expected=None):
    """The count on class representatives against the dict walk's half
    walk (and ``expected``, when given); its plan against the full plan:
    both map T^k 1 (k < n) to the same vector over every slice, and
    refuse the same budgets."""
    count = count_via_transfer(model, n)
    assert count == dict_half_walk(model, n, DEFAULT_STATE_BUDGET), (model, n)
    if expected is not None:
        assert count == expected, (model, n)
    side = Side(model, n)
    slices, full, canonical = side.slices(), side.plan(False), side.plan(True)
    if full is None:
        assert canonical is None
        return
    assert len(canonical) == len(full) == 3 and canonical[1] == full[1]  # the switch
    vec = [1] * len(slices)
    for k in range(n):
        out = _apply_plan(full, vec)
        got = _apply_plan(canonical, vec)
        assert len(got) == len(out) == len(slices) and list(got) == list(out), (model, n, k)
        vec = list(out)
    padded = max(rows * cols for rows, cols in PlannedProduct(model, n).factor_sizes())
    for budget in (padded - 1, padded):
        assert refusal(model, n, budget, False) == refusal(model, n, budget, True)


def refusal(model, n, budget, quotient):
    """The budget error of planning side n, or None."""
    try:
        Side(model, n, budget).plan(quotient)
    except BudgetExceededError as err:
        return str(err)
    return None


def test_quotient_counts_colorings():
    for q in (3, 4, 5):
        for d, dfs_sides, walk_sides in (
            (1, range(1, 7), range(7, 10)),
            (2, range(1, 4), range(4, 6 if q == 3 else 5)),
            (3, range(1, 3), range(3, 4 if q == 3 else 3)),
        ):
            model = builtin_model("coloring", d, q)
            for n in dfs_sides:
                assert_quotient_matches(model, n, count_patterns_dfs(model, n))
            for n in walk_sides:
                assert_quotient_matches(model, n)


def uneven_class_model():
    """(a b) preserves both axes, nothing moves c or d: classes {a, b},
    {c}, {d}."""
    doc = {
        "dimension": 2,
        "alphabet": ["a", "b", "c", "d"],
        "forbidden": [
            [["a", "a"], ["b", "b"], ["c", "c"], ["c", "d"], ["d", "c"]],
            [["a", "b"], ["b", "a"], ["d", "d"]],
        ],
    }
    return parse_model(json.dumps(doc))


def isolated_c_model():
    """Classes {a, b} and {c}, where c has no neighbor along axis 2, so
    no slice holding a c has one."""
    every_c = [["c", s] for s in "abc"] + [["a", "c"], ["b", "c"]]
    doc = {
        "dimension": 2,
        "alphabet": ["a", "b", "c"],
        "forbidden": [[["a", "b"], ["b", "a"]], every_c],
    }
    return parse_model(json.dumps(doc))


def test_quotient_on_uneven_classes():
    model = uneven_class_model()
    assert model.symbol_classes == (0, 0, 2, 3)
    for n in range(1, 4):
        assert_quotient_matches(model, n, count_patterns_dfs(model, n))
    for n in range(4, 6):
        assert_quotient_matches(model, n)
    # the fan-out sends each canonical slice to its class's orbit: the
    # class of its first cell, {a, b} or one symbol
    canonical = PlannedProduct(model, 3, quotient=True)
    fan_out = Counter(remap_positions(canonical.plan, canonical.slices))
    assert sorted(set(fan_out.values())) == [1, 2]
    # no slice holding a c has a neighbor along axis 2: their images are
    # not among the plan's canonical slices, and the fan-out sends them to
    # the 0 after the output
    model = isolated_c_model()
    assert model.symbol_classes == (0, 0, 2)
    for n in range(1, 5):
        assert_quotient_matches(model, n, count_patterns_dfs(model, n))
    canonical = PlannedProduct(model, 4, quotient=True)
    positions = remap_positions(canonical.plan, canonical.slices)
    sentinel = max(positions)  # the number of canonical slices
    assert 2 * sentinel < len(canonical.slices)
    holds_c = [any(s // 3 ** j % 3 == 2 for j in range(4)) for s in canonical.slices]
    assert [p == sentinel for p in positions] == holds_c
    out = _apply_plan(canonical.plan, [1] * len(canonical.slices))
    assert [c == 0 for c in out] == holds_c


def prefix_lists(plan, q):
    """P_0, P_1, ..., the prefixes before each phase, read off the
    plan's kept lists: v's part of P_{p+1} is the prefixes its mask takes,
    with v at cell p."""
    prefixes = [[0]]
    for p, (kept, _) in enumerate(plan[0]):
        prefixes.append([y + v * q ** p for v, mask, _ in kept for y in (
            prefixes[-1] if mask is None else itertools.compress(prefixes[-1], mask))])
    return prefixes


def assert_count_plan_narrows_full_plan(model, n):
    """The count's plan is the full plan with narrowed masks: the same
    v's in order, the very same gathers objects and the same switch; each
    mask None where the full mask is None, and otherwise the full mask
    restricted to the canonical prefixes, those whose cell 0 represents
    its class.  At phase 0 a v that represents no class takes nothing.
    Returns the number of entries of size 0 past phase 0."""
    q, reps = model.num_symbols, model.symbol_classes
    side = Side(model, n)
    full, count = side.plan(False), side.plan(True)
    assert count is not full and count[1] == full[1], (model, n)
    emptied = 0
    for p, (prefixes, (kept, gathers), (qkept, qgathers)) in enumerate(
        zip(prefix_lists(full, q), full[0], count[0])
    ):
        assert qgathers is gathers, (model, n, p)
        assert [v for v, _, _ in qkept] == [v for v, _, _ in kept], (model, n, p)
        canon = [reps[y % q] == y % q for y in prefixes]
        for (v, mask, size), entry in zip(kept, qkept):
            if p == 0:
                expected = (v, mask, size) if reps[v] == v else (v, b"\0", 0)
            elif mask is None:
                expected = (v, None, sum(canon))
            else:
                narrowed = bytes(itertools.compress(mask, canon))
                expected = (v, narrowed, sum(narrowed))
            assert entry == expected, (model, n, p, v)
            emptied += p > 0 and entry[2] == 0
    return emptied


def test_count_plan_narrows_full_plan():
    emptied = 0
    for model, sides in [
        (builtin_model("coloring", 2, 3), range(2, 7)),
        (builtin_model("coloring", 3, 3), range(2, 4)),
        (builtin_model("coloring", 2, 4), range(2, 5)),
        (uneven_class_model(), range(2, 6)),
        (isolated_c_model(), range(2, 6)),
    ]:
        emptied += sum(assert_count_plan_narrows_full_plan(model, n) for n in sides)
    # some phase past the first keeps a v that no canonical prefix takes
    # (on coloring, cell 0's own symbol at cell 1)
    assert emptied


def test_plans_fill_no_list_for_their_caller():
    # the count's plan reads its kept lists off the full plan, and the
    # listing builds its own cells' checks after the preflight
    import inspect

    import sftbounds.transfer as transfer_mod

    for fn in (transfer_mod._plan_product, transfer_mod._quotient_plan, build_slice_space):
        assert not {"record", "phases"} & set(inspect.signature(fn).parameters), fn
    assert "_record" not in Side.__slots__


def test_quotient_needs_every_axis():
    # a swap preserves axis 1 (the 3-coloring) but none preserves axis 2
    doc = {
        "dimension": 2,
        "alphabet": ["a", "b", "c"],
        "forbidden": [
            [["a", "a"], ["b", "b"], ["c", "c"]],
            [["a", "a"], ["a", "b"], ["b", "a"]],
        ],
    }
    model = parse_model(json.dumps(doc))
    assert model.symbol_classes == (0, 1, 2)
    for n in range(1, 5):
        assert_quotient_matches(model, n, count_patterns_dfs(model, n))


@settings(max_examples=40, deadline=None)
@given(symmetric_models_d2(), st.integers(1, 4))
def test_quotient_matches_dict_walk_random(model, n):
    assert_quotient_matches(model, n)


@settings(max_examples=30, deadline=None)
@given(symmetric_models_d3())
def test_quotient_matches_dict_walk_random_d3(case):
    assert_quotient_matches(*case)


def test_quotient_plan_sizes(hard_square2, coloring3_d2):
    # a timing-free guard: on coloring:3 every phase of the count's plan
    # holds a third of the table plan's prefixes, over the same suffixes
    canonical = PlannedProduct(coloring3_d2, 6, quotient=True).factor_sizes()
    full = PlannedProduct(coloring3_d2, 6).factor_sizes()
    assert [(3 * rows, cols) for rows, cols in canonical] == full
    # hard-square has no class of two symbols: one plan for both
    assert (
        PlannedProduct(hard_square2, 6, quotient=True).plan
        == PlannedProduct(hard_square2, 6).plan
    )


def side_plan(model, n, budget, quotient):
    """The plan of side n as ``Side`` makes it, off the slice listing,
    with its remap as the positions it reads.  The count's plan keeps
    every v of the full plan; the reference's lists only the v some
    canonical prefix takes, so the entries of size 0 go, each checked to
    have an all-zero mask, with their gathers."""
    side = Side(model, n, budget)
    plan = side.plan(quotient)
    if not plan:
        return plan
    phases, switch, _ = plan
    if quotient:
        phases = [nonempty_entries(phase, p < switch) for p, phase in enumerate(phases)]
    return phases, switch, remap_positions(plan, side.slices())


def nonempty_entries(phase, rows):
    """A phase without its entries of size 0, which must take no prefix;
    ``rows`` for a phase on rows (gathers per v), else on columns
    (gathers per suffix, then per v)."""
    kept, gathers = phase
    live = [size > 0 for _, _, size in kept]
    for (_, mask, _), keep in zip(kept, live):
        assert keep or (mask is not None and 1 not in mask), mask
    pick = itertools.compress
    if rows:
        return list(pick(kept, live)), list(pick(gathers, live))
    return list(pick(kept, live)), [tuple(pick(srcs, live)) for srcs in gathers]


def reference_plan(model, n, budget, quotient):
    """The plan of side n by the suffix-derivation reference planner."""
    phases = _phase_checks(model, n)
    slices = build_slice_space(model, n, budget)
    masks = model.allowed_masks[model.dimension - 1]
    return plan_reference.plan_product(model, n, slices, masks, phases, budget, quotient)


def assert_plan_matches_reference(model, n, budget=DEFAULT_STATE_BUDGET):
    """Both kinds of plan equal the reference's: steps, switch and remap,
    or the same refusal text."""
    for quotient in (False, True):
        got = outcome(side_plan, model, n, budget, quotient)
        assert got == outcome(reference_plan, model, n, budget, quotient), (
            model, n, budget, quotient,
        )


@st.composite
def symmetric_models_and_budgets(draw):
    """A random symmetric model in d = 1..3, a side, and a state budget,
    small enough to refuse some plans or the default."""
    d = draw(st.integers(1, 3))
    q = draw(st.integers(1, 3))
    alphabet = Alphabet(tuple(f"s{i}" for i in range(q)))
    pairs = st.tuples(st.integers(0, q - 1), st.integers(0, q - 1))
    forbidden = []
    for _ in range(d):
        base = draw(st.frozensets(pairs, max_size=4))
        forbidden.append(frozenset(base | {(b, a) for a, b in base}))
    n = draw(st.integers(1, {1: 6, 2: 4, 3: 3 if q <= 2 else 2}[d]))
    budget = draw(st.one_of(st.integers(1, 300), st.just(DEFAULT_STATE_BUDGET)))
    return SftModel(d, alphabet, tuple(forbidden)), n, budget


@settings(max_examples=150, deadline=None)
@given(symmetric_models_and_budgets())
def test_plan_matches_reference_random(case):
    assert_plan_matches_reference(*case)


def test_plan_matches_reference(hard_square2, hard_square3, coloring3_d2):
    # the workload models at sides past the random ones, and models with
    # dead-end prefixes (a symbol with no neighbor along a slice axis) over
    # budgets
    for model, n in [
        (hard_square2, 12), (coloring3_d2, 7), (coloring3_d2, 11), (hard_square3, 4),
        (builtin_model("coloring", 2, 4), 5), (builtin_model("coloring", 3, 3), 3),
        (builtin_model("coloring", 3, 3), 4),
    ]:
        assert_plan_matches_reference(model, n)
    for model, sides, budgets in [
        (isolated_symbol_model(2, 0), range(1, 6), range(1, 60, 3)),
        (isolated_symbol_model(3, 0), range(1, 4), range(1, 800, 29)),
        (isolated_symbol_model(3, 1), range(1, 4), range(1, 400, 17)),
        (builtin_model("coloring", 2, 4), range(2, 5), range(1, 3000, 97)),
    ]:
        for n in sides:
            for budget in [*budgets, DEFAULT_STATE_BUDGET]:
                assert_plan_matches_reference(model, n, budget)


def assert_listing_matches_reference(model, n):
    """The listing decides each cell once per segment, a run of prefixes
    that share their last K cells (K = n^(d-2), the longest predecessor
    offset), and joins each mask from whole segments; its slices and
    steps must be the reference digit recursion's, level by level, with a
    mask of None exactly when every symbol passes every check of the cell
    (not when its segments cover the level, as when the symbols that
    fail are absent from it)."""
    q = model.num_symbols
    side = Side(model, n)
    slices = side.slices()
    prefixes, steps = [0], []
    for p, checks in enumerate(_phase_checks(model, n)):
        kept, prefixes = plan_reference.extend_prefixes(prefixes, checks, p, q, range(q))
        steps.append(kept)
        for v, mask, _ in kept:
            passes = all(m >> v & 1 for _, wmasks in checks for m in wmasks)
            assert (mask is None) == passes, (model, n, p, v)
    assert slices == prefixes
    assert side._steps == steps


@settings(max_examples=150, deadline=None)
@given(symmetric_models_and_budgets())
def test_listing_steps_match_reference_random(case):
    assert_listing_matches_reference(*case[:2])


def test_listing_steps_match_reference():
    # an isolated symbol is absent from every level past the first, where
    # a mask that fails only for it covers the level
    for model, n in [
        (isolated_symbol_model(2, 0), 4), (isolated_symbol_model(3, 0), 3),
        (isolated_symbol_model(3, 1), 3), (builtin_model("coloring", 2, 3), 6),
        (builtin_model("hard-square", 3), 3),
    ]:
        assert_listing_matches_reference(model, n)
    # windows of n and n^2 cells, and segments split by three symbols
    for model, n in [
        (builtin_model("hard-square", 4), 3), (builtin_model("hard-square", 5), 2),
        (builtin_model("hard-square", 6), 2), (builtin_model("coloring", 3, 3), 4),
        *((split_axes_model(), n) for n in range(1, 5)),
    ]:
        assert_listing_matches_reference(model, n)


def test_level_budget_refuses_before_the_level_is_built(monkeypatch):
    # d = 3 with every pair forbidden along slice axis 1: side 10 has no
    # slice, so the preflight passes, but the first row of 10 cells takes
    # all 2^10 fillings.  At a budget one under that, the listing refuses
    # that level from its segments' sizes: no level the recursion returns
    # holds more than the budget
    import sftbounds.transfer as transfer_mod

    real = transfer_mod._extend_prefixes
    sizes = []

    def spy(level, checks, p, q, k, budget):
        kept, level = real(level, checks, p, q, k, budget)
        if k == 10:  # the d = 3 listing, not the preflight's d = 2 one
            sizes.append(None if level is None else len(level[0]))
        return kept, level

    monkeypatch.setattr(transfer_mod, "_extend_prefixes", spy)
    refusal = "more than 1023 live transfer states at side 10"
    with pytest.raises(BudgetExceededError, match=refusal):
        build_slice_space(forbid_axis_model(3), 10, 1023)
    assert sizes == [2 ** k for k in range(1, 10)] + [None]


def test_level_budget_refusal_peaks_below_the_built_level(monkeypatch):
    # the refusal of test_level_budget_refuses_before_the_level_is_built
    # at side 16: from the 2^15 prefixes of level 15 to a level of 2^16,
    # one over the budget.  The refusing step sizes the level from its
    # segments' allowed symbols and refuses before it builds any list per
    # symbol or segment key, so at its peak it allocates under a quarter of
    # the same step at a budget that lets it build that level (about a
    # fortieth, the per-segment masks alone); a step that builds the
    # per-symbol runs, or the level, before it refuses peaks near the
    # building step (tracemalloc, so the refusal is judged by what it
    # allocates, not by what it returns)
    import tracemalloc

    import sftbounds.transfer as transfer_mod

    real = transfer_mod._extend_prefixes
    peaks = []

    def traced_peak(*args):
        tracemalloc.start()
        try:
            kept, level = real(*args)
            return tracemalloc.get_traced_memory()[1], level
        finally:
            tracemalloc.stop()

    def spy(level, checks, p, q, k, budget):
        if k == 16 and p == 15:  # the refused step of the d = 3 listing
            refused, none = traced_peak(level, checks, p, q, k, budget)
            built, full = traced_peak(level, checks, p, q, k, budget + 1)
            peaks.append((refused, built, none, len(full[0])))
        return real(level, checks, p, q, k, budget)

    monkeypatch.setattr(transfer_mod, "_extend_prefixes", spy)
    with pytest.raises(BudgetExceededError, match="more than 65535 live transfer states"):
        build_slice_space(forbid_axis_model(3), 16, 2 ** 16 - 1)
    [(refused, built, none, size)] = peaks
    assert none is None and size == 2 ** 16
    assert refused < 0.25 * built


def test_plans_run_no_prefix_recursion(monkeypatch, hard_square2, coloring3_d2):
    # a timing-free guard: the listing of a side runs the prefix recursion
    # once per slice cell, and no plan runs it again
    import sftbounds.transfer as transfer_mod

    spaces, plans = spy_on_sides(monkeypatch)
    real = transfer_mod._extend_prefixes
    calls = []

    def spy(*args):
        calls.append(1)
        return real(*args)

    monkeypatch.setattr(transfer_mod, "_extend_prefixes", spy)
    for model, n_max in ((hard_square2, 8), (coloring3_d2, 6)):
        spaces.clear()
        plans.clear()
        calls.clear()
        build_report(model, n_max)
        assert plans
        assert len(calls) == sum(c * n ** (d - 1) for (d, n), c in spaces.items())


def test_count_patterns_sides_1_to_4(hard_square2):
    assert [(n, count_patterns(hard_square2, n)) for n in range(1, 5)] == [
        (1, 2),
        (2, 7),
        (3, 63),
        (4, 1234),
    ]


def test_count_patterns_single_cell(coloring3_d2):
    assert count_patterns(coloring3_d2, 1) == 3


def test_count_patterns_zero_model():
    model = forbid_axis_model()
    rows = {n: count_patterns(model, n) for n in range(1, 5)}
    assert rows[1] == 2
    assert rows[2] == rows[3] == rows[4] == 0


def test_state_budget(hard_square2):
    with pytest.raises(BudgetExceededError):
        count_via_transfer(hard_square2, 8, state_budget=5)


def test_count_patterns_dispatch_by_dimension(
    monkeypatch, hard_square1, hard_square2, hard_square3
):
    import sftbounds.transfer as transfer_mod

    used = []

    def spy(name):
        real = getattr(transfer_mod, name)

        def wrapper(model, n, *args):
            used.append((name, model.dimension))
            return real(model, n, *args)

        monkeypatch.setattr(transfer_mod, name, wrapper)

    spy("count_via_transfer")
    assert count_patterns(hard_square1, 4) == count_patterns_dfs(hard_square1, 4)
    assert count_patterns(hard_square2, 3) == 63
    assert count_patterns(hard_square3, 2) == 35
    # q^w slice fillings of w cells within the budget: no level can exceed
    # it, so no sub-model count
    assert used == [
        ("count_via_transfer", 1),
        ("count_via_transfer", 2),
        ("count_via_transfer", 3),
    ]
    used.clear()
    # past the budget, a transfer of d >= 2 first counts its slices on the
    # sub-model, one dimension down, through the same entry point; d = 1
    # needs no count
    assert count_patterns(hard_square2, 3, state_budget=7) == 63
    assert count_patterns(hard_square3, 2, state_budget=15) == 35
    assert used == [
        ("count_via_transfer", 2),
        ("count_via_transfer", 1),
        ("count_via_transfer", 3),
        ("count_via_transfer", 2),
    ]


def decode_states(model, n, table):
    """The shell-keyed table of ``state_counts`` re-keyed by SurfaceState.

    A key is (prefix, last slice).  The prefix lists, for slices 0..n-2,
    that slice's shell digits in ascending cell order as one base-q
    integer, slice 0 most significant; cell p of slice j is cube cell
    p * n + j.
    """
    d, q = model.dimension, model.num_symbols
    w = n ** (d - 1)
    shell = [p for p in range(w) if n - 1 in decode(p, n, d - 1)]
    out = {}
    for (prefix, last), c in table.items():
        cells = {}
        for j in range(n - 2, -1, -1):
            for p in reversed(shell):
                prefix, cells[p * n + j] = divmod(prefix, q)
        assert prefix == 0
        for p in range(w):
            last, cells[p * n + n - 1] = divmod(last, q)
        state = SurfaceState(n, d, tuple(cells[i] for i in surface_indices(n, d)))
        assert state not in out
        out[state] = c
    return out


def test_state_counts_match_dfs_per_state(hard_square2, hard_square3, coloring3_d2):
    cases = (
        [(hard_square2, n) for n in range(1, 6)]
        + [(hard_square3, n) for n in range(1, 4)]
        + [(coloring3_d2, n) for n in range(1, 6)]
        + [(builtin_model("coloring", 3, 3), n) for n in range(1, 3)]
        + [(model, n) for model in closed_models(2) for n in range(1, 5)]
        + [(builtin_model("coloring", 2, 17), 2)]
    )
    for d in (2, 3):
        for model in (
            full_shift(2, d),
            full_shift(3, d),
            forbid_axis_model(d),
            single_symbol_forced(d),
        ):
            cases += [(model, n) for n in range(1, 4 if d == 2 else 3)]
    for model, n in cases:
        expected = count_by_state(model, n)
        assert decode_states(model, n, state_counts(Side(model, n))) == expected


def test_state_counts_d1_is_the_dfs_table():
    # no earlier slice has a shell cell: the key is (0, last cell's value)
    for model in one_dimensional_models():
        for n in range(1, 9 if model.num_symbols <= 3 else 4):
            table = state_counts(Side(model, n))
            assert {prefix for prefix, _ in table} <= {0}
            assert decode_states(model, n, table) == count_by_state(model, n)


@settings(max_examples=40, deadline=None)
@given(symmetric_models_d2(), st.integers(1, 3))
def test_state_counts_agree_with_dfs_random(model, n):
    # at most 3^9 patterns, far under the DFS node budget
    assert decode_states(model, n, state_counts(Side(model, n))) == count_by_state(model, n)


def test_state_counts_pinned_sizes(hard_square2, hard_square3, coloring3_d2):
    # past the DFS's reach at test speed: 5.6M patterns at hard-square n=6
    for model, n, states, total in [
        (hard_square2, 6, 233, 5_598_861),
        (coloring3_d2, 5, 768, 580_986),
        (hard_square3, 3, 4_182, 70_633),
    ]:
        table = state_counts(Side(model, n))
        assert (len(table), sum(table.values())) == (states, total)
        assert total == count_patterns(model, n)


def test_state_counts_need_no_enumeration(monkeypatch, hard_square2):
    import sftbounds.enumeration as enumeration_mod

    def no_cube_search(model, n, node_budget):
        raise AssertionError("side-n patterns were enumerated")

    monkeypatch.setattr(enumeration_mod, "_admissible_assignments", no_cube_search)
    table = state_counts(Side(hard_square2, 5))
    assert sum(c ** 4 for c in table.values()) == 22_937_333_976_547


def test_state_counts_refused_before_any_product(monkeypatch, hard_square3):
    planned, applied = spy_on_plans(monkeypatch)
    # 63 slices at side 3, five shell cells per slice: 2^10 * 63 fields
    with pytest.raises(
        BudgetExceededError, match="more than 200 boundary-state keys at side 3"
    ):
        state_counts(Side(hard_square3, 3, 200))
    # only the slice count of the d = 2 sub-model planned and ran products:
    # 2^9 fillings of a d = 3 slice exceed the budget, while the 2^3 of a
    # d = 2 slice fit it, so that count counts no sub-model of its own
    assert set(planned) == set(applied) == {2}
    planned.clear()
    applied.clear()
    # 2^3 fillings within budget 19: no sub-model count at all; 2^2 shell
    # prefixes times 5 slices exceed it
    with pytest.raises(
        BudgetExceededError, match="more than 19 boundary-state keys at side 3"
    ):
        state_counts(Side(builtin_model("hard-square", 2), 3, 19))
    assert planned == applied == []


def test_state_counts_budget_is_fields_times_slices(hard_square2, coloring3_d2):
    # side 5: 2^4 shell prefixes times 13 slices
    assert len(state_counts(Side(hard_square2, 5, 16 * 13))) == 89
    with pytest.raises(
        BudgetExceededError, match="more than 207 boundary-state keys at side 5"
    ):
        state_counts(Side(hard_square2, 5, 16 * 13 - 1))
    # the default budget: hard-square 2^12 * 610 and coloring:3 3^7 * 384
    # fit; 2^13 * 987 and 3^8 * 768 are refused
    for model, n in [(hard_square2, 14), (coloring3_d2, 9)]:
        with pytest.raises(BudgetExceededError, match=f"keys at side {n}"):
            state_counts(Side(model, n))


def assert_table_matches_groups(model, n):
    expected = state_counts_by_groups(model, n)
    assert state_counts(Side(model, n)) == expected, (model, n)
    return expected


def test_state_counts_match_group_walk(hard_square2, hard_square3, coloring3_d2):
    # hard-square n >= 10 has fields of two 64-bit words
    cases = (
        [(hard_square2, n) for n in range(1, 11)]
        + [(coloring3_d2, n) for n in range(1, 7)]
        + [(hard_square3, n) for n in range(1, 4)]
        + [(builtin_model("coloring", 2, 17), 2)]
        + [(model, n) for model in one_dimensional_models() for n in range(1, 7)]
        + [(model, n) for model in closed_models(2) for n in range(1, 5)]
    )
    for model, n in cases:
        assert_table_matches_groups(model, n)


def test_state_counts_full_shift_fills_every_field():
    # every state is realized, with the (n-1)^d interior cells free; at
    # q = 2, d = 2, n = 9 each count is 2^64, one past the first word
    for q, d, sides in [(2, 2, range(1, 10)), (3, 2, range(1, 4)), (2, 3, range(1, 3))]:
        model = full_shift(q, d)
        for n in sides:
            table = state_counts(Side(model, n))
            assert set(table.values()) == {q ** ((n - 1) ** d)}
            assert len(table) == q ** (n ** d - (n - 1) ** d)
            if len(table) <= 5000:
                assert table == state_counts_by_groups(model, n)


def test_state_counts_empty_products():
    # no product at all (forbid_last_axis_model's plan is None), and no
    # slice of side >= 2 (forbid_axis_model)
    for model in (forbid_last_axis_model(), forbid_axis_model(), forbid_axis_model(3)):
        assert assert_table_matches_groups(model, 1)
        for n in range(2, 5):
            assert assert_table_matches_groups(model, n) == {}


@settings(max_examples=40, deadline=None)
@given(symmetric_models_d2(), st.integers(1, 4))
def test_state_counts_match_group_walk_random(model, n):
    assert_table_matches_groups(model, n)


@settings(max_examples=30, deadline=None)
@given(symmetric_models_d3())
def test_state_counts_match_group_walk_random_d3(case):
    assert_table_matches_groups(*case)


def test_state_counts_budget(hard_square2):
    # 89 boundary states at side 5, over a budget the 13 slices fit in
    with pytest.raises(BudgetExceededError, match="boundary-state keys at side 5"):
        state_counts(Side(hard_square2, 5, 40))


def test_budget_error_lives_with_the_budgets():
    import ast

    import sftbounds
    import sftbounds.enumeration as enumeration_mod
    import sftbounds.transfer as transfer_mod

    assert BudgetExceededError is sftbounds.BudgetExceededError
    assert BudgetExceededError is transfer_mod.BudgetExceededError
    assert BudgetExceededError is enumeration_mod.BudgetExceededError
    assert BudgetExceededError.__module__ == "sftbounds.transfer"
    with open(transfer_mod.__file__, encoding="utf-8") as fh:
        tree = ast.parse(fh.read())
    imported = {
        node.module for node in ast.walk(tree) if isinstance(node, ast.ImportFrom)
    }
    assert "enumeration" not in imported
