import random

import pytest
from hypothesis import given, settings, strategies as st

from sftbounds import (
    Alphabet,
    BudgetExceededError,
    SftModel,
    builtin_model,
    is_locally_admissible,
    sample_admissible,
    surface_state,
)
from sftbounds.enumeration import count_by_state, count_patterns_dfs, enumerate_patterns

from conftest import brute_force_count, forbid_axis_model, full_shift
from oracle import oracle_count_naive


def test_hard_square_small_counts(hard_square2):
    assert count_patterns_dfs(hard_square2, 1) == 2
    assert count_patterns_dfs(hard_square2, 2) == 7
    assert count_patterns_dfs(hard_square2, 3) == 63


def test_counts_match_local_brute_force(hard_square2, hard_square3, coloring3_d2):
    cases = [
        (hard_square2, 2),
        (hard_square2, 3),
        (hard_square3, 2),
        (coloring3_d2, 2),
        (full_shift(3, 2), 2),
        (forbid_axis_model(), 2),
    ]
    for model, n in cases:
        assert count_patterns_dfs(model, n) == brute_force_count(model, n)


def test_single_cell_counts_alphabet():
    for model in (builtin_model("hard-square", 3), forbid_axis_model(2, 4)):
        assert count_patterns_dfs(model, 1) == model.num_symbols


def test_coloring_counts(coloring3_d2):
    assert count_patterns_dfs(coloring3_d2, 2) == 18
    assert count_patterns_dfs(builtin_model("coloring", 2, 2), 2) == 2


@st.composite
def tiny_models(draw):
    d = draw(st.integers(1, 2))
    q = draw(st.integers(1, 3))
    alphabet = Alphabet(tuple(f"s{i}" for i in range(q)))
    forbidden = []
    for _ in range(d):
        base = draw(
            st.frozensets(
                st.tuples(st.integers(0, q - 1), st.integers(0, q - 1)),
                max_size=4,
            )
        )
        forbidden.append(frozenset(base | {(b, a) for a, b in base}))
    return SftModel(d, alphabet, tuple(forbidden))


@settings(max_examples=40, deadline=None)
@given(tiny_models(), st.integers(1, 3))
def test_dfs_matches_brute_force_on_random_models(model, n):
    if model.num_symbols ** (n ** model.dimension) > 3 ** 9:
        return
    assert count_patterns_dfs(model, n) == brute_force_count(model, n)


def test_enumeration_exhaustive(hard_square2):
    patterns = list(enumerate_patterns(hard_square2, 2))
    assert len(patterns) == 7
    assert len(set(patterns)) == 7
    assert all(is_locally_admissible(hard_square2, p) for p in patterns)
    assert [p.values for p in patterns] == sorted(p.values for p in patterns)


def test_enumeration_empty_model():
    assert list(enumerate_patterns(forbid_axis_model(), 2)) == []


def test_enumeration_length_matches_count(coloring3_d2):
    n = 2
    assert len(list(enumerate_patterns(coloring3_d2, n))) == count_patterns_dfs(
        coloring3_d2, n
    )


def test_count_by_state_hard_square(hard_square2):
    table = count_by_state(hard_square2, 2)
    assert {s.cells: c for s, c in table.items()} == {
        (0, 0, 0): 2,
        (0, 0, 1): 2,
        (1, 0, 0): 1,
        (0, 1, 0): 1,
        (1, 1, 0): 1,
    }
    assert sum(table.values()) == 7


def test_count_by_state_n1(coloring3_d2):
    table = count_by_state(coloring3_d2, 1)
    assert len(table) == 3
    assert all(c == 1 for c in table.values())


def test_count_by_state_full_shift_line():
    model = full_shift(3, 1)
    table = count_by_state(model, 2)
    assert len(table) == 3
    assert all(c == 3 for c in table.values())


def test_count_by_state_sums(hard_square2, hard_square3, coloring3_d2):
    for model, n in [(hard_square2, 3), (hard_square3, 2), (coloring3_d2, 2)]:
        table = count_by_state(model, n)
        assert sum(table.values()) == count_patterns_dfs(model, n)
        assert all(c >= 1 for c in table.values())


def test_state_grouping_consistent(hard_square2):
    table = count_by_state(hard_square2, 2)
    regroup = {}
    for p in enumerate_patterns(hard_square2, 2):
        s = surface_state(p)
        regroup[s] = regroup.get(s, 0) + 1
    assert regroup == table


def test_zero_propagation():
    model = forbid_axis_model()
    assert count_patterns_dfs(model, 1) == 2
    for n in range(2, 5):
        assert count_patterns_dfs(model, n) == 0


def test_positivity_propagation(hard_square2, coloring3_d2):
    for model in (hard_square2, coloring3_d2):
        counts = [count_patterns_dfs(model, n) for n in range(2, 5)]
        assert all(c > 0 for c in counts)


def test_monotonicity_from_two(hard_square2, coloring3_d2):
    for model in (hard_square2, coloring3_d2):
        counts = {n: count_patterns_dfs(model, n) for n in range(2, 5)}
        assert counts[2] <= counts[3] <= counts[4]


def test_node_budget_raises(hard_square2):
    with pytest.raises(BudgetExceededError):
        count_patterns_dfs(hard_square2, 4, node_budget=10)


def test_oracle_examples(hard_square2, hard_square3):
    assert oracle_count_naive(hard_square2, 2) == 7
    assert oracle_count_naive(hard_square3, 2) == 35
    assert oracle_count_naive(builtin_model("coloring", 2, 2), 2) == 2


def test_oracle_cap():
    with pytest.raises(BudgetExceededError):
        oracle_count_naive(builtin_model("hard-square", 2), 6, cap=1 << 20)


def test_determinism(hard_square2):
    first = [p.values for p in enumerate_patterns(hard_square2, 3)]
    second = [p.values for p in enumerate_patterns(hard_square2, 3)]
    assert first == second


def test_large_alphabet_uses_mask_fallback():
    # one lazily filled mask -> values map serves every alphabet size
    for q in (2, 3, 17):
        model = builtin_model("coloring", 2, q)
        vfm, full = model.values_for_mask, (1 << q) - 1
        for m in (0, 1, 0b1010, 1 << 16, full, 0b10000000000000101):
            m &= full
            assert vfm[m] == tuple(v for v in range(q) if m >> v & 1)
        p = sample_admissible(model, 3, random.Random(0))
        assert p.n == 3 and is_locally_admissible(model, p)
        assert count_patterns_dfs(model, 1) == q
        # proper q-colorings of the 4-cycle: (q-1)^4 + (q-1)
        assert count_patterns_dfs(model, 2) == (q - 1) ** 4 + (q - 1)
