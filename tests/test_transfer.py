import pytest
from hypothesis import given, settings, strategies as st

from sftbounds import (
    Alphabet,
    BudgetExceededError,
    SftModel,
    build_slice_space,
    build_transitions,
    builtin_model,
    count_patterns,
    count_patterns_dfs,
    count_via_transfer,
)
from sftbounds.models import drop_last_axis
from sftbounds.transfer import DEFAULT_STATE_BUDGET, _advance, _pack, _phase_checks

from conftest import forbid_axis_model, full_shift


def walk_count(model, n):
    """Independent walk counting over explicit adjacency lists."""
    space = build_slice_space(model, n)
    trans = build_transitions(space)
    vec = [1] * len(space)
    for _ in range(n - 1):
        vec = [sum(vec[i] for i in row) for row in trans.neighbors]
    return sum(vec)


def full_walk_count(model, n):
    """The full (n-1)-step factored walk, with no half-walk split."""
    space = build_slice_space(model, n)
    q = model.num_symbols
    masks = model.allowed_masks[model.dimension - 1]
    phases = _phase_checks(model, n)
    dist = {_pack(s, q): 1 for s in space.slices}
    for _ in range(n - 1):
        dist = _advance(model, n, dist, masks, phases, DEFAULT_STATE_BUDGET)
    return sum(dist.values())


def test_slice_space_hard_square_n3(hard_square2):
    space = build_slice_space(hard_square2, 3)
    assert set(space.slices) == {
        (0, 0, 0),
        (0, 0, 1),
        (0, 1, 0),
        (1, 0, 0),
        (1, 0, 1),
    }
    assert list(space.slices) == sorted(space.slices)
    assert space.index[(0, 1, 0)] == space.slices.index((0, 1, 0))


def test_slice_space_size_equals_reduced_count(hard_square2, hard_square3, coloring3_d2):
    for model, n in [
        (hard_square2, 4),
        (hard_square2, 7),
        (hard_square3, 3),
        (coloring3_d2, 3),
    ]:
        space = build_slice_space(model, n)
        assert len(space) == count_patterns_dfs(drop_last_axis(model), n)


def test_slice_space_full_shift():
    model = full_shift(2, 2)
    assert len(build_slice_space(model, 4)) == 2 ** 4


def test_slice_space_requires_d2(hard_square1):
    with pytest.raises(ValueError):
        build_slice_space(hard_square1, 3)


def test_transitions_hard_square_n2(hard_square2):
    space = build_slice_space(hard_square2, 2)
    trans = build_transitions(space)
    by_slice = {
        space.slices[i]: {space.slices[j] for j in row}
        for i, row in enumerate(trans.neighbors)
    }
    assert by_slice[(0, 0)] == {(0, 0), (0, 1), (1, 0)}
    assert by_slice[(0, 1)] == {(0, 0), (1, 0)}
    assert by_slice[(1, 0)] == {(0, 0), (0, 1)}


def test_transitions_symmetric(hard_square2, coloring3_d2):
    for model, n in [(hard_square2, 3), (coloring3_d2, 2)]:
        trans = build_transitions(build_slice_space(model, n))
        for i, row in enumerate(trans.neighbors):
            for j in row:
                assert i in trans.neighbors[j]


def test_transitions_budget(hard_square2):
    space = build_slice_space(hard_square2, 6)
    with pytest.raises(BudgetExceededError):
        build_transitions(space, edge_budget=10)


def forbid_last_axis_model(q=2):
    import itertools

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
    ]
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


def asymmetric_models():
    """Directly built models whose last-axis relation is not symmetric."""
    two = Alphabet(("0", "1"))
    three = Alphabet(("a", "b", "c"))
    return [
        # no 0 directly below a 1 along the last axis; hard-square along axis 1
        SftModel(2, two, (frozenset({(1, 1)}), frozenset({(0, 1)}))),
        # cyclic order a -> b -> c forbidden along the last axis only
        SftModel(2, three, (frozenset(), frozenset({(0, 1), (1, 2), (2, 0)}))),
        # asymmetric along both axes
        SftModel(2, three, (frozenset({(0, 2)}), frozenset({(1, 0), (2, 2)}))),
    ]


def test_transfer_asymmetric_last_axis():
    for model in asymmetric_models():
        last = model.forbidden[-1]
        assert any((b, a) not in last for a, b in last)
        q = model.num_symbols
        for n in range(1, 5 if q == 2 else 4):
            assert count_via_transfer(model, n) == count_patterns_dfs(model, n)
        for n in range(1, 9):
            assert count_via_transfer(model, n) == full_walk_count(model, n)


def test_transfer_d1_delegates(hard_square1):
    for n in range(1, 8):
        assert count_via_transfer(hard_square1, n) == count_patterns_dfs(
            hard_square1, n
        )


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

    spy("count_patterns_dfs")
    spy("count_via_transfer")
    assert count_patterns(hard_square1, 4) == count_patterns_dfs(hard_square1, 4)
    assert count_patterns(hard_square2, 3) == 63
    assert count_patterns(hard_square3, 2) == 35
    assert used == [
        ("count_patterns_dfs", 1),
        ("count_via_transfer", 2),
        ("count_via_transfer", 3),
    ]
