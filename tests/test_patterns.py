import itertools

import pytest
from hypothesis import given, strategies as st

from sftbounds import (
    Alphabet,
    CubePattern,
    builtin_model,
    format_pattern,
    is_locally_admissible,
    surface_state,
)
from sftbounds.patterns import surface_indices

from paper_defs import compose_flips, decode, encode, flip, from_nested, restrict, value_at


def parse_pattern(text: str, alphabet: Alphabet) -> CubePattern:
    """Inverse of ``format_pattern``."""
    tokens = text.split()
    if len(tokens) < 2:
        raise ValueError("pattern text needs a 'd n' header")
    d, n = int(tokens[0]), int(tokens[1])
    names = tokens[2:]
    if len(names) != n ** d:
        raise ValueError(f"expected {n ** d} cells, got {len(names)}")
    return CubePattern(n, d, tuple(alphabet.id_of(s) for s in names))


def all_admissible(model, n):
    """Exhaustive admissible patterns via the public full-scan check."""
    d = model.dimension
    out = []
    for values in itertools.product(range(model.num_symbols), repeat=n ** d):
        p = CubePattern(n, d, values)
        if is_locally_admissible(model, p):
            out.append(p)
    return out


@given(
    st.integers(1, 4),
    st.integers(1, 3),
    st.data(),
)
def test_linear_index_roundtrip(n, d, data):
    coords = tuple(data.draw(st.integers(0, n - 1)) for _ in range(d))
    assert decode(encode(coords, n), n, d) == coords


def test_index_layout_row_major():
    # axis 1 is outermost: cell (x1, x2) sits at x1 * n + x2
    assert encode((1, 2), 3) == 5
    assert encode((2, 0, 1), 3) == 19


def test_admissibility_examples():
    hs = builtin_model("hard-square", 2)
    assert is_locally_admissible(hs, CubePattern(2, 2, (0, 0, 0, 0)))
    assert not is_locally_admissible(hs, CubePattern(2, 2, (1, 1, 0, 0)))
    assert is_locally_admissible(hs, CubePattern(2, 2, (1, 0, 0, 1)))


def test_admissibility_diagonal_in_exhaustive_set():
    hs = builtin_model("hard-square", 2)
    patterns = {p.values for p in all_admissible(hs, 2)}
    assert len(patterns) == 7
    assert (1, 0, 0, 1) in patterns
    assert (0, 1, 1, 0) in patterns


def test_admissibility_dimension_mismatch():
    hs = builtin_model("hard-square", 2)
    with pytest.raises(ValueError, match="dimension"):
        is_locally_admissible(hs, CubePattern(2, 3, (0,) * 8))


def test_flip_axis_semantics():
    # values a..d at cells (0,0),(0,1),(1,0),(1,1)
    p = CubePattern(2, 2, (0, 1, 2, 3))
    along_1 = flip(p, 1)  # x1 -> n-1-x1 swaps the outer coordinate
    assert along_1.values == (2, 3, 0, 1)
    along_2 = flip(p, 2)
    assert along_2.values == (1, 0, 3, 2)


def test_flip_boundary_row_reverses():
    # a 1-d view of the column reversal on the far face
    p = CubePattern(3, 2, tuple(range(9)))
    v = flip(p, 2)
    assert [value_at(v, (0, j)) for j in range(3)] == [2, 1, 0]


def test_flip_axis_out_of_range():
    p = CubePattern(2, 2, (0, 0, 0, 0))
    with pytest.raises(ValueError):
        flip(p, 0)
    with pytest.raises(ValueError):
        flip(p, 3)


@st.composite
def patterns(draw, max_n=4, max_d=3, max_q=3):
    d = draw(st.integers(1, max_d))
    n = draw(st.integers(1, max_n if d < 3 else 3))
    vals = draw(
        st.tuples(*[st.integers(0, max_q - 1) for _ in range(n ** d)])
    )
    return CubePattern(n, d, vals)


@given(patterns(), st.data())
def test_flip_involution(p, data):
    k = data.draw(st.integers(1, p.d))
    assert flip(flip(p, k), k) == p


@given(patterns(max_d=3), st.data())
def test_flip_commutativity(p, data):
    if p.d < 2:
        return
    k = data.draw(st.integers(1, p.d))
    l = data.draw(st.integers(1, p.d).filter(lambda x: x != k))
    assert flip(flip(p, k), l) == flip(flip(p, l), k)


def test_flip_preserves_admissibility_exhaustive():
    hs = builtin_model("hard-square", 2)
    for p in all_admissible(hs, 2):
        for k in (1, 2):
            assert is_locally_admissible(hs, flip(p, k))


def test_flip_preserves_admissibility_sampled():
    import random

    from sftbounds import sample_admissible

    hs = builtin_model("hard-square", 2)
    rng = random.Random(3)
    for _ in range(50):
        p = sample_admissible(hs, 4, rng)
        for k in (1, 2):
            assert is_locally_admissible(hs, flip(p, k))


def test_compose_flips_identity_and_constant():
    p = CubePattern(2, 2, (0, 1, 2, 3))
    assert compose_flips(p, 0) == p
    const = CubePattern(3, 2, (1,) * 9)
    assert compose_flips(const, 3) == const


@given(patterns(max_d=2, max_n=3))
def test_compose_flips_order_irrelevant(p):
    if p.d != 2:
        return
    both = compose_flips(p, 3)
    assert both == flip(flip(p, 1), 2)
    assert both == flip(flip(p, 2), 1)


def test_compose_flips_range():
    p = CubePattern(2, 2, (0, 0, 0, 0))
    with pytest.raises(ValueError):
        compose_flips(p, 4)
    with pytest.raises(ValueError):
        compose_flips(p, -1)


def test_surface_state_n1_is_whole_cell():
    p = CubePattern(1, 3, (5,))
    s = surface_state(p)
    assert s.cells == (5,)


def test_surface_state_shared_example():
    # 0001 and 1001 agree on the three boundary cells of the 2x2 square
    a = CubePattern(2, 2, (0, 0, 0, 1))
    b = CubePattern(2, 2, (1, 0, 0, 1))
    assert surface_state(a) == surface_state(b)
    assert surface_state(a).cells == (0, 0, 1)


def test_surface_cell_counts():
    assert len(surface_indices(4, 2)) == 4 ** 2 - 3 ** 2
    assert len(surface_indices(5, 2)) == 2 * 4 + 1
    assert len(surface_indices(3, 3)) == 27 - 8
    # the slice shell of a 1-d cube: its one cell has no coordinate
    assert surface_indices(3, 0) == ()


@given(patterns())
def test_surface_state_matches_boundary(p):
    s = surface_state(p)
    n, d = p.n, p.d
    expect = [
        p.values[i]
        for i in range(n ** d)
        if max(decode(i, n, d)) == n - 1
    ]
    assert list(s.cells) == expect


def test_restrict_identity_and_values():
    p = CubePattern(3, 2, tuple(range(9)))
    assert restrict(p, 3) == p
    sub = restrict(p, 2)
    assert sub.values == (0, 1, 3, 4)
    cube = CubePattern(3, 3, tuple(range(27)))
    assert restrict(cube, 2).values == (0, 1, 3, 4, 9, 10, 12, 13)
    assert restrict(cube, 1).values == (0,)
    with pytest.raises(ValueError):
        restrict(p, 0)
    with pytest.raises(ValueError):
        restrict(p, 4)


def test_restrict_preserves_admissibility():
    hs = builtin_model("hard-square", 2)
    for p in all_admissible(hs, 3):
        assert is_locally_admissible(hs, restrict(p, 2))


def test_pattern_text_roundtrip():
    hs = builtin_model("hard-square", 2)
    p = CubePattern(2, 2, (1, 0, 0, 1))
    text = format_pattern(p, hs.alphabet)
    assert text.splitlines()[0] == "2 2"
    assert parse_pattern(text, hs.alphabet) == p


def test_pattern_constructor_validation():
    with pytest.raises(ValueError):
        CubePattern(2, 2, (0, 0, 0))
    with pytest.raises(ValueError):
        CubePattern(0, 2, ())


def test_from_nested():
    p = from_nested([[0, 1], [2, 3]])
    assert p.values == (0, 1, 2, 3)
    assert value_at(p, (1, 0)) == 2
