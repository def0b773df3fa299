import itertools
import random

import pytest
from hypothesis import given, settings, strategies as st

from sftbounds import (
    CubePattern,
    GlueError,
    GlueInput,
    Side,
    builtin_model,
    count_patterns,
    glue,
    glue_single,
    is_locally_admissible,
    periodic_core,
    sample_same_state_group,
    surface_state,
    tiling_witness,
    verify_key_inequality,
)
import sftbounds.gluing as gluing
from sftbounds.enumeration import count_patterns_dfs, enumerate_patterns
from sftbounds.gluing import opposite_faces_equal
from sftbounds.patterns import surface_indices

from conftest import forbid_axis_model, full_shift
from paper_defs import compose_flips, encode, extend_to_plus_one, restrict, value_at


def naive_concat(patterns, n, d):
    """Side-by-side translation without flips (the upper-bound layout)."""
    side = 2 * n
    out = [0] * side ** d
    for t, p in enumerate(patterns):
        offs = [(n if (t >> k) & 1 else 0) for k in range(d)]
        for i, v in enumerate(p.values):
            rem = i
            coords = []
            for _ in range(d):
                rem, x = divmod(rem, n)
                coords.append(x)
            coords.reverse()
            gi = 0
            for k in range(d):
                gi = gi * side + coords[k] + offs[k]
            out[gi] = v
    return CubePattern(side, d, tuple(out))


def test_glue_all_zero(hard_square2):
    zero = CubePattern(2, 2, (0, 0, 0, 0))
    glued = glue(GlueInput(hard_square2, (zero,) * 4))
    assert glued.values == (0,) * 9
    assert is_locally_admissible(hard_square2, glued)


def test_glue_antidiagonal_example(hard_square2):
    p = CubePattern(2, 2, (0, 1, 1, 0))
    glued = glue(GlueInput(hard_square2, (p,) * 4))
    assert glued.n == 3
    assert is_locally_admissible(hard_square2, glued)
    assert restrict(glued, 2) == p


def test_glue_block_layout():
    # large free alphabet: pick four distinct-interior patterns with one state
    model = full_shift(9, 2)
    base = (0, 1, 2, 3)  # cells (0,0),(0,1),(1,0),(1,1); state = (1,2,3)
    pats = tuple(CubePattern(2, 2, (interior,) + base[1:]) for interior in (4, 5, 6, 7))
    glued = glue(GlueInput(model, pats))
    # block 0 occupies [0,1]^2 unflipped
    assert restrict(glued, 2) == pats[0]
    # block 1 is flipped along axis 1 and shifted there: interior lands at (2,0)
    assert value_at(glued, (2, 0)) == 5
    # block 2 flipped along axis 2: interior at (0,2)
    assert value_at(glued, (0, 2)) == 6
    # block 3 flipped along both axes: interior at (2,2)
    assert value_at(glued, (2, 2)) == 7
    # shared faces carry the common state
    assert value_at(glued, (1, 0)) == 2
    assert value_at(glued, (1, 2)) == 2
    assert value_at(glued, (0, 1)) == 1
    assert value_at(glued, (2, 1)) == 1
    assert value_at(glued, (1, 1)) == 3


def glue_by_flips(patterns, n, d):
    """The union of the flipped blocks, cell by cell: block t is
    ``compose_flips(p_t, t)`` shifted by n-1 along every axis t flips.

    Visits block by block, each in its pattern's own cell order (cell y
    of p_t is cell y' of the flipped block, y'_k = n-1-y_k on each axis t
    flips).  Returns the union, each cell's value from the first block
    that covers it, and the linear index in the side-(2n-1) cube of the
    first cell where a later block disagrees with it, or None."""
    out, conflict = {}, None
    for t, p in enumerate(patterns):
        block = compose_flips(p, t)
        for y in itertools.product(range(n), repeat=d):
            flipped = tuple(n - 1 - y[k] if t >> k & 1 else y[k] for k in range(d))
            x = tuple(flipped[k] + (n - 1) * (t >> k & 1) for k in range(d))
            v = value_at(block, flipped)
            if out.setdefault(x, v) != v and conflict is None:
                conflict = encode(x, 2 * n - 1)
    return out, conflict


def shell_sharing_blocks(d, n, rng, q, noise):
    """2^d side-n patterns with random interiors around one shell, each
    shell cell replaced by a random symbol with probability ``noise``."""
    shell = set(surface_indices(n, d))
    state = {i: rng.randrange(q) for i in shell}
    return tuple(
        CubePattern(n, d, tuple(
            state[i] if i in shell and rng.random() >= noise else rng.randrange(q)
            for i in range(n ** d)
        ))
        for _ in range(1 << d)
    )


@settings(max_examples=200, deadline=None)
@given(
    st.integers(1, 3), st.integers(1, 4), st.randoms(use_true_random=False),
    st.sampled_from([0, 0.02, 0.1, 0.5]),
)
def test_glue_matches_compose_flips_layout(d, n, rng, noise):
    # random interiors around shells that may differ, on a model that
    # admits all, with the state check let through as in
    # test_glue_asserts_overlap_agreement: glue raises exactly where the
    # reference layout finds its first disagreement, and otherwise
    # returns the reference union (also for the one-cell blocks of n = 1)
    model = full_shift(3, d)
    patterns = shell_sharing_blocks(d, n, rng, 3, noise)
    expected, conflict = glue_by_flips(patterns, n, d)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(gluing, "surface_state", lambda p: None)
        if conflict is not None:
            message = f"^blocks disagree on shared cell {conflict} despite equal states$"
            with pytest.raises(GlueError, match=message):
                glue(GlueInput(model, patterns))
            return
        glued = glue(GlueInput(model, patterns))
    assert glued.n == 2 * n - 1 and len(expected) == glued.n ** d
    assert glued.values == tuple(expected[x] for x in sorted(expected))


def test_glue_rejects_bad_inputs(hard_square2):
    zero = CubePattern(2, 2, (0, 0, 0, 0))
    bad_count = (zero,) * 3
    with pytest.raises(GlueError):
        GlueInput(hard_square2, bad_count)
    with pytest.raises(GlueError):
        GlueInput(hard_square2, (zero, zero, zero, CubePattern(3, 2, (0,) * 9)))
    inadmissible = CubePattern(2, 2, (1, 1, 0, 0))
    with pytest.raises(GlueError, match="admissible"):
        glue(GlueInput(hard_square2, (inadmissible,) * 4))
    other_state = CubePattern(2, 2, (0, 0, 0, 1))
    with pytest.raises(GlueError, match="state"):
        glue(GlueInput(hard_square2, (zero, zero, zero, other_state)))


def test_glue_same_state_exhaustive_n2(hard_square2):
    groups = {}
    for p in enumerate_patterns(hard_square2, 2):
        groups.setdefault(surface_state(p), []).append(p)
    for pool in groups.values():
        for combo in itertools.product(pool, repeat=4):
            glued = glue(GlueInput(hard_square2, combo))
            assert is_locally_admissible(hard_square2, glued)
            assert restrict(glued, 2) == combo[0]


@settings(max_examples=30, deadline=None)
@given(st.integers(0, 2 ** 31), st.integers(2, 3))
def test_glue_admissible_random_groups(seed, n):
    model = builtin_model("hard-square", 2)
    rng = random.Random(seed)
    group = sample_same_state_group(model, n, 4, rng)
    glued = glue(GlueInput(model, tuple(group)))
    assert is_locally_admissible(model, glued)
    assert restrict(glued, n) == group[0]


def test_glue_d1_degenerate(hard_square1):
    p = CubePattern(2, 1, (1, 0))
    glued = glue(GlueInput(hard_square1, (p, p)))
    assert glued.n == 3
    assert is_locally_admissible(hard_square1, glued)
    assert opposite_faces_equal(glued, 1)


def test_glue_d3(hard_square3):
    rng = random.Random(5)
    group = sample_same_state_group(hard_square3, 2, 8, rng)
    glued = glue(GlueInput(hard_square3, tuple(group)))
    assert glued.n == 3
    assert is_locally_admissible(hard_square3, glued)


def test_face_coincidence_single_input(hard_square2):
    for p in enumerate_patterns(hard_square2, 2):
        glued = glue_single(hard_square2, p)
        for axis in (1, 2):
            assert opposite_faces_equal(glued, axis)


def test_periodic_core_all_zero(hard_square2):
    zero = CubePattern(2, 2, (0,) * 4)
    core = periodic_core(hard_square2, glue_single(hard_square2, zero))
    assert core.values == (0,) * 4


def test_periodic_core_wrap_and_tiling(hard_square2):
    rng = random.Random(99)
    for _ in range(25):
        group = sample_same_state_group(hard_square2, 3, 1, rng)
        glued = glue_single(hard_square2, group[0])
        core = periodic_core(hard_square2, glued)
        assert core.n == 4
        witness = tiling_witness(hard_square2, core)
        assert witness.n == 8
        assert is_locally_admissible(hard_square2, witness)


def witness_by_value_at(core):
    """The tiling witness cell by cell, each read back through value_at."""
    m, d = core.n, core.d
    values = tuple(
        value_at(core, tuple(x % m for x in coords))
        for coords in itertools.product(range(2 * m), repeat=d)
    )
    return CubePattern(2 * m, d, values)


def test_tiling_witness_matches_value_at(hard_square2, hard_square3):
    rng = random.Random(5)
    for model, n, draws in [(hard_square2, 3, 50), (hard_square3, 3, 5)]:
        for _ in range(draws):
            group = sample_same_state_group(model, n, 1, rng)
            core = periodic_core(model, glue_single(model, group[0]))
            assert tiling_witness(model, core) == witness_by_value_at(core)


def test_periodic_core_needs_odd_side(hard_square2):
    with pytest.raises(GlueError):
        periodic_core(hard_square2, CubePattern(4, 2, (0,) * 16))


def test_periodic_core_rejects_unequal_faces(hard_square1):
    with pytest.raises(GlueError, match="faces differ along axis 1"):
        periodic_core(hard_square1, CubePattern(3, 1, (0, 0, 1)))


def test_periodic_core_rejects_wrap_violation(hard_square1):
    # equal end cells, but 1 next to 1 across the wrap
    with pytest.raises(GlueError, match="not wrap-admissible along axis 1"):
        periodic_core(hard_square1, CubePattern(3, 1, (1, 1, 1)))


@pytest.mark.parametrize("model_d, pattern_d", [(1, 2), (2, 1), (3, 2)])
def test_core_and_witness_refuse_a_pattern_of_another_dimension(
    monkeypatch, model_d, pattern_d
):
    # refused before any gather cached per (n, d) is read
    def unread(*args):
        raise AssertionError("a gather was read before the dimension check")

    monkeypatch.setattr(gluing, "_faces", unread)
    monkeypatch.setattr(gluing, "_tiling", unread)
    model = builtin_model("hard-square", model_d)
    message = f"^pattern dimension {pattern_d} does not match model dimension {model_d}$"
    with pytest.raises(GlueError, match=message):
        periodic_core(model, CubePattern(3, pattern_d, (0,) * 3 ** pattern_d))
    with pytest.raises(GlueError, match=message):
        tiling_witness(model, CubePattern(2, pattern_d, (0,) * 2 ** pattern_d))


def test_glue_asserts_overlap_agreement(monkeypatch, hard_square2):
    # a state check that lets everything through: the cell-by-cell overlap
    # assertion is what catches two blocks with different shells
    monkeypatch.setattr(gluing, "surface_state", lambda p: None)
    zero = CubePattern(2, 2, (0, 0, 0, 0))
    other_shell = CubePattern(2, 2, (0, 0, 0, 1))
    with pytest.raises(GlueError, match="blocks disagree on shared cell"):
        glue(GlueInput(hard_square2, (zero, zero, zero, other_shell)))


def test_extend_examples(hard_square2):
    zero = CubePattern(2, 2, (0,) * 4)
    assert extend_to_plus_one(hard_square2, zero).values == (0,) * 9
    p = CubePattern(2, 2, (1, 0, 0, 1))
    ext = extend_to_plus_one(hard_square2, p)
    assert ext.n == 3
    assert is_locally_admissible(hard_square2, ext)
    assert restrict(ext, 2) == p


def test_extend_requires_side_two(hard_square2):
    with pytest.raises(GlueError):
        extend_to_plus_one(hard_square2, CubePattern(1, 2, (0,)))


def test_extend_injective_exhaustive(hard_square2):
    images = set()
    all3 = {p.values for p in enumerate_patterns(hard_square2, 3)}
    for p in enumerate_patterns(hard_square2, 2):
        ext = extend_to_plus_one(hard_square2, p)
        assert ext.values in all3
        images.add(ext.values)
    assert len(images) == 7


def test_extension_implies_monotone_counts(hard_square2, coloring3_d2):
    for model in (hard_square2, coloring3_d2):
        for n in (2, 3):
            assert count_patterns_dfs(model, n) <= count_patterns_dfs(model, n + 1)


def test_key_inequality_hard_square(hard_square2):
    c_3 = count_patterns(hard_square2, 3)
    assert verify_key_inequality(Side(hard_square2, 2), c_3, 7) == (35, True)
    assert c_3 == 63


def test_key_inequality_full_shift_line_equality():
    model = full_shift(3, 1)
    lhs = count_patterns(model, 3)
    rhs, holds = verify_key_inequality(Side(model, 2), lhs, 9)
    assert holds
    assert lhs == rhs == 27


def test_key_inequality_table_must_sum_to_the_count(monkeypatch, hard_square2):
    # the table (full products) against C_n (canonical slices): a table
    # that misses a pattern raises in the check and in the report
    from sftbounds import build_report

    real = gluing.state_counts

    def short(side):
        table = real(side)
        table.popitem()
        return table

    monkeypatch.setattr(gluing, "state_counts", short)
    with pytest.raises(RuntimeError, match="side 2 does not sum to 7"):
        verify_key_inequality(Side(hard_square2, 2), 63, 7)
    with pytest.raises(RuntimeError, match="does not sum to"):
        build_report(hard_square2, 3)


def test_key_inequality_empty_model():
    model = forbid_axis_model()
    assert count_patterns(model, 3) == 0
    assert verify_key_inequality(Side(model, 2), 0, 0) == (0, True)


def test_concatenation_fails_where_glue_succeeds(hard_square2):
    # same state, but one pattern hides a 1 in the free corner cell
    p0 = CubePattern(3, 2, (0, 0, 1, 0, 0, 0, 0, 0, 0))
    p1 = CubePattern(3, 2, (1, 0, 1, 0, 0, 0, 0, 0, 0))
    assert is_locally_admissible(hard_square2, p0)
    assert is_locally_admissible(hard_square2, p1)
    assert surface_state(p0) == surface_state(p1)
    stacked = naive_concat((p0, p0, p1, p0), 3, 2)
    assert not is_locally_admissible(hard_square2, stacked)
    glued = glue(GlueInput(hard_square2, (p0, p0, p1, p0)))
    assert is_locally_admissible(hard_square2, glued)
