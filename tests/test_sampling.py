import random

import pytest

import sftbounds.enumeration as enumeration
import sftbounds.sampling as sampling
from sftbounds import (
    CubePattern,
    SamplingError,
    SurfaceState,
    builtin_model,
    is_locally_admissible,
    sample_admissible,
    sample_same_state_group,
    sample_with_state,
    surface_state,
)
from sftbounds.enumeration import count_by_state
from sftbounds.sampling import check_glued_samples

import search_reference
from conftest import forbid_axis_model, split_axes_model


@pytest.mark.parametrize(
    "name, d, q, n",
    [
        ("hard-square", 2, None, 2),
        ("hard-square", 2, None, 3),
        ("coloring", 2, 3, 2),
        ("hard-square", 3, None, 2),
    ],
)
def test_groups_reach_every_realized_state(name, d, q, n):
    model = builtin_model(name, d, q)
    states = set(count_by_state(model, n))
    rng = random.Random(2024)
    seen = set()
    for _ in range(1000):
        group = sample_same_state_group(model, n, 1 << d, rng)
        anchor = surface_state(group[0])
        for p in group:
            assert is_locally_admissible(model, p)
            assert surface_state(p) == anchor
        seen.add(anchor)
        if seen == states:
            break
    assert seen == states


def test_groups_need_no_enumeration(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("sampling enumerated the side-n patterns")

    monkeypatch.setattr(enumeration, "_admissible_assignments", refuse)
    model = builtin_model("hard-square", 3)
    rng = random.Random(7)
    for _ in range(3):
        group = sample_same_state_group(model, 3, 8, rng)
        assert len({surface_state(p) for p in group}) == 1


@pytest.mark.parametrize("d, n", [(2, 3), (3, 2)])
def test_completion_takes_one_leaf(monkeypatch, d, n):
    leaves = 0

    def counting(*args, **kwargs):
        nonlocal leaves
        for buf in enumeration._search(*args, **kwargs):
            leaves += 1
            yield buf

    monkeypatch.setattr(sampling, "_search", counting)
    model = builtin_model("hard-square", d)
    group = sample_same_state_group(model, n, 1 << d, random.Random(5))
    assert len(group) == 1 << d
    assert leaves == 1 << d


@pytest.mark.parametrize(
    "name, d, q, n",
    [("hard-square", 2, None, 3), ("hard-square", 3, None, 2), ("coloring", 2, 3, 3)],
)
def test_group_is_an_anchor_then_pinned_completions(name, d, q, n):
    # the group's draws are those of its parts, in the same order on one
    # stream: an anchor, then 2^d - 1 completions pinned to its state
    model = builtin_model(name, d, q)
    for seed in (1, 11, 42, 2024):
        group = sample_same_state_group(model, n, 1 << d, random.Random(seed))
        rng = random.Random(seed)
        anchor = sample_admissible(model, n, rng)
        state = surface_state(anchor)
        expected = [anchor] + [sample_with_state(model, state, rng) for _ in range(1, 1 << d)]
        assert group == expected


@pytest.mark.parametrize("state_d, model_d", [(1, 2), (2, 3), (1, 3), (3, 2)])
def test_state_of_another_dimension_is_refused_before_the_search(monkeypatch, state_d, model_d):
    def refuse(*args, **kwargs):
        raise AssertionError("searched for a state of another dimension")

    monkeypatch.setattr(sampling, "_search", refuse)
    n = 2
    state = SurfaceState(n, state_d, (0,) * (n ** state_d - (n - 1) ** state_d))
    model = builtin_model("hard-square", model_d)
    with pytest.raises(ValueError, match=f"state dimension {state_d} does not match model dimension {model_d}"):
        sample_with_state(model, state, random.Random(0))


DRAW_CASES = [
    *(("hard-square", d, None, n) for d in (1, 2) for n in range(1, 6)),
    *(("hard-square", 3, None, n) for n in range(1, 4)),
    *(("coloring", 2, 3, n) for n in range(1, 6)),
    *(("split-axes", 3, None, n) for n in range(1, 4)),
]


def draw_model(name, d, q):
    return split_axes_model() if name == "split-axes" else builtin_model(name, d, q)


@pytest.mark.parametrize("name, d, q, n", DRAW_CASES)
def test_draws_match_the_reference_search(name, d, q, n):
    # every draw, and the stream after it, is the old search's: the
    # schedule tries the same values in the same shuffled orders
    model = draw_model(name, d, q)
    budget = sampling.DEFAULT_ATTEMPT_BUDGET
    for seed in (1, 7, 42, 2024):
        rng, ref = random.Random(seed), random.Random(seed)
        for _ in range(3):
            anchor = sample_admissible(model, n, rng)
            assert anchor == search_reference.sample_admissible(model, n, ref, budget)
            assert rng.getstate() == ref.getstate()
            state = surface_state(anchor)
            for _ in range(3):
                p = sample_with_state(model, state, rng)
                assert p == search_reference.sample_with_state(model, state, ref, budget)
                assert rng.getstate() == ref.getstate()
            group = sample_same_state_group(model, n, 1 << model.dimension, rng)
            assert group == search_reference.sample_same_state_group(
                model, n, 1 << model.dimension, ref, budget)
            assert rng.getstate() == ref.getstate()


@pytest.mark.parametrize("name, d, q, n", DRAW_CASES)
def test_budget_refusals_match_the_reference_search(monkeypatch, name, d, q, n):
    # each budget below the smallest that completes a group refuses it in
    # both searches, after the same draws from the stream
    model = draw_model(name, d, q)
    count = 1 << model.dimension
    for seed in (3, 11):
        for budget in range(10_000):
            monkeypatch.setattr(sampling, "DEFAULT_ATTEMPT_BUDGET", budget)
            rng, ref = random.Random(seed), random.Random(seed)
            try:
                group = sample_same_state_group(model, n, count, rng)
            except SamplingError:
                group = None
            try:
                expected = search_reference.sample_same_state_group(model, n, count, ref, budget)
            except SamplingError:
                expected = None
            assert group == expected
            assert rng.getstate() == ref.getstate()
            if group is not None:
                break
        assert group is not None and budget >= n ** model.dimension


def test_a_state_no_pattern_has_is_named():
    model = builtin_model("hard-square", 2)
    # shell cells 2 and 5 are vertical neighbors, both 1
    state = SurfaceState(3, 2, (1, 1, 0, 0, 0))
    with pytest.raises(SamplingError, match="^no side-3 pattern has the requested boundary state$"):
        sample_with_state(model, state, random.Random(0))
    with pytest.raises(SamplingError, match="^model admits no side-2 pattern$"):
        sample_admissible(forbid_axis_model(2), 2, random.Random(0))
    with pytest.raises(SamplingError, match="^model admits no side-2 pattern$"):
        sample_same_state_group(forbid_axis_model(2), 2, 4, random.Random(0))


@pytest.mark.parametrize("name, d, q", [("hard-square", 1, None), ("hard-square", 3, None),
                                        ("coloring", 2, 3)])
def test_side_1_state_is_its_pattern(name, d, q):
    # the shell of a side-1 cube is its one cell: the draw is the state,
    # and it takes nothing from the stream
    model = builtin_model(name, d, q)
    rng = random.Random(9)
    before = rng.getstate()
    for v in range(model.num_symbols):
        p = sample_with_state(model, SurfaceState(1, d, (v,)), rng)
        assert p == CubePattern(1, d, (v,))
    assert rng.getstate() == before
    for seed in (1, 7, 42):
        rng, ref = random.Random(seed), random.Random(seed)
        group = sample_same_state_group(model, 1, 4, rng)
        assert len(set(group)) == 1
        assert group == search_reference.sample_same_state_group(
            model, 1, 4, ref, sampling.DEFAULT_ATTEMPT_BUDGET)
        assert rng.getstate() == ref.getstate()


@pytest.mark.parametrize("n", [1, 2])
@pytest.mark.parametrize("bad", [-1, 2])
def test_a_pin_outside_the_alphabet_is_refused_before_the_search(monkeypatch, n, bad):
    def refuse(*args, **kwargs):
        raise AssertionError("searched for a state outside the alphabet")

    monkeypatch.setattr(sampling, "_search", refuse)
    model = builtin_model("hard-square", 2)
    for at in range(2 * n - 1):
        cells = [0] * (2 * n - 1)
        cells[at] = bad
        state = SurfaceState(n, 2, tuple(cells))
        with pytest.raises(
            SamplingError, match=f"^no side-{n} pattern has the requested boundary state$"
        ):
            sample_with_state(model, state, random.Random(0))


def test_glued_samples_skip_ten_failed_draws_and_raise_the_eleventh(monkeypatch):
    real = sampling.sample_same_state_group
    calls, failing = [], set()

    def flaky(*args):
        calls.append(None)
        if len(calls) in failing:
            raise SamplingError(f"draw {len(calls)} fails")
        return real(*args)

    monkeypatch.setattr(sampling, "sample_same_state_group", flaky)
    model = builtin_model("hard-square", 2)
    failing = {1, 2, 3, 5, 8, 9, 10, 11, 12, 15}
    assert check_glued_samples(model, 3, 16, random.Random(1)) == (6, True)
    assert len(calls) == 16
    calls.clear()
    failing = set(range(2, 13))
    with pytest.raises(SamplingError, match="^draw 12 fails$"):
        check_glued_samples(model, 3, 20, random.Random(1))
    assert len(calls) == 12
    # a failed glue stops the loop, its group counted among the checked
    calls.clear()
    failing = {1, 4}
    glued = []

    def third_glue_fails(model, group):
        glued.append(group)
        return None, None, len(glued) != 3, True

    monkeypatch.setattr(sampling, "glue_and_check", third_glue_fails)
    assert check_glued_samples(model, 3, 10, random.Random(1)) == (3, False)
    assert len(calls) == 5
