import random

import pytest

import sftbounds.enumeration as enumeration
import sftbounds.sampling as sampling
from sftbounds import (
    SurfaceState,
    builtin_model,
    is_locally_admissible,
    sample_admissible,
    sample_same_state_group,
    sample_with_state,
    surface_state,
)
from sftbounds.enumeration import count_by_state


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
