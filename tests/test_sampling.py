import random

import pytest

import sftbounds.enumeration as enumeration
import sftbounds.sampling as sampling
from sftbounds import (
    builtin_model,
    is_locally_admissible,
    sample_same_state_group,
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
