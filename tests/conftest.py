import itertools
import json

import pytest

from sftbounds import Alphabet, SftModel, builtin_model, parse_model


@pytest.fixture(scope="session")
def hard_square2():
    return builtin_model("hard-square", 2)


@pytest.fixture(scope="session")
def hard_square3():
    return builtin_model("hard-square", 3)


@pytest.fixture(scope="session")
def hard_square1():
    return builtin_model("hard-square", 1)


@pytest.fixture(scope="session")
def coloring3_d2():
    return builtin_model("coloring", 2, 3)


def full_shift(q: int, d: int) -> SftModel:
    alphabet = Alphabet(tuple(str(i) for i in range(q)))
    return SftModel(d, alphabet, (frozenset(),) * d)


def forbid_axis_model(d: int = 2, q: int = 2) -> SftModel:
    """Every pair forbidden along axis 1: C_1 = q, C_n = 0 for n >= 2."""
    alphabet = Alphabet(tuple(str(i) for i in range(q)))
    all_pairs = frozenset(itertools.product(range(q), range(q)))
    return SftModel(d, alphabet, (all_pairs,) + (frozenset(),) * (d - 1))


def single_symbol_forced(d: int = 2) -> SftModel:
    """Symbol 1 forbidden next to anything: C_1 = 2, C_n = 1 for n >= 2."""
    alphabet = Alphabet(("0", "1"))
    pairs = frozenset({(0, 1), (1, 0), (1, 1)})
    return SftModel(d, alphabet, (pairs,) * d)


def reversal_closure(pairs) -> frozenset:
    """The smallest pair set holding ``pairs`` and closed under (a, b) -> (b, a)."""
    return frozenset(pairs) | {(b, a) for a, b in pairs}


# Relations that are not closed under pair reversal, as (dimension,
# alphabet, forbidden sets), each with the first unmatched pair the model
# error names: (external axis, a, b).
ASYMMETRIC_RELATIONS = [
    # no 0 directly below a 1 along the last axis; hard-square along axis 1
    ((2, ("0", "1"), ({(1, 1)}, {(0, 1)})), (2, "0", "1")),
    # cyclic order a -> b -> c forbidden along the last axis only
    ((2, ("a", "b", "c"), (set(), {(0, 1), (1, 2), (2, 0)})), (2, "a", "b")),
    # asymmetric along both axes
    ((2, ("a", "b", "c"), ({(0, 2)}, {(1, 0), (2, 2)})), (1, "a", "c")),
    # the 1-d 3-cycle
    ((1, ("a", "b", "c"), ({(0, 1), (1, 2), (2, 0)},)), (1, "a", "b")),
    # words 1...10...0 only: entropy 0, yet its rows would bracket h > 0
    ((1, ("0", "1"), ({(0, 1)},)), (1, "0", "1")),
]


def reversal_closed_model(d: int, symbols: tuple, forbidden: tuple) -> SftModel:
    """The model of a relation's reversal closure, axis by axis."""
    return SftModel(d, Alphabet(symbols), tuple(map(reversal_closure, forbidden)))


def brute_force_count(model: SftModel, n: int) -> int:
    """Test-local ground truth: scan every assignment with explicit loops.

    Deliberately independent of the package counters (pure itertools and
    direct pair checks on decoded coordinates).
    """
    d = model.dimension
    q = model.num_symbols
    cells = n ** d
    coords = list(itertools.product(range(n), repeat=d))
    index = {c: i for i, c in enumerate(coords)}
    adj = []
    for c in coords:
        for k in range(d):
            if c[k] + 1 < n:
                nb = list(c)
                nb[k] += 1
                adj.append((index[c], index[tuple(nb)], k))
    count = 0
    for assignment in itertools.product(range(q), repeat=cells):
        ok = True
        for i, j, k in adj:
            if (assignment[i], assignment[j]) in model.forbidden[k]:
                ok = False
                break
        if ok:
            count += 1
    return count


def split_axes_model():
    """d = 3 on three symbols whose slice axes forbid different pairs:
    axis 1 forbids a next to b, axis 2 b next to b and c next to c."""
    doc = {
        "dimension": 3,
        "alphabet": ["a", "b", "c"],
        "forbidden": [
            [["a", "b"], ["b", "a"]],
            [["b", "b"], ["c", "c"]],
            [["a", "a"]],
        ],
    }
    return parse_model(json.dumps(doc))
