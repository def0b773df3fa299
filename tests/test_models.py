import json
import re

import pytest
from hypothesis import given, strategies as st

from sftbounds import (
    Alphabet,
    ModelFormatError,
    SftModel,
    builtin_model,
    model_from_doc,
    model_to_doc,
    parse_model,
)

from conftest import ASYMMETRIC_RELATIONS, reversal_closed_model

HARD_SQUARE_DOC = {
    "dimension": 2,
    "alphabet": ["0", "1"],
    "forbidden": [[["1", "1"]], [["1", "1"]]],
}


def test_parse_hard_square_document():
    model = parse_model(json.dumps(HARD_SQUARE_DOC))
    assert model.dimension == 2
    assert model.alphabet.symbols == ("0", "1")
    assert model.forbidden == (frozenset({(1, 1)}),) * 2


def test_parse_three_coloring_document():
    doc = {
        "dimension": 3,
        "alphabet": ["a", "b", "c"],
        "forbidden": [[["a", "a"], ["b", "b"], ["c", "c"]]] * 3,
    }
    model = parse_model(json.dumps(doc))
    assert model.dimension == 3
    assert model.num_symbols == 3
    assert all(len(pairs) == 3 for pairs in model.forbidden)


def test_parse_unknown_symbol_rejected():
    doc = dict(HARD_SQUARE_DOC, forbidden=[[["1", "2"]], []])
    with pytest.raises(ModelFormatError, match="'2'"):
        parse_model(json.dumps(doc))


def test_parse_reports_syntax_position():
    with pytest.raises(ModelFormatError, match=r"line \d+ column \d+"):
        parse_model('{"dimension": 2,\n "alphabet": [}')


def test_parse_refuses_deep_nesting():
    # past the parser's recursion limit: a format error, not RecursionError
    with pytest.raises(ModelFormatError, match="nested too deeply"):
        parse_model("[" * 100_000)
    with pytest.raises(ModelFormatError, match="nested too deeply"):
        parse_model('{"dimension": ' + "[" * 100_000)


def test_parse_rejects_bad_dimension():
    with pytest.raises(ModelFormatError, match="dimension"):
        parse_model(json.dumps(dict(HARD_SQUARE_DOC, dimension=0)))


def test_parse_rejects_duplicate_symbols():
    doc = dict(HARD_SQUARE_DOC, alphabet=["0", "0"])
    with pytest.raises(ModelFormatError, match="distinct"):
        parse_model(json.dumps(doc))


def test_parse_rejects_axis_count_mismatch():
    doc = dict(HARD_SQUARE_DOC, forbidden=[[["1", "1"]]] * 3)
    with pytest.raises(ModelFormatError, match="axes"):
        parse_model(json.dumps(doc))


def test_parse_rejects_asymmetric_without_flag():
    doc = {
        "dimension": 1,
        "alphabet": ["0", "1"],
        "forbidden": [[["0", "1"]]],
    }
    with pytest.raises(ModelFormatError, match="symmetric"):
        parse_model(json.dumps(doc))
    model = parse_model(json.dumps(dict(doc, symmetrize=True)))
    assert model.forbidden[0] == frozenset({(0, 1), (1, 0)})


@pytest.mark.parametrize("flag", ["false", "true", 0, 1, None, [], {}])
def test_parse_rejects_non_boolean_symmetrize(flag):
    # a truthy string must not quietly close an asymmetric relation
    doc = {
        "dimension": 1,
        "alphabet": ["a", "b"],
        "forbidden": [[["a", "b"]]],
        "symmetrize": flag,
    }
    with pytest.raises(ModelFormatError, match="symmetrize must be true or false"):
        parse_model(json.dumps(doc))


def test_model_doc_roundtrip():
    model = builtin_model("coloring", 2, 3)
    again = parse_model(json.dumps(model_to_doc(model)))
    assert again == model


def is_reversal_closed(pairs) -> bool:
    return all((b, a) in pairs for a, b in pairs)


def test_model_rejects_asymmetric_forbidden_sets():
    for (d, symbols, forbidden), (axis, a, b) in ASYMMETRIC_RELATIONS:
        with pytest.raises(
            ModelFormatError,
            match=re.escape(f"axis {axis} has ({a},{b}) without ({b},{a})"),
        ):
            SftModel(d, Alphabet(symbols), tuple(map(frozenset, forbidden)))
        closed = reversal_closed_model(d, symbols, forbidden)
        assert all(is_reversal_closed(pairs) for pairs in closed.forbidden)
    # the message the CLI prints after "model error: "
    with pytest.raises(ModelFormatError) as info:
        SftModel(1, Alphabet(("0", "1")), (frozenset({(0, 1)}),))
    assert str(info.value) == (
        'forbidden sets are not symmetric: axis 1 has (0,1) without (1,0); '
        'set "symmetrize": true to request closure'
    )
    # every axis is range-checked first: axis 1 is asymmetric, axis 2 is out
    # of the alphabet
    with pytest.raises(ModelFormatError, match="outside the alphabet"):
        SftModel(2, Alphabet(("0", "1")), (frozenset({(0, 1)}), frozenset({(2, 2)})))


def test_symmetrize_document_examples():
    lopsided = {"dimension": 1, "alphabet": ["0", "1"], "forbidden": [[["0", "1"]]]}
    fixed = model_from_doc(dict(lopsided, symmetrize=True))
    assert fixed.forbidden[0] == frozenset({(0, 1), (1, 0)})
    assert model_from_doc(dict(model_to_doc(fixed), symmetrize=True)) == fixed
    free = {"dimension": 2, "alphabet": ["x"], "forbidden": [[], []]}
    assert model_from_doc(dict(free, symmetrize=True)) == model_from_doc(free)


@st.composite
def raw_documents(draw, max_d=3, max_q=3):
    """Documents with arbitrary (mostly asymmetric) forbidden pair lists."""
    d = draw(st.integers(1, max_d))
    q = draw(st.integers(1, max_q))
    names = [f"s{i}" for i in range(q)]
    forbidden = []
    for _ in range(d):
        pairs = draw(
            st.lists(
                st.tuples(st.integers(0, q - 1), st.integers(0, q - 1)),
                max_size=q * q,
            )
        )
        forbidden.append([[names[a], names[b]] for a, b in pairs])
    return {"dimension": d, "alphabet": names, "forbidden": forbidden}


@given(raw_documents())
def test_symmetrize_document_closes_and_roundtrips(doc):
    model = model_from_doc(dict(doc, symmetrize=True))
    syms = model.alphabet.symbols
    for raw, closed in zip(doc["forbidden"], model.forbidden):
        assert is_reversal_closed(closed)
        assert {(syms.index(a), syms.index(b)) for a, b in raw} <= closed
    assert parse_model(json.dumps(model_to_doc(model))) == model
    assert model_from_doc(dict(model_to_doc(model), symmetrize=True)) == model


def test_builtin_hard_square():
    model = builtin_model("hard-square", 2)
    assert model.num_symbols == 2
    assert all(pairs == frozenset({(1, 1)}) for pairs in model.forbidden)
    assert all(is_reversal_closed(pairs) for pairs in model.forbidden)


def test_builtin_coloring():
    model = builtin_model("coloring", 2, 3)
    assert model.num_symbols == 3
    assert all(len(pairs) == 3 for pairs in model.forbidden)
    assert all(is_reversal_closed(pairs) for pairs in model.forbidden)


def test_builtin_errors():
    with pytest.raises(ModelFormatError):
        builtin_model("wang-tiles", 2)
    with pytest.raises(ModelFormatError):
        builtin_model("coloring", 2, 0)
    with pytest.raises(ModelFormatError):
        builtin_model("coloring", 2)
    with pytest.raises(ModelFormatError, match="hard-square takes no parameter"):
        builtin_model("hard-square", 2, 7)


def test_builtin_single_color_forces_emptiness():
    from sftbounds.enumeration import count_patterns_dfs

    model = builtin_model("coloring", 1, 1)
    assert count_patterns_dfs(model, 2) == 0


def test_allowed_tables_complement_forbidden(hard_square2):
    allowed = hard_square2.allowed
    assert allowed[0][1][1] is False
    assert allowed[0][0][1] and allowed[0][1][0] and allowed[0][0][0]
    masks = hard_square2.allowed_masks
    assert masks[0][0] == 0b11
    assert masks[0][1] == 0b01


def test_symbol_classes_builtins():
    # coloring: every transposition preserves "equal colors are forbidden"
    for q in (1, 3, 5):
        assert builtin_model("coloring", 2, q).symbol_classes == (0,) * q
    # hard-square: swapping 0 and 1 moves the forbidden pair (1, 1)
    assert builtin_model("hard-square", 3).symbol_classes == (0, 1)
    assert builtin_model("hard-square", 1).symbol_classes == (0, 1)


def test_symbol_classes_need_every_axis():
    # axis 1 is the 3-coloring; axis 2 is broken by every transposition
    doc = {
        "dimension": 2,
        "alphabet": ["a", "b", "c"],
        "forbidden": [
            [["a", "a"], ["b", "b"], ["c", "c"]],
            [["a", "a"], ["a", "b"], ["b", "a"]],
        ],
    }
    assert parse_model(json.dumps(doc)).symbol_classes == (0, 1, 2)
    # with axis 2 dropped, all three are one class
    doc["dimension"] = 1
    doc["forbidden"] = doc["forbidden"][:1]
    assert parse_model(json.dumps(doc)).symbol_classes == (0, 0, 0)


@given(st.integers(1, 4), st.data())
def test_symbol_classes_are_the_preserving_transpositions(q, data):
    pair = st.tuples(st.integers(0, q - 1), st.integers(0, q - 1))
    forbidden = []
    for _ in range(2):
        base = data.draw(st.frozensets(pair, max_size=5))
        forbidden.append(base | {(b, a) for a, b in base})
    model = SftModel(2, Alphabet(tuple(map(str, range(q)))), tuple(forbidden))
    reps = model.symbol_classes
    for r in range(q):
        for s in range(q):
            swap = {r: s, s: r}
            preserved = all(
                {(swap.get(a, a), swap.get(b, b)) for a, b in pairs} == pairs
                for pairs in forbidden
            )
            assert preserved == (reps[r] == reps[s]), (forbidden, r, s)
    # each class's representative is its smallest symbol
    assert all(reps[s] <= s and reps[reps[s]] == reps[s] for s in range(q))
