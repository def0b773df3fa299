import json

import pytest
from hypothesis import given, strategies as st

from sftbounds import (
    Alphabet,
    ModelFormatError,
    SftModel,
    builtin_model,
    model_to_doc,
    parse_model,
    symmetrize,
    validate_symmetry,
)

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


def test_validate_symmetry_cases(hard_square2, coloring3_d2):
    assert validate_symmetry(hard_square2) == []
    assert validate_symmetry(coloring3_d2) == []
    lopsided = SftModel(1, Alphabet(("0", "1")), (frozenset({(0, 1)}),))
    assert validate_symmetry(lopsided) == [(1, "0", "1")]


def test_symmetrize_examples():
    lopsided = SftModel(1, Alphabet(("0", "1")), (frozenset({(0, 1)}),))
    fixed = symmetrize(lopsided)
    assert fixed.forbidden[0] == frozenset({(0, 1), (1, 0)})
    assert symmetrize(fixed) == fixed
    free = SftModel(2, Alphabet(("x",)), (frozenset(), frozenset()))
    assert symmetrize(free) == free


@st.composite
def random_models(draw, max_d=3, max_q=3):
    d = draw(st.integers(1, max_d))
    q = draw(st.integers(1, max_q))
    alphabet = Alphabet(tuple(f"s{i}" for i in range(q)))
    forbidden = []
    for _ in range(d):
        pairs = draw(
            st.frozensets(
                st.tuples(st.integers(0, q - 1), st.integers(0, q - 1)),
                max_size=q * q,
            )
        )
        forbidden.append(pairs)
    return SftModel(d, alphabet, tuple(forbidden))


@given(random_models())
def test_symmetrize_idempotent_and_clean(model):
    closed = symmetrize(model)
    assert validate_symmetry(closed) == []
    assert symmetrize(closed) == closed
    for raw, fix in zip(model.forbidden, closed.forbidden):
        assert raw <= fix


def test_builtin_hard_square():
    model = builtin_model("hard-square", 2)
    assert model.num_symbols == 2
    assert all(pairs == frozenset({(1, 1)}) for pairs in model.forbidden)
    assert validate_symmetry(model) == []


def test_builtin_coloring():
    model = builtin_model("coloring", 2, 3)
    assert model.num_symbols == 3
    assert all(len(pairs) == 3 for pairs in model.forbidden)
    assert validate_symmetry(model) == []


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
