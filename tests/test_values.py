"""Value semantics of the package's record classes: equality within one
class, hashing and immutability of the frozen ones, keyword construction,
validation messages, repr, cached properties and pickling."""

import pickle
from fractions import Fraction

import pytest

from sftbounds import (
    Alphabet,
    BoundsRow,
    ConvergenceReport,
    CubePattern,
    GlueError,
    GlueInput,
    ModelFormatError,
    SftModel,
    SurfaceState,
    builtin_model,
)
from sftbounds.bounds import RowChecks

HS2 = builtin_model("hard-square", 2)
ZERO = CubePattern(2, 2, (0, 0, 0, 0))


def frozen_instances():
    return [
        Alphabet(("0", "1")),
        builtin_model("hard-square", 2),
        CubePattern(2, 2, (0, 1, 0, 0)),
        SurfaceState(2, 2, (1, 0, 0)),
        GlueInput(HS2, (ZERO,) * 4),
    ]


def row(**checks):
    return BoundsRow(1, 2, 7, Fraction(4), 0.5, -0.5, 2.0, RowChecks(**checks))


def test_equal_frozen_instances_are_equal_and_hash_equal():
    for a, b in zip(frozen_instances(), frozen_instances()):
        assert a is not b
        assert a == b and not a != b
        assert hash(a) == hash(b)
    assert len(set(frozen_instances() + frozen_instances())) == 5


def test_unequal_fields_compare_unequal():
    assert CubePattern(2, 2, (0, 1, 0, 0)) != CubePattern(2, 2, (0, 0, 1, 0))
    assert SurfaceState(2, 2, (1, 0, 0)) != SurfaceState(2, 2, (0, 0, 0))
    assert builtin_model("hard-square", 2) != builtin_model("hard-square", 3)
    assert Alphabet(("0", "1")) != Alphabet(("1", "0"))


def test_equality_depends_on_the_class():
    assert CubePattern(1, 2, (0,)) != SurfaceState(1, 2, (0,))
    assert SurfaceState(1, 2, (0,)) != CubePattern(1, 2, (0,))
    assert CubePattern(1, 2, (0,)) != (1, 2, (0,))
    assert Alphabet(("0",)) != ("0",)


def test_frozen_fields_refuse_assignment_and_deletion():
    for value in frozen_instances():
        field = next(iter(vars(value)))
        with pytest.raises(AttributeError):
            setattr(value, field, None)
        with pytest.raises(AttributeError):
            delattr(value, field)
        with pytest.raises(AttributeError):
            value.extra = 1


def test_mutable_records_are_assignable_unhashable_and_compared_by_fields():
    a, b = row(power_mean=True), row(power_mean=True)
    assert a == b
    b.checks.doubling = False
    assert a != b
    b.upper = 0.25
    assert b.upper == 0.25
    report = ConvergenceReport(HS2, [a])
    report.rows.append(b)
    assert report == ConvergenceReport(HS2, [row(power_mean=True), b])
    for value in (a, a.checks, report):
        with pytest.raises(TypeError):
            hash(value)


def test_keyword_construction():
    alphabet = Alphabet(symbols=("0", "1"))
    model = SftModel(dimension=2, alphabet=alphabet, forbidden=HS2.forbidden)
    assert model == HS2
    assert CubePattern(n=2, d=2, values=(0,) * 4) == ZERO
    assert SurfaceState(n=2, d=2, cells=(0,) * 3) == SurfaceState(2, 2, (0,) * 3)
    assert GlueInput(model=HS2, patterns=(ZERO,) * 4).n == 2
    checks = RowChecks(key_inequality=True, power_mean=False, doubling=None)
    assert (checks.key_inequality, checks.power_mean, checks.doubling) == (
        True, False, None,
    )
    kw = BoundsRow(
        n=1, c_n=2, c_n_plus_1=7, q_value=Fraction(4), upper=0.5, lower=-0.5,
        gap_bound=2.0, checks=RowChecks(power_mean=True),
    )
    assert kw == row(power_mean=True)
    report = ConvergenceReport(model=HS2, rows=[kw])
    assert report.model == HS2 and report.rows == [kw]


def test_bounds_row_defaults_to_fresh_undecided_checks():
    a = BoundsRow(1, 2, 7, Fraction(4), 0.5, -0.5, 2.0)
    b = BoundsRow(1, 2, 7, Fraction(4), 0.5, -0.5, 2.0)
    assert a.checks == RowChecks(None, None, None)
    assert a.checks is not b.checks


def raised(exc_type, build):
    with pytest.raises(exc_type) as info:
        build()
    return str(info.value)


def test_model_validation_messages():
    ab = Alphabet(("a", "b"))
    pairs = frozenset({(0, 0)})
    assert raised(ModelFormatError, lambda: Alphabet(())) == (
        "alphabet must contain at least one symbol"
    )
    assert raised(ModelFormatError, lambda: Alphabet(("a", "a"))) == (
        "alphabet symbols must be distinct"
    )
    assert raised(ModelFormatError, lambda: SftModel(0, ab, ())) == (
        "dimension must be >= 1, got 0"
    )
    assert raised(ModelFormatError, lambda: SftModel(2, ab, (pairs,))) == (
        "expected 2 forbidden sets, got 1"
    )
    outside = frozenset({(0, 2), (2, 0)})
    assert raised(ModelFormatError, lambda: SftModel(1, ab, (outside,))) == (
        "forbidden pair (0, 2) on axis 1 is outside the alphabet"
    )
    one_way = frozenset({(0, 1)})
    assert raised(ModelFormatError, lambda: SftModel(2, ab, (pairs, one_way))) == (
        'forbidden sets are not symmetric: axis 2 has (a,b) without (b,a); '
        'set "symmetrize": true to request closure'
    )


def test_pattern_validation_messages():
    assert raised(ValueError, lambda: CubePattern(0, 2, ())) == (
        "need n >= 1 and d >= 1, got n=0, d=2"
    )
    assert raised(ValueError, lambda: CubePattern(2, 2, (0, 0, 0))) == (
        "expected 4 values for side 2 in dimension 2, got 3"
    )
    assert raised(ValueError, lambda: SurfaceState(2, 2, (0, 0))) == (
        "surface of a side-2 cube in dimension 2 has 3 cells, got 2"
    )


def test_glue_input_validation_messages():
    assert raised(GlueError, lambda: GlueInput(HS2, (ZERO,) * 3)) == (
        "need exactly 4 patterns in dimension 2, got 3"
    )
    small = CubePattern(1, 2, (0,))
    assert raised(GlueError, lambda: GlueInput(HS2, (ZERO,) * 3 + (small,))) == (
        "all patterns must share one side length"
    )
    line = CubePattern(2, 1, (0, 0))
    assert raised(GlueError, lambda: GlueInput(HS2, (line,) * 4)) == (
        "pattern dimension 1 does not match model dimension 2"
    )


def test_repr_lists_the_fields():
    assert repr(Alphabet(("0", "1"))) == "Alphabet(symbols=('0', '1'))"
    assert repr(builtin_model("hard-square", 1)) == (
        "SftModel(dimension=1, alphabet=Alphabet(symbols=('0', '1')), "
        "forbidden=(frozenset({(1, 1)}),))"
    )
    assert repr(CubePattern(1, 2, (0,))) == "CubePattern(n=1, d=2, values=(0,))"
    assert repr(SurfaceState(1, 2, (0,))) == "SurfaceState(n=1, d=2, cells=(0,))"
    one = builtin_model("hard-square", 1)
    assert repr(GlueInput(one, (CubePattern(1, 1, (0,)),) * 2)) == (
        f"GlueInput(model={one!r}, patterns=(CubePattern(n=1, d=1, values=(0,)), "
        "CubePattern(n=1, d=1, values=(0,))))"
    )
    assert repr(row(power_mean=True)) == (
        "BoundsRow(n=1, c_n=2, c_n_plus_1=7, q_value=Fraction(4, 1), upper=0.5, "
        "lower=-0.5, gap_bound=2.0, checks=RowChecks(key_inequality=None, "
        "power_mean=True, doubling=None))"
    )
    assert repr(ConvergenceReport(one, [])) == (
        f"ConvergenceReport(model={one!r}, rows=[])"
    )


def test_cached_properties_and_equality_after_caching():
    model = builtin_model("coloring", 2, 3)
    assert model.alphabet.id_of("c2") == 2
    assert model.allowed[0][1] == (True, False, True)
    assert model.allowed_masks == ((6, 5, 3), (6, 5, 3))
    assert model.values_for_mask[5] == (0, 2)
    assert model.allowed is model.allowed
    fresh = builtin_model("coloring", 2, 3)
    assert model == fresh and hash(model) == hash(fresh)


def test_pickle_round_trip():
    model = builtin_model("coloring", 2, 3)
    model.allowed_masks  # a cached value travels with the instance
    glue_input = GlueInput(HS2, (ZERO,) * 4)
    for value in (model, ZERO, glue_input, row(doubling=True)):
        back = pickle.loads(pickle.dumps(value))
        assert back == value and type(back) is type(value)
    back = pickle.loads(pickle.dumps(model))
    assert back.allowed_masks == model.allowed_masks
    assert back.alphabet.id_of("c1") == 1
    with pytest.raises(AttributeError):
        back.dimension = 3
    assert hash(pickle.loads(pickle.dumps(glue_input))) == hash(glue_input)
