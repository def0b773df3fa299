import json
import math
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from sftbounds import (
    build_report,
    builtin_model,
    count_patterns,
    entropy_bounds,
    q_poly,
    report_to_csv,
    report_to_json_dict,
    verify_doubling_monotonicity,
    verify_power_mean_bound,
    verify_qd_recurrence,
)
from sftbounds.bounds import log_count, side_checks
from sftbounds.transfer import Side

from conftest import forbid_axis_model, full_shift, single_symbol_forced
from paper_defs import leading_gap_coefficient

NEG_INF = float("-inf")


def check_counts(model, n):
    """(C_{n+1}, C_{2n+1}), the counts both doubling-step checks read."""
    return count_patterns(model, n + 1), count_patterns(model, 2 * n + 1)


def test_q_poly_plane_is_linear():
    for n in range(0, 20):
        assert q_poly(2, n) == 3 * n + 1
    assert q_poly(2, 3) == 10


def q_poly_by_terms(d, n):
    """q_d(n) as the sum of its d Fraction terms, the paper's form."""
    total = Fraction(0)
    for k in range(d):
        total += Fraction(math.comb(d, k), 2 ** d - 2 ** k) * n ** k
    return (2 ** d - 1) * total


def test_q_poly_matches_term_sum():
    for d in range(1, 10):
        for n in range(200):
            assert q_poly(d, n) == q_poly_by_terms(d, n), (d, n)


def test_q_poly_examples():
    assert q_poly(3, 1) == Fraction(39, 4)
    assert q_poly(3, 2) == 29
    for n in range(0, 10):
        assert q_poly(1, n) == 1


@given(st.integers(1, 6), st.integers(1, 40))
def test_qd_recurrence_property(d, n):
    assert verify_qd_recurrence(d, n)


def qd_recurrence_by_fractions(d, n):
    """The recurrence on the Fraction form of q_d: the oracle for the
    integer comparison of ``verify_qd_recurrence``."""
    lhs = q_poly_by_terms(d, 2 * n) + (2 ** d - 1) * ((n + 1) ** d - n ** d)
    return lhs == 2 ** d * q_poly_by_terms(d, n)


def test_qd_recurrence_matches_fraction_form():
    # the sweep that ``verify`` runs, and past it
    for d in range(1, 9):
        for n in range(1, 80):
            assert verify_qd_recurrence(d, n) == qd_recurrence_by_fractions(d, n)


def test_qd_recurrence_explicit_instances():
    # d=2, n=1: 7 + 3*3 = 16 = 4*4 ; d=3, n=1: 29 + 7*7 = 78 = 8*(39/4)
    assert q_poly(2, 2) + 3 * 3 == 4 * q_poly(2, 1) == 16
    assert q_poly(3, 2) + 7 * 7 == 8 * q_poly(3, 1) == 78
    assert verify_qd_recurrence(5, 17)


def finite_difference_leading(d):
    """Leading coefficient of q_d via (d-1)-th finite differences."""
    vals = [q_poly(d, n) for n in range(d + 1)]
    for _ in range(d - 1):
        vals = [b - a for a, b in zip(vals, vals[1:])]
    return vals[0] / math.factorial(d - 1)


def test_leading_gap_coefficient():
    assert leading_gap_coefficient(2) == 3
    assert leading_gap_coefficient(3) == Fraction(21, 4)
    assert leading_gap_coefficient(1) == 1
    for d in range(1, 7):
        assert leading_gap_coefficient(d) == d * (2 - Fraction(2, 2 ** d))
        assert leading_gap_coefficient(d) == finite_difference_leading(d)


def test_log_count_convention():
    assert log_count(0) == NEG_INF
    assert log_count(1) == 0.0
    assert math.isclose(log_count(7), math.log(7))
    with pytest.raises(ValueError):
        log_count(-1)


def test_log_count_huge_int_accuracy():
    c = 3 ** 4000 + 12345
    assert math.isclose(log_count(c), 4000 * math.log(3), rel_tol=1e-14)


def test_entropy_bounds_hard_square_rows(hard_square2):
    row2 = entropy_bounds(hard_square2, 2, 7, 63)
    assert math.isclose(row2.upper, math.log(7) / 4, abs_tol=1e-12)
    assert math.isclose(row2.lower, (math.log(63) - 7 * math.log(2)) / 4, abs_tol=1e-12)
    assert math.isclose(row2.upper, 0.486478, abs_tol=1e-5)
    assert math.isclose(row2.lower, -0.177224, abs_tol=1e-5)
    row1 = entropy_bounds(hard_square2, 1, 2, 7)
    assert math.isclose(row1.upper, math.log(2), abs_tol=1e-12)
    assert math.isclose(row1.lower, math.log(7) - 4 * math.log(2), abs_tol=1e-12)
    assert math.isclose(row1.lower, -0.826679, abs_tol=1e-5)


def test_entropy_bounds_zero_counts():
    model = forbid_axis_model()
    row = entropy_bounds(model, 2, 0, 0)
    assert row.upper == NEG_INF
    assert row.lower == NEG_INF
    assert row.gap_bound > 0


def test_plane_bracket_count_form(hard_square2):
    # d=2 bracket in count form: lower exponentiates back to C_{n+1}/S^(3n+1)
    n, c_n, c_n1 = 2, 7, 63
    row = entropy_bounds(hard_square2, n, c_n, c_n1)
    assert math.isclose(
        math.exp(row.lower * n ** 2) * 2 ** (3 * n + 1), c_n1, rel_tol=1e-9
    )
    assert math.isclose(math.exp(row.upper * n ** 2), c_n, rel_tol=1e-9)


def test_power_mean_examples(hard_square2):
    assert verify_power_mean_bound(hard_square2, 1, c_n1=7, c_2n1=63)
    assert 63 * 2 ** 9 == 32256
    assert 32256 >= 7 ** 4 == 2401
    model = full_shift(2, 1)
    assert verify_power_mean_bound(model, 1, *check_counts(model, 1))
    model = forbid_axis_model()
    assert verify_power_mean_bound(model, 1, *check_counts(model, 1))


def test_power_mean_full_shift_equality_operands():
    q, d, n = 3, 1, 1
    # S^3 * S^1 == (S^2)^2 exactly for the unconstrained line
    assert q ** 3 * q ** ((2 ** d - 1) * ((n + 1) ** d - n ** d)) == (q ** 2) ** 2


def test_doubling_hard_square(hard_square2):
    assert verify_doubling_monotonicity(hard_square2, 1, c_n1=7, c_2n1=63)
    v1 = math.log(7) - 4 * math.log(2)
    v2 = (math.log(63) - 7 * math.log(2)) / 4
    assert v2 >= v1


def test_doubling_full_shift():
    model = full_shift(2, 2)
    for n in (1, 2, 3):
        assert verify_doubling_monotonicity(model, n, *check_counts(model, n))


def test_doubling_single_symbol_forced():
    model = single_symbol_forced()
    for n in (1, 2, 3):
        assert verify_doubling_monotonicity(model, n, *check_counts(model, n))


def test_doubling_zero_counts_trivial():
    model = forbid_axis_model()
    assert verify_doubling_monotonicity(model, 1, *check_counts(model, 1))


def test_doubling_exact_on_instances_and_near_tie(hard_square2, coloring3_d2):
    for model, n in [(hard_square2, 1), (hard_square2, 2), (coloring3_d2, 1)]:
        assert verify_doubling_monotonicity(model, n, *check_counts(model, n))
    # hard-square n = 4 holds iff C_9 >= C_5^4 / 2^27 = 70421023089.37;
    # at the largest failing value the log-domain lower bounds differ by
    # about -8e-14, inside any tolerance a float comparison could use
    c5 = count_patterns(hard_square2, 5)
    assert c5 == 55447
    tie = 70421023089
    assert not verify_doubling_monotonicity(hard_square2, 4, c5, tie)
    assert verify_doubling_monotonicity(hard_square2, 4, c5, tie + 1)
    v_8 = (math.log(tie) - float(q_poly(2, 8)) * math.log(2)) / 8 ** 2
    v_4 = (math.log(c5) - float(q_poly(2, 4)) * math.log(2)) / 4 ** 2
    assert -1e-12 < v_8 - v_4 < 0


def doubling_by_exponents(model, n, c_n1, c_2n1):
    """Oracle: the doubling inequality compared as written, in integers.

    Both sides raised to the power n^d (2n)^d times the common denominator
    of the exponents, with no use of the q_d identity.
    """
    d, s = model.dimension, model.num_symbols
    if c_n1 == 0:
        return True
    if c_2n1 == 0:
        return False
    e_rhs = q_poly(d, n) * (2 * n) ** d
    e_lhs = q_poly(d, 2 * n) * n ** d
    denom = math.lcm(e_rhs.denominator, e_lhs.denominator)
    lhs = c_2n1 ** (n ** d * denom) * s ** int(e_rhs * denom)
    rhs = c_n1 ** ((2 * n) ** d * denom) * s ** int(e_lhs * denom)
    return lhs >= rhs


def test_doubling_matches_exponent_oracle(hard_square2, coloring3_d2):
    cases = [(hard_square2, 1), (hard_square2, 2), (coloring3_d2, 1)]
    cases += [(full_shift(2, 2), n) for n in (1, 2, 3)]
    cases += [(single_symbol_forced(), n) for n in (1, 2, 3)]
    cases += [(forbid_axis_model(), 1), (forbid_axis_model(3), 1)]
    operands = [(model, n, *check_counts(model, n)) for model, n in cases]
    # the near-tie of hard-square n = 4, and zero counts on either side
    tie = 70421023089
    operands += [(hard_square2, 4, 55447, tie), (hard_square2, 4, 55447, tie + 1)]
    operands += [(hard_square2, 1, 0, 0), (hard_square2, 1, 0, 5), (hard_square2, 1, 7, 0)]
    for model, n, c_n1, c_2n1 in operands:
        expected = doubling_by_exponents(model, n, c_n1, c_2n1)
        assert verify_doubling_monotonicity(model, n, c_n1, c_2n1) == expected


@st.composite
def doubling_operands(draw):
    """(model, n, C_{n+1}, C_{2n+1}) with C_{2n+1} often at the threshold."""
    d = draw(st.integers(1, 3))
    q = draw(st.sampled_from([1, 2, 3, 5]))
    n = draw(st.integers(1, 3))
    c_n1 = draw(st.integers(0, 10 ** 6))
    exponent = (2 ** d - 1) * ((n + 1) ** d - n ** d)
    threshold = -(-(c_n1 ** (2 ** d)) // q ** exponent)  # ceiling
    c_2n1 = draw(
        st.one_of(
            st.integers(-1, 1).map(lambda k: max(0, threshold + k)),
            st.integers(0, 2 * threshold + 2),
        )
    )
    return full_shift(q, d), n, c_n1, c_2n1


@settings(max_examples=300, deadline=None)
@given(doubling_operands())
def test_doubling_matches_exponent_oracle_random(operands):
    assert verify_doubling_monotonicity(*operands) == doubling_by_exponents(*operands)


def test_build_report_hard_square(hard_square2):
    report = build_report(hard_square2, 3)
    assert [r.c_n for r in report.rows] == [2, 7, 63]
    assert report.rows[1].c_n_plus_1 == 63
    assert math.isclose(report.rows[1].upper, math.log(7) / 4, abs_tol=1e-12)
    assert report.rows[0].checks.power_mean is True
    assert report.rows[0].checks.doubling is True
    assert report.rows[0].checks.key_inequality is True
    assert report.rows[2].checks.power_mean is None
    assert [r.checks.doubling for r in report.rows] == [True, None, None]


def test_report_key_inequality_on_every_row_with_c_glued(hard_square2):
    # C_{2n-1} is in a report with n_max 14 for n <= 8
    report = build_report(hard_square2, 14)
    flags = [r.checks.key_inequality for r in report.rows]
    assert flags == [True] * 8 + [None] * 6


def test_side_checks_table_takes_the_sides_budget(hard_square2):
    # the table of a side given runs at that side's budget, not the default
    verdicts = [ok for _, _, ok, _ in side_checks(hard_square2, 3, 63, 55447)]
    assert verdicts == [True, True, True]
    own = side_checks(hard_square2, 3, 63, 55447, Side(hard_square2, 3, 1000))
    assert [ok for _, _, ok, _ in own] == verdicts
    c_5, c_9 = count_patterns(hard_square2, 5), count_patterns(hard_square2, 9)
    name, row, ok, line = side_checks(hard_square2, 5, c_5, c_9, Side(hard_square2, 5, 100))[0]
    assert (name, row, ok) == ("key_inequality", 5, None)
    assert line == "more than 100 boundary-state keys at side 5"


def test_report_key_check_over_budget_leaves_the_rest(monkeypatch, hard_square2):
    import sftbounds.bounds as bounds_mod
    from sftbounds import BudgetExceededError

    def over_budget(*args):
        raise BudgetExceededError("per-state table over budget")

    monkeypatch.setattr(bounds_mod, "verify_key_inequality", over_budget)
    report = build_report(hard_square2, 3)
    assert [r.c_n for r in report.rows] == [2, 7, 63]
    assert report.rows[2].c_n_plus_1 == 1234
    assert report.rows[0].checks.power_mean is True
    assert report.rows[0].checks.doubling is True
    assert [r.checks.key_inequality for r in report.rows] == [None] * 3


def test_report_refused_table_leaves_the_rest(monkeypatch, hard_square2):
    import sftbounds.gluing as gluing_mod
    from sftbounds import BudgetExceededError

    def refused(*args, **kwargs):
        raise BudgetExceededError("more than 7 boundary-state keys at side 3")

    monkeypatch.setattr(gluing_mod, "state_counts", refused)
    report = build_report(hard_square2, 5)
    assert [r.checks.key_inequality for r in report.rows] == [None] * 5
    assert [r.checks.power_mean for r in report.rows] == [True, True, None, None, None]
    assert [r.checks.doubling for r in report.rows] == [True, True, None, None, None]


def test_report_bracket_consistency(hard_square2, coloring3_d2):
    for model in (hard_square2, coloring3_d2):
        report = build_report(model, 5)
        lowers = [r.lower for r in report.rows if r.lower not in (None, NEG_INF)]
        uppers = [r.upper for r in report.rows if r.upper not in (None, NEG_INF)]
        assert max(lowers) <= min(uppers)
        for row in report.rows:
            assert row.lower <= row.upper
            if row.n >= 2 and row.c_n <= row.c_n_plus_1:
                assert row.upper - row.lower <= row.gap_bound + 1e-12


def test_report_full_shift_closed_form():
    q, d = 2, 2
    report = build_report(full_shift(q, d), 4)
    for row in report.rows:
        n = row.n
        # C_n = q^(n^d), so the upper bound is exactly ln q at every n and
        # the lower bound evaluates to ((n+1)^d - q_d(n)) ln q / n^d
        assert math.isclose(row.upper, math.log(q), abs_tol=1e-12)
        expect_lower = (
            ((n + 1) ** d - float(q_poly(d, n))) * math.log(q) / n ** d
        )
        assert math.isclose(row.lower, expect_lower, abs_tol=1e-12)
        assert row.upper - row.lower <= row.gap_bound + 1e-12


def test_report_empty_model_rows():
    report = build_report(forbid_axis_model(), 4)
    assert report.rows[0].upper > 0
    assert report.rows[0].lower == NEG_INF
    for row in report.rows[1:]:
        assert row.upper == NEG_INF
        assert row.lower == NEG_INF


REPORT_SCHEMA = {
    "type": "object",
    "required": ["model", "d", "sigma_size", "log_base", "rows"],
    "properties": {
        "model": {"type": "object"},
        "d": {"type": "integer"},
        "sigma_size": {"type": "integer"},
        "log_base": {"enum": ["e", "2"]},
        "rows": {
            "type": "array",
            "items": {
                "type": "object",
                "required": [
                    "n",
                    "C_n",
                    "C_n_plus_1",
                    "q_d_n",
                    "upper",
                    "lower",
                    "gap_bound",
                    "checks",
                ],
                "properties": {
                    "n": {"type": "integer"},
                    "C_n": {"type": ["string", "null"], "pattern": "^[0-9]+$"},
                    "C_n_plus_1": {"type": ["string", "null"]},
                    "q_d_n": {"type": "string", "pattern": "^[0-9]+/[0-9]+$"},
                    "upper": {"type": ["number", "string", "null"]},
                    "lower": {"type": ["number", "string", "null"]},
                    "gap_bound": {"type": "number"},
                    "checks": {
                        "type": "object",
                        "required": ["key_inequality", "power_mean", "doubling"],
                        "properties": {
                            "key_inequality": {"type": ["boolean", "null"]},
                            "power_mean": {"type": ["boolean", "null"]},
                            "doubling": {"type": ["boolean", "null"]},
                        },
                    },
                },
            },
        },
    },
}


def test_report_json_schema(hard_square2):
    import jsonschema

    doc = report_to_json_dict(build_report(hard_square2, 3))
    jsonschema.validate(doc, REPORT_SCHEMA)
    text = json.dumps(doc)
    assert json.loads(text) == doc
    assert doc["rows"][0]["q_d_n"] == "4/1"


def test_report_json_renders_minus_inf():
    doc = report_to_json_dict(build_report(forbid_axis_model(), 3))
    assert doc["rows"][1]["upper"] == "-inf"
    assert doc["rows"][1]["lower"] == "-inf"
    # the document must be strict JSON (no Infinity literals)
    json.loads(json.dumps(doc, allow_nan=False))


def test_report_log_base_two(hard_square2):
    nats = report_to_json_dict(build_report(hard_square2, 2), "e")
    bits = report_to_json_dict(build_report(hard_square2, 2), "2")
    assert math.isclose(bits["rows"][0]["upper"], 1.0, abs_tol=1e-12)
    assert math.isclose(
        bits["rows"][1]["upper"] * math.log(2), nats["rows"][1]["upper"], abs_tol=1e-12
    )


def test_report_csv_mirrors_rows(hard_square2):
    report = build_report(hard_square2, 3)
    text = report_to_csv(report)
    lines = text.strip().splitlines()
    assert lines[0].startswith("n,C_n,")
    assert len(lines) == 1 + 3
    first = lines[1].split(",")
    assert first[0] == "1"
    assert first[1] == "2"
    assert first[7] == "true"  # key inequality checked at n=1
    # cell for cell, where rendering differs: -inf bounds and undecided
    # checks (coloring:1), C_6 over budget (hard-square d=3), log base 2
    csv = {}
    for name, model, n_max, log_base in (
        ("coloring:1", builtin_model("coloring", 2, 1), 3, "e"),
        ("hard-square d=3", builtin_model("hard-square", 3), 5, "e"),
        ("bits", hard_square2, 3, "2"),
    ):
        report = build_report(model, n_max)
        rows = report_to_json_dict(report, log_base)["rows"]
        lines = csv[name] = report_to_csv(report, log_base).splitlines()
        assert len(lines) == 1 + len(rows)
        for row, line in zip(rows, lines[1:]):
            flat = {k: v for k, v in row.items() if k != "checks"} | row["checks"]
            assert lines[0].split(",") == list(flat)
            assert line.split(",") == [
                "" if v is None else v if isinstance(v, str) else json.dumps(v)
                for v in flat.values()
            ]
    assert csv["coloring:1"][1:] == [
        "1,1,0,4/1,0.0,-inf,0.0,true,true,true",
        "2,0,0,7/1,-inf,-inf,0.0,true,,",
        "3,0,0,10/1,-inf,-inf,0.0,,,",
    ]
    last = csv["hard-square d=3"][-1].split(",")
    assert last[:3] == ["5", "1621477990380993035885", ""] and last[5] == ""
    assert csv["bits"][1].startswith("1,2,7,4/1,1.0,")


@settings(max_examples=20, deadline=None)
@given(st.integers(1, 4), st.integers(2, 4))
def test_full_shift_gap_exact(d, q):
    if q ** d > 64:
        return
    model = full_shift(q, d)
    row = entropy_bounds(model, 1, q, q ** (2 ** d))
    # upper = ln q; lower = ln q - q_d(1) ln q; the bracket is tight at the top
    assert math.isclose(row.upper, math.log(q), abs_tol=1e-12)
    assert row.lower <= row.upper
