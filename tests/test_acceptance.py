"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

The whole module runs at desk scale (under a minute).
"""

import itertools
import math
import random
from contextlib import contextmanager
from fractions import Fraction

import pytest

from sftbounds import (
    builtin_model,
    build_report,
    count_patterns,
    count_via_transfer,
    glue_single,
    is_locally_admissible,
    periodic_core,
    q_poly,
    report_to_json_dict,
    tiling_witness,
    verify_doubling_monotonicity,
    verify_power_mean_bound,
    verify_qd_recurrence,
)
from sftbounds.enumeration import count_by_state, count_patterns_dfs, enumerate_patterns
from sftbounds.gluing import opposite_faces_equal

from conftest import forbid_axis_model, full_shift, single_symbol_forced
from oracle import oracle_count_naive
from paper_defs import extend_to_plus_one, leading_gap_coefficient, restrict

ORACLE_LIMIT = 1 << 24
NEG_INF = float("-inf")
HARD_SQUARE_ENTROPY_REF = 0.4075
REF_TOL = 0.0005


@contextmanager
def criterion(num, name):
    try:
        yield
    except BaseException:
        print(f"ACCEPTANCE {num} {name}: FAIL")
        raise
    print(f"ACCEPTANCE {num} {name}: PASS")


@pytest.fixture(scope="module")
def hs2_report():
    model = builtin_model("hard-square", 2)
    return build_report(model, 20)


def test_criterion_1_oracle_equivalence():
    with criterion(1, "exact-count oracle equivalence"):
        for make in (
            lambda d: builtin_model("hard-square", d),
            lambda d: builtin_model("coloring", d, 3),
        ):
            for d in (1, 2, 3):
                model = make(d)
                q = model.num_symbols
                for n in itertools.count(1):
                    if q ** (n ** d) > ORACLE_LIMIT:
                        break
                    reference = oracle_count_naive(model, n)
                    assert count_patterns_dfs(model, n) == reference
                    assert count_patterns(model, n) == reference


def test_criterion_2_hard_square_sandwich(hs2_report):
    with criterion(2, "hard-square reference sandwich at n=20"):
        rows = {row.n: row for row in hs2_report.rows}
        uppers = [rows[n].upper for n in range(2, 21)]
        assert all(a > b for a, b in zip(uppers, uppers[1:]))
        for n in range(1, 11):
            assert rows[2 * n].lower >= rows[n].lower - 1e-12
            assert rows[n].checks.doubling is None or rows[n].checks.doubling
        row20 = rows[20]
        gap_limit = (3 * 20 + 1) * math.log(2) / 400
        assert row20.upper - row20.lower <= gap_limit + 1e-12
        assert row20.lower <= HARD_SQUARE_ENTROPY_REF - REF_TOL
        assert row20.upper >= HARD_SQUARE_ENTROPY_REF + REF_TOL
        best_lower = max(r.lower for r in hs2_report.rows)
        midpoint = (row20.upper + best_lower) / 2
        # the bracket contains the reference value, so its midpoint sits
        # within half the guaranteed gap of it
        assert abs(midpoint - HARD_SQUARE_ENTROPY_REF) <= gap_limit / 2 + 1e-12


def _bracket_rows_valid(report):
    for row in report.rows:
        if row.upper is None or row.lower is None:
            continue
        assert row.lower <= row.upper
        if row.n >= 2 and row.c_n <= row.c_n_plus_1:
            if row.upper == NEG_INF:
                assert row.lower == NEG_INF
            else:
                gap = float(row.q_value) * math.log(
                    report.model.num_symbols
                ) / row.n ** report.model.dimension
                assert row.upper - row.lower <= gap + 1e-12


def test_criterion_3_bracket_validity(hs2_report):
    with criterion(3, "bracket validity and gap bound on every row"):
        _bracket_rows_valid(hs2_report)
        _bracket_rows_valid(build_report(builtin_model("coloring", 2, 3), 6))
        _bracket_rows_valid(build_report(builtin_model("hard-square", 3), 2))
        _bracket_rows_valid(build_report(forbid_axis_model(), 4))
        _bracket_rows_valid(build_report(full_shift(2, 2), 4))
        _bracket_rows_valid(build_report(single_symbol_forced(), 4))


def test_criterion_4_key_inequality_exact(hs2_report):
    with criterion(4, "state-resolved count inequality (exact integers)"):
        # checked on every row whose C_{2n-1} the report holds: n <= 11
        flags = [row.checks.key_inequality for row in hs2_report.rows]
        assert flags == [True] * 11 + [None] * 9
        hs2 = builtin_model("hard-square", 2)
        for n in (2, 3, 4):
            lhs = count_patterns(hs2, 2 * n - 1)
            table = count_by_state(hs2, n)
            rhs = sum(c ** 4 for c in table.values())
            assert lhs >= rhs
            if n == 2:
                assert (lhs, rhs) == (63, 35)
        hs3 = builtin_model("hard-square", 3)
        lhs = count_patterns(hs3, 3)
        rhs = sum(c ** 8 for c in count_by_state(hs3, 2).values())
        assert lhs >= rhs


def test_criterion_5_power_mean_and_doubling():
    with criterion(5, "power-mean bound and doubling monotonicity"):
        hs2 = builtin_model("hard-square", 2)
        for n in range(1, 10):
            c_n1, c_2n1 = count_patterns(hs2, n + 1), count_patterns(hs2, 2 * n + 1)
            assert verify_power_mean_bound(hs2, n, c_n1, c_2n1)
            assert verify_doubling_monotonicity(hs2, n, c_n1, c_2n1)
        col3 = builtin_model("coloring", 2, 3)
        for n in range(1, 7):
            c_n1, c_2n1 = count_patterns(col3, n + 1), count_patterns(col3, 2 * n + 1)
            assert verify_power_mean_bound(col3, n, c_n1, c_2n1)
            assert verify_doubling_monotonicity(col3, n, c_n1, c_2n1)


def test_criterion_6_recurrence_sweep():
    with criterion(6, "correction-polynomial identities (exact rationals)"):
        for d in range(1, 7):
            for n in range(1, 65):
                assert verify_qd_recurrence(d, n)
        for n in range(1, 65):
            assert q_poly(2, n) == 3 * n + 1
        for d in range(1, 7):
            assert leading_gap_coefficient(d) == d * (2 - Fraction(2, 2 ** d))


def _constructive_suite(model, p):
    glued = glue_single(model, p)
    assert is_locally_admissible(model, glued)
    for axis in range(1, model.dimension + 1):
        assert opposite_faces_equal(glued, axis)
    core = periodic_core(model, glued)  # raises if not wrap-admissible
    witness = tiling_witness(model, core)
    assert is_locally_admissible(model, witness)
    ext = extend_to_plus_one(model, p)
    assert is_locally_admissible(model, ext)
    assert restrict(ext, p.n) == p


def test_criterion_7_constructive_suite():
    with criterion(7, "constructive extension suite (seeded samples)"):
        hs2 = builtin_model("hard-square", 2)
        rng = random.Random(20260809)
        pools = {n: list(enumerate_patterns(hs2, n)) for n in (2, 3, 4)}
        for i in range(500):
            n = (2, 3, 4)[i % 3]
            p = pools[n][rng.randrange(len(pools[n]))]
            _constructive_suite(hs2, p)
        hs3 = builtin_model("hard-square", 3)
        pool3 = list(enumerate_patterns(hs3, 2))
        for _ in range(100):
            _constructive_suite(hs3, pool3[rng.randrange(len(pool3))])
        images = {
            extend_to_plus_one(hs2, p).values for p in pools[2]
        }
        assert len(images) == 7


def test_criterion_8_empty_subshift_convention():
    with criterion(8, "empty-subshift convention"):
        model = forbid_axis_model()
        assert count_patterns_dfs(model, 1) == model.num_symbols == 2
        for n in range(2, 6):
            assert count_patterns_dfs(model, n) == 0
            assert count_via_transfer(model, n) == 0
        report = build_report(model, 4)
        assert report.rows[0].upper == pytest.approx(math.log(2))
        assert report.rows[0].lower == NEG_INF
        for row in report.rows[1:]:
            assert row.upper == NEG_INF
            assert row.lower == NEG_INF
        doc = report_to_json_dict(report)
        assert doc["rows"][1]["upper"] == "-inf"
        assert doc["rows"][1]["lower"] == "-inf"
