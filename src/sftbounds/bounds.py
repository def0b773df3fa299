"""Entropy brackets from exact counts, and the inequalities behind them.

For a symmetric nearest-neighbor model with alphabet size S and exact cube
counts C_n, every n >= 1 brackets the topological entropy h:

    (ln C_{n+1} - q_d(n) ln S) / n^d  <=  h  <=  ln C_n / n^d,

with the correction polynomial

    q_d(n) = (2^d - 1) * sum_{k=0}^{d-1} binom(d,k) / (2^d - 2^k) * n^k

kept as an exact rational until the final float multiply.  Since counts
are nondecreasing from side 2 on, the bracket width is at most
q_d(n) ln S / n^d = O(1/n).  Empty models follow the convention
ln 0 = -inf, so h = -inf stays bracketed.

q_d satisfies the exact doubling identity

    q_d(2n) + (2^d - 1)((n+1)^d - n^d) = 2^d q_d(n),

verified here in rational arithmetic; it is what makes the lower bounds
increase along the doubling chain n, 2n, 4n, ...
"""

from __future__ import annotations

import math
from fractions import Fraction
from functools import lru_cache

from .models import SftModel, _Value, model_to_doc
from .transfer import BudgetExceededError, Side, count_patterns
from .gluing import verify_key_inequality


@lru_cache(maxsize=None)
def _q_scaled(d: int) -> tuple[tuple[int, ...], int]:
    """L q_d as integer coefficients, highest power first, and q_d's common
    denominator L = lcm(2^d - 2^k); computed once per d."""
    # (2^d - 1) sum_k C(d, k) n^k / (2^d - 2^k)
    dens = [2 ** d - 2 ** k for k in range(d)]
    lcm = math.lcm(*dens)
    coefs = [(2 ** d - 1) * math.comb(d, k) * (lcm // dens[k]) for k in range(d)]
    return tuple(coefs[::-1]), lcm


def _horner(coefs: tuple[int, ...], n: int) -> int:
    """The polynomial with ``coefs``, highest power first, at n."""
    value = 0
    for c in coefs:
        value = value * n + c
    return value


def q_poly(d: int, n: int) -> Fraction:
    """The correction polynomial q_d(n), exact."""
    if d < 1:
        raise ValueError(f"need d >= 1, got {d}")
    if n < 0:
        raise ValueError(f"need n >= 0, got {n}")
    coefs, lcm = _q_scaled(d)
    return Fraction(_horner(coefs, n), lcm)


def _power_mean_exponent(d: int, n: int) -> int:
    """(2^d - 1)((n+1)^d - n^d): the power of S in the power-mean bound."""
    return (2 ** d - 1) * ((n + 1) ** d - n ** d)


def verify_qd_recurrence(d: int, n: int) -> bool:
    """Exact check of q_d(2n) + (2^d-1)((n+1)^d - n^d) = 2^d q_d(n).

    Both sides are compared as integers, scaled by q_d's denominator L,
    with q_d at 2n and at n evaluated on one list of coefficients.
    """
    if d < 1 or n < 1:
        raise ValueError(f"need d >= 1 and n >= 1, got d={d}, n={n}")
    coefs, lcm = _q_scaled(d)
    lhs = _horner(coefs, 2 * n) + _power_mean_exponent(d, n) * lcm
    return lhs == 2 ** d * _horner(coefs, n)


def qd_recurrence_sweep() -> tuple[str, bool]:
    """The doubling identity for every d <= 6 and n <= 64, as (line, verdict)."""
    holds = all(verify_qd_recurrence(d, n) for d in range(1, 7) for n in range(1, 65))
    return "correction-polynomial recurrence sweep (d<=6, n<=64)", holds


def log_count(c: int) -> float:
    """Natural log of an exact count; -inf for zero."""
    if c < 0:
        raise ValueError("counts are nonnegative")
    if c == 0:
        return float("-inf")
    return math.log(c)


class RowChecks(_Value):
    """Per-row check results; None where the counts did not allow a check."""

    _fields = ("key_inequality", "power_mean", "doubling")

    def __init__(self, key_inequality=None, power_mean=None, doubling=None):
        self.key_inequality, self.power_mean = key_inequality, power_mean
        self.doubling = doubling


class BoundsRow(_Value):
    """One bracket row; upper/lower are None when a count was unavailable."""

    _fields = ("n", "c_n", "c_n_plus_1", "q_value", "upper", "lower", "gap_bound",
               "checks")

    def __init__(
        self, n: int, c_n: int | None, c_n_plus_1: int | None, q_value: Fraction,
        upper: float | None, lower: float | None, gap_bound: float,
        checks: RowChecks | None = None,
    ):
        self.n, self.c_n, self.c_n_plus_1, self.q_value = n, c_n, c_n_plus_1, q_value
        self.upper, self.lower, self.gap_bound = upper, lower, gap_bound
        self.checks = RowChecks() if checks is None else checks


class ConvergenceReport(_Value):
    _fields = ("model", "rows")

    def __init__(self, model: SftModel, rows: list[BoundsRow]):
        self.model, self.rows = model, rows


def entropy_bounds(
    model: SftModel, n: int, c_n: int | None, c_n1: int | None
) -> BoundsRow:
    """Bracket row for side n from the counts C_n and C_{n+1} (nats)."""
    if n < 1:
        raise ValueError(f"need n >= 1, got {n}")
    d = model.dimension
    scale = n ** d
    q_value = q_poly(d, n)
    ln_sigma = math.log(model.num_symbols)
    gap_bound = float(q_value) * ln_sigma / scale
    upper = None if c_n is None else log_count(c_n) / scale
    if c_n1 is None:
        lower = None
    else:
        lower = (log_count(c_n1) - float(q_value) * ln_sigma) / scale
    return BoundsRow(n, c_n, c_n1, q_value, upper, lower, gap_bound)


def verify_power_mean_bound(model: SftModel, n: int, c_n1: int, c_2n1: int) -> bool:
    """Exact integer check of the state-averaged count bound:

        C_{2n+1} * S^((2^d - 1)((n+1)^d - n^d))  >=  (C_{n+1})^(2^d).
    """
    if n < 1:
        raise ValueError(f"need n >= 1, got {n}")
    d = model.dimension
    return c_2n1 * model.num_symbols ** _power_mean_exponent(d, n) >= c_n1 ** (2 ** d)


def verify_doubling_monotonicity(
    model: SftModel, n: int, c_n1: int, c_2n1: int
) -> bool:
    """Check the lower-bound sequence increases from n to 2n:

        (C_{2n+1} / S^q_d(2n))^(1/(2n)^d)  >=  (C_{n+1} / S^q_d(n))^(1/n^d).

    Raising both sides to the power n^d (2n)^d = 2^d n^(2d) and taking the
    n^d-th root leaves C_{2n+1} S^(2^d q_d(n) - q_d(2n)) >= C_{n+1}^(2^d).
    By the doubling identity the exponent of S is (2^d - 1)((n+1)^d - n^d),
    so the inequality is exactly the power-mean bound; both parts are
    checked exactly.  Zero counts follow ln 0 = -inf: C_{n+1} = 0 holds
    trivially, and C_{2n+1} = 0 < C_{n+1} fails.
    """
    return verify_qd_recurrence(model.dimension, n) and verify_power_mean_bound(
        model, n, c_n1, c_2n1
    )


def side_checks(side: Side, c_n: int, c_glued: int) -> list[tuple[str, int, bool | None, str]]:
    """The checks that C_n and C_{2n-1} = ``c_glued`` decide for ``side``,
    side n of its model, each as (name, row, verdict, line): the key
    inequality of row n, on the side's per-state table at its budget,
    then for n >= 2 the power-mean and doubling bounds of row m = n - 1,
    which read C_{m+1} = C_n and C_{2m+1} = C_{2n-1}.  ``name`` is the
    ``RowChecks`` field and ``line`` the check with its exact operands; a
    table over budget leaves the key verdict None, with the refusal as
    its line.
    """
    model, n = side.model, side.n
    d = model.dimension
    try:
        rhs, holds = verify_key_inequality(side, c_glued, c_n)
    except BudgetExceededError as exc:
        holds, line = None, str(exc)
    else:
        line = (f"state-resolved count bound (n={n}): C_{2 * n - 1} = {c_glued} >= "
                f"sum_s C_{n}^(s)^{1 << d} = {rhs}")
    checks = [("key_inequality", n, holds, line)]
    if n >= 2:
        m, s = n - 1, model.num_symbols
        expo = _power_mean_exponent(d, m)
        checks.append((
            "power_mean", m, verify_power_mean_bound(model, m, c_n, c_glued),
            f"power-mean bound (n={m}): {c_glued} * {s}^{expo} >= {c_n}^{1 << d}",
        ))
        checks.append((
            "doubling", m, verify_doubling_monotonicity(model, m, c_n, c_glued),
            f"doubling monotonicity (n={m}): v_{2 * m} >= v_{m} "
            f"with C_{m + 1} = {c_n}, C_{2 * m + 1} = {c_glued}",
        ))
    return checks


def build_report(model: SftModel, n_max: int) -> ConvergenceReport:
    """Bracket rows for n = 1..n_max with every check the counts support.

    Each row carries exact counts, the bracket, and the gap bound; the
    checks ``side_checks`` decides from C_n and C_{2n-1} are filled in
    for every side n with 2n - 1 <= n_max + 1.  A count or table that
    exceeds its budget marks that piece unavailable instead of aborting
    the report.  The count and the table of side n share one ``Side``:
    it is listed and planned once.
    """
    if n_max < 1:
        raise ValueError(f"need n_max >= 1, got {n_max}")
    counts: dict[int, int | None] = {}
    sides = {}  # the sides whose table a row checks: C_{2n-1} is counted
    for n in range(1, n_max + 2):
        side = Side(model, n)
        if 2 * n - 1 <= n_max + 1:
            sides[n] = side
        try:
            counts[n] = count_patterns(model, n, side=side)
        except BudgetExceededError:
            counts[n] = None
    rows = [
        entropy_bounds(model, n, counts[n], counts[n + 1]) for n in range(1, n_max + 1)
    ]
    for n, side in sides.items():
        c_n, c_glued = counts[n], counts[2 * n - 1]
        if c_n is not None and c_glued is not None:
            for name, row, verdict, _ in side_checks(side, c_n, c_glued):
                setattr(rows[row - 1].checks, name, verdict)
    return ConvergenceReport(model, rows)


def _json_bound(x: float | None):
    if x is None:
        return None
    if x == float("-inf"):
        return "-inf"
    return x


def report_to_json_dict(report: ConvergenceReport, log_base: str = "e") -> dict:
    """Schema-stable dict; bounds rescaled when log_base is "2"."""
    if log_base not in ("e", "2"):
        raise ValueError(f"log_base must be 'e' or '2', got {log_base!r}")
    scale = 1.0 if log_base == "e" else 1.0 / math.log(2)
    rows = []
    for row in report.rows:
        rows.append(
            {
                "n": row.n,
                "C_n": None if row.c_n is None else str(row.c_n),
                "C_n_plus_1": None if row.c_n_plus_1 is None else str(row.c_n_plus_1),
                "q_d_n": f"{row.q_value.numerator}/{row.q_value.denominator}",
                "upper": _json_bound(None if row.upper is None else row.upper * scale),
                "lower": _json_bound(None if row.lower is None else row.lower * scale),
                "gap_bound": row.gap_bound * scale,
                "checks": {name: getattr(row.checks, name) for name in RowChecks._fields},
            }
        )
    return {
        "model": model_to_doc(report.model),
        "d": report.model.dimension,
        "sigma_size": report.model.num_symbols,
        "log_base": log_base,
        "rows": rows,
    }


def report_to_csv(report: ConvergenceReport, log_base: str = "e") -> str:
    """The JSON rows, one line each, with ``checks`` flattened into the last
    columns; the header is the row's keys."""
    rows = report_to_json_dict(report, log_base)["rows"]
    for row in rows:
        row.update(row.pop("checks"))
    lines = [",".join(rows[0]), *(",".join(map(_csv_cell, row.values())) for row in rows)]
    return "\n".join(lines) + "\n"


def report_to_text(report: ConvergenceReport, log_base: str = "e") -> str:
    """Aligned table of the JSON rows: n, C_n, lower, upper, gap_bound."""
    rows = report_to_json_dict(report, log_base)["rows"]
    width = max(3, *(len(row["C_n"] or "") for row in rows))
    lines = [f"{'n':>4}  {'C_n':>{width}}  {'lower':>12}  {'upper':>12}  "
             f"{'gap_bound':>12}"]
    for row in rows:
        lines.append(
            f"{row['n']:>4}  {row['C_n'] or 'n/a':>{width}}  "
            f"{_text_bound(row['lower']):>12}  {_text_bound(row['upper']):>12}  "
            f"{row['gap_bound']:>12.6f}"
        )
    return "\n".join(lines) + "\n"


def _text_bound(x) -> str:
    if x is None:
        return "n/a"
    if isinstance(x, str):
        return x
    return f"{x:.6f}"


def _csv_cell(x) -> str:
    """A JSON value as a CSV cell: null empty, booleans as in JSON."""
    if x is None:
        return ""
    if isinstance(x, bool):
        return "true" if x else "false"
    return str(x)  # a float's str is its repr
