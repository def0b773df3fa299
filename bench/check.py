"""Correctness checks on the CLI's output.

Nothing here compares against a stored copy of earlier output.  The
counts are compared with ``reference.py`` for every side it reaches, and
every report is checked for properties the method must have.  Each check
function returns the number of inequality checks the run decided and
raises ``CheckError`` on the first violation.
"""

from __future__ import annotations

import json
import math
import re
from fractions import Fraction

import reference

# Entropies per site, in nats.  Baxter's hard-square constant
# kappa = 1.503048082475332264322066329475553689385781...
KNOWN_ENTROPY = {
    ("hard-square", 2): math.log(1.5030480824753322643220663294755536893857810),
    ("coloring:3", 2): 1.5 * math.log(4 / 3),
}


class CheckError(AssertionError):
    pass


def _require(cond: bool, message: str) -> None:
    if not cond:
        raise CheckError(message)


def _close(a: float, b: float, what: str) -> None:
    _require(abs(a - b) <= 1e-12 * max(1.0, abs(b)), f"{what}: {a!r} != {b!r}")


def check_bounds(stdout: str, model: str, d: int, n_max: int, ref: dict[int, int]) -> int:
    """Check a ``--format json bounds`` report; returns the decided checks."""
    doc = json.loads(stdout)
    q = 3 if model == "coloring:3" else 2
    _require(doc["d"] == d and doc["sigma_size"] == q, "wrong model header")
    rows = doc["rows"]
    _require([r["n"] for r in rows] == list(range(1, n_max + 1)), "wrong row sides")

    counts = {r["n"]: int(r["C_n"]) for r in rows}
    counts[n_max + 1] = int(rows[-1]["C_n_plus_1"])
    for r in rows:
        _require(int(r["C_n_plus_1"]) == counts[r["n"] + 1], f"C_n_plus_1 of row {r['n']}")
    for n, c in ref.items():
        if n in counts:
            _require(counts[n] == c, f"C_{n} = {counts[n]}, reference gives {c}")
    for n in range(2, n_max + 1):
        _require(counts[n + 1] >= counts[n], f"C_{n + 1} < C_{n}")
    if model == "coloring:3":
        for n in range(2, n_max + 2):
            _require(counts[n] % 6 == 0, f"C_{n} of 3-colorings is not divisible by 6")

    ln_q = math.log(q)
    decided = 0
    for r in rows:
        n = r["n"]
        q_d = reference.q_poly(d, n)
        _require(Fraction(r["q_d_n"]) == q_d, f"q_{d}({n}) = {r['q_d_n']}, expected {q_d}")
        _close(r["upper"], math.log(counts[n]) / n ** d, f"upper of row {n}")
        _close(r["lower"], (math.log(counts[n + 1]) - float(q_d) * ln_q) / n ** d,
               f"lower of row {n}")
        _close(r["gap_bound"], float(q_d) * ln_q / n ** d, f"gap_bound of row {n}")
        _require(r["upper"] - r["lower"] <= r["gap_bound"], f"row {n} wider than gap_bound")
        for name, flag in r["checks"].items():
            if flag is not None:
                _require(flag is True, f"check {name} failed on row {n}")
                decided += 1
        if 2 * n + 1 <= n_max + 1:
            e = (2 ** d - 1) * ((n + 1) ** d - n ** d)
            _require(counts[2 * n + 1] * q ** e >= counts[n + 1] ** (2 ** d),
                     f"power-mean inequality fails at n={n}")

    best_lower = max(r["lower"] for r in rows)
    best_upper = min(r["upper"] for r in rows)
    _require(best_lower <= best_upper, "some lower bound exceeds some upper bound")
    known = KNOWN_ENTROPY.get((model, d))
    if known is not None:
        _require(best_lower <= known <= best_upper,
                 f"known entropy {known} outside [{best_lower}, {best_upper}]")
    return decided


_KEY = re.compile(r"C_(\d+) = (\d+) >= sum_s C_(\d+)\^\(s\)\^(\d+) = (\d+)")
_POWER_MEAN = re.compile(r"power-mean bound \(n=(\d+)\): (\d+) \* (\d+)\^(\d+) >= (\d+)\^(\d+)")
_DRAWS = re.compile(r"\((\d+) draws, seed (-?\d+)\)")
_COUNT = re.compile(r"C_(\d+) = (\d+)")


def check_verify(stdout: str, n: int, samples: int, seed: int, ref: dict[int, int]) -> int:
    """Check ``--format json verify`` for hard-square d=2; returns the checks."""
    doc = json.loads(stdout)
    checks = doc["checks"]
    _require(doc["all_pass"] is True, "verify reports a failure")
    _require(all(c["pass"] is True for c in checks), "a verify check failed")
    names = [c["name"] for c in checks]
    text = "\n".join(names)

    quoted = _COUNT.findall(text)
    _require(len(quoted) >= 3, "verify quotes too few counts")
    for side, value in quoted:
        _require(int(value) == ref[int(side)], f"verify quotes C_{side} = {value}")

    key = _KEY.search(text)
    _require(key is not None, "no state-resolved count bound check")
    lhs_side, lhs, n_side, power, rhs = map(int, key.groups())
    _require((lhs_side, n_side, power) == (2 * n - 1, n, 4), "key check has wrong sides")
    _require(rhs == reference.hard_square_key_sum(n), f"sum_s C_{n}^(s)^4 = {rhs} is wrong")
    _require(lhs >= rhs, "key inequality quoted as holding but it does not")

    pm = _POWER_MEAN.search(text)
    _require(pm is not None, "no power-mean check")
    m, c_2m1, s, expo, c_m1, power = map(int, pm.groups())
    _require(m == n - 1 and s == 2 and power == 4, "power-mean check has wrong shape")
    _require(expo == 3 * ((m + 1) ** 2 - m ** 2), "power-mean exponent is wrong")
    _require((c_2m1, c_m1) == (ref[2 * m + 1], ref[m + 1]), "power-mean counts are wrong")
    _require(c_2m1 * s ** expo >= c_m1 ** power, "power-mean inequality does not hold")

    draws = _DRAWS.search(text)
    _require(draws is not None, "no sampling check")
    _require((int(draws[1]), int(draws[2])) == (samples, seed), "wrong draws or seed")
    return len(checks)
