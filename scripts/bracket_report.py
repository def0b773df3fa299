#!/usr/bin/env python3
"""Entropy bracket experiment for a builtin model.

Computes exact pattern counts up to side N_MAX + 1 and prints the per-n
bracket table, the best bracket, how many doubling checks hold and,
where the entropy is known, whether it lies inside the bracket:
hard-square in d=2 (ln kappa, Baxter) and coloring:3 in d=2 (the
square-ice entropy 1.5 ln(4/3), Lieb).  Hard-square d=2 at N_MAX 20
gives roughly 0.3508 <= h <= 0.4144 around ln kappa ~ 0.4075.

Usage: python scripts/bracket_report.py MODEL D [N_MAX]
  MODEL  hard-square, or coloring:Q
  N_MAX  largest row side (default 10)
"""

import math
import sys
import time

from sftbounds import build_report, builtin_model

KNOWN_ENTROPY = {
    ("hard-square", 2): ("ln kappa", math.log(1.5030480824753322)),
    ("coloring:3", 2): ("1.5 ln(4/3)", 1.5 * math.log(4 / 3)),
}


def fmt(x) -> str:
    return "n/a" if x is None else f"{x:.6f}"


def main() -> None:
    if len(sys.argv) not in (3, 4):
        sys.exit(__doc__)
    name, d = sys.argv[1], int(sys.argv[2])
    n_max = int(sys.argv[3]) if len(sys.argv) > 3 else 10
    base, _, q = name.partition(":")
    model = builtin_model(base, d, int(q) if q else None)
    start = time.time()
    report = build_report(model, n_max)
    elapsed = time.time() - start

    print(f"{'n':>3}  {'digits(C_n)':>11}  {'lower':>10}  {'upper':>10}  {'gap_bound':>10}")
    for row in report.rows:
        digits = "n/a" if row.c_n is None else len(str(row.c_n))
        print(
            f"{row.n:>3}  {digits:>11}  {fmt(row.lower):>10}  {fmt(row.upper):>10}  "
            f"{row.gap_bound:>10.6f}"
        )
    # a count over budget leaves its bounds None
    best_lower = max(r.lower for r in report.rows if r.lower is not None)
    best_upper = min(r.upper for r in report.rows if r.upper is not None)
    print(f"\nbest bracket: {best_lower:.6f} <= h <= {best_upper:.6f}")
    print(f"width {best_upper - best_lower:.6f}, computed in {elapsed:.1f}s")
    checks = [r.checks.doubling for r in report.rows if r.checks.doubling is not None]
    print(f"doubling checks: {sum(checks)}/{len(checks)} hold")
    if (name, d) in KNOWN_ENTROPY:
        label, h = KNOWN_ENTROPY[name, d]
        print(f"{label} = {h:.6f} inside bracket: {best_lower <= h <= best_upper}")


if __name__ == "__main__":
    main()
