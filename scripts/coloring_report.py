#!/usr/bin/env python3
"""Proper q-coloring entropy bracket experiment on Z^2.

For q = 3 the model is the zero-temperature antiferromagnetic Potts
point; its entropy is known to be (3/2) ln(4/3) ~ 0.4315 nats, a handy
external sanity value for the bracket.

Usage: python scripts/coloring_report.py [q] [n_max]
"""

import math
import sys

from sftbounds import build_report, builtin_model


def main() -> None:
    q = int(sys.argv[1]) if len(sys.argv) > 1 else 3
    n_max = int(sys.argv[2]) if len(sys.argv) > 2 else 10
    model = builtin_model("coloring", 2, q)
    report = build_report(model, n_max)

    print(f"{'n':>3}  {'digits(C_n)':>11}  {'lower':>10}  {'upper':>10}")
    for row in report.rows:
        print(
            f"{row.n:>3}  {len(str(row.c_n)):>11}  {row.lower:>10.6f}  {row.upper:>10.6f}"
        )
    best_lower = max(r.lower for r in report.rows)
    best_upper = min(r.upper for r in report.rows)
    print(f"\nbest bracket: {best_lower:.6f} <= h <= {best_upper:.6f}")
    if q == 3:
        ref = 1.5 * math.log(4 / 3)
        inside = best_lower <= ref <= best_upper
        print(f"reference 1.5*ln(4/3) = {ref:.6f} inside bracket: {inside}")


if __name__ == "__main__":
    main()
