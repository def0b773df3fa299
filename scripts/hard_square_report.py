#!/usr/bin/env python3
"""Hard-square entropy bracket experiment.

Computes exact pattern counts for the hard-square model on Z^2 up to a
given side, prints the per-n bracket table, and summarizes the best
bounds.  With the default side 20 the bracket pins the entropy constant
(about 0.4075 nats) to within the guaranteed gap of roughly 0.106.

Usage: python scripts/hard_square_report.py [n_max]
"""

import sys
import time

from sftbounds import build_report, builtin_model


def main() -> None:
    n_max = int(sys.argv[1]) if len(sys.argv) > 1 else 20
    model = builtin_model("hard-square", 2)
    start = time.time()
    report = build_report(model, n_max)
    elapsed = time.time() - start

    print(f"{'n':>3}  {'digits(C_n)':>11}  {'lower':>10}  {'upper':>10}  {'gap_bound':>10}")
    for row in report.rows:
        print(
            f"{row.n:>3}  {len(str(row.c_n)):>11}  {row.lower:>10.6f}  "
            f"{row.upper:>10.6f}  {row.gap_bound:>10.6f}"
        )

    best_lower = max(r.lower for r in report.rows)
    best_upper = min(r.upper for r in report.rows)
    print(f"\nbest bracket: {best_lower:.6f} <= h <= {best_upper:.6f}")
    print(f"width {best_upper - best_lower:.6f}, computed in {elapsed:.1f}s")
    checks = [r.checks.doubling for r in report.rows if r.checks.doubling is not None]
    print(f"doubling checks: {sum(checks)}/{len(checks)} hold")


if __name__ == "__main__":
    main()
