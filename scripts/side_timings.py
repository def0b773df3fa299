#!/usr/bin/env python3
"""Per-side CPU times of the slice transfer: listing, planning, products.

For each side n it prints the slice count and the median CPU time, in
milliseconds, of
  list      listing the slices (``Side.slices``, with its preflight);
  full      the full plan (``Side.plan(False)``), on listed slices;
  quotient  the count's plan (``Side.plan(True)``) on a side that already
            has its full plan: the derivation alone;
  count     ``count_patterns`` on a side already listed and planned: the
            products of the count alone;
  table     ``state_counts`` on a side already listed and planned: the
            per-state table alone (nan where its budget refuses the side).
Every repeat starts from a new ``Side``, so nothing is reused across them.

Usage: python scripts/side_timings.py MODEL D SIDES [REPEATS]
  MODEL    hard-square, or coloring:Q
  SIDES    one side, a range such as 8-13, or a list such as 3,5,8
  REPEATS  timed runs per figure (default 5)
"""

import statistics
import sys
import time

from sftbounds import BudgetExceededError, builtin_model, count_patterns
from sftbounds.transfer import Side, state_counts

HEADINGS = ("slices", "list", "full", "quotient", "count", "table")


def parse_sides(text: str) -> list[int]:
    sides = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        sides.extend(range(int(lo), int(hi or lo) + 1))
    return sides


def cpu_ms(setup, run, repeats: int) -> float:
    """Median CPU milliseconds of ``run(setup())`` over ``repeats`` runs;
    nan when ``run`` refuses by its budget."""
    times = []
    for _ in range(repeats):
        arg = setup()
        start = time.process_time()
        try:
            run(arg)
        except BudgetExceededError:
            return float("nan")
        times.append(time.process_time() - start)
    return 1e3 * statistics.median(times)


def main() -> None:
    if len(sys.argv) not in (4, 5):
        sys.exit(__doc__)
    name, _, q = sys.argv[1].partition(":")
    d = int(sys.argv[2])
    model = builtin_model(name, d, int(q)) if q else builtin_model(name, d)
    repeats = int(sys.argv[4]) if len(sys.argv) == 5 else 5

    def listed(n):
        side = Side(model, n)
        side.slices()
        return side

    def planned(n, quotient=True):
        side = listed(n)
        side.plan(quotient)
        return side

    print(f"{'n':>3}  " + "  ".join(f"{h:>9}" for h in HEADINGS))
    for n in parse_sides(sys.argv[3]):
        figures = (
            cpu_ms(lambda: Side(model, n), Side.slices, repeats),
            cpu_ms(lambda: listed(n), lambda side: side.plan(False), repeats),
            cpu_ms(lambda: planned(n, False), lambda side: side.plan(True), repeats),
            cpu_ms(lambda: planned(n), lambda side: count_patterns(model, n, side=side),
                   repeats),
            cpu_ms(lambda: planned(n, False), state_counts, repeats),
        )
        slices = len(listed(n).slices())
        print(f"{n:>3}  {slices:>9}  " + "  ".join(f"{t:>9.3f}" for t in figures))


if __name__ == "__main__":
    main()
