"""Test-only ground truth for pattern counts.

``oracle_count_naive`` checks every assignment of the full cube with the
full-scan admissibility test, vectorized with numpy but with no pruning
and no shared logic with the package's counters.
"""

import numpy as np

from sftbounds import BudgetExceededError, SftModel

DEFAULT_ORACLE_CAP = 1 << 24
_ORACLE_CHUNK = 1 << 18


def oracle_count_naive(
    model: SftModel, n: int, cap: int = DEFAULT_ORACLE_CAP
) -> int:
    """Ground-truth count by testing every assignment of the cube.

    Refuses instances with more than ``cap`` total assignments.
    """
    if n < 1:
        raise ValueError(f"need n >= 1, got {n}")
    d = model.dimension
    q = model.num_symbols
    cells = n ** d
    total = q ** cells
    if total > cap:
        raise BudgetExceededError(
            f"{q}^{cells} assignments exceed the oracle cap of {cap}"
        )

    pairs = []
    for k in range(d):
        step = n ** (d - 1 - k)
        period = step * n
        for base in range(0, cells, period):
            for i in range(base, base + period - step):
                pairs.append((i, i + step, k))
    # flat q*q lookup per axis: row-major (a, b) -> forbidden?
    forb_flat = [
        np.array(
            [not model.allowed[k][a][b] for a in range(q) for b in range(q)],
            dtype=bool,
        )
        for k in range(d)
    ]
    # total <= cap <= 2^24, so 32-bit index arithmetic is exact
    powers = q ** np.arange(cells, dtype=np.int32)

    count = 0
    for start in range(0, total, _ORACLE_CHUNK):
        idx = np.arange(start, min(start + _ORACLE_CHUNK, total), dtype=np.int32)
        digits = (idx[:, None] // powers) % np.int32(q)
        bad = np.zeros(len(idx), dtype=bool)
        for i, j, k in pairs:
            bad |= forb_flat[k][digits[:, i] * np.int32(q) + digits[:, j]]
        count += int((~bad).sum())
    return count
