"""One benchmark operation, run in a fresh interpreter by ``run.py``.

    python3 bench/child.py T0 [--probe | [--spans FILE] -- CLI-ARGS...]

T0 is the parent's ``time.monotonic()`` just before it spawned this
process; ``setup_s`` is the time from then until ``sftbounds`` is
imported.  ``--probe`` stops there.  Otherwise the child calls
``sftbounds.cli.main(CLI-ARGS)`` with the CLI's standard output captured,
and prints one JSON line: setup_s, wall_s, the CLI exit code and output,
and the peak RSS of this process.  Every child also prints calib_s, the
time of ``calibrate()`` run once just before and once just after ``main``
(twice in a row for ``--probe``), which ``run.py`` uses to scale the times
to a fixed machine speed.  With ``--spans FILE`` it first wraps
the package's public functions (see ``spans.py``) and writes the recorded
spans to FILE after ``main`` returns.

A fresh interpreter per operation matters because ``transfer`` keeps its
exact counts in a module-global cache: a second ``main`` call in the same
process would time dict lookups instead of the transfer product.
"""

import sys
import time

T0 = float(sys.argv[1])

import contextlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402

BENCH = os.path.dirname(os.path.abspath(__file__))
SRC = os.path.join(os.path.dirname(BENCH), "src")
sys.path.insert(0, SRC)

import sftbounds.cli  # noqa: E402

SETUP_S = time.monotonic() - T0

if not os.path.abspath(sftbounds.cli.__file__).startswith(SRC + os.sep):
    sys.exit(f"sftbounds was imported from {sftbounds.cli.__file__}, not {SRC}")


def calibrate() -> float:
    """Seconds this interpreter takes for a fixed piece of pure-Python work.

    An integer loop, then big-integer additions into a dict: the two kinds
    of work the package's hot loops do.  On a shared virtual machine the
    speed of the core can drift by 1.6x over seconds to minutes; this time
    drifts with it.
    """
    t = time.perf_counter()
    s = 0
    for i in range(300_000):
        s += i * i
    d = {k: (1 << 200) + k for k in range(3000)}
    for r in range(8):
        e: dict[int, int] = {}
        for k, v in d.items():
            k2 = (k * 7 + r) % 3000
            e[k2] = e.get(k2, 0) + v
            k3 = (k * 13 + 1) % 3000
            e[k3] = e.get(k3, 0) + v
        d = e
    return time.perf_counter() - t


def main(argv: list[str]) -> None:
    out = {"setup_s": SETUP_S}
    if argv[:1] == ["--probe"]:
        out["calib_s"] = calibrate() + calibrate()
        print(json.dumps(out))
        return
    spans_path = None
    if argv[:1] == ["--spans"]:
        spans_path = argv[1]
        argv = argv[2:]
    if argv[:1] != ["--"]:
        sys.exit("usage: child.py T0 [--probe | [--spans FILE] -- CLI-ARGS...]")
    cli_argv = argv[1:]

    recorder = None
    if spans_path is not None:
        import spans

        recorder = spans.Recorder()
        recorder.install()
    calib = calibrate()
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        t = time.perf_counter()
        if recorder is None:
            code = sftbounds.cli.main(cli_argv)
        else:
            code = recorder.call("cli.main", sftbounds.cli.main, cli_argv)
        wall = time.perf_counter() - t
    calib += calibrate()
    if recorder is not None:
        recorder.dump(spans_path)
    out.update(
        wall_s=wall,
        calib_s=calib,
        exit=code,
        stdout=buf.getvalue(),
        peak_rss_mb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    )
    print(json.dumps(out))


if __name__ == "__main__":
    main(sys.argv[2:])
