"""Benchmark of the sftbounds CLI, end to end and per module.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 bench/run.py --workload all --seed N --seconds S --trace 0|1

Each operation is one ``sftbounds.cli.main(argv)`` call in a fresh
interpreter (``child.py``), and each output is checked by ``check.py``
against the independent counters in ``reference.py``.  A run starts
``SETUP_PROBES`` interpreters that only import the package, then repeats
whole rounds for about S seconds: a round is one operation with
``--trace 0`` and one untraced plus one traced operation with
``--trace 1``.  A round is started only while the previous round's time
still fits in S, and every run does at least one.

Times are scaled to a fixed machine speed: each interpreter times
``child.calibrate()`` next to what it measures, and a time ``t`` is
reported as ``t * CALIB_REF_S / calib_s``.  The last line of standard
output is one JSON object with ``correct``, ``attempted``, ``failed`` and
``metrics``: the end-to-end metrics (medians over the run) with
``--trace 0``, the per-layer metrics of the traced
operation with the median traced ``wall_s`` with ``--trace 1``.  See
README.md for the workloads and metrics.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass

import check
import reference
import spans

BENCH = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH)
CHILD = os.path.join(BENCH, "child.py")
OUT = os.path.join(BENCH, "out")

SETUP_PROBES = 5
OP_TIMEOUT_S = 150
# calib_s of child.calibrate() (run twice) on the machine of the reference
# figures in README.md, median over 8 probes; it only sets the scale.
CALIB_REF_S = 0.096


@dataclass(frozen=True)
class Workload:
    model: str
    d: int
    command: str  # "bounds" or "verify"
    size: int  # --n-max for bounds, --n for verify
    samples: int = 0

    def argv(self, seed: int) -> list[str]:
        head = ["--builtin", self.model, "--dim", str(self.d)]
        if self.command == "bounds":
            return head + ["--format", "json", "bounds", "--n-max", str(self.size)]
        return head + ["--seed", str(seed), "--format", "json", "verify",
                       "--n", str(self.size), "--samples", str(self.samples)]


WORKLOADS = {
    "hs2-bounds": Workload("hard-square", 2, "bounds", 14),
    "col3-bounds": Workload("coloring:3", 2, "bounds", 10),
    "hs3-bounds": Workload("hard-square", 3, "bounds", 3),
    "hs2-verify": Workload("hard-square", 2, "verify", 4, samples=50),
}

with open(os.path.join(ROOT, "BENCHMARK.json")) as _fh:
    _SPEC = json.load(_fh)
UNITS = {m["name"]: m["unit"] for m in _SPEC["end_to_end"] + _SPEC["per_layer"]}


class OpFailed(Exception):
    """The operation exited non-zero, timed out or gave a wrong output."""


class WrongOutput(OpFailed):
    pass


def spawn(args: list[str]) -> dict:
    """Run child.py once; returns its JSON result."""
    t0 = time.monotonic()
    try:
        proc = subprocess.run(
            [sys.executable, CHILD, repr(t0), *args],
            capture_output=True, text=True, timeout=OP_TIMEOUT_S, cwd=ROOT,
        )
    except subprocess.TimeoutExpired:
        raise OpFailed(f"no result within {OP_TIMEOUT_S} s") from None
    if proc.returncode != 0 or not proc.stdout.strip():
        raise OpFailed(f"child exited {proc.returncode}: {proc.stderr.strip()[-2000:]}")
    try:
        return json.loads(proc.stdout.splitlines()[-1])
    except json.JSONDecodeError as exc:
        raise OpFailed(f"child printed no result: {exc}") from None


def scaled(result: dict, key: str) -> float:
    """The child's time ``key`` at the machine speed where calib_s is CALIB_REF_S."""
    return result[key] * CALIB_REF_S / result["calib_s"]


def check_output(w: Workload, seed: int, result: dict, ref: dict[int, int]) -> int:
    if result["exit"] != 0:
        raise OpFailed(f"sftbounds exited {result['exit']}")
    try:
        if w.command == "bounds":
            return check.check_bounds(result["stdout"], w.model, w.d, w.size, ref)
        return check.check_verify(result["stdout"], w.size, w.samples, seed, ref)
    except (check.CheckError, ValueError, KeyError, TypeError) as exc:
        raise WrongOutput(repr(exc)) from None


def run_workload(name: str, seed: int, seconds: float, trace: bool) -> dict:
    w = WORKLOADS[name]
    ref = reference.counts(w.model, w.d)
    setups = [scaled(spawn(["--probe"]), "setup_s") for _ in range(SETUP_PROBES)]
    os.makedirs(OUT, exist_ok=True)
    spans_path = os.path.join(OUT, f"{name}.spans")

    attempted = failed = wrong = 0
    plain: list[dict] = []
    traced: list[dict] = []
    start = time.monotonic()
    last_round = 0.0
    while attempted == 0 or time.monotonic() - start + last_round <= seconds:
        t_round = time.monotonic()
        for is_traced in ((False, True) if trace else (False,)):
            attempted += 1
            extra = ["--spans", spans_path] if is_traced else []
            try:
                result = spawn(extra + ["--", *w.argv(seed)])
                setups.append(scaled(result, "setup_s"))
                result["checks_decided"] = check_output(w, seed, result, ref)
                if is_traced:
                    table = spans.SpanTable.load(spans_path)
                    result["layers"] = spans.layer_metrics(table, result["wall_s"])
                    root = table.total("cli.main")
                    if not 0 <= result["wall_s"] - root < 0.01:
                        raise OpFailed(f"root span {root} s does not fit wall {result['wall_s']} s")
            except OpFailed as exc:
                failed += 1
                wrong += isinstance(exc, WrongOutput)
                print(f"{name}: operation {attempted} failed: {exc}", file=sys.stderr)
                continue
            (traced if is_traced else plain).append(result)
        last_round = time.monotonic() - t_round

    metrics: dict[str, dict] = {}
    if plain and not trace:
        values = {
            "wall_s": statistics.median(scaled(r, "wall_s") for r in plain),
            "setup_s": statistics.median(setups),
            "peak_rss_mb": statistics.median(r["peak_rss_mb"] for r in plain),
            "checks_decided": statistics.median(r["checks_decided"] for r in plain),
        }
        metrics = {k: {"value": v, "unit": UNITS[k]} for k, v in values.items()}
    if plain and traced and trace:
        traced.sort(key=lambda r: r["wall_s"])
        layers = dict(traced[(len(traced) - 1) // 2]["layers"])
        layers["trace.overhead_s"] = layers["trace.wall_s"] - statistics.median(
            r["wall_s"] for r in plain)
        metrics = {k: {"value": v, "unit": UNITS[k]} for k, v in layers.items()}
    return {
        "correct": wrong == 0 and bool(metrics),
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join(ROOT, "src", "sftbounds", "cli.py")):
        print(f"no sftbounds source under {ROOT}/src", file=sys.stderr)
        return 2
    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    ok = True
    for name in names:
        result = run_workload(name, args.seed, args.seconds, bool(args.trace))
        for key, m in result["metrics"].items():
            print(f"{name}  {key} = {m['value']:.6g} {m['unit']}")
        print(f"{name}  attempted = {result['attempted']}, failed = {result['failed']}")
        ok = ok and result["correct"]
        if args.workload != "all":
            print(json.dumps(result))
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
