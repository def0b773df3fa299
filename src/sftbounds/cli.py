"""Command-line interface.

Subcommands: count, bounds, verify, glue-demo.  Global flags select the
model (--model FILE, or --builtin NAME[:PARAM] with --dim), the output
format, seed and log base, and come before the subcommand, e.g.

    sftbounds --builtin hard-square --dim 2 count --n 3
    sftbounds --builtin coloring:3 --dim 2 --format json bounds --n-max 6

Exit codes: 0 success, 1 usage or parse failure, 2 budget exceeded or
sampling failure, 3 verification failure.
"""

from __future__ import annotations

import argparse
import json
import random
import sys

from .models import ModelFormatError, SftModel, builtin_model, parse_model
from .patterns import format_pattern
from .transfer import BudgetExceededError, Side, count_patterns
from .gluing import CountMismatchError, GlueError, glue_and_check
from .bounds import (
    build_report,
    qd_recurrence_sweep,
    report_to_csv,
    report_to_json_dict,
    report_to_text,
    side_checks,
)
from .sampling import SamplingError, check_glued_samples, sample_same_state_group

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_BUDGET = 2
EXIT_VERIFY = 3


class CliError(Exception):
    def __init__(self, code: int, message: str | None = None):
        super().__init__(message)
        self.code = code
        self.message = message


class _Parser(argparse.ArgumentParser):
    # argparse defaults to exit code 2 on usage errors; the contract is 1.
    def error(self, message):
        self.print_usage(sys.stderr)
        raise CliError(EXIT_USAGE, f"{self.prog}: error: {message}")


def load_model(args) -> SftModel:
    """The one model the global flags select, from a file or a builtin."""
    if (args.model is None) == (args.builtin is None):
        raise CliError(EXIT_USAGE, "exactly one of --model or --builtin is required")
    if args.model is not None:
        if args.dim is not None:
            raise CliError(
                EXIT_USAGE, "--dim applies only to --builtin; a model file sets its own"
            )
        try:
            with open(args.model, encoding="utf-8") as fh:
                text = fh.read()
        except (OSError, UnicodeDecodeError) as exc:
            raise CliError(EXIT_USAGE, f"cannot read {args.model}: {exc}") from None
        return parse_model(text)
    name, colon, param = args.builtin.partition(":")
    if args.dim is None:
        raise CliError(EXIT_USAGE, "--builtin requires --dim")
    q = None
    if colon:
        try:
            q = int(param)
        except ValueError:
            raise CliError(
                EXIT_USAGE, f"builtin parameter must be an integer, got {param!r}"
            ) from None
    return builtin_model(name, args.dim, q)


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="sftbounds",
        description=(
            "Exact pattern counts and certified entropy brackets for "
            "symmetric nearest-neighbor subshifts of finite type."
        ),
    )
    parser.add_argument("--model", metavar="PATH", help="model document (JSON)")
    parser.add_argument(
        "--builtin",
        metavar="NAME[:PARAM]",
        help="builtin model: hard-square or coloring:q",
    )
    parser.add_argument("--dim", type=int, help="dimension for --builtin")
    parser.add_argument("--format", choices=("human", "json", "csv"), default="human")
    parser.add_argument("--seed", type=int, default=0, help="RNG seed for demos")
    parser.add_argument("--log-base", choices=("e", "2"), default="e")

    sub = parser.add_subparsers(dest="command", metavar="COMMAND")

    p_count = sub.add_parser("count", help="exact pattern counts")
    p_count.add_argument("--n", type=int, required=True)
    p_count.add_argument("--n-max", type=int, default=None)

    p_bounds = sub.add_parser("bounds", help="entropy bracket report")
    p_bounds.add_argument("--n-max", type=int, required=True)

    p_verify = sub.add_parser("verify", help="check the bound inequalities")
    p_verify.add_argument("--n", type=int, default=2)
    p_verify.add_argument("--samples", type=int, default=200)

    p_demo = sub.add_parser("glue-demo", help="show a reflection-gluing run")
    p_demo.add_argument("--n", type=int, default=2)

    return parser


def cmd_count(model: SftModel, args) -> int:
    n_lo = args.n
    n_hi = args.n_max if args.n_max is not None else args.n
    if n_lo < 1 or n_hi < n_lo:
        raise CliError(EXIT_USAGE, "need 1 <= --n <= --n-max")
    rows = []
    for n in range(n_lo, n_hi + 1):
        rows.append((n, count_patterns(model, n)))
    if args.format == "json":
        doc = {"counts": [{"n": n, "C_n": str(c)} for n, c in rows]}
        print(json.dumps(doc, indent=2))
    elif args.format == "csv":
        print("n,C_n")
        for n, c in rows:
            print(f"{n},{c}")
    else:
        for n, c in rows:
            print(f"C_{n} = {c}")
    return EXIT_OK


def cmd_bounds(model: SftModel, args) -> int:
    if args.n_max < 1:
        raise CliError(EXIT_USAGE, "bounds needs --n-max >= 1")
    report = build_report(model, args.n_max)
    if args.format == "json":
        print(json.dumps(report_to_json_dict(report, args.log_base), indent=2))
    else:
        render = report_to_csv if args.format == "csv" else report_to_text
        sys.stdout.write(render(report, args.log_base))
    return EXIT_OK


_VERDICT = {True: "PASS", False: "FAIL", None: "UNDECIDED"}


def cmd_verify(model: SftModel, args) -> int:
    if args.n < 2:
        raise CliError(EXIT_USAGE, "verify needs --n >= 2")
    if args.samples < 1:
        raise CliError(EXIT_USAGE, "verify needs --samples >= 1")
    if args.format == "csv":
        raise CliError(EXIT_USAGE, "verify prints --format human or json, not csv")
    n = args.n
    # the count and the table of side n share one Side
    c_glued = count_patterns(model, 2 * n - 1)
    side = Side(model, n)
    c_n = count_patterns(model, n, side=side)
    results = []
    for _, _, ok, line in side_checks(model, n, c_n, c_glued, side):
        if ok is None:  # the per-state table was refused
            raise BudgetExceededError(line)
        results.append((line, ok))

    results.append(qd_recurrence_sweep())

    rng = random.Random(args.seed)
    # with C_n = 0 there is no side-n pattern to draw
    checked, sample_ok = check_glued_samples(model, n, args.samples if c_n else 0, rng)
    label = f"glue/periodic property samples ({args.samples} draws, seed {args.seed})"
    if checked < args.samples and sample_ok:
        label += f", {checked} checked"
    results.append((label, sample_ok if checked else None))

    failed = any(ok is False for _, ok in results)
    undecided = sum(ok is None for _, ok in results)
    if args.format == "json":
        doc = {
            "checks": [{"name": name, "pass": ok} for name, ok in results],
            "all_pass": False if failed else None if undecided else True,
        }
        print(json.dumps(doc, indent=2))
    else:
        for name, ok in results:
            print(f"{name} ... {_VERDICT[ok]}")
        if failed:
            print("VERIFICATION FAILED")
        elif undecided:
            print(f"no check failed; {undecided} undecided")
        else:
            print("all checks passed")
    return EXIT_VERIFY if failed else EXIT_OK


def cmd_glue_demo(model: SftModel, args) -> int:
    if model.dimension not in (2, 3):
        raise CliError(EXIT_USAGE, "glue-demo supports dimension 2 or 3")
    if args.n < 2:
        raise CliError(EXIT_USAGE, "glue-demo needs --n >= 2")
    if args.format != "human":
        raise CliError(EXIT_USAGE, f"glue-demo prints --format human, not {args.format}")
    rng = random.Random(args.seed)
    group = sample_same_state_group(model, args.n, 1 << model.dimension, rng)
    alphabet = model.alphabet
    for t, p in enumerate(group):
        print(f"# block {t}")
        print(format_pattern(p, alphabet))
    glued, core, glued_ok, wrap_ok = glue_and_check(model, group)
    print("# glued")
    print(format_pattern(glued, alphabet))
    print("# periodic core (from block 0 glued with itself)")
    print(format_pattern(core, alphabet))
    print(f"admissible: {'yes' if glued_ok else 'no'}, wrap: {'yes' if wrap_ok else 'no'}")
    return EXIT_OK if glued_ok and wrap_ok else EXIT_VERIFY


_COMMANDS = {
    "count": cmd_count,
    "bounds": cmd_bounds,
    "verify": cmd_verify,
    "glue-demo": cmd_glue_demo,
}


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        if args.command is None:
            raise CliError(
                EXIT_USAGE, "a command is required (count, bounds, verify, glue-demo)"
            )
        model = load_model(args)
        return _COMMANDS[args.command](model, args)
    except CliError as exc:
        if exc.message:
            print(exc.message, file=sys.stderr)
        return exc.code
    except ModelFormatError as exc:
        print(f"model error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except (BudgetExceededError, SamplingError) as exc:
        print(f"resource limit: {exc}", file=sys.stderr)
        return EXIT_BUDGET
    except GlueError as exc:
        print(f"construction failure: {exc}", file=sys.stderr)
        return EXIT_VERIFY
    except CountMismatchError as exc:
        print(f"verification failure: {exc}", file=sys.stderr)
        return EXIT_VERIFY


def entry_point() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entry_point()
