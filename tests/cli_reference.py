"""The CLI's argparse parser as it was before ``cli.parse_args`` replaced
it, kept verbatim as the reference that ``parse_args`` is checked against.

``build_parser().parse_args(argv)`` returns an ``argparse.Namespace`` with
the attributes ``parse_args(argv)`` must return, or raises ``CliError``
with exit code 1 after printing the usage to stderr.
"""

from __future__ import annotations

import argparse
import sys

from sftbounds.cli import EXIT_USAGE, CliError


class _Parser(argparse.ArgumentParser):
    # argparse defaults to exit code 2 on usage errors; the contract is 1.
    def error(self, message):
        self.print_usage(sys.stderr)
        raise CliError(EXIT_USAGE, f"{self.prog}: error: {message}")


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
